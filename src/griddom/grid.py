"""Grid geometry: coordinates, neighborhoods, boundary and sub-grid predicates.

Vertices are 1-based (row, col); (1, 1) is the upper-left corner and (m, n)
the lower-right one. Sets of vertices travel as (k, 2) integer arrays (see
coordinate_array). Everything here is a pure function.
"""

from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np


class Vertex(NamedTuple):
    row: int
    col: int


@dataclass(frozen=True)
class GridDims:
    """Dimensions of an m x n grid graph (m rows, n columns)."""

    m: int
    n: int

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError(f"grid dimensions must be positive, got {self.m}x{self.n}")

    @property
    def row_blocks(self) -> int:
        """Number of complete 5-row horizontal blocks."""
        return self.m // 5

    @property
    def col_blocks(self) -> int:
        """Number of complete 5-column vertical strips."""
        return self.n // 5

    @property
    def transposed(self) -> "GridDims":
        return GridDims(self.n, self.m)

    def in_bounds(self, v: tuple) -> bool:
        r, c = v
        return 1 <= r <= self.m and 1 <= c <= self.n

    def vertices(self) -> Iterable[Vertex]:
        for r in range(1, self.m + 1):
            for c in range(1, self.n + 1):
                yield Vertex(r, c)


def coordinate_array(members, dims: GridDims) -> np.ndarray:
    """Members as a (k, 2) integer array of 1-based (row, col) pairs.

    Takes an integer array, returned as it is, or any iterable of pairs (a
    set of Vertex included). Raises ValueError for another shape, a
    non-integer dtype, or a pair outside dims, naming the first such member.
    """
    rc = np.asarray(members if isinstance(members, np.ndarray) else list(members))
    if rc.size == 0:
        return np.empty((0, 2), dtype=np.int32)
    if rc.ndim != 2 or rc.shape[1] != 2 or rc.dtype.kind not in "iu":
        raise ValueError("members must be (row, col) integer pairs; got shape "
                         f"{rc.shape} and dtype {rc.dtype}")
    if rc.dtype.kind == "u":
        rc = rc.astype(np.int64)      # values past 2**63 turn negative: out of bounds
    r, c = rc[:, 0], rc[:, 1]
    if rc.min() < 1 or r.max() > dims.m or c.max() > dims.n:
        bad = np.flatnonzero((r < 1) | (r > dims.m) | (c < 1) | (c > dims.n))[0]
        raise ValueError(f"member {tuple(rc[bad].tolist())} out of bounds "
                         f"for {dims.m}x{dims.n} grid")
    return rc


def _require_in_bounds(v: tuple, dims: GridDims) -> None:
    if not dims.in_bounds(v):
        raise ValueError(f"vertex {tuple(v)} out of bounds for {dims.m}x{dims.n} grid")


def neighbors(v: tuple, dims: GridDims) -> set[Vertex]:
    """Orthogonally adjacent in-bounds vertices of v (2 to 4 of them)."""
    _require_in_bounds(v, dims)
    r, c = v
    out = set()
    if r > 1:
        out.add(Vertex(r - 1, c))
    if r < dims.m:
        out.add(Vertex(r + 1, c))
    if c > 1:
        out.add(Vertex(r, c - 1))
    if c < dims.n:
        out.add(Vertex(r, c + 1))
    return out


def closed_neighborhood(v: tuple, dims: GridDims) -> set[Vertex]:
    """neighbors(v) plus v itself."""
    out = neighbors(v, dims)
    out.add(Vertex(*v))
    return out


def boundary(dims: GridDims) -> set[Vertex]:
    """All vertices of degree < 4: the outer frame of the grid."""
    m, n = dims.m, dims.n
    out = set()
    for c in range(1, n + 1):
        out.add(Vertex(1, c))
        out.add(Vertex(m, c))
    for r in range(1, m + 1):
        out.add(Vertex(r, 1))
        out.add(Vertex(r, n))
    return out


def subgrid_vertices(dims: GridDims) -> set[Vertex]:
    """Interior vertices minus the four near-corner cells.

    The sub-grid is rows 2..m-1 x cols 2..n-1 with (2,2), (2,n-1), (m-1,2)
    and (m-1,n-1) removed; each member has degree 4 in the full grid.
    """
    m, n = dims.m, dims.n
    if m < 4 or n < 4:
        raise ValueError(f"sub-grid requires at least a 4x4 grid, got {m}x{n}")
    out = {
        Vertex(r, c)
        for r in range(2, m)
        for c in range(2, n)
    }
    out -= {Vertex(2, 2), Vertex(2, n - 1), Vertex(m - 1, 2), Vertex(m - 1, n - 1)}
    return out


def residue_class(k: int, i: int, j: int) -> list[int]:
    """The ascending list [5i+k, 5(i+1)+k, ..., 5j+k]; empty when i > j.

    An empty result is deliberate: border case tables instantiate ranges that
    collapse near the smallest supported grids, and those must union cleanly.
    """
    if not 0 <= k <= 4:
        raise ValueError(f"residue k must be in 0..4, got {k}")
    if i > j:
        return []
    return [5 * t + k for t in range(i, j + 1)]
