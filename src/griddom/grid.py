"""Grid geometry: dimensions, vertices and coordinate arrays.

Vertices are 1-based (row, col); (1, 1) is the upper-left corner and (m, n)
the lower-right one. Sets of vertices travel as (k, 2) integer arrays (see
coordinate_array). Everything here is a pure function.

Grid sides and member coordinates are exact integers: GridDims stores
numpy integers as int and refuses bool, floats and every other non-integer,
and coordinate_array refuses a bool coordinate. GridDims' only other rule is
m, n >= 1; the closed form, the construction and the count cross-check need
m, n >= 16, and construction._check_dims states that rule.
"""

import operator
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

import numpy as np


class Vertex(NamedTuple):
    row: int
    col: int


@dataclass(frozen=True)
class GridDims:
    """Dimensions of an m x n grid graph (m rows, n columns).

    Each side is read with operator.index, so a numpy integer is stored as
    int; bool, floats and other non-integers raise a ValueError that names
    the side, and a side below 1 raises one too. Sides below 16 are valid
    here, for the oracles, but the closed form, construct and
    count_cross_check refuse them (construction._check_dims).
    """

    m: int
    n: int

    def __post_init__(self):
        for side in ("m", "n"):
            value = getattr(self, side)
            if isinstance(value, (bool, np.bool_)) or not hasattr(value, "__index__"):
                raise ValueError(f"{side} must be an integer, got {value!r}")
            object.__setattr__(self, side, operator.index(value))
        if self.m < 1 or self.n < 1:
            raise ValueError(f"grid dimensions must be positive, got {self.m}x{self.n}")


def coordinate_array(members, dims: GridDims) -> np.ndarray:
    """Members as a (k, 2) integer array of 1-based (row, col) pairs.

    Takes an integer array, returned as it is, or any iterable of pairs (a
    set of Vertex included). Raises ValueError for another shape, a
    non-integer dtype, a bool coordinate (bool or np.bool_, which numpy
    would read as 0 or 1 beside ints), or a pair outside dims, naming the
    first such member.
    """
    # an iterable is listed once, and the list also serves the bool scan
    rc = np.asarray(members if isinstance(members, np.ndarray)
                    else (members := list(members)))
    if rc.size == 0:
        return np.empty((0, 2), dtype=np.int32)
    if rc.ndim != 2 or rc.shape[1] != 2 or rc.dtype.kind not in "iu":
        raise ValueError("members must be (row, col) integer pairs; got shape "
                         f"{rc.shape} and dtype {rc.dtype}")
    bools = {bool, np.bool_}
    if isinstance(members, list) and bools & set(map(type, chain.from_iterable(members))):
        bad = next(p for p in members if bools & set(map(type, p)))
        raise ValueError(f"member {tuple(bad)} has a bool coordinate; "
                         "members must be (row, col) integer pairs")
    if rc.dtype.kind == "u":
        rc = rc.astype(np.int64)      # values past 2**63 turn negative: out of bounds
    r, c = rc[:, 0], rc[:, 1]
    if rc.min() < 1 or r.max() > dims.m or c.max() > dims.n:
        bad = np.flatnonzero((r < 1) | (r > dims.m) | (c < 1) | (c > dims.n))[0]
        raise ValueError(f"member {tuple(rc[bad].tolist())} out of bounds "
                         f"for {dims.m}x{dims.n} grid")
    return rc
