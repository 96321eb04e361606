"""Linear-time construction of minimum dominating sets for m x n grids, m, n >= 16.

The method places "black disks" on a period-5 diagonal lattice that covers
every sub-grid vertex exactly once, then patches the frame with "white
squares" chosen from 25 residue-class case tables keyed by
(n mod 5, m mod 5).

The paper's case tables are reproduced verbatim in this module, as data, and
build(dims, {}) evaluates them as printed. They do not all survive
verification. What each class changes from them is stated once, as the
`edit` of its records in the deviation ledger (griddom.deviations), and
construct() passes the class's edit to build(). With those edits every one
of the 25 classes reaches the optimal cardinality with a [1,2]-set.

A pattern is stored as two row-major int32 (k, 2) coordinate arrays. Work
and memory are proportional to the size of the output; no m*n-sized
structure is ever allocated here.
"""

from collections.abc import Mapping
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .deviations import class_edit
from .grid import GridDims, Vertex, coordinate_array

MIN_SIDE = 16

# Sides above this cannot be stored as int32 coordinates next to the
# zero-padded border the verifier uses.
MAX_SIDE = 2**31 - 3


def pattern_class(dims: GridDims) -> tuple[int, int]:
    """Residue-class key (n mod 5, m mod 5) selecting the case tables."""
    return (dims.n % 5, dims.m % 5)


def gamma_formula(dims: GridDims) -> int:
    """Optimal domination number floor((m+2)(n+2)/5) - 4, valid for m, n >= 16."""
    _check_dims(dims)
    return (dims.m + 2) * (dims.n + 2) // 5 - 4


def _check_dims(dims: GridDims) -> None:
    if min(dims.m, dims.n) < MIN_SIDE:
        raise ValueError(
            f"the closed form and the construction need m, n >= {MIN_SIDE}; "
            f"got {dims.m}x{dims.n} (the oracle module solves small grids exactly)"
        )


def _check_max_side(dims: GridDims) -> None:
    if max(dims.m, dims.n) > MAX_SIDE:
        raise ValueError(f"grid sides above {MAX_SIDE} are not supported; "
                         f"got {dims.m}x{dims.n}")


# ---------------------------------------------------------------------------
# The paper's case tables, verbatim, as data
# ---------------------------------------------------------------------------

# A table entry (k, i, dj, extras) reads A_k^(i, B+dj) + extras, where
# A_k^(i,j) = range(5i+k, 5j+k+1, 5), empty when i > j, and B is T = m // 5 for
# the column tables and S = n // 5 for the row tables. An extra e <= 0 stands
# for side + e, so (3, 1, -2, (2, -1)) on a column is A_3^(1,T-2) + {2, m-1}.

# first-row whites, keyed n mod 5
FIRST_ROW = {
    0: (4, 1, -1, (3,)),
    1: (3, 1, -2, (2, -2)),
    2: (4, 1, -2, (3, -2)),
    3: (0, 1, -1, (-2,)),
    4: (1, 1, -1, (-2,)),
}

# (first column, last column, last row) whites, keyed (n mod 5, m mod 5)
SIDES = {
    (0, 0): ((2, 0, -2, (-3,)), (4, 1, -1, (3,)), (2, 0, -2, (-2,))),
    (0, 1): ((2, 0, -1, ()), (4, 1, -2, (3, -1)), (0, 1, -1, ())),
    (0, 2): ((2, 0, -1, ()), (4, 1, -2, (3, -2)), (3, 1, -2, (2, -1))),
    (0, 3): ((2, 0, 0, ()), (4, 1, -1, (3,)), (1, 1, -1, ())),
    (0, 4): ((2, 0, -1, (-1,)), (4, 1, -1, (3,)), (4, 1, 0, (3,))),
    (1, 0): ((4, 1, -1, (3,)), (3, 1, -2, (2, -1)), (1, 1, -1, ())),
    (1, 1): ((4, 1, -2, (3, -1)), (3, 1, -2, (2, -2)), (4, 1, -1, (3, -1))),
    (1, 2): ((4, 1, -2, (3, -2)), (3, 1, -2, (2,)), (2, 0, -1, ())),
    (1, 3): ((4, 1, -1, (3,)), (3, 1, -2, (2,)), (0, 1, 0, ())),
    (1, 4): ((4, 1, -1, (3,)), (3, 1, -1, (2, -2)), (3, 1, -2, (2, -2))),
    (2, 0): ((2, 0, -2, (-2,)), (3, 1, -2, (2, -1)), (2, 0, -1, ())),
    (2, 1): ((2, 0, -1, ()), (3, 1, -2, (2, -2)), (0, 1, -1, (-1,))),
    (2, 2): ((2, 0, -1, ()), (3, 1, -1, (2,)), (3, 1, -1, (2,))),
    (2, 3): ((2, 0, -1, ()), (3, 1, -1, (2,)), (1, 1, 0, ())),
    (2, 4): ((2, 0, -1, (-1,)), (3, 1, 0, (2,)), (4, 1, -2, (3, -2))),
    (3, 0): ((0, 1, -1, ()), (3, 1, -2, (2, -1)), (3, 1, -1, (2,))),
    (3, 1): ((0, 1, 0, ()), (3, 1, -2, (2, -2)), (1, 1, -1, (-1,))),
    (3, 2): ((0, 1, -1, (-1,)), (3, 1, -1, (2,)), (4, 1, -1, (3,))),
    (3, 3): ((0, 1, -1, (-2,)), (3, 1, -1, (2,)), (2, 0, 0, ())),
    (3, 4): ((0, 1, 0, ()), (3, 1, 0, (2,)), (0, 1, -1, (-2,))),
    (4, 0): ((3, 1, -2, (2, -1)), (3, 1, -2, (2, -1)), (4, 1, -1, (3,))),
    (4, 1): ((3, 1, -2, (2, -2)), (3, 1, -2, (2, -2)), (2, 0, -1, (-1,))),
    (4, 2): ((3, 1, -1, (2,)), (3, 1, -1, (2,)), (0, 1, 0, ())),
    (4, 3): ((3, 1, -1, (2,)), (3, 1, -1, (2,)), (3, 1, 0, (2,))),
    (4, 4): ((3, 1, -1, (2,)), (3, 1, -1, (2,)), (1, 1, -1, (-2,))),
}

# the ledger edit keys of the four frame entries, in the order of the tables
FRAME_KEYS = ("first_row", "first_col", "last_col", "last_row")


def _at(e: int, side: int) -> int:
    return e if e > 0 else side + e


def _entry(spec, blocks: int, side: int) -> list[int]:
    k, i, dj, extras = spec
    return [*range(5 * i + k, 5 * (blocks + dj) + k + 1, 5),
            *(_at(e, side) for e in extras)]


# ---------------------------------------------------------------------------
# Builder
# ---------------------------------------------------------------------------

def _lattice(dims: GridDims, edit: Mapping) -> np.ndarray:
    """All black disks as a row-major int32 (k, 2) array.

    Row p holds the columns congruent to a1 + 3(p-1) mod 5 in [3, n-2]
    for p = 1, in [1, n] for the middle rows and in [lo, n-2] for p = m,
    where a1 is the edit's offset (else the paper's first-row offset) and
    lo is 3 unless the edit sets last_row_from. So every row is one
    range of step 5, and the middle rows repeat with period 5: their five
    ranges are built once and shared. A disk the edit removes is filtered
    out of its row's range, which leaves that one row a list. The array is
    filled straight from the rows.
    """
    m, n = dims.m, dims.n
    # a1 is the paper's first-row offset: n mod 5, or 2 when 5 divides n
    a1 = edit.get("offset", n % 5 or 2)

    def row(p, lo, hi):
        return range(lo + (a1 + 3 * (p - 1) - lo) % 5, hi + 1, 5)

    middle = [row(p, 1, n) for p in range(2, 7)]
    rows = ([row(1, 3, n - 2)] + (middle * ((m - 2) // 5 + 1))[:m - 2]
            + [row(m, edit.get("last_row_from", 3), n - 2)])
    for r, c in edit.get("remove", ()):
        r, c = _at(r, m), _at(c, n)
        if c not in rows[r - 1]:
            raise ValueError(f"edit removes ({r}, {c}), which holds no disk")
        rows[r - 1] = [q for q in rows[r - 1] if q != c]
    return _coordinates(chain.from_iterable(map(zip, map(repeat, range(1, m + 1)), rows)),
                        sum(map(len, rows)))


def _coordinates(pairs, count: int) -> np.ndarray:
    """An iterator of count (row, col) pairs as an int32 (count, 2) array."""
    return np.fromiter(chain.from_iterable(pairs), dtype=np.int32,
                       count=2 * count).reshape(-1, 2)


def build(dims: GridDims, edit: Mapping) -> tuple[np.ndarray, np.ndarray]:
    """Black disks and white squares of the case tables for dims, with one
    class's ledger edit applied (16 <= m, n <= MAX_SIDE; other sides raise
    ValueError before anything is built).

    Returns the disks as a row-major int32 (k, 2) array and the whites as
    an int32 (k, 2) array in table order (first row, first column, last
    column, last row), which PatternSet sorts. build(dims, {}) is the
    paper's baseline, which the ledger's counterexamples replay. The edit
    keys are described on deviations.DeviationEntry.

    Table entries may reach past the grid: column 5S+4 of class (0,4)'s last
    row denotes no vertex and is dropped (ledger DEV-CLIP-04).
    """
    _check_dims(dims)
    _check_max_side(dims)
    m, n = dims.m, dims.n
    black = _lattice(dims, edit)
    specs = (FIRST_ROW[n % 5],) + SIDES[n % 5, m % 5]
    fr, fc, lc, lr = (edit.get(key, spec) for key, spec in zip(FRAME_KEYS, specs))
    S, T = n // 5, m // 5
    fr, fc, lc = _entry(fr, S, n), _entry(fc, T, m), _entry(lc, T, m)
    lr = [q for q in _entry(lr, S, n) if q <= n]
    white = _coordinates(chain(zip(repeat(1), fr), zip(fc, repeat(1)),
                               zip(lc, repeat(n)), zip(repeat(m), lr)),
                         len(fr) + len(fc) + len(lc) + len(lr))
    return black, white


# ---------------------------------------------------------------------------
# Assembled pattern
# ---------------------------------------------------------------------------

def _vertices(rc: np.ndarray) -> tuple[Vertex, ...]:
    return tuple(map(Vertex, *rc.T.tolist())) if len(rc) else ()


def row_major_keys(rc: np.ndarray, n: int) -> np.ndarray:
    """int64 key r*(n+2) + c of each (row, col) pair: increasing in row-major
    order, and distinct for every cell of the zero-padded (m+2) x (n+2) frame."""
    keys = np.multiply(rc[:, 0], n + 2, dtype=np.int64)
    keys += rc[:, 1]
    return keys


def _canonical(members, dims: GridDims, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Members as a read-only, row-major int32 (k, 2) array plus its keys;
    sorts when the input is not sorted already and rejects duplicates."""
    rc = coordinate_array(members, dims)
    keys = row_major_keys(rc, dims.n)
    if not (keys[1:] > keys[:-1]).all():
        order = np.argsort(keys, kind="stable")
        rc, keys = rc[order], keys[order]
        dup = keys[1:] == keys[:-1]
        if dup.any():
            raise ValueError(f"duplicate {what} member {tuple(rc[dup.argmax()].tolist())}")
    rc = np.ascontiguousarray(rc, dtype=np.int32).view()
    rc.flags.writeable = False
    return rc, keys


@dataclass(frozen=True, eq=False)
class PatternSet:
    """A constructed candidate dominating set.

    black_rc/white_rc hold the members as read-only, row-major int32 (k, 2)
    arrays of 1-based (row, col) pairs. Any (k, 2) integer array-like is
    accepted and sorted; out-of-bounds members, duplicates and black/white
    overlap raise ValueError when the set is created. black and white are
    Vertex tuples built on demand. Instances compare by identity.
    deviations are the grid class's ledger ids (deviations.class_edit),
    never stored; grids below MIN_SIDE have none.
    """

    dims: GridDims
    black_rc: np.ndarray
    white_rc: np.ndarray

    def __post_init__(self):
        _check_max_side(self.dims)
        black, bkeys = _canonical(self.black_rc, self.dims, "black")
        white, wkeys = _canonical(self.white_rc, self.dims, "white")
        if len(black) and len(white):
            both = bkeys.take(np.searchsorted(bkeys, wkeys), mode="clip") == wkeys
            if both.any():
                raise ValueError("black and white lists overlap at "
                                 f"{tuple(white[both.argmax()].tolist())}")
        object.__setattr__(self, "black_rc", black)
        object.__setattr__(self, "white_rc", white)

    @property
    def black(self) -> tuple[Vertex, ...]:
        return _vertices(self.black_rc)

    @property
    def white(self) -> tuple[Vertex, ...]:
        return _vertices(self.white_rc)

    @property
    def cardinality(self) -> int:
        return len(self.black_rc) + len(self.white_rc)

    @property
    def deviations(self) -> tuple[str, ...]:
        if min(self.dims.m, self.dims.n) < MIN_SIDE:
            return ()
        return class_edit(pattern_class(self.dims))[0]


def construct(dims: GridDims) -> PatternSet:
    """Build a minimum dominating set for dims.

    The class's ledger records (deviations.class_edit) state what changes
    from the paper's tables. For every class the result dominates, is a
    [1,2]-set, covers the sub-grid exactly once and has size
    gamma_formula(dims).
    """
    return PatternSet(dims, *build(dims, class_edit(pattern_class(dims))[1]))
