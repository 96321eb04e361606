"""Linear-time construction of dominating sets for m x n grids, m, n >= 16.

The method places "black disks" on a period-5 diagonal lattice that covers
every sub-grid vertex exactly once, then patches the frame with "white
squares" chosen from 25 residue-class case tables keyed by
(n mod 5, m mod 5).

The baseline case tables are reproduced verbatim in this module, as data.
They do not all survive verification: some classes leave frame vertices
undominated or miss the optimal cardinality. Every correction applied on top
of the baseline is recorded in the bundled deviation ledger (see
griddom.deviations), keyed by the ledger ids referenced in comments below.
Three classes provably cannot reach the optimal cardinality under this
architecture at all; those are constructed from the baseline tables
unchanged and flagged.

A pattern is stored as two row-major int32 (k, 2) coordinate arrays. Work
and memory are proportional to the size of the output; no m*n-sized
structure is ever allocated here.
"""

from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .deviations import deviation_ids_for_class
from .grid import GridDims, Vertex, coordinate_array, residue_class

MIN_SIDE = 16

# Sides above this cannot be stored as int32 coordinates next to the
# zero-padded border the verifier uses.
MAX_SIDE = 2**31 - 3

# Classes (n mod 5, m mod 5) built on the transposed grid: their mirror class
# reaches the optimal cardinality while the direct tables provably cannot
# (ledger DEV-ORIENT-*).
TRANSPOSED_CLASSES = frozenset({(0, 1), (0, 3), (0, 4), (1, 2), (4, 1), (4, 2)})

# Classes whose last-row disk range starts at column 2 instead of 3, adding
# the disk at (m, 2) (ledger DEV-FIX-13 / DEV-FIX-21 / DEV-FIX-34).
LAST_ROW_FROM_COL2 = frozenset({(1, 3), (2, 1), (3, 4)})

# Class (3,3) uses diagonal offset 4: with the baseline offset 3 no choice of
# white squares reaches the optimal cardinality (ledger DEV-FIX-33).
PHASE_OVERRIDES = {(3, 3): 4}

# Classes that cannot reach the optimal cardinality in any orientation, with
# the (proven minimal) excess the construction attains (ledger DEV-DEFICIT-*).
DEFICIT_CLASSES = {(0, 0): 2, (0, 2): 1, (2, 0): 1}


def pattern_class(dims: GridDims) -> tuple[int, int]:
    """Residue-class key (n mod 5, m mod 5) selecting the case tables."""
    return (dims.n % 5, dims.m % 5)


def first_column_offset(n: int) -> int:
    """Column offset of the first black disk in row 1: 2 if 5 | n, else n mod 5."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return 2 if n % 5 == 0 else n % 5


def row_offset(a1: int, p: int) -> int:
    """Column offset of the black disks in row p: (a1 + 3(p-1)) mod 5."""
    if p < 1:
        raise ValueError(f"row index must be >= 1, got {p}")
    return (a1 + 3 * (p - 1)) % 5


def gamma_formula(dims: GridDims) -> int:
    """Optimal domination number floor((m+2)(n+2)/5) - 4, valid for m, n >= 16."""
    if min(dims.m, dims.n) < MIN_SIDE:
        raise ValueError(
            f"the closed form holds only for m, n >= {MIN_SIDE}; "
            f"got {dims.m}x{dims.n} (use the oracle module for small grids)"
        )
    return (dims.m + 2) * (dims.n + 2) // 5 - 4


def _check_dims(dims: GridDims) -> None:
    if min(dims.m, dims.n) < MIN_SIDE:
        raise ValueError(
            f"the construction requires m, n >= {MIN_SIDE}; got {dims.m}x{dims.n} "
            "(the oracle module solves small grids exactly)"
        )


# ---------------------------------------------------------------------------
# Step 1: black disks
# ---------------------------------------------------------------------------

def _lattice(dims: GridDims, corrections: bool = True) -> np.ndarray:
    """All black disks as a row-major int32 (k, 2) array (direct orientation).

    Row p holds the columns congruent to row_offset(a1, p) mod 5 in [3, n-2]
    for p = 1, in [1, n] for the middle rows and in [lo, n-2] for p = m, where
    lo is 2 for the classes in LAST_ROW_FROM_COL2 and 3 otherwise. So every
    row is one range of step 5, and the middle rows repeat with period 5.
    The array is filled straight from those per-row ranges.
    """
    m, n = dims.m, dims.n
    cls = pattern_class(dims)
    a1 = PHASE_OVERRIDES.get(cls, first_column_offset(n)) if corrections \
        else first_column_offset(n)
    lo_last = 2 if corrections and cls in LAST_ROW_FROM_COL2 else 3

    def row(p, lo, hi):
        """(first column, end of the column range, disk count) of row p"""
        first = lo + (row_offset(a1, p) - lo) % 5
        count = (hi - first) // 5 + 1
        return first, first + 5 * count, count

    middle = [row(p, 1, n) for p in range(2, 7)]
    per_row = ([row(1, 3, n - 2)] + (middle * ((m - 2) // 5 + 1))[:m - 2]
               + [row(m, lo_last, n - 2)])
    firsts, ends, counts = zip(*per_row)
    pairs = chain.from_iterable(map(zip, map(repeat, range(1, m + 1)),
                                    map(range, firsts, ends, repeat(5))))
    return np.fromiter(chain.from_iterable(pairs), dtype=np.int32,
                       count=2 * sum(counts)).reshape(-1, 2)


def black_disks(dims: GridDims, corrections: bool = True) -> tuple[Vertex, ...]:
    """All black disks for dims in row-major order (direct orientation).

    First and last row use columns in [3, n-2] (from [2, n-2] for the three
    classes in LAST_ROW_FROM_COL2); middle rows use the full range [1, n].
    Every sub-grid vertex ends up with exactly one disk in its closed
    neighborhood.
    """
    _check_dims(dims)
    return _vertices(_lattice(dims, corrections))


# ---------------------------------------------------------------------------
# Step 2: white squares (baseline case tables, verbatim, as data)
# ---------------------------------------------------------------------------

# A table entry (k, i, dj, extras) reads A_k^(i, B+dj) + extras, where
# A_k^(i,j) = [5i+k, ..., 5j+k] (grid.residue_class) and B is T = m // 5 for
# the column tables and S = n // 5 for the row tables. An extra e < 0 stands
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

# Verifier-driven corrections: (first row, first column, last column, last
# row) entries replacing the baseline; None keeps the baseline entry.
CORRECTIONS = {
    # DEV-FIX-33: offset-4 diagonal needs its own frame tables
    (3, 3): ((2, 1, 0, ()), (4, 1, -1, (2,)), (2, 1, 0, ()), (4, 1, -1, (2,))),
    # DEV-FIX-11: (m, n-2) is redundant
    (1, 1): (None, None, None, (4, 1, -2, (3, -1))),
    # DEV-FIX-13: (m-5, n) was uncovered
    (1, 3): (None, None, (3, 1, -1, (2,)), None),
    # DEV-FIX-14: m-2 leaves (m, n) uncovered
    (1, 4): (None, None, (3, 1, -1, (2, -1)), None),
    # DEV-FIX-23: (m-1, 1) was uncovered
    (2, 3): (None, (2, 0, 0, ()), None, None),
    # DEV-FIX-44: both bottom corners bare
    (4, 4): (None, (3, 1, -1, (2, -1)), (3, 1, -1, (2, -1)), None),
}


def _entry(spec, blocks: int, side: int) -> list[int]:
    k, i, dj, extras = spec
    return residue_class(k, i, blocks + dj) + [e if e > 0 else side + e for e in extras]


def _frame_tables(m: int, n: int, corrections: bool = True):
    """(first row, first column, last column, last row) values for the one
    class that (m, n) selects; entries past the grid are kept."""
    cls = (n % 5, m % 5)
    specs = (FIRST_ROW[cls[0]],) + SIDES[cls]
    if corrections and cls in CORRECTIONS:
        specs = tuple(base if fix is None else fix
                      for base, fix in zip(specs, CORRECTIONS[cls]))
    fr, fc, lc, lr = specs
    S, T = n // 5, m // 5
    return _entry(fr, S, n), _entry(fc, T, m), _entry(lc, T, m), _entry(lr, S, n)


def _sides_baseline(m: int, n: int):
    """Baseline (first-column rows, last-column rows, last-row columns)."""
    return _frame_tables(m, n, corrections=False)[1:]


def _frame(dims: GridDims, corrections: bool = True) -> tuple[list[int], list[int]]:
    """Rows and columns of the white squares of every frame group (direct
    orientation, unsorted).

    Baseline tables can emit a column index above n for class (0,4); such
    entries denote no vertex and are dropped (ledger DEV-CLIP-04).
    """
    m, n = dims.m, dims.n
    fr, fc, lc, lr = _frame_tables(m, n, corrections)
    lr = [q for q in lr if q <= n]
    return ([1] * len(fr) + fc + lc + [m] * len(lr),
            fr + [1] * len(fc) + [n] * len(lc) + lr)


def white_squares_first_row(dims: GridDims, corrections: bool = True) -> tuple[Vertex, ...]:
    """White squares in row 1 (direct orientation); depends only on n except
    for the class (3,3) phase correction."""
    _check_dims(dims)
    return tuple(Vertex(1, q) for q in sorted(_frame_tables(dims.m, dims.n, corrections)[0]))


def white_squares_sides(
    dims: GridDims, corrections: bool = True
) -> tuple[tuple[Vertex, ...], tuple[Vertex, ...], tuple[Vertex, ...]]:
    """White squares on (first column, last column, last row), direct orientation.

    Baseline tables can emit a column index above n for class (0,4); such
    entries denote no vertex and are dropped (ledger DEV-CLIP-04).
    """
    _check_dims(dims)
    m, n = dims.m, dims.n
    _, fc, lc, lr = _frame_tables(m, n, corrections)
    return (tuple(Vertex(p, 1) for p in sorted(p for p in fc if 1 <= p <= m)),
            tuple(Vertex(p, n) for p in sorted(p for p in lc if 1 <= p <= m)),
            tuple(Vertex(m, q) for q in sorted(q for q in lr if 1 <= q <= n)))


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
    overlap raise ValueError when the set is created. black, white, members
    and tags are views built on demand. Instances compare by identity.

    tags maps the provenance groups F/M/L (disks in first, middle, last
    rows) and FR/FC/LC/LR (whites on the first row, first column, last
    column, last row) to row-major member tuples. For a transposed build the
    tags keep their build-orientation meaning, so e.g. "F" is the final
    grid's first column; the flag records this.
    """

    dims: GridDims
    black_rc: np.ndarray
    white_rc: np.ndarray
    deviations: tuple[str, ...] = ()
    transposed: bool = False

    def __post_init__(self):
        if max(self.dims.m, self.dims.n) > MAX_SIDE:
            raise ValueError(f"grid sides above {MAX_SIDE} are not supported; "
                             f"got {self.dims.m}x{self.dims.n}")
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
    def members(self) -> frozenset[Vertex]:
        return frozenset(self.black) | frozenset(self.white)

    @property
    def cardinality(self) -> int:
        return len(self.black_rc) + len(self.white_rc)

    @property
    def build_dims(self) -> GridDims:
        """Dimensions in the orientation the case tables were applied."""
        return self.dims.transposed if self.transposed else self.dims

    @property
    def tags(self) -> dict[str, tuple[Vertex, ...]]:
        """Provenance groups, read off the build-orientation row and column."""
        m, n = self.build_dims.m, self.build_dims.n
        row, col = (1, 0) if self.transposed else (0, 1)
        b, w = self.black_rc, self.white_rc
        brow = b[:, row]
        return {
            "F": _vertices(b[brow == 1]),
            "M": _vertices(b[(brow > 1) & (brow < m)]),
            "L": _vertices(b[brow == m]),
            "FR": _vertices(w[w[:, row] == 1]),
            "FC": _vertices(w[w[:, col] == 1]),
            "LC": _vertices(w[w[:, col] == n]),
            "LR": _vertices(w[w[:, row] == m]),
        }


def construct(dims: GridDims, corrections: bool = True) -> PatternSet:
    """Build the candidate dominating set for dims.

    Classes in TRANSPOSED_CLASSES are built on the transposed grid and flipped
    back; everything else uses the direct case tables. With corrections
    enabled the result is dominating, a [1,2]-set, and covers the sub-grid
    exactly once for every class; its size equals gamma_formula(dims) except
    for the classes in DEFICIT_CLASSES (see the deviation ledger).
    """
    _check_dims(dims)
    cls = pattern_class(dims)
    transposed = corrections and cls in TRANSPOSED_CLASSES
    core = dims.transposed if transposed else dims
    black = _lattice(core, corrections)
    rows, cols = _frame(core, corrections)
    if transposed:
        # PatternSet re-sorts the swapped black columns into row-major order
        black, rows, cols = black[:, ::-1], cols, rows
    # the frame is small: sorting it here spares PatternSet its numpy sort
    white = sorted(zip(rows, cols))
    ids = deviation_ids_for_class(cls, transposed) if corrections else ()
    return PatternSet(dims, black, white, ids, transposed)
