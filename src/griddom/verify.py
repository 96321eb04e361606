"""Coverage verification: domination, [1,2] bounds, cardinality, uniqueness.

All checks run in O(m*n) time and memory from one closed-neighbourhood
count array per member set, taken by numpy shift-sums over a padded
indicator that is filled from the members' coordinate arrays by fancy
indexing. Each check turns one mask into its counterexamples: the first
COUNTEREXAMPLE_CAP in row-major order, listed from the rows that hold them
only, with the exact total alongside. So a failing pattern needs no more
memory than a passing one.
"""

from dataclasses import dataclass

import numpy as np

from .construction import (MIN_SIDE, PatternSet, _check_dims, gamma_formula,
                           row_major_keys)
from .deviations import expected_table_mismatches
from .grid import GridDims, Vertex, coordinate_array

COUNTEREXAMPLE_CAP = 32


def _indicator(dims: GridDims, members) -> np.ndarray:
    """(m+2)x(n+2) zero-padded 0/1 array; raises on out-of-bounds members."""
    ind = np.zeros((dims.m + 2, dims.n + 2), dtype=np.int8)
    rc = coordinate_array(members, dims)
    ind[rc[:, 0], rc[:, 1]] = 1
    return ind


def _closed_counts(ind: np.ndarray) -> np.ndarray:
    """|N[v] & D| for every vertex, v itself counted, from the padded indicator."""
    return (ind[1:-1, 1:-1] + ind[:-2, 1:-1] + ind[2:, 1:-1]
            + ind[1:-1, :-2] + ind[1:-1, 2:])


def _vertices(mask: np.ndarray, offset: int = 1):
    """The first COUNTEREXAMPLE_CAP hits of mask in row-major order, and the
    total; only the rows up to the one holding the last listed hit are read."""
    total = int(np.count_nonzero(mask))
    if not total:
        return (), 0
    if total > COUNTEREXAMPLE_CAP:
        per_row = np.cumsum(np.count_nonzero(mask, axis=1))
        mask = mask[:int(np.searchsorted(per_row, COUNTEREXAMPLE_CAP)) + 1]
    hits = np.argwhere(mask)[:COUNTEREXAMPLE_CAP]      # row-major order
    return tuple(Vertex(int(r) + offset, int(c) + offset) for r, c in hits), total


@dataclass(frozen=True)
class CoverageReport:
    """Domination and [1,2] verdicts of a candidate set D, each with its
    capped, row-major counterexample list and exact total.

    not_one_two lists the vertices that break the [1,2] bound: the
    undominated ones and the non-members with more than two neighbours in D.
    """

    dims: GridDims
    cardinality: int
    is_dominating: bool
    is_one_two: bool
    undominated: tuple[Vertex, ...]
    undominated_total: int
    not_one_two: tuple[Vertex, ...]
    not_one_two_total: int
    max_total_coverage: int       # largest |N[v] & D|, members included


def coverage_map(dims: GridDims, members) -> CoverageReport:
    """Check a candidate set for domination and the [1,2] bound.

    members is a (k, 2) array-like of (row, col) pairs, e.g. a set of Vertex.
    """
    return _coverage(dims, _indicator(dims, members))


def _coverage(dims: GridDims, ind: np.ndarray) -> CoverageReport:
    closed = _closed_counts(ind)
    undom_mask = closed == 0
    undominated, undom_total = _vertices(undom_mask)
    # a non-member's closed count is its open one
    bad_mask = undom_mask | ((closed > 2) & (ind[1:-1, 1:-1] == 0))
    not_one_two, bad_total = _vertices(bad_mask)
    return CoverageReport(
        dims=dims,
        cardinality=int(np.count_nonzero(ind)),
        is_dominating=undom_total == 0,
        is_one_two=bad_total == 0,
        undominated=undominated,
        undominated_total=undom_total,
        not_one_two=not_one_two,
        not_one_two_total=bad_total,
        max_total_coverage=int(closed.max()),
    )


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""
    counterexamples: tuple = ()


def _unique_coverage(ind: np.ndarray) -> CheckResult:
    """The "interior_unique" check, from the padded indicator of the black
    members: every sub-grid vertex must see exactly one black member in its
    closed neighborhood, and every degree-4 vertex at most one."""
    closed = _closed_counts(ind)
    inner = closed[1:-1, 1:-1]            # degree-4 vertices, from (2, 2)
    bad = inner != 1
    if inner.size:
        # the four near-corner cells are outside the sub-grid: at most one
        for r, c in ((0, 0), (0, -1), (-1, 0), (-1, -1)):
            bad[r, c] = inner[r, c] > 1
    cells, total = _vertices(bad, offset=2)
    return CheckResult(
        "interior_unique", total == 0,
        detail=f"{total} interior vertices off" if total else "",
        counterexamples=tuple((v, int(closed[v.row - 1, v.col - 1])) for v in cells),
    )


@dataclass(frozen=True)
class PatternVerdict:
    """Outcome of the four gating checks plus informative extras."""

    dims: GridDims
    checks: tuple[CheckResult, ...]
    cardinality: int
    expected_cardinality: int | None
    total_coverage_within_two: bool   # informative: |N[v] & D| <= 2 for all v

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def verify_pattern(p: PatternSet) -> PatternVerdict:
    """Run the four gating checks on a pattern.

    Provenance is ignored except that the uniqueness check, by definition,
    looks at the black members only. Cardinality compares against the closed
    form, which exists only for m, n >= 16; for smaller grids that check is
    reported as passed-vacuously with a note.
    """
    dims = p.dims
    ind = _indicator(dims, p.black_rc)
    uniq = _unique_coverage(ind)
    ind[p.white_rc[:, 0], p.white_rc[:, 1]] = 1
    report = _coverage(dims, ind)
    dom = CheckResult(
        "dominating", report.is_dominating,
        detail=f"{report.undominated_total} undominated" if not report.is_dominating else "",
        counterexamples=report.undominated,
    )
    one_two = CheckResult(
        "one_two", report.is_one_two,
        detail=("" if report.is_one_two else
                f"{report.undominated_total} undominated, "
                f"{report.not_one_two_total - report.undominated_total} "
                "non-members covered >2x"),
        counterexamples=report.not_one_two,
    )
    if min(dims.m, dims.n) >= MIN_SIDE:
        expected = gamma_formula(dims)
        card = CheckResult(
            "cardinality", report.cardinality == expected,
            detail=f"{report.cardinality} vs optimal {expected}",
        )
    else:
        expected = None
        card = CheckResult("cardinality", True, detail="no closed form below 16; skipped")
    return PatternVerdict(
        dims=dims,
        checks=(dom, one_two, card, uniq),
        cardinality=report.cardinality,
        expected_cardinality=expected,
        total_coverage_within_two=report.max_total_coverage <= 2,
    )


@dataclass(frozen=True)
class CornerCheckResult:
    passed: bool
    corner_coverage: dict[Vertex, int]
    forbidden_pairs_present: tuple[tuple[Vertex, Vertex], ...]


def corner_multiplicity_check(p: PatternSet) -> CornerCheckResult:
    """Near-corner cells must be covered at most twice, and no corner may get
    both of its two frame whites at once.

    Reads the closed neighbourhoods of the four near-corner cells and the
    eight frame cells beside the corners by key lookups; no coverage map is
    built. Below four rows or columns the near-corner cells are not four
    distinct grid cells, and the check passes vacuously with no coverage."""
    m, n = p.dims.m, p.dims.n
    if min(m, n) < 4:
        return CornerCheckResult(passed=True, corner_coverage={},
                                 forbidden_pairs_present=())
    corners = (Vertex(2, 2), Vertex(2, n - 1), Vertex(m - 1, 2), Vertex(m - 1, n - 1))
    pairs = (
        (Vertex(1, 2), Vertex(2, 1)),
        (Vertex(2, n), Vertex(1, n - 1)),
        (Vertex(m - 1, 1), Vertex(m, 2)),
        (Vertex(m - 1, n), Vertex(m, n - 1)),
    )
    closed = [(r + dr, c + dc) for r, c in corners
              for dr, dc in ((0, 0), (-1, 0), (1, 0), (0, -1), (0, 1))]
    frame = [v for pr in pairs for v in pr]
    black = _members_at(p.black_rc, closed, n)
    white = _members_at(p.white_rc, closed + frame, n)
    hits = (black + white[:len(closed)]).reshape(4, 5).sum(axis=1).tolist()
    coverage = dict(zip(corners, hits))
    both_white = white[len(closed):].reshape(4, 2).all(axis=1).tolist()
    present = tuple(pr for pr, both in zip(pairs, both_white) if both)
    ok = all(c <= 2 for c in coverage.values()) and not present
    return CornerCheckResult(passed=ok, corner_coverage=coverage,
                             forbidden_pairs_present=present)


def _members_at(rc: np.ndarray, cells: list, n: int) -> np.ndarray:
    """0/1 per cell: is the cell a row of the row-major array rc?

    Every cell lies in the first three or the last three rows (or on the
    zero-padded border next to them). Those rows hold at most 3n members
    each, so only the first and last 3n rows of rc are searched."""
    query = row_major_keys(np.array(cells), n)
    found = np.zeros(len(cells), dtype=np.int64)
    for part in (rc[:3 * n], rc[-3 * n:]):
        if len(part):
            keys = row_major_keys(part, n)
            found |= keys.take(np.searchsorted(keys, query), mode="clip") == query
    return found


# ---------------------------------------------------------------------------
# Count cross-checks against the bundled count tables
# ---------------------------------------------------------------------------

# Table 2's disks per five-row block, each cell (a, b) read a*S + b with
# S = n // 5: the first block and a middle one keyed by n mod 5, the last
# block by (m mod 5, n mod 5)
TABLE2_FIRST = ((5, -2), (5, -1), (5, 0), (5, 2), (5, 3))
# the n=5k+1 cell reads 5S+11 in the source table; kept verbatim here and
# reconciled through the deviation ledger (DEV-T2-MID-N1)
TABLE2_MIDDLE = ((5, 0), (5, 11), (5, 2), (5, 3), (5, 4))
TABLE2_LAST = (
    ((5, -2), (5, 1), (5, 1), (5, 2), (5, 3)),
    ((1, 0), (1, -1), (1, 0), (1, 0), (1, 0)),
    ((2, -1), (2, 0), (2, 1), (2, 1), (2, 1)),
    ((3, 0), (3, 1), (3, 1), (3, 1), (3, 2)),
    ((4, -1), (4, 0), (4, 0), (4, 2), (4, 2)),
)
# Table 3's white total, read 2T + 2S + delta with T = m // 5; delta keyed
# (n mod 5, m mod 5)
TABLE3_WHITE_DELTA = (
    (0, -1, 0, -1, 2),
    (-1, 1, -1, -1, 1),
    (1, 0, 0, 0, 2),
    (-1, 0, 0, 1, 1),
    (1, 1, 0, 1, 0),
)


def _disks(cell: tuple[int, int], S: int) -> int:
    a, b = cell
    return a * S + b


@dataclass(frozen=True)
class CountRow:
    label: str            # "first" / "middle[i]" / "last" / "white"
    expected: int         # value printed in the bundled count table
    actual: int
    matches: bool
    ledger_id: str | None # set when a mismatch is covered by the ledger


@dataclass(frozen=True)
class CountCrossCheck:
    dims: GridDims
    rows: tuple[CountRow, ...]

    @property
    def unexplained(self) -> tuple[CountRow, ...]:
        return tuple(r for r in self.rows if not r.matches and r.ledger_id is None)

    @property
    def ok(self) -> bool:
        return not self.unexplained


def count_cross_check(p: PatternSet) -> CountCrossCheck:
    """Compare per-block disk counts and the white total with the bundled
    count tables (m, n >= 16; _check_dims refuses smaller grids).

    Block i holds rows 5i+1..5i+5, except the last, (m-1) // 5, which ends
    at row m: so the first block is rows 1-5 and the last holds 5 rows when
    5 divides m and m mod 5 rows otherwise. Mismatches are annotated with
    the ledger entry that predicts them, and anything unexplained is exposed
    via .unexplained.
    """
    _check_dims(p.dims)
    expected_mis = expected_table_mismatches()
    m, n = p.dims.m, p.dims.n
    S, T = n // 5, m // 5
    rn, rm = n % 5, m % 5
    per_row = np.bincount(p.black_rc[:, 0], minlength=m + 1)[1:]
    blocks = np.add.reduceat(per_row, np.arange(0, m, 5)).tolist()
    middle = _disks(TABLE2_MIDDLE[rn], S)
    counts = ([("first", "first", _disks(TABLE2_FIRST[rn], S), blocks[0])]
              + [(f"middle[{i}]", "middle", middle, actual)
                 for i, actual in enumerate(blocks[1:-1], 1)]
              + [("last", "last", _disks(TABLE2_LAST[rm][rn], S), blocks[-1]),
                 ("white", "white", 2 * T + 2 * S + TABLE3_WHITE_DELTA[rn][rm],
                  len(p.white_rc))])
    rows = []
    for label, table, expected, actual in counts:
        hit = expected_mis.get((table, rn, rm))
        explained = expected != actual and hit is not None and hit[0] == expected - actual
        rows.append(CountRow(label, expected, actual, expected == actual,
                             hit[1] if explained else None))
    return CountCrossCheck(dims=p.dims, rows=tuple(rows))
