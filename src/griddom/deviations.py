"""Machine-readable deviation ledger.

Every divergence between the paper's case tables bundled in
griddom.construction and what construct() actually emits is recorded here.
Each table correction carries counterexamples, one grid per class it
covers, that the test suite replays against the uncorrected tables.
An entry's `edit` is the machine-readable form of its `corrected` text and
the one statement of what a class changes: construct() applies the merged
edits that class_edit() returns. An entry's `table_cells` are the
count-table cells it is expected to perturb, which count_cross_check reads
through expected_table_mismatches().
"""

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cache
from types import MappingProxyType


@dataclass(frozen=True)
class TableCell:
    """A cell of the bundled count tables this entry is expected to perturb.

    table is "first" / "middle" / "last" (black disks per block) or "white"
    (white-square total), keyed by the class (n mod 5, m mod 5).
    """

    table: str
    n_mod: int
    m_mod: int
    printed_minus_actual: int


@dataclass(frozen=True)
class DeviationEntry:
    """One ledger record.

    edit is what construct() applies for the listed classes, None for an
    entry it does not apply (count-table errata). Its keys are offset (the
    diagonal offset a_1), last_row_from (first column of the last-row
    disk range), first_row / first_col / last_col / last_row (a table entry
    (k, i, dj, extras) replacing the paper's) and remove (disks to drop).
    Extras and cells read a value e <= 0 as side + e.
    """

    id: str
    kind: str                      # reading-correction | table-correction | table-errata
    classes: tuple[tuple[int, int], ...]   # (n mod 5, m mod 5) keys affected
    target: str
    baseline: str
    corrected: str
    rationale: str
    counterexamples: tuple[dict, ...] = ()
    table_cells: tuple[TableCell, ...] = field(default_factory=tuple)
    edit: dict | None = None


DEVIATIONS: tuple[DeviationEntry, ...] = (
    DeviationEntry(
        id="DEV-DM-RANGE",
        kind="reading-correction",
        classes=tuple((rn, rm) for rn in range(5) for rm in range(5)),
        target="middle-row black disks",
        baseline="row range written 2 <= p <= n-1 with column guard 1 <= 5k+a_1 <= n",
        corrected="rows 2 <= p <= m-1 with column guard 1 <= 5k+a_p <= n",
        rationale="p indexes rows and each row selects columns by its own "
                  "offset; as written the rule is vacuous for m > n and "
                  "mis-selects columns whenever a_p != a_1.",
        edit={},
    ),
    DeviationEntry(
        id="DEV-DL-OFFSET",
        kind="reading-correction",
        classes=tuple((rn, rm) for rn in range(5) for rm in range(5)),
        target="last-row black disks",
        baseline="columns 5k+a_n with range guard on 5k+a_1",
        corrected="columns 5k+a_m with range guard on 5k+a_m",
        rationale="the last row is row m; its disks follow row m's offset.",
        edit={},
    ),
    DeviationEntry(
        id="DEV-FIX-11",
        kind="table-correction",
        classes=((1, 1),),
        target="last-row whites, class n=5k+1 / m=5l+1",
        baseline="A_4^(1,S-1) + {3, n-1}",
        corrected="A_4^(1,S-2) + {3, n-1}",
        rationale="(m, n-2) is redundant: (m, n-1) already covers it, and "
                  "keeping it makes the pattern one larger than optimal.",
        counterexamples=({"m": 16, "n": 16, "baseline_cardinality": 61,
                          "optimal": 60},),
        table_cells=(TableCell("white", 1, 1, +1),),
        edit={"last_row": (4, 1, -2, (3, -1))},
    ),
    DeviationEntry(
        id="DEV-FIX-13",
        kind="table-correction",
        classes=((1, 3),),
        target="last-column whites and last-row disks, class n=5k+1 / m=5l+3",
        baseline="last column A_3^(1,T-2) + {2}; last-row disks from column 3",
        corrected="last column A_3^(1,T-1) + {2}; last-row disks from column 2",
        rationale="(m-5, n) and the bottom-left cells (m-1,2), (m,1..3) are "
                  "uncovered and the pattern is two members short.",
        counterexamples=({"m": 18, "n": 16,
                          "undominated": [[13, 16], [17, 2], [18, 1], [18, 2], [18, 3]],
                          "baseline_cardinality": 66, "optimal": 68},),
        table_cells=(TableCell("white", 1, 3, -1),),
        edit={"last_col": (3, 1, -1, (2,)), "last_row_from": 2},
    ),
    DeviationEntry(
        id="DEV-FIX-14",
        kind="table-correction",
        classes=((1, 4),),
        target="last-column whites, class n=5k+1 / m=5l+4",
        baseline="A_3^(1,T-1) + {2, m-2}",
        corrected="A_3^(1,T-1) + {2, m-1}",
        rationale="with the extra at row m-2 both (m, n) and the near-corner "
                  "(m-1, n-1) stay undominated; row m-1 covers both.",
        counterexamples=({"m": 19, "n": 16, "undominated": [[18, 15], [19, 16]]},),
        edit={"last_col": (3, 1, -1, (2, -1))},
    ),
    DeviationEntry(
        id="DEV-FIX-21",
        kind="table-correction",
        classes=((2, 1),),
        target="last-row disks, class n=5k+2 / m=5l+1",
        baseline="columns congruent to a_m in [3, n-2]",
        corrected="columns congruent to a_m in [2, n-2] (adds the disk (m, 2))",
        rationale="(m-1,2), (m,1), (m,2), (m,3) are uncovered and the pattern "
                  "is one short; the single disk at (m, 2) fixes all four.",
        counterexamples=({"m": 16, "n": 17,
                          "undominated": [[15, 2], [16, 1], [16, 2], [16, 3]],
                          "baseline_cardinality": 63, "optimal": 64},),
        edit={"last_row_from": 2},
    ),
    DeviationEntry(
        id="DEV-FIX-23",
        kind="table-correction",
        classes=((2, 3),),
        target="first-column whites, class n=5k+2 / m=5l+3",
        baseline="A_2^(0,T-1)",
        corrected="A_2^(0,T) (adds (m-1, 1))",
        rationale="(m-1, 1) and (m, 1) are uncovered and the pattern is one "
                  "short; the added white covers both.",
        counterexamples=({"m": 18, "n": 17, "undominated": [[17, 1], [18, 1]],
                          "baseline_cardinality": 71, "optimal": 72},),
        table_cells=(TableCell("white", 2, 3, -1),),
        edit={"first_col": (2, 0, 0, ())},
    ),
    DeviationEntry(
        id="DEV-FIX-34",
        kind="table-correction",
        classes=((3, 4),),
        target="last-row disks, class n=5k+3 / m=5l+4",
        baseline="columns congruent to a_m in [3, n-2]",
        corrected="columns congruent to a_m in [2, n-2] (adds the disk (m, 2))",
        rationale="same bottom-left gap as class (2,1): four uncovered cells, "
                  "one member short, fixed by the single disk (m, 2).",
        counterexamples=({"m": 19, "n": 18,
                          "undominated": [[18, 2], [19, 1], [19, 2], [19, 3]],
                          "baseline_cardinality": 79, "optimal": 80},),
        edit={"last_row_from": 2},
    ),
    DeviationEntry(
        id="DEV-FIX-44",
        kind="table-correction",
        classes=((4, 4),),
        target="first- and last-column whites, class n=5k+4 / m=5l+4",
        baseline="A_3^(1,T-1) + {2} on both columns",
        corrected="A_3^(1,T-1) + {2, m-1} on both columns",
        rationale="five cells around the bottom corners are uncovered and the "
                  "pattern is two short; the whites at (m-1, 1) and (m-1, n) "
                  "fix all of them.",
        counterexamples=({"m": 19, "n": 19,
                          "undominated": [[18, 1], [18, 18], [18, 19], [19, 1], [19, 19]],
                          "baseline_cardinality": 82, "optimal": 84},),
        table_cells=(TableCell("white", 4, 4, -2),),
        edit={"first_col": (3, 1, -1, (2, -1)), "last_col": (3, 1, -1, (2, -1))},
    ),
    DeviationEntry(
        id="DEV-FIX-33",
        kind="table-correction",
        classes=((3, 3),),
        target="diagonal offset and all frame whites, class n=5k+3 / m=5l+3",
        baseline="offset a_1 = 3 with the bundled frame tables",
        corrected="offset a_1 = 4; first row A_2^(1,S); first column "
                  "A_4^(1,T-1)+{2}; last column A_2^(1,T); last row A_4^(1,S-1)+{2}",
        rationale="the baseline is dominating and a [1,2]-set but one member "
                  "over optimal. Offset 4 with the tables above is one valid "
                  "repair; offset 3 without the disk (m-1, 1) and with last "
                  "column A_2^(0,T-1) is another.",
        counterexamples=({"m": 18, "n": 18, "baseline_cardinality": 77,
                          "optimal": 76},),
        table_cells=(TableCell("first", 3, 3, -1), TableCell("white", 3, 3, +1)),
        edit={"offset": 4, "first_row": (2, 1, 0, ()), "first_col": (4, 1, -1, (2,)),
              "last_col": (2, 1, 0, ()), "last_row": (4, 1, -1, (2,))},
    ),
    DeviationEntry(
        id="DEV-CLIP-04",
        kind="table-correction",
        classes=((0, 4),),
        target="last-row whites, class n=5k / m=5l+4",
        baseline="A_4^(1,S) + {3}: the top element 5S+4 exceeds n = 5S",
        corrected="out-of-range entries denote no vertex and are dropped",
        rationale="column 5S+4 does not exist on the grid; build() drops it, "
                  "so the class has one white fewer than the count table "
                  "prints.",
        counterexamples=({"m": 19, "n": 20, "out_of_range_column": 24},),
        table_cells=(TableCell("white", 0, 4, +1),),
        edit={},
    ),
    DeviationEntry(
        id="DEV-FIX-00",
        kind="table-correction",
        classes=((0, 0),),
        target="border disks and first-column whites, class n=5k / m=5l",
        baseline="disks (2, n) and (m-1, 1); first column A_2^(0,T-2) + {m-3}",
        corrected="drop the disks (2, n) and (m-1, 1); first column "
                  "A_2^(0,T-2) + {m-2}",
        rationale="the baseline is dominating and a [1,2]-set but two "
                  "members over optimal: the middle-row disk (2, n) in the "
                  "last column is redundant, and dropping the disk (m-1, 1) "
                  "while moving the white (m-3, 1) to (m-2, 1) keeps every "
                  "cell covered. A black at (m-2, 1) would double-cover the "
                  "sub-grid cell (m-2, 2).",
        counterexamples=({"m": 20, "n": 20, "baseline_cardinality": 94,
                          "optimal": 92},),
        edit={"remove": ((2, 0), (-1, 1)), "first_col": (2, 0, -2, (-2,))},
    ),
    DeviationEntry(
        id="DEV-FIX-02",
        kind="table-correction",
        classes=((0, 2), (0, 3), (0, 4)),
        target="last-column border disk, class n=5k / m=5l+2, 5l+3, 5l+4",
        baseline="middle-row disk at (2, n)",
        corrected="drop the disk (2, n)",
        rationale="the baseline is one member over optimal in each class; "
                  "every cell the disk (2, n) covers is covered by another "
                  "member. Class (0,3)'s white tables emit one white more "
                  "than its count-table cell.",
        counterexamples=({"m": 17, "n": 20, "baseline_cardinality": 80, "optimal": 79},
                         {"m": 18, "n": 20, "baseline_cardinality": 85, "optimal": 84},
                         {"m": 19, "n": 20, "baseline_cardinality": 89, "optimal": 88}),
        table_cells=(TableCell("white", 0, 3, -1),),
        edit={"remove": ((2, 0),)},
    ),
    DeviationEntry(
        id="DEV-FIX-20",
        kind="table-correction",
        classes=((2, 0), (4, 1)),
        target="first-column border disk, class n=5k+2 / m=5l and n=5k+4 / m=5l+1",
        baseline="middle-row disk at (m-1, 1)",
        corrected="drop the disk (m-1, 1)",
        rationale="the baseline is one member over optimal in each class; "
                  "every cell the disk (m-1, 1) covers is covered by another "
                  "member.",
        counterexamples=({"m": 20, "n": 17, "baseline_cardinality": 80, "optimal": 79},
                         {"m": 16, "n": 19, "baseline_cardinality": 72, "optimal": 71}),
        table_cells=(TableCell("middle", 4, 1, +1),),
        edit={"remove": ((-1, 1),)},
    ),
    DeviationEntry(
        id="DEV-FIX-01",
        kind="table-correction",
        classes=((0, 1),),
        target="last-column border disk and last-row whites, class n=5k / m=5l+1",
        baseline="middle-row disk at (2, n); last row A_0^(1,S-1)",
        corrected="drop the disk (2, n); last row A_0^(1,S-1) + {2}",
        rationale="(m-1, 2) and (m, 1..3) are uncovered; the white (m, 2) "
                  "covers all four, and the disk (2, n) is redundant.",
        counterexamples=({"m": 16, "n": 20,
                          "undominated": [[15, 2], [16, 1], [16, 2], [16, 3]]},),
        table_cells=(TableCell("last", 0, 1, +1), TableCell("white", 0, 1, -1)),
        edit={"remove": ((2, 0),), "last_row": (0, 1, -1, (2,))},
    ),
    DeviationEntry(
        id="DEV-FIX-12",
        kind="table-correction",
        classes=((1, 2),),
        target="border disks and last-column whites, class n=5k+1 / m=5l+2",
        baseline="disks (m-1, 1) and (m-1, n); last column A_3^(1,T-2) + {2}",
        corrected="drop the disks (m-1, 1) and (m-1, n); last column "
                  "A_3^(1,T-1) + {2, m-1}",
        rationale="(m-4, n) is uncovered. The whites (m-4, n) and (m-1, n) "
                  "take the place of the disks (m-1, 1) and (m-1, n), so "
                  "every cell is covered at the optimal size.",
        counterexamples=({"m": 17, "n": 16, "undominated": [[13, 16]]},),
        table_cells=(TableCell("last", 1, 2, +1), TableCell("white", 1, 2, -2)),
        edit={"remove": ((-1, 1), (-1, 0)), "last_col": (3, 1, -1, (2, -1))},
    ),
    DeviationEntry(
        id="DEV-FIX-42",
        kind="table-correction",
        classes=((4, 2),),
        target="diagonal offset, border disks and all frame whites, "
               "class n=5k+4 / m=5l+2",
        baseline="offset a_1 = 4 with the bundled frame tables",
        corrected="offset a_1 = 1 without the disks (2, n) and (m-1, 1); "
                  "first and last row A_2^(0,S-1)+{n-1}; first and last "
                  "column A_3^(0,T-2)+{m-2}",
        rationale="at offset 4, (m-1, 2) and (m, 1..3) are uncovered; offset "
                  "1 with the tables above covers every cell at the optimal "
                  "size.",
        counterexamples=({"m": 17, "n": 19,
                          "undominated": [[16, 2], [17, 1], [17, 2], [17, 3]]},),
        table_cells=(TableCell("first", 4, 2, +1), TableCell("white", 4, 2, -2),
                     TableCell("last", 4, 2, +1)),
        edit={"offset": 1, "remove": ((2, 0), (-1, 1)),
              "first_row": (2, 0, -1, (-1,)), "first_col": (3, 0, -2, (-2,)),
              "last_col": (3, 0, -2, (-2,)), "last_row": (2, 0, -1, (-1,))},
    ),
    DeviationEntry(
        id="DEV-T2-MID-N1",
        kind="table-errata",
        classes=tuple((1, rm) for rm in range(5)),
        target="black-disk count table, middle blocks, n = 5k+1",
        baseline="5S+11",
        corrected="5S+1 (every full middle block holds exactly n disks)",
        rationale="five consecutive full rows hit each column residue once, "
                  "so a middle block always holds n = 5S+1 disks.",
        table_cells=tuple(TableCell("middle", 1, rm, +10) for rm in range(5)),
    ),
    DeviationEntry(
        id="DEV-T2-LAST-M0",
        kind="table-errata",
        classes=((3, 0),),
        target="black-disk count table, last block, n = 5k+3 / m = 5l",
        baseline="5S+2",
        corrected="5S+3",
        rationale="the cell is one below the count the placement rules "
                  "yield for the final five rows.",
        table_cells=(TableCell("last", 3, 0, -1),),
    ),
    DeviationEntry(
        id="DEV-T3-N2M0",
        kind="table-errata",
        classes=((2, 0),),
        target="white-square count table, n = 5k+2 / m = 5l",
        baseline="2T+2S+1",
        corrected="2T+2S (the bundled white tables for this class emit 2T+2S)",
        rationale="the count table disagrees with the white tables it "
                  "summarizes; the placement is kept and the count corrected.",
        table_cells=(TableCell("white", 2, 0, +1),),
    ),
    DeviationEntry(
        id="DEV-T3-N4M0",
        kind="table-errata",
        classes=((4, 0),),
        target="white-square count table, n = 5k+4 / m = 5l",
        baseline="2T+2S+1",
        corrected="2T+2S",
        rationale="same as DEV-T3-N2M0 for the mirrored class.",
        table_cells=(TableCell("white", 4, 0, +1),),
    ),
)

BY_ID: Mapping[str, DeviationEntry] = MappingProxyType({e.id: e for e in DEVIATIONS})


@cache
def class_edit(cls: tuple[int, int]) -> tuple[tuple[str, ...], Mapping]:
    """Ids of the entries construct() applies to class (n mod 5, m mod 5),
    and their edits merged into one read-only map."""
    entries = [e for e in DEVIATIONS if e.edit is not None and cls in e.classes]
    edit = {}
    for e in entries:
        edit.update(e.edit)
    return tuple(e.id for e in entries), MappingProxyType(edit)


def load_ledger() -> Mapping[str, DeviationEntry]:
    """The ledger as a read-only {id: DeviationEntry} map."""
    return BY_ID


@cache
def expected_table_mismatches() -> Mapping[tuple[str, int, int], tuple[int, str]]:
    """Read-only map (table, n_mod, m_mod) -> (printed_minus_actual, ledger id)
    of every count-table cell in the ledger's table_cells."""
    return MappingProxyType({(c.table, c.n_mod, c.m_mod): (c.printed_minus_actual, e.id)
                             for e in DEVIATIONS for c in e.table_cells})
