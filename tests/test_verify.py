import hashlib
import tracemalloc
from dataclasses import fields
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from griddom import (GridDims, Vertex, cli, construct,
                     corner_multiplicity_check, count_cross_check,
                     coverage_map, gamma_formula, verify, verify_pattern)
from griddom.construction import PatternSet


def test_coverage_map_full_and_empty():
    d = GridDims(3, 3)
    full = coverage_map(d, set(product(range(1, 4), range(1, 4))))
    assert full.is_dominating and full.undominated_total == 0
    empty = coverage_map(d, set())
    assert not empty.is_dominating
    assert empty.undominated_total == 9
    assert len(empty.undominated) == 9


def test_coverage_counterexample_cap(monkeypatch):
    d = GridDims(10, 10)
    r = coverage_map(d, set())
    assert verify.COUNTEREXAMPLE_CAP == 32
    assert r.undominated_total == 100
    assert r.undominated == tuple(Vertex(i // 10 + 1, i % 10 + 1)
                                  for i in range(32))  # row-major
    # the cap is read at call time
    monkeypatch.setattr(verify, "COUNTEREXAMPLE_CAP", 5)
    r = coverage_map(d, set())
    assert r.undominated_total == 100
    assert r.undominated == tuple(Vertex(1, c) for c in range(1, 6))


def test_coverage_counts_semantics():
    d = GridDims(3, 3)
    ind = verify._indicator(d, {(2, 2)})
    member = ind[1:-1, 1:-1]
    closed = verify._closed_counts(ind)
    open_counts = closed - member
    assert member[1, 1] and member.sum() == 1
    assert closed[1, 1] == 1              # a member's own cell is counted
    assert open_counts[1, 1] == 0         # ... in the closed count only
    assert open_counts[0, 1] == closed[0, 1] == 1
    assert open_counts[0, 0] == closed[0, 0] == 0
    r = coverage_map(d, {(2, 2)})
    assert r.max_total_coverage == 1      # closed count, members included
    assert r.cardinality == 1
    # the report keeps verdicts, capped lists and totals, no m x n array
    assert not any(isinstance(getattr(r, f.name), np.ndarray) for f in fields(r))


def test_one_two_lists_its_first_counterexamples_row_major():
    # rows 21-40 hold every cell with r + c even: rows 1-19 and half of row
    # 20 are undominated, and the non-members below row 20 see three or four
    # members but for (21, 40) and (40, 1)
    d = GridDims(40, 40)
    black = [(r, c) for r in range(21, 41) for c in range(1, 41) if (r + c) % 2 == 0]
    check = verify_pattern(PatternSet(d, black, ())).check("one_two")
    assert not check.passed
    assert check.detail == "780 undominated, 398 non-members covered >2x"
    assert check.counterexamples == tuple(Vertex(1, c) for c in range(1, 33))


def test_failing_pattern_needs_no_more_memory_than_a_passing_one():
    d = GridDims(2000, 2000)
    def peak(p):
        tracemalloc.start()
        try:
            verify_pattern(p)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    built, empty = construct(d), PatternSet(d, (), ())
    assert peak(empty) <= 1.5 * peak(built)


def test_coverage_rejects_out_of_bounds():
    with pytest.raises(ValueError, match=r"\(4, 1\)"):
        coverage_map(GridDims(3, 3), {(4, 1)})


def test_construct_16x16_is_one_two():
    d = GridDims(16, 16)
    p = construct(d)
    r = coverage_map(d, set(p.black) | set(p.white))
    assert r.is_one_two


def test_verify_pattern_24x21():
    p = construct(GridDims(24, 21))
    v = verify_pattern(p)
    assert v.ok
    assert v.cardinality == 115


def test_verify_detects_deleted_member():
    p = construct(GridDims(16, 16))
    damaged = PatternSet(dims=p.dims, black_rc=p.black[:-1], white_rc=p.white)
    v = verify_pattern(damaged)
    assert not v.check("dominating").passed
    assert v.check("dominating").counterexamples


def test_verify_detects_added_member():
    d = GridDims(21, 20)
    p = construct(d)
    extra = next(v for v in product(range(1, d.m + 1), range(1, d.n + 1))
                 if v not in set(p.black) | set(p.white))
    grown = PatternSet(dims=d, black_rc=p.black, white_rc=p.white + (extra,))
    v = verify_pattern(grown)
    assert not v.check("cardinality").passed
    assert v.cardinality == gamma_formula(d) + 1


def test_verify_is_provenance_oblivious():
    # a set rebuilt from plain member tuples verifies like the built one
    p = construct(GridDims(17, 18))
    swapped = PatternSet(dims=p.dims, black_rc=p.black, white_rc=p.white)
    assert verify_pattern(swapped).ok == verify_pattern(p).ok


def test_interior_unique_coverage(monkeypatch):
    d = GridDims(16, 16)
    def unique(black):
        return verify_pattern(PatternSet(d, black, ())).check("interior_unique")
    assert unique(construct(d).black_rc).passed
    with monkeypatch.context() as mp:
        mp.setattr(verify, "COUNTEREXAMPLE_CAP", d.m * d.n)
        bad = unique({(8, 8), (8, 9)})
    assert not bad.passed
    over = {v: c for v, c in bad.counterexamples}
    assert over[(8, 8)] == 2 and over[(8, 9)] == 2    # adjacent disks double-cover
    empty = unique(())
    assert not empty.passed
    assert empty.detail == "192 interior vertices off"
    assert len(empty.counterexamples) == 32


def test_corner_multiplicity():
    assert corner_multiplicity_check(construct(GridDims(16, 16))).passed
    assert corner_multiplicity_check(construct(GridDims(20, 20))).passed
    p = construct(GridDims(16, 16))
    injected = PatternSet(
        dims=p.dims, black_rc=p.black,
        white_rc=tuple(sorted(set(p.white) | {Vertex(1, 2), Vertex(2, 1)})))
    assert not corner_multiplicity_check(injected).passed
    # from four rows and columns the near-corner cells are distinct
    small = PatternSet(GridDims(4, 4), [(1, 1)], [])
    assert sorted(corner_multiplicity_check(small).corner_coverage) == [
        (2, 2), (2, 3), (3, 2), (3, 3)]


def test_count_cross_check_20x20():
    cc = count_cross_check(construct(GridDims(20, 20)))
    white_row = [r for r in cc.rows if r.label == "white"][0]
    assert white_row.expected == 16 and white_row.actual == 16 and white_row.matches
    assert cc.ok


def test_count_cross_check_16x16_ledgered_cells():
    cc = count_cross_check(construct(GridDims(16, 16)))
    by_label = {r.label: r for r in cc.rows}
    # the middle-block cell carries the 5S+11 misprint; white total differs by
    # the class (1,1) repair; both are ledger-explained
    assert by_label["middle[1]"].expected == 26 and by_label["middle[1]"].actual == 16
    assert by_label["middle[1]"].ledger_id == "DEV-T2-MID-N1"
    assert by_label["white"].expected == 13 and by_label["white"].actual == 12
    assert by_label["white"].ledger_id == "DEV-FIX-11"
    assert cc.ok and not cc.unexplained


def test_count_cross_check_direct_core_20x21():
    cc = count_cross_check(construct(GridDims(20, 21)))   # class (1,0), direct
    last = [r for r in cc.rows if r.label == "last"][0]
    assert last.expected == last.actual == 21              # 5S+1 with S = 4
    assert cc.ok


@pytest.mark.parametrize("m, n", [(3, 3), (15, 40)])
def test_count_cross_check_refuses_grids_below_16(m, n):
    # 3x3 used to raise IndexError; the tables hold only for m, n >= 16
    with pytest.raises(ValueError, match="need m, n >= 16"):
        count_cross_check(PatternSet(GridDims(m, n), [], []))


def test_count_rows_follow_the_block_layout():
    """Block i is rows 5i+1..5i+5 and the last, (m-1) // 5, ends at row m;
    the rows run first, middle[1..L-1], last, white."""
    for m, n in product(range(16, 21), repeat=2):
        p = construct(GridDims(m, n))
        rows = count_cross_check(p).rows
        last = (m - 1) // 5
        assert [r.label for r in rows] == (
            ["first"] + [f"middle[{i}]" for i in range(1, last)] + ["last", "white"])
        disk_rows = p.black_rc[:, 0]
        assert [r.actual for r in rows[:-1]] == [
            int(np.count_nonzero((disk_rows > 5 * i) & (disk_rows <= 5 * i + 5)))
            for i in range(last + 1)]
        assert sum(r.actual for r in rows[:-1]) == len(disk_rows)
        assert rows[-1].actual == len(p.white_rc)


def test_count_rows_are_pinned():
    """Every row of the count cross-check over [16, 25]^2, all 25 residue
    classes, pinned as one SHA-256: a misread table cell changes it."""
    digest = hashlib.sha256()
    for m, n in product(range(16, 26), repeat=2):
        for row in count_cross_check(construct(GridDims(m, n))).rows:
            digest.update(repr((m, n, row.label, row.expected, row.actual,
                                row.matches, row.ledger_id)).encode())
    assert digest.hexdigest() == (
        "ff565babbfe8f5a1e3bb178fadbac7b6765a1ebc82a26722909850ff935ca0fb")


def test_provenance_is_derived_from_the_grid():
    # a set made from construct's own arrays has construct's provenance, and
    # so cross-checks the same way, on every class
    for m, n in product(range(16, 21), repeat=2):
        p = construct(GridDims(m, n))
        q = PatternSet(p.dims, p.black_rc, p.white_rc)
        assert q.deviations == p.deviations, (m, n)
        assert count_cross_check(q).unexplained == (), (m, n)
    # construct builds nothing below 16, so a small grid, like 6x5 in class
    # (0, 1), has no provenance
    assert PatternSet(GridDims(6, 5), [(1, 1)], []).deviations == ()


def test_unledgered_white_offset_is_unexplained(monkeypatch, capsys):
    """A count off by other than its ledgered amount is unexplained.

    16x16 (class (1,1)) has 12 whites where the table prints 13, which
    DEV-FIX-11 predicts; 13 whites match the table, 14 match neither."""
    def with_whites(dims, k):
        p = construct(dims)
        members = set(p.black) | set(p.white)
        frame = [v for v in product((1,), range(1, dims.n + 1)) if v not in members]
        return PatternSet(p.dims, p.black_rc, list(p.white) + frame[:k])

    d = GridDims(16, 16)
    assert count_cross_check(with_whites(d, 1)).ok
    cc = count_cross_check(with_whites(d, 2))
    assert [r.label for r in cc.unexplained] == ["white"]
    assert (cc.unexplained[0].expected, cc.unexplained[0].actual) == (13, 14)
    assert cli.main(["crosscheck", "--m", "16", "--n", "16"]) == 0
    monkeypatch.setattr(cli, "construct", lambda dims: with_whites(dims, 2))
    assert cli.main(["crosscheck", "--m", "16", "--n", "16"]) == 1
    assert "white: table 13, actual 14: MISMATCH (unexplained)" in capsys.readouterr().out


@given(st.builds(GridDims, st.integers(16, 40), st.integers(16, 40)),
       st.data())
@settings(max_examples=30, deadline=None)
def test_adding_vertices_preserves_domination(dims, data):
    p = construct(dims)
    members = set(p.black) | set(p.white)
    extra = Vertex(data.draw(st.integers(1, dims.m)), data.draw(st.integers(1, dims.n)))
    grown = members | {extra}
    assert coverage_map(dims, grown).is_dominating


@given(st.builds(GridDims, st.integers(16, 40), st.integers(16, 40)))
@settings(max_examples=30, deadline=None)
def test_transposing_preserves_domination(dims):
    p = construct(dims)
    members = set(p.black) | set(p.white)
    flipped = {Vertex(c, r) for (r, c) in members}
    assert coverage_map(GridDims(dims.n, dims.m), flipped).is_dominating


def test_coverage_deterministic():
    d = GridDims(19, 23)
    p = construct(d)
    members = set(p.black) | set(p.white)
    reverse = sorted(members, reverse=True)
    assert coverage_map(d, members) == coverage_map(d, reverse)
    assert np.array_equal(verify._closed_counts(verify._indicator(d, members)),
                          verify._closed_counts(verify._indicator(d, reverse)))
