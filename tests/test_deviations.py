import pytest

from griddom import (DEVIATIONS, GridDims, construct, gamma_formula,
                     load_ledger, pattern_class, verify, verify_pattern)
from griddom.construction import SIDES, PatternSet, _entry, build
from griddom.deviations import BY_ID, class_edit, expected_table_mismatches


def test_ids_unique_and_resolvable():
    ids = [e.id for e in DEVIATIONS]
    assert len(ids) == len(set(ids))
    assert set(BY_ID) == set(ids)
    ledger = load_ledger()
    assert ledger is BY_ID and ledger["DEV-FIX-11"].classes == ((1, 1),)
    with pytest.raises(TypeError):
        ledger["DEV-X"] = DEVIATIONS[0]      # shared between calls: read-only


def test_deviation_ids_for_class():
    ids, edit = class_edit((1, 1))
    assert ids == ("DEV-DM-RANGE", "DEV-DL-OFFSET", "DEV-FIX-11")
    assert edit == {"last_row": (4, 1, -2, (3, -1))}
    with pytest.raises(TypeError):
        edit["offset"] = 4                # shared between calls: read-only
    ids, edit = class_edit((1, 2))
    assert ids == ("DEV-DM-RANGE", "DEV-DL-OFFSET", "DEV-FIX-12")
    assert edit == {"remove": ((-1, 1), (-1, 0)), "last_col": (3, 1, -1, (2, -1))}
    assert construct(GridDims(17, 16)).deviations == ids
    # a record with an empty edit is listed for its class
    assert class_edit((0, 4)) == (
        ("DEV-DM-RANGE", "DEV-DL-OFFSET", "DEV-CLIP-04", "DEV-FIX-02"),
        {"remove": ((2, 0),)})
    ids, edit = class_edit((0, 0))
    assert ids[-1] == "DEV-FIX-00" and edit["remove"] == ((2, 0), (-1, 1))
    # count-table errata are not construction records
    assert "DEV-T2-MID-N1" not in class_edit((1, 0))[0]


def test_no_two_records_of_a_class_set_the_same_edit_key():
    """class_edit merges a class's records with dict.update, so a key set by
    two of them would be decided silently by their order in the ledger."""
    for cls in [(i, j) for i in range(5) for j in range(5)]:
        ids, merged = class_edit(cls)
        keys = [k for e in DEVIATIONS if e.id in ids for k in e.edit]
        assert len(keys) == len(set(keys)), (cls, ids, keys)
        assert set(keys) == set(merged)


def test_counterexamples_replay_against_baseline(monkeypatch):
    """Each table-correction entry's counterexamples, one grid per class it
    covers, must really occur when the baseline tables are used, and
    construct() must mend them. A counterexample with no undominated cells
    is a baseline that dominates, is a [1,2]-set and covers the sub-grid
    once, but is too large or reaches past the grid."""
    monkeypatch.setattr(verify, "COUNTEREXAMPLE_CAP", 10**6)    # list them all
    for entry in DEVIATIONS:
        if entry.kind != "table-correction":
            continue
        dims_of = [GridDims(ce["m"], ce["n"]) for ce in entry.counterexamples]
        assert sorted(map(pattern_class, dims_of)) == sorted(entry.classes), entry.id
        for ce, dims in zip(entry.counterexamples, dims_of):
            base = PatternSet(dims, *build(dims, {}))
            v = verify_pattern(base)
            if "baseline_cardinality" in ce:
                assert base.cardinality == ce["baseline_cardinality"], entry.id
            if "optimal" in ce:
                assert gamma_formula(dims) == ce["optimal"], entry.id
            if "undominated" in ce:
                undominated = v.check("dominating").counterexamples
                assert {tuple(c) for c in ce["undominated"]} == set(undominated), entry.id
            else:
                assert all(v.check(name).passed for name in
                           ("dominating", "one_two", "interior_unique")), entry.id
            if "out_of_range_column" in ce:
                lr = _entry(SIDES[pattern_class(dims)][2], dims.n // 5, dims.n)
                assert ce["out_of_range_column"] in lr, entry.id
            p = construct(dims)
            assert entry.id in p.deviations, entry.id
            assert verify_pattern(p).ok, entry.id


def test_fix_33_has_a_repair_at_the_paper_offset():
    # DEV-FIX-33's rationale: offset 4 is one valid repair, not the only one
    edit = {"remove": ((-1, 1),), "last_col": (2, 0, -1, ())}
    for m, n in ((18, 18), (23, 28), (33, 23)):
        dims = GridDims(m, n)
        p = PatternSet(dims, *build(dims, edit))
        assert verify_pattern(p).ok, (m, n)


def test_expected_mismatch_lookup_shapes():
    table = expected_table_mismatches()
    assert {k for k in table if k[:2] == ("middle", 1)} == {
        ("middle", 1, rm) for rm in range(5)}
    assert table[("white", 1, 1)] == (1, "DEV-FIX-11")
    # the cached map is shared between calls, so it is read-only
    with pytest.raises(TypeError):
        table[("white", 1, 1)] = (0, "DEV-X")
    assert expected_table_mismatches() is table
