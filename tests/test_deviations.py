import pytest

from griddom import (DEVIATIONS, GridDims, construct, coverage_map,
                     gamma_formula, load_ledger, pattern_class, verify_pattern)
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
    # a transposed class resolves to its mirror's records and edit
    ids, edit = class_edit((1, 2))
    assert ids == ("DEV-DM-RANGE", "DEV-DL-OFFSET", "DEV-ORIENT", "DEV-FIX-21")
    assert edit == {"transpose": True, "last_row_from": 2}
    assert construct(GridDims(17, 16)).deviations == ids
    ids, edit = class_edit((0, 0))
    assert ids[-1] == "DEV-FIX-00" and edit["remove"] == ((2, 0), (-1, 1))
    # count-table errata are not construction records
    assert "DEV-T2-MID-N1" not in class_edit((1, 0))[0]


def test_counterexamples_replay_against_baseline():
    """Each table-correction entry's counterexample must really occur when the
    baseline tables are used, and construct() must mend it."""
    for entry in DEVIATIONS:
        ce = entry.counterexample
        if entry.kind != "table-correction" or not ce or "m" not in ce:
            continue
        dims = GridDims(ce["m"], ce["n"])
        base = PatternSet(dims, *build(dims, {}))
        if "baseline_cardinality" in ce:
            assert base.cardinality == ce["baseline_cardinality"], entry.id
        if "optimal" in ce:
            assert gamma_formula(dims) == ce["optimal"], entry.id
        if "undominated" in ce:
            rep = coverage_map(dims, set(base.black) | set(base.white))
            assert {tuple(v) for v in ce["undominated"]} == set(rep.undominated), entry.id
        if "out_of_range_column" in ce:
            lr = _entry(SIDES[pattern_class(dims)][2], dims.n // 5, dims.n)
            assert ce["out_of_range_column"] in lr, entry.id
        assert verify_pattern(construct(dims)).ok, entry.id


def test_corner_fix_counterexamples_replay():
    # the baseline of these three classes is a dominating [1,2]-set that is
    # too large; the ledger edit makes it optimal
    for dev_id, excess in (("DEV-FIX-00", 2), ("DEV-FIX-02", 1), ("DEV-FIX-20", 1)):
        ce = BY_ID[dev_id].counterexample
        dims = GridDims(ce["m"], ce["n"])
        v = verify_pattern(PatternSet(dims, *build(dims, {})))
        assert v.check("one_two").passed and v.check("interior_unique").passed
        assert v.cardinality == ce["baseline_cardinality"] == ce["optimal"] + excess
        p = construct(dims)
        assert dev_id in p.deviations
        assert p.cardinality == ce["optimal"] and verify_pattern(p).ok


def test_expected_mismatch_lookup_shapes():
    table = expected_table_mismatches()
    # one key per build class: (1, 2) is built transposed, so never looked up
    assert {k for k in table if k[:2] == ("middle", 1)} == {
        ("middle", 1, rm) for rm in (0, 1, 3, 4)}
    assert table[("white", 1, 1)] == (1, "DEV-FIX-11")
    # the cached map is shared between calls, so it is read-only
    with pytest.raises(TypeError):
        table[("white", 1, 1)] = (0, "DEV-X")
    assert expected_table_mismatches() is table
