import json

import pytest

from griddom import DEVIATIONS, construct, load_ledger, GridDims
from griddom.construction import (DEFICIT_CLASSES, LAST_ROW_FROM_COL2,
                                  PHASE_OVERRIDES, TRANSPOSED_CLASSES)
from griddom.deviations import (BY_ID, deviation_ids_for_class,
                                expected_table_mismatches, ledger_as_json)


def test_packaged_ledger_in_sync():
    # the packaged JSON must be regenerated whenever the entries change
    packaged = load_ledger()
    fresh = {e["id"]: e for e in json.loads(ledger_as_json())["entries"]}
    assert packaged == fresh


def test_ids_unique_and_resolvable():
    ids = [e.id for e in DEVIATIONS]
    assert len(ids) == len(set(ids))
    assert set(BY_ID) == set(ids)


def test_every_code_correction_is_ledgered():
    for cls in LAST_ROW_FROM_COL2 | set(PHASE_OVERRIDES) | {
            (1, 1), (1, 4), (2, 3), (4, 4)}:
        assert any(cls in e.classes and e.kind == "table-correction"
                   for e in DEVIATIONS), cls
    for cls in TRANSPOSED_CLASSES:
        assert cls in BY_ID["DEV-ORIENT"].classes
    for cls in DEFICIT_CLASSES:
        assert any(cls in e.classes and e.kind == "deficit" for e in DEVIATIONS), cls


def test_deviation_ids_for_class():
    direct = deviation_ids_for_class((1, 1), transposed=False)
    assert "DEV-FIX-11" in direct and "DEV-DM-RANGE" in direct
    flipped = deviation_ids_for_class((1, 2), transposed=True)
    assert "DEV-ORIENT" in flipped
    assert "DEV-FIX-21" in flipped            # the mirror class's fix applies
    deficit = deviation_ids_for_class((0, 0), transposed=False)
    assert "DEV-DEFICIT-00" in deficit


def test_counterexamples_replay_against_baseline():
    """Each table-correction entry's counterexample must really occur when the
    baseline tables are used."""
    from griddom import coverage_map, gamma_formula
    for entry in DEVIATIONS:
        ce = entry.counterexample
        if entry.kind != "table-correction" or not ce or "m" not in ce:
            continue
        dims = GridDims(ce["m"], ce["n"])
        base = construct(dims, corrections=False)
        if "baseline_cardinality" in ce:
            assert base.cardinality == ce["baseline_cardinality"], entry.id
        if "optimal" in ce:
            assert gamma_formula(dims) == ce["optimal"], entry.id
        if "undominated" in ce:
            rep = coverage_map(dims, set(base.black) | set(base.white))
            assert {tuple(v) for v in ce["undominated"]} == set(rep.undominated), entry.id
        if "out_of_range_column" in ce:
            from griddom.construction import _sides_baseline
            _, _, lr = _sides_baseline(dims.m, dims.n)
            assert ce["out_of_range_column"] in lr, entry.id


def test_deficit_counterexamples_replay():
    for dev_id in ("DEV-DEFICIT-00", "DEV-DEFICIT-02", "DEV-DEFICIT-20"):
        ce = BY_ID[dev_id].counterexample
        p = construct(GridDims(ce["m"], ce["n"]))
        assert p.cardinality == ce["constructed"] == ce["architecture_minimum"]


def test_expected_mismatch_lookup_shapes():
    table = expected_table_mismatches()
    assert ("middle", 1, None) in table
    assert table[("white", 1, 1)] == (1, "DEV-FIX-11")
    # the parsed map is shared between calls, so it is read-only
    with pytest.raises(TypeError):
        table[("white", 1, 1)] = (0, "DEV-X")
    assert expected_table_mismatches() is table
