import hashlib
import time
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from griddom import (CapacityError, GridDims, Vertex, coverage_map,
                     exact_gamma_bruteforce, exact_gamma_dp)
from griddom import oracle
from griddom.cli import main

# the largest witness log, in bytes, of any solve the caps admit: 151.3 MB
# at domination 16x37; test_dp_log_bounded_by_work_cap and its optional
# counterpart in test_acceptance.py check it width by width
LOG_BOUND = 152 * 10**6


def reference_minimum(m, n, variant="domination"):
    """Reference search built on the verifier, kept independent of the oracle
    module's bitmask machinery."""
    d = GridDims(m, n)
    cells = [Vertex(r, c) for r in range(1, m + 1) for c in range(1, n + 1)]
    for k in range(len(cells) + 1):
        for combo in combinations(cells, k):
            rep = coverage_map(d, set(combo))
            feasible = rep.is_one_two if variant == "one-two" else rep.is_dominating
            if feasible:
                return k, combo
    raise AssertionError


def test_bruteforce_tiny_values():
    assert exact_gamma_bruteforce(GridDims(1, 1)).value == 1
    assert exact_gamma_bruteforce(GridDims(2, 2)).value == 2
    assert exact_gamma_bruteforce(GridDims(3, 3)).value == 3


def test_bruteforce_lexicographic_witness():
    for (m, n) in [(3, 3), (2, 4), (4, 3)]:
        res = exact_gamma_bruteforce(GridDims(m, n))
        value, combo = reference_minimum(m, n)
        assert res.value == value
        assert res.witness == combo
        assert res.work > 0


def test_bruteforce_one_two_matches_reference():
    for (m, n) in [(2, 3), (3, 4), (1, 6)]:
        res = exact_gamma_bruteforce(GridDims(m, n), "one-two")
        value, _ = reference_minimum(m, n, "one-two")
        assert res.value == value


def test_bruteforce_capacity():
    with pytest.raises(CapacityError, match="exact_gamma_dp"):
        exact_gamma_bruteforce(GridDims(3, 7))


def test_bad_variant_rejected():
    with pytest.raises(ValueError):
        exact_gamma_bruteforce(GridDims(2, 2), "total")
    with pytest.raises(ValueError):
        exact_gamma_dp(GridDims(2, 2), "total")


def test_dp_matches_bruteforce_spot():
    for (m, n) in [(4, 4), (2, 5), (5, 4), (1, 9), (3, 6)]:
        for variant in ("domination", "one-two"):
            b = exact_gamma_bruteforce(GridDims(m, n), variant)
            d = exact_gamma_dp(GridDims(m, n), variant)
            assert b.value == d.value, (m, n, variant)


def test_dp_12x12_value_and_witness():
    # 35 cross-checked against an independent integer-programming solve
    res = exact_gamma_dp(GridDims(12, 12))
    assert res.value == 35
    assert len(res.witness) == 35
    assert res.witness == tuple(sorted(res.witness))
    assert coverage_map(GridDims(12, 12), set(res.witness)).is_dominating
    assert res.method == "profile-dp" and res.work > 0


def feasible(dims, witness, variant):
    rep = coverage_map(dims, set(witness))
    return rep.is_one_two if variant == "one-two" else rep.is_dominating


@pytest.mark.parametrize("variant", ["domination", "one-two"])
@pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 7) for n in range(1, 10)])
def test_dp_witness_small_grids(m, n, variant):
    dims = GridDims(m, n)
    res = exact_gamma_dp(dims, variant)
    assert feasible(dims, res.witness, variant)
    assert len(res.witness) == res.value
    assert exact_gamma_dp(GridDims(n, m), variant).value == res.value


def test_dp_witnesses_are_pinned():
    """The witnesses the back-pointer log yields, pinned as one SHA-256.
    Lengths w..w+14 take every residue mod 3 and mod 5, so a log holding
    several columns per byte decodes every digit position, and a last byte
    only partly filled, for both variants and both orientations."""
    digest = hashlib.sha256()
    for variant in ("domination", "one-two"):
        for width in (3, 5):
            for length in range(width, width + 15):
                for m, n in ((width, length), (length, width)):
                    res = exact_gamma_dp(GridDims(m, n), variant)
                    digest.update(repr((variant, m, n, res.value,
                                        res.witness)).encode())
    assert digest.hexdigest() == (
        "f2d73b235618cbcb41f2a2ed71ce046302837b616b60a54408b18967fc949812")


def test_dp_13x13_witness_within_budget():
    # 40 is the published domination number of the 13x13 grid; the packed
    # log over its reachable states is within the bound the caps keep
    res = exact_gamma_dp(GridDims(13, 13))
    assert res.value == 40
    assert len(res.witness) == 40
    assert feasible(GridDims(13, 13), res.witness, "domination")
    # for each of the 670511 states with a choice, one byte per three
    # columns: a k is one of 5, and 5**3 <= 256, so ceil(13 / 3) bytes
    assert res.backpointer_bytes == 670511 * 5
    assert 0 < res.backpointer_bytes < res.work
    assert res.backpointer_bytes <= LOG_BOUND


def test_dp_witness_log_is_packed():
    """A 13x17 domination solve over cached tables peaks under 8 MB: its log
    holds three columns per byte (4.0 MB), where one byte per column took
    11.4 MB and the solve peaked at 14.1 MB."""
    oracle._frontier_tables("domination", 13)   # built outside the trace
    tracemalloc.start()
    try:
        res = exact_gamma_dp(GridDims(13, 17))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(res.witness) == res.value
    assert res.backpointer_bytes == 670511 * 6      # ceil(17 / 3) bytes
    assert peak < 8e6, peak


def test_successor_codes_stay_int32():
    # int64 codes would make the table build copy each row's codes to
    # compare them with the successors
    for variant, rule in oracle._RULES.items():
        codes = np.arange(rule[0].size ** 5, dtype=np.int32)
        for r in range(5):
            place, no_place = oracle._successors(rule, codes, r)
            assert place.dtype == no_place.dtype == np.int32, (variant, r)


def test_dp_tables_are_pinned():
    """Every cached table array with its dtype and shape, the start state's
    index and the row-state counts, pinned as one SHA-256 over domination
    widths 1-9 and [1,2] widths 1-8. A reordering of the states would change
    the witnesses' tie-breaks at widths the witness pin does not reach."""
    digest = hashlib.sha256()
    for variant, top in (("domination", 9), ("one-two", 8)):
        for width in range(1, top + 1):
            oracle._table_cache.pop((variant, width), None)
            tables, init_index, final_ok, row_states, _, _ = \
                oracle._frontier_tables(variant, width)
            digest.update(repr((variant, width, init_index, row_states)).encode())
            arrays = [a for preds, place in tables for a in (*preds, place)]
            for a in arrays + [final_ok]:
                digest.update(repr((a.dtype.str, a.shape)).encode())
                digest.update(np.ascontiguousarray(a).tobytes())
    assert digest.hexdigest() == (
        "97c03b5efbfabda3547951efebca2d7222596859665ff10bb3d3b32f5cb3f40f")


def test_dp_swept_prefixes_are_pinned():
    """The cached prefix of every width, the values after its first width
    columns and its log bytes (the last partly filled where the columns per
    byte do not divide the width), pinned as one SHA-256 over the same
    widths as the tables."""
    digest = hashlib.sha256()
    for variant, top in (("domination", 9), ("one-two", 8)):
        for width in range(1, top + 1):
            oracle._table_cache.pop((variant, width), None)
            *_, prefix, prefix_logs = oracle._frontier_tables(variant, width)
            for a in [prefix, *prefix_logs]:
                digest.update(repr((a.dtype.str, a.shape)).encode())
                digest.update(np.ascontiguousarray(a).tobytes())
    assert digest.hexdigest() == (
        "293bd37a7748517e02b6d8f8da124e07385a551a6575822971c27095df8dfa95")


def longest_admissible_log(variant, width):
    """(L*, bytes): the longest length L* that DP_WORK_CAP and DP_CELL_CAP
    admit at this width, and the witness log of a solve of that length,
    sum(choices) * ceil(L* / D) bytes. The log grows with the length, so no
    admissible solve of this width logs more. A cold build of the tables
    checks their reachable states against the width's REACHABLE_STATES."""
    tables, _, _, row_states, _, _ = oracle._frontier_tables(variant, width)
    choices, _, per_byte = oracle._log_layout(tables)
    longest = min(oracle.DP_WORK_CAP // sum(row_states),
                  oracle.DP_CELL_CAP // width)
    return longest, sum(choices) * -(-longest // per_byte)


@pytest.mark.parametrize("variant,top", [("domination", 12), ("one-two", 11)])
def test_dp_log_bounded_by_work_cap(variant, top):
    """The caps keep every admissible witness log within LOG_BOUND, so the
    DP can always keep its witness; a length past L* is refused. Domination
    widths 13-16 and [1,2] widths 12-14 are checked by an optional test."""
    assert (oracle.DP_WORK_CAP, oracle.DP_CELL_CAP) == (2**30, 10**6)
    for width in range(1, top + 1):
        longest, log_bytes = longest_admissible_log(variant, width)
        assert width <= longest and log_bytes <= LOG_BOUND, (width, log_bytes)
        with pytest.raises(CapacityError):
            exact_gamma_dp(GridDims(width, longest + 1), variant)


def test_dp_reachable_state_counts():
    # largest reachable frontier set over the row offsets, far below 3**11
    # and 4**9 dense codes
    for res, width, states in [
            (exact_gamma_dp(GridDims(11, 11)), 11, 21979),
            (exact_gamma_dp(GridDims(9, 9), "one-two"), 9, 17394)]:
        assert res.states == states
        # one count per row offset; each column relaxes every reachable state
        assert len(res.row_states) == width and max(res.row_states) == states
        assert sum(res.row_states) * max(res.dims.m, res.dims.n) == res.work


def test_dp_deterministic():
    a = exact_gamma_dp(GridDims(6, 9))
    b = exact_gamma_dp(GridDims(6, 9))
    assert a.witness == b.witness and a.value == b.value


def test_dp_transposes_internally():
    tall = exact_gamma_dp(GridDims(11, 4))
    wide = exact_gamma_dp(GridDims(4, 11))
    assert tall.value == wide.value
    assert coverage_map(GridDims(11, 4), set(tall.witness)).is_dominating


def test_dp_width_caps():
    """No width is refused for itself: domination 13 and [1,2] 11, over the
    old default caps, are solved with no cap argument. A width cap is an
    optional parameter that refuses the widths above it."""
    res = exact_gamma_dp(GridDims(13, 14))
    assert res.value == len(res.witness) == 44
    assert feasible(GridDims(13, 14), res.witness, "domination")
    res = exact_gamma_dp(GridDims(11, 12), "one-two")
    assert res.value == len(res.witness) == 32
    assert feasible(GridDims(11, 12), res.witness, "one-two")
    with pytest.raises(CapacityError, match="frontier width 5 exceeds cap 4"):
        exact_gamma_dp(GridDims(5, 5), width_cap=4)
    assert exact_gamma_dp(GridDims(5, 5), width_cap=5) == \
        exact_gamma_dp(GridDims(5, 5))


def test_dp_width_ceiling_refuses_before_any_table(capsys):
    """A width past its variant's REACHABLE_STATES is refused before any
    table is built, under a width cap that admits it: the first such
    widths, domination 17 and [1,2] 15, and domination 20 and [1,2] 16,
    whose 3**20 and 4**16 codes are past the int32 range too. A width cap
    below the width refuses first."""
    for variant, width in (("domination", 17), ("domination", 20),
                           ("one-two", 15), ("one-two", 16)):
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError,
                               match=f"frontier width {width} is past REACHABLE_STATES"):
                exact_gamma_dp(GridDims(width, width), variant, width_cap=width)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20, variant
        assert main(["oracle", "--variant", variant, "--m", str(width),
                     "--n", str(width)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"frontier width {width} is past REACHABLE_STATES" in captured.err
    for variant, width in (("domination", 19), ("domination", 20),
                           ("one-two", 15), ("one-two", 16)):
        with pytest.raises(CapacityError, match=f"width {width} exceeds cap"):
            exact_gamma_dp(GridDims(width, width), variant, width_cap=width - 1)


def forbid_search(monkeypatch):
    """Make any reachable-state search or table build fail the test."""
    def no_search(*args):
        raise AssertionError("searched or built tables for a refused solve")

    monkeypatch.setattr(oracle, "_reachable_states", no_search)
    monkeypatch.setattr(oracle, "_predecessor_tables", no_search)


def test_reachable_states_table_covers_the_int32_widths():
    """REACHABLE_STATES lists exactly the widths whose own square
    DP_WORK_CAP admits, domination 1-16 and [1,2] 1-14 (at the next width
    the search passed DP_WORK_CAP // w states). Every listed width keeps
    its B**w frontier codes within int32 and admits its square, and the
    totals grow with the width, so a width past the table has more states
    still."""
    assert oracle.DP_WORK_CAP == 2**30
    for variant, size in (("domination", 16), ("one-two", 14)):
        totals = oracle.REACHABLE_STATES[variant]
        base = oracle._RULES[variant][0].size
        assert len(totals) == size
        assert all(type(t) is int for t in totals)
        assert all(base ** w <= 2**31 - 1 for w in range(1, size + 1))
        assert all(t * w <= oracle.DP_WORK_CAP for w, t in enumerate(totals, 1))
        assert all(a < b for a, b in zip(totals, totals[1:]))


def test_dp_cold_build_checks_its_reachable_states_entry(monkeypatch):
    """A cold table build whose search finds other than its width's
    REACHABLE_STATES total raises AssertionError and caches nothing."""
    totals = list(oracle.REACHABLE_STATES["one-two"])
    totals[4] += 1
    monkeypatch.setitem(oracle.REACHABLE_STATES, "one-two", tuple(totals))
    oracle._table_cache.clear()
    with pytest.raises(AssertionError, match="REACHABLE_STATES"):
        exact_gamma_dp(GridDims(5, 5), "one-two")
    assert not oracle._table_cache


def test_dp_work_cap_stops_a_cold_search(monkeypatch):
    """Over DP_WORK_CAP, a cold solve is refused before any search, on the
    work its width's REACHABLE_STATES entry gives: no search runs, no table
    is built, nothing is cached, and each refusal takes under 0.1 s with a
    traced peak under 64 KiB (about 1 KB). Domination 17-19 and [1,2] 15
    (entries None) are refused at their own square, domination 16x40 and
    [1,2] 14x30 by their length; with the cap checked inside the search each
    cost 2.8-7.2 s and 175-794 MiB max RSS on a 2-vCPU VM. 12x40 is refused
    under a cap lowered to 2**20."""
    forbid_search(monkeypatch)
    oracle._table_cache.clear()
    for variant, m, n, cap in (("domination", 17, 17, 2**30),
                               ("domination", 18, 18, 2**30),
                               ("domination", 19, 19, 2**30),
                               ("one-two", 15, 15, 2**30),
                               ("domination", 16, 40, 2**30),
                               ("one-two", 14, 30, 2**30),
                               ("domination", 12, 40, 2**20)):
        monkeypatch.setattr(oracle, "DP_WORK_CAP", cap)
        tracemalloc.start()
        try:
            t0 = time.perf_counter()
            with pytest.raises(CapacityError,
                               match=f"over DP_WORK_CAP = {cap}"):
                exact_gamma_dp(GridDims(m, n), variant)
            elapsed = time.perf_counter() - t0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not oracle._table_cache, (variant, m, n)
        assert elapsed < 0.1 and peak < 2**16, (variant, m, n, elapsed, peak)


def test_dp_work_cap_admits_its_bound(monkeypatch):
    """A solve whose work equals DP_WORK_CAP is accepted, cold and warm; one
    pair less refuses it, warm (tables cached) and cold (no search runs and
    nothing is cached): either way the work is read from REACHABLE_STATES."""
    expected = exact_gamma_dp(GridDims(6, 9))
    assert expected.work == oracle.REACHABLE_STATES["domination"][5] * 9
    monkeypatch.setattr(oracle, "DP_WORK_CAP", expected.work)
    oracle._table_cache.clear()
    assert exact_gamma_dp(GridDims(6, 9)) == expected       # cold
    assert exact_gamma_dp(GridDims(6, 9)) == expected       # warm
    monkeypatch.setattr(oracle, "DP_WORK_CAP", expected.work - 1)
    with pytest.raises(CapacityError, match="DP_WORK_CAP"):
        exact_gamma_dp(GridDims(6, 9))
    oracle._table_cache.clear()
    forbid_search(monkeypatch)
    with pytest.raises(CapacityError, match="DP_WORK_CAP"):
        exact_gamma_dp(GridDims(6, 9))
    assert not oracle._table_cache


def test_dp_work_cap_refuses_12x1723(monkeypatch):
    """At the real cap, width 12's 623190 reachable states admit a length of
    1722 (1073133180 pairs, a sweep of about 4 s) and refuse 1723
    (1073756370 > 2**30), cold with no search run, or cached, well within
    DP_CELL_CAP."""
    assert oracle.DP_WORK_CAP == 2**30
    searched = []
    search = oracle._reachable_states

    def counting(rule, width, init):
        searched.append(width)
        return search(rule, width, init)

    monkeypatch.setattr(oracle, "_reachable_states", counting)
    oracle._table_cache.pop(("domination", 12), None)
    with pytest.raises(CapacityError, match="over DP_WORK_CAP = 1073741824"):
        exact_gamma_dp(GridDims(1723, 12))
    assert searched == []
    assert ("domination", 12) not in oracle._table_cache
    res = exact_gamma_dp(GridDims(12, 12))
    assert searched == [12]
    assert sum(res.row_states) == 623190
    assert sum(res.row_states) * 1722 <= 2**30 < sum(res.row_states) * 1723
    with pytest.raises(CapacityError, match="1073756370 .state, cell. pairs"):
        exact_gamma_dp(GridDims(12, 1723))
    assert searched == [12]


def test_dp_cell_cap_refuses_before_any_table(capsys, monkeypatch):
    """A grid over DP_CELL_CAP cells is refused before any table or log is
    built, however narrow: a thin strip costs tens of microseconds per cell.
    The CLI's 2x12500000 is refused by it too, and exits 2 without output
    at once."""
    assert oracle.DP_CELL_CAP == 10**6
    oracle._table_cache.clear()
    with pytest.raises(CapacityError, match="1000002 > 1000000 cells"):
        exact_gamma_dp(GridDims(2, 500001))
    assert not oracle._table_cache
    assert main(["oracle", "--m", "2", "--n", "12500000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "25000000 > 1000000 cells" in captured.err
    assert not oracle._table_cache
    # the bound itself is accepted
    monkeypatch.setattr(oracle, "DP_CELL_CAP", 20)
    assert exact_gamma_dp(GridDims(2, 10)).value == 6
    with pytest.raises(CapacityError):
        exact_gamma_dp(GridDims(3, 7))


def test_dp_backpointer_log_costs_its_bytes_on_a_thin_strip():
    # the log is one array per row offset, so besides its counted bytes the
    # solve holds about the witness itself (one Vertex per member), not an
    # array header per cell
    exact_gamma_dp(GridDims(2, 8))            # tables built outside the trace
    tracemalloc.start()
    try:
        res = exact_gamma_dp(GridDims(2, 3000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.value == 1501 and len(res.witness) == res.value
    # six states with a choice over the two row offsets; a k is one of 5,
    # so a byte holds three columns: ceil(3000 / 3) bytes each
    assert res.backpointer_bytes == 6 * 1000
    assert (peak - res.backpointer_bytes) / res.value < 400


def test_dp_cold_and_warm_tables_agree():
    for variant in ("domination", "one-two"):
        for m in range(1, 7):
            for n in range(1, 10):
                oracle._table_cache.clear()
                cold = exact_gamma_dp(GridDims(m, n), variant)
                assert (variant, min(m, n)) in oracle._table_cache
                warm = exact_gamma_dp(GridDims(m, n), variant)
                # value, witness, backpointer_bytes, work, row_states, ...
                assert warm == cold


def count_swept_columns(monkeypatch):
    """Record the (column count, log rows) of every `_sweep` call."""
    swept = []
    sweep = oracle._sweep

    def counting(tables, start, columns):
        values, logs = sweep(tables, start, columns)
        swept.append((columns, {log.shape[0] for log in logs}))
        return values, logs

    monkeypatch.setattr(oracle, "_sweep", counting)
    return swept


@pytest.mark.parametrize("variant,width,prefix", [
    ("domination", 12, 12), ("one-two", 10, 10), ("one-two", 5, 5),
    ("domination", 2, 2), ("one-two", 4, 4), ("domination", 4, 4),
    ("domination", 11, 11), ("one-two", 3, 3), ("one-two", 9, 9)])
def test_dp_solves_sweep_only_the_columns_past_the_cached_prefix(
        monkeypatch, variant, width, prefix):
    """The table build sweeps the first prefix = `width` columns and a solve
    only the rest, each into a log of its own with one row per D columns
    (3 for domination, 5 for [1,2]): a square solve sweeps no column of its
    own and allocates no log row. Where D does not divide the width, the
    prefix's last log row is partly filled and the solve's log still starts
    a row of its own. A cold solve (tables built) equals a warm one in every
    field."""
    per_byte = {"domination": 3, "one-two": 5}[variant]

    def rows(columns):
        return {-(-columns // per_byte)}

    swept = count_swept_columns(monkeypatch)
    for m, n in ((width, width), (width, width + 1), (width + 1, width)):
        oracle._table_cache.clear()
        cold = exact_gamma_dp(GridDims(m, n), variant)
        warm = exact_gamma_dp(GridDims(m, n), variant)
        solve = max(m, n) - prefix
        assert swept == ([(prefix, rows(prefix))]
                         + 2 * [(solve, rows(solve))]), (m, n)
        swept.clear()
        assert warm == cold
        assert len(warm.witness) == warm.value
        assert feasible(GridDims(m, n), warm.witness, variant)


def test_dp_cached_tables_are_read_only():
    exact_gamma_dp(GridDims(5, 7), "one-two")
    tables, _, final_ok, _, prefix, prefix_logs = oracle._frontier_tables(
        "one-two", 5)
    preds, place = tables[0]
    for array in (preds[0], preds[-1], place, final_ok, prefix,
                  *prefix_logs):
        with pytest.raises(ValueError):
            array[0] = array[0]


def test_dp_table_cache_byte_bound(monkeypatch):
    expected = exact_gamma_dp(GridDims(6, 8))
    monkeypatch.setattr(oracle, "TABLE_CACHE_BYTES", 2**30)
    oracle._table_cache.clear()
    for width in (4, 5, 6):
        exact_gamma_dp(GridDims(width, 8))
    size = {w: oracle._table_cache["domination", w][1] for w in (4, 5, 6)}
    assert size[4] < size[5] < size[6]

    def solve_widths(bound, *widths):
        monkeypatch.setattr(oracle, "TABLE_CACHE_BYTES", bound)
        oracle._table_cache.clear()
        res = [exact_gamma_dp(GridDims(w, 8)) for w in widths]
        return [w for _, w in oracle._table_cache], res[-1]

    # an entry above the bound is used but not kept, and evicts nothing
    kept, res = solve_widths(size[5], 5, 6)
    assert kept == [5]
    assert (res.value, res.witness) == (expected.value, expected.witness)
    # room for the width-6 entry alone: keeping it evicts the older width 5
    kept, res = solve_widths(size[6], 5, 6)
    assert kept == [6]
    assert (res.value, res.witness) == (expected.value, expected.witness)
    # the least recently used entry goes first: 4 was used after 5
    kept, _ = solve_widths(size[4] + size[6], 4, 5, 4, 6)
    assert kept == [4, 6]


def test_dp_table_indices_are_uint16_where_the_states_fit():
    """A row offset's predecessor indices are uint16 when the states they
    index number at most 2**16, as on every row of domination width 12 and
    [1,2] width 10, so those tables hold two bytes per index (4.8 and 3.4
    MiB with int32 indices); each row of domination width 13 has over 2**16
    states and keeps int32. The rest of an entry is its swept prefix: the
    values entering row 0 and width // D log bytes per state with a choice
    (12 // 3 and 10 // 5)."""
    for variant, width, mib, prefix_bytes in (("domination", 12, 2.8, 4),
                                              ("one-two", 10, 2.0, 2)):
        exact_gamma_dp(GridDims(width, width), variant)
        entry, size = oracle._table_cache[variant, width]
        tables, _, final_ok, _, prefix, prefix_logs = entry
        preds = [p for row, _ in tables for p in row]
        assert {p.dtype for p in preds} == {np.dtype(np.uint16)}
        table_size = (final_ok.nbytes + sum(2 * p.size for p in preds)
                      + sum(place.nbytes for _, place in tables))
        assert table_size < mib * 2**20, (variant, width, table_size)
        choices = sum(row[1].size for row, _ in tables)
        assert size - table_size == (4 * final_ok.size
                                     + prefix_bytes * choices)
        assert prefix.nbytes + sum(log.nbytes for log in prefix_logs) == \
            size - table_size
    tables, _, _, row_states, _, _ = oracle._frontier_tables("domination", 13)
    assert min(row_states) > 2**16
    assert {p.dtype for row, _ in tables for p in row} == {np.dtype(np.int32)}


def test_dp_cold_table_build_allocates_no_dense_lookup():
    """A cold (domination, 12) build peaks at about 7.4 MB; with a dense
    int32 lookup over the 3**12 codes it peaked at about 8.8 MB, and with
    int32 indices as well at 11.1 MB."""
    oracle._table_cache.pop(("domination", 12), None)
    tracemalloc.start()
    try:
        oracle._frontier_tables("domination", 12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak


def test_dp_cold_search_allocates_no_dense_mask():
    """A cold ([1,2], 10) reachable-state search peaks at about 2.8 MB; with a
    dense seen-mask over the 4**10 codes it peaked at about 4.6 MB."""
    rule = oracle._RULES["one-two"]
    tracemalloc.start()
    try:
        states = oracle._reachable_states(rule, 10, (4 ** 10 - 1) // 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [s.size for s in states] == list(
        exact_gamma_dp(GridDims(10, 10), "one-two").row_states)
    assert peak < 3.5e6, peak


def test_one_two_at_least_domination():
    for (m, n) in [(3, 5), (4, 6), (2, 9), (6, 6)]:
        g = exact_gamma_dp(GridDims(m, n), "domination").value
        g12 = exact_gamma_dp(GridDims(m, n), "one-two").value
        assert g <= g12


def test_gamma_monotone_in_n():
    for m in (2, 3, 4):
        values = [exact_gamma_dp(GridDims(m, n)).value for n in range(1, 9)]
        assert values == sorted(values)


def test_one_two_witness_feasible():
    res = exact_gamma_dp(GridDims(7, 9), "one-two")
    rep = coverage_map(GridDims(7, 9), set(res.witness))
    assert rep.is_one_two


def test_one_two_10x10_value():
    # 24, cross-checked against an independent integer-programming solve
    res = exact_gamma_dp(GridDims(10, 10), "one-two")
    assert res.value == 24


def test_dp_capacity_message_names_a_bound():
    # each refusal names the bound it is over: the table's widths and
    # DP_WORK_CAP past the table, the work and DP_WORK_CAP within it
    with pytest.raises(CapacityError) as exc:
        exact_gamma_dp(GridDims(20, 20))
    assert str(exc.value) == (
        "frontier width 20 is past REACHABLE_STATES (widths 1-16): even its "
        "square is over DP_WORK_CAP = 1073741824")
    with pytest.raises(CapacityError) as exc:
        exact_gamma_dp(GridDims(14, 30), "one-two")
    assert str(exc.value) == (
        "47631391 reachable frontier states x 30 columns = 1428941730 "
        "(state, cell) pairs, over DP_WORK_CAP = 1073741824")
