"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines.

Criterion 2 sweeps every grid in [16, 66]^2: all 25 residue classes must
pass all four verifier checks at the closed-form size. Criterion 8 checks
that the count tables match the built patterns except in the cells the
ledger names, and that every such cell is exercised.
"""

import os
import resource
import time

import numpy as np
import pytest

from griddom import (CapacityError, GridDims, construct, count_cross_check,
                     coverage_map, exact_gamma_bruteforce, exact_gamma_dp,
                     gamma_formula, pattern_class, verify_pattern)
from griddom.cli import bench_row
from griddom.deviations import expected_table_mismatches
from test_oracle import LOG_BOUND, longest_admissible_log

SWEEP_LO, SWEEP_HI = 16, 66

REFERENCE_SIZES = {
    (16, 16): 60,
    (24, 20): 110,
    (24, 21): 115,
    (24, 22): 120,
    (24, 23): 126,
    (24, 24): 131,
}


def maxrss_mb():
    """Peak resident set of this process so far, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def report(num, name, ok, detail=""):
    tail = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}{tail}")
    return ok


@pytest.fixture(scope="module")
def sweep_results():
    out = []
    t0 = time.perf_counter()
    for m in range(SWEEP_LO, SWEEP_HI + 1):
        for n in range(SWEEP_LO, SWEEP_HI + 1):
            dims = GridDims(m, n)
            v = verify_pattern(construct(dims))
            out.append((dims, v))
    return out, time.perf_counter() - t0


def test_criterion_1_reference_sizes():
    for (m, n), size in REFERENCE_SIZES.items():
        p = construct(GridDims(m, n))
        assert p.cardinality == size, (m, n, p.cardinality, size)
    dims = [GridDims(*mn) for mn in REFERENCE_SIZES]
    best = None
    for _ in range(5):
        t0 = time.perf_counter_ns()
        for d in dims:
            construct(d)
        elapsed = time.perf_counter_ns() - t0
        best = elapsed if best is None else min(best, elapsed)
    ok = best < 1_000_000
    assert report(1, "reference sizes (6 grids, < 1 ms)", ok,
                  f"{best / 1e6:.3f} ms"), f"six constructs took {best} ns"


def test_criterion_2_formula_sweep(sweep_results):
    results, elapsed = sweep_results
    failures = [(d.m, d.n, [c.name for c in v.checks if not c.passed])
                for d, v in results if not v.ok]
    ok = report(2, f"formula sweep [{SWEEP_LO},{SWEEP_HI}]^2 (4 checks x "
                   f"{len(results)} grids, < 30 s)",
                not failures and elapsed < 30,
                f"{len(failures)} failing grids, {elapsed:.1f} s")
    assert elapsed < 30, f"sweep took {elapsed:.1f} s"
    assert not failures, f"{len(failures)} grids failed: {failures[:5]}"


def test_criterion_3_dp_vs_bruteforce():
    t0 = time.perf_counter()
    pairs = [(m, n) for m in range(1, 21) for n in range(1, 21) if m * n <= 20]
    for m, n in pairs:
        for variant in ("domination", "one-two"):
            b = exact_gamma_bruteforce(GridDims(m, n), variant)
            d = exact_gamma_dp(GridDims(m, n), variant)
            assert b.value == d.value, (m, n, variant, b.value, d.value)
    elapsed = time.perf_counter() - t0
    ok = report(3, "oracle cross-validation (m*n <= 20, both variants, < 60 s)",
                elapsed < 60, f"{len(pairs)} grids x 2 variants, {elapsed:.1f} s")
    assert ok


def test_criterion_4_known_small_values():
    t0 = time.perf_counter()
    for k in (1, 2, 3, 4):
        dims = GridDims(k, k)
        assert exact_gamma_bruteforce(dims).value == k
        assert exact_gamma_dp(dims).value == k
    elapsed = time.perf_counter() - t0
    ok = report(4, "known small values gamma(k,k)=k for k<=4 (< 5 s)",
                elapsed < 5, f"{elapsed:.2f} s")
    assert ok


def test_criterion_5_one_two_desk_scale():
    t0 = time.perf_counter()
    gaps = {}
    for m in range(1, 11):
        for n in range(m, 15):
            g = exact_gamma_dp(GridDims(m, n), "domination").value
            g12 = exact_gamma_dp(GridDims(m, n), "one-two").value
            assert g <= g12, (m, n, g, g12)
            gaps[(m, n)] = g12 - g
    elapsed = time.perf_counter() - t0
    nonzero = {k: v for k, v in gaps.items() if v}
    ok = report(5, "[1,2] desk scale: gamma <= gamma_[1,2], gap reported (< 10 min)",
                elapsed < 600,
                f"{len(gaps)} grids, {len(nonzero)} with gap > 0: "
                f"{sorted(nonzero.items())[:6]}, {elapsed:.0f} s")
    assert ok
    # no equality gate below 16 by design; the >=16 claim is certified
    # constructively by criterion 2's one_two + cardinality checks


@pytest.mark.optional
@pytest.mark.skipif(os.environ.get("GRIDDOM_RUN_OPTIONAL") != "1",
                    reason="width-16 solve takes ~10 s and ~0.45 GB; set "
                           "GRIDDOM_RUN_OPTIONAL=1 to run")
def test_criterion_6_exact_dp_16x16_meets_formula():
    t0 = time.perf_counter()
    res = exact_gamma_dp(GridDims(16, 16), "domination")
    elapsed = time.perf_counter() - t0
    ok = res.value == 60 == gamma_formula(GridDims(16, 16))
    # sandwich: exact <= constructed, and both meet the closed form, which
    # certifies optimality of the construction end to end at this size
    ok = ok and construct(GridDims(16, 16)).cardinality == res.value
    # the witness is an independent minimum dominating set
    witness = res.witness
    ok = ok and len(witness) == 60
    ok = ok and coverage_map(GridDims(16, 16), witness).is_dominating
    report(6, "optional 16x16 exact recomputation with witness", ok,
           f"dp={res.value}, witness={len(witness)} members, {elapsed:.1f} s, "
           f"max RSS {maxrss_mb():.0f} MiB")
    assert ok


@pytest.mark.optional
@pytest.mark.skipif(os.environ.get("GRIDDOM_RUN_OPTIONAL") != "1",
                    reason="builds the tables of every wide width: ~40 s and "
                           "~0.8 GB; set GRIDDOM_RUN_OPTIONAL=1 to run")
def test_dp_log_bounded_by_work_cap_at_wide_widths():
    """The witness log bound of test_dp_log_bounded_by_work_cap at the widths
    whose tables take seconds to build, with their longest admissible
    lengths and logs in MB; every wider width, past REACHABLE_STATES, is
    refused at its own square, before any search, so no solve there keeps
    a log. Each cold build checks its search against the width's
    REACHABLE_STATES entry."""
    t0 = time.perf_counter()
    found = {(variant, width): longest_admissible_log(variant, width)
             for variant, widths in (("domination", range(13, 17)),
                                     ("one-two", range(12, 15)))
             for width in widths}
    logs = {key: round(log_bytes / 1e6, 1)
            for key, (_, log_bytes) in found.items()}
    ok = logs == {
        ("domination", 13): 147.5, ("domination", 14): 148.3,
        ("domination", 15): 149.1, ("domination", 16): 151.3,
        ("one-two", 12): 99.4, ("one-two", 13): 99.2, ("one-two", 14): 110.4}
    ok = ok and found["domination", 16][0] == 37
    ok = ok and all(log_bytes <= LOG_BOUND for _, log_bytes in found.values())
    for variant, widths in (("domination", range(17, 20)), ("one-two", (15,))):
        for width in widths:
            with pytest.raises(CapacityError, match="DP_WORK_CAP"):
                exact_gamma_dp(GridDims(width, width), variant)
    elapsed = time.perf_counter() - t0
    report(6, "optional witness log bound at the wide widths", ok,
           f"largest log {max(logs.values())} MB <= {LOG_BOUND / 1e6:.0f} MB, "
           f"{elapsed:.0f} s, max RSS {maxrss_mb():.0f} MiB")
    assert ok


def test_criterion_7_linearity_benchmark():
    rows = [bench_row(100, repeats=5), bench_row(1000, repeats=3),
            bench_row(10000, repeats=1)]
    ratios = []
    for prev, cur in zip(rows, rows[1:]):
        r = cur["ns_per_member"] / prev["ns_per_member"]
        ratios.append(r)
        assert 0.25 < r < 4, (prev, cur)
    alloc = [bench_row(100, alloc=True), bench_row(1000, alloc=True)]
    for row in alloc:
        assert row["bytes_per_member"] < 512, row
    flat = alloc[1]["bytes_per_member"] / alloc[0]["bytes_per_member"]
    assert 0.5 < flat < 2, alloc
    # reported, not gated: a least-squares time = fixed + per-member cost,
    # which separates side 100's fixed cost from the ratios; weighted by
    # 1/time so each row's relative error counts alike (unweighted, the
    # side-10000 row alone sets the fixed cost)
    times = [r["time_ns"] for r in rows]
    per_member, fixed = np.polyfit([r["members"] for r in rows], times, 1,
                                   w=[1 / t for t in times])
    ok = report(7, "linearity benchmark (ns/member ratio < 4, O(answer) memory)",
                True,
                "ns/member " + "/".join(f"{r['ns_per_member']:.0f}" for r in rows)
                + " (ratios " + "/".join(f"{r:.2f}" for r in ratios)
                + f"; fit {fixed / 1e3:.0f} us + {per_member:.0f} ns/member)"
                + f", bytes/member {alloc[1]['bytes_per_member']:.0f}")
    assert ok


def test_criterion_8_table_cross_checks():
    expected = expected_table_mismatches()
    unexplained = []
    seen_cells = set()
    for m in range(16, 41):
        for n in range(16, 41):
            p = construct(GridDims(m, n))
            cc = count_cross_check(p)
            unexplained.extend((m, n, r) for r in cc.unexplained)
            rn, rm = pattern_class(p.dims)
            for r in cc.rows:
                if not r.matches:
                    assert r.ledger_id is not None
                    seen_cells.add((r.label.split("[")[0], rn, rm))
    # every ledgered count-table cell must actually be exercised by a mismatch
    predicted_unused = {(*cell, dev_id) for cell, (_, dev_id) in expected.items()
                        if cell not in seen_cells}
    ok = report(8, "count tables match except ledgered cells",
                not unexplained and not predicted_unused,
                f"ledgered cells exercised: {len(seen_cells)}")
    assert not unexplained, unexplained[:5]
    assert not predicted_unused, predicted_unused
    assert ok
