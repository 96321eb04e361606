import os
import subprocess
import sys
import textwrap
import tracemalloc
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import griddom
from griddom import (GridDims, Vertex, construct, coverage_map, gamma_formula,
                     pattern_class, verify_pattern)
from griddom.construction import (FIRST_ROW, FRAME_KEYS, MAX_SIDE, SIDES,
                                  PatternSet, _entry, build)
from griddom.deviations import BY_ID, class_edit

CLASSES = [(rn, rm) for rn in range(5) for rm in range(5)]

REFERENCE_SIZES = {
    (16, 16): 60,
    (24, 20): 110,
    (24, 21): 115,
    (24, 22): 120,
    (24, 23): 126,
    (24, 24): 131,
}


def test_gamma_formula_values():
    assert gamma_formula(GridDims(16, 16)) == 60
    assert gamma_formula(GridDims(24, 24)) == 131
    assert gamma_formula(GridDims(24, 22)) == 120
    assert gamma_formula(GridDims(20, 20)) == 92
    for bad in (GridDims(15, 20), GridDims(20, 15), GridDims(4, 4)):
        with pytest.raises(ValueError):
            gamma_formula(bad)


def test_black_disks_16x16_first_rows():
    disks = set(construct(GridDims(16, 16)).black)
    assert {v for v in disks if v.row == 1} == {(1, 6), (1, 11)}
    assert {v for v in disks if v.row == 2} == {(2, 4), (2, 9), (2, 14)}


def test_black_disks_20x20_block_counts():
    # per 5-row block: 18 / 20 / 20 / 18, the paper's printed counts; the
    # lattice alone holds 19 / 20 / 20 / 19, and DEV-FIX-00 drops the disks
    # (2, 20) and (19, 1)
    disks = construct(GridDims(20, 20)).black
    per_block = [0] * 4
    for r, _ in disks:
        per_block[(r - 1) // 5] += 1
    assert per_block == [18, 20, 20, 18]
    assert len(disks) == 76
    assert (2, 20) not in disks and (19, 1) not in disks


def test_black_disks_row_major_and_bounds():
    dims = GridDims(31, 17)
    disks = construct(dims).black
    assert list(disks) == sorted(disks)
    assert all(1 <= r <= dims.m and 1 <= c <= dims.n for r, c in disks)


def on_row(rc, r):
    """The members of a row-major (k, 2) array that lie on row r."""
    return [tuple(v) for v in rc[rc[:, 0] == r].tolist()]


def on_col(rc, c):
    """The members of a row-major (k, 2) array that lie on column c."""
    return [tuple(v) for v in rc[rc[:, 1] == c].tolist()]


def test_white_squares_first_row_examples():
    assert on_row(construct(GridDims(16, 16)).white_rc, 1) == [(1, 2), (1, 8), (1, 14)]
    assert on_row(construct(GridDims(16, 18)).white_rc, 1) == [(1, 5), (1, 10), (1, 16)]
    # n = 20: the length-S-1 run {9, 14, 19} plus the fixed extra at 3
    assert on_row(construct(GridDims(20, 20)).white_rc, 1) == [
        (1, 3), (1, 9), (1, 14), (1, 19)]


def test_white_squares_sides_examples():
    assert on_col(construct(GridDims(16, 16)).white_rc, 1) == [(3, 1), (9, 1), (15, 1)]
    w = construct(GridDims(20, 20)).white_rc
    assert on_row(w, 20) == [(20, 2), (20, 7), (20, 12), (20, 18)]
    # class (0,0): the first-column extra sits at row m-2 (DEV-FIX-00)
    assert on_col(w, 1) == [(2, 1), (7, 1), (12, 1), (18, 1)]
    # class (1,4): the last-column extra sits at row m-1 (DEV-FIX-14)
    assert on_col(construct(GridDims(24, 21)).white_rc, 21) == [
        (2, 21), (8, 21), (13, 21), (18, 21), (23, 21)]


def test_white_squares_on_boundary():
    for m in range(16, 41):
        for n in range(16, 41):
            w = construct(GridDims(m, n)).white_rc
            on_frame = (w[:, 0] == 1) | (w[:, 0] == m) | (w[:, 1] == 1) | (w[:, 1] == n)
            assert on_frame.all(), (m, n)


@pytest.mark.parametrize("mn,size", sorted(REFERENCE_SIZES.items()))
def test_construct_reference_sizes(mn, size):
    dims = GridDims(*mn)
    p = construct(dims)
    assert p.cardinality == size == gamma_formula(dims)


def test_construct_determinism_and_order():
    a = construct(GridDims(24, 23))
    b = construct(GridDims(24, 23))
    assert a.black == b.black and a.white == b.white
    assert list(a.black) == sorted(a.black)
    assert list(a.white) == sorted(a.white)


def test_construct_rejects_small_grids():
    with pytest.raises(ValueError, match="oracle"):
        construct(GridDims(15, 20))
    with pytest.raises(ValueError):
        construct(GridDims(20, 15))


def test_numpy_sides_build_the_int_grid():
    # int16 sides used to wrap round inside the builder (1602 members at
    # 200x200, where 8156 is optimal), and int32 ones inside the closed form
    want = construct(GridDims(200, 200))
    got = construct(GridDims(np.int16(200), np.int16(200)))
    assert (type(got.dims.m), type(got.dims.n)) == (int, int)
    assert np.array_equal(got.black_rc, want.black_rc)
    assert np.array_equal(got.white_rc, want.white_rc)
    assert verify_pattern(got).ok and got.cardinality == 8156
    assert gamma_formula(GridDims(np.int32(50000), np.int32(50000))) == 500039996


def test_construct_black_white_disjoint():
    for dims in (GridDims(16, 16), GridDims(24, 20), GridDims(33, 47)):
        p = construct(dims)
        assert not set(p.black) & set(p.white)


def test_construct_composes_the_operations():
    # a class that no correction names, like (2,2), is the paper's baseline
    assert class_edit((2, 2)) == (("DEV-DM-RANGE", "DEV-DL-OFFSET"), {})
    # remove: two disks of one row, a coordinate e <= 0 read as side + e
    d = GridDims(20, 20)
    base = [tuple(v) for v in build(d, {})[0].tolist()]
    black = [tuple(v) for v in build(d, {"remove": ((2, 0), (2, -5))})[0].tolist()]
    assert black == [v for v in base if v not in {(2, 20), (2, 15)}]
    assert len(black) == len(base) - 2
    with pytest.raises(ValueError, match=r"\(2, 1\), which holds no disk"):
        build(d, {"remove": ((2, 1),)})


def test_table_entries_read_as_step_5_ranges():
    # every spec of the paper's tables and of the ledger's frame edits is
    # A_k^(i, B+dj) = [5i+k, ..., 5(B+dj)+k], empty when i > B+dj, plus its
    # extras, an extra e <= 0 standing for side + e
    specs = [*FIRST_ROW.values(), *chain.from_iterable(SIDES.values()),
             *(edit[key] for edit in (class_edit(cls)[1] for cls in CLASSES)
               for key in FRAME_KEYS if key in edit)]
    assert all(0 <= k <= 4 for k, _, _, _ in specs)
    for k, i, dj, extras in specs:
        for blocks in range(3, 41):
            for side in range(5 * blocks, 5 * blocks + 5):
                want = [5 * t + k for t in range(i, blocks + dj + 1)]
                want += [side + e if e <= 0 else e for e in extras]
                assert _entry((k, i, dj, extras), blocks, side) == want


def test_construct_refuses_sides_over_max_side_before_building():
    # with a side of 2**31 - 2 the lattice alone would need a ~17 GB row list
    # (tall) or a ~51 GiB coordinate array (wide). A child process runs both
    # under a 1.5 GB address-space cap, so a build that starts anyway shows
    # up as a MemoryError there rather than in this process.
    big = MAX_SIDE + 1
    code = textwrap.dedent(f"""
        import resource
        resource.setrlimit(resource.RLIMIT_AS,
                           (1_500_000_000, resource.getrlimit(resource.RLIMIT_AS)[1]))
        from griddom import GridDims, construct
        for dims in (GridDims({big}, 16), GridDims(16, {big})):
            try:
                construct(dims)
            except (ValueError, MemoryError) as exc:
                print(type(exc).__name__, exc)
    """)
    src = str(Path(griddom.__file__).parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60)
    assert out.stdout.splitlines() == [
        f"ValueError grid sides above {MAX_SIDE} are not supported; got {big}x16",
        f"ValueError grid sides above {MAX_SIDE} are not supported; got 16x{big}",
    ], out.stderr


def test_every_class_builds_direct():
    # every grid is build(dims, edit) on (m, n) itself for its class's ledger
    # edit, and lists the ids of the records that state it
    for m in range(16, 41):
        for n in range(16, 41):
            dims = GridDims(m, n)
            p = construct(dims)
            ids, edit = class_edit(pattern_class(dims))
            black, white = build(dims, edit)
            assert white.dtype == np.int32 and white.shape == (len(white), 2)
            assert np.array_equal(p.black_rc, black), (m, n)
            assert p.white_rc.tolist() == sorted(white.tolist()), (m, n)
            assert p.deviations == ids, (m, n)


def test_baseline_disks_follow_the_diagonal_offset():
    # row p's disks lie in the columns congruent to a1 + 3(p-1) mod 5, where
    # a1 = n mod 5, or 2 when 5 divides n
    for m in range(16, 21):
        for n in range(16, 21):
            black = build(GridDims(m, n), {})[0]
            a1 = n % 5 if n % 5 else 2
            assert ((black[:, 1] - a1 - 3 * (black[:, 0] - 1)) % 5 == 0).all(), (m, n)


def test_construct_memory_tracks_output_not_area():
    # twice the side means ~4x the members; peak allocation should scale with
    # members (x4), not explode; also pin a per-member byte ceiling
    peaks = {}
    for side in (250, 500):
        tracemalloc.start()
        p = construct(GridDims(side, side))
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        peaks[side] = (peak, p.cardinality)
    small, large = peaks[250], peaks[500]
    assert large[0] / small[0] < 6
    for peak, members in peaks.values():
        assert peak / members < 512


@given(st.builds(GridDims, st.integers(16, 80), st.integers(16, 80)))
@settings(max_examples=60, deadline=None)
def test_construct_envelope(dims):
    """Constructed patterns always dominate, respect the [1,2] bound, cover
    the sub-grid uniquely and have the optimal cardinality."""
    p = construct(dims)
    v = verify_pattern(p)
    assert v.check("dominating").passed
    assert v.check("one_two").passed
    assert v.check("interior_unique").passed
    assert v.check("cardinality").passed
    assert v.total_coverage_within_two


def test_class_maps_are_consistent():
    assert {cls for cls in CLASSES if "last_row_from" in class_edit(cls)[1]} == {
        (1, 3), (2, 1), (3, 4)}
    assert {cls for cls in CLASSES if "offset" in class_edit(cls)[1]} == {(3, 3), (4, 2)}
    # build reads only these keys, and no two records of a class set the
    # same one, so merging a class's records loses nothing
    known = {"offset", "last_row_from", "remove", *FRAME_KEYS}
    for cls in CLASSES:
        ids, edit = class_edit(cls)
        keys = [k for i in ids for k in BY_ID[i].edit]
        assert len(keys) == len(set(keys)) == len(edit), cls
        assert set(keys) <= known, cls


def test_edge_row_disk_column_ranges():
    # first-row disks never touch the outer two columns; last-row disks start
    # at column 3 except for the three classes whose repair starts them at 2
    for m in range(16, 36):
        for n in range(16, 36):
            dims = GridDims(m, n)
            p = construct(dims)
            first = [c for _, c in on_row(p.black_rc, 1)]
            last = [c for _, c in on_row(p.black_rc, m)]
            assert all(3 <= c <= n - 2 for c in first), (m, n)
            lo = class_edit(pattern_class(dims))[1].get("last_row_from", 3)
            assert all(lo <= c <= n - 2 for c in last), (m, n)
            if lo == 2:
                assert 2 in last, (m, n)


def test_pattern_arrays_are_row_major_int32_and_read_only():
    for dims in (GridDims(16, 16), GridDims(24, 20)):   # classes (1,1) and (0,4)
        p = construct(dims)
        for rc, view in ((p.black_rc, p.black), (p.white_rc, p.white)):
            assert rc.dtype == np.int32 and rc.shape == (len(view), 2)
            assert rc.flags.c_contiguous and not rc.flags.writeable
            keys = rc[:, 0].astype(np.int64) * (dims.n + 2) + rc[:, 1]
            assert (np.diff(keys) > 0).all()
            assert [list(v) for v in view] == rc.tolist()


def test_pattern_set_enforces_its_invariants():
    d = GridDims(16, 16)
    p = construct(d)
    # any (k, 2) array-like is accepted and sorted
    q = PatternSet(d, list(reversed(p.black)), set(p.white))
    assert q.black == p.black and q.white == p.white
    with pytest.raises(ValueError, match=r"duplicate black member \(1, 6\)"):
        PatternSet(d, p.black + (p.black[0],), p.white)
    with pytest.raises(ValueError, match="overlap"):
        PatternSet(d, p.black, p.white + (p.black[3],))
    with pytest.raises(ValueError, match=r"member \(17, 1\) out of bounds"):
        PatternSet(d, p.black + (Vertex(17, 1),), p.white)
    with pytest.raises(ValueError, match="integer pairs"):
        PatternSet(d, np.array([[1.0, 2.0]]), ())
    with pytest.raises(ValueError, match="integer pairs"):
        PatternSet(d, [(1, 2, 3)], ())
    assert PatternSet(d, (), ()).cardinality == 0


def test_pair_lists_refuse_bool_coordinates():
    # numpy reads True beside ints as 1, which stored the member (1, 2)
    d = GridDims(16, 16)
    with pytest.raises(ValueError, match=r"member \(True, 2\) has a bool coordinate"):
        PatternSet(d, [(True, 2)], [])
    with pytest.raises(ValueError, match="bool coordinate"):
        PatternSet(d, [], [(3, np.True_)])
    with pytest.raises(ValueError, match="bool coordinate"):
        coverage_map(d, [(1, True)])
    with pytest.raises(ValueError, match="bool coordinate"):
        PatternSet(d, [(1, 2), Vertex(3, 4), [5, False]], [])
    # items that are not pairs are still refused, for their shape or as ragged
    for bad in ([1, 2], [(1, 2, 3)], [(1, 2), (3,)], [(1, 2), 3]):
        with pytest.raises(ValueError):
            coverage_map(d, bad)
    assert PatternSet(d, [(1, 2), Vertex(3, 4), np.array([5, 6])], []).cardinality == 3


def test_pattern_set_compares_by_identity():
    a, b = construct(GridDims(20, 21)), construct(GridDims(20, 21))
    assert a == a and a != b
    assert np.array_equal(a.black_rc, b.black_rc)
