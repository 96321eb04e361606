"""Grid geometry: dimensions, coordinates, and the neighbourhoods, frame
and sub-grid the verifier counts with (its coverage counts are the one place
the program computes them)."""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from griddom import GridDims, Vertex, coverage_map, verify, verify_pattern
from griddom.construction import PatternSet

D16 = GridDims(16, 16)


def _cells(dims):
    return {Vertex(r, c) for r, c in product(range(1, dims.m + 1), range(1, dims.n + 1))}


def _counts(dims, members):
    """The verifier's closed-neighbourhood member counts of every vertex,
    and its open ones: the closed count less the vertex's own membership."""
    ind = verify._indicator(dims, members)
    closed = verify._closed_counts(ind)
    return closed, closed - ind[1:-1, 1:-1]


def _neighbors(v, dims):
    """The vertices the verifier counts v as adjacent to."""
    _, counts = _counts(dims, [v])
    return {Vertex(int(r) + 1, int(c) + 1) for r, c in zip(*counts.nonzero())}


def _frame(dims):
    return {v for v in _cells(dims) if v.row in (1, dims.m) or v.col in (1, dims.n)}


def _subgrid(dims):
    """Vertices the interior_unique check requires to be covered exactly
    once: with no disks, each of them is reported."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "COUNTEREXAMPLE_CAP", dims.m * dims.n)
        res = verify_pattern(PatternSet(dims, (), ())).check("interior_unique")
    return {v for v, _ in res.counterexamples}


def test_dims_validation():
    with pytest.raises(ValueError):
        GridDims(0, 5)
    with pytest.raises(ValueError):
        GridDims(5, -1)


@pytest.mark.parametrize("m, n, side", [
    (True, 3, "m"), (16.5, 16, "m"), (20.0, 20, "m"), ("16", 16, "m"),
    (16, np.float64(16), "n"), (16, np.True_, "n"),
], ids=["bool", "float", "integral-float", "str", "numpy-float", "numpy-bool"])
def test_dims_refuse_sides_that_are_not_integers(m, n, side):
    # bool used to pass as 1 (exact_gamma_dp solved GridDims(True, 3) as
    # 1x3) and floats as themselves (gamma_formula of 20.0 x 20 was 92.0)
    with pytest.raises(ValueError, match=f"^{side} must be an integer, got "):
        GridDims(m, n)


def test_neighbors_corner_edge_interior():
    assert _neighbors((1, 1), D16) == {(1, 2), (2, 1)}
    assert _neighbors((8, 8), D16) == {(7, 8), (9, 8), (8, 7), (8, 9)}
    assert _neighbors((1, 5), D16) == {(1, 4), (1, 6), (2, 5)}


def test_neighbors_out_of_bounds():
    with pytest.raises(ValueError, match=r"\(0, 3\)"):
        coverage_map(D16, [(0, 3)])
    with pytest.raises(ValueError, match=r"\(17, 1\)"):
        verify_pattern(PatternSet(D16, [(17, 1)], ()))


def test_closed_neighborhood():
    def covered(v):
        closed, _ = _counts(D16, [v])
        return {Vertex(int(r) + 1, int(c) + 1) for r, c in zip(*closed.nonzero())}
    assert covered((1, 1)) == {(1, 1), (1, 2), (2, 1)}
    assert len(covered((8, 8))) == 5
    assert covered((16, 8)) == {(16, 8), (16, 7), (16, 9), (15, 8)}


def test_boundary_16x16_matches_degree_count():
    _, counts = _counts(D16, _cells(D16))     # every vertex's degree
    low = {Vertex(int(r) + 1, int(c) + 1) for r, c in zip(*(counts < 4).nonzero())}
    assert len(low) == 2 * 16 + 2 * 16 - 4 == 60
    assert low == _frame(D16)


def test_boundary_degenerate_grids():
    for dims in (GridDims(2, 2), GridDims(1, 5)):
        assert (_counts(dims, _cells(dims))[1] < 4).all()
        assert _frame(dims) == _cells(dims)


def test_subgrid_16x16():
    s = _subgrid(D16)
    assert len(s) == 14 * 14 - 4 == 192
    assert (2, 2) not in s
    assert (2, 3) in s
    # enumeration oracle
    expected = {
        v for v in _cells(D16)
        if 2 <= v.row <= 15 and 2 <= v.col <= 15
        and v not in {(2, 2), (2, 15), (15, 2), (15, 15)}
    }
    assert s == expected


def test_subgrid_small_grids():
    # 4x4: the interior is the four near-corner cells, so the sub-grid is empty
    assert _subgrid(GridDims(4, 4)) == set()
    assert _subgrid(GridDims(3, 5)) == {(2, 3)}


dims_strategy = st.builds(GridDims, st.integers(2, 24), st.integers(2, 24))


@given(dims_strategy, st.data())
@settings(max_examples=60, deadline=None)
def test_neighbor_symmetry_and_degree(dims, data):
    v = Vertex(data.draw(st.integers(1, dims.m)), data.draw(st.integers(1, dims.n)))
    nb = _neighbors(v, dims)
    assert v not in nb
    assert 2 <= len(nb) <= 4
    assert (len(nb) == 4) == (v not in _frame(dims))
    for u in nb:
        assert v in _neighbors(u, dims)


@given(st.builds(GridDims, st.integers(4, 24), st.integers(4, 24)))
@settings(max_examples=40, deadline=None)
def test_subgrid_disjoint_from_boundary(dims):
    assert not _subgrid(dims) & _frame(dims)
