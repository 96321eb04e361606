"""Hypothesis properties of the pattern document, the verifier and the
CLI's exit codes."""

import json
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from griddom import (GridDims, construct, document_to_pattern, dumps_document,
                     gamma_formula, pattern_to_document, verify, verify_pattern)
from griddom.cli import main
from griddom.construction import PatternSet
from griddom.render import DocumentError

dims_16_60 = st.builds(GridDims, st.integers(16, 60), st.integers(16, 60))


def _same_pattern(q, p):
    assert q.dims == p.dims
    assert np.array_equal(q.black_rc, p.black_rc)
    assert np.array_equal(q.white_rc, p.white_rc)
    assert q.deviations == p.deviations


@given(dims_16_60)
@settings(max_examples=60, deadline=None)
def test_document_round_trip_preserves_members_and_orientation(dims):
    p = construct(dims)
    doc = pattern_to_document(p)
    text = dumps_document(doc)
    assert json.loads(text)["schema_version"] == 2
    _same_pattern(document_to_pattern(json.loads(text)), p)
    # schema 1, as pattern_to_document and earlier versions write it
    _same_pattern(document_to_pattern(json.loads(json.dumps(doc))), p)
    # the writer is idempotent on its own output
    assert dumps_document(json.loads(text)) == text


def _members_of_runs(runs):
    return sorted([r, c + 5 * i] for r, c, count in runs for i in range(count))


@given(dims_16_60, st.data())
@settings(max_examples=60, deadline=None)
def test_non_canonical_runs_parse_to_the_same_pattern(dims, data):
    """Runs split anywhere (down to count-1 runs) and listed in any order
    parse to the pattern the canonical runs give."""
    p = construct(dims)
    doc = json.loads(dumps_document(pattern_to_document(p)))
    for key in ("black", "white"):
        pieces = []
        for r, c, count in doc[key]:
            while count:
                take = data.draw(st.integers(1, count))
                pieces.append([r, c, take])
                c, count = c + 5 * take, count - take
        doc[key] = data.draw(st.permutations(pieces))
    _same_pattern(document_to_pattern(doc), p)


def _recount(m, n, black, white):
    """Domination counts from scratch: closed-neighbourhood member counts
    of all members and of the black members alone."""
    def closed(rc):
        pad = np.zeros((m + 2, n + 2), dtype=np.int64)
        for r, c in rc:
            pad[r, c] += 1
        return (pad[1:-1, 1:-1] + pad[:-2, 1:-1] + pad[2:, 1:-1]
                + pad[1:-1, :-2] + pad[1:-1, 2:]), pad[1:-1, 1:-1]
    every, member = closed(black + white)
    only_black, _ = closed(black)
    sub = np.zeros((m, n), dtype=bool)
    sub[1:-1, 1:-1] = True
    near_corners = sub.copy()
    sub[[1, 1, -2, -2], [1, -2, 1, -2]] = False
    unique_bad = (sub & (only_black != 1)) | (near_corners & (only_black > 1))
    return {
        "size": int(member.sum()),
        "undominated": int((every == 0).sum()),
        "over": int(((member == 0) & (every > 2)).sum()),
        "unique_bad": int(unique_bad.sum()),
        "max_closed": int(every.max()),
    }


@given(st.builds(GridDims, st.integers(16, 30), st.integers(16, 30)), st.data())
@settings(max_examples=60, deadline=None)
def test_verify_pattern_agrees_with_a_recount(dims, data):
    m, n = dims.m, dims.n
    p = construct(dims)
    black, white = list(p.black), list(p.white)
    for group in (black, white):
        for _ in range(data.draw(st.integers(0, 3))):
            group.pop(data.draw(st.integers(0, len(group) - 1)))
    cells = st.tuples(st.integers(1, m), st.integers(1, n))
    for cell in data.draw(st.lists(cells, max_size=4)):
        if cell not in black and cell not in white:
            (black if data.draw(st.booleans()) else white).append(cell)
    q = PatternSet(dims, black, white)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "COUNTEREXAMPLE_CAP", m * n)
        v = verify_pattern(q)
    want = _recount(m, n, black, white)
    assert v.cardinality == want["size"] == q.cardinality
    assert v.check("dominating").passed == (want["undominated"] == 0)
    assert len(v.check("dominating").counterexamples) == want["undominated"]
    one_two = v.check("one_two")
    assert one_two.passed == (want["undominated"] == want["over"] == 0)
    assert len(one_two.counterexamples) == want["undominated"] + want["over"]
    assert list(one_two.counterexamples) == sorted(one_two.counterexamples)
    assert v.check("cardinality").passed == (want["size"] == gamma_formula(dims))
    assert v.check("interior_unique").passed == (want["unique_bad"] == 0)
    assert len(v.check("interior_unique").counterexamples) == want["unique_bad"]
    assert v.total_coverage_within_two == (want["max_closed"] <= 2)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from([2**31, 2**63, -2**63 - 1, 2**64]) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=8,
)
BASE_PATTERN = construct(GridDims(16, 17))
BASE = pattern_to_document(BASE_PATTERN)
SLOTS = [("m",), ("n",), ("black",), ("white",), ("black", 0), ("white", 0),
         ("black", 0, 1), ("deviations",), ("deviations", 0)]


# values a lax parser would coerce into a valid-looking document
near_valid = st.integers(-1, 20) | st.floats(0, 20) | st.booleans()


@given(st.sampled_from(SLOTS), near_valid | json_values)
@settings(max_examples=300, deadline=None)
def test_parser_raises_only_document_error(slot, value):
    doc = json.loads(json.dumps(BASE))
    *parents, last = slot
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value
    try:
        q = document_to_pattern(doc)
    except DocumentError:
        assert slot[0] != "deviations"      # written for readers, never read
        return
    # a document is accepted only when every value read is an exact int, and
    # its provenance is the grid's whatever "deviations" holds
    values = [doc["m"], doc["n"], *chain.from_iterable(doc["black"] + doc["white"])]
    assert all(type(v) is int for v in values)
    if slot[0] == "deviations":
        assert q.deviations == BASE_PATTERN.deviations
    assert (q.dims.m, q.dims.n) == (doc["m"], doc["n"])
    assert q.black_rc.tolist() == sorted(doc["black"])
    assert q.white_rc.tolist() == sorted(doc["white"])


BASE_RUNS = json.loads(dumps_document(BASE))
RUN_SLOTS = [("schema_version",), ("m",), ("n",), ("black",), ("white",),
             ("black", 0), ("white", 0), ("black", 0, 0), ("black", 0, 1),
             ("black", 0, 2), ("white", 0, 1), ("white", 0, 2), ("deviations",)]


@given(st.sampled_from(RUN_SLOTS), near_valid | json_values)
@settings(max_examples=300, deadline=None)
def test_run_parser_raises_only_document_error(slot, value):
    doc = json.loads(json.dumps(BASE_RUNS))
    *parents, last = slot
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value
    try:
        q = document_to_pattern(doc)
    except DocumentError:
        return
    runs = doc["black"] + doc["white"]
    values = [doc["m"], doc["n"], *chain.from_iterable(runs)]
    assert all(type(v) is int for v in values)
    assert all(count >= 1 and 1 <= r <= doc["m"] and 1 <= c and c + 5 * (count - 1) <= doc["n"]
               for r, c, count in runs)
    assert (q.dims.m, q.dims.n) == (doc["m"], doc["n"])
    assert q.black_rc.tolist() == _members_of_runs(doc["black"])
    assert q.white_rc.tolist() == _members_of_runs(doc["white"])


_run = st.tuples(st.integers(-1, 18), st.integers(-1, 19), st.integers(-1, 5)).map(list)


@given(st.lists(_run, max_size=6), st.lists(_run, max_size=3))
@settings(max_examples=300, deadline=None)
def test_runs_are_accepted_only_on_the_grid_and_disjoint(black, white):
    """Runs past an edge, empty runs and runs that overlap (in one colour or
    across the two) raise DocumentError; any other set of runs parses."""
    m, n = 16, 17
    doc = {"schema_version": 2, "m": m, "n": n, "black": black, "white": white}
    on_grid = all(count >= 1 and 1 <= r <= m and c >= 1 and c + 5 * (count - 1) <= n
                  for r, c, count in black + white)
    cells = _members_of_runs(black + white) if on_grid else []
    valid = on_grid and all(a != b for a, b in zip(cells, cells[1:]))
    try:
        q = document_to_pattern(doc)
    except DocumentError:
        assert not valid
        return
    assert valid
    assert q.black_rc.tolist() == _members_of_runs(black)
    assert q.white_rc.tolist() == _members_of_runs(white)


def test_dumps_document_parses_its_input_strictly():
    doc = json.loads(json.dumps(BASE))
    doc["black"][0] = [1.5, doc["black"][0][1]]
    with pytest.raises(DocumentError, match="integers"):
        dumps_document(doc)
    with pytest.raises(DocumentError, match="unsupported schema_version"):
        dumps_document(dict(BASE_RUNS, schema_version=3))


# Sides stay small, so no drawn argument vector can ask for a large build.
_side = st.integers(-3, 45).map(str)
_range = st.builds("{}:{}".format, st.integers(12, 30), st.integers(12, 30))
_junk = st.sampled_from(["", "x", "1.5", "1e3", "0x10", "-", ":", "16:", "json",
                         "svg", "--rulers", "--m", "--n", "--input"])
_flag = st.sampled_from(["--m", "--n", "--m-range", "--n-range", "--format", "--input"])
_argv = st.lists(st.one_of(st.tuples(_flag, st.one_of(_side, _range, _junk)),
                           st.tuples(_junk)), max_size=5).map(
    lambda parts: [token for part in parts for token in part])


@given(st.sampled_from(["construct", "verify", "gamma", "sweep"]), _argv)
@settings(max_examples=150, deadline=None)
def test_cli_exit_codes_fuzz(tmp_path_factory, command, argv):
    """Any argument vector exits 0 or 2 and never raises: the build passes
    every check, so verification never fails (exit 1)."""
    if command == "sweep":
        argv = argv + ["--out", str(tmp_path_factory.getbasetemp() / "fuzz.csv")]
    assert main([command] + argv) in (0, 2)


@given(st.sampled_from(["construct", "verify", "gamma"]),
       st.integers(-3, 45), st.integers(-3, 45))
@settings(max_examples=60, deadline=None)
def test_cli_exit_code_follows_the_dims(command, m, n):
    expected = 0 if min(m, n) >= 16 else 2
    assert main([command, "--m", str(m), "--n", str(n)]) == expected


@given(st.integers(12, 30), st.integers(12, 30), st.integers(12, 30), st.integers(12, 30))
@settings(max_examples=40, deadline=None)
def test_cli_sweep_exit_code_follows_the_ranges(tmp_path_factory, a, b, c, d):
    out = tmp_path_factory.getbasetemp() / "sweep.csv"
    expected = 0 if a <= b and c <= d and min(a, c) >= 16 else 2
    assert main(["sweep", "--m-range", f"{a}:{b}", "--n-range", f"{c}:{d}",
                 "--out", str(out)]) == expected
