import dataclasses
import errno
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import griddom
from griddom import (GridDims, OracleResult, construct, count_cross_check,
                     document_to_pattern, dumps_document, exact_gamma_dp,
                     pattern_to_document, render_ascii, render_svg)
from griddom import cli, oracle
from griddom.cli import main
from griddom.construction import MAX_SIDE, PatternSet
from griddom.render import DocumentError, _centres, document_dims, dumps_pattern


def test_ascii_render_16x16():
    p = construct(GridDims(16, 16))
    art = render_ascii(p)
    assert len(art.lines) == 16
    assert all(len(line) == 16 for line in art.lines)
    joined = "".join(art.lines)
    assert joined.count("B") == len(p.black) == 48
    assert joined.count("W") == len(p.white) == 12
    assert joined.count(".") == 16 * 16 - 60


def test_ascii_rulers():
    p = construct(GridDims(16, 16))
    art = render_ascii(p, rulers=True)
    assert len(art.lines) == 17
    assert art.lines[1].startswith(" 1 ")


def test_svg_well_formed():
    p = construct(GridDims(16, 17))
    svg = render_svg(p)
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    circles = [e for e in root.iter() if e.tag.endswith("circle")]
    rects = [e for e in root.iter() if e.tag.endswith("rect")]
    assert len(circles) == len(p.black)
    assert len(rects) == len(p.white) + 1      # background rect


SVG = "{http://www.w3.org/2000/svg}"


@pytest.mark.parametrize("mn", [(16, 16), (21, 25), (16, 700), (700, 16)])
def test_svg_geometry_maps_back_to_the_members(mn):
    """Read as exact decimals, every circle centre is the pixel centre of
    exactly one black member and every square corner sits 4.48 px up and
    left of exactly one white member's centre (cell 16). Sides of 700 put
    whites past column and row 625, whose corners need 7 digits."""
    p = construct(GridDims(*mn))
    root = ET.fromstring(render_svg(p))

    def cell_of(x, y, shift):
        row, col = ((Fraction(v) + shift) / 16 + Fraction(1, 2) for v in (y, x))
        assert row.denominator == col.denominator == 1, (x, y)
        return int(row), int(col)

    circles = [cell_of(e.get("cx"), e.get("cy"), 0) for e in root.iter(SVG + "circle")]
    squares = [cell_of(e.get("x"), e.get("y"), Fraction("4.48"))
               for e in root.iter(SVG + "rect") if "x" in e.attrib]
    assert sorted(circles) == [tuple(v) for v in p.black_rc.tolist()]
    assert sorted(squares) == [tuple(v) for v in p.white_rc.tolist()]
    assert {Fraction(e.get("r")) for e in root.iter(SVG + "circle")} == {Fraction("5.12")}
    assert {Fraction(e.get(k)) for e in root.iter(SVG + "rect") if "x" in e.attrib
            for k in ("width", "height")} == {Fraction("8.96")}


def test_svg_peak_memory_tracks_its_text():
    """The SVG is joined from shared per-column and per-row pieces, so its
    transient is a list of references next to the text, not a string per
    member (that took about 4x the text)."""
    p = construct(GridDims(1500, 600))
    tracemalloc.start()
    try:
        svg = render_svg(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * len(svg)


def test_svg_coordinates_are_exact_past_a_million_pixels():
    """Index 62501 is the first centre at or above 10**6 px (cell 16)."""
    for shift, text in ((0, "1000008"), (448, "1000003.52")):
        assert _centres(62501, 16, shift)[-1] == text
        assert Fraction(text) == (62501 - Fraction(1, 2)) * 16 - Fraction(shift, 100)


def test_document_round_trip():
    p = construct(GridDims(24, 23))
    doc = pattern_to_document(p)
    text = dumps_document(doc)
    assert text.endswith("\n")
    parsed = json.loads(text)
    q = document_to_pattern(parsed)
    assert q.dims == p.dims
    assert q.black == tuple(sorted(p.black))
    assert q.white == tuple(sorted(p.white))
    assert q.deviations == p.deviations
    assert dumps_document(pattern_to_document(q)) == text


def test_document_round_trip_keeps_orientation():
    p = construct(GridDims(21, 25))          # class (0, 1), ledgered by DEV-FIX-01
    q = document_to_pattern(json.loads(dumps_document(pattern_to_document(p))))
    assert np.array_equal(q.black_rc, p.black_rc)
    assert np.array_equal(q.white_rc, p.white_rc)
    assert q.deviations == p.deviations and "DEV-FIX-01" in q.deviations
    assert count_cross_check(p).unexplained == ()
    assert count_cross_check(q).unexplained == ()


# classes (0,1), (0,1) and (1,0); documents written before every class was
# built direct carry a "transposed" key, which is ignored like any other
@pytest.mark.parametrize("mn", [(21, 25), (16, 20), (20, 21)], ids=["21x25", "16x20", "20x21"])
@pytest.mark.parametrize("provenance", [
    {}, {"transposed": True, "deviations": []},
    {"transposed": False, "deviations": ["DEV-X"]}, {"transposed": None, "deviations": 5},
], ids=["removed", "true", "false", "malformed"])
def test_document_provenance_comes_from_the_grid(mn, provenance):
    # deviations are written for readers; the parsed pattern takes its
    # provenance from m and n, whatever the text says
    p = construct(GridDims(*mn))
    doc = json.loads(dumps_pattern(p))
    del doc["deviations"]
    q = document_to_pattern(dict(doc, **provenance))
    assert q.deviations == p.deviations
    assert count_cross_check(q).unexplained == ()


def test_document_rejects_garbage():
    with pytest.raises(DocumentError):
        document_to_pattern({"schema_version": 99, "m": 16, "n": 16,
                             "black": [], "white": []})
    with pytest.raises(DocumentError):
        document_to_pattern({"schema_version": 1, "m": 16, "n": 16,
                             "black": [[0, 1]], "white": []})
    with pytest.raises(DocumentError):
        document_to_pattern({"schema_version": 1, "m": 16, "n": 16,
                             "black": [[1, 1]], "white": [[1, 1]]})
    with pytest.raises(DocumentError):
        document_to_pattern({"schema_version": 1, "m": 16})


def test_cli_construct_json(capsys):
    assert main(["construct", "--m", "16", "--n", "16", "--format", "json"]) == 0
    text = capsys.readouterr().out
    doc = json.loads(text)
    assert doc["gamma"] == 60
    assert sum(count for _, _, count in doc["black"] + doc["white"]) == 60
    assert doc["schema_version"] == 2
    assert "DEV-FIX-11" in doc["deviations"]
    assert text == dumps_document(pattern_to_document(construct(GridDims(16, 16))))


def test_cli_construct_ascii_24(capsys):
    assert main(["construct", "--m", "24", "--n", "24", "--format", "ascii"]) == 0
    out = capsys.readouterr().out
    lines = out.strip("\n").split("\n")
    assert len(lines) == 24
    assert sum(1 for ch in "".join(lines) if ch != ".") == 131


def test_cli_construct_rejects_small(capsys):
    assert main(["construct", "--m", "15", "--n", "20"]) == 2
    err = capsys.readouterr().err
    assert "16" in err


def test_cli_gamma(capsys):
    assert main(["gamma", "--m", "24", "--n", "24"]) == 0
    assert capsys.readouterr().out.strip() == "131"


def test_cli_oracle_brute(capsys):
    assert main(["oracle", "--m", "2", "--n", "2", "--method", "brute"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == 2
    assert payload["method"] == "brute-force"


def test_cli_oracle_dp_reports_states(capsys):
    assert main(["oracle", "--m", "4", "--n", "5"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    payload = json.loads(captured.out)
    assert payload["value"] == 6 and len(payload["witness"]) == 6
    assert 0 < payload["states"] <= 3 ** 4
    # for each of the 72 states with more than one predecessor, one byte per
    # three columns (a k is one of 5, and 5**3 <= 256): 72 * ceil(5 / 3)
    assert payload["backpointer_bytes"] == 72 * 2
    assert 0 < payload["backpointer_bytes"] < payload["work"]
    assert len(payload["row_states"]) == 4
    assert max(payload["row_states"]) == payload["states"]
    # the DP always keeps its witness, so the payload has no drop flag
    assert isinstance(payload["witness"], list)
    assert set(payload) == {"dims", "variant", "value", "witness", "method",
                            "work", "states", "backpointer_bytes", "row_states"}


def test_cli_oracle_capacity(capsys):
    # no default width cap: frontier width 13 is solved with no flag
    assert main(["oracle", "--m", "13", "--n", "14"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == len(payload["witness"]) == 44
    # a grid over the DP's work cap exits 2 without output
    assert main(["oracle", "--m", "12", "--n", "1723"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "DP_WORK_CAP" in captured.err
    # so is a width whose own square is over it, before any search
    assert main(["oracle", "--m", "17", "--n", "17"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "DP_WORK_CAP" in captured.err
    # the width cap is no longer an option
    assert main(["oracle", "--m", "5", "--n", "5", "--width-cap", "5"]) == 2


def test_cli_oracle_refuses_grids_over_the_cell_budget(capsys, monkeypatch):
    # each method's own cell cap refuses a grid before any table or log is
    # built, however narrow it is; the cap itself is accepted
    monkeypatch.setattr(oracle, "DP_CELL_CAP", 100)
    assert main(["oracle", "--m", "2", "--n", "51"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: 2x51 has 102 > 100 cells (DP_CELL_CAP)\n"
    assert main(["oracle", "--m", "2", "--n", "50"]) == 0
    capsys.readouterr()
    assert main(["oracle", "--m", "3", "--n", "7", "--method", "brute"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "21 > 20 cells" in captured.err
    assert main(["oracle", "--m", "4", "--n", "5", "--method", "brute"]) == 0


def test_cli_oracle_payload_is_the_result_fields(capsys):
    assert main(["oracle", "--m", "3", "--n", "7", "--variant", "one-two"]) == 0
    text = capsys.readouterr().out
    payload = json.loads(text)
    res = exact_gamma_dp(GridDims(3, 7), "one-two")
    assert set(payload) == {f.name for f in dataclasses.fields(OracleResult)}
    assert payload["dims"] == {"m": 3, "n": 7}
    assert payload["witness"] == [[v.row, v.col] for v in res.witness]
    # the same text as a deep copy of the result with those two fields set
    ref = dataclasses.asdict(res)
    ref["dims"], ref["witness"] = payload["dims"], payload["witness"]
    assert text == json.dumps(ref, sort_keys=True, indent=1) + "\n"


def test_cli_verify_self(capsys):
    assert main(["verify", "--m", "20", "--n", "24"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True


def test_cli_verify_document_roundtrip(tmp_path, capsys):
    assert main(["construct", "--m", "16", "--n", "17", "--format", "json"]) == 0
    doc_text = capsys.readouterr().out
    path = tmp_path / "p.json"
    path.write_text(doc_text)
    assert main(["verify", "--input", str(path)]) == 0
    capsys.readouterr()

    doc = json.loads(doc_text)
    del doc["black"][0]
    (tmp_path / "damaged.json").write_text(json.dumps(doc))
    assert main(["verify", "--input", str(tmp_path / "damaged.json")]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert not payload["checks"]["dominating"]["passed"]
    assert payload["checks"]["dominating"]["counterexamples"]


@pytest.mark.parametrize("m,n,black", [(1, 1, [[1, 1]]),
                                        (2, 3, [[1, 2], [2, 2]])])
def test_cli_verify_corner_check_stays_on_narrow_grids(tmp_path, capsys, m, n,
                                                       black):
    """Below four rows or columns the four near-corner cells are not four
    distinct grid cells: the informative corner check passes with no
    coverage, so no reported key lies off the grid."""
    path = tmp_path / "narrow.json"
    path.write_text(json.dumps({"schema_version": 1, "m": m, "n": n,
                                "black": black, "white": []}))
    assert main(["verify", "--input", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["corner_check"] == {"passed": True, "coverage": {},
                                       "forbidden_pairs": []}


def test_cli_verify_reports_forbidden_corner_pairs(tmp_path, capsys):
    """Both frame whites beside a corner fail the corner check, and the
    JSON names the pair."""
    doc = pattern_to_document(construct(GridDims(16, 16)))
    doc["white"] = sorted(set(map(tuple, doc["white"])) | {(1, 2), (2, 1)})
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--input", str(path)]) == 1
    corner = json.loads(capsys.readouterr().out)["corner_check"]
    assert corner["passed"] is False
    assert corner["forbidden_pairs"] == [[[1, 2], [2, 1]]]


def test_cli_verify_truncated_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"schema_version": 1, "m": 16,')
    assert main(["verify", "--input", str(path)]) == 2
    assert "line" in capsys.readouterr().err


def test_cli_verify_needs_args(capsys):
    assert main(["verify"]) == 2


@pytest.mark.parametrize("text", [
    "[" * 200000 + "]" * 200000,
    '{"schema_version": 1, "m": 16, "n": 16, "white": [], "black": '
    + "[" * 5000 + "]" * 5000 + "}",
], ids=["bare", "in-black"])
def test_cli_verify_deeply_nested_json(tmp_path, capsys, text):
    path = tmp_path / "deep.json"
    path.write_text(text)
    assert main(["verify", "--input", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["construct", "--format", "ascii"], ["construct", "--format", "json"],
    ["construct", "--format", "svg"], ["verify"], ["gamma"], ["crosscheck"],
    ["sweep", "--m-range", "{m}:30", "--n-range", "{n}:30", "--out", "{out}"],
    ["bench", "--sizes", "{m},{n}"],
])
def test_cli_refuses_sides_below_16(tmp_path, capsys, argv):
    """construct, verify --m/--n, gamma, crosscheck, sweep and bench refuse
    a side of 15 with the one message of the construction's size check; a
    sweep writes no CSV."""
    csv_path = tmp_path / "sweep.csv"
    if argv[0] not in ("sweep", "bench"):
        argv = argv + ["--m", "{m}", "--n", "{n}"]
    for m, n in ((15, 20), (20, 15)):
        assert main([a.format(m=m, n=n, out=csv_path) for a in argv]) == 2
        out, err = capsys.readouterr()
        got = "15x15" if argv[0] == "bench" else f"{m}x{n}"   # square grids
        assert out == ""
        assert err == (f"error: the closed form and the construction need m, n "
                       f">= 16; got {got} (the oracle module solves small "
                       "grids exactly)\n")
        assert not csv_path.exists()


def test_cli_sweep_all_green(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--m-range", "16:19", "--n-range", "16:19",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "m,n,cardinality,formula,dominating,one_two,interior_unique,time_ns"
    assert len(lines) == 1 + 16
    assert all(row.split(",")[4] == "True" for row in lines[1:])


def test_cli_sweep_reports_deficit_rows(tmp_path, monkeypatch):
    # every class builds at the optimal size, so this sweep passes; with a
    # disk dropped from every build it must exit 1 and still write every row
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--m-range", "19:20", "--n-range", "19:20", "--out", str(out)]
    assert main(argv) == 0

    def short(dims):
        p = construct(dims)
        return PatternSet(dims, p.black_rc[1:], p.white_rc)

    monkeypatch.setattr(cli, "construct", short)
    assert main(argv) == 1
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 1 + 4
    row = dict(zip(lines[0].split(","), lines[-1].split(",")))
    assert (row["m"], row["n"]) == ("20", "20")
    assert int(row["cardinality"]) == int(row["formula"]) - 1
    assert row["dominating"] == "False"


def test_cli_sweep_range_guard(tmp_path):
    assert main(["sweep", "--m-range", "15:18", "--n-range", "16:18",
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert main(["sweep", "--m-range", "18:16", "--n-range", "16:18",
                 "--out", str(tmp_path / "x.csv")]) == 2


def test_cli_sweep_refuses_grids_over_the_cell_budget(tmp_path, capsys, monkeypatch):
    # every grid is verified, so the largest must fit the budget before the
    # CSV is opened
    monkeypatch.setattr(cli, "MAX_CELLS", 20 * 20)
    out = tmp_path / "big.csv"
    assert main(["sweep", "--m-range", "16:20", "--n-range", "16:21",
                 "--out", str(out)]) == 2
    assert not out.exists()
    assert "20x21 grid has 420 cells" in capsys.readouterr().err
    assert main(["sweep", "--m-range", "20", "--n-range", "20", "--out", str(out)]) == 0


FULL = Path("/dev/full")
ENOSPC = f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"


@pytest.mark.skipif(not FULL.exists(), reason="needs /dev/full")
def test_cli_sweep_write_failure_exits_2(capsys):
    # the CSV's last rows reach the device when the file is closed
    assert main(["sweep", "--m-range", "16:17", "--n-range", "16:17",
                 "--out", str(FULL)]) == 2
    assert capsys.readouterr().err == ENOSPC


def test_cli_write_failure_exits_2(capsys, monkeypatch):
    class Full(io.StringIO):
        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(sys, "stdout", Full())
    assert main(["construct", "--m", "16", "--n", "16"]) == 2
    assert main(["verify", "--m", "20", "--n", "20"]) == 2
    assert capsys.readouterr().err == 2 * ENOSPC


@pytest.mark.skipif(not FULL.exists(), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_cli_stdout_to_a_full_device_exits_2(unbuffered):
    # with stdout buffered the write fails only when it is flushed, which
    # would otherwise happen at interpreter exit (exit status 120)
    src = str(Path(griddom.__file__).parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with FULL.open("w") as full:
        out = subprocess.run([sys.executable, "-m", "griddom.cli", "construct",
                              "--m", "16", "--n", "16"], stdout=full, env=env,
                             stderr=subprocess.PIPE, text=True, timeout=60)
    assert (out.returncode, out.stderr) == (2, ENOSPC)


def test_cli_bench(capsys):
    assert main(["bench", "--sizes", "16,20", "--repeats", "1"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0].split("\t") == ["side", "members", "time_ns", "ns_per_member"]
    rows = [line.split("\t") for line in out[1:]]
    assert [r[0] for r in rows] == ["16", "20"]
    assert int(rows[0][1]) == 60


def test_cli_bench_rejects_fewer_than_one_repeat(capsys):
    # zero repeats left no time to divide by and crashed with a TypeError
    for repeats in ("0", "-2"):
        assert main(["bench", "--sizes", "20", "--repeats", repeats]) == 2
        assert "--repeats must be >= 1" in capsys.readouterr().err


def test_cli_bench_bad_sizes(capsys):
    assert main(["bench", "--sizes", ""]) == 2
    assert main(["bench", "--sizes", "12"]) == 2
    assert main(["bench", "--sizes", "abc"]) == 2


def test_cli_crosscheck(capsys):
    assert main(["crosscheck", "--m", "16", "--n", "16"]) == 0
    out = capsys.readouterr().out
    assert "mismatch (DEV-T2-MID-N1)" in out


def test_document_round_trip_many_sizes():
    for mn in [(16, 16), (20, 20), (24, 20), (17, 31), (40, 16)]:
        p = construct(GridDims(*mn))
        text = dumps_document(pattern_to_document(p))
        q = document_to_pattern(json.loads(text))
        assert (q.dims, q.black, q.white) == (p.dims, tuple(sorted(p.black)),
                                              tuple(sorted(p.white)))
        assert dumps_document(pattern_to_document(q)) == text


def _doc16(**changes):
    doc = pattern_to_document(construct(GridDims(16, 16)))
    doc.update(changes)
    return doc


def test_document_rejects_duplicate_member():
    # the duplicate used to be counted twice by cardinality (61) and once by
    # the verifier (60, ok)
    doc = _doc16()
    doc["black"].append(doc["black"][0])
    with pytest.raises(DocumentError, match="duplicate black member"):
        document_to_pattern(doc)


def test_document_rejects_float_coordinate():
    doc = _doc16()
    doc["black"][0] = [1.9, doc["black"][0][1]]      # used to read as row 1
    with pytest.raises(DocumentError, match="integers"):
        document_to_pattern(doc)


def test_document_rejects_float_dims():
    with pytest.raises(DocumentError, match="m must be an integer"):
        document_to_pattern(_doc16(m=16.7))          # used to read as 16


def test_side_limits_have_one_message_each():
    # a side over MAX_SIDE gets the same refusal from a document as from a
    # PatternSet; a side below 1 is reported first, as GridDims reports it
    big = MAX_SIDE + 1
    with pytest.raises(DocumentError, match=f"^grid sides above {MAX_SIDE} "):
        document_dims({"m": big, "n": 16})
    with pytest.raises(ValueError, match=f"^grid sides above {MAX_SIDE} "):
        PatternSet(GridDims(16, big), [], [])
    with pytest.raises(DocumentError, match="^grid dimensions must be positive"):
        document_dims({"m": 0, "n": big})
    assert document_dims({"m": MAX_SIDE, "n": 1}) == GridDims(MAX_SIDE, 1)


def test_document_rejects_bool_dims_and_coordinates():
    with pytest.raises(DocumentError, match="n must be an integer"):
        document_to_pattern(_doc16(n=True))
    doc = _doc16()
    doc["white"][0] = [True, 2]
    with pytest.raises(DocumentError, match="integers"):
        document_to_pattern(doc)


def test_document_rejects_pairs_of_other_lengths():
    for bad in ([1, 2, 3], [4], []):
        doc = _doc16()
        doc["black"][0] = bad
        with pytest.raises(DocumentError, match="exactly 2 entries"):
            document_to_pattern(doc)
    with pytest.raises(DocumentError, match="pairs"):
        document_to_pattern(_doc16(black=[(1, 2)]))  # a tuple is no JSON pair


def test_document_rejects_black_white_overlap():
    doc = _doc16()
    doc["white"].append(doc["black"][5])
    with pytest.raises(DocumentError, match="overlap"):
        document_to_pattern(doc)


def test_document_sorts_unsorted_lists():
    doc = _doc16()
    doc["black"].reverse()
    p = construct(GridDims(16, 16))
    assert document_to_pattern(doc).black == p.black


@pytest.mark.parametrize("mutate", [
    lambda d: d["black"].append(d["black"][0]),
    lambda d: d["black"].__setitem__(0, [1.9, 3]),
    lambda d: d.__setitem__("m", 16.7),
    lambda d: d.__setitem__("m", True),
    lambda d: d["white"].__setitem__(0, [1, 2, 3]),
    lambda d: d["white"].append(d["black"][0]),
], ids=["duplicate", "float-coordinate", "float-m", "bool-m", "triple", "overlap"])
def test_cli_verify_input_rejects_invalid_document(tmp_path, capsys, mutate):
    doc = _doc16()
    mutate(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--input", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_refuses_grids_over_the_cell_budget(tmp_path, capsys, monkeypatch):
    side = 10**6
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"schema_version": 1, "m": side, "n": side,
                                "black": [[1, 1]], "white": []}))
    t0 = time.perf_counter()
    assert main(["verify", "--input", str(path)]) == 2
    assert time.perf_counter() - t0 < 0.5
    assert "at most" in capsys.readouterr().err
    for argv in (["verify"], ["construct", "--format", "ascii"],
                 ["construct", "--format", "svg"]):
        assert main(argv + ["--m", str(side), "--n", str(side)]) == 2
    # the budget is inclusive, and json output, which grows with the
    # members only, is held to it by its member count
    monkeypatch.setattr(cli, "MAX_CELLS", 20 * 20)
    capsys.readouterr()
    assert main(["verify", "--m", "20", "--n", "20"]) == 0
    assert main(["verify", "--m", "20", "--n", "21"]) == 2
    assert main(["construct", "--m", "20", "--n", "21", "--format", "svg"]) == 2
    assert main(["construct", "--m", "20", "--n", "21", "--format", "json"]) == 0


def test_cli_refuses_patterns_over_the_member_budget(capsys, monkeypatch):
    # construct --format json, crosscheck and bench hold gamma_formula(dims)
    # members; 20x20 has 92 and 21x21 has 101, so a budget of 92 splits them
    monkeypatch.setattr(cli, "MAX_CELLS", 92)
    assert main(["construct", "--m", "20", "--n", "20", "--format", "json"]) == 0
    assert main(["crosscheck", "--m", "20", "--n", "20"]) == 0
    assert main(["bench", "--sizes", "16,20", "--repeats", "1"]) == 0
    capsys.readouterr()
    assert main(["crosscheck", "--m", "21", "--n", "21"]) == 2
    assert "101 members" in capsys.readouterr().err
    assert main(["construct", "--m", "21", "--n", "21", "--format", "json"]) == 2
    assert capsys.readouterr().err == (
        "error: a 21x21 pattern has 101 members; this command handles at most 92\n")
    # every size is checked before the first is built
    assert main(["bench", "--sizes", "16,21", "--repeats", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "101 members" in err


def test_dumps_document_is_compact():
    text = dumps_document(pattern_to_document(construct(GridDims(16, 16))))
    assert text.count("\n") == 1 and ": " not in text and ", " not in text
    assert text.startswith('{"black":[[1,6,2],[2,4,3],')


def _runs_doc(m, n, black, white=(), **extra):
    return {"schema_version": 2, "m": m, "n": n, "black": [list(r) for r in black],
            "white": [list(r) for r in white], **extra}


def test_schema_2_runs_expand_to_their_members():
    p = document_to_pattern(_runs_doc(16, 16, [(2, 1, 4), (1, 3, 1)], [(16, 16, 1)]))
    assert p.black == ((1, 3), (2, 1), (2, 6), (2, 11), (2, 16))
    assert p.white == ((16, 16),)
    # provenance is the grid's class (1, 1), whatever the members
    assert p.deviations == ("DEV-DM-RANGE", "DEV-DL-OFFSET", "DEV-FIX-11")


@pytest.mark.parametrize("black, match", [
    ([(1, 1, 2), (1, 6, 1)], "duplicate black member"),      # overlapping runs
    ([(1, 12, 2)], "does not lie"),                          # past the last column
    ([(1, 1, 0)], "does not lie"),
    ([(0, 1, 1)], "does not lie"),
    ([(17, 1, 1)], "does not lie"),
    ([(1, 0, 1)], "does not lie"),
    ([(1, 1, -2**63)], "does not lie"),                      # count - 1 wraps round
    ([(1, -2**63, 2)], "does not lie"),                      # n - first wraps round
    ([(1, 1)], "exactly 3 entries"),
    ([(1, 1, 1.0)], "integers"),
    ([(1, 1, True)], "integers"),
])
def test_schema_2_rejects_bad_runs(black, match):
    with pytest.raises(DocumentError, match=match):
        document_to_pattern(_runs_doc(16, 16, black))


def test_schema_2_refuses_more_members_than_cells_before_expanding():
    # 81 runs of 200000 members each on a 16 x 10**6 grid: 16.2M > 16M cells
    doc = _runs_doc(16, 10**6, [(1 + i % 16, 1, 200_000) for i in range(81)])
    tracemalloc.start()
    try:
        with pytest.raises(DocumentError, match="16200000 members, more than"):
            document_to_pattern(doc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_cli_verify_refuses_a_huge_run_document_before_expanding(tmp_path, capsys):
    # about 200 bytes that claim a 10**6 x 10**6 grid and 2 * 10**11 members
    text = json.dumps(_runs_doc(10**6, 10**6, [(1, 1, 10**11), (2, 1, 10**11)],
                                deviations=[], transposed=False))
    assert len(text) < 200
    path = tmp_path / "runs.json"
    path.write_text(text)
    t0 = time.perf_counter()
    assert main(["verify", "--input", str(path)]) == 2
    assert time.perf_counter() - t0 < 0.5
    assert "at most" in capsys.readouterr().err


@pytest.mark.parametrize("mn, limit", [((1500, 600), 64 * 1024), ((20, 20001), 1024)])
def test_document_text_grows_with_the_perimeter(mn, limit):
    p = construct(GridDims(*mn))
    text = dumps_document(pattern_to_document(p))
    assert len(text) <= limit
    q = document_to_pattern(json.loads(text))
    assert np.array_equal(q.black_rc, p.black_rc)
    assert np.array_equal(q.white_rc, p.white_rc)
    assert q.deviations == p.deviations
