"""Command-line interface.

Subcommands: construct, verify, gamma, oracle, sweep, bench.
Exit codes: 0 success, 1 verification failure, 2 usage / parse / I-O error.
"""

import argparse
import gc
import csv
import json
import os
import sys
import time
import tracemalloc
from dataclasses import fields

from .construction import _check_dims, construct, gamma_formula
from .grid import GridDims
from .oracle import exact_gamma_bruteforce, exact_gamma_dp
from .render import (document_dims, document_to_pattern, dumps_pattern,
                     render_ascii, render_svg)
from .verify import corner_multiplicity_check, count_cross_check, verify_pattern

EXIT_OK, EXIT_FAIL, EXIT_USAGE = 0, 1, 2
# Largest m*n that verify, sweep and construct --format ascii/svg accept,
# and largest member count that construct --format json, crosscheck
# and bench accept: their memory grows with it, so a larger grid is refused
# before anything is built.
MAX_CELLS = 25_000_000


def _within_budget(dims: GridDims) -> GridDims:
    cells = dims.m * dims.n
    if cells > MAX_CELLS:
        raise ValueError(f"a {dims.m}x{dims.n} grid has {cells} cells; this "
                         f"command handles at most {MAX_CELLS}")
    return dims


def _members_within_budget(dims: GridDims) -> None:
    members = gamma_formula(dims)
    if members > MAX_CELLS:
        raise ValueError(f"a {dims.m}x{dims.n} pattern has {members} members; "
                         f"this command handles at most {MAX_CELLS}")


def cmd_construct(args) -> int:
    dims = GridDims(args.m, args.n)
    if args.format != "json":
        _within_budget(dims)
    _members_within_budget(dims)
    p = construct(dims)
    if args.format == "json":
        sys.stdout.write(dumps_pattern(p))
    elif args.format == "svg":
        sys.stdout.write(render_svg(p))
    else:
        sys.stdout.write(str(render_ascii(p, rulers=args.rulers)) + "\n")
    return EXIT_OK


def _counterexample_json(v):
    # either a vertex or a (vertex, count) pair
    if isinstance(v[0], tuple):
        return [list(v[0]), v[1]]
    return list(v)


def _verdict_payload(p) -> dict:
    verdict = verify_pattern(p)
    corners = corner_multiplicity_check(p)   # informative, not gating
    payload = {
        "m": p.dims.m,
        "n": p.dims.n,
        "cardinality": verdict.cardinality,
        "expected_cardinality": verdict.expected_cardinality,
        "checks": {
            c.name: {
                "passed": c.passed,
                "detail": c.detail,
                "counterexamples": [_counterexample_json(v)
                                    for v in c.counterexamples],
            }
            for c in verdict.checks
        },
        "corner_check": {
            "passed": corners.passed,
            "coverage": {f"{v.row},{v.col}": cnt
                         for v, cnt in sorted(corners.corner_coverage.items())},
            "forbidden_pairs": [[list(a), list(b)]
                                for a, b in corners.forbidden_pairs_present],
        },
        "total_coverage_within_two": verdict.total_coverage_within_two,
        "ok": verdict.ok,
    }
    return payload


def cmd_verify(args) -> int:
    if args.input:
        try:
            with open(args.input, encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ValueError(f"cannot read {args.input}: {exc}")
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"parse error in {args.input} at line {exc.lineno}, "
                f"column {exc.colno}: {exc.msg}")
        except RecursionError:
            raise ValueError(f"parse error in {args.input}: nested too deeply")
        _within_budget(document_dims(doc))
        p = document_to_pattern(doc)
    else:
        if args.m is None or args.n is None:
            raise ValueError("verify needs --input or both --m and --n")
        p = construct(_within_budget(GridDims(args.m, args.n)))
    payload = _verdict_payload(p)
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=1) + "\n")
    return EXIT_OK if payload["ok"] else EXIT_FAIL


def cmd_gamma(args) -> int:
    sys.stdout.write(f"{gamma_formula(GridDims(args.m, args.n))}\n")
    return EXIT_OK


def cmd_oracle(args) -> int:
    dims = GridDims(args.m, args.n)
    if args.method == "brute":
        res = exact_gamma_bruteforce(dims, variant=args.variant)
    else:
        res = exact_gamma_dp(dims, variant=args.variant)
    # the fields as they are: asdict would deep-copy every witness Vertex
    payload = {f.name: getattr(res, f.name) for f in fields(res)}
    payload["dims"] = {"m": dims.m, "n": dims.n}
    payload["witness"] = [list(v) for v in res.witness]
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=1) + "\n")
    return EXIT_OK


def _parse_range(text: str) -> range:
    lo, sep, hi = text.partition(":")
    try:
        if sep:
            return range(int(lo), int(hi) + 1)
        return range(int(lo), int(lo) + 1)
    except ValueError:
        raise ValueError(f"bad range {text!r}; expected LO:HI or a single value")


def cmd_sweep(args) -> int:
    m_range = _parse_range(args.m_range)
    n_range = _parse_range(args.n_range)
    if not m_range or not n_range:
        raise ValueError("empty sweep range")
    _check_dims(GridDims(m_range.start, n_range.start))
    _within_budget(GridDims(max(m_range), max(n_range)))
    all_ok = True
    try:
        fh = open(args.out, "w", newline="", encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot open {args.out}: {exc}")
    with fh:
        writer = csv.writer(fh)
        writer.writerow(["m", "n", "cardinality", "formula", "dominating",
                         "one_two", "interior_unique", "time_ns"])
        for m in m_range:
            for n in n_range:
                t0 = time.perf_counter_ns()
                p = construct(GridDims(m, n))
                elapsed = time.perf_counter_ns() - t0
                v = verify_pattern(p)
                ok = v.ok
                all_ok = all_ok and ok
                writer.writerow([
                    m, n, v.cardinality, v.expected_cardinality,
                    v.check("dominating").passed, v.check("one_two").passed,
                    v.check("interior_unique").passed, elapsed,
                ])
    return EXIT_OK if all_ok else EXIT_FAIL


def bench_row(side: int, alloc: bool = False, repeats: int = 3) -> dict:
    """Best-of-N wall time of construct() alone on a square grid.

    The collector is paused around the timed call (as timeit does) so the
    numbers measure the construction, not generational GC scheduling.
    """
    dims = GridDims(side, side)
    best = None
    members = 0
    for _ in range(repeats):
        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter_ns()
            p = construct(dims)
            elapsed = time.perf_counter_ns() - t0
        finally:
            if was_enabled:
                gc.enable()
        members = p.cardinality
        best = elapsed if best is None else min(best, elapsed)
    row = {
        "side": side,
        "members": members,
        "time_ns": best,
        "ns_per_member": best / members,
    }
    if alloc:
        tracemalloc.start()
        construct(dims)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        row["peak_bytes"] = peak
        row["bytes_per_member"] = peak / members
    return row


def cmd_bench(args) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError:
        raise ValueError(f"bad sizes list {args.sizes!r}")
    if not sizes:
        raise ValueError("empty sizes list")
    _check_dims(GridDims(min(sizes), min(sizes)))
    if args.repeats < 1:
        raise ValueError(f"--repeats must be >= 1; got {args.repeats}")
    _members_within_budget(GridDims(max(sizes), max(sizes)))
    header = ["side", "members", "time_ns", "ns_per_member"]
    if args.alloc:
        header += ["peak_bytes", "bytes_per_member"]
    sys.stdout.write("\t".join(header) + "\n")
    for side in sizes:
        row = bench_row(side, alloc=args.alloc, repeats=args.repeats)
        cells = [str(row["side"]), str(row["members"]), str(row["time_ns"]),
                 f"{row['ns_per_member']:.1f}"]
        if args.alloc:
            cells += [str(row["peak_bytes"]), f"{row['bytes_per_member']:.1f}"]
        sys.stdout.write("\t".join(cells) + "\n")
    return EXIT_OK


def cmd_crosscheck(args) -> int:
    dims = GridDims(args.m, args.n)
    _members_within_budget(dims)
    p = construct(dims)
    cc = count_cross_check(p)
    for row in cc.rows:
        status = ("ok" if row.matches
                  else f"mismatch ({row.ledger_id})" if row.ledger_id
                  else "MISMATCH (unexplained)")
        sys.stdout.write(
            f"{row.label}: table {row.expected}, actual {row.actual}: {status}\n")
    return EXIT_OK if cc.ok else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="griddom",
        description="Dominating-set construction and verification for grid graphs",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a pattern and print it")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=["ascii", "json", "svg"], default="ascii")
    p.add_argument("--rulers", action="store_true",
                   help="add coordinate rulers to ascii output")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="verify a pattern document or a fresh build")
    p.add_argument("--input", help="pattern JSON path (default: self-construct)")
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gamma", help="print the closed-form optimal size")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_gamma)

    p = sub.add_parser("oracle", help="solve a small grid exactly")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--variant", choices=["domination", "one-two"],
                   default="domination")
    p.add_argument("--method", choices=["brute", "dp"], default="dp")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("sweep", help="construct+verify a rectangle of sizes to CSV")
    p.add_argument("--m-range", required=True, metavar="LO:HI")
    p.add_argument("--n-range", required=True, metavar="LO:HI")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bench", help="time construct() on square grids")
    p.add_argument("--sizes", required=True, help="comma-separated side lengths")
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--alloc", action="store_true",
                   help="also report tracemalloc peak per size")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("crosscheck", help="compare block counts with the tables")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_crosscheck)

    return top


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        code = args.func(args)
        sys.stdout.flush()            # a failed write is raised here, not at exit
        return code
    except (ValueError, OSError) as exc:    # usage, document, capacity, I/O
        sys.stderr.write(f"error: {exc}\n")
        try:
            sys.stdout.flush()
        except OSError:
            # Python flushes stdout again at exit and would exit 120 on the
            # same error: send what is left to os.devnull instead
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
