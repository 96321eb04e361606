"""One workload process: set up, warm up, measure, print one JSON line.

Started by run.py with BLAS/OpenMP threads pinned to 1. It caps its own
address space first, so a memory blow-up raises MemoryError inside an
operation (counted as a failed operation) instead of exhausting the host.
griddom is imported from the checkout's src/ directory only.

With --trace 0 every operation runs untraced and the end-to-end figures are
taken from per-operation times. With --trace 1 each operation runs twice,
once untraced and once traced (alternating which goes first), which gives
the per-layer self times and the tracing overhead; tracemalloc peaks are
taken in a separate pass, outside both.
"""

import argparse
import gc
import json
import random
import resource
import sys
import time
import traceback
import tracemalloc
from collections import defaultdict
from pathlib import Path
from statistics import median, quantiles

from tracing import Tracer, direct

ROOT = Path(__file__).resolve().parent.parent

LEDGER_CALLS = 5

# spans whose self time is reported on its own, besides the per-layer sums
SELF_TIMED = (
    "construction.construct",
    "verify.verify_pattern", "verify.corner_multiplicity_check", "verify.count_cross_check",
    "render.pattern_to_document", "render.dumps_document", "render.json_loads",
    "render.document_to_pattern", "render.render_ascii", "render.render_svg",
    "oracle.exact_gamma_dp",
)
LAYERS = ("construction", "verify", "render", "oracle", "deviations", "bench")


def parse_args(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() of the parent just before spawning")
    ap.add_argument("--mem-limit-mb", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out", default=None)
    return ap.parse_args(argv)


def import_griddom():
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import griddom
    if not Path(griddom.__file__).resolve().is_relative_to(src):
        raise ImportError(f"griddom imported from {griddom.__file__}, not {src}")
    return griddom


class Run:
    """Counts, per-operation records and check statistics of one run."""

    def __init__(self, wl, tracer):
        self.wl = wl
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.records = []          # untraced: (seconds, cells, size)
        self.traced = {}           # op id -> (seconds, cells, size)
        self.pairs = []            # (untraced seconds, traced seconds)
        self.stats = self.new_stats()

    @staticmethod
    def new_stats():
        return {"excess": {}, "json_bytes": [], "negatives": [], "kept": [],
                "bp_bytes": [], "solves": []}

    def tally(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def one(self, inp, op_id=None, stats=None):
        """Run, time and check one operation; returns its seconds or None."""
        stats = self.stats if stats is None else stats
        try:
            if op_id is None:
                start = time.perf_counter_ns()
                out = self.wl.op(inp, direct)
                secs = (time.perf_counter_ns() - start) / 1e9
            else:
                out, secs = self.tracer.op(op_id, self.wl.op, inp)
            ok = self.wl.check(inp, out, stats)
            size = self.wl.size(out)
        except Exception:
            traceback.print_exc()
            ok, secs = False, None
        self.tally(ok)
        if not ok:
            return None
        rec = (secs, self.wl.cells(inp), size)
        if op_id is None:
            self.records.append(rec)
        else:
            self.traced[op_id] = rec
        return secs

    def negatives(self) -> None:
        """Mutated inputs the program must reject, run after the timed loop."""
        for inp in getattr(self.wl, "negative_inputs", list)():
            try:
                ok = self.wl.negative(inp)
            except Exception:
                traceback.print_exc()
                ok = False
            self.stats["negatives"].append(ok)
            self.tally(ok)


def time_ledger(g, tracer):
    """Load the deviation ledger LEDGER_CALLS times; returns seconds per call."""
    if tracer is None:
        out = []
        for _ in range(LEDGER_CALLS):
            start = time.perf_counter_ns()
            g.load_ledger()
            out.append((time.perf_counter_ns() - start) / 1e9)
        return out
    tracer.op("setup", lambda call: [call("deviations.load_ledger", g.load_ledger)
                                     for _ in range(LEDGER_CALLS)])
    return tracer.durations("deviations.load_ledger")


def memory_pass(wl):
    """{metric: median of peak traced bytes / normaliser} over the probes."""
    found = defaultdict(list)
    probes = wl.memory_probes()
    tracemalloc.start()
    try:
        for name, fn, fargs, per in probes:
            gc.collect()
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            result = fn(*fargs)
            found[name].append((tracemalloc.get_traced_memory()[1] - base) / per)
            del result
    finally:
        tracemalloc.stop()
    return {name: (max(v) if name == "oracle.peak_bytes" else median(v))
            for name, v in found.items()}


def measure(run, seconds: float, trace: bool) -> int:
    """Closed loop over whole rounds of inputs until a round as long as the
    last one would end after the deadline (at least one round); returns the
    round count."""
    deadline = time.monotonic() + seconds
    k = op_id = 0
    while True:
        start = time.monotonic()
        for i, inp in enumerate(run.wl.round_inputs(k)):
            if not trace:
                gc.collect()
                run.one(inp)
                continue
            order = (False, True) if i % 2 == 0 else (True, False)
            secs = {}
            for traced in order:
                gc.collect()
                secs[traced] = run.one(inp, op_id if traced else None)
            if None not in secs.values():
                run.pairs.append((secs[False], secs[True]))
            op_id += 1
        k += 1
        now = time.monotonic()
        if now + (now - start) > deadline:
            return k


def end_to_end(run, peak_rss_mb: float) -> dict:
    lat = [r[0] for r in run.records]
    out = {
        "latency_p50_ms": median(lat) * 1e3 if lat else None,
        "latency_p99_ms": (quantiles(lat, n=100)[98] * 1e3 if len(lat) >= 1000 else None),
        "cells_per_s": median(c / s for s, c, _ in run.records) if lat else None,
        "peak_rss_mb": peak_rss_mb,
        "failed_ops_ratio": run.failed / max(run.attempted, 1),
    }
    if run.wl.name == "oracle-dp":
        out["state_cells_per_s"] = median(w / s for w, s in run.stats["solves"])
    else:
        out["excess_members"] = sum(run.stats["excess"].values())
    return out


def per_layer(run, ledger_s, mem) -> dict:
    tracer, stats = run.tracer, run.stats
    selfs = tracer.self_times()
    out = {}
    for name in SELF_TIMED:
        out[f"{name}.self_s"] = selfs.get(name, (0.0, 0))[0]
    out["construction.construct.calls"] = selfs.get("construction.construct", (0, 0))[1]

    def per_op(name, field):
        """Median over traced operations of span ns / cells (field 1) or
        / size (field 2)."""
        vals = [(e - s) / run.traced[op][field]
                for _, op, _, span_name, s, e in tracer.spans
                if span_name == name and op in run.traced]
        return median(vals) if vals else 0.0

    out["construction.construct.ns_per_member"] = per_op("construction.construct", 2)
    out["construction.construct.peak_bytes_per_member"] = mem.get(
        "construction.construct.peak_bytes_per_member", 0.0)
    out["construction.excess_members"] = sum(stats["excess"].values())
    out["verify.verify_pattern.ns_per_cell"] = per_op("verify.verify_pattern", 1)
    out["verify.verify_pattern.peak_bytes_per_cell"] = mem.get(
        "verify.verify_pattern.peak_bytes_per_cell", 0.0)
    neg = stats["negatives"]
    out["verify.negative_detected_ratio"] = sum(neg) / len(neg) if neg else 0.0
    out["render.json_bytes"] = median(stats["json_bytes"]) if stats["json_bytes"] else 0
    solves = stats["solves"]
    out["oracle.ns_per_state_cell"] = median(s / w for w, s in solves) * 1e9 if solves else 0.0
    out["oracle.state_cells"] = sum(size for _, _, size in run.traced.values()) \
        if run.wl.name == "oracle-dp" else 0
    out["oracle.backpointer_bytes"] = max(stats["bp_bytes"], default=0)
    out["oracle.witness_kept_ratio"] = (sum(stats["kept"]) / len(stats["kept"])
                                        if stats["kept"] else 0.0)
    out["oracle.peak_bytes"] = mem.get("oracle.peak_bytes", 0)
    out["deviations.load_ledger.s"] = median(ledger_s)
    untraced = sum(u for u, _ in run.pairs)
    out["tracing_overhead_ratio"] = sum(t for _, t in run.pairs) / untraced if untraced else 0.0
    wall = tracer.root_wall()
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, (secs, _) in selfs.items():
        layer_self[name.split(".", 1)[0]] += secs
    for layer, secs in layer_self.items():
        out[f"{layer}.self_s"] = secs
    out["traced_wall_s"] = wall
    out["layers_self_share"] = (wall - layer_self["bench"]) / wall if wall else 0.0
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    limit = args.mem_limit_mb * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    g = import_griddom()
    import numpy as np
    from workloads import WORKLOADS

    rng = random.Random(f"{args.workload}:{args.seed}")
    wl = WORKLOADS[args.workload](rng)
    run = Run(wl, Tracer() if args.trace else None)
    ledger_s = time_ledger(g, run.tracer)
    warm = Run.new_stats()
    for inp in wl.warmup_inputs():
        run.one(inp, stats=warm)
    for ok in getattr(wl, "warmup_extra", list)():
        run.tally(ok)
    run.records.clear()
    gc.collect()
    gc.freeze()
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s}
    if not args.setup_only:
        mem = memory_pass(wl) if args.trace else {}
        result["rounds"] = measure(run, args.seconds, trace=bool(args.trace))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        run.negatives()
        if args.trace:
            result["per_layer"] = per_layer(run, ledger_s, mem)
            if args.spans_out:
                run.tracer.write(args.spans_out)
        else:
            result["end_to_end"] = end_to_end(run, peak_rss_mb)
            result["latency_samples"] = len(run.records)
    result.update(attempted=run.attempted, failed=run.failed, numpy=np.__version__)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
