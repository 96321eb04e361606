"""griddom benchmark: one workload per call, end-to-end or traced.

    python3 perfbench/run.py --workload large-grids --seed 1 --seconds 20 --trace 0

Workloads: large-grids, sweep-small, oracle-dp (see workloads.py). Every
workload runs in child processes (child.py) with BLAS/OpenMP threads pinned
to 1 and an address-space limit. SETUP_RUNS extra children, before and
after the measuring one, only set up and warm up, so setup_s is a median
over process starts spread across the run.

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics of a traced run and writes its spans to perfbench/out/. Both print
human-readable lines first (every metric the workload has, by name and unit)
and, as the last line, one JSON object with the keys correct, attempted,
failed and metrics, where metrics holds exactly the end_to_end (or
per_layer) metrics that BENCHMARK.json names. A result file with the git
revision, Python and numpy versions and CPU count goes to perfbench/out/.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_RUNS = 10                # setup-only children, half before and half after
                               # the measuring one
MEM_LIMIT_MB = 2048            # address-space cap of each child
TOTAL_TIMEOUT_S = 170          # the whole command, all children included
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# end-to-end metrics the child reports only for some workloads, and their
# units; BENCHMARK.json gates the ones every workload has
WORKLOAD_E2E_UNITS = {"latency_p99_ms": "ms", "state_cells_per_s": "1/s",
                      "failed_ops_ratio": "ratio", "excess_members": "count"}


def parse_args(argv, workloads):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spawn(args, deadline, setup_only=False, spans_out=None) -> dict:
    """Run one child to completion and return its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0", **dict.fromkeys(THREAD_VARS, "1"))
    cmd = [sys.executable, str(HERE / "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--mem-limit-mb", str(MEM_LIMIT_MB)]
    if setup_only:
        cmd.append("--setup-only")
    if spans_out:
        cmd += ["--spans-out", str(spans_out)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - t0, 1))
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("workload process printed no result")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    deadline = time.monotonic() + TOTAL_TIMEOUT_S
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    if not (ROOT / "src" / "griddom" / "__init__.py").is_file():
        print(f"error: no griddom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    gated = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(WORKLOAD_E2E_UNITS)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        setups = [spawn(args, deadline, setup_only=True)["setup_s"]
                  for _ in range(SETUP_RUNS // 2)]
        res = spawn(args, deadline,
                    spans_out=OUT / f"spans-{stem}.jsonl" if args.trace else None)
        setups += [spawn(args, deadline, setup_only=True)["setup_s"]
                   for _ in range(SETUP_RUNS - SETUP_RUNS // 2)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(res["setup_s"])
    attempted, failed = res["attempted"], res["failed"]

    if args.trace:
        found = res["per_layer"]
    else:
        found = dict(res["end_to_end"], setup_s=median(setups))
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in found.items() if value is not None}
    missing = [m["name"] for m in gated if m["name"] not in metrics]
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_revision": git_revision(),
        "python": platform.python_version(), "numpy": res["numpy"],
        "nproc": os.cpu_count(), "setup_s_samples": setups,
        "latency_samples": res.get("latency_samples"),
        "rounds": res["rounds"],
    }
    for key, value in meta.items():
        print(f"# {key}: {value}")
    for name, m in metrics.items():
        print(f"{args.workload:12s} {name:48s} {m['value']:>16.6g} {m['unit']}")
    print(f"{args.workload:12s} {'operations attempted / failed':48s} {attempted:>16d} {failed}")
    (OUT / f"result-{stem}.json").write_text(json.dumps(
        {"meta": meta, "attempted": attempted, "failed": failed, "metrics": metrics},
        indent=1) + "\n")
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed,
               "metrics": {m["name"]: metrics[m["name"]] for m in gated}}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
