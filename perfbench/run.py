"""Benchmark runner for fanoturan.

Run from the repository root:

    python3 perfbench/run.py --workload claims --seed 1 --seconds 30 --trace 0

Each pass of the workload runs in a fresh interpreter (perfbench/worker.py)
with PYTHONPATH=src and FANOTURAN_JOBS unset, so nothing needs installing and
the package's lazy caches start cold, as they do for a command-line user.
Passes repeat until the next one would end past --seconds.  Set-up is timed
in SETUP_PROBES import-only interpreters besides the passes, after one
uncounted import that compiles the bytecode.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json: the median
set-up time over several fresh interpreters, the median pass wall time and
the peak resident set of any pass.  --trace 1 runs one untraced pass and then
traced ones, and reports the per-layer metrics: deterministic counters from
the first traced pass, median timings, and the tracing overhead (traced minus
untraced wall time).  Both print a readable summary, write the full record to
perfbench/out/, and end with one JSON line.  The run exits non-zero without a
result when the package cannot be imported or no pass completes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import OP_COUNTS

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = HERE / "out"
SETUP_PROBES = 7
PASS_TIMEOUT_S = 150


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("FANOTURAN_JOBS", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in ("src", env.get("PYTHONPATH")) if p)
    return env


ENV = _env()


def run_worker(workload: str, seed: int, trace: bool, spans: Path | None = None):
    """(result dict, None) for a completed pass, or (None, error text)."""
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(int(trace)), repr(t0)]
    if spans is not None:
        cmd.append(str(spans))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=ENV, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"{workload} pass exceeded {PASS_TIMEOUT_S} s"
    if proc.returncode != 0:
        return None, proc.stderr[-2000:] or f"exit code {proc.returncode}"
    return json.loads(proc.stdout.splitlines()[-1]), None


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_pass(workload: str, seed: int, trace: bool, record: dict) -> dict | None:
    """One pass in a fresh worker; a pass that dies counts all its operations as failed."""
    k = len(record["passes"])
    spans = OUT / f"spans-{workload}-seed{seed}-pass{k}.json" if trace else None
    t = time.monotonic()
    res, err = run_worker(workload, seed, trace, spans)
    record["passes"].append({"trace": trace, "took_s": time.monotonic() - t,
                             **(res or {"error": err})})
    if res is None:
        record["attempted"] += OP_COUNTS[workload]
        record["failed"] += OP_COUNTS[workload]
        print(f"pass {k} failed: {err}", file=sys.stderr)
        return None
    record["attempted"] += res["attempted"]
    record["failed"] += res["failed"]
    for e in res["errors"]:
        print(f"pass {k}: {e}", file=sys.stderr)
    return res


def per_layer(names: list[str], traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    values: dict[str, float] = dict(traced[0]["counters"])
    for key in traced[0]["timings"]:
        values[key] = statistics.median(p["timings"].get(key, 0.0) for p in traced)
    values["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                  - statistics.median(p["wall_s"] for p in untraced))
    return {n: values.get(n, 0) for n in names}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(OP_COUNTS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "fanoturan" / "__init__.py").is_file():
        print("error: run from a checkout that holds src/fanoturan", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)

    # The first import also compiles bytecode, a one-off cost no user repeats.
    setup = []
    for _ in range(1 + SETUP_PROBES):
        res, err = run_worker("setup", args.seed, False)
        if res is None:
            print(f"error: cannot import fanoturan: {err}", file=sys.stderr)
            return 1
        setup.append(res["setup_s"])
    del setup[0]

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "python": platform.python_version(),
              "nproc": os.cpu_count(), "commit": git_commit(),
              "attempted": 0, "failed": 0, "passes": []}
    deadline = time.monotonic() + args.seconds

    def passes(trace: bool, at_most: int | None = None) -> list[dict]:
        """Passes until the next would end past the deadline; at least one."""
        out = [run_pass(args.workload, args.seed, trace, record)]
        while at_most is None or len(out) < at_most:
            took = statistics.median(p["took_s"] for p in record["passes"] if p["trace"] == trace)
            if time.monotonic() + took > deadline:
                break
            out.append(run_pass(args.workload, args.seed, trace, record))
        return [p for p in out if p is not None]

    untraced = passes(False, at_most=1 if args.trace else None)
    traced = passes(True) if args.trace else []
    if not untraced or (args.trace and not traced):
        print("error: no pass completed", file=sys.stderr)
        return 1

    setup += [p["setup_s"] for p in record["passes"] if "setup_s" in p]
    e2e = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p["wall_s"] for p in untraced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }
    extra = {k: statistics.median(p["extra"][k] for p in untraced if k in p["extra"])
             for k in untraced[0]["extra"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.trace:
        values = per_layer([m["name"] for m in spec["per_layer"]], traced, untraced)
        record["counters_repeat"] = all(p["counters"] == traced[0]["counters"] for p in traced)
    else:
        values = {m["name"]: e2e[m["name"]] for m in spec["end_to_end"]}
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    result = {"correct": record["failed"] == 0, "attempted": record["attempted"],
              "failed": record["failed"], "metrics": metrics}
    record.update(end_to_end=e2e, workload_metrics=extra, result=result)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print(f"workload={args.workload} seed={args.seed} passes={len(untraced)}+{len(traced)} traced"
          f" python={record['python']} nproc={record['nproc']} commit={record['commit']}")
    named = {**e2e, "error_rate": record["failed"] / record["attempted"], **extra}
    unit_of = {"error_rate": f"({record['failed']}/{record['attempted']})",
               "peak_rss_mb": "MB"}
    print("  ".join(f"{k}={v:.6g} {unit_of.get(k, 's' if k.endswith('_s') else 'ms')}"
                    for k, v in named.items()))
    if args.trace:
        print(f"counters repeat across traced passes: {record['counters_repeat']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
