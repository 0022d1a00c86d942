"""One pass of one workload in a fresh interpreter.

Usage: python3 perfbench/worker.py WORKLOAD SEED TRACE T0 [SPANS_PATH]

WORKLOAD is claims, crossing-bb, corpus or setup (import only).  T0 is the
parent's time.monotonic() just before it started this process, so the set-up
time runs from process start until ``import fanoturan`` returns.  With TRACE=1
the pass runs under a Tracer and its spans are written to SPANS_PATH.  The
last line of output is one JSON object describing the pass.

Every pass is a fresh process, so the package's lazy caches start cold, as
they do for every command-line user.
"""

import sys
import time

import fanoturan as ft

IMPORTED = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import runpy  # noqa: E402
import statistics  # noqa: E402

from workloads import (  # noqa: E402
    CLAIM_ANSWERS, CLAIMS, CROSSING_BB, corpus_inputs,
)


class Pass:
    """Outcome of one pass: operation counts, first errors and extra metrics."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.extra: dict[str, float] = {}

    def span(self, name, layer="bench"):
        return self.tracer.span(name, layer) if self.tracer else contextlib.nullcontext()

    def check(self, ok: bool, what: str, got) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{what}: got {got!r}")

    def op(self, span: str, what: str, fn, ok, latencies_ms: list | None = None) -> None:
        """Run fn() as one operation; a raise or a wrong answer counts as one failure."""
        t0 = time.perf_counter()
        try:
            with self.span(span):
                got = fn()
        except Exception as exc:  # one failed operation must not end the pass
            self.check(False, what, exc)
            return
        if latencies_ms is not None:
            latencies_ms.append((time.perf_counter() - t0) * 1000)
        self.check(ok(got), what, got)


def run_claims(seed: int, out: Pass) -> None:
    """`python -m fanoturan.cli verify all --long-run --format json --seed S`."""
    argv = ["fanoturan", "verify", "all", "--long-run", "--format", "json", "--seed", str(seed)]
    buf = io.StringIO()
    saved = sys.argv
    sys.argv = argv
    code = 0
    try:
        with contextlib.redirect_stdout(buf), out.span("cli.main", "cli"):
            runpy.run_module("fanoturan.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # counted below as ten failed claims
        code = repr(exc)
    finally:
        sys.argv = saved
    try:
        certs = {c["claim"]: c for c in json.loads(buf.getvalue())}
    except (ValueError, TypeError, KeyError):
        certs = {}
    for cid in CLAIMS:
        c = certs.get(cid)
        ok = (code == 0 and c is not None and c["verdict"] == "pass"
              and c["visited"] == c["space"])
        if ok and cid in CLAIM_ANSWERS:
            space, max_edges = CLAIM_ANSWERS[cid]
            ok = c["space"] == space and c["witnesses"][0]["max_edges"] == max_edges
        out.check(ok, f"claim {cid} (exit {code})", c)
    if "ex-8" in certs:
        out.extra["ex8_s"] = certs["ex-8"]["elapsed_ms"] / 1000


def run_crossing_bb(seed: int, out: Pass) -> None:
    for p, n, expected in CROSSING_BB:
        out.op("bench.bb", f"max_edges_no_crossing({p}, {n})",
               lambda: ft.max_edges_no_crossing(p, n),
               lambda got: got[0] == expected == got[1].edge_total()
               and (got[1].p, got[1].n) == (p, n))


def _agree(verdicts) -> bool:
    return len(set(verdicts)) == 1


def run_corpus(seed: int, out: Pass) -> None:
    hg = ft.Hypergraph.from_edges
    checks, isos = corpus_inputs(seed)
    checks = [hg(n, edges) for n, edges in checks]
    isos = [(name, hg(n, e1), hg(n, e2), aut) for name, n, e1, e2, aut in isos]
    check_ms, iso_ms = [], []
    for i, h in enumerate(checks):
        out.op("bench.check", f"check input {i}",
               lambda: (ft.contains_fano_embedding(h), ft.contains_fano_crossing(h),
                        ft.contains_fano_pasch(h), ft.contains_fano_cover(h)),
               _agree, check_ms)
    for name, h, h2, aut in isos:
        out.op("bench.iso", f"iso {name}",
               lambda: (ft.canonical_form(h), ft.canonical_form(h2), ft.automorphism_count(h)),
               lambda got: got[0] == got[1] and (aut is None or got[2] == aut), iso_ms)
    if check_ms and iso_ms:
        out.extra["check_p50_ms"] = statistics.median(check_ms)
        out.extra["check_p99_ms"] = statistics.quantiles(check_ms, n=100)[98]
        out.extra["iso_p50_ms"] = statistics.median(iso_ms)
        out.extra["iso_p90_ms"] = statistics.quantiles(iso_ms, n=10)[8]


WORKLOADS = {"claims": run_claims, "crossing-bb": run_crossing_bb, "corpus": run_corpus}


def main(argv) -> dict:
    workload, seed, trace, t0 = argv[0], int(argv[1]), argv[2] == "1", float(argv[3])
    result = {"setup_s": IMPORTED - t0}
    if workload == "setup":
        return result
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    out = Pass(tracer)
    start = time.perf_counter()
    WORKLOADS[workload](seed, out)
    wall = time.perf_counter() - start
    result.update(wall_s=wall, attempted=out.attempted, failed=out.failed,
                  errors=out.errors, extra=out.extra)
    if tracer is not None:
        tracer.uninstall()
        timings = tracer.timings()
        claim_s = sum(v for k, v in timings.items()
                      if k.startswith("search.claim.") and not k.endswith(".self_s"))
        timings["cli.overhead_s"] = timings.get("cli.main.s", 0.0) - claim_s
        result.update(counters=tracer.counters(), timings=timings)
        tracer.write(argv[4])
    return result


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
