"""Self-test of the benchmark's traced run.

    python3 perfbench/selftest.py [WORKLOAD ...]

For each workload (all three by default) it runs two traced passes with the
same seed and requires identical deterministic counters: span call counts,
canonical cache hits and misses, Hypergraph.has_edge calls and each claim's
visited count.  On claims it also requires that the claim spans account for
the traced CLI run apart from a small CLI overhead, and prints the tracing
overhead against one untraced pass.  Exits 1 on any failure.
"""

import json
import sys

from run import OUT, run_worker
from workloads import OP_COUNTS

SEED = 7
# Argument parsing, report output and runpy start-up; measured near 0.05 s.
CLI_OVERHEAD_SHARE = 0.02


def calls_under(spans_path, name: str, ancestor: str) -> int:
    """Number of `name` spans with an `ancestor` span above them."""
    with open(spans_path, encoding="utf-8") as fh:
        spans = json.load(fh)["spans"]
    by_id = {s[0]: s for s in spans}
    count = 0
    for s in spans:
        if s[2] != name:
            continue
        while s[1] and s[2] != ancestor:
            s = by_id[s[1]]
        count += s[2] == ancestor
    return count


def main(workloads) -> int:
    OUT.mkdir(exist_ok=True)
    bad = 0
    for w in workloads:
        runs = []
        for k in range(2):
            res, err = run_worker(w, SEED, True, OUT / f"selftest-{w}-{k}.json")
            if res is None or res["failed"]:
                print(f"FAIL {w}: pass {k} did not complete cleanly: {err or res['errors']}")
                return 1
            runs.append(res)
        a, b = (r["counters"] for r in runs)
        diff = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
        print(f"FAIL {w}: counters differ: {diff}" if diff
              else f"ok   {w}: all {len(a)} counters repeat")
        bad += bool(diff)
        if w != "claims":
            continue
        in_ex8 = calls_under(OUT / f"selftest-{w}-0.json", "canonical.is_canonical",
                             "search.claim.ex-8")
        print(f"     is_canonical calls: {a['canonical.is_canonical.calls']}, {in_ex8} in ex-8")
        t = runs[0]["timings"]
        claim_s = t["cli.main.s"] - t["cli.overhead_s"]
        untraced, err = run_worker(w, SEED, False)
        if untraced is None:
            print(f"FAIL claims: untraced pass: {err}")
            return 1
        share = t["cli.overhead_s"] / t["cli.main.s"]
        print(f"     claim spans {claim_s:.3f} s of traced CLI {t['cli.main.s']:.3f} s"
              f" (overhead {share:.2%}); untraced wall {untraced['wall_s']:.3f} s,"
              f" tracing overhead {runs[0]['wall_s'] - untraced['wall_s']:+.3f} s")
        if share > CLI_OVERHEAD_SHARE:
            print(f"FAIL claims: claim spans leave {share:.2%} of the CLI run unaccounted")
            bad += 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or sorted(OP_COUNTS)))
