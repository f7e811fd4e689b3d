"""Determinism self-test of the benchmark.

    python3 perfbench/selftest.py

For every workload, one round each, it checks that:
- one seed generates an identical request list twice;
- two different seeds give identical class counts (and different draws);
- the same seed run twice, each time on a freshly imported library and
  traced, gives an identical ok_ratio and identical per-layer counts.

Exits 1 and names each failed check otherwise.  Takes about a minute.
"""

from __future__ import annotations

import sys

import run
import tracing
import workloads

COUNT_STATS = ("calls", "raised", "nonzero", "points", "point_terms", "distinct_ratio")


def traced_counts(workload: str, seed: int):
    _, executor, requests = run.set_up(workload, seed, 1)
    tracer = tracing.Tracer()
    tracer.install(executor.lib.modules)
    _, verdicts = run.run_pass(executor, requests, tracer)
    counts = {name: value for name, value in tracer.metrics(0.0).items()
              if name.rsplit(".", 1)[1] in COUNT_STATS}
    return sum(v.ok for v in verdicts) / len(verdicts), counts


def main() -> int:
    failed = []

    def check(condition: bool, what: str):
        print(f"{'ok  ' if condition else 'FAIL'} {what}")
        if not condition:
            failed.append(what)

    for workload in workloads.WORKLOADS:
        first = workloads.generate(workload, 1, 1)
        again = workloads.generate(workload, 1, 1)
        other = workloads.generate(workload, 2, 1)
        check([r.key() for r in first] == [r.key() for r in again],
              f"{workload}: seed 1 gives the same request list twice")
        check(workloads.class_counts(first) == workloads.class_counts(other),
              f"{workload}: seeds 1 and 2 give the same class counts")
        check({r.key() for r in first} != {r.key() for r in other},
              f"{workload}: seeds 1 and 2 draw different parameters")
        ok_a, counts_a = traced_counts(workload, 1)
        ok_b, counts_b = traced_counts(workload, 1)
        check(ok_a == ok_b, f"{workload}: ok_ratio repeats ({ok_a} vs {ok_b})")
        diff = sorted(k for k in counts_a if counts_a[k] != counts_b[k])
        check(not diff, f"{workload}: per-layer counts repeat ({len(counts_a)} counts"
              + (f"; differ: {diff}" if diff else "") + ")")
    print(f"{len(failed)} failed checks" if failed else "all checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
