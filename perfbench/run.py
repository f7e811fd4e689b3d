"""Certification benchmark for finitecone.

    python3 perfbench/run.py --workload gram-deep --seed 1 --seconds 20 --trace 0

Runs one workload's fixed, seeded request list through the public API
(`verifier.run_suite`, in-process `cli.main`) in this one process, judges
every request by the outcome contract in workloads.py, and prints, as the
last line of standard output, one JSON object with the end-to-end metrics
(`--trace 0`) or the per-layer metrics of a separate traced pass
(`--trace 1`).  Run it from any directory; it builds nothing and imports
the library from the `src/` directory next to its own.  See README.md in
this directory for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from time import perf_counter
from types import SimpleNamespace

import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
SETUP_REPEATS = 9  # setup_s is the median of this many fresh set-ups
TAIL_BEYOND = 10  # req_s.tail is the highest percentile with this many requests beyond it
MODULES = ("ball", "cli", "cone_solid", "cone_surface", "errors", "harmonics",
           "polyalg", "quadrature", "univariate", "verifier")

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "req_s.p50": "s", "req_s.tail": "s",
    "ok_ratio": "ratio", "peak_rss_mb": "MB",
}


class LibraryMissing(Exception):
    pass


def load_library():
    """Import a fresh copy of finitecone from SRC: earlier copies are
    dropped from sys.modules, so module-level state starts empty."""
    if not os.path.isfile(os.path.join(SRC, "finitecone", "__init__.py")):
        raise LibraryMissing(f"no finitecone sources under {SRC}")
    if sys.path[:1] != [SRC]:
        sys.path.insert(0, SRC)
    for name in [n for n in sys.modules if n.split(".")[0] == "finitecone"]:
        del sys.modules[name]
    mods = {name: importlib.import_module(f"finitecone.{name}") for name in MODULES}
    if not os.path.abspath(mods["verifier"].__file__).startswith(SRC + os.sep):
        raise LibraryMissing(f"finitecone imported from {mods['verifier'].__file__}, not {SRC}")
    return SimpleNamespace(modules=mods, **mods)


def set_up(workload: str, seed: int, rounds: int):
    """Everything before the first timed request: import, request
    generation, and one small warm-up request per family."""
    start = perf_counter()
    lib = load_library()
    requests = workloads.generate(workload, seed, rounds)
    executor = workloads.Executor(lib, OUT_DIR)
    for req in workloads.warmup_requests(workload):
        executor.prepare(req)
        executor.run(req)
    return perf_counter() - start, executor, requests


def run_pass(executor, requests, tracer=None):
    """Send the requests one after another (a closed loop, one client).
    Only executor.run is timed; collection and judging sit between."""
    latencies, verdicts = [], []
    gc.collect()
    gc.freeze()  # set-up objects stay out of the per-request collections
    try:
        for index, req in enumerate(requests):
            executor.prepare(req)
            gc.collect()
            if tracer is not None:
                tracer.request = index
            start = perf_counter()
            outcome = executor.run(req)
            latencies.append(perf_counter() - start)
            cli_report = executor.read_cli_report() if req.via == "cli" else None
            verdicts.append(workloads.judge(executor.lib, req, outcome, cli_report))
    finally:
        gc.unfreeze()
    return latencies, verdicts


def tail(latencies):
    """(percentile, value, requests beyond): the highest order statistic
    with TAIL_BEYOND requests beyond it, or the maximum when there are too
    few requests."""
    ordered = sorted(latencies)
    rank = max(1, len(ordered) - TAIL_BEYOND)
    return 100.0 * rank / len(ordered), ordered[rank - 1], len(ordered) - rank


def _git_sha():
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unknown (not a git checkout)"
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    path = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return "unknown"


def _blas_threads():
    """OpenBLAS thread count as numpy's bundled OpenBLAS reports it."""
    numpy = sys.modules.get("numpy")
    if numpy is None:
        return None
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return func()
    return os.environ.get("OPENBLAS_NUM_THREADS")


def provenance(load_at_start):
    numpy = sys.modules.get("numpy")
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": getattr(numpy, "__version__", None),
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "loadavg_at_start": [round(v, 2) for v in load_at_start],
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="nominal run length; fixes the number of request rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_at_start = os.getloadavg()
    rounds = workloads.rounds_for(args.workload, args.seconds)

    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            elapsed, executor, requests = set_up(args.workload, args.seed, rounds)
            setups.append(elapsed)
    except LibraryMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    latencies, verdicts = run_pass(executor, requests)
    wall_s = sum(latencies)
    percentile, tail_s, beyond = tail(latencies)
    ok = sum(v.ok for v in verdicts)
    n = len(requests)
    print(f"workload {args.workload}, seed {args.seed}: {n} requests in {rounds} rounds, "
          f"one client, closed loop")
    print(f"set-up: median of {SETUP_REPEATS} fresh set-ups; the first, which also "
          f"imports numpy, took {setups[0]:.4f} s")
    print(f"req_s.tail is p{percentile:.2f}: {beyond} of {n} requests lie beyond it")
    end_to_end = {
        "setup_s": statistics.median(setups),
        "wall_s": wall_s,
        "req_s.p50": statistics.median(latencies),
        "req_s.tail": tail_s,
        "ok_ratio": ok / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }

    consistent = True
    if args.trace:
        _, executor, _ = set_up(args.workload, args.seed, rounds)
        tracer = tracing.Tracer()
        tracer.install(executor.lib.modules)
        traced_latencies, traced_verdicts = run_pass(executor, requests, tracer)
        traced_wall = sum(traced_latencies)
        consistent = [v.ok for v in traced_verdicts] == [v.ok for v in verdicts]
        if not consistent:
            print("error: the traced pass judged some requests differently")
        metrics = tracer.metrics(traced_wall - wall_s)
        units = dict(tracing.metric_names())
        print(f"traced wall_s {traced_wall:.4f} s, untraced {wall_s:.4f} s; "
              f"self-time shares of traced wall_s:")
        shares = tracer.shares(traced_wall)
        for name, value, frac in shares:
            print(f"  {frac:7.2%}  {value:9.4f} s  {name}")
        for statement, held in tracing.predictions(args.workload, metrics, shares):
            print(f"prediction {'held' if held else 'FAILED'}: {statement}")
        spans = os.path.join(OUT_DIR, f"spans-{args.workload}.tsv")
        tracer.write(spans)
        print(f"{tracer.span_count()} spans written to {os.path.relpath(spans, ROOT)}")
        for name, value in metrics.items():
            print(f"  {name} = {value:.6g} {units[name]}")
        result_metrics = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    else:
        for name, value in end_to_end.items():
            print(f"{name} = {value:.6g} {END_TO_END_UNITS[name]}")
        result_metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                          for name, value in end_to_end.items()}

    failing = [(req, v) for req, v in zip(requests, verdicts) if not v.ok]
    print(f"ok_ratio {ok}/{n}; requests failing the outcome contract: {len(failing)}")
    for req, v in failing:
        print(f"  FAIL {req.kind}/{req.via} {json.dumps(req.desc, sort_keys=True)}: {v.reason}")
    print("provenance " + json.dumps(provenance(load_at_start), sort_keys=True))
    print(json.dumps({
        "correct": consistent and not any(v.wrong_answer for v in verdicts),
        "attempted": n,
        "failed": n - ok,
        "metrics": result_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
