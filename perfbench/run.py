#!/usr/bin/env python3
"""Benchmark runner for hogrn.

One workload, as the benchmark contract calls it:

    python3 perfbench/run.py --workload train-distmult-nell23k --seed 0 --seconds 35 --trace 0

All of them (BENCHMARK.json's and fit-synthetic), one after another, each in
its own process:

    python3 perfbench/run.py --all --seed 0 [--seconds 35] [--trace 1]

A run prints its figures by name with their units, writes the full record to
`perfbench/results/`, and ends with one JSON line: with `--trace 0` the
end-to-end metrics of BENCHMARK.json, with `--trace 1` its per-layer ones.
`--smoke` runs the same code at a tiny shape in seconds, for the tests.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
WORK = BENCH_DIR / "_work"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Runnable like the others but left out of BENCHMARK.json: on a shared two-core
# machine its run-to-run spread (0.16 to 0.31 of the median over ten seeds)
# reached the largest regression bound the benchmark may set.
EXTRA_WORKLOADS = ("fit-synthetic",)


def parse_args(argv, workload_names, run_seconds):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=workload_names)
    which.add_argument("--all", action="store_true", help="run every workload in turn")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=run_seconds)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny shapes, for the tests")
    return p.parse_args(argv)


def limit_blas_threads() -> tuple[int, int]:
    """Pin BLAS to one thread; must run before numpy loads.

    The hot ops (np.add.at, element-wise chains, the L1 distance cube) are
    single-threaded numpy anyway. On a small shared machine a multi-threaded
    BLAS call stalls whenever any of its cores is taken away, which measured
    as a several-fold wider run-to-run spread of ranking throughput.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ[var] = "1"
    return nproc, 1


def _git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "hogrn").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _blas_runtime_threads():
    """Thread count reported by the loaded OpenBLAS, if one is loaded."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def fingerprint(nproc: int, threads: int, load_1min: float) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_set": threads,
        "blas_threads_runtime": _blas_runtime_threads(),
        "nproc": nproc,
        "load_avg_1min_at_start": load_1min,
        "machine": platform.machine(),
    }


def contract_metrics(spec: dict, result: dict, trace: bool) -> dict:
    if trace:
        return {m["name"]: {"value": result["per_layer"][m["name"]], "unit": m["unit"]}
                for m in spec["per_layer"]}
    values = {
        "setup_s": result["setup_s_p50"],
        "queries_per_s": result["queries_per_s"],
        "latency_ms": result["latency_ms"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]}


def report_lines(name: str, result: dict, metrics: dict, trace: bool) -> list[str]:
    lines = [f"== {name}"]
    lines += [f"  {k:<36} {v['value']:.6g} {v['unit']}" for k, v in metrics.items()
              if v["value"] is not None]
    if not trace:
        lines.append(f"  {'setup_s samples':<36} {len(result['setup_s'])}")
        lines += [f"  {n:<36} {'n/a' if v is None else format(v, '.6g')} {u}"
                  for n, v, u in result["named"]]
        lines += [f"  {k + ' (samples)':<36} {v}" for k, v in result["samples"].items()]
    lines.append(f"  {'ops_failed / ops_total':<36} {result['ops_failed']} / {result['ops_total']}")
    lines += [f"  FAILED: {f}" for f in result["failures"]]
    return lines


def run_one(args, spec) -> int:
    load_1min = os.getloadavg()[0]
    nproc, threads = limit_blas_threads()
    sys.path.insert(0, str(SRC))
    try:
        import hogrn
    except ImportError as err:
        print(f"cannot import hogrn from {SRC}: {err}", file=sys.stderr)
        return 2
    if Path(hogrn.__file__).resolve().parent != SRC / "hogrn":
        print(f"hogrn was imported from {hogrn.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    result = workloads.run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                    args.smoke, WORK)
    metrics = contract_metrics(spec, result, bool(args.trace))
    spans = result.pop("spans", None)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke,
              "fingerprint": fingerprint(nproc, threads, load_1min),
              "metrics": metrics, **result}
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str), encoding="utf-8")
    if spans is not None:
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(spans), encoding="utf-8")

    for line in report_lines(args.workload, result, metrics, bool(args.trace)):
        print(line)
    print(f"  {'blas threads / nproc':<36} {threads} / {nproc}")
    print(f"  {'results':<36} {RESULTS / (stem + '.json')}")
    print(json.dumps({"correct": result["ops_failed"] == 0, "attempted": result["ops_total"],
                      "failed": result["ops_failed"], "metrics": metrics}))
    return 0


def run_all(args, workload_names) -> int:
    """Each workload in its own process, one at a time: NELL-shape training alone takes GBs."""
    total = failed = 0
    status = 0
    for name in workload_names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print("\n".join(lines + [f"{name}: exited with {proc.returncode}", proc.stderr]),
                  flush=True)
            status = 1
            continue
        print("\n".join(lines[:-1]), flush=True)
        last = json.loads(lines[-1])
        total += last["attempted"]
        failed += last["failed"]
    print(f"== all workloads: ops_failed / ops_total = {failed} / {total}")
    return status


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]] + list(EXTRA_WORKLOADS)
    args = parse_args(argv, names, spec["run_seconds"])
    return run_all(args, names) if args.all else run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
