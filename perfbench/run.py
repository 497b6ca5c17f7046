#!/usr/bin/env python3
"""Benchmark of the fullpose pipeline on one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload crowded --seed 1 --seconds 45 --trace 0

Runs one untimed warm-up pipeline, whose outputs must match the recorded
reference digests (seed 0, same numpy/BLAS build), then repeats the
pipeline for ``--seconds`` seconds; every repeat must reproduce the
warm-up's outputs byte for byte.  ``--trace 0`` reports the end-to-end
metrics, with pipeline and decode times scaled to a reference machine
speed (see calibrate.py); ``--trace 1`` alternates untraced and traced
repeats and reports the per-layer metrics.  The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics; the line before it records
the environment and sample counts.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

# one BLAS thread: steadier timings on a small shared machine, and the
# reference digests were recorded this way
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE = BENCH_DIR / "reference.json"
SETUP_PROBES_FIRST = 3  # before the warm-up; then one after every untimed repeat
MIN_REPEATS = 3


def import_program():
    """Import fullpose from this checkout's ``src``, or exit 1."""
    sys.path.insert(0, str(SRC))
    try:
        import fullpose
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import fullpose from {SRC}: {exc}")
    if Path(fullpose.__file__).resolve().parent != (SRC / "fullpose").resolve():
        sys.exit(f"perfbench: fullpose imported from {fullpose.__file__}, not {SRC}")
    return fullpose


def blas_info() -> dict:
    """OpenBLAS build string and thread count, read from numpy's bundled library."""
    import ctypes
    import numpy as np

    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    info = {"library": "unknown", "threads": os.environ.get("OPENBLAS_NUM_THREADS")}
    if not libs:
        return info
    lib = ctypes.CDLL(str(libs[0]))
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            try:
                get_config = getattr(lib, f"{prefix}_get_config{suffix}")
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
            except AttributeError:
                continue
            get_config.restype = ctypes.c_char_p
            get_threads.restype = ctypes.c_int
            return {"library": get_config().decode().strip(), "threads": get_threads()}
    return info


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def fingerprint(env: dict) -> dict:
    """The parts of the environment that decide float results bit for bit."""
    return {"numpy": env["numpy"], "blas": env["blas"]["library"],
            "blas_threads": env["blas"]["threads"]}


def setup_probe_s(config_path: Path, scratch: Path) -> float:
    """Wall time of one set-up probe process, from start to exit."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(config_path), str(scratch)],
        check=True, cwd=ROOT,
    )
    return time.perf_counter() - start


def percentile(samples, q: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    from fullpose import dataio
    import layers
    from pipeline import Pipeline
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    env = environment()

    work = WORK_DIR / f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True)
    try:
        config_path = work / "config.json"
        config_path.write_text(json.dumps(workload.config), encoding="utf-8")
        # set-up time drifts on its own time scale, so its probes are spread
        # over the whole run rather than taken back to back
        setup_times = []

        def probe_setup():
            if not args.trace:
                setup_times.append(setup_probe_s(config_path, work / "setup" / str(len(setup_times))))

        for _ in range(SETUP_PROBES_FIRST):
            probe_setup()
        pipe = Pipeline(workload, args.seed, work, config_path, dataio.load_config(config_path))

        reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        if reference.get("seed") != args.seed:
            ref_note = f"not applicable: reference digests are for seed {reference.get('seed')}"
        elif reference.get("fingerprint") != fingerprint(env):
            ref_note = f"not applicable: recorded with {reference.get('fingerprint')}"
        else:
            pipe.expected = reference["workloads"][workload.name]
            ref_note = "checked"

        warm = pipe.run()
        runs, traced_runs = [], []
        # a failed warm-up is already counted; later repeats then check nothing
        # rather than fail again on the digests it never reached
        pipe.expected = warm.digests if warm.failed == 0 else None
        tracer = Tracer()
        balance = 0.0
        deadline = time.perf_counter() + args.seconds
        while time.perf_counter() < deadline or len(runs) < MIN_REPEATS or (
            args.trace and len(traced_runs) < MIN_REPEATS
        ):
            runs.append(pipe.run())
            probe_setup()
            if args.trace:
                tracer.reset(f"{workload.name}-seed{args.seed}-r{len(traced_runs)}")
                layers.install(tracer)
                try:
                    result = pipe.run(tracer)
                finally:
                    tracer.uninstall()
                traced_runs.append((result, layers.layer_metrics(
                    tracer, result.unique_pair_evals, result.eval_tp)))
                balance = max(balance, layers.cli_balance_s(tracer))
        everything = [warm, *runs, *(r for r, _ in traced_runs)]
        attempted = sum(r.attempted for r in everything)
        failed = sum(r.failed for r in everything)
        errors = [e for r in everything for e in r.errors]
        rods_repeat = all(r.rods == warm.rods for r in everything)
        correct = failed == 0 and rods_repeat

        details = {
            "workload": workload.name,
            "seed": args.seed,
            "env": env,
            "reference": ref_note,
            "repeats": len(runs),
            "setup_probes": len(setup_times),
            "decode_frames": len(runs[0].decode_ms),
            "decode_samples": sum(len(r.decode_ms) for r in runs),
            "ops_base": {"attempted": attempted, "failed": failed},
            "errors": errors[:5],
            "speed_loop_ms_median": 1e3 * statistics.median(
                k for r in runs for k in r.op_kernel_s.values()),
            "raw_pipeline_s_median": statistics.median(r.pipeline_s for r in runs),
        }
        if args.trace:
            per_run = [m for _, m in traced_runs]
            metrics = {key: statistics.fmean(m[key] for m in per_run) for key in per_run[0]}
            metrics["trace.overhead_s"] = (
                statistics.median(r.scaled_pipeline_s for r, _ in traced_runs)
                - statistics.median(r.scaled_pipeline_s for r in runs)
            )
            correct = correct and balance < 1e-6
            OUT_DIR.mkdir(exist_ok=True)
            spans_path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl"
            tracer.write_spans(spans_path)
            details.update(traced_repeats=len(traced_runs), cli_balance_max_s=balance,
                           spans=str(spans_path.relative_to(ROOT)))
        else:
            # pipeline and decode times are scaled to the reference speed (see
            # calibrate.py); the raw wall times go to the details line.  The
            # decode percentiles pool every frame of every repeat, so that at
            # least ten samples lie above p90.
            decode_ms = [v for r in runs for v in r.scaled_decode_ms]
            raw_decode_ms = [v for r in runs for v in r.decode_ms]
            rods = [r.rods for r in everything if not math.isnan(r.rods)]
            if not (decode_ms and rods):
                sys.exit(f"perfbench: no pipeline ran to the end: {errors[:3]}")
            details.update(
                raw_decode_frame_ms_p50=percentile(raw_decode_ms, 50),
                raw_decode_frame_ms_p90=percentile(raw_decode_ms, 90),
            )
            metrics = {
                "setup_s": statistics.median(setup_times),
                "pipeline_s": statistics.median(r.scaled_pipeline_s for r in runs),
                "decode_frame_ms_p50": percentile(decode_ms, 50),
                "decode_frame_ms_p90": percentile(decode_ms, 90),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "eval_rods": rods[0],
                "ok_ops_ratio": 1.0 - failed / attempted,
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_DIR.exists() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        sys.exit(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json")
    print(json.dumps(details))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
