"""MED benchmark: runs the paper's system on one workload and prints its
metrics as one JSON object on the last line of standard output.

    python3 medbench/run.py --workload train --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout; it builds nothing and imports
`mmsparse` from `src/`. With `--trace 0` it prints the end-to-end metrics,
with `--trace 1` the per-layer metrics of a traced run, whose spans it also
writes to `BENCH_trace_<workload>_<seed>.json`. See medbench/README.md.
"""

import os

# One BLAS thread: the benchmark is one process on a small shared machine,
# and threaded BLAS made the same call's time wander.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))

SETUP_REPEATS = 3  # set-ups per benchmark run; setup_s is their median
MIN_ROUNDS = 3  # rounds repeat identical work; wall_s is their median


PER_LAYER_TIMES = {
    "media.agc_s": "media.agc",
    "media.mfcc_s": "media.mfcc",
    "media.keyframes_s": "media.keyframes",
    "features.whiten_s": "features.whiten",
    "features.pool_s": "features.pool",
    "solvers.encode_s": "solvers.encode",
    "dictlearn.learn_s": "dictlearn.learn",
    "multimodal.joint_learn_s": "multimodal.joint_learn",
    "multimodal.cross_encode_s": "multimodal.cross_encode",
    "gmm.fit_s": "gmm.fit",
    "gmm.supervector_s": "gmm.supervector",
    "classify.cv_s": "classify.cv",
    "classify.fit_s": "classify.fit",
    "classify.score_s": "classify.score",
    "metrics.ap_s": "metrics.ap",
    "storage.write_s": "storage.write",
    "storage.read_s": "storage.read",
}
PER_LAYER_COUNTS = {
    "media.audio_seconds": "s",
    "features.pooled_clips": "count",
    "solvers.rows": "count",
    "dictlearn.epochs": "count",
    "dictlearn.atoms_replaced": "count",
    "multimodal.cross_rows": "count",
    "gmm.em_iters": "count",
    "classify.svm_fits": "count",
    "storage.bytes": "B",
}
PER_LAYER_RATIOS = {
    "solvers.converged_ratio": ("solvers.converged", "solvers.rows"),
    "multimodal.cross_converged_ratio": ("multimodal.cross_converged", "multimodal.cross_rows"),
}


@dataclass
class Result:
    setup_s: list = field(default_factory=list)
    rounds: list = field(default_factory=list)  # wall seconds per round, checks left out
    clip_s: list = field(default_factory=list)  # seconds of every clip classified
    clips: int = 0  # clips through one round
    maps: dict = field(default_factory=dict)
    accuracy: float = float("nan")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "mmsparse")):
        print(f"medbench: no mmsparse package under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path[:0] = [src, HERE]

    from system import ARMS, Tally
    from trace import Tracer
    from workloads import WORKLOADS, measure, setup

    if args.workload not in WORKLOADS:
        print(f"medbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    clock = time.perf_counter
    tr = Tracer(bool(args.trace))
    tally = Tally(clock)
    res = Result()
    stage_dir = os.path.join(ROOT, ".bench_scratch", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(stage_dir, exist_ok=True)
    try:
        state = None
        for i in range(SETUP_REPEATS):
            tr.phase = f"setup{i}"
            c0 = tally.check_s
            t0 = clock()
            state = setup(args.workload, args.seed, stage_dir, tr, tally)
            res.setup_s.append(clock() - t0 - (tally.check_s - c0))
        tr.phase = "timed"
        measure(args.workload, state, args.seconds, MIN_ROUNDS, stage_dir, tr, tally, res)
    finally:
        shutil.rmtree(stage_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, ".bench_scratch"))
        except OSError:
            pass

    if tally.check_failures:
        for msg in tally.check_failures[:20]:
            print(f"check failed: {msg}", file=sys.stderr)

    rounds = len(res.rounds)
    if args.trace:
        ts, tt = tr.self_times("setup0"), tr.self_times("timed")
        cs, ct = tr.counts["setup0"], tr.counts["timed"]

        def per(name, s, t):
            return s.get(name, 0.0) + t.get(name, 0.0) / rounds

        metrics = {m: {"value": per(span, ts, tt), "unit": "s"}
                   for m, span in PER_LAYER_TIMES.items()}
        for m, unit in PER_LAYER_COUNTS.items():
            metrics[m] = {"value": per(m, cs, ct), "unit": unit}
        for m, (num, den) in PER_LAYER_RATIOS.items():
            base = per(den, cs, ct)
            metrics[m] = {"value": per(num, cs, ct) / base if base else math.nan, "unit": "1"}
        metrics["trace.wall_s"] = {"value": statistics.median(res.rounds), "unit": "s"}
        tr.write(os.path.join(ROOT, f"BENCH_trace_{args.workload}_{args.seed}.json"))
    else:
        wall = statistics.median(res.rounds)
        # a run whose clips all failed reports NaN latencies, not a crash
        centiles = (statistics.quantiles(res.clip_s, n=100, method="inclusive")
                    if len(res.clip_s) >= 2 else [math.nan] * 99)
        metrics = {
            "setup_s": (statistics.median(res.setup_s), "s"),
            "wall_s": (wall, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "clips_per_s": (res.clips / wall, "clips/s"),
            "clip_p50_ms": (1000.0 * centiles[49], "ms"),
            "clip_p90_ms": (1000.0 * centiles[89], "ms"),
        }
        for arm in ARMS:
            metrics[f"map.{arm}"] = (res.maps.get(arm, math.nan), "1")
        metrics["accuracy.joint"] = (res.accuracy, "1")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps({
        "correct": not tally.check_failures,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
