"""Benchmark for udortho: one workload per run, one JSON result line.

    python3 bench/run.py --workload ortho-stream --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; udortho is imported from its `src/`.  The
run repeats whole rounds of the workload until `--seconds` have passed
(at least `min_rounds`), checks every output against references computed
apart from udortho, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones: the median over rounds
of each throughput, the median set-up time of SETUP_PROBES fresh processes
and the peak resident memory.  With `--trace 1` rounds alternate between
untraced and traced; the metrics are the per-layer counts and self times
per traced round, and the tracing overhead, and the spans are written to
bench/out/.

Throughputs are reported at the reference speed of bench/speed.py, which
cancels the drift of a shared machine's CPU speed; set-up times are as
timed.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# The matrices are 2x2 to 5x5: BLAS threads would only contend for the CPUs.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("ortho-stream", "crofton-hull", "tables")
SETUP_PROBES = 5
MIN_ROUNDS = 3


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="time imports and set-up only, print the seconds, exit")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def setup(args: argparse.Namespace):
    """Import udortho and build the workload's inputs."""
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    return workloads.make(args.workload, args.seed, OUT)


def setup_seconds(args: argparse.Namespace) -> float:
    """Median set-up time of SETUP_PROBES fresh interpreters."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def measure(workload, seconds: float, sampler, tracer=None) -> tuple[list[dict], list[bool]]:
    """Whole rounds until `seconds` have passed.  With a tracer, rounds
    alternate untraced and traced.  Each round's figures gain `window`, the
    (start, end) of the round."""
    min_rounds = getattr(workload, "min_rounds", MIN_ROUNDS)
    rounds, traced = [], []
    start = perf_counter()
    with sampler:
        while len(rounds) < min_rounds or perf_counter() - start < seconds:
            on = tracer is not None and len(rounds) % 2 == 1
            if on:
                tracer.install()
            t0 = perf_counter()
            try:
                figures = workload.round(len(rounds))
            finally:
                if on:
                    tracer.uninstall()
            figures["window"] = (t0, perf_counter())
            rounds.append(figures)
            traced.append(on)
    return rounds, traced


def rate(sampler, figures: dict, name: str) -> float:
    """A round's throughput `name` at the reference speed."""
    count, intervals = figures[name]
    return count / sampler.busy(intervals) * sampler.scale(*figures["window"])


def layer_metrics(tracer, sampler, rounds, traced) -> dict:
    from tracing import LAYERS

    n = sum(traced)
    own = tracer.self_times()
    per_round = {name: value / n for name, value in tracer.counts.items()}
    for layer in LAYERS:
        per_round[f"{layer}.self_s"] = sum(v for k, v in own.items() if k.split(".")[0] == layer) / n
    for d in (1, 2, 3):
        per_round[f"geometry.hull_d{d}_s"] = own[f"geometry.hull_d{d}"] / n
    per_round["trace.spans"] = len(tracer.start) / n
    on = statistics.median(rate(sampler, r, "samples_per_s") for r, t in zip(rounds, traced)
                           if t and not r["failed"])
    off = statistics.median(rate(sampler, r, "samples_per_s") for r, t in zip(rounds, traced)
                            if not (t or r["failed"]))
    per_round["trace.overhead_pct"] = 100.0 * (off / on - 1.0)
    return per_round


def with_units(values: dict, kind: str) -> dict:
    """The metrics BENCHMARK.json lists under `kind`, in its order and units."""
    listed = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[kind]
    if {m["name"] for m in listed} != set(values):
        raise RuntimeError(f"measured metrics {sorted(values)} differ from BENCHMARK.json {kind}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "udortho" / "__init__.py").is_file():
        sys.stderr.write(f"no udortho sources under {ROOT / 'src'}: run from a checkout of the repository\n")
        return 2
    if args.setup_probe:
        t0 = perf_counter()
        setup(args)
        print(repr(perf_counter() - t0))
        return 0

    workload = setup(args)
    from speed import REFERENCE_S, SpeedSampler

    sampler = SpeedSampler()
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    rounds, traced = measure(workload, args.seconds, sampler, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is None:
        setup_s = setup_seconds(args)
    workload.finish()
    for problem in workload.problems:
        sys.stderr.write(f"check failed: {problem}\n")

    attempted = workload.ops_per_round * len(rounds)
    failed = sum(r["failed"] for r in rounds)
    clean = [r for r in rounds if not r["failed"]]
    if not clean:
        sys.stderr.write("every round had a failed operation: no figures to report\n")
        return 1
    sys.stderr.write(
        f"{args.workload}: {len(rounds)} rounds, {len(sampler.ends)} speed samples; the kernel "
        f"ran at {statistics.median(sampler.durations) / REFERENCE_S:.3f}x its reference time\n")
    if tracer is not None:
        tracer.save(OUT / f"trace-{args.workload}-seed{args.seed}.npz")
        metrics = with_units(layer_metrics(tracer, sampler, rounds, traced), "per_layer")
    else:
        values = {
            "setup_s": setup_s,
            "frames_per_s": statistics.median(rate(sampler, r, "frames_per_s") for r in clean),
            "samples_per_s": statistics.median(rate(sampler, r, "samples_per_s") for r in clean),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = with_units(values, "end_to_end")
    print(json.dumps({"correct": not workload.problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
