"""One workload in a fresh interpreter.

Started by run.py with the checkout's src/ on PYTHONPATH.  It imports
bicext, makes the workload's warm-up call and prints `READY <import ms>`;
then it reads one line from stdin: `exit` ends it there (a set-up-only
start), `go` runs the workload and prints one JSON result line.
"""

import argparse
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

t0 = time.perf_counter()
import bicext.cli  # noqa: E402  (the import itself is what set-up measures)
IMPORT_MS = (time.perf_counter() - t0) * 1e3

import hostspeed  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, micro_metrics  # noqa: E402

BIC = SimpleNamespace(**{name: sys.modules[f"bicext.{name}"] for name in (
    "cli", "core_semigroup", "endomorphisms", "endo_monoid_green", "oracle_verify")})


def direct(name, tag, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def quantile(values, q):
    """Nearest-rank quantile: p99 of 1000 samples has 10 samples above it."""
    ordered = sorted(values)
    return ordered[math.ceil(q * len(ordered)) - 1]


def run_untraced(bodies, seconds):
    """Rounds until --seconds is used up, never starting one that the last
    round's length says would overrun; at least one round."""
    bodies.pre_roll()
    # Every statistic is taken per round and then the median over rounds, so
    # a short burst of host load moves one round, not the result; only
    # per-round summaries are kept, so peak RSS does not grow with the number
    # of rounds.  A round of at least 1000 ops has 10 samples beyond its p99;
    # a verify-default round is one call, so there p99 pools every call.
    # Every timing of a round is scaled by the host speed sampled during it
    # (hostspeed.py); the unscaled round walls go to the info line.
    rounds, pooled, class_time, raw_wall = [], [], {}, []
    start = time.perf_counter()
    with hostspeed.Sampler() as sampler:
        bodies.clock = sampler.clock
        while True:
            begun = time.perf_counter()
            mark = sampler.mark()
            r = bodies.run_round()
            scale = sampler.scale_since(mark)
            raw_wall.append(r["wall"])
            lat = [dt * scale for dt in r.pop("lat")]
            for cls, dt in r.pop("class_time", {}).items():
                class_time[cls] = class_time.get(cls, 0.0) + dt
            r.update(wall=r["wall"] * scale, case_time=r["case_time"] * scale, scale=scale,
                     n=len(lat), rate=len(lat) / sum(lat), p50=statistics.median(lat),
                     p99=quantile(lat, 0.99))
            rounds.append(r)
            if len(lat) < 1000:
                pooled += lat
            last = time.perf_counter() - begun
            if time.perf_counter() - start + last > seconds:
                break
        samples = len(sampler.speeds)

    def median(key):
        return statistics.median(r[key] for r in rounds)

    p99 = quantile(pooled, 0.99) if pooled else median("p99")
    metrics = {
        "wall_s": (median("wall"), "s"),
        "cases_per_s": (statistics.median(r["cases"] / r["case_time"] for r in rounds
                                          if r["case_time"]), "1/s"),
        "ops_per_s": (median("rate"), "1/s"),
        "op_p50_us": (median("p50") * 1e6, "us"),
        "op_p99_us": (p99 * 1e6, "us"),
    }
    info = {"rounds": len(rounds), "op_samples": sum(r["n"] for r in rounds),
            "ops_per_round": rounds[0]["n"], "speed_samples": samples,
            "raw_wall_s_median": statistics.median(raw_wall),
            "per_round": {key: [float(f"{r[key]:.6g}") for r in rounds]
                          for key in ("wall", "scale", "rate", "p50", "p99")}}
    if class_time:
        # each command class's share of the op time, the basis of the mix
        total = sum(class_time.values())
        info["class_time_share"] = {cls: round(dt / total, 4)
                                    for cls, dt in sorted(class_time.items())}
    if pooled:
        info["samples_above_p99"] = sum(x > p99 for x in pooled)
    else:
        info["samples_above_p99_per_round"] = rounds[0]["n"] - math.ceil(0.99 * rounds[0]["n"])
    return metrics, info


def run_traced(bodies, out_dir, tag):
    """The same fixed work untraced and then traced, micro-timings in
    between, and the probe pass; returns the per-layer metrics."""
    fixed = workloads.SPEC["workloads"][bodies.workload]["traced_rounds"]
    bodies.pre_roll()
    t0 = time.perf_counter()
    for _ in range(fixed):
        bodies.run_round()
    untraced = time.perf_counter() - t0
    metrics = micro_metrics(BIC)

    tracer = Tracer()
    tracer.install(BIC)
    try:
        traced_bodies = workloads.Bodies(BIC, bodies.workload, bodies.seed, bodies.tiny,
                                         tracer.call, bodies.tally, bodies.schema)
        t0 = time.perf_counter()
        for _ in range(fixed):
            traced_bodies.run_round()
        traced = time.perf_counter() - t0
        probe(tracer.call, bodies.tally, bodies.schema)
    finally:
        tracer.uninstall()
    metrics.update(tracer.layer_metrics())
    metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{tag}.jsonl")
    return metrics, {"spans": len(tracer.spans)}


def probe(call, tally, schema):
    """Reach every layer once, identically on every workload: one small
    cli-mix block from a fixed seed and a tiny-bound verify of every suite."""
    cli_probe = workloads.Bodies(BIC, "cli-mix", "probe", True, call, tally, schema)
    cli_probe.run_round()
    verify_probe = workloads.Bodies(BIC, "verify-default", "probe", True, call, tally, schema)
    verify_probe.run_round()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    tally = workloads.Tally()
    bodies = workloads.Bodies(BIC, args.workload, args.seed, args.tiny, direct, tally,
                              BIC.cli.REPORT_SCHEMA)
    warm = bodies.warm_up()
    print(f"READY {IMPORT_MS:.6f}", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0
    if warm is not None:
        tally.record(warm, "warm-up")

    if args.trace:
        metrics, info = run_traced(bodies, args.out, f"{args.workload}-{args.seed}")
    else:
        metrics, info = run_untraced(bodies, args.seconds)
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
    info["error_rate"] = tally.error_rate
    info["known_disagreements"] = tally.known
    info["failure_reasons"] = tally.reasons
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics, "info": info}),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
