"""bicext benchmark driver.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Each run starts the workload in fresh
interpreters (src/ on PYTHONPATH, nothing installed): several set-up-only
starts give setup_s, the last start runs the workload.  With --trace 0 the
last line is the end-to-end result; with --trace 1 it is the per-layer
result of a separate traced run.  --all runs every workload and prints each
metric by name and unit.  --tiny shrinks the work for a smoke test.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_STARTS = 15  # timed starts per run; one more, untimed, fills the bytecode cache
RUN_TIMEOUT = 170  # seconds, for the measured start


class WorkerError(RuntimeError):
    pass


def start_worker(argv, env):
    """Start a worker; return (process, seconds until READY, import ms)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), *argv], cwd=ROOT,
                            env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if not line.startswith("READY "):
        proc.kill()
        proc.wait()
        raise WorkerError(f"worker did not start: {line.strip()!r}")
    return proc, ready, float(line.split()[1])


def finish(proc, command, timeout):
    try:
        out, _ = proc.communicate(command + "\n", timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise WorkerError("worker timed out") from None
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with {proc.returncode}")
    return out


def run_one(workload, seed, seconds, trace, tiny):
    if not (ROOT / "src" / "bicext" / "__init__.py").is_file():
        raise WorkerError(f"no bicext sources under {ROOT / 'src'}")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--out", str(ROOT / ".bench_out")]
    if tiny:
        argv.append("--tiny")
    setups, raw_setups, imports = [], [], []
    for n in range(SETUP_STARTS + 1):
        before = hostspeed.boundary_scale()  # host speed just before and after the start
        proc, ready, import_ms = start_worker(argv, env)
        if n:
            setups.append(ready * (before + hostspeed.boundary_scale()) / 2)
            raw_setups.append(ready)
            imports.append(import_ms)
        if n < SETUP_STARTS:
            finish(proc, "exit", 30)
    out = finish(proc, "go", RUN_TIMEOUT)
    result = json.loads(out.strip().splitlines()[-1])
    metrics = result["metrics"]
    if trace:
        metrics["cli.import_ms"] = (statistics.median(imports), "ms")
    else:
        metrics["setup_s"] = (statistics.median(setups), "s")
        result["info"]["raw_setup_s_median"] = statistics.median(raw_setups)
    result["metrics"] = {name: {"value": val, "unit": unit}
                         for name, (val, unit) in sorted(metrics.items())}
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=60)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = ap.parse_args()
    if bool(args.workload) == args.all:
        ap.error("give exactly one of --workload and --all")

    try:
        if args.all:
            for workload in WORKLOADS:
                result = run_one(workload, args.seed, args.seconds, args.trace, args.tiny)
                print(f"== {workload}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}")
                print(f"   error_rate = {result['info']['error_rate']:.6g} ratio "
                      f"({result['info']['known_disagreements']} listed README disagreements)")
                for name, m in result["metrics"].items():
                    print(f"   {name} = {m['value']:.6g} {m['unit']}")
            return 0
        result = run_one(args.workload, args.seed, args.seconds, args.trace, args.tiny)
    except (WorkerError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    info = result.pop("info")
    print("# " + json.dumps(info))
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed",
                                                   "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
