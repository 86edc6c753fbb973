"""The benchmark's own tests: the reference and checkers, and a tiny smoke run.

    python3 bench/test_bench.py          (or: python3 -m pytest bench)

Kept out of the repository's test gate (pytest's testpaths is tests/).
The checker tests doctor real program output, so a checker that accepts
anything, and would read error_rate 0 on a broken program, fails here.
"""

import contextlib
import dataclasses
import io
import json
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import reference as ref  # noqa: E402
import workloads  # noqa: E402


def run_cli(argv):
    from bicext import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_case_counts_match_seed_at_default_bounds():
    for suite in ref.SUITE_ORDER:
        assert ref.case_count(suite, ref.DEFAULT_BOUNDS[suite]) == ref.SEED_CASES[suite]


def test_verify_checker_accepts_real_and_rejects_doctored_reports():
    from bicext.cli import REPORT_SCHEMA
    overrides = workloads.TINY_VERIFY
    code, out, _ = run_cli(workloads.verify_argv(overrides))
    assert ref.check_verify(out, code, ref.SUITE_ORDER, overrides, REPORT_SCHEMA) is None

    def doctored(change):
        doc = json.loads(out)
        change(doc)
        return ref.check_verify(json.dumps(doc), code, ref.SUITE_ORDER, overrides,
                                REPORT_SCHEMA)

    assert doctored(lambda d: d[0].update(cases=d[0]["cases"] - 1))
    assert doctored(lambda d: d[9].update({"pass": False}))
    assert doctored(lambda d: d[3]["bounds"].update(kmax=1))
    assert doctored(lambda d: d.pop(5))
    assert doctored(lambda d: d[2].update(extra=1))
    assert doctored(lambda d: d[4]["failures"].append(
        {"inputs": "x", "expected": "y", "got": "z"}))
    assert ref.check_verify(out, 1, ref.SUITE_ORDER, overrides) is not None
    # a report at default bounds must carry the seed's counts
    assert ref.check_verify(out, code, ref.SUITE_ORDER, {}) is not None


def test_cli_checker_passes_seed_output_and_rejects_doctored_output():
    ops = workloads.cli_block(random.Random(7), 400)
    classes = {op["cls"] for op in ops}
    assert classes == set(workloads.SPEC["workloads"]["cli-mix"]["counts_per_block"])
    tally = workloads.Tally()
    for op in ops:
        code, out, err = run_cli(op["argv"])
        reason = workloads.record_cli(tally, op, code, out, err)
        if op["seed"]:  # listed README disagreements: the seed fails them
            assert reason is not None
            continue
        assert reason is None, (op["argv"], reason)
        if "verify" in op["expect"]:
            doc = json.loads(out)
            doc[0]["cases"] += 1
            assert workloads.check_cli(op, code, json.dumps(doc), err) is not None
        else:
            assert workloads.check_cli(op, code, out + "x", err) is not None
            assert workloads.check_cli(op, 5, out, err) is not None
    listed = sum(op["seed"] is not None for op in ops)
    assert listed >= 2 and tally.known == listed and tally.failed == 0 and tally.correct
    assert tally.error_rate == listed / tally.attempted


def test_tally_counts_only_the_seed_output_of_a_listed_disagreement_as_known():
    ops = [op for op in workloads.cli_block(random.Random(3), 400) if op["seed"]]
    assert {op["expect"]["code"] for op in ops} == {ref.EXIT_SYNTAX, ref.EXIT_FAMILY}
    for op in ops:
        seed = op["seed"]
        tally = workloads.Tally()
        workloads.record_cli(tally, op, seed["code"], seed["stdout"], "")
        assert tally.correct and (tally.failed, tally.known) == (0, 1)
        # the README's answer passes; anything else is a failure
        workloads.record_cli(tally, op, op["expect"]["code"], "", "error: bad input")
        assert tally.correct and (tally.failed, tally.known, tally.attempted) == (0, 1, 2)
        assert tally.error_rate == 0.5
        for code, out in ((seed["code"], "(9,9,9)\n"), (1, ""), (ref.EXIT_RANGE, "")):
            bad = workloads.Tally()
            workloads.record_cli(bad, op, code, out, "error")
            assert not bad.correct and (bad.failed, bad.known) == (1, 0), (op["argv"], code, out)


def test_host_speed_sampler_scales_rounds_and_leaves_out_its_own_time():
    import time
    import hostspeed
    with hostspeed.Sampler() as sampler:
        mark = sampler.mark()
        t0, c0 = time.perf_counter(), sampler.clock()
        while time.perf_counter() - t0 < 0.5:
            hostspeed.chunk()
        wall, work = time.perf_counter() - t0, sampler.clock() - c0
        scale = sampler.scale_since(mark)
    assert len(sampler.speeds) >= 3 and sampler.paused > 0
    assert 0 < wall - work <= sampler.paused + 1e-4
    assert scale == hostspeed.REF_CHUNK_S * sum(sampler.speeds) / len(sampler.speeds)
    # a span with no sample is scaled by chunks run at its end
    assert sampler.scale_since(sampler.mark()) > 0


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_tiny_smoke_run_prints_every_metric_with_its_unit():
    spec = _benchmark_json()
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[group]}
        for workload in workloads.WORKLOADS:
            proc = _run(["--workload", workload, "--seed", "3", "--seconds", "1",
                         "--trace", str(trace), "--tiny"])
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True and result["attempted"] >= 1
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload, trace)


def test_fails_without_the_program():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH, Path(tmp) / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(["--workload", "cli-mix", "--seed", "1", "--seconds", "1",
                     "--trace", "0"], cwd=tmp)
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
    print(f"{len(tests)} passed")
