"""Self-test of the benchmark's output checks and metric names.

Run from the root of a checkout:

    python3 perfbench/selftest.py

On a small pipeline and one small verify command it asserts that clean
outputs pass, that a corrupted apply cell, a truncated model file, a
command that exits nonzero and a verify report whose verdict was flipped
each fail a command (so ``failed_frac`` rises above 0), and that both modes
emit every metric BENCHMARK.json names, with its unit. Exits 0 on success.
"""

from __future__ import annotations

import json
import shutil
import sys

import run as bench
from workloads import Command, Workload


def failed_after(checker, env, work, commands, corrupt=None):
    """Fraction of commands that fail their checks, after an optional corruption."""
    outcomes = []
    for cmd in commands:
        outcome = bench.run_process(bench.PROBCAL + cmd.argv, env, work)
        outcomes.append((outcome.code, outcome.stdout))
    if corrupt is not None:
        corrupt()
    run = bench.Run("selftest", 0, commands)
    bench.check_outputs(run, checker, outcomes)
    return run.failed / len(commands), run.errors


def main() -> int:
    if not (bench.SRC / "probcal" / "cli.py").is_file():
        print("error: run from the root of a probcal checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(bench.SRC))
    from checks import Checker

    env = bench.child_env(1)
    work = bench.STATE / "work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    checker = Checker()
    pipeline = Workload(
        name="selftest", why="", rows=2000, separate_test=True,
        fit_methods=("histogram", "isotonic"), apply_methods=("histogram", "isotonic"),
        eval_method="histogram",
    ).commands(3, work)
    verify = Workload(
        name="selftest-verify", why="",
        verify_checks=(("mce-bound", ("--n", "200", "--trials", "3", "--test-size", "2000")),),
    ).commands(3, work)
    applied = next(c for c in pipeline if c.kind == "apply").outputs[0]
    model = next(c for c in pipeline if c.info.get("method") == "isotonic").outputs[0]
    report = verify[0].outputs[0]

    def corrupt_apply_cell():
        lines = applied.read_bytes().split(b"\r\n")
        row = lines[5].split(b",")
        row[-1] = b"0.5" if row[-1] != b"0.5" else b"0.25"
        lines[5] = b",".join(row)
        applied.write_bytes(b"\r\n".join(lines))

    def truncate_model():
        data = model.read_bytes()
        model.write_bytes(data[: len(data) // 2])

    def flip_verdict():
        payload = json.loads(report.read_text())
        payload["passed"] = not payload["passed"]
        report.write_text(json.dumps(payload))

    missing = work / "no-such-model.json"
    failing = [c for c in pipeline if c.kind != "apply"] + [
        Command("apply", ("apply", "--model", str(missing), "--in", str(work / "cal.csv"),
                          "--out", str(work / "x.csv")), (work / "x.csv",), info={"method": "missing"})
    ]
    cases = [
        ("clean pipeline", pipeline, None, False),
        ("clean verify", verify, None, False),
        ("corrupted apply cell", pipeline, corrupt_apply_cell, True),
        ("truncated model file", pipeline, truncate_model, True),
        ("command exits nonzero", failing, None, True),
        ("flipped verify verdict", verify, flip_verdict, True),
    ]
    problems = []
    try:
        for name, commands, corrupt, should_fail in cases:
            frac, errors = failed_after(checker, env, work, commands, corrupt)
            flagged = [f"{label}: {m}" for label, ms in errors.items() for m in ms]
            print(f"{name}: failed_frac={frac:.3f}", *flagged[:3], sep="\n  ")
            if (frac > 0) != should_fail:
                problems.append(f"{name}: failed_frac={frac}, expected {'> 0' if should_fail else '0'}")

        spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
        for mode, key in ((0, "end_to_end"), (1, "per_layer")):
            run = bench.Run("selftest", 0, pipeline + verify)
            if mode:
                metrics, _ = bench.measure_traced(run, checker, env)
            else:
                metrics, _ = bench.measure_cli(run, checker, env, work, 0)
            for entry in spec[key]:
                got = metrics.get(entry["name"])
                if got is None or got[1] != entry["unit"]:
                    problems.append(f"--trace {mode}: {entry['name']} [{entry['unit']}] emitted as {got}")
            if run.failed or run.run_errors:
                problems.append(f"--trace {mode}: clean run reported {run.errors} {run.run_errors}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in problems:
        print("PROBLEM", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
