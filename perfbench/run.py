"""Benchmark of the probcal CLI: end-to-end command times and a traced per-module run.

Run from the root of a checkout (the directory that holds ``src/probcal``):

    python3 perfbench/run.py --workload pipeline-4e5 --seed 1 --seconds 10 --trace 0

With ``--trace 0`` every command runs as its own ``probcal`` process, one at
a time (a closed loop with one client), and the end-to-end metrics are
reported. With ``--trace 1`` the same command list runs in this process
through ``probcal.cli.main``: untraced, then with spans recorded around
each module's public functions, then untraced again, and the per-layer
metrics are reported. Both modes check every output. The last line of standard output
is one JSON object; a fuller record, with the environment and a SHA-256 of
every output, goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import NamedTuple

from workloads import KINDS, WORKLOADS

ROOT = Path.cwd()
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
PROBCAL = (sys.executable, "-c", "from probcal.cli import run; run()")
SETUP_SAMPLES = 3
IMPORT_SAMPLES = 3
COMMAND_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
EXACT_UNITS = ("count", "bytes", "calls/trial")  # figures that must repeat exactly for a seed


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measure whole passes until this many seconds have gone")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env(nproc: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in THREAD_VARS:
        env[var] = str(nproc)
    return env


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(env: dict, nproc: int) -> dict:
    import numpy
    import scipy

    cpu = next(
        (line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
         if line.startswith("model name")),
        platform.processor(),
    )
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "cpu": cpu,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_sha256": source_digest(),
        "threads": {var: env[var] for var in THREAD_VARS},
    }


def written_bytes(commands, kind=None) -> int:
    """Total size of the files the commands (of one kind, if given) wrote."""
    return sum(
        path.stat().st_size
        for cmd in commands if kind in (None, cmd.kind)
        for path in cmd.outputs if path.is_file()
    )


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class Outcome(NamedTuple):
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str


def run_process(argv, env, work: Path) -> Outcome:
    """Run one process to completion and measure it."""
    with open(work / "stdout.txt", "w+") as out, open(work / "stderr.txt", "w+") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=work, stdout=out, stderr=err)
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    if proc.returncode not in (0, 1):
        print(stderr.strip()[-2000:], file=sys.stderr)
    return Outcome(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, stdout)


def setup_seconds(env, work: Path) -> float:
    """Median wall time of a fresh interpreter importing probcal.cli.

    The median also drops the one slow sample of a first run in a fresh
    checkout, which writes the bytecode cache.
    """
    argv = (sys.executable, "-c", "import probcal.cli")
    samples = []
    for _ in range(SETUP_SAMPLES):
        outcome = run_process(argv, env, work)
        if outcome.code != 0:
            raise RuntimeError("import probcal.cli failed")
        samples.append(outcome.wall_s)
    return statistics.median(samples)


def run_in_process(main, argv):
    """Call probcal.cli.main(argv) here: (exit code, wall seconds, stdout)."""
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(list(argv))
        except Exception:
            code = -1
            print(traceback.format_exc(), file=sys.__stderr__)
    return code, time.perf_counter() - start, out.getvalue()


class Run:
    """Everything one benchmark run records."""

    def __init__(self, workload, seed, commands):
        self.workload, self.seed, self.commands = workload, seed, commands
        self.errors = {cmd.label: [] for cmd in commands}
        self.run_errors = []
        self.hashes = {}
        self.records = []

    def fail(self, label, message):
        self.errors[label].append(message)

    def hash_outputs(self, pass_name):
        """Hash every output; a repeat that wrote different bytes fails its command."""
        for cmd in self.commands:
            for path in cmd.outputs:
                if not path.is_file():
                    continue  # the output check reports the missing file
                digest = sha256(path)
                seen = self.hashes.setdefault(path.name, digest)
                if seen != digest:
                    self.fail(cmd.label, f"{path.name}: {pass_name} wrote different bytes than an earlier pass")

    def check_record(self, counts: dict, digest: str):
        """Compare hashes and exact counts with earlier runs of the same seed and source."""
        path = STATE / "records" / f"{self.workload}-seed{self.seed}-{digest[:16]}.json"
        record = json.loads(path.read_text()) if path.is_file() else {"hashes": {}, "counts": {}}
        for key, table in (("hashes", self.hashes), ("counts", counts)):
            for name, value in table.items():
                if record[key].setdefault(name, value) != value:
                    self.run_errors.append(
                        f"{name}: {value} differs from {record[key][name]} in an earlier run with this seed"
                    )
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(record, indent=1, sort_keys=True))

    @property
    def failed(self) -> int:
        return sum(1 for errors in self.errors.values() if errors)


def check_outputs(run, checker, outcomes):
    for cmd, (code, stdout) in zip(run.commands, outcomes):
        try:
            for message in checker.check(cmd, code, stdout):
                run.fail(cmd.label, message)
        except Exception as exc:
            run.fail(cmd.label, f"check raised {type(exc).__name__}: {exc}")


def measure_cli(run, checker, env, work, seconds):
    """Timed passes of separate processes; each pass is followed by its output checks."""
    setup = setup_seconds(env, work)
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        outcomes = [run_process(PROBCAL + cmd.argv, env, work) for cmd in run.commands]
        check_outputs(run, checker, [(o.code, o.stdout) for o in outcomes])
        run.hash_outputs(f"pass {len(passes) + 1}")
        passes.append(outcomes)
    run.records = [
        {"command": cmd.label, **o._replace(stdout=None)._asdict()}
        for outcomes in passes for cmd, o in zip(run.commands, outcomes)
    ]
    per_pass = []
    for outcomes in passes:
        walls = [o.wall_s for o in outcomes]
        figures = {
            "commands_s": (sum(walls), "s"),
            "peak_rss_mb": (max(o.rss_mb for o in outcomes), "MB"),
        }
        for kind in KINDS:
            kind_walls = [w for cmd, w in zip(run.commands, walls) if cmd.kind == kind]
            figures[f"{kind}_s"] = (sum(kind_walls), "s")
        per_pass.append(figures)
    metrics = {
        name: (statistics.median(p[name][0] for p in per_pass), unit)
        for name, (_, unit) in per_pass[0].items()
    }
    metrics["setup_s"] = (setup, "s")
    metrics["output_bytes"] = (written_bytes(run.commands), "bytes")
    metrics["model_bytes"] = (written_bytes(run.commands, "fit"), "bytes")
    metrics["passes"] = (len(passes), "count")
    return metrics, {"model_bytes": metrics["model_bytes"][0], "output_bytes": metrics["output_bytes"][0]}


def in_process_pass(run, main, label):
    outcomes = [run_in_process(main, cmd.argv) for cmd in run.commands]
    for cmd, (code, _, _) in zip(run.commands, outcomes):
        if code not in cmd.ok_codes:
            run.fail(cmd.label, f"{label}: exit code {code}")
    run.hash_outputs(label)
    return outcomes


def measure_traced(run, checker, env):
    """Untraced, traced and untraced again in this process; per-layer figures from the traced pass."""
    import probcal.cli
    import tracing

    imports = tracing.import_metrics(env, IMPORT_SAMPLES)
    recorder = tracing.Recorder()

    def traced_main(argv):
        return recorder.call(f"cli.{argv[0]}", probcal.cli.main, (argv,), {})

    before = in_process_pass(run, probcal.cli.main, "the first untraced in-process pass")
    recorder.install()
    try:
        traced = in_process_pass(run, traced_main, "the traced in-process pass")
    finally:
        recorder.uninstall()
    after = in_process_pass(run, probcal.cli.main, "the second untraced in-process pass")
    check_outputs(run, checker, [(code, stdout) for code, _, stdout in traced])

    # the root span of each command and its children must account for its wall time
    self_times = recorder.self_times()
    roots = [(i, span) for i, span in enumerate(recorder.spans) if span[3] < 0]
    for (i, (name, start, end, _)), (_, wall, _) in zip(roots, traced):
        if not 0 <= wall - (end - start) <= 0.01 * wall + 1e-3:
            run.run_errors.append(f"{name}: span {end - start:.4f}s does not cover wall {wall:.4f}s")
    if min(self_times, default=0.0) < -1e-6:
        run.run_errors.append("a span has negative self time: child spans overlap")
    if len(roots) != len(run.commands):
        run.run_errors.append(f"{len(roots)} root spans for {len(run.commands)} commands")

    # untraced passes on both sides of the traced one, so drift in machine speed cancels
    untraced_s = sum(wall for _, wall, _ in before + after) / 2
    traced_s = sum(wall for _, wall, _ in traced)
    run.records = [
        {"command": cmd.label, "exit_code": t[0], "untraced_s": [b[1], a[1]], "traced_s": t[1]}
        for cmd, b, t, a in zip(run.commands, before, traced, after)
    ]
    metrics = dict(imports)
    metrics.update(tracing.layer_metrics(recorder))
    metrics["trace.overhead_frac"] = ((traced_s - untraced_s) / untraced_s, "ratio")
    counts = {name: value for name, (value, unit) in metrics.items() if unit in EXACT_UNITS}
    model_bytes = written_bytes(run.commands, "fit")
    if counts["serialize.bytes_written"] != model_bytes:
        run.run_errors.append(
            f"serialize.bytes_written {counts['serialize.bytes_written']} != model files {model_bytes} bytes"
        )
    return metrics, counts


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "probcal" / "cli.py").is_file():
        print(f"error: {SRC / 'probcal'} not found; run from the root of a probcal checkout", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    env = child_env(nproc)
    for var in THREAD_VARS:
        os.environ[var] = env[var]  # before numpy loads in this process
    sys.path.insert(0, str(SRC))

    from checks import Checker

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    work = STATE / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    info = environment(env, nproc)
    run = Run(args.workload, args.seed, WORKLOADS[args.workload].commands(args.seed, work))
    try:
        if args.trace:
            metrics, counts = measure_traced(run, Checker(), env)
        else:
            metrics, counts = measure_cli(run, Checker(), env, work, args.seconds)
        run.check_record(counts, info["src_sha256"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(run.commands) * (3 if args.trace else int(metrics["passes"][0]))
    metrics["failed_frac"] = (run.failed / len(run.commands), "ratio")
    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "environment": info,
        "commands": run.records, "sha256": run.hashes, "errors": run.errors,
        "run_errors": run.run_errors, "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(result, indent=1))

    print("environment: " + json.dumps(info))
    for name, digest in run.hashes.items():
        print(f"sha256 {digest}  {name}")
    for label, errors in run.errors.items():
        for message in errors:
            print(f"FAILED {label}: {message}")
    for message in run.run_errors:
        print(f"FAILED run: {message}")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name:40s} {value:>16.6g} {unit}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    final = {
        "correct": run.failed == 0 and not run.run_errors,
        "attempted": attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
