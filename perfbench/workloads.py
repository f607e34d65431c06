"""The benchmark's workloads: which probcal commands each one runs.

Every workload is a fixed list of CLI invocations built from the workload
seed. The program sees only the flags and the files that its own
``probcal simulate`` writes from that seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

CURVE = "square"
KINDS = ("simulate", "fit", "apply", "eval", "verify")
ALL_METHODS = ("histogram", "histogram-width", "platt", "isotonic", "kde", "kde-shared", "dpm")

# verify checks with their default grids and fewer trials than the CLI
# defaults, so that one pass stays within the run budget
VERIFY_CHECKS = (
    ("mce-bound", ("--trials", "10")),
    ("ece-rate", ("--trials", "3")),
    ("auc-loss", ("--trials", "2")),
    ("theta-conc", ("--trials", "50")),
    ("size-sweep", ("--trials", "2")),
)


@dataclass(frozen=True)
class Command:
    """One probcal CLI invocation and what the checks need to know about it."""

    kind: str                       # one of KINDS
    argv: tuple[str, ...]           # arguments after the program name
    outputs: tuple[Path, ...]       # files the command writes
    ok_codes: tuple[int, ...] = (0,)
    info: dict = field(default_factory=dict, compare=False)

    @property
    def label(self) -> str:
        detail = self.info.get("method") or self.info.get("check") or self.info.get("role", "")
        return f"{self.kind}:{detail}" if detail else self.kind


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    rows: int = 0                   # rows per simulated file (pipelines only)
    separate_test: bool = False     # simulate a second file to apply and evaluate on
    fit_methods: tuple[str, ...] = ()
    apply_methods: tuple[str, ...] = ()
    eval_method: str | None = None
    verify_checks: tuple = ()

    def commands(self, seed: int, work: Path) -> list[Command]:
        if self.verify_checks:
            return _verify_commands(self, seed, work)
        return _pipeline_commands(self, seed, work)


def _pipeline_commands(w: Workload, seed: int, work: Path) -> list[Command]:
    cal = work / "cal.csv"
    test = work / "test.csv" if w.separate_test else cal
    files = [("cal", cal, seed)]
    if w.separate_test:
        files.append(("test", test, seed + 1))
    cmds = [
        Command(
            "simulate",
            ("simulate", "--kind", "oracle", "--curve", CURVE, "--n", str(w.rows),
             "--seed", str(s), "--out", str(path)),
            (path,),
            info={"role": role, "rows": w.rows, "seed": s},
        )
        for role, path, s in files
    ]
    data = {"cal": (w.rows, seed), "test": (w.rows, files[-1][2])}
    model = {m: work / f"model-{m}.json" for m in w.fit_methods}
    for method in w.fit_methods:
        extra = ("--seed", str(seed)) if method == "dpm" else ()
        cmds.append(
            Command(
                "fit",
                ("fit", "--method", method, "--in", str(cal), "--out", str(model[method])) + extra,
                (model[method],),
                info={"method": method, "data": data["cal"], "seed": seed},
            )
        )
    for method in w.apply_methods:
        out = work / f"applied-{method}.csv"
        cmds.append(
            Command(
                "apply",
                ("apply", "--model", str(model[method]), "--in", str(test), "--out", str(out)),
                (out,),
                info={"method": method, "data": data["test"], "input": test, "model": model[method]},
            )
        )
    if w.eval_method:
        metrics_csv, bins_csv = work / "eval.csv", work / "eval-bins.csv"
        cmds.append(
            Command(
                "eval",
                ("eval", "--in", str(test), "--model", str(model[w.eval_method]),
                 "--out", str(metrics_csv), "--reliability-out", str(bins_csv)),
                (metrics_csv, bins_csv),
                info={"method": w.eval_method, "data": data["test"], "model": model[w.eval_method]},
            )
        )
    return cmds


def _verify_commands(w: Workload, seed: int, work: Path) -> list[Command]:
    cmds = []
    for check, extra in w.verify_checks:
        json_out, csv_out = work / f"verify-{check}.json", work / f"verify-{check}.csv"
        cmds.append(
            Command(
                "verify",
                ("verify", check, "--seed", str(seed), *extra,
                 "--json-out", str(json_out), "--csv-out", str(csv_out)),
                (json_out, csv_out),
                ok_codes=(0, 1),
                info={"check": check},
            )
        )
    return cmds


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="pipeline-4e5",
            why="row volume dominates: CSV parse and write, 10-20 MB model files, PAV and KDE sums; harness absent",
            rows=400_000,
            separate_test=True,
            fit_methods=("histogram", "isotonic", "kde"),
            apply_methods=("histogram", "isotonic", "kde"),
            eval_method="histogram",
        ),
        Workload(
            name="pipeline-1e4",
            why="per-command fixed cost dominates: interpreter and import; covers all 7 fit methods; CSV and serialize idle",
            rows=10_000,
            fit_methods=ALL_METHODS,
            apply_methods=ALL_METHODS,
            eval_method="histogram",
        ),
        Workload(
            name="verify-mc",
            why="Monte-Carlo trials dominate: generate, fit, predict, reliability, AUC; no CSV read, no model written",
            verify_checks=VERIFY_CHECKS,
        ),
    )
}
