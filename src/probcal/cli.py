"""Command-line interface, a thin layer over the library.

Subcommands: fit, apply, eval, simulate, verify. ``METHODS`` maps each fit
method to a calibrator constructor; verify flags are stored under the keyword
names of the harness routine they feed. Exit codes, all set in ``main``: 0
success, 1 verification assertion failed, 2 input error (bad flag, unreadable
or malformed input, unwritable output), 3 fit error. Errors and calibrator
warnings print as one line each. Every command that uses randomness takes --seed.
"""

from __future__ import annotations

import argparse
import sys
import warnings

from .binning import HistogramCalibrator
from .data import format_cells, load_scored_csv, read_scored_rows, write_csv
from .density import DPMCalibrator, KDECalibrator
from .harness import (
    calibration_size_sweep,
    oracle_generator,
    verify_auc_loss,
    verify_ece_rate,
    verify_mce_bound,
    verify_theta_concentration,
    write_sweep_csv,
    write_sweep_json,
)
from .metrics import SCHEMES, auc, evaluate, write_reliability_csv
from .monotone import IsotonicCalibrator, PlattCalibrator
from .serialize import load_model, save_model
from .synth import CURVES, OracleSpec, generate_oracle, generate_xor

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_INPUT = 2
EXIT_FIT = 3


class FitError(Exception):
    """Calibrator could not be fitted (exit 3)."""


def _iteration(args) -> dict:
    """--max-iter and --tol where given, so the calibrator's defaults apply otherwise."""
    return {k: v for k, v in (("max_iter", args.max_iter), ("tol", args.tol)) if v is not None}


METHODS = {
    "histogram": lambda args: HistogramCalibrator(n_bins=args.bins, scheme="frequency"),
    "histogram-width": lambda args: HistogramCalibrator(n_bins=args.bins, scheme="width"),
    "platt": lambda args: PlattCalibrator(**_iteration(args)),
    "isotonic": lambda args: IsotonicCalibrator(),
    "kde": lambda args: KDECalibrator(shared_bandwidth=False),
    "kde-shared": lambda args: KDECalibrator(shared_bandwidth=True),
    "dpm": lambda args: DPMCalibrator(
        truncation=args.truncation, alpha=args.alpha, seed=args.seed, **_iteration(args)
    ),
}


_BLOCK_ROWS = 1 << 14  # rows that simulate formats and writes at a time


def cmd_fit(args) -> int:
    data = load_scored_csv(args.infile, score_column=args.score_column, label_column=args.label_column)
    calibrator = METHODS[args.method](args)
    try:
        calibrator.fit(data.scores, data.labels)
    except ValueError as exc:
        raise FitError(str(exc)) from exc
    save_model(calibrator, args.outfile)
    print(f"method: {args.method}")
    print(f"samples: {data.n_samples} ({data.n_pos} positive, {data.n_neg} negative)")
    print(calibrator.describe())
    print(f"model written to {args.outfile}")
    return EXIT_OK


def cmd_apply(args) -> int:
    model = load_model(args.model)
    fieldnames, scores, _, rows = read_scored_rows(args.infile, args.score_column, keep_rows=True)
    if args.column in fieldnames:
        raise ValueError(f"{args.infile}: column {args.column!r} already exists; refusing to replace it")
    # predicted whole, so no bit depends on the blocks the rows are written in
    calibrated = model.predict(scores) if scores.size else scores

    def blocks():
        start = 0
        for block in rows:
            yield block, calibrated[start : start + len(block)]
            start += len(block)

    write_csv(args.outfile, fieldnames + [args.column], blocks())
    print(f"{scores.size} rows calibrated; written to {args.outfile}")
    return EXIT_OK


def cmd_eval(args) -> int:
    if args.model is not None and args.prediction_column is not None:
        raise ValueError("--model and --prediction-column cannot be combined")
    column = args.prediction_column or args.score_column
    data = load_scored_csv(args.infile, score_column=column, label_column=args.label_column)
    predictions = data.scores if args.model is None else load_model(args.model).predict(data.scores)
    report = evaluate(predictions, data.labels, num_bins=args.bins, scheme=args.scheme)
    auc_loss = None if args.model is None else auc(data.scores, data.labels) - report.auc
    print(f"RMSE {report.rmse:.6f}")
    print(f"AUC  {report.auc:.6f}")
    print(f"ACC  {report.accuracy:.6f}")
    print(f"MCE  {report.mce:.6f}")
    print(f"ECE  {report.ece:.6f}")
    if auc_loss is not None:
        print(f"AUC loss vs raw scores {auc_loss:.6f}")
    if args.outfile is not None:
        values = {"rmse": report.rmse, "auc": report.auc, "accuracy": report.accuracy, "mce": report.mce,
                  "ece": report.ece, **({} if auc_loss is None else {"auc_loss": auc_loss})}
        write_csv(args.outfile, list(values), [[[cell] for cell in format_cells(values.values())]])
    if args.reliability_out is not None:
        write_reliability_csv(report.bins, args.reliability_out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.kind == "oracle":
        data = generate_oracle(OracleSpec(curve=args.curve, level=args.level), args.n, args.seed)
        header, columns = ["score", "label"], [data.scores, data.labels]
    else:
        data = generate_xor(args.n, noise_sd=args.noise_sd, seed=args.seed)
        header, columns = ["x1", "x2", "label"], [data.features[:, 0], data.features[:, 1], data.labels]
    blocks = ([column[i : i + _BLOCK_ROWS] for column in columns] for i in range(0, len(data), _BLOCK_ROWS))
    write_csv(args.outfile, header, blocks)
    print(f"{args.n} rows written to {args.outfile}")
    return EXIT_OK


def cmd_verify(args) -> int:
    # built per call, so a routine rebound on this module (say, by a tracer) is the one called
    routines = {
        "mce-bound": verify_mce_bound,
        "ece-rate": verify_ece_rate,
        "auc-loss": verify_auc_loss,
        "theta-conc": verify_theta_concentration,
        "size-sweep": lambda spec, **kw: calibration_size_sweep(oracle_generator(spec), **kw),
    }
    own = ("command", "check", "handler", "curve", "level", "csv_out", "json_out")
    options = {k: v for k, v in vars(args).items() if k not in own}
    report = routines[args.check](OracleSpec(curve=args.curve, level=args.level), **options)
    if report.slope is not None:
        print(f"slope: {report.slope:.4f}")
    for point in report.points:
        parts = "  ".join(f"{k}={format(v, '.6g')}" for k, v in point.summary.items())
        print(parts)
    for assertion in report.assertions:
        status = "PASS" if assertion.passed else "FAIL"
        print(
            f"[{status}] {assertion.name}: observed {assertion.observed:.6g}, "
            f"limit {assertion.limit:.6g}"
        )
    for note in report.notes:
        print(f"note: {note}")
    if args.csv_out is not None:
        write_sweep_csv(report, args.csv_out)
    if args.json_out is not None:
        write_sweep_json(report, args.json_out)
    return EXIT_OK if report.passed else EXIT_ASSERTION


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _float_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated reals, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="probcal",
        description="Probability calibration for binary classifier scores.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    fit = commands.add_parser("fit", help="fit a calibrator on a scored CSV")
    fit.add_argument("--method", required=True, choices=METHODS)
    fit.add_argument("--in", dest="infile", required=True, help="scored CSV path")
    fit.add_argument("--out", dest="outfile", required=True, help="model JSON path")
    fit.add_argument("--score-column", default="score")
    fit.add_argument("--label-column", default="label")
    fit.add_argument("--bins", type=int, default=None, help="histogram bin count (default: cube-root rule)")
    fit.add_argument("--truncation", type=int, default=20, help="mixture truncation level for dpm")
    fit.add_argument("--alpha", type=float, default=1.0, help="stick-breaking concentration for dpm")
    fit.add_argument("--max-iter", type=int, default=None)
    fit.add_argument("--tol", type=float, default=None)
    fit.add_argument("--seed", type=int, default=0)
    fit.set_defaults(handler=cmd_fit)

    apply_cmd = commands.add_parser("apply", help="append a calibrated column to a CSV")
    apply_cmd.add_argument("--model", required=True)
    apply_cmd.add_argument("--in", dest="infile", required=True)
    apply_cmd.add_argument("--out", dest="outfile", required=True)
    apply_cmd.add_argument("--score-column", default="score")
    apply_cmd.add_argument("--column", default="calibrated", help="name of the appended column")
    apply_cmd.set_defaults(handler=cmd_apply)

    eval_cmd = commands.add_parser("eval", help="evaluate predictions against labels")
    eval_cmd.add_argument("--in", dest="infile", required=True)
    eval_cmd.add_argument("--model", default=None, help="apply this model to the score column first")
    eval_cmd.add_argument("--score-column", default="score")
    eval_cmd.add_argument("--label-column", default="label")
    eval_cmd.add_argument("--prediction-column", default=None, help="evaluate this column as-is (no model)")
    eval_cmd.add_argument("--bins", type=int, default=10)
    eval_cmd.add_argument("--scheme", choices=SCHEMES, default="frequency")
    eval_cmd.add_argument("--out", dest="outfile", default=None, help="metrics CSV path")
    eval_cmd.add_argument("--reliability-out", default=None, help="per-bin CSV path")
    eval_cmd.set_defaults(handler=cmd_eval)

    simulate = commands.add_parser("simulate", help="generate synthetic datasets")
    simulate.add_argument("--kind", required=True, choices=("oracle", "xor"))
    simulate.add_argument("--n", type=int, required=True)
    simulate.add_argument("--out", dest="outfile", required=True)
    simulate.add_argument("--curve", choices=CURVES, default="identity")
    simulate.add_argument("--level", type=float, default=0.5, help="constant-curve positive rate")
    simulate.add_argument("--noise-sd", type=float, default=0.3)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.set_defaults(handler=cmd_simulate)

    verify = commands.add_parser("verify", help="run a Monte-Carlo bound verification")
    checks = verify.add_subparsers(dest="check", required=True)

    def common(sub):
        sub.add_argument("--curve", choices=CURVES, default="identity")
        sub.add_argument("--level", type=float, default=0.5)
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument("--csv-out", default=None)
        sub.add_argument("--json-out", default=None)
        sub.set_defaults(handler=cmd_verify)

    # dest names are the keyword arguments of the harness routine each check calls
    mce_p = checks.add_parser("mce-bound", help="high-probability MCE bound")
    mce_p.add_argument("--n", dest="n_cal", metavar="N", type=int, default=1000, help="calibration-set size")
    mce_p.add_argument("--bins", dest="n_bins", metavar="BINS", type=int, default=10)
    mce_p.add_argument("--delta", type=float, default=0.05)
    mce_p.add_argument("--trials", type=int, default=200)
    mce_p.add_argument("--test-size", dest="n_test", metavar="TEST_SIZE", type=int, default=None)
    common(mce_p)

    ece_p = checks.add_parser("ece-rate", help="ECE decay rate in the calibration size")
    ece_p.add_argument("--bins", dest="n_bins", metavar="BINS", type=int, default=10)
    ece_p.add_argument("--n-grid", type=_int_list, default=[1_000, 10_000, 100_000])
    ece_p.add_argument("--trials", type=int, default=50)
    common(ece_p)

    auc_p = checks.add_parser("auc-loss", help="average AUC loss against 1/(2B)")
    auc_p.add_argument("--n", dest="n_cal", metavar="N", type=int, default=100_000, help="calibration-set size")
    auc_p.add_argument("--bin-grid", type=_int_list, default=[5, 10, 20, 50])
    auc_p.add_argument("--trials", type=int, default=20)
    common(auc_p)

    theta_p = checks.add_parser("theta-conc", help="per-bin rate concentration vs Hoeffding")
    theta_p.add_argument("--n", dest="n_cal", metavar="N", type=int, default=10_000, help="calibration-set size")
    theta_p.add_argument("--bins", dest="n_bins", metavar="BINS", type=int, default=10)
    theta_p.add_argument("--epsilon-grid", type=_float_list, default=[0.01, 0.02, 0.05, 0.1])
    theta_p.add_argument("--trials", type=int, default=500)
    common(theta_p)

    sweep_p = checks.add_parser("size-sweep", help="MCE/ECE against calibration-set size")
    sweep_p.add_argument("--sizes", type=_int_list, default=[100, 1_000, 10_000])
    sweep_p.add_argument("--trials", type=int, default=10)
    sweep_p.add_argument("--test-size", dest="n_test", metavar="TEST_SIZE", type=int, default=100_000)
    sweep_p.add_argument(
        "--bins", dest="n_bins", metavar="BINS", type=int, default=None,
        help="fixed bin count (default: cube-root rule)",
    )
    common(sweep_p)

    return parser


def main(argv=None) -> int:
    with warnings.catch_warnings():  # restores the caller's warning display on return
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            args = build_parser().parse_args(argv)
            return args.handler(args)
        except SystemExit as exc:  # from argparse: 0 after --help, 2 (EXIT_INPUT) for a bad flag
            return exc.code or EXIT_OK
        except FitError as exc:
            print(f"fit error: {exc}", file=sys.stderr)
            return EXIT_FIT
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
