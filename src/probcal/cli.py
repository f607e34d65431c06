"""Command-line interface.

Subcommands: fit, apply, eval, simulate, verify. Exit codes: 0 success,
1 verification assertion failed, 2 input error, 3 fit error. All flags are
long-form; every command that uses randomness takes --seed.
"""

from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

from .binning import HistogramCalibrator
from .data import load_scored_csv, read_scored_rows
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
from .serialize import format_float, load_model, save_model
from .synth import CURVES, OracleSpec, generate_oracle, generate_xor

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_INPUT = 2
EXIT_FIT = 3

METHODS = ("histogram", "histogram-width", "platt", "isotonic", "kde", "kde-shared", "dpm")


class InputError(Exception):
    """Problem with files, flags, or data contents (exit 2)."""


class FitError(Exception):
    """Calibrator could not be fitted (exit 3)."""


def _build_calibrator(args):
    method = args.method
    iteration = {
        name: value
        for name, value in (("max_iter", args.max_iter), ("tol", args.tol))
        if value is not None
    }
    if method == "histogram":
        return HistogramCalibrator(n_bins=args.bins, scheme="frequency")
    if method == "histogram-width":
        return HistogramCalibrator(n_bins=args.bins, scheme="width")
    if method == "platt":
        return PlattCalibrator(**iteration)
    if method == "isotonic":
        return IsotonicCalibrator()
    if method == "kde":
        return KDECalibrator(shared_bandwidth=False)
    if method == "kde-shared":
        return KDECalibrator(shared_bandwidth=True)
    if method == "dpm":
        return DPMCalibrator(
            truncation=args.truncation, alpha=args.alpha, seed=args.seed, **iteration
        )
    raise InputError(f"unknown method {method!r}")


def _load_dataset(path, score_column, label_column):
    try:
        return load_scored_csv(path, score_column=score_column, label_column=label_column)
    except (FileNotFoundError, ValueError) as exc:
        raise InputError(str(exc)) from exc


def cmd_fit(args) -> int:
    data = _load_dataset(args.infile, args.score_column, args.label_column)
    calibrator = _build_calibrator(args)
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
    try:
        model = load_model(args.model)
        fieldnames, scores, _, rows = read_scored_rows(
            args.infile, args.score_column, keep_rows=True
        )
    except (FileNotFoundError, ValueError) as exc:
        raise InputError(str(exc)) from exc
    if args.column in fieldnames:
        raise InputError(
            f"{args.infile}: column {args.column!r} already exists; refusing to replace it"
        )
    calibrated = model.predict(scores) if scores.size else np.empty(0)
    with open(args.outfile, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(fieldnames + [args.column])
        for row, value in zip(rows, calibrated):
            writer.writerow([row[name] for name in fieldnames] + [format_float(value)])
    print(f"{len(rows)} rows calibrated; written to {args.outfile}")
    return EXIT_OK


def cmd_eval(args) -> int:
    prediction_column = args.prediction_column or args.score_column
    data = _load_dataset(args.infile, prediction_column, args.label_column)
    predictions = data.scores
    auc_loss = None
    if args.model is not None:
        try:
            model = load_model(args.model)
        except (FileNotFoundError, ValueError) as exc:
            raise InputError(str(exc)) from exc
        raw = _load_dataset(args.infile, args.score_column, args.label_column)
        predictions = model.predict(raw.scores)
        try:
            auc_loss = auc(raw.scores, raw.labels) - auc(predictions, raw.labels)
        except ValueError:
            auc_loss = None
    try:
        report = evaluate(predictions, data.labels, num_bins=args.bins, scheme=args.scheme)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    print(f"RMSE {report.rmse:.6f}")
    print(f"AUC  {report.auc:.6f}")
    print(f"ACC  {report.accuracy:.6f}")
    print(f"MCE  {report.mce:.6f}")
    print(f"ECE  {report.ece:.6f}")
    if auc_loss is not None:
        print(f"AUC loss vs raw scores {auc_loss:.6f}")
    if args.outfile is not None:
        header = ["rmse", "auc", "accuracy", "mce", "ece"]
        values = [report.rmse, report.auc, report.accuracy, report.mce, report.ece]
        if auc_loss is not None:
            header.append("auc_loss")
            values.append(auc_loss)
        with open(args.outfile, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            writer.writerow([format_float(v) for v in values])
    if args.reliability_out is not None:
        write_reliability_csv(report.bins, args.reliability_out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    try:
        if args.kind == "oracle":
            spec = OracleSpec(curve=args.curve, level=args.level)
            data = generate_oracle(spec, args.n, args.seed)
            header = ["score", "label"]
            rows = ([format_float(s), int(z)] for s, z in zip(data.scores, data.labels))
        else:
            data = generate_xor(args.n, noise_sd=args.noise_sd, seed=args.seed)
            header = ["x1", "x2", "label"]
            rows = (
                [format_float(x[0]), format_float(x[1]), int(z)]
                for x, z in zip(data.features, data.labels)
            )
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    with open(args.outfile, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)
    print(f"{args.n} rows written to {args.outfile}")
    return EXIT_OK


def _finish_verify(report, args) -> int:
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


def cmd_verify(args) -> int:
    try:
        spec = OracleSpec(curve=args.curve, level=args.level)
        if args.check == "mce-bound":
            report = verify_mce_bound(
                spec,
                n_cal=args.n,
                n_bins=args.bins,
                delta=args.delta,
                trials=args.trials,
                n_test=args.test_size,
                seed=args.seed,
            )
        elif args.check == "ece-rate":
            report = verify_ece_rate(
                spec,
                n_bins=args.bins,
                n_grid=args.n_grid,
                trials=args.trials,
                seed=args.seed,
            )
        elif args.check == "auc-loss":
            report = verify_auc_loss(
                spec,
                n_cal=args.n,
                bin_grid=args.bin_grid,
                trials=args.trials,
                seed=args.seed,
            )
        elif args.check == "theta-conc":
            report = verify_theta_concentration(
                spec,
                n_cal=args.n,
                n_bins=args.bins,
                epsilon_grid=args.epsilon_grid,
                trials=args.trials,
                seed=args.seed,
            )
        else:
            report = calibration_size_sweep(
                oracle_generator(spec),
                sizes=args.sizes,
                trials=args.trials,
                seed=args.seed,
                n_test=args.test_size,
                n_bins=args.bins,
            )
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    return _finish_verify(report, args)


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

    mce_p = checks.add_parser("mce-bound", help="high-probability MCE bound")
    mce_p.add_argument("--n", type=int, default=1000, help="calibration-set size")
    mce_p.add_argument("--bins", type=int, default=10)
    mce_p.add_argument("--delta", type=float, default=0.05)
    mce_p.add_argument("--trials", type=int, default=200)
    mce_p.add_argument("--test-size", type=int, default=None)
    common(mce_p)

    ece_p = checks.add_parser("ece-rate", help="ECE decay rate in the calibration size")
    ece_p.add_argument("--bins", type=int, default=10)
    ece_p.add_argument("--n-grid", type=_int_list, default=[1_000, 10_000, 100_000])
    ece_p.add_argument("--trials", type=int, default=50)
    common(ece_p)

    auc_p = checks.add_parser("auc-loss", help="average AUC loss against 1/(2B)")
    auc_p.add_argument("--n", type=int, default=100_000, help="calibration-set size")
    auc_p.add_argument("--bin-grid", type=_int_list, default=[5, 10, 20, 50])
    auc_p.add_argument("--trials", type=int, default=20)
    common(auc_p)

    theta_p = checks.add_parser("theta-conc", help="per-bin rate concentration vs Hoeffding")
    theta_p.add_argument("--n", type=int, default=10_000, help="calibration-set size")
    theta_p.add_argument("--bins", type=int, default=10)
    theta_p.add_argument("--epsilon-grid", type=_float_list, default=[0.01, 0.02, 0.05, 0.1])
    theta_p.add_argument("--trials", type=int, default=500)
    common(theta_p)

    sweep_p = checks.add_parser("size-sweep", help="MCE/ECE against calibration-set size")
    sweep_p.add_argument("--sizes", type=_int_list, default=[100, 1_000, 10_000])
    sweep_p.add_argument("--trials", type=int, default=10)
    sweep_p.add_argument("--test-size", type=int, default=100_000)
    sweep_p.add_argument("--bins", type=int, default=None, help="fixed bin count (default: cube-root rule)")
    common(sweep_p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return args.handler(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except FitError as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return EXIT_FIT


def run() -> None:
    raise SystemExit(main())
