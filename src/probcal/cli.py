"""Command-line interface, a thin layer over the library.

Subcommands: fit, apply, eval, simulate, verify. A flag that feeds a library
keyword has no default here: left unset, it is not passed, so the library's
default applies; a flag the chosen fit method, simulate kind or oracle curve
does not use is an input error. Only simulate, verify and ``fit --method dpm``
take --seed. verify calls the ``harness`` routine that ``CHECKS`` names.
Exit codes, all set in ``main``: 0 success, 1 verification assertion failed,
2 input error (bad or unused flag, unreadable or malformed input, unwritable
output, a size too large for memory), 3 fit error, 130 interrupted (SIGINT).
Errors, calibrator warnings and an interrupt print as one line each.
"""

from __future__ import annotations

import argparse
import sys
import warnings

from .binning import HistogramCalibrator
from .data import check_output_path, format_cells, load_scored_csv, read_scored_rows, write_csv
from .density import DPMCalibrator, KDECalibrator
from . import harness
from .harness import write_sweep_csv, write_sweep_json
from .metrics import SCHEMES, auc, evaluate, write_reliability_csv
from .monotone import IsotonicCalibrator, PlattCalibrator
from .serialize import load_model, save_model
from .synth import CURVES, OracleSpec, generate_oracle, generate_xor

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_INPUT = 2
EXIT_FIT = 3
EXIT_INTERRUPT = 130  # the shell's code for a command ended by SIGINT


class FitError(Exception):
    """Calibrator could not be fitted (exit 3)."""


class _Parser(argparse.ArgumentParser):
    """Reports a bad flag in argparse's one error line, without the usage block; subparsers inherit it."""

    def error(self, message):
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _list_of(kind, name: str):
    """A parser of comma-separated ``kind`` values, as taken by --n-grid."""

    def parse(text: str) -> list:
        try:
            return [kind(part) for part in text.split(",") if part.strip()]
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated {name}, got {text!r}")

    return parse


_INTS, _REALS = _list_of(int, "integers"), _list_of(float, "reals")

# flags as (option, library keyword, type or choices[, help])
_SEED = ("--seed", "seed", int)
_BINS = ("--bins", "n_bins", int)
_N_CAL = ("--n", "n_cal", int, "calibration-set size")
_TRIALS = ("--trials", "trials", int)
_TEST_SIZE = ("--test-size", "n_test", int)
_CURVE = ("--curve", "curve", CURVES)

FIT_FLAGS = (
    ("--bins", "n_bins", int, "histogram bin count (default: cube-root rule)"),
    ("--truncation", "truncation", int, "mixture truncation level for dpm"),
    ("--alpha", "alpha", float, "dpm stick-breaking concentration, in [1e-300, 1e300]"),
    ("--max-iter", "max_iter", int),
    ("--tol", "tol", float),
    _SEED,
)
EVAL_FLAGS = (("--bins", "num_bins", int), ("--scheme", "scheme", SCHEMES))
SIMULATE_FLAGS = (
    _CURVE, ("--level", "level", float, "constant-curve positive rate"), ("--noise-sd", "noise_sd", float)
)
VERIFY_FLAGS = (_CURVE, ("--level", "level", float), _SEED)  # every check's, after its own

# method: (calibrator class, fixed keywords, keywords its flags may set)
METHODS = {
    "histogram": (HistogramCalibrator, {"scheme": "frequency"}, ("n_bins",)),
    "histogram-width": (HistogramCalibrator, {"scheme": "width"}, ("n_bins",)),
    "platt": (PlattCalibrator, {}, ("max_iter", "tol")),
    "isotonic": (IsotonicCalibrator, {}, ()),
    "kde": (KDECalibrator, {"shared_bandwidth": False}, ()),
    "kde-shared": (KDECalibrator, {"shared_bandwidth": True}, ()),
    "dpm": (DPMCalibrator, {}, ("truncation", "alpha", "max_iter", "tol", "seed")),
}
# output destinations as (parsed attribute, flag), checked in this order by ``main``
OUTPUTS = (("outfile", "--out"), ("reliability_out", "--reliability-out"), ("csv_out", "--csv-out"),
           ("json_out", "--json-out"))
# simulate kind: the keywords its flags may set
KINDS = {"oracle": ("curve", "level"), "xor": ("noise_sd",)}
# verify check: (its harness routine, by name so that a rebinding on harness is called; help; its own flags)
CHECKS = {
    "mce-bound": ("verify_mce_bound", "high-probability MCE bound",
                  (_N_CAL, _BINS, ("--delta", "delta", float), _TRIALS, _TEST_SIZE)),
    "ece-rate": ("verify_ece_rate", "ECE decay rate in the calibration size",
                 (_BINS, ("--n-grid", "n_grid", _INTS), _TRIALS)),
    "auc-loss": ("verify_auc_loss", "average AUC loss against 1/(2B)",
                 (_N_CAL, ("--bin-grid", "bin_grid", _INTS), _TRIALS)),
    "theta-conc": ("verify_theta_concentration", "per-bin rate concentration vs Hoeffding",
                   (_N_CAL, _BINS, ("--epsilon-grid", "epsilon_grid", _REALS), _TRIALS)),
    "size-sweep": ("calibration_size_sweep", "MCE/ECE against calibration-set size",
                   (("--sizes", "sizes", _INTS), _TRIALS, _TEST_SIZE,
                    ("--bins", "n_bins", int, "fixed bin count (default: cube-root rule)"))),
}


def _add_flags(parser, flags) -> None:
    """Each flag stores its keyword only when given, under the metavar argparse derives from the option."""
    for option, keyword, kind, *text in flags:
        metavar = option[2:].upper().replace("-", "_")
        typed = {"choices": kind} if isinstance(kind, tuple) else {"type": kind, "metavar": metavar}
        help_text = text[0] if text else None
        parser.add_argument(option, dest=keyword, default=argparse.SUPPRESS, help=help_text, **typed)


def _options(args, flags, used=None, mode: str = "") -> dict:
    """The keywords of the flags set; one not in ``used`` (when given) is an input error."""
    options = {keyword: getattr(args, keyword) for _, keyword, *_ in flags if hasattr(args, keyword)}
    for option, keyword, *_ in flags:
        if keyword in options and used is not None and keyword not in used:
            raise ValueError(f"{option} is not used by {mode}")
    return options


_BLOCK_ROWS = 1 << 14  # rows that simulate formats and writes at a time


def cmd_fit(args) -> int:
    cls, fixed, used = METHODS[args.method]
    calibrator = cls(**fixed, **_options(args, FIT_FLAGS, used, f"--method {args.method}"))
    data = load_scored_csv(args.infile, score_column=args.score_column, label_column=args.label_column)
    try:
        calibrator.fit(data.scores, data.labels)
    except (ValueError, OverflowError, FloatingPointError) as exc:  # the last two: floats left their range
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
    calibrated = model.predict(scores)
    del model, scores  # the write's forked worker starts from this process's memory

    def blocks():
        start = 0
        for block in rows:
            yield block, calibrated[start : start + len(block)]
            start += len(block)

    write_csv(args.outfile, fieldnames + [args.column], blocks())
    print(f"{calibrated.size} rows calibrated; written to {args.outfile}")
    return EXIT_OK


def cmd_eval(args) -> int:
    data = load_scored_csv(args.infile, score_column=args.score_column, label_column=args.label_column)
    predictions = data.scores if args.model is None else load_model(args.model).predict(data.scores)
    report = evaluate(predictions, data.labels, **_options(args, EVAL_FLAGS))
    # (--out column, stdout label, value), in the order of both
    table = [("rmse", "RMSE", report.rmse), ("auc", "AUC ", report.auc),
             ("accuracy", "ACC ", report.accuracy), ("mce", "MCE ", report.mce), ("ece", "ECE ", report.ece)]
    if args.model is not None:
        table.append(("auc_loss", "AUC loss vs raw scores", auc(data.scores, data.labels) - report.auc))
    columns, labels, values = zip(*table)
    for label, value in zip(labels, values):
        print(f"{label} {value:.6f}")
    if args.outfile is not None:
        write_csv(args.outfile, list(columns), [[[cell] for cell in format_cells(values)]])
    if args.reliability_out is not None:
        write_reliability_csv(report.bins, args.reliability_out)
    return EXIT_OK


def _oracle_spec(options: dict) -> OracleSpec:
    """The oracle of the curve and level popped from ``options``; only the constant curve uses a level."""
    given = {keyword: options.pop(keyword) for keyword in ("curve", "level") if keyword in options}
    spec = OracleSpec(**given)
    if "level" in given and spec.curve != "constant":
        raise ValueError(f"--level is not used by --curve {spec.curve}")
    return spec


def cmd_simulate(args) -> int:
    options = _options(args, SIMULATE_FLAGS, KINDS[args.kind], f"--kind {args.kind}")
    if args.kind == "oracle":
        data = generate_oracle(_oracle_spec(options), args.n, args.seed)
        header, columns = ["score", "label"], [data.scores, data.labels]
    else:
        features, labels = generate_xor(args.n, seed=args.seed, **options)
        header, columns = ["x1", "x2", "label"], [features[:, 0], features[:, 1], labels]
    blocks = ([column[i : i + _BLOCK_ROWS] for column in columns] for i in range(0, args.n, _BLOCK_ROWS))
    write_csv(args.outfile, header, blocks)
    print(f"{args.n} rows written to {args.outfile}")
    return EXIT_OK


def cmd_verify(args) -> int:
    routine, _, flags = CHECKS[args.check]
    options = _options(args, flags + VERIFY_FLAGS)
    report = getattr(harness, routine)(_oracle_spec(options), **options)
    if report.slope is not None:
        print(f"slope: {report.slope:.4f}")
    for point in report.points:
        print("  ".join(f"{k}={format(v, '.6g')}" for k, v in point.summary.items()))
    for assertion in report.assertions:
        status = "PASS" if assertion.passed else "FAIL"
        print(f"[{status}] {assertion.name}: observed {assertion.observed:.6g}, limit {assertion.limit:.6g}")
    for note in report.notes:
        print(f"note: {note}")
    if args.csv_out is not None:
        write_sweep_csv(report, args.csv_out)
    if args.json_out is not None:
        write_sweep_json(report, args.json_out)
    return EXIT_OK if report.passed else EXIT_ASSERTION


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="probcal", description="Probability calibration for binary classifier scores."
    )
    commands = parser.add_subparsers(dest="command", required=True)

    fit = commands.add_parser("fit", help="fit a calibrator on a scored CSV")
    fit.add_argument("--method", required=True, choices=METHODS)
    fit.add_argument("--in", dest="infile", required=True, help="scored CSV path")
    fit.add_argument("--out", dest="outfile", required=True, help="model JSON path")
    fit.add_argument("--score-column", default="score")
    fit.add_argument("--label-column", default="label")
    _add_flags(fit, FIT_FLAGS)
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
    _add_flags(eval_cmd, EVAL_FLAGS)
    eval_cmd.add_argument("--out", dest="outfile", default=None, help="metrics CSV path")
    eval_cmd.add_argument("--reliability-out", default=None, help="per-bin CSV path")
    eval_cmd.set_defaults(handler=cmd_eval)

    simulate = commands.add_parser("simulate", help="generate synthetic datasets")
    simulate.add_argument("--kind", required=True, choices=KINDS)
    simulate.add_argument("--n", type=int, required=True)
    simulate.add_argument("--out", dest="outfile", required=True)
    _add_flags(simulate, SIMULATE_FLAGS)
    simulate.add_argument("--seed", type=int, default=0)  # generate_oracle takes no default seed
    simulate.set_defaults(handler=cmd_simulate)

    verify = commands.add_parser("verify", help="run a Monte-Carlo bound verification")
    checks = verify.add_subparsers(dest="check", required=True)
    for check, (_, text, flags) in CHECKS.items():
        sub = checks.add_parser(check, help=text)
        _add_flags(sub, flags + VERIFY_FLAGS)
        sub.add_argument("--csv-out", default=None)
        sub.add_argument("--json-out", default=None)
        sub.set_defaults(handler=cmd_verify)

    return parser


def main(argv=None) -> int:
    with warnings.catch_warnings():  # restores the caller's warning display on return
        # one write per line: a forked DPM fit's child writes its warnings to the same stderr
        warnings.showwarning = lambda message, *_: sys.stderr.write(f"warning: {message}\n")
        try:
            args = build_parser().parse_args(argv)
            for attribute, flag in OUTPUTS:  # before any input is read or trial started
                check_output_path(getattr(args, attribute, None), flag)
            return args.handler(args)
        except SystemExit as exc:  # from argparse: 0 after --help, 2 (EXIT_INPUT) for a bad flag
            return exc.code or EXIT_OK
        except FitError as exc:
            print(f"fit error: {exc}", file=sys.stderr)
            return EXIT_FIT
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
        except MemoryError as exc:  # numpy's message names the array it could not allocate
            detail = f": {exc}" if str(exc) else ""
            print(f"error: out of memory{detail}; try smaller sizes", file=sys.stderr)
            return EXIT_INPUT
        except KeyboardInterrupt:  # Ctrl-C; a forked block worker is killed and reaped on the way out
            print("error: interrupted", file=sys.stderr)
            return EXIT_INTERRUPT


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
