"""A standing fuzzer of the command line: random flag values, run in process through ``main``.

Every run must end in a documented exit code with at most one line on stderr and no
traceback. Example sizes stay bounded: every size flag is always given, at most 5000, and
at most 3 trials, so each example runs in well under a second.
"""

import contextlib
import io
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probcal.cli import EXIT_ASSERTION, EXIT_INPUT, EXIT_OK, main
from probcal.synth import CURVES

# each kind of value as (plausible values, edge values)
SIZES = (
    st.one_of(st.sampled_from([1, 2, 10, 100, 1000, 5000]), st.integers(1, 5000)),
    st.sampled_from([-1, 0]),
)
BINS = (st.integers(1, 20), st.sampled_from([-1, 0, 5000]))
TRIALS = (st.integers(2, 3), st.sampled_from([-1, 0, 1]))
EPSILONS = (st.sampled_from([0.01, 0.1, 0.5]), st.sampled_from([-1.0, 0.0, 2.0, math.nan, math.inf]))
DELTAS = (st.sampled_from([0.05, 0.5]), st.sampled_from([-1.0, 0.0, 1.0, 2.0, math.nan, math.inf]))
SEEDS = (st.sampled_from([0, 1, 2**32]), st.just(-1))
# sizes whose grids often span the two decades ece-rate asks for, each above every plausible bin count
SPREAD_SIZES = (st.sampled_from([20, 50, 5000]), SIZES[1])


def _joined(values) -> str:
    return ",".join(map(str, values))


def _grid(entries):
    """Comma-separated entries: two or three plausible ones in ascending order, else none, one,
    or some edge ones in any order."""
    plausible, edge = entries
    some_edges = st.lists(st.one_of(plausible, edge), min_size=1, max_size=3)
    return (
        st.lists(plausible, min_size=2, max_size=3).map(sorted).map(_joined),
        st.one_of(st.lists(plausible, max_size=1), some_edges).map(_joined),
    )


# each check's flags: those always given, then those that may be left out
CHECKS = {
    "mce-bound": (
        {"--n": SIZES, "--bins": BINS, "--trials": TRIALS, "--test-size": SIZES},
        {"--delta": DELTAS},
    ),
    "ece-rate": ({"--bins": BINS, "--n-grid": _grid(SPREAD_SIZES), "--trials": TRIALS}, {}),
    "auc-loss": ({"--n": SIZES, "--bin-grid": _grid(BINS), "--trials": TRIALS}, {}),
    "theta-conc": ({"--n": SIZES, "--bins": BINS, "--trials": TRIALS}, {"--epsilon-grid": _grid(EPSILONS)}),
    "size-sweep": ({"--sizes": _grid(SIZES), "--trials": TRIALS, "--test-size": SIZES}, {"--bins": BINS}),
}
ORACLE = (
    st.one_of(
        st.just([]),
        st.sampled_from(CURVES).map(lambda curve: ["--curve", curve]),
        st.sampled_from([0.0, 0.3, 1.0]).map(lambda level: ["--curve", "constant", "--level", str(level)]),
    ),
    st.one_of(
        st.sampled_from([-1.0, 2.0]).map(lambda level: ["--curve", "constant", "--level", str(level)]),
        # a level the curve does not use
        st.sampled_from(CURVES[:-1]).map(lambda curve: ["--curve", curve, "--level", "0.5"]),
    ),
)


@st.composite
def verify_argv(draw, check):
    always, sometimes = CHECKS[check]
    optional = {**sometimes, "--seed": SEEDS}
    # half the examples give one flag an edge value and the rest plausible ones, so that a run
    # gets past the other flags' checks to the one under test; the other half run for real
    edge_flag = draw(st.one_of(st.none(), st.sampled_from([*always, *optional, "oracle"])))

    def value(flag, kind):
        plausible, edge = kind
        return draw(edge if flag == edge_flag else plausible)

    argv = ["verify", check]
    for flag, kind in always.items():
        argv += [flag, str(value(flag, kind))]
    for flag, kind in optional.items():
        if flag == edge_flag or draw(st.booleans()):
            argv += [flag, str(value(flag, kind))]
    return argv + value("oracle", ORACLE)


@pytest.mark.parametrize("check", CHECKS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_verify_ends_in_a_documented_exit_with_one_line_at_most(check, data):
    argv = data.draw(verify_argv(check), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_ASSERTION, EXIT_INPUT)
    assert err.getvalue().count("\n") <= 1
    assert "Traceback" not in err.getvalue()
