import json
import math
import os
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import probcal.serialize
from oracles import dumps_whole
from probcal.binning import HistogramCalibrator
from probcal.cli import EXIT_INPUT, main
from probcal.density import DPMCalibrator, KDECalibrator
from probcal.harness import Assertion, SweepPoint, SweepReport, write_sweep_json
from probcal.monotone import IsotonicCalibrator, PlattCalibrator
from probcal.data import format_cells
from probcal.serialize import MODEL_CLASSES, dumps, format_float, iterdumps, load_model, save_model
from probcal.synth import OracleSpec, generate_oracle


def finite_floats():
    return st.floats(allow_nan=False, allow_infinity=False)


class TestFormatFloat:
    @given(finite_floats())
    def test_round_trips_exactly(self, value):
        assert float(format_float(value)) == value or (
            value == 0.0 and float(format_float(value)) == 0.0
        )

    @given(finite_floats())
    def test_bit_pattern_preserved(self, value):
        recovered = float(format_float(value))
        assert struct.pack("<d", recovered) == struct.pack("<d", value)

    def test_non_finite_becomes_null(self):
        assert format_float(math.nan) == "null"
        assert format_float(math.inf) == "null"
        assert format_float(-math.inf) == "null"

    def test_known_rendering(self):
        assert format_float(0.1) == "0.10000000000000001"
        assert format_float(1.0) == "1"


class TestFormatFloats:
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([0.0, -0.0, 5e-324])))
    @settings(max_examples=200, deadline=None)
    def test_equals_format_float_elementwise(self, values):
        assert format_cells(values) == [format(v, ".17g") for v in values]

    def test_numpy_array_and_empty_input(self):
        values = np.array([0.1, np.nan, -np.inf, 1e-310, 2.0 / 3.0])
        assert format_cells(values) == [format(v, ".17g") for v in values.tolist()]
        assert format_cells(values)[1:3] == ["nan", "-inf"]
        assert format_cells([]) == []


def recursive_float_list(values, indent):
    """A list of floats as dumps renders it one element at a time."""
    pad, inner = "  " * indent, "  " * (indent + 1)
    return "[\n" + ",\n".join(inner + "".join(iterdumps(v, indent + 1)) for v in values) + f"\n{pad}]"


class TestDumps:
    @given(
        st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1),
        st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=100, deadline=None)
    def test_float_list_renders_like_the_recursive_form(self, values, indent):
        assert "".join(iterdumps(values, indent)) == recursive_float_list(values, indent)
        assert dumps({"v": values}) == '{\n  "v": ' + recursive_float_list(values, 1) + "\n}"

    def test_mixed_list_keeps_each_type(self):
        assert dumps([0.5, True, 2, None, np.float64(0.25)]) == "[\n  0.5,\n  true,\n  2,\n  null,\n  0.25\n]"

    def test_scalars(self):
        assert dumps(None) == "null"
        assert dumps(True) == "true"
        assert dumps(False) == "false"
        assert dumps(7) == "7"
        assert dumps(0.5) == "0.5"
        assert dumps("hi") == '"hi"'

    def test_string_escaping(self):
        assert dumps('he said "no"\n') == json.dumps('he said "no"\n')

    def test_empty_containers(self):
        assert dumps({}) == "{}"
        assert dumps([]) == "[]"

    def test_dict_preserves_insertion_order(self):
        text = dumps({"b": 1, "a": 2})
        assert text.index('"b"') < text.index('"a"')

    def test_nested_structure_parses_back(self):
        payload = {"xs": [1.5, None, True], "inner": {"k": "v"}, "n": 3}
        assert json.loads(dumps(payload)) == payload

    def test_nan_inside_list_becomes_null(self):
        assert json.loads(dumps([math.nan]))[0] is None

    def test_tuple_serializes_like_list(self):
        assert dumps((1, 2)) == dumps([1, 2])

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError, match="cannot serialize"):
            dumps(object())

    def test_deterministic_bytes(self):
        payload = {"a": [0.1, 0.2], "b": {"c": 1e-300}}
        assert dumps(payload) == dumps(payload)


# nested dicts, empty and mixed lists, non-finite floats, and float lists
nested_payloads = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4)
    | st.lists(st.floats(), max_size=12)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=30,
)


class TestWrittenPieces:
    """save_model and write_sweep_json write, a piece at a time, exactly dumps(payload) and a newline."""

    @given(nested_payloads)
    @settings(max_examples=200, deadline=None)
    def test_pieces_join_to_dumps(self, value):
        class Stub:
            def to_dict(self):
                return {"method": "histogram", "payload": value}

        report = SweepReport(
            axis_name="n_cal",
            points=[SweepPoint(axis_value=0.5, reports=(), summary={"value": value, "x": [value, 1.5]})],
            assertions=[Assertion("bound", True, 0.25, math.inf)],
            notes=["note"],
        )
        sweep_payload = {
            "axis": "n_cal",
            "passed": True,
            "slope": None,
            "assertions": [{"name": "bound", "passed": True, "observed": 0.25, "limit": math.inf}],
            "points": [{"axis_value": 0.5, "value": value, "x": [value, 1.5]}],
            "notes": ["note"],
        }
        with tempfile.TemporaryDirectory() as tmp:
            model, sweep = Path(tmp) / "model.json", Path(tmp) / "sweep.json"
            save_model(Stub(), model)
            write_sweep_json(report, sweep)
            model_payload = Stub().to_dict()
            assert "".join(probcal.serialize.iterdumps(model_payload)) == dumps_whole(model_payload)
            assert model.read_bytes() == (dumps(model_payload) + "\n").encode()
            assert sweep.read_bytes() == (dumps(sweep_payload) + "\n").encode()
            assert dumps(sweep_payload) == dumps_whole(sweep_payload)

    def test_non_finite_floats_of_a_float_list_are_null(self):
        values = [0.5, 0.25, math.nan, math.inf, -math.inf]
        assert dumps(values) == "[\n  0.5,\n  0.25,\n  null,\n  null,\n  null\n]"


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the two-process block map needs os.fork")
class TestTwoProcessModelFiles:
    def test_kde_model_bytes_equal_the_in_process_write(self, tmp_path, monkeypatch):
        data = generate_oracle(OracleSpec(curve="square"), 200, 5)
        model = KDECalibrator().fit(data.scores, data.labels)
        monkeypatch.setattr(probcal.serialize, "_BLOCK_VALUES", 5)  # each score list spans about 20 blocks
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(None) or fork())
        save_model(model, tmp_path / "forked.json")
        assert len(forks) == 2  # one per class's score list
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        monkeypatch.delattr(os, "fork")
        save_model(model, tmp_path / "in-process.json")
        forked = (tmp_path / "forked.json").read_bytes()
        assert forked == (tmp_path / "in-process.json").read_bytes()
        as_lists = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in model.to_dict().items()}
        assert forked == (dumps_whole(as_lists) + "\n").encode()


class TestArrayPayloads:
    """A 1-D float64 array is written as the float list of its ``tolist()``."""

    @settings(max_examples=150, deadline=None)
    @given(
        values=st.lists(
            st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324]), max_size=40
        ),
        indent=st.integers(0, 3),
        block=st.sampled_from([1, 3, 1 << 14]),
    )
    def test_array_text_equals_the_text_of_its_list(self, values, indent, block):
        array = np.array(values, dtype=np.float64)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(probcal.serialize, "_BLOCK_VALUES", block)
            text = "".join(probcal.serialize.iterdumps(array, indent))
            nested = dumps({"a": array, "b": [array, 1]})
        assert text == "".join(iterdumps(array.tolist(), indent)) == dumps_whole(array.tolist(), indent)
        assert nested == dumps({"a": array.tolist(), "b": [array.tolist(), 1]})

    def test_long_array_comes_in_blocks_of_the_list_text(self, monkeypatch):
        array = np.append(np.arange(40) / 7, [math.nan, -0.0, math.inf])
        monkeypatch.setattr(probcal.serialize, "_BLOCK_VALUES", 16)
        pieces = list(probcal.serialize.iterdumps({"v": array}))
        assert "".join(pieces) == dumps({"v": array.tolist()})
        assert len(pieces) == 6  # key, three blocks, the closing bracket and brace

    def test_empty_array_is_an_empty_list(self):
        assert dumps(np.array([])) == dumps([]) == "[]"

    @pytest.mark.parametrize("array", [np.zeros((2, 2)), np.arange(3), np.ones(2, dtype=np.float32)])
    def test_rejects_other_arrays(self, array):
        with pytest.raises(TypeError, match="cannot serialize"):
            dumps({"a": array})

    def test_editing_a_payload_leaves_every_model_unchanged(self):
        grid = np.linspace(0, 1, 41)
        for model in _fitted_models():
            before, predictions = dumps(model.to_dict()), model.predict(grid)
            payload = model.to_dict()
            for value in payload.values():
                if isinstance(value, (list, np.ndarray)) and len(value):
                    value[0] = 0.123
            assert dumps(model.to_dict()) == before
            assert np.array_equal(model.predict(grid), predictions)

    def test_kde_and_isotonic_payload_arrays_are_copies(self):
        isotonic, kde = _fitted_models()[2:4]
        pairs = [
            (isotonic, "breakpoints", isotonic.breakpoints_),
            (isotonic, "values", isotonic.values_),
            (kde, "positives", kde.positives_),
            (kde, "negatives", kde.negatives_),
        ]
        for model, key, fitted in pairs:
            array = model.to_dict()[key]
            assert array.dtype == np.float64 and np.array_equal(array, fitted)
            assert not np.shares_memory(array, fitted)

    @pytest.mark.parametrize("method", ["isotonic", "kde", "kde-shared"])
    def test_model_file_is_dumps_of_the_payload_and_of_its_float_lists(self, tmp_path, method):
        from probcal.cli import main

        data, model_path = tmp_path / "data.csv", tmp_path / "model.json"
        assert main(["simulate", "--kind", "oracle", "--n", "500", "--seed", "4", "--out", str(data)]) == 0
        assert main(["fit", "--method", method, "--in", str(data), "--out", str(model_path)]) == 0
        scores = generate_oracle(OracleSpec(), 500, seed=4)
        model = (
            IsotonicCalibrator() if method == "isotonic" else KDECalibrator(shared_bandwidth=method == "kde-shared")
        ).fit(scores.scores, scores.labels)
        payload = model.to_dict()
        as_lists = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in payload.items()}
        assert model_path.read_bytes() == (dumps(payload) + "\n").encode() == (dumps(as_lists) + "\n").encode()


def _fitted_models():
    data = generate_oracle(OracleSpec(), 200, seed=3)
    scores, labels = data.scores, data.labels
    return [
        HistogramCalibrator(n_bins=4).fit(scores, labels),
        PlattCalibrator().fit(scores, labels),
        IsotonicCalibrator().fit(scores, labels),
        KDECalibrator().fit(scores, labels),
        DPMCalibrator(truncation=3, max_iter=30, seed=0).fit(scores, labels),
    ]


class TestModelFiles:
    def test_round_trip_predictions_for_every_method(self, tmp_path):
        grid = np.linspace(0, 1, 41)
        for model in _fitted_models():
            path = tmp_path / f"{model.to_dict()['method']}.json"
            save_model(model, path)
            loaded = load_model(path)
            assert type(loaded) is type(model)
            assert np.array_equal(loaded.predict(grid), model.predict(grid))

    def test_rewrite_is_byte_identical(self, tmp_path):
        model = _fitted_models()[0]
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        save_model(model, first)
        save_model(model, second)
        assert first.read_bytes() == second.read_bytes()

    def test_file_is_plain_json_with_method_key(self, tmp_path):
        path = tmp_path / "m.json"
        save_model(_fitted_models()[1], path)
        payload = json.loads(path.read_text())
        assert payload["method"] == "platt"

    def test_load_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_model(path)

    def test_load_rejects_missing_method(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"A": 1.0}')
        with pytest.raises(ValueError, match="missing 'method'"):
            load_model(path)

    def test_load_rejects_unknown_method(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"method": "spline"}')
        with pytest.raises(ValueError, match="unknown model method"):
            load_model(path)

    def test_load_rejects_non_object_payload(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValueError, match="not a model file"):
            load_model(path)

    def test_save_rejects_foreign_payload(self, tmp_path):
        class Fake:
            def to_dict(self):
                return {"method": "mystery"}

        with pytest.raises(ValueError, match="unknown model method"):
            save_model(Fake(), tmp_path / "x.json")

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_model(tmp_path / "nope.json")


HISTOGRAM = {
    "method": "histogram",
    "scheme": "frequency",
    "edges": [0.0, 0.5, 1.0],
    "theta": [0.25, 0.75],
    "counts": [4, 4],
    "positives": [1, 3],
}

_VALID_PAYLOADS = [model.to_dict() for model in _fitted_models()]
_ORACLE = generate_oracle(OracleSpec(), 200, seed=3)
_SHARED_KDE = KDECalibrator(shared_bandwidth=True).fit(_ORACLE.scores, _ORACLE.labels).to_dict()
KDE = {
    "method": "kde",
    "form": "bayes",
    "shared_bandwidth": False,
    "positives": [0.5, 0.6],
    "negatives": [0.1, 0.2],
    "h0": 0.2,
    "h1": 0.2,
    "prior": 0.5,
}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=10,
)


class TestModelValidation:
    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"method": "histogram"}, "scheme"),
            (
                {**HISTOGRAM, "edges": [0.0, 1.0], "counts": [8], "positives": [4], "theta": [0.5, 0.5]},
                "one more edge",
            ),
            ({**HISTOGRAM, "positives": [1, 5]}, "exceed counts"),
            ({**HISTOGRAM, "edges": [0.0, 0.5, 0.5]}, "edges must increase"),
            ({**HISTOGRAM, "theta": [None, 0.75]}, "null exactly for empty bins"),
            ({**HISTOGRAM, "theta": [0.25, 1.5]}, "'theta'"),
            ({"method": "platt", "A": None, "B": 0.0}, "'A'"),
            ({"method": "platt", "A": "1.0", "B": 0.0}, "'A'"),
            ({"method": "isotonic", "breakpoints": [0.1, 0.5], "values": [0.6, 0.4]}, "must not decrease"),
            ({"method": "isotonic", "breakpoints": [0.1, 0.5], "values": [0.4]}, "as many values"),
            (
                {"method": "dpm", "truncation": 2, "alpha": 1.0, "prior": 0.5,
                 "positive": {"sticks": [[1.0, 1.0]], "components": [[0.5, 1.0, 1.0, 1.0]], "elbo": 0.0},
                 "negative": {"sticks": [[1.0, 1.0]], "components": [[0.5, 1.0, 1.0, 1.0]], "elbo": 0.0}},
                "truncation 2",
            ),
        ],
        ids=[
            "histogram-fields-missing", "histogram-theta-length", "histogram-positives-exceed-counts",
            "histogram-edges-tie", "histogram-null-theta-in-nonempty-bin", "histogram-theta-range",
            "platt-null-slope", "platt-string-slope", "isotonic-decreasing", "isotonic-length",
            "dpm-component-count",
        ],
    )
    def test_inconsistent_payload_is_rejected(self, tmp_path, payload, message):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=message):
            load_model(path)

    @pytest.mark.parametrize(
        "payload, message",
        [
            # fits make bandwidths and alpha > 0; zero bandwidths would predict the prior at every score
            ({**_VALID_PAYLOADS[3], "h0": 0.0, "h1": 0.0}, "model field 'h0' must be > 0, got 0"),
            ({**_VALID_PAYLOADS[3], "h1": 0}, "model field 'h1' must be > 0, got 0"),
            # Silverman's rule on scores in [0, 1] stays below 0.66; 1e308 made apply write nan
            ({**_VALID_PAYLOADS[3], "h0": 1e308}, "model field 'h0' must be a number (finite, in [0, 1])"),
            ({**_VALID_PAYLOADS[3], "h1": 1.5}, "model field 'h1' must be a number (finite, in [0, 1])"),
            ({**_VALID_PAYLOADS[4], "alpha": 0}, "model field 'alpha' must be > 0, got 0"),
            # a fit has two samples of each class; a prior of 0 or 1 would predict it everywhere
            ({**_VALID_PAYLOADS[4], "prior": 0}, "model field 'prior' must lie strictly between 0 and 1, got 0"),
            ({**_VALID_PAYLOADS[4], "prior": 1}, "model field 'prior' must lie strictly between 0 and 1, got 1"),
            # a fit derives theta from counts and positives, and the KDE prior from the two samples
            (
                {**HISTOGRAM, "theta": [0.3, 0.75]},
                "model field 'theta' must be positives / counts, null exactly for empty bins",
            ),
            ({**KDE, "prior": 0.6}, "model field 'prior' must be the positive share of the samples"),
            # a fit needs two samples of each class; an empty one would make apply write 0 everywhere
            ({**KDE, "positives": []}, "model fields 'positives' and 'negatives' must each hold at least 2 scores"),
            (
                {**KDE, "positives": [0.5], "negatives": [0.1], "prior": 0.5},
                "model fields 'positives' and 'negatives' must each hold at least 2 scores",
            ),
            (
                {key: value for key, value in KDE.items() if key != "form"},
                "model field 'form' must be \"bayes\"; no other KDE form is supported",
            ),
            ({**KDE, "shared_bandwidth": "no"}, "model field 'shared_bandwidth' must be true or false"),
            ({**KDE, "shared_bandwidth": [1]}, "model field 'shared_bandwidth' must be true or false"),
            # a shared-bandwidth fit gives both classes the one bandwidth of all the scores
            (
                {**_SHARED_KDE, "h1": 2 * _SHARED_KDE["h1"]},
                "model fields 'h0' and 'h1' must be equal when 'shared_bandwidth' is true",
            ),
        ],
        ids=[
            "kde-zero-bandwidths", "kde-zero-h1", "kde-huge-h0", "kde-h1-above-1", "dpm-zero-alpha", "dpm-prior-0", "dpm-prior-1",
            "histogram-theta-not-positives-over-counts", "kde-prior-not-the-class-share",
            "kde-empty-positives", "kde-one-sample-per-class", "kde-form-missing",
            "kde-shared-bandwidth-string", "kde-shared-bandwidth-list", "kde-shared-unequal-bandwidths",
        ],
    )
    def test_value_a_fit_never_makes_is_rejected(self, tmp_path, capsys, payload, message):
        path, data = tmp_path / "model.json", tmp_path / "data.csv"
        path.write_text(dumps(payload))
        data.write_text("score,label\n0.2,0\n0.8,1\n")
        message = f"{path}: {message}"
        with pytest.raises(ValueError) as raised:
            load_model(path)
        assert str(raised.value) == message
        for argv in (["apply", "--out", str(tmp_path / "out.csv")], ["eval"]):
            assert main([*argv, "--model", str(path), "--in", str(data)]) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {message}\n" * 2

    def test_valid_hand_written_histogram_loads(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(HISTOGRAM))
        assert load_model(path).predict([0.2, 0.8]).tolist() == [0.25, 0.75]

    def test_platt_reload_does_not_claim_convergence(self, tmp_path):
        model = _fitted_models()[1]
        assert model.converged_ is True
        path = tmp_path / "platt.json"
        save_model(model, path)
        assert load_model(path).converged_ is None

    @settings(max_examples=300, deadline=None)
    @given(index=st.integers(0, 4), pick=st.integers(0, 10), delete=st.booleans(), value=json_values)
    def test_corrupted_field_loads_or_raises_value_error(self, index, pick, delete, value):
        payload = _VALID_PAYLOADS[index]
        keys = [k for k in payload if k != "method"]
        key = keys[pick % len(keys)]
        corrupted = {k: v for k, v in payload.items() if not (delete and k == key)}
        if not delete:
            corrupted[key] = json.loads(json.dumps(value))
        try:
            model = MODEL_CLASSES[payload["method"]].from_dict(corrupted)
        except ValueError:
            return
        out = model.predict(np.linspace(0.0, 1.0, 11))
        assert np.all((out >= 0.0) & (out <= 1.0))
