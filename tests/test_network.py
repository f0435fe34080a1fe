"""Tests for the network engine: normalizers, init, forward/backward (against
a finite-difference oracle), training, evaluation, and serialization."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from gradcheck import max_relative_gradient_error, random_net
from reference import backprop_step, reference_train

from adlsense.errors import FormatError, TrainingDivergenceError
from adlsense.network import (
    NetworkConfig,
    Normalizer,
    _sigmoid,
    apply_normalizer,
    classify,
    evaluate,
    fit_model,
    fit_normalizer,
    forward,
    init_network,
    load_model,
    model_from_dict,
    model_to_dict,
    model_to_json,
    sample_loss,
    save_model,
    train,
    train_group,
)


class TestConfig:
    def test_presets(self):
        assert NetworkConfig.from_preset("MLP").hidden_layers == (16,)
        assert NetworkConfig.from_preset("feedforward").hidden_layers == (32,)
        deep = NetworkConfig.from_preset("DEEP")
        assert deep.hidden_layers == (64, 32, 16)
        assert deep.l2_lambda == pytest.approx(1e-4)
        assert deep.normalization == "ZSCORE"
        assert NetworkConfig.from_preset("MLP").normalization == "MINMAX"

    def test_overrides(self):
        cfg = NetworkConfig.from_preset("DEEP", hidden_layers=(8,), seed=7)
        assert cfg.hidden_layers == (8,)
        assert cfg.seed == 7
        assert cfg.preset == "DEEP"

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            NetworkConfig.from_preset("RESNET")
        with pytest.raises(ValueError):
            NetworkConfig(hidden_layers=())
        with pytest.raises(ValueError):
            NetworkConfig(hidden_layers=(0,))
        with pytest.raises(ValueError):
            NetworkConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            NetworkConfig(l2_lambda=-1.0)
        with pytest.raises(ValueError):
            NetworkConfig(normalization="UNIT")
        with pytest.raises(ValueError):
            NetworkConfig(seed=-1)


class TestNormalizer:
    def test_minmax_example(self):
        norm = fit_normalizer("MINMAX", [[2.0], [4.0], [6.0]])
        np.testing.assert_allclose(apply_normalizer(norm, [[2.0], [4.0], [6.0]]),
                                   [[0.0], [0.5], [1.0]])

    def test_zscore_example(self):
        norm = fit_normalizer("ZSCORE", [[2.0], [4.0], [6.0]])
        assert norm.params["std"][0] == pytest.approx(1.632993, abs=1e-6)
        out = apply_normalizer(norm, [[2.0], [4.0], [6.0]])
        np.testing.assert_allclose(out, [[-1.224745], [0.0], [1.224745]], atol=1e-6)

    def test_out_of_range_not_clamped(self):
        norm = fit_normalizer("MINMAX", [[2.0], [6.0]])
        assert apply_normalizer(norm, [8.0])[0] == pytest.approx(1.5)
        assert apply_normalizer(norm, [0.0])[0] == pytest.approx(-0.5)

    def test_constant_column_maps_to_zero(self):
        rows = [[3.0, 1.0], [3.0, 2.0]]
        for kind in ("MINMAX", "ZSCORE"):
            norm = fit_normalizer(kind, rows)
            out = apply_normalizer(norm, [[3.0, 1.5], [99.0, 2.0]])
            assert out[0, 0] == 0.0
            assert out[1, 0] == 0.0  # stays inert even for unseen values

    def test_none_is_identity(self):
        norm = fit_normalizer("NONE", [[1.0, 2.0]])
        x = np.array([[5.0, -3.0], [0.5, 9.0]])
        np.testing.assert_array_equal(apply_normalizer(norm, x), x)

    def test_refit_after_apply_is_unit_interval(self):
        rng = np.random.default_rng(0)
        rows = rng.normal(size=(50, 4)) * 10 + 3
        once = apply_normalizer(fit_normalizer("MINMAX", rows), rows)
        again = fit_normalizer("MINMAX", once)
        np.testing.assert_allclose(again.params["min"], np.zeros(4), atol=1e-12)
        np.testing.assert_allclose(again.params["max"], np.ones(4), atol=1e-12)

    def test_zscore_training_columns_standardized(self):
        rng = np.random.default_rng(1)
        rows = rng.normal(size=(200, 5)) * 4 - 7
        out = apply_normalizer(fit_normalizer("ZSCORE", rows), rows)
        np.testing.assert_allclose(out.mean(axis=0), np.zeros(5), atol=1e-9)
        np.testing.assert_allclose(out.std(axis=0), np.ones(5), atol=1e-9)

    def test_dimension_mismatch(self):
        norm = fit_normalizer("MINMAX", [[1.0, 2.0]])
        with pytest.raises(ValueError):
            apply_normalizer(norm, [1.0, 2.0, 3.0])

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            fit_normalizer("MINMAX", np.empty((0, 3)))
        with pytest.raises(ValueError):
            fit_normalizer("UNIT", [[1.0]])


class TestInit:
    def test_shapes_and_zero_biases(self):
        model = init_network(NetworkConfig(hidden_layers=(4,)), 2, ["a", "b"])
        assert [w.shape for w in model.weights] == [(2, 4), (4, 2)]
        assert [b.shape for b in model.biases] == [(4,), (2,)]
        assert all(np.all(b == 0.0) for b in model.biases)
        assert model.layer_sizes == [2, 4, 2]

    def test_same_seed_bit_identical(self):
        cfg = NetworkConfig.from_preset("DEEP", seed=123)
        m1 = init_network(cfg, 10, ["a", "b", "c"])
        m2 = init_network(cfg, 10, ["a", "b", "c"])
        for w1, w2 in zip(m1.weights, m2.weights):
            np.testing.assert_array_equal(w1, w2)

    def test_weight_range(self):
        model = init_network(NetworkConfig(hidden_layers=(8,), seed=5), 5, ["a", "b", "c"])
        r0 = math.sqrt(6.0 / (5 + 8))
        assert np.all(np.abs(model.weights[0]) <= r0)
        assert np.ptp(model.weights[0]) > r0  # actually spread out, not constant

    def test_rejects_degenerate_sizes(self):
        with pytest.raises(ValueError):
            init_network(NetworkConfig(), 0, ["a", "b"])
        with pytest.raises(ValueError):
            init_network(NetworkConfig(), 3, ["only"])
        with pytest.raises(ValueError):
            init_network(NetworkConfig(), 3, ["dup", "dup"])


class TestForward:
    def test_zero_parameters_give_half_activations(self):
        model = init_network(NetworkConfig(hidden_layers=(6,)), 3, ["a", "b"])
        for w in model.weights:
            w[:] = 0.0
        activations, scores = forward(model, [0.3, -2.0, 5.0])
        np.testing.assert_array_equal(activations[1], np.full(6, 0.5))
        np.testing.assert_allclose(scores, [0.5, 0.5])

    def test_softmax_sums_to_one(self):
        rng = np.random.default_rng(3)
        model = init_network(NetworkConfig(hidden_layers=(8,), seed=3), 4, list("abcde"))
        _, scores = forward(model, rng.normal(size=4))
        assert abs(scores.sum() - 1.0) < 1e-12
        assert np.all(scores > 0.0) and np.all(scores < 1.0)

    def test_matches_hand_rolled_oracle(self):
        model = init_network(NetworkConfig(hidden_layers=(3,), seed=11), 2, ["a", "b"])
        x = [0.7, -1.2]
        hidden = []
        for j in range(3):
            z = model.biases[0][j] + sum(x[i] * model.weights[0][i, j] for i in range(2))
            hidden.append(1.0 / (1.0 + math.exp(-z)))
        out_z = [
            model.biases[1][k] + sum(hidden[j] * model.weights[1][j, k] for j in range(3))
            for k in range(2)
        ]
        exp_z = [math.exp(v) for v in out_z]
        expected = [v / sum(exp_z) for v in exp_z]
        _, scores = forward(model, x)
        np.testing.assert_allclose(scores, expected, atol=1e-12)

    def test_extreme_inputs_stay_finite(self):
        model = init_network(NetworkConfig(hidden_layers=(4,), seed=2), 3, ["a", "b"])
        _, scores = forward(model, [1e6, -1e6, 1e5])
        assert np.all(np.isfinite(scores))
        loss = sample_loss(model, [1e6, -1e6, 1e5], 0)
        assert math.isfinite(loss)

    def test_sigmoid_saturates_without_overflow(self):
        with np.errstate(over="raise"):
            out = _sigmoid(np.array([-800.0, 800.0]))
        np.testing.assert_array_equal(out, [0.0, 1.0])

    def test_dimension_mismatch(self):
        model = init_network(NetworkConfig(), 4, ["a", "b"])
        with pytest.raises(ValueError):
            forward(model, [1.0, 2.0])


class TestGradients:
    def test_matches_finite_differences(self):
        for seed in range(4):
            for sizes in ([5, 8, 3], [10, 6, 6, 4]):
                for l2 in (0.0, 0.01):
                    model = random_net(seed, sizes, l2)
                    rng = np.random.default_rng([seed, 99])
                    x = rng.normal(size=sizes[0])
                    label = int(rng.integers(sizes[-1]))
                    err = max_relative_gradient_error(model, x, label, l2)
                    assert err < 1e-4, f"seed={seed} sizes={sizes} l2={l2}: {err}"

    def test_l2_loss_dominates_plain_loss(self):
        model = random_net(9, [5, 8, 3], 0.0)
        x = np.random.default_rng(10).normal(size=5)
        assert sample_loss(model, x, 0, l2_lambda=0.1) > sample_loss(model, x, 0, l2_lambda=0.0)

    def test_zero_learning_rate_keeps_model(self):
        model = random_net(4, [5, 8, 3], 0.0)
        before = [w.copy() for w in model.weights]
        backprop_step(model, np.ones(5), 1, learning_rate=0.0)
        for w, old in zip(model.weights, before):
            np.testing.assert_array_equal(w, old)

    def test_explicit_zero_l2_matches_plain_config(self):
        reg = random_net(5, [4, 6, 2], l2_lambda=1e-3)
        plain = random_net(5, [4, 6, 2], l2_lambda=0.0)
        x = np.random.default_rng(6).normal(size=4)
        backprop_step(reg, x, 0, l2_lambda=0.0)
        backprop_step(plain, x, 0)
        for w1, w2 in zip(reg.weights, plain.weights):
            np.testing.assert_array_equal(w1, w2)

    def test_divergence_error_on_nonfinite(self):
        model = random_net(6, [3, 4, 2], 0.0)
        model.weights[0][0, 0] = np.nan
        with pytest.raises(TrainingDivergenceError):
            backprop_step(model, np.ones(3), 0)


def xor_data():
    x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = ["even", "odd", "odd", "even"]
    return x, y


class TestTrain:
    def test_xor_reaches_perfect_training_accuracy(self):
        x, y = xor_data()
        config = NetworkConfig.from_preset(
            "FEEDFORWARD", hidden_layers=(4,), learning_rate=0.5,
            iteration_budget=100_000, seed=42,
        )
        model, history = fit_model(config, x, y)
        report = evaluate(model, x, y)
        assert report.accuracy == 1.0
        assert history[-1] < history[0]

    def test_budget_zero_is_identity(self):
        model = random_net(1, [3, 4, 2], 0.0)
        before = [w.copy() for w in model.weights]
        history = train(model, np.ones((5, 3)), [0, 1, 0, 1, 0], iteration_budget=0)
        assert history == []
        assert model.iterations_trained == 0
        for w, old in zip(model.weights, before):
            np.testing.assert_array_equal(w, old)

    def test_same_seed_identical_histories_and_weights(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(30, 4))
        y = (rng.integers(0, 2, size=30)).tolist()
        runs = []
        for _ in range(2):
            model = random_net(3, [4, 5, 2], 0.0)
            history = train(model, x, y, iteration_budget=2000)
            runs.append((history, [w.copy() for w in model.weights]))
        assert runs[0][0] == runs[1][0]
        for w1, w2 in zip(runs[0][1], runs[1][1]):
            np.testing.assert_array_equal(w1, w2)

    def test_history_has_one_entry_per_budget_hundredth(self):
        model = random_net(4, [3, 4, 2], 0.0)
        x = np.random.default_rng(5).normal(size=(10, 3))
        y = [i % 2 for i in range(10)]
        assert len(train(model.clone(), x, y, iteration_budget=1000)) == 100
        assert len(train(model.clone(), x, y, iteration_budget=7)) == 7

    def test_nan_weight_raises_divergence(self):
        model = random_net(6, [3, 4, 2], 0.0)
        model.weights[0][0, 0] = np.nan
        with pytest.raises(TrainingDivergenceError, match="non-finite loss nan"):
            train(model, np.ones((4, 3)), [0, 1, 0, 1], iteration_budget=5)

    def test_finite_weights_whose_l2_sum_overflows_raise(self):
        # Every step's cross-entropy stays finite (the huge weight only
        # saturates a sigmoid); the L2 penalty of the first chunk is inf.
        model = random_net(8, [3, 4, 2], l2_lambda=1e-3)
        model.weights[0][0, 0] = 1e200
        x = np.random.default_rng(8).normal(size=(6, 3))
        with np.errstate(over="ignore"), \
                pytest.raises(TrainingDivergenceError, match="non-finite loss inf"):
            train(model, x, [0, 1] * 3, iteration_budget=1000)

    def test_history_is_chunk_cross_entropy_plus_l2_penalty(self):
        x = np.random.default_rng(9).normal(size=(7, 4))
        y = [i % 3 for i in range(7)]
        fast, slow = random_net(9, [4, 6, 3], 1e-2), random_net(9, [4, 6, 3], 1e-2)
        history = train(fast, x, y, iteration_budget=250)
        assert len(history) == 125
        assert history == reference_train(slow, x, y, 250)

    def test_iterations_trained_accumulates(self):
        model = random_net(5, [3, 4, 2], 0.0)
        x = np.random.default_rng(6).normal(size=(8, 3))
        y = [i % 2 for i in range(8)]
        train(model, x, y, iteration_budget=100)
        train(model, x, y, iteration_budget=50)
        assert model.iterations_trained == 150


class TestLockstep:
    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_group_equals_sequential_reference(self, data):
        group = data.draw(st.integers(1, 4), label="group")
        hidden = tuple(data.draw(st.lists(st.integers(1, 9), min_size=1, max_size=3),
                                 label="hidden"))
        widths = data.draw(st.lists(st.integers(1, 9), min_size=group, max_size=group),
                           label="widths")
        label_count = data.draw(st.integers(2, 4), label="labels")
        rows = data.draw(st.integers(2, 9), label="rows")
        budget = data.draw(st.integers(1, 240), label="budget")
        l2 = data.draw(st.sampled_from([0.0, 1e-3]), label="l2")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        rng = np.random.default_rng(seed)
        xs = [rng.normal(size=(rows, width)) for width in widths]
        y = rng.integers(0, label_count, size=rows)
        config = NetworkConfig.from_preset("DEEP", hidden_layers=hidden, l2_lambda=l2,
                                           seed=seed, learning_rate=0.1)
        names = [f"label_{i}" for i in range(label_count)]

        models = [init_network(config, width, names) for width in widths]
        histories = train_group(models, xs, y, iteration_budget=budget)
        for model, x, history in zip(models, xs, histories):
            alone = init_network(config, x.shape[1], names)
            assert history == reference_train(alone, x, y, budget)
            assert model.iterations_trained == alone.iterations_trained == budget
            for ours, theirs in zip(model.weights + model.biases,
                                    alone.weights + alone.biases):
                assert ours.tobytes() == theirs.tobytes()

    def test_diverging_member_raises_the_text_it_raises_alone(self):
        x = np.random.default_rng(11).normal(size=(6, 5))
        y = [0, 1] * 3

        def nets():
            return [random_net(7, [3, 4, 2]), random_net(7, [5, 4, 2])]

        alone = nets()[1]
        alone.weights[0][0, 0] = np.nan
        with pytest.raises(TrainingDivergenceError) as solo:
            train(alone, x, y, iteration_budget=10)
        members = nets()
        members[1].weights[0][0, 0] = np.nan
        with pytest.raises(TrainingDivergenceError) as grouped:
            train_group(members, [x[:, :3], x], y, iteration_budget=10)
        assert str(grouped.value) == str(solo.value)

    def test_members_must_share_config_labels_and_later_layers(self):
        x = np.zeros((2, 3))
        for other in (random_net(8, [3, 4, 2]), random_net(7, [3, 5, 2]),
                      random_net(7, [3, 4, 3])):
            with pytest.raises(ValueError, match="lockstep"):
                train_group([random_net(7, [3, 4, 2]), other], [x, x], [0, 1])
        with pytest.raises(ValueError, match="one feature matrix per model"):
            train_group([random_net(7, [3, 4, 2])], [x, x], [0, 1])


class TestEvaluate:
    def _rigged_model(self):
        model = init_network(NetworkConfig(hidden_layers=(2,), seed=0), 3, ["a", "b"])
        model.weights[-1][:] = 0.0
        model.biases[-1][:] = [5.0, -5.0]  # always predicts "a"
        return model

    def test_constant_predictor_on_balanced_set(self):
        model = self._rigged_model()
        x = np.random.default_rng(7).normal(size=(40, 3))
        y = ["a"] * 20 + ["b"] * 20
        report = evaluate(model, x, y)
        assert report.accuracy == pytest.approx(0.5)
        np.testing.assert_array_equal(report.confusion, [[20, 0], [20, 0]])
        assert report.recall[0] == 1.0 and report.recall[1] == 0.0
        assert report.precision[0] == pytest.approx(0.5)
        assert report.precision[1] == 0.0  # no "b" predictions at all

    def test_confusion_bookkeeping(self):
        rng = np.random.default_rng(8)
        model = init_network(NetworkConfig(hidden_layers=(4,), seed=8), 3, ["a", "b", "c"])
        x = rng.normal(size=(33, 3))
        y = (["a"] * 11) + (["b"] * 13) + (["c"] * 9)
        report = evaluate(model, x, y)
        np.testing.assert_array_equal(report.confusion.sum(axis=1), [11, 13, 9])
        assert report.accuracy == pytest.approx(np.trace(report.confusion) / 33)
        assert report.total == 33

    def test_unknown_label_rejected(self):
        model = self._rigged_model()
        with pytest.raises(ValueError):
            evaluate(model, np.zeros((2, 3)), ["a", "zzz"])

    def test_classify_returns_label_and_scores(self):
        model = self._rigged_model()
        label, scores = classify(model, [0.0, 0.0, 0.0])
        assert label == "a"
        assert scores.shape == (2,)

    def test_raw_rows_are_normalized_exactly_once(self):
        # Predicts "a" iff the normalized row has x0 > x1. Rows normalized
        # zero times, once and twice are decided differently.
        model = init_network(NetworkConfig(hidden_layers=(1,), seed=0), 2, ["a", "b"])
        model.weights[0][:] = [[50.0], [-50.0]]
        model.weights[1][:] = [[4.0, -4.0]]
        model.biases[1][:] = [-2.0, 2.0]
        model.normalizer = Normalizer(
            "MINMAX", {"min": np.array([0.0, 1.0]), "max": np.array([10.0, 2.0])})
        raw = np.array([[5.0, 2.0], [-5.0, 0.0]])
        labels = ["b", "a"]
        once = apply_normalizer(model.normalizer, raw)
        twice = apply_normalizer(model.normalizer, once)
        predicted = forward(model, once)[1].argmax(axis=1)
        np.testing.assert_array_equal(predicted, [1, 0])
        for rows in (raw, twice):
            assert not np.array_equal(forward(model, rows)[1].argmax(axis=1), predicted)

        report = evaluate(model, raw, labels)
        assert report.accuracy == 1.0
        np.testing.assert_array_equal(report.confusion, [[1, 0], [0, 1]])
        assert [classify(model, row)[0] for row in raw] == labels

    def test_callers_leave_normalization_to_evaluate(self):
        root = Path(__file__).resolve().parent.parent
        paths = [root / "src/adlsense/cli.py", root / "src/adlsense/pipeline.py",
                 *sorted((root / "scripts").glob("*.py"))]
        assert len(paths) > 2
        assert [p.name for p in paths if "apply_normalizer(" in p.read_text()] == []


class TestSerialization:
    def _trained(self):
        x, y = xor_data()
        config = NetworkConfig.from_preset("MLP", hidden_layers=(3,), iteration_budget=500, seed=9)
        model, _ = fit_model(config, x, y)
        return model

    def test_round_trip_bit_exact(self):
        model = self._trained()
        doc = model_to_json(model)
        clone = model_from_dict(json.loads(doc))
        assert model_to_json(clone) == doc
        for w1, w2 in zip(model.weights, clone.weights):
            np.testing.assert_array_equal(w1, w2)
        for b1, b2 in zip(model.biases, clone.biases):
            np.testing.assert_array_equal(b1, b2)
        assert clone.labels == model.labels
        assert clone.normalizer.kind == model.normalizer.kind
        for key, val in model.normalizer.params.items():
            np.testing.assert_array_equal(clone.normalizer.params[key], val)

    def test_file_round_trip_predicts_identically(self, tmp_path):
        model = self._trained()
        path = tmp_path / "net.model"
        save_model(model, path)
        clone = load_model(path)
        rng = np.random.default_rng(10)
        for _ in range(20):
            x = rng.normal(size=2)
            np.testing.assert_array_equal(classify(model, x)[1], classify(clone, x)[1])

    def test_version_mismatch_rejected(self):
        doc = model_to_dict(self._trained())
        doc["format_version"] = 99
        with pytest.raises(FormatError):
            model_from_dict(doc)

    def test_corrupted_document_rejected(self, tmp_path):
        path = tmp_path / "bad.model"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(FormatError):
            load_model(path)
        doc = model_to_dict(self._trained())
        del doc["weights"]
        with pytest.raises(FormatError):
            model_from_dict(doc)

    def test_shape_chain_validated(self):
        doc = model_to_dict(self._trained())
        doc["weights"][0] = [[0.0, 0.0], [0.0, 0.0]]
        with pytest.raises(FormatError):
            model_from_dict(doc)

    @pytest.mark.parametrize("field, value", [
        ("output_activation", "relu"),
        ("output_activation", "sigmoid"),
        ("activation", "tanh"),
    ])
    def test_only_sigmoid_hidden_and_softmax_output_load(self, field, value):
        doc = model_to_dict(self._trained())
        assert (doc["activation"], doc["output_activation"]) == ("sigmoid", "softmax")
        doc[field] = value
        with pytest.raises(FormatError, match="activations"):
            model_from_dict(doc)

    @pytest.mark.parametrize("params, match", [
        ({"mean": [0.0, 0.0], "std": [1.0, 1.0]}, "needs parameters"),
        ({"min": [0.0, 0.0]}, "needs parameters"),
        ({"min": [0.0], "max": [1.0]}, "shape"),
        ({"min": [0.0, 0.0], "max": 1.0}, "shape"),
        ({"min": [float("nan"), 0.0], "max": [1.0, 1.0]}, "non-finite"),
        ({"min": [0.0, 0.0], "max": [1.0, float("inf")]}, "non-finite"),
        ([], "malformed"),
    ])
    def test_normalizer_validated_on_load(self, params, match):
        doc = model_to_dict(self._trained())
        assert doc["normalizer"]["kind"] == "MINMAX"
        doc["normalizer"]["params"] = params
        with pytest.raises(FormatError, match=match):
            model_from_dict(doc)
