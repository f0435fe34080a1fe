"""Acceptance suite: ten go/no-go checks on the whole artifact.

Each test prints one `[acceptance NN] PASS/FAIL ...` line (straight to the
terminal, bypassing capture) and then asserts, so a plain ``pytest -v`` run
shows the verdict for every criterion with its measured numbers.
"""

import time

import numpy as np
import pytest

from test_audio import reference_log_mel_energies, reference_mfcc
from test_motion import brute_force_peaks
from test_signals import naive_dft

from adlsense.audio import mfcc, mfcc_frames
from adlsense.datasets import DatasetConfig, build_dataset, stratified_split
from adlsense.errors import UnsupportedSensorsError
from adlsense.motion import detect_peaks, peak_stats, top_peak_distances
from adlsense.network import (
    NetworkConfig,
    apply_normalizer,
    evaluate,
    fit_model,
    fit_normalizer,
    model_to_json,
    save_model,
)
from adlsense.pipeline import (
    PipelineConfig,
    classify_window,
    route_method,
    train_pipeline,
)
from adlsense.signals import SampleSeries, fft_radix2, raw_stats, stats_values
from adlsense.synth import (
    DEFAULT_ENVIRONMENTS,
    DEFAULT_STANDING,
    DEFAULT_STANDING_PARAMS,
    SynthSpec,
    default_adl_spec,
    default_environment_spec,
    default_standing_spec,
    synth_windows,
)
from gradcheck import max_relative_gradient_error, random_net

SENSOR_UNIVERSE = ("ACC", "MAG", "GYRO", "MIC")


def report(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"\n[acceptance {number:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {number}: {detail}"


# ---------------------------------------------------------------------------
# Shared experiment fixtures (criteria 5-7 protocols, reused by criterion 10)


def run_environment_protocol():
    """9 scenes x 200 windows, seed 42, A1 features, 70/30 split,
    FEEDFORWARD preset without normalization, 300k iterations."""
    started = time.perf_counter()
    dataset = build_dataset(synth_windows(default_environment_spec(200, seed=42)), "A1")
    train_set, test_set = stratified_split(dataset, 0.3, seed=42)
    config = NetworkConfig.from_preset(
        "FEEDFORWARD", normalization="NONE", seed=42, iteration_budget=300_000
    )
    model, _ = fit_model(config, train_set.rows, train_set.labels,
                         label_names=dataset.label_names)
    accuracy = evaluate(model, test_set.rows, test_set.labels).accuracy
    return {
        "dataset": dataset,
        "model": model,
        "accuracy": accuracy,
        "budget": config.iteration_budget,
        "elapsed": time.perf_counter() - started,
    }


def standing_corpus():
    # Same labels, parameters, seed, and window count as the default standing
    # corpus; the paired audio channel is skipped because the oracle-env
    # protocol never reads it (motion draws from an independent stream, so
    # the motion samples are bit-identical either way).
    spec = SynthSpec("ADL", DEFAULT_STANDING, 200, dict(DEFAULT_STANDING_PARAMS), seed=42)
    return list(synth_windows(spec))


def run_standing_protocol():
    """2 standing labels x 200 windows, oracle env block over the 9 default
    scenes, DEEP preset (z-score + L2), F1, one model per sensor set."""
    corpus = standing_corpus()
    out = {}
    for sensors in (("ACC",), ("ACC", "MAG"), ("ACC", "MAG", "GYRO")):
        started = time.perf_counter()
        dataset = build_dataset(
            corpus, "F1",
            cfg=DatasetConfig(env_mode="oracle", env_labels=DEFAULT_ENVIRONMENTS,
                              sensors=sensors),
        )
        train_set, test_set = stratified_split(dataset, 0.3, seed=42)
        config = NetworkConfig.from_preset("DEEP", seed=42, iteration_budget=100_000)
        model, _ = fit_model(config, train_set.rows, train_set.labels,
                             label_names=dataset.label_names)
        accuracy = evaluate(model, test_set.rows, test_set.labels).accuracy
        out["+".join(sensors)] = {
            "dataset": dataset,
            "model": model,
            "accuracy": accuracy,
            "elapsed": time.perf_counter() - started,
        }
    return out


def run_adl_protocol():
    """5 activities x 200 windows, F1 over all motion sensors without an env
    block, DEEP preset (z-score + L2), 300k iterations."""
    started = time.perf_counter()
    dataset = build_dataset(synth_windows(default_adl_spec(200, seed=42)), "F1")
    train_set, test_set = stratified_split(dataset, 0.3, seed=42)
    config = NetworkConfig.from_preset("DEEP", seed=42, iteration_budget=300_000)
    model, _ = fit_model(config, train_set.rows, train_set.labels,
                         label_names=dataset.label_names)
    accuracy = evaluate(model, test_set.rows, test_set.labels).accuracy
    return {
        "dataset": dataset,
        "model": model,
        "accuracy": accuracy,
        "budget": config.iteration_budget,
        "elapsed": time.perf_counter() - started,
    }


@pytest.fixture(scope="session")
def env_experiment():
    return run_environment_protocol()


@pytest.fixture(scope="session")
def standing_experiment():
    return run_standing_protocol()


@pytest.fixture(scope="session")
def adl_experiment():
    return run_adl_protocol()


# ---------------------------------------------------------------------------
# 1. Backprop gradients match central finite differences


def test_criterion_01_gradient_check(capsys):
    started = time.perf_counter()
    worst = 0.0
    nets = 0
    for seed in range(27):
        for sizes in ([5, 8, 3], [10, 6, 6, 4]):
            for l2 in (0.0, 0.01):
                model = random_net(seed, sizes, l2_lambda=l2)
                rng = np.random.default_rng([seed, 99])
                features = rng.normal(size=sizes[0])
                label_index = int(rng.integers(sizes[-1]))
                err = max_relative_gradient_error(model, features, label_index,
                                                  l2_lambda=l2, h=1e-5)
                worst = max(worst, err)
                nets += 1
    elapsed = time.perf_counter() - started
    ok = nets >= 100 and worst < 1e-4 and elapsed < 60.0
    report(capsys, 1, ok,
           f"gradient check: {nets} nets, max relative error {worst:.2e} < 1e-4, "
           f"{elapsed:.1f}s < 60s")


# ---------------------------------------------------------------------------
# 2. FFT against a naive O(N^2) DFT, plus Parseval


def test_criterion_02_dft_oracle(capsys):
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_bin = 0.0
    worst_parseval = 0.0
    for _ in range(100):
        values = rng.normal(size=256)
        ours = fft_radix2(values)
        truth = naive_dft(values, 256)
        scale = np.maximum(np.abs(truth), 1.0)
        worst_bin = max(worst_bin, float(np.max(np.abs(ours - truth) / scale)))
        energy_time = float(np.sum(values**2))
        energy_freq = float(np.sum(np.abs(ours) ** 2) / 256)
        worst_parseval = max(worst_parseval,
                             abs(energy_time - energy_freq) / energy_time)
    elapsed = time.perf_counter() - started
    ok = worst_bin < 1e-9 and worst_parseval < 1e-9 and elapsed < 30.0
    report(capsys, 2, ok,
           f"DFT oracle: 100 series, max per-bin relative error {worst_bin:.2e} < 1e-9, "
           f"Parseval error {worst_parseval:.2e} < 1e-9, {elapsed:.1f}s < 30s")


# ---------------------------------------------------------------------------
# 3. MFCC structure: exact zeros, DCT round-trip, tone against oracle


def test_criterion_03_mfcc_structure(capsys):
    import scipy.fft

    zero = SampleSeries(np.zeros(40000), 8000.0)
    zero_coeffs = mfcc_frames(zero)
    zeros_exact = bool(np.all(zero_coeffs[:, 1:] == 0.0))

    rng = np.random.default_rng(33)
    noise = SampleSeries(rng.normal(size=4000), 8000.0)
    coeffs = mfcc_frames(noise)
    log_energies = reference_log_mel_energies(noise.values, 8000.0)
    recovered = scipy.fft.idct(coeffs, type=2, norm="ortho", axis=1)
    round_trip_err = float(np.max(np.abs(recovered - log_energies)))

    t = np.arange(40000) / 8000.0
    tone = SampleSeries(0.5 * np.sin(2 * np.pi * 1000.0 * t), 8000.0)
    tone_err = float(np.max(np.abs(mfcc(tone) - reference_mfcc(tone.values, 8000.0))))

    ok = zeros_exact and round_trip_err < 1e-9 and tone_err < 1e-6
    report(capsys, 3, ok,
           f"MFCC structure: zero-window coefficients 1..25 exactly zero = {zeros_exact}, "
           f"DCT round-trip error {round_trip_err:.2e} < 1e-9, "
           f"1 kHz tone vs oracle {tone_err:.2e} < 1e-6")


# ---------------------------------------------------------------------------
# 4. Peak and statistics features against brute force


def test_criterion_04_feature_oracles(capsys):
    rng = np.random.default_rng(44)
    peaks_ok = distances_ok = True
    worst_stats = 0.0
    for _ in range(1000):
        length = int(rng.integers(3, 200))
        values = rng.normal(size=length)
        series = SampleSeries(values, 100.0)

        expected_peaks = brute_force_peaks(values)
        got = detect_peaks(series)
        peaks_ok &= got.indices.tolist() == expected_peaks

        gaps = sorted(np.diff(expected_peaks).tolist(), reverse=True)[:5]
        expected_gaps = gaps + [0] * (5 - len(gaps))
        distances_ok &= top_peak_distances(got).tolist() == expected_gaps

        if expected_peaks:
            amps = values[expected_peaks]
            expected_pstats = [np.mean(amps), np.std(amps), np.var(amps), np.median(amps)]
        else:
            expected_pstats = [0.0, 0.0, 0.0, 0.0]
        worst_stats = max(worst_stats,
                          float(np.max(np.abs(peak_stats(got) - np.asarray(expected_pstats)))))

        expected_raw = [np.std(values), np.mean(values), np.max(values),
                        np.min(values), np.var(values), np.median(values)]
        got_raw = stats_values(raw_stats(series))
        worst_stats = max(worst_stats,
                          float(np.max(np.abs(np.asarray(got_raw) - np.asarray(expected_raw)))))

    ok = peaks_ok and distances_ok and worst_stats < 1e-12
    report(capsys, 4, ok,
           f"feature oracles: 1000 series, peaks exact = {peaks_ok}, "
           f"top-5 distances exact = {distances_ok}, "
           f"stats max abs error {worst_stats:.2e} < 1e-12")


# ---------------------------------------------------------------------------
# 5. Environment recognizer analog


def test_criterion_05_environment_analog(capsys, env_experiment):
    exp = env_experiment
    ok = exp["accuracy"] >= 0.85 and exp["budget"] <= 2_000_000 and exp["elapsed"] < 600.0
    report(capsys, 5, ok,
           f"environment analog: test accuracy {exp['accuracy']:.4f} >= 0.85 "
           f"(FEEDFORWARD, A1, no normalization, {exp['budget']} <= 2M iterations, "
           f"{exp['elapsed']:.0f}s < 600s)")


# ---------------------------------------------------------------------------
# 6. Standing refinement analog


def test_criterion_06_standing_analog(capsys, standing_experiment):
    parts = []
    ok = True
    for key, exp in standing_experiment.items():
        ok &= exp["accuracy"] == 1.0 and exp["elapsed"] < 300.0
        parts.append(f"{key} {exp['accuracy']:.4f} ({exp['elapsed']:.0f}s)")
    report(capsys, 6, ok,
           "standing analog: test accuracy per sensor set must equal 1.00 -> "
           + ", ".join(parts) + " (DEEP, z-score + L2, F1 + oracle env, each < 300s)")


# ---------------------------------------------------------------------------
# 7. Activity stage analog


def test_criterion_07_adl_analog(capsys, adl_experiment):
    exp = adl_experiment
    ok = exp["accuracy"] >= 0.85 and exp["elapsed"] < 600.0
    report(capsys, 7, ok,
           f"activity analog: test accuracy {exp['accuracy']:.4f} >= 0.85 "
           f"(DEEP, z-score + L2, F1 without env block, {exp['budget']} iterations, "
           f"{exp['elapsed']:.0f}s < 600s)")


# ---------------------------------------------------------------------------
# 8. Normalizer invariants


def test_criterion_08_normalizer_invariants(capsys):
    rng = np.random.default_rng(88)
    rows = rng.normal(size=(200, 7)) * rng.uniform(0.5, 20.0, size=7)
    rows[:, 3] = 4.25  # constant column

    minmax = fit_normalizer("MINMAX", rows)
    scaled = apply_normalizer(minmax, rows)
    non_constant = [i for i in range(rows.shape[1]) if i != 3]
    minmax_ok = (
        np.allclose(scaled[:, non_constant].min(axis=0), 0.0, atol=0.0)
        and np.allclose(scaled[:, non_constant].max(axis=0), 1.0, atol=0.0)
        and np.all(scaled[:, 3] == 0.0)
    )

    zscore = fit_normalizer("ZSCORE", rows)
    standardized = apply_normalizer(zscore, rows)
    mean_err = float(np.max(np.abs(standardized[:, non_constant].mean(axis=0))))
    std_err = float(np.max(np.abs(standardized[:, non_constant].std(axis=0) - 1.0)))
    zscore_ok = mean_err <= 1e-9 and std_err <= 1e-9 and np.all(standardized[:, 3] == 0.0)

    ok = minmax_ok and zscore_ok
    report(capsys, 8, ok,
           f"normalizers: MINMAX maps train min/max to 0/1 and constants to 0 = {minmax_ok}; "
           f"ZSCORE mean error {mean_err:.2e} <= 1e-9, std error {std_err:.2e} <= 1e-9")


# ---------------------------------------------------------------------------
# 9. Pipeline gating over a 1000-window stream + routing table


def restrict(bundle, sensors):
    from adlsense.datasets import WindowBundle

    return WindowBundle(
        id=bundle.id, label=bundle.label, label_kind=bundle.label_kind,
        audio=bundle.audio if "MIC" in sensors else None,
        motion={s: bundle.motion[s] for s in sensors if s != "MIC"} or None,
        environment=bundle.environment,
    )


def test_criterion_09_gating_and_routing(capsys):
    config = PipelineConfig(seed=42, env_iterations=120_000, adl_iterations=60_000,
                            standing_iterations=40_000)
    pipeline = train_pipeline(
        synth_windows(default_environment_spec(40, seed=42)),
        synth_windows(default_adl_spec(40, seed=42)),
        list(synth_windows(default_standing_spec(40, seed=42))),
        config,
    )

    # 1000 mixed windows the models never saw: audio-only scenes, motion-only
    # activities under rotating sensor subsets, and full-sensor standing
    # windows that can trigger the refinement stage.
    env_stream = synth_windows(default_environment_spec(38, seed=4242))
    adl_stream = synth_windows(default_adl_spec(67, seed=4243))
    standing_stream = synth_windows(default_standing_spec(167, seed=4244))
    motion_subsets = [("ACC", "MAG", "GYRO"), ("ACC", "MAG"), ("ACC",)]

    windows = list(env_stream)[:334]
    for i, bundle in enumerate(list(adl_stream)[:333]):
        windows.append(restrict(bundle, motion_subsets[i % 3]))
    windows.extend(list(standing_stream)[:333])
    assert len(windows) == 1000

    gating_violations = 0
    refined = 0
    standing_emitted = 0
    for bundle in windows:
        result = classify_window(pipeline, bundle)
        if result.adl in DEFAULT_STANDING:
            standing_emitted += 1
            stage1 = max(result.scores["adl"], key=result.scores["adl"].get)
            if stage1 != "standing":
                gating_violations += 1
        if "standing" in result.scores:
            refined += 1

    def expected_method_id(subset):
        # Independent restatement of the sensor rule: ACC anchors motion,
        # MAG rides on ACC, GYRO rides on ACC+MAG, MIC adds the env stage.
        s = set(subset)
        motion = []
        if "ACC" in s:
            motion.append("acc")
            if "MAG" in s:
                motion.append("mag")
                if "GYRO" in s:
                    motion.append("gyro")
        if motion:
            prefix = "fusion_" if "MIC" in s else "motion_"
            return prefix + "_".join(motion)
        return "audio_env" if "MIC" in s else None

    table = {}
    errors = []
    maximal_ok = True
    for mask in range(16):
        subset = tuple(s for i, s in enumerate(SENSOR_UNIVERSE) if mask >> i & 1)
        try:
            table[subset] = route_method(subset)
            maximal_ok &= table[subset].id == expected_method_id(subset)
        except UnsupportedSensorsError:
            errors.append(subset)
            maximal_ok &= expected_method_id(subset) is None
    expected_errors = [(), ("MAG",), ("GYRO",), ("MAG", "GYRO")]

    ok = (gating_violations == 0 and standing_emitted > 0 and refined > 0
          and maximal_ok and sorted(errors) == sorted(expected_errors))
    report(capsys, 9, ok,
           f"gating & routing: {standing_emitted} refined labels over 1000 windows, "
           f"{gating_violations} gating violations (every one preceded by a stage-1 "
           f"'standing'), routing defined on {len(table)}/16 subsets, unsupported = "
           f"{sorted(errors)} (the sensor rule leaves these 4 without a method)")


# ---------------------------------------------------------------------------
# 10. Full determinism of criteria 5-7


def test_criterion_10_determinism(capsys, env_experiment, standing_experiment,
                                  adl_experiment, tmp_path):
    repeats = {
        "environment": (env_experiment, run_environment_protocol()),
        "adl": (adl_experiment, run_adl_protocol()),
    }
    standing_repeat = run_standing_protocol()

    identical = True
    details = []
    for name, (first, second) in repeats.items():
        byte_equal = _model_files_match(tmp_path, name, first["model"], second["model"])
        data_equal = np.array_equal(first["dataset"].rows, second["dataset"].rows)
        acc_equal = first["accuracy"] == second["accuracy"]
        identical &= byte_equal and data_equal and acc_equal
        details.append(f"{name}: files {byte_equal}, rows {data_equal}, accuracy {acc_equal}")
    for key, first in standing_experiment.items():
        second = standing_repeat[key]
        byte_equal = _model_files_match(tmp_path, f"standing-{key}", first["model"],
                                        second["model"])
        acc_equal = first["accuracy"] == second["accuracy"]
        identical &= byte_equal and acc_equal
        details.append(f"standing[{key}]: files {byte_equal}, accuracy {acc_equal}")

    report(capsys, 10, identical,
           "determinism: repeated protocols give byte-identical model files and "
           "identical accuracies -> " + "; ".join(details))


def _model_files_match(tmp_path, name, model_a, model_b):
    path_a = tmp_path / f"{name}-a.json"
    path_b = tmp_path / f"{name}-b.json"
    save_model(model_a, path_a)
    save_model(model_b, path_b)
    return path_a.read_bytes() == path_b.read_bytes() and \
        model_to_json(model_a) == model_to_json(model_b)
