#!/usr/bin/env python3
"""Reproduce the three headline recognition results on synthetic corpora.

Trains the environment stage (A1 audio features, FEEDFORWARD preset, no
normalization), the activity stage (F1 motion features, DEEP preset), and the
standing-refinement models (F1 + oracle environment one-hot, one model per
usable sensor set), then prints held-out accuracy for each. Defaults are
sized to finish in about half a minute; raise --windows/--iterations to
approach the full protocol (200 windows per label, 300k iterations).
"""

import argparse
import time

from adlsense.datasets import DatasetConfig, build_dataset, stratified_split
from adlsense.network import NetworkConfig, evaluate, fit_model
from adlsense.synth import (
    DEFAULT_ENVIRONMENTS,
    DEFAULT_STANDING,
    DEFAULT_STANDING_PARAMS,
    SynthSpec,
    default_adl_spec,
    default_environment_spec,
    synth_windows,
)


def run_stage(name, dataset, preset, seed, iterations, **overrides):
    train_set, test_set = stratified_split(dataset, 0.3, seed=seed)
    config = NetworkConfig.from_preset(preset, seed=seed,
                                       iteration_budget=iterations, **overrides)
    started = time.perf_counter()
    model, _ = fit_model(config, train_set.rows, train_set.labels,
                         label_names=dataset.label_names)
    accuracy = evaluate(model, test_set.rows, test_set.labels).accuracy
    print(f"  {name:<28} {preset:<12} acc {accuracy * 100:6.2f}   "
          f"({len(train_set)} train / {len(test_set)} test, "
          f"{time.perf_counter() - started:.1f}s)")
    return accuracy


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--windows", type=int, default=40,
                        help="windows per label (default 40)")
    parser.add_argument("--iterations", type=int, default=100_000,
                        help="SGD iteration budget per model (default 100k)")
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    print(f"windows/label={args.windows} iterations={args.iterations} seed={args.seed}")

    print("environment stage (A1 audio features):")
    dataset = build_dataset(
        synth_windows(default_environment_spec(args.windows, seed=args.seed)), "A1")
    run_stage("9 scenes", dataset, "FEEDFORWARD", args.seed, args.iterations,
              normalization="NONE")

    print("activity stage (F1 motion features, all sensors):")
    dataset = build_dataset(
        synth_windows(default_adl_spec(args.windows, seed=args.seed)), "F1")
    run_stage("5 activities", dataset, "DEEP", args.seed, args.iterations)

    print("standing refinement (F1 + oracle environment one-hot):")
    corpus = list(synth_windows(SynthSpec(
        "ADL", DEFAULT_STANDING, args.windows, dict(DEFAULT_STANDING_PARAMS),
        seed=args.seed)))
    for sensors in (("ACC",), ("ACC", "MAG"), ("ACC", "MAG", "GYRO")):
        dataset = build_dataset(
            corpus, "F1",
            cfg=DatasetConfig(env_mode="oracle", env_labels=DEFAULT_ENVIRONMENTS,
                              sensors=sensors))
        run_stage("+".join(sensors), dataset, "DEEP", args.seed, args.iterations)


if __name__ == "__main__":
    main()
