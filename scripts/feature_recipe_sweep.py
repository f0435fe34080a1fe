#!/usr/bin/env python3
"""Ablate the feature recipes: audio A1-A4 on scenes, motion F1-F5 on activities.

For each recipe the script builds a dataset from a fresh synthetic corpus,
does a 70/30 stratified split, trains every preset, and prints one accuracy
row per recipe x preset pair, so you can see how much each trimmed feature
block costs (and how the presets compare on the same inputs).
"""

import argparse

from adlsense.audio import AUDIO_VARIANTS
from adlsense.datasets import build_dataset, stratified_split
from adlsense.motion import MOTION_VARIANTS
from adlsense.network import NetworkConfig, evaluate, fit_model
from adlsense.synth import default_adl_spec, default_environment_spec, synth_windows

PRESETS = ("MLP", "FEEDFORWARD", "DEEP")


def sweep(title, corpus, variants, seed, iterations):
    print(f"{title}:")
    print(f"  {'recipe':<8} {'width':>5} " + " ".join(f"{p:>12}" for p in PRESETS))
    for variant in variants:
        dataset = build_dataset(corpus, variant)
        train_set, test_set = stratified_split(dataset, 0.3, seed=seed)
        cells = []
        for preset in PRESETS:
            config = NetworkConfig.from_preset(preset, seed=seed,
                                               iteration_budget=iterations)
            model, _ = fit_model(config, train_set.rows, train_set.labels,
                                 label_names=dataset.label_names)
            accuracy = evaluate(model, test_set.rows, test_set.labels).accuracy
            cells.append(f"{accuracy * 100:12.2f}")
        print(f"  {variant:<8} {len(dataset.feature_names):>5} " + " ".join(cells))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--windows", type=int, default=30,
                        help="windows per label (default 30)")
    parser.add_argument("--iterations", type=int, default=60_000,
                        help="SGD iteration budget per model (default 60k)")
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    print(f"windows/label={args.windows} iterations={args.iterations} seed={args.seed}")
    env_corpus = list(synth_windows(default_environment_spec(args.windows, seed=args.seed)))
    sweep("audio recipes, 9 scenes", env_corpus, AUDIO_VARIANTS, args.seed, args.iterations)
    adl_corpus = list(synth_windows(default_adl_spec(args.windows, seed=args.seed)))
    sweep("motion recipes, 5 activities", adl_corpus, MOTION_VARIANTS, args.seed, args.iterations)


if __name__ == "__main__":
    main()
