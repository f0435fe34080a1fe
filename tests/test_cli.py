"""End-to-end command-line flows on tiny corpora, exit codes, manifests."""

import configparser
import dataclasses
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import adlsense.cli
import adlsense.network
from adlsense.cli import INI_READERS, _section_values, build_parser, ini_field_types, main
from adlsense.datasets import WindowBundle, load_dataset, parse_sensor_log, write_sensor_log
from adlsense.pipeline import PipelineConfig
from adlsense.signals import SampleSeries
from adlsense.synth import AdlParams, EnvParams, SynthSpec, default_standing_spec, synth_windows

ENV_SPEC = """\
[corpus]
kind = ENVIRONMENT
windows_per_label = 4
labels = bedroom, watching TV
"""

ADL_SPEC = """\
[corpus]
kind = ADL
windows_per_label = 4
"""

STANDING_SPEC = """\
[corpus]
kind = ADL
windows_per_label = 4
labels = sleeping, watching TV
with_audio = true
"""

PIPELINE_INI = """\
[pipeline]
env_iterations = 6000
adl_iterations = 9000
standing_iterations = 5000
"""

GRID_INI = """\
[grid]
presets = mlp, feedforward
variants = A2
normalizations = minmax
iterations = 1000, 2000
test_fraction = 0.5
"""


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """Run the whole command chain once; tests assert on its artifacts."""
    root = tmp_path_factory.mktemp("cli")
    paths = {
        "root": root,
        "env_spec": root / "env-spec.ini",
        "adl_spec": root / "adl-spec.ini",
        "standing_spec": root / "standing-spec.ini",
        "pipeline_ini": root / "pipeline.ini",
        "grid": root / "grid.ini",
        "env_dir": root / "env-logs",
        "adl_dir": root / "adl-logs",
        "standing_dir": root / "standing-logs",
        "env_csv": root / "env.csv",
        "adl_csv": root / "adl.csv",
        "env_model": root / "env.model.json",
        "sweep_csv": root / "sweep.csv",
        "pipeline": root / "pipeline.json",
        "results": root / "standing-results.jsonl",
        "motion_results": root / "motion-results.jsonl",
    }
    paths["env_spec"].write_text(ENV_SPEC)
    paths["adl_spec"].write_text(ADL_SPEC)
    paths["standing_spec"].write_text(STANDING_SPEC)
    paths["pipeline_ini"].write_text(PIPELINE_INI)
    paths["grid"].write_text(GRID_INI)

    assert main(["synth", "--config", str(paths["env_spec"]),
                 "--out", str(paths["env_dir"])]) == 0
    assert main(["synth", "--config", str(paths["adl_spec"]),
                 "--out", str(paths["adl_dir"])]) == 0
    assert main(["synth", "--config", str(paths["standing_spec"]),
                 "--out", str(paths["standing_dir"])]) == 0

    env_logs = sorted(str(p) for p in paths["env_dir"].glob("*.log"))
    assert main(["extract", *env_logs, "--variant", "A2",
                 "--out", str(paths["env_csv"])]) == 0

    adl_logs = sorted(str(p) for p in paths["adl_dir"].glob("*.log"))
    assert main(["extract", *adl_logs, "--variant", "F1", "--no-env",
                 "--out", str(paths["adl_csv"])]) == 0

    assert main(["train", str(paths["env_csv"]), "--preset", "mlp",
                 "--normalize", "minmax", "--iterations", "3000",
                 "--out", str(paths["env_model"])]) == 0

    assert main(["sweep", str(paths["env_dir"]), "--config", str(paths["grid"]),
                 "--out", str(paths["sweep_csv"])]) == 0

    assert main(["pipeline", "train",
                 "--env-logs", str(paths["env_dir"]),
                 "--adl-logs", str(paths["adl_dir"]),
                 "--standing-logs", str(paths["standing_dir"]),
                 "--config", str(paths["pipeline_ini"]),
                 "--out", str(paths["pipeline"])]) == 0

    standing_logs = sorted(str(p) for p in paths["standing_dir"].glob("*.log"))
    assert main(["pipeline", "run", *standing_logs,
                 "--pipeline", str(paths["pipeline"]),
                 "--out", str(paths["results"])]) == 0
    assert main(["pipeline", "run", *adl_logs,
                 "--pipeline", str(paths["pipeline"]),
                 "--out", str(paths["motion_results"])]) == 0
    return paths


class TestSynth:
    def test_one_log_per_label(self, work):
        names = sorted(p.name for p in work["env_dir"].glob("*.log"))
        assert names == ["bedroom.log", "watching-TV.log"]

    def test_audio_corpora_split_into_channel_files(self, work):
        names = sorted(p.name for p in work["standing_dir"].glob("*.log"))
        assert names == ["sleeping-audio.log", "sleeping-motion.log",
                         "watching-TV-audio.log", "watching-TV-motion.log"]

    def test_manifest_lists_every_output(self, work):
        manifest = json.loads((work["env_dir"] / "manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["seed"] == 42
        assert manifest["config"]["windows_per_label"] == 4
        assert len(manifest["outputs"]) == 2
        for digest in manifest["outputs"].values():
            assert len(digest) == 64

    def test_rerun_is_byte_identical(self, work, tmp_path):
        before = {p.name: p.read_bytes() for p in work["env_dir"].iterdir()}
        assert main(["synth", "--config", str(work["env_spec"]),
                     "--out", str(work["env_dir"])]) == 0
        after = {p.name: p.read_bytes() for p in work["env_dir"].iterdir()}
        assert before == after

    def test_zero_window_spec_is_a_usage_error(self, tmp_path):
        spec = tmp_path / "bad.ini"
        spec.write_text("[corpus]\nkind = ENVIRONMENT\nwindows_per_label = 0\n")
        assert main(["synth", "--config", str(spec), "--out", str(tmp_path / "o")]) == 2

    def test_unknown_label_is_a_usage_error(self, tmp_path):
        spec = tmp_path / "bad.ini"
        spec.write_text("[corpus]\nkind = ENVIRONMENT\nwindows_per_label = 1\nlabels = moon\n")
        assert main(["synth", "--config", str(spec), "--out", str(tmp_path / "o")]) == 2

    def test_custom_label_section(self, tmp_path):
        spec = tmp_path / "custom.ini"
        spec.write_text(
            "[corpus]\nkind = ENVIRONMENT\nwindows_per_label = 1\nlabels = cave\n"
            "[label:cave]\ntilt = -2.0\namplitude = 0.5\nbands = 100:50:2.0\n"
        )
        out = tmp_path / "cave-logs"
        assert main(["synth", "--config", str(spec), "--out", str(out)]) == 0
        assert (out / "cave.log").exists()

    def test_labels_sharing_a_file_name_are_a_usage_error(self, tmp_path, capsys):
        spec = tmp_path / "clash.ini"
        spec.write_text(
            "[corpus]\nkind = ENVIRONMENT\nwindows_per_label = 1\nlabels = a b, a-b\n"
            "[label:a b]\ntilt = -2.0\namplitude = 0.5\nbands = 100:50:2.0\n"
            "[label:a-b]\ntilt = -1.0\namplitude = 0.5\nbands = 100:50:2.0\n"
        )
        out = tmp_path / "clash-logs"
        assert main(["synth", "--config", str(spec), "--out", str(out)]) == 2
        assert "'a-b'" in capsys.readouterr().err
        assert not out.exists()


class TestExtract:
    def test_audio_dataset_shape(self, work):
        ds = load_dataset(work["env_csv"])
        assert ds.variant == "A2"
        assert len(ds.feature_names) == 6
        assert len(ds) == 8

    def test_directory_input_matches_file_list(self, work, tmp_path):
        out = tmp_path / "from-dir.csv"
        assert main(["extract", str(work["env_dir"]), "--variant", "A2",
                     "--out", str(out)]) == 0
        assert out.read_bytes() == work["env_csv"].read_bytes()

    def test_missing_input_is_a_usage_error(self, tmp_path):
        assert main(["extract", str(tmp_path / "nowhere.log"), "--variant", "A2",
                     "--out", str(tmp_path / "never.csv")]) == 2

    def test_motion_dataset_without_env_block(self, work):
        ds = load_dataset(work["adl_csv"])
        assert ds.variant == "F1"
        assert len(ds.feature_names) == 45
        assert len(ds) == 20

    def test_oracle_env_block_from_annotations(self, work, tmp_path):
        out = tmp_path / "standing-oracle.csv"
        logs = sorted(str(p) for p in work["standing_dir"].glob("*-motion.log"))
        assert main(["extract", *logs, "--variant", "F3", "--sensors", "ACC",
                     "--oracle-env", "--out", str(out)]) == 0
        ds = load_dataset(out)
        assert len(ds.feature_names) == 8  # 6 motion + 2 scenes
        assert ds.feature_names[-2:] == ["env_bedroom", "env_watching_TV"]

    def test_predicted_env_block_from_model(self, work, tmp_path):
        out = tmp_path / "standing-predicted.csv"
        logs = sorted(str(p) for p in work["standing_dir"].glob("*.log"))
        assert main(["extract", *logs, "--variant", "F1",
                     "--env-model", str(work["env_model"]),
                     "--out", str(out)]) == 0
        ds = load_dataset(out)
        assert len(ds.feature_names) == 47  # 45 motion + 2 model labels
        assert len(ds) == 8

    def test_fusion_variant_requires_an_env_choice(self, work):
        logs = sorted(str(p) for p in work["adl_dir"].glob("*.log"))
        assert main(["extract", *logs, "--variant", "F1",
                     "--out", "/tmp/never.csv"]) == 2

    def test_audio_variant_rejects_env_flags(self, work):
        logs = sorted(str(p) for p in work["env_dir"].glob("*.log"))
        assert main(["extract", *logs, "--variant", "A1", "--oracle-env",
                     "--out", "/tmp/never.csv"]) == 2

    def test_unknown_sensor_rejected(self, work):
        logs = sorted(str(p) for p in work["adl_dir"].glob("*.log"))
        assert main(["extract", *logs, "--variant", "F1", "--no-env",
                     "--sensors", "ACC,BARO", "--out", "/tmp/never.csv"]) == 2

    def test_a1_on_44100_hz_audio_is_a_data_error(self, tmp_path, capsys):
        log = tmp_path / "cd.log"
        tone = np.sin(np.arange(4410) * 0.1)
        write_sensor_log(log, [WindowBundle(id="w0", label="x", label_kind="ENVIRONMENT",
                                            audio=SampleSeries(tone, 44100.0))])
        assert main(["extract", str(log), "--variant", "A1",
                     "--out", str(tmp_path / "never.csv")]) == 3
        assert "44100 Hz" in capsys.readouterr().err

    def test_corrupt_log_is_a_data_error(self, tmp_path):
        bad = tmp_path / "bad.log"
        bad.write_text("#adl-sense v1 kind=audio label=x label_kind=ENVIRONMENT rate_hz=8000\nbroken\n")
        assert main(["extract", str(bad), "--variant", "A2",
                     "--out", str(tmp_path / "never.csv")]) == 3


class TestTrainEval:
    def test_train_prints_two_decimal_accuracy(self, work, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert main(["train", str(work["env_csv"]), "--preset", "feedforward",
                     "--normalize", "none", "--iterations", "1500",
                     "--test-fraction", "0.5", "--out", str(out)]) == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        assert line.startswith("test accuracy: ")
        value = line.split(": ")[1]
        assert len(value.split(".")[1]) == 2

    def test_train_rerun_is_byte_identical(self, work, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for out in (a, b):
            assert main(["train", str(work["env_csv"]), "--preset", "mlp",
                         "--iterations", "500", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_train_manifest_records_protocol(self, work):
        manifest = json.loads(Path(f"{work['env_model']}.manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["config"]["preset"] == "MLP"
        assert manifest["config"]["iterations"] == 3000
        assert str(work["env_model"]) in manifest["outputs"]

    def test_eval_table_report(self, work, capsys):
        assert main(["eval", str(work["env_csv"]), "--model",
                     str(work["env_model"])]) == 0
        out = capsys.readouterr().out
        assert out.startswith("accuracy: ")
        assert "precision" in out and "confusion" in out

    def test_eval_json_report_round_trips(self, work, capsys):
        assert main(["eval", str(work["env_csv"]), "--model", str(work["env_model"]),
                     "--report", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) >= {"labels", "accuracy", "confusion", "precision", "recall"}
        totals = [sum(row) for row in doc["confusion"]]
        assert sum(totals) == 8

    def test_eval_width_mismatch_is_a_data_error(self, work):
        assert main(["eval", str(work["adl_csv"]), "--model",
                     str(work["env_model"])]) == 3

    def test_missing_dataset_is_a_data_error(self, work):
        assert main(["eval", "/does/not/exist.csv", "--model",
                     str(work["env_model"])]) == 3

    def test_mismatched_normalizer_is_a_data_error(self, work, tmp_path, capsys):
        doc = json.loads(work["env_model"].read_text())
        params = doc["normalizer"]["params"]
        doc["normalizer"]["params"] = {"mean": params["min"], "std": params["max"]}
        bad = tmp_path / "bad.model.json"
        bad.write_text(json.dumps(doc))
        assert main(["eval", str(work["env_csv"]), "--model", str(bad)]) == 3
        assert "normalizer" in capsys.readouterr().err

    def test_non_finite_dataset_cell_is_a_data_error(self, work, tmp_path, capsys):
        lines = work["env_csv"].read_text().splitlines()
        lines[1] = "nan" + lines[1][lines[1].index(","):]
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["eval", str(bad), "--model", str(work["env_model"])]) == 3
        assert main(["train", str(bad), "--preset", "mlp", "--iterations", "100",
                     "--out", str(tmp_path / "m.json")]) == 3
        assert ":2: non-finite" in capsys.readouterr().err


class TestSweep:
    def test_grid_row_count(self, work):
        lines = work["sweep_csv"].read_text().splitlines()
        assert lines[0] == "preset,variant,normalization,iterations,accuracy"
        assert len(lines) == 1 + 2 * 1 * 1 * 2

    def test_sweep_rerun_is_byte_identical(self, work, tmp_path):
        out = tmp_path / "sweep2.csv"
        assert main(["sweep", str(work["env_dir"]), "--config", str(work["grid"]),
                     "--out", str(out)]) == 0
        assert out.read_bytes() == work["sweep_csv"].read_bytes()

    def test_best_row_printed_per_variant(self, work, tmp_path, capsys):
        out = tmp_path / "sweep3.csv"
        assert main(["sweep", str(work["env_dir"]), "--config", str(work["grid"]),
                     "--out", str(out)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert any(l.startswith("best A2: preset=") for l in lines)

    def test_bad_grid_is_a_usage_error(self, work, tmp_path):
        grid = tmp_path / "grid.ini"
        grid.write_text("[grid]\npresets = mlp\n")
        assert main(["sweep", str(work["env_dir"]), "--config", str(grid),
                     "--out", str(tmp_path / "never.csv")]) == 2


class TestPipelineCommands:
    def test_pipeline_file_and_manifest_exist(self, work):
        doc = json.loads(work["pipeline"].read_text())
        assert doc["kind"] == "adl-pipeline"
        manifest = json.loads(Path(f"{work['pipeline']}.manifest.json").read_text())
        assert manifest["command"] == "pipeline train"
        assert manifest["config"]["env_iterations"] == 6000

    def test_pipeline_train_rerun_is_byte_identical(self, work, tmp_path):
        out = tmp_path / "pipeline2.json"
        assert main(["pipeline", "train",
                     "--env-logs", str(work["env_dir"]),
                     "--adl-logs", str(work["adl_dir"]),
                     "--standing-logs", str(work["standing_dir"]),
                     "--config", str(work["pipeline_ini"]),
                     "--out", str(out)]) == 0
        assert out.read_bytes() == work["pipeline"].read_bytes()

    def test_fusion_results_have_both_labels(self, work):
        lines = work["results"].read_text().splitlines()
        assert len(lines) == 8
        for line in lines:
            doc = json.loads(line)
            assert doc["method"] == "fusion_acc_mag_gyro"
            assert doc["adl"] is not None
            assert doc["environment"] is not None

    def test_motion_only_results_omit_environment(self, work):
        lines = work["motion_results"].read_text().splitlines()
        assert len(lines) == 20
        for line in lines:
            doc = json.loads(line)
            assert doc["method"] == "motion_acc_mag_gyro"
            assert doc["environment"] is None
            assert doc["adl"] is not None

    def test_run_to_stdout(self, work, capsys):
        log = sorted(str(p) for p in work["adl_dir"].glob("*.log"))[0]
        assert main(["pipeline", "run", log, "--pipeline", str(work["pipeline"])]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4
        json.loads(lines[0])

    def test_run_on_a_directory_matches_file_list(self, work, tmp_path):
        out = tmp_path / "from-dir.jsonl"
        assert main(["pipeline", "run", str(work["adl_dir"]),
                     "--pipeline", str(work["pipeline"]),
                     "--out", str(out)]) == 0
        assert out.read_bytes() == work["motion_results"].read_bytes()

    def test_failed_stage_returns_training_exit_code(self, work, tmp_path):
        ini = tmp_path / "p.ini"
        ini.write_text("[pipeline]\nenv_iterations = 0\n")
        assert main(["pipeline", "train",
                     "--env-logs", str(work["env_dir"]),
                     "--adl-logs", str(work["adl_dir"]),
                     "--standing-logs", str(work["standing_dir"]),
                     "--config", str(ini),
                     "--out", str(tmp_path / "never.json")]) == 4

    def test_diverging_refiner_returns_training_exit_code(self, work, tmp_path, monkeypatch,
                                                         capsys):
        real_init = adlsense.network.init_network
        refiners = []

        def init(config, input_size, labels):
            # The refiners are the models trained to the standing budget; the
            # ACC+MAG one starts with a NaN weight.
            model = real_init(config, input_size, labels)
            if config.iteration_budget == 5000:
                refiners.append(model)
                if len(refiners) == 2:
                    model.weights[0][0, 0] = np.nan
            return model

        monkeypatch.setattr(adlsense.network, "init_network", init)
        assert main(["pipeline", "train",
                     "--env-logs", str(work["env_dir"]),
                     "--adl-logs", str(work["adl_dir"]),
                     "--standing-logs", str(work["standing_dir"]),
                     "--config", str(work["pipeline_ini"]),
                     "--out", str(tmp_path / "never.json")]) == 4
        assert len(refiners) == 3
        assert "non-finite loss nan during training step" in capsys.readouterr().err
        assert not (tmp_path / "never.json").exists()

    def test_unknown_pipeline_setting_is_a_usage_error(self, work, tmp_path):
        ini = tmp_path / "p.ini"
        ini.write_text("[pipeline]\nwarp_speed = 9\n")
        assert main(["pipeline", "train",
                     "--env-logs", str(work["env_dir"]),
                     "--adl-logs", str(work["adl_dir"]),
                     "--standing-logs", str(work["standing_dir"]),
                     "--config", str(ini),
                     "--out", str(tmp_path / "never.json")]) == 2


@pytest.fixture(scope="module")
def standing_windows():
    """Two sleeping and two watching-TV windows, each with audio and motion."""
    return list(synth_windows(default_standing_spec(2, seed=11)))


def channel(bundle, kind, wid, **changes):
    """One channel of ``bundle`` as a window ``wid``, other fields replaced."""
    return dataclasses.replace(bundle.channel_view(kind), id=wid, **changes)


def run_windows(work, tmp_path, files):
    """``pipeline run`` over logs written from ``files`` (name -> bundles):
    (exit code, result lines or None when no file was written)."""
    paths = []
    for name, bundles in files.items():
        paths.append(tmp_path / name)
        write_sensor_log(paths[-1], bundles)
    out = tmp_path / "results.jsonl"
    code = main(["pipeline", "run", *map(str, paths), "--pipeline", str(work["pipeline"]),
                 "--out", str(out)])
    lines = out.read_text().splitlines() if out.exists() else None
    return code, lines


class TestWindowMerge:
    """Windows sharing an id across logs are joined into one window."""

    def test_conflicting_labels(self, work, tmp_path, capsys, standing_windows):
        sleeping, _, watching, _ = standing_windows
        code, lines = run_windows(work, tmp_path, {
            "a-audio.log": [channel(sleeping, "audio", "w0")],
            "b-motion.log": [channel(watching, "motion", "w0")],
        })
        assert (code, lines) == (3, None)
        assert capsys.readouterr().err == "error: window 'w0' appears with conflicting labels\n"

    def test_duplicate_audio_across_files(self, work, tmp_path, capsys, standing_windows):
        first, second = standing_windows[:2]
        code, lines = run_windows(work, tmp_path, {
            "a-audio.log": [channel(first, "audio", "w0")],
            "b-audio.log": [channel(second, "audio", "w0")],
        })
        assert (code, lines) == (3, None)
        assert capsys.readouterr().err == \
            "error: window 'w0' has duplicate channels across files\n"

    def test_one_id_twice_in_one_file(self, work, tmp_path, capsys, standing_windows):
        first, second = standing_windows[:2]
        code, lines = run_windows(work, tmp_path, {
            "a-motion.log": [channel(first, "motion", "w0"), channel(second, "motion", "w0")],
        })
        assert (code, lines) == (3, None)
        assert capsys.readouterr().err == \
            "error: window 'w0' has duplicate channels across files\n"

    def test_conflicting_environments(self, work, tmp_path, capsys, standing_windows):
        sleeping = standing_windows[0]
        code, lines = run_windows(work, tmp_path, {
            "a-audio.log": [channel(sleeping, "audio", "w0")],
            "b-motion.log": [channel(sleeping, "motion", "w0", environment="kitchen")],
        })
        assert (code, lines) == (3, None)
        assert capsys.readouterr().err == \
            "error: window 'w0' has conflicting environment annotations\n"

    def test_windows_keep_their_first_appearance_order(self, work, tmp_path, standing_windows):
        # x's motion is in the last file, after the windows of b-motion.log;
        # s has audio only and m1, m2 motion only.
        sleeping, sleeping2, watching, watching2 = standing_windows
        code, lines = run_windows(work, tmp_path, {
            "a-audio.log": [channel(sleeping, "audio", "x"), channel(sleeping2, "audio", "s")],
            "b-motion.log": [channel(watching, "motion", "m1"),
                             channel(watching2, "motion", "m2")],
            "c-motion.log": [channel(sleeping, "motion", "x")],
        })
        assert code == 0
        docs = [json.loads(line) for line in lines]
        assert [(d["window_id"], d["method"]) for d in docs] == [
            ("x", "fusion_acc_mag_gyro"), ("s", "audio_env"),
            ("m1", "motion_acc_mag_gyro"), ("m2", "motion_acc_mag_gyro")]
        assert [d["environment"] is None for d in docs] == [False, False, True, True]
        assert [d["adl"] is None for d in docs] == [False, True, False, False]


class TestStreamingRun:
    """`pipeline run` classifies windows as their files are read."""

    def test_peak_memory_does_not_grow_with_the_corpus(self, work, tmp_path, standing_windows):
        # Each pair of files holds 8 one-second fusion windows; the large
        # corpus has four pairs, the small one one.
        sleeping = standing_windows[:2]

        def corpus(name, pairs):
            root = tmp_path / name
            root.mkdir()
            for j in range(pairs):
                windows = [dataclasses.replace(w, id=f"p{j}-{k}",
                                               audio=SampleSeries(w.audio.values[:8000], 8000.0))
                           for k, w in enumerate(sleeping * 4)]
                for kind in ("audio", "motion"):
                    write_sensor_log(root / f"p{j}-{kind}.log",
                                     [w.channel_view(kind) for w in windows])
            return root

        def peak(root):
            tracemalloc.start()
            try:
                assert main(["pipeline", "run", str(root), "--pipeline", str(work["pipeline"]),
                             "--out", str(tmp_path / "results.jsonl")]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = corpus("small", 1), corpus("large", 4)
        peak(small)  # fills the feature layers' caches
        small_peak, large_peak = peak(small), peak(large)
        assert len((tmp_path / "results.jsonl").read_text().splitlines()) == 32
        assert large_peak <= 1.5 * small_peak, f"{large_peak / small_peak:.2f}x"

    def test_a_log_that_changes_after_its_index_is_a_data_error(self, work, tmp_path, capsys,
                                                                  monkeypatch, standing_windows):
        log = tmp_path / "a-audio.log"
        write_sensor_log(log, [channel(w, "audio", f"w{i}")
                               for i, w in enumerate(standing_windows[:2])])
        parse = adlsense.cli.parse_sensor_log
        monkeypatch.setattr(adlsense.cli, "parse_sensor_log", lambda path: parse(path)[:1])
        out = tmp_path / "results.jsonl"
        assert main(["pipeline", "run", str(log), "--pipeline", str(work["pipeline"]),
                     "--out", str(out)]) == 3
        assert "changed while it was read" in capsys.readouterr().err
        assert not out.exists()

    def test_a_log_that_is_not_utf8_keeps_the_parser_error(self, work, tmp_path, capsys,
                                                         standing_windows):
        good, bad = tmp_path / "a-audio.log", tmp_path / "b-audio.log"
        write_sensor_log(good, [channel(standing_windows[0], "audio", "w0")])
        write_sensor_log(bad, [channel(standing_windows[1], "audio", "w1")])
        bad.write_bytes(bad.read_bytes()[:20_000] + b"\xff\n")
        with pytest.raises(UnicodeDecodeError) as err:
            parse_sensor_log(bad)
        assert main(["pipeline", "run", str(good), str(bad),
                     "--pipeline", str(work["pipeline"])]) == 3
        assert capsys.readouterr() == ("", f"error: {err.value}\n")

    def test_a_bad_header_in_a_later_log_is_reported_first(self, work, tmp_path, capsys,
                                                          standing_windows):
        # Every file is indexed before any is parsed, so a header fault in b
        # wins over a sample fault in a.
        a, b = tmp_path / "a-audio.log", tmp_path / "b-audio.log"
        write_sensor_log(a, [channel(standing_windows[0], "audio", "w0")])
        a.write_text(a.read_text() + "oops\n")
        b.write_text("#adl-sense v1 kind=video label=x label_kind=ADL rate_hz=100\n")
        assert main(["pipeline", "run", str(a), str(b),
                     "--pipeline", str(work["pipeline"])]) == 3
        assert capsys.readouterr().err == \
            f"error: {b}:1: kind must be audio or motion, got 'video'\n"


class TestUsage:
    def test_missing_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main(["train", "--bogus"])
        assert err.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0
        assert capsys.readouterr().out.startswith("adlsense ")


class TestIniReader:
    @pytest.mark.parametrize("cls", [PipelineConfig, SynthSpec, EnvParams, AdlParams])
    def test_every_ini_field_has_a_reader(self, cls):
        # SynthSpec.params comes from the [label:NAME] sections, not [corpus].
        types = ini_field_types(cls, skip=("params",))
        unreadable = {name: t for name, t in types.items() if t not in INI_READERS}
        assert not unreadable

    def test_reads_each_key_as_its_field_type(self):
        @dataclasses.dataclass(frozen=True)
        class Settings:
            count: int = 0
            rate: float = 1.0
            flag: bool = False
            name: str = ""
            items: tuple = ()
            fixed: int = 5

        ini = configparser.ConfigParser()
        ini.read_string("[s]\ncount = 3\nrate = 0.25\nflag = yes\nname = a b\n"
                        "items = x, y z,\n")
        assert _section_values("s.ini", ini["s"], Settings, skip=("fixed",)) == {
            "count": 3, "rate": 0.25, "flag": True, "name": "a b", "items": ("x", "y z"),
        }

    @pytest.mark.parametrize("command, text", [
        (["synth"], "[corpus]\nkind = ADL\nwindows_per_label = 1\nwith_adio = true\n"),
        (["synth"], "[corpus]\nkind = ENVIRONMENT\nwindows_per_label = 1\nlabels = cave\n"
                    "[label:cave]\ntilt = -2.0\namplitude = 0.5\nband = 100:50:2\n"),
        (["synth"], "[corpus]\nkind = ADL\nwindows_per_label = 1\nseed = 3\n"),
        (["pipeline", "train", "--env-logs", "e", "--adl-logs", "a", "--standing-logs", "s"],
         "[pipeline]\nseed = 3\n"),
        (["sweep", "corpus"], "[grid]\npresets = mlp\nvariants = A2\nnormalizations = minmax\n"
                              "iterations = 10\ntest_frac = 0.75\n"),
        (["sweep", "corpus"], "[grid]\npresets = mlp\nvariants = F1\nnormalizations = minmax\n"
                              "iterations = 10\nenvs = oracle\n"),
    ])
    def test_unknown_key_is_a_usage_error_before_any_output(self, tmp_path, capsys,
                                                            command, text):
        config = tmp_path / "settings.ini"
        config.write_text(text)
        out = tmp_path / "out"
        assert main([*command, "--config", str(config), "--out", str(out)]) == 2
        assert "has no key" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["settings.ini"]

    def test_label_section_missing_a_field_names_it(self, tmp_path, capsys):
        spec = tmp_path / "spec.ini"
        spec.write_text("[corpus]\nkind = ENVIRONMENT\nwindows_per_label = 1\nlabels = cave\n"
                        "[label:cave]\namplitude = 0.5\n")
        out = tmp_path / "out"
        assert main(["synth", "--config", str(spec), "--out", str(out)]) == 2
        assert "'tilt'" in capsys.readouterr().err
        assert not out.exists()

    def test_adl_label_section_without_environment_loads_empty(self, tmp_path):
        spec = tmp_path / "spec.ini"
        spec.write_text("[corpus]\nkind = ADL\nwindows_per_label = 1\nlabels = crawling\n"
                        "[label:crawling]\nfrequency_hz = 0.7\namplitude = 0.9\n"
                        "noise_std = 0.3\n")
        out = tmp_path / "out"
        assert main(["synth", "--config", str(spec), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["params"]["crawling"]["environment"] == ""

    def test_audio_label_without_environment_is_a_usage_error(self, tmp_path, capsys):
        spec = tmp_path / "spec.ini"
        spec.write_text("[corpus]\nkind = ADL\nwindows_per_label = 1\nlabels = crawl\n"
                        "with_audio = true\n"
                        "[label:crawl]\nfrequency_hz = 0.7\namplitude = 0.9\n"
                        "noise_std = 0.3\n")
        out = tmp_path / "out"
        assert main(["synth", "--config", str(spec), "--out", str(out)]) == 2
        assert "no audio recipe for environment ''" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_value_names_the_key(self, tmp_path, capsys):
        ini = tmp_path / "p.ini"
        ini.write_text("[pipeline]\nenv_iterations = many\n")
        assert main(["pipeline", "train", "--env-logs", "e", "--adl-logs", "a",
                     "--standing-logs", "s", "--config", str(ini),
                     "--out", str(tmp_path / "never.json")]) == 2
        assert "env_iterations" in capsys.readouterr().err


class TestCountFlags:
    @pytest.mark.parametrize("argv", [
        ["synth", "--config", "spec.ini", "--out", "out", "--seed", "-1"],
        ["train", "d.csv", "--preset", "mlp", "--out", "out", "--seed", "-2"],
        ["train", "d.csv", "--preset", "mlp", "--out", "out", "--iterations", "-5"],
        ["pipeline", "run", "logs", "--pipeline", "p.json", "--seed", "x"],
    ])
    def test_negative_or_non_integer_is_a_usage_error(self, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert list(tmp_path.iterdir()) == []

    def test_every_command_takes_a_seed(self):
        for argv in (["synth", "--config", "c", "--out", "o"],
                     ["extract", "l", "--variant", "A1", "--out", "o"],
                     ["train", "d", "--preset", "mlp", "--out", "o"],
                     ["eval", "d", "--model", "m"],
                     ["sweep", "c", "--config", "g", "--out", "o"],
                     ["pipeline", "train", "--env-logs", "e", "--adl-logs", "a",
                      "--standing-logs", "s", "--out", "o"],
                     ["pipeline", "run", "l", "--pipeline", "p"]):
            assert build_parser().parse_args(argv).seed == 42
            assert build_parser().parse_args([*argv, "--seed", "0"]).seed == 0
