#!/usr/bin/env python3
"""Benchmark of the `adlsense` command on synthetic log corpora.

    python3 bench/run.py --workload stream_fusion --seed 1 --seconds 12 --trace 0
    python3 bench/run.py --self-test

Each pass runs ``adlsense.cli.main`` in a fresh single-threaded process, so
its wall time and peak RSS are what a user of the command sees. The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
bench/README.md lists the workloads, metrics and reference figures.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# numpy links a threaded OpenBLAS; one thread per process keeps figures steady
# on a small shared machine. Set before numpy is imported, here and in passes.
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(SINGLE_THREAD)

import checks  # noqa: E402  (imports numpy)
import tracing  # noqa: E402

WORKLOADS = ("stream_fusion", "stream_motion", "train")
SETUP_REPEATS = 3
MIN_PASSES = 3
MOVING = ("running", "walking", "going upstairs", "going downstairs")
FUSION_LABELS = MOVING + ("sleeping", "watching TV")
SENSOR_SETS = (("ACC",), ("ACC", "MAG"), ("ACC", "MAG", "GYRO"))


@dataclass(frozen=True)
class Scale:
    """Corpus sizes and training budgets."""

    fusion_per_set: int  # stream_fusion windows per label and sensor set
    motion_per_set: int  # stream_motion windows per label and sensor set
    env_windows: int  # training corpora: windows per scene
    adl_windows: int  # ... per activity
    standing_windows: int  # ... per standing activity (audio + motion)
    heldout_env: int  # train's held-out stream: audio-only windows per scene
    heldout_per_set: int  # ... fusion windows per label and sensor set
    iterations: tuple  # env, adl, standing SGD budgets


FULL = Scale(3, 20, 4, 20, 8, 2, 1, (12_000, 12_000, 10_000))
TINY = Scale(1, 1, 2, 4, 2, 1, 1, (3_000, 3_000, 2_000))


class Runner:
    """Starts the adlsense command, waits for it, and reports its wall time,
    peak RSS in MB and exit code."""

    def __init__(self, work: Path):
        self.log_path = work / "cli.log"
        self.peak_path = work / "peak.txt"

    def __call__(self, argv, cwd, trace_path=None):
        self.peak_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(BENCH / "launch.py"), str(self.peak_path),
               str(trace_path or "-"), *argv]
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, **SINGLE_THREAD,
               "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}
        with open(self.log_path, "ab") as log:
            log.write(f"$ {' '.join(argv)}\n".encode())
            log.flush()
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=log, stderr=log)
            try:
                proc.wait()
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        try:
            peak_mb = int(self.peak_path.read_text()) / 1024.0
        except (OSError, ValueError):
            peak_mb = float("nan")
        return wall, peak_mb, proc.returncode

    def check(self, argv, cwd, trace_path=None):
        code = self(argv, cwd, trace_path)[2]
        if code != 0:
            tail = self.log_path.read_text(errors="replace")[-2000:]
            raise RuntimeError(f"adlsense {' '.join(argv)} exited {code}:\n{tail}")


# ---------------------------------------------------------------------------
# Corpora


def _slug(label):
    return "".join(c if c.isalnum() else "-" for c in label)


def write_logs(root: Path, bundles):
    """Write bundles as logs, one file per label, channel and sensor set.

    Returns each window's ground truth and, for audio windows, the
    (log path, samples) the A1 check compares against.
    """
    from adlsense.datasets import write_sensor_log

    root.mkdir(parents=True, exist_ok=True)
    truths, samples, groups = {}, {}, {}
    for b in bundles:
        sensors = b.sensors[:-1] if b.audio is not None else b.sensors
        groups.setdefault((b.label, sensors), []).append(b)
        truths[b.id] = checks.Truth(b.label, b.environment or b.label, sensors,
                                    b.audio is not None)
    for (label, sensors), group in groups.items():
        stem = "-".join([_slug(label)] + [s.lower() for s in sensors])
        if sensors:
            write_sensor_log(root / f"{stem}-motion.log", [b.channel_view("motion") for b in group])
        if group[0].audio is not None:
            path = root / f"{stem}-audio.log"
            write_sensor_log(path, [b.channel_view("audio") if sensors else b for b in group])
            for b in group:
                samples[b.id] = (path, b.audio.values)
    return truths, samples


def stream_bundles(labels, per_set, seed, with_audio):
    """Activity windows spread evenly over ACC, ACC+MAG and ACC+MAG+GYRO."""
    from adlsense.datasets import WindowBundle
    from adlsense.synth import DEFAULT_ADL_PARAMS, DEFAULT_STANDING_PARAMS, SynthSpec, \
        synth_windows

    params = {**DEFAULT_ADL_PARAMS, **DEFAULT_STANDING_PARAMS}
    spec = SynthSpec("ADL", labels, len(SENSOR_SETS) * per_set, params, seed, with_audio)
    for i, b in enumerate(synth_windows(spec)):
        sensors = SENSOR_SETS[i % len(SENSOR_SETS)]
        yield WindowBundle(
            id="-".join([_slug(b.label)] + [s.lower() for s in sensors] + [f"{i:04d}"]),
            label=b.label, label_kind="ADL", audio=b.audio,
            motion={s: b.motion[s] for s in sensors}, environment=b.environment,
        )


def training_corpora(seed: int, scale: Scale):
    """Environment, activity and standing windows a pipeline is trained on,
    in the order `pipeline train` reads them back from logs (by file name)."""
    from adlsense.synth import default_adl_spec, default_environment_spec, \
        default_standing_spec, synth_windows

    specs = (default_environment_spec(scale.env_windows, seed),
             default_adl_spec(scale.adl_windows, seed),
             default_standing_spec(scale.standing_windows, seed))
    return tuple(sorted(synth_windows(spec), key=lambda b: _slug(b.label)) for spec in specs)


def training_windows(scale: Scale):
    """(windows, audio windows) one `pipeline train` consumes."""
    from adlsense.synth import DEFAULT_ADLS, DEFAULT_ENVIRONMENTS, DEFAULT_STANDING

    env = len(DEFAULT_ENVIRONMENTS) * scale.env_windows
    standing = len(DEFAULT_STANDING) * scale.standing_windows
    return env + len(DEFAULT_ADLS) * scale.adl_windows + standing, env + standing


def write_training(root: Path, seed: int, scale: Scale):
    """The training corpora as logs, plus the pipeline settings file."""
    env, adl, standing = training_corpora(seed, scale)
    samples = write_logs(root / "env", env)[1]
    write_logs(root / "adl", adl)
    write_logs(root / "standing", standing)
    env_it, adl_it, standing_it = scale.iterations
    (root / "pipeline.ini").write_text(
        f"[pipeline]\nenv_iterations = {env_it}\nadl_iterations = {adl_it}\n"
        f"standing_iterations = {standing_it}\n")
    return samples


def train_argv(root, out, seed):
    return ["pipeline", "train", "--env-logs", f"{root}/env", "--adl-logs", f"{root}/adl",
            "--standing-logs", f"{root}/standing", "--config", f"{root}/pipeline.ini",
            "--out", out, "--seed", str(seed)]


# ---------------------------------------------------------------------------
# Workloads


class Stream:
    """`pipeline run` over a stream of logs, with a pipeline trained in set-up."""

    output = "out/results.jsonl"

    def __init__(self, name, scale, labels, per_set, with_audio):
        self.name, self.scale = name, scale
        self.labels, self.per_set, self.with_audio = labels, per_set, with_audio
        self.windows = len(labels) * len(SENSOR_SETS) * per_set
        self.audio_windows = self.windows if with_audio else 0

    def setup(self, root, seed):
        """Write the inputs under ``root``; return the truths and audio
        samples of the windows the checks score."""
        from adlsense.pipeline import PipelineConfig, save_pipeline, train_pipeline

        truths, samples = write_logs(
            root / "stream",
            stream_bundles(self.labels, self.per_set, 2 * seed + 1, self.with_audio))
        env_it, adl_it, standing_it = self.scale.iterations
        config = PipelineConfig(seed=seed, env_iterations=env_it, adl_iterations=adl_it,
                                standing_iterations=standing_it)
        pipeline = train_pipeline(*training_corpora(2 * seed, self.scale), config)
        save_pipeline(pipeline, root / "pipeline.json")
        return truths, samples

    def argv(self, seed):
        return ["pipeline", "run", "stream", "--pipeline", "pipeline.json",
                "--out", self.output, "--seed", str(seed)]


class Train:
    """`pipeline train`; its pipeline then classifies a held-out stream."""

    output = "out/pipeline.json"

    def __init__(self, name, scale):
        self.name, self.scale = name, scale
        self.windows, self.audio_windows = training_windows(scale)

    def setup(self, root, seed):
        from adlsense.synth import default_environment_spec, synth_windows

        samples = write_training(root / "train", 2 * seed, self.scale)
        heldout = list(synth_windows(default_environment_spec(self.scale.heldout_env,
                                                              2 * seed + 1)))
        heldout += stream_bundles(FUSION_LABELS, self.scale.heldout_per_set, 2 * seed + 1, True)
        return write_logs(root / "heldout", heldout)[0], samples

    def argv(self, seed):
        return train_argv("train", self.output, seed)


def make_workload(name, scale):
    if name == "stream_fusion":
        return Stream(name, scale, FUSION_LABELS, scale.fusion_per_set, True)
    if name == "stream_motion":
        return Stream(name, scale, MOVING + ("standing",), scale.motion_per_set, False)
    return Train(name, scale)


# ---------------------------------------------------------------------------
# Measurement


def tree_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def parse_results(data: bytes) -> dict:
    """Window id -> result line of a results JSONL file."""
    return {json.loads(line)["window_id"]: line for line in data.decode().splitlines()}


def read_pass(base: Path, output: str):
    """(output bytes, manifest) of a pass, or None where either is missing
    or the manifest's sha256 does not match the output."""
    try:
        data = (base / output).read_bytes()
        manifest = json.loads((base / f"{output}.manifest.json").read_text())
    except (OSError, ValueError):
        return None
    return (data, manifest) if checks.manifest_matches(data, manifest, output) else None


def measure(name: str, seed: int, seconds: float, trace: bool, scale: Scale = FULL,
            floors: bool = True, min_passes: int = MIN_PASSES) -> dict:
    work = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _measure(make_workload(name, scale), seed, seconds, trace, floors,
                        min_passes, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _setups(wl, seed, count, work):
    """Set up ``count`` times; keep the first tree as the passes' inputs."""
    times, digests = [], []
    for k in range(count):
        root = work / f"setup{k}"
        root.mkdir()
        gc.collect()
        start = time.perf_counter()
        written = wl.setup(root, seed)
        times.append(time.perf_counter() - start)
        if k == 0:
            wl.truths, wl.samples = written
        digests.append(tree_digest(root))
        if k:
            shutil.rmtree(root)
    base = work / "setup0"
    # Write the corpora back to disk now, not in the background of the passes.
    for path in base.rglob("*"):
        if path.is_file():
            with open(path, "rb") as fh:
                os.fsync(fh.fileno())
    return base, times, len(set(digests)) == 1


def _passes(wl, seed, seconds, trace, min_passes, base, work, run):
    """One untimed warm-up, then whole passes until the time is up; the
    traced mode alternates untraced and traced passes."""
    argv = wl.argv(seed)
    run(argv, base)
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds or len(passes) < min_passes:
        traced = trace and len(passes) % 2 == 1
        shutil.rmtree(base / "out", ignore_errors=True)
        (base / "out").mkdir()
        trace_path = work / f"pass{len(passes)}.trace.json" if traced else None
        gc.collect()
        wall, rss, code = run(argv, base, trace_path)
        out = read_pass(base, wl.output) if code == 0 else None
        spans = json.loads(trace_path.read_text()) if traced and code == 0 else None
        passes.append({"wall": wall, "rss": rss, "code": code, "out": out, "spans": spans})
    return passes


def _failures(wl, passes, reference, problems, a1_ok):
    """(attempted, failed): a window of a stream pass, or a whole `pipeline
    train` pass, is one operation."""
    if isinstance(wl, Train):
        failed = sum(p["out"] is None or p["out"][0] != reference[0] or bool(problems)
                     or not a1_ok for p in passes)
        return len(passes), failed
    bad = set(problems) | (set(wl.samples) if not a1_ok else set())
    ref_lines = parse_results(reference[0]) if reference else {}
    failed = 0
    for p in passes:
        if p["out"] is None:
            failed += wl.windows
            continue
        lines = parse_results(p["out"][0])
        differ = {w for w in wl.truths if lines.get(w) != ref_lines.get(w)}
        failed += len((bad | differ) & set(wl.truths)) + len(set(problems) - set(wl.truths))
    return wl.windows * len(passes), failed


def _measure(wl, seed, seconds, trace, floors, min_passes, work):
    run = Runner(work)
    fallback = []  # traced commands other than passes
    base, setup_times, setups_identical = _setups(wl, seed, 1 if trace else SETUP_REPEATS, work)
    passes = _passes(wl, seed, seconds, trace, min_passes, base, work, run)
    reference = next((p["out"] for p in passes if p["out"] is not None), None)

    # A stream pass calls no training layer. The traced mode traces
    # `pipeline train` over the stream's training corpora, written as logs,
    # for those layers; it must write the pipeline the set-up trained.
    same_pipeline = True
    if trace and isinstance(wl, Stream):
        side = work / "train-traced"
        write_training(side / "train", 2 * seed, wl.scale)
        run.check(train_argv("train", "pipeline.json", seed), side, work / "train.trace.json")
        fallback.append(tracing.Invocation(json.loads((work / "train.trace.json").read_text()),
                                           *training_windows(wl.scale)))
        same_pipeline = (side / "pipeline.json").read_bytes() == \
            (base / "pipeline.json").read_bytes()

    # Checks on the outputs, made apart from the program.
    results = {}
    if isinstance(wl, Train) and reference is not None:
        (base / "check").mkdir(exist_ok=True)
        check_trace = work / "check.trace.json" if trace else None
        run.check(["pipeline", "run", "heldout", "--pipeline", wl.output,
                   "--out", "check/heldout.jsonl"], base, check_trace)
        if check_trace:
            fallback.append(tracing.Invocation(json.loads(check_trace.read_text()),
                                               len(wl.truths), len(wl.truths)))
        results = parse_results((base / "check/heldout.jsonl").read_bytes())
    elif reference is not None:
        results = parse_results(reference[0])
    results = {wid: json.loads(line) for wid, line in results.items()}
    problems = {wid: checks.window_problems(results[wid], truth) if wid in results
                else ["no result"] for wid, truth in wl.truths.items()}
    problems = {wid: found for wid, found in problems.items() if found}
    for wid in set(results) - set(wl.truths):
        problems[wid] = ["result for a window the benchmark did not write"]

    a1_pairs = _a1_pairs(wl, seed)
    a1_ok = all(checks.a1_agrees(p, r) for p, r in a1_pairs)
    acc = checks.accuracies(results, wl.truths)
    floors_ok = checks.floors_met(acc, expect_refinement=wl.name != "stream_motion")
    attempted, failed = _failures(wl, passes, reference, problems, a1_ok)
    caught = {}
    if reference is not None and results:
        caught = checks.corruptions_caught(results, wl.truths, a1_pairs,
                                  (reference[0], reference[1], wl.output))
    correct = (reference is not None and setups_identical and a1_ok and same_pipeline
               and bool(caught) and all(caught.values()) and (floors_ok or not floors))

    untraced = [p for p in passes if p["spans"] is None and p["code"] == 0]
    job_s = statistics.median(p["wall"] for p in untraced) if untraced else float("nan")
    report = {"workload": wl.name, "seed": seed, "trace": int(trace)}
    if trace:
        traced = [tracing.Invocation(p["spans"], wl.windows, wl.audio_windows)
                  for p in passes if p["spans"] is not None]
        counts = [tracing.span_counts(inv) for inv in traced]
        correct &= bool(counts) and all(c == counts[0] for c in counts)
        values, sources = tracing.layer_metrics(traced, fallback)
        values["trace.job_s"] = statistics.median(p["wall"] for p in passes
                                                  if p["spans"] is not None)
        values["trace.untraced_job_s"] = job_s
        report.update(layer_sources=sources, span_counts=counts[0] if counts else {})
        _write_out(f"{wl.name}-seed{seed}.trace.json",
                   {"passes": [inv.spans for inv in traced],
                    "other": [inv.spans for inv in fallback]})
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "job_s": job_s,
            "windows_per_s": wl.windows / job_s,
            "peak_rss_mb": statistics.median(p["rss"] for p in untraced)
            if untraced else float("nan"),
        }
    declared = METRIC_UNITS["per_layer" if trace else "end_to_end"]
    if set(values) != set(declared):
        raise RuntimeError(f"metrics {sorted(values)} differ from BENCHMARK.json")
    report.update(
        correct=bool(correct), attempted=attempted, failed=failed,
        metrics={k: {"value": v, "unit": declared[k]} for k, v in values.items()},
        windows_per_pass=wl.windows, setup_times=setup_times,
        passes=[[p["wall"], p["rss"], p["code"], p["spans"] is not None] for p in passes],
        setups_identical=setups_identical, same_pipeline=same_pipeline, accuracy=acc,
        floors_met=floors_ok, a1_samples=len(a1_pairs), a1_agrees=a1_ok, self_test=caught,
        problems=dict(sorted(problems.items())[:20]),
    )
    return report


def _a1_pairs(wl, seed):
    """(program A1, reference A1) for a seeded sample of the audio windows:
    the program parses the written log and extracts A1; the reference works
    from the samples the benchmark synthesized."""
    if not wl.samples:
        return []
    import numpy as np
    from adlsense.audio import audio_feature_vector
    from adlsense.datasets import parse_sensor_log

    ids = sorted(wl.samples)
    rng = np.random.default_rng([seed, 3])
    chosen = sorted(rng.choice(len(ids), size=min(4, len(ids)), replace=False))
    parsed, pairs = {}, []
    for i in chosen:
        path, values = wl.samples[ids[i]]
        if path not in parsed:
            parsed[path] = {b.id: b for b in parse_sensor_log(path)}
        bundle = parsed[path].get(ids[i])
        program = audio_feature_vector(bundle.audio, "A1") if bundle else np.zeros(0)
        pairs.append((program, checks.reference_a1(values, 8000.0)))
    return pairs


def _metric_units():
    """Metric name -> unit, per section of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {section: {m["name"]: m["unit"] for m in spec[section]}
            for section in ("end_to_end", "per_layer")}


METRIC_UNITS = _metric_units()


def _write_out(name, doc):
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / name).write_text(json.dumps(doc, sort_keys=True) + "\n")


def self_test() -> int:
    """Every workload on a tiny corpus: the checks pass on the program's
    outputs and fail on each corruption."""
    ok = True
    for name in WORKLOADS:
        for trace in (False, True):
            report = measure(name, 7, 0.0, trace, TINY, floors=False, min_passes=2)
            good = report["correct"] and report["failed"] == 0
            ok &= good
            print(f"{name} trace={int(trace)}: {'ok' if good else 'FAILED'} "
                  f"caught={report['self_test']} failed={report['failed']}"
                  f"/{report['attempted']} problems={report['problems']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check the checks on a tiny corpus and exit")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so a running pass is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "adlsense" / "cli.py").is_file():
        print(f"error: no adlsense sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    _write_out(f"{args.workload}-seed{args.seed}-trace{args.trace}.json", report)
    acc = ", ".join(f"{k} {v['share']:.3f} of {v['windows']}"
                    for k, v in report["accuracy"].items())
    print(f"{args.workload} seed {args.seed}: {len(report['passes'])} passes, "
          f"accuracy {acc}, floors met {report['floors_met']}, "
          f"A1 samples agree {report['a1_agrees']}, self-test {report['self_test']}",
          file=sys.stderr)
    for key, metric in report["metrics"].items():
        print(f"  {key:40s} {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(json.dumps({key: report[key] for key in ("correct", "attempted", "failed",
                                                    "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
