import dataclasses
import json
import math
import shutil
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from asad import network, pipeline
from asad.cli import main
from asad.baseline import synth_envelope
from asad.data import (
    LABEL_INDEX,
    LABELS,
    LEFT,
    RawRecording,
    Trial,
    WindowSet,
    _round_half_up,
    container_paths,
    load_recording,
    save_recording,
    synth_recording,
)
from asad.preprocess import CHANNEL_BLOCK, preprocess_recording
from asad.features import load_tensor_cache, save_tensor_cache
from asad.geometry import project_electrodes
from asad.pipeline import (
    EXTRACT_CHUNK,
    ConfigError,
    FeatureSection,
    PipelineConfig,
    config_from_dict,
    load_config,
    partition_maps,
)
from asad.network import CnnConfig, TrainConfig, train_arrays

from conftest import make_random_montage

TINY = {
    "models": ["cnn", "linear"],
    "synth": {
        "n_subjects": 2, "duration_s": 120.0, "n_trials": 8, "sample_rate": 128.0,
        "lateralization_gain": 2.0, "noise_sigma": 1.0, "envelope_mix_gain": 1.0,
    },
    "split": {"block_s": 10.0},
    "window_sizes_s": [1.0],
    "train": {"max_epochs": 2},
    "seeds": {"base": 7, "runs": 1},
}

DEMO = Path(__file__).resolve().parent.parent / "configs" / "synthetic-demo.json"


def _write_config(tmp_path, overrides=None):
    cfg = json.loads(json.dumps(TINY))
    for key, value in (overrides or {}).items():
        cfg[key] = value
    p = tmp_path / "config.json"
    p.write_text(json.dumps(cfg))
    return p


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def test_empty_window_list_rejected():
    with pytest.raises(ConfigError, match="window_sizes_s"):
        config_from_dict({**TINY, "window_sizes_s": []})


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown"):
        config_from_dict({**TINY, "wnidow_sizes_s": [1.0]})
    with pytest.raises(ConfigError, match="train"):
        config_from_dict({**TINY, "train": {"learning_rte": 1.0}})


def test_dotted_overrides(tmp_path):
    p = _write_config(tmp_path)
    cfg = load_config(p, overrides=["train.max_epochs=9", "synth.noise_sigma=0.5"])
    assert cfg.train.max_epochs == 9
    assert cfg.synth.noise_sigma == 0.5
    cfg = load_config(p, seed=123)
    assert cfg.seeds.base == 123


def test_bad_override_rejected(tmp_path):
    p = _write_config(tmp_path)
    with pytest.raises(ConfigError, match="dotted"):
        load_config(p, overrides=["no_equals_sign"])


def test_cnn_input_channels_follow_sub_windows():
    cfg = config_from_dict({**TINY, "features": {"sub_windows": 2}})
    assert cfg.cnn.in_channels == 2


def _wrong_type_overrides() -> list[str]:
    """One override per int, float, tuple and bool field of the config and
    its sections, each with a value of the wrong JSON type."""
    wrong = {bool: "1", int: "1.5", float: '"x"', tuple: "1.0"}
    out = []

    def walk(cls, prefix):
        for f in dataclasses.fields(cls):
            default = f.default if f.default_factory is dataclasses.MISSING else f.default_factory()
            if dataclasses.is_dataclass(default):
                walk(type(default), f"{prefix}{f.name}.")
            elif type(default) in wrong:
                out.append(f"{prefix}{f.name}={wrong[type(default)]}")

    walk(PipelineConfig, "")
    return out


@pytest.mark.parametrize("override", _wrong_type_overrides())
def test_wrong_json_type_exits_2_before_anything_is_written(tmp_path, capsys, override):
    out = tmp_path / "o"
    assert main(["run", "--config", str(DEMO), "--out", str(out), "--set", override]) == 2
    assert override.split("=")[0] in capsys.readouterr().err
    assert not out.exists()


def test_wrong_type_overrides_cover_every_section():
    paths = {o.split("=")[0] for o in _wrong_type_overrides()}
    assert {p.split(".")[0] for p in paths if "." in p} == {
        "synth", "features", "split", "baseline", "seeds", "cnn", "train"
    }
    assert {"filter_order", "overlap_fraction", "window_sizes_s", "features.log_power",
            "baseline.lambda_grid", "synth.n_subjects"} <= paths


@pytest.mark.parametrize(
    "override, message",
    [
        ("window_sizes_s=1.0", "window_sizes_s = 1.0 must be a list"),
        ('window_sizes_s=[1.0,true]', "window_sizes_s = [1.0, True] must be a list, each item a number"),
        ('models=["cnn",1]', "models = ['cnn', 1] must be a list, each item a string"),
        ("channels=5", "channels = 5 must be a list, each item a string or null"),
        ('channels="Cz"', "channels = 'Cz' must be a list, each item a string or null"),
        ('channels=["Cz","Cz"]', "channels ['Cz', 'Cz']: montage names must be unique"),
        ("recordings_dir=[]", "recordings_dir = [] must be a string or null"),
        ("window_sizes_s=[1.0,1.0]", "window_sizes_s [1.0, 1.0] name the same directory twice"),
        ("window_sizes_s=[1.0,1.0000001]", "(w1, w1); give each size once"),
        ('overlap_fraction="x"', "overlap_fraction = 'x' must be a number"),
        ("split.ratios=0.8", "split.ratios = 0.8 must be a list"),
        ("seeds.base=-1", "seeds.base = -1 must be >= 0"),
        ("seeds.runs=0", "seeds.runs = 0 must be >= 1"),
        ("features.sub_windows=2.0", "features.sub_windows = 2.0 must be an integer"),
        ("train.max_epochs=2.5", "train.max_epochs = 2.5 must be an integer"),
        ('synth.n_subjects="2"', "synth.n_subjects = '2' must be an integer"),
        ("synth.n_subjects=0", "n_subjects and n_channels must be >= 1"),
        ("synth.n_trials=7", "n_trials equal whole-sample trials"),
        ("synth.alpha_center=80", "alpha_center must lie inside"),
        ("synth.noise_sigma=-1", "noise_sigma must be >= 0"),
        ("synth.n_channels=100", "n_channels=100 exceeds montage size 64"),
        ('channels=["Cz","XX"]', "unknown montage electrode 'XX'"),
        ("montage=nofile.json", "montage file nofile.json does not exist"),
        ('reference_channels=["Cz"]', "reference channel names collide"),
        ("cnn.in_size=16", "derived from features.grid_n"),
        ("cnn.in_channels=3", "derived from features.sub_windows"),
        ("train.seed=99", "derived from seeds.base"),
    ],
)
def test_bad_override_exits_2_before_anything_is_written(tmp_path, capsys, override, message):
    out = tmp_path / "o"
    code = main(["run", "--config", str(DEMO), "--out", str(out),
                 "--set", 'models=["cnn"]', "--set", override])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "section, key, source",
    [("cnn", "in_channels", "features.sub_windows"), ("cnn", "in_size", "features.grid_n"),
     ("train", "seed", "seeds.base")],
)
def test_derived_field_takes_only_the_value_the_run_uses(section, key, source):
    raw = {**TINY, "features": {"sub_windows": 2, "grid_n": 16}}
    cfg = config_from_dict(raw)
    used = getattr(getattr(cfg, section), key)
    assert used == {"in_channels": 2, "in_size": 16, "seed": 0}[key]
    given = {**raw, section: {**raw.get(section, {}), key: used}}
    assert config_from_dict(given) == cfg
    with pytest.raises(ConfigError, match=f"{section}.{key} = {used + 2} is derived from {source}"):
        config_from_dict({**raw, section: {**raw.get(section, {}), key: used + 2}})


def test_synth_section_unchecked_with_recordings_dir():
    bad_synth = {**TINY["synth"], "n_trials": 7}
    with pytest.raises(ConfigError, match="synth: duration"):
        config_from_dict({**TINY, "synth": bad_synth})
    cfg = config_from_dict({**TINY, "synth": bad_synth, "recordings_dir": "elsewhere"})
    assert cfg.synth.n_trials == 7


def test_builder_keeps_numbers_as_given_and_makes_tuples():
    cfg = config_from_dict({**TINY, "target_rate": 70, "baseline": {"lambda_grid": [1, 10.0]}})
    assert type(cfg.target_rate) is int and cfg.target_rate == 70
    assert cfg.baseline.lambda_grid == (1, 10.0)
    assert isinstance(cfg.window_sizes_s, tuple) and isinstance(cfg.split.ratios, tuple)
    assert isinstance(cfg.reference_channels, list)


# ---------------------------------------------------------------------------
# full pipeline behavior (session-scoped tiny workspace)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("ws")
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(TINY))
    out = root / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    return cfg_path, out


def test_run_produces_expected_files(tiny_workspace):
    _, out = tiny_workspace
    for rel in (
        "recordings/S00.json", "recordings/S00.f32", "envelopes/S00.left.json",
        "preprocessed/S00.json", "preprocessed_baseline/S01.json",
        "envelopes_rs/S01.right.f32", "features/w1/train.json",
        "runs/w1/seed7/checkpoint.json", "runs/w1/seed7/history.csv",
        "baseline_eval/decoders/S00.w1.json", "report/metrics.csv",
        "report/report.md", "report/paired_tests.csv",
    ):
        assert (out / rel).exists(), rel


def test_workspace_config_reloads_to_an_equal_config(tiny_workspace):
    cfg_path, out = tiny_workspace
    saved = out / "config.json"
    cfg = load_config(saved)
    assert cfg == load_config(cfg_path)
    assert pipeline.dump_header(dataclasses.asdict(cfg)) == saved.read_text()


def test_metrics_csv_schema(tiny_workspace):
    _, out = tiny_workspace
    lines = (out / "report" / "metrics.csv").read_text().splitlines()
    assert lines[0] == "model,window_s,subject,accuracy"
    for line in lines[1:]:
        model, ws, subject, acc = line.split(",")
        assert model in ("cnn", "linear")
        assert float(ws) == 1.0
        assert subject.startswith("S")
        assert 0.0 <= float(acc) <= 1.0
    history = (out / "runs/w1/seed7/history.csv").read_text().splitlines()
    assert history[0] == "epoch,train_loss,train_acc,val_acc"


def test_rerun_byte_identical(tiny_workspace, tmp_path):
    cfg_path, out = tiny_workspace
    out2 = tmp_path / "out2"
    assert main(["run", "--config", str(cfg_path), "--out", str(out2)]) == 0
    for rel in (
        "report/metrics.csv", "report/report.md", "report/paired_tests.csv",
        "runs/w1/seed7/checkpoint.f32", "runs/w1/seed7/checkpoint.json",
        "runs/w1/seed7/history.csv", "features/w1/train.f32", "baseline_eval/decoders.csv",
    ):
        assert (out / rel).read_bytes() == (out2 / rel).read_bytes(), rel


def _files(root: Path) -> set[Path]:
    return {q.relative_to(root) for q in root.rglob("*") if q.is_file()}


def test_stage_commands_individually(tiny_workspace, tmp_path):
    """The seven stage commands write the files of `asad run`, byte for byte,
    all but the run's config.json."""
    cfg_path, run_out = tiny_workspace
    out = tmp_path / "stages"
    for stage in pipeline.STAGES:
        assert main([stage, "--config", str(cfg_path), "--out", str(out)]) == 0
    written = _files(out)
    assert written == _files(run_out) - {Path("config.json")}
    for rel in sorted(written):
        assert (out / rel).read_bytes() == (run_out / rel).read_bytes(), rel


def test_synth_command_skips_under_recordings_dir(tiny_workspace, tmp_path, capsys):
    cfg_path, run_out = tiny_workspace
    out = tmp_path / "o"
    rec_dir = str(run_out / "recordings")
    assert main(["synth", "--config", str(cfg_path), "--out", str(out),
                 "--set", f"recordings_dir={rec_dir}"]) == 0
    assert not (out / "recordings").exists()
    assert rec_dir in capsys.readouterr().err


def test_dump_map_lateralized(tiny_workspace, tmp_path):
    cfg_path, out = tiny_workspace
    rec = out / "recordings" / "S00.json"
    dump_out = tmp_path / "dump"
    code = main([
        "dump-map", "--config", str(cfg_path), "--out", str(dump_out),
        "--recording", str(rec), "--window-index", "0", "--window-s", "1.0",
        "--prefix", "m0",
    ])
    assert code == 0
    pgm = (dump_out / "m0.pgm").read_text().splitlines()
    assert pgm[0] == "P2" and pgm[1] == "32 32"
    grid = np.array(
        [[float(x) for x in line.split(",")]
         for line in (dump_out / "m0.csv").read_text().splitlines()]
    )
    # trial 0 of S00 is lateralized; the boosted half must dominate
    left_mean = grid[:, :16].mean()
    right_mean = grid[:, 16:].mean()
    rec_header = json.loads(rec.read_text())
    label = rec_header["trials"][0]["label"]
    if label == "Left":
        assert left_mean > right_mean
    else:
        assert right_mean > left_mean


def test_dump_map_reads_only_the_montage_channels(tiny_workspace, tmp_path):
    """A non-finite sample in a reference channel, which the map does not
    use, leaves the map as it is."""
    cfg_path, out = tiny_workspace
    header, payload = container_paths(out / "recordings" / "S00")
    for name in ("clean", "nan"):
        (tmp_path / name).mkdir()
        shutil.copy(header, tmp_path / name / header.name)
        shutil.copy(payload, tmp_path / name / payload.name)
    channels = json.loads(header.read_text())["channels"]
    data = np.fromfile(payload, dtype="<f4").reshape(len(channels), -1)
    data[channels.index("M1"), 5] = np.nan
    data.tofile(tmp_path / "nan" / payload.name)
    for name in ("clean", "nan"):
        assert main(["dump-map", "--config", str(cfg_path), "--out", str(tmp_path / "d"),
                     "--recording", str(tmp_path / name / header.name), "--window-index", "0",
                     "--prefix", name]) == 0
    assert (tmp_path / "d" / "nan.csv").read_bytes() == (tmp_path / "d" / "clean.csv").read_bytes()


def test_dump_map_out_of_range_exits_2(tiny_workspace, tmp_path):
    cfg_path, out = tiny_workspace
    rec = out / "recordings" / "S00.json"
    code = main([
        "dump-map", "--config", str(cfg_path), "--out", str(tmp_path / "d"),
        "--recording", str(rec), "--window-index", "999999",
    ])
    assert code == 2


def test_config_error_exit_code(tmp_path):
    p = _write_config(tmp_path, {"window_sizes_s": []})
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 2


def test_runtime_error_exit_code(tmp_path, capsys):
    # extract without preprocess: missing inputs is a runtime failure
    p = _write_config(tmp_path)
    assert main(["extract", "--config", str(p), "--out", str(tmp_path / "o")]) == 1
    assert "stage 'extract' failed" in capsys.readouterr().err


def test_failed_stage_leaves_no_partial_output(tmp_path):
    p = _write_config(tmp_path)
    out = tmp_path / "o"
    main(["synth", "--config", str(p), "--out", str(out)])
    # sabotage: drop one payload so preprocess fails mid-way
    (out / "recordings" / "S01.f32").unlink()
    (out / "recordings" / "S01.json").unlink()
    shutil.copy(out / "recordings" / "S00.json", out / "recordings" / "S01.json")
    assert main(["preprocess", "--config", str(p), "--out", str(out)]) == 1
    assert not (out / "preprocessed").exists()
    assert not any(q.name.startswith(".tmp-") for q in out.iterdir())


def test_builtin_montage_32(tmp_path):
    p = _write_config(tmp_path, {
        "montage": "builtin:biosemi32",
        "synth": {**TINY["synth"], "n_channels": 32},
        "models": ["cnn"],
        "train": {"max_epochs": 1},
    })
    out = tmp_path / "o32"
    assert main(["run", "--config", str(p), "--out", str(out)]) == 0
    hdr = json.loads((out / "preprocessed" / "S00.json").read_text())
    assert len(hdr["channels"]) == 32


def test_linear_only_run_writes_no_features(tmp_path):
    p = _write_config(tmp_path, {"models": ["linear"]})
    out = tmp_path / "lin"
    assert main(["run", "--config", str(p), "--out", str(out)]) == 0
    assert (out / "report" / "metrics.csv").exists()
    assert not (out / "features").exists()


def test_feature_band_above_nyquist_exits_2_before_any_stage(tmp_path):
    p = _write_config(tmp_path)
    out = tmp_path / "o"
    code = main(["run", "--config", str(p), "--out", str(out), "--set", "features.band=[30,40]"])
    assert code == 2
    assert not out.exists() or not any(out.iterdir())


def test_feature_band_without_fft_bin_exits_2_before_any_stage(tmp_path):
    # 1 s windows at 70 Hz pad to 128 bins of 0.547 Hz: 8.75 and 9.30 Hz
    # straddle the band
    p = _write_config(tmp_path)
    out = tmp_path / "o"
    code = main(["run", "--config", str(p), "--out", str(out), "--set", "features.band=[8.8,9.0]"])
    assert code == 2
    assert not out.exists() or not any(out.iterdir())
    with pytest.raises(ConfigError, match=r"no FFT bin inside band \(8.8, 9.0\) at fs=70.0 with nfft=128"):
        config_from_dict({**TINY, "features": {"band": [8.8, 9.0]}})
    # the linear decoder alone never computes band power
    config_from_dict({**TINY, "models": ["linear"], "features": {"band": [8.8, 9.0]}})


def test_feature_band_outside_preprocessing_band_exits_2(tmp_path):
    p = _write_config(tmp_path)
    out = tmp_path / "o"
    code = main(["run", "--config", str(p), "--out", str(out), "--set", "features.band=[7,12]"])
    assert code == 2
    assert not out.exists() or not any(out.iterdir())
    with pytest.raises(ConfigError, match="inside the preprocessing band"):
        config_from_dict({**TINY, "features": {"band": [9.0, 14.0]}})
    # the c06 band lies inside the default preprocessing band
    config_from_dict({**TINY, "features": {"band": [9.0, 11.0]}})
    config_from_dict({**TINY, "features": {"band": [8.0, 13.0]}})


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _one_subject(seconds: float, models=("linear",)):
    """A one-subject config of 64 + 2 channels at 128 Hz, with envelope
    mixing, and its montage."""
    cfg = config_from_dict({**TINY, "models": list(models),
                            "synth": {**TINY["synth"], "n_subjects": 1, "duration_s": seconds}})
    return cfg, pipeline.resolve_montage(cfg)


def _synth_subject_on_a_copy(cfg, mont, i, rec_dir, env_dir):
    """`_synth_subject` with the envelope mixed into a float64 copy of the
    recording: the reference for the mixing in place."""
    s, sid = cfg.synth, f"S{i:02d}"
    rec = synth_recording(dataclasses.replace(s, seed=s.seed + i), mont, sid, cfg.reference_channels)
    n_samples = _round_half_up(s.duration_s * s.sample_rate)
    env_l, env_r = (synth_envelope(n_samples, s.sample_rate, f"{sid}.{side}",
                                   np.random.default_rng((s.seed, i, k)))
                    for k, side in ((1, "left"), (2, "right")))
    lag = _round_half_up(s.envelope_max_lag_s * s.sample_rate)
    kernels = np.random.default_rng((s.seed, i, 3)).normal(0.0, 1.0, size=(rec.n_channels, lag + 1))
    kernels *= s.envelope_mix_gain / math.sqrt(lag + 1)
    data = rec.data.astype(float)
    for tr in rec.trials:
        seg = (env_l if tr.label == LEFT else env_r).samples[tr.start : tr.end]
        for c in range(rec.n_channels):
            data[c, tr.start : tr.end] += np.convolve(seg, kernels[c])[: tr.length]
    save_recording(dataclasses.replace(rec, data=data), rec_dir / sid)


def test_synth_subject_mixes_in_place_with_the_bytes_of_a_copy(tmp_path):
    cfg, mont = _one_subject(60.0)
    for name in ("rec", "env", "want"):
        (tmp_path / name).mkdir()
    pipeline._synth_subject(cfg, mont, 0, tmp_path / "rec", tmp_path / "env")
    _synth_subject_on_a_copy(cfg, mont, 0, tmp_path / "want", tmp_path / "env")
    for got, want in zip(container_paths(tmp_path / "rec" / "S00"),
                         container_paths(tmp_path / "want" / "S00")):
        assert got.read_bytes() == want.read_bytes()


def test_synth_subject_memory_holds_one_recording(tmp_path):
    """With envelope mixing, `_synth_subject`'s traced peak stays below 1.5x
    one float64 recording: the envelope is mixed into the recording's own
    samples (1.15x; 2.0x with a mixed copy)."""
    cfg, mont = _one_subject(120.0)
    (tmp_path / "rec").mkdir()
    (tmp_path / "env").mkdir()
    run = lambda: pipeline._synth_subject(cfg, mont, 0, tmp_path / "rec", tmp_path / "env")  # noqa: E731
    run()  # imports and first-call allocations
    recording = (cfg.synth.n_channels + 2) * _round_half_up(120.0 * 128.0) * 8
    assert _traced_peak(run) < 1.5 * recording


def _preprocessed_subject_workspace(root: Path, seconds: float):
    """A synthesized one-subject workspace, the temporary output directories
    of stage_preprocess for both models, and the config and montage."""
    cfg, mont = _one_subject(seconds, ("cnn", "linear"))
    pipeline.stage_synth(cfg, root)
    tmp = {name: root / f".tmp-{name}"
           for name in ("preprocessed", "preprocessed_baseline", "envelopes_rs")}
    for d in tmp.values():
        d.mkdir()
    return cfg, mont, tmp


def test_preprocess_subject_writes_the_whole_array_bytes(tmp_path):
    """Blocks read from the container and written as they come give the
    containers that the whole loaded recording, preprocessed into one output
    and saved, gives; a montage of 64 channels is 8 blocks of 8."""
    cfg, mont, tmp = _preprocessed_subject_workspace(tmp_path, 60.0)
    path = tmp_path / "recordings" / "S00.json"
    pipeline._preprocess_subject(cfg, mont, path, tmp_path, tmp)
    rec = load_recording(path)
    for name, band in (("preprocessed", None), ("preprocessed_baseline", cfg.baseline.band)):
        want = tmp_path / f"whole-{name}"
        save_recording(preprocess_recording(rec, cfg.preproc_config(band), mont.names), want)
        for got, whole in zip(container_paths(tmp[name] / "S00"), container_paths(want)):
            assert got.read_bytes() == whole.read_bytes()


def test_preprocess_subject_memory_holds_one_block(tmp_path):
    """`_preprocess_subject`'s traced peak, both models' chains, stays below
    the whole input's float32 size plus the traced peak of one block's chain
    (its output included), at 1x and 2x the duration: neither the recording
    nor an output is held whole (0.5x that figure; 1.4x when the recording
    is loaded whole and each output preprocessed whole before it is saved)."""
    for seconds in (60.0, 120.0):
        root = tmp_path / f"s{seconds:g}"
        cfg, mont, tmp = _preprocessed_subject_workspace(root, seconds)
        path = root / "recordings" / "S00.json"
        run = lambda: pipeline._preprocess_subject(cfg, mont, path, root, tmp)  # noqa: E731
        run()  # imports, filter designs and first-call allocations
        n = _round_half_up(seconds * 128.0)
        names = [*mont.names[:CHANNEL_BLOCK], *cfg.reference_channels]
        block = RawRecording("b", 128.0, names,
                             np.random.default_rng(1).normal(size=(len(names), n)).astype(np.float32),
                             [Trial(0, n // 2, LEFT), Trial(n // 2, n, LEFT)])
        chain = _traced_peak(lambda: preprocess_recording(block, cfg.preproc_config()))
        whole_input = (len(mont.names) + 2) * n * 4
        assert _traced_peak(run) < whole_input + chain


def test_extract_reads_only_headers_for_the_split(tmp_path, monkeypatch):
    """Extract's split reads each preprocessed container's header, and its
    samples are loaded whole only for the maps: once per partition, one
    subject at a time."""
    cfg = config_from_dict({**TINY, "models": ["cnn"]})
    pipeline.stage_synth(cfg, tmp_path)
    pipeline.stage_preprocess(cfg, tmp_path)
    calls, load = [], pipeline.load_recording
    monkeypatch.setattr(pipeline, "load_recording",
                        lambda path, channels=None: calls.append((Path(path).stem, channels))
                        or load(path, channels))
    pipeline.stage_extract(cfg, tmp_path)
    subjects = ["S00", "S01"]
    assert [sid for sid, channels in calls if channels == []] == subjects
    whole = [sid for sid, channels in calls if channels is None]
    assert sorted(whole) == sorted(subjects * 3 * len(cfg.window_sizes_s))
    assert len(calls) == len(subjects) + len(whole)


def test_extract_memory_does_not_grow_with_windows(rng):
    """Extract's traced peak stays the same for 1x, 2x and 4x the windows
    when its chunks are consumed as they come: the float64 work is per
    chunk."""
    layout = project_electrodes(make_random_montage(16, 21))
    feat = FeatureSection(sub_windows=5)
    n_all = 8 * EXTRACT_CHUNK
    data = {"s": rng.normal(size=(16, 70 * n_all))}
    wins = WindowSet(np.full(n_all, "s"), np.zeros(n_all, int), 70 * np.arange(n_all),
                     np.full(n_all, LEFT), 70)
    next(partition_maps(wins[:1], data, layout, 70.0, feat))  # build the interpolator tables

    def extra_bytes(n):
        tracemalloc.start()
        try:
            for _ in partition_maps(wins[:n], data, layout, 70.0, feat):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak

    one, two, four = (extra_bytes(k * 2 * EXTRACT_CHUNK) for k in (1, 2, 4))
    assert two <= one + 2**20
    assert four <= one + 2**20


def test_extract_memory_holds_one_subject(tmp_path):
    """stage_extract's traced peak with 4 subjects exceeds its peak with 2
    by less than one subject's preprocessed payload: the split reads no
    samples, and each partition's maps load one subject at a time."""
    peaks = {}
    for n in (2, 4):
        cfg = config_from_dict({**TINY, "models": ["cnn"], "synth": {**TINY["synth"], "n_subjects": n}})
        out = tmp_path / f"n{n}"
        pipeline.stage_synth(cfg, out)
        pipeline.stage_preprocess(cfg, out)
        pipeline.stage_extract(cfg, out)  # imports and interpolator tables
        tracemalloc.start()
        try:
            pipeline.stage_extract(cfg, out)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    payload = (tmp_path / "n2" / "preprocessed" / "S00.f32").stat().st_size
    assert peaks[4] - peaks[2] < payload, (peaks, payload)


def test_train_memory_does_not_grow_with_cached_windows(tmp_path):
    """One epoch of training from tensor caches of 1x, 2x and 4x the windows
    has the same traced peak: batches are read from the cache file, which is
    never held whole, so only the parameters and one batch's work count."""
    cfg = CnnConfig(in_channels=5, conv_filters=2, fc_sizes=(8, 4))
    tc = TrainConfig(max_epochs=1, early_stop_patience=1)
    base = 2 * tc.batch_size
    maps = np.random.default_rng(5).normal(size=(4 * base, 5, 32, 32)).astype(np.float32)
    labels = [LABELS[i % 2] for i in range(4 * base)]
    for k in (1, 2, 4):
        n = k * base
        save_tensor_cache(maps[:n], labels[:n], ["s"] * n, (0.0, 1.0, 0.0, 1.0), tmp_path / f"x{k}")

    def peak_bytes(k):
        tracemalloc.start()
        try:
            x, lab, _, _ = load_tensor_cache(tmp_path / f"x{k}")
            y = np.array([LABEL_INDEX[l] for l in lab])
            train_arrays(cfg, tc, x, y, x, y)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak_bytes(1)  # imports and first-call allocations
    one, two, four = (peak_bytes(k) for k in (1, 2, 4))
    assert two <= one + 2**20
    assert four <= one + 2**20


@pytest.fixture(scope="module")
def extracted_workspace(tmp_path_factory):
    """A CNN-only workspace after synth and preprocess, and its config."""
    root = tmp_path_factory.mktemp("extract")
    p = _write_config(root, {"models": ["cnn"]})
    out = root / "o"
    for stage in ("synth", "preprocess"):
        assert main([stage, "--config", str(p), "--out", str(out)]) == 0
    return p, out


def test_extract_failing_in_a_later_chunk_leaves_no_cache(extracted_workspace, tmp_path, monkeypatch):
    p, src = extracted_workspace
    out = tmp_path / "o"
    shutil.copytree(src, out)
    real, streamed = pipeline.extract_ssf, []

    def fail_on_second_chunk(*args, **kwargs):
        if streamed:
            # the first chunk already sits in the train cache's temporary file
            streamed.extend((out / ".tmp-features" / "w1").glob(".train.f32.*"))
            raise RuntimeError("band power failed")
        streamed.append("first chunk")
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "extract_ssf", fail_on_second_chunk)
    assert main(["extract", "--config", str(p), "--out", str(out)]) == 1
    assert len(streamed) == 2, streamed
    assert not (out / "features").exists()
    assert not any(q.name.startswith(".tmp-") for q in out.iterdir())
    assert not list(out.rglob("*.f32.*"))


@pytest.mark.parametrize("edit", ["truncate", "pad", "extra window"])
def test_train_rejects_cache_of_wrong_size_before_a_step(
    extracted_workspace, tmp_path, monkeypatch, capsys, edit
):
    p, src = extracted_workspace
    out = tmp_path / "o"
    shutil.copytree(src, out)
    assert main(["extract", "--config", str(p), "--out", str(out)]) == 0
    payload = out / "features" / "w1" / "train.f32"
    data = payload.read_bytes()
    payload.write_bytes({"truncate": data[:-4], "pad": data + b"\0\0",
                         "extra window": data + data[: 32 * 32 * 4]}[edit])
    steps = []
    monkeypatch.setattr(network, "loss_and_grad", lambda *a, **k: steps.append(a))
    capsys.readouterr()
    assert main(["train", "--config", str(p), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "payload shape mismatch" in err and f"in {payload} do not fill" in err
    assert not steps
    assert not (out / "runs").exists()


def _failing_save_envelope(*args, **kwargs):
    raise RuntimeError("disk full")


def test_synth_commits_recordings_and_envelopes_together(tmp_path, monkeypatch):
    cfg = config_from_dict(TINY)
    out = tmp_path / "o"
    monkeypatch.setattr(pipeline, "save_envelope", _failing_save_envelope)
    with pytest.raises(RuntimeError, match="disk full"):
        pipeline.stage_synth(cfg, out)
    assert not (out / "recordings").exists()
    assert not (out / "envelopes").exists()
    assert not any(q.name.startswith(".tmp-") for q in out.iterdir())


def test_preprocess_commits_linear_chain_together(tmp_path, monkeypatch):
    cfg = config_from_dict(TINY)
    out = tmp_path / "o"
    pipeline.stage_synth(cfg, out)
    monkeypatch.setattr(pipeline, "save_envelope", _failing_save_envelope)
    with pytest.raises(RuntimeError, match="disk full"):
        pipeline.stage_preprocess(cfg, out)
    for name in ("preprocessed", "preprocessed_baseline", "envelopes_rs"):
        assert not (out / name).exists(), name
    assert not any(q.name.startswith(".tmp-") for q in out.iterdir())
    assert (out / "recordings").is_dir() and (out / "envelopes").is_dir()


def test_linear_only_run_writes_no_preprocessed(tmp_path):
    p = _write_config(tmp_path, {"models": ["linear"]})
    out = tmp_path / "lin"
    assert main(["run", "--config", str(p), "--out", str(out)]) == 0
    assert not (out / "preprocessed").exists()
    assert (out / "preprocessed_baseline").is_dir() and (out / "envelopes_rs").is_dir()


def test_short_linear_window_named_in_report_and_stderr(tmp_path, capsys):
    p = _write_config(tmp_path, {"models": ["linear"], "window_sizes_s": [0.1, 1.0]})
    out = tmp_path / "lin"
    assert main(["run", "--config", str(p), "--out", str(out)]) == 0
    err = capsys.readouterr().err
    # 0.1 s at 70 Hz is 7 samples; the 0.25 s lag span is 19 lags
    assert "skipping linear at 0.1 s windows (7 samples, fewer than 19 lags + 3)" in err
    assert err.count("skipping linear") == 1
    report = (out / "report" / "report.md").read_text()
    assert "- linear at 0.1 s windows: 7 samples, fewer than 19 lags + 3" in report
    rows = (out / "report" / "metrics.csv").read_text().splitlines()[1:]
    assert rows and all(r.startswith("linear,1.0,") for r in rows)


def test_sub_windows_that_do_not_split_the_window_exit_2_before_any_stage(tmp_path, capsys):
    # 1 s at 70 Hz is 70 samples, which 3 sub-windows do not divide
    p = _write_config(tmp_path)
    out = tmp_path / "o"
    code = main(["run", "--config", str(p), "--out", str(out), "--set", "features.sub_windows=3"])
    assert code == 2
    assert "features.sub_windows = 3" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())
    # the CNN's feature options do not constrain a linear-only run
    config_from_dict({**TINY, "models": ["linear"], "features": {"sub_windows": 3}})


@pytest.mark.parametrize(
    "override, message",
    [
        ("baseline.lambda_grid=[]", "baseline.lambda_grid"),
        ("baseline.lambda_grid=[-1.0]", "baseline.lambda_grid"),
        ("baseline.lambda_grid=[-1.0,1.0]", "baseline.lambda_grid"),
        ("baseline.lambda_grid=[1.0,Infinity]", "baseline.lambda_grid"),
        ("baseline.max_lag_s=-1", "baseline.max_lag_s"),
        ("baseline.band=[1,80]", "target Nyquist 35.0 Hz"),
    ],
)
def test_bad_baseline_section_exits_2_before_any_stage(tmp_path, capsys, override, message):
    p = _write_config(tmp_path, {"models": ["linear"]})
    out = tmp_path / "o"
    code = main(["run", "--config", str(p), "--out", str(out), "--set", override])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())
    # the baseline section does not constrain a CNN-only run
    key, value = override.split("=", 1)
    baseline = {key.split(".")[1]: json.loads(value)}
    config_from_dict({**TINY, "models": ["cnn"], "baseline": baseline})


def test_decoders_csv_counts_match_split(tiny_workspace):
    cfg_path, out = tiny_workspace
    cfg = load_config(cfg_path)
    n_lags = pipeline._n_lags(cfg)
    lines = (out / "baseline_eval" / "decoders.csv").read_text().splitlines()
    assert lines[0] == (
        "subject,window_s,ridge_lambda,validation_accuracy,train_windows,distinct_rows,weighted_rows"
    )
    rows = [line.split(",") for line in lines[1:]]
    recs = [load_recording(p) for p in pipeline._input_paths(out / "preprocessed_baseline", "preprocess")]
    assert [r[0] for r in rows] == [rec.subject_id for rec in recs]
    for (subj, ws, lam, val_acc, n_win, distinct, weighted), rec in zip(rows, recs):
        split = pipeline.build_split(cfg, [rec], float(ws))
        starts = [w.origin[1] for w in split.train]
        per_window = split.train[0].length - n_lags + 1
        assert int(n_win) == len(split.train)
        assert int(weighted) == len(starts) * per_window
        assert int(distinct) == len({s + i for s in starts for i in range(per_window)})
        assert int(distinct) < int(weighted)  # 50 % overlap shares rows
        header = json.loads((out / "baseline_eval" / "decoders" / f"{subj}.w1.json").read_text())
        assert float(lam) == header["ridge_lambda"] and float(lam) in cfg.baseline.lambda_grid
        assert 0.0 <= float(val_acc) <= 1.0


def test_split_block_shorter_than_a_window_exits_2_before_any_stage(tmp_path, capsys):
    p = _write_config(tmp_path)
    out = tmp_path / "o"
    code = main([
        "run", "--config", str(p), "--out", str(out),
        "--set", "split.block_s=0.5", "--set", 'models=["cnn"]',
    ])
    assert code == 2
    assert "split.block_s = 0.5 s is shorter than the longest window (1 s)" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())
    # the linear decoder splits on the same blocks
    with pytest.raises(ConfigError, match="split.block_s"):
        config_from_dict({**TINY, "models": ["linear"], "window_sizes_s": [1.0, 12.0]})
    # a block of exactly one window is allowed
    config_from_dict({**TINY, "window_sizes_s": [1.0, 10.0]})


def test_non_finite_recording_sample_named_by_preprocess(tmp_path, capsys):
    p = _write_config(tmp_path, {"models": ["linear"]})
    out = tmp_path / "o"
    assert main(["synth", "--config", str(p), "--out", str(out)]) == 0
    payload = out / "recordings" / "S00.f32"
    n_samples = int(120.0 * 128.0)
    data = np.fromfile(payload, dtype="<f4").reshape(-1, n_samples)
    data[3, 100] = np.nan
    data.tofile(payload)
    capsys.readouterr()
    assert main(["preprocess", "--config", str(p), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"non-finite sample in {payload}: channel 3" in err
    assert "sample 100" in err
    assert not (out / "preprocessed_baseline").exists()
