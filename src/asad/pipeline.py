"""Experiment orchestration: config handling and the batch stages.

A workspace directory accumulates stage outputs::

    recordings/   synthetic (or converted) recording containers
    envelopes/    ground-truth speech envelopes (when the linear model runs)
    preprocessed/ alpha-band chain output, one container per subject (CNN only)
    preprocessed_baseline/, envelopes_rs/   inputs for the linear decoder
    features/w{size}/{train,validation,test}.{json,f32}   tensor caches (CNN only)
    runs/w{size}/seed{k}/   checkpoints and training history
    eval/, baseline_eval/   per-seed and per-subject metrics fragments;
                  baseline_eval/ also holds the decoders and decoders.csv
    report/       metrics.csv, report.md, paired_tests.csv

Every stage writes to temporary directories that replace its targets only
on success, so failed stages leave no partial outputs, and reruns with the
same config and seeds are byte-identical.
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from .baseline import (
    LAMBDA_GRID,
    Envelope,
    add_envelope_mixture,
    decide_attention,
    load_envelope,
    reconstruct,
    save_decoder,
    save_envelope,
    select_lambda,
    synth_envelope,
    train_weights,
)
from .data import (
    LABEL_INDEX,
    Montage,
    RawRecording,
    SynthConfig,
    WindowSet,
    _round_half_up,
    atomic_write_text,
    bundled_montage,
    dump_header,
    load_montage,
    load_recording,
    save_recording,
    save_recording_blocks,
    segment_windows,
    stratified_split,
    synth_recording,
    write_table,
)
from .features import (
    SsfMap,
    band_bins,
    extract_ssf,
    load_tensor_cache,
    save_tensor_cache,
    write_map_csv,
    write_map_pgm,
)
from .geometry import ProjectedLayout, project_electrodes
from .network import (
    CnnConfig,
    TrainConfig,
    evaluate_features,
    load_checkpoint,
    paired_t_test,
    save_checkpoint,
    train_arrays,
)
from .preprocess import PreprocConfig, preprocess_blocks, resample_series

METRICS_HEADER = "model,window_s,subject,accuracy"
METRICS_SEED_HEADER = "model,window_s,seed,subject,accuracy"
PAIRED_HEADER = "model_a,model_b,window_s,t,p,df,degenerate"
HISTORY_FIELDS = ("epoch", "train_loss", "train_acc", "val_acc")
DECODERS_HEADER = (
    "subject,window_s,ridge_lambda,validation_accuracy,train_windows,distinct_rows,weighted_rows"
)
EXTRACT_CHUNK = 64  # windows per extract_ssf call; bounds extract's memory


class ConfigError(ValueError):
    """Invalid configuration or usage; the CLI exits with code 2."""


@dataclass
class FeatureSection:
    band: tuple[float, float] = (8.0, 13.0)
    sub_windows: int = 1
    grid_n: int = 32
    log_power: bool = False
    clamp_gradients: bool = False


@dataclass
class SplitSection:
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1)
    block_s: float = 60.0


@dataclass
class BaselineSection:
    max_lag_s: float = 0.25
    band: tuple[float, float] = (1.0, 9.0)
    lambda_grid: tuple[float, ...] = LAMBDA_GRID


@dataclass
class SeedsSection:
    base: int = 7
    runs: int = 1


@dataclass
class PipelineConfig:
    montage: str = "builtin:biosemi64"
    # an optional field's metadata gives an example of the values it takes
    channels: list[str] | None = field(default=None, metadata={"like": ["Cz"]})
    recordings_dir: str | None = field(default=None, metadata={"like": "dir"})
    reference_channels: list[str] = field(default_factory=lambda: ["M1", "M2"])
    band: tuple[float, float] = (8.0, 13.0)
    target_rate: float = 70.0
    filter_order: int = 4
    window_sizes_s: tuple[float, ...] = (0.1, 1.0, 2.0, 5.0, 10.0)
    overlap_fraction: float = 0.5
    models: tuple[str, ...] = ("cnn", "linear")
    synth: SynthConfig = field(default_factory=SynthConfig)
    features: FeatureSection = field(default_factory=FeatureSection)
    split: SplitSection = field(default_factory=SplitSection)
    baseline: BaselineSection = field(default_factory=BaselineSection)
    seeds: SeedsSection = field(default_factory=SeedsSection)
    cnn: CnnConfig = field(default_factory=CnnConfig)
    train: TrainConfig = field(default_factory=TrainConfig)

    def validate(self) -> "PipelineConfig":
        try:
            if not self.window_sizes_s:
                raise ValueError("window_sizes_s must not be empty")
            if any(w <= 0 for w in self.window_sizes_s):
                raise ValueError("window sizes must be positive")
            tags = [_ws_tag(w) for w in self.window_sizes_s]
            if len(set(tags)) < len(tags):
                raise ValueError(f"window_sizes_s {list(self.window_sizes_s)} name the same "
                                 f"directory twice ({', '.join(tags)}); give each size once")
            if not (0.0 <= self.overlap_fraction < 1.0):
                raise ValueError("overlap_fraction must lie in [0, 1)")
            bad = [m for m in self.models if m not in ("cnn", "linear")]
            if bad:
                raise ValueError(f"unknown model(s) {bad}; choose from 'cnn', 'linear'")
            if not self.models:
                raise ValueError("models must not be empty")
            if self.seeds.runs < 1:
                raise ValueError(f"seeds.runs = {self.seeds.runs} must be >= 1")
            if self.seeds.base < 0:
                raise ValueError(f"seeds.base = {self.seeds.base} must be >= 0")
            longest = max(self.window_sizes_s)
            block = _round_half_up(self.split.block_s * self.target_rate)
            if block < _round_half_up(longest * self.target_rate):
                raise ValueError(
                    f"split.block_s = {self.split.block_s:g} s is shorter than the longest "
                    f"window ({longest:g} s); a split block must hold a whole window"
                )
            try:
                mont = resolve_montage(self)
            except (OSError, KeyError) as exc:  # an unreadable or malformed montage file
                raise ValueError(f"montage {self.montage!r}: {exc}") from exc
            if not self.recordings_dir:
                try:
                    self.synth.validate(mont, self.reference_channels)
                except ValueError as exc:
                    raise ValueError(f"synth: {exc}") from exc
            # the preprocessing band lies below target Nyquist, and the
            # feature band must lie inside it
            self.preproc_config().validate()
            low, high = self.features.band
            if not (self.band[0] <= low < high <= self.band[1]):
                raise ValueError(
                    f"features.band {self.features.band} must satisfy low < high and lie "
                    f"inside the preprocessing band {self.band}"
                )
            if "cnn" in self.models:
                k = self.features.sub_windows
                for ws in self.window_sizes_s:
                    w = _round_half_up(ws * self.target_rate)
                    if k < 1 or w % k != 0 or w // k < 2:
                        raise ValueError(
                            f"window of {ws:g} s is {w} samples at {self.target_rate:g} Hz "
                            f"and does not divide into features.sub_windows = {k} "
                            f"sub-windows of >= 2 samples"
                        )
                    band_bins(w // k, self.target_rate, self.features.band)
            if "linear" in self.models:
                self._validate_baseline()
            self.cnn.validate()
            self.train.validate()
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
        return self

    def _validate_baseline(self) -> None:
        """The linear decoder's lambda grid, lag span and band."""
        grid, max_lag = self.baseline.lambda_grid, self.baseline.max_lag_s
        if not (grid and all(0 <= v < np.inf for v in grid)):
            raise ValueError(
                f"baseline.lambda_grid {list(grid)!r} must be a non-empty list of finite "
                f"values >= 0"
            )
        if not (0 <= max_lag < np.inf):
            raise ValueError(f"baseline.max_lag_s {max_lag!r} must be finite and >= 0")
        try:
            self.preproc_config(self.baseline.band).validate()
        except ValueError as exc:
            raise ValueError(f"baseline.band {self.baseline.band!r}: {exc}") from exc

    def preproc_config(self, band: tuple[float, float] | None = None) -> PreprocConfig:
        return PreprocConfig(
            reference_channels=self.reference_channels,
            band=band or self.band,
            target_rate=self.target_rate,
            filter_order=self.filter_order,
        )


def _accepts(default, value) -> bool:
    """Whether a JSON value fits a field with this default: a float field
    also takes an int, no number field takes true or false, and a tuple or
    list field takes a list whose items fit the default's first item."""
    if isinstance(default, bool) or isinstance(value, bool):
        return isinstance(default, bool) and isinstance(value, bool)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    if isinstance(default, (list, tuple)):
        return isinstance(value, list) and all(_accepts(default[0], v) for v in value)
    return isinstance(value, type(default))


def _kind(default) -> str:
    """What a message calls the JSON value that a field with this default takes."""
    if isinstance(default, (list, tuple)):
        return f"a list, each item {_kind(default[0])}"
    names = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}
    return names[type(default)]


def _build(cls, raw, prefix: str = ""):
    """The dataclass `cls` from a JSON object. Unknown keys are refused;
    every value must fit its field's default (`_accepts`) and is kept as
    given, except that a list for a tuple field becomes a tuple and the
    object for a section field is built the same way."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config {prefix.rstrip('.') or 'document'} must be a JSON object")
    known = {f.name: f for f in fields(cls)}
    unknown = sorted(prefix + key for key in raw if key not in known)
    if unknown:
        raise ConfigError(f"unknown config key(s) {unknown}")
    kwargs = {}
    for key, value in raw.items():
        f = known[key]
        default = f.default if f.default_factory is MISSING else f.default_factory()
        like = f.metadata.get("like", default)
        if is_dataclass(default):
            value = _build(type(default), value, f"{prefix}{key}.")
        elif (value, default) != (None, None) and not _accepts(like, value):
            null = " or null" if default is None else ""
            raise ConfigError(f"{prefix}{key} = {value!r} must be {_kind(like)}{null}")
        elif isinstance(default, tuple):
            value = tuple(value)
        kwargs[key] = value
    return cls(**kwargs)


def config_from_dict(raw: dict) -> PipelineConfig:
    cfg = _build(PipelineConfig, raw)
    # Derived fields may be given only with the value the run uses: the
    # network takes one input channel per sub-window map of grid_n x grid_n
    # cells, and run k trains with seed seeds.base + k.
    for section, key, source, value in (
        ("cnn", "in_channels", "features.sub_windows", cfg.features.sub_windows),
        ("cnn", "in_size", "features.grid_n", cfg.features.grid_n),
        ("train", "seed", "seeds.base (run k trains with seeds.base + k)", 0),
    ):
        given = raw.get(section, {}).get(key, value)
        if given != value:
            raise ConfigError(
                f"{section}.{key} = {given!r} is derived from {source} and must be "
                f"{value!r} or left out"
            )
        setattr(getattr(cfg, section), key, value)
    return cfg.validate()


def load_config(path: str | Path, overrides: list[str] | None = None, seed: int | None = None) -> PipelineConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like dotted.path=value")
        dotted, text = item.split("=", 1)
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        node = raw
        parts = dotted.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override path {dotted!r} crosses a non-object value")
        node[parts[-1]] = value
    if seed is not None:
        raw.setdefault("seeds", {})["base"] = seed
    return config_from_dict(raw)


# ---------------------------------------------------------------------------
# Workspace plumbing
# ---------------------------------------------------------------------------

@contextmanager
def stage_output(out_dir: Path, *names: str):
    """Build stage directories together: work in one temp dir per name,
    yielded as a tuple, and swap them all in only if the block succeeds."""
    out_dir.mkdir(parents=True, exist_ok=True)
    tmps = tuple(out_dir / f".tmp-{name.replace('/', '_')}" for name in names)
    try:
        for tmp in tmps:
            if tmp.exists():
                shutil.rmtree(tmp)
            tmp.mkdir()
        yield tmps
    except BaseException:
        for tmp in tmps:
            shutil.rmtree(tmp, ignore_errors=True)
        raise
    for tmp, name in zip(tmps, names):
        final = out_dir / name
        if final.exists():
            shutil.rmtree(final)
        tmp.replace(final)


def resolve_montage(cfg: PipelineConfig) -> Montage:
    if cfg.montage.startswith("builtin:"):
        mont = bundled_montage(cfg.montage.split(":", 1)[1])
    else:
        p = Path(cfg.montage)
        if not p.exists():
            raise ConfigError(f"montage file {p} does not exist")
        mont = load_montage(p)
    if cfg.channels:
        try:
            idx = [mont.index(n) for n in cfg.channels]
            mont = Montage(names=list(cfg.channels), positions=mont.positions[idx].copy()).validate()
        except ValueError as exc:
            raise ConfigError(f"channels {cfg.channels!r}: {exc}") from None
    return mont


def _input_paths(root: Path, stage: str) -> list[Path]:
    """The containers under `root`, a directory that `stage` writes, in name order."""
    if not root.is_dir():
        raise FileNotFoundError(f"{root} not found (run {stage} first?)")
    paths = sorted(root.glob("*.json"))
    if not paths:
        raise FileNotFoundError(f"no containers under {root} (run {stage} first?)")
    return paths


def _ws_tag(window_s: float) -> str:
    return f"w{window_s:g}"


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------

def stage_synth(cfg: PipelineConfig, out_dir: Path) -> None:
    """Generate recordings (and envelope pairs when the linear model runs)."""
    mont = resolve_montage(cfg)
    names = ("recordings", "envelopes") if "linear" in cfg.models else ("recordings",)
    with stage_output(out_dir, *names) as (rec_tmp, *env_tmps):
        for i in range(cfg.synth.n_subjects):
            _synth_subject(cfg, mont, i, rec_tmp, env_tmps[0] if env_tmps else None)


def _synth_subject(cfg: PipelineConfig, mont: Montage, i: int, rec_dir: Path,
                   env_dir: Path | None) -> None:
    """Write subject i's recording, and its envelope pair into `env_dir` if
    given; a call of its own, so its arrays go before the next subject's come."""
    s, sid = cfg.synth, f"S{i:02d}"
    rec = synth_recording(replace(s, seed=s.seed + i), mont, sid, cfg.reference_channels)
    if env_dir is not None:
        n_samples = _round_half_up(s.duration_s * s.sample_rate)
        env_l, env_r = (synth_envelope(n_samples, s.sample_rate, f"{sid}.{side}",
                                       np.random.default_rng((s.seed, i, k)))
                        for k, side in ((1, "left"), (2, "right")))
        if s.envelope_mix_gain > 0:  # mixed into rec's own samples, not a copy
            lag = _round_half_up(s.envelope_max_lag_s * s.sample_rate)
            add_envelope_mixture(rec, env_l, env_r, lag, s.envelope_mix_gain, (s.seed, i, 3))
        save_envelope(env_l, env_dir / f"{sid}.left")
        save_envelope(env_r, env_dir / f"{sid}.right")
    save_recording(rec, rec_dir / sid)


def stage_preprocess(cfg: PipelineConfig, out_dir: Path) -> None:
    """Run the preprocessing chain of each model over every recording: the
    alpha-band chain for the CNN, the broadband chain and the resampled
    envelopes for the linear decoder."""
    mont = resolve_montage(cfg)
    paths = _input_paths(Path(cfg.recordings_dir or out_dir / "recordings"), "synth")
    names = (("preprocessed",) if "cnn" in cfg.models else ()) + (
        ("preprocessed_baseline", "envelopes_rs") if "linear" in cfg.models else ()
    )
    with stage_output(out_dir, *names) as tmps:
        for path in paths:
            _preprocess_subject(cfg, mont, path, out_dir, dict(zip(names, tmps)))


def _preprocess_subject(cfg: PipelineConfig, mont: Montage, path: Path, out_dir: Path,
                        tmp: dict[str, Path]) -> None:
    """Run each model's chain over one recording's montage channels, in montage
    order, one channel block at a time: each block's rows and the reference
    rows are read from the container, and its output is written as soon as
    it is done, so neither the recording nor an output is held whole."""
    sid = load_recording(path, []).subject_id
    for name, band in (("preprocessed", None), ("preprocessed_baseline", cfg.baseline.band)):
        if name in tmp:
            blocks = preprocess_blocks(lambda names: load_recording(path, names),
                                       cfg.preproc_config(band), mont.names)
            save_recording_blocks(blocks, tmp[name] / sid)
    if "envelopes_rs" in tmp:
        for side in ("left", "right"):
            env = load_envelope(out_dir / "envelopes" / f"{sid}.{side}")
            rs = resample_series(env.samples, env.sample_rate, cfg.target_rate)
            env_rs = Envelope(np.clip(rs, 0.0, None), env.speaker_id, cfg.target_rate)
            save_envelope(env_rs, tmp["envelopes_rs"] / f"{sid}.{side}")


def build_split(cfg: PipelineConfig, recs: list[RawRecording], window_s: float):
    windows = WindowSet.concat([segment_windows(rec, window_s, cfg.overlap_fraction) for rec in recs])
    return stratified_split(
        windows,
        ratios=cfg.split.ratios,
        seed=cfg.seeds.base,
        block_s=cfg.split.block_s,
        sample_rate=cfg.target_rate,
    )


def partition_maps(
    wins: WindowSet, data: dict[str, np.ndarray | Path], layout: ProjectedLayout, fs: float,
    feat: FeatureSection,
) -> Iterator[np.ndarray]:
    """Float32 (n, S, g, g) maps of one partition's windows, whose samples
    are gathered from `data` (subject id -> channels x samples, or the
    container to read them from) EXTRACT_CHUNK windows at a time: the work
    does not grow with the partition. Each run of a subject's windows reads
    its container once, and lets go of it before the next subject's."""
    sid = x = None
    for lo in range(0, len(wins), EXTRACT_CHUNK):
        chunk = wins[lo : lo + EXTRACT_CHUNK]
        batch = None
        for j, (s, start) in enumerate(zip(chunk.subjects, chunk.starts)):
            if s != sid:
                sid, x = s, None
                x = data[s] if isinstance(data[s], np.ndarray) else load_recording(data[s]).data
            if batch is None:
                batch = np.empty((len(chunk), len(x), chunk.length), x.dtype)
            batch[j] = x[:, start : start + chunk.length]
        # the feature section's fields are extract_ssf's options
        yield extract_ssf(batch, layout, fs, **asdict(feat)).astype(np.float32)


def stage_extract(cfg: PipelineConfig, out_dir: Path) -> None:
    """Split windows and cache one feature tensor file per partition/window size."""
    if "cnn" not in cfg.models:
        return
    layout = project_electrodes(resolve_montage(cfg))
    paths = _input_paths(out_dir / "preprocessed", "preprocess")
    # the split reads no samples; each partition's maps load one subject at a time
    recs = [load_recording(p, []) for p in paths]
    data = {rec.subject_id: p for rec, p in zip(recs, paths)}
    feat = cfg.features
    with stage_output(out_dir, "features") as (tmp,):
        for ws in cfg.window_sizes_s:
            split = build_split(cfg, recs, ws)
            ws_dir = tmp / _ws_tag(ws)
            ws_dir.mkdir()
            for pname, wins in split.partitions().items():
                # each chunk goes to the cache file as soon as it is built
                maps = partition_maps(wins, data, layout, cfg.target_rate, feat)
                save_tensor_cache(maps, _str_list(wins.labels), _str_list(wins.subjects),
                                  layout.extent, ws_dir / pname)


def _str_list(a: np.ndarray) -> list[str]:
    """`a.tolist()` with one str object per distinct value, not per element."""
    names, idx = np.unique(a, return_inverse=True)
    return list(map(names.tolist().__getitem__, idx.tolist()))


def _cache_with_targets(path: Path):
    """A tensor cache's reader, its class targets (`LABEL_INDEX` of each
    window's label, looked up once per distinct label) and its subject
    list; the parsed label list goes on return."""
    x, labels, subjects, _ = load_tensor_cache(path)
    names, idx = np.unique(labels, return_inverse=True)
    return x, np.array([LABEL_INDEX[n] for n in names.tolist()])[idx], subjects


def stage_train(cfg: PipelineConfig, out_dir: Path) -> None:
    """Train the network per window size and per seed from the cached tensors."""
    if "cnn" not in cfg.models:
        return
    feat_root = out_dir / "features"
    if not feat_root.is_dir():
        raise FileNotFoundError(f"{feat_root} not found (run extract first?)")
    with stage_output(out_dir, "runs") as (tmp,):
        for ws in cfg.window_sizes_s:
            ws_dir = feat_root / _ws_tag(ws)
            # the caches are read batch by batch, never held whole
            x_tr, y_tr, _ = _cache_with_targets(ws_dir / "train")
            x_va, y_va, _ = _cache_with_targets(ws_dir / "validation")
            with x_tr, x_va:
                for k in range(cfg.seeds.runs):
                    seed = cfg.seeds.base + k
                    tc = replace(cfg.train, seed=seed)
                    ckpt, history = train_arrays(cfg.cnn, tc, x_tr, y_tr, x_va, y_va)
                    run_dir = tmp / _ws_tag(ws) / f"seed{seed}"
                    run_dir.mkdir(parents=True)
                    save_checkpoint(ckpt, run_dir / "checkpoint")
                    write_table(run_dir / "history.csv", ",".join(HISTORY_FIELDS),
                                ([row[k] for k in HISTORY_FIELDS] for row in history))


def stage_eval(cfg: PipelineConfig, out_dir: Path) -> None:
    """Evaluate every checkpoint on its test partition."""
    if "cnn" not in cfg.models:
        return
    rows = []
    for ws in cfg.window_sizes_s:
        ws_dir = out_dir / "features" / _ws_tag(ws)
        x_te, y_te, subj_te = _cache_with_targets(ws_dir / "test")
        with x_te:
            for k in range(cfg.seeds.runs):
                seed = cfg.seeds.base + k
                ckpt = load_checkpoint(out_dir / "runs" / _ws_tag(ws) / f"seed{seed}" / "checkpoint")
                metrics = evaluate_features(ckpt, x_te, y_te, subj_te)
                for subj, acc in metrics.per_subject.items():
                    rows.append(("cnn", ws, seed, subj, acc))
    with stage_output(out_dir, "eval") as (tmp,):
        write_table(tmp / "metrics_by_seed.csv", METRICS_SEED_HEADER, sorted(rows))


def _n_lags(cfg: PipelineConfig) -> int:
    return _round_half_up(cfg.baseline.max_lag_s * cfg.target_rate) + 1


def short_linear_windows(cfg: PipelineConfig) -> dict[float, str]:
    """Window sizes the linear decoder skips, each with the reason: a window
    needs at least 3 samples more than the decoder's lag span."""
    if "linear" not in cfg.models:
        return {}
    n_lags = _n_lags(cfg)
    short = {}
    for ws in cfg.window_sizes_s:
        w_len = _round_half_up(ws * cfg.target_rate)
        if w_len < n_lags + 3:
            short[ws] = f"{w_len} samples, fewer than {n_lags} lags + 3"
    return short


def stage_baseline(cfg: PipelineConfig, out_dir: Path) -> None:
    """Fit and evaluate the per-subject linear decoders, and record each
    decoder's lambda, validation accuracy and training rows in decoders.csv."""
    if "linear" not in cfg.models:
        return
    paths = _input_paths(out_dir / "preprocessed_baseline", "preprocess")
    for ws, why in short_linear_windows(cfg).items():
        print(f"baseline: skipping linear at {ws:g} s windows ({why})", file=sys.stderr)
    rows, choices = [], []
    with stage_output(out_dir, "baseline_eval") as (tmp,):
        dec_dir = tmp / "decoders"
        dec_dir.mkdir()
        for path in paths:
            _baseline_subject(cfg, out_dir, path, dec_dir, rows, choices)
        write_table(tmp / "metrics_by_seed.csv", METRICS_SEED_HEADER, sorted(rows))
        write_table(tmp / "decoders.csv", DECODERS_HEADER, sorted(choices))


def _baseline_subject(cfg: PipelineConfig, out_dir: Path, path: Path, dec_dir: Path,
                      rows: list[tuple], choices: list[tuple]) -> None:
    """Fit, save and score one subject's decoders, appending its metric rows and
    choices; a call of its own, so its arrays go before the next subject's come."""
    rec = load_recording(path)  # float32; the fits cast one chunk of it at a time
    eeg, sid = rec.data, rec.subject_id
    env_l, env_r = (
        load_envelope(out_dir / "envelopes_rs" / f"{sid}.{side}").samples
        for side in ("left", "right")
    )
    n_lags, short = _n_lags(cfg), short_linear_windows(cfg)
    for ws in [w for w in cfg.window_sizes_s if w not in short]:
        split = build_split(cfg, [rec], ws)
        train, test = split.train, split.test
        m, y = train_weights(train, env_l, env_r, n_lags)
        decoder, val_acc = select_lambda(
            (eeg, m, y), (env_l, env_r, split.validation), n_lags,
            cfg.baseline.lambda_grid,
        )
        test_rows = test.rows(n_lags)
        s_hat = reconstruct(decoder, eeg)
        d = decide_attention(s_hat[test_rows], env_l[test_rows], env_r[test_rows])
        acc = int(np.sum(d.label == test.labels)) / len(test)
        rows.append(("linear", ws, cfg.seeds.base, sid, acc))
        choices.append(
            (sid, ws, decoder.ridge_lambda, val_acc, len(train),
             int(np.count_nonzero(m)), int(m.sum()))
        )
        save_decoder(decoder, dec_dir / f"{sid}.{_ws_tag(ws)}")


def _read_seed_metrics(path: Path) -> list[tuple[str, float, int, str, float]]:
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for rec in reader:
            rows.append(
                (
                    rec["model"],
                    float(rec["window_s"]),
                    int(rec["seed"]),
                    rec["subject"],
                    float(rec["accuracy"]),
                )
            )
    return rows


def stage_report(cfg: PipelineConfig, out_dir: Path) -> None:
    """Merge metric fragments into the consolidated CSV, the aggregate
    accuracy table, and pairwise significance tests."""
    rows = []
    for frag in ("eval", "baseline_eval"):
        path = out_dir / frag / "metrics_by_seed.csv"
        if path.exists():
            rows.extend(_read_seed_metrics(path))
    if not rows:
        raise FileNotFoundError("no metrics fragments found (run eval/baseline first?)")

    # (model, window) -> {subject: seed-mean accuracy}, keys and subjects in order
    acc: dict[tuple[str, float], dict[str, list[float]]] = {}
    for model, ws, _seed, subj, a in rows:
        acc.setdefault((model, ws), {}).setdefault(subj, []).append(a)
    table = {key: {s: float(np.mean(v)) for s, v in sorted(by_subj.items())}
             for key, by_subj in sorted(acc.items())}
    models = sorted({m for m, _ in table})
    sizes = sorted({w for _, w in table})

    tests = []
    for i, ma in enumerate(models):
        for mb in models[i + 1 :]:
            for ws in sizes:
                subj_a, subj_b = table.get((ma, ws), {}), table.get((mb, ws), {})
                shared = sorted(subj_a.keys() & subj_b.keys())
                if len(shared) >= 2:
                    res = paired_t_test([subj_a[s] for s in shared], [subj_b[s] for s in shared])
                    tests.append((ma, mb, ws, res.t, res.p, res.df, res.degenerate))

    md = ["# Attention detection report", "",
          "Per-cell: mean accuracy +/- SD across subjects (seed-averaged).", "",
          "| model | " + " | ".join(f"{w:g} s" for w in sizes) + " |",
          "|" + "---|" * (len(sizes) + 1)]
    for model in models:
        vals = [list(table.get((model, ws), {}).values()) for ws in sizes]
        cells = [f"{np.mean(v):.3f} ± {np.std(v):.3f}" if v else "-" for v in vals]
        md.append(f"| {model} | " + " | ".join(cells) + " |")
    md.append("")
    short = short_linear_windows(cfg)
    if short:
        md += ["## Skipped", ""]
        md += [f"- linear at {ws:g} s windows: {why}" for ws, why in short.items()]
        md.append("")
    if tests:
        md += ["## Paired t-tests (per-subject accuracies)", "",
               "| pair | window | t | p |", "|---|---|---|---|"]
        md += [f"| {ma} vs {mb} | {ws:g} s | {t:.3f} | {p:.4f} |"
               for ma, mb, ws, t, p, _df, _deg in tests]
        md.append("")

    with stage_output(out_dir, "report") as (tmp,):
        write_table(tmp / "metrics.csv", METRICS_HEADER,
                    ((m, w, s, a) for (m, w), by_subj in table.items() for s, a in by_subj.items()))
        write_table(tmp / "paired_tests.csv", PAIRED_HEADER, tests)
        atomic_write_text(tmp / "report.md", "\n".join(md) + "\n")


STAGES = ("synth", "preprocess", "extract", "train", "eval", "baseline", "report")


def run_stage(name: str, cfg: PipelineConfig, out: Path) -> None:
    """Run one stage on the workspace `out`, as `asad run` runs it: synth is
    skipped when the recordings come from `recordings_dir`, the stage
    function is looked up at call time (so a rebound one is the one run),
    and any failure but a ConfigError is raised as "stage 'X' failed: ..."."""
    if name == "synth" and cfg.recordings_dir:
        print(f"synth: skipped, the recordings are read from {cfg.recordings_dir}",
              file=sys.stderr)
        return
    try:
        globals()[f"stage_{name}"](cfg, out)
    except ConfigError:
        raise
    except Exception as exc:
        raise RuntimeError(f"stage {name!r} failed: {exc}") from exc


def run_experiment(cfg: PipelineConfig, out_dir: str | Path) -> Path:
    """Execute the full pipeline; any stage failure aborts with the stage
    name, leaving no partially written stage directory behind."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    atomic_write_text(out / "config.json", dump_header(asdict(cfg)))
    for name in STAGES:
        run_stage(name, cfg, out)
    return out / "report"


# ---------------------------------------------------------------------------
# Map dumps
# ---------------------------------------------------------------------------

def dump_map(
    cfg: PipelineConfig,
    recording: str | Path,
    window_index: int,
    out_prefix: str | Path,
    window_s: float | None = None,
) -> tuple[Path, Path]:
    """Write one window's map as ASCII PGM plus raw CSV."""
    mont = resolve_montage(cfg)
    rec = load_recording(recording, list(mont.names))
    ws = window_s if window_s is not None else cfg.window_sizes_s[0]
    windows = segment_windows(rec, ws, cfg.overlap_fraction)
    if not (0 <= window_index < len(windows)):
        raise ConfigError(
            f"window index {window_index} out of range (have {len(windows)} windows)"
        )
    layout = project_electrodes(mont)
    start = windows.starts[window_index]
    segment = rec.data[None, :, start : start + windows.length]
    maps = extract_ssf(segment, layout, rec.sample_rate, **asdict(cfg.features))
    ssf_map = SsfMap(grid=maps[0, 0], extent=layout.extent)
    prefix = Path(out_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    pgm = Path(str(prefix) + ".pgm")
    csv_path = Path(str(prefix) + ".csv")
    write_map_pgm(ssf_map, pgm)
    write_map_csv(ssf_map, csv_path)
    return pgm, csv_path
