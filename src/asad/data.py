"""Recording/montage containers, decision windows, splitting, synthesis.

Decision windows are a `WindowSet`: an index table with one row per window
(subject, trial, first sample, label) and one shared length, built by
`segment_windows` and partitioned by `stratified_split`; the samples stay in
their recording and are sliced out where they are used.

On-disk recording container (format version 1; every container goes
through the codec below):

  ``<name>.json``  header: {"format_version": 1, "kind": "recording",
                   "subject_id": ..., "sample_rate": ..., "channels": [...],
                   "trials": [{"start": ..., "end": ..., "label": ...}]}
  ``<name>.f32``   raw little-endian float32 samples, channel-major
                   (channel 0's full series first).

A montage file is a JSON list of {"name", "x", "y", "z"} entries with unit
head-centered positions (+x right ear, +y nasion, +z vertex). Canonical
64- and 32-electrode layouts ship under ``asad/assets``.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import os
import tempfile
import zlib
from collections.abc import Iterable
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from typing import NamedTuple

import numpy as np

FORMAT_VERSION = 1

LEFT = "Left"
RIGHT = "Right"
LABELS = (LEFT, RIGHT)
LABEL_INDEX = {LEFT: 0, RIGHT: 1}

MIDLINE_TOL = 1e-9  # |x| below this counts as neither hemisphere
# Channels of a recording written, or run through the preprocessing chain,
# at a time: no step holds a whole recording as float32 or float64.
CHANNEL_BLOCK = 8


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def atomic_write_chunks(path: str | Path, chunks: Iterable[bytes | memoryview]) -> None:
    """Write the chunks one after another via a temporary sibling file and
    rename, so readers never see a half-written file; if producing a chunk
    fails, the temporary file is removed. The file gets the mode that
    open() would give, 0o666 less the umask, not mkstemp's 0o600."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)  # drops each chunk before asking for the next
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_chunks(path, (text.encode("utf-8"),))


def write_table(path: str | Path, header: str, rows: Iterable[Iterable]) -> None:
    """Write a CSV file atomically: the header line, then one line per row,
    each str field as it is and any other field as its repr (so a float
    reads back bit-equal)."""
    lines = [header] + [",".join(v if isinstance(v, str) else repr(v) for v in row) for row in rows]
    atomic_write_text(path, "\n".join(lines) + "\n")


HEADER_JSON = json.JSONEncoder(indent=2, sort_keys=True)


def dump_header(obj: dict) -> str:
    """Canonical JSON encoding used by every container in this package."""
    return HEADER_JSON.encode(obj) + "\n"


@dataclass
class Trial:
    start: int
    end: int  # exclusive
    label: str

    def validate(self) -> None:
        if self.label not in LABELS:
            raise ValueError(f"unknown trial label {self.label!r}, expected one of {LABELS}")
        if not (0 <= self.start < self.end):
            raise ValueError(f"bad trial range [{self.start}, {self.end})")

    @property
    def length(self) -> int:
        return self.end - self.start


@dataclass
class RawRecording:
    subject_id: str
    sample_rate: float
    channels: list[str]
    data: np.ndarray  # (n_channels, n_samples)
    trials: list[Trial]

    @property
    def n_channels(self) -> int:
        return len(self.channels)

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]

    def validate(self) -> "RawRecording":
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if self.data.ndim != 2 or self.data.shape[0] != len(self.channels):
            raise ValueError(
                f"channel/data shape mismatch: {len(self.channels)} channel names, "
                f"data shape {self.data.shape}"
            )
        if len(set(self.channels)) != len(self.channels):
            raise ValueError("channel names must be unique")
        if not self.trials:
            raise ValueError("recording has no trials")
        for tr in self.trials:
            tr.validate()
            if tr.end > self.n_samples:
                raise ValueError(
                    f"trial [{tr.start}, {tr.end}) exceeds {self.n_samples} samples"
                )
        spans = sorted((t.start, t.end) for t in self.trials)
        for (s0, e0), (s1, e1) in zip(spans, spans[1:]):
            if s1 < e0:
                raise ValueError(f"overlapping trials: [{s0},{e0}) and [{s1},{e1})")
        return self

    def channel_index(self, name: str) -> int:
        try:
            return self.channels.index(name)
        except ValueError:
            raise ValueError(f"unknown channel {name!r}") from None


@dataclass
class Montage:
    names: list[str]
    positions: np.ndarray  # (n, 3) unit vectors

    def __len__(self) -> int:
        return len(self.names)

    def validate(self) -> "Montage":
        if self.positions.ndim != 2 or self.positions.shape != (len(self.names), 3):
            raise ValueError("montage positions must be (n, 3) matching the name list")
        if len(set(self.names)) != len(self.names):
            raise ValueError("montage names must be unique")
        norms = np.linalg.norm(self.positions, axis=1)
        bad = np.flatnonzero(np.abs(norms - 1.0) > 1e-6)
        if bad.size:
            raise ValueError(f"montage positions not unit length at indices {bad.tolist()}")
        if len(self.names) < 3:
            raise ValueError("montage needs at least 3 electrodes")
        # At least 3 non-collinear points are needed to triangulate later on.
        p = self.positions
        collinear = True
        v0 = p[1] - p[0]
        for q in p[2:]:
            if np.linalg.norm(np.cross(v0, q - p[0])) > 1e-12:
                collinear = False
                break
        if collinear:
            raise ValueError("montage electrodes are collinear")
        return self

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ValueError(f"unknown montage electrode {name!r}") from None


class Window(NamedTuple):
    """One row of a WindowSet, made on demand; it holds no samples."""

    subject_id: str
    origin: tuple[int, int]  # (trial index, start sample)
    length: int
    label: str


@dataclass
class WindowSet:
    """Equal-length decision windows as an index table, one row per window:
    the samples of window i are data[:, starts[i] : starts[i] + length] of
    subject subjects[i]'s recording. Indexing with an integer gives a
    `Window` (so iteration yields them); with a slice or an index array,
    the WindowSet of those rows."""

    subjects: np.ndarray  # (k,) subject id
    trials: np.ndarray  # (k,) trial index in its recording
    starts: np.ndarray  # (k,) first sample
    labels: np.ndarray  # (k,) LEFT or RIGHT
    length: int  # samples per window

    def __len__(self) -> int:
        return len(self.starts)

    def __getitem__(self, key):
        if np.ndim(key) == 0 and not isinstance(key, slice):
            i = operator.index(key)
            return Window(str(self.subjects[i]), (int(self.trials[i]), int(self.starts[i])),
                          self.length, str(self.labels[i]))
        return WindowSet(self.subjects[key], self.trials[key], self.starts[key],
                         self.labels[key], self.length)

    @classmethod
    def concat(cls, sets: list["WindowSet"]) -> "WindowSet":
        if len({s.length for s in sets}) != 1:
            raise ValueError("need a non-empty list of equal-length window sets")
        return cls(*(np.concatenate([getattr(s, f) for s in sets])
                     for f in ("subjects", "trials", "starts", "labels")), sets[0].length)

    def rows(self, n_lags: int) -> np.ndarray:
        """(k, length - n_lags + 1) samples at which each window's lagged
        rows, and so its reconstruction, start."""
        if self.length < n_lags:
            raise ValueError(
                f"series of {self.length} samples is shorter than max lag {n_lags - 1}"
            )
        return self.starts[:, None] + np.arange(self.length - n_lags + 1)


@dataclass
class SplitSet:
    train: WindowSet
    validation: WindowSet
    test: WindowSet

    def partitions(self) -> dict[str, WindowSet]:
        return {"train": self.train, "validation": self.validation, "test": self.test}


@dataclass
class SynthConfig:
    """Synthetic cocktail-party EEG: per-channel Gaussian noise plus an
    alpha-band sinusoid whose amplitude is boosted by (1 + gain) on the
    hemisphere matching the attended side.

    As the pipeline's synth section it describes `n_subjects` recordings,
    subject i drawn with seed `seed + i`, and the attended-envelope mixture
    that the linear decoder's runs add to each (`envelope_*`)."""

    n_channels: int = 64
    duration_s: float = 240.0
    sample_rate: float = 128.0
    alpha_center: float = 10.0
    lateralization_gain: float = 1.0
    noise_sigma: float = 1.0
    n_trials: int = 8
    seed: int = 0
    n_subjects: int = 4
    envelope_mix_gain: float = 0.0
    envelope_max_lag_s: float = 0.25

    def validate(self, montage: Montage, reference_channels: Iterable[str]) -> "SynthConfig":
        """Check the ranges, and the names: the montage's first `n_channels`
        electrodes and the reference channels appended after them."""
        if self.n_subjects < 1 or self.n_channels < 1:
            raise ValueError("n_subjects and n_channels must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.sample_rate <= 0 or self.duration_s <= 0:
            raise ValueError("sample_rate and duration_s must be positive")
        if not (0 < self.alpha_center < self.sample_rate / 2):
            raise ValueError("alpha_center must lie inside (0, sample_rate/2)")
        if self.lateralization_gain < 0:
            raise ValueError("lateralization_gain must be >= 0")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        if not (0 <= self.envelope_mix_gain < math.inf and 0 <= self.envelope_max_lag_s < math.inf):
            raise ValueError("envelope_mix_gain and envelope_max_lag_s must be finite and >= 0")
        if self.n_trials < 1:
            raise ValueError("n_trials must be >= 1")
        total = self.duration_s * self.sample_rate
        per_trial = total / self.n_trials
        if abs(total - round(total)) > 1e-9 or abs(per_trial - round(per_trial)) > 1e-9:
            raise ValueError("duration must divide into n_trials equal whole-sample trials")
        if self.n_channels > len(montage):
            raise ValueError(f"n_channels={self.n_channels} exceeds montage size {len(montage)}")
        names = list(montage.names[: self.n_channels]) + list(reference_channels)
        if len(set(names)) != len(names):
            raise ValueError("reference channel names collide with montage names")
        return self


# ---------------------------------------------------------------------------
# Container codec
# ---------------------------------------------------------------------------

# Converted external inputs may come without a "kind" key in their header.
UNTAGGED_KINDS = ("recording", "envelope")


def container_paths(path: str | Path) -> tuple[Path, Path]:
    """Header/payload sibling paths; appends suffixes rather than replacing
    them so dotted base names survive."""
    p = Path(path)
    base = str(p)[: -len(".json")] if p.suffix == ".json" else str(p)
    return Path(base + ".json"), Path(base + ".f32")


def write_container(path: str | Path, kind: str, header: dict, payload) -> Path:
    """Write `header` with format_version and kind added, plus `payload` as
    little-endian float32. Returns the header path."""
    return write_container_chunks(path, kind, header, (payload,))


def write_container_chunks(path: str | Path, kind: str, header: dict, chunks: Iterable) -> Path:
    """`write_container` for a payload given as consecutive arrays: each
    chunk's float32 bytes are written as it comes, so the payload is never
    held whole, and the header only once the last chunk is in."""
    header_path, data_path = container_paths(path)
    # each array's own buffer is written, without a bytes copy of it
    atomic_write_chunks(data_path, (np.ascontiguousarray(c, dtype="<f4").data for c in chunks))
    # dump_header's text, encoded piece by piece: a tensor cache's header lists every window
    text = HEADER_JSON.iterencode({**header, "format_version": FORMAT_VERSION, "kind": kind})
    atomic_write_chunks(header_path, (t.encode() for t in itertools.chain(text, "\n")))
    return header_path


def read_header(path: str | Path, kind: str, required: tuple[str, ...] = ()) -> dict:
    """Parse a container header and check its version, kind and `required` keys."""
    header_path, _ = container_paths(path)
    try:
        header = json.loads(header_path.read_text())
    except OSError as exc:
        raise ValueError(f"cannot read {kind} header {header_path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed header {header_path}: {exc}") from exc
    if not isinstance(header, dict):
        raise ValueError(f"malformed header {header_path}: not a JSON object")
    version = header.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported format_version {version!r} in {header_path}")
    found = header.get("kind", kind if kind in UNTAGGED_KINDS else None)
    if found != kind:
        raise ValueError(f"{header_path} holds a {found!r} container, expected {kind!r}")
    for key in required:
        if key not in header:
            raise ValueError(f"malformed header {header_path}: missing key {key!r}")
    return header


def _payload_shape(data_path: Path, size: int, shape: tuple[int, ...]) -> tuple[int, ...]:
    """`shape` with its -1 resolved, checked against a payload of `size` bytes."""
    count, odd = divmod(size, 4)
    known = math.prod(d for d in shape if d != -1)
    if odd or known == 0 or count % known or (-1 not in shape and count != known):
        raise ValueError(
            f"payload shape mismatch: {size} bytes ({count} float32 values) in {data_path} "
            f"do not fill shape {tuple(shape)}"
        )
    return tuple(count // known if d == -1 else d for d in shape)


def read_payload(path: str | Path, shape: tuple[int, ...]) -> np.ndarray:
    """The float32 payload reshaped to `shape`, where one dimension may be -1;
    its size is checked before it is read."""
    with PayloadRows(path, shape) as payload:
        return payload[:]


class PayloadRows:
    """Read-only view of a float32 payload of `shape` = (N, ...): indexing
    the first axis reads only the rows asked for, by positioned reads into
    the result, so the payload is never held whole. It supports `len`,
    `shape`, integer, integer-array and slice indices (further indices apply
    to the rows read) and `np.asarray`. The size is checked at open; close
    it, or use it as a context manager."""

    dtype = np.dtype("<f4")

    def __init__(self, path: str | Path, shape: tuple[int, ...]):
        _, self.path = container_paths(path)
        self._fd = os.open(self.path, os.O_RDONLY)
        try:
            self.shape = _payload_shape(self.path, os.fstat(self._fd).st_size, shape)
        except BaseException:
            self.close()
            raise
        self._row_bytes = math.prod(self.shape[1:]) * 4

    @property
    def ndim(self) -> int:
        return len(self.shape)

    def __len__(self) -> int:
        return self.shape[0]

    def close(self) -> None:
        if self._fd >= 0:
            os.close(self._fd)
            self._fd = -1

    def __enter__(self) -> "PayloadRows":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:
        if getattr(self, "_fd", -1) >= 0:
            self.close()

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        rows = self[:]
        return rows if dtype is None else rows.astype(dtype, copy=False)

    def __getitem__(self, key):
        rest = ()
        if isinstance(key, tuple):
            key, rest = key[0], key[1:]
        n = len(self)
        if isinstance(key, slice):
            rows = range(n)[key]
            if rows.step == 1:  # one run of rows, read without an index array
                return self._gather(rows)[(slice(None), *rest)]
            idx = np.arange(rows.start, rows.stop, rows.step, dtype=np.intp)
        elif np.ndim(key) == 0:
            i = operator.index(key)
            if not -n <= i < n:
                raise IndexError(f"row {i} out of range for {n} rows")
            return self._gather(np.array([i % n]))[(0, *rest)]
        else:
            idx = np.asarray(key)
            if idx.size and idx.dtype.kind not in "iu":
                raise IndexError("rows must be selected by integers or a slice")
            idx = idx.astype(np.intp)
            if idx.size and not (-n <= idx.min() and idx.max() < n):
                raise IndexError(f"row index out of range for {n} rows")
            idx = np.where(idx < 0, idx + n, idx)
        out = self._gather(idx.ravel()).reshape(idx.shape + self.shape[1:])
        return out[(slice(None),) * idx.ndim + rest] if rest else out

    def _gather(self, idx: np.ndarray | range) -> np.ndarray:
        """Rows `idx` (non-negative, in range; an array, or a range of step
        1) in order, one read per run of consecutive rows."""
        out = np.empty((len(idx),) + self.shape[1:], dtype=self.dtype)
        if not len(idx):
            return out
        flat = memoryview(out.reshape(-1).view(np.uint8))
        breaks = [] if isinstance(idx, range) else (np.flatnonzero(np.diff(idx) != 1) + 1).tolist()
        for lo, hi in zip([0, *breaks], [*breaks, len(idx)]):
            self._read_into(flat[lo * self._row_bytes : hi * self._row_bytes],
                            int(idx[lo]) * self._row_bytes)
        return out

    def _read_into(self, buf: memoryview, offset: int) -> None:
        while buf:
            got = os.preadv(self._fd, [buf], offset)
            if got == 0:
                raise ValueError(f"payload {self.path} ended at byte {offset}, expected more")
            buf, offset = buf[got:], offset + got


def _recording_header(rec: RawRecording) -> dict:
    return {
        "subject_id": rec.subject_id,
        "sample_rate": rec.sample_rate,
        "channels": list(rec.channels),
        "trials": [{"start": t.start, "end": t.end, "label": t.label} for t in rec.trials],
    }


def save_recording(rec: RawRecording, path: str | Path) -> Path:
    """Write the JSON header + float32 payload pair, CHANNEL_BLOCK channels
    at a time (no float32 copy of the whole recording). Returns the header path."""
    rec.validate()
    blocks = (replace(rec, channels=rec.channels[lo : lo + CHANNEL_BLOCK],
                      data=rec.data[lo : lo + CHANNEL_BLOCK])
              for lo in range(0, rec.n_channels, CHANNEL_BLOCK))
    return save_recording_blocks(blocks, path)


def save_recording_blocks(blocks: Iterable[RawRecording], path: str | Path) -> Path:
    """Write a recording given as consecutive channel blocks, which share
    its subject, rate and trials: each block is cast to float32 and written
    as it comes, so the recording is never held whole. Returns the header
    path."""
    header: dict = {}  # filled from the blocks; encoded once the last one is written

    def rows():
        for block in blocks:
            head = _recording_header(block.validate())
            if not header:
                header.update(head)
            elif any(head[k] != header[k] for k in ("subject_id", "sample_rate", "trials")):
                raise ValueError("channel blocks differ in subject, sample rate or trials")
            else:
                header["channels"] += head["channels"]
            yield np.ascontiguousarray(block.data, dtype="<f4")
            del block  # before the next block is made
        if not header:
            raise ValueError("no channel blocks to write")

    return write_container_chunks(path, "recording", header, rows())


def load_recording(path: str | Path, channels: list[str] | None = None) -> RawRecording:
    """The recording at `path`, or only its `channels`, in the order given,
    whose rows alone are read; with no channels, none are, and the recording
    has zero rows of the payload's length. Every sample read is checked to
    be finite."""
    header = read_header(path, "recording", ("subject_id", "sample_rate", "channels", "trials"))
    names = [str(c) for c in header["channels"]]
    unknown = [c for c in channels or () if c not in names]
    if unknown:
        raise ValueError(f"unknown channel {unknown[0]!r}")
    rows = range(len(names)) if channels is None else [names.index(c) for c in channels]
    with PayloadRows(path, (len(names), -1)) as payload:
        data = payload[rows]
    finite = np.isfinite(data)
    if not finite.all():
        i, sample = divmod(int(np.argmin(finite)), data.shape[1])
        ch = rows[i]
        raise ValueError(
            f"non-finite sample in {container_paths(path)[1]}: channel {ch} "
            f"({names[ch]!r}), sample {sample}"
        )
    trials = [Trial(int(t["start"]), int(t["end"]), str(t["label"])) for t in header["trials"]]
    rec = RawRecording(
        subject_id=str(header["subject_id"]),
        sample_rate=float(header["sample_rate"]),
        channels=[names[i] for i in rows],
        data=data,
        trials=trials,
    )
    return rec.validate()


def load_montage(path: str | Path) -> Montage:
    try:
        entries = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed montage file {path}: {exc}") from exc
    if not isinstance(entries, list):
        raise ValueError(f"montage file {path} must hold a JSON list")
    names = [str(e["name"]) for e in entries]
    pos = np.array([[float(e["x"]), float(e["y"]), float(e["z"])] for e in entries], dtype=float)
    return Montage(names=names, positions=pos).validate()


def bundled_montage(name: str = "biosemi64") -> Montage:
    """Load one of the packaged electrode layouts ('biosemi64' or 'biosemi32')."""
    ref = resources.files("asad").joinpath(f"assets/{name}.json")
    with resources.as_file(ref) as p:
        return load_montage(p)


# ---------------------------------------------------------------------------
# Channel subsetting and windowing
# ---------------------------------------------------------------------------

def subset_recording(rec: RawRecording, keep: list[str]) -> RawRecording:
    """Restrict the recording to `keep`, in the order given."""
    rec_idx = [rec.channel_index(n) for n in keep]
    return replace(
        rec,
        channels=list(keep),
        data=rec.data[rec_idx],  # fancy indexing already copies
        trials=[replace(t) for t in rec.trials],
    ).validate()


def window_hop(window_samples: int, overlap_fraction: float) -> int:
    return max(1, _round_half_up(window_samples * (1.0 - overlap_fraction)))


def segment_windows(rec: RawRecording, window_s: float, overlap_fraction: float) -> WindowSet:
    """Slice every trial into decision windows of `window_s` seconds.

    Starts advance by hop = round(W * (1 - overlap)); a trial of length L
    yields floor((L - W)/hop) + 1 windows. Windows never cross trial
    boundaries and inherit the trial label.
    """
    if not (0.0 <= overlap_fraction < 1.0):
        raise ValueError("overlap_fraction must lie in [0, 1)")
    w = _round_half_up(window_s * rec.sample_rate)
    if w < 2:
        raise ValueError(f"window of {window_s} s is {w} samples; need >= 2")
    hop = window_hop(w, overlap_fraction)
    kept = [(ti, tr) for ti, tr in enumerate(rec.trials) if tr.length >= w]
    if not kept:
        raise ValueError(
            f"window of {w} samples is longer than every trial "
            f"(max length {max(t.length for t in rec.trials)})"
        )
    counts = [(tr.length - w) // hop + 1 for _, tr in kept]
    return WindowSet(
        subjects=np.full(sum(counts), rec.subject_id),
        trials=np.repeat([ti for ti, _ in kept], counts),
        starts=np.concatenate([tr.start + hop * np.arange(n) for (_, tr), n in zip(kept, counts)]),
        labels=np.repeat([tr.label for _, tr in kept], counts),
        length=w,
    )


def stratified_split(
    windows: WindowSet,
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1),
    seed: int = 0,
    block_s: float = 60.0,
    *,
    sample_rate: float,
) -> SplitSet:
    """Label-stratified train/validation/test split on contiguous blocks.

    Windows are grouped per (subject, label) and bundled into contiguous
    blocks of ~`block_s` seconds inside each trial (a block shorter than a
    window is an error); whole blocks are then
    shuffled and dealt greedily toward the target ratios. Afterwards any
    window whose samples spill into a block assigned to a different
    partition is dropped, so no sample is shared across partitions even
    with overlapping windows. Each partition keeps its windows in the
    order of `windows`.
    """
    if not len(windows):
        raise ValueError("no windows to split")
    if abs(sum(ratios) - 1.0) > 1e-9 or any(r < 0 for r in ratios):
        raise ValueError("ratios must be non-negative and sum to 1")
    w_len = windows.length
    block_samples = _round_half_up(block_s * sample_rate)
    if block_samples < w_len:
        raise ValueError(
            f"split block of {block_s:g} s is {block_samples} samples, shorter than "
            f"a {w_len}-sample window"
        )

    # blocks keyed (subject, trial, start // block_samples), in sorted order;
    # a block lies inside one trial, so it has one label
    subject_ids, subj = np.unique(windows.subjects, return_inverse=True)
    first_block = windows.starts // block_samples
    keys, first, block_of = np.unique(
        np.column_stack([subj, windows.trials, first_block]),
        axis=0, return_index=True, return_inverse=True,
    )
    block_label = np.array([LABEL_INDEX[lab] for lab in windows.labels[first]], dtype=np.intp)
    # groups in sorted (subject, label) order, each with its blocks in key order
    group = keys[:, 0] * len(LABELS) + block_label
    by_group = np.argsort(group, kind="stable")
    bounds = np.flatnonzero(np.diff(group[by_group])) + 1

    assignment = np.empty(len(keys), dtype=np.intp)
    for members in np.split(by_group, bounds):
        sid, label = str(subject_ids[keys[members[0], 0]]), LABELS[block_label[members[0]]]
        if len(members) < sum(1 for r in ratios if r > 0):
            raise ValueError(
                f"group subject={sid!r} label={label!r} has only {len(members)} "
                f"block(s); cannot populate all partitions"
            )
        # group-local stream: the shuffle must not depend on how many other
        # groups were processed first
        g_seed = (seed, zlib.crc32(sid.encode()), LABEL_INDEX[label])
        order = np.random.default_rng(g_seed).permutation(len(members))
        targets = [r * len(members) for r in ratios]
        counts = [0, 0, 0]
        for oi in order:
            # fill the partition with the most remaining relative capacity
            scores = [
                (targets[p] - counts[p]) / targets[p] if targets[p] > 0 else -1.0
                for p in range(3)
            ]
            p = int(np.argmax(scores))
            assignment[members[oi]] = p
            counts[p] += 1

    # Boundary scrub: a window reaching into a block of another partition
    # would share samples across partitions, so it is discarded. Blocks hold
    # a whole window, so the last sample lies in the first block or the
    # next one, which, if any window starts there, is the next key.
    follows = np.all(keys[1:, :2] == keys[:-1, :2], axis=1) & (keys[1:, 2] == keys[:-1, 2] + 1)
    next_part = assignment.copy()
    next_part[:-1][follows] = assignment[1:][follows]
    part = assignment[block_of]
    crosses = (windows.starts + w_len - 1) // block_samples > first_block
    part[crosses & (next_part[block_of] != part)] = -1

    split = SplitSet(*(windows[np.flatnonzero(part == p)] for p in range(3)))
    for (name, wins), ratio in zip(split.partitions().items(), ratios):
        if not len(wins) and ratio > 0:
            raise ValueError(f"partition {name!r} ended up empty")
    return split


# ---------------------------------------------------------------------------
# Synthetic recordings
# ---------------------------------------------------------------------------

def hemisphere_signs(montage: Montage) -> np.ndarray:
    """-1 for left-hemisphere electrodes, +1 for right, 0 for midline."""
    x = montage.positions[:, 0]
    return np.where(x > MIDLINE_TOL, 1, np.where(x < -MIDLINE_TOL, -1, 0))


def synth_recording(cfg: SynthConfig, montage: Montage, subject_id: str = "synth-0",
                    reference_channels: Iterable[str] = ("M1", "M2")) -> RawRecording:
    """Deterministic synthetic recording; see SynthConfig for the model. The
    reference channels are noise-only rows after the montage channels: they
    stand in for mastoid references, which the re-reference step drops."""
    cfg.validate(montage, reference_channels)
    rng = np.random.default_rng(cfg.seed)
    n_total = _round_half_up(cfg.duration_s * cfg.sample_rate)
    per_trial = n_total // cfg.n_trials
    names = list(montage.names[: cfg.n_channels]) + list(reference_channels)
    n_ch = len(names)

    labels = [LEFT, RIGHT] * ((cfg.n_trials + 1) // 2)
    labels = labels[: cfg.n_trials]
    rng.shuffle(labels)

    # scale=0 still consumes the stream, so seeds stay comparable across sigmas
    data = rng.normal(0.0, cfg.noise_sigma, size=(n_ch, n_total))

    signs = hemisphere_signs(Montage(names[: cfg.n_channels],
                                     montage.positions[: cfg.n_channels]))
    g = cfg.lateralization_gain
    trials = []
    for ti in range(cfg.n_trials):
        start, end = ti * per_trial, (ti + 1) * per_trial
        label = labels[ti]
        phase = rng.uniform(0.0, 2.0 * math.pi)
        t = np.arange(per_trial) / cfg.sample_rate
        carrier = np.sin(2.0 * math.pi * cfg.alpha_center * t + phase)
        boosted = -1 if label == LEFT else 1
        amp = np.where(signs == boosted, 1.0 + g, np.where(signs == 0, 1.0 + g / 2.0, 1.0))
        data[: cfg.n_channels, start:end] += amp[:, None] * carrier[None, :]
        trials.append(Trial(start, end, label))

    return RawRecording(
        subject_id=subject_id,
        sample_rate=cfg.sample_rate,
        channels=names,
        data=data,
        trials=trials,
    ).validate()
