"""The container codec: round trips, kind checks and payload sizes."""

import json
import os
import stat
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from asad.baseline import (
    Envelope,
    LinearDecoder,
    load_decoder,
    load_envelope,
    save_decoder,
    save_envelope,
)
from asad.data import (
    PayloadRows,
    atomic_write_text,
    container_paths,
    load_recording,
    read_header,
    read_payload,
    save_recording,
    write_container,
    write_container_chunks,
)
from asad.features import load_tensor_cache, save_tensor_cache
from asad.network import (
    Checkpoint,
    CnnConfig,
    TrainConfig,
    init_params,
    load_checkpoint,
    save_checkpoint,
)

from conftest import make_recording

RESERVED = ("format_version", "kind")
json_values = st.one_of(
    st.integers(-(2**53), 2**53),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=8),
    st.booleans(),
    st.lists(st.integers(-100, 100), max_size=4),
)
headers = st.dictionaries(
    st.text(min_size=1, max_size=8).filter(lambda k: k not in RESERVED), json_values, max_size=5
)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.text(min_size=1, max_size=12),
    header=headers,
    payload=hnp.arrays(np.float32, hnp.array_shapes(min_dims=1, max_dims=4, max_side=6)),
    data=st.data(),
)
def test_roundtrip_property(kind, header, payload, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c"
        write_container(path, kind, header, payload)
        back = read_header(path, kind, tuple(header))
        assert back == {**header, "format_version": 1, "kind": kind}
        shape = list(payload.shape)
        shape[data.draw(st.integers(0, len(shape) - 1), label="free dim")] = -1
        out = read_payload(path, tuple(shape))
        assert out.shape == payload.shape
        assert out.tobytes() == payload.astype("<f4").tobytes()


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 40), cuts=st.lists(st.integers(0, 40), max_size=6), seed=st.integers(0, 2**32 - 1))
def test_chunked_writer_matches_one_shot_property(n, cuts, seed):
    """Any split of a payload into consecutive chunks, empty ones included,
    writes the bytes of the one-shot write, for containers and caches."""
    payload = np.random.default_rng(seed).normal(size=(n, 2, 4, 4)).astype(np.float32)
    bounds = [0, *sorted(min(c, n) for c in cuts), n]
    chunks = [payload[a:b] for a, b in zip(bounds, bounds[1:])]
    labels, subjects = ["Left"] * n, ["s0"] * n
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_container(root / "one", "k", {"n": n}, payload)
        write_container_chunks(root / "many", "k", {"n": n}, iter(chunks))
        save_tensor_cache(payload, labels, subjects, (0.0, 1.0, 0.0, 1.0), root / "cache_one")
        save_tensor_cache(iter(chunks), labels, subjects, (0.0, 1.0, 0.0, 1.0), root / "cache_many")
        for one, many in (("one", "many"), ("cache_one", "cache_many")):
            for a, b in zip(container_paths(root / one), container_paths(root / many)):
                assert a.read_bytes() == b.read_bytes()
        assert sorted(q.name for q in root.iterdir()) == sorted(
            f"{name}.{ext}" for name in ("one", "many", "cache_one", "cache_many") for ext in ("json", "f32")
        )


def test_tensor_cache_chunks_must_cover_the_labels(tmp_path):
    rng = np.random.default_rng(0)
    chunks = [rng.normal(size=(2, 1, 4, 4)), rng.normal(size=(1, 1, 4, 4))]
    with pytest.raises(ValueError, match="3 windows of maps for 4 labels"):
        save_tensor_cache(iter(chunks), ["Left"] * 4, ["s0"] * 4, (0.0, 1.0, 0.0, 1.0), tmp_path / "c")
    with pytest.raises(ValueError, match="map chunk of shape"):
        save_tensor_cache(iter([chunks[0], rng.normal(size=(1, 2, 4, 4))]), ["Left"] * 3,
                          ["s0"] * 3, (0.0, 1.0, 0.0, 1.0), tmp_path / "c")
    assert not any(tmp_path.iterdir())


slice_ends = st.none() | st.integers(-45, 45)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 40), data=st.data())
def test_payload_rows_match_whole_read_property(n, data):
    """Rows read by position equal the whole payload indexed the same way:
    unsorted, repeated and empty index lists, slices and single rows."""
    payload = np.random.default_rng(n).normal(size=(n, 2, 3)).astype(np.float32)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c"
        write_container(path, "k", {}, payload)
        whole = np.fromfile(container_paths(path)[1], dtype="<f4").reshape(n, 2, 3)
        with PayloadRows(path, (-1, 2, 3)) as rows:
            assert len(rows) == n and rows.shape == (n, 2, 3) and rows.ndim == 3
            idx = data.draw(st.lists(st.integers(-n, n - 1), max_size=3 * n), label="idx")
            got = rows[idx]
            assert got.dtype == np.float32 and got.shape == (len(idx), 2, 3)
            assert got.tobytes() == whole[np.array(idx, dtype=int)].tobytes()
            grid = np.array(idx[: 2 * (len(idx) // 2)], dtype=int).reshape(2, -1)
            assert rows[grid].tobytes() == whole[grid].tobytes()
            step = data.draw(st.none() | st.integers(-3, 3).filter(bool), label="step")
            key = slice(data.draw(slice_ends, label="start"), data.draw(slice_ends, label="stop"), step)
            assert rows[key].tobytes() == whole[key].tobytes()
            i = data.draw(st.integers(-n, n - 1), label="row")
            assert rows[i].tobytes() == whole[i].tobytes()
            assert rows[i, 1].tobytes() == whole[i, 1].tobytes()
            assert rows[idx, 1:].tobytes() == whole[np.array(idx, dtype=int), 1:].tobytes()
            assert np.asarray(rows).tobytes() == whole.tobytes()
            for bad in (n, -n - 1, [0, n]):
                with pytest.raises(IndexError):
                    rows[bad]


LOADERS = {
    "recording": load_recording,
    "envelope": load_envelope,
    "decoder": load_decoder,
    "cache": load_tensor_cache,
    "checkpoint": load_checkpoint,
}

TINY_CNN = CnnConfig(in_channels=1, conv_filters=2, in_size=4, fc_sizes=(3, 2))


def _write_each_kind(root: Path) -> dict[str, Path]:
    rng = np.random.default_rng(0)
    paths = {name: root / name for name in LOADERS}
    save_recording(make_recording(n_channels=3, n_samples=40), paths["recording"])
    save_envelope(Envelope(np.abs(rng.normal(size=20)), "spk", 70.0), paths["envelope"])
    save_decoder(LinearDecoder(rng.normal(size=(3, 4)), np.arange(4), 1.0), paths["decoder"])
    save_tensor_cache(rng.normal(size=(1, 2, 4, 4)), ["Left"], ["s0"], (0.0, 1.0, 0.0, 1.0), paths["cache"])
    ckpt = Checkpoint(TINY_CNN, init_params(TINY_CNN, rng), TrainConfig(), 0, 0.5)
    save_checkpoint(ckpt, paths["checkpoint"])
    return paths


@pytest.mark.parametrize("loader", sorted(LOADERS))
def test_loader_rejects_other_kinds(tmp_path, loader):
    paths = _write_each_kind(tmp_path)
    LOADERS[loader](paths[loader])
    for name, path in paths.items():
        if name != loader:
            with pytest.raises(ValueError, match="container, expected"):
                LOADERS[loader](path)


@pytest.mark.parametrize("loader", ["recording", "decoder", "cache", "checkpoint"])
def test_payload_one_float_short_rejected(tmp_path, loader):
    path = _write_each_kind(tmp_path)[loader]
    _, data_path = container_paths(path)
    data_path.write_bytes(data_path.read_bytes()[:-4])
    with pytest.raises(ValueError, match="shape mismatch"):
        LOADERS[loader](path)


@pytest.mark.parametrize("edit", [b"", b"\0\0", b"\0\0\0\0"],
                         ids=["one float short", "two bytes over", "one float over"])
def test_payload_size_checked_before_reading(tmp_path, edit):
    path = _write_each_kind(tmp_path)["cache"]
    _, data_path = container_paths(path)
    data = data_path.read_bytes()
    data_path.write_bytes(data + edit if edit else data[:-4])
    for load in (load_tensor_cache, lambda p: read_payload(p, (1, 2, 4, 4))):
        with pytest.raises(ValueError, match=f"shape mismatch: .* in {data_path} do not fill"):
            load(path)


def _drop_kind(path: Path) -> None:
    header_path, _ = container_paths(path)
    header = json.loads(header_path.read_text())
    del header["kind"]
    header_path.write_text(json.dumps(header))


def test_untagged_headers_only_for_external_inputs(tmp_path):
    paths = _write_each_kind(tmp_path)
    for path in paths.values():
        _drop_kind(path)
    load_recording(paths["recording"])
    load_envelope(paths["envelope"])
    for name in ("decoder", "cache", "checkpoint"):
        with pytest.raises(ValueError, match="container, expected"):
            LOADERS[name](paths[name])


def test_missing_key_and_version_rejected(tmp_path):
    path = _write_each_kind(tmp_path)["envelope"]
    header_path, _ = container_paths(path)
    header = json.loads(header_path.read_text())
    header_path.write_text(json.dumps({k: v for k, v in header.items() if k != "speaker_id"}))
    with pytest.raises(ValueError, match="missing key 'speaker_id'"):
        load_envelope(path)
    header_path.write_text(json.dumps({**header, "format_version": 2}))
    with pytest.raises(ValueError, match="format_version"):
        load_envelope(path)


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_written_files_follow_the_umask(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        header_path = write_container(tmp_path / "c", "thing", {}, np.zeros(3))
        atomic_write_text(tmp_path / "t.txt", "x\n")
    finally:
        os.umask(old)
    for path in (header_path, container_paths(header_path)[1], tmp_path / "t.txt"):
        assert stat.S_IMODE(path.stat().st_mode) == mode, path
