"""The container codec: round trips, kind checks and payload sizes."""

import json
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
    container_paths,
    load_recording,
    read_header,
    read_payload,
    save_recording,
    write_container,
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
