"""Names that code outside the package reaches into: the benchmark's tracer
wraps module and class attributes by name (`owner.__dict__[attr]`), and the
scripts import from asad at start-up and call its private layer functions,
so a rename breaks them silently."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from asad import baseline, features, interpolate, network, pipeline, preprocess

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs_and_restores_every_attribute(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing

    owners = (baseline, features, network, pipeline, preprocess, interpolate.CloughTocher)
    before = [dict(vars(owner)) for owner in owners]
    load = pipeline.load_recording
    tracer = tracing.Tracer("t")
    try:
        tracing.install(tracer)
        assert pipeline.load_recording is not load and pipeline.load_recording.__wrapped__ is load
    finally:
        tracer.restore()
    for owner, attrs in zip(owners, before):
        now = vars(owner)
        assert set(now) == set(attrs), owner
        assert [k for k, v in attrs.items() if now[k] is not v] == [], owner


@pytest.mark.parametrize("script", ["bench_kernels.py", "bench_pairs.py", "stage_rss.py"])
def test_script_starts(script):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), "--help"],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage:")


def _bench_kernels(monkeypatch):
    # the script sets a default BLAS thread count at import; keep it to the test
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", os.environ.get("OPENBLAS_NUM_THREADS", "1"))
    path = ROOT / "scripts" / "bench_kernels.py"
    spec = importlib.util.spec_from_file_location("bench_kernels", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_every_trainer_kernel_row_runs(monkeypatch):
    """Each `bench_kernels.py` trainer row but the whole epochs, called once."""
    rows = _bench_kernels(monkeypatch).trainer_kernels()
    assert any(name.startswith("bn_backward_") for name in rows)
    for name, (_what, fn) in rows.items():
        if not name.startswith("train_epoch_"):
            fn()


def test_bench_kernels_only_builds_the_groups_it_needs(monkeypatch, tmp_path):
    """`--only` rows come in the order named, and the tensor cache group,
    which runs three stages to build, is not built for trainer rows."""
    bench = _bench_kernels(monkeypatch)

    def no_cache(root):
        raise AssertionError("the tensor cache group was built")

    monkeypatch.setattr(bench, "cache_kernels", no_cache)
    rows = bench.kernel_rows(tmp_path, ["rmsprop_update_5ch", "pool_1ch"])
    assert list(rows) == ["rmsprop_update_5ch", "pool_1ch"]
    monkeypatch.setattr(bench, "cnn_kernels", dict)
    monkeypatch.setattr(bench, "cache_kernels", lambda root: {})
    with pytest.raises(SystemExit, match="unknown kernel rows: no_such_row"):
        bench.kernel_rows(tmp_path, ["pool_1ch", "no_such_row"])
