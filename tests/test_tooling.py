"""Names that code outside the package reaches into: the benchmark's tracer
wraps module and class attributes by name (`owner.__dict__[attr]`), and the
scripts import from asad at start-up and call its private layer functions,
so a rename breaks them silently."""

import importlib.util
import json
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


def _script(name):
    path = ROOT / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench_kernels(monkeypatch):
    # the script sets a default BLAS thread count at import; keep it to the test
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", os.environ.get("OPENBLAS_NUM_THREADS", "1"))
    return _script("bench_kernels")


def test_every_trainer_kernel_row_runs(monkeypatch):
    """Each `bench_kernels.py` trainer row but the whole epochs, called once."""
    rows = _bench_kernels(monkeypatch).trainer_kernels()
    assert any(name.startswith("bn_backward_") for name in rows)
    for name, (_what, fn) in rows.items():
        if not name.startswith("train_epoch_"):
            fn()


def test_bench_kernels_only_builds_the_groups_it_needs(monkeypatch, tmp_path):
    """`--only` rows come in the order named, and the lambda search and
    tensor cache groups, which run pipeline stages to build, are not built
    for trainer rows."""
    bench = _bench_kernels(monkeypatch)

    def not_built(root):
        raise AssertionError(f"the group under {root} was built")

    monkeypatch.setattr(bench, "search_kernels", not_built)
    monkeypatch.setattr(bench, "cache_kernels", not_built)
    rows = bench.kernel_rows(tmp_path, ["rmsprop_update_5ch", "pool_1ch"])
    assert list(rows) == ["rmsprop_update_5ch", "pool_1ch"]
    monkeypatch.setattr(bench, "cnn_kernels", dict)
    monkeypatch.setattr(bench, "search_kernels", lambda root: {})
    monkeypatch.setattr(bench, "cache_kernels", lambda root: {})
    with pytest.raises(SystemExit, match="unknown kernel rows: no_such_row"):
        bench.kernel_rows(tmp_path, ["pool_1ch", "no_such_row"])


def test_lambda_search_rows_stop_at_accuracy_one_at_10_s(monkeypatch, tmp_path):
    """The `select_lambda` rows run on a mixed `linear-sweep` subject, and
    its 10 s fit reaches validation accuracy 1.0, where the search stops."""
    rows = _bench_kernels(monkeypatch).search_kernels(tmp_path)
    assert list(rows) == ["select_lambda_1s", "select_lambda_10s"]
    results = {name: fn() for name, (_what, fn) in rows.items()}
    assert results["select_lambda_10s"][1] == 1.0


def test_bench_pairs_kernels_alternate_the_sides_by_round(monkeypatch, tmp_path):
    """`--kernels` runs every row once per side and round, the parent first
    on even rounds, and summarises each row's per-process figures."""
    pairs = _script("bench_pairs")
    calls = []

    def fake_row(checkout, row):
        calls.append((checkout.name, row))
        ms = (2.0 if checkout.name == "parent" else 1.0) + len(calls) / 100
        return {"seconds": ms / 1e3, "peak_mib": 3.0 if checkout.name == "parent" else 1.0}

    monkeypatch.setattr(pairs, "kernel_row", fake_row)
    monkeypatch.setattr(pairs, "KERNEL_ROUNDS", 3)
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    out = tmp_path / "bench.json"
    assert pairs.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                       "--kernels", "a,b", "--out", str(out), "--label", "k"]) == 0
    one_round = [("parent", "a"), ("change", "a"), ("parent", "b"), ("change", "b")]
    swapped = [(side, row) for row in "ab" for side in ("change", "parent")]
    assert calls == one_round + swapped + one_round
    rows = json.loads(out.read_text())["k"]["kernels"]["rows"]
    assert list(rows) == ["a", "b"]
    assert rows["a"]["pairs"] == 3 and rows["a"]["change_lower_pairs"] == 3
    assert rows["a"]["peak_mib"] == {"parent": 3.0, "change": 1.0}
    assert rows["b"]["ms_runs"]["parent"] == pytest.approx([2.03, 2.08, 2.11])


def test_bench_pairs_kernel_row_runs_a_fresh_process():
    row = _script("bench_pairs").kernel_row(ROOT, "pool_1ch")
    assert row["seconds"] > 0 and row["peak_mib"] > 0
