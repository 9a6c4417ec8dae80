"""Span tracing around the public functions of each asad module.

The tracer replaces module and class attributes with timing wrappers
before the stages run, so the program itself is untouched. Each call
records a span ``[name, start, end, parent, run_id, work]``; spans stay in
memory and are written once, when the round ends. Per-layer metrics are
derived from the spans: a layer's self time is its span duration minus
the time covered by its child spans.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

NAME, START, END, PARENT, RUN_ID, WORK = range(6)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, work):
        spans, stack, run_id, clock = self.spans, self._stack, self.run_id, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, run_id, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = clock()
            if work is not None:
                span[WORK] = work(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, work=None) -> None:
        """Replace `owner.attr` by a wrapper that records spans named `name`;
        `work(args, result)` gives the span's work count."""
        original = owner.__dict__[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, work))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write(self, path: Path) -> None:
        t0 = self.spans[0][START] if self.spans else 0.0
        rows = [
            [s[NAME], round(s[START] - t0, 7), round(s[END] - t0, 7), s[PARENT], s[RUN_ID], s[WORK]]
            for s in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"fields": ["name", "start_s", "end_s", "parent", "run_id", "work"],
                                    "spans": rows}))


def install(tracer: Tracer) -> None:
    """Wrap the public functions that `asad run` reaches, at the names the
    callers look them up by (a `from x import f` binding is patched where
    it is used, not only where it is defined)."""
    from asad import baseline, features, interpolate, network, pipeline, preprocess

    for stage in pipeline.STAGES:
        tracer.patch(pipeline, f"stage_{stage}", f"pipeline.{stage}")

    tracer.patch(pipeline, "synth_recording", "data.synth_recording")
    tracer.patch(pipeline, "save_recording", "data.save_recording")
    tracer.patch(pipeline, "load_recording", "data.load_recording")
    tracer.patch(pipeline, "segment_windows", "data.segment_windows",
                 work=lambda a, r: len(r))
    tracer.patch(pipeline, "stratified_split", "data.stratified_split",
                 work=lambda a, r: sum(len(p) for p in r.partitions().values()))

    tracer.patch(preprocess, "rereference", "preprocess.rereference",
                 work=lambda a, r: a[0].data.size)
    tracer.patch(preprocess, "bandpass", "preprocess.bandpass")
    tracer.patch(preprocess, "resample", "preprocess.resample")
    tracer.patch(preprocess, "normalize_trial", "preprocess.normalize_trial")
    tracer.patch(preprocess, "resample_series", "preprocess.resample_series",
                 work=lambda a, r: a[0].size)
    tracer.patch(pipeline, "resample_series", "preprocess.resample_series",
                 work=lambda a, r: a[0].size)

    tracer.patch(pipeline, "project_electrodes", "geometry.project_electrodes")

    tracer.patch(features, "interpolator", "interpolate.interpolator")
    tracer.patch(interpolate.CloughTocher, "grid_cache", "interpolate.grid_cache")
    tracer.patch(interpolate.CloughTocher, "grid", "interpolate.grid")

    tracer.patch(pipeline, "extract_ssf", "features.extract_ssf")
    tracer.patch(features, "band_power", "features.band_power")
    tracer.patch(pipeline, "save_tensor_cache", "features.save_tensor_cache")
    tracer.patch(pipeline, "load_tensor_cache", "features.load_tensor_cache")

    tracer.patch(network, "forward", "network.forward")
    tracer.patch(network, "loss_and_grad", "network.loss_and_grad",
                 work=lambda a, r: len(a[3]))
    tracer.patch(network, "rmsprop_step", "network.rmsprop_step")
    tracer.patch(network, "predict_proba", "network.predict_proba")
    tracer.patch(pipeline, "train_arrays", "network.train_arrays")
    tracer.patch(pipeline, "save_checkpoint", "network.save_checkpoint")
    tracer.patch(pipeline, "load_checkpoint", "network.load_checkpoint")

    tracer.patch(baseline, "accumulate_covariances", "baseline.accumulate_covariances")
    # the rows the covariances are summed over are the rows of the lagged
    # designs that accumulate_covariances forms
    tracer.patch(baseline, "_lagged_design", "baseline.lagged_design",
                 work=lambda a, r: r.shape[0])
    tracer.patch(pipeline, "select_lambda", "baseline.select_lambda",
                 work=lambda a, r: len(a[3]))
    tracer.patch(baseline, "reconstruct", "baseline.reconstruct")
    tracer.patch(pipeline, "reconstruct", "baseline.reconstruct")
    tracer.patch(baseline, "decide_attention", "baseline.decide_attention")
    tracer.patch(pipeline, "decide_attention", "baseline.decide_attention")
    tracer.patch(pipeline, "add_envelope_mixture", "baseline.add_envelope_mixture")


class SpanTable:
    """Totals, self times, call counts and work counts per span name."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        self._child = child
        self._by_name: dict[str, list[int]] = {}
        for i, s in enumerate(spans):
            self._by_name.setdefault(s[NAME], []).append(i)

    def _select(self, name, parent=None, not_parent=None):
        for i in self._by_name.get(name, ()):
            s = self.spans[i]
            pname = self.spans[s[PARENT]][NAME] if s[PARENT] >= 0 else None
            if parent is not None and pname != parent:
                continue
            if not_parent is not None and pname == not_parent:
                continue
            yield i, s

    def total(self, name, **where) -> float:
        return sum(s[END] - s[START] for _, s in self._select(name, **where))

    def self_time(self, name) -> float:
        return sum(s[END] - s[START] - self._child[i] for i, s in self._select(name))

    def first(self, name) -> float:
        """Duration of the first span named `name`, 0 when there is none."""
        i = self._by_name.get(name)
        return self.spans[i[0]][END] - self.spans[i[0]][START] if i else 0.0

    def calls(self, name, **where) -> int:
        return sum(1 for _ in self._select(name, **where))

    def work(self, name, **where) -> int:
        return sum(s[WORK] for _, s in self._select(name, **where))


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: list[list], cache_bytes: int) -> tuple[dict, dict]:
    """Per-layer metric values and the run facts of one traced round."""
    t = SpanTable(spans)
    m: dict[str, float] = {}
    for stage in ("synth", "preprocess", "extract", "train", "eval", "baseline", "report"):
        m[f"pipeline.{stage}_s"] = t.total(f"pipeline.{stage}")

    m["data.synth_s"] = t.total("data.synth_recording")
    m["data.recording_io_s"] = t.total("data.save_recording") + t.total("data.load_recording")
    m["data.windowing_s"] = t.total("data.segment_windows") + t.total("data.stratified_split")
    segmented = t.work("data.segment_windows")
    kept = t.work("data.stratified_split")
    m["data.windows_kept_ratio"] = _ratio(kept, segmented)

    m["preprocess.rereference_s"] = t.total("preprocess.rereference")
    m["preprocess.bandpass_s"] = t.total("preprocess.bandpass")
    # the envelope resampling is the resample_series call outside resample()
    m["preprocess.resample_s"] = t.total("preprocess.resample") + t.total(
        "preprocess.resample_series", not_parent="preprocess.resample")
    m["preprocess.normalize_s"] = t.total("preprocess.normalize_trial")
    busy = sum(m[f"preprocess.{k}_s"] for k in ("rereference", "bandpass", "resample", "normalize"))
    samples = t.work("preprocess.rereference") + t.work(
        "preprocess.resample_series", not_parent="preprocess.resample")
    m["preprocess.samples_per_s"] = _ratio(samples, busy)

    m["geometry.project_s"] = t.total("geometry.project_electrodes")

    # the first calls build the evaluator and the grid tables; later calls
    # are cache lookups
    m["interpolate.build_s"] = t.first("interpolate.interpolator") + t.first("interpolate.grid_cache")
    m["interpolate.grid_s"] = t.self_time("interpolate.grid")
    maps = t.calls("interpolate.grid")
    m["interpolate.grid_calls"] = maps

    m["features.band_power_s"] = t.total("features.band_power")
    m["features.band_power_calls"] = t.calls("features.band_power")
    m["features.extract_self_s"] = t.self_time("features.extract_ssf")
    m["features.maps_per_s"] = _ratio(maps, m["pipeline.extract_s"])
    m["features.cache_write_s"] = t.total("features.save_tensor_cache")
    m["features.cache_read_s"] = t.total("features.load_tensor_cache")
    m["features.cache_mb"] = cache_bytes / 2**20

    steps = t.calls("network.rmsprop_step")
    m["network.forward_train_s"] = t.total("network.forward", parent="network.loss_and_grad")
    m["network.backward_s"] = t.self_time("network.loss_and_grad")
    m["network.rmsprop_s"] = t.total("network.rmsprop_step")
    m["network.train_loop_self_s"] = t.self_time("network.train_arrays")
    m["network.forward_eval_s"] = t.total("network.predict_proba")
    m["network.checkpoint_io_s"] = t.total("network.save_checkpoint") + t.total("network.load_checkpoint")
    m["network.step_ms"] = 1000.0 * _ratio(
        t.total("network.loss_and_grad") + m["network.rmsprop_s"], steps)
    window_epochs = t.work("network.loss_and_grad")
    m["network.train_windows_per_s"] = _ratio(window_epochs, m["pipeline.train_s"])

    m["baseline.covariance_s"] = t.total("baseline.accumulate_covariances")
    m["baseline.cov_rows"] = t.work("baseline.lagged_design", parent="baseline.accumulate_covariances")
    m["baseline.lambda_search_s"] = t.self_time("baseline.select_lambda")
    m["baseline.reconstruct_s"] = t.total("baseline.reconstruct")
    m["baseline.decide_s"] = t.total("baseline.decide_attention")
    m["baseline.envelope_mix_s"] = t.total("baseline.add_envelope_mixture")

    facts = {
        "windows_segmented": segmented,
        "windows_kept": kept,
        "maps": maps,
        "optimizer_steps": steps,
        "window_epochs": window_epochs,
        "epochs_run": t.calls("network.predict_proba", parent="network.train_arrays"),
        "ridge_fits": t.work("baseline.select_lambda"),
        "covariance_rows": m["baseline.cov_rows"],
        "spans": len(spans),
    }
    return m, facts
