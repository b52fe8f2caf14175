"""Spans and counts recorded around calls into the poseinn layers.

While a ``Tracer`` is active it replaces the public callables listed in
``SPANNED`` with wrappers that record one span per call: name, start, end,
the enclosing span, and the operation (request, frame, training step or
CLI command) that was current when the call began. Spans stay in memory
and are written out once the run ends. The ``Tensor`` constructor is only
counted, not spanned, because it runs hundreds of times per frame.

Nothing here edits the package: the wrappers are installed on module and
class attributes from the benchmark's side and removed on exit, so the
untraced run executes exactly the package's code.
"""

from __future__ import annotations

import time
from collections import Counter

import numpy as np

from poseinn import cli, dataset, encoder, flow, localizer, model, ndiff, sampler, \
    scenegen, trainer


class Patcher:
    """Replaces attributes and puts the originals back, last first."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, make_wrapper) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, make_wrapper(original))
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def record_durations(patcher: Patcher, owner, attr: str, out: list, calib) -> None:
    """Append (start, end) of every call of ``owner.attr`` to ``out``, read
    on the calibrator's clock, and let the calibrator sample after each call.

    This is the latency probe of train-joint; it costs two clock reads per
    call and is installed in traced and untraced runs alike.
    """
    clock = calib.clock

    def make(original):
        def timed(*args, **kwargs):
            t0 = clock()
            try:
                return original(*args, **kwargs)
            finally:
                out.append((t0, clock()))
                calib.tick()
        return timed

    patcher.wrap(owner, attr, make)


def tick_after(patcher: Patcher, owner, attr: str, calib) -> None:
    """Let the calibrator take a due sample after every call of ``owner.attr``."""
    def make(original):
        def then_tick(*args, **kwargs):
            try:
                return original(*args, **kwargs)
            finally:
                calib.tick()
        return then_tick

    patcher.wrap(owner, attr, make)


def _sample_poses_candidate(tracer: "Tracer", rec: list, args, kwargs, out) -> None:
    # a collision test made by sample_poses rejects a candidate before the
    # filter runs; the trajectory generator's own tests are not candidates
    if rec[3] >= 0 and tracer.spans[rec[3]][0] == "sampler.sample_poses":
        tracer.counts["sampler.candidates"] += 1
        tracer.counts["sampler.collisions"] += bool(out)


def _filter_outcome(tracer: "Tracer", rec: list, args, kwargs, out) -> None:
    tracer.counts["sampler.candidates"] += 1
    tracer.counts["sampler.accepted"] += bool(out.accepted)


def _dataset_bytes(tracer: "Tracer", rec: list, args, kwargs, out) -> None:
    poses, images = args[2], args[3]
    tracer.counts["dataset.bytes"] += 4 * (np.asarray(poses).size + np.asarray(images).size)


def _checkpoint_bytes(tracer: "Tracer", rec: list, args, kwargs, out) -> None:
    arrays = args[1].param_arrays()
    opt = kwargs.get("opt")
    if opt is not None:
        arrays.update(opt.state_arrays())
    tracer.counts["trainer.checkpoint_bytes"] += 8 * sum(a.size for a in arrays.values())


# (owner, attribute, span name, hook run after the call returns)
SPANNED = [
    (cli, "main", "cli.main", None),
    (dataset, "save_dataset", "dataset.save_dataset", _dataset_bytes),
    (dataset, "load_dataset", "dataset.load_dataset", None),
    (encoder.Vae, "encode", "encoder.Vae.encode", None),
    (encoder.Vae, "encode_stats", "encoder.Vae.encode_stats", None),
    (encoder.Vae, "decode", "encoder.Vae.decode", None),
    (flow.FlowModel, "forward", "flow.FlowModel.forward", None),
    (flow.FlowModel, "inverse", "flow.FlowModel.inverse", None),
    (flow.FlowModel, "embed_condition", "flow.FlowModel.embed_condition", None),
    (localizer, "localize", "localizer.localize", None),
    (localizer, "summarize_samples", "localizer.summarize_samples", None),
    (localizer, "ekf_predict", "localizer.ekf_predict", None),
    (localizer, "ekf_update", "localizer.ekf_update", None),
    (localizer, "posterior_measurement", "localizer.posterior_measurement", None),
    (localizer, "heading_modes", "localizer.heading_modes", None),
    (model.PoseRegressor, "encode_pose_batch", "model.PoseRegressor.encode_pose_batch", None),
    (model.PoseRegressor, "decode_pose_vectors", "model.PoseRegressor.decode_pose_vectors", None),
    (model.PoseRegressor, "condition_vector", "model.PoseRegressor.condition_vector", None),
    (ndiff, "conv2d", "ndiff.conv2d", None),
    (ndiff, "conv_transpose2d", "ndiff.conv_transpose2d", None),
    (ndiff.Tensor, "backward", "ndiff.Tensor.backward", None),
    (ndiff.Adam, "step", "ndiff.Adam.step", None),
    (sampler, "sample_poses", "sampler.sample_poses", None),
    (sampler, "compute_ranges", "sampler.compute_ranges", None),
    (sampler, "filter_pose", "sampler.filter_pose", _filter_outcome),
    (scenegen, "render", "scenegen.render", None),
    (scenegen, "export_point_cloud", "scenegen.export_point_cloud", None),
    (scenegen, "generate_trajectory", "scenegen.generate_trajectory", None),
    (scenegen.Scene, "position_collides", "scenegen.Scene.position_collides",
     _sample_poses_candidate),
    (trainer, "train", "trainer.train", None),
    (trainer, "train_step", "trainer.train_step", None),
    (trainer, "save_checkpoint", "trainer.save_checkpoint", _checkpoint_bytes),
]


class NullTracer:
    """Stands in for a tracer in the untraced run: only tracks the op id."""

    def __init__(self):
        self.op = -1

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        return None


class Tracer(NullTracer):
    """Records spans and counts while used as a context manager."""

    def __init__(self):
        super().__init__()
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patcher = Patcher()

    def _span_wrapper(self, name: str, hook):
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter, self

        def make(original):
            def traced(*args, **kwargs):
                rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op]
                stack.append(len(spans))
                spans.append(rec)
                rec[1] = clock()
                try:
                    out = original(*args, **kwargs)
                finally:
                    rec[2] = clock()
                    stack.pop()
                if hook is not None:
                    hook(tracer, rec, args, kwargs, out)
                return out
            return traced
        return make

    def __enter__(self):
        for owner, attr, name, hook in SPANNED:
            self._patcher.wrap(owner, attr, self._span_wrapper(name, hook))
        counts = self.counts

        def count_tensors(original):
            def init(*args, **kwargs):
                counts["ndiff.tensors"] += 1
                original(*args, **kwargs)
            return init

        self._patcher.wrap(ndiff.Tensor, "__init__", count_tensors)
        return self

    def __exit__(self, *exc) -> None:
        self._patcher.restore()
