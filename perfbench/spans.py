"""Self times and per-layer metrics computed from recorded spans.

A span is ``[name, start_s, end_s, parent, op]``: the parent is the index of
the enclosing span (-1 at top level) and ``op`` the request, frame, job or
command that was current when the call began. This module needs only the
spans, so the trace summary can read a spans file without the package.
"""

from __future__ import annotations

import numpy as np

SPAN_FIELDS = ("name", "start_s", "end_s", "parent", "op")


def self_times(spans: list[list]) -> np.ndarray:
    """Span duration minus the time its direct children cover, in seconds.

    Calls are synchronous and single-threaded, so children of one span never
    overlap and their durations can simply be summed.
    """
    own = np.array([s[2] - s[1] for s in spans], dtype=np.float64)
    child = np.zeros(len(spans))
    for s, d in zip(spans, own):
        if s[3] >= 0:
            child[s[3]] += d
    return own - child


def span_table(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds, self seconds."""
    selfs = self_times(spans)
    table: dict[str, dict[str, float]] = {}
    for s, own in zip(spans, selfs):
        row = table.setdefault(s[0], {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["incl_s"] += s[2] - s[1]
        row["self_s"] += float(own)
    return table


# Per-layer metrics: (name, unit, kind, span names or count key). Times are
# milliseconds of self time (or inclusive time for kind "incl") per
# workload operation; counts are per operation as well, so they repeat
# exactly for one seed however many operations fit in the timed phase.
PER_LAYER = [
    ("flow.inverse_ms", "ms", "self", ("flow.FlowModel.inverse",)),
    ("flow.forward_ms", "ms", "self", ("flow.FlowModel.forward",)),
    ("flow.embed_condition_ms", "ms", "self", ("flow.FlowModel.embed_condition",)),
    ("encoder.encode_ms", "ms", "self", ("encoder.Vae.encode",)),
    ("encoder.encode_stats_ms", "ms", "self", ("encoder.Vae.encode_stats",)),
    ("encoder.decode_ms", "ms", "self", ("encoder.Vae.decode",)),
    ("ndiff.conv_ms", "ms", "self", ("ndiff.conv2d", "ndiff.conv_transpose2d")),
    ("ndiff.conv_calls", "count", "calls", ("ndiff.conv2d",)),
    ("ndiff.backward_ms", "ms", "self", ("ndiff.Tensor.backward",)),
    ("ndiff.adam_ms", "ms", "self", ("ndiff.Adam.step",)),
    ("ndiff.tensors_per_frame", "count", "count", "ndiff.tensors"),
    ("ndiff.tensors_per_step", "count", "per_step", "ndiff.tensors"),
    ("model.encode_pose_ms", "ms", "self", ("model.PoseRegressor.encode_pose_batch",)),
    ("model.decode_pose_ms", "ms", "self", ("model.PoseRegressor.decode_pose_vectors",)),
    ("model.condition_ms", "ms", "self", ("model.PoseRegressor.condition_vector",)),
    ("localizer.localize_self_ms", "ms", "self", ("localizer.localize",)),
    ("localizer.summarize_ms", "ms", "self", ("localizer.summarize_samples",)),
    ("localizer.ekf_ms", "ms", "self", ("localizer.ekf_predict", "localizer.ekf_update",
                                        "localizer.posterior_measurement")),
    ("localizer.heading_modes_ms", "ms", "self", ("localizer.heading_modes",)),
    ("trainer.step_ms", "ms", "incl", ("trainer.train_step",)),
    ("trainer.step_self_ms", "ms", "self", ("trainer.train_step",)),
    ("trainer.train_self_ms", "ms", "self", ("trainer.train",)),
    ("trainer.checkpoint_save_ms", "ms", "self", ("trainer.save_checkpoint",)),
    ("trainer.checkpoint_bytes", "bytes", "count", "trainer.checkpoint_bytes"),
    ("scenegen.render_ms", "ms", "self", ("scenegen.render",)),
    ("scenegen.render_calls", "count", "calls", ("scenegen.render",)),
    ("scenegen.point_cloud_ms", "ms", "self", ("scenegen.export_point_cloud",)),
    ("scenegen.collides_ms", "ms", "self", ("scenegen.Scene.position_collides",)),
    ("sampler.sample_self_ms", "ms", "self", ("sampler.sample_poses",)),
    ("sampler.compute_ranges_ms", "ms", "self", ("sampler.compute_ranges",)),
    ("sampler.filter_ms", "ms", "self", ("sampler.filter_pose",)),
    ("sampler.filter_calls", "count", "calls", ("sampler.filter_pose",)),
    ("sampler.collisions", "count", "count", "sampler.collisions"),
    ("sampler.acceptance_ratio", "ratio", "acceptance", None),
    ("dataset.save_ms", "ms", "self", ("dataset.save_dataset",)),
    ("dataset.load_ms", "ms", "self", ("dataset.load_dataset",)),
    ("dataset.bytes", "bytes", "count", "dataset.bytes"),
    ("cli.self_ms", "ms", "self", ("cli.main",)),
]


def per_layer_metrics(spans: list[list], counts: dict, ops: int) -> dict[str, dict]:
    """Every PER_LAYER metric for one traced timed phase of ``ops`` operations.

    A layer the workload never calls reads 0.
    """
    table = span_table(spans)
    steps = table.get("trainer.train_step", {}).get("calls", 0)
    out = {}
    for name, unit, kind, key in PER_LAYER:
        if kind in ("self", "incl"):
            field = "self_s" if kind == "self" else "incl_s"
            value = 1e3 * sum(table.get(k, {}).get(field, 0.0) for k in key) / ops
        elif kind == "calls":
            value = sum(table.get(k, {}).get("calls", 0) for k in key) / ops
        elif kind == "count":
            value = counts.get(key, 0) / ops
        elif kind == "per_step":
            value = counts.get(key, 0) / steps if steps else 0.0
        else:  # acceptance
            cand = counts.get("sampler.candidates", 0)
            value = counts.get("sampler.accepted", 0) / cand if cand else 0.0
        out[name] = {"value": float(value), "unit": unit}
    return out
