"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest -q perfbench/tests

They check that every workload prints every metric with its unit, that each
correctness check rejects a corrupted output, and that the per-layer counts
repeat exactly across two runs of one seed.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import calib, checks, workloads as wl  # noqa: E402
from perfbench.tracer import NullTracer  # noqa: E402
from poseinn import localizer  # noqa: E402

WORKLOADS = list(wl.WORKLOADS)
SEED = 7

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    BENCH = json.load(_f)


def run_tiny(workload: str, trace: int) -> tuple[subprocess.CompletedProcess, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0.3", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == WORKLOADS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc, result = run_tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    lines = proc.stdout.splitlines()
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(f"metric {m['name']} ") and line.endswith(f" {m['unit']}")
                   for line in lines), m["name"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_counts_repeat_exactly_for_one_seed():
    counts = [m["name"] for m in BENCH["per_layer"] if m["unit"] != "ms"]
    for workload in WORKLOADS:
        first = run_tiny(workload, 1)[1]["metrics"]
        second = run_tiny(workload, 1)[1]["metrics"]
        for name in counts:
            assert first[name]["value"] == second[name]["value"], (workload, name)


# ---------------------------------------------------------------------------
# each check rejects a corrupted output
# ---------------------------------------------------------------------------

def _timed(workload: str, tmp_path, seconds: float = 0.2):
    w = wl.WORKLOADS[workload]
    state, _ = w.setup(SEED, wl.TINY, str(tmp_path))
    return w, state, w.run(state, seconds, NullTracer())


def test_serve_checks_reject_nan_posterior_and_non_identical_rerun(tmp_path):
    w, state, rec = _timed("serve-frames", tmp_path)
    post = rec.outputs[0]
    samples = post.samples.copy()
    samples[0, 0] = np.nan
    rec.outputs[0] = localizer.PosePosterior(samples, post.mean, post.variance,
                                             post.position_cov, post.dim)
    shifted = rec.outputs[2].samples.copy()
    shifted[1, 1] = np.nextafter(shifted[1, 1], np.inf)
    rec.outputs[2] = localizer.summarize_samples(shifted, 3)
    w.check(state, rec)
    assert 0 in rec.failed and any("not finite" in e for e in rec.errors)
    assert 2 in rec.failed and any("differ between reruns" in e for e in rec.errors)
    assert rec.failed == {0, 2}


def test_train_checks_reject_a_checkpoint_with_one_flipped_byte(tmp_path):
    w, state, rec = _timed("train-joint", tmp_path)
    path = os.path.join(rec.outputs[0][3], "model.ckpt")
    with open(path, "r+b") as f:
        f.seek(-3, os.SEEK_END)
        byte = f.read(1)
        f.seek(-3, os.SEEK_END)
        f.write(bytes([byte[0] ^ 0x10]))
    w.check(state, rec)
    assert 0 in rec.failed
    assert any("model.ckpt" in e and "differs" in e for e in rec.errors)


def test_checkpoint_check_rejects_a_flipped_header_byte(tmp_path):
    _, _, rec = _timed("train-joint", tmp_path)
    model, opt, _, out_dir = rec.outputs[0]
    path = os.path.join(out_dir, "model.ckpt")
    assert checks.checkpoint(path, model, opt) is None
    with open(path, "r+b") as f:
        f.seek(1)
        f.write(b"X")
    assert "does not load" in checks.checkpoint(path, model, opt)


def test_datagen_checks_reject_a_synthetic_pose_that_fails_the_filter(tmp_path):
    w, state, rec = _timed("datagen", tmp_path)
    out, codes, saved = rec.outputs[0]
    name, poses, images = next(s for s in saved if s[0] == "synth")
    far = np.array(poses)
    far[0, :2] = [1.9, 1.9]  # far from the training loop: rule 1 rejects it
    saved[[s[0] for s in saved].index("synth")] = (name, far, images)
    w.check(state, rec)
    assert 1 in rec.failed
    assert any("fails filter_pose" in e for e in rec.errors)


def test_calibrator_keeps_its_own_time_off_the_clock():
    c = calib.Calibrator(calib.Reference(), interval_s=0.0)
    t0 = c.clock()
    c.tick()
    c.tick()
    elapsed = c.clock() - t0
    assert len(c.samples_ms) == 2 and c.spent_s > 0.0
    assert elapsed < 0.1 * c.spent_s


def test_calibrator_scales_each_time_by_the_samples_around_it():
    c = calib.Calibrator(None)
    c.sample_at = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    slow, fast = 2.0 * calib.REFERENCE_MS, 0.5 * calib.REFERENCE_MS
    c.samples_ms = [slow, slow, slow, fast, fast, fast]
    assert c.normalise(0.5, 0.6) == pytest.approx(0.05)   # host at half speed
    assert c.normalise(4.5, 4.6) == pytest.approx(0.2)    # host at double speed
    assert c.normalise(0.0, 2.0) == pytest.approx(1.0)
    assert c.normalise(3.0, 5.0) == pytest.approx(4.0)
    assert calib.NO_CALIBRATION.normalise(0.5, 0.6) == pytest.approx(0.1)


def test_bitwise_check_rejects_one_ulp():
    a = np.linspace(0.0, 1.0, 7)
    assert checks.bitwise_equal(a, a.copy(), "x") is None
    b = a.copy()
    b[3] = np.nextafter(b[3], 2.0)
    assert checks.bitwise_equal(a, b, "x") is not None


def test_shared_share_counts_repeated_images():
    img = np.zeros((4, 4, 3))
    assert checks.shared_share([img, img + 0.1, img + 0.2]) == 0.0
    assert checks.shared_share([img, img + 0.1, img.copy(), img + 0.1]) == 0.5


def test_all_runs_every_workload_in_one_command():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", "all",
         "--seed", str(SEED), "--seconds", "0.2", "--size", "tiny"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and set(result["metrics"]) == set(WORKLOADS)
