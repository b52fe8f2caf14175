"""Session fixtures: full CLI pipeline runs shared by the end-to-end tests.

Both fixtures drive the real command-line entry points (not library
shortcuts) so every artifact they produce went through config parsing,
locking, and serialization exactly as a user run would.
"""

import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import poseinn.cli as cli
import poseinn.dataset as ds
import poseinn.scenegen as sg
import poseinn.trainer as tr

# Toy localization problem: 4 m x 4 m room, 32x32 renders, a 200-pose
# training loop, a 50-pose test loop on a ring 0.1 m outside it, and 2000
# filtered synthetic poses. Training hyperparameters were picked by sweep
# on this exact data; epochs stay at 30.
TOY_SEED = 11
TOY_SCENE_CFG = "kind = scene_config\nprimitives = 5\n"
TOY_DATA_CFG = (
    "kind = data_config\nscene = {scene}\ndim = 3\nimage_hw = 32\n"
    "train_count = 200\ntrain_style = loop\ntrain_loop_factor = 0.35\n"
    "test_count = 50\ntest_style = loop\ntest_loop_factor = 0.4\n"
)
TOY_SAMPLE_CFG = "kind = sampling_config\ntarget = 2000\n"
TOY_TRAIN_CFG = (
    "kind = train_config\nepochs = 30\nbatch = 25\nmix = alternate\n"
    "lr_start = 0.002\nlr_end = 0.0002\nw_kl = 0.001\n"
)

SYM_SEED = 5
SYM_SCENE_CFG = "kind = scene_config\nsymmetric = 1\n"
SYM_DATA_CFG = (
    "kind = data_config\nscene = {scene}\ndim = 3\nimage_hw = 32\n"
    "train_count = 200\ntrain_style = loop\ntrain_loop_factor = 0.35\n"
    "test_count = 40\ntest_style = loop\ntest_loop_factor = 0.4\n"
)
SYM_SAMPLE_CFG = "kind = sampling_config\ntarget = 2000\n"
SYM_TRAIN_CFG = TOY_TRAIN_CFG


def randomize_output_layers(flow, rng: np.random.Generator) -> None:
    """Draw He-normal weights for every coupling subnet's output layer.

    A new flow starts with those layers at zero, so it is a bare stack of
    permutations; tests of invertibility, log-det and gradients need the
    couplings to act."""
    last = f".w{flow.config.layers}"
    for name, t in flow.params.items():
        if name.startswith("block") and name.endswith(last):
            t.data = rng.normal(size=t.data.shape) * np.sqrt(2.0 / t.data.shape[0])


def run_cli(argv: list[str]) -> float:
    """Run one CLI command, assert success, return its wall time."""
    t0 = time.perf_counter()
    rc = cli.main([str(a) for a in argv])
    dt = time.perf_counter() - t0
    assert rc == 0, f"command failed: {argv}"
    return dt


def traced_peak(fn):
    """Call ``fn()``; return the peak bytes it held allocated at once, as
    tracemalloc counts them (numpy's buffers included), and its result.
    The count is of allocations, not RSS, so it is the same on any host."""
    tracemalloc.start()
    try:
        result = fn()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def _pipeline(root, seed, scene_cfg, data_cfg, sample_cfg, train_cfg):
    (root / "scene.cfg").write_text(scene_cfg)
    elapsed = run_cli(["gen-scene", "--config", root / "scene.cfg",
                       "--seed", seed, "--out", root / "scene"])

    scene_path = root / "scene" / "scene.kv"
    (root / "data.cfg").write_text(data_cfg.format(scene=scene_path))
    elapsed += run_cli(["gen-data", "--config", root / "data.cfg",
                        "--seed", seed, "--out", root / "data"])

    (root / "sample.cfg").write_text(sample_cfg)
    elapsed += run_cli(["sample-poses", "--config", root / "sample.cfg",
                        "--data", root / "data" / "train.kv",
                        "--seed", seed, "--out", root / "data"])

    (root / "train.cfg").write_text(train_cfg)
    elapsed += run_cli(["train", "--config", root / "train.cfg",
                        "--data", root / "data" / "train.kv",
                        "--synth", root / "data" / "synth.kv",
                        "--seed", seed, "--out", root / "run"])

    ckpt_path = root / "run" / "model.ckpt"
    ck = tr.load_checkpoint(ckpt_path)
    return SimpleNamespace(
        root=root,
        seed=seed,
        scene=sg.load_scene(scene_path),
        scene_path=scene_path,
        train=ds.load_dataset(root / "data" / "train.kv"),
        synth=ds.load_dataset(root / "data" / "synth.kv"),
        test=ds.load_dataset(root / "data" / "test.kv"),
        model=ck.model,
        ckpt_path=ckpt_path,
        pipeline_seconds=elapsed,
    )


@pytest.fixture(scope="session")
def toy_run(tmp_path_factory):
    """Scene 11 pipeline: data, synthetic poses, and a trained model."""
    return _pipeline(tmp_path_factory.mktemp("toy"), TOY_SEED,
                     TOY_SCENE_CFG, TOY_DATA_CFG, TOY_SAMPLE_CFG,
                     TOY_TRAIN_CFG)


@pytest.fixture(scope="session")
def symmetric_run(tmp_path_factory):
    """Same pipeline on the 180-degree rotationally symmetric scene."""
    return _pipeline(tmp_path_factory.mktemp("sym"), SYM_SEED,
                     SYM_SCENE_CFG, SYM_DATA_CFG, SYM_SAMPLE_CFG,
                     SYM_TRAIN_CFG)
