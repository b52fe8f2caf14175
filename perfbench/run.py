"""Run one benchmark workload, check its outputs and print its metrics.

    python3 perfbench/run.py --workload serve-frames --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Run from the repository root or anywhere else; the package is imported
from ``src/`` next to this directory, never from an installed copy. With
``--trace 0`` the last stdout line carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run. Human-readable lines
before it give every metric with its unit, the environment and any failed
check. The run also writes ``.perfbench_out/<workload>-seed<n>-trace<t>.json``
(and, traced, the spans next to it) for ``perfbench/summary.py``. The exit
code is 0 only when every correctness check passed. ``--workload all`` runs
every workload in turn, each in its own process, and ends with one JSON line
whose metrics are keyed by workload.
"""

import os

# single core, as the README runs the package: pin BLAS before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
WORKLOAD_NAMES = ("serve-frames", "track-dense", "train-joint", "datagen")


def _import_package() -> bool:
    """Import poseinn from this checkout's src/ and nowhere else."""
    sys.path[0] = ROOT  # the script's own directory would shadow stdlib-like names
    sys.path.insert(1, SRC)
    try:
        import poseinn
    except ImportError:
        return False
    return os.path.abspath(poseinn.__file__).startswith(SRC + os.sep)


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="length of the timed phase; batch jobs finish the job in progress")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every input; it exercises the code, it measures nothing")
    return p.parse_args(argv)


def run(args) -> tuple[dict, int]:
    from perfbench import calib, envinfo, spans, tracer as trace_mod, workloads as wl

    size = wl.FULL if args.size == "full" else wl.TINY
    workload = wl.WORKLOADS[args.workload]
    run_name = f"{args.workload}-seed{args.seed}" + ("-tiny" if args.size == "tiny" else "")
    tag = f"{run_name}-trace{args.trace}"
    work = os.path.join(WORK_DIR, tag)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(OUT_DIR, exist_ok=True)
    # the traced run reports raw times; the untraced one samples the host's
    # speed around each set-up and through the timed phase (see calib.py)
    if args.trace:
        setup_calib = run_calib = calib.NullCalibrator()
    else:
        reference = calib.Reference()
        setup_calib, run_calib = calib.Calibrator(reference), calib.Calibrator(reference)
    patcher = trace_mod.Patcher()
    for owner, attr in wl.SETUP_SAMPLE_POINTS:
        trace_mod.tick_after(patcher, owner, attr, setup_calib)
    try:
        setups, digests, state = [], [], None
        for _ in range(workload.setup_repeats or size.setup_repeats):
            state = None  # release the previous set-up before building the next
            setup_calib.tick(force=True)
            t0 = setup_calib.clock()
            state, fingerprint = workload.setup(args.seed, size, work)
            setups.append((t0, setup_calib.clock()))
            digests.append(fingerprint)
        setup_calib.tick(force=True)
        patcher.restore()

        tracer = trace_mod.Tracer() if args.trace else trace_mod.NullTracer()
        t0 = time.perf_counter()
        with tracer:
            rec = workload.run(state, args.seconds, tracer, run_calib)
        timed_s = time.perf_counter() - t0
        # set-up and timed phase only: the checks below allocate their own
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        if len(set(digests)) != 1:
            rec.fail(None, "set-up reruns are not bitwise identical")
        workload.check(state, rec)
    finally:
        patcher.restore()
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = spans.per_layer_metrics(tracer.spans, tracer.counts, rec.ops)
    else:
        setup_s = statistics.median(setup_calib.normalise(t0, t1) for t0, t1 in setups)
        metrics = {"setup_s": {"value": setup_s, "unit": "s"}}
        metrics.update({name: {"value": v, "unit": u}
                        for name, (v, u) in rec.timing_metrics(run_calib).items()})
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    failed = len(rec.failed)
    correct = failed == 0 and not rec.errors
    extra = {name: {"value": v, "unit": u} for name, (v, u) in rec.extra.items()}
    if not args.trace and workload.rate is not None:
        extra[workload.rate] = metrics["frames_per_s"]
    if not args.trace:  # the same times as measured, before normalisation
        extra["setup_wall_s"] = {"value": statistics.median(t1 - t0 for t0, t1 in setups),
                                 "unit": "s"}
        extra.update({f"{name}_wall": {"value": v, "unit": u}
                      for name, (v, u) in rec.timing_metrics().items()})
        extra["reference_ms"] = {"value": statistics.median(run_calib.samples_ms), "unit": "ms"}
    extra["fail_ratio"] = {"value": failed / rec.attempted, "unit": "ratio"}

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "env": envinfo.environment(ROOT, args.seed),
        "op": workload.op, "ops": rec.ops, "frames": rec.frames,
        "latency_samples": len(rec.laps),
        "setup_runs_s": [t1 - t0 for t0, t1 in setups], "timed_s": timed_s,
        "calibration_s": run_calib.spent_s,
        "reference_ms": {"setup": setup_calib.samples_ms, "timed": run_calib.samples_ms},
        "attempted": rec.attempted, "failed": failed, "errors": rec.errors,
        "correct": correct, "metrics": metrics, "workload_metrics": extra,
    }
    if args.trace:
        spans_file = os.path.join(OUT_DIR, f"{run_name}.spans.json")
        with open(spans_file, "w", encoding="utf-8") as f:
            json.dump({"fields": spans.SPAN_FIELDS, "timed_s": timed_s,
                       "spans": [[n, s - t0, e - t0, p, op]
                                 for n, s, e, p, op in tracer.spans]}, f)
        report["spans_file"] = os.path.relpath(spans_file, ROOT)
        report["counts"] = dict(tracer.counts)
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1)
    return report, 0 if correct else 1


def print_report(report: dict) -> None:
    print(f"workload {report['workload']} seed {report['seed']} trace {report['trace']} "
          f"size {report['size']}: {report['ops']} x {report['op']} in "
          f"{report['timed_s']:.3f} s timed phase, {report['latency_samples']} latency samples")
    print("env " + json.dumps(report["env"], sort_keys=True))
    for group in ("metrics", "workload_metrics"):
        for name, m in report[group].items():
            print(f"metric {name} {m['value']!r} {m['unit']}")
    for reason in report["errors"][:20]:
        print(f"check FAILED {reason}")
    if len(report["errors"]) > 20:
        print(f"check FAILED ... {len(report['errors']) - 20} more")
    print(json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": report["metrics"]}))


def run_all(args) -> int:
    """Every workload in turn, each in its own process so that peak RSS and
    the package's module state are its own."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--size", args.size],
            stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
    done = [r for r in results.values() if r is not None]
    correct = len(done) == len(results) and all(r["correct"] for r in done)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in done),
                      "failed": sum(r["failed"] for r in done),
                      "metrics": {name: r and r["metrics"] for name, r in results.items()}}))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not _import_package():
        print(f"perfbench: cannot import poseinn from {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    try:
        report, code = run(args)
    except Exception:  # the workload itself broke: no result to report
        traceback.print_exc()
        return 1
    print_report(report)
    return code


if __name__ == "__main__":
    sys.exit(main())
