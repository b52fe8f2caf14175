"""Per-layer tables of traced runs, read from the spans files run.py writes.

    python3 perfbench/summary.py                       # every traced run in .perfbench_out
    python3 perfbench/summary.py --workload serve-frames --seed 1

For each traced run: per span name, the calls and the self time (span minus
its direct child spans) in total, per operation and as a share of the
timed phase; then the unattributed remainder (the benchmark's own loop and
code no span covers), a line showing that self times plus remainder add up
to the traced timed phase, the per-layer metrics, and ``trace_overhead``:
the traced run's timed-phase wall time per operation over the untraced
run's (its host-speed sampling taken out), for the same workload and seed.
"""

import argparse
import glob
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
sys.path[0] = ROOT

from perfbench.spans import span_table  # noqa: E402


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def summarize(report: dict, untraced: dict | None) -> list[str]:
    trace = _load(os.path.join(ROOT, report["spans_file"]))
    spans, timed, ops = trace["spans"], trace["timed_s"], report["ops"]
    table = span_table(spans)
    lines = [f"== {report['workload']} seed {report['seed']}: {ops} x {report['op']}, "
             f"traced timed phase {timed:.3f} s, {len(spans)} spans over "
             f"{len({s[4] for s in spans})} requests",
             f"{'span':44} {'calls':>8} {'self ms':>11} {'ms/op':>10} {'share':>7}"]
    attributed = 0.0
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        attributed += row["self_s"]
        lines.append(f"{name:44} {row['calls']:8d} {1e3 * row['self_s']:11.2f} "
                     f"{1e3 * row['self_s'] / ops:10.4f} {row['self_s'] / timed:7.2%}")
    rest = timed - attributed
    lines.append(f"{'(unattributed)':44} {'':8} {1e3 * rest:11.2f} {1e3 * rest / ops:10.4f} "
                 f"{rest / timed:7.2%}")
    lines.append(f"self times {attributed:.6f} s + unattributed {rest:.6f} s "
                 f"= {attributed + rest:.6f} s = traced timed phase {timed:.6f} s")
    for name, m in report["metrics"].items():
        if m["value"]:
            lines.append(f"metric {name} {m['value']!r} {m['unit']}")
    if untraced is not None:
        # the untraced phase also sampled the host's speed; that time is no workload's
        busy = untraced["timed_s"] - untraced["calibration_s"]
        overhead = (timed / ops) / (busy / untraced["ops"])
        lines.append(f"trace_overhead {overhead:.4f} (traced / untraced timed-phase "
                     f"wall time per {report['op']})")
    else:
        lines.append("trace_overhead unknown: no untraced run of this workload and seed")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out-dir", default=OUT_DIR)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    args = p.parse_args(argv)
    found = 0
    for path in sorted(glob.glob(os.path.join(args.out_dir, "*-trace1.json"))):
        report = _load(path)
        if args.workload not in (None, report["workload"]) \
                or args.seed not in (None, report["seed"]):
            continue
        base = path[:-len("-trace1.json")] + "-trace0.json"
        untraced = _load(base) if os.path.exists(base) else None
        print("\n".join(summarize(report, untraced)))
        found += 1
    if not found:
        print(f"no traced results in {args.out_dir}; run perfbench/run.py --trace 1 first",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
