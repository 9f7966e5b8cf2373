"""Paired comparison of two result sets of the repo benchmark.

Collect results with ``run.py --out FILE`` (one JSON line per run), or
let ``run`` alternate two checkouts seed by seed::

    python3 perfbench/compare.py run --base ../parent --change . \\
        --workload service-faults --seeds 1-10 --seconds 40 --out-dir cmp
    python3 perfbench/compare.py report cmp/base.jsonl cmp/change.jsonl

``report`` pairs runs by (workload, seed, repeat) and prints, per
workload and end-to-end metric, each side's median and quartiles and the
share of pairs the change won.  Ties count for neither side.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent


def better_directions() -> dict:
    """metric -> "lower" | "higher", from the repo's BENCHMARK.json."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def load(path: str) -> dict:
    """(workload, seed, repeat) -> metric values of one result file."""
    runs = {}
    seen = defaultdict(int)
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        doc = json.loads(line)
        if doc["trace"] or not doc["result"]["correct"]:
            continue
        key = (doc["workload"], doc["seed"])
        runs[key + (seen[key],)] = {
            name: m["value"] for name, m in doc["result"]["metrics"].items()}
        seen[key] += 1
    return runs


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def report(base: dict, change: dict, better: dict) -> str:
    lines = []
    keys = sorted(set(base) & set(change))
    for workload in sorted({k[0] for k in keys}):
        pairs = [k for k in keys if k[0] == workload]
        lines.append(f"{workload}: {len(pairs)} pairs")
        lines.append(f"  {'metric':<22} {'base q1/med/q3':>30} "
                     f"{'change q1/med/q3':>30}  won% lost  tied")
        for metric, direction in better.items():
            b = [base[k][metric] for k in pairs if metric in base[k]]
            c = [change[k][metric] for k in pairs if metric in change[k]]
            if len(b) != len(pairs) or len(c) != len(pairs):
                continue
            sign = 1.0 if direction == "higher" else -1.0
            won = sum(sign * (y - x) > 0 for x, y in zip(b, c))
            lost = sum(sign * (y - x) < 0 for x, y in zip(b, c))
            fmt = "{:.4g}/{:.4g}/{:.4g}"
            lines.append(
                f"  {metric:<22} {fmt.format(*quartiles(b)):>30} "
                f"{fmt.format(*quartiles(c)):>30}  "
                f"{won / len(pairs):>4.0%} {lost:>4} "
                f"{len(pairs) - won - lost:>5}")
    return "\n".join(lines)


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_pairs(args) -> None:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    sides = {"base": Path(args.base).resolve(),
             "change": Path(args.change).resolve()}
    for i, seed in enumerate(parse_seeds(args.seeds)):
        order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
        for side in order:
            cmd = [sys.executable, "perfbench/run.py", "--workload",
                   args.workload, "--seed", str(seed), "--seconds",
                   str(args.seconds), "--trace", "0",
                   "--out", str((out / f"{side}.jsonl").resolve())]
            print(f"{side} seed {seed}", flush=True)
            subprocess.run(cmd, cwd=sides[side], check=True,
                           stdout=subprocess.DEVNULL)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    rp = sub.add_parser("report", help="compare two result files")
    rp.add_argument("base")
    rp.add_argument("change")
    rr = sub.add_parser("run", help="alternate two checkouts seed by seed")
    rr.add_argument("--base", required=True)
    rr.add_argument("--change", required=True)
    rr.add_argument("--workload", required=True)
    rr.add_argument("--seeds", default="1-10")
    rr.add_argument("--seconds", type=float, default=40.0)
    rr.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)
    if args.cmd == "run":
        run_pairs(args)
        return 0
    print(report(load(args.base), load(args.change), better_directions()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
