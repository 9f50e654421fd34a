"""Fold alternating parent/change benchmark runs into one BENCH_<n>.json entry.

Each argument after the output path is a labelled ``result.json`` from
``bench/run.py``, ``parent=<path>`` or ``change=<path>``, given in the order
the runs were made:

    python3 scripts/bench_record.py BENCH_8.json \\
        --parent-commit <sha> --change-commit <sha> \\
        parent=runs/p0.json change=runs/c0.json change=runs/c1.json parent=runs/p1.json

Runs are grouped by workload, seed and tracing. Within a group the i-th
parent run pairs with the i-th change run. For every metric the entry holds
each side's values, median and quartiles, the number of pairs, how many of
them the change won (ties count for neither side, the direction comes from
``BENCHMARK.json``) and the change/parent ratio of the medians. Traced runs
carry the per-layer figures, ``estimator.achieved_mflops`` and
``baseline.achieved_mflops`` among them. Machine metadata comes from the
runs, which must all agree on it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Run metadata that names the machine and toolchain, not the run.
MACHINE_KEYS = ("python", "numpy", "blas", "blas_threads", "nproc", "machine")
SIDES = ("parent", "change")


def _directions() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def _quartiles(values: list) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "values": values}


def _group_key(result: dict) -> str:
    meta = result["meta"]
    trace = int("estimator.achieved_mflops" in result["metrics"])
    return f"{meta['workload']}/seed{meta['seed']}/trace{trace}"


def _summarize(runs: dict, better: dict) -> dict:
    pairs = min(len(runs["parent"]), len(runs["change"]))
    if pairs == 0:
        raise SystemExit("error: a group has runs on one side only")
    metrics = {}
    for name, entry in runs["parent"][0]["metrics"].items():
        per_side = {
            side: [r["metrics"][name]["value"] for r in runs[side][:pairs]]
            for side in SIDES
        }
        sign = 1.0 if better.get(name, "lower") == "higher" else -1.0
        wins = sum(
            sign * (c - p) > 0 for p, c in zip(per_side["parent"], per_side["change"])
        )
        parent, change = (_quartiles(per_side[side]) for side in SIDES)
        metrics[name] = {
            "unit": entry["unit"],
            "better": better.get(name),
            "parent": parent,
            "change": change,
            "wins": wins,
            "ratio": change["median"] / parent["median"] if parent["median"] else None,
        }
    return {
        "pairs": pairs,
        "correct": all(r["correct"] for side in SIDES for r in runs[side][:pairs]),
        "failed": {side: [r["failed"] for r in runs[side][:pairs]] for side in SIDES},
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path)
    parser.add_argument("--parent-commit", required=True)
    parser.add_argument("--change-commit", required=True)
    parser.add_argument("runs", nargs="+", metavar="parent=PATH|change=PATH")
    args = parser.parse_args(argv)

    groups: dict = defaultdict(lambda: {side: [] for side in SIDES})
    machine = None
    for item in args.runs:
        side, _, path = item.partition("=")
        if side not in SIDES or not path:
            parser.error(f"expected parent=PATH or change=PATH, got {item!r}")
        result = json.loads(Path(path).read_text())
        meta = {key: result["meta"].get(key) for key in MACHINE_KEYS}
        if machine is None:
            machine = meta
        elif meta != machine:
            parser.error(f"{path}: run on another machine or toolchain: {meta}")
        groups[_group_key(result)][side].append(result)

    better = _directions()
    record = {
        "parent_commit": args.parent_commit,
        "change_commit": args.change_commit,
        "machine": machine,
        "groups": {key: _summarize(groups[key], better) for key in sorted(groups)},
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
