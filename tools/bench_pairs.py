"""Collect paired benchmark runs of two trees into one ``BENCH_<pr>.json``.

Each tree is a checkout that ran ``python3 perfbench/run.py --workload W
--seed N --seconds S --trace 0`` from its root, once per seed, which leaves
a record ``.perfbench_out/W-seedN-trace0.json``. A parent and a change
record of the same workload and seed form one pair. For every workload and
every end-to-end metric of ``BENCHMARK.json`` the output gives each side's
median, quartiles and per-seed values, and how many pairs the change won;
per workload it gives each side's failed and attempted requests and which
side of each pair ran first (the earlier record). Per side it gives the
bytecode regime: ``PYTHONDONTWRITEBYTECODE`` as this tool sees it, so run it
from the shell that ran the benchmark, and whether the tree holds a
``src/quatstat/__pycache__`` directory after its runs. With the variable
set, no cache is written and every ``quatstat`` subprocess compiles the
package again. Run from the repository root::

    python3 tools/bench_pairs.py --parent ../parent --change . --pr 6

Alternate which tree runs first from one seed to the next, so that a drift
of the host does not favour one side.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
RECORD = re.compile(r"(?P<workload>.+)-seed(?P<seed>\d+)-trace0\.json")


def read_records(tree: Path) -> dict[tuple[str, int], tuple[dict, float]]:
    """(workload, seed) -> (record, modification time) of a tree's untraced runs."""
    out = {}
    for path in sorted((tree / ".perfbench_out").glob("*-trace0.json")):
        match = RECORD.fullmatch(path.name)
        if match:
            key = (match["workload"], int(match["seed"]))
            out[key] = (json.loads(path.read_text()), path.stat().st_mtime)
    return out


def summary(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of one side's values."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def environment(records: list[dict]) -> dict:
    """Fields every record agrees on, and under ``varies`` the names of the rest."""
    env: dict = {"varies": []}
    for key in sorted({k for r in records for k in r["environment"]}):
        values = [r["environment"].get(key) for r in records]
        if all(value == values[0] for value in values):
            env[key] = values[0]
        else:
            env["varies"].append(key)
    return env


def bytecode_regime(tree: Path) -> dict:
    """The variable that stops Python writing bytecode, and whether ``tree``
    holds the package's bytecode cache."""
    return {"PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
            "pycache": (tree / "src" / "quatstat" / "__pycache__").is_dir()}


def collect(parent: Path, change: Path, pr: int, metrics: list[dict],
            labels: tuple[str, str] = ("parent", "change")) -> dict:
    sides = {"parent": read_records(parent), "change": read_records(change)}
    keys = sorted(set(sides["parent"]) & set(sides["change"]))
    if not keys:
        raise ValueError(f"no paired records under {parent} and {change}")
    workloads: dict[str, dict] = {}
    for name in sorted({w for w, _ in keys}):
        seeds = [s for w, s in keys if w == name]
        recs = {side: [sides[side][(name, s)][0] for s in seeds] for side in sides}
        entry = {
            "pairs": len(seeds),
            "seeds": seeds,
            "ran_first": {
                str(s): min(sides, key=lambda side: sides[side][(name, s)][1]) for s in seeds
            },
            "failed": {side: sum(r["result"]["failed"] for r in recs[side]) for side in sides},
            "attempted": {side: sum(r["result"]["attempted"] for r in recs[side])
                          for side in sides},
            "metrics": {},
        }
        for metric in metrics:
            values = {side: [r["result"]["metrics"][metric["name"]]["value"]
                             for r in recs[side]] for side in sides}
            lower = metric["better"] == "lower"
            won = sum((c < p) if lower else (c > p)
                      for p, c in zip(values["parent"], values["change"]))
            stats = {side: {**summary(values[side]),
                            "per_seed": dict(zip(map(str, seeds), values[side]))}
                     for side in sides}
            entry["metrics"][metric["name"]] = {
                "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
                **stats,
                "median_change": stats["change"]["median"] / stats["parent"]["median"] - 1.0,
                "pairs_won": won,
            }
        workloads[name] = entry
    every = [rec for side in sides.values() for rec, _ in side.values()]
    return {
        "pr": pr,
        "parent": labels[0],
        "change": labels[1],
        "environment": environment(every),
        "bytecode": {"parent": bytecode_regime(parent), "change": bytecode_regime(change)},
        "workloads": workloads,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="tree of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="tree of the change")
    parser.add_argument("--pr", type=int, required=True, help="number in BENCH_<pr>.json")
    parser.add_argument("--labels", nargs=2, default=("parent", "change"),
                        metavar=("PARENT", "CHANGE"), help="names of the two sides")
    args = parser.parse_args(argv)
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    try:
        result = collect(args.parent, args.change, args.pr, metrics, tuple(args.labels))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = Path(f"BENCH_{args.pr}.json")
    out.write_text(json.dumps(result, indent=1) + "\n")
    for name, entry in result["workloads"].items():
        print(f"{name}: {entry['pairs']} pairs, failed {entry['failed']}", file=sys.stderr)
        for metric, m in entry["metrics"].items():
            print(f"  {metric:16} parent {m['parent']['median']:.6g}  change "
                  f"{m['change']['median']:.6g}  ({m['median_change']:+.1%}, "
                  f"won {m['pairs_won']}/{entry['pairs']})", file=sys.stderr)
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
