"""Turn benchmark runs of a parent and a change into one BENCH_<pr>.json.

    python3 tools/bench_record.py --pr N --parent A.jsonl --change B.jsonl \
        [--note TEXT] [--out BENCH_N.json]

A.jsonl and B.jsonl hold one JSON line per `bench/run.py` run, as
`bench/compare.py collect` writes them: {"workload", "seed", "result"},
where "result" is the last line that `bench/run.py` prints.  Collect the two
sides from two checkouts with the same seeds, so that each seed is a pair.

For each workload and each metric the record keeps, per side, the median
and the quartiles over the runs, and the number of pairs in which the change
is better.  Keys are sorted, so a record is byte-identical for the same runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
BETTER = {m["name"]: m["better"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def load(path: str) -> dict:
    """workload -> {seed: result}."""
    runs: dict = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                row = json.loads(line)
                runs.setdefault(row["workload"], {})[row["seed"]] = row["result"]
    return runs


def summary(values: list) -> dict:
    out = {"median": statistics.median(values), "runs": len(values)}
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out["quartiles"] = [q1, q3]
    return out


def record(pr: int, parent: dict, change: dict, note: str | None = None) -> dict:
    workloads = {}
    for name in sorted(set(parent) & set(change)):
        sides = {"parent": parent[name], "change": change[name]}
        pairs = sorted(set(sides["parent"]) & set(sides["change"]))
        metrics = {}
        for metric, unit in sorted({(m, v["unit"]) for runs in sides.values()
                                    for r in runs.values() for m, v in r["metrics"].items()}):
            entry = {"unit": unit, "better": BETTER.get(metric, "lower")}
            for side, runs in sides.items():
                entry[side] = summary([r["metrics"][metric]["value"] for r in runs.values()])
            sign = 1 if entry["better"] == "lower" else -1
            wins = sum(sign * sides["change"][s]["metrics"][metric]["value"]
                       < sign * sides["parent"][s]["metrics"][metric]["value"] for s in pairs)
            entry["change_better_in_pairs"] = f"{wins}/{len(pairs)}"
            metrics[metric] = entry
        workloads[name] = {
            "seeds": {side: sorted(runs) for side, runs in sides.items()},
            "correct": all(r["correct"] for runs in sides.values() for r in runs.values()),
            "failed": {side: sum(r["failed"] for r in runs.values())
                       for side, runs in sides.items()},
            "metrics": metrics,
        }
    doc = {"pr": pr, "workloads": workloads}
    if note:
        doc["note"] = note
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--parent", required=True, help="JSON lines of the parent's runs")
    parser.add_argument("--change", required=True, help="JSON lines of the change's runs")
    parser.add_argument("--note", help="free text kept in the record, e.g. the machine")
    parser.add_argument("--out", help="default: BENCH_<pr>.json in the current directory")
    args = parser.parse_args(argv)
    doc = record(args.pr, load(args.parent), load(args.change), args.note)
    if not doc["workloads"]:
        print("bench_record: no workload is in both sets", file=sys.stderr)
        return 1
    out = Path(args.out or f"BENCH_{args.pr}.json")
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
