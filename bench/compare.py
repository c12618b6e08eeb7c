"""Collect sets of benchmark runs and judge them against BENCHMARK.json.

    python3 bench/compare.py collect --out A.jsonl [--workload W ...] [--seeds 1-10]
    python3 bench/compare.py judge A.jsonl [B.jsonl]

`collect` runs the benchmark command of BENCHMARK.json once per workload and
seed (untraced, run length from BENCHMARK.json) and appends one JSON line per
run.  `judge` prints, per workload and end-to-end metric, the median and the
quartile spread as a share of the median; with a second set it also prints
how far B's median moved from A's.  It exits 1 when a spread (set-up time
excepted) or a worsening exceeds the metric's bound, when B's share of
failed operations differs from A's, or when a run was not correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def collect(args) -> int:
    names = args.workload or [w["name"] for w in SPEC["workloads"]]
    with open(args.out, "a", encoding="utf-8") as sink:
        for name in names:
            for seed in _seeds(args.seeds):
                cmd = [*SPEC["command"], "--workload", name, "--seed", str(seed),
                       "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
                proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
                if proc.returncode != 0:
                    print(proc.stderr, file=sys.stderr)
                    return 1
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                sink.write(json.dumps({"workload": name, "seed": seed, "result": result}) + "\n")
                sink.flush()
                print(name, seed, {k: round(v["value"], 4)
                                   for k, v in result["metrics"].items()}, flush=True)
    return 0


def _load(path: str) -> dict:
    runs = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            row = json.loads(line)
            runs.setdefault(row["workload"], []).append(row["result"])
    return runs


def judge(args) -> int:
    sets = [_load(p) for p in args.sets]
    ok = True
    for workload in sets[0]:
        runs = [s.get(workload, []) for s in sets]
        if any(not r for r in runs):
            print(f"{workload}: missing from one set")
            ok = False
            continue
        shares = []
        for r in runs:
            if not all(x["correct"] for x in r):
                print(f"{workload}: a run reported correct=false")
                ok = False
            shares.append({x["failed"] / x["attempted"] for x in r})
        print(f"{workload}: failed share {' vs '.join(str(sorted(s)) for s in shares)}")
        if any(len(s) != 1 for s in shares) or len({min(s) for s in shares}) != 1:
            ok = False
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            meds = []
            for label, r in zip("AB", runs):
                values = [x["metrics"][name]["value"] for x in r]
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
                meds.append(med)
                flag = "" if name == "setup_s" or spread <= bound else "  SPREAD > BOUND"
                ok = ok and not flag
                print(f"  {label} {name:12s} n={len(values)} median={med:.4f} "
                      f"spread={spread:.4f} (bound {bound}, a third {bound / 3:.4f}){flag}")
            if len(meds) == 2:
                change = (meds[1] - meds[0]) / meds[0]
                worse = change if metric["better"] == "lower" else -change
                flag = "  WORSE BY MORE THAN BOUND" if worse > bound else ""
                ok = ok and not flag
                print(f"    B vs A {name:12s} {change:+.4f}{flag}")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="action", required=True)
    p = sub.add_parser("collect")
    p.add_argument("--out", required=True)
    p.add_argument("--workload", action="append")
    p.add_argument("--seeds", default="1-10")
    p.set_defaults(func=collect)
    p = sub.add_parser("judge")
    p.add_argument("sets", nargs="+", help="one or two JSON-lines files from collect")
    p.set_defaults(func=judge)
    args = parser.parse_args()
    if args.action == "judge" and len(args.sets) > 2:
        parser.error("judge takes one or two sets")
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
