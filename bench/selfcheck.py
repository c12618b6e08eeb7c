"""Show that every answer check rejects a corrupted answer.

    python3 bench/selfcheck.py        (from the root of a source checkout)

Runs one small instance of each operation kind the workloads use, confirms
that the genuine outputs pass, then changes one coefficient in each output in
turn and confirms that the round then reports that operation as failed.
Exits 1 if a genuine answer fails or a corrupted one passes.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import checks as C
import run
from workloads import Op, Plan


def small_plan() -> Plan:
    simple = (2,) + (1,) * 8
    reference = {}
    ops = [
        Op("char.warm", ["char", "--d", "8"], lambda o: o == reference[8]),
        Op("cycle", ["cycle", "--d", "5", "--k", "4"], lambda o: C.check_cycle(o, 5, 4)),
        Op("verify", ["verify", "--d-max", "2", "--k-max", "3"],
           lambda o: C.check_verify(o, 2, 3)),
        Op("elsv", ["elsv", "--mu", "(2,1)", "--g", "0"], lambda o: C.check_elsv(o, (2, 1), 0)),
        Op("elsv", ["elsv", "--mu", "(3)", "--g", "1"], lambda o: C.check_elsv(o, (3,), 1)),
        Op("hur.connected", ["hur", "--target-genus", "0", "--d", "5", "--connected",
                             "--profiles", ";".join(["(1,1,1,1,1)"] + ["(2,1,1,1)"] * 8)],
           lambda o: C.check_hur(o, C.hurwitz_genus0((1,) * 5))),
        Op("hur.simple", ["hur", "--target-genus", "1", "--d", "10",
                          "--profiles", ";".join([C.fmt_partition(simple)] * 4)],
           lambda o: C.check_hur(o, C.simple_branching_count(1, 10, 4))),
        Op("hur.oracle", ["hur", "--target-genus", "1", "--d", "4", "--oracle",
                          "--profiles", "(2,2)"],
           lambda o: C.check_hur(o, C.profile_count(1, 4, [(2, 2)]))),
        Op("gw", ["gw", "--target-genus", "0", "--d", "5", "--ks", "4,4"],
           lambda o: C.check_gw(o, 0, 5, [4, 4])),
    ]
    points = C.wallcrossing_points(2, 4)
    first = len(ops)
    for g, eta in points:
        ops.append(Op("ifun", ["ifun", "--g", str(g), "--eta", C.fmt_partition(eta),
                               "--k", "4"],
                      lambda o, g=g, eta=eta: C.ifun_value(o, g, eta, 4) is not None))
    group = (list(range(first, len(ops))), lambda outs: C.wallcrossing_assembles(
        2, 4, {p: C.ifun_value(o, p[0], p[1], 4) for p, o in zip(points, outs)}))
    return Plan(ops, [group], fill_degrees=[8], reference=reference)


ANSWER_FIELD = {"hur": "value", "ifun": "value", "gw": "total", "elsv": "lhs"}


def corrupt(out: bytes) -> bytes:
    """Add 1 to one coefficient in the answer part of a document."""
    doc = json.loads(out)
    command = doc.get("command", "verify")
    if command == "char":
        doc["result"]["matrix"][1][2] += 1
    else:
        if command == "verify":
            target = doc["rows"][-1]["value"]
        else:
            target = doc["result"]
        key = ANSWER_FIELD.get(command) or next(iter(target))
        target[key] = str(Fraction(target[key]) + 1)
    return (json.dumps(doc, indent=2) + "\n").encode()


def main() -> int:
    root = Path.cwd()
    scratch = root / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=scratch))
    ok, runner = True, None
    try:
        runner = run.Runner(root, work)
        plan = small_plan()
        setup, cold = run.set_up(runner, plan, traced=False)
        genuine = run.Verdicts()
        ok = run.check_cold(plan, setup, cold, genuine)
        bad_table = corrupt(cold[8])
        rejects = not run.holds(C.check_char, bad_table, 8)
        print(f"{'pass' if ok else 'FAIL'}: genuine char --d 8 accepted")
        print(f"{'pass' if rejects else 'FAIL'}: corrupted char --d 8 rejected")
        ok = ok and rejects
        results = run.run_round(runner, plan, traced=False)
        genuine.round(plan, results)
        print(f"{'pass' if genuine.failed == 0 else 'FAIL'}: "
              f"{genuine.attempted} genuine answers accepted")
        ok = ok and genuine.failed == 0
        group_first = plan.groups[0][0][0]
        for i, op in enumerate(plan.ops[:group_first + 1]):
            tampered = list(results)
            tampered[i] = run.Result(0, corrupt(results[i].out), 0.0, 0.0, None, 0.0, 0.0)
            verdicts = run.Verdicts()
            verdicts.round(plan, tampered)
            caught = " ".join(op.argv) in verdicts.wrong
            ok = ok and caught
            print(f"{'pass' if caught else 'FAIL'}: corrupted {op.kind} "
                  f"({' '.join(op.argv)[:60]}) counted as failed")
    finally:
        if runner is not None:
            runner.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
