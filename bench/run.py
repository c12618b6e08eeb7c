"""Benchmark of the gwhurwitz command line, one workload per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each operation is one subcommand
run as its own process (`python -m gwhurwitz.cli` with PYTHONPATH=src), one
after another (closed loop, one client).  A run does the workload's set-up,
then repeats whole rounds of its operations while another round fits in S
seconds, checks every output against bench/checks.py, and prints one JSON
object as its last line.

--trace 0 reports the end-to-end metrics: medians over rounds or set-ups,
with times scaled to the reference machine speed (see speed_probe).
--trace 1 does one traced set-up, then alternates an untraced and a traced
round; it reports the per-layer metrics of bench/layers.py from the traced
set-up and the first traced round, and the traced minus untraced round time.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"setup_s": "s", "total_s": "s", "cmd_p50_s": "s", "peak_rss_mb": "MB"}

# Seconds the speed probe takes on the reference machine (2 cores, Python
# 3.11.7, in its fast state).  A command's reported time is its wall time
# times REFERENCE_PROBE_S over the median probe taken within PROBE_WINDOW_S
# seconds of the command.
REFERENCE_PROBE_S = 0.0075
PROBE_WINDOW_S = 3.0


def speed_probe() -> float:
    """Time a fixed pure-Python loop: the machine's current speed.

    The host this benchmark was tuned on switches between a fast and a slow
    state for seconds to minutes at a time (identical commands differ by
    40%).  Command times and this probe slow down together, so scaling each
    command by the probes taken around it removes most of that drift, while
    every change in the program's own speed shows in full."""
    start = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    return time.perf_counter() - start


@dataclass
class Result:
    code: int
    out: bytes
    wall_s: float
    rss_mb: float
    span_file: str | None
    start: float  # time.monotonic() at start and end
    end: float


class Runner:
    """Starts one command at a time inside a private work directory.

    Commands are spawned by bench/launcher.py, so that this process's own
    memory never shows in a command's peak RSS."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        self.serial = 0
        self.home = work / "home"
        self.home.mkdir()
        self.not_a_dir = work / "cache_is_a_file"
        self.not_a_dir.write_text("a regular file, not a directory\n")
        self.cache = self.new_cache()
        self.probe_at = []  # time.monotonic() of each speed_probe(), one per command
        self.probes = []
        self.launcher = subprocess.Popen(
            [sys.executable, "-S", str(HERE / "launcher.py")], cwd=root,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def scaled_s(self, result: "Result") -> float:
        """The command's wall time at the reference machine speed."""
        lo = bisect.bisect_left(self.probe_at, result.start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.probe_at, result.end + PROBE_WINDOW_S)
        return result.wall_s * REFERENCE_PROBE_S / statistics.median(self.probes[lo:hi])

    def close(self) -> None:
        self.launcher.stdin.close()
        self.launcher.wait(timeout=60)

    def new_cache(self) -> Path:
        self.serial += 1
        path = self.work / f"cache{self.serial}"
        path.mkdir()
        return path

    def run(self, argv, traced=False, cache_is_file=False) -> Result:
        self.serial += 1
        base = self.work / f"op{self.serial}"
        env = dict(os.environ)
        env.update(HOME=str(self.home), PYTHONPATH=str(self.root / "src"),
                   GWHURWITZ_CACHE_DIR=str(self.not_a_dir if cache_is_file else self.cache))
        span_file = None
        if traced:
            span_file = f"{base}.spans"
            cmd = [sys.executable, str(HERE / "trace_shim.py"), span_file, *argv]
        else:
            cmd = [sys.executable, "-m", "gwhurwitz.cli", *argv]
        self.probe_at.append(time.monotonic())
        self.probes.append(speed_probe())
        out_path, err_path = f"{base}.out", f"{base}.err"
        began = time.monotonic()
        self.launcher.stdin.write(json.dumps([cmd, env, out_path, err_path]) + "\n")
        self.launcher.stdin.flush()
        code, wall, maxrss_kib = json.loads(self.launcher.stdout.readline())
        ended = time.monotonic()
        with open(out_path, "rb") as handle:
            output = handle.read()
        return Result(code, output, wall, maxrss_kib / 1024, span_file, began, ended)


def holds(check, *args) -> bool:
    """A check that raises on a malformed answer counts as failed."""
    try:
        return bool(check(*args))
    except Exception:  # noqa: BLE001 - any malformed output is a wrong answer
        return False


class Verdicts:
    """Checks outputs, once per distinct (operation, output) pair."""

    def __init__(self):
        self.seen = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = []

    def judge(self, op, result: Result) -> bool:
        if result.code != 0:
            return False
        key = (tuple(op.argv), op.cache_is_file, hashlib.sha256(result.out).digest())
        if key not in self.seen:
            self.seen[key] = holds(op.check, result.out)
        return self.seen[key]

    def round(self, plan, results) -> None:
        ok = [self.judge(op, r) for op, r in zip(plan.ops, results)]
        for indices, check in plan.groups:
            if all(ok[i] for i in indices):
                outs = [results[i].out for i in indices]
                key = ("group", hashlib.sha256(b"".join(outs)).digest())
                if key not in self.seen:
                    self.seen[key] = holds(check, outs)
                if not self.seen[key]:
                    for i in indices:
                        ok[i] = False
        for op, r, good in zip(plan.ops, results, ok):
            self.attempted += 1
            if not good:
                self.failed += 1
                if r.code == 0:
                    self.wrong.append(" ".join(op.argv))


def set_up(runner: Runner, plan, traced: bool):
    """One set-up: a fresh cache, one --help process, the cold `char` fills.

    Returns (results, cold outputs by degree)."""
    runner.cache = runner.new_cache()
    results = [runner.run(["--help"], traced)]
    cold = {}
    for d in plan.fill_degrees:
        results.append(runner.run(["char", "--d", str(d)], traced))
        cold[d] = results[-1].out
    return results, cold


def check_cold(plan, results, cold, verdicts: Verdicts) -> bool:
    """Set-up commands must succeed and every cold table must be sound."""
    if any(r.code != 0 for r in results):
        return False
    for d, out in cold.items():
        key = ("cold", d, hashlib.sha256(out).digest())
        if key not in verdicts.seen:
            verdicts.seen[key] = holds(checks.check_char, out, d)
        if not verdicts.seen[key]:
            return False
        if plan.reference.setdefault(d, out) != out:
            return False
    return True


def run_round(runner: Runner, plan, traced: bool):
    return [runner.run(op.argv, traced, op.cache_is_file) for op in plan.ops]


def judge(verdicts: Verdicts, plan, results) -> int:
    """Judge a round, then drop its outputs; returns the bytes they held."""
    verdicts.round(plan, results)
    size = sum(len(r.out) for r in results)
    for r in results:
        r.out = b""
    return size


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


def rounds_within(seconds: float):
    """Yield once per round while another round of the last one's length
    still fits in `seconds`; always at least once."""
    start = began = time.monotonic()
    yield
    while True:
        now = time.monotonic()
        if (now - start) + (now - began) > seconds:
            return
        began = now
        yield


def measure(runner: Runner, plan, seconds: float, verdicts: Verdicts):
    setups, setup_ok = [], True
    for _ in range(plan.setup_reps):
        results, cold = set_up(runner, plan, traced=False)
        setups.append(results)
        setup_ok = check_cold(plan, results, cold, verdicts) and setup_ok
    rounds = []
    for _ in rounds_within(seconds):
        results = run_round(runner, plan, traced=False)
        judge(verdicts, plan, results)
        rounds.append(results)
    timed = [r for results in rounds for r in results]
    metrics = {"setup_s": statistics.median(sum(map(runner.scaled_s, s)) for s in setups),
               "total_s": statistics.median(sum(map(runner.scaled_s, r)) for r in rounds),
               "cmd_p50_s": statistics.median(map(runner.scaled_s, timed)),
               "peak_rss_mb": statistics.median(max(r.rss_mb for r in rs) for rs in rounds)}
    wall = {"setup_s": statistics.median(sum(r.wall_s for r in s) for s in setups),
            "total_s": statistics.median(sum(r.wall_s for r in rs) for rs in rounds),
            "cmd_p50_s": statistics.median(r.wall_s for r in timed)}
    info = [f"{len(setups)} set-ups, {len(rounds)} rounds, {len(timed)} commands"]
    info += [f"unscaled wall {k} = {v:.4f} s" for k, v in wall.items()]
    info += [f"median speed probe: {statistics.median(runner.probes) * 1000:.3f} ms "
             f"(reference {REFERENCE_PROBE_S * 1000} ms)"]
    by_kind = {}
    for r, op in zip(timed, plan.ops * len(rounds)):
        by_kind.setdefault(op.kind, []).append(r.wall_s)
    info += [f"unscaled median {kind} command: {statistics.median(t):.4f} s over {len(t)}"
             for kind, t in sorted(by_kind.items())]
    return setup_ok, {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}, info


def measure_traced(runner: Runner, plan, seconds: float, verdicts: Verdicts):
    setup_results, cold = set_up(runner, plan, traced=True)
    setup_ok = check_cold(plan, setup_results, cold, verdicts)
    cache_bytes = dir_bytes(runner.cache)
    emit_bytes = sum(len(r.out) for r in setup_results)
    plain, traced, first = [], [], None
    for _ in rounds_within(seconds):
        for is_traced in (False, True):
            results = run_round(runner, plan, is_traced)
            size = judge(verdicts, plan, results)
            (traced if is_traced else plain).append(sum(r.wall_s for r in results))
            if is_traced and first is None:
                first = results
                emit_bytes += size
    totals = layers.Totals()
    for r in setup_results + first:
        if os.path.exists(r.span_file):  # absent only if the shim itself died
            totals.add(r.span_file)
    overhead = statistics.median(traced) - statistics.median(plain)
    metrics = totals.metrics(cache_bytes, emit_bytes, overhead)
    info = [f"1 traced set-up, {len(plain)} untraced and {len(traced)} traced rounds"]
    return setup_ok, metrics, info


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "gwhurwitz" / "cli.py").is_file():
        print("bench: run from the root of a gwhurwitz source checkout "
              "(src/gwhurwitz/cli.py not found)", file=sys.stderr)
        return 2
    plan = workloads.build(args.workload, args.seed)
    scratch = root / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    runner = None
    try:
        runner = Runner(root, work)
        warm = runner.run(["--help"])  # byte-compiles the package once, untimed
        if warm.code != 0:
            print("bench: `gwhurwitz --help` failed", file=sys.stderr)
            return 2
        verdicts = Verdicts()
        measure_fn = measure_traced if args.trace else measure
        setup_ok, metrics, info = measure_fn(runner, plan, args.seconds, verdicts)
    finally:
        if runner is not None:
            runner.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run's directory is still there

    correct = setup_ok and not verdicts.wrong
    print(f"# {args.workload} seed={args.seed}: {info[0]}; "
          f"{verdicts.failed}/{verdicts.attempted} operations failed")
    for line in info[1:]:
        print(f"# {line}")
    for cmd in sorted(set(verdicts.wrong)):
        print(f"# wrong answer: gwhurwitz {cmd}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": verdicts.attempted,
                      "failed": verdicts.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
