"""Report which package modules each subcommand loads, and what compiling them costs.

    python3 tools/load_report.py [--src DIR] [NAME ...]

For each subcommand of `COMMANDS` (or only the NAMEs given), one fresh
interpreter with PYTHONDONTWRITEBYTECODE=1 and PYTHONPATH=DIR (default: the
`src` next to this file) runs `gwhurwitz.cli.main` on its arguments, its
document discarded.  It then reports every `gwhurwitz` module it loaded:
the module's source lines, and the ms that `compile()` takes on its source,
the best of `REPEATS` compiles in that process.  With no bytecode stored,
each command process compiles these modules again, so their sum sizes that
part of its start-up.  The report is one JSON document on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# name -> argv: one light request of each route of each subcommand
COMMANDS = {
    "help": ["--help"],
    "char": ["char", "--d", "8"],
    "hur": ["hur", "--target-genus", "0", "--d", "4", "--profiles", "(2,1,1);(3,1);(4)"],
    "hur_connected": ["hur", "--target-genus", "0", "--d", "4", "--profiles",
                      "(2,1,1);(3,1);(4)", "--connected"],
    "hur_oracle": ["hur", "--target-genus", "1", "--d", "4", "--profiles", "(2,2)", "--oracle"],
    "cycle": ["cycle", "--d", "6", "--k", "4"],
    "ifun": ["ifun", "--g", "0", "--eta", "(1)", "--k", "2"],
    "ifun_empty": ["ifun", "--g", "0", "--eta", "(2,1)", "--empty"],
    "gw": ["gw", "--target-genus", "1", "--d", "3", "--ks", "1,2"],
    "elsv": ["elsv", "--mu", "(2,1)", "--g", "1"],
    "verify": ["verify", "--d-max", "2", "--k-max", "2"],
}

REPEATS = 5

# run in the child: the command, then one entry per loaded package module
_CHILD = """\
import contextlib, io, json, sys, time
from gwhurwitz.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(json.loads(sys.argv[1]))
modules = {}
for name in sorted(m for m in sys.modules if m.split(".")[0] == "gwhurwitz"):
    path = sys.modules[name].__file__
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    best = None
    for _ in range(int(sys.argv[2])):
        start = time.perf_counter()
        compile(source, path, "exec")
        spent = time.perf_counter() - start
        best = spent if best is None else min(best, spent)
    modules[name] = {"lines": source.count("\\n"), "compile_ms": round(best * 1e3, 3)}
print(json.dumps({"exit": code, "modules": modules}))
"""


def report(name: str, src: Path) -> dict:
    """Run one subcommand in a fresh process and return what it loaded."""
    argv = COMMANDS[name]
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(argv), str(REPEATS)],
                          env=env, capture_output=True, text=True, timeout=300)
    if done.returncode:
        raise RuntimeError(f"{name}: {done.stderr.strip()}")
    got = json.loads(done.stdout)
    modules = got["modules"]
    return {"argv": argv, "exit": got["exit"], "modules": modules,
            "lines": sum(m["lines"] for m in modules.values()),
            "compile_ms": round(sum(m["compile_ms"] for m in modules.values()), 3)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help=f"subcommands to report, of: {', '.join(COMMANDS)}")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the directory that holds the gwhurwitz package")
    args = parser.parse_args(argv)
    if unknown := [name for name in args.names if name not in COMMANDS]:
        parser.error(f"unknown NAME {', '.join(unknown)}: choose from {', '.join(COMMANDS)}")
    names = args.names or list(COMMANDS)
    doc = {"python": sys.version.split()[0], "repeats": REPEATS,
           "commands": {name: report(name, args.src) for name in names}}
    print(json.dumps(doc, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
