"""tools/load_report.py: the modules a subcommand's process loads and their compile cost."""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_reports_help_and_ifun():
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "load_report.py"), "help", "ifun"],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    doc = json.loads(done.stdout)
    commands = doc["commands"]
    assert list(commands) == ["help", "ifun"]
    assert commands["help"]["argv"] == ["--help"]
    loaded = {name: sorted(report["modules"]) for name, report in commands.items()}
    package = ["gwhurwitz", "gwhurwitz.cli", "gwhurwitz.partitions"]
    assert loaded["help"] == sorted(package + ["gwhurwitz.helptext"])
    assert loaded["ifun"] == sorted(package + ["gwhurwitz.fock", "gwhurwitz.icoeff",
                                               "gwhurwitz.qseries"])
    for report in commands.values():
        assert report["exit"] == 0
        for name, module in report["modules"].items():
            path = ROOT / "src" / pathlib.Path(*name.split("."))
            source = path / "__init__.py" if path.is_dir() else path.with_suffix(".py")
            assert module["lines"] == source.read_text(encoding="utf-8").count("\n"), name
            assert module["compile_ms"] > 0, name
        assert report["lines"] == sum(m["lines"] for m in report["modules"].values())
        assert report["compile_ms"] > 0


def test_refuses_an_unknown_name():
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "load_report.py"), "nope"],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 2 and done.stdout == ""
    assert "unknown NAME nope" in done.stderr
