"""The command line as a process, the way the console script and the
benchmark start it: `python -m gwhurwitz.cli` with `PYTHONPATH=src`."""

import gc
import json
import os
import pathlib
import subprocess
import sys

import pytest

from gwhurwitz.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent

COMMANDS = {
    "help": ["--help"],
    "hur": ["hur", "--target-genus", "0", "--d", "4", "--profiles", "(2,1,1);(3,1);(4)"],
    "hur_oracle": ["hur", "--target-genus", "1", "--d", "4", "--profiles", "(2,2)",
                   "--connected", "--oracle"],
    "char": ["char", "--d", "6"],
    "ifun": ["ifun", "--g", "0", "--eta", "(1)", "--k", "2"],
    "cycle": ["cycle", "--d", "4", "--k", "3"],
    "gw": ["gw", "--target-genus", "1", "--d", "3", "--ks", "1,2"],
    "elsv": ["elsv", "--mu", "(2,1)", "--g", "1"],
    "verify": ["verify", "--d-max", "3", "--k-max", "3"],
}


def _process_env(tmp_path):
    # a private HOME, and a fixed terminal width, which the help text no longer reads
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), HOME=str(tmp_path / "home"),
                COLUMNS="80")


def _run_process(argv, tmp_path):
    return subprocess.run([sys.executable, "-m", "gwhurwitz.cli", *argv],
                          env=_process_env(tmp_path), capture_output=True, timeout=120)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_process_stdout_is_main_stdout(name, tmp_path, monkeypatch, capsys):
    argv = COMMANDS[name]
    done = _run_process(argv, tmp_path)
    assert done.returncode == 0, done.stderr
    monkeypatch.setenv("COLUMNS", "80")
    assert main(argv) == 0
    assert done.stdout == capsys.readouterr().out.encode()


def test_process_out_file_is_main_stdout(tmp_path, capsys):
    # the process entry freezes the collector only after `main` has closed the file
    target = tmp_path / "doc.json"
    done = _run_process(["--out", str(target), *COMMANDS["char"]], tmp_path)
    assert (done.returncode, done.stdout, done.stderr) == (0, b"", b"")
    assert main(COMMANDS["char"]) == 0
    assert target.read_bytes() == capsys.readouterr().out.encode()


def test_process_usage_error_exits_2(tmp_path, capsys):
    argv = ["hur", "--d"]
    done = _run_process(argv, tmp_path)
    assert (done.returncode, done.stdout) == (2, b"")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("gwhurwitz: error: ")
    assert done.stderr == err.encode()


def test_main_leaves_the_collector_as_it_found_it(capsys):
    # only the process entry `run` freezes it
    before = gc.isenabled(), gc.get_freeze_count()
    for argv in (COMMANDS["cycle"], COMMANDS["gw"], ["hur", "--d"]):
        main(argv)
        assert (gc.isenabled(), gc.get_freeze_count()) == before
    capsys.readouterr()


def test_console_script_is_the_process_entry():
    assert 'gwhurwitz = "gwhurwitz.cli:run"' in (ROOT / "pyproject.toml").read_text()


def test_char_writes_no_file(tmp_path):
    # `char` keeps nothing on disk: neither under HOME, nor in the working
    # directory, nor where the GWHURWITZ_CACHE_DIR of older releases points
    home, work = tmp_path / "home", tmp_path / "work"
    home.mkdir()
    work.mkdir()
    env = dict(_process_env(tmp_path), GWHURWITZ_CACHE_DIR=str(work / "cache"))
    done = subprocess.run([sys.executable, "-m", "gwhurwitz.cli", *COMMANDS["char"]],
                          env=env, cwd=work, capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["result"]["d"] == 6
    assert [p for p in tmp_path.rglob("*") if not p.is_dir()] == []
    assert sorted(tmp_path.rglob("*")) == [home, work]


def test_light_commands_never_load_the_wedge_layer(tmp_path):
    argvs = [COMMANDS[n] for n in ("help", "hur", "hur_oracle", "char")]
    argvs.append(COMMANDS["hur"] + ["--connected"])
    script = ("import contextlib, io, sys\n"
              "from gwhurwitz.cli import main\n"
              f"for argv in {argvs!r}:\n"
              "    with contextlib.redirect_stdout(io.StringIO()):\n"
              "        assert main(argv) == 0, argv\n"
              "print(sorted(m for m in sys.modules if m.startswith('gwhurwitz.')))\n"
              "print('dataclasses' in sys.modules)\n"
              "print(sorted({'argparse', 'gettext'} & set(sys.modules)))\n")
    done = subprocess.run([sys.executable, "-c", script], env=_process_env(tmp_path),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    loaded, dataclasses_loaded, parser_modules = done.stdout.strip().splitlines()
    # the command line is read from one table: argparse and its gettext cost about 5 ms
    assert parser_modules == "[]"
    assert "gwhurwitz.cli" in loaded
    assert "gwhurwitz.fock" not in loaded and "gwhurwitz.gwh" not in loaded
    # the counting layers print their scalars with str: the series core stays unloaded
    assert "gwhurwitz.qseries" not in loaded
    # dataclasses pulls in inspect, ast, dis and tokenize: about 10 ms per process
    assert dataclasses_loaded == "False"


def test_character_sums_never_build_a_full_table(tmp_path):
    # `hur` and `gw` read only the character columns their sums use
    argvs = [COMMANDS["hur"], COMMANDS["hur"] + ["--connected"],
             ["hur", "--target-genus", "1", "--d", "8", "--profiles", "(2,1,1,1,1,1,1)"],
             ["gw", "--target-genus", "1", "--d", "6", "--ks", "2,3"]]
    script = ("import contextlib, io\n"
              "from gwhurwitz import characters\n"
              "from gwhurwitz.cli import main\n"
              "def no_table(degree):\n"
              "    raise AssertionError(f'full table of degree {degree} built')\n"
              "characters._build_table = no_table\n"
              f"for argv in {argvs!r}:\n"
              "    with contextlib.redirect_stdout(io.StringIO()):\n"
              "        assert main(argv) == 0, argv\n"
              "print('ok')\n")
    done = subprocess.run([sys.executable, "-c", script], env=_process_env(tmp_path),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"


def test_wall_crossing_commands_never_load_dataclasses(tmp_path):
    argvs = [COMMANDS["ifun"], ["cycle", "--d", "3", "--k", "2"],
             ["elsv", "--mu", "(2,1)", "--g", "0"], ["verify", "--d-max", "2", "--k-max", "2"]]
    script = ("import contextlib, io, sys\n"
              "from gwhurwitz.cli import main\n"
              f"for argv in {argvs!r}:\n"
              "    with contextlib.redirect_stdout(io.StringIO()):\n"
              "        assert main(argv) == 0, argv\n"
              "print('gwhurwitz.gwh' in sys.modules, 'dataclasses' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", script], env=_process_env(tmp_path),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True", "False"]


# each subcommand with exactly the package modules its route runs
MODULE_SETS = {
    # the help text is laid out by a module that no other command compiles
    "help": (COMMANDS["help"], ["cli", "helptext", "partitions"]),
    "char": (COMMANDS["char"], ["characters", "cli", "partitions"]),
    "hur": (COMMANDS["hur"], ["branch", "characters", "cli", "hurwitz", "partitions"]),
    "hur_connected": (COMMANDS["hur"] + ["--connected"],
                      ["branch", "characters", "cli", "hurwitz", "partitions"]),
    # the oracle, which checks the character sums, shares only their branch data
    "hur_oracle": (["hur", "--target-genus", "1", "--d", "4", "--profiles", "(2,2)", "--oracle"],
                   ["branch", "cli", "oracle", "partitions"]),
    "hur_oracle_connected": (COMMANDS["hur_oracle"], ["branch", "cli", "oracle", "partitions"]),
    # the closed-formula route loads neither the series core nor the wedge engine
    "cycle": (["cycle", "--d", "3", "--k", "2"], ["cli", "cycles", "partitions"]),
    # one coefficient compiles neither the Hodge series nor the wall-crossing route
    "ifun": (COMMANDS["ifun"], ["cli", "fock", "icoeff", "partitions", "qseries"]),
    "ifun_empty": (["ifun", "--g", "0", "--eta", "(2,1)", "--empty"],
                   ["cli", "fock", "gwh", "icoeff", "partitions", "qseries"]),
    "gw": (["gw", "--target-genus", "1", "--d", "2", "--ks", "1,1"],
           ["branch", "characters", "cli", "cycles", "hurwitz", "partitions"]),
    "elsv": (["elsv", "--mu", "(2,1)", "--g", "0"],
             ["branch", "characters", "cli", "fock", "gwh", "hurwitz", "icoeff", "partitions",
              "qseries"]),
    # every layer but the operator words, which no command runs
    "verify": (["verify", "--d-max", "2", "--k-max", "2"],
               ["branch", "characters", "cli", "cycles", "fock", "gwh", "hurwitz", "icoeff",
                "oracle", "partitions", "qseries"]),
}


@pytest.mark.parametrize("name", sorted(MODULE_SETS))
def test_each_command_loads_exactly_the_layers_it_runs(name, tmp_path):
    # one fresh process per command: modules loaded by one would hide another's
    argv, layers = MODULE_SETS[name]
    script = ("import contextlib, io, sys\n"
              "from gwhurwitz.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              f"    code = main({argv!r})\n"
              "print(code, 'argparse' in sys.modules,\n"
              "      sorted(m for m in sys.modules if m.startswith('gwhurwitz.')))\n")
    done = subprocess.run([sys.executable, "-c", script], env=_process_env(tmp_path),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == f"0 False {[f'gwhurwitz.{m}' for m in layers]}"


def test_no_command_loads_the_operator_words(tmp_path):
    # `words` and its correlator are library code: the routes build their
    # states with the `fock` operators directly
    script = ("import contextlib, io, sys\n"
              "from gwhurwitz.cli import main\n"
              f"for argv in {[argv for argv, _layers in MODULE_SETS.values()]!r}:\n"
              "    with contextlib.redirect_stdout(io.StringIO()):\n"
              "        assert main(argv) == 0, argv\n"
              "print(sorted(m for m in sys.modules if m.startswith('gwhurwitz.')))\n")
    done = subprocess.run([sys.executable, "-c", script], env=_process_env(tmp_path),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    # together they load every other module of the package
    others = sorted(f"gwhurwitz.{path.stem}" for path in (ROOT / "src" / "gwhurwitz").glob("*.py")
                    if path.stem not in ("__init__", "words"))
    assert done.stdout.strip() == str(others)


# the commands that build no rational: they load neither `fractions` nor the
# `decimal` it imports, while every other command of MODULE_SETS loads both
NO_RATIONALS = {"char", "help"}


@pytest.mark.parametrize("name", sorted(MODULE_SETS))
def test_only_rational_commands_load_fractions(name, tmp_path):
    argv = MODULE_SETS[name][0]
    script = ("import contextlib, io, sys\n"
              "from gwhurwitz.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              f"    code = main({argv!r})\n"
              "print(code, 'fractions' in sys.modules, 'decimal' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", script], env=_process_env(tmp_path),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    loaded = name not in NO_RATIONALS
    assert done.stdout.split() == ["0", str(loaded), str(loaded)]


def test_connected_cover_count_past_the_cover_limit_exits_2(tmp_path):
    # the count of `elsv --mu "(3,2,1)" --g 152`: 311 simple points, which
    # ran 4.4 s as a process before the limit
    from gwhurwitz.hurwitz import MAX_COVER_COST

    profiles = ";".join(["(3,2,1)"] + ["(2,1,1,1,1)"] * 311)
    done = subprocess.run([sys.executable, "-m", "gwhurwitz.cli", "hur", "--target-genus", "0",
                           "--d", "6", "--connected", "--profiles", profiles],
                          env=_process_env(tmp_path), capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 2
    assert done.stdout == ""
    assert f"MAX_COVER_COST = {MAX_COVER_COST}" in done.stderr


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB on Linux")
@pytest.mark.parametrize("genus, profiles, value", [
    # two simple points: one fixed, one closing; about 17 MB
    ("0", "(2,1,1,1,1,1);(2,1,1,1,1,1)", "1/240"),
    # 15 class representatives times 5040 commutators: about 18 MB
    ("1", "(3,2,2)", "381"),
], ids=["genus0", "genus1"])
def test_degree_seven_oracle_count_stays_small(tmp_path, genus, profiles, value):
    argv = ["hur", "--target-genus", genus, "--d", "7", "--oracle", "--oracle-bound", "7",
            "--profiles", profiles]
    # a child's ru_maxrss counts the pages of the process it was spawned from
    # until it calls exec, so a bare interpreter, not this test run, spawns it
    script = ("import os, subprocess, sys\n"
              "child = subprocess.Popen([sys.executable, '-m', 'gwhurwitz.cli', "
              f"*{argv!r}], stdout=subprocess.PIPE)\n"
              "out = child.stdout.read()\n"
              "_pid, status, usage = os.wait4(child.pid, 0)\n"
              "child.returncode = os.waitstatus_to_exitcode(status)\n"
              f"print(child.returncode, b'\"value\": \"{value}\"' in out, usage.ru_maxrss)\n")
    done = subprocess.run([sys.executable, "-c", script], env=_process_env(tmp_path),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    code, found, maxrss_kib = done.stdout.split()
    assert (code, found) == ("0", "True")
    assert int(maxrss_kib) < 40 * 1024


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB on Linux")
def test_degree_24_table_dump_stays_small(tmp_path):
    # `char` writes each row as it is made and holds only the kernel memos:
    # about 21 MB, where the packed rows waiting for their conjugates took
    # about 29 MB and a listed table 57.6 MB
    script = ("import os, subprocess, sys\n"
              "child = subprocess.Popen([sys.executable, '-m', 'gwhurwitz.cli', "
              "'char', '--d', '24'], stdout=subprocess.DEVNULL)\n"
              "_pid, status, usage = os.wait4(child.pid, 0)\n"
              "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n")
    done = subprocess.run([sys.executable, "-c", script], env=_process_env(tmp_path),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    code, maxrss_kib = done.stdout.split()
    assert code == "0"
    assert int(maxrss_kib) < 25 * 1024
