"""Command-line documents and their determinism."""

import contextlib
import gc
import hashlib
import io
import itertools
import json
import os
import tracemalloc
from collections.abc import Iterator

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from gwhurwitz import __version__
from gwhurwitz.characters import CharacterTable
from gwhurwitz.cli import (COMMANDS, _emit, _parse_ks, _parse_profiles, _write_json, main,
                           parse_args)
from gwhurwitz.partitions import format_partition, parse_partition


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestDocuments:
    def test_cycle(self, capsys):
        code, out = run_cli(capsys, "cycle", "--d", "2", "--k", "1")
        doc = json.loads(out)
        assert code == 0
        assert doc["result"] == {"(2)": "1"}
        assert doc["request"] == {"d": 2, "k": 1}
        assert doc["version"] == __version__

    def test_hur(self, capsys):
        code, out = run_cli(capsys, "hur", "--target-genus", "0", "--d", "3",
                            "--profiles", "(3);(3);(3)")
        assert code == 0
        assert json.loads(out)["result"] == {"value": "1/3"}

    def test_hur_oracle_and_connected(self, capsys):
        _, out = run_cli(capsys, "hur", "--target-genus", "1", "--d", "2",
                         "--connected")
        assert json.loads(out)["result"] == {"value": "3/2"}
        _, out = run_cli(capsys, "hur", "--target-genus", "1", "--d", "2",
                         "--connected", "--oracle")
        assert json.loads(out)["result"] == {"value": "3/2"}

    def test_gw(self, capsys):
        code, out = run_cli(capsys, "gw", "--target-genus", "1", "--d", "2",
                            "--ks", "1,1")
        doc = json.loads(out)
        assert code == 0
        assert doc["result"]["total"] == "2"
        assert doc["result"]["by_genus"] == {"2": "2"}

    def test_ifun(self, capsys):
        code, out = run_cli(capsys, "ifun", "--g", "0", "--eta", "(1)", "--k", "0")
        assert code == 0
        assert json.loads(out)["result"] == {"value": "23/24", "z_degree": 0}

    def test_ifun_empty(self, capsys):
        code, out = run_cli(capsys, "ifun", "--g", "-1", "--eta", "(1,1)", "--empty")
        assert code == 0
        assert json.loads(out)["result"] == {"value": "1", "z_degree": 1}

    def test_elsv(self, capsys):
        code, out = run_cli(capsys, "elsv", "--mu", "(2)", "--g", "1")
        doc = json.loads(out)
        assert code == 0
        assert doc["result"]["lhs"] == "1/2" and doc["result"]["equal"] is True

    def test_verify(self, capsys):
        code, out = run_cli(capsys, "verify", "--d-max", "2", "--k-max", "4")
        doc = json.loads(out)
        assert code == 0 and doc["passed"] is True
        assert doc["oracle"]["passed"] is True
        assert doc["command"] == "verify"
        assert doc["version"] == __version__
        assert doc["request"] == {"d_max": 2, "k_max": 4}

    @pytest.mark.parametrize("k_max", ["-1", "-3"])
    def test_verify_negative_k_max_exits_2(self, capsys, k_max):
        # as `cycle` and `ifun` do for a negative k; no empty grid is printed
        code = main(["verify", "--d-max", "4", "--k-max", k_max])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "descendent index must be >= 0" in captured.err

    @pytest.mark.parametrize("d_max", ["-1", "-3"])
    def test_verify_negative_d_max_exits_2(self, capsys, d_max):
        code = main(["verify", "--d-max", d_max])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "degree must be >= 0" in captured.err

    @staticmethod
    def _bomb_bras(monkeypatch, message):
        """Make every boundary bra raise AssertionError(message): the one
        `icoeff` pairs for `ifun --k` and the one `gwh` reads for the Hodge
        series of `ifun --empty` and `elsv`."""
        import gwhurwitz.gwh as gwh_module
        import gwhurwitz.icoeff as icoeff_module

        def bomb(*_args):
            raise AssertionError(message)

        for module in (icoeff_module, gwh_module):
            monkeypatch.setattr(module, "_boundary_bra", bomb)

    def _refused_then_admitted(self, capsys, monkeypatch, refused, admitted, message, limit):
        """`refused` exits 2 naming `limit` before any bra is built, and the
        same bomb fires on `admitted`, the same route inside the limit: so the
        bomb sits where the route's call resolves."""
        self._bomb_bras(monkeypatch, message)
        code = main(refused)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert limit in captured.err
        with pytest.raises(AssertionError, match=message):
            main(admitted)

    @pytest.mark.parametrize("argv, admitted", [
        (["ifun", "--g", "1000", "--eta", "(2)", "--k", "3"],
         ["ifun", "--g", "1", "--eta", "(2)", "--k", "3"]),
        (["ifun", "--g", "2000", "--eta", "(2)", "--empty"],
         ["ifun", "--g", "1", "--eta", "(2)", "--empty"]),
        (["elsv", "--mu", "(2)", "--g", "1000"], ["elsv", "--mu", "(2)", "--g", "1"]),
        (["elsv", "--mu", "(2)", "--g", "3000"], ["elsv", "--mu", "(2)", "--g", "3"])],
        ids=["ifun", "ifun_empty", "elsv_1000", "elsv_3000"])
    def test_huge_genus_exits_2_before_any_series(self, capsys, monkeypatch, argv, admitted):
        from gwhurwitz.icoeff import MAX_SERIES_ORDER

        self._refused_then_admitted(capsys, monkeypatch, argv, admitted,
                                    "series built past the order limit",
                                    f"MAX_SERIES_ORDER = {MAX_SERIES_ORDER}")

    def test_huge_k_exits_2_before_any_series(self, capsys, monkeypatch):
        # inside the order and cost limits of the bra, this ran past 40 s
        from gwhurwitz.icoeff import MAX_PAIRING_COST

        self._refused_then_admitted(capsys, monkeypatch,
                                    ["ifun", "--g", "0", "--eta", "(3,2)", "--k", "1500"],
                                    ["ifun", "--g", "0", "--eta", "(3,2)", "--k", "150"],
                                    "series built past the pairing limit",
                                    f"MAX_PAIRING_COST = {MAX_PAIRING_COST}")

    @pytest.mark.parametrize("argv, admitted", [
        (["elsv", "--mu", "(4,3,2,1)", "--g", "140"], ["elsv", "--mu", "(4,3,2,1)", "--g", "14"]),
        (["ifun", "--g", "300", "--eta", "(6,5,4)", "--k", "3"],
         ["ifun", "--g", "30", "--eta", "(6,5,4)", "--k", "3"]),
        (["ifun", "--g", "-100", "--eta", "(" + "1," * 29 + "1)", "--k", "0"],
         ["ifun", "--g", "-100", "--eta", "(" + "1," * 9 + "1)", "--k", "0"]),
        (["ifun", "--g", "-100", "--eta", "(" + "1," * 29 + "1)", "--empty"],
         ["ifun", "--g", "-100", "--eta", "(" + "1," * 9 + "1)", "--empty"])],
        ids=["elsv", "ifun", "ifun_negative_order", "ifun_empty_negative_order"])
    def test_costly_profile_exits_2_before_any_series(self, capsys, monkeypatch, argv,
                                                      admitted):
        # all inside MAX_SERIES_ORDER; the ifun request at g = 300 ran past
        # 60 s, and thirty ones cost 2^30 however negative the order
        from gwhurwitz.icoeff import MAX_SERIES_COST

        self._refused_then_admitted(capsys, monkeypatch, argv, admitted,
                                    "series built past the cost limit",
                                    f"MAX_SERIES_COST = {MAX_SERIES_COST}")

    @pytest.mark.parametrize("argv", [
        ["ifun", "--g", "-3000", "--eta", "(1)", "--k", "0"],
        ["ifun", "--g", "-3000", "--eta", "(1)", "--empty"]], ids=["k", "empty"])
    def test_negative_order_counts_as_one(self, capsys, argv):
        # the u-order 2g + |eta| + len(eta) = -5998 once read as cost 2 * 5998^2
        code, out = run_cli(capsys, *argv)
        assert code == 0 and json.loads(out)["result"]["value"] == "0"

    @pytest.mark.parametrize("argv, message", [
        (["ifun", "--g", "0", "--eta", "(1)"], "--k is required unless --empty is given"),
        (["ifun", "--g", "0", "--eta", "(1)", "--k", "2", "--empty"],
         "--k is not read with --empty")], ids=["no_k", "k_with_empty"])
    def test_ifun_usage_errors_exit_2(self, capsys, monkeypatch, argv, message):
        # exit 1 is kept for a failed identity; nothing is computed
        import gwhurwitz.gwh as gwh_module
        import gwhurwitz.icoeff as icoeff_module

        def bomb(*_args):
            raise AssertionError("coefficient computed")

        monkeypatch.setattr(icoeff_module, "i_function_numeric", bomb)
        monkeypatch.setattr(gwh_module, "i_function_empty", bomb)
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"gwhurwitz: error: {message}\n"
        # the same bombs fire on a well-formed request of either route
        for admitted in (argv[:5] + ["--k", "2"], argv[:5] + ["--empty"]):
            with pytest.raises(AssertionError, match="coefficient computed"):
                main(admitted)

    def test_verify_refuses_above_the_crosscheck_ceiling_before_any_table(
            self, capsys, monkeypatch):
        import gwhurwitz.characters as characters_module
        from gwhurwitz.gwh import MAX_CROSSCHECK_DEGREE

        def no_table(d):
            raise AssertionError(f"table of degree {d} built")

        monkeypatch.setattr(characters_module, "_build_table", no_table)
        code = main(["verify", "--d-max", "24"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert f"MAX_CROSSCHECK_DEGREE = {MAX_CROSSCHECK_DEGREE}" in captured.err

    @pytest.mark.parametrize("grid", [("12", "80"), ("4", "80")])
    def test_verify_refuses_above_the_cost_limit_before_any_table(
            self, capsys, monkeypatch, grid):
        import gwhurwitz.characters as characters_module
        from gwhurwitz.gwh import MAX_CROSSCHECK_COST

        def no_table(d):
            raise AssertionError(f"table of degree {d} built")

        monkeypatch.setattr(characters_module, "_build_table", no_table)
        code = main(["verify", "--d-max", grid[0], "--k-max", grid[1]])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert f"MAX_CROSSCHECK_COST = {MAX_CROSSCHECK_COST}" in captured.err

    def test_verify_rows_ascend(self, capsys):
        _, out = run_cli(capsys, "verify", "--d-max", "3", "--k-max", "3")
        rows = [(row["d"], row["k"]) for row in json.loads(out)["rows"]]
        assert rows == [(d, k) for d in range(1, 4) for k in range(0, 4)]

    def test_char_document(self, capsys):
        code, out = run_cli(capsys, "char", "--d", "4")
        doc = json.loads(out)
        assert code == 0
        assert doc["result"]["partitions"][0] == "(4)"
        assert len(doc["result"]["matrix"]) == 5

    def test_out_path(self, tmp_path, capsys):
        target = tmp_path / "doc.json"
        code, _ = run_cli(capsys, "--out", str(target), "cycle", "--d", "1", "--k", "0")
        assert code == 0
        assert json.loads(target.read_text())["result"] == {"(1)": "23/24"}

    def test_parse_error_exits_nonzero(self, capsys):
        code = main(["hur", "--target-genus", "0", "--d", "2",
                     "--profiles", "(2);(3)"])
        err = capsys.readouterr().err
        assert code != 0
        assert "partition of 2" in err

    def test_missing_flag_exits_nonzero(self, capsys):
        assert main(["cycle", "--d", "2"]) != 0

    def test_oracle_ceiling_exits_2(self, capsys, monkeypatch):
        def no_permutations(*args):
            raise AssertionError(f"permutations enumerated: {args}")

        monkeypatch.setattr(itertools, "permutations", no_permutations)
        code = main(["hur", "--d", "8", "--oracle", "--oracle-bound", "8",
                     "--target-genus", "0"])
        err = capsys.readouterr().err
        assert code == 2
        assert "8!x8!" in err and "1.6e+09 entries" in err
        # the same bomb fires on an admitted oracle count
        with pytest.raises(AssertionError, match="permutations enumerated"):
            main(["hur", "--d", "3", "--oracle", "--target-genus", "0"])

    def test_oracle_genus_bound_exits_2(self, capsys, monkeypatch):
        from gwhurwitz.oracle import MAX_ORACLE_GENUS

        def no_permutations(*args):
            raise AssertionError(f"permutations enumerated: {args}")

        monkeypatch.setattr(itertools, "permutations", no_permutations)
        code = main(["hur", "--d", "5", "--oracle", "--connected",
                     "--target-genus", str(MAX_ORACLE_GENUS + 1)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert f"MAX_ORACLE_GENUS = {MAX_ORACLE_GENUS}" in captured.err
        # the largest admitted genus reaches the enumeration
        with pytest.raises(AssertionError, match="permutations enumerated"):
            main(["hur", "--d", "5", "--oracle", "--target-genus", str(MAX_ORACLE_GENUS)])

    def test_gw_refuses_a_negative_target_genus(self, capsys):
        code = main(["gw", "--target-genus", "-2", "--d", "2", "--ks", "0,0,0,0,0,0"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "need target_genus >= 0" in captured.err

    def test_oracle_bound_default_is_the_library_constant(self):
        from gwhurwitz.oracle import DEFAULT_ORACLE_BOUND
        args = parse_args(["hur", "--target-genus", "0", "--d", "3"])
        assert args.oracle_bound == DEFAULT_ORACLE_BOUND


# One case per rule of the grammar, which is the grammar argparse gave the
# command line: (argv, exit code, then for exit 0 an argv of the same
# document, else a fragment of the error message).
_CYCLE = ["cycle", "--d", "2", "--k", "1"]
_GW = ["gw", "--target-genus", "0", "--d", "2"]
_GRAMMAR_RULES = {
    "out_after_the_subcommand": (_CYCLE + ["--out", "doc.json"], 2,
                                 "unrecognized arguments: --out doc.json"),
    "value_after_equals": (["cycle", "--d=2", "--k=1"], 0, _CYCLE),
    "negative_integer_value": (["ifun", "--g", "-1", "--eta", "(1,1)", "--empty"], 0,
                               ["ifun", "--g=-1", "--eta=(1,1)", "--empty"]),
    "other_dash_value_refused": (_GW + ["--ks", "-1,2"], 2, "argument --ks: expected one argument"),
    # read, and then refused by the count itself
    "dash_value_after_equals_read": (_GW + ["--ks=-1,2"], 2, "descendent index must be >= 0"),
    "switch_takes_no_value": (["hur", "--target-genus", "0", "--d", "2", "--connected=1"], 2,
                              "argument --connected: ignored explicit argument '1'"),
    "unique_prefix": (["verify", "--d", "1", "--k", "1"], 0,
                      ["verify", "--d-max", "1", "--k-max", "1"]),
    "ambiguous_flag": (["hur", "--target-genus", "0", "--d", "2", "--o"], 2,
                       "ambiguous option: --o could match --oracle, --oracle-bound"),
    "unknown_flag": (_CYCLE + ["--zz"], 2, "unrecognized arguments: --zz"),
    "missing_value": (["cycle", "--d", "2", "--k"], 2, "argument --k: expected one argument"),
    "non_integer_value": (["cycle", "--d", "two", "--k", "1"], 2,
                          "argument --d: invalid int value: 'two'"),
    "missing_required_flag": (["cycle", "--d", "2"], 2,
                              "the following arguments are required: --k"),
    "unknown_subcommand": (["cyc", "--d", "2"], 2, "invalid subcommand 'cyc'"),
    "missing_subcommand": (["--out", "doc.json"], 2, "a subcommand is required"),
    "extra_words": (_CYCLE + ["more"], 2, "unrecognized arguments: more"),
    "last_value_wins": (["cycle", "--d", "5", "--k", "1", "--d", "2"], 0, _CYCLE),
    "double_dash_value": (["cycle", "--d=--", "--k", "1"], 2, "'--' is not a flag value"),
}


@pytest.mark.parametrize("rule", sorted(_GRAMMAR_RULES))
def test_grammar_rule(rule, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # where a wrongly read --out would write
    argv, code, expected = _GRAMMAR_RULES[rule]
    assert main(argv) == code
    captured = capsys.readouterr()
    if code == 0:
        assert captured.err == ""
        assert main(expected) == 0
        assert captured.out == capsys.readouterr().out != ""
    else:
        assert captured.out == ""
        assert captured.err.startswith("gwhurwitz: error: ")
        assert expected in captured.err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag", ["-h", "--help"])
@pytest.mark.parametrize("subcommand", [None, *COMMANDS])
def test_help_lists_every_flag_of_the_table(subcommand, flag, capsys):
    # help wins over a bad flag after it, as in argparse
    argv = [flag, "--no-such-flag"] if subcommand is None else [subcommand, flag, "--d=x"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    if subcommand is None:
        assert captured.out.startswith("usage: gwhurwitz [-h] [--out OUT] {")
        names = [*COMMANDS, "--out"]
    else:
        assert captured.out.startswith(f"usage: gwhurwitz {subcommand} [-h]")
        names = list(COMMANDS[subcommand][2])
    assert all(name in captured.out for name in names)


def test_parse_args_names_the_attributes_as_argparse_did():
    from gwhurwitz.cli import _cmd_verify
    args = parse_args(["--out", "doc.json", "verify", "--k-max", "3"])
    assert vars(args) == {"out": "doc.json", "subcommand": "verify", "func": _cmd_verify,
                          "d_max": 2, "k_max": 3}
    args = parse_args(["ifun", "--g", "0", "--eta", "(1)", "--empty"])
    assert (args.out, args.g, args.eta, args.k, args.empty) == (None, 0, "(1)", None, True)


# Each flag whose text the CLI parses itself, with its parser and a command
# that parses it before computing anything.
_GRAMMAR_FLAGS = {
    "--profiles": (_parse_profiles, ["hur", "--target-genus", "0", "--d", "2"]),
    "--ks": (_parse_ks, ["gw", "--target-genus", "0", "--d", "2"]),
    "--eta": (parse_partition, ["ifun", "--g", "0", "--k", "0"]),
    "--mu": (parse_partition, ["elsv", "--g", "0"]),
}


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(sorted(_GRAMMAR_FLAGS)),
       st.one_of(st.text(), st.text(alphabet="()0123456789,;-+ _x")))
def test_malformed_grammar_exits_2(flag, text):
    parse, argv = _GRAMMAR_FLAGS[flag]
    try:
        parse(text)
    except ValueError:
        pass
    else:
        # only inputs that fail to parse: a valid one could start a large computation
        assume(False)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv + [f"{flag}={text}"])
    assert code == 2
    assert "gwhurwitz: error: " in err.getvalue()
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("argv", [
    ["hur", "--target-genus", "0", "--d", "2", "--profiles=--"],
    ["hur", "--target-genus", "0", "--d=--"],
    ["gw", "--target-genus", "0", "--d", "2", "--ks=--"],
    ["ifun", "--g", "0", "--k", "0", "--eta=--"],
    ["--out=--", "cycle", "--d", "2", "--k", "1"],
])
def test_double_dash_as_a_flag_value_exits_2(argv, capsys):
    # "--flag=--" is refused once the whole line is read, as it was under argparse
    assert main(argv) == 2
    assert "'--' is not a flag value" in capsys.readouterr().err


class TestDeterminism:
    def test_byte_identical_repeats(self, capsys):
        outputs = set()
        for _ in range(2):
            _, out = run_cli(capsys, "cycle", "--d", "3", "--k", "2")
            outputs.add(out)
        assert len(outputs) == 1
        # after cache warm-up the table dump is also byte-identical
        for _ in range(2):
            _, out = run_cli(capsys, "char", "--d", "5")
            outputs.add(out)
        assert len(outputs) == 2


# every subcommand's document; `char` runs twice, cold and then from the cache
_DOCUMENT_ARGVS = {
    **{f"char_{d}": ["char", "--d", str(d)] for d in (0, 1, 8, 12)},
    "hur": ["hur", "--target-genus", "0", "--d", "4", "--profiles", "(2,1,1);(3,1);(4)"],
    "hur_connected": ["hur", "--target-genus", "1", "--d", "3", "--connected"],
    "hur_oracle": ["hur", "--target-genus", "1", "--d", "3", "--profiles", "(2,1)",
                   "--connected", "--oracle"],
    "gw": ["gw", "--target-genus", "1", "--d", "3", "--ks", "1,2"],
    "cycle": ["cycle", "--d", "5", "--k", "3"],
    "ifun": ["ifun", "--g", "1", "--eta", "(2,1)", "--k", "2"],
    "elsv": ["elsv", "--mu", "(2,1)", "--g", "0"],
    "verify": ["verify", "--d-max", "2", "--k-max", "3"],
}

# hand-made documents for the layout rules a subcommand's document may miss
_EDGE_DOCUMENTS = {
    "empty_list": [],
    "empty_dict": {},
    "empties_inside": {"a": [], "b": {}, "c": [[], {}]},
    "lists_of_lists": [[1, 2], [[3], []], [[[]]]],
    "lists_of_dicts": [{"a": 1}, {"b": [True, None]}, {}],
    "mixed_scalars": ["x", 0, -7, True, False, None, 2.5, 1e300, -0.0],
    "scalar_dict": {"s": "x", "i": 1, "t": True, "f": False, "n": None, "r": 0.1},
    "non_ascii_and_controls": {"\u00e9\u2603\n\t\x00": ["\u00fc\x1f\"\\", {"\u00ff": "\ud83d\ude00"}],
                               "\x7f\r": {"\u0000": ["\x08", "\u2028"]}},
    "non_string_keys": {1: [1], 2.5: {}, False: [None], None: [[]], "k": 3},
    "scalar": "\u00e9",
}

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=30)


class _Writes(io.StringIO):
    """A text stream that records the size of each write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


class TestEmit:
    @pytest.mark.parametrize("name", sorted(_DOCUMENT_ARGVS))
    def test_document_is_one_dumps(self, name, tmp_path, capsys, monkeypatch):
        import gwhurwitz.cli as cli_module

        argv = _DOCUMENT_ARGVS[name]
        emit = cli_module._emit
        docs = []

        def spy(doc, out_path):
            # a streamed value (the `char` matrix) is listed as it is written,
            # so the document can be dumped again below
            result, listed = doc.get("result", {}), {}

            def record(key, items):
                for item in items:
                    listed.setdefault(key, []).append(item)
                    yield item
                listed.setdefault(key, [])

            for key, value in list(result.items()):
                if isinstance(value, Iterator):
                    result[key] = record(key, value)
            emit(doc, out_path)
            result.update(listed)
            docs.append(doc)

        monkeypatch.setattr(cli_module, "_emit", spy)
        outs = [run_cli(capsys, *argv)[1]]
        if argv[0] == "char":
            outs.append(run_cli(capsys, *argv)[1])
        assert len(docs) == len(outs)
        for doc, out in zip(docs, outs):
            expected = json.dumps(doc, indent=2) + "\n"
            assert out == expected
            target = tmp_path / "doc.json"
            emit(doc, str(target))
            assert target.read_text(encoding="utf-8") == expected

    @pytest.mark.parametrize("name", sorted(_EDGE_DOCUMENTS))
    def test_edge_document_is_one_dumps(self, name, capsys):
        doc = _EDGE_DOCUMENTS[name]
        _emit(doc, None)
        assert capsys.readouterr().out == json.dumps(doc, indent=2) + "\n"

    @settings(max_examples=200, deadline=None)
    @given(_JSON_VALUES)
    @example([[True, False], [False]]).via("bool-only rows stay true and false")
    @example([[1, True, 0], [False, -1], [0, 1.5]]).via("ints mixed with bools and floats")
    @example([[-1, 0, -10 ** 39], [10 ** 39, -7]]).via("negative and 40-digit ints")
    @example([[5], [-3], [True], [10 ** 39]]).via("one-item rows")
    @example({"a": [1, 2], "b": {"c": [3, 4], "d": [[5, 6]]}}).via("int rows at several indents")
    @example(((1, 2), [(3,), (-4, 5)])).via("int tuples")
    def test_any_json_value_is_one_dumps(self, value):
        writes = _Writes()
        _write_json(writes.write, value)
        assert writes.getvalue() == json.dumps(value, indent=2)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_JSON_VALUES, max_size=5))
    @example([]).via("an empty matrix")
    @example([[1]]).via("the one-row tables of d = 0 and 1")
    @example([[1, -1], [1, 1]])
    @example([[-3, 10 ** 39, 0], [7], [True, 1]]).via("int rows inside iterators and dicts")
    def test_an_iterator_is_one_dumps_of_its_list(self, items):
        for value, listed in ((iter(items), items),
                              ({"a": iter(items), "b": []}, {"a": items, "b": []})):
            writes = _Writes()
            _write_json(writes.write, value)
            assert writes.getvalue() == json.dumps(listed, indent=2)

    @pytest.mark.parametrize("d", [*range(13), 18, 24])
    def test_char_streams_the_bytes_of_the_built_table(self, d, tmp_path):
        # compared by digest: at d = 24 the document is 29 MB
        table = CharacterTable.build(d)
        doc = {"command": "char", "version": __version__, "request": {"d": d},
               "result": {"version": 1, "d": d,
                          "partitions": [format_partition(p) for p in table.partitions],
                          "matrix": table.matrix}}
        expected = hashlib.sha256()
        for chunk in json.JSONEncoder(indent=2).iterencode(doc):
            expected.update(chunk.encode())
        expected.update(b"\n")
        target = tmp_path / "char.json"
        assert main(["--out", str(target), "char", "--d", str(d)]) == 0
        assert hashlib.sha256(target.read_bytes()).hexdigest() == expected.hexdigest()

    @pytest.mark.parametrize("d, limit", [(18, 2_000_000), (24, 8_000_000)])
    def test_char_holds_no_table(self, d, limit):
        # the kernel memos and one row at a time, about 6.4 MB at d = 24; the
        # packed rows waiting for their conjugates took it to 14.7 MB, and a
        # listed table peaked at 2.9 MB (d = 18) and 44.2 MB (d = 24)
        import gwhurwitz.characters  # noqa: F401  compiled before the count
        enabled = gc.isenabled()
        gc.disable()
        try:
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                tracemalloc.start()
                assert main(["char", "--d", str(d)]) == 0
                peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            if enabled:
                gc.enable()
        assert peak < limit

    def test_no_write_is_larger_than_one_list_of_scalars(self, monkeypatch):
        # the largest pieces are one matrix row and the list of partition
        # labels, each p(d) long: the p(d)^2 matrix is never one string
        writes = _Writes()
        monkeypatch.setattr("sys.stdout", writes)
        assert main(["char", "--d", "12"]) == 0
        result = json.loads(writes.getvalue())["result"]
        # both lists sit two levels deep, each row one level deeper
        pieces = [json.dumps(result["partitions"], indent=2).replace("\n", "\n    ")]
        pieces += [json.dumps(row, indent=2).replace("\n", "\n      ")
                   for row in result["matrix"]]
        assert sorted(writes.sizes)[-len(pieces):] == sorted(map(len, pieces))
