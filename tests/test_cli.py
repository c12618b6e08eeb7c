"""Command-line documents, determinism, and the character-table cache."""

import contextlib
import hashlib
import io
import json
import os

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from gwhurwitz import __version__
from gwhurwitz.characters import CharacterTable
from gwhurwitz.cli import (CACHE_ENV, _checksum, _emit, _parse_ks, _parse_profiles,
                           _table_payload, _write_json, character_table, load_cached_table,
                           main, store_table)
from gwhurwitz.partitions import parse_partition


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_ENV, str(tmp_path / "cache"))
    yield tmp_path / "cache"


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
        import gwhurwitz.hurwitz as hurwitz_module

        def no_context(d):
            raise AssertionError(f"group context built for degree {d}")

        monkeypatch.setattr(hurwitz_module, "_GroupContext", no_context)
        code = main(["hur", "--d", "8", "--oracle", "--oracle-bound", "8",
                     "--target-genus", "0"])
        err = capsys.readouterr().err
        assert code == 2
        assert "8!x8!" in err and "1.6e+09 entries" in err

    def test_oracle_bound_default_is_the_library_constant(self):
        from gwhurwitz.cli import build_parser
        from gwhurwitz.hurwitz import DEFAULT_ORACLE_BOUND
        args = build_parser().parse_args(["hur", "--target-genus", "0", "--d", "3"])
        assert args.oracle_bound == DEFAULT_ORACLE_BOUND


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
    # argparse hands "--flag=--" over as an empty list, not as text
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
            docs.append(doc)
            emit(doc, out_path)

        monkeypatch.setattr(cli_module, "_emit", spy)
        outs = [run_cli(capsys, *argv)[1]]
        if argv[0] == "char":
            assert load_cached_table(int(argv[2])) is not None
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
    def test_any_json_value_is_one_dumps(self, value):
        writes = _Writes()
        _write_json(writes.write, value)
        assert writes.getvalue() == json.dumps(value, indent=2)

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


def _body(doc) -> bytes:
    """A cache file's body: compact JSON and a newline, as `store_table` writes it."""
    return json.dumps(doc, separators=(",", ":")).encode() + b"\n"


def _write_cache(cache, d: int, body: bytes, digest: bytes = None) -> str:
    """Write a degree-d cache file: `digest` (by default the body's checksum),
    a newline, then the body."""
    os.makedirs(cache, exist_ok=True)
    path = os.path.join(cache, f"chartable_d{d}.json")
    with open(path, "wb") as handle:
        handle.write((_checksum(body) if digest is None else digest) + b"\n" + body)
    return path


def _is_current_format(path) -> bool:
    digest, _, body = open(path, "rb").read().partition(b"\n")
    return digest == hashlib.sha256(body).hexdigest().encode()


class TestCache:
    @pytest.mark.parametrize("d", range(1, 9))
    def test_round_trip(self, d):
        table = CharacterTable.build(d)
        store_table(d, table)
        loaded = load_cached_table(d)
        assert loaded is not None
        assert loaded.matrix == table.matrix
        assert loaded.partitions == table.partitions

    def test_compact_file(self, isolated_cache):
        # the SHA-256 of the body on one line, then the body: compact JSON
        path = store_table(5, CharacterTable.build(5))
        assert _is_current_format(path)
        digest, body = open(path, "rb").read().split(b"\n", 1)
        assert len(digest) == 64 and body == _body(_table_payload(5, CharacterTable.build(5)))
        assert b"\n" not in body.rstrip(b"\n") and b", " not in body

    def test_delete_changes_nothing(self, isolated_cache, capsys):
        _, first = run_cli(capsys, "char", "--d", "6")
        for name in os.listdir(isolated_cache):
            os.unlink(os.path.join(isolated_cache, name))
        _, second = run_cli(capsys, "char", "--d", "6")
        assert first == second

    def test_corrupted_cache_is_rebuilt(self, isolated_cache):
        path = store_table(4, CharacterTable.build(4))
        digest, _, body = open(path, "rb").read().partition(b"\n")
        doc = json.loads(body)
        doc["matrix"][0][0] = 999
        _write_cache(isolated_cache, 4, _body(doc), digest)
        assert load_cached_table(4) is None  # checksum mismatch
        assert character_table(4).matrix[0][0] != 999

    def test_whitespace_change_is_rebuilt(self, isolated_cache, capsys):
        # the checksum covers the stored bytes, not the parsed document
        _, fresh = run_cli(capsys, "char", "--d", "5")
        path = os.path.join(isolated_cache, "chartable_d5.json")
        digest, _, body = open(path, "rb").read().partition(b"\n")
        _write_cache(isolated_cache, 5, body.replace(b",", b", ", 1), digest)
        assert load_cached_table(5) is None
        code, out = run_cli(capsys, "char", "--d", "5")
        assert code == 0 and out == fresh
        assert open(path, "rb").read() == digest + b"\n" + body  # rewritten

    def test_old_format_file_is_rewritten(self, isolated_cache, capsys):
        # a file of an older release: one line, its checksum a field of the
        # object over the sorted-key dump of the other four
        d = 5
        _, fresh = run_cli(capsys, "char", "--d", str(d))
        payload = _table_payload(d, CharacterTable.build(d))
        canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        payload["checksum"] = hashlib.sha256(canon.encode()).hexdigest()
        path = os.path.join(isolated_cache, f"chartable_d{d}.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(payload, separators=(",", ":")) + "\n")
        assert load_cached_table(d) is None
        code, out = run_cli(capsys, "char", "--d", str(d))
        assert code == 0 and out == fresh
        assert _is_current_format(path) and load_cached_table(d) is not None

    def test_version_mismatch_is_rebuilt(self, isolated_cache):
        payload = _table_payload(3, CharacterTable.build(3))
        payload["version"] = -1
        _write_cache(isolated_cache, 3, _body(payload))
        assert load_cached_table(3) is None

    @pytest.mark.parametrize("doc", [[1, 2], "x", None], ids=["list", "string", "null"])
    def test_non_object_file_is_rebuilt(self, isolated_cache, capsys, doc):
        _, fresh = run_cli(capsys, "char", "--d", "5")
        _write_cache(isolated_cache, 5, _body(doc))
        assert load_cached_table(5) is None
        code, out = run_cli(capsys, "char", "--d", "5")
        assert code == 0 and out == fresh

    def test_deeply_nested_file_is_rebuilt(self, isolated_cache, capsys):
        # past the recursion limit the decoder raises RecursionError, not ValueError
        _, fresh = run_cli(capsys, "char", "--d", "5")
        _write_cache(isolated_cache, 5, b"[" * 200000 + b"]" * 200000)
        assert load_cached_table(5) is None
        code, out = run_cli(capsys, "char", "--d", "5")
        assert code == 0 and out == fresh
        assert load_cached_table(5) is not None  # rewritten

    # each damage keeps a valid checksum, so only the shape check can catch it
    @pytest.mark.parametrize("damage", [
        lambda p: p.update(matrix=None),
        lambda p: p.update(matrix=p["matrix"][:-1]),
        lambda p: p.update(matrix=[p["matrix"][0][:-1]] + p["matrix"][1:]),
        lambda p: p.update(matrix=[7] + p["matrix"][1:]),
        lambda p: p.update(matrix=[["x"] + p["matrix"][0][1:]] + p["matrix"][1:]),
        lambda p: p.update(matrix=[[2.5] + p["matrix"][0][1:]] + p["matrix"][1:]),
        lambda p: p.update(matrix=[[None] + p["matrix"][0][1:]] + p["matrix"][1:]),
        lambda p: p.update(partitions=None),
    ], ids=["matrix_null", "row_missing", "row_short", "row_not_a_list",
            "string_entry", "float_entry", "null_entry", "partitions_null"])
    def test_checksummed_malformed_table_is_rebuilt(self, isolated_cache, capsys, damage):
        d = 5
        _, fresh = run_cli(capsys, "char", "--d", str(d))
        payload = _table_payload(d, CharacterTable.build(d))
        damage(payload)
        _write_cache(isolated_cache, d, _body(payload))
        assert load_cached_table(d) is None
        code, out = run_cli(capsys, "char", "--d", str(d))
        assert code == 0 and out == fresh

    def test_regular_file_as_cache_dir(self, tmp_path, monkeypatch, capsys):
        # the cache is an optimization only: a regular file in place of the
        # directory means "not cached", never an error
        code, normal = run_cli(capsys, "char", "--d", "6")
        assert code == 0
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("x")
        monkeypatch.setenv(CACHE_ENV, str(blocker))
        code, out = run_cli(capsys, "char", "--d", "6")
        assert code == 0
        assert out == normal
        assert blocker.read_text() == "x"
