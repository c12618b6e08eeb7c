"""Command-line front end and its result documents.

Every subcommand emits one self-describing JSON document (request
parameters, library version, result) with exact "p/q" scalars and
deterministic ordering, to stdout or to `--out`.  The bytes are exactly
`json.dumps(doc, indent=2)` and a newline, written row by row: each list or
object of scalars (one table row) is one piece, written as soon as it is
made.  A row of exact `int`s is one `%` format of a template of `%d`s, built
once per row length and indentation in each document; any other is one call
of the C encoder.  `char` hands its matrix over as the iterator of
`characters.character_columns`, so each row is written as the kernel makes
it: no table is held in memory, and nothing is kept on disk.

The command line is read without argparse, whose import and parsers cost
about 5 ms of each process.  One table, `COMMANDS` (subcommand -> help,
handler and flags), is read by `parse_args`, by the `--help` text and by
the dispatch in `main`; `helptext` lays the help out, loaded by `--help`
only.  The grammar is the one argparse gave: `--out` before the
subcommand, `--flag VALUE` or `--flag=VALUE`, unique prefixes, the last
value wins, negative integers as separate values, and exit code 2 with
`gwhurwitz: error: ` on stderr for any usage error.

Each process loads only the layers its subcommand runs.  Only `partitions`
is imported at module level; `characters` is imported by `char`, `hurwitz`
by `hur` and `verify`, the completed cycles `cycles` by `cycle`, `gw` and
`verify`, and the wall-crossing layer `gwh` by the subcommands that use it.
`fractions` is imported by the functions that build a rational, so `char`
and `--help` load neither it nor the `decimal` it imports.  The package
modules each command loads, and whether it loads `fractions`:

    --help          cli, partitions, helptext                      no
    char            cli, partitions, characters                    no
    hur --oracle    cli, partitions, hurwitz                       yes
    hur             cli, partitions, characters, hurwitz           yes
    cycle           cli, partitions, cycles                        yes
    ifun            cli, partitions, qseries, fock, gwh            yes
    gw              cli, partitions, cycles, characters, hurwitz   yes
    elsv            all but cycles                                 yes
    verify          all eight                                      yes

Scalars are `int`s or `Fraction`s, printed by `str`.

A process enters through `run`, which freezes the garbage collector after
`main`, so the collections at exit skip the objects left alive: 5-7 ms of a
light command.  `main` leaves it alone for its in-process callers.
"""

from __future__ import annotations

import gc
import json
import re
import sys
from collections.abc import Iterator
from contextlib import nullcontext
from itertools import combinations_with_replacement
from types import SimpleNamespace

from . import DEFAULT_ORACLE_BOUND, ORACLE_CEILING, __version__
from .partitions import (check_table_degree, enumerate_partitions, format_partition,
                         parse_partition)

# the "version" field of the `char` document
TABLE_FORMAT_VERSION = 1


# ------------------------------------------------------------- subcommands


def _parse_profiles(text: str | None):
    if not text:
        return ()
    return tuple(_parse_partition_flag("--profiles", p) for p in text.split(";") if p.strip())


def _parse_partition_flag(flag: str, text: str):
    try:
        return parse_partition(text)
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from exc


def _parse_ks(text: str | None):
    if text is None or not text.strip():
        return []
    try:
        return [int(k) for k in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"--ks: {exc}") from exc


_SCALARS = {str, int, float, bool, type(None)}


def _write_json(write, value, outer: str = "", templates: dict | None = None) -> None:
    """Write the bytes of `json.dumps(value, indent=2)`, one piece at a time.

    A container holding containers is laid out here and recurses; a container
    of scalars, such as one matrix row, is one piece.  A list or tuple of
    exact `int`s is one `%` format of a template of `%d`s, kept in `templates`
    by row length and indentation for the rest of the document; any other is
    one call of the C encoder, which `indent` would bypass: its item separator
    carries the newline and the indentation instead.  So no piece is larger
    than one such container.  An iterator is written as the list of its
    items, each as soon as it is made."""
    if templates is None:
        templates = {}
    lazy = isinstance(value, Iterator)
    is_dict = isinstance(value, dict)
    if not (lazy or is_dict or isinstance(value, (list, tuple))):
        write(json.dumps(value))
        return
    inner = outer + "  "
    opening, closing = "{}" if is_dict else "[]"
    types = set() if lazy or not value else set(map(type, value.values() if is_dict else value))
    if types == {int} and not is_dict:
        # str of an int is its JSON; bools, which print as true and false, are not exact ints
        template = templates.get((len(value), outer))
        if template is None:
            template = templates[len(value), outer] = (
                f"[\n{inner}%d" + f",\n{inner}%d" * (len(value) - 1) + f"\n{outer}]")
        write(template % tuple(value))
        return
    if types and types <= _SCALARS:
        flat = json.JSONEncoder(separators=(",\n" + inner, ": ")).encode(value)
        write(f"{opening}\n{inner}{flat[1:-1]}\n{outer}{closing}")
        return
    separator = opening + "\n"
    for key, item in value.items() if is_dict else enumerate(value):
        if is_dict:
            # json.dumps names a non-string key by its own encoding: 1 -> "1"
            name = key if isinstance(key, str) else json.dumps(key)
            write(f"{separator}{inner}{json.dumps(name)}: ")
        else:
            write(separator + inner)
        _write_json(write, item, inner, templates)
        separator = ",\n"
    # an empty container, iterator or not, is written whole
    write(f"\n{outer}{closing}" if separator == ",\n" else opening + closing)


def _emit(doc: dict, out_path: str | None) -> None:
    """Write `json.dumps(doc, indent=2)` and a newline, streamed row by row
    (`_write_json`), so a table is never one string.  The row templates live
    as long as this call."""
    target = open(out_path, "w", encoding="utf-8") if out_path else nullcontext(sys.stdout)
    with target as handle:
        _write_json(handle.write, doc)
        handle.write("\n")


def _decimal(value) -> str:
    """`str(value)` without CPython's 4300-digit limit on integers, which the
    flags keep.  MAX_GENUS_COST bounds the `hur` values and the `gw` values
    with no insertions: the largest, d = 3 at h = 430331, has 669724 digits
    and is written in 6-8 s (CPython 3.11)."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


def _document(command: str, request: dict, result) -> dict:
    return {"command": command, "version": __version__,
            "request": request, "result": result}


def _cmd_hur(args) -> int:
    from .hurwitz import BranchData, hurwitz_connected, hurwitz_disconnected, monodromy_oracle

    profiles = _parse_profiles(args.profiles)
    branch = BranchData(args.target_genus, args.d, profiles)
    if args.oracle:
        value = monodromy_oracle(branch, transitive_only=args.connected,
                                 degree_bound=args.oracle_bound)
    elif args.connected:
        value = hurwitz_connected(branch)
    else:
        value = hurwitz_disconnected(branch)
    request = {"target_genus": args.target_genus, "d": args.d,
               "profiles": [format_partition(p) for p in profiles],
               "connected": bool(args.connected), "oracle": bool(args.oracle)}
    _emit(_document("hur", request, {"value": _decimal(value)}), args.out)
    return 0


def _cmd_char(args) -> int:
    from .characters import character_columns

    check_table_degree(args.d)
    parts = enumerate_partitions(args.d)
    # the matrix is the rows' iterator: each row is written as it is made
    payload = {"version": TABLE_FORMAT_VERSION, "d": args.d,
               "partitions": [format_partition(p) for p in parts],
               "matrix": character_columns(args.d, parts)}
    _emit(_document("char", {"d": args.d}, payload), args.out)
    return 0


def _cmd_cycle(args) -> int:
    from .cycles import completed_cycle

    cycle = completed_cycle(args.k, args.d)
    _emit(_document("cycle", {"d": args.d, "k": args.k}, cycle.value.to_dict()),
          args.out)
    return 0


def _cmd_gw(args) -> int:
    from .cycles import stationary_gw

    ks = _parse_ks(args.ks)
    got = stationary_gw(args.target_genus, args.d, ks)
    by_genus = {str(g): _decimal(v) for g, v in got.by_genus.items()}
    # the total is the sum of the genera: one genus is written once
    total = next(iter(by_genus.values())) if len(by_genus) == 1 else _decimal(got.total)
    result = {"total": total, "by_genus": by_genus}
    request = {"target_genus": args.target_genus, "d": args.d, "ks": ks}
    _emit(_document("gw", request, result), args.out)
    return 0


def _cmd_ifun(args) -> int:
    from .gwh import i_function_empty, i_function_numeric

    if args.empty and args.k is not None:
        raise ValueError("--k is not read with --empty")
    if not args.empty and args.k is None:
        raise ValueError("--k is required unless --empty is given")
    eta = _parse_partition_flag("--eta", args.eta)
    if args.empty:
        got = i_function_empty(args.g, eta)
    else:
        got = i_function_numeric(args.g, eta, args.k)
    result = {"value": str(got.value), "z_degree": got.z_degree}
    request = {"g": args.g, "eta": format_partition(eta),
               "k": got.k, "empty": bool(args.empty)}
    _emit(_document("ifun", request, result), args.out)
    return 0


def _cmd_elsv(args) -> int:
    from .gwh import elsv_check

    mu = _parse_partition_flag("--mu", args.mu)
    report = elsv_check(mu, args.g)
    result = {"stable": report.stable, "m": report.m}
    if report.stable:
        result.update({"lhs": str(report.lhs),
                       "rhs": str(report.rhs),
                       "equal": report.equal})
    _emit(_document("elsv", {"mu": format_partition(mu), "g": args.g}, result),
          args.out)
    return 0 if (not report.stable or report.equal) else 1


def _cmd_verify(args) -> int:
    from .gwh import gwh_crosscheck
    from .hurwitz import BranchData, hurwitz_disconnected, monodromy_oracle

    # the route builds a table for every degree up to d_max: refuse first
    check_table_degree(args.d_max)
    report = gwh_crosscheck(args.d_max, args.k_max)
    doc = {"command": "verify", "version": __version__,
           "request": {"d_max": args.d_max, "k_max": args.k_max},
           **report.to_document()}
    oracle_rows = []
    oracle_pass = True
    for d in range(1, min(args.d_max, 3) + 1):
        for h in range(0, 2):
            for profiles in _oracle_profiles(d):
                branch = BranchData(h, d, profiles)
                burnside = hurwitz_disconnected(branch)
                counted = monodromy_oracle(branch)
                ok = burnside == counted
                oracle_pass = oracle_pass and ok
                oracle_rows.append({
                    "d": d, "h": h,
                    "profiles": [format_partition(p) for p in profiles],
                    "status": "pass" if ok else "fail"})
    doc["oracle"] = {"passed": oracle_pass, "rows": oracle_rows}
    doc["passed"] = doc["passed"] and oracle_pass
    _emit(doc, args.out)
    return 0 if doc["passed"] else 1


def _oracle_profiles(d: int):
    parts = enumerate_partitions(d)
    return [profiles for n in range(3) for profiles in combinations_with_replacement(parts, n)]


# ----------------------------------------------------------- command line

# The default of a flag that must be given.
REQUIRED = object()

# flag -> (type, default or REQUIRED, help); the type `bool` marks a switch, which takes no value
_TOP_FLAGS = {"--out": (str, None, "write the JSON document to this path")}

# subcommand -> (help, handler, flags): the one table that parses, documents and dispatches
COMMANDS = {
    "hur": ("Hurwitz numbers (character sum or oracle)", _cmd_hur, {
        "--target-genus": (int, REQUIRED, ""),
        "--d": (int, REQUIRED, ""),
        "--profiles": (str, None, 'semicolon-separated, e.g. "(3);(3);(3)"'),
        "--connected": (bool, False, ""),
        "--oracle": (bool, False, "brute-force monodromy count instead of characters"),
        "--oracle-bound": (int, DEFAULT_ORACLE_BOUND, "largest oracle degree; always "
                           f"below ORACLE_CEILING = {ORACLE_CEILING}")}),
    "char": ("dump a character table", _cmd_char, {"--d": (int, REQUIRED, "")}),
    "cycle": ("completed cycle as a class sum", _cmd_cycle, {
        "--d": (int, REQUIRED, ""),
        "--k": (int, REQUIRED, "")}),
    "gw": ("stationary invariants of a target curve", _cmd_gw, {
        "--target-genus": (int, REQUIRED, ""),
        "--d": (int, REQUIRED, ""),
        "--ks": (str, None, 'comma-separated descendent indices, e.g. "1,1"')}),
    "ifun": ("numerical I-function coefficient", _cmd_ifun, {
        "--g": (int, REQUIRED, ""),
        "--eta": (str, REQUIRED, ""),
        "--k": (int, None, "descendent index; required unless --empty"),
        "--empty": (bool, False, "no-marking evaluator, which takes no --k")}),
    "elsv": ("Hodge-integral versus cover-count identity", _cmd_elsv, {
        "--mu": (str, REQUIRED, ""),
        "--g": (int, REQUIRED, "")}),
    "verify": ("route equivalence and oracle suites", _cmd_verify, {
        "--d-max": (int, 2, ""),
        "--k-max": (int, 4, "")}),
}


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _classify(token: str, flags: dict):
    """None for a word, else (flag, the text after "=" or None), as argparse
    reads a token: exact names first, then unique prefixes.  A lone "-", a
    negative number and a token with a space are words; any other token that
    starts with "-" is an unknown flag, named ""."""
    if token[:1] != "-" or token == "-":
        return None
    names = ("-h", "--help", *flags)
    name, eq, text = token.partition("=")
    if token in names:
        return token, None
    if eq and name in names:
        return name, text
    if token[:2] == "--":
        matches = [n for n in names if n.startswith(name)]
        if len(matches) > 1:
            raise ValueError(f"ambiguous option: {name} could match {', '.join(matches)}")
        if matches:
            return matches[0], text if eq else None
    elif token[:2] == "-h":
        # "-hh" is "-h" twice; any other text after "-h" is a value, which help refuses
        return "-h", None if token.strip("h") == "-" else token[2:]
    return None if re.match(r"-\d+$|-\d*\.\d+$", token) or " " in token else ("", None)


def parse_args(argv=None) -> SimpleNamespace:
    """Read the command line (default `sys.argv[1:]`) with the grammar of argparse.

    The result has the attributes `out`, `subcommand`, `func` and one per
    flag of the subcommand, named as argparse names them (`--d-max` ->
    `d_max`).  Flags before the subcommand are read with `_TOP_FLAGS`, the
    rest with the subcommand's.  A flag takes its value as `--flag VALUE` or
    `--flag=VALUE`, and the last one wins; every token from the first "--"
    on is a word, and "--" is no value.  Tokens are classified before any is
    read, so an ambiguous flag is refused first; help then stops the read as
    soon as it is met (`func` is `_cmd_help`), and a missing or malformed
    value is refused at once.  Unknown flags and extra words are refused at
    the end, after the required flags.  A usage error raises ValueError."""
    tokens = sys.argv[1:] if argv is None else list(argv)
    end = tokens.index("--") if "--" in tokens else len(tokens)
    args = SimpleNamespace(out=None, subcommand=None, func=None)
    flags, extras, i = _TOP_FLAGS, [], 0
    kinds = [_classify(t, flags) for t in tokens[:end]]
    while i < len(tokens):
        token, kind = tokens[i], kinds[i] if i < end else None
        i += 1
        if kind is None and args.subcommand is None:
            if token not in COMMANDS:
                raise ValueError(f"invalid subcommand {token!r}: choose from {', '.join(COMMANDS)}")
            args.subcommand = token
            _, args.func, flags = COMMANDS[token]
            for name, (_, default, _) in flags.items():
                setattr(args, _dest(name), default)
            kinds[i:] = [_classify(t, flags) for t in tokens[i:end]]
            continue
        if kind is None or not kind[0]:
            extras.append(token)
            continue
        name, text = kind
        type_ = flags[name][0] if name in flags else bool
        if type_ is bool:
            if text is not None:
                raise ValueError(f"argument {name}: ignored explicit argument {text!r}")
            if name in ("-h", "--help"):
                args.func = _cmd_help
                return args
            setattr(args, _dest(name), True)
            continue
        if text is None:
            if i >= end or kinds[i] is not None:
                raise ValueError(f"argument {name}: expected one argument")
            text = tokens[i]
            i += 1
        try:
            # only "--flag=--" gives the value "--", refused below
            setattr(args, _dest(name), text if text == "--" else type_(text))
        except ValueError:
            raise ValueError(f"argument {name}: invalid int value: {text!r}") from None
    if args.subcommand is None:
        raise ValueError(f"a subcommand is required: one of {', '.join(COMMANDS)}")
    missing = [name for name in flags if getattr(args, _dest(name)) is REQUIRED]
    if missing:
        raise ValueError(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise ValueError(f"unrecognized arguments: {' '.join(extras)}")
    if "--" in vars(args).values():
        raise ValueError("'--' is not a flag value")
    return args


def _cmd_help(args) -> int:
    """Print the help of the top level, or of `args.subcommand`, from the table."""
    from .helptext import help_text

    print(help_text(args.subcommand, COMMANDS, _TOP_FLAGS, REQUIRED))
    return 0


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"gwhurwitz: error: {exc}", file=sys.stderr)
        return 2


def run() -> int:
    """The entry of `python -m gwhurwitz.cli` and the console script."""
    code = main()
    # the exit collections would walk every live object for memory the OS
    # takes back anyway; they skip frozen objects
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(run())
