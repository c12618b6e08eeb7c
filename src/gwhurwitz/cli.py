"""Command-line front end, result documents, and the character-table cache.

Every subcommand emits one self-describing JSON document (request
parameters, library version, result) with exact "p/q" scalars and
deterministic ordering, to stdout or to `--out`.  The bytes are exactly
`json.dumps(doc, indent=2)` and a newline, written row by row: each list or
object of scalars (one table row) is one call of the C encoder, written as
soon as it is made.  Character tables are persisted per degree under the
directory named by GWHURWITZ_CACHE_DIR (default ~/.cache/gwhurwitz), each
file the SHA-256 of its body on one line and then the body, compact JSON.
The cache is an optimization only: the stored bytes are checked before they
are parsed, and a table is rebuilt on any checksum, version or shape
mismatch.  A table that passes every check is used as read: the validated
matrix is not copied.

Each process loads only the layers its subcommand runs.  Only `partitions`
is imported at module level; `characters` is imported by the table-cache
functions, `hurwitz` by `hur` and `verify`, and the GW layer `gwh` by the
subcommands that use it.  The package modules each command loads:

    --help          cli, partitions
    char            cli, partitions, characters
    hur --oracle    cli, partitions, hurwitz
    hur             cli, partitions, characters, hurwitz
    cycle           cli, partitions, qseries, gwh
    ifun            cli, partitions, qseries, fock, gwh
    gw              cli, partitions, qseries, gwh, characters, hurwitz
    elsv, verify    all seven

Scalars are `int`s or `Fraction`s, printed by `str`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext

from . import DEFAULT_ORACLE_BOUND, ORACLE_CEILING, __version__
from .partitions import (check_table_degree, enumerate_partitions, format_partition,
                         parse_partition)

CACHE_ENV = "GWHURWITZ_CACHE_DIR"
CACHE_VERSION = 1


def cache_dir() -> str:
    got = os.environ.get(CACHE_ENV)
    if got:
        return got
    return os.path.join(os.path.expanduser("~"), ".cache", "gwhurwitz")


def _table_payload(degree: int, table) -> dict:
    return {
        "version": CACHE_VERSION,
        "d": degree,
        "partitions": [format_partition(p) for p in table.partitions],
        "matrix": table.matrix,
    }


def _checksum(body: bytes) -> bytes:
    import hashlib  # loads OpenSSL: only commands that touch the cache pay for it

    return hashlib.sha256(body).hexdigest().encode()


def _cache_path(degree: int) -> str:
    return os.path.join(cache_dir(), f"chartable_d{degree}.json")


def load_cached_table(degree: int):
    """Validated load; any mismatch means rebuild, never silent reuse.

    The file is the SHA-256 of its body on one line, then the body: the
    bytes are checked before they are parsed.  Returns a `CharacterTable` or
    None.  Whatever the file holds, a checksum mismatch, a malformed
    document, a wrong shape or a non-integer entry reads as a miss and never
    raises."""
    from .characters import CharacterTable

    try:
        with open(_cache_path(degree), "rb") as handle:
            digest, _, body = handle.read().partition(b"\n")
        if digest != _checksum(body):
            return None
        doc = json.loads(body)
    except (OSError, ValueError, RecursionError):
        return None
    if not isinstance(doc, dict):
        return None
    if doc.get("version") != CACHE_VERSION or doc.get("d") != degree:
        return None
    partitions = enumerate_partitions(degree)
    if doc.get("partitions") != [format_partition(p) for p in partitions]:
        return None
    matrix = doc.get("matrix")
    if not (isinstance(matrix, list) and len(matrix) == len(partitions)
            and all(isinstance(row, list) and len(row) == len(partitions)
                    and set(map(type, row)) <= {int} for row in matrix)):
        return None
    return CharacterTable(degree, partitions, matrix)


def store_table(degree: int, table) -> str:
    """Atomic write: temp file in the cache directory, then rename."""
    import tempfile

    os.makedirs(cache_dir(), exist_ok=True)
    body = json.dumps(_table_payload(degree, table), separators=(",", ":")).encode() + b"\n"
    path = _cache_path(degree)
    fd, tmp = tempfile.mkstemp(dir=cache_dir(), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(_checksum(body) + b"\n" + body)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def character_table(degree: int):
    """Cached `CharacterTable` of the given degree; a cache that cannot be
    written (say, a regular file named as its directory) leaves the table
    uncached."""
    from .characters import CharacterTable

    table = load_cached_table(degree)
    if table is None:
        table = CharacterTable.build(degree)
        try:
            store_table(degree, table)
        except OSError:
            pass
    return table


# ------------------------------------------------------------- subcommands


def _parse_profiles(text: str | None):
    if not text:
        return ()
    try:
        return tuple(parse_partition(p) for p in text.split(";") if p.strip())
    except ValueError as exc:
        raise ValueError(f"--profiles: {exc}") from exc


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


def _write_json(write, value, outer: str = "") -> None:
    """Write the bytes of `json.dumps(value, indent=2)`, one piece at a time.

    A container holding containers is laid out here and recurses; a container
    of scalars, such as one matrix row, is one call of the C encoder, which
    `indent` would bypass: its item separator carries the newline and the
    indentation instead.  So no piece is larger than one such container."""
    is_dict = isinstance(value, dict)
    if not value or not (is_dict or isinstance(value, (list, tuple))):
        write(json.dumps(value))
        return
    inner = outer + "  "
    opening, closing = "{}" if is_dict else "[]"
    if set(map(type, value.values() if is_dict else value)) <= _SCALARS:
        flat = json.JSONEncoder(separators=(",\n" + inner, ": ")).encode(value)
        write(f"{opening}\n{inner}{flat[1:-1]}\n{outer}{closing}")
        return
    write(opening)
    separator = "\n"
    for key, item in value.items() if is_dict else enumerate(value):
        if is_dict:
            # json.dumps names a non-string key by its own encoding: 1 -> "1"
            name = key if isinstance(key, str) else json.dumps(key)
            write(f"{separator}{inner}{json.dumps(name)}: ")
        else:
            write(separator + inner)
        _write_json(write, item, inner)
        separator = ",\n"
    write(f"\n{outer}{closing}")


def _emit(doc: dict, out_path: str | None) -> None:
    """Write `json.dumps(doc, indent=2)` and a newline, streamed row by row
    through the C encoder (`_write_json`), so a table is never one string."""
    target = open(out_path, "w", encoding="utf-8") if out_path else nullcontext(sys.stdout)
    with target as handle:
        _write_json(handle.write, doc)
        handle.write("\n")


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
    _emit(_document("hur", request, {"value": str(value)}), args.out)
    return 0


def _cmd_char(args) -> int:
    table = character_table(args.d)
    payload = _table_payload(args.d, table)
    _emit(_document("char", {"d": args.d}, payload), args.out)
    return 0


def _cmd_cycle(args) -> int:
    from .gwh import completed_cycle

    cycle = completed_cycle(args.k, args.d)
    _emit(_document("cycle", {"d": args.d, "k": args.k}, cycle.value.to_dict()),
          args.out)
    return 0


def _cmd_gw(args) -> int:
    from .gwh import stationary_gw

    ks = _parse_ks(args.ks)
    got = stationary_gw(args.target_genus, args.d, ks)
    result = {"total": str(got.total),
              "by_genus": {str(g): str(v) for g, v in got.by_genus.items()}}
    request = {"target_genus": args.target_genus, "d": args.d, "ks": ks}
    _emit(_document("gw", request, result), args.out)
    return 0


def _cmd_ifun(args) -> int:
    from .gwh import i_function_empty, i_function_numeric

    eta = _parse_partition_flag("--eta", args.eta)
    if args.empty:
        got = i_function_empty(args.g, eta)
    else:
        if args.k is None:
            raise SystemExit("ifun: --k is required unless --empty is given")
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
    out = [()]
    out += [(p,) for p in parts]
    out += [(p, q) for i, p in enumerate(parts) for q in parts[i:]]
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gwhurwitz",
        description="Exact Hurwitz numbers, symmetric-group characters, "
                    "infinite-wedge correlators, completed cycles, and "
                    "stationary invariants of target curves.")
    parser.add_argument("--out", help="write the JSON document to this path")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("hur", help="Hurwitz numbers (character sum or oracle)")
    p.add_argument("--target-genus", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--profiles", help='semicolon-separated, e.g. "(3);(3);(3)"')
    p.add_argument("--connected", action="store_true")
    p.add_argument("--oracle", action="store_true",
                   help="brute-force monodromy count instead of characters")
    p.add_argument("--oracle-bound", type=int, default=DEFAULT_ORACLE_BOUND,
                   help=f"largest oracle degree; always below ORACLE_CEILING = {ORACLE_CEILING}")
    p.set_defaults(func=_cmd_hur)

    p = sub.add_parser("char", help="dump a character table")
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=_cmd_char)

    p = sub.add_parser("cycle", help="completed cycle as a class sum")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_cycle)

    p = sub.add_parser("gw", help="stationary invariants of a target curve")
    p.add_argument("--target-genus", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--ks", help='comma-separated descendent indices, e.g. "1,1"')
    p.set_defaults(func=_cmd_gw)

    p = sub.add_parser("ifun", help="numerical I-function coefficient")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--eta", required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--empty", action="store_true", help="no-marking evaluator")
    p.set_defaults(func=_cmd_ifun)

    p = sub.add_parser("elsv", help="Hodge-integral versus cover-count identity")
    p.add_argument("--mu", required=True)
    p.add_argument("--g", type=int, required=True)
    p.set_defaults(func=_cmd_elsv)

    p = sub.add_parser("verify", help="route equivalence and oracle suites")
    p.add_argument("--d-max", type=int, default=2)
    p.add_argument("--k-max", type=int, default=4)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # argparse reads "--flag=--" as an empty list; every flag here takes one value
        if any(isinstance(v, list) for v in vars(args).values()):
            parser.error("'--' is not a flag value")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"gwhurwitz: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
