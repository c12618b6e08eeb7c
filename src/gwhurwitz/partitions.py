"""Integer partitions: canonical tuples, enumeration, sub-multisets and
centralizer orders.

Partitions are canonical tuples of weakly decreasing positive integers;
the empty partition () is a first-class degree-0 value.  Every command
loads this module, so it holds only what the command line and every layer
read.  It builds no rational, so a process that builds none, such as
`char`, never loads `fractions` or the `decimal` it imports; the class sums
of partitions live in `cycles`.
"""

from __future__ import annotations

import math
from itertools import groupby


def as_partition(parts) -> tuple:
    """Canonicalize and validate an iterable of parts."""
    parts = tuple(sorted((int(p) for p in parts), reverse=True))
    if any(p < 1 for p in parts):
        raise ValueError(f"partition parts must be positive, got {parts}")
    return parts


def check_partition(mu) -> tuple:
    mu = tuple(mu)
    if any(mu[i] < mu[i + 1] for i in range(len(mu) - 1)) or any(p < 1 for p in mu):
        raise ValueError(f"not a canonical partition: {mu}")
    return mu


# full passes over the partitions of one degree (character tables and their
# column reads, completed cycles) stop at p(24) = 1575 classes; the d = 24
# table builds in 0.32-0.42 s in-process (2-core Xeon, CPython 3.11).  Single
# values through `characters.chi` are not capped
MAX_TABLE_DEGREE = 24


def check_table_degree(degree: int) -> None:
    """Refuse a degree above MAX_TABLE_DEGREE; cheap, so callers check first."""
    if degree > MAX_TABLE_DEGREE:
        raise ValueError(
            f"degree {degree} is above the character-table ceiling "
            f"MAX_TABLE_DEGREE = {MAX_TABLE_DEGREE}")


def enumerate_partitions(d: int) -> list:
    """All partitions of d, exactly once, in reverse-lexicographic order."""
    if d < 0:
        raise ValueError("d must be >= 0")
    out = []
    _descend(d, d, [], out)
    return out


def _descend(remaining: int, maxpart: int, prefix: list, out: list) -> None:
    # a module-level function, not a closure that calls itself: such a
    # closure is a reference cycle, left behind for the cycle collector
    if remaining == 0:
        out.append(tuple(prefix))
        return
    for p in range(min(maxpart, remaining), 0, -1):
        prefix.append(p)
        _descend(remaining - p, p, prefix, out)
        prefix.pop()


def sub_multisets(parts) -> list:
    """Each distinct sub-multiset of a partition's parts, as (sub, rest, ways).

    `sub` and `rest` are canonical and make up `parts` together; `ways` is
    the number of index sets that pick `sub`, prod over the values v of
    C(m_v, k_v), with m_v copies of v in `parts` and k_v of them in `sub`.
    """
    out = [((), (), 1)]
    for value, run in groupby(parts):
        m = len(list(run))
        out = [(sub + (value,) * k, rest + (value,) * (m - k), ways * math.comb(m, k))
               for sub, rest, ways in out for k in range(m + 1)]
    return out


def aut_size(mu) -> int:
    """Order of the part-permuting automorphism group: product of mult!'s."""
    out = 1
    run = 1
    for i in range(1, len(mu) + 1):
        if i < len(mu) and mu[i] == mu[i - 1]:
            run += 1
        else:
            out *= math.factorial(run)
            run = 1
    return out


def z_factor(mu) -> int:
    """Centralizer order of a permutation of cycle type mu: Aut(mu) * prod(parts)."""
    out = aut_size(mu)
    for p in mu:
        out *= p
    return out


def subpartitions_by_removing_ones(mu) -> list:
    """All ways to strip parts equal to 1, with binomial multiplicities.

    Returns pairs (mu_tilde, C(m1(mu), m1(mu_tilde))) where mu = (1^i, mu_tilde);
    includes mu itself and, when all parts are 1, the empty partition.
    """
    mu = check_partition(mu)
    core = tuple(p for p in mu if p > 1)
    return [(core + ones, ways) for ones, _rest, ways in reversed(sub_multisets(mu[len(core):]))]


def format_partition(mu) -> str:
    return "(" + ",".join(str(p) for p in mu) + ")"


def parse_partition(text: str) -> tuple:
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    text = text.strip()
    if not text:
        return ()
    return as_partition(int(p) for p in text.split(","))
