"""Integer partitions and the class algebra of formal partition sums.

Partitions are canonical tuples of weakly decreasing positive integers;
the empty partition () is a first-class degree-0 value.  `ClassSum` holds a
formal rational linear combination of partitions of one fixed degree.  Its
methods import `fractions` when they build a rational, so a process that
builds none, such as `char`, never loads it or the `decimal` it imports.
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


class ClassSum:
    """A formal rational combination of partitions of one fixed degree."""

    __slots__ = ("degree", "terms")

    def __init__(self, degree: int, terms=None):
        from fractions import Fraction

        if degree < 1:
            raise ValueError("class sums live in degree >= 1")
        self.degree = degree
        clean = {}
        for mu, c in (terms or {}).items():
            mu = check_partition(mu)
            if sum(mu) != degree:
                raise ValueError(f"{mu} is not a partition of {degree}")
            c = Fraction(c)
            if c:
                clean[mu] = c
        self.terms = clean

    @classmethod
    def single(cls, mu, coefficient=1):
        mu = check_partition(mu)
        return cls(sum(mu), {mu: coefficient})

    def coefficient(self, mu) -> Fraction:
        from fractions import Fraction

        return self.terms.get(check_partition(mu), Fraction(0))

    def _check_degree(self, other):
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")

    def __add__(self, other):
        from fractions import Fraction

        self._check_degree(other)
        terms = dict(self.terms)
        for mu, c in other.terms.items():
            terms[mu] = terms.get(mu, Fraction(0)) + c
        return ClassSum(self.degree, terms)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        from fractions import Fraction

        c = Fraction(c)
        return ClassSum(self.degree, {mu: v * c for mu, v in self.terms.items()})

    def __eq__(self, other):
        return (isinstance(other, ClassSum) and self.degree == other.degree
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.degree, tuple(sorted(self.terms.items()))))

    def items_canonical(self):
        """(partition, coefficient) pairs in reverse-lexicographic order."""
        return [(mu, self.terms[mu]) for mu in enumerate_partitions(self.degree)
                if mu in self.terms]

    def to_dict(self) -> dict:
        return {format_partition(mu): str(c) for mu, c in self.items_canonical()}

    def __repr__(self):
        if not self.terms:
            return f"ClassSum({self.degree}, 0)"
        body = " + ".join(f"{c}*{format_partition(mu)}"
                          for mu, c in self.items_canonical())
        return f"ClassSum({self.degree}, {body})"

