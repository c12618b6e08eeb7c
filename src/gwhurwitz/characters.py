"""Symmetric-group characters and central character values.

Characters are computed by the Murnaghan-Nakayama border-strip recursion on
beta-sets, memoized on (shape, remaining class) keys; whole tables per degree
are cached in memory.  The transposition eigenvalue f2 is computed from
shifted coordinates without touching characters, so the two can be compared
as independent routes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .partitions import check_partition, enumerate_partitions, z_factor


def _beta_set(lam):
    """First-column hook lengths lam_i + len - i as a strictly decreasing tuple."""
    n = len(lam)
    return tuple(lam[i] + n - 1 - i for i in range(n))


def _partition_from_beta(beta):
    """Inverse of _beta_set after removing leading-zero slack."""
    beta = sorted(beta, reverse=True)
    n = len(beta)
    parts = [beta[i] - (n - 1 - i) for i in range(n)]
    return tuple(p for p in parts if p > 0)


def _strip_removals(lam, m):
    """All ways to remove a border strip of m cells: (smaller shape, height)."""
    beta = _beta_set(lam)
    present = set(beta)
    out = []
    for b in beta:
        if b - m >= 0 and (b - m) not in present:
            height = sum(1 for x in beta if b - m < x < b)
            new_beta = [x for x in beta if x != b] + [b - m]
            out.append((_partition_from_beta(new_beta), height))
    return out


@lru_cache(maxsize=None)
def _chi(lam, mu) -> int:
    if not mu:
        return 1 if not lam else 0
    m = mu[0]
    total = 0
    for smaller, height in _strip_removals(lam, m):
        total += (-1) ** height * _chi(smaller, mu[1:])
    return total


def chi(lam, mu) -> int:
    """Irreducible character value at the class mu (largest strips first)."""
    lam = check_partition(lam)
    mu = check_partition(mu)
    if sum(lam) != sum(mu):
        raise ValueError(f"size mismatch: |{lam}| != |{mu}|")
    return _chi(lam, mu)


def dim_hook(lam) -> int:
    """Dimension of the irreducible: |lam|! over the product of hook lengths."""
    lam = check_partition(lam)
    n = sum(lam)
    if n == 0:
        return 1
    conj = [0] * lam[0]
    for p in lam:
        for j in range(p):
            conj[j] += 1
    num = math.factorial(n)
    for i, p in enumerate(lam):
        for j in range(p):
            num //= p - j + conj[j] - i - 1
    return num


def f_eta(eta, lam) -> Fraction:
    """Scalar by which the class sum of type eta acts on the irreducible lam."""
    eta = check_partition(eta)
    lam = check_partition(lam)
    d = sum(lam)
    if sum(eta) != d:
        raise ValueError(f"size mismatch: |{eta}| != |{lam}|")
    return Fraction(math.factorial(d), z_factor(eta)) * Fraction(chi(lam, eta), dim_hook(lam))


def f2_shifted(lam) -> Fraction:
    """Transposition eigenvalue from shifted coordinates lam_i - i + 1/2.

    Equals sum_i [(lam_i - i + 1/2)^2 - (-i + 1/2)^2] / 2, an integer; no
    character evaluation is involved.
    """
    lam = check_partition(lam)
    total = Fraction(0)
    for i, p in enumerate(lam, start=1):
        total += Fraction(p * (p - 2 * i + 1), 2)
    return total


def transposition_class(d: int) -> tuple:
    """The simple-branching class (2, 1^(d-2)) in degree d >= 2."""
    if d < 2:
        raise ValueError("no transpositions in degree < 2")
    return (2,) + (1,) * (d - 2)


class CharacterTable:
    """Full character table of one symmetric group, rows and columns in
    reverse-lexicographic partition order."""

    __slots__ = ("degree", "partitions", "matrix", "dims", "_index")

    def __init__(self, degree: int, partitions, matrix):
        self.degree = degree
        self.partitions = [check_partition(p) for p in partitions]
        self.matrix = [[int(v) for v in row] for row in matrix]
        self._index = {p: i for i, p in enumerate(self.partitions)}
        identity = (1,) * degree if degree else ()
        self.dims = {lam: self.matrix[i][self._index[identity]]
                     for i, lam in enumerate(self.partitions)}

    @classmethod
    def build(cls, degree: int) -> "CharacterTable":
        return _build_table(degree)

    def chi(self, lam, mu) -> int:
        return self.matrix[self._index[check_partition(lam)]][self._index[check_partition(mu)]]

    def dim(self, lam) -> int:
        return self.dims[check_partition(lam)]


@lru_cache(maxsize=None)
def _build_table(degree: int) -> CharacterTable:
    parts = enumerate_partitions(degree)
    matrix = [[_chi(lam, mu) for mu in parts] for lam in parts]
    return CharacterTable(degree, parts, matrix)
