"""Symmetric-group characters and central character values.

Characters are computed by the Murnaghan-Nakayama border-strip recursion on
beta-sets stored as integer bit masks: removing a strip of m cells moves a
bead from b to an empty b - m, and its height is the number of beads in
between.  Values are memoized in one dict per remaining class, keyed by
mask, with the largest part of the class stripped first.
`character_columns` reads only the columns it is asked for: one row of each
conjugate pair {lam, lam'} by the recursion and the other by the sign
character, with a memo that ends with the call.  The character sums of
`hurwitz` use it.  `CharacterTable.build` is the same read over every class;
the last few whole tables are cached in memory, and `char` and the
wall-crossing route use them.

Both refuse degrees above MAX_TABLE_DEGREE before enumerating anything.  The
transposition eigenvalue f2 is computed from shifted coordinates without
touching characters, so the two can be compared as independent routes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

# the ceiling lives in `partitions`, so `cycle` refuses without loading this
# module; callers read it here too
from .partitions import (MAX_TABLE_DEGREE, check_partition, check_table_degree,
                         enumerate_partitions, z_factor)


def _mask(lam) -> int:
    """Beta-set of lam as a bit mask: bit lam_i + len - 1 - i for each row i."""
    n = len(lam)
    mask = 0
    for i, p in enumerate(lam):
        mask |= 1 << (p + n - 1 - i)
    return mask


def _conjugate(lam) -> tuple:
    """Transposed shape: column lengths of lam."""
    return tuple(sum(1 for p in lam if p > j) for j in range(lam[0])) if lam else ()


def _mn(mask: int, mu: tuple, memo: dict) -> int:
    """Character of the shape with beta-set `mask` at the class mu.

    Strips a border strip of mu[0] cells, that is, moves a bead from b to an
    empty b - mu[0], with sign (-1)^(beads strictly between); empty rows
    (bead 0) are shifted away so every shape has one mask.  Values of the
    smaller shapes are kept in memo[mu[1:]][mask].
    """
    if not mu:
        return 1
    m = mu[0]
    rest = mu[1:]
    sub = memo.get(rest)
    if sub is None:
        sub = memo[rest] = {}
    between = (1 << (m - 1)) - 1
    total = 0
    moves = (mask >> m) & ~mask  # bit j: a bead at j + m and none at j
    while moves:
        bit = moves & -moves
        moves ^= bit
        new = mask ^ bit ^ (bit << m)
        while new & 1:
            new >>= 1
        value = sub.get(new)
        if value is None:
            value = sub[new] = _mn(new, rest, memo)
        if ((mask >> bit.bit_length()) & between).bit_count() & 1:
            total -= value
        else:
            total += value
    return total


def chi(lam, mu) -> int:
    """Irreducible character value at the class mu; the recursion's memo ends with the call."""
    lam = check_partition(lam)
    mu = check_partition(mu)
    if sum(lam) != sum(mu):
        raise ValueError(f"size mismatch: |{lam}| != |{mu}|")
    return _mn(_mask(lam), mu, {})


def dim_hook(lam) -> int:
    """Dimension of the irreducible: |lam|! over the product of hook lengths."""
    lam = check_partition(lam)
    n = sum(lam)
    if n == 0:
        return 1
    conj = _conjugate(lam)
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


def character_columns(degree: int, classes) -> list:
    """[chi^lam(mu) for mu in classes] for each partition lam of degree.

    Rows come in `enumerate_partitions` order, as in a `CharacterTable`, but
    only the requested columns are computed; a caller that needs dim lam asks
    for the identity class (1^d).  One row of each conjugate pair is read by
    the recursion and the other by chi^lam'(mu) = (-1)^(d - len(mu)) chi^lam(mu),
    and the memo ends with the call.
    """
    check_table_degree(degree)
    classes = [check_partition(mu) for mu in classes]
    for mu in classes:
        if sum(mu) != degree:
            raise ValueError(f"class {mu} is not a partition of {degree}")
    parts = enumerate_partitions(degree)
    index = {lam: i for i, lam in enumerate(parts)}
    signs = [-1 if (degree - len(mu)) & 1 else 1 for mu in classes]
    memo: dict = {}
    rows = []
    for lam in parts:
        twin = index[_conjugate(lam)]
        if twin < len(rows):
            rows.append([s * v for s, v in zip(signs, rows[twin])])
        else:
            mask = _mask(lam)
            rows.append([_mn(mask, mu, memo) for mu in classes])
    return rows


class CharacterTable:
    """Full character table of one symmetric group, rows and columns in
    reverse-lexicographic partition order."""

    __slots__ = ("degree", "partitions", "matrix", "dims", "_index")

    def __init__(self, degree: int, partitions, matrix):
        self.degree = degree
        self.partitions = [check_partition(p) for p in partitions]
        self.matrix = matrix  # both callers hand over fresh lists of ints: no copy
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


# a d = 24 table holds 1575^2 values, and callers read one degree at a time
@lru_cache(maxsize=4)
def _build_table(degree: int) -> CharacterTable:
    """Every column, read by `character_columns`; the last few are kept."""
    check_table_degree(degree)
    parts = enumerate_partitions(degree)
    return CharacterTable(degree, parts, character_columns(degree, parts))
