"""Symmetric-group characters and central character values.

Characters are computed by the Murnaghan-Nakayama border-strip rule on
beta-sets stored as integer bit masks: removing a strip of m cells moves a
bead from b to an empty b - m, and its height is the number of beads in
between.  The requested classes form a tree by first part, in which equal
sets of rests share one node.  The kernel `_row` reads a shape's row over a
node's classes: for each first part m it removes the m-strips once and adds
the smaller shapes' rows over the rests with their signs.  A row is one
integer with a signed field per class, so adding a whole row is one integer
addition, and each node keeps one memo of rows keyed by mask.  A field is
the narrowest of 1, 2, 4 or 8 bytes that holds sqrt(d!), which bounds every
value of degree d.
`character_columns` yields one row at a time over only the columns it is
asked for.  Of each conjugate pair {lam, lam'} only the shape met first goes
through the kernel: lam' reads that shape's row again from the root, whose
children's memos are already filled, and applies the sign character to the
packed integer in three operations.  So the node tree and its memos are all
it holds.  `char` writes the rows as they come and the sums of `hurwitz` add
them up; only the wall-crossing route, which reads columns, lists them,
through `CharacterTable.build`.
`chi` reads one class the same way and is not capped.

Tables and column reads refuse degrees above MAX_TABLE_DEGREE before
enumerating anything.  The transposition eigenvalue f2 is computed from
shifted coordinates without touching characters, so the two can be compared
as independent routes.  Only `f_eta` and `f2_shifted` build rationals, and
they import `fractions` themselves: `char` never loads it.
"""

from __future__ import annotations

import math
import struct

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
    # a list, not a generator: a generator expression nested in another one
    # is left to the cycle collector
    return tuple([sum(1 for p in lam if p > j) for j in range(lam[0])]) if lam else ()


def _node(classes: list, nodes: dict, bits: int) -> tuple:
    """(groups, memo) of the node that reads `classes`, distinct partitions of
    one size in descending order, in fields of `bits` bits.

    The classes of first part m form one group (m, bead mask of the m - 1
    cells between, field offset of its first class, the child's groups and
    memo), whose rests are the child's classes in order.  `nodes` shares one
    node among equal sets of rests while the tree is built; the kernel never
    hashes a class.
    """
    if classes == [()]:
        return (), {0: 1}  # the empty shape at the empty class
    key = tuple(classes)
    if key not in nodes:
        by_first: dict = {}
        for mu in classes:
            by_first.setdefault(mu[0], []).append(mu[1:])
        groups, shift = [], 0
        for m, rests in by_first.items():
            groups.append((m, (1 << (m - 1)) - 1, shift, *_node(rests, nodes, bits)))
            shift += bits * len(rests)
        nodes[key] = tuple(groups), {}
    return nodes[key]


def _row(mask: int, groups: tuple) -> int:
    """Packed characters of the shape with beta-set `mask` at a node's classes.

    For each first part m, strips of m cells are removed once: a bead moves
    from b to an empty b - m, with sign (-1)^(beads strictly between), and
    empty rows (bead 0) are shifted away so every shape has one mask.  The
    smaller shape's packed row over the rests, kept in the child's memo, is
    added with that sign, which serves every class (m, rest) at once.
    """
    row = 0
    for m, between, shift, child, memo in groups:
        total = 0
        moves = (mask >> m) & ~mask  # bit j: a bead at j + m and none at j
        while moves:
            bit = moves & -moves
            moves ^= bit
            new = mask ^ bit ^ (bit << m)
            while new & 1:
                new >>= 1
            value = memo.get(new)
            if value is None:
                value = memo[new] = _row(new, child)
            if ((mask >> bit.bit_length()) & between).bit_count() & 1:
                total -= value
            else:
                total += value
        row += total << shift
    return row


def chi(lam, mu) -> int:
    """Irreducible character value at the class mu; the kernel's memos end with the call.

    One class packs into one field at offset 0, so the node needs no field
    width, and the value is read whole, with no bound on its size.
    """
    lam = check_partition(lam)
    mu = check_partition(mu)
    if sum(lam) != sum(mu):
        raise ValueError(f"size mismatch: |{lam}| != |{mu}|")
    return _row(_mask(lam), _node([mu], {}, 0)[0]) if mu else 1


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
    from fractions import Fraction

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
    from fractions import Fraction

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


def character_columns(degree: int, classes):
    """Iterator of [chi^lam(mu) for mu in classes], one row per partition lam
    of degree in `enumerate_partitions` order, each made as it is read.

    A caller that needs dim lam asks for (1^d); repeated classes are read
    once.  Both arguments are checked now, before any partition is enumerated.
    No row is kept once it is yielded: a conjugate's row is read again.
    """
    check_table_degree(degree)
    classes = [check_partition(mu) for mu in classes]
    for mu in classes:
        if sum(mu) != degree:
            raise ValueError(f"class {mu} is not a partition of {degree}")
    return _rows(degree, classes)


def _field(degree: int) -> tuple:
    """(bytes, struct code) of the narrowest signed field that holds every
    character value of the degree.

    |chi^lam(mu)| <= dim lam <= sqrt(d!), as the squares of the dimensions sum
    to d!: 1 byte up to d = 7, 2 up to 12, 4 up to 20 and 8 up to 24.
    """
    bound = math.isqrt(math.factorial(degree))
    return next((n, c) for n, c in ((1, "b"), (2, "h"), (4, "i"), (8, "q"))
                if bound >> (8 * n - 1) == 0)


def _rows(degree: int, classes: list):
    """Rows of `character_columns`, each read from the root and given away.

    chi^lam'(mu) = (-1)^(d - len(mu)) chi^lam(mu), so of each conjugate pair
    only the shape read first, the larger tuple, goes through the kernel: when
    the other is reached, that shape is read again from the root, whose
    children's memos already hold every row the pass needs.  Nothing else is
    held but the node tree and its memos.
    """
    order = sorted(set(classes), reverse=True)
    size, code = _field(degree)
    groups, memo = _node(order, {}, 8 * size)
    # adding the top bit of every field carries nothing across fields, and
    # xor with it leaves each field in two's complement
    width = len(order)
    bias = int.from_bytes((bytes(size - 1) + b"\x80") * width, "little")
    # the fields of the classes with d - len(mu) odd: a biased field b + v
    # there becomes b - v = 2b - (b + v), for all of them at once
    odd = int.from_bytes(b"".join(b"\xff" * size if (degree - len(mu)) & 1 else bytes(size)
                                  for mu in order), "little")
    even, lift = ~odd, 2 * (bias & odd)
    unpack = struct.Struct(f"<{width}{code}").unpack
    pick = list(map(dict(zip(order, range(width))).__getitem__, classes))

    def read(lam, twin):
        mask = _mask(max(lam, twin))
        # at d = 0 the root is a leaf, whose memo holds the row before any kernel run
        packed = (memo.get(mask) or _row(mask, groups)) + bias
        if twin > lam:
            packed = (packed & even) - (packed & odd) + lift
        return list(map(unpack((packed ^ bias).to_bytes(size * width, "little")).__getitem__,
                        pick))

    for lam in enumerate_partitions(degree):
        yield read(lam, _conjugate(lam))


class CharacterTable:
    """Full character table of one symmetric group, rows and columns in
    reverse-lexicographic partition order."""

    __slots__ = ("degree", "partitions", "matrix", "dims", "_index")

    def __init__(self, degree: int, partitions, matrix):
        self.degree = degree
        self.partitions = [check_partition(p) for p in partitions]
        self.matrix = matrix  # `_build_table` hands over fresh lists of ints: no copy
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


def _build_table(degree: int) -> CharacterTable:
    """Every row of `character_columns`, listed: the wall-crossing route reads columns."""
    check_table_degree(degree)
    parts = enumerate_partitions(degree)
    return CharacterTable(degree, parts, list(character_columns(degree, parts)))
