"""Hurwitz numbers of target curves: character sums and brute-force counts.

`hurwitz_disconnected` and the graded `branching_sums` evaluate the
character-sum formula over only the character columns their classes need
(`characters.character_columns`, row by row), in integers: one rational
weight per dimension and one constant at the end.  The monodromy oracle
counts permutation tuples directly (product of h commutators times one
permutation per branch profile equals the identity), so every
normalization in the package can be pinned against honest enumeration.
Simultaneous conjugation keeps every condition on a tuple, so the oracle
fixes one entry to a class representative weighted by the class size, and
multiplies permutations as tuples in a sweep over (partial product, orbit
labels) pairs; it builds no product table.  Transitivity is tracked through
the join of the generators' orbit partitions, each a tuple of every point's
least orbit-mate, and a count that does not ask for transitivity keeps
every partition discrete.  Only the character sums import `characters`, so
the oracle, their independent check, runs without it.  No count here builds
a series, so the series core `qseries` is never loaded.  No memo outlives a
call: the connected recursion keeps its sub-problems for one count, and the
oracle its orbit joins.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, namedtuple
from fractions import Fraction
from functools import cache
from operator import itemgetter

from . import DEFAULT_ORACLE_BOUND, ORACLE_CEILING
from .partitions import (ClassSum, check_partition, check_table_degree, enumerate_partitions,
                         format_partition, sub_multisets, z_factor)


class BranchData(namedtuple("BranchData", "target_genus degree profiles")):
    """A target genus, a degree, and an ordered list of branch profiles,
    validated on construction."""

    __slots__ = ()

    def __new__(cls, target_genus: int, degree: int, profiles: tuple = ()):
        if target_genus < 0 or degree < 1:
            raise ValueError("need target_genus >= 0 and degree >= 1")
        profiles = tuple(check_partition(p) for p in profiles)
        for p in profiles:
            if sum(p) != degree:
                raise ValueError(f"profile {p} is not a partition of {degree}")
        return super().__new__(cls, target_genus, degree, profiles)

    @classmethod
    def _make(cls, iterable):
        # namedtuple's own `_make`, which `_replace` calls, skips `__new__`
        return cls(*iterable)


# ----------------------------------------------------------- character side


# A character sum of n factors over a genus-h target works in integers of
# about B = (2h + n) log2(d!) bits, the size of d!^(2h-2+n), over p(d) rows,
# and its divisions and gcds are quadratic in that size: the cost p(d) B^2.
# In-process (2-core Xeon, CPython 3.11), two simple points, near the limit:
# d = 12 at h = 8726 5.0 s, d = 20 at h = 1332 4.6 s, d = 4 at h = 146385
# 3.5 s; past it: d = 12 at h = 13961 11.9 s, d = 20 at h = 2131 12.7 s,
# d = 24 at h = 833 8.0 s.  A process asked for d = 12 at h = 20000 ran 21 s
# before failing to print its value.
# A `gw` insertion of index k weighs more.  Its completed cycle's
# denominators add about log2((k+2)!) bits to B, and its branchings, of the
# parity of k and at most min(k, d - 1), span up to d - 1 grades.  With S
# the sum of the spans, each row folds in about S^2/8 grade products of
# B-bit integers, and each of the S/2 grades is reduced by one gcd over the
# grades' shared denominator: the cost is B ((p(d) + 10 S) B + 100 p(d) S^2),
# which is p(d) B^2 with no insertions, fitted to the times of k = 2..80 at
# d = 3..24 within a factor of 2.  Near the limit, at genus 0, n insertions
# of one k (CPU time): d = 3 with 172 of k = 80 1.9 s and 468 of k = 20
# 2.4 s, d = 4 with 603 of k = 10 4.7 s, d = 8 with 76 of k = 80 5.1 s,
# d = 12 with 50 of k = 40 6.1 s, d = 16 with 162 of k = 2 4.4 s, d = 24
# with 26 of k = 8 4.0 s and 8 of k = 80 10.4 s.  Past it: d = 3 with 400
# of k = 80 21 s.  A class sum of `hurwitz_classsum` weighs as an insertion
# does, by the bits of its coefficients' common denominator and the spread
# of its branchings: 512 copies of the completed cycle of k = 80 at d = 3
# would count for 19 s.  A sum above MAX_GENUS_COST is refused before any
# column is read or cycle computed.
MAX_GENUS_COST = 20_000_000_000_000


def _check_genus(h: int, d: int, n: int, weights=()) -> None:
    """Refuse, before any column is read, a degree above MAX_TABLE_DEGREE,
    then a sum of n factors whose cost B ((p(d) + 10 S) B + 100 p(d) S^2) is
    above MAX_GENUS_COST (see there for B and S); `weights` holds the
    (bits, span) of each weighed factor."""
    check_table_degree(d)
    bits, span = (2 * h + n) * math.factorial(d).bit_length(), 0
    for extra, width in weights:
        bits, span = bits + extra, span + width
    rows = len(enumerate_partitions(d))
    if (cost := bits * ((rows + 10 * span) * bits + 100 * rows * span ** 2)) > MAX_GENUS_COST:
        raise ValueError(f"target genus {h} in degree {d} with n = {n} factors costs "
                         f"B ((p(d) + 10 S) B + 100 p(d) S^2) = {cost} for B = {bits} "
                         f"bits and S = {span}, above MAX_GENUS_COST = {MAX_GENUS_COST}")


def _class_sum_weight(a: ClassSum) -> tuple[int, int]:
    """The (bits, span) of a class sum: the bits of its coefficients' common
    denominator, and the spread of its terms' branchings."""
    branchings = [a.degree - len(mu) for mu in a.terms]
    den = math.lcm(*(c.denominator for c in a.terms.values()))
    return den.bit_length(), max(branchings, default=0) - min(branchings, default=0)


def _dim_weights(dims, exponent: int) -> tuple[dict, int]:
    """Integer weights w and one denominator L with dim^exponent = w[dim] / L
    for every dim: L is lcm(dims)^-exponent when the exponent is negative,
    else 1."""
    k = max(-exponent, 0)
    den = math.lcm(*dims) ** k
    return {dim: den // dim ** k * dim ** max(exponent, 0) for dim in dims}, den


def branching_sums(h: int, d: int, factors) -> tuple[dict, Fraction]:
    """Character sum of a product of class sums over a genus-h target, as
    integer sums by grade and one rational scale: grade b is sums[b] * scale.

    Each factor is an iterable of (partition, coefficient) pairs of degree d;
    grade b keeps the monomials of total branching b = sum_j (d - len(mu_j)).
    A factor's coefficients times d!/z(mu) are brought to integer numerators
    over one denominator, so per lam the grades are integer sums of character
    products.  Rows of equal dimension are added up first, and the weight
    dim^(2-2h-n) is applied once per (dimension, grade) as an integer over
    lcm(dims)^(2h+n-2).  So every grade shares one denominator, and the scale
    d!^(2h-2) / (the factors' denominators times that lcm power) is one
    Fraction: a caller reduces each grade, or a sum of grades, once.
    """
    from .characters import character_columns

    dfact = math.factorial(d)
    columns = {}  # class -> its position among the columns read
    factor_terms = []
    den = 1
    for factor in factors:
        scaled = [(mu, c * Fraction(dfact, z_factor(mu))) for mu, c in factor]
        fden = math.lcm(*(s.denominator for _mu, s in scaled))
        den *= fden
        factor_terms.append([(d - len(mu), columns.setdefault(mu, len(columns)),
                              s.numerator * (fden // s.denominator)) for mu, s in scaled])
    identity = columns.setdefault((1,) * d, len(columns))  # chi^lam(1^d) = dim lam
    by_grade = {}  # grade -> {dim: integer sum over the rows of that dim}
    for chis in character_columns(d, columns):
        dim = chis[identity]
        grades = {0: 1}
        for terms in factor_terms:
            central = {}  # the factor's integer central character times dim, by branching
            for branching, col, num in terms:
                central[branching] = central.get(branching, 0) + num * chis[col]
            new = {}
            for b, value in grades.items():
                for branching, c in central.items():
                    key = b + branching
                    new[key] = new.get(key, 0) + value * c
            grades = new
        for b, value in grades.items():
            acc = by_grade.setdefault(b, {})
            acc[dim] = acc.get(dim, 0) + value
    weights, dim_den = _dim_weights({dim for acc in by_grade.values() for dim in acc},
                                    2 - 2 * h - len(factor_terms))
    sums = {b: sum(value * weights[dim] for dim, value in acc.items())
            for b, acc in by_grade.items()}
    return sums, Fraction(dfact) ** (2 * h - 2) / (den * dim_den)


def hurwitz_disconnected(branch: BranchData) -> Fraction:
    """Weighted count of possibly-disconnected covers via character sums.

    The count is d!^(2h-2+n) / prod z(eta) times
    sum_lam dim^(2-2h-n) prod_eta chi^lam(eta), over the n profiles eta; a
    repeated profile is one column raised to its multiplicity.  A cost above
    MAX_GENUS_COST is refused first.
    """
    _check_genus(branch.target_genus, branch.degree, len(branch.profiles))
    return _disconnected(branch.target_genus, branch.degree, branch.profiles)


def _disconnected(h: int, d: int, profiles: tuple) -> Fraction:
    from .characters import character_columns

    counts = Counter(profiles)
    powers = list(counts.values())
    by_dim = {}
    # the last column is the identity class, chi^lam(1^d) = dim lam; `map`
    # stops at the shorter `powers`, so it takes no part in the product
    for chis in character_columns(d, [*counts, (1,) * d]):
        dim = chis[-1]
        by_dim[dim] = by_dim.get(dim, 0) + math.prod(map(pow, chis, powers))
    n = len(profiles)
    weights, dim_den = _dim_weights(by_dim, 2 - 2 * h - n)
    scale = (Fraction(math.factorial(d)) ** (2 * h - 2 + n)
             / (math.prod(z_factor(eta) ** m for eta, m in counts.items()) * dim_den))
    return scale * sum(value * weights[dim] for dim, value in by_dim.items())


def hurwitz_classsum(h: int, d: int, args) -> Fraction:
    """Multilinear extension of the disconnected count to formal class sums;
    a cost above MAX_GENUS_COST, each class sum weighed as a `gw` insertion
    by its denominators and branchings, is refused first."""
    args = list(args)
    for a in args:
        if not isinstance(a, ClassSum) or a.degree != d:
            raise ValueError("arguments must be class sums of the stated degree")
    _check_genus(h, d, len(args), [_class_sum_weight(a) for a in args])
    sums, scale = branching_sums(h, d, [a.terms.items() for a in args])
    return scale * sum(sums.values())


# ------------------------------------------------------------- brute force


def _compose(p: tuple):
    """The map x -> x o p on permutation tuples; a one-item `itemgetter` would
    return a scalar, and the only permutation of one point is the identity."""
    return itemgetter(*p) if len(p) > 1 else tuple


def _orbits(p: tuple) -> tuple:
    """The orbit labels of p, each point's least orbit-mate, and its cycle type."""
    labels = [-1] * len(p)
    lengths = []
    for x in range(len(p)):
        y, n = x, 0
        while labels[y] < 0:
            labels[y] = x
            y, n = p[y], n + 1
        if n:
            lengths.append(n)
    return tuple(labels), tuple(sorted(lengths, reverse=True))


def _join(a: tuple, b: tuple) -> tuple:
    """The orbit labels of the partition generated by two label tuples: a
    union-find that starts from a's labels and keeps each block's least point
    as its root."""
    root = list(a)

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for x, y in enumerate(b):
        rx, ry = find(x), find(y)
        if rx != ry:
            root[max(rx, ry)] = min(rx, ry)
    return tuple(map(find, range(len(a))))


def monodromy_oracle(branch: BranchData, transitive_only: bool = False,
                     degree_bound: int = DEFAULT_ORACLE_BOUND) -> Fraction:
    """Count monodromy tuples by direct enumeration, divided by d!.

    Tuples are (a_1, b_1, .., a_h, b_h, s_1, .., s_n) with the product of
    commutators times the s_j equal to the identity and each s_j in the
    conjugacy class of the j-th profile; with `transitive_only` the group
    generated by all entries must act transitively.

    Simultaneous conjugation keeps the product, every class and
    transitivity, so one entry runs over class representatives only, each
    weighted by its class size: at genus 0 the largest profile's entry is
    fixed, and at genus >= 1 a_1 is, while b_1 runs over S_d.  Later pairs
    sweep all d!^2 (a, b).  A sweep over (partial product, orbit labels of
    the partial join) states multiplies the other entries in as tuples.  The
    last entry must be the inverse of the partial product, which lies in the
    closing class exactly when the partial product does, and adds no orbit.
    The profiles are swept in ascending class size and the largest left
    closes the sweep; the count does not depend on the order, since Hurwitz
    moves swap neighbouring profiles and keep both the product and the
    generated group.
    """
    d, h = branch.degree, branch.target_genus
    if d >= ORACLE_CEILING:
        raise ValueError(
            f"degree {d} is at or above the oracle's ceiling {ORACLE_CEILING}: a genus >= 2 "
            f"count would sweep all {d}!x{d}! pairs, about "
            f"{math.factorial(d) ** 2:.1e} entries")
    if d > degree_bound:
        raise ValueError(f"degree {d} exceeds the brute-force bound {degree_bound}")
    classes = {}  # cycle type -> [(element, its orbit labels)]
    for p in itertools.permutations(range(d)):
        labels, shape = _orbits(p)
        classes.setdefault(shape, []).append((p, labels))
    discrete = identity = tuple(range(d))
    target = (0,) * d if transitive_only else discrete
    joins = {}  # one call's memo

    def orbits(labels):
        # only transitivity reads the joins, so other counts keep them discrete
        return labels if transitive_only else discrete

    def join(a, b):
        if a == b:
            return a
        got = joins.get((a, b))
        if got is None:
            got = joins[a, b] = _join(a, b)
        return got

    def pairs(firsts):
        """Weighted counts of ([a, b], orbits of <a, b>) over the (a, labels,
        weight) of `firsts` and every b."""
        seconds = [(_compose(b), _compose(tuple(map(b.index, identity))), orbits(lb))
                   for members in classes.values() for b, lb in members]
        dist = {}
        for a, la, w in firsts:
            a_inv, la = _compose(tuple(map(a.index, identity))), orbits(la)
            for b, b_inv, lb in seconds:
                key = (b_inv(a_inv(b(a))), join(la, lb))
                dist[key] = dist.get(key, 0) + w
        return dist

    profiles = sorted(branch.profiles, key=lambda eta: len(classes[eta]))
    steps = []
    if h:
        state = pairs([(*members[0], len(members)) for members in classes.values()])
        if h > 1:
            everything = [(b, lb, 1) for members in classes.values() for b, lb in members]
            later = [(_compose(g), labels, w) for (g, labels), w in pairs(everything).items()]
            steps = [later] * (h - 1)
    elif profiles:
        members = classes[profiles.pop()]
        rep, labels = members[0]
        state = {(rep, orbits(labels)): len(members)}
    else:
        state = {(identity, discrete): 1}
    # an empty tuple is closed by the identity
    closing = {p for p, _labels in classes[profiles.pop() if profiles else (1,) * d]}
    steps += [[(_compose(p), orbits(labels), 1) for p, labels in classes[eta]]
              for eta in profiles]
    for step in steps:
        new = {}
        for (g, labels), c in state.items():
            for compose, labels2, w in step:
                key = (compose(g), join(labels, labels2))
                new[key] = new.get(key, 0) + c * w
        state = new
    count = sum(c for (g, labels), c in state.items() if labels == target and g in closing)
    return Fraction(count, math.factorial(d))


# ------------------------------------------------- connected from splittings


# The cover counts of `gwh.elsv_check` and of `hurwitz_connected` on
# (mu, tau^m) have about Q m sub-problems, where Q counts the nested
# sub-multisets B of A of mu with 2 <= |B| <= |A| - 2: the carvings in which
# tau can give its 2-cycle to either side.  Each reads about m character
# sums over integers of about m log2(d!) bits, and the time per unit grows
# like d^2, so a cost d^2 m^2 (1 + Q m) above MAX_COVER_COST is refused
# before any count (by `elsv_check` after the series limits and before any
# series).  The model is good to a factor of about 5 across profiles.
# In-process (2-core Xeon, CPython 3.11), admitted counts took: (5,3,2) at
# m = 167 17.3 s, (6,5,4) at m = 128 14.0 s, (4,2) at m = 430 12.7 s,
# (3,2,1) at m = 287 (g = 140) 3.1 s, and the one-part (12), where Q = 0, at
# m = 617 (g = 303) 1.4 s; refused: (3,2,1) at m = 607 (g = 300) 33 s and at
# m = 311 5.3 s, (2,2,1,1) at m = 312 15.8 s.
MAX_COVER_COST = 6_000_000_000


def _check_cover(request: str, mu: tuple, m: int) -> None:
    """Refuse, before any count, a cover count costing d^2 m^2 (1 + Q m)
    above MAX_COVER_COST (see there for Q)."""
    split = sum(1 for a, _rest, _ways in sub_multisets(mu)
                for b, _rest, _ways in sub_multisets(a) if 2 <= sum(b) <= sum(a) - 2)
    if (cost := sum(mu) ** 2 * m ** 2 * (1 + split * m)) > MAX_COVER_COST:
        raise ValueError(f"{request} at {format_partition(mu)} counts covers with m = {m} "
                         f"and Q = {split} at cost d^2 m^2 (1 + Q m) = {cost}, "
                         f"above MAX_COVER_COST = {MAX_COVER_COST}")


def _branched(shares) -> tuple:
    """The shares other than an unbranched (1^k), which multiplies every count by 1."""
    return tuple(sorted(s for s in shares if s[0] > 1))


def hurwitz_connected(branch: BranchData) -> Fraction:
    """Weighted count of connected covers with the prescribed profiles.

    Splittings are removed by a marked-sheet recursion: the component
    containing a marked sheet has degree d1 and is connected; summing over
    d1 < d with weight d1/d and over all distributions of each profile's
    parts removes every disconnected configuration exactly once.  A
    profile's share of the marked component is one of its distinct
    sub-multisets of total d1 (`partitions.sub_multisets`), taken once, not
    once per index set: the parts of a cycle type are unlabelled.  Its
    sub-profiles are canonical by construction, and the recursion, the
    disconnected counts and the carvings are memoized for this call only.
    An unbranched profile or share (1^k) multiplies every count by 1 and is
    dropped.  The whole recursion is validated against the transitive
    oracle.  A cost above MAX_GENUS_COST is refused first, then, when the
    profiles are m simple points and at most one other profile mu, a cover
    count above MAX_COVER_COST (with mu = tau and m - 1 if all are simple).
    """
    h, d = branch.target_genus, branch.degree
    _check_genus(h, d, len(branch.profiles))
    profiles = _branched(branch.profiles)
    simple = (2,) + (1,) * (d - 2)
    others = [p for p in profiles if p != simple]
    m = len(profiles) - len(others)
    if not others and m:
        others, m = [simple], m - 1
    if len(others) == 1:
        _check_cover(f"target genus {h}", others[0], m)
    disconnected = cache(_disconnected)

    @cache
    def carvings(eta: tuple, d1: int) -> list:
        return [(sub, rest) for sub, rest, _ways in sub_multisets(eta) if sum(sub) == d1]

    @cache
    def connected(h: int, d: int, profiles: tuple) -> Fraction:
        total = disconnected(h, d, profiles)
        repeats = Counter(profiles)
        for d1 in range(1, d):
            weight = Fraction(d1, d)
            # fold each distinct profile in once: m copies of it are carved by a
            # multiset of m carvings, counted by its number of orderings, since
            # distributions with the same sorted outcome contribute the same term
            folds = {((), ()): 1}
            for eta, m in repeats.items():
                choices = []
                for combo in itertools.combinations_with_replacement(carvings(eta, d1), m):
                    ways = math.factorial(m)
                    for k in Counter(combo).values():
                        ways //= math.factorial(k)
                    carved, rest = zip(*combo)
                    choices.append((_branched(carved), _branched(rest), ways))
                new = {}
                for (left, right), count in folds.items():
                    for carved, rest, ways in choices:
                        key = (tuple(sorted(left + carved)), tuple(sorted(right + rest)))
                        new[key] = new.get(key, 0) + count * ways
                folds = new
            for (left, right), count in folds.items():
                total -= (count * weight * connected(h, d1, left)
                          * disconnected(h, d - d1, right))
        return total

    try:
        return connected(h, d, profiles)
    finally:
        # `connected` calls itself through this closure cell, a reference
        # cycle; emptying the cell lets reference counting free the memos
        connected = None
