"""Hurwitz numbers of target curves by character sums.

One kernel, `branching_sums`, evaluates the character-sum formula over only
the character columns its classes need (`characters.character_columns`,
row by row), in integers graded by branching: one rational weight per
dimension and one constant at the end.  `hurwitz_disconnected`,
`hurwitz_classsum` and `cycles.stationary_gw` read it, and
`hurwitz_connected` removes the splittings by a marked-sheet recursion over
its counts, keyed by (profile, copies) pairs whose copies it deals out to
the shares by binomials.  The brute-force count they are checked against,
the monodromy oracle, lives in `oracle` and shares no code with them but
`BranchData` (in `branch`), so `hur --oracle` compiles none of this module.
No count here builds a series, so `qseries` is never loaded, and no memo
outlives a call.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import cache

from .branch import BranchData
from .partitions import (check_table_degree, enumerate_partitions, format_partition,
                         sub_multisets, z_factor)


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
    It is the module's only reader of characters.

    Each factor is an iterable of (partition, coefficient) pairs of degree d;
    grade b keeps the monomials of total branching b = sum_j (d - len(mu_j)).
    A factor's coefficients times d!/z(mu) are brought to integer numerators
    over one denominator, so per lam the grades are integer sums of character
    products.  Equal factors are read once per row: one of a single branching
    (a single class) is raised to its multiplicity by one power, any other is
    multiplied in once per copy.  Rows of equal dimension are added up first,
    and the weight dim^(2-2h-n) is applied once per (dimension, grade) as an
    integer over lcm(dims)^(2h+n-2).  So every grade shares one denominator,
    and the scale d!^(2h-2) / (the factors' denominators times that lcm power)
    is one Fraction: a caller reduces each grade, or a sum of grades, once.
    """
    from .characters import character_columns

    dfact = math.factorial(d)
    columns = {}  # class -> its position among the columns read
    factor_terms = []  # (copies, [(branching, column, integer numerator)])
    den, n = 1, 0
    for factor, copies in Counter(map(tuple, factors)).items():
        scaled = [(mu, c * (dfact // z_factor(mu))) for mu, c in factor]
        fden = math.lcm(*(s.denominator for _mu, s in scaled))
        den, n = den * fden ** copies, n + copies
        factor_terms.append((copies, [(d - len(mu), columns.setdefault(mu, len(columns)),
                                       s.numerator * (fden // s.denominator))
                                      for mu, s in scaled]))
    identity = columns.setdefault((1,) * d, len(columns))  # chi^lam(1^d) = dim lam
    by_grade = {}  # grade -> {dim: integer sum over the rows of that dim}
    for chis in character_columns(d, columns):
        dim = chis[identity]
        grades = {0: 1}
        for copies, terms in factor_terms:
            central = {}  # the factor's integer central character times dim, by branching
            for branching, col, num in terms:
                central[branching] = central.get(branching, 0) + num * chis[col]
            if len(central) == 1:  # one branching: its power is one product
                [(branching, c)] = central.items()
                central, copies = {branching * copies: c ** copies}, 1
            for _ in range(copies):
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
                                    2 - 2 * h - n)
    sums = {b: sum(value * weights[dim] for dim, value in acc.items())
            for b, acc in by_grade.items()}
    return sums, Fraction(dfact) ** (2 * h - 2) / (den * dim_den)


def hurwitz_disconnected(branch: BranchData) -> Fraction:
    """Weighted count of possibly-disconnected covers via character sums.

    The count is d!^(2h-2+n) / prod z(eta) times
    sum_lam dim^(2-2h-n) prod_eta chi^lam(eta), over the n profiles eta: the
    sum of every grade of `branching_sums` with one factor per profile's
    class.  A cost above MAX_GENUS_COST is refused first.
    """
    h, d = branch.target_genus, branch.degree
    _check_genus(h, d, len(branch.profiles))
    return _disconnected(h, d, tuple(Counter(branch.profiles).items()))


def _disconnected(h: int, d: int, pairs: tuple) -> Fraction:
    sums, scale = branching_sums(h, d, [((eta, 1),) for eta, m in pairs for _ in range(m)])
    return scale * sum(sums.values())


def hurwitz_classsum(h: int, d: int, args) -> Fraction:
    """Multilinear extension of the disconnected count to formal class sums;
    a cost above MAX_GENUS_COST, each class sum weighed as a `gw` insertion
    by its denominators and branchings, is refused first."""
    from .cycles import ClassSum

    args = list(args)
    for a in args:
        if not isinstance(a, ClassSum) or a.degree != d:
            raise ValueError("arguments must be class sums of the stated degree")
    _check_genus(h, d, len(args), [_class_sum_weight(a) for a in args])
    sums, scale = branching_sums(h, d, [a.terms.items() for a in args])
    return scale * sum(sums.values())


# ------------------------------------------------- connected from splittings


# The cover counts of `gwh.elsv_check` and of `hurwitz_connected` on
# (mu, tau^m) have about Q m sub-problems, where Q counts the nested
# sub-multisets B of A of mu with 2 <= |B| <= |A| - 2: the carvings in which
# tau can give its 2-cycle to either side.  Each reads about m character
# sums over integers of about m log2(d!) bits, and the time per unit grows
# like d^2, so a cost d^2 m^2 (1 + Q m) above MAX_COVER_COST is refused
# before any count (by `elsv_check` after the series limits and before any
# series).  The model was fitted, within a factor of about 5, to the times
# of an older fold, which sorted the m shares of every carving; the refused
# times below are that fold's.  In-process (2-core Xeon, CPython 3.11, CPU
# time, best of 3), admitted counts took: (5,3,2) at m = 167 1.45 s,
# (6,5,4) at m = 128 1.47 s, (4,2) at m = 430 0.55 s, (3,2,1) at m = 287
# (g = 140) 0.31 s, the one-part (12), where Q = 0, at m = 617 (g = 303)
# 0.06 s; refused: (3,2,1) at m = 607 (g = 300) 33 s and at m = 311 5.3 s,
# (2,2,1,1) at m = 312 15.8 s.
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


def _put(pairs: tuple, share: tuple, k: int) -> tuple:
    """The sorted (profile, copies) pairs with k more copies of `share`; an
    unbranched share (1^j), which multiplies every count by 1, is dropped."""
    if not k or share[0] == 1:
        return pairs
    counts = dict(pairs)
    counts[share] = counts.get(share, 0) + k
    return tuple(sorted(counts.items()))


def hurwitz_connected(branch: BranchData) -> Fraction:
    """Weighted count of connected covers with the prescribed profiles.

    Splittings are removed by a marked-sheet recursion: the component
    containing a marked sheet has degree d1 and is connected; summing over
    d1 < d with weight d1/d and over all distributions of each profile's
    parts removes every disconnected configuration exactly once.  A
    profile's share of the marked component is one of its distinct
    sub-multisets of total d1 (`partitions.sub_multisets`), taken once, not
    once per index set: the parts of a cycle type are unlabelled.  A
    sub-problem is a sorted tuple of (profile, copies) pairs, and copies are
    dealt share by share: k of the f still free go to a share in C(f, k)
    ways, the last share takes the rest.  Sub-problems and disconnected
    counts are memoized for this call only; an unbranched profile or share
    (1^k) multiplies every count by 1 and is dropped.  A cost above
    MAX_GENUS_COST is refused first, then, when the profiles are m simple
    points and at most one other profile mu (every copy counted), a cover
    count above MAX_COVER_COST (mu = tau and m - 1 if all are simple).
    """
    h, d = branch.target_genus, branch.degree
    _check_genus(h, d, len(branch.profiles))
    profiles = [p for p in branch.profiles if p[0] > 1]
    simple = (2,) + (1,) * (d - 2)
    others = [p for p in profiles if p != simple]
    m = len(profiles) - len(others)
    if not others and m:
        others, m = [simple], m - 1
    if len(others) == 1:
        _check_cover(f"target genus {h}", others[0], m)
    disconnected = cache(_disconnected)

    @cache
    def connected(d: int, pairs: tuple) -> Fraction:
        total = disconnected(h, d, pairs)
        for d1 in range(1, d):
            weight = Fraction(d1, d)
            folds = {((), ()): 1}
            for eta, copies in pairs:
                shares = [(sub, rest) for sub, rest, _ in sub_multisets(eta) if sum(sub) == d1]
                dealt = {(left, right, copies): count for (left, right), count in folds.items()}
                for i, (sub, rest) in enumerate(shares, 1):
                    new = {}
                    for (left, right, free), count in dealt.items():
                        for k in range(free if i == len(shares) else 0, free + 1):
                            key = (_put(left, sub, k), _put(right, rest, k), free - k)
                            new[key] = new.get(key, 0) + count * math.comb(free, k)
                    dealt = new
                folds = {(left, right): count
                         for (left, right, free), count in dealt.items() if not free}
            for (left, right), count in folds.items():
                total -= (count * weight * connected(d1, left)
                          * disconnected(h, d - d1, right))
        return total

    try:
        return connected(d, tuple(sorted(Counter(profiles).items())))
    finally:
        # `connected` calls itself through this closure cell, a reference
        # cycle; emptying the cell lets reference counting free the memos
        connected = None
