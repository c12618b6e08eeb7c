"""Hurwitz numbers of target curves: character sums and brute-force counts.

`hurwitz_disconnected` and the graded `branching_sums` evaluate the
character-sum formula over only the character columns their classes need
(`characters.character_columns`, no full table), in integers: one rational
weight per dimension and one constant at the end.  The monodromy oracle
counts permutation tuples directly (product of h commutators times one
permutation per branch profile equals the identity), so every
normalization in the package can be pinned against honest enumeration.
Transitivity is tracked through the join of the generators' orbit
partitions, which turns the transitive count into the same dynamic
programming sweep over (partial product, partial orbit join) pairs; joins
are memoized per pair of set partitions, and a count that does not ask for
transitivity keeps every partition discrete.  The product table's rows are
2-byte arrays built on first read, and the sweep's last step looks up an
inverse instead of multiplying, so a genus-0 count builds only the rows of
its partial products; genus >= 1 reads the whole table.  Only the character
sums import `characters`, so the oracle, their independent check, runs
without it.  No count here builds a series, so the series core `qseries` is
never loaded.  No memo outlives a call: the connected recursion keeps its
sub-problems for one count, and the oracle builds its group context for one
count.
"""

from __future__ import annotations

import itertools
import math
from array import array
from collections import Counter, namedtuple
from fractions import Fraction
from functools import cache
from operator import itemgetter

from . import DEFAULT_ORACLE_BOUND, ORACLE_CEILING
from .partitions import ClassSum, check_partition, set_partitions, z_factor


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


def _dim_weighted(by_dim: dict, exponent: int):
    """Sum of value * dim^exponent over a {dim: integer} map, in integers over
    one denominator when the exponent is negative."""
    if exponent >= 0:
        return sum(value * dim ** exponent for dim, value in by_dim.items())
    k = -exponent
    den = math.lcm(*by_dim) ** k
    return Fraction(sum(value * (den // dim ** k) for dim, value in by_dim.items()), den)


def branching_sums(h: int, d: int, factors) -> dict:
    """Character sum of a product of class sums over a genus-h target.

    Each factor is an iterable of (partition, coefficient) pairs of degree d;
    grade b keeps the monomials of total branching b = sum_j (d - len(mu_j)).
    A factor's coefficients times d!/z(mu) are brought to integer numerators
    over one denominator, so per lam the grades are integer sums of character
    products.  Rows of equal dimension are added up first; the weight
    dim^(2-2h-n) is applied once per (dimension, grade) and the constant
    d!^(2h-2) / (product of the denominators) once per grade.
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
    scale = Fraction(dfact) ** (2 * h - 2) / den
    exponent = 2 - 2 * h - len(factor_terms)
    return {b: scale * _dim_weighted(acc, exponent) for b, acc in by_grade.items()}


def hurwitz_disconnected(branch: BranchData) -> Fraction:
    """Weighted count of possibly-disconnected covers via character sums.

    The count is d!^(2h-2+n) / prod z(eta) times
    sum_lam dim^(2-2h-n) prod_eta chi^lam(eta), over the n profiles eta; a
    repeated profile is one column raised to its multiplicity.
    """
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
    scale = (Fraction(math.factorial(d)) ** (2 * h - 2 + n)
             / math.prod(z_factor(eta) ** m for eta, m in counts.items()))
    return scale * _dim_weighted(by_dim, 2 - 2 * h - n)


def hurwitz_classsum(h: int, d: int, args) -> Fraction:
    """Multilinear extension of the disconnected count to formal class sums."""
    args = list(args)
    for a in args:
        if not isinstance(a, ClassSum) or a.degree != d:
            raise ValueError("arguments must be class sums of the stated degree")
    return sum(branching_sums(h, d, [a.terms.items() for a in args]).values(), Fraction(0))


# ------------------------------------------------------------- brute force


class _GroupContext:
    """Multiplication and orbit data for one symmetric group.

    Row p of the product table holds index(p o q) for every q.  Rows are
    2-byte arrays (d! <= 5040 below the oracle's ceiling) built on demand:
    a BFS tree over left multiplication by the adjacent transpositions links
    each element s o p to its parent p, and `row` builds a row the first
    time it is read, from its parent's row (row(s o p) is row(s) read at
    row(p)'s entries).  A count reads only the rows of its partial products;
    `table` builds every row once, in BFS order, for the counts that read
    them all.
    """

    def __init__(self, d: int):
        self.d = d
        self.perms = list(itertools.permutations(range(d)))
        self.index = index = {p: i for i, p in enumerate(self.perms)}
        n = len(self.perms)
        self.identity = index[tuple(range(d))]
        self.inv = [0] * n
        for i, p in enumerate(self.perms):
            q = [0] * d
            for x in range(d):
                q[p[x]] = x
            self.inv[i] = index[tuple(q)]
        # the adjacent transpositions' rows, kept as lists for fast reads
        gens = []
        for i in range(d - 1):
            s = list(range(d))
            s[i], s[i + 1] = i + 1, i
            gens.append([index[itemgetter(*q)(s)] for q in self.perms])  # s o q
        self._gens = gens
        self._parent = [-1] * n  # -1: not reached yet
        self._gen = [0] * n  # element = gens[_gen] o _parent
        self._parent[self.identity] = self.identity
        self._order = [self.identity]
        for p in self._order:
            for k, gen in enumerate(gens):
                sp = gen[p]
                if self._parent[sp] < 0:
                    self._parent[sp], self._gen[sp] = p, k
                    self._order.append(sp)
        self._rows = [None] * n
        self._rows[self.identity] = array("H", range(n))

        self.partitions = set_partitions(d)
        self.part_index = {p: i for i, p in enumerate(self.partitions)}
        self.discrete = self.part_index[tuple((i,) for i in range(d))]
        self.top = self.part_index[(tuple(range(d)),)]
        self.orbit_of = [self._orbit_partition(p) for p in self.perms]
        # a permutation's cycle type is the block sizes of its orbit partition
        shapes = [tuple(sorted(map(len, part), reverse=True)) for part in self.partitions]
        self.class_elements = {}
        for i, orbits in enumerate(self.orbit_of):
            self.class_elements.setdefault(shapes[orbits], []).append(i)
        self._join = {}
        self._comm = {}

    def row(self, p: int) -> array:
        """Row p of the product table, built with its missing ancestors."""
        got = self._rows[p]
        if got is None:
            parent = self.row(self._parent[p])
            got = self._rows[p] = array("H", itemgetter(*parent)(self._gens[self._gen[p]]))
        return got

    def table(self) -> list:
        """Every row of the product table, each built once, in BFS order so
        that a parent's row is there before its children's."""
        for p in self._order:
            self.row(p)
        return self._rows

    def _orbit_partition(self, p) -> int:
        seen = [False] * self.d
        blocks = []
        for x in range(self.d):
            if seen[x]:
                continue
            block = []
            y = x
            while not seen[y]:
                seen[y] = True
                block.append(y)
                y = p[y]
            blocks.append(tuple(sorted(block)))
        return self.part_index[tuple(sorted(blocks))]

    def join(self, i: int, j: int) -> int:
        # a count without transitivity joins the discrete partition with
        # itself at every step of its sweep
        if i == j:
            return i
        if i > j:
            i, j = j, i
        key = (i, j)
        got = self._join.get(key)
        if got is not None:
            return got
        parent = list(range(self.d))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for part in (self.partitions[i], self.partitions[j]):
            for block in part:
                for other in block[1:]:
                    parent[find(other)] = find(block[0])
        blocks = {}
        for x in range(self.d):
            blocks.setdefault(find(x), []).append(x)
        canon = tuple(sorted(tuple(sorted(b)) for b in blocks.values()))
        out = self.part_index[canon]
        self._join[key] = out
        return out

    def commutator_distribution(self, joined: bool) -> Counter:
        """Counts of ([a,b], orbit-join(a,b)) over all pairs (a, b); not
        joined, every join reads as the discrete partition.

        It reads every row, so it builds the whole table first.  Each a takes
        one Counter update: its commutators with every b, zipped with the
        joins of a's orbit partition with b's; not joined, the commutators
        alone, paired with the discrete partition at the end."""
        dist = self._comm.get(joined)
        if dist is None:
            mult, inv, orbit_of, join = self.table(), self.inv, self.orbit_of, self.join
            dist = Counter()
            for a, arow in enumerate(mult):
                # [a, b] = a b a^-1 b^-1: right multiplication by a^-1 is a column
                ainv = inv[a]
                right = [row[ainv] for row in mult]
                comms = [mult[right[ab]][binv] for ab, binv in zip(arow, inv)]
                if joined:
                    oa = orbit_of[a]
                    dist.update(zip(comms, [join(oa, ob) for ob in orbit_of]))
                else:
                    dist.update(comms)
            if not joined:
                dist = Counter({(g, self.discrete): c for g, c in dist.items()})
            self._comm[joined] = dist
        return dist


def monodromy_oracle(branch: BranchData, transitive_only: bool = False,
                     degree_bound: int = DEFAULT_ORACLE_BOUND) -> Fraction:
    """Count monodromy tuples by direct enumeration, divided by d!.

    Tuples are (a_1, b_1, .., a_h, b_h, s_1, .., s_n) with the product of
    commutators times the s_j equal to the identity and each s_j in the
    conjugacy class of the j-th profile; with `transitive_only` the group
    generated by all entries must act transitively.

    A sweep over (partial product, partial orbit join) pairs multiplies in
    every step but the last, reading the product rows of its partial
    products only.  The last step multiplies nothing: the product is the
    identity exactly when the last element is the inverse of the partial
    product, so the count sums each state times the weights of that inverse
    whose join reaches the target partition.  The profiles are swept in
    ascending class size, so a genus-0 count reads the rows of the partial
    products of all but its largest class; a genus >= 1 count reads every
    row through the commutator distribution, which is why the ceiling on d
    stays where the full table would not fit in memory.
    """
    d = branch.degree
    if d >= ORACLE_CEILING:
        raise ValueError(
            f"degree {d} is at or above the oracle's ceiling {ORACLE_CEILING}: its "
            f"{d}!x{d}! multiplication table would hold about "
            f"{math.factorial(d) ** 2:.1e} entries")
    if d > degree_bound:
        raise ValueError(f"degree {d} exceeds the brute-force bound {degree_bound}")
    ctx = _GroupContext(d)
    discrete = ctx.discrete
    target = ctx.top if transitive_only else discrete
    # each step multiplies in one group element with its orbit partition;
    # only transitivity reads the joins, so other counts keep them discrete
    steps = [ctx.commutator_distribution(transitive_only).items()
             for _ in range(branch.target_genus)]
    # ascending class size keeps the partial products few and leaves the
    # largest class to the last step, which builds no row; the count does not
    # depend on the order: Hurwitz moves swap neighbouring profiles and keep
    # both the product and the generated group
    for eta in sorted(branch.profiles, key=lambda eta: len(ctx.class_elements[eta])):
        steps.append([((g, ctx.orbit_of[g] if transitive_only else discrete), 1)
                      for g in ctx.class_elements[eta]])
    # an empty tuple is closed by the identity
    *steps, last = steps or [[((ctx.identity, discrete), 1)]]
    join, row = ctx.join, ctx.row
    state = {(ctx.identity, discrete): 1}
    for dist in steps:
        new = {}
        for (g1, p1), c1 in state.items():
            row_g1 = row(g1)
            for (g2, p2), c2 in dist:
                key = (row_g1[g2], join(p1, p2))
                new[key] = new.get(key, 0) + c1 * c2
        state = new
    # the last step multiplies nothing: the product is the identity exactly
    # when the last element is the inverse of the partial product
    closing = {}
    for (g2, p2), c2 in last:
        closing.setdefault(g2, []).append((p2, c2))
    inv = ctx.inv
    count = 0
    for (g1, p1), c1 in state.items():
        for p2, c2 in closing.get(inv[g1], ()):
            if join(p1, p2) == target:
                count += c1 * c2
    return Fraction(count, math.factorial(d))


# ------------------------------------------------- connected from splittings


def _carvings(eta, d1: int) -> tuple:
    """Each distinct sub-multiset of eta's parts with total d1, paired with the
    rest; the largest carved part is taken at its value's first occurrence.

    A tuple, so the connected recursion's memo can share it between callers."""
    if d1 == 0:
        return (((), eta),)
    out = []
    for i, p in enumerate(eta):
        if p <= d1 and (i == 0 or eta[i - 1] != p):
            for carved, rest in _carvings(eta[i + 1:], d1 - p):
                out.append(((p,) + carved, eta[:i] + rest))
    return tuple(out)


def hurwitz_connected(branch: BranchData) -> Fraction:
    """Weighted count of connected covers with the prescribed profiles.

    Splittings are removed by a marked-sheet recursion: the component
    containing a marked sheet has degree d1 and is connected; summing over
    d1 < d with weight d1/d and over all distributions of each profile's
    parts removes every disconnected configuration exactly once.  Its
    sub-profiles are canonical by construction, and the recursion, the
    disconnected counts and the carvings are memoized for this call only.
    The whole recursion is validated against the transitive oracle.
    """
    disconnected = cache(_disconnected)
    carvings = cache(_carvings)

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
                    choices.append((carved, rest, ways))
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
        return connected(branch.target_genus, branch.degree, tuple(sorted(branch.profiles)))
    finally:
        # `connected` calls itself through this closure cell, a reference
        # cycle; emptying the cell lets reference counting free the memos
        connected = None
