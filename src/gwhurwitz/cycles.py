"""Completed cycles from power sums, and the stationary invariants they give.

The k-th completed cycle in degree d is the class sum whose coefficient at
mu is the sum of `rho(k, sub)` over the ways to strip unit parts from mu.
With S(x) = sinh(x/2)/(x/2) and log S(x) = sum_n l_n x^(2n), where
l_n = B_2n / (2n (2n)!), the kernel series of a profile mu of weight w is

    S(x)^(w-1) prod_j S(mu_j x) = exp(sum_n l_n (w - 1 + p_2n(mu)) x^(2n)),

p_2n being the power sum of the parts.  So `rho` is one coefficient g_n of
a one-variable exponential, read by the recursion n g_n = sum_j j f_j g_(n-j)
with f_j = l_j (w - 1 + p_2j(mu)), in integers scaled by one denominator per
n; it needs no series arithmetic.  The wall-crossing route of `gwh` checks
this closed formula termwise.

`ClassSum`, a formal rational combination of partitions of one degree, is
the value of both routes; it lives here, not in `partitions`, which every
command loads, so a command that builds no class sum never compiles it.

Only `partitions` is imported at module level; `stationary_gw` imports
`hurwitz` for its character sum and `branch` for its check.  So the `cycle`
and `gw` commands never load the series core, the wedge engine or `gwh`.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .partitions import (check_partition, check_table_degree, enumerate_partitions,
                         format_partition, subpartitions_by_removing_ones)


class ClassSum:
    """A formal rational combination of partitions of one fixed degree."""

    __slots__ = ("degree", "terms")

    def __init__(self, degree: int, terms=None):
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
        return self.terms.get(check_partition(mu), Fraction(0))

    def _check_degree(self, other):
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")

    def __add__(self, other):
        self._check_degree(other)
        terms = dict(self.terms)
        for mu, c in other.terms.items():
            terms[mu] = terms.get(mu, Fraction(0)) + c
        return ClassSum(self.degree, terms)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
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


# `completed_cycle` takes about 0.17 s at (k, d) = (40, 24), 1.0 s at (80, 24)
# and 3.5 s at (120, 24) in-process (2-core Xeon, CPython 3.11): the time
# grows like k^3, and the tests reach k = 40, the benchmark workloads k = 8
MAX_CYCLE_INDEX = 80


def check_cycle_index(k: int) -> None:
    """Refuse a negative k or one above MAX_CYCLE_INDEX; cheap, so callers check first."""
    if k < 0:
        raise ValueError("descendent index must be >= 0")
    if k > MAX_CYCLE_INDEX:
        raise ValueError(
            f"descendent index {k} is above the completed-cycle ceiling "
            f"MAX_CYCLE_INDEX = {MAX_CYCLE_INDEX}")


def bernoulli_numbers(n: int) -> list:
    """[B_0, ..., B_n], exact, with B_1 = -1/2, by sum_j binom(m+1, j) B_j = 0."""
    out = []
    for m in range(n + 1):
        total = sum(math.comb(m + 1, j) * b for j, b in enumerate(out))
        out.append(Fraction(1) if m == 0 else -total / (m + 1))
    return out


def _exp_weights(n: int) -> tuple:
    """Integer weights of the recursion m g_m = sum_j (j l_j) c_j g_(m-j), g_0 = 1,
    for m <= n, where j l_j = B_2j / (2 (2j)!).

    With j l_j = a_j / b_j in lowest terms, G_m = D_m g_m is an integer for
    integer c_j when D_0 = 1 and D_m = m L_m, L_m = lcm_j(b_j D_(m-j)); then
    G_m = sum_j K_m[j] c_j G_(m-j) with K_m[j] = a_j L_m / (b_j D_(m-j)).
    Returns (D, K), K[m - 1] = K_m; they serve every profile of one call.
    """
    bernoulli = bernoulli_numbers(2 * n)
    jl = [bernoulli[2 * j] / (2 * math.factorial(2 * j)) for j in range(1, n + 1)]
    dens, weights = [1], []
    for m in range(1, n + 1):
        lcm = math.lcm(*(jl[j].denominator * dens[m - 1 - j] for j in range(m)))
        weights.append([jl[j].numerator * (lcm // (jl[j].denominator * dens[m - 1 - j]))
                        for j in range(m)])
        dens.append(m * lcm)
    return dens, weights


def rho(k: int, mu) -> Fraction:
    """Series coefficient attached to a stripped profile in a completed cycle.

    For a nonempty mu this is (prod mu_j / |mu|!) times the coefficient of
    x^(k+2-|mu|-len(mu)) in S(x)^(|mu|-1) * prod S(mu_j x); for the empty
    partition the bracket degenerates to the x^(k+2) coefficient of 1/S(x).
    Vanishes when the target exponent is negative or odd.
    """
    if k < 0:
        raise ValueError("descendent index must be >= 0")
    return _rho(k, check_partition(mu), _exp_weights((k + 2) // 2))


def _rho(k: int, mu: tuple, recursion: tuple) -> Fraction:
    """`rho` for a canonical mu, from `_exp_weights` through at least (k+2)//2."""
    weight = sum(mu)
    exponent = k + 2 - weight - len(mu)
    if exponent < 0 or exponent % 2:
        return Fraction(0)
    half = exponent // 2
    dens, steps = recursion
    # c_n = w - 1 + p_2n(mu): the exponent's x^(2n) coefficient is l_n c_n
    squares = [p * p for p in mu]
    powers = squares
    c = []
    for _ in range(half):
        c.append(weight - 1 + sum(powers))
        powers = [a * b for a, b in zip(powers, squares)]
    scaled = [1]  # G_n = D_n g_n
    for n in range(1, half + 1):
        scaled.append(sum(a * c[j] * scaled[n - 1 - j] for j, a in enumerate(steps[n - 1])))
    return Fraction(math.prod(mu) * scaled[half], math.factorial(weight) * dens[half])


CompletedCycle = namedtuple("CompletedCycle", "k d value")


def _check_request(k: int, d: int) -> None:
    check_table_degree(d)
    if d < 1:
        raise ValueError("degree must be >= 1")
    check_cycle_index(k)


def completed_cycle(k: int, d: int) -> CompletedCycle:
    """Class sum of the k-th completed cycle in degree d, refused above
    MAX_TABLE_DEGREE or MAX_CYCLE_INDEX before any partition is enumerated.

    The recursion's weights are computed once for the call."""
    _check_request(k, d)
    recursion = _exp_weights((k + 2) // 2)
    terms = {}
    for mu in enumerate_partitions(d):
        total = Fraction(0)
        for sub, binom in subpartitions_by_removing_ones(mu):
            total += binom * _rho(k, sub, recursion)
        if total:
            terms[mu] = total
    return CompletedCycle(k, d, ClassSum(d, terms))


StationaryGW = namedtuple("StationaryGW", "total by_genus")


def _cycle_weight(k: int, d: int) -> tuple[int, int]:
    """The (bits, span) that `hurwitz.MAX_GENUS_COST` weighs the completed
    cycle of index k in degree d by, before it is computed: its denominators
    take about log2((k+2)!) bits, and its branchings, of the parity of k,
    reach min(k, d - 1)."""
    top = min(k, d - 1)
    return math.factorial(k + 2).bit_length(), max(top - (top - k) % 2 - k % 2, 0)


def stationary_gw(h: int, d: int, ks) -> StationaryGW:
    """Stationary invariants of a genus-h target through completed cycles.

    Grade b of the cycles' character sum (total branching b) is booked under
    the source genus (d(2h-2) + b)/2 + 1.  An odd grade holds only monomials
    that vanish by the sign symmetry lam <-> lam', so a nonzero one raises.
    Every k, and the target genus and its cost (`hurwitz.MAX_GENUS_COST`), is
    checked before any cycle is computed.
    """
    for k in ks:
        _check_request(k, d)
    from .branch import BranchData
    from .hurwitz import _check_genus, branching_sums

    BranchData(h, d)  # refuses h < 0 (and d < 1 with no ks)
    weights = {k: _cycle_weight(k, d) for k in set(ks)}
    _check_genus(h, d, len(ks), [weights[k] for k in ks])
    # each distinct index is computed once, however often it is inserted
    cycles = {k: completed_cycle(k, d).value.terms.items() for k in set(ks)}
    sums, scale = branching_sums(h, d, [cycles[k] for k in ks])
    by_genus: dict[int, Fraction] = {}
    for b, value in sorted(sums.items()):
        if not value:
            continue
        euler = d * (2 * h - 2) + b
        if euler % 2:
            raise ArithmeticError(f"nonzero cover count {scale * value} with odd total "
                                  f"branching {b}")
        by_genus[euler // 2 + 1] = scale * value
    return StationaryGW(scale * sum(sums.values()), by_genus)
