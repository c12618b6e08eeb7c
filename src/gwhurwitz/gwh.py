"""Numerical I-coefficients, the wall-crossing route, and the Hodge series.

The wall-crossing route (`tau_via_wallcrossing`) assembles completed cycles
from double Hurwitz factors, summed through the irreducible characters, and
infinite-wedge correlators, independently of the closed formula
`cycles.completed_cycle`.  `gwh_crosscheck` certifies their termwise
agreement; `elsv_check` ties the correlator route to brute-force cover
counts through linear Hodge integrals.

Only `partitions` and the series core `qseries` are imported at module
level, so each function loads only the layers its route runs.  The wedge
engine `fock` is imported by `_boundary_bra` (the I-coefficients and the
Hodge series) and by `_i_pairings` (their ket); `characters` by
`_crossing_table` (the wall-crossing route's table) and `elsv_check`;
`hurwitz` by `elsv_check`; the closed formula `cycles` by `gwh_crosscheck`.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .partitions import (ClassSum, check_partition, enumerate_partitions, format_partition,
                         sub_multisets, z_factor)
from .qseries import MultiSeries


# ----------------------------------------------------------- I-coefficients


IFunctionCoefficient = namedtuple("IFunctionCoefficient", "g eta k value z_degree")

# The ket A*|0> carries a single 1/sigma(uw) factor: dividing out uw and then
# multiplying by (uw)^-1 each cost one order in u and one in w.
_I_WORD_LOSS = 2


def _boundary_bra(eta: tuple, vars: tuple, order: tuple):
    """The bra e^(alpha_1) e^(uF2) |eta>, e^(uF2) cut at `order`; energies stay <= |eta|."""
    from .fock import apply_exp_alpha, apply_expUF2, boson_state

    return apply_exp_alpha(1, apply_expUF2(boson_state(eta, vars), "u", 1, order), sum(eta))


def _i_monomial(g: int, eta: tuple, k: int) -> tuple:
    """Where I(g, eta, k) sits in the raw pairing of eta: the exponents of u and w."""
    return 2 * g - 1 + sum(eta) + len(eta), k + 1


def _i_pairings(etas, u_order: int, w_order: int) -> dict:
    """Raw boundary pairings <eta| e^(uF2) e^(alpha_-1) A*(w, uw) |0>, bra first, by eta.

    The adjoint of the left word is e^(alpha_1) e^(uF2) applied to |eta>, so
    each bra carries u only.  The ket A*|0> depends on eta only through its
    energy cap, the largest |eta|: A* raises energy at unit series cost, so
    states above the boundary energy can never pair.  One ket serves every
    eta, and each bra is paired with it once.  Both are evaluated
    _I_WORD_LOSS orders deeper than requested, so each pairing carries
    exactly the orders (u_order, w_order).  Nothing is kept past the call.
    """
    from .fock import FockState, apply_Astar, inner_product

    vars = ("u", "w")
    order = (u_order + _I_WORD_LOSS, w_order + _I_WORD_LOSS)
    a = MultiSeries.monomial(vars, (0, 1), 1, order)
    b = MultiSeries.monomial(vars, (1, 1), 1, order)
    ket = apply_Astar(a, b, FockState.vacuum(vars), max(map(sum, etas)))
    return {eta: inner_product(_boundary_bra(eta, vars, order), ket).truncated((u_order, w_order))
            for eta in etas}


def i_function_numeric(g: int, eta, k: int) -> IFunctionCoefficient:
    """Numerical one-marking I-coefficient through the correlator route.

    All centralizer factors are explicit: the value is the coefficient of
    u^(2g-1+d+len(eta)) w^(k+1) in the raw pairing, with no hidden
    normalization.  The pairing is evaluated at exactly the orders that
    coefficient needs; an order above MAX_SERIES_ORDER, a cost above
    MAX_SERIES_COST or a pairing cost above MAX_PAIRING_COST is refused first.
    """
    eta = check_partition(eta)
    if k < 0:
        raise ValueError("descendent index must be >= 0")
    d = sum(eta)
    if d < 1:
        raise ValueError("eta must be a nonempty partition")
    _check_series(f"genus {g}", eta, 2 * g + d + len(eta), w_order=k + 2 + _I_WORD_LOSS)
    at = _i_monomial(g, eta, k)
    z_degree = k + 2 - 2 * g - d - len(eta)
    series = _i_pairings([eta], max(at[0] + 1, 1), k + 2)[eta]
    return IFunctionCoefficient(g, eta, k, series.coefficient(at), z_degree)


def _hodge_prefactor(eta) -> Fraction:
    """The classical ELSV prefactor prod eta_j^eta_j / eta_j!."""
    return math.prod((Fraction(p ** p, math.factorial(p)) for p in eta), start=Fraction(1))


def hodge_H_series(eta, u_order: int) -> MultiSeries:
    """Disconnected linear-Hodge generating series for integer arguments.

    The vacuum coefficient of the boundary bra e^(alpha_1) e^(uF2) |eta>,
    which loses no order, shifted by u^(-len(eta)-|eta|) and the
    prod(eta_j!/eta_j^eta_j) prefactor.  An order above MAX_SERIES_ORDER or
    a cost above MAX_SERIES_COST is refused before the bra is built.
    """
    eta = check_partition(eta)
    if not eta:
        raise ValueError("eta must be nonempty")
    shift = len(eta) + sum(eta)
    _check_series(f"u-order {u_order}", eta, u_order + 1 + shift)
    order = (u_order + shift,)
    series = _boundary_bra(eta, ("u",), order).coefficient(()).truncated(order)
    return series * MultiSeries.monomial(("u",), (-shift,), 1 / _hodge_prefactor(eta))


def hodge_H_connected(eta, u_order: int) -> MultiSeries:
    """Connected linear-Hodge series by a marked-block recursion.

    Mark the first part of a sub-profile S: the disconnected series H(S) is
    the sum over the connected block that holds it, (S_0,) + B for a
    sub-multiset B of S[1:], times the disconnected series of the rest R.  So
    Hc(S) = H(S) - sum ways * Hc((S_0,) + B) * H(R) over the B with R
    nonempty, where `ways` = prod C(m_v, k_v) = |Aut S[1:]| / (|Aut B| |Aut R|)
    counts the index sets that pick B.  A sub-profile `sub` has a pole of
    depth len(sub) + |sub| at u = 0, and in a product only the other
    factor's pole costs it orders, so both of its series are read to
    u_order + pole - len(sub) - |sub|, each once per call.  The first series
    read is H(eta), whose check refuses an order above MAX_SERIES_ORDER or a
    cost above MAX_SERIES_COST before any series is built.
    """
    eta = check_partition(eta)
    pole = len(eta) + sum(eta)
    blocks = {}

    def block(sub):
        if sub not in blocks:
            blocks[sub] = hodge_H_series(sub, u_order + pole - len(sub) - sum(sub))
        return blocks[sub]

    block(eta)  # first, so that its check comes before any bra is built
    head, connected = eta[:1], {}
    # a block's own blocks are shorter, so ascending length finds each computed
    for tail, _rest, _ways in sorted(sub_multisets(eta[1:]), key=len):
        total = block(head + tail)
        for sub, rest, ways in sub_multisets(tail):
            if rest:
                total -= ways * connected[head + sub] * block(rest)
        connected[head + tail] = total
    return connected[eta]


def i_function_empty(g: int, eta) -> IFunctionCoefficient:
    """Numerical I-coefficient with no markings, from the Hodge series; an
    order above MAX_SERIES_ORDER or a cost above MAX_SERIES_COST is refused
    first."""
    eta = check_partition(eta)
    d = sum(eta)
    if d < 1:
        raise ValueError("eta must be a nonempty partition")
    _check_series(f"genus {g}", eta, 2 * g + d + len(eta))
    z_degree = 3 - 2 * g - d - len(eta)
    target = 2 * g - 2
    series = hodge_H_series(eta, target + 1)
    return IFunctionCoefficient(g, eta, None,
                                _hodge_prefactor(eta) * series.coefficient((target,)),
                                z_degree)


class UnsupportedUnstableCase(ValueError):
    """Requested an unstable connected value outside the displayed cases."""


def i_function_unstable_connected(n: int, eta) -> IFunctionCoefficient:
    """Closed-form genus-0 connected I-coefficients for the unstable shapes.

    Only the two displayed families are implemented: a single part with any
    number of markings, and two parts with none; anything else is reported
    as unsupported.
    """
    eta = check_partition(eta)
    if len(eta) == 1 and n >= 0:
        e1 = eta[0]
        value = Fraction(e1 ** (e1 - 1 + n), math.factorial(e1))
        return IFunctionCoefficient(0, eta, None, value, 1 - e1 - n)
    if len(eta) == 2 and n == 0:
        e1, e2 = eta
        value = Fraction(e1 ** (e1 + 1) * e2 ** (e2 + 1),
                         math.factorial(e1) * math.factorial(e2) * (e1 + e2))
        return IFunctionCoefficient(0, eta, None, value, -e1 - e2)
    raise UnsupportedUnstableCase(f"no closed form for n={n}, eta={eta}")


# ------------------------------------------------------------ wall crossing


def tau_via_wallcrossing(k: int, d: int) -> ClassSum:
    """Assemble the degree-d descendent class sum from the crossing route.

    The double Hurwitz factors are summed through the irreducibles:
    the coefficient of mu is sum_lam chi^lam(mu) c_lam with
    c_lam = sum_eta chi^lam(eta)/z(eta) sum_g (-f2(lam))^b/b! I(g, eta, k),
    where b = k+2-2g-d-len(eta) counts the simple branch points.  For each
    profile eta the genus runs from -len(eta) (the marking may sit on its
    own component) up to the bound where b stays nonnegative.  Every
    I-coefficient is read from one pairing per profile, evaluated at the
    orders (k+2, k+2) that the top genus needs.  After its own k >= 0 and
    d >= 1, it refuses what `gwh_crosscheck(d, k)` refuses, before any work.
    """
    if k < 0 or d < 1:
        raise ValueError("need k >= 0 and d >= 1")
    _check_grid(d, k)
    table, evs = _crossing_table(d)
    return _tau_from_table(k, table, evs, _i_pairings(table.partitions, k + 2, k + 2))


def _crossing_table(d: int) -> tuple:
    """The degree-d character table and the eigenvalues -f2(lam) in its row order."""
    from .characters import CharacterTable, f2_shifted

    table = CharacterTable.build(d)
    return table, [-int(f2_shifted(lam)) for lam in table.partitions]  # integers: content sums


def _tau_from_table(k: int, table, evs: list, pairings: dict) -> ClassSum:
    """`tau_via_wallcrossing` for one k, from a table, its eigenvalues and the
    raw pairings of its profiles at orders of at least (k+2, k+2).

    An I-coefficient is read only when some chi^lam(eta)(-f2)^b is nonzero.
    """
    d = table.degree
    c = [Fraction(0)] * len(evs)
    for col, eta in enumerate(table.partitions):
        ell = len(eta)
        chis = [row[col] for row in table.matrix]
        for g in range(-ell, (k + 2 - d - ell) // 2 + 1):
            b = k + 2 - 2 * g - d - ell
            weights = [chi * ev ** b for chi, ev in zip(chis, evs)]
            if not any(weights):
                continue
            value = pairings[eta].coefficient(_i_monomial(g, eta, k))
            value /= z_factor(eta) * math.factorial(b)
            c = [c_lam + weight * value for c_lam, weight in zip(c, weights)]
    return ClassSum(d, {mu: sum(row[col] * c_lam for row, c_lam in zip(table.matrix, c))
                        for col, mu in enumerate(table.partitions)})


# `gwh_crosscheck` roughly doubles in time per degree, and the top degree's
# pairings cost most: p(d_max) profiles, each cut at (k_max+2, k_max+2).  So
# a d_max above MAX_CROSSCHECK_DEGREE is refused, and a grid whose
# p(d_max) (k_max+2)^2 is above MAX_CROSSCHECK_COST; `tau_via_wallcrossing`
# builds the same pairings for one (d, k) and is refused alike.  In-process
# (2-core Xeon, CPython 3.11): (8, 10) 0.99 s, (12, 4) 3.64 s; near the cost
# limit (2, 80) 2.6 s, (4, 50) 3.7 s, (8, 23) 5.9 s, (10, 16) 6.5 s,
# (12, 11) 9.6 s; past it (4, 80) 22.8 s, (12, 16) 22 s, (12, 32) 85.7 s,
# and d_max = 24 hours
MAX_CROSSCHECK_DEGREE = 12
MAX_CROSSCHECK_COST = 14_000

# The genus-g series of a profile eta are read to the u-order 2g + |eta| +
# len(eta), and a request past MAX_SERIES_ORDER is refused before any series
# is built.  In-process (2-core Xeon, CPython 3.11) at eta = (2): g = 300
# 0.4-0.6 s, g = 500 1.5-2.0 s, g = 1000 12 s; at the limit, eta = (2) at
# g = 308 takes 0.5 s and eta = (12) at g = 303 8.2-11.4 s; a coefficient at
# g = 1000 has over 4300 digits.
MAX_SERIES_ORDER = 620

# Inside that order the time also grows with the profile.  The bra of eta
# spans the Schur states reached by adding strips of sizes eta_i, about
# prod(eta_i + 1) of them (a shape takes m more m-strips than it gives up;
# of the 77 shapes of 12, eta = (12) reaches only the 12 hooks).  So
# prod(eta_i + 1) order^2 above MAX_SERIES_COST is refused before any series
# is built.  An order below 1 counts as 1: the bra's size does not depend on
# the order, so thirty ones are refused at any genus.  The connected series
# reads one smaller bra per sub-profile and forms one product per (marked
# block, rest) pair, two nested sub-multisets of eta's other parts: fewer
# than prod(eta_i + 1), so the same cost bounds it.  In-process (2-core
# Xeon, CPython 3.11) near the limit: ifun (2,2,1,1) g = 258 2.9 s, (6,5,4)
# g = 100 2.7 s; the connected series of (3,2,1) at order 620 8.4 s, (5,3)
# 10.8 s, (12,1) 10.7 s, (2,2,1,1) at 527 8.4 s, (4,3,2,1) at 288 3.9 s,
# (6,5,4) at 218 3.5 s, (2^5,1^5) at 35 1.1 s and (1^13) at 34 0.4 s.  Past
# it: ifun (6,5,4) g = 300 over 60 s.
# The cover count of `elsv_check` is not in this model: at (3,2,1) g = 300
# it takes 33 of the check's 45 s, and `hurwitz.MAX_COVER_COST` bounds it.
MAX_SERIES_COST = 10_000_000

# The ket A*|0> of `i_function_numeric` is cut at the w-order k + 2 +
# _I_WORD_LOSS as well.  Its series are built from w and uw, so each has
# about min(u, w) w terms for the u-order u = order + _I_WORD_LOSS, and the
# pairing's time grows like the square of that times the ket's energy cap
# |eta|: |eta| (min(u, w) w)^2 above MAX_PAIRING_COST is refused with the
# other two.  In-process (2-core Xeon, CPython 3.11) near the limit, at
# eta = (3,2): k = 492 at g = 0 1.8 s, k = 231 at g = 5 1.2 s, k = 87 at
# g = 20 3.9 s; (6,5,4) k = 100 at g = 0 2.1 s, k = 40 at g = 25 6.2 s.
# Past it, at eta = (3,2): k = 80 at g = 50 13.7 s as a process, k = 160 at
# g = 50 90 s, and k = 1500 at g = 0 over 40 s.
MAX_PAIRING_COST = 100_000_000


def _check_series(request: str, eta: tuple, order: int, w_order: int = 0) -> None:
    """Refuse, before any series is built, a u-order above MAX_SERIES_ORDER,
    then a cost prod(eta_i + 1) max(order, 1)^2 above MAX_SERIES_COST, then,
    for a pairing with the ket cut at `w_order`, a cost above MAX_PAIRING_COST.
    One cost serves the disconnected and the connected series alike: the
    marked-block recursion forms fewer products than the bra has states.
    `request` ("genus 3") opens the message."""
    at = f"{request} at {format_partition(eta)}"
    if order > MAX_SERIES_ORDER:
        raise ValueError(f"{at} needs u-order {order}, above MAX_SERIES_ORDER = {MAX_SERIES_ORDER}")
    order = max(order, 1)  # the bra holds its states however low the order
    if (cost := math.prod(p + 1 for p in eta) * order ** 2) > MAX_SERIES_COST:
        raise ValueError(f"{at} costs prod(eta_i + 1) {order}^2 = {cost}, "
                         f"above MAX_SERIES_COST = {MAX_SERIES_COST}")
    terms = min(order + _I_WORD_LOSS, w_order) * w_order
    if (cost := sum(eta) * terms ** 2) > MAX_PAIRING_COST:
        raise ValueError(f"{at} with w-order {w_order} costs |eta| {terms}^2 = {cost}, "
                         f"above MAX_PAIRING_COST = {MAX_PAIRING_COST}")


def _check_grid(d_max: int, k_max: int) -> None:
    """Refuse, before any table or pairing, a k_max outside the completed
    cycles' range, a negative d_max, a d_max above MAX_CROSSCHECK_DEGREE, or
    a grid whose p(d_max) (k_max+2)^2 is above MAX_CROSSCHECK_COST."""
    from .cycles import check_cycle_index

    check_cycle_index(k_max)
    if d_max < 0:
        raise ValueError("degree must be >= 0")
    if d_max > MAX_CROSSCHECK_DEGREE:
        raise ValueError(
            f"degree {d_max} is above the crosscheck ceiling "
            f"MAX_CROSSCHECK_DEGREE = {MAX_CROSSCHECK_DEGREE}")
    cost = len(enumerate_partitions(d_max)) * (k_max + 2) ** 2
    if cost > MAX_CROSSCHECK_COST:
        raise ValueError(f"grid ({d_max}, {k_max}) costs p(d_max) (k_max+2)^2 = {cost}, "
                         f"above MAX_CROSSCHECK_COST = {MAX_CROSSCHECK_COST}")


class CrosscheckRow(namedtuple("CrosscheckRow", "d k matched lhs rhs")):
    __slots__ = ()

    def mismatches(self):
        return [(mu, a, b) for mu in enumerate_partitions(self.d)
                if (a := self.lhs.coefficient(mu)) != (b := self.rhs.coefficient(mu))]


class CrosscheckReport(namedtuple("CrosscheckReport", "d_max k_max rows")):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(row.matched for row in self.rows)

    def to_document(self) -> dict:
        rows = []
        for row in self.rows:
            entry = {"d": row.d, "k": row.k,
                     "status": "pass" if row.matched else "fail",
                     "value": row.lhs.to_dict()}
            if not row.matched:
                entry["mismatches"] = [
                    {"partition": format_partition(mu), "direct": str(a), "crossing": str(b)}
                    for mu, a, b in row.mismatches()]
            rows.append(entry)
        return {"d_max": self.d_max, "k_max": self.k_max,
                "passed": self.passed, "rows": rows}


def gwh_crosscheck(d_max: int, k_max: int) -> CrosscheckReport:
    """Termwise comparison of the two completed-cycle routes, in ascending (d, k).

    Each degree's table, eigenvalues and pairings are built once for every k:
    the top genus of k_max needs the orders (k_max+2, k_max+2), and every
    smaller k reads inside them.  What `_check_grid` refuses is refused
    before any work.
    """
    from .cycles import completed_cycle

    _check_grid(d_max, k_max)
    rows = []
    for d in range(1, d_max + 1):
        table, evs = _crossing_table(d)
        pairings = _i_pairings(table.partitions, k_max + 2, k_max + 2)
        for k in range(k_max + 1):
            lhs = completed_cycle(k, d).value
            rhs = _tau_from_table(k, table, evs, pairings)
            rows.append(CrosscheckRow(d, k, lhs == rhs, lhs, rhs))
    return CrosscheckReport(d_max, k_max, tuple(rows))


# ------------------------------------------------------------------- ELSV


class ElsvReport(namedtuple("ElsvReport", "mu g m stable lhs rhs")):
    __slots__ = ()

    @property
    def equal(self) -> bool:
        return self.stable and self.lhs == self.rhs


def elsv_check(mu, g: int) -> ElsvReport:
    """Compare the Hodge-series side with brute-force simple branching.

    The left side extracts the u^(2g-2) coefficient of the connected Hodge
    series with the classical prefactor; the right side counts connected
    covers with profile mu and m = 2g-2+len(mu)+|mu| simple branch points.
    Inputs with m < 1 or g < 0 are degenerate and reported, not computed;
    an order above MAX_SERIES_ORDER, a cost above MAX_SERIES_COST or a
    cover cost above `hurwitz.MAX_COVER_COST` is refused before any series
    is built.
    The connected series comes from the marked-block recursion of
    `hodge_H_connected`, whose products are weighted by |Aut| quotients and
    bounded by the cost of mu's own bra.
    """
    from .characters import transposition_class
    from .hurwitz import BranchData, _check_cover, hurwitz_connected

    mu = check_partition(mu)
    d = sum(mu)
    if d < 1:
        raise ValueError("mu must be nonempty")
    m = 2 * g - 2 + len(mu) + d
    if g < 0 or m < 1:
        return ElsvReport(mu, g, m, False, None, None)
    _check_series(f"genus {g}", mu, 2 * g + d + len(mu))
    _check_cover(f"genus {g}", mu, m)
    target = 2 * g - 2
    series = hodge_H_connected(mu, target + 1)
    scale = Fraction(math.factorial(m), z_factor(mu)) * _hodge_prefactor(mu)
    lhs = scale * series.coefficient((target,))
    if d >= 2:
        rhs = hurwitz_connected(BranchData(0, d, (mu,) + (transposition_class(d),) * m))
    else:
        rhs = Fraction(0)  # no simple branching exists over a single sheet
    return ElsvReport(mu, g, m, True, lhs, rhs)
