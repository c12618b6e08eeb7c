"""Completed cycles, numerical I-coefficients, and stationary invariants.

Two independent routes to the same class sums are implemented: a closed
formula through even-kernel series coefficients (`completed_cycle`) and the
wall-crossing assembly, whose double Hurwitz factors are summed through the
irreducible characters, against infinite-wedge correlators
(`tau_via_wallcrossing`).  `gwh_crosscheck` certifies their termwise
agreement; `elsv_check` ties the correlator route to brute-force cover
counts through linear Hodge integrals.

Only `partitions` and the series core `qseries` are imported at module
level, so each function loads only the layers its route runs.  The wedge
engine `fock` is imported by `_boundary_bra` (the I-coefficients and the
Hodge series) and by `_i_pairings` (their ket); `characters` by
`_crossing_table` (the wall-crossing route's table) and `elsv_check`;
`hurwitz` by `stationary_gw` and `elsv_check`.  The closed formula
`completed_cycle` loads none of them.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from fractions import Fraction

from .partitions import (ClassSum, check_partition, check_table_degree, enumerate_partitions,
                         format_partition, set_partitions, subpartitions_by_removing_ones,
                         z_factor)
from .qseries import MultiSeries, s_series


def rho(k: int, mu) -> Fraction:
    """Series coefficient attached to a stripped profile in a completed cycle.

    For a nonempty mu this is (prod mu_j / |mu|!) times the coefficient of
    x^(k+2-|mu|-len(mu)) in S(x)^(|mu|-1) * prod S(mu_j x); for the empty
    partition the bracket degenerates to the x^(k+2) coefficient of 1/S(x).
    Vanishes when the target exponent is negative or odd.
    """
    if k < 0:
        raise ValueError("descendent index must be >= 0")
    mu = check_partition(mu)
    weight = sum(mu)
    exponent = k + 2 - weight - len(mu)
    if exponent < 0:
        return Fraction(0)
    order = exponent + 1
    series = s_series("x", order) ** (weight - 1)
    scale = Fraction(1, math.factorial(weight))
    for part in mu:
        series = series * s_series("x", order).scale_var("x", part)
        scale *= part
    return scale * series.coefficient((exponent,))


CompletedCycle = namedtuple("CompletedCycle", "k d value")


def completed_cycle(k: int, d: int) -> CompletedCycle:
    """Class sum of the k-th completed cycle in degree d, refused above
    MAX_TABLE_DEGREE before any partition is enumerated."""
    check_table_degree(d)
    if d < 1:
        raise ValueError("degree must be >= 1")
    terms = {}
    for mu in enumerate_partitions(d):
        total = Fraction(0)
        for sub, binom in subpartitions_by_removing_ones(mu):
            total += binom * rho(k, sub)
        if total:
            terms[mu] = total
    return CompletedCycle(k, d, ClassSum(d, terms))


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
    coefficient needs.
    """
    eta = check_partition(eta)
    if k < 0:
        raise ValueError("descendent index must be >= 0")
    d = sum(eta)
    if d < 1:
        raise ValueError("eta must be a nonempty partition")
    at = _i_monomial(g, eta, k)
    z_degree = k + 2 - 2 * g - d - len(eta)
    series = _i_pairings([eta], max(at[0] + 1, 1), k + 2)[eta]
    return IFunctionCoefficient(g, eta, k, series.coefficient(at), z_degree)


def _hodge_prefactor(eta) -> Fraction:
    """The classical ELSV prefactor prod eta_j^eta_j / eta_j!."""
    scale = Fraction(1)
    for p in eta:
        scale *= Fraction(p ** p, math.factorial(p))
    return scale


def hodge_H_series(eta, u_order: int) -> MultiSeries:
    """Disconnected linear-Hodge generating series for integer arguments.

    The vacuum coefficient of the boundary bra e^(alpha_1) e^(uF2) |eta>,
    which loses no order, shifted by u^(-len(eta)-|eta|) and the
    prod(eta_j!/eta_j^eta_j) prefactor.
    """
    eta = check_partition(eta)
    if not eta:
        raise ValueError("eta must be nonempty")
    shift = len(eta) + sum(eta)
    order = (u_order + shift,)
    series = _boundary_bra(eta, ("u",), order).coefficient(()).truncated(order)
    return series * MultiSeries.monomial(("u",), (-shift,), 1 / _hodge_prefactor(eta))


def hodge_H_connected(eta, u_order: int) -> MultiSeries:
    """Connected linear-Hodge series by inclusion-exclusion over the parts.

    The block of sub-profile `sub` has a pole of depth len(sub) + |sub| at
    u = 0, and in a product only the other blocks' poles cost it orders, so
    it is evaluated to u_order + pole - len(sub) - |sub|, once per distinct
    sub-profile.  Set partitions with the same multiset of sub-profiles give
    the same product, so it is formed once per multiset, weighted by their
    number.
    """
    eta = check_partition(eta)
    pole = len(eta) + sum(eta)
    classes = Counter()
    for blocks in set_partitions(len(eta)):
        subs = (tuple(sorted((eta[i] for i in block), reverse=True)) for block in blocks)
        classes[tuple(sorted(subs))] += 1
    blocks_of = {}
    total = MultiSeries.zero(("u",), (u_order,), (-pole,))
    for subs, count in classes.items():
        n = len(subs)
        weight = Fraction(count * (-1) ** (n - 1) * math.factorial(n - 1))
        piece = MultiSeries.constant(weight, ("u",))
        for sub in subs:
            if sub not in blocks_of:
                blocks_of[sub] = hodge_H_series(sub, u_order + pole - len(sub) - sum(sub))
            piece = piece * blocks_of[sub]
        total = total + piece
    return total


def i_function_empty(g: int, eta) -> IFunctionCoefficient:
    """Numerical I-coefficient with no markings, from the Hodge series."""
    eta = check_partition(eta)
    d = sum(eta)
    if d < 1:
        raise ValueError("eta must be a nonempty partition")
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
    orders (k+2, k+2) that the top genus needs.
    """
    if k < 0 or d < 1:
        raise ValueError("need k >= 0 and d >= 1")
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


class CrosscheckRow(namedtuple("CrosscheckRow", "d k matched lhs rhs")):
    __slots__ = ()

    def mismatches(self):
        out = []
        for mu in enumerate_partitions(self.d):
            a = self.lhs.coefficient(mu)
            b = self.rhs.coefficient(mu)
            if a != b:
                out.append((mu, a, b))
        return out


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
    smaller k reads inside them.
    """
    if k_max < 0:
        raise ValueError("descendent index must be >= 0")
    rows = []
    for d in range(1, d_max + 1):
        table, evs = _crossing_table(d)
        pairings = _i_pairings(table.partitions, k_max + 2, k_max + 2)
        for k in range(k_max + 1):
            lhs = completed_cycle(k, d).value
            rhs = _tau_from_table(k, table, evs, pairings)
            rows.append(CrosscheckRow(d, k, lhs == rhs, lhs, rhs))
    return CrosscheckReport(d_max, k_max, tuple(rows))


# ------------------------------------------------------- stationary theory


StationaryGW = namedtuple("StationaryGW", "total by_genus")


def stationary_gw(h: int, d: int, ks) -> StationaryGW:
    """Stationary invariants of a genus-h target through completed cycles.

    Grade b of the cycles' character sum (total branching b) is booked under
    the source genus (d(2h-2) + b)/2 + 1.  An odd grade holds only monomials
    that vanish by the sign symmetry lam <-> lam', so a nonzero one raises.
    """
    from .hurwitz import branching_sums

    cycles = [completed_cycle(k, d).value.terms.items() for k in ks]
    by_genus: dict[int, Fraction] = {}
    for b, value in sorted(branching_sums(h, d, cycles).items()):
        if not value:
            continue
        euler = d * (2 * h - 2) + b
        if euler % 2:
            raise ArithmeticError(f"nonzero cover count {value} with odd total branching {b}")
        by_genus[euler // 2 + 1] = value
    return StationaryGW(sum(by_genus.values(), Fraction(0)), by_genus)


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
    Inputs with m < 1 or g < 0 are degenerate and reported, not computed.
    """
    from .characters import transposition_class
    from .hurwitz import BranchData, hurwitz_connected

    mu = check_partition(mu)
    d = sum(mu)
    if d < 1:
        raise ValueError("mu must be nonempty")
    m = 2 * g - 2 + len(mu) + d
    if g < 0 or m < 1:
        return ElsvReport(mu, g, m, False, None, None)
    target = 2 * g - 2
    series = hodge_H_connected(mu, target + 1)
    scale = Fraction(math.factorial(m), z_factor(mu)) * _hodge_prefactor(mu)
    lhs = scale * series.coefficient((target,))
    if d >= 2:
        rhs = hurwitz_connected(BranchData(0, d, (mu,) + (transposition_class(d),) * m))
    else:
        rhs = Fraction(0)  # no simple branching exists over a single sheet
    return ElsvReport(mu, g, m, True, lhs, rhs)
