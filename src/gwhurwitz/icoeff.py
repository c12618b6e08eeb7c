"""Numerical one-marking I-coefficients through the correlator route.

`i_function_numeric` reads one coefficient of the raw boundary pairing
<eta| e^(uF2) e^(alpha_-1) A*(w, uw) |0>, bra first.  The pairings and the
boundary bra e^(alpha_1) e^(uF2) |eta> serve `gwh` too: its wall-crossing
route reads every I-coefficient of a degree from one pairing per profile,
and its Hodge series is the bra's vacuum coefficient.  The size limits
`MAX_SERIES_ORDER`, `MAX_SERIES_COST` and `MAX_PAIRING_COST` serve both as
well; `_check_series` checks them before any series is built.

Only `partitions` and the series core `qseries` are imported at module
level; the wedge engine `fock` is imported by `_boundary_bra` and
`_i_pairings`.  An `ifun` with a descendent index loads this module and not
`gwh`, so it compiles no Hodge series and no wall-crossing route.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .partitions import check_partition, format_partition
from .qseries import MultiSeries


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
