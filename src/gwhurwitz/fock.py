"""Charge-zero infinite-wedge states and the exact operators that act on them.

Basis vectors are indexed by partitions lam via the half-integer set
S(lam) = {lam_i - i + 1/2}, held as one integer per Maya diagram: over n
rows, bit b holds the slot b - n + 1/2 and every slot below bit 0 is
occupied.  `e_diagonal_support` hands out slots doubled (odd ints).
States are finite partition-indexed sums with `MultiSeries` coefficients.

Sign convention: moving an occupied slot j to an empty slot i carries
(-1)^(number of occupied slots strictly between i and j); this single rule
is the only source of signs in the engine.  The diagonal (normally ordered)
action is +1 on occupied positive slots and -1 on empty negative slots.

`f2_eigenvalue` computes the same number as `characters.f2_shifted`, from
the Maya diagram instead of shifted coordinates.  It stays here so that the
wedge engine never imports `characters`; `tests/test_fock.py` pins the two
equal.

The weights exp(c z) and 1/sigma(z) come only from the bounded memos
`_exp_weight` and `_inv_sigma`, keyed by the series z and shared by every
call.  In the package only `icoeff` imports this module, for its bra and
A*|0>, and `words`, whose operator words and their correlator no command
runs, so no command compiles them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .partitions import check_partition
from .qseries import (INF, MultiSeries, VariableMismatchError, _product_window, s_of,
                      sigma_of)


# ------------------------------------------------------------- Maya diagrams


def _diagram(lam, pad: int = 0) -> int:
    """The Maya diagram of v_lam over len(lam) + pad rows, as a bit mask."""
    n = len(lam) + pad
    return sum(1 << (part - i + n) for i, part in enumerate(lam, start=1)) + (1 << pad) - 1


def _partition(mask: int) -> tuple:
    """The partition of a diagram: each set bit, from the top, carries the
    number of empty bits below it, until the run of set bits from bit 0."""
    parts = []
    below = mask.bit_count()
    while True:
        top = mask.bit_length() - 1
        below -= 1
        if top == below:
            return tuple(parts)
        parts.append(top - below)
        mask ^= 1 << top


def e_moves(lam, r: int):
    """All single-slot moves of E_{k-r,k} on v_lam, for fixed nonzero r.

    Yields (new_partition, sign, mid) where mid = k - r/2 as a Fraction in
    half-integer units: the exponential weight of the generating operator is
    exp(z * mid).  Sources come in descending order.
    """
    if r == 0:
        raise ValueError("r = 0 is the diagonal action; see e_diagonal_support")
    pad = abs(r)  # then no bead below bit 0 can reach an empty slot
    n, mask = len(lam) + pad, _diagram(lam, pad)
    # bit b of `sources`: a bead at b whose target b - r is empty; every
    # slot below bit 0 is full
    sources = mask & ~((mask << r) | ((1 << r) - 1) if r > 0 else mask >> -r)
    between = (1 << (pad - 1)) - 1
    out = []
    while sources:
        b = sources.bit_length() - 1
        sources ^= 1 << b
        crossings = (mask >> (min(b, b - r) + 1)) & between
        out.append((_partition(mask ^ (1 << b) ^ (1 << (b - r))),
                    -1 if crossings.bit_count() & 1 else 1, Fraction(2 * (b - n) + 1 - r, 2)))
    return out


def e_diagonal_support(lam):
    """Occupied positive slots and empty negative slots (doubled ints), each
    in descending order."""
    n = len(lam)
    mask = _diagram(lam)
    positives = [2 * (b - n) + 1 for b in range(mask.bit_length() - 1, n - 1, -1) if mask >> b & 1]
    holes = [2 * (b - n) + 1 for b in range(n - 1, -1, -1) if not mask >> b & 1]
    return positives, holes


def f2_eigenvalue(lam) -> Fraction:
    """Sum of k^2/2 over occupied positive slots minus empty negative slots."""
    positives, holes = e_diagonal_support(lam)
    total = Fraction(0)
    for m in positives:
        total += Fraction(m * m, 8)
    for m in holes:
        total -= Fraction(m * m, 8)
    return total


# ----------------------------------------------------------------- states


class FockState:
    """Finite sum of basis vectors with truncated-series coefficients."""

    __slots__ = ("vars", "terms", "guard")

    def __init__(self, vars, terms=None, guard=None):
        self.vars = tuple(vars)
        self.terms = {}
        self.guard = tuple(guard) if guard is not None else (INF,) * len(self.vars)
        for lam, series in (terms or {}).items():
            self.add_term(lam, series)

    @classmethod
    def vacuum(cls, vars):
        vars = tuple(vars)
        return cls(vars, {(): MultiSeries.constant(1, vars)})

    def add_term(self, lam, series: MultiSeries):
        lam = check_partition(lam)
        if series.vars != self.vars:
            raise VariableMismatchError(f"{series.vars} vs {self.vars}")
        if lam in self.terms:
            series = self.terms[lam] + series
        if series.is_exact_zero():
            self.terms.pop(lam, None)
            return
        if series.is_zero_window():
            # dropping a window-zero term must not inflate later precision
            # claims: remember its order in the guard instead
            self.guard = tuple(min(g, o) for g, o in zip(self.guard, series.order))
            self.terms.pop(lam, None)
            return
        self.terms[lam] = series

    def updated_guard(self, other_guard):
        self.guard = tuple(min(g, o) for g, o in zip(self.guard, other_guard))

    def max_energy(self) -> int:
        return max((sum(lam) for lam in self.terms), default=0)

    def coefficient(self, lam) -> MultiSeries:
        lam = check_partition(lam)
        got = self.terms.get(lam)
        if got is None:
            got = MultiSeries.zero(self.vars, self.guard)
        return got.truncated(self.guard)

    def scaled(self, factor) -> "FockState":
        out = FockState(self.vars, guard=self.guard)
        for lam, series in self.terms.items():
            out.add_term(lam, series * factor)
        return out

    def __add__(self, other: "FockState") -> "FockState":
        out = FockState(self.vars, dict(self.terms), guard=self.guard)
        out.updated_guard(other.guard)
        for lam, series in other.terms.items():
            out.add_term(lam, series)
        return out

    def to_debug_dict(self) -> dict:
        from .partitions import format_partition
        return {format_partition(lam): self.terms[lam].to_records()
                for lam in sorted(self.terms)}

    def __repr__(self):
        return f"FockState({self.to_debug_dict()})"


def _least_floor(state: FockState) -> tuple:
    """Componentwise min of 0 and the floors of the state's terms."""
    return tuple(map(min, zip((0,) * len(state.vars), *(s.floor for s in state.terms.values()))))


def inner_product(bra: FockState, ket: FockState) -> MultiSeries:
    """Orthonormal-basis pairing; the result honours both states' guards.

    A term one side dropped is unknown from that side's guard on, and the
    other side's terms can lower it by their least floor, so each guard is
    shifted by the other side's least floor.
    """
    if bra.vars != ket.vars:
        raise VariableMismatchError(f"{bra.vars} vs {ket.vars}")
    floor, order = _product_window(_least_floor(bra), bra.guard, _least_floor(ket), ket.guard)
    total = MultiSeries.zero(bra.vars, order, floor)
    for lam, series in bra.terms.items():
        other = ket.terms.get(lam)
        if other is not None:
            total = total + series * other
    return total


# ------------------------------------------------------------ atom actions


def _moved(r: int, state: FockState, energy_cap, z=None) -> FockState:
    """Every move of shift r on every term, weighted by exp(z * mid) when z
    is given.  All moves of v_lam land at energy |lam| - r, so a term whose
    moves would pass the cap is skipped whole."""
    out = FockState(state.vars, guard=state.guard)
    for lam, series in state.terms.items():
        if energy_cap is not None and sum(lam) - r > energy_cap:
            continue
        for new_lam, sign, mid in e_moves(lam, r):
            piece = series if z is None else series * _exp_weight(z, mid)
            out.add_term(new_lam, piece if sign == 1 else -piece)
    return out


def apply_alpha(r: int, state: FockState, energy_cap=None) -> FockState:
    """Sum of all moves lowering slot values by r (raising energy by -r)."""
    if r == 0:
        raise ValueError("alpha_0 is central and not used")
    return _moved(r, state, energy_cap)


def apply_exp_alpha(r: int, state: FockState, energy_cap: int) -> FockState:
    """exp(alpha_r) for r in {+1, -1} by summing alpha_r^m / m!."""
    if r not in (1, -1):
        raise ValueError("only exp(alpha_(+/-1)) is supported")
    out = state
    term = state
    m = 0
    while True:
        m += 1
        term = apply_alpha(r, term, energy_cap).scaled(Fraction(1, m))
        if not term.terms:
            if out is state:  # never lower the caller's guard
                out = FockState(state.vars, state.terms, state.guard)
            out.updated_guard(term.guard)
            return out
        out = out + term


@lru_cache(maxsize=1024)  # every weight of an I-correlator or a criterion-6 sweep
def _exp_weight(z: MultiSeries, c: Fraction) -> MultiSeries:
    """exp(c * z), to z's order; the exact 1 when c is 0."""
    return (z * c).exp() if c else MultiSeries.constant(1, z.vars)


@lru_cache(maxsize=64)
def _inv_sigma(z: MultiSeries) -> MultiSeries:
    """1/sigma(z), to z's order."""
    return sigma_of(z).inverse()


def apply_expUF2(state: FockState, u_var: str = "u", scale=1, order=None) -> FockState:
    """Multiply each v_lam coefficient by exp(scale * u * f2(lam)), cut at
    `order` or else at that coefficient's order."""
    if u_var not in state.vars:
        raise VariableMismatchError(f"variable {u_var!r} missing from {state.vars}")
    i = state.vars.index(u_var)
    u = tuple(int(j == i) for j in range(len(state.vars)))
    out = FockState(state.vars, guard=state.guard)
    for lam, series in state.terms.items():
        z = MultiSeries.monomial(state.vars, u, 1, series.order if order is None else order)
        out.add_term(lam, series * _exp_weight(z, Fraction(scale) * f2_eigenvalue(lam)))
    return out


def apply_calE(r: int, z: MultiSeries, state: FockState, energy_cap: int) -> FockState:
    """The exponentially weighted move operator of shift r.

    For r = 0 the action is diagonal with weight sum(exp(z k)) over occupied
    positive slots minus empty negative slots, plus the 1/sigma(z) scalar;
    the scalar term is present only at r = 0.
    """
    if r:
        return _moved(r, state, energy_cap, z)
    out = FockState(state.vars, guard=state.guard)
    for lam, series in state.terms.items():
        positives, holes = e_diagonal_support(lam)
        weight = _inv_sigma(z)
        for m in positives:
            weight = weight + _exp_weight(z, Fraction(m, 2))
        for m in holes:
            weight = weight - _exp_weight(z, Fraction(m, 2))
        out.add_term(lam, series * weight)
    return out


def _inverse_pochhammers(a: MultiSeries, order):
    """1/(a+1)_k for k = 1, 2, ..., each from the last by one two-term inverse."""
    inv = MultiSeries.constant(1, a.vars)
    k = 0
    while True:
        k += 1
        inv = inv * (a + k).inverse(order=order)
        yield inv


def _a_family(a: MultiSeries, b: MultiSeries, state: FockState, energy_cap: int,
              adjoint: bool) -> FockState:
    """Shared engine for the hypergeometric-kernel operators.

    The operator is S(b)^a * sum_k sigma(b)^k / (a+1)_k E_(sgn k)(b) with
    E_{-k} for the adjoint and E_{+k} otherwise.  A shift k > 0 raises
    (adjoint) or lowers a term's energy by k, so the k >= 0 tail stops after
    the cap less the least term energy (adjoint) or after the state's energy,
    or earlier, where sigma(b)^k leaves the truncation window because b has
    positive valuation; either stop bounds the guard by sigma(b)'s order.
    The k < 0 range is finite for the same reason: each step lowers
    (adjoint: raises) slot energy, which is bounded by the state's energy
    (adjoint: by the cap).
    """
    if a.vars != b.vars or a.vars != state.vars:
        raise VariableMismatchError("operator parameters must share the state's variables")
    prefactor = (a * s_of(b).log()).exp()  # S(b)^a
    sig = sigma_of(b)
    out = FockState(state.vars, guard=state.guard)

    # k >= 0 branch, up to the last shift that can move a term
    if adjoint:
        last = energy_cap - min((sum(lam) for lam in state.terms), default=energy_cap)
    else:
        last = state.max_energy()
    sig_pow = MultiSeries.constant(1, state.vars)
    inv_pochs = _inverse_pochhammers(a, b.order)
    k = 0
    while True:
        if k > 0:
            if k > last:
                out.updated_guard(sig.order)
                break
            sig_pow = sig_pow * sig
            if sig_pow.is_zero_window():
                out.updated_guard(sig_pow.order)
                break
        factor = sig_pow * next(inv_pochs) if k else sig_pow
        moved = apply_calE(-k if adjoint else k, b, state, energy_cap)
        out = out + moved.scaled(factor)
        k += 1

    # k < 0 branch: 1/(a+1)_k = a(a-1)..(a+k+1) is polynomial, sigma(b)^k polar
    inv_sig = _inv_sigma(b)
    reach = state.max_energy() if adjoint else energy_cap
    sig_pow = MultiSeries.constant(1, state.vars)
    numer = MultiSeries.constant(1, state.vars)
    for kk in range(1, reach + 1):
        sig_pow = sig_pow * inv_sig
        numer = numer * (a - (kk - 1))
        moved = apply_calE(kk if adjoint else -kk, b, state, energy_cap)
        out = out + moved.scaled(sig_pow * numer)
    return out.scaled(prefactor)


def apply_Astar(a: MultiSeries, b: MultiSeries, state: FockState,
                energy_cap: int) -> FockState:
    """Adjoint hypergeometric operator: raises energy at unit series cost."""
    return _a_family(a, b, state, energy_cap, adjoint=True)


def apply_A(a: MultiSeries, b: MultiSeries, state: FockState,
            energy_cap: int) -> FockState:
    """Hypergeometric operator: annihilates the vacuum up to scalar terms."""
    return _a_family(a, b, state, energy_cap, adjoint=False)


# --------------------------------------------------------- boundary states


def boson_state(eta, vars) -> FockState:
    """Product of energy-raising alphas over the parts of eta on the vacuum.

    Expanding the result in the wedge basis recovers integer coefficients;
    no normalization factor is applied here.
    """
    state = FockState.vacuum(vars)
    for part in check_partition(eta):
        state = apply_alpha(-part, state)
    return state
