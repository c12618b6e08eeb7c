"""Truncated multivariate Laurent series over exact rationals.

Scalars are `fractions.Fraction` (re-exported as `Rational`).  A
`MultiSeries` models an element of Q((x1,..,xn)) with finite polar part,
known only up to a per-variable truncation order: coefficients are stored
for exponent tuples e with floor <= e < order (componentwise), and every
operation propagates the tightest order it can still guarantee.  Requesting
a coefficient at or above the guaranteed order raises `PrecisionError`
rather than returning a silent zero; below the floor the value is a
known zero.

Orders may be `math.inf` for objects that are known exactly (constants,
monomials, polynomials).  Floors are always finite integers.
"""

from __future__ import annotations

import math
from fractions import Fraction

Rational = Fraction

INF = math.inf


class SeriesError(ValueError):
    """Base class for series arithmetic errors."""


class VariableMismatchError(SeriesError):
    """Operands live over different variable tuples."""


class PrecisionError(SeriesError):
    """A coefficient was requested beyond the guaranteed truncation order."""


def _as_rational(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational scalar, got {type(value).__name__}")


class MultiSeries:
    """A truncated Laurent series in one or two (or zero) variables."""

    __slots__ = ("vars", "floor", "order", "coeffs")

    def __init__(self, vars, floor, order, coeffs):
        vars = tuple(vars)
        floor = tuple(int(f) for f in floor)
        order = tuple(o if o == INF else int(o) for o in order)
        if not (len(vars) == len(floor) == len(order)):
            raise SeriesError("vars/floor/order length mismatch")
        clean = {}
        for exps, value in coeffs.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != len(vars):
                raise SeriesError("exponent arity mismatch")
            if any(e < f for e, f in zip(exps, floor)):
                raise SeriesError(f"exponent {exps} below declared floor {floor}")
            if any(e >= o for e, o in zip(exps, order)):
                continue
            value = _as_rational(value)
            if value:
                clean[exps] = value
        self.vars = vars
        self.floor = floor
        self.order = order
        self.coeffs = clean

    # ---------------------------------------------------------------- basics

    @classmethod
    def zero(cls, vars, order, floor=None):
        vars = tuple(vars)
        if floor is None:
            floor = (0,) * len(vars)
        return cls(vars, floor, order, {})

    @classmethod
    def constant(cls, value, vars, order=None):
        vars = tuple(vars)
        if order is None:
            order = (INF,) * len(vars)
        return cls(vars, (0,) * len(vars), order, {(0,) * len(vars): value})

    @classmethod
    def monomial(cls, vars, exps, value=1, order=None):
        vars = tuple(vars)
        exps = tuple(exps)
        if order is None:
            order = (INF,) * len(vars)
        floor = tuple(min(e, 0) for e in exps)
        return cls(vars, floor, order, {exps: value})

    def is_zero_window(self) -> bool:
        """True when no nonzero coefficient is known inside the window."""
        return not self.coeffs

    def is_exact_zero(self) -> bool:
        return not self.coeffs and all(o == INF for o in self.order)

    def valuation_floor(self):
        """Componentwise min of stored exponents (declared floor if empty)."""
        if not self.coeffs:
            return self.floor
        return tuple(min(e[i] for e in self.coeffs) for i in range(len(self.vars)))

    def _check_same_vars(self, other):
        if self.vars != other.vars:
            raise VariableMismatchError(f"{self.vars} vs {other.vars}")

    # ------------------------------------------------------------ arithmetic

    def __neg__(self):
        return _raw(self.vars, self.floor, self.order,
                    {e: -c for e, c in self.coeffs.items()})

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiSeries.constant(other, self.vars)
        if not isinstance(other, MultiSeries):
            return NotImplemented
        self._check_same_vars(other)
        floor = tuple(min(a, b) for a, b in zip(self.floor, other.floor))
        order = tuple(min(a, b) for a, b in zip(self.order, other.order))
        coeffs = _window(self.coeffs, order)
        for e, c in _window(other.coeffs, order).items():
            s = coeffs.get(e)
            if s is None:
                coeffs[e] = c
            else:
                s += c
                if s:
                    coeffs[e] = s
                else:
                    del coeffs[e]
        return _raw(self.vars, floor, order, coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, MultiSeries) else -_as_rational(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _as_rational(other)
            if not other:
                return _raw(self.vars, self.floor, self.order, {})
            return _raw(self.vars, self.floor, self.order,
                        {e: c * other for e, c in self.coeffs.items()})
        if not isinstance(other, MultiSeries):
            return NotImplemented
        self._check_same_vars(other)
        # Unknown tail of one operand (exponents >= order) times the known
        # part of the other (exponents >= floor) pollutes the product from
        # order_a + floor_b on; the guaranteed order is the min over both
        # sides.  With floors of 0 this reduces to min(order_a, order_b).
        floor = tuple(a + b for a, b in zip(self.floor, other.floor))
        order = tuple(min(oa + fb, ob + fa)
                      for oa, fa, ob, fb
                      in zip(self.order, self.floor, other.order, other.floor))
        if len(self.vars) == 2:
            coeffs = _mul2(self.coeffs, other.coeffs, order[0], order[1])
        else:
            coeffs = {}
            for ea, ca in self.coeffs.items():
                for eb, cb in other.coeffs.items():
                    e = tuple(x + y for x, y in zip(ea, eb))
                    if all(x < o for x, o in zip(e, order)):
                        coeffs[e] = coeffs.get(e, 0) + ca * cb
            coeffs = {e: c for e, c in coeffs.items() if c}
        return _raw(self.vars, floor, order, coeffs)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self * (Fraction(1) / _as_rational(scalar))

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = MultiSeries.constant(1, self.vars)
        base = self
        while n:
            if n & 1:
                result = result * base
            base2 = base * base if n > 1 else base
            base = base2
            n >>= 1
        return result

    def __eq__(self, other):
        """Structural: the same vars, floor, order and coeffs.  `agrees_with`
        compares coefficientwise over the common window."""
        if not isinstance(other, MultiSeries):
            return NotImplemented
        return (self.vars == other.vars and self.floor == other.floor
                and self.order == other.order and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.vars, self.floor, self.order,
                     tuple(sorted(self.coeffs.items()))))

    def agrees_with(self, other) -> bool:
        """Coefficientwise equality over the intersection of known windows."""
        self._check_same_vars(other)
        order = tuple(min(a, b) for a, b in zip(self.order, other.order))
        for e in set(self.coeffs) | set(other.coeffs):
            if any(x >= o for x, o in zip(e, order)):
                continue
            if self.coeffs.get(e, 0) != other.coeffs.get(e, 0):
                return False
        return True

    # ------------------------------------------------------------ extraction

    def coefficient(self, exps) -> Fraction:
        if isinstance(exps, int):
            exps = (exps,)
        exps = tuple(exps)
        if len(exps) != len(self.vars):
            raise SeriesError("exponent arity mismatch")
        if any(e >= o for e, o in zip(exps, self.order)):
            raise PrecisionError(
                f"coefficient at {exps} lies beyond guaranteed order {self.order}")
        if any(e < f for e, f in zip(exps, self.floor)):
            return Fraction(0)
        return self.coeffs.get(exps, Fraction(0))

    def truncated(self, order):
        if len(order) != len(self.vars):
            raise SeriesError("vars/floor/order length mismatch")
        order = tuple(min(a, b) for a, b in zip(self.order, order))
        order = tuple(o if o == INF else int(o) for o in order)
        return _raw(self.vars, self.floor, order,
                    _window(self.coeffs, order))

    # -------------------------------------------------------- transformations

    def scale_var(self, var: str, c) -> "MultiSeries":
        """Substitute var -> c*var for a nonzero rational c."""
        c = _as_rational(c)
        if not c:
            raise SeriesError("scale_var requires a nonzero scalar")
        i = self.vars.index(var)
        coeffs = {e: val * c ** e[i] for e, val in self.coeffs.items()}
        return _raw(self.vars, self.floor, self.order, coeffs)

    def _effective_order(self, order):
        if order is None:
            eff = self.order
        elif isinstance(order, (int, float)):
            eff = tuple(min(o, order) for o in self.order)
        else:
            eff = tuple(min(a, b) for a, b in zip(self.order, order))
        if any(o == INF for o in eff):
            raise SeriesError("operation on an exact series needs an explicit order")
        return eff

    def inverse(self, order=None) -> "MultiSeries":
        """Multiplicative inverse of c*x^e*(1+g) with g of positive valuation."""
        if not self.coeffs:
            raise SeriesError("cannot invert a series with empty known window")
        corner = self.valuation_floor()
        lead = self.coeffs.get(corner)
        if lead is None:
            raise SeriesError("inverse requires a unique minimal corner term")
        # g = self / (lead * x^corner) - 1 must have nonnegative exponents
        shifted = {tuple(x - y for x, y in zip(e, corner)): c / lead
                   for e, c in self.coeffs.items()}
        del shifted[(0,) * len(self.vars)]
        if any(any(x < 0 for x in e) for e in shifted):
            raise SeriesError("inverse requires a dominant corner term")
        if not shifted:
            # exact monomial inverse
            out_order = tuple(o if o == INF else o - 2 * e
                              for o, e in zip(self.order, corner))
            return MultiSeries.monomial(self.vars, tuple(-e for e in corner),
                                        Fraction(1) / lead, out_order)
        rel_order = tuple(o if o == INF else o - c
                          for o, c in zip(self.order, corner))
        if order is not None:
            extra = (order,) * len(self.vars) if isinstance(order, (int, float)) else order
            rel_order = tuple(min(a, b) for a, b in zip(rel_order, extra))
        if any(o == INF for o in rel_order):
            raise SeriesError("inverse of an exact non-monomial needs an explicit order")
        g = MultiSeries(self.vars, (0,) * len(self.vars), rel_order, shifted)
        acc = taylor_eval(lambda n: Fraction((-1) ** n), g)
        shift = MultiSeries.monomial(self.vars, tuple(-e for e in corner),
                                     Fraction(1) / lead)
        return acc * shift

    def exp(self, order=None) -> "MultiSeries":
        """exp of a series with zero constant term and nonnegative exponents."""
        return taylor_eval(lambda n: Fraction(1, math.factorial(n)), self, order)

    def log(self, order=None) -> "MultiSeries":
        """log of a series with constant term 1."""
        a = self.truncated(self._effective_order(order))
        if a.coeffs.get((0,) * len(self.vars)) != 1:
            raise SeriesError("log requires constant term 1")
        return taylor_eval(lambda n: Fraction((-1) ** (n + 1), n) if n else 0, a - 1)

    # ---------------------------------------------------------- presentation

    def to_records(self):
        """Serialize as a sorted list of {exponents, value} records."""
        return [{"exponents": list(e), "value": format_rational(c)}
                for e, c in sorted(self.coeffs.items())]

    def __repr__(self):
        if not self.coeffs:
            body = "0"
        else:
            bits = []
            for e, c in sorted(self.coeffs.items()):
                mon = "*".join(f"{v}^{k}" for v, k in zip(self.vars, e) if k)
                bits.append(f"{c}" + (f"*{mon}" if mon else ""))
            body = " + ".join(bits)
        return f"<{body} ; O{self.order}>"


# ------------------------------------------------------- internal kernels
#
# Arithmetic results are built by `_raw`, which skips the validation of the
# public constructor: every result already has integer exponent tuples inside
# [floor, order) and nonzero Fraction values, and the helpers below keep it so.


def _raw(vars, floor, order, coeffs) -> MultiSeries:
    series = MultiSeries.__new__(MultiSeries)
    series.vars = vars
    series.floor = floor
    series.order = order
    series.coeffs = coeffs
    return series


def _window(coeffs, order) -> dict:
    """Copy of coeffs without the exponents at or above order."""
    return {e: c for e, c in coeffs.items() if all(x < o for x, o in zip(e, order))}


def _mul2(left, right, o0, o1) -> dict:
    """Bivariate product of coefficient dicts, kept below the order (o0, o1)."""
    rhs = sorted((e[0], e[1], c) for e, c in right.items())
    coeffs = {}
    get = coeffs.get
    for (a0, a1), ca in left.items():
        lim0 = o0 - a0
        lim1 = o1 - a1
        for b0, b1, cb in rhs:
            if b0 >= lim0:
                break
            if b1 >= lim1:
                continue
            e = (a0 + b0, a1 + b1)
            s = get(e)
            if s is None:
                coeffs[e] = ca * cb
            else:
                s += ca * cb
                if s:
                    coeffs[e] = s
                else:
                    del coeffs[e]
    return coeffs


# ------------------------------------------------------------- constructors


def format_rational(value) -> str:
    value = _as_rational(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def taylor_eval(coeff_of, arg: MultiSeries, order=None) -> MultiSeries:
    """Sum coeff_of(n) * arg^n for a series arg of positive valuation.

    Each power is cut to the effective order, which must be finite in every
    variable, so the loop ends once arg^n leaves that window.
    """
    eff = arg._effective_order(order)
    a = arg.truncated(eff)
    if any(any(x < 0 for x in e) for e in a.coeffs) or (0,) * len(a.vars) in a.coeffs:
        raise SeriesError("series substitution requires positive valuation")
    acc = MultiSeries.zero(a.vars, eff)
    power = MultiSeries.constant(1, a.vars).truncated(eff)
    n = 0
    while not power.is_zero_window():
        c = coeff_of(n)
        if c:
            acc = acc + power * c
        n += 1
        power = (power * a).truncated(eff)
    return acc


def _sigma_coeff(n: int) -> Fraction:
    # e^{x/2} - e^{-x/2}: only odd powers survive, with coefficient 2/(2^n n!).
    if n % 2 == 0:
        return Fraction(0)
    return Fraction(2, 2 ** n * math.factorial(n))


def _s_coeff(n: int) -> Fraction:
    # (e^{x/2} - e^{-x/2})/x: even powers, constant term 1.
    if n % 2 == 1:
        return Fraction(0)
    return Fraction(2, 2 ** (n + 1) * math.factorial(n + 1))


def sigma_series(var: str, order: int) -> MultiSeries:
    """The odd exponential kernel x + x^3/24 + x^5/1920 + ..."""
    if order < 1:
        raise SeriesError("order must be >= 1")
    coeffs = {(n,): _sigma_coeff(n) for n in range(1, order, 2)}
    return MultiSeries((var,), (0,), (order,), coeffs)


def s_series(var: str, order: int) -> MultiSeries:
    """The even normalized kernel 1 + x^2/24 + x^4/1920 + ..."""
    if order < 1:
        raise SeriesError("order must be >= 1")
    coeffs = {(n,): _s_coeff(n) for n in range(0, order, 2)}
    return MultiSeries((var,), (0,), (order,), coeffs)


def sigma_of(arg: MultiSeries, order=None) -> MultiSeries:
    """The odd kernel evaluated at a series argument of positive valuation."""
    return taylor_eval(_sigma_coeff, arg, order)


def s_of(arg: MultiSeries, order=None) -> MultiSeries:
    """The even kernel evaluated at a series argument of positive valuation."""
    return taylor_eval(_s_coeff, arg, order)


def pochhammer_series(k: int, var: str, order) -> MultiSeries:
    """Rising factorial (w+1)(w+2)..(w+k) for k >= 0, or its k < 0 analogue.

    For k < 0 the value is 1/(w (w-1) .. (w+k+1)): the 1/w factor is an exact
    Laurent monomial and each 1/(w-m) with m >= 1 expands geometrically as
    -(1/m) * sum (w/m)^j.
    """
    vars = (var,)
    if k >= 0:
        acc = MultiSeries.constant(1, vars, (order,))
        for i in range(1, k + 1):
            acc = acc * MultiSeries(vars, (0,), (INF,), {(0,): i, (1,): 1})
        return acc.truncated((order,))
    if order == INF:
        raise SeriesError("the k < 0 branch needs a finite order")
    acc = MultiSeries.monomial(vars, (-1,), 1, (order,))
    for m in range(1, -k):
        geo = {(j,): -Fraction(1, m ** (j + 1)) for j in range(int(order) + 1)}
        acc = acc * MultiSeries(vars, (0,), (order,), geo)
    return acc
