"""Truncated multivariate Laurent series over exact rationals.

Scalars are `fractions.Fraction` (re-exported as `Rational`).  A
`MultiSeries` models an element of Q((x1,..,xn)) with finite polar part,
known only up to a per-variable truncation order: coefficients are known
for exponent tuples e with floor <= e < order (componentwise), and every
operation propagates the tightest order it can still guarantee.  Requesting
a coefficient at or above the guaranteed order raises `PrecisionError`
rather than returning a silent zero; below the floor the value is a
known zero.

Storage is integer numerators over one common denominator: `num` maps the
exponents inside the window to nonzero ints, `den` is a positive int, and
gcd(den, *num.values()) == 1, so the form is canonical and equality is
structural.  `coeffs` copies them out as a dict exponent -> Fraction.

Orders may be `math.inf` for objects that are known exactly (constants,
monomials, polynomials).  Floors are always finite integers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, le, lt

Rational = Fraction

INF = math.inf


class SeriesError(ValueError):
    """Base class for series arithmetic errors."""


class VariableMismatchError(SeriesError):
    """Operands live over different variable tuples."""


class PrecisionError(SeriesError):
    """A coefficient was requested beyond the guaranteed truncation order."""


def _as_rational(value) -> Fraction:
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise TypeError(f"expected an exact rational scalar, got {type(value).__name__}")


class MultiSeries:
    """A truncated Laurent series in one or two (or zero) variables."""

    __slots__ = ("vars", "floor", "order", "num", "den")

    def __init__(self, vars, floor, order, coeffs):
        vars = tuple(vars)
        floor = tuple(map(int, floor))
        order = tuple(o if o == INF else int(o) for o in order)
        if not (len(vars) == len(floor) == len(order)):
            raise SeriesError("vars/floor/order length mismatch")
        if len(vars) > 2:
            raise SeriesError("a series has at most two variables")
        clean = {}
        for exps, value in coeffs.items():
            exps = tuple(map(int, exps))
            if len(exps) != len(vars):
                raise SeriesError("exponent arity mismatch")
            if any(map(lt, exps, floor)):
                raise SeriesError(f"exponent {exps} below declared floor {floor}")
            if not all(map(lt, exps, order)):
                continue
            value = _as_rational(value)
            if value:
                clean[exps] = value
        # over the lcm of reduced denominators, the form is already canonical
        den = math.lcm(*(c.denominator for c in clean.values()))
        self.vars, self.floor, self.order, self.den = vars, floor, order, den
        self.num = {e: c.numerator * (den // c.denominator) for e, c in clean.items()}

    @property
    def coeffs(self) -> dict:
        """The known coefficients as a new dict exponent -> Fraction."""
        return {e: Fraction(c, self.den) for e, c in self.num.items()}

    # ---------------------------------------------------------------- basics

    @classmethod
    def zero(cls, vars, order, floor=None):
        vars = tuple(vars)
        return cls(vars, (0,) * len(vars) if floor is None else floor, order, {})

    @classmethod
    def constant(cls, value, vars, order=None):
        vars = tuple(vars)
        zeros = (0,) * len(vars)
        return cls(vars, zeros, (INF,) * len(vars) if order is None else order, {zeros: value})

    @classmethod
    def monomial(cls, vars, exps, value=1, order=None):
        vars = tuple(vars)
        exps = tuple(exps)
        order = (INF,) * len(vars) if order is None else order
        return cls(vars, tuple(min(e, 0) for e in exps), order, {exps: value})

    def is_zero_window(self) -> bool:
        """True when no nonzero coefficient is known inside the window."""
        return not self.num

    def is_exact_zero(self) -> bool:
        return not self.num and all(o == INF for o in self.order)

    def valuation_floor(self):
        """Componentwise min of stored exponents (declared floor if empty)."""
        return tuple(map(min, zip(*self.num))) if self.num else self.floor

    def _check_same_vars(self, other):
        if self.vars != other.vars:
            raise VariableMismatchError(f"{self.vars} vs {other.vars}")

    # ------------------------------------------------------------ arithmetic

    def __neg__(self):
        return _canonical(self.vars, self.floor, self.order,
                          {e: -c for e, c in self.num.items()}, self.den)

    def __add__(self, other):
        if not isinstance(other, MultiSeries):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = MultiSeries.constant(other, self.vars)
        self._check_same_vars(other)
        floor = tuple(map(min, self.floor, other.floor))
        order = tuple(map(min, self.order, other.order))
        da, db = self.den, other.den
        den = da // math.gcd(da, db) * db
        sa, sb = den // da, den // db
        num = {e: c * sa for e, c in _window(self.num, self.order, order).items()}
        for e, c in _window(other.num, other.order, order).items():
            num[e] = num.get(e, 0) + c * sb
        return _canonical(self.vars, floor, order, num, den)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, MultiSeries) else -_as_rational(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MultiSeries):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            p = other.numerator
            return _canonical(self.vars, self.floor, self.order,
                              {e: c * p for e, c in self.num.items()} if p else {},
                              self.den * other.denominator)
        self._check_same_vars(other)
        floor, order = _product_window(self.floor, self.order, other.floor, other.order)
        num = _MUL[len(self.vars)](self.num, other.num, order)
        return _canonical(self.vars, floor, order, num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self * (Fraction(1) / _as_rational(scalar))

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result, base = MultiSeries.constant(1, self.vars), self
        while n:
            if n & 1:
                result = result * base
            if n > 1:
                base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        """Structural; `agrees_with` compares coefficientwise over the common window."""
        if not isinstance(other, MultiSeries):
            return NotImplemented
        return ((self.vars, self.floor, self.order, self.den, self.num)
                == (other.vars, other.floor, other.order, other.den, other.num))

    def __hash__(self):
        return hash((self.vars, self.floor, self.order, self.den,
                     frozenset(self.num.items())))

    def agrees_with(self, other) -> bool:
        """Coefficientwise equality over the intersection of known windows."""
        self._check_same_vars(other)
        order = tuple(map(min, self.order, other.order))
        for e in set(self.num) | set(other.num):
            if any(x >= o for x, o in zip(e, order)):
                continue
            if self.num.get(e, 0) * other.den != other.num.get(e, 0) * self.den:
                return False
        return True

    # ------------------------------------------------------------ extraction

    def coefficient(self, exps) -> Fraction:
        exps = (exps,) if isinstance(exps, int) else tuple(exps)
        if len(exps) != len(self.vars):
            raise SeriesError("exponent arity mismatch")
        if any(e >= o for e, o in zip(exps, self.order)):
            raise PrecisionError(
                f"coefficient at {exps} lies beyond guaranteed order {self.order}")
        return Fraction(self.num.get(exps, 0), self.den)

    def truncated(self, order):
        if len(order) != len(self.vars):
            raise SeriesError("vars/floor/order length mismatch")
        if all(map(le, self.order, order)):
            return self
        order = tuple(o if o == INF else int(o) for o in map(min, self.order, order))
        return _canonical(self.vars, self.floor, order,
                          _window(self.num, self.order, order), self.den)

    # -------------------------------------------------------- transformations

    def _effective_order(self, order):
        if isinstance(order, (int, float)):
            order = (order,) * len(self.order)
        eff = self.order if order is None else tuple(map(min, self.order, order))
        if any(o == INF for o in eff):
            raise SeriesError("operation on an exact series needs an explicit order")
        return eff

    def inverse(self, order=None) -> "MultiSeries":
        """Multiplicative inverse of c*x^e*(1+g) with g of positive valuation."""
        if not self.num:
            raise SeriesError("cannot invert a series with empty known window")
        corner = self.valuation_floor()
        lead = self.num.get(corner)
        if lead is None:
            raise SeriesError("inverse requires a unique minimal corner term")
        # g = self / (lead * x^corner) - 1 must have nonnegative exponents
        shifted = {tuple(x - y for x, y in zip(e, corner)): c
                   for e, c in self.num.items()}
        del shifted[(0,) * len(self.vars)]
        if any(any(x < 0 for x in e) for e in shifted):
            raise SeriesError("inverse requires a dominant corner term")
        inv_lead = Fraction(self.den, lead)
        if not shifted:
            # exact monomial inverse
            out_order = tuple(o if o == INF else o - 2 * e for o, e in zip(self.order, corner))
            return MultiSeries.monomial(self.vars, tuple(-e for e in corner),
                                        inv_lead, out_order)
        rel_order = tuple(o if o == INF else o - c for o, c in zip(self.order, corner))
        g = _canonical(self.vars, (0,) * len(self.vars), rel_order,
                       {e: c if lead > 0 else -c for e, c in shifted.items()}, abs(lead))
        acc = taylor_eval(lambda n: (-1) ** n, g, order)
        return acc * MultiSeries.monomial(self.vars, tuple(-e for e in corner), inv_lead)

    def exp(self, order=None) -> "MultiSeries":
        """exp of a series with zero constant term and nonnegative exponents."""
        return taylor_eval(lambda n: Fraction(1, math.factorial(n)), self, order)

    def log(self, order=None) -> "MultiSeries":
        """log of a series with constant term 1."""
        a = self.truncated(self._effective_order(order))
        if a.num.get((0,) * len(self.vars)) != a.den:
            raise SeriesError("log requires constant term 1")
        return taylor_eval(lambda n: Fraction((-1) ** (n + 1), n) if n else 0, a - 1)

    # ---------------------------------------------------------- presentation

    def to_records(self):
        """Serialize as a sorted list of {exponents, value} records."""
        return [{"exponents": list(e), "value": format_rational(c)}
                for e, c in sorted(self.coeffs.items())]

    def __repr__(self):
        bits = []
        for e, c in sorted(self.coeffs.items()):
            mon = "*".join(f"{v}^{k}" for v, k in zip(self.vars, e) if k)
            bits.append(f"{c}" + (f"*{mon}" if mon else ""))
        return f"<{' + '.join(bits) or '0'} ; O{self.order}>"


# ------------------------------------------------------- internal kernels
#
# Arithmetic results are built by `_canonical`, which skips the validation of
# the public constructor (every kernel keeps exponents inside [floor, order)),
# drops cancelled numerators and divides out their content by one gcd.


def _canonical(vars, floor, order, num, den) -> MultiSeries:
    if 0 in num.values():
        num = {e: c for e, c in num.items() if c}
    g = den if den == 1 or not num else math.gcd(den, *num.values())
    if g != 1:
        num = {e: c // g for e, c in num.items()}
        den //= g
    series = MultiSeries.__new__(MultiSeries)
    series.vars, series.floor, series.order, series.num, series.den = vars, floor, order, num, den
    return series


def _product_window(floor_a, order_a, floor_b, order_b) -> tuple:
    """Floor and order of a product: one factor's unknown tail times the
    other's known part pollutes it from order_a + floor_b (and symmetrically) on."""
    return (tuple(map(add, floor_a, floor_b)),
            tuple(map(min, map(add, order_a, floor_b), map(add, order_b, floor_a))))


def _window(num, known, order) -> dict:
    """The numerators below order: num itself when its known order fits."""
    if all(map(le, known, order)):
        return num
    return {e: c for e, c in num.items() if all(map(lt, e, order))}


def _mul0(left, right, order) -> dict:
    return {(): left[()] * right[()]} if left and right else {}


def _mul1(left, right, order) -> dict:
    (o,) = order
    rhs = sorted((b, c) for (b,), c in right.items())
    out = {}
    get = out.get
    for (a,), ca in left.items():
        lim = o - a
        for b, cb in rhs:
            if b >= lim:
                break
            e = (a + b,)
            out[e] = get(e, 0) + ca * cb
    return out


def _mul2(left, right, order) -> dict:
    o0, o1 = order
    rhs = sorted((e[0], e[1], c) for e, c in right.items())
    out = {}
    get = out.get
    for (a0, a1), ca in left.items():
        lim0, lim1 = o0 - a0, o1 - a1
        for b0, b1, cb in rhs:
            if b0 >= lim0:
                break
            if b1 >= lim1:
                continue
            e = (a0 + b0, a1 + b1)
            out[e] = get(e, 0) + ca * cb
    return out


# numerator product kernels by arity, each kept below the product's order
_MUL = (_mul0, _mul1, _mul2)


# ------------------------------------------------------------- constructors


def format_rational(value) -> str:
    return str(_as_rational(value))


def taylor_eval(coeff_of, arg: MultiSeries, order=None) -> MultiSeries:
    """Sum coeff_of(n) * arg^n for a series arg of positive valuation.

    Each power is cut to the effective order, which must be finite in every
    variable, so the loop ends once arg^n leaves that window.
    """
    eff = arg._effective_order(order)
    a = arg.truncated(eff)
    if any(any(x < 0 for x in e) for e in a.num) or (0,) * len(a.vars) in a.num:
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
    return Fraction(2, 2 ** n * math.factorial(n)) if n % 2 else Fraction(0)


def _s_coeff(n: int) -> Fraction:
    # (e^{x/2} - e^{-x/2})/x: even powers, constant term 1.
    return _sigma_coeff(n + 1)


def _kernel_series(coeff_of, var: str, order: int) -> MultiSeries:
    if order < 1:
        raise SeriesError("order must be >= 1")
    return MultiSeries((var,), (0,), (order,), {(n,): coeff_of(n) for n in range(order)})


def sigma_series(var: str, order: int) -> MultiSeries:
    """The odd exponential kernel x + x^3/24 + x^5/1920 + ..."""
    return _kernel_series(_sigma_coeff, var, order)


def s_series(var: str, order: int) -> MultiSeries:
    """The even normalized kernel 1 + x^2/24 + x^4/1920 + ..."""
    return _kernel_series(_s_coeff, var, order)


def sigma_of(arg: MultiSeries, order=None) -> MultiSeries:
    """The odd kernel evaluated at a series argument of positive valuation."""
    return taylor_eval(_sigma_coeff, arg, order)


def s_of(arg: MultiSeries, order=None) -> MultiSeries:
    """The even kernel evaluated at a series argument of positive valuation."""
    return taylor_eval(_s_coeff, arg, order)


def pochhammer_series(k: int, var: str, order) -> MultiSeries:
    """Rising factorial (w+1)(w+2)..(w+k) for k >= 0, or its k < 0 analogue.

    For k < 0 the value is 1/(w (w-1) .. (w+k+1)), the `inverse` of that
    exact polynomial cut at `order`.
    """
    if k < 0 and order == INF:
        raise SeriesError("the k < 0 branch needs a finite order")
    vars = (var,)
    acc = MultiSeries.constant(1, vars)
    for i in (range(1, k + 1) if k >= 0 else range(0, k, -1)):
        acc = acc * MultiSeries(vars, (0,), (INF,), {(0,): i, (1,): 1})
    return (acc.inverse(order=order) if k < 0 else acc).truncated((order,))
