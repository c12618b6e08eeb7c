"""Series arithmetic: examples, ring axioms, truncation contract."""

import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwhurwitz.qseries import (INF, MultiSeries, PrecisionError, SeriesError,
                               VariableMismatchError, format_rational,
                               pochhammer_series, s_of, s_series, sigma_of,
                               sigma_series, taylor_eval)


def uni(coeffs, order=8, floor=0, var="x"):
    return MultiSeries((var,), (floor,), (order,), {(e,): c for e, c in coeffs.items()})


class TestMul:
    def test_polynomial_identity(self):
        one_plus = uni({0: 1, 1: 1})
        one_minus = uni({0: 1, 1: -1})
        assert (one_plus * one_minus).coeffs == {(0,): F(1), (2,): F(-1)}

    def test_sigma_squared(self):
        prod = sigma_series("x", 8) * sigma_series("x", 8)
        assert prod.coefficient(2) == 1
        assert prod.coefficient(4) == F(1, 12)
        assert prod.coefficient(6) == F(1, 360)

    def test_laurent_unit(self):
        xinv = MultiSeries.monomial(("x",), (-1,), 1, (8,))
        x = MultiSeries.monomial(("x",), (1,), 1, (8,))
        prod = xinv * x
        assert prod.coefficient(0) == 1
        assert prod.floor == (-1,)

    def test_variable_mismatch(self):
        with pytest.raises(VariableMismatchError):
            uni({0: 1}) * uni({0: 1}, var="y")

    def test_order_erosion_with_negative_floor(self):
        # x^-1 known to order 5 squared: pollution enters at 5 + (-1) = 4
        a = MultiSeries(("x",), (-1,), (5,), {(-1,): 1})
        assert (a * a).order == (4,)


class TestExpLog:
    def test_exp_zero(self):
        assert MultiSeries.zero(("x",), (4,)).exp().coefficient(0) == 1

    def test_exp_x(self):
        e = uni({1: 1}, order=4).exp()
        assert [e.coefficient(n) for n in range(4)] == [1, 1, F(1, 2), F(1, 6)]

    def test_log_of_s(self):
        logs = s_series("x", 7).log()
        assert logs.coefficient(2) == F(1, 24)
        assert logs.coefficient(4) == F(-1, 2880)

    def test_roundtrips(self):
        a = uni({1: F(1, 3), 2: -2, 3: F(5, 7)}, order=7)
        assert a.exp().log().agrees_with(a)
        b = uni({0: 1, 2: F(3, 5), 3: 1}, order=7)
        assert b.log().exp().agrees_with(b)

    def test_preconditions(self):
        with pytest.raises(SeriesError):
            uni({0: 1, 1: 1}).exp()
        with pytest.raises(SeriesError):
            uni({0: 2, 1: 1}).log()


class TestKernels:
    def test_sigma_coefficients(self):
        s = sigma_series("x", 6)
        assert s.coefficient(1) == 1
        assert s.coefficient(3) == F(1, 24)
        assert s.coefficient(5) == F(1, 1920)
        assert all(e[0] % 2 == 1 for e in s.coeffs)

    def test_s_coefficients(self):
        s = s_series("x", 5)
        assert s.coefficient(0) == 1
        assert s.coefficient(2) == F(1, 24)
        assert s.coefficient(4) == F(1, 1920)
        assert all(e[0] % 2 == 0 for e in s.coeffs)

    def test_s_evenness_via_substitution(self):
        s = s_series("x", 9)
        assert s_of(MultiSeries.monomial(("x",), (1,), -1, (9,))) == s

    def test_sigma_of_composite_argument(self):
        vars = ("u", "w")
        b = MultiSeries.monomial(vars, (1, 1), 1, (6, 6))
        sig = sigma_of(b)
        assert sig.coefficient((1, 1)) == 1
        assert sig.coefficient((3, 3)) == F(1, 24)
        assert s_of(b).coefficient((0, 0)) == 1

    def test_inverse_of_sigma(self):
        inv = sigma_series("x", 9).inverse()
        assert inv.coefficient(-1) == 1
        assert inv.coefficient(1) == F(-1, 24)
        assert inv.coefficient(3) == F(7, 5760)
        prod = inv * sigma_series("x", 9)
        assert prod.coefficient(0) == 1
        assert prod.coefficient(2) == 0


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer_series(0, "w", 6).coefficient(0) == 1

    def test_k2(self):
        p = pochhammer_series(2, "w", 6)
        assert p.coeffs == {(0,): F(2), (1,): F(3), (2,): F(1)}

    def test_k_minus_one(self):
        p = pochhammer_series(-1, "w", 5)
        assert p.coeffs == {(-1,): F(1)}

    def test_k_negative_matches_defining_product(self):
        # 1/(a+1)_k for k < 0 times the defining product w(w-1)..(w+k+1) is 1
        for k in (-1, -2, -3):
            series = pochhammer_series(k, "w", 9)
            check = MultiSeries.constant(1, ("w",), (9,))
            for i in range(-k):
                check = check * MultiSeries(("w",), (0,), (INF,), {(0,): -i, (1,): 1})
            prod = series * check
            assert prod.coefficient(0) == 1
            assert all(c == 0 for e, c in prod.coeffs.items() if e != (0,))


class TestPrecision:
    def test_extraction_beyond_order_raises(self):
        s = sigma_series("x", 6)
        with pytest.raises(PrecisionError):
            s.coefficient(6)

    def test_below_floor_is_known_zero(self):
        assert sigma_series("x", 6).coefficient(-3) == 0

    def test_serialization(self):
        s = uni({-1: F(1, 2), 2: -3}, floor=-1)
        assert s.to_records() == [
            {"exponents": [-1], "value": "1/2"},
            {"exponents": [2], "value": "-3"},
        ]
        assert format_rational(F(3, 1)) == "3"


def series_strategy(var="x"):
    exponents = st.integers(min_value=-2, max_value=5)
    scalars = st.fractions(min_value=-4, max_value=4, max_denominator=12)
    return st.builds(
        lambda coeffs, order: MultiSeries(
            (var,), (-2,), (order,), {(e,): c for e, c in coeffs.items() if e < order}),
        st.dictionaries(exponents, scalars, max_size=5),
        st.integers(min_value=3, max_value=7),
    )


@settings(max_examples=120, deadline=None)
@given(series_strategy(), series_strategy(), series_strategy())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def laurent_poly_strategy(var="x"):
    exponents = st.integers(min_value=-2, max_value=5)
    scalars = st.fractions(min_value=-4, max_value=4, max_denominator=12)
    return st.builds(
        lambda coeffs: MultiSeries((var,), (-2,), (INF,), coeffs={(e,): c for e, c in coeffs.items()}),
        st.dictionaries(exponents, scalars, max_size=5),
    )


@settings(max_examples=150, deadline=None)
@given(laurent_poly_strategy(), laurent_poly_strategy(),
       st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6))
def test_mul_never_claims_beyond_inputs(a_exact, b_exact, oa, ob):
    # every coefficient inside the product's claimed window must equal the
    # exact product of the untruncated operands
    a = a_exact.truncated((oa,))
    b = b_exact.truncated((ob,))
    product = a * b
    exact = a_exact * b_exact
    for e in range(product.floor[0], int(product.order[0])):
        assert product.coefficient(e) == exact.coefficient(e)


# ----------------------------------------------- fast paths against a reference
#
# The arithmetic builds its results without the validation of the public
# constructor, with a loop specialised to two variables.  The reference below
# is the generic loop, built through the validating constructor.


def _reference_add(a, b):
    floor = tuple(min(x, y) for x, y in zip(a.floor, b.floor))
    order = tuple(min(x, y) for x, y in zip(a.order, b.order))
    coeffs = dict(a.coeffs)
    for e, c in b.coeffs.items():
        coeffs[e] = coeffs.get(e, F(0)) + c
    return MultiSeries(a.vars, floor, order, coeffs)


def _reference_mul(a, b):
    floor = tuple(x + y for x, y in zip(a.floor, b.floor))
    order = tuple(min(oa + fb, ob + fa)
                  for oa, fa, ob, fb in zip(a.order, a.floor, b.order, b.floor))
    coeffs = {}
    for ea, ca in a.coeffs.items():
        for eb, cb in b.coeffs.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if any(x >= o for x, o in zip(e, order)):
                continue
            coeffs[e] = coeffs.get(e, F(0)) + ca * cb
    return MultiSeries(a.vars, floor, order, coeffs)


@st.composite
def _series_over(draw, vars):
    floor = tuple(draw(st.integers(min_value=-3, max_value=1)) for _ in vars)
    order = tuple(draw(st.one_of(st.just(INF), st.integers(min_value=f, max_value=f + 6)))
                  for f in floor)
    exps = st.tuples(*(st.integers(min_value=f, max_value=f + 6) for f in floor))
    # few distinct small scalars, so that sums and products often cancel
    scalars = st.sampled_from([F(1), F(-1), F(2), F(-2), F(1, 2), F(-1, 3)])
    return MultiSeries(vars, floor, order,
                       draw(st.dictionaries(exps, scalars, max_size=6)))


@st.composite
def _series_pairs(draw):
    vars = ("x", "y")[:draw(st.integers(min_value=0, max_value=2))]
    a = draw(_series_over(vars))
    b = draw(st.one_of(_series_over(vars), st.just(-a)))
    return a, b


def _assert_same(fast, ref):
    assert (fast.vars, fast.floor, fast.order, fast.coeffs) == \
        (ref.vars, ref.floor, ref.order, ref.coeffs)
    for e, c in fast.coeffs.items():
        assert isinstance(c, F) and c != 0
        assert all(f <= x < o for x, f, o in zip(e, fast.floor, fast.order))


@settings(max_examples=300, deadline=None)
@given(_series_pairs())
def test_fast_arithmetic_matches_reference(pair):
    a, b = pair
    _assert_same(a + b, _reference_add(a, b))
    _assert_same(a * b, _reference_mul(a, b))
    _assert_same(-a, MultiSeries(a.vars, a.floor, a.order,
                                 {e: -c for e, c in a.coeffs.items()}))
    _assert_same(a.truncated(b.order), MultiSeries(
        a.vars, a.floor, tuple(min(x, y) for x, y in zip(a.order, b.order)), a.coeffs))


def test_products_that_cancel_store_nothing():
    xy = MultiSeries(("x", "y"), (0, 0), (4, 4), {(1, 0): 1, (0, 1): 1})
    xmy = MultiSeries(("x", "y"), (0, 0), (4, 4), {(1, 0): 1, (0, 1): -1})
    assert (xy * xmy).coeffs == {(2, 0): F(1), (0, 2): F(-1)}
    assert (xy + (-xy)).coeffs == {}


def test_truncated_rejects_an_order_of_the_wrong_length():
    s = MultiSeries(("u", "w"), (0, 0), (4, 4), {})
    with pytest.raises(SeriesError):
        s.truncated((3,))


# --------------------------------- exp, log and inverse against their old loops
#
# exp, log and inverse go through `taylor_eval`.  The references below are the
# loops they ran before, kept to pin the floors, orders and errors they gave.


def _reference_exp(s, order=None):
    eff = s._effective_order(order)
    a = s.truncated(eff)
    if any(any(x < 0 for x in e) for e in a.coeffs) or (0,) * len(s.vars) in a.coeffs:
        raise SeriesError("exp requires zero constant term and no polar part")
    acc = MultiSeries.constant(1, s.vars).truncated(eff)
    term = MultiSeries.constant(1, s.vars).truncated(eff)
    n = 0
    while True:
        n += 1
        term = term * a * F(1, n)
        if term.is_zero_window():
            break
        acc = acc + term
    return acc


def _reference_log(s, order=None):
    eff = s._effective_order(order)
    a = s.truncated(eff)
    if a.coeffs.get((0,) * len(s.vars)) != 1:
        raise SeriesError("log requires constant term 1")
    g = a - 1
    if any(any(x < 0 for x in e) for e in g.coeffs):
        raise SeriesError("log requires no polar part")
    acc = MultiSeries.zero(s.vars, eff)
    term = MultiSeries.constant(1, s.vars).truncated(eff)
    n = 0
    while True:
        n += 1
        term = term * g
        if term.is_zero_window():
            break
        acc = acc + term * F((-1) ** (n + 1), n)
    return acc


def _reference_inverse(s, order=None):
    if not s.coeffs:
        raise SeriesError("cannot invert a series with empty known window")
    corner = s.valuation_floor()
    lead = s.coeffs.get(corner)
    if lead is None:
        raise SeriesError("inverse requires a unique minimal corner term")
    shifted = {tuple(x - y for x, y in zip(e, corner)): c / lead
               for e, c in s.coeffs.items()}
    del shifted[(0,) * len(s.vars)]
    if any(any(x < 0 for x in e) for e in shifted):
        raise SeriesError("inverse requires a dominant corner term")
    if not shifted:
        out_order = tuple(o if o == INF else o - 2 * e for o, e in zip(s.order, corner))
        return MultiSeries.monomial(s.vars, tuple(-e for e in corner), F(1) / lead, out_order)
    rel_order = tuple(o if o == INF else o - c for o, c in zip(s.order, corner))
    if order is not None:
        extra = (order,) * len(s.vars) if isinstance(order, (int, float)) else order
        rel_order = tuple(min(a, b) for a, b in zip(rel_order, extra))
    if any(o == INF for o in rel_order):
        raise SeriesError("inverse of an exact non-monomial needs an explicit order")
    g = MultiSeries(s.vars, (0,) * len(s.vars), rel_order, shifted)
    acc = MultiSeries.constant(1, s.vars).truncated(rel_order)
    term = MultiSeries.constant(1, s.vars).truncated(rel_order)
    while True:
        term = term * (-g)
        if term.is_zero_window():
            break
        acc = acc + term
    return acc * MultiSeries.monomial(s.vars, tuple(-e for e in corner), F(1) / lead)


@st.composite
def _unary_cases(draw):
    vars = ("x", "y")[:draw(st.integers(min_value=1, max_value=2))]
    s = draw(_series_over(vars))
    # The old loops never stop on a positive declared floor, so floors are at
    # most 0 here; positive floors are compared with their floor-0 twins below.
    s = MultiSeries(vars, tuple(min(f, 0) for f in s.floor), s.order, s.coeffs)
    # Most raw series are rejected by all three; the other shapes have
    # exponents of positive valuation only, so that exp and log (after adding
    # 1) and inverse also run their loops.
    shape = draw(st.sampled_from(["raw", "positive", "positive", "one_plus", "one_plus",
                                  "shifted"]))
    if shape != "raw":
        exps = st.tuples(*(st.integers(min_value=0, max_value=3) for _ in vars)).filter(any)
        scalars = st.sampled_from([F(1), F(-1), F(1, 2), F(-2, 3)])
        order = tuple(draw(st.one_of(st.just(INF), st.integers(min_value=1, max_value=6)))
                      for _ in vars)
        s = MultiSeries(vars, s.floor, order,
                        draw(st.dictionaries(exps, scalars, min_size=1, max_size=4)))
        if shape == "one_plus":
            s = s + 1
        elif shape == "shifted":
            s = (s + F(-2, 3)) * MultiSeries.monomial(vars, (-1,) * len(vars))
    order = draw(st.one_of(st.none(), st.integers(min_value=1, max_value=8),
                           st.tuples(*(st.integers(min_value=-1, max_value=6)
                                       for _ in vars))))
    return s, order


def _outcome(fn, *args):
    try:
        got = fn(*args)
    except SeriesError as exc:
        return type(exc)
    for e, c in got.coeffs.items():
        assert isinstance(c, F) and c != 0
    return got.vars, got.floor, got.order, got.coeffs


@settings(max_examples=400, deadline=None)
@given(_unary_cases())
def test_exp_log_inverse_match_their_old_loops(case):
    s, order = case
    assert _outcome(s.exp, order) == _outcome(_reference_exp, s, order)
    assert _outcome(s.log, order) == _outcome(_reference_log, s, order)
    assert _outcome(s.inverse, order) == _outcome(_reference_inverse, s, order)
    assert _outcome(s.exp) == _outcome(_reference_exp, s)
    assert _outcome(s.log) == _outcome(_reference_log, s)
    assert _outcome(s.inverse) == _outcome(_reference_inverse, s)


# ------------------------------------------- positive floors in `taylor_eval`
#
# A positive declared floor raises the guaranteed order of a^n with n; the
# series must still give exactly what its floor-0 twin gives.


def test_positive_floor_terminates_and_matches_its_twin():
    # in a subprocess with a timeout, so that a loop that never ends fails
    code = """
from gwhurwitz.qseries import MultiSeries, s_of, sigma_of
a = MultiSeries(("x",), (1,), (6,), {(1,): 1})
twin = MultiSeries(("x",), (0,), (6,), a.coeffs)
for f in (MultiSeries.exp, sigma_of, s_of):
    got, want = f(a), f(twin)
    assert (got.vars, got.floor, got.order, got.coeffs) == \\
        (want.vars, want.floor, want.order, want.coeffs), f
"""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr


@st.composite
def _positive_floor_cases(draw):
    vars = ("x", "y")[:draw(st.integers(min_value=1, max_value=2))]
    floor = tuple(draw(st.integers(min_value=1, max_value=2)) for _ in vars)
    exps = st.tuples(*(st.integers(min_value=f, max_value=f + 3) for f in floor))
    order = tuple(draw(st.one_of(st.just(INF), st.integers(min_value=1, max_value=7)))
                  for _ in vars)
    coeffs = draw(st.dictionaries(exps, st.sampled_from([F(1), F(-1), F(1, 2), F(-2, 3)]),
                                  max_size=4))
    arg_order = draw(st.one_of(st.none(), st.integers(min_value=1, max_value=8),
                               st.tuples(*(st.integers(min_value=-1, max_value=6)
                                           for _ in vars))))
    return MultiSeries(vars, floor, order, coeffs), arg_order


@settings(max_examples=200, deadline=None)
@given(_positive_floor_cases())
def test_positive_floors_match_their_floor_zero_twin(case):
    s, order = case
    twin = MultiSeries(s.vars, (0,) * len(s.vars), s.order, s.coeffs)
    for f in (MultiSeries.exp, sigma_of, s_of):
        assert _outcome(f, s, order) == _outcome(f, twin, order)


# ------------------------------------------------ canonical integer storage
#
# Every result keeps nonzero integer numerators over one positive common
# denominator, coprime to all of them, at exponents inside its window; so
# equal series are stored, compared and hashed alike.


def _assert_canonical(s):
    assert isinstance(s.den, int) and s.den > 0
    assert math.gcd(s.den, *s.num.values()) == 1
    for e, c in s.num.items():
        assert isinstance(c, int) and c != 0
        assert all(f <= x < o for x, f, o in zip(e, s.floor, s.order))
    # the validating constructor reaches the same storage from the Fractions
    twin = MultiSeries(s.vars, s.floor, s.order, s.coeffs)
    assert (twin.num, twin.den) == (s.num, s.den)
    assert twin == s and hash(twin) == hash(s)


@settings(max_examples=300, deadline=None)
@given(_series_pairs(), st.sampled_from([0, 3, F(-2, 9), F(5, 6)]), _unary_cases())
def test_every_result_is_canonical(pair, scalar, case):
    a, b = pair
    results = [a + b, a - b, a * b, a * scalar, scalar * b, -a, a.truncated(b.order)]
    assert hash(a + b) == hash(b + a) and hash(a * b) == hash(b * a)
    s, order = case
    for op in (s.exp, s.log, s.inverse, lambda order: sigma_of(s, order),
               lambda order: taylor_eval(lambda n: F((-2) ** n, 3 * n + 1), s, order)):
        try:
            results.append(op(order))
        except SeriesError:
            pass
    for result in results:
        _assert_canonical(result)
