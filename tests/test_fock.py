"""Infinite-wedge engine: moves, commutators, adjointness, correlators."""

import random
from fractions import Fraction as F

import pytest

from gwhurwitz import fock
from gwhurwitz.characters import chi
from gwhurwitz.fock import (FockState, apply_A, apply_Astar, apply_alpha, apply_calE,
                            apply_expUF2, apply_exp_alpha, boson_state, e_diagonal_support,
                            e_moves, f2_eigenvalue, inner_product)
from gwhurwitz.partitions import enumerate_partitions
from gwhurwitz.qseries import (MultiSeries, PrecisionError, VariableMismatchError,
                               pochhammer_series, s_of, sigma_of, sigma_series)
from gwhurwitz.words import Alpha, AStarOp, CalE, ExpAlpha, ExpUF2, correlator

UV = ("u",)


def const_state(terms, vars=UV):
    return FockState(vars, {lam: MultiSeries.constant(c, vars)
                            for lam, c in terms.items()})


def const_coeff(state, lam):
    series = state.coefficient(lam)
    zero = (0,) * len(state.vars)
    return series.coeffs.get(zero, F(0))


class TestElementaryMoves:
    def test_vacuum_annihilation(self):
        # slot 1/2 is empty and no negative slot is, so every normally
        # ordered diagonal E_{k,k} kills the vacuum
        assert e_diagonal_support(()) == ([], [])

    def test_diagonal_sign(self):
        # E_{k,k} on v_(1): +1 on the occupied slot 1/2, -1 on the hole at -1/2
        assert e_diagonal_support((1,)) == ([1], [-1])

    def test_f2_vacuum(self):
        assert f2_eigenvalue(()) == 0

    def test_f2_matches_shifted_formula(self):
        from gwhurwitz.characters import f2_shifted
        for d in range(0, 8):
            for lam in enumerate_partitions(d):
                assert f2_eigenvalue(lam) == f2_shifted(lam)


def deep_diagram(lam, depth):
    """The occupied slots (doubled) of v_lam down to row `depth`; every slot
    below the returned bottom is occupied too."""
    occupied = {2 * (part - i) + 1 for i, part in enumerate(lam, start=1)}
    occupied |= {-2 * i + 1 for i in range(len(lam) + 1, depth + 1)}
    return occupied, -2 * depth + 1


def brute_force_moves(lam, r):
    """The moves of E_{k-r,k} on v_lam read off a Maya diagram much deeper
    than any move reaches: sources in descending order, each carried to the
    slot 2r lower when that slot is empty, signed by the occupied slots
    strictly between the two."""
    occupied, bottom = deep_diagram(lam, len(lam) + abs(r) + 10)
    moves = []
    for source in sorted(occupied, reverse=True):
        target = source - 2 * r
        if target in occupied or target < bottom:
            continue
        between = sum(1 for x in occupied if min(source, target) < x < max(source, target))
        slots = sorted(occupied - {source} | {target}, reverse=True)
        parts = [(x - 1) // 2 + i for i, x in enumerate(slots, start=1)]
        new_lam = tuple(p for p in parts if p)
        moves.append((new_lam, (-1) ** between, F(source - r, 2)))
    return moves


class TestMayaReference:
    def test_moves_match_a_deep_brute_force_diagram(self):
        for d in range(0, 10):
            for lam in enumerate_partitions(d):
                for r in (-7, -6, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6, 7):
                    assert e_moves(lam, r) == brute_force_moves(lam, r), (lam, r)

    def test_diagonal_support_matches_a_deep_brute_force_diagram(self):
        # the normally ordered diagonal: +1 on occupied positive slots, -1 on
        # empty negative slots, each list read from the top down
        for d in range(0, 10):
            for lam in enumerate_partitions(d):
                occupied, bottom = deep_diagram(lam, len(lam) + 10)
                positives = [m for m in sorted(occupied, reverse=True) if m > 0]
                holes = [m for m in range(-1, bottom, -2) if m not in occupied]
                assert e_diagonal_support(lam) == (positives, holes), lam

    def test_diagonal_refusal_names_the_diagonal_helper(self):
        with pytest.raises(ValueError, match="e_diagonal_support"):
            e_moves((2, 1), 0)

    @staticmethod
    def _random_state(rng, pool):
        terms = {}
        for _ in range(6):
            coeffs = {(rng.randint(0, 3),): F(rng.randint(-5, 5), rng.randint(1, 4))
                      for _ in range(2)}
            terms[rng.choice(pool)] = MultiSeries(UV, (0,), (6,), coeffs)
        return FockState(UV, terms)

    @staticmethod
    def _assert_capped(capped, full, cap):
        kept = {lam: s for lam, s in full.terms.items() if sum(lam) <= cap}
        assert capped.terms == kept
        assert capped.guard == full.guard

    def test_capped_moves_drop_exactly_the_terms_above_the_cap(self):
        rng = random.Random(31)
        pool = [lam for d in range(0, 7) for lam in enumerate_partitions(d)]
        z = MultiSeries.monomial(UV, (1,), 1, (6,))
        for _ in range(40):
            state = self._random_state(rng, pool)
            r = rng.choice([-3, -2, -1, 1, 2, 3])
            cap = rng.randint(0, 8)
            self._assert_capped(apply_alpha(r, state, cap), apply_alpha(r, state), cap)
            self._assert_capped(apply_calE(r, z, state, cap),
                                apply_calE(r, z, state, 10 ** 6), cap)


class TestAlpha:
    def test_create_single_box(self):
        out = apply_alpha(-1, FockState.vacuum(UV))
        assert const_coeff(out, (1,)) == 1 and len(out.terms) == 1

    def test_annihilate_single_box(self):
        out = apply_alpha(1, const_state({(1,): 1}))
        assert const_coeff(out, ()) == 1 and len(out.terms) == 1

    def test_two_boxes(self):
        out = apply_alpha(-1, apply_alpha(-1, FockState.vacuum(UV)))
        assert const_coeff(out, (2,)) == 1
        assert const_coeff(out, (1, 1)) == 1

    def test_energy_grading(self):
        for d in range(0, 6):
            for lam in enumerate_partitions(d):
                for r in (-3, -2, -1, 1, 2, 3):
                    for new_lam, _sign, _mid in e_moves(lam, r):
                        assert sum(new_lam) == d - r

    def test_adjointness_random_states(self):
        rng = random.Random(7)
        pool = [lam for d in range(0, 5) for lam in enumerate_partitions(d)]
        for _ in range(30):
            s = const_state({rng.choice(pool): rng.randint(-3, 3) for _ in range(3)})
            t = const_state({rng.choice(pool): rng.randint(-3, 3) for _ in range(3)})
            r = rng.choice([-3, -2, -1, 1, 2, 3])
            lhs = inner_product(apply_alpha(r, s), t)
            rhs = inner_product(s, apply_alpha(-r, t))
            assert lhs.agrees_with(rhs)

    def test_adjointness_with_series_coefficients(self):
        rng = random.Random(13)
        pool = [lam for d in range(0, 5) for lam in enumerate_partitions(d)]

        def random_state():
            terms = {}
            for _ in range(3):
                coeffs = {(rng.randint(0, 3),): F(rng.randint(-3, 3), rng.randint(1, 4))
                          for _ in range(2)}
                terms[rng.choice(pool)] = MultiSeries(UV, (0,), (5,), coeffs)
            return FockState(UV, terms)

        for _ in range(15):
            s, t = random_state(), random_state()
            r = rng.choice([-2, -1, 1, 2])
            lhs = inner_product(apply_alpha(r, s), t)
            rhs = inner_product(s, apply_alpha(-r, t))
            assert lhs.agrees_with(rhs)

    def test_boson_fermion_bridge(self):
        # expanding the raising-alpha product in the wedge basis gives the
        # character table column exactly, with no normalization constant
        for d in range(1, 7):
            for eta in enumerate_partitions(d):
                state = boson_state(eta, UV)
                for lam in enumerate_partitions(d):
                    assert const_coeff(state, lam) == chi(lam, eta)


class TestExpUF2:
    def test_vacuum_fixed(self):
        out = apply_expUF2(FockState.vacuum(UV), order=(6,))
        assert out.coefficient(()).coefficient(0) == 1
        assert out.coefficient(()).coefficient(1) == 0

    def test_eigenvalues(self):
        state = const_state({(2,): 1, (1, 1): 1})
        state = FockState(UV, {lam: series.truncated((5,))
                               for lam, series in state.terms.items()})
        out = apply_expUF2(state)
        assert out.coefficient((2,)).coefficient(1) == 1       # exp(+u)
        assert out.coefficient((1, 1)).coefficient(1) == -1    # exp(-u)
        assert out.coefficient((2,)).coefficient(2) == F(1, 2)

    def test_missing_variable(self):
        with pytest.raises(VariableMismatchError):
            apply_expUF2(FockState.vacuum(("z",)), order=(6,))

    def test_each_term_keeps_its_own_order(self):
        # (3,1) and (3,2) share f2 = 2; without an explicit order each term's
        # exponential is cut at that term's order, whichever comes first
        low = MultiSeries.constant(1, UV, (3,))
        high = MultiSeries.constant(1, UV, (8,))
        expected = MultiSeries.monomial(UV, (1,), 2, (8,)).exp()
        for terms in ({(3, 1): low, (3, 2): high}, {(3, 2): high, (3, 1): low}):
            out = apply_expUF2(FockState(UV, terms))
            assert out.coefficient((3, 2)) == expected
            assert out.coefficient((3, 1)) == expected.truncated((3,))


class TestCalE:
    def test_vacuum_expectation_is_inverse_sigma(self):
        z = MultiSeries.monomial(("z",), (1,), 1, (9,))
        got = correlator([CalE(0, z)], None, ("z",), (9,))
        assert got.agrees_with(sigma_series("z", 9).inverse())

    def test_positive_shift_kills_vacuum(self):
        z = MultiSeries.monomial(("z",), (1,), 1, (6,))
        out = apply_calE(1, z, FockState.vacuum(("z",)), energy_cap=6)
        assert not out.terms

    def test_weights_are_computed_once_across_calls(self, monkeypatch):
        # a z no other test uses, so none of its weights is memoized yet
        z = MultiSeries.monomial(("z",), (1,), F(3, 7), (7,))
        state = FockState(("z",), {lam: MultiSeries.constant(1, ("z",))
                                   for d in range(4) for lam in enumerate_partitions(d)})
        calls = []
        exp = MultiSeries.exp

        def counted(self, order=None):
            calls.append(self)
            return exp(self, order)

        monkeypatch.setattr(MultiSeries, "exp", counted)
        first = [apply_calE(r, z, state, energy_cap=6) for r in (0, -1, 2)]
        computed = len(calls)
        assert computed == len(set(calls)) > 0
        again = [apply_calE(r, z, state, energy_cap=6) for r in (0, -1, 2)]
        assert len(calls) == computed
        assert [s.terms for s in again] == [s.terms for s in first]

    def test_weight_memos_are_bounded(self):
        assert fock._exp_weight.cache_info().maxsize is not None
        assert fock._inv_sigma.cache_info().maxsize is not None

    def test_zero_argument_limit_is_alpha(self):
        zero = MultiSeries.zero(("u",), (5,))
        rng = random.Random(3)
        pool = [lam for d in range(0, 5) for lam in enumerate_partitions(d)]
        for r in (-3, -1, 1, 2):
            s = const_state({rng.choice(pool): rng.randint(-2, 2) for _ in range(3)})
            lhs = apply_calE(r, zero, s, energy_cap=9)
            rhs = apply_alpha(r, s, energy_cap=9)
            for lam in set(lhs.terms) | set(rhs.terms):
                assert lhs.coefficient(lam).agrees_with(rhs.coefficient(lam))

    def test_commutator_with_alpha(self):
        # [alpha_k, E_l(z)] = sigma(k z) E_{k+l}(z) on states of energy <= 4
        order = (7,)
        z = MultiSeries.monomial(("z",), (1,), 1, order)
        cap = 12
        for k in (-2, -1, 1, 2):
            kernel = sigma_of(z * k) if k else None
            for l in (-2, -1, 0, 1, 2):
                for d in range(0, 5):
                    for lam in enumerate_partitions(d):
                        s = const_state({lam: 1}, ("z",))
                        lhs = apply_alpha(k, apply_calE(l, z, s, cap), cap) + \
                            apply_calE(l, z, apply_alpha(k, s, cap), cap).scaled(-1)
                        rhs = apply_calE(k + l, z, s, cap).scaled(kernel)
                        for mu in set(lhs.terms) | set(rhs.terms):
                            assert lhs.coefficient(mu).agrees_with(rhs.coefficient(mu)), (k, l, lam, mu)


class TestHypergeometricOperators:
    def vars_order(self):
        vars = ("u", "w")
        order = (7, 7)
        a = MultiSeries.monomial(vars, (0, 1), 1, order)
        b = MultiSeries.monomial(vars, (1, 1), 1, order)
        return vars, order, a, b

    def test_vacuum_scalar_term(self):
        vars, order, a, b = self.vars_order()
        out = apply_Astar(a, b, FockState.vacuum(vars), energy_cap=0)
        expected = (a * s_of(b).log()).exp() * sigma_of(b).inverse()
        assert out.coefficient(()).agrees_with(expected)

    def test_raising_costs_series_valuation(self):
        vars, order, a, b = self.vars_order()
        out = apply_Astar(a, b, FockState.vacuum(vars), energy_cap=10)
        for lam, series in out.terms.items():
            energy = sum(lam)
            assert energy <= order[0] + 1
            if energy:
                assert min(e[0] for e in series.coeffs) >= energy - 1

    def test_adjointness_of_a_pair(self):
        vars, order, a, b = self.vars_order()
        rng = random.Random(11)
        pool = [lam for d in range(0, 4) for lam in enumerate_partitions(d)]
        for _ in range(6):
            s = const_state({rng.choice(pool): rng.randint(-2, 2)}, vars)
            t = const_state({rng.choice(pool): rng.randint(-2, 2)}, vars)
            lhs = inner_product(apply_A(a, b, s, energy_cap=8), t)
            rhs = inner_product(s, apply_Astar(a, b, t, energy_cap=8))
            assert lhs.agrees_with(rhs)

    def test_running_inverse_pochhammer_is_the_inverted_product(self, monkeypatch):
        # the k >= 0 loop carries 1/(a+1)_k from k - 1 by one two-term inverse;
        # at every k it reaches, the running value must equal the whole
        # product (w+1)..(w+k) inverted at b's order
        carried = fock._inverse_pochhammers
        for order, energy_cap in ((5, 2), (8, 2), (5, 6), (8, 6)):
            seen = []

            def recording(a, inv_order):
                for inv in carried(a, inv_order):
                    seen.append(inv)
                    yield inv

            monkeypatch.setattr(fock, "_inverse_pochhammers", recording)
            w = MultiSeries.monomial(("w",), (1,), 1, (order,))
            apply_Astar(w, w, FockState.vacuum(("w",)), energy_cap=energy_cap)
            # sigma(w)^k leaves the window at k = order, and no shift past the
            # cap moves the vacuum: the loop stops at whichever comes first
            assert len(seen) == min(order - 1, energy_cap)
            for k, inv in enumerate(seen, start=1):
                assert inv == pochhammer_series(k, "w", order).inverse(order=w.order), k

    def test_stopping_at_the_cap_keeps_every_term_and_the_guard(self):
        # A*|0> at cap c is A*|0> at cap c + 3 with the terms above energy c
        # left out: stopping the k >= 0 loop at the cap drops only moves the
        # cap would refuse, and the guard still carries sigma(b)'s order
        vars = ("u", "w")
        for order in ((3, 3), (6, 6), (10, 4), (4, 10)):
            a = MultiSeries.monomial(vars, (0, 1), 1, order)
            b = MultiSeries.monomial(vars, (1, 1), 1, order)
            for cap in range(5):
                low = apply_Astar(a, b, FockState.vacuum(vars), cap)
                high = apply_Astar(a, b, FockState.vacuum(vars), cap + 3)
                assert low.guard == high.guard, (order, cap)
                assert low.terms == {lam: series for lam, series in high.terms.items()
                                     if sum(lam) <= cap}, (order, cap)

    def test_two_cycle_closed_form(self):
        # pairing the adjoint word against the 2-cycle boundary reproduces
        # the contracted kernel product S(uw)^w sigma(uw) sigma(2uw)/(w+1)_2
        vars, order, a, b = self.vars_order()
        got = correlator([Alpha(2), ExpAlpha(-1), AStarOp(a, b)], None, vars, order)
        poch2 = (a + 1) * (a + 2)
        expected = ((a * s_of(b).log()).exp() * sigma_of(b)
                    * sigma_of(b * 2) * poch2.inverse())
        assert got.agrees_with(expected)


class TestInnerProduct:
    def test_dropped_term_times_polar_term_is_unknown(self):
        # the bra dropped its vacuum term, which is unknown from its guard
        # (4, 4) on; times the ket's vacuum term of floor (-1, -1) it is
        # unknown from (3, 3) on, so u^3 w^-1 must raise or be exact
        vars, order = ("u", "w"), (4, 4)
        bra = apply_exp_alpha(1, apply_expUF2(boson_state((5,), vars), "u", 1, order), 5)
        a = MultiSeries.monomial(vars, (0, 1), 1, order)
        b = MultiSeries.monomial(vars, (1, 1), 1, order)
        ket = apply_Astar(a, b, FockState.vacuum(vars), 5)
        assert () not in bra.terms and ket.terms[()].floor == (-1, -1)
        pairing = inner_product(bra, ket)
        try:
            value = pairing.coefficient((3, -1))
        except PrecisionError:
            return
        assert value == F(125, 24)

    def test_order_and_floor_shift_by_the_other_side(self):
        vars = ("u", "w")
        polar = MultiSeries.monomial(vars, (-1, -2), 1, (3, 3))
        bra = FockState(vars, {(1,): MultiSeries.constant(1, vars)}, guard=(5, 4))
        ket = FockState(vars, {(1,): polar, (2,): polar})
        pairing = inner_product(bra, ket)
        assert pairing.floor == (-1, -2)
        assert pairing.order == (3, 2)


class TestCorrelator:
    def test_alpha_pairings(self):
        assert correlator([Alpha(1), Alpha(-1)], None, UV, (4,)).coefficient(0) == 1
        assert correlator([Alpha(2), Alpha(-2)], None, UV, (4,)).coefficient(0) == 2

    def test_left_boundary_equals_explicit_alphas(self):
        z = MultiSeries.monomial(("z",), (1,), 1, (8,))
        for eta in [(1,), (2,), (2, 1)]:
            word = [Alpha(p) for p in eta] + [CalE(-sum(eta), z)]
            via_atoms = correlator(word, None, ("z",), (8,))
            via_boundary = correlator([CalE(-sum(eta), z)], eta, ("z",), (8,))
            assert via_atoms.agrees_with(via_boundary)

    def test_alpha_calE_contraction_chain(self):
        # pushing the annihilating alphas through one weighted move leaves
        # prod sigma(part * z) times the vacuum scalar 1/sigma(z)
        z = MultiSeries.monomial(("z",), (1,), 1, (9,))
        inv = sigma_series("z", 9).inverse()
        for d in range(1, 5):
            for mu in enumerate_partitions(d):
                got = correlator([CalE(-d, z)], mu, ("z",), (9,))
                expected = inv
                for part in mu:
                    expected = expected * sigma_of(z * part)
                assert got.agrees_with(expected), mu

    def test_cap_default_versus_enlarged(self):
        # random words from the two production shapes: a single free-raising
        # exponential next to the adjoint operator, or a single free-lowering
        # exponential with only plain raising alphas to its right; words with
        # unbounded raising and lowering at once are outside the cap contract
        rng = random.Random(19)
        vars = ("u", "w")
        order = (6, 6)
        a = MultiSeries.monomial(vars, (0, 1), 1, order)
        b = MultiSeries.monomial(vars, (1, 1), 1, order)
        zu = MultiSeries.monomial(vars, (1, 0), 1, order)
        from gwhurwitz.words import default_energy_cap
        for _ in range(10):
            if rng.random() < 0.5:
                word = []
                for _ in range(rng.randint(0, 2)):
                    word.append(rng.choice([Alpha(rng.choice([-2, -1, 1, 2])),
                                            CalE(rng.choice([-1, 0, 1]), zu),
                                            ExpUF2(1)]))
                if rng.random() < 0.6:
                    word.append(ExpAlpha(-1))
                word.append(AStarOp(a, b))
                mu_left = rng.choice([(), (1,), (2,), (2, 1)])
            else:
                word = [ExpAlpha(1), ExpUF2(1)]
                word += [Alpha(-rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
                mu_left = ()
            cap = default_energy_cap(word, sum(mu_left), vars, order)
            lo = correlator(word, mu_left, vars, order, energy_cap=cap)
            hi = correlator(word, mu_left, vars, order, energy_cap=cap + 2)
            assert lo.agrees_with(hi)

    def test_debug_dump(self):
        state = boson_state((2,), UV)
        dump = state.to_debug_dict()
        assert dump["(2)"] == [{"exponents": [0], "value": "1"}]
        assert dump["(1,1)"] == [{"exponents": [0], "value": "-1"}]


class TestExpAlphaTermination:
    def test_lowering_reaches_vacuum(self):
        # vacuum coefficient of the lowered two-box state is <a_1^2 a_-1^2>/2!
        state = boson_state((1, 1), UV)
        out = apply_exp_alpha(1, state, energy_cap=2)
        assert const_coeff(out, ()) == 1
        # a boundary class orthogonal to the identity contributes nothing
        state = boson_state((3, 1), UV)
        out = apply_exp_alpha(1, state, energy_cap=4)
        assert const_coeff(out, ()) == 0

    def test_leaves_its_input_untouched(self):
        # alpha_1 sends (2) - (1,1) to zero, so no term is left at m = 1: the
        # result must still be a new state, and the input keeps its guard
        s = MultiSeries.constant(1, UV, order=(5,))
        state = FockState(UV, {(2,): s, (1, 1): -s})
        out = apply_exp_alpha(1, state, 4)
        assert out is not state
        assert state.guard == (float("inf"),)
        assert state.coefficient((3,)).is_exact_zero()
        assert out.guard == (5,)

    def test_raising_respects_cap(self):
        out = apply_exp_alpha(-1, FockState.vacuum(UV), energy_cap=3)
        assert out.max_energy() <= 3
        # coefficient of the single row of length m is dim/m! = 1/m!
        assert const_coeff(out, (1, 1)) == F(1, 2)
        assert const_coeff(out, (3,)) == F(1, 6)
