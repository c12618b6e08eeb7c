"""Completed cycles, I-coefficients, wall-crossing assembly, ELSV."""

import math
from fractions import Fraction as F

import pytest

from gwhurwitz.cli import main
from gwhurwitz.cycles import ClassSum, CompletedCycle, completed_cycle, rho, stationary_gw
from gwhurwitz.gwh import (UnsupportedUnstableCase, elsv_check, gwh_crosscheck,
                           hodge_H_connected, hodge_H_series, i_function_empty,
                           i_function_unstable_connected, tau_via_wallcrossing)
from gwhurwitz.hurwitz import hurwitz_classsum
from gwhurwitz.icoeff import i_function_numeric
from gwhurwitz.partitions import enumerate_partitions, subpartitions_by_removing_ones
from gwhurwitz.qseries import MultiSeries, PrecisionError
from gwhurwitz.words import AStarOp, ExpAlpha, ExpUF2, correlator


class TestRho:
    def test_examples(self):
        assert rho(0, (1,)) == 1
        assert rho(1, (2,)) == 1
        assert rho(3, (2,)) == F(5, 24)
        assert rho(0, ()) == F(-1, 24)

    def test_negative_exponent_vanishes(self):
        assert rho(0, (2, 1)) == 0

    def test_parity_vanishing(self):
        for d in range(0, 7):
            for mu in enumerate_partitions(d):
                for k in range(0, 11):
                    if (k + 2 - d - len(mu)) % 2 == 1:
                        assert rho(k, mu) == 0, (k, mu)


class TestCompletedCycle:
    def test_tau_1_2(self):
        cycle = completed_cycle(1, 2)
        assert isinstance(cycle, CompletedCycle)
        assert cycle.value == ClassSum(2, {(2,): 1})

    def test_full_row_coefficient(self):
        # the one-row partition has no removable unit parts for d > 1
        for d in (2, 3, 4):
            for k in range(0, 7):
                assert completed_cycle(k, d).value.coefficient((d,)) == rho(k, (d,))

    def test_coefficients_are_subpartition_sums(self):
        for d in (1, 2, 3):
            for k in range(0, 5):
                cycle = completed_cycle(k, d).value
                for mu in enumerate_partitions(d):
                    want = sum(w * rho(k, sub)
                               for sub, w in subpartitions_by_removing_ones(mu))
                    assert cycle.coefficient(mu) == want


class TestIFunctionNumeric:
    def test_z_degree_bookkeeping(self):
        got = i_function_numeric(1, (2, 1), 3)
        assert got.z_degree == 3 + 2 - 2 * 1 - 3 - 2

    def test_degree_one_pinned_value(self):
        # hand-derivable: the scalar kernel contributes S(uw)^w/sigma(uw) and
        # the single raised box contributes sigma(uw)/(w+1); the u^1 w^1
        # coefficient is 1 - 1/24
        assert i_function_numeric(0, (1,), 0).value == F(23, 24)

    def test_below_component_bound_vanishes(self):
        for eta in [(1,), (2,), (1, 1)]:
            got = i_function_numeric(-len(eta) - 1, eta, 4)
            assert got.value == 0

    @pytest.mark.parametrize("orders", [(2, 2), (3, 2), (6, 6), (10, 4), (4, 10)])
    def test_word_evaluation_has_exactly_the_requested_orders(self, orders):
        # the padding covers the word's loss exactly: no coefficient is
        # computed past the request, and none the request needs is missing
        import gwhurwitz.icoeff as icoeff_module
        for d in range(1, 5):
            etas = enumerate_partitions(d)
            pairings = icoeff_module._i_pairings(etas, *orders)
            assert list(pairings) == list(etas)
            for eta in etas:
                assert pairings[eta].order == orders, eta
                assert icoeff_module._i_pairings([eta], *orders)[eta].order == orders, eta

    def test_bra_first_pairing_equals_the_operator_word(self):
        # reference: the word <eta| e^(uF2) e^(alpha_-1) A* |0> applied to the
        # vacuum right to left, at the same padded orders and truncation
        import gwhurwitz.icoeff as icoeff_module

        def word_pairing(eta, u_order, w_order):
            vars = ("u", "w")
            pad = icoeff_module._I_WORD_LOSS
            order = (u_order + pad, w_order + pad)
            a = MultiSeries.monomial(vars, (0, 1), 1, order)
            b = MultiSeries.monomial(vars, (1, 1), 1, order)
            word = [ExpUF2(1), ExpAlpha(-1), AStarOp(a, b)]
            series = correlator(word, eta, vars, order, energy_cap=sum(eta))
            return series.truncated((u_order, w_order))

        def form(series):
            return series.vars, series.floor, series.order, series.den, series.num

        for d in range(1, 6):
            etas = enumerate_partitions(d)
            # (12, 12): the orders a k = 10 crosscheck evaluates for every degree
            for orders in [(2, 2), (3, 2), (6, 6), (10, 4), (4, 10), (12, 12)]:
                pairings = icoeff_module._i_pairings(etas, *orders)
                for eta in etas:
                    assert form(pairings[eta]) == form(word_pairing(eta, *orders)), \
                        (eta, orders)

    def test_boundary_cap_matches_default_cap(self):
        vars = ("u", "w")
        order = (6, 6)
        a = MultiSeries.monomial(vars, (0, 1), 1, order)
        b = MultiSeries.monomial(vars, (1, 1), 1, order)
        for eta in [(2,), (2, 1)]:
            word = [ExpAlpha(-1), AStarOp(a, b)]
            tight = correlator(word, eta, vars, order, energy_cap=sum(eta))
            loose = correlator(word, eta, vars, order)
            assert tight.agrees_with(loose)


class TestPairings:
    def _spy(self, monkeypatch, module, name):
        calls = []
        inner = getattr(module, name)

        def counted(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(module, name, counted)
        return calls

    def test_crosscheck_builds_one_ket_per_degree(self, monkeypatch):
        # the crosscheck's pairings build their bras in `icoeff`
        import gwhurwitz.fock as fock_module
        import gwhurwitz.icoeff as icoeff_module
        kets = self._spy(monkeypatch, fock_module, "apply_Astar")
        bras = self._spy(monkeypatch, icoeff_module, "_boundary_bra")
        assert gwh_crosscheck(4, 6).passed
        assert len(kets) == 4
        assert [cap for *_, cap in kets] == [1, 2, 3, 4]
        assert len(bras) == 11
        assert sorted(eta for eta, _, _ in bras) == \
            sorted(eta for d in range(1, 5) for eta in enumerate_partitions(d))

    @pytest.mark.parametrize("g,eta,k", [(0, (1,), 0), (1, (2, 1), 3), (-3, (1, 1), 4),
                                         (2, (3,), 1)])
    def test_one_coefficient_evaluates_exactly_its_orders(self, monkeypatch, g, eta, k):
        import gwhurwitz.icoeff as icoeff_module
        evaluations = self._spy(monkeypatch, icoeff_module, "_i_pairings")
        i_function_numeric(g, eta, k)
        vd = 2 * g - 1 + sum(eta) + len(eta)
        assert evaluations == [([eta], max(vd + 1, 1), k + 2)]

    @pytest.mark.parametrize("k_max", [0, 2, 5, 6])
    def test_per_degree_reads_agree_with_fresh_evaluations(self, k_max):
        # every (g, k) a crosscheck reads from the per-degree evaluation
        # matches a fresh single-eta evaluation at exactly the orders it needs,
        # and the per-degree series still refuses coefficients past its orders
        import gwhurwitz.icoeff as icoeff_module
        for d in (1, 2, 3):
            etas = enumerate_partitions(d)
            pairings = icoeff_module._i_pairings(etas, k_max + 2, k_max + 2)
            for eta in etas:
                for k in range(k_max + 1):
                    for g in range(-len(eta), (k + 2 - d - len(eta)) // 2 + 1):
                        got = pairings[eta].coefficient(icoeff_module._i_monomial(g, eta, k))
                        assert got == i_function_numeric(g, eta, k).value, (g, eta, k)
                with pytest.raises(PrecisionError):
                    pairings[eta].coefficient((k_max + 2, 0))
                with pytest.raises(PrecisionError):
                    pairings[eta].coefficient((0, k_max + 2))

    def test_precision_beyond_request_still_raises(self):
        import gwhurwitz.icoeff as icoeff_module
        got = icoeff_module._i_pairings([(2,)], 4, 3)[(2,)]
        with pytest.raises(PrecisionError):
            got.coefficient((4, 0))
        with pytest.raises(PrecisionError):
            got.coefficient((0, 3))

    def test_negative_k_max_raises_before_any_work(self, monkeypatch):
        import gwhurwitz.gwh as gwh_module

        def bomb(*_args):
            raise AssertionError("work done for a negative k_max")

        monkeypatch.setattr(gwh_module, "_crossing_table", bomb)
        monkeypatch.setattr(gwh_module, "_i_pairings", bomb)
        for k_max in (-1, -3):
            with pytest.raises(ValueError, match="descendent index must be >= 0"):
                gwh_crosscheck(4, k_max)

    def test_negative_d_max_raises_before_any_work(self, monkeypatch):
        import gwhurwitz.gwh as gwh_module

        def bomb(*_args):
            raise AssertionError("work done for a negative d_max")

        monkeypatch.setattr(gwh_module, "_crossing_table", bomb)
        monkeypatch.setattr(gwh_module, "_i_pairings", bomb)
        for d_max in (-1, -3):
            with pytest.raises(ValueError, match="degree must be >= 0"):
                gwh_crosscheck(d_max, 3)

    def test_k_max_above_the_cycle_ceiling_raises_before_any_work(self, monkeypatch):
        import gwhurwitz.gwh as gwh_module
        from gwhurwitz.cycles import MAX_CYCLE_INDEX

        def bomb(*_args):
            raise AssertionError("work done for a k_max above the ceiling")

        monkeypatch.setattr(gwh_module, "_crossing_table", bomb)
        monkeypatch.setattr(gwh_module, "_i_pairings", bomb)
        with pytest.raises(ValueError, match=f"MAX_CYCLE_INDEX = {MAX_CYCLE_INDEX}"):
            gwh_crosscheck(1, MAX_CYCLE_INDEX + 1)

    def test_d_max_above_the_crosscheck_ceiling_raises_before_any_work(self, monkeypatch):
        import gwhurwitz.gwh as gwh_module
        from gwhurwitz.gwh import MAX_CROSSCHECK_DEGREE

        def bomb(*_args):
            raise AssertionError("work done for a d_max above the ceiling")

        monkeypatch.setattr(gwh_module, "_crossing_table", bomb)
        monkeypatch.setattr(gwh_module, "_i_pairings", bomb)
        with pytest.raises(ValueError, match=f"MAX_CROSSCHECK_DEGREE = {MAX_CROSSCHECK_DEGREE}"):
            gwh_crosscheck(MAX_CROSSCHECK_DEGREE + 1, 4)


    @pytest.mark.parametrize("grid", [(12, 80), (4, 80), (12, 16), (6, 40)])
    def test_grid_above_the_cost_limit_raises_before_any_work(self, monkeypatch, grid):
        import gwhurwitz.gwh as gwh_module
        from gwhurwitz.gwh import MAX_CROSSCHECK_COST

        def bomb(*_args):
            raise AssertionError("work done for a grid above the cost limit")

        monkeypatch.setattr(gwh_module, "_crossing_table", bomb)
        monkeypatch.setattr(gwh_module, "_i_pairings", bomb)
        with pytest.raises(ValueError, match=f"MAX_CROSSCHECK_COST = {MAX_CROSSCHECK_COST}"):
            gwh_crosscheck(*grid)

    def test_grids_in_use_pass_the_cost_limit(self, monkeypatch):
        # those of the tests, demos, benchmark workloads and README; each
        # reaches its first table, where this stops it
        import gwhurwitz.gwh as gwh_module

        class Started(Exception):
            pass

        def started(*_args):
            raise Started

        monkeypatch.setattr(gwh_module, "_crossing_table", started)
        for grid in [(1, 2), (1, 4), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 6),
                     (8, 10), (10, 10), (12, 4)]:
            with pytest.raises(Started):
                gwh_crosscheck(*grid)

    @pytest.mark.parametrize("k, d, message", [
        (-1, 20, "need k >= 0 and d >= 1"), (120, 0, "need k >= 0 and d >= 1"),
        (120, 2, "MAX_CYCLE_INDEX = "), (4, 13, "MAX_CROSSCHECK_DEGREE = "),
        (40, 6, "MAX_CROSSCHECK_COST = ")], ids=["k", "d", "cycle", "degree", "cost"])
    def test_tau_via_wallcrossing_raises_before_any_work(self, monkeypatch, k, d, message):
        # (120, 2) ran 6.5 s before it was bounded as the crosscheck is
        import gwhurwitz.gwh as gwh_module

        def bomb(*_args):
            raise AssertionError("work done for a refused (k, d)")

        monkeypatch.setattr(gwh_module, "_crossing_table", bomb)
        monkeypatch.setattr(gwh_module, "_i_pairings", bomb)
        with pytest.raises(ValueError, match=message):
            tau_via_wallcrossing(k, d)

    @pytest.mark.parametrize("name", ["_crossing_table", "_i_pairings"])
    def test_each_bomb_fires_on_an_admitted_request(self, monkeypatch, name):
        # the refusals above patch both names in `gwh`; each alone is reached
        # by an admitted request of either entry, so neither patch is stale
        import gwhurwitz.gwh as gwh_module

        def bomb(*_args):
            raise AssertionError(f"{name} reached")

        monkeypatch.setattr(gwh_module, name, bomb)
        for request in (lambda: gwh_crosscheck(2, 2), lambda: tau_via_wallcrossing(2, 2)):
            with pytest.raises(AssertionError, match=f"{name} reached"):
                request()


class TestCorrelatorStore:
    # the I-correlators a crosscheck holds: one `_i_pairings` evaluation per
    # degree, built inside the call and read once per (g, eta, k)
    _spy = TestPairings._spy

    def test_one_i_coefficient_per_genus_and_profile(self, monkeypatch, capsys):
        # no I-coefficient goes through `i_function_numeric`, and none is read twice
        import gwhurwitz.gwh as gwh_module
        import gwhurwitz.icoeff as icoeff_module
        evaluations = self._spy(monkeypatch, gwh_module, "_i_pairings")
        reads = self._spy(monkeypatch, gwh_module, "_i_monomial")
        numeric = self._spy(monkeypatch, icoeff_module, "i_function_numeric")
        assert main(["ifun", "--g", "0", "--eta", "(1)", "--k", "2"]) == 0  # the spy sees `ifun`
        capsys.readouterr()
        assert numeric == [(0, (1,), 2)]
        numeric.clear()
        assert gwh_crosscheck(4, 6).passed
        assert len(reads) == len(set(reads)) == 190
        assert sorted({eta for _, eta, _ in reads}) == \
            sorted(eta for d in range(1, 5) for eta in enumerate_partitions(d))
        assert numeric == []
        assert len(evaluations) == 4

    def test_first_request_evaluates_exactly_the_orders_read(self, monkeypatch):
        # one evaluation per degree at (k_max+2, k_max+2), and the top genus of
        # k_max reads its last u-order and w-order
        import gwhurwitz.gwh as gwh_module
        monomial = gwh_module._i_monomial
        evaluations = self._spy(monkeypatch, gwh_module, "_i_pairings")
        reads = self._spy(monkeypatch, gwh_module, "_i_monomial")
        assert gwh_crosscheck(4, 6).passed
        assert evaluations == [(enumerate_partitions(d), 8, 8) for d in range(1, 5)]
        for d in range(1, 5):
            top = [monomial(*read) for read in reads if sum(read[1]) == d]
            assert max(u for u, _ in top) + 1 == 8 and max(w for _, w in top) + 1 == 8, d


class TestSpecialization:
    @pytest.mark.parametrize("d", [1, 2])
    def test_diagonal_matches_kernel_formula(self, d):
        # the diagonal coefficient of the bivariate pairing must agree with
        # the univariate even-kernel expression behind `completed_cycle`
        for k in range(0, 5):
            order = (k + 4, k + 4)
            vars = ("u", "w")
            a = MultiSeries.monomial(vars, (0, 1), 1, order)
            b = MultiSeries.monomial(vars, (1, 1), 1, order)
            for mu in enumerate_partitions(d):
                series = correlator([ExpAlpha(-1), AStarOp(a, b)], mu, vars, order,
                                    energy_cap=d)
                want = sum(w * rho(k, sub)
                           for sub, w in subpartitions_by_removing_ones(mu))
                assert series.coefficient((k + 1, k + 1)) == want, (mu, k)


class TestRouteEquivalence:
    def test_degree_one_all_k(self):
        for k in range(0, 7):
            assert tau_via_wallcrossing(k, 1) == completed_cycle(k, 1).value

    def test_degree_two(self):
        for k in range(0, 5):
            assert tau_via_wallcrossing(k, 2) == completed_cycle(k, 2).value

    def test_degree_four_and_five_spots(self):
        for d, k in [(4, 0), (4, 2), (4, 4), (5, 1), (5, 3)]:
            assert tau_via_wallcrossing(k, d) == completed_cycle(k, d).value, (d, k)

    def test_crosscheck_report(self):
        report = gwh_crosscheck(1, 4)
        assert report.passed
        doc = report.to_document()
        assert doc["passed"] is True
        assert all(row["status"] == "pass" for row in doc["rows"])

    def test_crosscheck_vacuous(self):
        assert gwh_crosscheck(0, 3).passed

    def test_crosscheck_to_degree_ten(self):
        report = gwh_crosscheck(10, 10)
        assert report.passed and len(report.rows) == 110

    def test_crosscheck_builds_each_degree_once(self, monkeypatch):
        # every k of one degree reads the same table
        import gwhurwitz.characters as characters
        builds = []
        build = characters._build_table

        def counting(degree):
            builds.append(degree)
            return build(degree)

        monkeypatch.setattr(characters, "_build_table", counting)
        assert gwh_crosscheck(4, 6).passed
        assert builds == [1, 2, 3, 4]


class TestHodgeSeries:
    def test_degree_one_tower_is_trivial(self):
        series = hodge_H_series((1,), 5)
        assert series.coefficient(-2) == 1
        assert all(series.coefficient(n) == 0 for n in range(-1, 5))

    def test_series_has_exactly_the_requested_order(self, monkeypatch):
        # the boundary bra loses no order, so it is asked for the request
        # plus the pole shift and nothing more
        import gwhurwitz.gwh as gwh_module
        asked = []
        boundary_bra = gwh_module._boundary_bra

        def recorded(eta, vars, order):
            asked.append(order)
            return boundary_bra(eta, vars, order)

        monkeypatch.setattr(gwh_module, "_boundary_bra", recorded)
        for d in range(1, 5):
            for eta in enumerate_partitions(d):
                for u_order in range(-4, 7):
                    asked.clear()
                    assert hodge_H_series(eta, u_order).order == (u_order,), (eta, u_order)
                    assert asked == [(u_order + len(eta) + d,)], (eta, u_order)

    def test_prefactor_cancellation_is_exact(self):
        for eta in [(2,), (3, 1), (4, 2, 2)]:
            forward = F(1)
            backward = F(1)
            for p in eta:
                forward *= F(math.factorial(p), p ** p)
                backward *= F(p ** p, math.factorial(p))
            assert forward * backward == 1

    def test_valuation_is_minimal_branching(self):
        # the lowest u-power of the series corresponds to the genus floor
        # 1 - len(eta) forced by one part per component
        for d in (1, 2, 3):
            for eta in enumerate_partitions(d):
                series = hodge_H_series(eta, 1 - 2 * len(eta))
                val = min(e[0] for e in series.coeffs)
                assert val == -2 * len(eta), eta

    def test_connected_evaluates_each_block_once_at_its_exact_order(self, monkeypatch):
        # a block only loses the orders of the other blocks' poles, and a
        # sub-profile shared by several set partitions is evaluated once
        import gwhurwitz.gwh as gwh_module
        asked = []

        def recorded(eta, u_order):
            asked.append((eta, u_order))
            return hodge_H_series(eta, u_order)

        monkeypatch.setattr(gwh_module, "hodge_H_series", recorded)
        eta = (2, 1, 1, 1)
        pole = len(eta) + sum(eta)
        subs = [(2,), (1,), (2, 1), (1, 1), (2, 1, 1), (1, 1, 1), (2, 1, 1, 1)]
        for u_order in (-4, 1, 3):
            asked.clear()
            assert hodge_H_connected(eta, u_order).order == (u_order,)
            assert sorted(asked) == sorted(
                (sub, u_order + pole - len(sub) - sum(sub)) for sub in subs)

    def test_connected_matches_the_loop_over_set_partitions(self, set_partitions):
        # one product per set partition, as the reference; equality is
        # structural: vars, floor, order and every coefficient
        blocks_of = {}

        def block(sub, u_order):
            if (sub, u_order) not in blocks_of:
                blocks_of[sub, u_order] = hodge_H_series(sub, u_order)
            return blocks_of[sub, u_order]

        def reference(eta, u_order):
            pole = len(eta) + sum(eta)
            total = MultiSeries.zero(("u",), (u_order,), (-pole,))
            for blocks in set_partitions(len(eta)):
                sign = F((-1) ** (len(blocks) - 1) * math.factorial(len(blocks) - 1))
                piece = MultiSeries.constant(sign, ("u",))
                for b in blocks:
                    sub = tuple(sorted((eta[i] for i in b), reverse=True))
                    piece = piece * block(sub, u_order + pole - len(sub) - sum(sub))
                total = total + piece
            return total

        for d in range(1, 6):
            for eta in enumerate_partitions(d):
                for u_order in range(-4, 5):
                    assert hodge_H_connected(eta, u_order) == reference(eta, u_order), \
                        (eta, u_order)

    def test_connected_forms_one_product_per_marked_block(self, monkeypatch):
        # Hc(1^n) subtracts one product per nonempty rest (1^r), r = 1..n-1,
        # so (1,1,1,1,1) forms 1 + 2 + 3 + 4 = 10 series products, where the
        # 52 set partitions took 20 even when grouped into block multisets
        import gwhurwitz.gwh as gwh_module
        import gwhurwitz.qseries as qseries_module
        eta, u_order = (1, 1, 1, 1, 1), 1
        pole = len(eta) + sum(eta)
        blocks_of = {(1,) * n: hodge_H_series((1,) * n, u_order + pole - 2 * n)
                     for n in range(1, 6)}
        monkeypatch.setattr(gwh_module, "hodge_H_series", lambda sub, order: blocks_of[sub])
        products = []
        mul0, mul1, mul2 = qseries_module._MUL

        def counted(left, right, order):
            products.append(1)
            return mul1(left, right, order)

        monkeypatch.setattr(qseries_module, "_MUL", (mul0, counted, mul2))
        hodge_H_connected(eta, u_order)
        assert len(products) == 10

    def test_connected_extraction_subtracts_products(self):
        full = hodge_H_series((1, 1), 2)
        conn = hodge_H_connected((1, 1), 2)
        single = hodge_H_series((1,), 6)
        recombined = conn + single * single
        assert recombined.agrees_with(full)


class _Started(Exception):
    pass


class TestSeriesOrderLimit:
    # every series of these requests is built by one of these builders, each
    # patched in the module where its callers resolve it: the one-marking
    # coefficients pair in `icoeff`, the Hodge series read the bra in `gwh`
    _BUILDERS = {"icoeff": ("_boundary_bra", "_i_pairings"),
                 "gwh": ("_boundary_bra", "hodge_H_series", "hodge_H_connected")}

    def _run(self, monkeypatch, request_, error):
        import importlib

        def stop(*_args):
            raise error

        for module, names in self._BUILDERS.items():
            for name in names:
                monkeypatch.setattr(importlib.import_module(f"gwhurwitz.{module}"), name, stop)
        func, *args = request_
        func(*args)

    @pytest.mark.parametrize("request_", [
        (i_function_numeric, 1000, (2,), 3), (i_function_empty, 2000, (2,)),
        (elsv_check, (2,), 1000), (elsv_check, (2,), 3000),
        (i_function_numeric, 309, (2,), 0), (i_function_empty, 309, (1, 1)),
        (elsv_check, (12,), 304)])
    def test_huge_genus_raises_before_any_series(self, monkeypatch, request_):
        from gwhurwitz.icoeff import MAX_SERIES_ORDER

        with pytest.raises(ValueError, match=f"MAX_SERIES_ORDER = {MAX_SERIES_ORDER}"):
            self._run(monkeypatch, request_,
                      AssertionError("series built past the order limit"))

    @pytest.mark.parametrize("request_", [
        (i_function_numeric, 308, (2,), 0), (i_function_numeric, 308, (1, 1), 0),
        (i_function_empty, 308, (1, 1)), (elsv_check, (12,), 303),
        (elsv_check, (2,), 2), (i_function_numeric, 0, (1,), 80)])
    def test_orders_up_to_the_limit_are_built(self, monkeypatch, request_):
        with pytest.raises(_Started):
            self._run(monkeypatch, request_, _Started())

    @pytest.mark.parametrize("request_", [
        (elsv_check, (2, 2, 1, 1), 259), (i_function_numeric, 300, (6, 5, 4), 3),
        (i_function_empty, 300, (6, 5, 4)), (elsv_check, (4, 3, 2, 1), 140),
        (i_function_numeric, 101, (6, 5, 4), 3), (i_function_numeric, 0, (30, 20, 10), 0),
        (elsv_check, (1,) * 14, 0), (i_function_numeric, -100, (1,) * 30, 0),
        (i_function_empty, -100, (1,) * 30)],
        ids=["elsv_2211", "ifun_654", "ifun_empty_654", "elsv_past_limit", "ifun_past_limit",
             "ifun_large_parts", "elsv_many_parts", "ifun_negative_order",
             "ifun_empty_negative_order"])
    def test_costly_profile_raises_before_any_series(self, monkeypatch, request_):
        # inside MAX_SERIES_ORDER: ifun (6,5,4) at g = 300 ran past 60 s; a
        # negative order counts as 1, so thirty ones cost 2^30 at g = -100
        from gwhurwitz.icoeff import MAX_SERIES_COST

        with pytest.raises(ValueError, match=f"MAX_SERIES_COST = {MAX_SERIES_COST}"):
            self._run(monkeypatch, request_,
                      AssertionError("series built past the cost limit"))

    @pytest.mark.parametrize("request_", [
        (elsv_check, (3, 2, 1), 139), (i_function_numeric, 100, (6, 5, 4), 3),
        (i_function_empty, 303, (12,)), (elsv_check, (1,) * 5, 33),
        (elsv_check, (3, 2, 1), 140),
        (elsv_check, (1,) * 12, 0), (elsv_check, (1,) * 13, 0)],
        ids=["elsv_321", "ifun_654", "ifun_empty_12", "elsv_many_parts",
             "elsv_321_g140", "elsv_twelve_parts", "elsv_thirteen_parts"])
    def test_costs_up_to_the_limit_are_built(self, monkeypatch, request_):
        with pytest.raises(_Started):
            self._run(monkeypatch, request_, _Started())

    @pytest.mark.parametrize("request_", [
        (elsv_check, (3, 2, 1), 300), (elsv_check, (2, 2, 1, 1), 258)],
        ids=["elsv_321_g300", "elsv_2211"])
    def test_costly_cover_count_raises_before_any_series(self, monkeypatch, request_):
        # inside both series limits: the count alone took 33 s for (3,2,1)
        # at g = 300, and the whole check 72 s for (2,2,1,1) at g = 258
        import gwhurwitz.hurwitz as hurwitz_module
        from gwhurwitz.hurwitz import MAX_COVER_COST

        def count(*_args):
            raise AssertionError("covers counted past the cover limit")

        monkeypatch.setattr(hurwitz_module, "hurwitz_connected", count)
        with pytest.raises(ValueError, match=f"MAX_COVER_COST = {MAX_COVER_COST}"):
            self._run(monkeypatch, request_,
                      AssertionError("series built past the cover limit"))

    @pytest.mark.parametrize("request_", [
        (i_function_numeric, 0, (3, 2), 1500), (i_function_numeric, 50, (3, 2), 160),
        (i_function_numeric, 10, (3, 2), 160), (i_function_numeric, 10, (6, 5, 4), 80)],
        ids=["k_1500", "g_50_k_160", "g_10_k_160", "ifun_654"])
    def test_costly_pairing_raises_before_any_series(self, monkeypatch, request_):
        # inside both limits above: k = 1500 ran past 40 s, g = 50 with
        # k = 160 took 90 s
        from gwhurwitz.icoeff import MAX_PAIRING_COST

        with pytest.raises(ValueError, match=f"MAX_PAIRING_COST = {MAX_PAIRING_COST}"):
            self._run(monkeypatch, request_,
                      AssertionError("series built past the pairing limit"))

    @pytest.mark.parametrize("request_", [
        (i_function_numeric, 0, (3, 2), 320), (i_function_numeric, 25, (6, 5, 4), 40),
        (i_function_numeric, 0, (1,), 1200)], ids=["k_320", "ifun_654", "one_part"])
    def test_pairings_up_to_the_limit_are_built(self, monkeypatch, request_):
        with pytest.raises(_Started):
            self._run(monkeypatch, request_, _Started())

    @pytest.mark.parametrize("eta, u_order, limit", [
        ((1,) * 14, 2, "MAX_SERIES_COST"), ((2,), 700, "MAX_SERIES_ORDER")],
        ids=["many_parts", "high_order"])
    def test_connected_hodge_series_refuses_before_any_bra(
            self, monkeypatch, eta, u_order, limit):
        # the first series read is that of eta itself, so its check comes first
        import gwhurwitz.gwh as gwh_module

        def no_bra(*_args):
            raise AssertionError("boundary bra built past a limit")

        monkeypatch.setattr(gwh_module, "_boundary_bra", no_bra)
        with pytest.raises(ValueError, match=limit):
            hodge_H_connected(eta, u_order)

    @pytest.mark.parametrize("eta, u_order, limit", [
        ((2,), 2400, "MAX_SERIES_ORDER"), ((6, 5, 4), 300, "MAX_SERIES_COST")],
        ids=["high_order", "large_parts"])
    def test_hodge_series_refuses_before_any_bra(self, monkeypatch, eta, u_order, limit):
        # unchecked, (2,) at u-order 2400 took 15.3 s
        import gwhurwitz.gwh as gwh_module

        def no_bra(*_args):
            raise AssertionError("boundary bra built past a limit")

        monkeypatch.setattr(gwh_module, "_boundary_bra", no_bra)
        with pytest.raises(ValueError, match=f"u-order {u_order} at .* {limit} = "):
            hodge_H_series(eta, u_order)

    def test_the_bra_bomb_fires_on_admitted_series(self, monkeypatch):
        # the two refusals above patch `gwh`'s bra, which both series read
        import gwhurwitz.gwh as gwh_module

        def no_bra(*_args):
            raise AssertionError("boundary bra built")

        monkeypatch.setattr(gwh_module, "_boundary_bra", no_bra)
        for series in (hodge_H_series, hodge_H_connected):
            with pytest.raises(AssertionError, match="boundary bra built"):
                series((2, 1), 2)


class TestNoMarkingShape:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_two_nonnegative_cases_and_values(self, d):
        ramified = (2,) + (1,) * (d - 2)
        got = i_function_empty(2 - d, ramified)
        assert (got.value, got.z_degree) == (1, 0)
        got = i_function_empty(1 - d, (1,) * d)
        assert (got.value, got.z_degree) == (1, 1)
        for eta in enumerate_partitions(d):
            for g in range(1 - len(eta), 3):
                if (g, eta) in ((2 - d, ramified), (1 - d, (1,) * d)):
                    continue
                assert 3 - 2 * g - d - len(eta) < 0, (g, eta)


def _solve_exact(matrix, rhs):
    n = len(matrix)
    aug = [row[:] + [val] for row, val in zip(matrix, rhs)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = F(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


class TestOneMarkingHodgeOracle:
    @pytest.mark.parametrize("g,eta,k", [(1, (1,), 1), (1, (2,), 2)])
    def test_integer_argument_interpolation(self, g, eta, k):
        # w times the fixed-u-power slice of the mixed Hodge series is a
        # polynomial in the extra argument; fitting it at integer arguments
        # (computed by the univariate operator route) and reading off the
        # w-power reproduces the bivariate correlator coefficient
        degree = 2 * g + k + 6
        points = list(range(1, degree + 4))
        target = 2 * g - 2

        def t_of(m):
            parts = tuple(sorted(eta + (m,), reverse=True))
            return m * hodge_H_series(parts, target + 2).coefficient(target)

        values = [t_of(m) for m in points]
        matrix = [[F(m) ** j for j in range(degree + 1)] for m in points[:degree + 1]]
        coeffs = _solve_exact(matrix, values[:degree + 1])
        for extra, m in zip(values[degree + 1:], points[degree + 1:]):
            assert extra == sum(c * F(m) ** j for j, c in enumerate(coeffs))
        scale = F(1)
        for p in eta:
            scale *= F(p ** p, math.factorial(p))
        oracle = scale * coeffs[k + 2]
        assert i_function_numeric(g, eta, k).value == oracle


class TestUnstableClosedForms:
    def test_displayed_values(self):
        got = i_function_unstable_connected(0, (3, 2))
        assert got.value == F(3 ** 4 * 2 ** 3, 6 * 2 * 5)
        assert got.z_degree == -5
        got = i_function_unstable_connected(2, (3,))
        assert got.value == F(3 ** 4, 6)
        assert got.z_degree == -4

    def test_unsupported_cases_report(self):
        with pytest.raises(UnsupportedUnstableCase):
            i_function_unstable_connected(1, (2, 1))
        with pytest.raises(UnsupportedUnstableCase):
            i_function_unstable_connected(0, (1, 1, 1))

    @pytest.mark.parametrize("eta", [(1, 1), (2, 1), (2, 2), (3, 2)])
    def test_two_part_family_matches_operator_route(self, eta):
        series = hodge_H_connected(eta, -1)
        scale = F(1)
        for p in eta:
            scale *= F(p ** p, math.factorial(p))
        assert scale * series.coefficient(-2) == \
            i_function_unstable_connected(0, eta).value

    @pytest.mark.parametrize("part", [1, 2, 3, 4])
    def test_single_part_family_matches_operator_route(self, part):
        series = hodge_H_connected((part,), -1)
        scale = F(part ** part, math.factorial(part))
        assert scale * series.coefficient(-2) == \
            i_function_unstable_connected(0, (part,)).value


class TestStationary:
    def test_torus_two_insertions(self):
        got = stationary_gw(1, 2, [1, 1])
        assert got.total == 2
        assert got.by_genus == {2: F(2)}

    def test_sphere_two_insertions(self):
        got = stationary_gw(0, 2, [1, 1])
        assert got.total == F(1, 2)
        assert got.by_genus == {0: F(1, 2)}

    def test_trivial_cover(self):
        got = stationary_gw(1, 1, [])
        assert got.total == 1
        assert got.by_genus == {1: F(1)}

    def test_total_is_sum_of_genera(self):
        for h, d, ks in [(0, 2, [3]), (1, 2, [1, 1]), (1, 3, [1]), (0, 3, [1, 3])]:
            got = stationary_gw(h, d, ks)
            assert got.total == sum(got.by_genus.values())

    def test_matches_multilinear_expansion(self):
        cycles = [completed_cycle(1, 2).value, completed_cycle(1, 2).value]
        assert stationary_gw(1, 2, [1, 1]).total == hurwitz_classsum(1, 2, cycles)

    def test_genus_spread_is_observable(self):
        # the per-genus report is not always concentrated: padding with unit
        # parts changes the branching-forced source genus between monomials,
        # so the identity certified elsewhere holds for the total, while the
        # breakdown legitimately spans several (possibly negative) genera
        got = stationary_gw(0, 4, [2, 2])
        assert set(got.by_genus) == {-3, -1}
        assert got.by_genus[-1] == F(1, 12)
        assert got.total == sum(got.by_genus.values())
        # where the dimension constraint selects one genus, it concentrates
        assert set(stationary_gw(1, 2, [1, 1]).by_genus) == {2}

    def test_point_insertions_need_no_correlator_data(self, monkeypatch):
        # point insertions factor through single-marking data only; the
        # stationary path is entirely independent of the correlator route
        import gwhurwitz.cycles as cycles_module
        import gwhurwitz.icoeff as icoeff_module

        def bomb(*_args, **_kwargs):
            raise AssertionError("multi-point route requested")

        monkeypatch.setattr(icoeff_module, "i_function_numeric", bomb)
        got = cycles_module.stationary_gw(1, 2, [1, 1])
        assert got.total == 2
        # the bomb is where the `ifun` route resolves it
        with pytest.raises(AssertionError, match="multi-point route requested"):
            main(["ifun", "--g", "0", "--eta", "(1)", "--k", "2"])

    def test_odd_branching_with_nonzero_count_raises(self, monkeypatch):
        # Riemann-Hurwitz forces even total branching, so a nonzero count
        # for a single transposition over the sphere is an internal fault;
        # it must raise even under python -O
        import gwhurwitz.hurwitz as hurwitz_module
        monkeypatch.setattr(hurwitz_module, "branching_sums",
                            lambda h, d, factors: ({1: 1}, F(1)))
        with pytest.raises(ArithmeticError, match="odd total branching"):
            stationary_gw(0, 2, [1])

    def test_negative_target_genus_raises_before_any_cycle(self, monkeypatch):
        import gwhurwitz.cycles as cycles_module

        def bomb(*_args):
            raise AssertionError("cycle computed for a negative target genus")

        monkeypatch.setattr(cycles_module, "completed_cycle", bomb)
        for h, ks in ((-1, [1]), (-2, [0] * 6), (-1, [])):
            with pytest.raises(ValueError, match="need target_genus >= 0"):
                stationary_gw(h, 2, ks)

    def test_odd_branching_check_sees_the_real_sum(self, monkeypatch):
        # degree-2 columns with chi^(1,1)((2)) flipped to +1 break the sign
        # symmetry lam <-> lam' that makes every odd grade vanish, so the
        # odd grade of a single transposition over the sphere turns nonzero
        import gwhurwitz.characters as characters
        rows = [{(2,): 1, (1, 1): 1},  # the trivial character
                {(2,): 1, (1, 1): 1}]  # the sign character, -1 at (2) flipped to +1
        monkeypatch.setattr(characters, "character_columns", lambda degree, classes: [
            [row[mu] for mu in classes] for row in rows])
        with pytest.raises(ArithmeticError, match="odd total branching"):
            stationary_gw(0, 2, [1])


class TestElsv:
    def test_hand_checkable_point(self):
        report = elsv_check((2,), 1)
        assert report.stable and report.m == 3
        assert report.lhs == F(1, 2) and report.rhs == F(1, 2)
        assert report.equal

    def test_unbranched_double_cover_point(self):
        report = elsv_check((1, 1), 0)
        assert report.stable and report.m == 2
        assert report.equal and report.lhs == F(1, 2)

    def test_degenerate_inputs_reported(self):
        report = elsv_check((1,), 0)
        assert not report.stable and report.m == 0
        assert report.lhs is None and report.rhs is None

    def test_full_stable_window(self):
        for mu in [(2,), (1, 1), (3,), (2, 1), (1, 1, 1)]:
            for g in range(0, 3):
                report = elsv_check(mu, g)
                if report.stable:
                    assert report.equal, (mu, g, report)

    @pytest.mark.parametrize("g", [0, 1])
    def test_ten_unit_parts(self, g):
        # 115975 set partitions of ten parts put this past the former cost
        # limit; the marked-block recursion reads ten series.  At g = 0 both
        # sides are Hurwitz's count (2d-2)! d^(d-3) / d! of simple covers
        report = elsv_check((1,) * 10, g)
        assert report.stable and report.equal
        if g == 0:
            assert report.lhs == F(math.factorial(18) * 10 ** 7, math.factorial(10))

    def test_degree_four_values(self):
        # frozen from the connected-count side, which the transitive
        # monodromy oracle validates wholesale in the degree sweep
        expected = {((3, 1), 0): 27, ((3, 1), 1): 1215,
                    ((2, 2), 0): 12, ((2, 2), 1): 480,
                    ((2, 1, 1), 0): 120, ((2, 1, 1), 1): 5460,
                    ((4,), 0): 4, ((4,), 1): 160}
        for (mu, g), value in expected.items():
            report = elsv_check(mu, g)
            assert report.equal and report.lhs == value, (mu, g, report)
