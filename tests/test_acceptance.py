"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; every
tolerance is exact rational equality.
"""

import itertools
import json
import math
import time
from fractions import Fraction as F

from gwhurwitz.characters import CharacterTable, f2_shifted, f_eta, transposition_class
from gwhurwitz.cli import main
from gwhurwitz.cycles import completed_cycle, stationary_gw
from gwhurwitz.fock import CalE, FockState, apply_alpha, apply_calE, correlator
from gwhurwitz.gwh import elsv_check, gwh_crosscheck, i_function_empty, tau_via_wallcrossing
from gwhurwitz.hurwitz import BranchData, hurwitz_connected, hurwitz_disconnected, \
    monodromy_oracle
from gwhurwitz.partitions import ClassSum, enumerate_partitions, z_factor
from gwhurwitz.qseries import MultiSeries, sigma_of, sigma_series


def report(name: str, ok: bool):
    print(f"{'PASS' if ok else 'FAIL'}  {name}")
    assert ok, name


def test_criterion_1_route_equivalence():
    start = time.time()
    ok = True
    for d in range(1, 4):
        for k in range(0, 7):
            if completed_cycle(k, d).value != tau_via_wallcrossing(k, d):
                ok = False
    ok = ok and completed_cycle(1, 2).value == ClassSum(2, {(2,): 1})
    elapsed = time.time() - start
    report(f"criterion 1: route equivalence d<=3 k<=6 ({elapsed:.1f}s)", ok and elapsed < 300)


def test_criterion_1_route_equivalence_to_degree_8():
    start = time.time()
    # the same 88 comparisons through `_tau_from_table`, one ket per degree
    crosscheck = gwh_crosscheck(8, 10)
    ok = crosscheck.passed and len(crosscheck.rows) == 88
    elapsed = time.time() - start
    report(f"criterion 1: route equivalence d<=8 k<=10 ({elapsed:.1f}s)", ok and elapsed < 300)


def test_criterion_2_burnside_vs_oracle():
    start = time.time()
    ok = True
    for d in range(1, 5):
        parts = enumerate_partitions(d)
        multis = [()]
        for n in (1, 2, 3):
            multis += [tuple(sorted(c))
                       for c in itertools.combinations_with_replacement(parts, n)]
        for h in range(0, 3):
            for profiles in multis:
                branch = BranchData(h, d, profiles)
                if hurwitz_disconnected(branch) != monodromy_oracle(branch):
                    ok = False
                if hurwitz_connected(branch) != monodromy_oracle(branch, True):
                    ok = False
    ok = ok and hurwitz_disconnected(BranchData(1, 2)) == 2
    ok = ok and hurwitz_disconnected(BranchData(0, 2, ((2,), (2,)))) == F(1, 2)
    ok = ok and hurwitz_disconnected(BranchData(0, 3, ((3,), (3,), (3,)))) == F(1, 3)
    elapsed = time.time() - start
    report(f"criterion 2: character sums = enumeration d<=4 h<=2 n<=3 ({elapsed:.1f}s)",
           ok and elapsed < 120)


def test_criterion_3_elsv_identity():
    start = time.time()
    ok = True
    for mu in [(2,), (1, 1), (3,), (2, 1)]:
        for g in range(0, 3):
            got = elsv_check(mu, g)
            if got.stable and not got.equal:
                ok = False
    point = elsv_check((2,), 1)
    ok = ok and point.lhs == F(1, 2) and point.rhs == F(1, 2)
    elapsed = time.time() - start
    report(f"criterion 3: ELSV identity on the stable window ({elapsed:.1f}s)",
           ok and elapsed < 60)


def test_criterion_4_empty_i_functions():
    ok = True
    for d in range(2, 5):
        ramified = (2,) + (1,) * (d - 2)
        got = i_function_empty(2 - d, ramified)
        ok = ok and got.value == 1 and got.z_degree == 0
        got = i_function_empty(1 - d, (1,) * d)
        ok = ok and got.value == 1 and got.z_degree == 1
        for eta in enumerate_partitions(d):
            for g in range(1 - len(eta), 3):
                if (g, eta) in ((2 - d, ramified), (1 - d, (1,) * d)):
                    continue
                ok = ok and (3 - 2 * g - d - len(eta)) < 0
    report("criterion 4: no-marking I-functions are exactly 1 and z", ok)


def test_criterion_5_character_table_integrity():
    ok = True
    start = time.time()
    CharacterTable.build(8)
    build_time = time.time() - start
    for d in range(1, 9):
        table = CharacterTable.build(d)
        parts = table.partitions
        for mu in parts:
            for nu in parts:
                total = sum(table.chi(l, mu) * table.chi(l, nu) for l in parts)
                ok = ok and total == (z_factor(mu) if mu == nu else 0)
        for l1 in parts:
            for l2 in parts:
                total = sum(F(table.chi(l1, mu) * table.chi(l2, mu), z_factor(mu))
                            for mu in parts)
                ok = ok and total == (1 if l1 == l2 else 0)
        ok = ok and sum(table.dim(l) ** 2 for l in parts) == math.factorial(d)
        if d >= 2:
            eta = transposition_class(d)
            for lam in parts:
                ok = ok and f2_shifted(lam) == f_eta(eta, lam)
    report(f"criterion 5: character integrity d<=8 (build {build_time:.2f}s)",
           ok and build_time < 30)


def test_criterion_6_fock_identities():
    start = time.time()
    ok = True
    # commutator of a plain boson with a weighted move operator, checked
    # coefficientwise through order 6 (extraction raises if the engine
    # cannot actually guarantee that window)
    z = MultiSeries.monomial(("z",), (1,), 1, (10,))
    cap = 14
    for k in [r for r in range(-3, 4) if r]:
        kernel = sigma_of(z * k)
        for l in range(-3, 4):
            for d in range(0, 7):
                for lam in enumerate_partitions(d):
                    s = FockState(("z",), {lam: MultiSeries.constant(1, ("z",))})
                    lhs = apply_alpha(k, apply_calE(l, z, s, cap), cap) + \
                        apply_calE(l, z, apply_alpha(k, s, cap), cap).scaled(-1)
                    rhs = apply_calE(k + l, z, s, cap).scaled(kernel)
                    for mu in set(lhs.terms) | set(rhs.terms):
                        for n in range(7):
                            if lhs.coefficient(mu).coefficient(n) != \
                                    rhs.coefficient(mu).coefficient(n):
                                ok = False
    # vacuum expectation of the shift-0 operator, through order 8
    z11 = MultiSeries.monomial(("z",), (1,), 1, (11,))
    got = correlator([CalE(0, z11)], None, ("z",), (11,))
    inv = sigma_series("z", 11).inverse()
    for n in range(-1, 9):
        ok = ok and got.coefficient(n) == inv.coefficient(n)
    # full contraction of the annihilating bosons against one weighted move;
    # the product of odd kernels carries the vacuum scalar 1/sigma(z) that
    # the shift-0 expectation above produces (see the decisions ledger)
    for d in range(1, 6):
        for mu in enumerate_partitions(d):
            got = correlator([CalE(-d, z11)], mu, ("z",), (11,))
            expected = inv
            for part in mu:
                expected = expected * sigma_of(z11 * part)
            for n in range(-1, 9):
                ok = ok and got.coefficient(n) == expected.coefficient(n)
    elapsed = time.time() - start
    report(f"criterion 6: operator-engine identities ({elapsed:.1f}s)", ok)


def test_criterion_7_stationary_spot_values():
    ok = stationary_gw(1, 2, [1, 1]).total == 2
    ok = ok and stationary_gw(0, 2, [1, 1]).total == F(1, 2)
    report("criterion 7: stationary invariant spot values", ok)


def test_criterion_8_cli_determinism_and_cache(capsys):
    ok = True
    outputs = []
    for _ in range(2):
        assert main(["char", "--d", "6"]) == 0
        outputs.append(capsys.readouterr().out)
    ok = ok and outputs[0] == outputs[1]
    assert main(["char", "--d", "6"]) == 0
    ok = ok and capsys.readouterr().out == outputs[0]
    for _ in range(2):
        assert main(["verify", "--d-max", "1", "--k-max", "2"]) == 0
        outputs.append(capsys.readouterr().out)
    ok = ok and outputs[2] == outputs[3]
    ok = ok and json.loads(outputs[2])["passed"] is True
    report("criterion 8: deterministic output", ok)
