"""Character sums against honest enumeration, and the connected recursion."""

import gc
import itertools
import math
import pickle
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwhurwitz.characters import (CharacterTable, dim_hook, f2_shifted, f_eta,
                                  transposition_class)
from gwhurwitz.cycles import completed_cycle, stationary_gw
from gwhurwitz.hurwitz import (BranchData, _join, _orbits, branching_sums,
                               hurwitz_classsum, hurwitz_connected, hurwitz_disconnected,
                               monodromy_oracle)
from gwhurwitz.partitions import ClassSum, aut_size, enumerate_partitions, z_factor


def profile_multisets(d, max_n):
    parts = enumerate_partitions(d)
    out = [()]
    for n in range(1, max_n + 1):
        out += [tuple(sorted(c)) for c in
                itertools.combinations_with_replacement(parts, n)]
    return out


def _cycles(p):
    """The cycles of the permutation tuple p, walked one by one."""
    cycles = []
    for x in range(len(p)):
        if not any(x in c for c in cycles):
            cycle = [x]
            while p[cycle[-1]] != x:
                cycle.append(p[cycle[-1]])
            cycles.append(cycle)
    return cycles


def _cycle_type(p):
    return tuple(sorted(map(len, _cycles(p)), reverse=True))


class TestBranchData:
    def test_validated_immutable_and_compared_by_value(self):
        b = BranchData(1, 3, [(2, 1)])
        assert b.profiles == ((2, 1),)
        same = BranchData(target_genus=1, degree=3, profiles=((2, 1),))
        assert b == same and hash(b) == hash(same)
        assert b != BranchData(0, 3, ((2, 1),)) and BranchData(1, 2) == BranchData(1, 2, ())
        assert repr(b) == "BranchData(target_genus=1, degree=3, profiles=((2, 1),))"
        assert pickle.loads(pickle.dumps(b)) == b
        with pytest.raises(AttributeError):
            b.degree = 4
        with pytest.raises(AttributeError):
            del b.profiles
        for bad in [(-1, 3, ()), (0, 0, ()), (0, 3, ((2, 2),))]:
            with pytest.raises(ValueError):
                BranchData(*bad)
            with pytest.raises(ValueError):
                BranchData._make(bad)
        with pytest.raises(ValueError):
            b._replace(degree=4)
        assert b._replace(profiles=[(3,)]) == BranchData(1, 3, ((3,),))


class TestSpotValues:
    def test_torus_no_profiles(self):
        assert hurwitz_disconnected(BranchData(1, 2)) == 2
        assert hurwitz_connected(BranchData(1, 2)) == F(3, 2)
        assert monodromy_oracle(BranchData(1, 2), transitive_only=True) == F(3, 2)

    def test_sphere_double_cover(self):
        b = BranchData(0, 2, ((2,), (2,)))
        assert hurwitz_disconnected(b) == F(1, 2)
        assert hurwitz_connected(b) == F(1, 2)
        assert monodromy_oracle(b) == F(1, 2)

    def test_sphere_triple_cover(self):
        b = BranchData(0, 3, ((3,), (3,), (3,)))
        assert hurwitz_disconnected(b) == F(1, 3)
        assert monodromy_oracle(b) == F(1, 3)

    def test_trivial_cover(self):
        assert monodromy_oracle(BranchData(0, 1)) == 1
        assert hurwitz_disconnected(BranchData(0, 1)) == 1

    def test_unbranched_double_cover_disconnects(self):
        b = BranchData(0, 2, ((1, 1), (1, 1)))
        assert hurwitz_disconnected(b) == F(1, 2)
        assert hurwitz_connected(b) == 0

    def test_oracle_bound(self):
        with pytest.raises(ValueError):
            monodromy_oracle(BranchData(0, 6, ()))

    def test_oracle_ceiling_ignores_the_bound(self, monkeypatch):
        # a genus >= 2 count at d = 8 would sweep 8! x 8! pairs: refuse before
        # enumerating a single permutation
        def no_permutations(*args):
            raise AssertionError(f"permutations enumerated: {args}")

        monkeypatch.setattr(itertools, "permutations", no_permutations)
        with pytest.raises(ValueError, match=r"8!x8! .* 1\.6e\+09 entries"):
            monodromy_oracle(BranchData(0, 8, ((2,) + (1,) * 6,)), degree_bound=8)


class TestOracleAgreement:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_disconnected_matches_oracle(self, d):
        for h in range(0, 3):
            for profiles in profile_multisets(d, 3):
                b = BranchData(h, d, profiles)
                assert hurwitz_disconnected(b) == monodromy_oracle(b), (h, d, profiles)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_connected_matches_transitive_oracle(self, d):
        for h in range(0, 3):
            for profiles in profile_multisets(d, 3):
                b = BranchData(h, d, profiles)
                assert hurwitz_connected(b) == \
                    monodromy_oracle(b, transitive_only=True), (h, d, profiles)

    def test_degree_five_spot(self):
        b = BranchData(0, 5, ((5,), (5,), (5,)))
        assert hurwitz_disconnected(b) == monodromy_oracle(b)
        assert hurwitz_connected(b) == monodromy_oracle(b, transitive_only=True)

    def test_connected_bounded_by_disconnected(self):
        for d in (2, 3, 4):
            for profiles in profile_multisets(d, 2):
                for h in (0, 1):
                    b = BranchData(h, d, profiles)
                    disc = hurwitz_disconnected(b)
                    conn = hurwitz_connected(b)
                    assert 0 <= conn <= disc, (h, d, profiles)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_classes_are_the_cycle_types(self, d):
        # each permutation's orbit labels (the least point of each point's
        # cycle) and cycle type, against the cycles walked one by one
        types = set()
        for p in itertools.permutations(range(d)):
            cycles = _cycles(p)
            labels = tuple(min(c) for x in range(d) for c in cycles if x in c)
            assert _orbits(p) == (labels, _cycle_type(p)), p
            types.add(_cycle_type(p))
        assert sorted(types) == sorted(enumerate_partitions(d))

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_orbit_joins_match_a_brute_force_union_find(self, d, set_partitions):
        # every pair of set partitions, as label tuples; the reference merges
        # any two blocks that share a point until none do
        partitions = [[set(block) for block in part] for part in set_partitions(d)]

        def labels(blocks):
            return tuple(min(b) for x in range(d) for b in blocks if x in b)

        for a in partitions:
            for b in partitions:
                blocks = [set(x) for x in a + b]
                merged = True
                while merged:
                    merged = False
                    for i, j in itertools.combinations(range(len(blocks)), 2):
                        if blocks[i] & blocks[j]:
                            blocks[i] |= blocks.pop(j)
                            merged = True
                            break
                assert _join(labels(a), labels(b)) == labels(blocks), (a, b)

    def test_trivial_profile_is_identity_insertion(self):
        for d in (2, 3, 4):
            for h in (0, 1):
                for profiles in profile_multisets(d, 1):
                    base = BranchData(h, d, profiles)
                    padded = BranchData(h, d, profiles + ((1,) * d,))
                    assert hurwitz_disconnected(base) == hurwitz_disconnected(padded)


class TestClassSums:
    def test_single_transposition_vanishes(self):
        assert hurwitz_classsum(1, 2, [ClassSum.single((2,))]) == 0

    def test_two_transpositions(self):
        two = ClassSum.single((2,))
        assert hurwitz_classsum(1, 2, [two, two]) == 2

    def test_linearity(self):
        a = ClassSum.single((2,))
        b = ClassSum.single((1, 1), F(1, 3))
        other = ClassSum.single((2,), 2)
        lhs = hurwitz_classsum(1, 2, [a + b, other])
        rhs = hurwitz_classsum(1, 2, [a, other]) + hurwitz_classsum(1, 2, [b, other])
        assert lhs == rhs


def _reference_branching_sums(h, d, factors):
    """Monomial by monomial, through f_eta and dim_hook: no character table."""
    sums = {}
    for combo in itertools.product(*factors):
        coeff = math.prod((c for _mu, c in combo), start=F(1))
        b = sum(d - len(mu) for mu, _c in combo)
        value = F(0)
        for lam in enumerate_partitions(d):
            term = F(dim_hook(lam), math.factorial(d)) ** (2 - 2 * h)
            for mu, _c in combo:
                term *= f_eta(mu, lam)
            value += term
        sums[b] = sums.get(b, 0) + coeff * value
    return sums


@st.composite
def _class_sum_products(draw):
    d = draw(st.integers(min_value=1, max_value=5))
    h = draw(st.integers(min_value=0, max_value=2))
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    factor = st.dictionaries(st.sampled_from(enumerate_partitions(d)), coeffs, max_size=3)
    factors = draw(st.lists(factor, max_size=3))
    return h, d, [list(f.items()) for f in factors]


@settings(max_examples=200, deadline=None)
@given(_class_sum_products())
def test_branching_sums_match_the_monomial_expansion(case):
    h, d, factors = case
    sums, scale = branching_sums(h, d, factors)
    got = {b: scale * value for b, value in sums.items()}
    want = _reference_branching_sums(h, d, factors)
    for b in set(got) | set(want):
        assert got.get(b, 0) == want.get(b, 0), (b, got, want)


def _full_table_disconnected(h, d, profiles):
    """The count as a full-table sum, one Fraction product per (lam, profile)."""
    table = CharacterTable.build(d)
    dfact = math.factorial(d)
    total = F(0)
    for lam in table.partitions:
        dim = table.dim(lam)
        term = F(dim, dfact) ** (2 - 2 * h)
        for eta in profiles:
            term *= F(dfact, z_factor(eta)) * F(table.chi(lam, eta), dim)
        total += term
    return total


def _carvings(eta, d1):
    """The distinct (carved, rest) splits of eta's parts with total d1, from
    every index subset."""
    return {(tuple(eta[i] for i in idx), tuple(p for i, p in enumerate(eta) if i not in idx))
            for r in range(len(eta) + 1) for idx in itertools.combinations(range(len(eta)), r)
            if sum(eta[i] for i in idx) == d1}


def _folded_connected(h, d, profiles, memo):
    """The marked-sheet recursion folding one profile at a time, over the
    full-table sums."""
    key = (h, d, profiles)
    if key not in memo:
        total = _full_table_disconnected(h, d, profiles)
        for d1 in range(1, d):
            folds = {((), ()): 1}
            for eta in profiles:
                new = {}
                for (left, right), count in folds.items():
                    for carved, rest in _carvings(eta, d1):
                        k = (tuple(sorted(left + (carved,))), tuple(sorted(right + (rest,))))
                        new[k] = new.get(k, 0) + count
                folds = new
            for (left, right), count in folds.items():
                total -= (count * F(d1, d) * _folded_connected(h, d1, left, memo)
                          * _full_table_disconnected(h, d - d1, right))
        memo[key] = total
    return memo[key]


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_counts_match_the_full_table_sums(d):
    memo = {}
    for h in range(3):
        for profiles in profile_multisets(d, 3):
            b = BranchData(h, d, profiles)
            assert hurwitz_disconnected(b) == _full_table_disconnected(h, d, profiles), b
            assert hurwitz_connected(b) == _folded_connected(h, d, profiles, memo), b


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_unbranched_profiles_leave_connected_counts_unchanged(d):
    # a profile (1^d) is the identity's class: the recursion drops it, and
    # its shares (1^k), while the oracle still enumerates it
    unbranched = (1,) * d
    for h in range(2):
        for profiles in profile_multisets(d, 2):
            count = hurwitz_connected(BranchData(h, d, profiles))
            for extra in (1, 2):
                branch = BranchData(h, d, (unbranched,) * extra + profiles)
                assert hurwitz_connected(branch) == count, branch
                assert monodromy_oracle(branch, transitive_only=True) == count, branch


def _multiply(p, q):
    """p o q, one point at a time."""
    return tuple(p[q[x]] for x in range(len(q)))


def _inverse(p):
    q = [0] * len(p)
    for x, y in enumerate(p):
        q[y] = x
    return tuple(q)


def _transitive(entries, d):
    """Whether the group generated by `entries` moves 0 to every point."""
    reached = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for p in entries:
            if p[x] not in reached:
                reached.add(p[x])
                frontier.append(p[x])
    return len(reached) == d


def _naive_oracle(branch, transitive_only):
    """Every tuple of S_d, one per slot, with no entry fixed and no sweep."""
    d, h = branch.degree, branch.target_genus
    identity = tuple(range(d))
    count = 0
    for entries in itertools.product(itertools.permutations(range(d)),
                                     repeat=2 * h + len(branch.profiles)):
        points = entries[2 * h:]
        if any(_cycle_type(s) != eta for s, eta in zip(points, branch.profiles)):
            continue
        product = identity
        for a, b in zip(entries[:2 * h:2], entries[1:2 * h:2]):
            product = _multiply(product, _multiply(_multiply(a, b),
                                                   _multiply(_inverse(a), _inverse(b))))
        for s in points:
            product = _multiply(product, s)
        if product == identity and (not transitive_only or _transitive(entries, d)):
            count += 1
    return F(count, math.factorial(d))


@pytest.mark.parametrize("h, d, max_n", [(0, 1, 2), (1, 1, 2), (0, 2, 2), (1, 2, 2),
                                         (0, 3, 2), (1, 3, 2), (0, 4, 2)])
def test_oracle_matches_the_naive_enumeration(h, d, max_n):
    for profiles in profile_multisets(d, max_n):
        branch = BranchData(h, d, profiles)
        for transitive_only in (False, True):
            assert monodromy_oracle(branch, transitive_only) == \
                _naive_oracle(branch, transitive_only), (branch, transitive_only)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_commutator_distribution_matches_the_double_loop(d):
    # a genus-1 count with one profile eta reads the pairs (a, b) whose
    # commutator lies in eta's class: a double loop over S_d x S_d counts them
    # by class, and by whether <a, b> is transitive
    perms = list(itertools.permutations(range(d)))
    plain, transitive = {}, {}
    for a in perms:
        for b in perms:
            shape = _cycle_type(_multiply(_multiply(a, b), _multiply(_inverse(a), _inverse(b))))
            plain[shape] = plain.get(shape, 0) + 1
            if _transitive((a, b), d):
                transitive[shape] = transitive.get(shape, 0) + 1
    for eta in enumerate_partitions(d):
        branch = BranchData(1, d, (eta,))
        assert monodromy_oracle(branch) == F(plain.get(eta, 0), math.factorial(d))
        assert monodromy_oracle(branch, transitive_only=True) == \
            F(transitive.get(eta, 0), math.factorial(d))


def test_connected_count_computes_each_sub_problem_once_per_call(monkeypatch):
    # the heaviest connected `covers` shape at degree 8: (1^8) plus 14 simple
    # points; its recursion reaches 78 disconnected sub-problems, each counted
    # once, and a repeat call counts them again instead of reading a
    # process-wide cache
    import gwhurwitz.hurwitz as hurwitz_module

    calls = []
    inner = hurwitz_module._disconnected

    def spy(h, d, profiles):
        calls.append((h, d, profiles))
        return inner(h, d, profiles)

    monkeypatch.setattr(hurwitz_module, "_disconnected", spy)
    branch = BranchData(0, 8, ((1,) * 8,) + (transposition_class(8),) * 14)
    for _ in range(2):
        calls.clear()
        assert hurwitz_connected(branch) == 70849658880
        assert len(calls) == len(set(calls)) == 78


def test_connected_memos_end_with_the_call_without_the_collector():
    # the `covers` shape at degree 7: (1^7) plus 12 simple points; its memos
    # hold about 30 KB, and the first call fills the interpreter's free lists
    branch = BranchData(0, 7, ((1,) * 7,) + (transposition_class(7),) * 12)
    enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        hurwitz_connected(branch)
        base = tracemalloc.get_traced_memory()[0]
        hurwitz_connected(branch)
        grown = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()
    assert grown < 8_000


def _sweep_in(monkeypatch, order) -> list:
    """Make the oracle sweep its profiles in `order`, not by class size; the
    returned list records each sweep that took the order."""
    import builtins

    import gwhurwitz.hurwitz as hurwitz_module

    used = []

    def fixed(items, key=None, reverse=False):
        if key is None:
            return builtins.sorted(items, reverse=reverse)
        used.append(order)
        return list(order)

    monkeypatch.setattr(hurwitz_module, "sorted", fixed, raising=False)
    return used


@pytest.mark.parametrize("h, d, profiles", [
    (0, 4, ((2, 1, 1), (3, 1), (2, 2), (2, 1, 1))),
    (0, 5, ((4, 1), (3, 2), (2, 2, 1))),
    (1, 4, ((2, 1, 1), (3, 1), (2, 1, 1))),
])
def test_oracle_count_does_not_depend_on_the_sweep_order(monkeypatch, h, d, profiles):
    # Hurwitz moves swap neighbouring profiles and keep the product and the
    # generated group, so every order counts the same tuples
    branch = BranchData(h, d, profiles)
    for transitive_only in (False, True):
        want = hurwitz_connected(branch) if transitive_only else hurwitz_disconnected(branch)
        assert want
        for order in sorted(set(itertools.permutations(profiles))):
            used = _sweep_in(monkeypatch, order)
            assert monodromy_oracle(branch, transitive_only, degree_bound=d) == want, order
            assert used == [order]


def test_profiles_are_swept_in_ascending_class_size(monkeypatch):
    # class sizes 144, 45 and 40: the largest, (5, 1), is fixed to one
    # representative, the next closes the sweep, and only the 40 elements of
    # (3, 3) are multiplied in; the given order would multiply in 144
    import gwhurwitz.hurwitz as hurwitz_module

    composed = []
    inner = hurwitz_module._compose

    def spy(p):
        composed.append(_cycle_type(p))
        return inner(p)

    monkeypatch.setattr(hurwitz_module, "_compose", spy)
    profiles = ((5, 1), (2, 2, 1, 1), (3, 3))
    branch = BranchData(0, 6, profiles)
    assert monodromy_oracle(branch, degree_bound=6) == 1
    assert composed == [(3, 3)] * 40
    composed.clear()
    _sweep_in(monkeypatch, profiles)
    assert monodromy_oracle(branch, degree_bound=6) == 1
    assert composed == [(5, 1)] * 144


@pytest.mark.parametrize("profiles, transitive_only", [
    (((3, 2, 2),), False),
    (((2,) + (1,) * 5,) * 2, True),
])
def test_genus_one_oracle_at_degree_seven(profiles, transitive_only):
    # about 0.1 s plain and 0.4 s transitive in-process (CPython 3.11, 2 cores)
    branch = BranchData(1, 7, profiles)
    want = hurwitz_connected(branch) if transitive_only else hurwitz_disconnected(branch)
    assert want
    assert monodromy_oracle(branch, transitive_only, degree_bound=7) == want


@pytest.mark.parametrize("d, profiles", [
    (6, ((6,), (6,), (3, 2, 1))),
    (6, ((5, 1), (3, 3), (4, 2))),
    (6, ((2, 2, 2), (3, 3), (2, 1, 1, 1, 1), (4, 1, 1))),
    (6, ((4, 1, 1), (2, 2, 1, 1), (3, 1, 1, 1), (2, 1, 1, 1, 1))),
    (7, ((2,) + (1,) * 5,) * 2),
    (7, ((2,) + (1,) * 5, (6, 1), (7,))),
    (7, ((3,) + (1,) * 4, (2, 2, 1, 1, 1), (4, 3))),
    (6, ((2, 1, 1, 1, 1), (3, 2, 1), (4, 2))),
])
def test_genus_zero_oracle_matches_character_sums(d, profiles):
    branch = BranchData(0, d, profiles)
    assert monodromy_oracle(branch, degree_bound=7) == hurwitz_disconnected(branch)
    assert monodromy_oracle(branch, transitive_only=True, degree_bound=7) == \
        hurwitz_connected(branch)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_connected_genus_zero_matches_hurwitz_formula(d):
    # Hurwitz: connected genus-0 covers with profile mu over one point and
    # m = len(mu) + d - 2 simple branch points number
    # m! d^(len(mu)-3) prod mu_i^mu_i / mu_i! / |Aut mu|
    tau = transposition_class(d)
    for mu in enumerate_partitions(d):
        m = len(mu) + d - 2
        want = F(math.factorial(m)) * F(d) ** (len(mu) - 3) / aut_size(mu)
        for p in mu:
            want *= F(p ** p, math.factorial(p))
        assert hurwitz_connected(BranchData(0, d, (mu,) + (tau,) * m)) == want, mu


def double_hurwitz_coefficient(mu, eta, n):
    """(-1)^n/n! times the double Hurwitz number with n extra simple branch
    points: sum_lam chi^lam(mu) chi^lam(eta) (-f2(lam))^n / (z(mu) z(eta) n!)."""
    table = CharacterTable.build(sum(mu))
    total = sum(table.chi(lam, mu) * table.chi(lam, eta) * (-f2_shifted(lam)) ** n
                for lam in table.partitions)
    return total / (z_factor(mu) * z_factor(eta) * math.factorial(n))


class TestDoubleHurwitzSeries:
    # the weights the wall-crossing route sums through the irreducibles
    def test_cosh_example(self):
        coeffs = [double_hurwitz_coefficient((2,), (2,), n) for n in range(5)]
        assert coeffs == [F(1, 2), 0, F(1, 4), 0, F(1, 48)]

    def test_degree_one_is_constant(self):
        assert double_hurwitz_coefficient((1,), (1,), 0) == 1
        assert all(double_hurwitz_coefficient((1,), (1,), n) == 0 for n in range(1, 6))

    def test_constant_term_is_two_point_count(self):
        for d in (1, 2, 3, 4):
            for mu in enumerate_partitions(d):
                for eta in enumerate_partitions(d):
                    expected = hurwitz_disconnected(BranchData(0, d, (mu, eta)))
                    assert double_hurwitz_coefficient(mu, eta, 0) == expected

    def test_matches_wedge_diagonal_word(self):
        # the diagonal-exponential word on boson boundaries reproduces the
        # centralizer-scaled weights: one identity tying the wedge engine,
        # the character tables, and the cover counts together
        from gwhurwitz.fock import Alpha, ExpUF2, correlator
        for d in (1, 2, 3):
            for mu in enumerate_partitions(d):
                for eta in enumerate_partitions(d):
                    word = [ExpUF2(-1)] + [Alpha(-p) for p in eta]
                    got = correlator(word, mu, ("u",), (6,))
                    assert got.order == (6,), (mu, eta)
                    for n in range(6):
                        assert got.coefficient((n,)) == z_factor(mu) * z_factor(eta) * \
                            double_hurwitz_coefficient(mu, eta, n), (mu, eta, n)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_coefficients_match_explicit_profiles(self, d):
        # pins the normalization: the b-th weight is (-1)^b/b! times the
        # count with b explicit simple-branching profiles
        simple = (2,) + (1,) * (d - 2)
        for mu in enumerate_partitions(d):
            for eta in enumerate_partitions(d):
                for b in range(5):
                    profiles = (mu, eta) + (simple,) * b
                    want = F((-1) ** b, math.factorial(b)) * \
                        hurwitz_disconnected(BranchData(0, d, profiles))
                    assert double_hurwitz_coefficient(mu, eta, b) == want, (mu, eta, b)


class _Started(Exception):
    pass


class TestGenusLimit:
    # every character sum reads its rows through `character_columns`, and
    # `stationary_gw` builds its class sums through `completed_cycle`
    def _run(self, monkeypatch, request_, error):
        import gwhurwitz.characters as characters_module
        import gwhurwitz.cycles as cycles_module

        def stop(*_args):
            raise error

        monkeypatch.setattr(characters_module, "character_columns", stop)
        monkeypatch.setattr(cycles_module, "completed_cycle", stop)
        func, *args = request_
        func(*args)

    @pytest.mark.parametrize("request_", [
        (hurwitz_disconnected, BranchData(20000, 12, (transposition_class(12),))),
        (hurwitz_disconnected, BranchData(1000, 24)),
        (hurwitz_connected, BranchData(10000, 12, (transposition_class(12),) * 2)),
        (hurwitz_classsum, 10000, 12, [ClassSum.single(transposition_class(12))]),
        (hurwitz_classsum, 0, 3, [completed_cycle(80, 3).value] * 512),
        (stationary_gw, 20000, 12, [1]), (stationary_gw, 800, 24, []),
        (stationary_gw, 0, 3, [80] * 400)],
        ids=["hur_12", "hur_24", "hur_connected", "classsum", "classsum_insertions",
             "gw_12", "gw_24", "gw_insertions"])
    def test_huge_genus_raises_before_any_column(self, monkeypatch, request_):
        # h = 20000 at d = 12 ran 21 s as a process, then failed to print; 400
        # insertions of k = 80 at d = 3 ran 44 s, and the class sum of 512
        # such cycles 42 s
        from gwhurwitz.hurwitz import MAX_GENUS_COST

        with pytest.raises(ValueError, match=f"MAX_GENUS_COST = {MAX_GENUS_COST}"):
            self._run(monkeypatch, request_,
                      AssertionError("column read past the genus limit"))

    @pytest.mark.parametrize("request_", [
        (hurwitz_disconnected, BranchData(8000, 12, (transposition_class(12),) * 2)),
        (hurwitz_disconnected, BranchData(700, 24)),
        (hurwitz_connected, BranchData(2000, 16, (transposition_class(16),) * 2)),
        (hurwitz_classsum, 0, 3, [completed_cycle(80, 3).value] * 150),
        (stationary_gw, 8000, 12, [1]), (stationary_gw, 2, 16, [1, 2, 3]),
        (stationary_gw, 0, 3, [80] * 172), (stationary_gw, 0, 24, [8] * 26)],
        ids=["hur_12", "hur_24", "hur_connected", "classsum_insertions", "gw_12", "gw_16",
             "gw_insertions", "gw_insertions_24"])
    def test_genera_up_to_the_limit_are_read(self, monkeypatch, request_):
        with pytest.raises(_Started):
            self._run(monkeypatch, request_, _Started())

    @pytest.mark.parametrize("argv", [
        ["hur", "--target-genus", "20000", "--d", "12"],
        ["gw", "--target-genus", "20000", "--d", "12", "--ks", "1"],
        ["gw", "--target-genus", "0", "--d", "3", "--ks", ",".join(["80"] * 400)]],
        ids=["hur", "gw", "gw_insertions"])
    def test_cli_exits_2_naming_the_limit(self, argv, capsys):
        from gwhurwitz.cli import main
        from gwhurwitz.hurwitz import MAX_GENUS_COST

        assert main(argv) == 2
        assert f"MAX_GENUS_COST = {MAX_GENUS_COST}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["hur", "--target-genus", "300", "--d", "12"],
        ["gw", "--target-genus", "300", "--d", "12"]], ids=["hur", "gw"])
    def test_cli_prints_values_past_the_digit_limit(self, argv, capsys):
        # 5192 digits, past the 4300 that CPython's str() allows by default
        import json
        import sys

        from gwhurwitz.cli import main

        limit = sys.get_int_max_str_digits()
        assert main(argv) == 0
        assert sys.get_int_max_str_digits() == limit
        printed = json.loads(capsys.readouterr().out)["result"]
        if argv[0] == "hur":
            printed, value = printed["value"], hurwitz_disconnected(BranchData(300, 12))
        else:
            assert list(printed["by_genus"].values()) == [printed["total"]]
            printed, value = printed["total"], stationary_gw(300, 12, []).total
        sys.set_int_max_str_digits(0)
        try:
            assert printed == str(value) and len(printed) == 5192
        finally:
            sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("argv", [
        ["ifun", "--g", "0", "--eta", "(" + "1" * 5000 + ")", "--k", "0"],
        ["gw", "--target-genus", "1", "--d", "2", "--ks", "1" * 5000]], ids=["eta", "ks"])
    def test_cli_flags_keep_the_digit_limit(self, argv, capsys):
        # only the values are written past CPython's limit; a flag is read within it
        from gwhurwitz.cli import main

        assert main(argv) == 2
        assert "Exceeds the limit (4300 digits)" in capsys.readouterr().err


class TestCoverLimit:
    # every count of the connected recursion reads its rows through `character_columns`
    def _run(self, monkeypatch, branch, error):
        import gwhurwitz.characters as characters_module

        def stop(*_args):
            raise error

        monkeypatch.setattr(characters_module, "character_columns", stop)
        hurwitz_connected(branch)

    @pytest.mark.parametrize("profiles", [
        ((3, 2, 1),) + (transposition_class(6),) * 311,
        ((3, 2, 1), (1,) * 6) + (transposition_class(6),) * 311,
        (transposition_class(6),) * 312],
        ids=["elsv_321_g152", "with_unbranched", "all_simple"])
    def test_costly_cover_count_raises_before_any_count(self, monkeypatch, profiles):
        # the first is the count of `elsv_check((3, 2, 1), 152)`, refused there
        # too; it ran 4.4 s as a process.  312 simple points ran 6.1 s
        from gwhurwitz.hurwitz import MAX_COVER_COST

        with pytest.raises(ValueError, match=f"MAX_COVER_COST = {MAX_COVER_COST}"):
            self._run(monkeypatch, BranchData(0, 6, profiles),
                      AssertionError("covers counted past the cover limit"))

    @pytest.mark.parametrize("profiles", [
        ((3, 2, 1),) + (transposition_class(6),) * 287,
        ((3, 2, 1), (2, 2, 2)) + (transposition_class(6),) * 400,
        (transposition_class(6),) * 230],
        ids=["elsv_321_g140", "two_other_profiles", "all_simple"])
    def test_cover_counts_up_to_the_limit_are_counted(self, monkeypatch, profiles):
        # the limit reads m simple points and at most one other profile
        with pytest.raises(_Started):
            self._run(monkeypatch, BranchData(0, 6, profiles), _Started())
