"""Character sums against honest enumeration, and the connected recursion."""

import itertools
import math
import pickle
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwhurwitz.characters import (CharacterTable, dim_hook, f2_shifted, f_eta,
                                  transposition_class)
from gwhurwitz.hurwitz import (BranchData, _carvings, _GroupContext, branching_sums,
                               hurwitz_classsum, hurwitz_connected, hurwitz_disconnected,
                               monodromy_oracle)
from gwhurwitz.partitions import (ClassSum, aut_size, check_partition, enumerate_partitions,
                                  z_factor)


def profile_multisets(d, max_n):
    parts = enumerate_partitions(d)
    out = [()]
    for n in range(1, max_n + 1):
        out += [tuple(sorted(c)) for c in
                itertools.combinations_with_replacement(parts, n)]
    return out


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
        # a d! x d! table at d = 8 would exhaust memory: refuse before building
        import gwhurwitz.hurwitz as hurwitz_module

        def no_context(d):
            raise AssertionError(f"group context built for degree {d}")

        monkeypatch.setattr(hurwitz_module, "_GroupContext", no_context)
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
    def test_product_table_matches_direct_composition(self, d):
        ctx = _GroupContext(d)
        # reference: compose the tuples and look the product up, one entry at a time
        reference = [[ctx.index[tuple(p[q[x]] for x in range(d))] for q in ctx.perms]
                     for p in ctx.perms]
        assert ctx.mult == reference

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_classes_are_the_cycle_types(self, d):
        def cycle_type(p):
            seen, lengths = set(), []
            for x in range(d):
                m = 0
                while x not in seen:
                    seen.add(x)
                    x, m = p[x], m + 1
                if m:
                    lengths.append(m)
            return tuple(sorted(lengths, reverse=True))

        ctx = _GroupContext(d)
        assert sorted(ctx.class_elements) == sorted(enumerate_partitions(d))
        for mu, elements in ctx.class_elements.items():
            assert elements == [i for i, p in enumerate(ctx.perms) if cycle_type(p) == mu]

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
    got = branching_sums(h, d, factors)
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


def _union_find_join(ctx, i, j):
    parent = list(range(ctx.d))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for part in (ctx.partitions[i], ctx.partitions[j]):
        for block in part:
            for other in block[1:]:
                parent[find(other)] = find(block[0])
    blocks = {}
    for x in range(ctx.d):
        blocks.setdefault(find(x), []).append(x)
    return ctx.part_index[tuple(sorted(tuple(b) for b in blocks.values()))]


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_commutator_distribution_matches_the_double_loop(d):
    ctx = _GroupContext(d)
    want = {}
    for a in range(len(ctx.perms)):
        for b in range(len(ctx.perms)):
            c = ctx.mult[ctx.mult[ctx.mult[a][b]][ctx.inv[a]]][ctx.inv[b]]
            key = (c, _union_find_join(ctx, ctx.orbit_of[a], ctx.orbit_of[b]))
            want[key] = want.get(key, 0) + 1
    assert dict(ctx.commutator_distribution(joined=True)) == want
    unjoined = {}
    for (c, _join), count in want.items():
        unjoined[c, ctx.discrete] = unjoined.get((c, ctx.discrete), 0) + count
    assert dict(ctx.commutator_distribution(joined=False)) == unjoined


def test_carvings_match_brute_force_over_index_subsets():
    for d in range(9):
        for eta in enumerate_partitions(d):
            for d1 in range(d + 1):
                got = _carvings(eta, d1)
                want = set()
                for r in range(len(eta) + 1):
                    for idx in itertools.combinations(range(len(eta)), r):
                        if sum(eta[i] for i in idx) == d1:
                            want.add((tuple(eta[i] for i in idx),
                                      tuple(p for i, p in enumerate(eta) if i not in idx)))
                assert len(got) == len(set(got)), (eta, d1)
                assert set(got) == want, (eta, d1)
                for carved, rest in got:
                    assert check_partition(carved) == carved
                    assert check_partition(rest) == rest
                    assert tuple(sorted(carved + rest, reverse=True)) == eta
                # a memoized answer is shared between callers: it must be immutable
                assert isinstance(got, tuple), (eta, d1)


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
