"""Character values against representation traces, orthogonality, and the
class-algebra structure constants obtained by brute-force group enumeration."""

import itertools
import math
import random
from fractions import Fraction as F
from functools import lru_cache

import pytest

from gwhurwitz import characters
from gwhurwitz.characters import (MAX_TABLE_DEGREE, CharacterTable, character_columns, chi,
                                  dim_hook, f2_shifted, f_eta, transposition_class)
from gwhurwitz.cli import CACHE_ENV, main
from gwhurwitz.partitions import enumerate_partitions, z_factor


# Independent reference: the border-strip recursion on beta-sets held as
# tuples, with shapes rebuilt as partitions after every strip.
def _ref_beta_set(lam):
    n = len(lam)
    return tuple(lam[i] + n - 1 - i for i in range(n))


def _ref_partition_from_beta(beta):
    beta = sorted(beta, reverse=True)
    n = len(beta)
    parts = [beta[i] - (n - 1 - i) for i in range(n)]
    return tuple(p for p in parts if p > 0)


def _ref_strip_removals(lam, m):
    beta = _ref_beta_set(lam)
    present = set(beta)
    out = []
    for b in beta:
        if b - m >= 0 and (b - m) not in present:
            height = sum(1 for x in beta if b - m < x < b)
            new_beta = [x for x in beta if x != b] + [b - m]
            out.append((_ref_partition_from_beta(new_beta), height))
    return out


@lru_cache(maxsize=None)
def _ref_chi(lam, mu):
    if not mu:
        return 1 if not lam else 0
    return sum((-1) ** height * _ref_chi(smaller, mu[1:])
               for smaller, height in _ref_strip_removals(lam, mu[0]))


def _conjugate(lam):
    return tuple(sum(1 for p in lam if p > j) for j in range(lam[0])) if lam else ()


def _cycle_type(p):
    seen, out = set(), []
    for x in range(len(p)):
        if x in seen:
            continue
        n, y = 0, x
        while y not in seen:
            seen.add(y)
            y = p[y]
            n += 1
        out.append(n)
    return tuple(sorted(out, reverse=True))


class TestSpotValues:
    def test_trivial_representation(self):
        for d in range(1, 7):
            for mu in enumerate_partitions(d):
                assert chi((d,), mu) == 1

    def test_sign_representation(self):
        for d in range(2, 7):
            for mu in enumerate_partitions(d):
                assert chi((1,) * d, mu) == (-1) ** (d - len(mu))

    def test_standard_rep_trace_oracle(self):
        # the 2-dimensional irreducible realized on the sum-zero subspace of
        # R^3 with basis f1 = e0-e1, f2 = e1-e2; a vector (a, b-a, -b) has
        # coordinates (a, b), and permutations permute the e-coordinates
        def expand(v):
            return (v[0], -v[2])

        def matrix_columns(p):
            cols = []
            for src in [(1, -1, 0), (0, 1, -1)]:
                img = [0, 0, 0]
                for i, c in enumerate(src):
                    img[p[i]] += c
                cols.append(expand(img))
            return cols

        for p in itertools.permutations(range(3)):
            cols = matrix_columns(p)
            trace = cols[0][0] + cols[1][1]
            assert trace == chi((2, 1), _cycle_type(p))
        assert chi((2, 1), (3,)) == -1

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            chi((2,), (1, 1, 1))


class TestDimensions:
    def test_examples(self):
        assert dim_hook((4,)) == 1
        assert dim_hook((2, 1)) == 2
        assert dim_hook((2, 2)) == 2

    def test_dim_equals_identity_column(self):
        for d in range(0, 11):
            for lam in enumerate_partitions(d):
                assert dim_hook(lam) == chi(lam, (1,) * d)

    def test_squares_sum_to_group_order(self):
        for d in range(1, 9):
            total = sum(dim_hook(lam) ** 2 for lam in enumerate_partitions(d))
            assert total == math.factorial(d)


class TestOrthogonality:
    @pytest.mark.parametrize("d", range(1, 9))
    def test_columns(self, d):
        table = CharacterTable.build(d)
        for mu in table.partitions:
            for nu in table.partitions:
                total = sum(table.chi(lam, mu) * table.chi(lam, nu)
                            for lam in table.partitions)
                assert total == (z_factor(mu) if mu == nu else 0)

    @pytest.mark.parametrize("d", range(1, 9))
    def test_rows(self, d):
        table = CharacterTable.build(d)
        for lam in table.partitions:
            for lam2 in table.partitions:
                total = sum(F(table.chi(lam, mu) * table.chi(lam2, mu), z_factor(mu))
                            for mu in table.partitions)
                assert total == (1 if lam == lam2 else 0)


class TestCentralCharacters:
    def test_identity_class(self):
        for d in range(1, 8):
            for lam in enumerate_partitions(d):
                assert f_eta((1,) * d, lam) == 1

    def test_degree_two(self):
        assert f_eta((2,), (2,)) == 1
        assert f_eta((2,), (1, 1)) == -1

    def test_f2_examples(self):
        assert f2_shifted(()) == 0
        assert f2_shifted((2,)) == 1
        assert f2_shifted((1, 1)) == -1

    @pytest.mark.parametrize("d", range(2, 9))
    def test_f2_equals_transposition_central_character(self, d):
        eta = transposition_class(d)
        for lam in enumerate_partitions(d):
            assert f2_shifted(lam) == f_eta(eta, lam)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_class_algebra_structure_constants(self, d):
        # c_{ijk} = #{(x,y) in C_i x C_j : xy = fixed z in C_k}; the scalars
        # by which class sums act must satisfy f_i f_j = sum_k c_{ijk} f_k
        perms = list(itertools.permutations(range(d)))
        classes = {}
        for p in perms:
            classes.setdefault(_cycle_type(p), []).append(p)
        reps = {elems[0]: ct for ct, elems in classes.items()}
        for ci, ei in classes.items():
            for cj, ej in classes.items():
                counts = {ct: 0 for ct in classes}
                for x in ei:
                    for y in ej:
                        xy = tuple(x[y[t]] for t in range(d))
                        if xy in reps:
                            counts[reps[xy]] += 1
                for lam in enumerate_partitions(d):
                    lhs = f_eta(ci, lam) * f_eta(cj, lam)
                    rhs = sum(F(counts[ck]) * f_eta(ck, lam) for ck in classes)
                    assert lhs == rhs


class TestTableCache:
    def test_build_is_consistent(self):
        t = CharacterTable.build(6)
        assert t.matrix == [[chi(l, m) for m in t.partitions] for l in t.partitions]


class TestColumns:
    @pytest.mark.parametrize("d", range(0, 13))
    def test_columns_are_the_table_columns(self, d):
        table = CharacterTable.build(d)
        rng = random.Random(d)
        for n in (0, 1, 3, len(table.partitions)):
            classes = rng.sample(table.partitions, min(n, len(table.partitions)))
            rows = character_columns(d, classes)
            assert rows == [[table.chi(lam, mu) for mu in classes]
                            for lam in table.partitions], classes

    def test_rows_of_conjugates_are_read_once(self, monkeypatch):
        # one row of each conjugate pair goes through the recursion
        calls = []
        kernel = characters._mn

        def counting(mask, mu, memo):
            calls.append(mu)
            return kernel(mask, mu, memo)

        monkeypatch.setattr(characters, "_mn", counting)
        parts = enumerate_partitions(8)
        character_columns(8, [(4, 4)])
        # the recursion's own calls strip a part first
        assert calls.count((4, 4)) == len({min(lam, _conjugate(lam)) for lam in parts})

    def test_classes_must_be_partitions_of_the_degree(self):
        with pytest.raises(ValueError, match="not a partition of 4"):
            character_columns(4, [(2, 1)])
        with pytest.raises(ValueError, match="not a canonical partition"):
            character_columns(4, [(1, 3)])


class TestMaskKernel:
    @pytest.mark.parametrize("d", range(0, 13))
    def test_table_equals_reference_recursion(self, d):
        table = CharacterTable.build(d)
        assert table.partitions == enumerate_partitions(d)
        assert table.matrix == [[_ref_chi(lam, mu) for mu in table.partitions]
                                for lam in table.partitions]

    def test_conjugate_filled_rows_equal_direct_rows(self):
        d = 14
        table = CharacterTable.build(d)
        seen, filled = set(), 0
        for lam in table.partitions:
            if _conjugate(lam) in seen:
                # this row was filled by sign from its conjugate's row
                direct = [characters._mn(characters._mask(lam), mu, {})
                          for mu in table.partitions]
                assert table.matrix[table.partitions.index(lam)] == direct
                filled += 1
            seen.add(lam)
        assert filled == (len(table.partitions) - sum(_conjugate(l) == l
                                                       for l in table.partitions)) // 2

    def test_degree_18_invariants(self):
        d = 18
        table = CharacterTable.build(d)
        parts = table.partitions
        assert sum(table.dim(lam) ** 2 for lam in parts) == math.factorial(d)
        identity = (1,) * d
        assert all(table.chi(lam, identity) == dim_hook(lam) for lam in parts)
        assert all(table.chi(identity, mu) == (-1) ** (d - len(mu)) for mu in parts)
        assert all(table.chi((d,), mu) == 1 for mu in parts)

    def test_public_chi_matches_table(self):
        d = 16
        table = CharacterTable.build(d)
        rng = random.Random(16)
        for _ in range(200):
            lam, mu = rng.choice(table.partitions), rng.choice(table.partitions)
            assert chi(lam, mu) == table.chi(lam, mu)

    def test_ceiling_raises_before_enumerating(self, monkeypatch):
        def no_enumeration(d):
            raise AssertionError(f"partitions of {d} enumerated")

        monkeypatch.setattr(characters, "enumerate_partitions", no_enumeration)
        with pytest.raises(ValueError, match=f"MAX_TABLE_DEGREE = {MAX_TABLE_DEGREE}"):
            CharacterTable.build(MAX_TABLE_DEGREE + 1)
        with pytest.raises(ValueError, match=f"MAX_TABLE_DEGREE = {MAX_TABLE_DEGREE}"):
            character_columns(MAX_TABLE_DEGREE + 1, [(MAX_TABLE_DEGREE + 1,)])

    def test_single_values_are_not_capped(self):
        # the standard representation's trace is the number of fixed points less one
        d = MAX_TABLE_DEGREE + 1
        assert chi((d - 1, 1), transposition_class(d)) == d - 3
        assert chi((d - 1, 1), (1,) * d) == dim_hook((d - 1, 1)) == d - 1

    @pytest.mark.parametrize("argv", [
        ["char", "--d", "25"],
        ["hur", "--target-genus", "0", "--d", "25"],
        ["gw", "--target-genus", "1", "--d", "25", "--ks", "1"],
    ])
    def test_cli_exits_2_above_the_ceiling(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(CACHE_ENV, str(tmp_path / "cache"))
        assert main(argv) == 2
        assert "MAX_TABLE_DEGREE = 24" in capsys.readouterr().err

    def test_verify_refuses_above_the_ceiling_before_any_work(self, monkeypatch, capsys):
        # the route would build every table below the ceiling before reaching it
        import gwhurwitz.gwh as gwh_module

        def no_work(d_max, k_max):
            raise AssertionError("crosscheck started")

        monkeypatch.setattr(gwh_module, "gwh_crosscheck", no_work)
        assert main(["verify", "--d-max", str(MAX_TABLE_DEGREE + 1)]) == 2
        assert "MAX_TABLE_DEGREE = 24" in capsys.readouterr().err

    def test_cycle_refuses_above_the_ceiling_before_enumerating(self, monkeypatch, capsys):
        # p(60) is nearly a million classes: the closed formula ran for minutes
        import gwhurwitz.gwh as gwh_module

        def no_enumeration(d):
            raise AssertionError(f"partitions of {d} enumerated")

        monkeypatch.setattr(gwh_module, "enumerate_partitions", no_enumeration)
        assert main(["cycle", "--d", "60", "--k", "2"]) == 2
        assert "MAX_TABLE_DEGREE = 24" in capsys.readouterr().err
