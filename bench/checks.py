"""Independent answer checks for the benchmark.

Nothing here imports gwhurwitz: every expected value is recomputed from
closed formulas with this module's own partitions, hook lengths, contents,
Murnaghan-Nakayama characters and Bernoulli numbers.  Sources:

* completed cycles act on the irreducible lambda by p_{k+1}(lambda)/(k+1)!,
  p_m(lambda) = sum_i [(lambda_i-i+1/2)^m - (-i+1/2)^m] + (1-2^-m) zeta(-m)
  (Okounkov-Pandharipande, GW theory, Hurwitz theory, and completed cycles,
  Ann. Math. 163, 2006);
* genus-0 connected covers with one profile mu and simple branching:
  Hurwitz's formula m! d^(l-3) prod mu_i^mu_i/mu_i! / |Aut mu|;
* disconnected counts: the Frobenius character sum
  sum_lambda (dim lambda/d!)^(2-2h) prod_eta f_eta(lambda).

Each check takes the raw bytes a command printed and returns True or False.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from functools import lru_cache


# ---------------------------------------------------------------- partitions


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple:
    """Partitions of n, each a weakly decreasing tuple."""
    def parts(rest, cap):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, cap), 0, -1):
            for tail in parts(rest - first, first):
                yield (first,) + tail
    return tuple(parts(n, n))


def pentagonal_count(n: int) -> int:
    """p(n) from Euler's pentagonal-number recurrence."""
    p = [1] + [0] * n
    for m in range(1, n + 1):
        j = 1
        while j * (3 * j - 1) // 2 <= m:
            sign = 1 if j % 2 else -1
            p[m] += sign * p[m - j * (3 * j - 1) // 2]
            if j * (3 * j + 1) // 2 <= m:
                p[m] += sign * p[m - j * (3 * j + 1) // 2]
            j += 1
    return p[n]


def centralizer(mu) -> int:
    out = 1
    for part in set(mu):
        mult = mu.count(part)
        out *= part ** mult * math.factorial(mult)
    return out


def conjugate(lam) -> tuple:
    return tuple(sum(1 for p in lam if p > j) for j in range(lam[0])) if lam else ()


def hook_dim(lam) -> int:
    conj = conjugate(lam)
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= (row - j) + (conj[j] - i) - 1
    return math.factorial(sum(lam)) // hooks


def content_sum(lam) -> int:
    return sum(j - i for i, row in enumerate(lam) for j in range(row))


def parse_partition(text: str) -> tuple:
    body = text.strip()[1:-1].strip()
    return tuple(int(p) for p in body.split(",")) if body else ()


def fmt_partition(mu) -> str:
    return "(" + ",".join(str(p) for p in mu) + ")"


# --------------------------------------------------- Murnaghan-Nakayama rule


@lru_cache(maxsize=None)
def character(lam: tuple, mu: tuple) -> int:
    """chi^lam at the class mu: strip rim hooks of length mu[-1] cell by cell.

    The rim hook attached to cell (i, j) has length equal to that cell's hook
    length; its height is the leg length conj[j]-i-1, and removing it shifts
    rows i..i+leg-1 up by one (each losing a cell) and cuts row i+leg to j.
    """
    if not mu:
        return 1 if not lam else 0
    r, rest = mu[-1], mu[:-1]
    conj = conjugate(lam)
    total = 0
    for i, row in enumerate(lam):
        for j in range(row):
            leg = conj[j] - i - 1
            if (row - j) + leg != r:
                continue
            new = list(lam)
            for k in range(i, i + leg):
                new[k] = lam[k + 1] - 1
            new[i + leg] = j
            total += (-1) ** leg * character(tuple(p for p in new if p), rest)
    return total


def class_eigenvalue(mu, lam) -> Fraction:
    """Scalar by which the class sum of cycle type mu acts on lam."""
    d = sum(lam)
    return Fraction(math.factorial(d) * character(lam, mu),
                    centralizer(mu) * hook_dim(lam))


# ------------------------------------------------------- completed cycles


@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    """B_n with B_1 = -1/2."""
    if n == 0:
        return Fraction(1)
    return -sum(math.comb(n + 1, j) * bernoulli(j) for j in range(n)) / (n + 1)


def zeta_negative(m: int) -> Fraction:
    """zeta(-m) for m >= 0."""
    return Fraction(-1, 2) if m == 0 else -bernoulli(m + 1) / (m + 1)


def shifted_power_sum(m: int, lam) -> Fraction:
    half = Fraction(1, 2)
    total = sum((p - i + half) ** m - (-i + half) ** m
                for i, p in enumerate(lam, start=1))
    return total + (1 - Fraction(1, 2 ** m)) * zeta_negative(m)


def completed_eigenvalue(k: int, lam) -> Fraction:
    return shifted_power_sum(k + 1, lam) / math.factorial(k + 1)


def completed_cycle(k: int, d: int) -> dict:
    """Class-sum coefficients recovered from the eigenvalues by orthogonality:
    c_nu = (1/d!) sum_lambda e(lambda) dim(lambda) chi^lambda(nu)."""
    out = {}
    for nu in partitions_of(d):
        c = sum(completed_eigenvalue(k, lam) * hook_dim(lam) * character(lam, nu)
                for lam in partitions_of(d)) / math.factorial(d)
        if c:
            out[nu] = c
    return out


def class_sum_matches(d: int, k: int, value: dict) -> bool:
    """A class sum {"(..)": "p/q"} acts on every irreducible as the k-th
    completed cycle does."""
    terms = {parse_partition(key): Fraction(c) for key, c in value.items()}
    if any(sum(mu) != d for mu in terms):
        return False
    return all(sum(c * class_eigenvalue(mu, lam) for mu, c in terms.items())
               == completed_eigenvalue(k, lam) for lam in partitions_of(d))


# ------------------------------------------------------------ cover counts


def hurwitz_genus0(mu) -> Fraction:
    d, ell = sum(mu), len(mu)
    m = ell + d - 2
    value = Fraction(math.factorial(m)) * Fraction(d) ** (ell - 3)
    for part in mu:
        value *= Fraction(part ** part, math.factorial(part))
    aut = math.prod(math.factorial(mu.count(p)) for p in set(mu))
    return value / aut


def frobenius_sum(h: int, d: int, eigen) -> Fraction:
    """sum_lambda (dim/d!)^(2-2h) * eigen(lambda)."""
    dfact = math.factorial(d)
    return sum(Fraction(hook_dim(lam), dfact) ** (2 - 2 * h) * eigen(lam)
               for lam in partitions_of(d))


def simple_branching_count(h: int, d: int, m: int) -> Fraction:
    return frobenius_sum(h, d, lambda lam: Fraction(content_sum(lam)) ** m)


def profile_count(h: int, d: int, profiles) -> Fraction:
    return frobenius_sum(h, d, lambda lam: math.prod(
        (class_eigenvalue(eta, lam) for eta in profiles), start=Fraction(1)))


def stationary_total(h: int, d: int, ks) -> Fraction:
    return frobenius_sum(h, d, lambda lam: math.prod(
        (completed_eigenvalue(k, lam) for k in ks), start=Fraction(1)))


def double_hurwitz_coefficient(mu, eta, b: int) -> Fraction:
    """u^b coefficient of the exponentiated double Hurwitz series:
    sum_lambda chi(mu) chi(eta) (-f2)^b / (b! z_mu z_eta), f2 = content sum."""
    total = sum(character(lam, mu) * character(lam, eta) * (-content_sum(lam)) ** b
                for lam in partitions_of(sum(mu)))
    return Fraction(total, math.factorial(b) * centralizer(mu) * centralizer(eta))


def wallcrossing_points(d: int, k: int) -> list:
    """The (g, eta) whose one-marking I-coefficient enters degree d, index k."""
    points = []
    for eta in partitions_of(d):
        ell = len(eta)
        for g in range(-ell, (k + 2 - d - ell) // 2 + 1):
            points.append((g, eta))
    return points


def wallcrossing_assembles(d: int, k: int, values: dict) -> bool:
    """sum over (g, eta) of z_mu [u^b] DH(mu, eta) I(g, eta, k) equals the
    completed-cycle coefficient of mu, for every mu."""
    expected = completed_cycle(k, d)
    for mu in partitions_of(d):
        got = Fraction(0)
        for (g, eta), value in values.items():
            b = k + 2 - 2 * g - d - len(eta)
            got += double_hurwitz_coefficient(mu, eta, b) * value
        if got * centralizer(mu) != expected.get(mu, 0):
            return False
    return True


# ------------------------------------------------------- character tables


def table_is_sound(d: int, result: dict) -> bool:
    """Partition list, dimensions and both orthogonality relations.

    Orthogonality is tested exactly on two random integer vectors per
    relation (M^T M x = Z x and M D M^T y = d! y, D = diag(d!/z)); a table
    that fails either relation passes a test with probability below 2^-30.
    """
    parts = [parse_partition(p) for p in result["partitions"]]
    n = pentagonal_count(d)
    if len(parts) != n or len(set(parts)) != n or any(
            sum(p) != d or list(p) != sorted(p, reverse=True) or 0 in p for p in parts):
        return False
    matrix = result["matrix"]
    if len(matrix) != n or any(len(row) != n or any(type(v) is not int for v in row)
                               for row in matrix):
        return False
    one = parts.index((1,) * d)
    dims = [row[one] for row in matrix]
    if dims != [hook_dim(lam) for lam in parts] or sum(x * x for x in dims) != math.factorial(d):
        return False
    z = [centralizer(mu) for mu in parts]
    weight = [math.factorial(d) // zi for zi in z]
    rng = random.Random(d)
    cols = list(zip(*matrix))
    for _ in range(2):
        x = [rng.randrange(1, 1 << 30) for _ in range(n)]
        mx = [sum(a * b for a, b in zip(row, x)) for row in matrix]
        if [sum(a * b for a, b in zip(col, mx)) for col in cols] != [zi * xi for zi, xi in zip(z, x)]:
            return False
        y = [rng.randrange(1, 1 << 30) for _ in range(n)]
        mty = [w * sum(a * b for a, b in zip(col, y)) for w, col in zip(weight, cols)]
        if [sum(a * b for a, b in zip(row, mty)) for row in matrix] != [math.factorial(d) * yi for yi in y]:
            return False
    return True


# ------------------------------------------------------ per-command checks


def _result(out: bytes, command: str) -> dict:
    doc = json.loads(out)
    if doc.get("command") != command:
        raise ValueError(f"expected a {command} document")
    return doc["result"]


def check_cycle(out: bytes, d: int, k: int) -> bool:
    return class_sum_matches(d, k, _result(out, "cycle"))


def check_verify(out: bytes, d_max: int, k_max: int) -> bool:
    doc = json.loads(out)
    grid = [(d, k) for d in range(1, d_max + 1) for k in range(k_max + 1)]
    rows = doc["rows"]
    return (doc["passed"] is True and doc["oracle"]["passed"] is True
            and all(r["status"] == "pass" for r in doc["oracle"]["rows"])
            and [(r["d"], r["k"]) for r in rows] == grid
            and all(r["status"] == "pass" and class_sum_matches(r["d"], r["k"], r["value"])
                    for r in rows))


def elsv_cover_count(mu, g: int) -> Fraction:
    """Connected covers with profile mu and 2g-2+l(mu)+|mu| simple points.

    Genus 0 uses Hurwitz's formula; a one-part profile forces a transitive
    monodromy group, so there the connected count is the character sum."""
    d = sum(mu)
    if g == 0:
        return hurwitz_genus0(mu)
    if len(mu) != 1:
        raise ValueError("no closed form for a multi-part profile in genus > 0")
    m = 2 * g - 2 + 1 + d
    return frobenius_sum(0, d, lambda lam: class_eigenvalue(mu, lam)
                         * Fraction(content_sum(lam)) ** m)


def check_elsv(out: bytes, mu, g: int) -> bool:
    res = _result(out, "elsv")
    return (res["stable"] is True and res["equal"] is True
            and Fraction(res["lhs"]) == elsv_cover_count(mu, g)
            and Fraction(res["rhs"]) == elsv_cover_count(mu, g))


def ifun_value(out: bytes, g: int, eta, k: int) -> Fraction | None:
    """The I-coefficient, or None when the document's bookkeeping is off."""
    res = _result(out, "ifun")
    if res["z_degree"] != k + 2 - 2 * g - sum(eta) - len(eta):
        return None
    return Fraction(res["value"])


def check_hur(out: bytes, expected: Fraction) -> bool:
    return Fraction(_result(out, "hur")["value"]) == expected


def check_gw(out: bytes, h: int, d: int, ks) -> bool:
    res = _result(out, "gw")
    total = Fraction(res["total"])
    return (total == stationary_total(h, d, ks)
            and sum(Fraction(v) for v in res["by_genus"].values()) == total)


def check_char(out: bytes, d: int) -> bool:
    return table_is_sound(d, _result(out, "char"))
