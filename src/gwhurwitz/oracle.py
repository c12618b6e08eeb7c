"""The monodromy oracle: Hurwitz numbers by brute-force enumeration.

The oracle counts permutation tuples directly (product of h commutators
times one permutation per branch profile equals the identity), so every
normalization in the package can be pinned against honest enumeration.
Simultaneous conjugation keeps every condition on a tuple, so the oracle
fixes one entry to a class representative weighted by the class size, and
multiplies permutations as tuples in a sweep over (partial product, orbit
labels) pairs; it builds no product table.  Transitivity is tracked through
the join of the generators' orbit partitions, each a tuple of every point's
least orbit-mate, and a count that does not ask for transitivity keeps
every partition discrete.  No memo outlives a call: the orbit joins are
kept for one count.

It is the independent check of the character sums of `hurwitz`, and shares
no code with them but `BranchData`: it imports neither `hurwitz` nor
`characters`, so `hur --oracle` compiles no character sum.  Its degree
limits `DEFAULT_ORACLE_BOUND` and `ORACLE_CEILING` are bound from the
package, where the command-line parser reads them without loading this
module; its genus limit `MAX_ORACLE_GENUS` is its own.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import itemgetter

from . import DEFAULT_ORACLE_BOUND, ORACLE_CEILING
from .branch import BranchData


# Each genus above 1 adds one sweep of the state by the later pairs'
# distribution, so the time grows linearly in h.  In-process (2-core Xeon,
# CPython 3.11), two simple points: d = 5 at h = 100 0.36 s plain and 3.2 s
# transitive, d = 6 (past the default degree bound) at h = 10 1.0 s and 17 s.
# As processes, d = 5 at h = 1000 ran 3.7 s and d = 2 at h = 10^6 89 s.
# A genus above MAX_ORACLE_GENUS is refused before any permutation is built.
MAX_ORACLE_GENUS = 100


def _compose(p: tuple):
    """The map x -> x o p on permutation tuples; a one-item `itemgetter` would
    return a scalar, and the only permutation of one point is the identity."""
    return itemgetter(*p) if len(p) > 1 else tuple


def _orbits(p: tuple) -> tuple:
    """The orbit labels of p, each point's least orbit-mate, and its cycle type."""
    labels = [-1] * len(p)
    lengths = []
    for x in range(len(p)):
        y, n = x, 0
        while labels[y] < 0:
            labels[y] = x
            y, n = p[y], n + 1
        if n:
            lengths.append(n)
    return tuple(labels), tuple(sorted(lengths, reverse=True))


def _join(a: tuple, b: tuple) -> tuple:
    """The orbit labels of the partition generated by two label tuples: a
    union-find that starts from a's labels and keeps each block's least point
    as its root."""
    root = list(a)

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for x, y in enumerate(b):
        rx, ry = find(x), find(y)
        if rx != ry:
            root[max(rx, ry)] = min(rx, ry)
    return tuple(map(find, range(len(a))))


def monodromy_oracle(branch: BranchData, transitive_only: bool = False,
                     degree_bound: int = DEFAULT_ORACLE_BOUND) -> Fraction:
    """Count monodromy tuples by direct enumeration, divided by d!.

    Tuples are (a_1, b_1, .., a_h, b_h, s_1, .., s_n) with the product of
    commutators times the s_j equal to the identity and each s_j in the
    conjugacy class of the j-th profile; with `transitive_only` the group
    generated by all entries must act transitively.

    Simultaneous conjugation keeps the product, every class and
    transitivity, so one entry runs over class representatives only, each
    weighted by its class size: at genus 0 the largest profile's entry is
    fixed, and at genus >= 1 a_1 is, while b_1 runs over S_d.  Later pairs
    sweep all d!^2 (a, b).  A sweep over (partial product, orbit labels of
    the partial join) states multiplies the other entries in as tuples.  The
    last entry must be the inverse of the partial product, which lies in the
    closing class exactly when the partial product does, and adds no orbit.
    The profiles are swept in ascending class size and the largest left
    closes the sweep; the count does not depend on the order, since Hurwitz
    moves swap neighbouring profiles and keep both the product and the
    generated group.
    """
    d, h = branch.degree, branch.target_genus
    if d >= ORACLE_CEILING:
        raise ValueError(
            f"degree {d} is at or above the oracle's ceiling {ORACLE_CEILING}: a genus >= 2 "
            f"count would sweep all {d}!x{d}! pairs, about "
            f"{math.factorial(d) ** 2:.1e} entries")
    if d > degree_bound:
        raise ValueError(f"degree {d} exceeds the brute-force bound {degree_bound}")
    if h > MAX_ORACLE_GENUS:
        raise ValueError(f"target genus {h} exceeds the oracle's bound MAX_ORACLE_GENUS = "
                         f"{MAX_ORACLE_GENUS}")
    classes = {}  # cycle type -> [(element, its orbit labels)]
    for p in itertools.permutations(range(d)):
        labels, shape = _orbits(p)
        classes.setdefault(shape, []).append((p, labels))
    discrete = identity = tuple(range(d))
    target = (0,) * d if transitive_only else discrete
    joins = {}  # one call's memo

    def orbits(labels):
        # only transitivity reads the joins, so other counts keep them discrete
        return labels if transitive_only else discrete

    def join(a, b):
        if a == b:
            return a
        got = joins.get((a, b))
        if got is None:
            got = joins[a, b] = _join(a, b)
        return got

    def pairs(firsts):
        """Weighted counts of ([a, b], orbits of <a, b>) over the (a, labels,
        weight) of `firsts` and every b."""
        seconds = [(_compose(b), _compose(tuple(map(b.index, identity))), orbits(lb))
                   for members in classes.values() for b, lb in members]
        dist = {}
        for a, la, w in firsts:
            a_inv, la = _compose(tuple(map(a.index, identity))), orbits(la)
            for b, b_inv, lb in seconds:
                key = (b_inv(a_inv(b(a))), join(la, lb))
                dist[key] = dist.get(key, 0) + w
        return dist

    profiles = sorted(branch.profiles, key=lambda eta: len(classes[eta]))
    later = ()
    if h:
        state = pairs([(*members[0], len(members)) for members in classes.values()])
        if h > 1:
            everything = [(b, lb, 1) for members in classes.values() for b, lb in members]
            later = itertools.repeat([(_compose(g), labels, w)
                                      for (g, labels), w in pairs(everything).items()], h - 1)
    elif profiles:
        members = classes[profiles.pop()]
        rep, labels = members[0]
        state = {(rep, orbits(labels)): len(members)}
    else:
        state = {(identity, discrete): 1}
    # an empty tuple is closed by the identity
    closing = {p for p, _labels in classes[profiles.pop() if profiles else (1,) * d]}
    steps = [[(_compose(p), orbits(labels), 1) for p, labels in classes[eta]]
             for eta in profiles]
    for step in itertools.chain(later, steps):
        new = {}
        for (g, labels), c in state.items():
            for compose, labels2, w in step:
                key = (compose(g), join(labels, labels2))
                new[key] = new.get(key, 0) + c * w
        state = new
    count = sum(c for (g, labels), c in state.items() if labels == target and g in closing)
    return Fraction(count, math.factorial(d))
