"""The three workloads: seeded command lists and the check bound to each.

A workload is a list of operations (one gwhurwitz subcommand each) that a
run repeats as whole rounds, plus the set-up that precedes the first timed
round.  The seed draws the inputs, confined to choices of equal cost:
profiles with the same number of transpositions, descendent indices with the
same number of completed-cycle terms, the order of commands, and oracle
profiles, whose cost the group-context build dominates.  So time per round
is comparable across seeds.  Every distribution is listed in bench/README.md.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

import checks as C


@dataclass
class Op:
    kind: str
    argv: list
    check: Callable[[bytes], bool]
    cache_is_file: bool = False  # run with GWHURWITZ_CACHE_DIR naming a regular file


@dataclass
class Plan:
    ops: list                                   # one round, in order
    groups: list = field(default_factory=list)  # (op indices, check over their outputs)
    setup_reps: int = 5
    fill_degrees: list = field(default_factory=list)  # cold `char` degrees in set-up
    reference: dict = field(default_factory=dict)     # degree -> cold `char` bytes


def _profiles(parts) -> str:
    return ";".join(C.fmt_partition(p) for p in parts)


def _simple(d: int) -> tuple:
    return (2,) + (1,) * (d - 2)


def wallcrossing(rng: random.Random) -> Plan:
    ops = [Op("verify", ["verify", "--d-max", "4", "--k-max", "6"],
              lambda out: C.check_verify(out, 4, 6))]
    small = []
    for _ in range(4):
        d, k = rng.randint(4, 8), rng.randint(0, 8)
        small.append(Op("cycle", ["cycle", "--d", str(d), "--k", str(k)],
                        lambda out, d=d, k=k: C.check_cycle(out, d, k)))
    # Stable ELSV points whose cover side has an independent closed form:
    # any profile in genus 0, one-part profiles in higher genus.
    stable = [(mu, 0) for n in (2, 3, 4) for mu in C.partitions_of(n)]
    stable += [((n,), g) for n in (2, 3, 4) for g in (1, 2)]
    for mu, g in rng.sample(stable, 3):
        small.append(Op("elsv", ["elsv", "--mu", C.fmt_partition(mu), "--g", str(g)],
                        lambda out, mu=mu, g=g: C.check_elsv(out, mu, g)))
    rng.shuffle(small)
    ops += small
    # Two (degree, index) pairs whose I-coefficients are all fetched with
    # `ifun` and reassembled into completed cycles; both choices need 18 points.
    groups = []
    for d, k in rng.choice([((2, 4), (3, 5)), ((2, 5), (3, 4))]):
        points = C.wallcrossing_points(d, k)
        rng.shuffle(points)
        first = len(ops)
        for g, eta in points:
            ops.append(Op("ifun", ["ifun", "--g", str(g), "--eta", C.fmt_partition(eta),
                                   "--k", str(k)],
                          lambda out, g=g, eta=eta, k=k: C.ifun_value(out, g, eta, k) is not None))

        def assembles(outs, d=d, k=k, points=points):
            values = {p: C.ifun_value(out, p[0], p[1], k) for p, out in zip(points, outs)}
            return C.wallcrossing_assembles(d, k, values)
        groups.append((list(range(first, len(ops))), assembles))
    return Plan(ops, groups)


def covers(rng: random.Random) -> Plan:
    ops = []
    # Connected genus 0, one profile mu plus l(mu)+d-2 simple points: with
    # l(mu) >= d-1 this is 2d-2 transpositions in all, the splitting
    # recursion's heaviest shape at each degree.
    for d in (8, 7):
        mu = rng.choice([(1,) * d, (2,) + (1,) * (d - 2)])
        parts = [mu] + [_simple(d)] * (len(mu) + d - 2)
        rng.shuffle(parts)
        expected = C.hurwitz_genus0(mu)
        ops.append(Op("hur.connected", ["hur", "--target-genus", "0", "--d", str(d),
                                        "--connected", "--profiles", _profiles(parts)],
                      lambda out, e=expected: C.check_hur(out, e)))
    # Disconnected, simple branching only, degree 16: one full table build.
    h, m = rng.randint(0, 2), rng.choice([2, 4, 6, 8, 10, 12])
    ops.append(Op("hur.simple", ["hur", "--target-genus", str(h), "--d", "16",
                                 "--profiles", _profiles([_simple(16)] * m)],
                  lambda out, e=C.simple_branching_count(h, 16, m): C.check_hur(out, e)))
    # Monodromy oracle: degree 6 over the sphere (builds the 720 x 720 group
    # context), and thirteen small degree-5 counts.  The small counts are
    # most of the round's commands, so the median command (cmd_p50_s) is one
    # of them: interpreter start, import and a small answer.
    small = [(0, 5, n) for n in (3, 3, 3, 2, 2, 2, 1, 1, 1)] + [(1, 5, 1)] * 4
    for h, d, n in [(0, 6, 3)] + small:
        parts = [rng.choice(C.partitions_of(d)) for _ in range(n)]
        ops.append(Op("hur.oracle", ["hur", "--target-genus", str(h), "--d", str(d),
                                     "--oracle", "--oracle-bound", "6",
                                     "--profiles", _profiles(parts)],
                      lambda out, e=C.profile_count(h, d, parts): C.check_hur(out, e)))
    # Stationary invariants: k = 4 and k = 5 both give 4 completed-cycle
    # terms at these degrees, so either keeps the class-sum product size.
    for d, ks in ((8, [None, 6, 8]), (9, [None, 6, 7]), (10, [None, None, 8])):
        ks = [k if k is not None else rng.choice([4, 5]) for k in ks]
        rng.shuffle(ks)
        h = rng.randint(0, 2)
        ops.append(Op("gw", ["gw", "--target-genus", str(h), "--d", str(d),
                             "--ks", ",".join(map(str, ks))],
                      lambda out, h=h, d=d, ks=ks: C.check_gw(out, h, d, ks)))
    rng.shuffle(ops)
    return Plan(ops)


FAULT_DEGREE = 8


def chartable(rng: random.Random) -> Plan:
    degrees = [FAULT_DEGREE, 12, 15, 18]
    plan = Plan([], setup_reps=3, fill_degrees=list(degrees))
    reads = list(degrees)
    rng.shuffle(reads)
    for d in reads:
        plan.ops.append(Op("char.warm", ["char", "--d", str(d)],
                           lambda out, d=d: out == plan.reference[d]))
    # Fails for as long as store_table lets os.makedirs raise when the cache
    # path is a regular file, although the cache is meant to be optional.
    # Once mended, it must print the bytes of a normal `char`.
    plan.ops.append(Op("char.cache_is_file", ["char", "--d", str(FAULT_DEGREE)],
                       lambda out: out == plan.reference[FAULT_DEGREE],
                       cache_is_file=True))
    return plan


WORKLOADS = {"wallcrossing": wallcrossing, "covers": covers, "chartable": chartable}


def build(name: str, seed: int) -> Plan:
    return WORKLOADS[name](random.Random(seed))
