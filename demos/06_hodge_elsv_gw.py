"""Hodge series, the ELSV identity, and stationary invariants of curves."""

from gwhurwitz import elsv_check, hodge_H_series, stationary_gw

print("Linear-Hodge generating series at integer arguments:")
for eta in [(1,), (2,), (2, 1)]:
    print(f"  H{eta} =", hodge_H_series(eta, 3))

print("\nThe ELSV identity at desk scale (both sides exact):")
for mu in [(2,), (1, 1), (3,), (2, 1)]:
    for g in (0, 1, 2):
        got = elsv_check(mu, g)
        if got.stable:
            print(f"  mu={mu} g={g}: hodge side {got.lhs} = cover count {got.rhs}"
                  f" -> {got.equal}")
        else:
            print(f"  mu={mu} g={g}: degenerate (m={got.m}), reported unstable")

# ten unramified sheets: the connected Hodge series is extracted by a
# recursion over sub-multisets of the parts, not over their 115975 set partitions
got = elsv_check((1,) * 10, 1)
print(f"  mu=(1^10) g=1: hodge side {got.lhs} = cover count {got.rhs} -> {got.equal}")

print("\nStationary invariants via completed cycles:")
for h, d, ks in [(1, 2, [1, 1]), (0, 2, [1, 1]), (1, 1, []), (1, 3, [1, 1])]:
    got = stationary_gw(h, d, ks)
    genera = {g: str(v) for g, v in got.by_genus.items()}
    print(f"  target genus {h}, degree {d}, insertions {ks}: "
          f"total {got.total}, by source genus {genera}")
