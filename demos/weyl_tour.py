#!/usr/bin/env python3
"""A walk through the extended affine Weyl group machinery.

Builds elements of S_d x Z^d, acts on apartment coordinates, measures word
lengths against the block-translation formula, and prints the union of two
Bruhat downsets as a DOT digraph.
"""

from linkedgrass import weyl


def bruhat_poset_dot(elements):
    """DOT digraph of the covering relations among the given elements."""
    nodes = sorted(set(elements), key=lambda g: (weyl.length(g), g.sigma, g.trans))
    return weyl.hasse_dot("bruhat", nodes, [f"{g.sigma}|{g.trans}" for g in nodes], weyl.bruhat_leq)


d = 3
iota = weyl.iota(d)
print("iota =", iota)
print("iota . (0,0,0) =", weyl.act(iota, (0, 0, 0)))

power = weyl.identity(d)
for _ in range(d):
    power = weyl.compose(power, iota)
print(f"iota^{d} =", power, "(translation by the all-ones vector)")

print("\nword lengths of block translations t_(1^r, 0^(d-r)):")
for dd in range(2, 6):
    row = []
    for r in range(1, dd):
        row.append(weyl.length(weyl.translation(tuple([1] * r + [0] * (dd - r)))))
    print(f"  d={dd}:", row, "   expected:", [r * (dd - r) for r in range(1, dd)])

print("\nparahoric stabilizers of faces of the standard alcove, d=4:")
omega = [tuple([1] * k + [0] * (4 - k)) for k in range(4)]
for face, label in [(omega, "whole alcove"), (omega[:3], "first three vertices"), ([omega[0]], "one vertex")]:
    group = weyl.face_stabilizer(face)
    print(f"  {label}: order {len(group)}")

print("\ncovering relations among W_a elements of length <= 2, d=2:")
s0, s1 = weyl.simple_reflection(2, 0), weyl.simple_reflection(2, 1)
print(bruhat_poset_dot(weyl.bruhat_downset(weyl.compose(s0, s1)) | weyl.bruhat_downset(weyl.compose(s1, s0))))
