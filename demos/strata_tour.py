#!/usr/bin/env python3
"""From a lattice configuration to its stratified special fiber.

Takes the standard alcove for d = 3, builds the quiver with its diagonal
transition maps, enumerates the admissible strata with rank vectors and
dimensions, and checks them against the brute-force quiver Grassmannian
over F_2.
"""

from linkedgrass import admissible as adm
from linkedgrass import quiver as qv
from linkedgrass.lattice import configuration

config = configuration([(0, 0, 0), (1, 0, 0), (1, 1, 0)])
quiver = qv.Quiver(config)
print("vertices:", quiver.vertices)
print("arrows (a cycle):")
for u, v in quiver.arrows:
    t = quiver.trans[(u, v)]
    print(f"  {u} -> {v}   shift {t.n}, support {sorted(t.support)}")

r = 1
table = adm.strata(quiver, r)
print(f"\nadmissible strata for r={r}: {len(table)}")
for s in table:
    dim = adm.stratum_dimension(s.collection.faces[0])
    offdiag = {f"{u}->{v}": x for (u, v), x in s.rank.entries if u != v and x}
    print(f"  dim {dim}  vectors {s.collection.faces[0].vectors}  nonzero ranks {offdiag}")

tops = adm.top_strata([s.collection for s in table])
print(f"\ntop strata (irreducible components): {len(tops)}, each of dimension "
      f"{adm.stratum_dimension(tops[0].faces[0])}")

p = 2
points = list(qv.enumerate_subreps(quiver, r, p))
classes = {}
for M in points:
    classes.setdefault(qv.rank_vector(M, quiver), []).append(M)
print(f"\nbrute force over F_{p}: {len(points)} points in {len(classes)} rank classes")
label_set = {s.rank for s in table}
print("rank classes match the stratum labels:", set(classes) == label_set)

sample = next(M for M in points if len(qv.decompose(M, quiver)) > 1)
print("\na sample point decomposes into summands:")
for s in qv.decompose(sample, quiver):
    t = s.type_in(quiver, p)
    print(f"  generator {s.vector} at {s.root}, support {sorted(t.support)}")
