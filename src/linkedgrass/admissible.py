"""Admissible faces, collections, Bruhat strata and the generalized order.

An admissible face of a maximal simplex perturbs each representative vector
by a 0/1 vector with r ones, staying a face of the same type; it is indexed
by a coset h * W_simplex in the extended affine Weyl group.  Faces are built
vertex by vertex, each increment tested against the masks of the bits that
the previous and first vectors force to 1 and to 0.  Every double coset is
keyed in standard position: the simplex or shared face is conjugated by g
onto a face of the standard alcove, whose stabilizer W is standard
parahoric (a frame solved once per simplex), and the key is the minimum of
W g^-1 h g W.  A face has one key, over its own simplex (`_standard_key`):
faces with equal keys form one class, the generalized Bruhat order compares
keys, and a one-simplex stratum's dimension is Kilmoyer's length in the
key's double coset (`weyl.minmax_length`).  Shifting by iota^-r, into
W (g^-1 h g iota^-r) iota^r W iota^-r, would change neither: iota has
length 0 and permutes the simple reflections.  Every one-simplex stratum
is realizable (`Stratum.realizable`, by the local-model theorem).
Collections glue classes across simplices by their keys over the shared
faces and carry rank vectors (the table `strata` that every report reads);
`top_strata` sweeps them by decreasing total key length.  The maxima of a whole table
(`maximal_strata`) need no sweep on one simplex: they are the classes of
the translation faces, the double cosets W t_lambda W (Kottwitz-Rapoport
2000; Haines-Ngo 2002); a glued table is swept.  The dimension-one
stratification is the face complex of the configuration.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

from . import gf, weyl
from .lattice import InvariantError, Vertex, canonicalize, chain_order, classes_adjacent
from .quiver import (
    Quiver,
    RankVector,
    SubRep,
    enumerate_subreps,
    generated,
    rank_vector,
    support_of_generated,
    types_from_rank,
)

Vec = tuple[int, ...]


class FieldTooSmall(Exception):
    """No witness vector exists over the requested prime field."""


# ---------------------------------------------------------------------------
# Admissible faces of a single simplex


@dataclass(frozen=True)
class AdmissibleFace:
    simplex: tuple[Vertex, ...]  # chain-ordered canonical representatives
    vectors: tuple[Vec, ...]  # perturbed integer vectors, one per simplex vertex
    coset: weyl.WeylElement  # h with h . rep = vectors, well-defined mod W_simplex

    @functools.cached_property
    def increment_masks(self) -> tuple[int, ...]:
        """Each increment, a 0/1 vector, as the bitmask of its ones."""
        return tuple(
            sum(1 << k for k, (x, r) in enumerate(zip(vec, rep)) if x != r)
            for vec, rep in zip(self.vectors, self.simplex)
        )


def _solve_face_map(
    source: Sequence[Vec], target: Sequence[Vec], d: int
) -> Optional[weyl.WeylElement]:
    """The extended Weyl element with lexicographically least sigma sending
    the source vectors to the target, or None.

    g . s_j = t_j for every j iff column i of the sources and column sigma(i)
    of the targets differ by a constant, that is have the same profile
    (x_j[c] - x_0[c])_j; sigma(i) is the least unused matching column.
    """
    free: dict[Vec, list[int]] = {}
    for c in reversed(range(d)):
        free.setdefault(tuple(t[c] - target[0][c] for t in target), []).append(c + 1)
    sigma = []
    for profile in _column_profiles(tuple(source)):
        columns = free.get(profile)
        if not columns:
            return None
        sigma.append(columns.pop())
    moved = weyl.perm_apply(sigma, source[0])
    return weyl.WeylElement(tuple(sigma), tuple(t - m for t, m in zip(target[0], moved)))


@functools.cache
def _column_profiles(source: tuple[Vec, ...]) -> tuple[Vec, ...]:
    """The profile (x_j[i] - x_0[i])_j of each column i of the source
    vectors, read once per chain that `_solve_face_map` maps from."""
    return tuple(tuple(s[i] - source[0][i] for s in source) for i in range(len(source[0])))


def admissible_faces(simplex: Sequence[Vertex], r: int) -> list[AdmissibleFace]:
    """All admissible size-r perturbations of a maximal simplex."""
    chain = chain_order(simplex)
    d = len(chain[0])
    if not 0 < r < d:
        raise ValueError(f"need 0 < r < d, got r={r}, d={d}")
    increments = [
        (sum(1 << i for i in ones), tuple(1 if i in ones else 0 for i in range(d)))
        for ones in itertools.combinations(range(d), r)
    ]
    out = []

    def extend(vectors: tuple[Vec, ...]) -> None:
        # depth-first in product order; a <= b <= a + 1 between consecutive
        # vectors and b <= a + 1 from the first to the last give the masks of
        # the increment's bits that must be 1 (ones) and 0 (zeros): chain
        # vertices differ by 0/1 vectors, so a - rep is -1, 0 or 1
        if len(vectors) == len(chain):
            coset = _solve_face_map(chain, vectors, d)
            if coset is None:
                raise InvariantError(f"no Weyl element maps {chain} to {vectors}")
            out.append(AdmissibleFace(chain, vectors, coset))
            return
        rep = chain[len(vectors)]
        last, ones, zeros = len(vectors) == len(chain) - 1, 0, 0
        for c, x in enumerate(rep if vectors else ()):
            step = vectors[-1][c] - x
            ones |= (step == 1) << c
            zeros |= (min(step, vectors[0][c] - x if last else step) == -1) << c
        if ones & zeros:  # a coordinate that admits neither 0 nor 1
            return
        for mask, inc in increments:
            if mask & ones == ones and not mask & zeros:
                extend(vectors + (tuple(x + e for x, e in zip(rep, inc)),))

    extend(())
    return out


def standard_alcove(d: int) -> tuple[Vertex, ...]:
    return tuple(tuple(1 if k < i else 0 for k in range(d)) for i in range(d))


def admissible_set(d: int, r: int) -> frozenset[weyl.WeylElement]:
    """Adm(mu), mu = (1^r, 0^(d-r)): the union of the Bruhat downsets of the
    C(d, r) translations t_lambda, lambda a permutation of mu.  For this
    minuscule mu it equals Perm(mu), the cosets of the admissible faces of
    the standard alcove (Kottwitz-Rapoport 2000; Haines-Ngo 2002)."""
    if not 0 < r < d:
        raise ValueError(f"need 0 < r < d, got r={r}, d={d}")
    return frozenset().union(
        *(
            weyl.bruhat_downset(weyl.translation(tuple(int(k in ones) for k in range(d))))
            for ones in itertools.combinations(range(d), r)
        )
    )


# ---------------------------------------------------------------------------
# Collections over a convex configuration


@dataclass(frozen=True)
class AdmissibleCollection:
    r: int
    faces: tuple[AdmissibleFace, ...]  # representative face per maximal simplex


def enumerate_admissible_collections(quiver: Quiver, r: int) -> list[AdmissibleCollection]:
    """Tuples of per-simplex admissible classes glued over shared faces."""
    simplices = [chain_order(s) for s in quiver.simplices]

    per_simplex: list[list[AdmissibleFace]] = []
    for simplex in simplices:
        classes: dict[weyl.WeylElement, AdmissibleFace] = {}
        for face in admissible_faces(simplex, r):
            key = _standard_key(face)
            if key not in classes or face.vectors < classes[key].vectors:
                classes[key] = face
        per_simplex.append(sorted(classes.values(), key=lambda face: face.vectors))

    # per simplex j2: (j1 < j2, keys of the faces of j1 and j2 over their shared face)
    gluings: list[list[tuple[int, list, list]]] = [[] for _ in simplices]
    for j1, j2 in itertools.combinations(range(len(simplices)), 2):
        shared = set(simplices[j1]) & set(simplices[j2])
        if shared:
            cosets = [f.coset for f in per_simplex[j1] + per_simplex[j2]]
            keys = _double_coset_keys(chain_order(shared), cosets)
            gluings[j2].append((j1, keys[: len(per_simplex[j1])], keys[len(per_simplex[j1]) :]))

    collections: list[AdmissibleCollection] = []

    def glue(chosen: list[int]):
        idx = len(chosen)
        if idx == len(simplices):
            faces = tuple(per_simplex[j][k] for j, k in enumerate(chosen))
            collections.append(AdmissibleCollection(r, faces))
            return
        for k in range(len(per_simplex[idx])):
            if all(left[chosen[j1]] == right[k] for j1, left, right in gluings[idx]):
                glue(chosen + [k])

    glue([])
    return collections


def stratum_rank_vector(collection: AdmissibleCollection, quiver: Quiver) -> RankVector:
    """Rank vector of the stratum: in-simplex ranks counted off the increments
    (the increment's ones inside the map's support), placed and extended to
    all pairs along `Quiver.pair_plan`."""
    plan = quiver.pair_plan
    values: list[Optional[int]] = [None] * len(plan.pairs)
    for j in plan.diagonal:
        values[j] = collection.r
    for face in collection.faces:
        for ones, row in zip(face.increment_masks, plan.simplices[face.simplex]):
            for j, mask in row:
                value = (ones & mask).bit_count()
                if values[j] is None:
                    values[j] = value
                elif values[j] != value:
                    raise InvariantError("inconsistent glued rank at shared pair")
    for j, source in plan.hull:
        values[j] = values[source]
    return RankVector(tuple(zip(plan.pairs, values)))


@functools.cache
def _standard_frame(
    simplex: tuple[Vertex, ...],
) -> tuple[tuple[Vec, ...], weyl.WeylElement, weyl.WeylElement, weyl.ParahoricGroup]:
    """(omega_I, g, g^-1, W) with g . omega_I = simplex, a chain-ordered
    simplex, and W the stabilizer of omega_I: solved once per simplex.

    The chain order steps by nested 0/1 vectors, so the standard face
    omega_I has the types sum(v) - sum(v_0).
    """
    d = len(simplex[0])
    omega_i = tuple(tuple(1 if k < sum(v) - sum(simplex[0]) else 0 for k in range(d)) for v in simplex)
    g = _solve_face_map(omega_i, simplex, d)
    if g is None:
        raise InvariantError(f"no Weyl element maps {omega_i} to {simplex}")
    return omega_i, g, weyl.invert(g), weyl.face_stabilizer(omega_i)


def _double_coset_keys(face: tuple[Vertex, ...], cosets: Sequence[weyl.WeylElement]) -> list:
    """The minimum of g^-1 W_F h W_F g per h, W_F the stabilizer of the chain-ordered
    face and g from `_standard_frame`: equal keys mean equal double cosets."""
    omega_i, g, g_inv, stab = _standard_frame(face)
    if omega_i != face:  # else g is the identity
        cosets = [weyl.compose(weyl.compose(g_inv, h), g) for h in cosets]
    return [weyl.double_coset_min(h, stab, stab) for h in cosets]


@functools.cache
def _standard_key(face: AdmissibleFace) -> weyl.WeylElement:
    """The face's key, `_double_coset_keys` over its own simplex: faces of
    one simplex with equal keys form one class, the generalized Bruhat
    order compares keys, and `stratum_dimension` reads the key's double
    coset."""
    return _double_coset_keys(face.simplex, [face.coset])[0]


def _check_comparable(x: AdmissibleCollection, y: AdmissibleCollection) -> None:
    if x.r != y.r:
        raise InvariantError(f"collections of r = {x.r} and r = {y.r} are not comparable")
    if [f.simplex for f in x.faces] != [f.simplex for f in y.faces]:
        raise InvariantError("collections over different simplices are not comparable")


def generalized_bruhat_leq(x: AdmissibleCollection, y: AdmissibleCollection) -> bool:
    """Componentwise double-coset order over the maximal simplices,
    compared on the faces' keys (`_standard_key`)."""
    _check_comparable(x, y)
    return all(map(weyl.bruhat_leq, map(_standard_key, x.faces), map(_standard_key, y.faces)))


def top_strata(collections: Sequence[AdmissibleCollection]) -> list[AdmissibleCollection]:
    """Maximal collections, among the given ones, under the generalized Bruhat
    order.  A strictly larger collection has a strictly larger total key
    length, and every collection lies below a maximal one, so, by decreasing
    total, each is compared only with the maxima kept of larger total."""
    for c in collections:
        _check_comparable(collections[0], c)
    bruhat = functools.cache(weyl.bruhat_data)  # once per distinct key of this call
    keys = [[bruhat(_standard_key(f)) for f in c.faces] for c in collections]
    total = [sum(data[1] for data in key) for key in keys]
    maxima: list[int] = []
    for i in sorted(range(len(collections)), key=lambda i: -total[i]):
        larger = itertools.takewhile(lambda j: total[j] > total[i], maxima)
        if not any(all(map(weyl.bruhat_leq_data, keys[i], keys[j])) for j in larger):
            maxima.append(i)
    return [collections[i] for i in sorted(maxima)]


def stratum_dimension(face: AdmissibleFace) -> int:
    """Dimension of a one-simplex stratum: the length of the longest minimal
    representative in the double coset of the face's key (`weyl.minmax_length`)."""
    stab = _standard_frame(face.simplex)[3]
    return weyl.minmax_length(_standard_key(face), stab, stab)


def rank_vector_realizable(phi: RankVector, quiver: Quiver) -> bool:
    """Field-free test: phi is the rank vector of some sub-representation.

    Requires each arrow's kernel within its kernel on F_p^d, derives the
    multiplicity of every summand type from phi, requires them nonnegative,
    and checks that the multiset reproduces the dimensions and the full
    rank vector (`quiver.types_from_rank`).  Exact for any phi, a stratum
    label or not, over locally weakly independent configurations, where
    the decomposition theory applies; ValueError elsewhere.
    """
    return types_from_rank(phi, quiver) is not None


@dataclass(frozen=True)
class Stratum:
    """An admissible collection and its rank vector.  `realizable` is read
    lazily and, like `rank_vector_realizable`, raises ValueError off locally
    weakly independent configurations.  On one simplex it is true with no
    search: the special fibre of the local model of GL_d at the simplex's
    parahoric level is the union of the Schubert cells of Adm^K(mu), and
    none is empty (Goertz 2001; Haines-Ngo 2002).  A glued stratum is
    tested by `rank_vector_realizable`, which is exact on any rank vector
    and stays the oracle of the one-simplex answer."""

    collection: AdmissibleCollection
    rank: RankVector
    quiver: Quiver = field(compare=False, repr=False)

    @functools.cached_property
    def realizable(self) -> bool:
        if len(self.collection.faces) == 1:
            self.quiver.require_weakly_independent()
            return True
        return rank_vector_realizable(self.rank, self.quiver)


def strata(quiver: Quiver, r: int) -> list[Stratum]:
    """The stratum table, in `enumerate_admissible_collections` order."""
    return [
        Stratum(c, stratum_rank_vector(c, quiver), quiver)
        for c in enumerate_admissible_collections(quiver, r)
    ]


def maximal_strata(table: Sequence[Stratum]) -> list[Stratum]:
    """The maxima of a whole stratum table (`strata`) under the generalized
    Bruhat order, in table order.  On one simplex they are the classes of
    the C(d, r) translation faces rep_j + lambda, lambda a 0/1 vector with r
    ones: the maxima of W_K\\Adm^K(mu)/W_K are the double cosets
    W_K t_lambda W_K (Kottwitz-Rapoport 2000; Haines-Ngo 2002), so no two
    classes are compared.  A glued table is swept by `top_strata`, which is
    also the oracle of the closed form."""
    if not table or len(table[0].collection.faces) > 1:
        tops = set(top_strata([s.collection for s in table]))
        return [s for s in table if s.collection in tops]
    chain, r = table[0].collection.faces[0].simplex, table[0].collection.r
    d = len(chain[0])
    keys = set()
    for ones in itertools.combinations(range(d), r):
        shift = tuple(int(k in ones) for k in range(d))
        vectors = tuple(tuple(x + e for x, e in zip(rep, shift)) for rep in chain)
        keys.add(_standard_key(AdmissibleFace(chain, vectors, weyl.translation(shift))))
    return [s for s in table if _standard_key(s.collection.faces[0]) in keys]


# ---------------------------------------------------------------------------
# The dimension-one stratification


def complex_faces(quiver: Quiver) -> list[tuple[Vertex, ...]]:
    """All faces of the simplicial complex spanned by the configuration."""
    faces = set()
    for simplex in quiver.simplices:
        for k in range(1, len(simplex) + 1):
            for sub in itertools.combinations(simplex, k):
                faces.add(tuple(sorted(sub)))
    return sorted(faces)


def r1_face_of(M: SubRep, quiver: Quiver) -> tuple[frozenset[Vertex], dict[Vertex, frozenset[Vertex]]]:
    """Maximal vertices of a dimension-one subrep, those in no other
    vertex's generated support, plus their supports: the covering partition."""
    supports = {}
    for v in quiver.vertices:
        if len(M.spaces[v]) != 1:
            raise InvariantError("dimension-one representation expected")
        supports[v] = support_of_generated(quiver, v, M.spaces[v][0], M.p)
    maximal = {u for u in quiver.vertices if not any(u in supports[v] for v in quiver.vertices if v != u)}
    for a in maximal:
        for b in maximal:
            if a != b and not classes_adjacent(a, b):
                raise InvariantError("maximal vertices must form a simplex")
    covering = {u: supports[u] for u in sorted(maximal)}
    return frozenset(maximal), covering


def _j_sets(quiver: Quiver, face: Sequence[Vertex]) -> dict[Vertex, list[Vertex]]:
    """Partition of the vertices by the unique face vertex every map factors through."""
    out: dict[Vertex, list[Vertex]] = {u: [] for u in face}
    for w in quiver.vertices:
        out[quiver.entry_vertex(w, tuple(face))].append(w)
    return out


def r1_order_check(quiver: Quiver, p: int = 2) -> dict:
    """Verify the dimension-one equivalences over all enumerated points.

    Checks that the maximal-vertex faces biject with the faces of the
    complex, and that the rank order is the reverse of face containment.
    """
    faces = {frozenset(f) for f in complex_faces(quiver)}
    face_phi: dict[frozenset, set] = {}
    for M in enumerate_subreps(quiver, 1, p):
        delta, covering = r1_face_of(M, quiver)
        face_phi.setdefault(delta, set()).add(rank_vector(M, quiver))
        covered = set()
        for part in covering.values():
            if covered & part:
                raise InvariantError("covering sets overlap")
            covered |= part
        if covered != set(quiver.vertices):
            raise InvariantError("covering sets miss a vertex")
    bijective = (
        set(face_phi) == faces
        and all(len(s) == 1 for s in face_phi.values())
        and len({next(iter(s)) for s in face_phi.values()}) == len(face_phi)
    )
    items = [(delta, next(iter(s))) for delta, s in face_phi.items()]
    order_equivalent = all(
        phi1.leq(phi2) == (d2 <= d1)
        for d1, phi1 in items
        for d2, phi2 in items
    )
    return {
        "faces": len(faces),
        "realized": len(face_phi),
        "bijective": bijective,
        "order_equivalent": order_equivalent,
        "ok": bijective and order_equivalent,
    }


def r1_rep_of_face(quiver: Quiver, face: Sequence[Vertex], p: int) -> SubRep:
    """A dimension-one subrep whose maximal-vertex simplex is the given face."""
    face = tuple(sorted(canonicalize(v) for v in face))
    j_sets = _j_sets(quiver, face)
    seeds = []
    d = quiver.d
    for u in face:
        outside = [w for w in quiver.vertices if w not in j_sets[u]]
        blocked = set()
        for w in outside:
            blocked |= quiver.trans[(u, w)].support
        coords = [k for k in range(1, d + 1) if k not in blocked]
        eps = tuple(1 if (k + 1) in coords else 0 for k in range(d))
        if gf.is_zero(eps) or not set(j_sets[u]) <= support_of_generated(quiver, u, eps, p):
            raise FieldTooSmall(
                f"no vector at {u} supported away from {blocked} covers {j_sets[u]}"
            )
        seeds.append((u, eps))
    rep = generated(quiver, seeds, p)
    if any(len(b) != 1 for b in rep.spaces.values()):
        raise InvariantError("generated rep is not dimension one")
    got, _ = r1_face_of(rep, quiver)
    if got != frozenset(face):
        raise InvariantError(f"realized face {got} differs from {face}")
    return rep
