"""Quivers of convex lattice configurations and their sub-representations.

The quiver Q(Gamma) has the configuration's classes as vertices; the arrow
(u, v) survives exactly when the reduction map u -> v admits no two-step
factorization with matching shift and support.  In apartment coordinates
every map is a 0/1 diagonal projection, so a representation datum is just a
subspace of F_p^d per vertex, stored as a reduced-echelon basis.  Rank
vectors are read off those bases: rows pivoting inside a map's support count
one each, and only the other rows meeting it are eliminated.

A composite of maps along arrows is either the direct map or zero: on
L/pi L it is pi^(n1 + n2 - n) times the direct one.  Every direct map is
such a composite, so `generated` has a closed form, the span at each vertex
of the seeds' images under the direct maps, and needs no closure search.

Sub-representations over locally weakly independent configurations split
into summands generated by a single vector; `decompose` implements the
constructive splitting, `deform_step` the rank-raising deformation toward
projective points, and `enumerate_subreps` the brute-force oracle over the
whole quiver Grassmannian, walking at each vertex the interval of spaces
that close up with those already chosen.  `rank_classes` builds the class
table on the same walk, the number of points per rank vector and the first
point of each, keeping one space per orbit of the diagonal matrices that
fix the spaces chosen so far, which commute with every map; where the
interval is a whole Grassmannian only those spaces are built
(`gf.torus_reps`).  Their kernels are coordinate subspaces: the part of a
space that a map kills is read off one echelon form with the support's
columns moved first (`gf.vanishing_on`).

Facts of the configuration alone live on `Quiver`, each computed once per
quiver: local weak independence (`is_weakly_independent`, which every
decomposition gate reads), the single-generator summand types with the
cycle and position where each non-projective one dies (`summand_types`), the
integer forms and kernel bounds `types_from_rank` reads (`rank_forms`,
`kernel_bounds`), the order in which stratum ranks spread over convex hulls
(`hull_plan`) and where each stratum rank goes in a rank vector (`pair_plan`).
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from . import gf, independence
from .gf import Basis, Vec
from .lattice import (
    Configuration,
    InvariantError,
    TransitionData,
    Vertex,
    chain_order,
    convex_hull_pair,
    is_convex,
    maximal_simplices,
    transition,
)


class BudgetExceeded(ValueError):
    """Enumeration left the configured candidate budget: a bad argument, so
    the command line reports it as an error."""


class DeformationError(Exception):
    """No validating deformation was found for a non-projective point."""


class PairPlan(NamedTuple):
    """Where a stratum's ranks go in `RankVector.entries` (`Quiver.pair_plan`)."""

    pairs: tuple[tuple[Vertex, Vertex], ...]  # every ordered pair, in entries order
    index: dict[tuple[Vertex, Vertex], int]  # the position of each pair
    diagonal: tuple[int, ...]  # the indices of the pairs (v, v)
    # per chain-ordered maximal simplex, per vertex u in chain order: the
    # index and support mask of (u, v) for each other vertex v of the simplex
    simplices: dict[tuple[Vertex, ...], tuple[tuple[tuple[int, int], ...], ...]]
    hull: tuple[tuple[int, int], ...]  # `hull_plan` as (index, index it copies)


class Quiver:
    """Q(Gamma) plus the transition data of every ordered pair."""

    def __init__(self, config: Configuration):
        convex, missing = is_convex(config)
        if not convex:
            raise ValueError(f"configuration is not convex; missing {missing}")
        self.config = config
        self.d = config.d
        self.vertices: tuple[Vertex, ...] = config.vertices
        # standard basis of F_p^d, its own rref over every p
        self.unit: Basis = tuple(
            tuple(int(i == k) for i in range(self.d)) for k in range(self.d)
        )
        self.trans: dict[tuple[Vertex, Vertex], TransitionData] = {}
        for u in self.vertices:
            for v in self.vertices:
                self.trans[(u, v)] = transition(u, v)
        # support of each map as sorted 0-based coordinates and as a bitmask
        self.coords: dict[tuple[Vertex, Vertex], tuple[int, ...]] = {
            pair: tuple(sorted(k - 1 for k in t.support)) for pair, t in self.trans.items()
        }
        self.masks: dict[tuple[Vertex, Vertex], int] = {
            pair: sum(1 << k for k in coords) for pair, coords in self.coords.items()
        }
        # the masks of the maps out of u, in vertex order: the key of its rank row
        self.supports: dict[Vertex, tuple[int, ...]] = {
            u: tuple(self.masks[(u, v)] for v in self.vertices) for u in self.vertices
        }
        self.arrows: tuple[tuple[Vertex, Vertex], ...] = tuple(
            (u, v)
            for u in self.vertices
            for v in self.vertices
            if u != v
            and not any(self.factors_through(u, k, v) for k in self.vertices if k not in (u, v))
        )
        self.in_arrows: dict[Vertex, tuple[Vertex, ...]] = {
            v: tuple(u for (u, w) in self.arrows if w == v) for v in self.vertices
        }
        self.out_arrows: dict[Vertex, tuple[Vertex, ...]] = {
            u: tuple(w for (x, w) in self.arrows if x == u) for u in self.vertices
        }
        self.simplices: tuple[tuple[Vertex, ...], ...] = tuple(maximal_simplices(config))

    # -- structure ---------------------------------------------------------

    def factors_through(self, u: Vertex, k: Vertex, v: Vertex) -> bool:
        """Whether the map u -> v equals the composite through k."""
        first = self.trans[(u, k)]
        second = self.trans[(k, v)]
        return (
            first.n + second.n == self.trans[(u, v)].n
            and (first.support & second.support) == self.trans[(u, v)].support
        )

    @functools.cached_property
    def is_weakly_independent(self) -> bool:
        """Local weak independence of the configuration, decided once per quiver."""
        return independence.weakly_independent(self)[0]

    def require_weakly_independent(self) -> None:
        """Raise ValueError unless the decomposition theory applies here."""
        if not self.is_weakly_independent:
            raise ValueError("configuration is not locally weakly independent")

    @functools.cached_property
    def summand_types(self) -> dict[SummandType, Optional[tuple[tuple[Vertex, ...], int]]]:
        """Every single-generator summand type: None for the projective type
        at each root, and the (cycle, death index m) that builds each other
        one, whose support is the vertices hanging on the cycle before m.
        Along a chain-ordered cycle the supports of v -> cycle[m] shrink
        strictly, so a vector dies at each m.  Locally weakly independent
        configurations only; a type built twice is InvariantError."""
        self.require_weakly_independent()
        types = {}
        for v in self.vertices:
            made = [(frozenset(self.vertices), None)]
            for cycle in self.cycles_at(v):
                hang = _hang_positions(self, cycle)
                made += [(frozenset(w for w in self.vertices if hang[w] < m), (cycle, m)) for m in range(1, len(cycle))]
            for support, death in made:
                t = SummandType(v, support)
                if t in types:
                    raise InvariantError(f"summand type {t} is built twice")
                types[t] = death
        return types

    @functools.cached_property
    def rank_forms(self) -> tuple[tuple[tuple[SummandType, tuple], ...], tuple[tuple, ...]]:
        """(A, C), sparse integer forms over a rank vector's values x, each
        row a tuple of (index into `RankVector.entries`, coefficient).  A
        pairs each summand type with its `_multiplicity_form`.  C is the
        nonzero rows of I - B.A, B the pairs that each type maps onto a line,
        so C.x = 0 says the multiset A.x reproduces x."""
        index = self.pair_plan.index
        sparse = lambda row: tuple((j, x) for j, x in sorted(row.items()) if x)
        a = [sparse({index[pair]: c for pair, c in _multiplicity_form(t, self).items()}) for t in self.summand_types]
        c = {pair: collections.Counter({j: 1}) for pair, j in index.items()}
        for t, row in zip(self.summand_types, a):
            # a single-generator summand maps u -> w onto a line exactly when both
            # lie in its support and the map from its root to w factors through u
            for u, w in itertools.product(t.support, repeat=2):
                if u == w or self.factors_through(t.root, u, w):
                    c[(u, w)].subtract(dict(row))
        return tuple(zip(self.summand_types, a)), tuple(filter(None, map(sparse, c.values())))

    @functools.cached_property
    def kernel_bounds(self) -> tuple[tuple[int, int, int], ...]:
        """Per arrow (u, w), the positions of (u, u) and (u, w) in `RankVector.entries`
        and d - |supp(u, w)|: the kernel of u -> w on a subspace lies in its
        kernel on F_p^d, so x(u, u) - x(u, w) is at most that number."""
        index = self.pair_plan.index
        return tuple((index[(u, u)], index[(u, w)], self.d - len(self.coords[(u, w)])) for u, w in self.arrows)

    @functools.cached_property
    def hull_plan(self) -> tuple[tuple[tuple[Vertex, Vertex], tuple[Vertex, Vertex]], ...]:
        """(pair, pair whose rank it copies) for each pair in no common
        maximal simplex, in an order that resolves: (u, v) copies (u, w), w
        the vertex after u on their convex hull.  InvariantError if it stalls."""
        known = {(u, v) for s in self.simplices for u in s for v in s} | {(v, v) for v in self.vertices}
        pairs = [pair for pair in itertools.product(self.vertices, repeat=2) if pair not in known]
        hull = {(u, v): (u, convex_hull_pair(u, v)[1]) for u, v in pairs}
        plan = []
        while hull:
            ready = [pair for pair, source in hull.items() if source in known]
            if not ready:
                raise InvariantError("hull propagation stalled")
            plan += [(pair, hull.pop(pair)) for pair in ready]
            known.update(ready)
        return tuple(plan)

    @functools.cached_property
    def pair_plan(self) -> PairPlan:
        """Positions of the ordered pairs in `RankVector.entries`, the pairs
        and supports of each maximal simplex, and `hull_plan` as index copies."""
        pairs = tuple(itertools.product(self.vertices, repeat=2))
        index = {pair: j for j, pair in enumerate(pairs)}
        simplices = {
            chain: tuple(tuple((index[(u, v)], self.masks[(u, v)]) for v in chain if v != u) for u in chain)
            for chain in map(chain_order, self.simplices)
        }
        hull = tuple((index[pair], index[source]) for pair, source in self.hull_plan)
        return PairPlan(pairs, index, tuple(index[(v, v)] for v in self.vertices), simplices, hull)

    def cycles_at(self, v: Vertex) -> list[tuple[Vertex, ...]]:
        """Each maximal simplex through v as its quiver cycle, rotated to start at v."""
        out = []
        for simplex in self.simplices:
            if v in simplex:
                i = simplex.index(v)
                out.append(simplex[i:] + simplex[:i])
        return out

    def cycle_through(self, v: Vertex, z: Vertex) -> tuple[Vertex, ...]:
        """The cycle at v whose last vertex (the in-neighbour) is z."""
        for cycle in self.cycles_at(v):
            if cycle[-1] == z:
                return cycle
        raise ValueError(f"{z} is not an in-neighbour of {v} on any cycle")

    @functools.cached_property
    def entry_vertex(self) -> Callable[[Vertex, tuple[Vertex, ...]], Vertex]:
        """entry_vertex(w, simplex): the unique simplex vertex through which
        every map into w factors, memoised for this quiver."""

        @functools.cache
        def entry_vertex(w: Vertex, simplex: tuple[Vertex, ...]) -> Vertex:
            if w in simplex:
                return w
            hits = [c for c in simplex if all(self.factors_through(x, c, w) for x in simplex)]
            if len(hits) != 1:
                raise InvariantError(f"entry vertex into {simplex} not unique for {w}: {hits}")
            return hits[0]

        return entry_vertex

    # -- linear data -------------------------------------------------------

    def apply_map(self, u: Vertex, v: Vertex, vector: Vec, p: int) -> Vec:
        out = [0] * self.d
        for k in self.coords[(u, v)]:
            out[k] = vector[k] % p
        return tuple(out)

    def pullback(self, u: Vertex, v: Vertex, basis: Basis, p: int) -> Basis:
        """Rref basis of {x : map u -> v sends x into span(basis)}: the part of
        span(basis) vanishing off the support, already rref, merged by pivot
        with the unit vectors off it.  Unmemoised: enumeration pulls back
        every point it visits, and memoises per call."""
        off = tuple(k for k in range(self.d) if k not in self.coords[(u, v)])
        rows = gf.vanishing_on.__wrapped__(basis, off, p) + tuple(self.unit[k] for k in off)
        return tuple(sorted(rows, key=lambda row: row.index(1)))

    def to_dot(self) -> str:
        lines = ["digraph quiver {"]
        for u, v in self.arrows:
            t = self.trans[(u, v)]
            supp = ",".join(str(k) for k in sorted(t.support))
            lines.append(f'  "{u}" -> "{v}" [label="n={t.n} supp={{{supp}}}"];')
        lines.append("}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Sub-representations


@dataclass
class SubRep:
    """Subspace of F_p^d per vertex, closed under all transition maps.

    Every space is its reduced row echelon basis: equality is equality of
    bases, and `rank_vector` reads ranks off the pivots.  The dict is
    copied, since `_walk` reuses the one it yields.
    """

    p: int
    spaces: dict[Vertex, Basis]

    def __post_init__(self):
        self.spaces = dict(self.spaces)

    def dims(self) -> dict[Vertex, int]:
        return {v: len(b) for v, b in self.spaces.items()}

    def to_json(self) -> str:
        return json.dumps(
            {
                "p": self.p,
                "spaces": [[list(v), [list(row) for row in basis]] for v, basis in sorted(self.spaces.items())],
            }
        )

    @staticmethod
    def from_json(text: str) -> "SubRep":
        data = json.loads(text)
        spaces = {
            tuple(v): gf.rref([tuple(row) for row in rows], data["p"]) for v, rows in data["spaces"]
        }
        return SubRep(int(data["p"]), spaces)


def generated(quiver: Quiver, seeds: Sequence[tuple[Vertex, Vec]], p: int) -> SubRep:
    """Smallest sub-representation containing the seed vectors.

    Closed form: at each vertex w it is the span of the images of the seeds
    under the direct maps v -> w (the identity when v = w).  A composite
    along arrows is the direct map or zero, so these spans are closed; some
    arrow path composes to the direct map, so each of them is needed.
    """
    gf.check_prime(p)
    return SubRep(
        p, {w: gf.rref([quiver.apply_map(v, w, x, p) for v, x in seeds], p) for w in quiver.vertices}
    )


@dataclass(frozen=True)
class RankVector:
    entries: tuple[tuple[tuple[Vertex, Vertex], int], ...]

    @staticmethod
    def from_dict(data: dict[tuple[Vertex, Vertex], int]) -> "RankVector":
        return RankVector(tuple(sorted(data.items())))

    def as_dict(self) -> dict[tuple[Vertex, Vertex], int]:
        return dict(self.entries)

    def leq(self, other: "RankVector") -> bool:
        """Entrywise order.  The rank vectors of one quiver list the same
        pairs in the same sorted order, mostly as the same objects, so the
        entries are compared by position; differing pair lists raise
        InvariantError."""
        if len(self.entries) != len(other.entries):
            raise InvariantError(f"rank vectors of {len(self.entries)} and {len(other.entries)} pairs")
        below = True
        for (pair, mine), (twin, theirs) in zip(self.entries, other.entries):
            if pair is not twin and pair != twin:
                raise InvariantError(f"rank vectors over different pairs: {pair} and {twin}")
            below = below and mine <= theirs
        return below


@functools.cache
def _ranks_from(basis: Basis, supports: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Rank of each coordinate projection, given by its support bitmask, on
    span(basis), an rref basis.

    Rows pivoting in the support S stay independent, since every other row
    is zero at their pivots; the other rows meeting S add the rank of their
    S-columns, which needs an elimination only when two or more of them do.
    """
    rows = [(row, sum(1 << k for k, x in enumerate(row) if x)) for row in basis]
    out = []
    for support in supports:
        rank = 0
        rest = []
        for row, nonzero in rows:
            if nonzero & -nonzero & support:  # the pivot, the lowest set bit, is in S
                rank += 1
            elif nonzero & support:
                rest.append(row)
        if len(rest) > 1:
            columns = [k for k in range(len(basis[0])) if support >> k & 1]
            rest = gf.rref([tuple(row[k] for k in columns) for row in rest], p)
        out.append(rank + len(rest))
    return tuple(out)


@functools.cache
def _assemble_ranks(vertices: tuple[Vertex, ...], rows: tuple[tuple[int, ...], ...]) -> RankVector:
    """The rank vector whose row at each of the sorted vertices is given:
    the rows concatenate to the sorted entries."""
    return RankVector(
        tuple(((u, v), rank) for u, row in zip(vertices, rows) for v, rank in zip(vertices, row))
    )


def rank_vector(M: SubRep, quiver: Quiver) -> RankVector:
    """Rank of every map u -> v on M, read off the space at u.

    The row of u depends only on the space at u and the maps out of u, so
    it is memoised (`_ranks_from`), and so is the rank vector of each tuple
    of rows (`_assemble_ranks`).
    """
    return _assemble_ranks(
        quiver.vertices, tuple(_ranks_from(M.spaces[u], quiver.supports[u], M.p) for u in quiver.vertices)
    )


def support_of_generated(quiver: Quiver, v: Vertex, vector: Vec, p: int) -> frozenset[Vertex]:
    """Vertices where the rep generated by one vector at v is nonzero: the u
    whose map v -> u keeps a coordinate where the vector is nonzero mod p."""
    nonzero = sum(1 << k for k, x in enumerate(vector) if x % p)
    if not nonzero:
        raise ValueError("zero vector has empty support")
    return frozenset(u for u in quiver.vertices if nonzero & quiver.masks[(v, u)])


# ---------------------------------------------------------------------------
# Decomposition into single-generator summands


@dataclass(frozen=True)
class SummandType:
    root: Vertex
    support: frozenset[Vertex]

    def is_projective(self, quiver: Quiver) -> bool:
        return self.support == frozenset(quiver.vertices)


@dataclass(frozen=True)
class Summand:
    root: Vertex
    vector: Vec

    def type_in(self, quiver: Quiver, p: int) -> SummandType:
        return SummandType(self.root, support_of_generated(quiver, self.root, self.vector, p))


def _dying_vector(
    quiver: Quiver, v: Vertex, work: Basis, p: int
) -> Optional[tuple[Vec, tuple[Vertex, ...], int]]:
    """First (eps, cycle, m) with eps in span(work) killed by the map to
    cycle[m] but not by the one to cycle[m - 1]: the last echelon row of the
    m-th kernel outside the previous one, as all later rows lie in it."""
    for cycle in quiver.cycles_at(v):
        prev_kernel: Basis = ()
        for m in range(1, len(cycle)):
            kernel_m = gf.vanishing_on(work, quiver.coords[(v, cycle[m])], p)
            for eps in reversed(kernel_m):
                if not gf.contains(prev_kernel, eps, p):
                    return eps, cycle, m
            prev_kernel = kernel_m
    return None


def _split_single_generators(quiver: Quiver, v: Vertex, space: Basis, p: int) -> list[Vec]:
    """Split span(space) at v into vectors each generating one summand."""
    gens: list[Vec] = []
    work = space
    while work:
        found = _dying_vector(quiver, v, work, p)
        if found is None:
            # all directions survive: split into echelon basis lines
            gens.extend(work)
            break
        eps, cycle, m = found
        # the kernel sum is spanned by the unit vectors off the meet of the
        # supports; with no kernels the meet is every coordinate, so keep = ()
        meet = (1 << quiver.d) - 1
        for u in quiver.in_arrows[v]:
            if u != cycle[-1]:
                meet &= quiver.masks[(v, u)]
        if m > 1:
            meet &= quiver.masks[(v, cycle[m - 1])]
        keep = gf.vanishing_on(work, tuple(k for k in range(quiver.d) if meet >> k & 1), p)
        if gf.contains(keep, eps, p):
            raise InvariantError("split vector landed in the kept kernel sum")
        new_work = gf.rref(keep + gf.complement(keep + (eps,), work, p), p)
        if len(new_work) != len(work) - 1:
            raise InvariantError("splitting off a generator did not drop the dimension by one")
        gens.append(eps)
        work = new_work
    return gens


def decompose(M: SubRep, quiver: Quiver, check_independent: bool = True) -> list[Summand]:
    """Split M into summands generated by a single vector.

    The per-vertex seed spaces are carved out by the chain-complement
    construction; the result is validated to reassemble M as a direct sum
    (dimension count at every vertex), raising InvariantError otherwise.
    """
    return [s for s, _ in _decompose_typed(M, quiver, check_independent)]


def _decompose_typed(
    M: SubRep, quiver: Quiver, check_independent: bool = True
) -> list[tuple[Summand, SummandType]]:
    """`decompose`, each summand paired with its type, whose support the
    independence count reads."""
    if check_independent:
        quiver.require_weakly_independent()
    p = M.p
    summands: list[Summand] = []
    for v in quiver.vertices:
        space = M.spaces[v]
        if not space:
            continue
        images = {u: gf.project(M.spaces[u], quiver.coords[(u, v)], p) for u in quiver.in_arrows[v]}
        parts: list[Basis] = []
        for u in quiver.in_arrows[v]:
            b_prev: Basis = ()
            c_rows: list[Vec] = []
            for w in quiver.cycle_through(v, u)[1:]:
                a_i = gf.vanishing_on(images[u], quiver.coords[(v, w)], p)
                b_i = gf.vanishing_on(space, quiver.coords[(v, w)], p)
                c_rows.extend(gf.complement(a_i + b_prev, b_i, p))
                b_prev = b_i
            parts.append(gf.rref(c_rows, p))
        parted = sum(parts, ())
        u_prime = gf.complement(sum(images.values(), ()) + parted, space, p)
        seed_space = gf.rref(u_prime + parted, p)
        for eps in _split_single_generators(quiver, v, seed_space, p):
            summands.append(Summand(v, eps))
    if reassemble(summands, quiver, p) != M:
        raise InvariantError("decomposition failed to reassemble the representation")
    # a single-vector summand has dimension 1 exactly on its support
    typed = [(s, s.type_in(quiver, p)) for s in summands]
    total = {v: 0 for v in quiver.vertices}
    for _, t in typed:
        for v in t.support:
            total[v] += 1
    if total != M.dims():
        raise InvariantError("decomposition summands are not independent")
    return typed


def reassemble(summands: Sequence[Summand], quiver: Quiver, p: int) -> SubRep:
    return generated(quiver, [(s.root, s.vector) for s in summands], p)


def type_multiset(summands: Sequence[Summand], quiver: Quiver, p: int) -> dict[SummandType, int]:
    out: dict[SummandType, int] = {}
    for s in summands:
        t = s.type_in(quiver, p)
        out[t] = out.get(t, 0) + 1
    return out


def _multiplicity_form(t: SummandType, quiver: Quiver) -> dict[tuple[Vertex, Vertex], int]:
    """The multiplicity of the type in a rep as a form in its ranks x, pair ->
    coefficient, from its `Quiver.summand_types` entry.  Projective at v:
    x(v, v) less the kernel x(v, v) - x(v, u) of the map to each in-neighbour
    u.  Dying at position m of the cycle (v, ..., z): x(v, cycle[m - 1]) -
    x(v, cycle[m]) - x(z, cycle[m - 1]) + x(z, cycle[m]), whose last map runs
    round the whole cycle, so is zero, when cycle[m] is z."""
    v = t.root
    death = quiver.summand_types[t]
    if death is None:
        form = {(v, u): 1 for u in quiver.in_arrows[v]}
        form[(v, v)] = 1 - len(form)
        return form
    cycle, m = death
    z = cycle[-1]
    form = {(v, cycle[m - 1]): 1, (v, cycle[m]): -1, (z, cycle[m - 1]): -1}
    if cycle[m] != z:
        form[(z, cycle[m])] = 1
    return form


def multiplicities_from_rank(
    phi: RankVector | dict[tuple[Vertex, Vertex], int], t: SummandType, quiver: Quiver
) -> int:
    """Multiplicity of the summand type in any rep with rank vector phi,
    given as a `RankVector` or its `as_dict()`, by `_multiplicity_form`."""
    ranks = phi if isinstance(phi, dict) else phi.as_dict()
    return sum(c * ranks[pair] for pair, c in _multiplicity_form(t, quiver).items())


def types_from_rank(phi: RankVector, quiver: Quiver) -> Optional[dict[SummandType, int]]:
    """The summand type multiset of every rep with rank vector phi: the
    nonzero multiplicities A.x over phi's values x (`Quiver.rank_forms`).
    None when no rep has phi: an arrow's kernel exceeds its kernel on F_p^d
    (`Quiver.kernel_bounds`), a multiplicity is negative, or a row of C is
    nonzero, so the multiset misses a rank of phi (on the diagonal, a
    dimension).  Only valid over locally weakly independent configurations.
    """
    quiver.require_weakly_independent()
    x = [rank for _, rank in phi.entries]
    if any(x[uu] - x[uw] > room for uu, uw, room in quiver.kernel_bounds):
        return None
    forms, checks = quiver.rank_forms
    types = [(t, sum(c * x[j] for j, c in row)) for t, row in forms]
    if any(m < 0 for _, m in types) or any(sum(c * x[j] for j, c in row) for row in checks):
        return None
    return {t: m for t, m in types if m}


# ---------------------------------------------------------------------------
# Brute-force enumeration of the quiver Grassmannian


def _walk(
    quiver: Quiver,
    dims: dict[Vertex, int] | int,
    p: int,
    budget: int,
    blocks: tuple[int, ...],
) -> Iterator[tuple[dict[Vertex, Basis], int]]:
    """(spaces, weight) for one sub-representation with the given dimension
    vector per orbit of the diagonal matrices constant on `blocks` (a label
    per coordinate), weighted by the orbit's size; `spaces` is reused.

    Vertices are visited along the arrow structure.  At each vertex v the
    spaces that close up with those already chosen form an interval: they
    contain the images of the chosen in-neighbours' spaces and lie in the
    preimages (`Quiver.pullback`) of the chosen out-neighbours' spaces.  So
    `gf.superspaces` walks that interval and no candidate is tested.

    Diagonal matrices commute with every coordinate projection, so those
    fixing the spaces chosen so far (constant on the blocks passed down)
    permute the interval; `gf.torus_rep` keeps one member per orbit and
    passes down its stabilizer's blocks.  When the interval is the whole
    Grassmannian, `gf.torus_reps` lists the kept members alone, and no other
    is built.  Each space kept spends the orbit size of the partial point it
    completes, the number of spaces one block offers over that orbit;
    BudgetExceeded is raised when more than `budget` is spent in all.
    """
    gf.check_prime(p)
    dim_map = {v: dims for v in quiver.vertices} if isinstance(dims, int) else dict(dims)
    for v, x in dim_map.items():
        if not 0 <= x <= quiver.d:
            raise ValueError(f"dimension {x} at {v} out of range")

    arrow_set = set(quiver.arrows)
    order: list[Vertex] = []
    remaining = sorted(quiver.vertices)
    while remaining:  # the least vertex first, then the least of those most linked to the chosen
        pick = max(remaining, key=lambda v: sum((u, v) in arrow_set or (v, u) in arrow_set for u in order))
        order.append(pick)
        remaining.remove(pick)
    # the chosen in- and out-neighbours of each vertex when it is reached
    ins = [[u for u in order[:i] if (u, v) in arrow_set] for i, v in enumerate(order)]
    outs = [[u for u in order[:i] if (v, u) in arrow_set] for i, v in enumerate(order)]
    # images and preimages of chosen spaces, memoised for this call only
    image = functools.cache(lambda u, v, basis: gf.project.__wrapped__(basis, quiver.coords[(u, v)], p))
    preimage = functools.cache(lambda v, u, basis: quiver.pullback(v, u, basis, p))
    spent = 0
    chosen: dict[Vertex, Basis] = {}

    def assign(idx: int, weight: int, blocks: tuple) -> Iterator[tuple[dict[Vertex, Basis], int]]:
        nonlocal spent
        if idx == len(order):
            yield chosen, weight
            return
        v = order[idx]
        images = [image(u, v, chosen[u]) for u in ins[idx]]
        lower = images[0] if len(images) == 1 else gf.rref([row for b in images for row in b], p)
        pulled = [preimage(v, u, chosen[u]) for u in outs[idx]] or [quiver.unit]
        upper = functools.reduce(lambda a, b: gf.intersect(a, b, p), pulled)
        if not lower and upper == quiver.unit:
            members = gf.torus_reps(quiver.d, dim_map[v], blocks, p)
        else:
            members = (
                (space, *kept)
                for space in gf.superspaces(lower, dim_map[v], upper, p)
                if (kept := gf.torus_rep(space, blocks, p)) is not None
            )
        for space, size, merged in members:
            spent += weight * size
            if spent > budget:
                raise BudgetExceeded(f"enumeration exceeded budget {budget}")
            chosen[v] = space
            yield from assign(idx + 1, weight * size, merged)
            del chosen[v]

    try:
        yield from assign(0, 1, blocks)
    finally:  # `assign` is a reference cycle: free the memos without the cyclic GC
        image.cache_clear()
        preimage.cache_clear()


def enumerate_subreps(
    quiver: Quiver,
    dims: dict[Vertex, int] | int,
    p: int,
    budget: int = 10_000_000,
) -> Iterator[SubRep]:
    """Every sub-representation with the given dimension vector, exactly once:
    the brute-force oracle over the whole quiver Grassmannian.  Only scalars
    are constant on one block, and they fix every space, so every space
    offered is kept and counts once against `budget` (see `_walk`)."""
    for spaces, _ in _walk(quiver, dims, p, budget, (0,) * quiver.d):
        yield SubRep(p, spaces)


class RankClass(NamedTuple):
    """One rank vector's row of the class table (`rank_classes`)."""

    points: int  # sub-representations with this rank vector
    point: SubRep  # the first of them that the walk yields


def rank_classes(
    quiver: Quiver,
    dims: dict[Vertex, int] | int,
    p: int,
    budget: int = 10_000_000,
) -> dict[RankVector, RankClass]:
    """The class table: per rank vector of the sub-representations with the
    given dimension vector, their number and one of them.  The whole
    diagonal torus keeps ranks, so each point `_walk` yields from singleton
    blocks counts with the size of its torus orbit, and the budget is spent
    as `enumerate_subreps` spends it.  Points are tallied by their rank
    rows (`_ranks_from`), and each class's rank vector is assembled once."""
    counts: dict[tuple[tuple[int, ...], ...], int] = {}
    first: dict[tuple[tuple[int, ...], ...], SubRep] = {}
    for spaces, weight in _walk(quiver, dims, p, budget, tuple(range(quiver.d))):
        rows = tuple(_ranks_from(spaces[u], quiver.supports[u], p) for u in quiver.vertices)
        if rows not in counts:
            counts[rows] = 0
            first[rows] = SubRep(p, spaces)
        counts[rows] += weight
    return {
        _assemble_ranks(quiver.vertices, rows): RankClass(count, first[rows])
        for rows, count in counts.items()
    }


# ---------------------------------------------------------------------------
# Rank-raising deformation


@dataclass
class DeformStep:
    rep: SubRep
    replaced: Summand
    new_generator: tuple[Vertex, Vec]
    increment: dict[tuple[Vertex, Vertex], int]
    rank: RankVector  # of rep, checked against the prediction


def _hang_positions(quiver: Quiver, cycle: tuple[Vertex, ...]) -> dict[Vertex, int]:
    """Entry position on the cycle for every vertex of the configuration."""
    simplex = tuple(sorted(cycle))
    return {
        w: cycle.index(quiver.entry_vertex(w, simplex)) for w in quiver.vertices
    }


def _deform_candidates(
    quiver: Quiver, typed: Sequence[tuple[Summand, SummandType]]
) -> list[tuple[Summand, Summand, tuple[Vertex, ...], int, int, int, int]]:
    """Candidate (replaced, donor, cycle, repl_start, repl_len, donor_rel_start,
    donor_rel_end) among the (summand, its type) pairs, where repl_len is the
    replaced arc's end minus its start.

    A non-projective type covers m positions from its root on the simplex of
    its death cycle (`Quiver.summand_types`) and each other simplex fully or
    not at all; a projective type covers all of them.  Only those proper
    arcs extend or are extended.  The donor's arc must abut or overlap the
    replaced one, extend strictly past its end, and stay clear of the
    replaced root (so the map from the root keeps the donor's image).  A
    type missing from the table is InvariantError.
    """
    arcs = {}  # per simplex's vertex set: (summand, m) for each type dying there
    for s, t in typed:
        if t not in quiver.summand_types:
            raise InvariantError(f"summand type {t} is not in its quiver's table")
        if (death := quiver.summand_types[t]) is not None:
            arcs.setdefault(frozenset(death[0]), []).append((s, death[1]))
    candidates = []
    for simplex in quiver.simplices:
        n = len(simplex) - 1
        here = [(s, simplex.index(s.root), m - 1) for s, m in arcs.get(frozenset(simplex), ())]
        for repl, a_r, len_r in here:
            for donor, a_s, len_s in here:
                if donor is repl:
                    continue
                rel_start = (a_s - a_r) % (n + 1)
                rel_end = rel_start + len_s
                if rel_start == 0:
                    continue  # same start: a basis change, not a deformation
                if rel_start > len_r + 1:
                    continue  # gap between the arcs
                if rel_end <= len_r:
                    continue  # no extension
                if rel_end > n:
                    continue  # donor wraps over the replaced root
                priority = (-len_s, rel_start, a_r, donor.root, repl.root)
                candidates.append(
                    (priority, repl, donor, simplex, a_r, len_r, rel_start, rel_end)
                )
    candidates.sort(key=lambda c: c[0])
    return [c[1:] for c in candidates]


def _predict_increment(
    quiver: Quiver,
    cycle: tuple[Vertex, ...],
    a_r: int,
    rel_start: int,
    rel_end: int,
    old_len: int,
) -> dict[tuple[Vertex, Vertex], int]:
    """Rank increments: cycle sources over the replaced arc minus the donor
    arc, targets hanging over the newly covered positions.

    Branch vertices over source positions never gain rank: their vectors come
    through the cycle, and pushing back wraps a cycle, hence dies.
    """
    n = len(cycle) - 1
    hang = _hang_positions(quiver, cycle)
    source_rel = [i for i in range(old_len + 1) if not rel_start <= i <= rel_end]
    sources = [cycle[(a_r + i) % (n + 1)] for i in source_rel]
    ext_pos = {(a_r + i) % (n + 1) for i in range(old_len + 1, rel_end + 1)}
    targets = [w for w in quiver.vertices if hang[w] in ext_pos]
    return {(s, t): 1 for s in sources for t in targets}


def deform_step(
    M: SubRep,
    quiver: Quiver,
    target: Optional[RankVector] = None,
    phi: Optional[RankVector] = None,
) -> Optional[DeformStep]:
    """One rank-raising deformation; None exactly when M is projective.

    On a constant dimension vector r those are exactly the points of the
    maximal rank-vector classes, so None comes on those (`verify projective`).
    On others a maximal class need not be projective, and its points raise
    DeformationError, as does a `target` that no candidate stays within.

    Takes the candidates (replaced summand R, donor) in priority order and
    skips those whose predicted rank vector exceeds `target`.  The first one
    left replaces R's generator eps_R by eps_R + eta, where eta is the
    donor's image at its entry vertex, one map: the donor dies before R's
    root, so the map from the root to that vertex keeps eta.  One candidate
    per pair, no search over F_p.  Its dimension vector must stay that of M
    and its rank vector must rise by exactly the predicted increments;
    otherwise the construction is wrong and InvariantError is raised.
    `phi` is M's rank vector when the caller already has it.
    """
    typed = _decompose_typed(M, quiver)
    p = M.p
    if all(t.is_projective(quiver) for _, t in typed):
        return None
    phi = phi if phi is not None else rank_vector(M, quiver)
    for repl, donor, cycle, a_r, old_len, rel_start, rel_end in _deform_candidates(quiver, typed):
        predicted = _predict_increment(quiver, cycle, a_r, rel_start, rel_end, old_len)
        expected = RankVector(tuple((pair, rank + predicted.get(pair, 0)) for pair, rank in phi.entries))
        if target is not None and not expected.leq(target):
            continue
        eta = quiver.apply_map(donor.root, cycle[(a_r + rel_start) % len(cycle)], donor.vector, p)
        new_vec = gf.vec_add(repl.vector, eta, p)
        seeds = [(s.root, new_vec if s is repl else s.vector) for s, _ in typed]
        candidate = generated(quiver, seeds, p)
        rank = rank_vector(candidate, quiver)
        if candidate.dims() != M.dims() or rank != expected:
            raise InvariantError("deformation missed its dimension vector or predicted ranks")
        return DeformStep(candidate, repl, (repl.root, new_vec), predicted, rank)
    raise DeformationError(
        "no validating deformation within the target, or M's class is maximal: off constant dimensions"
        " a maximal class need not be projective"
    )


def deform_chain(M: SubRep, quiver: Quiver, target: RankVector) -> list[SubRep]:
    """Strictly rank-increasing chain from M to the target rank vector.
    Ranks are bounded by the dimensions and each step raises them, so the
    chain ends; a step that does not raise them is InvariantError."""
    chain = [M]
    phi = rank_vector(M, quiver)
    while phi != target:
        step = deform_step(chain[-1], quiver, target=target, phi=phi)
        if step is None:
            raise DeformationError("deformation chain did not reach the target rank vector")
        if step.rank == phi or not phi.leq(step.rank):
            raise InvariantError("deformation step did not raise the rank vector")
        chain.append(step.rep)
        phi = step.rank
    return chain
