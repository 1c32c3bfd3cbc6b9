"""Lattice classes and convex configurations in apartment coordinates.

A homothety class of a diagonal lattice in K^d is an integer d-vector up to
adding a constant; the canonical representative has minimum entry 0.  The
vector (a_1, ..., a_d) stands for the lattice spanned by pi^{-a_i} e_i, so
containment of representatives is coordinatewise <=, and two classes are
adjacent exactly when some shift of their difference lies in {0,1}^d with
both values attained.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

Vertex = tuple[int, ...]


class InvariantError(AssertionError):
    """A postcondition failed; raised even under `python -O`."""


def canonicalize(v: Sequence[int]) -> Vertex:
    """Canonical representative of the class: subtract the minimum entry."""
    m = min(v)
    return tuple(x - m for x in v)


def classes_adjacent(u: Sequence[int], v: Sequence[int]) -> bool:
    """Adjacency of two lattice classes; equal classes do not count as an edge."""
    if len(u) != len(v):
        raise ValueError("dimension mismatch")
    diff = [b - a for a, b in zip(u, v)]
    m = min(diff)
    return max(x - m for x in diff) == 1


@dataclass(frozen=True)
class TransitionData:
    """Shift and support of the reduction map between two classes.

    n is the minimal integer with pi^n L_u contained in L_v; the induced map
    on L/pi L is the coordinate projection onto `support` (1-based argmax of
    u - v over any representatives).
    """

    n: int
    support: frozenset[int]


def transition(u: Sequence[int], v: Sequence[int]) -> TransitionData:
    if len(u) != len(v):
        raise ValueError("dimension mismatch")
    diffs = [a - b for a, b in zip(u, v)]
    n = max(diffs)
    support = frozenset(k + 1 for k, x in enumerate(diffs) if x == n)
    return TransitionData(n, support)


def convex_hull_pair(u: Sequence[int], v: Sequence[int]) -> list[Vertex]:
    """Chain of classes [min(u, v + k*1)] from u to v, consecutive ones adjacent."""
    if len(u) != len(v):
        raise ValueError("dimension mismatch")
    u = canonicalize(u)
    v = canonicalize(v)
    diffs = [a - b for a, b in zip(u, v)]
    chain: list[Vertex] = []
    for k in range(max(diffs), min(diffs) - 1, -1):
        cls = canonicalize(tuple(min(a, b + k) for a, b in zip(u, v)))
        if not chain or chain[-1] != cls:
            chain.append(cls)
    return chain


@dataclass(frozen=True)
class Configuration:
    d: int
    vertices: tuple[Vertex, ...]

    def __post_init__(self):
        canon = tuple(sorted({canonicalize(v) for v in self.vertices}))
        object.__setattr__(self, "vertices", canon)
        for v in canon:
            if len(v) != self.d:
                raise ValueError(f"vertex {v} does not have dimension {self.d}")

    def to_json(self) -> str:
        return json.dumps({"d": self.d, "vertices": [list(v) for v in self.vertices]})

    @staticmethod
    def from_json(text: str) -> "Configuration":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("a configuration is a JSON object")
        d, vertices = data["d"], data["vertices"]
        if not (isinstance(vertices, list) and vertices and all(isinstance(v, list) and v for v in vertices)):
            raise ValueError("vertices must be a non-empty list of non-empty lists")
        if any(type(x) is not int for x in [d, *(x for v in vertices for x in v)]):
            raise ValueError("d and every vertex coordinate must be integers")
        return Configuration(d, tuple(map(tuple, vertices)))


def configuration(vertices: Iterable[Sequence[int]]) -> Configuration:
    verts = [canonicalize(v) for v in vertices]
    if not verts:
        raise ValueError("empty configuration")
    return Configuration(len(verts[0]), tuple(verts))


def is_convex(config: Configuration) -> tuple[bool, list[Vertex]]:
    """Convexity test; on failure also returns the missing hull classes."""
    have = set(config.vertices)
    missing = set()
    for u, v in combinations(config.vertices, 2):
        for w in convex_hull_pair(u, v):
            if w not in have:
                missing.add(w)
    return (not missing), sorted(missing)


def convex_closure(config: Configuration) -> Configuration:
    """Add the missing hull classes (`is_convex`) until none is missing."""
    while missing := is_convex(config)[1]:
        config = Configuration(config.d, config.vertices + tuple(missing))
    return config


def maximal_simplices(config: Configuration) -> list[tuple[Vertex, ...]]:
    """Maximal cliques of the adjacency graph, each ordered as a lattice chain.

    The building is a flag complex, so cliques are faces.  Vertices within a
    clique are returned in inclusion order of canonical representatives.
    """
    verts = list(config.vertices)
    adj = {
        v: {u for u in verts if u != v and classes_adjacent(u, v)} for v in verts
    }

    cliques: list[frozenset[Vertex]] = []

    def grow(clique: set[Vertex], candidates: set[Vertex]):
        if not candidates:
            fs = frozenset(clique)
            if not any(fs < other for other in cliques):
                cliques.append(fs)
            return
        for v in sorted(candidates):
            grow(clique | {v}, {u for u in candidates if u > v and u in adj[v]})

    for v in verts:
        grow({v}, {u for u in adj[v] if u > v})
    cliques = [c for c in cliques if not any(c < other for other in cliques)]
    ordered = [tuple(sorted(c, key=lambda x: (sum(x), x))) for c in set(cliques)]
    return sorted(ordered)


def chain_order(simplex: Sequence[Vertex]) -> tuple[Vertex, ...]:
    """Vertices of a simplex sorted so canonical representatives form a chain."""
    ordered = tuple(sorted((canonicalize(v) for v in simplex), key=lambda x: (sum(x), x)))
    for a, b in zip(ordered, ordered[1:]):
        if not all(x <= y for x, y in zip(a, b)):
            raise ValueError(f"canonical representatives do not form a chain: {a}, {b}")
    first, last = ordered[0], ordered[-1]
    if not all(y <= x + 1 for x, y in zip(first, last)):
        raise ValueError("chain does not close up under pi^-1")
    return ordered
