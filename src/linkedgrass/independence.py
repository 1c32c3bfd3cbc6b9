"""Locally weakly / linearly independent configurations.

At each vertex v the candidate witness set I_v is the set of in-neighbours
of v in Q(Gamma): every incoming map must factor through a witness, and the
witness images (equivalently, complements of outgoing kernels) must be
linearly independent.  In apartment coordinates image independence is
disjointness of the diagonal supports.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from typing import TYPE_CHECKING, Optional

from .lattice import Vertex, classes_adjacent

if TYPE_CHECKING:  # quiver imports this module; Quiver is needed only in annotations
    from .quiver import Quiver


@dataclass
class VertexCertificate:
    vertex: Vertex
    witnesses: tuple[Vertex, ...]
    ok: bool
    unfactored: Optional[Vertex] = None  # incoming map with no witness factorization
    overlap: Optional[tuple[Vertex, Vertex]] = None  # witness pair with joint support

    def to_json(self) -> str:
        return json.dumps(
            {
                "vertex": list(self.vertex),
                "witnesses": [list(w) for w in self.witnesses],
                "ok": self.ok,
                "unfactored": list(self.unfactored) if self.unfactored else None,
                "overlap": [list(w) for w in self.overlap] if self.overlap else None,
            }
        )


def independent_at(quiver: Quiver, v: Vertex, witnesses: tuple[Vertex, ...]) -> VertexCertificate:
    for u in quiver.vertices:
        if u == v:
            continue
        if not any(quiver.factors_through(u, w, v) for w in witnesses):
            return VertexCertificate(v, witnesses, False, unfactored=u)
    for w1, w2 in combinations(witnesses, 2):
        if quiver.trans[(w1, v)].support & quiver.trans[(w2, v)].support:
            return VertexCertificate(v, witnesses, False, overlap=(w1, w2))
    return VertexCertificate(v, witnesses, True)


def weakly_independent_at(quiver: Quiver, v: Vertex) -> VertexCertificate:
    return independent_at(quiver, v, quiver.in_arrows[v])


def weakly_independent(quiver: Quiver) -> tuple[bool, list[VertexCertificate]]:
    certs = [weakly_independent_at(quiver, v) for v in quiver.vertices]
    return all(c.ok for c in certs), certs


def linearly_independent(quiver: Quiver) -> bool:
    """Weak independence with every adjacent vertex as a witness."""
    for v in quiver.vertices:
        adjacent = tuple(u for u in quiver.vertices if u != v and classes_adjacent(u, v))
        if not independent_at(quiver, v, adjacent).ok:
            return False
    return True


def _simple_paths(quiver: Quiver, source: Vertex, sink: Vertex) -> list[tuple[Vertex, ...]]:
    """All non-repeating directed paths from source to another vertex sink."""
    paths = []

    def walk(path: list[Vertex]):
        for nxt in quiver.out_arrows[path[-1]]:
            if nxt == sink:
                paths.append(tuple(path + [nxt]))
            elif nxt not in path:
                walk(path + [nxt])

    walk([source])
    return paths


def _directed_cycles(quiver: Quiver) -> set[frozenset[Vertex]]:
    """Vertex sets of simple directed cycles of the quiver."""
    cycles: set[frozenset[Vertex]] = set()

    def walk(start: Vertex, path: list[Vertex]):
        for nxt in quiver.out_arrows[path[-1]]:
            if nxt == start and len(path) >= 2:
                cycles.add(frozenset(path))
            elif nxt not in path and nxt > start:
                walk(start, path + [nxt])

    for v in quiver.vertices:
        walk(v, [v])
    return cycles


@dataclass
class StructureReport:
    nonzero_paths: bool
    unique_paths: bool
    cycles_match_simplices: bool
    cycles_share_at_most_one: bool
    cycle_count: int
    witness: Optional[str] = None

    @property
    def ok(self) -> bool:
        return (
            self.nonzero_paths
            and self.unique_paths
            and self.cycles_match_simplices
            and self.cycles_share_at_most_one
        )


def validate_structure(quiver: Quiver) -> StructureReport:
    """Check the tree-of-cycles structure of a weakly independent quiver."""
    nonzero = True
    unique = True
    witness = None
    for source in quiver.vertices:
        for sink in quiver.vertices:
            if source == sink:
                continue
            paths = _simple_paths(quiver, source, sink)
            if len(paths) != 1:
                unique = False
                witness = witness or f"{len(paths)} paths {source}->{sink}"
            for path in paths:
                supp = set(range(1, quiver.d + 1))
                for a, b in zip(path, path[1:]):
                    supp &= quiver.trans[(a, b)].support
                if not supp:
                    nonzero = False
                    witness = witness or f"zero composite along {path}"
    cycles = _directed_cycles(quiver)
    simplices = {frozenset(s) for s in quiver.simplices}
    match = cycles == simplices
    if not match:
        witness = witness or f"cycles {cycles} != simplices {simplices}"
    share = all(
        len(c1 & c2) <= 1 for c1, c2 in combinations(cycles, 2)
    )
    if not share:
        witness = witness or "two cycles share more than one vertex"
    return StructureReport(nonzero, unique, match, share, len(cycles), witness)
