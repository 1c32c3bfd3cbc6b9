"""Multidegrees on a dual graph under twisting.

Twist counts c act by one Laplacian product, w -> w - L c; twisting every
vertex once is the identity, and on a connected graph the twist vector
between equivalent multidegrees is unique once one coordinate is pinned to
zero.  Concentration is Dhar's burning, decided by a greedy order, and the
compatibility set is a closed-form integer test per point (Baker-Norine
reduced divisors); both drive the limit-linear-series bookkeeping, and the
complete-graph family is built in as a worked instance.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

Multidegree = tuple[int, ...]


@dataclass(frozen=True)
class DualGraph:
    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        seen = set()
        for a, b in self.edges:
            if a == b:
                raise ValueError("self-loops are not allowed")
            if not (0 <= a < self.n and 0 <= b < self.n):
                raise ValueError("edge endpoint out of range")
            key = (min(a, b), max(a, b))
            if key in seen:
                raise ValueError("parallel edges are not allowed")
            seen.add(key)
        object.__setattr__(self, "edges", tuple(sorted(seen)))
        if self.n > 1:
            reached = {0}
            frontier = [0]
            while frontier:
                v = frontier.pop()
                for u in self.adjacency[v]:
                    if u not in reached:
                        reached.add(u)
                        frontier.append(u)
            if len(reached) != self.n:
                raise ValueError("graph is not connected")

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """The neighbours of each vertex, in increasing order."""
        return tuple(
            tuple(b if a == v else a for a, b in self.edges if v in (a, b)) for v in range(self.n)
        )

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "edges": [list(e) for e in self.edges]})

    @staticmethod
    def from_json(text: str) -> "DualGraph":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("a dual graph is a JSON object")
        n, edges = data.get("n"), data.get("edges")
        if type(n) is not int or n < 1:
            raise ValueError("n must be a positive integer")
        if not (
            isinstance(edges, list)
            and all(isinstance(e, list) and len(e) == 2 and all(type(x) is int for x in e) for e in edges)
        ):
            raise ValueError("edges must be a list of two-integer lists")
        return DualGraph(n, tuple(map(tuple, edges)))


def complete_graph(n: int) -> DualGraph:
    return DualGraph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


def apply_twists(graph: DualGraph, w: Sequence[int], counts: Sequence[int]) -> Multidegree:
    """w - L counts: each v gives deg(v) counts[v] and receives counts[u] from each neighbour u."""
    return tuple(
        x - graph.degree(v) * counts[v] + sum(counts[u] for u in graph.adjacency[v])
        for v, x in enumerate(w)
    )


def twist_at(graph: DualGraph, w: Sequence[int], v: int) -> Multidegree:
    return apply_twists(graph, w, [int(u == v) for u in range(graph.n)])


def is_concentrated(
    graph: DualGraph, w: Sequence[int], v: int
) -> tuple[bool, Optional[tuple[int, ...]]]:
    """The greedy burning order from v, if every vertex burns.

    After untwisting at the vertices used so far, the least vertex not used
    yet whose degree is negative comes next.  Degrees outside the used set
    only fall as it grows, so a vertex stays eligible once it is, and the
    greedy order exists exactly when some order does; it is the order a
    depth-first search over vertices in increasing order finds.
    """
    order = [v]
    while len(order) < graph.n:
        current = apply_twists(graph, w, [-1 if u in order else 0 for u in range(graph.n)])
        nxt = next((u for u in range(graph.n) if u not in order and current[u] < 0), None)
        if nxt is None:
            return False, None
        order.append(nxt)
    return True, tuple(order)


def _solve_reduced(graph: DualGraph, rhs: Sequence[int], forbidden: int) -> list[Fraction]:
    """Solve L a = rhs off the row of `forbidden`, with a[forbidden] = 0, by
    exact elimination.  The reduced Laplacian of a connected graph is
    invertible (matrix-tree theorem), so a pivot always exists."""
    idx = [v for v in range(graph.n) if v != forbidden]
    mat = [
        [Fraction(graph.degree(a) if a == b else -1 if b in graph.adjacency[a] else 0) for b in idx]
        + [Fraction(rhs[a])]
        for a in idx
    ]
    m = len(idx)
    for col in range(m):
        piv = next(r for r in range(col, m) if mat[r][col] != 0)
        mat[col], mat[piv] = mat[piv], mat[col]
        inv = 1 / mat[col][col]
        mat[col] = [x * inv for x in mat[col]]
        for r in range(m):
            if r != col and mat[r][col] != 0:
                c = mat[r][col]
                mat[r] = [x - c * y for x, y in zip(mat[r], mat[col])]
    solution = [Fraction(0)] * graph.n
    for pos, v in enumerate(idx):
        solution[v] = mat[pos][m]
    return solution


def solve_twist(
    graph: DualGraph,
    w: Sequence[int],
    target: Sequence[int],
    forbidden: int,
) -> Optional[tuple[int, ...]]:
    """Nonnegative integral twist counts from w to target avoiding one vertex.

    The kernel of the twist matrix on a connected graph is the constants, so
    pinning a[forbidden] = 0 makes the solution unique; None means the target
    is not reachable this way.
    """
    sol = _solve_reduced(graph, [a - b for a, b in zip(w, target)], forbidden)  # L a = w - target
    if any(x.denominator != 1 or x < 0 for x in sol):
        return None
    counts = tuple(int(x) for x in sol)
    if apply_twists(graph, w, counts) != tuple(target):
        return None
    return counts


def vbar_set(
    graph: DualGraph,
    w0: Sequence[int],
    concentrated: dict[int, Sequence[int]],
) -> list[Multidegree]:
    """Twist-equivalent multidegrees from which every concentrated w_v stays
    reachable without twisting at v.

    Let L b_v = w0 - w_v with b_v[v] = 0.  Then w0 - L c reaches w_v by the
    twist vector b_v - c + c_v 1, the unique one that is zero at v, so it is
    a member exactly when c_u - c_v <= b_v[u] for every u.  The scan runs
    over the box of the normalized b_v - min(b_v), which holds every member
    once every vertex has a w_v: shift c so that its minimum 0 falls at some
    vertex m; then c_u = c_u - c_m <= b_m[u] <= b_m[u] - min(b_m), as
    b_m[m] = 0.
    """
    w0 = tuple(w0)
    for v, w_v in concentrated.items():
        if not is_concentrated(graph, w_v, v)[0]:
            raise ValueError(f"multidegree {w_v} is not concentrated on {v}")
    bases = {}
    for v, w_v in concentrated.items():
        base = _solve_reduced(graph, [a - b for a, b in zip(w0, w_v)], v)
        bases[v] = [int(x) for x in base]
        if bases[v] != base or apply_twists(graph, w0, bases[v]) != tuple(w_v):
            raise ValueError(f"{w_v} is not twist-equivalent to {w0}")
    box = [max([0] + [b[u] - min(b) for b in bases.values()]) for u in range(graph.n)]
    return sorted(
        {
            apply_twists(graph, w0, c)
            for c in itertools.product(*[range(b + 1) for b in box])
            if all(c[u] - c[v] <= b[u] for v, b in bases.items() for u in range(graph.n))
        }
    )


@dataclass
class CompleteGraphReport:
    graph: DualGraph
    w0: Multidegree
    multidegrees: list[Multidegree]
    formulas_match: bool
    concentrated: bool
    vbar_matches: bool
    twist_vectors: list[tuple[int, ...]]
    nested_chain: bool

    @property
    def ok(self) -> bool:
        return self.formulas_match and self.concentrated and self.vbar_matches and self.nested_chain


def kn_instance(n: int) -> CompleteGraphReport:
    """The complete-graph family: descending initial degrees, one twist per step.

    w_j twists w_0 at v_0..v_{j-1}; the closed form assigns j-i-1 at v_i for
    i < j and n-1+j-i otherwise; each w_j is concentrated on v_j, the
    compatibility set is exactly {w_0..w_{n-1}}, and the twist vectors nest.
    """
    if n < 2:
        raise ValueError("need at least two vertices")
    graph = complete_graph(n)
    w0 = tuple(n - 1 - i for i in range(n))
    multidegrees = [w0]
    for j in range(1, n):
        multidegrees.append(twist_at(graph, multidegrees[-1], j - 1))
    formulas = all(
        multidegrees[j][i] == (j - i - 1 if i < j else n - 1 + j - i)
        for j in range(n)
        for i in range(n)
    )
    concentrated = all(
        is_concentrated(graph, multidegrees[j], j)[0] for j in range(n)
    )
    vbar = vbar_set(graph, w0, {j: multidegrees[j] for j in range(n)})
    vbar_matches = vbar == sorted(set(multidegrees))
    twists = []
    nested = True
    for j in range(1, n):
        counts = solve_twist(graph, w0, multidegrees[j], n - 1)
        if counts is None:
            nested = False
            break
        twists.append(counts)
    if nested:
        chain = [(0,) * n] + twists + [(1,) * n]
        nested = all(
            all(a <= b for a, b in zip(chain[k], chain[k + 1]))
            for k in range(len(chain) - 1)
        )
    return CompleteGraphReport(
        graph, w0, multidegrees, formulas, concentrated, vbar_matches, twists, nested
    )
