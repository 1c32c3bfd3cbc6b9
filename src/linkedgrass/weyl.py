"""Extended affine Weyl group of GL_d / SL_d in apartment coordinates.

Elements are pairs (sigma, trans) with sigma a permutation of {1..d} (tuple
of images, 1-based) and trans an integer d-vector, acting on Z^d by

    (sigma, v) . a  =  (a_{sigma^-1(1)}, ..., a_{sigma^-1(d)}) + v.

The group law is chosen so that `act` is a left action:
compose(g, h) = (sigma_g sigma_h, v_g + sigma_g . v_h).  The affine Weyl
group W_a is the subgroup with sum(trans) = 0; its Coxeter generators are
s_1..s_{d-1} (adjacent swaps) and s_0 = ((1 d), (1, 0, ..., 0, -1)).
Every element is uniquely w * iota^k with w in W_a and k = sum(trans); the
cyclic element iota = ((12...d), (1,0^{d-1})) rotates the standard alcove.
The length of g (that of its W_a-part) is the inversion count
sum_{i<j} |floor((w(j) - w(i)) / d)| of the window
w(i) = sigma(i) + d * trans_{sigma(i)} (Shi 1986; Bjorner-Brenti, GTM 231,
section 8.3), which right multiplication by iota leaves unchanged.  The
Bruhat order follows the lifting property (Bjorner-Brenti, GTM 231, Prop.
2.2.7): while l(u) < l(w), w steps down by a right descent s, and u by s
when s is a descent of u too; then u <= w iff u == w.  Breadth-first search
in the Cayley graph enumerates W_a by length, gives reduced words and is
the oracle the closed forms are tested against.  A double coset
W1 g W2 of finite subgroups is scanned once, as the cosets a g W2 over
representatives a of W1 / (W1 & g W2 g^-1); descent removal would need W1
to be standard parabolic, which stabilizers of shared faces need not be.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .lattice import InvariantError, canonicalize, classes_adjacent

@dataclass(frozen=True)
class WeylElement:
    sigma: tuple[int, ...]  # images of 1..d, 1-based
    trans: tuple[int, ...]

    @property
    def d(self) -> int:
        return len(self.sigma)

    def __post_init__(self):
        if sorted(self.sigma) != list(range(1, len(self.sigma) + 1)):
            raise ValueError(f"not a permutation of 1..{len(self.sigma)}: {self.sigma}")
        if len(self.trans) != len(self.sigma):
            raise ValueError("sigma/trans dimension mismatch")

    def to_json(self) -> str:
        return json.dumps({"sigma": list(self.sigma), "trans": list(self.trans)})

    @staticmethod
    def from_json(text: str) -> "WeylElement":
        data = json.loads(text)
        return WeylElement(tuple(data["sigma"]), tuple(data["trans"]))


def identity(d: int) -> WeylElement:
    return WeylElement(tuple(range(1, d + 1)), (0,) * d)


def perm_apply(sigma: Sequence[int], a: Sequence[int]) -> tuple[int, ...]:
    """Coordinate permutation: entry at position sigma(i) is a_i."""
    out = [0] * len(a)
    for i, img in enumerate(sigma):
        out[img - 1] = a[i]
    return tuple(out)


def act(g: WeylElement, a: Sequence[int]) -> tuple[int, ...]:
    if len(a) != g.d:
        raise ValueError("dimension mismatch")
    moved = perm_apply(g.sigma, a)
    return tuple(x + t for x, t in zip(moved, g.trans))


def act_class(g: WeylElement, cls: Sequence[int]) -> tuple[int, ...]:
    return canonicalize(act(g, cls))


def compose(g: WeylElement, h: WeylElement) -> WeylElement:
    if g.d != h.d:
        raise ValueError("dimension mismatch")
    sigma = tuple(g.sigma[h.sigma[i] - 1] for i in range(g.d))
    trans = tuple(v + w for v, w in zip(g.trans, perm_apply(g.sigma, h.trans)))
    return WeylElement(sigma, trans)


def invert(g: WeylElement) -> WeylElement:
    inv_sigma = [0] * g.d
    for i, img in enumerate(g.sigma):
        inv_sigma[img - 1] = i + 1
    inv_sigma = tuple(inv_sigma)
    trans = tuple(-x for x in perm_apply(inv_sigma, g.trans))
    return WeylElement(inv_sigma, trans)


def simple_reflection(d: int, i: int) -> WeylElement:
    """Coxeter generator s_i of W_a, i in 0..d-1."""
    if not 0 <= i <= d - 1:
        raise ValueError(f"generator index {i} out of range for d={d}")
    if i == 0:
        sigma = list(range(1, d + 1))
        sigma[0], sigma[d - 1] = sigma[d - 1], sigma[0]
        trans = [0] * d
        trans[0], trans[d - 1] = 1, -1
        return WeylElement(tuple(sigma), tuple(trans))
    sigma = list(range(1, d + 1))
    sigma[i - 1], sigma[i] = sigma[i], sigma[i - 1]
    return WeylElement(tuple(sigma), (0,) * d)


def iota(d: int) -> WeylElement:
    sigma = tuple(list(range(2, d + 1)) + [1])
    trans = (1,) + (0,) * (d - 1)
    return WeylElement(sigma, trans)


def iota_pow(d: int, k: int) -> WeylElement:
    """iota^k in closed form: sigma(i) = i + s mod d, trans = (q+1)^s q^(d-s)
    with q, s = divmod(k, d)."""
    q, s = divmod(k, d)
    sigma = tuple((i + s) % d + 1 for i in range(d))
    return WeylElement(sigma, (q + 1,) * s + (q,) * (d - s))


def translation(v: Sequence[int]) -> WeylElement:
    return WeylElement(tuple(range(1, len(v) + 1)), tuple(v))


def in_affine(g: WeylElement) -> bool:
    return sum(g.trans) == 0


def iota_decompose(g: WeylElement) -> tuple[WeylElement, int]:
    """Unique w in W_a and exponent k with g = w * iota^k.

    k equals sum(g.trans) exactly; its residue mod d is the class of g in
    the cyclic quotient over W_a and central shifts by (1,...,1).
    """
    k = sum(g.trans)
    w = compose(g, iota_pow(g.d, -k))
    if not in_affine(w):
        raise InvariantError(f"{w} is not in the affine Weyl group")
    return w, k


# ---------------------------------------------------------------------------
# Lengths, the Cayley ball of W_a and the Bruhat order


def _window(g: WeylElement) -> list[int]:
    """The window w(i) = sigma(i) + d * trans_{sigma(i)}, i = 1..d."""
    d = len(g.sigma)
    return [s + d * g.trans[s - 1] for s in g.sigma]


def length(g: WeylElement) -> int:
    """Word length of the W_a-part of g over s_0..s_{d-1} (inversion count)."""
    d = len(g.sigma)
    window = _window(g)
    total = 0
    for j in range(1, d):
        wj = window[j]
        for i in range(j):
            total += abs((wj - window[i]) // d)
    return total


class _CayleyBall:
    """Lazily grown BFS ball of W_a around the identity, with parent words."""

    def __init__(self, d: int):
        self.d = d
        self.gens = [simple_reflection(d, i) for i in range(d)]
        e = identity(d)
        self.length: dict[WeylElement, int] = {e: 0}
        self.parent: dict[WeylElement, tuple[WeylElement, int]] = {}
        self.frontier: list[WeylElement] = [e]
        self.radius = 0

    def extend_to(self, radius: int) -> None:
        while self.radius < radius and self.frontier:
            nxt = []
            for g in self.frontier:
                for i, s in enumerate(self.gens):
                    h = compose(g, s)
                    if h not in self.length:
                        self.length[h] = self.radius + 1
                        self.parent[h] = (g, i)
                        nxt.append(h)
            self.frontier = nxt
            self.radius += 1

    def elements_up_to(self, radius: int) -> list[WeylElement]:
        self.extend_to(radius)
        return [g for g, l in self.length.items() if l <= radius]


@functools.cache
def _ball(d: int) -> _CayleyBall:
    return _CayleyBall(d)


def reduced_word(g: WeylElement) -> tuple[int, ...]:
    """One reduced word (generator indices) for the W_a-part of g."""
    w, _ = iota_decompose(g)
    ball = _ball(g.d)
    ball.extend_to(length(w))
    word = []
    while ball.length[w] > 0:
        w, i = ball.parent[w]
        word.append(i)
    return tuple(reversed(word))


def wa_elements(d: int, max_len: int) -> list[WeylElement]:
    """All W_a elements of length at most max_len."""
    return _ball(d).elements_up_to(max_len)


def _right_descent(window: list[int], i: int) -> bool:
    """l(w * s_i) < l(w) for the element w with this window."""
    if i:
        return window[i - 1] > window[i]
    return window[-1] - len(window) > window[0]


def _times_simple(window: list[int], i: int) -> None:
    """Replace the window of w by that of w * s_i."""
    if i:
        window[i - 1], window[i] = window[i], window[i - 1]
    else:
        d = len(window)
        window[0], window[-1] = window[-1] - d, window[0] + d


def bruhat_leq(u: WeylElement, w: WeylElement) -> bool:
    """Bruhat order on the extended group: equal iota parts, then lifting."""
    if sum(u.trans) != sum(w.trans):
        return False
    lu, lw = length(u), length(w)
    x, y = _window(u), _window(w)
    while lu < lw:
        s = next(i for i in range(len(y)) if _right_descent(y, i))
        _times_simple(y, s)
        lw -= 1
        if _right_descent(x, s):
            _times_simple(x, s)
            lu -= 1
    return lu == lw and x == y


# ---------------------------------------------------------------------------
# Parahoric (Iwahori-Weyl) subgroups and double cosets


@dataclass(frozen=True)
class ParahoricGroup:
    """Finite subgroup of W_a fixing a face of the building pointwise."""

    d: int
    face: tuple[tuple[int, ...], ...]
    elements: frozenset[WeylElement]

    def __len__(self) -> int:
        return len(self.elements)


def equal_difference_blocks(face: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Partition of positions 1..d by 'x(k) - x(k')' constant over the face."""
    verts = [canonicalize(v) for v in face]
    d = len(verts[0])
    blocks: list[list[int]] = []
    for k in range(1, d + 1):
        for block in blocks:
            k0 = block[0]
            if all(x[k - 1] - x[k0 - 1] == verts[0][k - 1] - verts[0][k0 - 1] for x in verts):
                block.append(k)
                break
        else:
            blocks.append([k])
    return [tuple(b) for b in blocks]


def face_stabilizer(face: Sequence[Sequence[int]]) -> ParahoricGroup:
    """The finite subgroup of W_a fixing each class of the face.

    Generated by the reflections ((i j), (x_i - x_j)(e_i - e_j)) over pairs
    whose coordinate difference is constant across the face; saturated to a
    group.  Note a W_a element fixing a class fixes any representative
    vector on the nose (its translation part sums to zero).
    """
    if not face:
        raise ValueError("empty face")
    return _stabilizer(tuple(sorted({canonicalize(v) for v in face})))


@functools.cache
def _stabilizer(verts: tuple[tuple[int, ...], ...]) -> ParahoricGroup:
    """`face_stabilizer` of the sorted canonical vertices."""
    d = len(verts[0])
    for a in verts:
        for b in verts:
            if a != b and not classes_adjacent(a, b):
                raise ValueError(f"face is not a simplex: {a} and {b} not adjacent")
    gens = []
    for i in range(1, d + 1):
        for j in range(i + 1, d + 1):
            diffs = {x[i - 1] - x[j - 1] for x in verts}
            if len(diffs) == 1:
                c = diffs.pop()
                sigma = list(range(1, d + 1))
                sigma[i - 1], sigma[j - 1] = sigma[j - 1], sigma[i - 1]
                trans = [0] * d
                trans[i - 1], trans[j - 1] = c, -c
                gens.append(WeylElement(tuple(sigma), tuple(trans)))
    elements = {identity(d)}
    frontier = [identity(d)]
    while frontier:
        nxt = []
        for g in frontier:
            for s in gens:
                h = compose(g, s)
                if h not in elements:
                    elements.add(h)
                    nxt.append(h)
        frontier = nxt
    if any(act(g, x) != x for g in elements for x in verts):
        raise InvariantError("stabilizer element moved a face vertex")
    return ParahoricGroup(d, verts, frozenset(elements))


def _coset_heads(g: WeylElement, w1: ParahoricGroup, w2: ParahoricGroup) -> list[WeylElement]:
    """One element a * g of each distinct left coset a * g * W2, a in W1.

    a * g * W2 = a' * g * W2 exactly when a^-1 a' lies in K = W1 & g W2 g^-1,
    so the |W1| / |K| cosets over representatives a of W1 / K partition W1 * g * W2.
    """
    g_inv = invert(g)
    stab = [a for a in w1.elements if compose(compose(g_inv, a), g) in w2.elements]
    covered: set[WeylElement] = set()
    heads = []
    for a in w1.elements:
        if a not in covered:
            covered.update(compose(a, k) for k in stab)
            heads.append(compose(a, g))
    return heads


def _unique_extreme(elements: Iterable[WeylElement], sign: int, what: str) -> WeylElement:
    """The one element of least sign * length among distinct elements."""
    scored = [(sign * length(h), h) for h in elements]
    least = min(l for l, _ in scored)
    best = [h for l, h in scored if l == least]
    if len(best) != 1:
        raise InvariantError(f"{what} is not unique")
    return best[0]


@functools.cache
def double_coset_min(g: WeylElement, w1: ParahoricGroup, w2: ParahoricGroup) -> WeylElement:
    """Unique minimal-length element of W1 * g * W2, each element scanned once."""
    scan = (compose(ag, b) for ag in _coset_heads(g, w1, w2) for b in w2.elements)
    return _unique_extreme(scan, 1, "minimal double-coset representative")


def min_coset_rep(g: WeylElement, w2: ParahoricGroup) -> WeylElement:
    """Unique minimal-length element of the left coset g * W2."""
    return _unique_extreme((compose(g, b) for b in w2.elements), 1, "minimal coset representative")


@functools.cache
def minmax_rep(g: WeylElement, w1: ParahoricGroup, w2: ParahoricGroup) -> WeylElement:
    """Element of maximal length among the minimal reps of (v g) W2, v in W1."""
    reps = (min_coset_rep(vg, w2) for vg in _coset_heads(g, w1, w2))
    return _unique_extreme(reps, -1, "maximal minimal-coset representative")


def hasse_dot(name: str, nodes: Sequence, labels: Sequence[str], leq: Callable) -> str:
    """DOT digraph `name` with an edge for every cover a < b of `leq` among the nodes."""
    lines = [f"digraph {name} {{"]
    for i, a in enumerate(nodes):
        for j, b in enumerate(nodes):
            if i == j or not leq(a, b):
                continue
            if any(k not in (i, j) and leq(a, c) and leq(c, b) for k, c in enumerate(nodes)):
                continue
            lines.append(f'  "{labels[i]}" -> "{labels[j]}";')
    lines.append("}")
    return "\n".join(lines)


def bruhat_poset_dot(elements: Iterable[WeylElement]) -> str:
    """DOT digraph of the covering relations among the given elements."""
    nodes = sorted(set(elements), key=lambda g: (length(g), g.sigma, g.trans))
    return hasse_dot("bruhat", nodes, [f"{g.sigma}|{g.trans}" for g in nodes], bruhat_leq)
