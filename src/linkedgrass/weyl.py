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
when s is a descent of u too; then u <= w iff u == w.  The same property
gives the downset: D(w) = D(ws) | D(ws) s for any right descent s of w.

Double cosets W_K g W_J are taken of standard parahorics, the stabilizers
of standard-alcove faces (any other raises InvariantError), so W_K is
generated by simple reflections.  The unique minimum x has no left descent
in K and no right descent in J; one walk on g's window reaches it in
l(g) - l(x) steps, swapping values for a left descent and positions for a
right one.  With L = {s in K : x^-1 s x in J}, Kilmoyer's theorem gives the
longest minimal left-coset representative, w0(K) w0(L) x, whose length
l(x) + l(w0(K)) - l(w0(L)) is read off x's window (Carter, Finite Groups of
Lie Type, 1985, section 2.7; Bjorner-Brenti, GTM 231, section 2.4).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

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


def translation(v: Sequence[int]) -> WeylElement:
    return WeylElement(tuple(range(1, len(v) + 1)), tuple(v))


# ---------------------------------------------------------------------------
# Lengths and the Bruhat order


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


def _right_descent(window: Sequence[int], i: int) -> bool:
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


BruhatData = tuple[int, int, tuple[int, ...]]


def bruhat_data(g: WeylElement) -> BruhatData:
    """What the Bruhat order reads of g: the iota exponent, the length and
    the window; compute it once per element compared many times."""
    return sum(g.trans), length(g), tuple(_window(g))


def bruhat_leq(u: WeylElement, w: WeylElement) -> bool:
    """Bruhat order on the extended group: equal iota parts, then lifting."""
    return sum(u.trans) == sum(w.trans) and bruhat_leq_data(bruhat_data(u), bruhat_data(w))


def bruhat_leq_data(a: BruhatData, b: BruhatData) -> bool:
    """`bruhat_leq` on the `bruhat_data` of both elements."""
    (ku, lu, x), (kw, lw, y) = a, b
    if ku != kw:
        return False
    x, y = list(x), list(y)
    while lu < lw:
        s = next(i for i in range(len(y)) if _right_descent(y, i))
        _times_simple(y, s)
        lw -= 1
        if _right_descent(x, s):
            _times_simple(x, s)
            lu -= 1
    return lu == lw and x == y


def bruhat_downset(w: WeylElement) -> frozenset[WeylElement]:
    """Every u <= w in the Bruhat order, w included."""
    return frozenset(map(_from_window, _downset(tuple(_window(w)))))


@functools.cache
def _downset(window: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
    """The windows of `bruhat_downset`, memoised per window: {w} at length
    0, else D(ws) | D(ws) s for the least right descent s of w."""
    s = next((i for i in range(len(window)) if _right_descent(window, i)), None)
    if s is None:
        return frozenset([window])

    def times_s(x: Sequence[int]) -> tuple[int, ...]:
        x = list(x)
        _times_simple(x, s)
        return tuple(x)

    below = _downset(times_s(window))
    return below | frozenset(map(times_s, below))


# ---------------------------------------------------------------------------
# Parahoric (Iwahori-Weyl) subgroups and double cosets


@dataclass(frozen=True)
class ParahoricGroup:
    """Finite subgroup of W_a fixing a face of the building pointwise, kept
    as the face: it is the product of the symmetric groups on the
    `equal_difference_blocks`, so its order is the product of their
    factorials."""

    d: int
    face: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return math.prod(math.factorial(len(b)) for b in equal_difference_blocks(self.face))

    @functools.cached_property
    def simple_indices(self) -> tuple[int, ...]:
        """The j with s_j in a standard parahoric: the stabilizer of the standard
        vertices omega_i, i in I, is generated by the s_j with j not in I."""
        types = set()
        for v in self.face:
            i = sum(v)
            if v != (1,) * i + (0,) * (self.d - i):
                raise InvariantError(f"parahoric subgroup fixing {self.face} is not standard")
            types.add(i)
        return tuple(j for j in range(self.d) if j not in types)


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
    whose coordinate difference is constant across the face, that is over
    pairs inside one equal-difference block.  Note a W_a element fixing a
    class fixes any representative vector on the nose (its translation part
    sums to zero).  Raises ValueError unless the face is a simplex, and
    InvariantError if a generator, hence the group, moves a vertex.
    """
    if not face:
        raise ValueError("empty face")
    verts = tuple(sorted({canonicalize(v) for v in face}))
    d = len(verts[0])
    for a in verts:
        for b in verts:
            if a != b and not classes_adjacent(a, b):
                raise ValueError(f"face is not a simplex: {a} and {b} not adjacent")
    for i in range(1, d + 1):
        for j in range(i + 1, d + 1):
            diffs = {x[i - 1] - x[j - 1] for x in verts}
            if len(diffs) == 1:
                c = diffs.pop()
                sigma = list(range(1, d + 1))
                sigma[i - 1], sigma[j - 1] = sigma[j - 1], sigma[i - 1]
                trans = [0] * d
                trans[i - 1], trans[j - 1] = c, -c
                s = WeylElement(tuple(sigma), tuple(trans))
                if any(act(s, x) != x for x in verts):
                    raise InvariantError("stabilizer generator moved a face vertex")
    return ParahoricGroup(d, verts)


def _from_window(window: Sequence[int]) -> WeylElement:
    """The element whose window (`_window`) this is."""
    d = len(window)
    sigma = tuple((w - 1) % d + 1 for w in window)
    trans = [0] * d
    for w, s in zip(window, sigma):
        trans[s - 1] = (w - s) // d
    return WeylElement(sigma, tuple(trans))


def _longest(d: int, indices: Sequence[int]) -> WeylElement:
    """w0 of the group generated by s_j, j in indices: the identity times
    s_j while one of them is a right ascent."""
    window = list(range(1, d + 1))
    while (j := next((j for j in indices if not _right_descent(window, j)), None)) is not None:
        _times_simple(window, j)
    return _from_window(window)


def _left_descent(window: list[int], a: int) -> bool:
    """l(s_a * w) < l(w): the value a + 1 stands left of a, where v + k*d stands k*d right of v."""
    d = len(window)
    at = [0, 0]
    for i, v in enumerate(window):
        k, rest = divmod(v - a, d)
        if rest < 2:
            at[rest] = i - k * d
    return at[1] < at[0]


def _simple_times(window: list[int], a: int) -> None:
    """Replace the window of w by that of s_a * w: swap the values a and a + 1 mod d."""
    d = len(window)
    window[:] = [v + 1 - 2 * ((v - a) % d) if (v - a) % d < 2 else v for v in window]


def double_coset_min(g: WeylElement, w1: ParahoricGroup, w2: ParahoricGroup) -> WeylElement:
    """Unique minimal-length element of W1 * g * W2 for standard parahorics:
    strip the left descents in W1 by swapping values of g's window, then the
    right descents in W2 by swapping positions; g itself when there is
    nothing to strip.  Stripping on the right adds no left descent: x = x' * v
    with lengths adding, so a left descent of x' would be one of x."""
    window, moved = _window(g), False
    for indices, descent, step in (
        (w1.simple_indices, _left_descent, _simple_times),
        (w2.simple_indices, _right_descent, _times_simple),
    ):
        while (j := next((j for j in indices if descent(window, j)), None)) is not None:
            step(window, j)
            moved = True
    return _from_window(window) if moved else g


def minmax_rep(g: WeylElement, w1: ParahoricGroup, w2: ParahoricGroup) -> WeylElement:
    """Element of maximal length among the minimal reps of (v g) W2, v in W1.

    With x = `double_coset_min`, W_K & x W_J x^-1 = W_L for L = {s in K :
    x^-1 s x in J} (Kilmoyer), and those reps are u * x with u minimal in
    u * W_L; the longest is w0(K) * w0(L) * x, each w0 reached by ascents.
    """
    x, left = double_coset_min(g, w1, w2), w1.simple_indices
    right = {simple_reflection(g.d, j) for j in w2.simple_indices}
    stable = [j for j in left if compose(compose(invert(x), simple_reflection(g.d, j)), x) in right]
    return compose(_longest(g.d, left), compose(_longest(g.d, stable), x))


def minmax_length(x: WeylElement, w1: ParahoricGroup, w2: ParahoricGroup) -> int:
    """length(minmax_rep(x, w1, w2)) for x minimal in W_K x W_J, by
    Kilmoyer's formula l(x) + l(w0(K)) - l(w0(L)).  For j in J with
    x(j + 1) = x(j) + 1 (position 0 holds x(d) - d), x s_j x^-1 is the simple
    reflection s_a, a = x(j) mod d; L is the set of those a that lie in K."""
    d, w = x.d, _window(x)
    w.insert(0, w[-1] - d)
    left = set(w1.simple_indices)
    stable = {w[j] % d for j in w2.simple_indices if w[j + 1] == w[j] + 1} & left

    def w0_length(indices: set[int]) -> int:  # m(m+1)/2 per run of m cyclically consecutive indices
        start = min(set(range(d)) - indices)
        runs = "".join("s" if (start + j) % d in indices else " " for j in range(d)).split()
        return sum(len(run) * (len(run) + 1) // 2 for run in runs)

    return length(x) + w0_length(left) - w0_length(stable)


def hasse_dot(name: str, nodes: Sequence, labels: Sequence[str], leq: Callable) -> str:
    """DOT digraph `name` with an edge for every cover a < b of `leq` among the nodes:
    a <= b with no third node between them, `leq` read once per ordered pair."""
    pairs = [(i, j) for i, j in itertools.permutations(range(len(nodes)), 2) if leq(nodes[i], nodes[j])]
    above: list[set[int]] = [set() for _ in nodes]
    below: list[set[int]] = [set() for _ in nodes]
    for i, j in pairs:
        above[i].add(j)
        below[j].add(i)
    lines = [f"digraph {name} {{"]
    for i, j in pairs:
        if not above[i] & below[j]:
            lines.append(f'  "{labels[i]}" -> "{labels[j]}";')
    lines.append("}")
    return "\n".join(lines)
