"""Exact linear algebra over the prime fields F_p, p in {2, 3, 5, ...}.

Vectors are tuples of ints reduced mod p; a subspace is stored as its
reduced row echelon basis (a tuple of row tuples, ordered by pivot), which
makes subspaces canonical, hashable and cheap to compare.  Everything here
is sized for desk-scale ambient dimension (d <= 8 or so), so no attempt is
made to be clever with the elimination itself.

The coordinate kernels that decomposition repeats are `functools.cache`s:
`vanishing_on`, `project` and `complement`.  Their arguments are canonical
rref tuples from small Grassmannians over small fields, so few distinct
ones recur many times; a miss runs the plain elimination.  So are the
subspace lists, and `torus_reps` is the one enumerator of rref spaces.  It
builds the members of a whole Grassmannian that `torus_rep` keeps, one
per orbit of a coordinate torus; under one block that is every space.
`superspaces`, an interval of a Grassmannian, lifts the spaces of its
quotient from that list, and `torus_rep` filters any such list by the
member's entries alone.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Iterable, Optional

Vec = tuple[int, ...]
Basis = tuple[Vec, ...]


def check_prime(p: int) -> None:
    """Raise ValueError unless p is a prime, the order of a field F_p."""
    if p < 2 or any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
        raise ValueError(f"p must be a prime, got {p}")


def vec_add(a: Vec, b: Vec, p: int) -> Vec:
    return tuple((x + y) % p for x, y in zip(a, b))


def vec_scale(c: int, a: Vec, p: int) -> Vec:
    return tuple((c * x) % p for x in a)


def is_zero(a: Vec) -> bool:
    return not any(a)


def _eliminate(rows: Iterable[Vec], p: int, cols: Iterable[int]) -> tuple[list, list[int]]:
    """Gauss-Jordan elimination pivoting on the columns `cols`, in that order.

    Returns the nonzero reduced rows and their pivot columns, in pivot
    order.  Entries are reduced mod p on entry and stay reduced, so pivots
    are tested without `% p`; every other row is zero at each pivot column.
    """
    work = [[x % p for x in r] for r in rows]
    nrows = len(work)
    pivots: list[int] = []
    for col in cols:
        rank = len(pivots)
        if rank == nrows:
            break
        for piv in range(rank, nrows):
            if work[piv][col]:
                break
        else:
            continue
        row = work[piv]
        work[piv] = work[rank]
        if row[col] != 1:
            inv = pow(row[col], p - 2, p)
            row = [(x * inv) % p for x in row]
        work[rank] = row
        for i, other in enumerate(work):
            c = other[col]
            if c and i != rank:
                work[i] = [(x - c * y) % p for x, y in zip(other, row)]
        pivots.append(col)
    return work[: len(pivots)], pivots


def rref(rows: Iterable[Vec], p: int) -> Basis:
    """Reduced row echelon basis of the span of `rows` (zero rows dropped)."""
    rows = list(rows)
    echelon, _ = _eliminate(rows, p, range(len(rows[0]) if rows else 0))
    return tuple(map(tuple, echelon))


def reduce_vec(v: Vec, basis: Basis, p: int) -> Vec:
    """Residual of v after elimination against an rref basis, whose rows
    each start with zeros and a 1 at the pivot: `row.index(1)` finds it."""
    out = list(v)
    for row in basis:
        piv = row.index(1)
        c = out[piv] % p
        if c:
            out = [(x - c * y) % p for x, y in zip(out, row)]
    return tuple(out)


def contains(basis: Basis, v: Vec, p: int) -> bool:
    return is_zero(reduce_vec(v, basis, p))


@functools.cache
def vanishing_on(basis: Basis, coords: tuple[int, ...], p: int) -> Basis:
    """Rref basis of {x in span(basis) : x_k = 0 for every k in coords}.

    One elimination pivoting on the `coords` columns first: a row whose
    pivot lies past them is zero on them, and the rows pivoting inside them
    are the only ones with a nonzero there, so the kept rows span the
    subspace.  The other columns are taken in their own order, so the kept
    rows are reduced and ordered by pivot: the canonical rref.
    """
    if not basis:
        return ()
    first = set(coords)
    cols = sorted(first) + [k for k in range(len(basis[0])) if k not in first]
    echelon, pivots = _eliminate(basis, p, cols)
    return tuple(tuple(row) for row, col in zip(echelon, pivots) if col not in first)


@functools.cache
def project(basis: Basis, coords: tuple[int, ...], p: int) -> Basis:
    """Rref basis of the image of span(basis) under the coordinate projection
    that keeps the `coords` entries and zeroes the others."""
    keep = set(coords)
    return rref([tuple(x if k in keep else 0 for k, x in enumerate(row)) for row in basis], p)


def insert(basis: Basis, v: Vec, p: int) -> Optional[Basis]:
    """Rref basis of span(basis) + span(v); None when v already lies in it.

    The residual of v against the rref basis is zero at every pivot.  Once
    normalized, its own pivot column is cleared from the other rows, which
    keeps their pivots, and it joins them in pivot order.
    """
    res = reduce_vec(tuple(x % p for x in v), basis, p)
    for piv, x in enumerate(res):
        if x:
            break
    else:
        return None
    if res[piv] != 1:
        res = vec_scale(pow(res[piv], p - 2, p), res, p)
    out = [vec_add(row, vec_scale(p - row[piv], res, p), p) if row[piv] else row for row in basis]
    out.insert(sum(row.index(1) < piv for row in basis), res)
    return tuple(out)


def intersect(a: Basis, b: Basis, p: int) -> Basis:
    """Rref basis of span(a) & span(b), by Zassenhaus' algorithm.

    The rows (x, x) for x in a and (y, 0) for y in b span {(x + y, x)}; its
    members with x + y = 0 are exactly the (0, x) with x in both spaces.
    The rref rows whose first half vanishes span those members, and their
    second halves are reduced and ordered by pivot: the canonical rref.
    """
    if not a or not b:
        return ()
    zero = (0,) * len(a[0])
    echelon = rref([row + row for row in a] + [row + zero for row in b], p)
    return tuple(row[len(zero):] for row in echelon if not any(row[: len(zero)]))


@functools.cache
def complement(inner: Basis, outer: Basis, p: int) -> Basis:
    """Greedy complement C with span(inner) + span(outer) = span(inner) (+) C.

    C is the subsequence of `outer` whose rows lie outside the span of
    `inner` and the rows kept before them; so any prefix of C extends
    `inner` independently, and len(C) = dim(inner + outer) - dim(inner).
    """
    cur = rref(inner, p)
    comp = []
    for row in outer:
        grown = insert(cur, row, p)
        if grown is not None:
            comp.append(row)
            cur = grown
    return tuple(comp)


def gaussian_binomial(n: int, k: int, p: int) -> int:
    """Number of k-dimensional subspaces of F_p^n."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


@functools.cache
def superspaces(inner: Basis, k: int, outer: Basis, p: int) -> tuple[Basis, ...]:
    """The interval of k-dimensional spaces W with span(inner) <= W <= span(outer),
    each once; () when inner does not lie in outer.

    W is determined by W/inner, a subspace of outer/inner.  Written in the
    columns that are not pivots of inner, outer/inner has the rref basis Q of
    outer's residuals against inner, and W/inner = C.Q for the rref (k - w)-
    spaces C of F_p^dim(Q), which `torus_reps` lists under one block.  C.Q
    is again in rref, its pivots those of Q at C's pivots, and its first
    entry where two choices of C differ is that entry of C; so the spaces
    come in the order of `torus_reps`, by (pivots of W/inner, W/inner), as
    in the full Grassmannian.  C.Q is zero at inner's pivots, so `insert`
    merges its rows into inner one by one, and never finds one in the span.
    """
    if k < len(inner) or not all(contains(outer, row, p) for row in inner):
        return ()
    quotient = rref([reduce_vec(row, inner, p) for row in outer], p)
    out = []
    for coeffs, _, _ in torus_reps(len(quotient), k - len(inner), (0,) * len(quotient), p):
        lifted = [
            tuple(sum(c * x for c, x in zip(crow, col)) % p for col in zip(*quotient))
            for crow in coeffs
        ]
        out.append(functools.reduce(lambda basis, row: insert(basis, row, p), lifted, inner))
    return tuple(out)


def torus_rep(space: Basis, blocks: tuple[int, ...], p: int) -> Optional[tuple[int, tuple[int, ...]]]:
    """(orbit size, stabilizer's blocks) when `space` is the member kept from
    its orbit under the diagonal matrices constant on `blocks` (a label per
    coordinate), else None.

    Such a t keeps the pivots of W: its rref row pivoting at c is W's row
    times t over t_c, so each nonzero entry is scaled by t at its column
    over t at its pivot.  Read row by row, left to right, the entries that
    first join two blocks form a spanning forest of the blocks W links, so
    t gives them any nonzero values and fixes W only if constant on the
    merged blocks.  So one member has 1 at each, the orbit has
    (p - 1)^joins members, and the merged blocks are the stabilizer's.
    Over F_2 the torus is trivial: every space is kept, alone in its orbit.
    """
    if p == 2:
        return 1, blocks
    labels = list(blocks)
    joins = 0
    for row in space:
        piv = row.index(1)
        for c, x in enumerate(row):
            a, b = labels[piv], labels[c]
            if x and a != b:
                if x != 1:
                    return None
                joins += 1
                labels = [a if label == b else label for label in labels]
    return (p - 1) ** joins, tuple(labels)


@functools.cache
def torus_reps(n: int, k: int, blocks: tuple[int, ...], p: int) -> tuple[tuple[Basis, int, tuple[int, ...]], ...]:
    """(space, orbit size, stabilizer's blocks) for each k-space of F_p^n that
    `torus_rep` keeps, building no other; under one block, every k-space.

    Pivot patterns come in lexicographic order.  The free entries of each
    are filled left to right, row by row, each in increasing value, so the
    spaces of one pattern come in lexicographic order of their rows.  Each
    entry is filled under the block labelling that the entries so far
    leave.  An entry that joins two blocks is kept only at 0 and at 1, and
    a 1 merges the two; an entry inside one block, and every entry over
    F_2, where `torus_rep` keeps all, takes all p values.
    """
    out = []

    def fill(free, rows, at, labels, size):
        if at == len(free):
            out.append((tuple(map(tuple, rows)), size, labels))
            return
        row, piv, c = free[at]
        a, b = labels[piv], labels[c]
        if p == 2 or a == b:
            for x in range(p):
                row[c] = x
                fill(free, rows, at + 1, labels, size)
        else:
            row[c] = 0
            fill(free, rows, at + 1, labels, size)
            row[c] = 1
            fill(free, rows, at + 1, tuple(a if label == b else label for label in labels), size * (p - 1))
        row[c] = 0

    for pivots in itertools.combinations(range(n), k):
        rows = [[int(c == piv) for c in range(n)] for piv in pivots]
        free = [(row, piv, c) for row, piv in zip(rows, pivots) for c in range(piv + 1, n) if c not in pivots]
        fill(free, rows, 0, tuple(blocks), 1)
    return tuple(out)
