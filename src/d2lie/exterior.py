"""Exterior-square model of the centreless odd-rank algebra.

V is a 2l-dimensional GF(2) space with symplectic basis
e_1..e_l, e_-l..e_-1 and pairing (e_i, e_-i) = 1; index x of that order
pairs only with its partner 2l - 1 - x.  The wedge square carries the
Poisson bracket

    {v1 v2, v3 v4} = (v1,v3) v2 v4 + (v1,v4) v2 v3
                   + (v2,v3) v1 v4 + (v2,v4) v1 v3

and the quotient by the span of omega = e_1 e_-1 + ... + e_l e_-l is a
Lie algebra for odd l.  The degree-2 cocycle at a vector v of V is

    phi_v(w1 w2, w3 w4) = (v,w1)(v,w3) w2 w4 + (v,w2)(v,w3) w1 w4
                        + (v,w1)(v,w4) w2 w3 + (v,w2)(v,w4) w1 w3
                        + (w3,w4) [(v,w1) v w2 + (v,w2) v w1]
                        + (w1,w2) [(v,w3) v w4 + (v,w4) v w3].

On basis monomials and basis vectors, both are index arithmetic (the
general-vector formula is a test oracle):

- Bracket.  A term of {e_a e_b, e_c e_d} survives when an index y of
  the second monomial is the partner of an index x of the first, and
  leaves x* y*, the wedge of the two other indices (0 if they coincide).
- phi at v = e_p with partner q.  (v, e_x) = 1 exactly when x = q, and
  (e_c, e_d) = 1 exactly on a dual pair.  The first four terms leave
  phi(e_q e_x, e_q e_y) = e_x e_y, the last four phi(e_q e_x, e_c e_-c)
  = e_p e_x per dual pair, in either argument order; e_p e_p = 0.  An
  argument pair that meets both forms gets the sum.
"""

from __future__ import annotations

from collections import defaultdict
from functools import lru_cache
from typing import NamedTuple

from .algebra import LieAlgebra
from .cohomology import Cochain
from .roots import Weight, wadd


class SymplecticSpace:
    """Symplectic GF(2) space of dimension 2l with the mirrored basis order."""

    __slots__ = ("l",)

    def __init__(self, l: int):
        if l < 1:
            raise ValueError("rank must be positive")
        self.l = l

    @property
    def dim(self) -> int:
        return 2 * self.l

    def index_of(self, label: int) -> int:
        """Basis index of e_label; negative labels are the dual vectors."""
        l = self.l
        if 1 <= label <= l:
            return label - 1
        if -l <= label <= -1:
            return 2 * l + label
        raise ValueError(f"no basis vector e_{label} at rank {l}")

    def label_of(self, idx: int) -> int:
        l = self.l
        if 0 <= idx < l:
            return idx + 1
        if l <= idx < 2 * l:
            return idx - 2 * l
        raise IndexError(idx)

    def partner(self, idx: int) -> int:
        return self.dim - 1 - idx

    def weight_of_index(self, idx: int) -> Weight:
        lab = self.label_of(idx)
        w = [0] * self.l
        w[abs(lab) - 1] = 1 if lab > 0 else -1
        return tuple(w)


@lru_cache(maxsize=None)
def _monomials(l: int) -> tuple[tuple[int, int], ...]:
    """All index pairs a < b of the 2l basis vectors, lex order."""
    dim = 2 * l
    return tuple((a, b) for a in range(dim) for b in range(a + 1, dim))


@lru_cache(maxsize=None)
def _monomial_pos(l: int) -> dict[tuple[int, int], int]:
    return {m: p for p, m in enumerate(_monomials(l))}


@lru_cache(maxsize=None)
def _holding(l: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per vector index x: (model position, other index) of each kept monomial holding e_x."""
    holding = [[] for _ in range(2 * l)]
    kept = (m for m in _monomials(l) if m != (l - 1, l))
    for i, (a, b) in enumerate(kept):
        holding[a].append((i, b))
        holding[b].append((i, a))
    return tuple(map(tuple, holding))


def _wedge_bit(pos: dict, x: int, y: int) -> int:
    """e_x e_y in full monomial coordinates, for x != y."""
    return 1 << pos[(x, y) if x < y else (y, x)]


def omega_bits(space: SymplecticSpace) -> int:
    """The invariant element e_1 e_-1 + ... + e_l e_-l in monomial coordinates."""
    pos = _monomial_pos(space.l)
    bits = 0
    for i in range(space.l):
        bits |= 1 << pos[(i, space.partner(i))]
    return bits


def _reduce(space: SymplecticSpace, wedge_bits: int) -> int:
    """Full monomial coordinates -> model coordinates.

    The model keeps the lex order without e_l e_-l, which omega rewrites
    as the sum of the other dual pairs; the positions above it shift
    down by one.
    """
    l = space.l
    dropped = _monomial_pos(l)[(l - 1, l)]
    if (wedge_bits >> dropped) & 1:
        wedge_bits ^= omega_bits(space)
    return (wedge_bits & ((1 << dropped) - 1)) | (wedge_bits >> (dropped + 1) << dropped)


class QuotientModel(NamedTuple):
    """Wedge square modulo the invariant line, packaged as a LieAlgebra.

    The eliminated monomial is e_l e_-l; it is rewritten as the sum of
    the other dual-pair monomials, fixed globally so cochain
    coordinates are reproducible.
    """

    space: SymplecticSpace
    algebra: LieAlgebra
    monomials: tuple[tuple[int, int], ...]  # kept index pairs, lex order

    @property
    def l(self) -> int:
        return self.space.l

    def reduce(self, wedge_bits: int) -> int:
        """Full monomial coordinates -> model coordinates."""
        return _reduce(self.space, wedge_bits)


def build_quotient_model(l: int) -> QuotientModel:
    """Model algebra at odd rank; even rank is rejected.

    Rank 3 is admitted for testing even though the interesting range
    starts at 5.  Bracket: for each kept monomial i and each index x in
    it, walk the kept monomials j > i that hold the partner of x.
    """
    if l < 3:
        raise ValueError(f"rank must be at least 3, got {l}")
    if l % 2 == 0:
        raise ValueError("the quotient is a Lie-algebra model only at odd rank")
    space = SymplecticSpace(l)
    pos, holding, partner = _monomial_pos(l), _holding(l), space.partner
    kept = tuple(m for m in _monomials(l) if m != (l - 1, l))  # e_l e_-l eliminated

    labels, weights = [], []
    sums: dict[tuple[int, int], int] = defaultdict(int)
    for i, (a, b) in enumerate(kept):
        labels.append(("MONO", (space.label_of(a), space.label_of(b))))
        weights.append(wadd(space.weight_of_index(a), space.weight_of_index(b)))
        for x, x_other in ((a, b), (b, a)):
            for j, y_other in holding[partner(x)]:
                if j > i and x_other != y_other:
                    sums[(i, j)] ^= _wedge_bit(pos, x_other, y_other)
    brackets = {key: _reduce(space, sums[key]) for key in sorted(sums)}  # LieAlgebra drops zeros
    return QuotientModel(space, LieAlgebra(labels, weights, brackets), kept)


def phi(label: int, model: QuotientModel) -> Cochain:
    """Cochain of phi at the basis vector e_label (e.g. 4 or -4), in the
    module docstring's closed form; a label outside +-1..+-l is a ValueError."""
    space = model.space
    p = space.index_of(label)
    pos, holds_q = _monomial_pos(space.l), _holding(space.l)[space.partner(p)]
    duals = [i for i, (a, b) in enumerate(model.monomials) if b == space.partner(a)]
    sums: dict[tuple[int, int], int] = defaultdict(int)
    for n, (i, x) in enumerate(holds_q):
        for j, y in holds_q[n + 1 :]:
            sums[(i, j)] ^= _wedge_bit(pos, x, y)
        if x != p:
            e_px = _wedge_bit(pos, p, x)
            for d in duals:
                if d != i:
                    sums[(i, d) if i < d else (d, i)] ^= e_px
    return Cochain(2, model.algebra.dim, {key: _reduce(space, sums[key]) for key in sorted(sums)})
