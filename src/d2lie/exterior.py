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

Both are built in model coordinates from the start: the model's table
gives e_x e_y as model bits, with e_l e_-l already rewritten, so a value
is a sum of table entries.  The full wedge square, in which omega is
not yet zero, lives only in the test oracles.
"""

from __future__ import annotations

from collections import defaultdict
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


class QuotientModel(NamedTuple):
    """Wedge square modulo the invariant line, packaged as a LieAlgebra.

    Basis index i is the kept monomial monomials[i]: every index pair
    a < b in lex order except e_l e_-l, which omega = 0 makes the sum of
    the other dual pairs, fixed globally so cochain coordinates are
    reproducible.  wedge[x][y] is e_x e_y in these coordinates (0 for
    x = y), holding[x] lists (position, other index) of each kept
    monomial holding e_x, and duals the positions of the kept dual pairs.
    """

    space: SymplecticSpace
    algebra: LieAlgebra
    monomials: tuple[tuple[int, int], ...]
    wedge: list[list[int]]
    holding: list[list[tuple[int, int]]]
    duals: tuple[int, ...]

    @property
    def l(self) -> int:
        return self.space.l


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
    dim, partner = space.dim, space.partner
    monomials = tuple((a, b) for a in range(dim) for b in range(a + 1, dim) if (a, b) != (l - 1, l))
    wedge = [[0] * dim for _ in range(dim)]
    holding = [[] for _ in range(dim)]
    for i, (a, b) in enumerate(monomials):
        wedge[a][b] = wedge[b][a] = 1 << i
        holding[a].append((i, b))
        holding[b].append((i, a))
    duals = tuple(i for i, (a, b) in enumerate(monomials) if b == partner(a))
    wedge[l - 1][l] = wedge[l][l - 1] = sum(1 << i for i in duals)

    labels, weights = [], []
    sums: dict[tuple[int, int], int] = defaultdict(int)
    for i, (a, b) in enumerate(monomials):
        labels.append(("MONO", (space.label_of(a), space.label_of(b))))
        weights.append(wadd(space.weight_of_index(a), space.weight_of_index(b)))
        for x, x_other in ((a, b), (b, a)):
            for j, y_other in holding[partner(x)]:
                if j > i:
                    sums[(i, j)] ^= wedge[x_other][y_other]
    brackets = dict(sorted(sums.items()))  # LieAlgebra drops zeros
    return QuotientModel(space, LieAlgebra(labels, weights, brackets), monomials, wedge, holding, duals)


def phi(label: int, model: QuotientModel) -> Cochain:
    """Cochain of phi at the basis vector e_label (e.g. 4 or -4), in the
    module docstring's closed form; a label outside +-1..+-l is a ValueError."""
    p = model.space.index_of(label)
    wedge, holds_q = model.wedge, model.holding[model.space.partner(p)]
    sums: dict[tuple[int, int], int] = defaultdict(int)
    for n, (i, x) in enumerate(holds_q):
        for j, y in holds_q[n + 1 :]:
            sums[(i, j)] ^= wedge[x][y]
        if x != p:  # monomial i is then no dual pair
            for d in model.duals:
                sums[(i, d) if i < d else (d, i)] ^= wedge[p][x]
    return Cochain(2, model.algebra.dim, dict(sorted(sums.items())))
