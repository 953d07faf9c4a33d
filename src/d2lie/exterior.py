"""Exterior-square model of the centreless odd-rank algebra.

V is a 2l-dimensional GF(2) space with symplectic basis
e_1..e_l, e_-l..e_-1 and pairing (e_i, e_-i) = 1.  The wedge square
carries the Poisson bracket

    {v1 v2, v3 v4} = (v1,v3) v2 v4 + (v1,v4) v2 v3
                   + (v2,v3) v1 v4 + (v2,v4) v1 v3

and the quotient by the span of omega = e_1 e_-1 + ... + e_l e_-l is a
Lie algebra for odd l.  The degree-2 cocycles attached to vectors of V
are built from the eight-term pairing formula in phi_eval.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

from .algebra import LieAlgebra
from .cohomology import Cochain
from .gf2 import bit_indices
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

    def basis_vector(self, label: int) -> int:
        return 1 << self.index_of(label)

    def form(self, x: int, y: int) -> int:
        """Symplectic pairing of two packed vectors of V."""
        acc = 0
        while x:
            low = x & -x
            acc ^= (y >> self.partner(low.bit_length() - 1)) & 1
            x ^= low
        return acc

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


def wedge_of_vectors(space: SymplecticSpace, x: int, y: int) -> int:
    """x wedge y expanded over monomial coordinates."""
    pos = _monomial_pos(space.l)
    out = 0
    xs = list(bit_indices(x))
    for b in bit_indices(y):
        for a in xs:
            if a != b:
                out ^= 1 << pos[(a, b) if a < b else (b, a)]
    return out


def _poisson_mono(space: SymplecticSpace, m1, m2, pos) -> int:
    a, b = m1
    c, d = m2
    partner = space.partner
    out = 0
    if partner(a) == c and b != d:
        out ^= 1 << pos[(b, d) if b < d else (d, b)]
    if partner(a) == d and b != c:
        out ^= 1 << pos[(b, c) if b < c else (c, b)]
    if partner(b) == c and a != d:
        out ^= 1 << pos[(a, d) if a < d else (d, a)]
    if partner(b) == d and a != c:
        out ^= 1 << pos[(a, c) if a < c else (c, a)]
    return out


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
    starts at 5.
    """
    if l < 3:
        raise ValueError(f"rank must be at least 3, got {l}")
    if l % 2 == 0:
        raise ValueError("the quotient is a Lie-algebra model only at odd rank")
    space = SymplecticSpace(l)
    pos = _monomial_pos(l)
    kept = tuple(m for m in _monomials(l) if m != (l - 1, l))  # e_l e_-l eliminated

    labels = []
    weights = []
    for a, b in kept:
        labels.append(("MONO", (space.label_of(a), space.label_of(b))))
        weights.append(wadd(space.weight_of_index(a), space.weight_of_index(b)))

    brackets = {}
    for i, m1 in enumerate(kept):
        for j in range(i + 1, len(kept)):
            v = _reduce(space, _poisson_mono(space, m1, kept[j], pos))
            if v:
                brackets[(i, j)] = v
    return QuotientModel(space, LieAlgebra(labels, weights, brackets), kept)


# -- the quadratic cocycle map -----------------------------------------


def phi_eval(
    space: SymplecticSpace,
    v: int,
    arg1: tuple[int, int],
    arg2: tuple[int, int],
) -> int:
    """Eight-term value on decomposable arguments, in monomial coordinates.

    arg1 = (w1, w2) and arg2 = (w3, w4) are packed vectors of V; the
    result is quadratic in v, not linear.
    """
    w1, w2 = arg1
    w3, w4 = arg2
    form = space.form
    v1, v2, v3, v4 = form(v, w1), form(v, w2), form(v, w3), form(v, w4)
    f12, f34 = form(w1, w2), form(w3, w4)
    out = 0
    if v1 and v3:
        out ^= wedge_of_vectors(space, w2, w4)
    if v2 and v3:
        out ^= wedge_of_vectors(space, w1, w4)
    if v1 and v4:
        out ^= wedge_of_vectors(space, w2, w3)
    if v2 and v4:
        out ^= wedge_of_vectors(space, w1, w3)
    if v1 and f34:
        out ^= wedge_of_vectors(space, v, w2)
    if v2 and f34:
        out ^= wedge_of_vectors(space, v, w1)
    if v3 and f12:
        out ^= wedge_of_vectors(space, v, w4)
    if v4 and f12:
        out ^= wedge_of_vectors(space, v, w3)
    return out


def phi_of_vector(v: int, model: QuotientModel) -> Cochain:
    """Degree-2 cochain of phi at an arbitrary nonzero vector of V.

    Every term of the eight-term formula pairs v with an argument vector,
    so a value vanishes unless one monomial is touched, meaning v pairs
    with one of its vectors, and the other is touched or a dual pair
    e_c e_-c.  Only those pairs are evaluated: O(l^2) of them at a basis
    vector, against the C(n, 2) pairs of all n model monomials.
    """
    if v == 0:
        raise ValueError("phi is defined at nonzero vectors")
    space = model.space
    if v < 0 or v >> space.dim:
        raise ValueError("phi vector has bits outside V")
    form = space.form
    touched = set()
    candidates = []
    for i, (a, b) in enumerate(model.monomials):
        if form(v, 1 << a) or form(v, 1 << b):
            touched.add(i)
            candidates.append(i)
        elif b == space.partner(a):
            candidates.append(i)
    data: dict[tuple, int] = {}
    for i, j in combinations(candidates, 2):
        if i in touched or j in touched:
            (a, b), (c, d) = model.monomials[i], model.monomials[j]
            val = phi_eval(space, v, (1 << a, 1 << b), (1 << c, 1 << d))
            if val:
                reduced = model.reduce(val)
                if reduced:
                    data[(i, j)] = reduced
    return Cochain(2, model.algebra.dim, data)


def phi(v: int, model: QuotientModel) -> Cochain:
    """Cochain of a basis vector given by its signed label (e.g. 4 or -4)."""
    return phi_of_vector(model.space.basis_vector(v), model)
