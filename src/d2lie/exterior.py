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

from dataclasses import dataclass
from functools import lru_cache

from .algebra import LieAlgebra
from .cohomology import Cochain
from .gf2 import GF2Matrix, bit_indices
from .roots import Weight, wadd


@dataclass(frozen=True)
class SymplecticSpace:
    """Symplectic GF(2) space of dimension 2l with the mirrored basis order."""

    l: int

    def __post_init__(self):
        if self.l < 1:
            raise ValueError("rank must be positive")

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


@lru_cache(maxsize=None)
def _kept_monomials(l: int) -> tuple[tuple[int, int], ...]:
    return tuple(m for m in _monomials(l) if m != (l - 1, l))


@lru_cache(maxsize=None)
def _kept_pos(l: int) -> dict[tuple[int, int], int]:
    return {m: p for p, m in enumerate(_kept_monomials(l))}


@dataclass(frozen=True)
class Wedge2Element:
    """GF(2) combination of wedge monomials, packed over the lex order."""

    space: SymplecticSpace
    bits: int

    @classmethod
    def from_monomials(cls, space: SymplecticSpace, monos) -> Wedge2Element:
        pos = _monomial_pos(space.l)
        bits = 0
        for sa, sb in monos:
            a, b = space.index_of(sa), space.index_of(sb)
            if a == b:
                raise ValueError(f"degenerate monomial e_{sa} e_{sb}")
            bits ^= 1 << pos[(a, b) if a < b else (b, a)]
        return cls(space, bits)

    def __add__(self, other: Wedge2Element) -> Wedge2Element:
        if self.space != other.space:
            raise ValueError("mismatched spaces")
        return Wedge2Element(self.space, self.bits ^ other.bits)

    def is_zero(self) -> bool:
        return self.bits == 0


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


def poisson_bracket(x: Wedge2Element, y: Wedge2Element) -> Wedge2Element:
    """Bilinear extension of the four-term monomial bracket."""
    if x.space != y.space:
        raise ValueError("mismatched spaces")
    space = x.space
    monos = _monomials(space.l)
    pos = _monomial_pos(space.l)
    xm = [monos[p] for p in bit_indices(x.bits)]
    out = 0
    for q in bit_indices(y.bits):
        m2 = monos[q]
        for m1 in xm:
            out ^= _poisson_mono(space, m1, m2, pos)
    return Wedge2Element(space, out)


def omega_bits(space: SymplecticSpace) -> int:
    """The invariant element e_1 e_-1 + ... + e_l e_-l in monomial coordinates."""
    pos = _monomial_pos(space.l)
    bits = 0
    for i in range(space.l):
        bits |= 1 << pos[(i, space.partner(i))]
    return bits


@dataclass(frozen=True)
class QuotientModel:
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
        l = self.space.l
        pos = _monomial_pos(l)
        dropped = pos[(l - 1, l)]
        if (wedge_bits >> dropped) & 1:
            wedge_bits ^= 1 << dropped
            for i in range(l - 1):
                wedge_bits ^= 1 << pos[(i, self.space.partner(i))]
        out = 0
        kept_pos = _kept_pos(l)
        monos = _monomials(l)
        for p in bit_indices(wedge_bits):
            out ^= 1 << kept_pos[monos[p]]
        return out

    def monomial_index(self, sa: int, sb: int) -> int:
        """Model basis index of the monomial with signed labels sa, sb."""
        a, b = self.space.index_of(sa), self.space.index_of(sb)
        if a > b:
            a, b = b, a
        return self.monomials.index((a, b))


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
    kept = _kept_monomials(l)  # e_l e_-l eliminated

    labels = []
    weights = []
    for a, b in kept:
        labels.append(("MONO", (space.label_of(a), space.label_of(b))))
        weights.append(wadd(space.weight_of_index(a), space.weight_of_index(b)))

    shell = QuotientModel(space, LieAlgebra(labels, weights, {}), kept)
    brackets = {}
    for i, m1 in enumerate(kept):
        for j in range(i + 1, len(kept)):
            v = shell.reduce(_poisson_mono(space, m1, kept[j], pos))
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
    """Degree-2 cochain of phi at an arbitrary nonzero vector of V."""
    if v == 0:
        raise ValueError("phi is defined at nonzero vectors")
    space = model.space
    kept = model.monomials
    n = len(kept)
    units = [
        (1 << a, 1 << b) for a, b in kept
    ]
    data: dict[tuple, int] = {}
    for i in range(n):
        for j in range(i + 1, n):
            val = phi_eval(space, v, units[i], units[j])
            if val:
                reduced = model.reduce(val)
                if reduced:
                    data[(i, j)] = reduced
    return Cochain(2, model.algebra.dim, data)


def phi(v: int, model: QuotientModel) -> Cochain:
    """Cochain of a basis vector given by its signed label (e.g. 4 or -4)."""
    return phi_of_vector(model.space.basis_vector(v), model)


# -- symplectic transvections ------------------------------------------


@dataclass(frozen=True)
class Transvection:
    """x -> x + (x, v) v; an involution preserving the form."""

    space: SymplecticSpace
    v: int

    def __call__(self, x: int) -> int:
        return x ^ (self.v if self.space.form(x, self.v) else 0)

    def apply_to_wedge(self, wedge_bits: int) -> int:
        monos = _monomials(self.space.l)
        out = 0
        for p in bit_indices(wedge_bits):
            a, b = monos[p]
            out ^= wedge_of_vectors(self.space, self(1 << a), self(1 << b))
        return out


def transvection(space: SymplecticSpace, v: int) -> Transvection:
    if v == 0:
        raise ValueError("transvections need a nonzero direction")
    if v < 0 or v >> space.dim:
        raise ValueError("transvection direction has bits outside the space")
    return Transvection(space, v)


# -- graded isomorphism search -----------------------------------------


def find_graded_isomorphism(
    model: QuotientModel, target: LieAlgebra
) -> GF2Matrix | None:
    """Weight-compatible isomorphism from the model onto target, or None.

    Nonzero weight spaces are one-dimensional on both sides, which
    forces the map there; the remaining weight-0 block is the solution
    of a GF(2) linear system, then the homomorphism property is checked
    exhaustively.
    """
    A = model.algebra
    B = target
    if A.dim != B.dim:
        return None
    wa, wb = A.weight_index(), B.weight_index()
    if set(wa) != set(wb) or any(len(wa[w]) != len(wb[w]) for w in wa):
        return None
    zero = tuple([0] * model.l)
    nonzero = [w for w in wa if w != zero]
    if any(len(wa[w]) != 1 for w in nonzero):
        return None
    a0, b0 = list(wa.get(zero, ())), list(wb.get(zero, ()))
    k = len(a0)
    a0_pos = {idx: p for p, idx in enumerate(a0)}
    b0_pos = {idx: p for p, idx in enumerate(b0)}
    forced = {wa[w][0]: wb[w][0] for w in nonzero}

    def to_positions(bits: int, table: dict[int, int]) -> int | None:
        out = 0
        for m in bit_indices(bits):
            if m not in table:
                return None
            out |= 1 << table[m]
        return out

    # Unknowns X[p][q], bit p * k + q: the image of the p-th weight-0 model
    # vector has coefficient X[p][q] on the q-th weight-0 target vector.
    # Each equation is a (row, right-hand side) pair.
    equations: list[tuple[int, int]] = []
    for w in nonzero:
        ai, bi = wa[w][0], wb[w][0]
        # Action of the weight-0 part on this weight line must transport.
        acts = 0
        for q, b_idx in enumerate(b0):
            vb = B.bracket_basis(b_idx, bi)
            if vb and not (vb >> bi) & 1:
                return None
            acts |= ((vb >> bi) & 1) << q
        for p, a_idx in enumerate(a0):
            va = A.bracket_basis(a_idx, ai)
            if va and not (va >> ai) & 1:
                return None
            equations.append((acts << (p * k), (va >> ai) & 1))
        # Dual weight pairs land in the weight-0 block on both sides.
        nw = tuple(-x for x in w)
        if w < nw:
            ca = to_positions(A.bracket_basis(ai, wa[nw][0]), a0_pos)
            cb = to_positions(B.bracket_basis(bi, wb[nw][0]), b0_pos)
            if ca is None or cb is None:
                return None
            for q in range(k):
                row = sum(1 << (p * k + q) for p in bit_indices(ca))
                equations.append((row, (cb >> q) & 1))

    rhs = sum(r << i for i, (_, r) in enumerate(equations))
    x = GF2Matrix(len(equations), k * k, [row for row, _ in equations]).solve(rhs)
    if x is None:
        return None

    theta_rows = [0] * A.dim
    for ai, bi in forced.items():
        theta_rows[ai] = 1 << bi
    for p, a_idx in enumerate(a0):
        xrow = (x >> (p * k)) & ((1 << k) - 1)
        theta_rows[a_idx] = sum(1 << b0[q] for q in bit_indices(xrow))
    # The forced rows are distinct unit vectors outside the weight-0
    # block, so theta is invertible exactly when X is.
    theta = GF2Matrix(A.dim, B.dim, theta_rows)
    if theta.rank() != A.dim:
        return None

    def apply(bits: int) -> int:
        out = 0
        for m in bit_indices(bits):
            out ^= theta_rows[m]
        return out

    for i in range(A.dim):
        for j in range(i + 1, A.dim):
            if apply(A.bracket_basis(i, j)) != B.bracket(
                theta_rows[i], theta_rows[j]
            ):
                return None
    return theta
