"""Root system of type D_l in epsilon coordinates.

Weights are exact integer tuples of length l (coefficients of the
orthonormal characters eps_1..eps_l).  They live in a free abelian group
and are never reduced mod 2: the torus character lattice stays integral
even though all algebra coefficients live in GF(2).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add, sub

Weight = tuple[int, ...]


def wadd(a: Weight, b: Weight) -> Weight:
    if len(a) != len(b):
        raise ValueError(f"weights {a} and {b} differ in length")
    return tuple(map(add, a, b))


def wsub(a: Weight, b: Weight) -> Weight:
    if len(a) != len(b):
        raise ValueError(f"weights {a} and {b} differ in length")
    return tuple(map(sub, a, b))


def wneg(a: Weight) -> Weight:
    return tuple(-x for x in a)


def wdot(a: Weight, b: Weight) -> int:
    return sum(x * y for x, y in zip(a, b, strict=True))


def wzero(l: int) -> Weight:
    return (0,) * l


def is_zero_weight(a: Weight) -> bool:
    return all(x == 0 for x in a)


def eps(l: int, i: int) -> Weight:
    """The coordinate weight eps_i, 1-based."""
    if not 1 <= i <= l:
        raise ValueError(f"eps index {i} out of range 1..{l}")
    return tuple(1 if j == i - 1 else 0 for j in range(l))


@dataclass(frozen=True)
class RootSystem:
    """All roots of D_l plus the simple roots alpha_1..alpha_l.

    The enumeration puts alpha_i = eps_i - eps_(i+1) for i < l and
    alpha_l = eps_(l-1) + eps_l, so alpha_l attaches to alpha_(l-2) on
    the Dynkin diagram and <alpha_l, alpha_(l-1)> = 0.
    """

    l: int
    roots: tuple[Weight, ...]
    simple: tuple[Weight, ...]
    root_set: frozenset[Weight]

    def root_index(self, r: Weight) -> int:
        return self.roots.index(r)


def build_root_system(l: int) -> RootSystem:
    """All 2l(l-1) roots {±eps_i ± eps_j, i < j} with the fixed enumeration."""
    if l < 3:
        raise ValueError(f"type D needs rank l >= 3, got {l}")
    roots = []
    for i in range(l):
        for j in range(i + 1, l):
            for si in (1, -1):
                for sj in (1, -1):
                    v = [0] * l
                    v[i] = si
                    v[j] = sj
                    roots.append(tuple(v))
    roots.sort()
    simple = [wsub(eps(l, i), eps(l, i + 1)) for i in range(1, l)]
    simple.append(wadd(eps(l, l - 1), eps(l, l)))
    return RootSystem(l, tuple(roots), tuple(simple), frozenset(roots))


def cartan_number(alpha: Weight, beta: Weight) -> int:
    """Cartan pairing 2(alpha,beta)/(beta,beta); beta must be a root."""
    den = wdot(beta, beta)
    if den == 0:
        raise ValueError("Cartan number undefined for isotropic second argument")
    num = 2 * wdot(alpha, beta)
    if num % den:
        raise ValueError(f"non-integer Cartan number for {alpha}, {beta}")
    return num // den


def reflect(x: Weight, alpha: Weight) -> Weight:
    """Reflection of x in the hyperplane orthogonal to the root alpha."""
    c = cartan_number(x, alpha)
    return tuple(xi - c * ai for xi, ai in zip(x, alpha))


def weyl_orbit(w: Weight, system: RootSystem) -> frozenset[Weight]:
    """Closure of {w} under the simple reflections (breadth-first)."""
    seen = {w}
    frontier = [w]
    while frontier:
        nxt = []
        for x in frontier:
            for a in system.simple:
                y = reflect(x, a)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(seen)


def express_in_simple_roots(w: Weight, system: RootSystem) -> tuple[int, ...] | None:
    """Integer coordinates of w over the simple roots, or None outside the lattice."""
    l = system.l
    # Exact rational solve of (columns = simple roots) * c = w.
    rows = [[Fraction(system.simple[j][i]) for j in range(l)] + [Fraction(w[i])]
            for i in range(l)]
    col = 0
    for c in range(l):
        pivot = None
        for r in range(col, l):
            if rows[r][c]:
                pivot = r
                break
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = 1 / rows[col][c]
        rows[col] = [x * inv for x in rows[col]]
        for r in range(l):
            if r != col and rows[r][c]:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
        col += 1
    coeffs = [rows[i][l] for i in range(l)]
    if any(c.denominator != 1 for c in coeffs):
        return None
    return tuple(int(c) for c in coeffs)
