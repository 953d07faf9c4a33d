"""Root system of type D_l in epsilon coordinates.

Weights are exact integer tuples of length l (coefficients of the
orthonormal characters eps_1..eps_l).  They live in a free abelian group
and are never reduced mod 2: the torus character lattice stays integral
even though all algebra coefficients live in GF(2).
"""

from __future__ import annotations

from itertools import accumulate
from operator import add, sub
from typing import NamedTuple

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


class RootSystem(NamedTuple):
    """All roots of D_l plus the simple roots alpha_1..alpha_l.

    The enumeration puts alpha_i = eps_i - eps_(i+1) for i < l and
    alpha_l = eps_(l-1) + eps_l, so alpha_l attaches to alpha_(l-2) on
    the Dynkin diagram and <alpha_l, alpha_(l-1)> = 0.
    """

    l: int
    roots: tuple[Weight, ...]
    simple: tuple[Weight, ...]
    root_set: frozenset[Weight]


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


def express_in_simple_roots(w: Weight, system: RootSystem) -> tuple[int, ...] | None:
    """Integer coordinates of w over the simple roots, or None outside the lattice.

    For the simple roots of build_root_system and partial sums
    s_j = w_1 + ... + w_j, w = sum_i c_i alpha_i solves to c_j = s_j for
    j <= l-2, c_(l-1) = (s_(l-1) - w_l) / 2 and c_l = s_l / 2, so the root
    lattice is the weights with an even coordinate sum.
    """
    l = system.l
    if len(w) != l:
        raise ValueError(f"weight {w} has length {len(w)}, expected {l}")
    s = list(accumulate(w))
    if s[-1] % 2:
        return None
    return (*s[: l - 2], (s[l - 2] - w[-1]) // 2, s[-1] // 2)
