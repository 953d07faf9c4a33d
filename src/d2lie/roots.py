"""Weights of D_l in epsilon coordinates: sums, packed ints, simple-root coordinates.

Weights are exact integer tuples of length l (coefficients of the
orthonormal characters eps_1..eps_l).  They live in a free abelian group
and are never reduced mod 2: the torus character lattice stays integral
even though all algebra coefficients live in GF(2).
"""

from __future__ import annotations

from itertools import accumulate
from operator import add

Weight = tuple[int, ...]


def wadd(a: Weight, b: Weight) -> Weight:
    if len(a) != len(b):
        raise ValueError(f"weights {a} and {b} differ in length")
    return tuple(map(add, a, b))


def pack_weight(w: Weight, bits: int) -> int:
    """w as one int, coordinate i in the i-th bits-wide field from the top: additive, and while
    every |c_i| < 2^(bits-1), which it checks, one-to-one and keeping the tuple order."""
    p = 0
    for c in w:
        if abs(c) >> (bits - 1):
            raise ValueError(f"weight coordinate {c} of {w} does not fit a {bits}-bit field")
        p = (p << bits) + c
    return p


def unpack_weight(p: int, l: int, bits: int) -> Weight:
    """The weight of length l that pack_weight(., bits) maps to p."""
    half = 1 << (bits - 1)
    q = p + sum(half << bits * i for i in range(l))  # every field shifted into 0 .. 2 half - 1
    return tuple((q >> bits * (l - 1 - i) & (2 * half - 1)) - half for i in range(l))


def wneg(a: Weight) -> Weight:
    return tuple(-x for x in a)


def wzero(l: int) -> Weight:
    return (0,) * l


def is_zero_weight(a: Weight) -> bool:
    return all(x == 0 for x in a)


def express_in_simple_roots(w: Weight) -> tuple[int, ...] | None:
    """Integer coordinates of w over the simple roots of D_l, l = len(w), or
    None outside the lattice.

    For the simple roots alpha_i = eps_i - eps_(i+1), i < l, and
    alpha_l = eps_(l-1) + eps_l of build_chevalley_D, and partial sums
    s_j = w_1 + ... + w_j, w = sum_i c_i alpha_i solves to c_j = s_j for
    j <= l-2, c_(l-1) = (s_(l-1) - w_l) / 2 and c_l = s_l / 2, so the root
    lattice is the weights with an even coordinate sum.
    """
    l = len(w)
    if l < 3:
        raise ValueError(f"type D needs rank l >= 3, got weight {w}")
    s = list(accumulate(w))
    if s[-1] % 2:
        return None
    return (*s[: l - 2], (s[l - 2] - w[-1]) // 2, s[-1] // 2)
