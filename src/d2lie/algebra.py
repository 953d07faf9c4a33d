"""Lie algebras over GF(2) with sparse structure-constant tables.

A LieAlgebra is a finite basis, a bracket table storing [b_i, b_j] for
i < j as packed coordinate vectors, and an integer weight tuple per
basis vector, all of one length.  Instances are immutable after
construction.  The bracket's cached term tables (term_tables) are its
one adjacency, and the centre is the kernel of ad, each ad(b_i) one row
of the codes table.

Weights are exact integer tuples, on D_l the coefficients of the
orthonormal characters eps_1..eps_l.  They live in a free abelian group
and are never reduced mod 2: the torus character lattice stays integral
even though every coefficient of the algebra lives in GF(2).  They stay
tuples where they leave the library (L.weights, reports, row order);
the weight sums, the block enumeration and the homogeneity and
additivity scans add them as packed ints (weight_codes), one integer
addition each.  pack_weight puts coordinate i in the i-th field of a
fixed width from the top, so packing is additive, and while every
|coordinate| stays below half the field, one-to-one and order-keeping.
The weight index, the codes and their field widths, is built with the
algebra, so no reader depends on what ran before it.

build_chevalley_D(l) reduces the Chevalley basis of type D_l mod 2.
All simply laced structure constants are ±1, so mod 2 the table needs
no sign convention: any consistent integral choice gives the same
algebra here.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate, combinations, product
from operator import add
from typing import NamedTuple

from .gf2 import bit_indices, column_kernel, row_reduce

Label = tuple
Weight = tuple[int, ...]


# -- packed weights (weight_codes, weight_code, weight_of_code) --------


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


class LieAlgebra:
    """Finite-dimensional algebra with a GF(2) bracket table.

    labels   -- one opaque tag per basis vector, e.g. ("CARTAN", 3)
    weights  -- one integer weight tuple per basis vector
    brackets -- {(i, j): packed vector} for i < j, nonzero entries only
    """

    def __init__(self, labels, weights, brackets):
        labels = tuple(labels)
        weights = tuple(tuple(w) for w in weights)
        if len(labels) != len(weights):
            raise ValueError("labels and weights must align")
        for i, w in enumerate(weights):
            if len(w) != len(weights[0]):
                raise ValueError(f"basis weight {i} has length {len(w)}, expected {len(weights[0])}")
        dim = len(labels)
        table = {}
        for (i, j), v in brackets.items():
            if not (0 <= i < j < dim):
                raise ValueError(f"bad bracket key ({i}, {j})")
            if v < 0 or v >> dim:
                raise ValueError(f"bracket ({i}, {j}) has bits outside the basis")
            if v:
                table[(i, j)] = v
        self.dim = dim
        self.labels = labels
        self.weights = weights
        self.brackets = table
        self._automorphisms = None
        self._term_tables = None
        self._center = None
        self._graded = None
        # weight_codes packs the basis weights by pack_weight in _weight_field,
        # (rank, field width): fields that hold any signed sum of four of them, the
        # weight of a degree-3 basis cochain.  _weight_top is their largest |coordinate|.
        self._weight_top = top = max((abs(c) for w in weights for c in w), default=0)
        self._weight_field = (len(weights[0]) if weights else 0, (4 * top).bit_length() + 1)
        self.weight_codes = tuple(pack_weight(w, self._weight_field[1]) for w in weights)
        self._weight_sums: dict[int, dict[int, tuple[tuple[int, ...], ...]]] = {}

    # -- bracket evaluation -------------------------------------------

    def bracket_basis(self, i: int, j: int) -> int:
        if i == j:
            return 0
        if i > j:
            i, j = j, i
        return self.brackets.get((i, j), 0)

    # -- cached indexes ------------------------------------------------

    def term_tables(self) -> tuple[list[list[int]], list[list[int]]]:
        """The term tables of the bracket in key order (_term_tables), built on first use."""
        if self._term_tables is None:
            self._term_tables = _term_tables(dict(sorted(self.brackets.items())), self.dim)
        return self._term_tables

    def weight_code(self, w: Weight) -> int | None:
        """w packed like weight_codes, or None past the fields, where no basis cochain's weight lies."""
        l, bits = self._weight_field
        if len(w) != l:
            raise ValueError(f"weight {w} has length {len(w)}, expected {l}")
        return pack_weight(w, bits) if max(map(abs, w), default=0) < 1 << (bits - 1) else None

    def weight_of_code(self, code: int) -> Weight:
        """The weight tuple of a packed weight of this algebra."""
        return unpack_weight(code, *self._weight_field)

    def weight_sums(self, n: int) -> dict[int, tuple[tuple[int, ...], ...]]:
        """Packed weight -> the sorted index n-tuples whose weights add up to it, in lex order."""
        if n not in self._weight_sums:
            idx: dict[int, list[tuple[int, ...]]] = {}
            sums = map(sum, combinations(self.weight_codes, n))
            for key, w in zip(combinations(range(self.dim), n), sums):
                idx.setdefault(w, []).append(key)
            self._weight_sums[n] = {w: tuple(v) for w, v in idx.items()}
        return self._weight_sums[n]

    def __repr__(self) -> str:
        return f"LieAlgebra(dim={self.dim})"


# -- packed coordinates (_coord_code) ---------------------------------
# A term of a cyclic sum is a mask union, and a term whose new index is
# already in its key has an index fewer.


def _coord_code(key, k: int, dim: int) -> int:
    """The packed coordinate (key, value index k): the key's mask << dim.bit_length() | k."""
    return sum(map((1).__lshift__, key)) << dim.bit_length() | k


def _term_tables(data: dict[tuple[int, ...], int], dim: int) -> tuple[list[list[int]], list[list[int]]]:
    """Term tables of an alternating map {sorted key: packed value} on dim basis vectors, in data's
    order then m: codes[i] lists the coordinate (key without i, m) of each b_m in the value of a key
    that holds i, on a bracket table the ((a,), m) of each b_m in [b_a, b_i]; pairs[m] lists the
    coordinate (key, 0) of each key whose value involves b_m."""
    bit = [1 << i for i in range(dim.bit_length(), dim.bit_length() + dim)]
    codes: list[list[int]] = [[] for _ in range(dim)]
    pairs: list[list[int]] = [[] for _ in range(dim)]
    for key, v in data.items():
        mask = sum(map(bit.__getitem__, key))
        for m in bit_indices(v):
            pairs[m].append(mask)
            for i in key:
                codes[i].append(mask ^ bit[i] | m)
    return codes, pairs


def composed_terms(f: tuple, g: tuple) -> list[int]:
    """The terms of g(f(x, ..), y, ..) for the term tables f and g: each key whose f-value
    involves b_m meets each coordinate of g at b_m; an index in both leaves fewer indices."""
    return [p | t for ps, ts in zip(f[1], g[0]) for p in ps for t in ts]


def odd_coords(terms: list[int], dim: int, n: int) -> dict[tuple[int, ...], int]:
    """{key: packed value} of the coordinates with n key indices that occur an odd number
    of times in terms: the decode of every cyclic sum, which lists its terms as coordinates."""
    s = dim.bit_length()
    low = (1 << s) - 1
    data: dict[tuple[int, ...], int] = {}
    for t in [t for t, count in Counter(terms).items() if count & 1]:
        if (key := t >> s).bit_count() == n:
            data[k] = data.get(k := tuple(bit_indices(key)), 0) | 1 << (t & low)
    return data


def jacobiator(tables: tuple, dim: int) -> dict[tuple[int, int, int], int]:
    """The cyclic sum f(f(x, y), z) + f(f(y, z), x) + f(f(z, x), y) on basis triples.

    tables are the term tables (_term_tables) of an alternating map on dim basis
    vectors.  The result maps each sorted triple with a nonzero sum to that sum:
    on a bracket table the Jacobi defect, on a degree-2 cochain the cup square.
    """
    return odd_coords(composed_terms(tables, tables), dim, 3)


class JacobiReport(NamedTuple):
    ok: bool
    triple: tuple[int, int, int] | None = None
    defect: int = 0

    def __bool__(self) -> bool:
        return self.ok


# -- construction -----------------------------------------------------


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


def build_chevalley_D(l: int) -> LieAlgebra:
    """Type D_l over GF(2): Cartans H_1..H_l, then the root vectors of
    ±eps_p ± eps_q, p < q, in lex order.

    Brackets mod 2:
      [H_i, H_j] = 0
      [H_i, E_a] = <a, alpha_i> E_a: odd iff a is nonzero at just one of
        i, i+1 for alpha_i = eps_i - eps_(i+1) (i < l), or of l-1, l for
        alpha_l = eps_(l-1) + eps_l, as a root's coordinates are 0 or ±1
      [E_a, E_-a] = H_a, the mod-2 simple-root coordinates of a
      [E_a, E_b] = E_(a+b) when a+b is a root, else 0
    Coefficients of 2 in H_a vanish; that is correct behaviour, not data
    loss.
    """
    if l < 3:
        raise ValueError(f"type D needs rank l >= 3, got {l}")
    roots = sorted(
        tuple(sp * (k == p) + sq * (k == q) for k in range(l))
        for p, q in combinations(range(l), 2)
        for sp, sq in product((1, -1), repeat=2)
    )
    labels: list[Label] = [("CARTAN", i) for i in range(1, l + 1)]
    labels += [("ROOTVEC", r) for r in roots]
    weights: list[Weight] = [(0,) * l] * l + roots
    idx_of_root = {r: l + k for k, r in enumerate(roots)}
    touched = [(i, i + 1) for i in range(l - 1)] + [(l - 2, l - 1)]

    brackets: dict[tuple[int, int], int] = {}
    for k, a in enumerate(roots):
        ia = l + k
        for i, (x, y) in enumerate(touched):
            if (a[x] != 0) ^ (a[y] != 0):
                brackets[(i, ia)] = 1 << ia
        for ib, b in enumerate(roots[k + 1:], ia + 1):
            s = tuple(map(add, a, b))
            if not any(s):
                coeffs = express_in_simple_roots(a)
                if coeffs is None:
                    raise ArithmeticError(f"root {a} is outside the simple-root lattice")
                brackets[(ia, ib)] = sum((c & 1) << i for i, c in enumerate(coeffs))
            elif s in idx_of_root:
                brackets[(ia, ib)] = 1 << idx_of_root[s]

    return LieAlgebra(labels, weights, brackets)


# -- structural queries -----------------------------------------------


def center(L: LieAlgebra) -> tuple[int, ...]:
    """The centre as its RREF rows sorted by pivot (gf2.row_reduce), found once per algebra.

    It is the kernel of b_i -> ad(b_i), each ad(b_i) a row of the codes
    table.  column_kernel's basis depends on the column order, so it is
    row-reduced.
    """
    if L._center is None:
        pos: dict[int, int] = {}
        cols = [sum(1 << pos.setdefault(t, len(pos)) for t in row) for row in L.term_tables()[0]]
        L._center = row_reduce(column_kernel(cols, len(pos)))
    return L._center


def check_jacobi(L: LieAlgebra) -> JacobiReport:
    """Jacobi identity on all basis triples; a failure names the lex-first triple."""
    defects = jacobiator(L.term_tables(), L.dim)
    if not defects:
        return JacobiReport(True)
    triple = min(defects)
    return JacobiReport(False, triple, defects[triple])


def check_weight_additivity(L: LieAlgebra) -> bool:
    """Every stored bracket entry lands in the weight-(mu+nu) subspace; checked once per algebra."""
    if L._graded is None:
        codes = L.weight_codes
        L._graded = all(
            codes[m] == codes[i] + codes[j]
            for (i, j), v in L.brackets.items()
            for m in bit_indices(v)
        )
    return L._graded


# -- expected centre generators ---------------------------------------


def expected_center_generators(l: int) -> list[int]:
    """H_l + H_(l-1), plus H_(l-1) + H_(l-3) + ... + H_3 + H_1 for even l, packed."""
    gens = [0b11 << (l - 2)]
    if l % 2 == 0:
        gens.append(sum(1 << i for i in range(0, l - 1, 2)))
    return gens


# -- serialization ----------------------------------------------------


def format_label(label: Label) -> str:
    kind = label[0]
    if kind == "CARTAN":
        return f"H{label[1]}"
    if kind == "ROOTVEC":
        return "E(" + ",".join(str(c) for c in label[1]) + ")"
    if kind == "MONO":
        a, b = label[1]
        return f"e{a}^e{b}"
    return str(label)


def chevalley_rank(L: LieAlgebra) -> int:
    """Recover l from a build_chevalley_D result (weight-vector length)."""
    if not L.weights:
        raise ValueError("empty algebra")
    return len(L.weights[0])

