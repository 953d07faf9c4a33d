"""Lie algebras over GF(2) with sparse structure-constant tables.

A LieAlgebra is a finite basis, a bracket table storing [b_i, b_j] for
i < j as packed coordinate vectors, and an integer weight tuple per
basis vector, all of one length.  Instances are immutable after
construction.  Weights stay tuples where they leave the library
(L.weights, reports, row order); the weight sums, the block enumeration
and the homogeneity and additivity scans add them as packed ints
(weight_codes), one integer addition each.  The bracket's cached term
tables (term_tables) are its one adjacency, and the centre is the kernel
of ad, each ad(b_i) one row of the codes table.

build_chevalley_D(l) reduces the Chevalley basis of type D_l mod 2.
All simply laced structure constants are ±1, so mod 2 the table needs
no sign convention: any consistent integral choice gives the same
algebra here.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, product
from operator import add
from typing import NamedTuple

from .gf2 import GF2Matrix, PivotBasis, bit_indices, column_kernel
from .roots import Weight, express_in_simple_roots, pack_weight, unpack_weight, wzero

Label = tuple


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
        self._weight_codes = None
        self._weight_field = (0, 0)  # rank and field width of the packed weights
        self._weight_top = 0  # the largest |coordinate| of a basis weight
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

    def weight_codes(self) -> tuple[int, ...]:
        """The basis weights packed by roots.pack_weight on first use, in fields that hold
        any signed sum of five of them, the weight of a degree-4 basis cochain."""
        if self._weight_codes is None:
            self._weight_top = top = max((abs(c) for w in self.weights for c in w), default=0)
            self._weight_field = (len(self.weights[0]) if self.weights else 0, (5 * top).bit_length() + 1)
            self._weight_codes = tuple(pack_weight(w, self._weight_field[1]) for w in self.weights)
        return self._weight_codes

    def weight_code(self, w: Weight) -> int | None:
        """w packed like weight_codes, or None past the fields, where no basis cochain's weight lies."""
        self.weight_codes()
        l, bits = self._weight_field
        if len(w) != l:
            raise ValueError(f"weight {w} has length {len(w)}, expected {l}")
        return pack_weight(w, bits) if max(map(abs, w), default=0) < 1 << (bits - 1) else None

    def weight_of_code(self, code: int) -> Weight:
        """The weight tuple of a packed weight of this algebra."""
        self.weight_codes()
        return unpack_weight(code, *self._weight_field)

    def weight_sums(self, n: int) -> dict[int, tuple[tuple[int, ...], ...]]:
        """Packed weight -> the sorted index n-tuples whose weights add up to it, in lex order."""
        if n not in self._weight_sums:
            idx: dict[int, list[tuple[int, ...]]] = {}
            sums = map(sum, combinations(self.weight_codes(), n))
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
        while v:
            m = (v & -v).bit_length() - 1
            v ^= 1 << m
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
            indices = []
            while key:  # bit_indices(key) inline, most of the decode of a sparse sum
                indices.append((key & -key).bit_length() - 1)
                key &= key - 1
            data[k] = data.get(k := tuple(indices), 0) | 1 << (t & low)
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
    weights: list[Weight] = [wzero(l)] * l + roots
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


def center(L: LieAlgebra) -> GF2Matrix:
    """The kernel of b_i -> ad(b_i), each ad(b_i) a row of the codes table; made canonical once per algebra.

    column_kernel's basis depends on the column order, so it is row-reduced.
    """
    if L._center is None:
        pos: dict[int, int] = {}
        cols = [sum(1 << pos.setdefault(t, len(pos)) for t in row) for row in L.term_tables()[0]]
        kernel = column_kernel(cols, len(pos))
        L._center = GF2Matrix(len(kernel), L.dim, kernel).row_reduce()
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
        codes = L.weight_codes()
        L._graded = all(
            codes[m] == codes[i] + codes[j]
            for (i, j), v in L.brackets.items()
            for m in bit_indices(v)
        )
    return L._graded


# -- graded isomorphisms ----------------------------------------------


def is_homomorphism(A: LieAlgebra, B: LieAlgebra, theta: list[int]) -> bool:
    """Whether b_i -> theta[i], packed over the basis of B, keeps the bracket of every basis pair.

    [theta b_i, theta b_j] is the sum of the [b_a, b_b] with b_a in theta b_i
    and b_b in theta b_j, so each bracket entry of B is spread over the pairs
    whose images meet it, and the pairs that none meets bracket to 0.
    """
    preimages: list[list[int]] = [[] for _ in range(B.dim)]
    for i, t in enumerate(theta):
        for m in bit_indices(t):
            preimages[m].append(i)
    lhs = {}
    for key, v in A.brackets.items():
        image = 0
        for m in bit_indices(v):
            image ^= theta[m]
        lhs[key] = image
    rhs: dict[tuple[int, int], int] = {}
    for (a, b), v in B.brackets.items():
        for i in preimages[a]:
            for j in preimages[b]:
                if i != j:
                    key = (i, j) if i < j else (j, i)
                    rhs[key] = rhs.get(key, 0) ^ v
    return all(lhs.get(k, 0) == rhs.get(k, 0) for k in lhs.keys() | rhs.keys())


def find_graded_isomorphism(A: LieAlgebra, B: LieAlgebra) -> list[int] | None:
    """The packed images theta(b_i) of an isomorphism A -> B that keeps every weight, or None.

    Each nonzero weight space must be a line on both sides, which forces
    theta(b_w) = b'_w.  At weight 0, theta [b_w, b_-w] = [b'_w, b'_-w] for
    every dual pair: one row reduction of these equations, the image of
    each bracket tagged above bit dim, must leave a unit row on every
    weight-0 basis vector, its image in the tag.  The candidate is returned
    only if it has full rank and is_homomorphism accepts it.

    None does not prove that no isomorphism exists: a nonzero weight space
    of dimension above 1, or a weight-0 part that the dual pairs leave
    undetermined, gives None as well.
    """
    dim = A.dim
    wa, wb = ({w: [i for (i,) in keys] for w, keys in X.weight_sums(1).items()} for X in (A, B))
    # Packed weights are compared in one set of fields; other fields mean other weights.
    if B.dim != dim or A._weight_field != B._weight_field or wa.keys() != wb.keys():
        return None
    if any(len(wa[w]) != len(wb[w]) for w in wa):
        return None
    theta = [0] * dim
    rows = []
    zero_a = zero_b = 0
    for w, ia in wa.items():
        if not w:
            zero_a, zero_b = sum(1 << i for i in ia), sum(1 << i for i in wb[w])
        elif len(ia) != 1:
            return None
        else:
            theta[ia[0]] = 1 << wb[w][0]
            # A weight whose negative is absent has no dual pair.
            if w < -w and -w in wa:
                pair = A.bracket_basis(ia[0], wa[-w][0])
                rows.append(pair | B.bracket_basis(wb[w][0], wb[-w][0]) << dim)
    solved = 0
    for v in GF2Matrix(len(rows), 2 * dim, rows).row_reduce().rows:
        low, image = v & ((1 << dim) - 1), v >> dim
        # Any row but a unit row on a weight-0 vector with a weight-0 image
        # leaves theta undetermined, off weight or inconsistent.
        if low & (low - 1) or not low & zero_a or image & ~zero_b:
            return None
        theta[low.bit_length() - 1] = image
        solved |= low
    if solved != zero_a or PivotBasis(theta).rank != dim or not is_homomorphism(A, B, theta):
        return None
    return theta


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

