"""Lie algebras over GF(2) with sparse structure-constant tables.

A LieAlgebra is a finite basis, a bracket table storing [b_i, b_j] for
i < j as packed coordinate vectors, and an integer weight label per
basis vector.  Instances are immutable after construction.

build_chevalley_D(l) reduces the Chevalley basis of type D_l mod 2.
All simply laced structure constants are ±1, so mod 2 the table needs
no sign convention: any consistent integral choice gives the same
algebra here.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .gf2 import GF2Matrix, PivotBasis, bit_indices
from .roots import (
    Weight,
    build_root_system,
    express_in_simple_roots,
    is_zero_weight,
    wadd,
    wdot,
    wneg,
    wzero,
)

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
        self._adjacency = None
        self._term_codes = None
        self._center = None
        self._jacobiator = None
        self._graded = None
        self._weight_index = None
        self._weight_sums: dict[int, dict[Weight, tuple[tuple[int, ...], ...]]] = {}

    # -- bracket evaluation -------------------------------------------

    def bracket_basis(self, i: int, j: int) -> int:
        if i == j:
            return 0
        if i > j:
            i, j = j, i
        return self.brackets.get((i, j), 0)

    def bracket_vec_basis(self, x: int, j: int) -> int:
        """[x, b_j] for a packed vector x."""
        table = self.brackets
        out = 0
        while x:
            low = x & -x
            i = low.bit_length() - 1
            x ^= low
            if i != j:
                out ^= table.get((i, j) if i < j else (j, i), 0)
        return out

    def bracket(self, x: int, y: int) -> int:
        """Bilinear bracket of two packed vectors."""
        out = 0
        while y:
            low = y & -y
            out ^= self.bracket_vec_basis(x, low.bit_length() - 1)
            y ^= low
        return out

    # -- cached indexes ------------------------------------------------

    def weight_index(self) -> dict[Weight, tuple[int, ...]]:
        """Weight -> indices of the basis vectors carrying it."""
        if self._weight_index is None:
            sums = self.weight_sums(1)
            self._weight_index = {w: tuple(i for (i,) in keys) for w, keys in sums.items()}
        return self._weight_index

    def weight_sums(self, n: int) -> dict[Weight, tuple[tuple[int, ...], ...]]:
        """Weight -> the sorted index n-tuples whose weights add up to it, in lex order."""
        if n not in self._weight_sums:
            idx: dict[Weight, list[tuple[int, ...]]] = {}
            weights = self.weights
            for key in combinations(range(self.dim), n):
                w = weights[key[0]]
                for i in key[1:]:
                    w = wadd(w, weights[i])
                idx.setdefault(w, []).append(key)
            self._weight_sums[n] = {w: tuple(v) for w, v in idx.items()}
        return self._weight_sums[n]

    def adjacency(self) -> list[list[tuple[int, int]]]:
        """For each k, the pairs (a, [b_a, b_k]) with a nonzero bracket, by a."""
        if self._adjacency is None:
            self._adjacency = _adjacency(self.brackets, self.dim)
        return self._adjacency

    def __repr__(self) -> str:
        return f"LieAlgebra(dim={self.dim})"


def _adjacency(table: dict[tuple[int, int], int], dim: int) -> list[list[tuple[int, int]]]:
    """For each k < dim, the pairs (a, f(b_a, b_k)) of an alternating table, by a."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(dim)]
    # In key order each list receives its partners in increasing order.
    for (i, j), v in sorted(table.items()):
        adj[i].append((j, v))
        adj[j].append((i, v))
    return adj


def jacobiator(table: dict[tuple[int, int], int]) -> dict[tuple[int, int, int], int]:
    """The cyclic sum f(f(x, y), z) + f(f(y, z), x) + f(f(z, x), y) on basis triples.

    table is an alternating bilinear map {(i, j): packed f(b_i, b_j)}, i < j.
    The result maps each sorted triple with a nonzero sum to that sum: on a
    bracket table it is the Jacobi defect, on a degree-2 cochain psi the cup
    square psi u psi.  Each entry (a, b) -> v meets each c outside {a, b}
    through the adjacency of the set bits m of v, since f(v, b_c) is the sum
    of the f(b_m, b_c); a key whose sum cancels to zero is dropped at once.
    """
    dim = max((max(j + 1, v.bit_length()) for (_, j), v in table.items()), default=0)
    adj = _adjacency(table, dim)
    out: dict[tuple[int, int, int], int] = {}
    for (a, b), v in table.items():
        for m in bit_indices(v):
            for c, w in adj[m]:
                if c == a or c == b:
                    continue
                key = tuple(sorted((a, b, c)))
                w ^= out.pop(key, 0)
                if w:
                    out[key] = w
    return out


@dataclass(frozen=True)
class Subspace:
    """Row space of a GF2Matrix inside GF(2)^ambient."""

    ambient: int
    basis: GF2Matrix

    @property
    def dim(self) -> int:
        return self.basis.nrows

    def contains(self, bits: int) -> bool:
        return PivotBasis(self.basis.rows).contains(bits)

    def canonical(self) -> GF2Matrix:
        return self.basis.row_reduce()

    def same_space(self, other: Subspace) -> bool:
        return self.ambient == other.ambient and self.canonical() == other.canonical()


@dataclass(frozen=True)
class JacobiReport:
    ok: bool
    triple: tuple[int, int, int] | None = None
    defect: int = 0

    def __bool__(self) -> bool:
        return self.ok


# -- construction -----------------------------------------------------


def build_chevalley_D(l: int) -> LieAlgebra:
    """Type D_l over GF(2): Cartans H_1..H_l, then root vectors in lex order.

    Brackets mod 2:
      [H_i, H_j] = 0
      [H_i, E_a] = <a, alpha_i> E_a
      [E_a, E_-a] = H_a, the mod-2 simple-root coordinates of a
      [E_a, E_b] = E_(a+b) when a+b is a root, else 0
    Coefficients of 2 in H_a vanish; that is correct behaviour, not data
    loss.
    """
    system = build_root_system(l)
    roots = system.roots
    dim = l + len(roots)
    labels: list[Label] = [("CARTAN", i) for i in range(1, l + 1)]
    labels += [("ROOTVEC", r) for r in roots]
    weights: list[Weight] = [wzero(l)] * l + list(roots)
    idx_of_root = {r: l + k for k, r in enumerate(roots)}

    h_alpha: dict[Weight, int] = {}
    for r in roots:
        coeffs = express_in_simple_roots(r, system)
        if coeffs is None:
            raise ArithmeticError(f"root {r} is outside the simple-root lattice")
        bits = 0
        for i, c in enumerate(coeffs):
            if c & 1:
                bits |= 1 << i
        h_alpha[r] = bits

    brackets: dict[tuple[int, int], int] = {}
    for k, a in enumerate(roots):
        ia = l + k
        for i in range(l):
            if wdot(a, system.simple[i]) & 1:
                brackets[(i, ia)] = 1 << ia
        for b in roots[k + 1:]:
            ib = idx_of_root[b]
            s = wadd(a, b)
            if is_zero_weight(s):
                if h_alpha[a]:
                    brackets[(ia, ib)] = h_alpha[a]
            elif s in system.root_set:
                brackets[(ia, ib)] = 1 << idx_of_root[s]

    return LieAlgebra(labels, weights, brackets)


# -- structural queries -----------------------------------------------


def center(L: LieAlgebra) -> Subspace:
    """Nullspace of the stacked adjoint maps z -> [z, b_j], computed once per algebra."""
    if L._center is None:
        # Row (j, m): coefficient of b_m in [b_i, b_j], as a function of i.
        row_map: dict[tuple[int, int], int] = {}
        for (i, j), v in L.brackets.items():
            for m in bit_indices(v):
                # [b_i, b_j] contributes to constraint rows of both arguments.
                row_map[(j, m)] = row_map.get((j, m), 0) | (1 << i)
                row_map[(i, m)] = row_map.get((i, m), 0) | (1 << j)
        rows = [row_map[k] for k in sorted(row_map)]
        L._center = Subspace(L.dim, GF2Matrix(len(rows), L.dim, rows).nullspace())
    return L._center


def bracket_jacobiator(L: LieAlgebra) -> dict[tuple[int, int, int], int]:
    """jacobiator(L.brackets), the Jacobi defect of L, computed once per algebra."""
    if L._jacobiator is None:
        L._jacobiator = jacobiator(L.brackets)
    return L._jacobiator


def check_jacobi(L: LieAlgebra) -> JacobiReport:
    """Jacobi identity on all basis triples; a failure names the lex-first triple."""
    defects = bracket_jacobiator(L)
    if not defects:
        return JacobiReport(True)
    triple = min(defects)
    return JacobiReport(False, triple, defects[triple])


def check_weight_additivity(L: LieAlgebra) -> bool:
    """Every stored bracket entry lands in the weight-(mu+nu) subspace; checked once per algebra."""
    if L._graded is None:
        weights = L.weights
        L._graded = all(
            weights[m] == wadd(weights[i], weights[j])
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
    wa, wb = A.weight_index(), B.weight_index()
    if B.dim != dim or wa.keys() != wb.keys() or any(len(wa[w]) != len(wb[w]) for w in wa):
        return None
    theta = [0] * dim
    rows = []
    zero_a = zero_b = 0
    for w, ia in wa.items():
        if is_zero_weight(w):
            zero_a, zero_b = sum(1 << i for i in ia), sum(1 << i for i in wb[w])
        elif len(ia) != 1:
            return None
        else:
            theta[ia[0]] = 1 << wb[w][0]
            nw = wneg(w)
            # A weight whose negative is absent has no dual pair.
            if w < nw and nw in wa:
                pair = A.bracket_basis(ia[0], wa[nw][0])
                rows.append(pair | B.bracket_basis(wb[w][0], wb[nw][0]) << dim)
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


# -- central quotients ------------------------------------------------


def quotient_with_projection(
    L: LieAlgebra, Z: Subspace
) -> tuple[LieAlgebra, GF2Matrix]:
    """Quotient by a central subspace plus the old-basis projection matrix.

    Coset representatives drop the lowest index of each row of
    Z.canonical(), its RREF pivot; the choice is arbitrary but fixed,
    and every downstream quantity is representative-independent because
    Z is central.
    """
    dim = L.dim
    if Z.ambient != dim:
        raise ValueError("subspace ambient dimension mismatch")
    for z in Z.basis.rows:
        for j in range(dim):
            if L.bracket_vec_basis(z, j):
                raise ValueError("subspace is not central")
        for m in bit_indices(z):
            if not is_zero_weight(L.weights[m]):
                raise ValueError("central generators must be weight-0 combinations")

    # An RREF row's pivot appears in no other row, so adding the row
    # rewrites b_pivot as the rest of the row, modulo Z.
    pivot_rows = {z & -z: z for z in Z.canonical().rows}
    dropped = {low.bit_length() - 1 for low in pivot_rows}
    kept = [i for i in range(dim) if i not in dropped]
    new_pos = {old: new for new, old in enumerate(kept)}

    def project(bits: int) -> int:
        for low, z in pivot_rows.items():
            if bits & low:
                bits ^= z
        out = 0
        while bits:
            low = bits & -bits
            out |= 1 << new_pos[low.bit_length() - 1]
            bits ^= low
        return out

    if not dropped:
        return LieAlgebra(L.labels, L.weights, dict(L.brackets)), GF2Matrix.identity(dim)

    labels = [("COSET", L.labels[i]) for i in kept]
    weights = [L.weights[i] for i in kept]
    brackets = {}
    for a in range(len(kept)):
        for b in range(a + 1, len(kept)):
            v = project(L.bracket_basis(kept[a], kept[b]))
            if v:
                brackets[(a, b)] = v
    proj = GF2Matrix(dim, len(kept), [project(1 << i) for i in range(dim)])
    return LieAlgebra(labels, weights, brackets), proj


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
    if kind == "COSET":
        return "[" + format_label(label[1]) + "]"
    if kind == "MONO":
        a, b = label[1]
        return f"e{a}^e{b}"
    return str(label)


def chevalley_rank(L: LieAlgebra) -> int:
    """Recover l from a build_chevalley_D result (weight-vector length)."""
    if not L.weights:
        raise ValueError("empty algebra")
    return len(L.weights[0])


__all__ = [
    "LieAlgebra",
    "Subspace",
    "JacobiReport",
    "build_chevalley_D",
    "center",
    "check_jacobi",
    "bracket_jacobiator",
    "jacobiator",
    "check_weight_additivity",
    "is_homomorphism",
    "find_graded_isomorphism",
    "quotient_with_projection",
    "expected_center_generators",
    "format_label",
    "chevalley_rank",
]
