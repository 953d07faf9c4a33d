"""Slow references shared by the test modules.

- The root system of D_l (build_root_system, RootSystem) and the
  Chevalley algebra built on it (chevalley_D_from_root_system):
  <a, alpha_i> as a dot product with the simple roots, and every root
  pair summed with wadd and looked up in the root set.
  build_chevalley_D, which enumerates the roots itself and reads
  <a, alpha_i> mod 2 off two coordinates, must equal it in labels,
  weights and bracket items, insertion order included.
- The truncated-ring Jacobi sum: f_t = [,] + t psi over K[t]/(t^3),
  evaluated at one basis triple at a time.  The decision the
  integrability command makes, check_jacobi on L and a ZERO verdict,
  must agree with it power by power: check_jacobi names its t^0
  failure, obstruction_verdict's error its t^1 failure and a
  NONTRIVIAL witness its t^2 failure.
- The value psi(x, b_c) of a 2-cochain on a packed vector x, summed
  pair by pair (eval_vec_basis).  vanishes_on_center, a parity over
  psi's term tables, must agree with it on every centre row and basis
  vector; the truncated-ring Jacobi sum evaluates psi with it too.
- The dense column-sweep reduced row echelon form over GF(2); the
  library's rank and row_reduce, a function that returns the RREF as a
  tuple of rows sorted by pivot (center(L) is one), must equal what it
  gives, bit for bit, and column_kernel after row_reduce its kernel
  basis in RREF.
- The centre from constraint rows (constraint_center): row (j, m) has
  bit i when b_m is in [b_i, b_j], and its RREF kernel, reduced, must
  equal center(L).
- The coboundary test by a dense solve (coboundary_preimage) on the
  block's dense differential (dense_differential): is_coboundary must
  answer whether c is in its column span, and d of the preimage is c.
- The weight -> dim H^2 map of the survey rows (h2_weight_survey).
- The torus pruning by functionals (functional_pruned_weights): for each
  diagonal weight-0 h, lambda with lambda . w_k = chi_h(k) mod 2 by
  rref_solve on the weight parities, and the C^2 weights with every
  lambda . mu even; _c2_weights on _torus_characters must list the same.
- The unpruned H^2 survey, which ranks every weight block of C^2, the
  per-weight survey, which ranks every block torus pruning keeps, and
  the ungraded H^2, which ranks the whole complex at once; the orbit
  survey must give the same rows and the same total.
- The dense product d2 d1 of a weight block, which must vanish, and a
  representative cocycle from the block's dense matrices.
- The wedge-square model on packed vectors of V, in full monomial
  coordinates (all_monomials, monomial_pos, omega_bits), where omega is
  not yet zero: basis_vector, the symplectic form, wedge_of_vectors,
  the four-term Poisson bracket of two monomials (poisson_mono) and the
  eight-term phi_eval, which the library's closed forms on basis
  monomials replace.  The model's bracket table must equal poisson_mono
  on every kept pair, reduced, in the same key order; phi at each basis
  vector must equal dense_phi_of_vector, which evaluates phi_eval on
  every pair of model monomials, keys in the same order.  phi_eval at
  general vectors also carries the equivariance and closed-form
  cross-checks.
- The per-bit reduction of full monomial coordinates to model
  coordinates (per_bit_reduce), which rewrites e_l e_-l and looks up each
  monomial's kept position; the library's table of e_x e_y in model
  coordinates must agree with it on every monomial.
- The closed formulas for the automorphism over a signed permutation g:
  E_a -> E_(g a) and H_i -> H_(g alpha_i) on D_l, and e_a e_b ->
  per_bit_reduce(e_(g a) e_(g b)) on the model; the automorphisms the
  survey derives from the algebra must equal them.
- The action of such a theta on cochains by its definition
  (dense_transport): theta^-1 from a column-sweep RREF (dense_inverse),
  and theta c(theta^-1 b_j1, ..) evaluated at every index tuple.
  The sparse transport, which moves each key of c with theta^-1 from
  one tagged row reduction (invert), must equal it and commute with the
  differential.  cohomology.intertwines, which the rigidity scan uses to
  carry d phi = 0 without forming theta^-1, must accept a 2-cochain
  against theta . c and against nothing else.
- The rigidity scan that judges every class with obstruction_verdict
  (per_class_rigidity_scan); the scan that carries d phi = 0 along the
  orbit must return the same reports.

- The quotient of D_l by its centre, built by projecting every bracket;
  the wedge-square model must be graded-isomorphic to it.
- The weight of a basis cochain on weight tuples (basis_cochain_weight);
  cochain_weight's scan over packed weights must agree with it.
- The argument pairs of the even-rank cocycle from the root system
  (root_pair_keys): the pairs of E_-g, E_-d over the roots g < d with
  g + d = mu.  build_even_cocycle, which reads them off the weight-sum
  index, must key its psi on the same set.

It also holds helpers that more than one test module uses: the weight
tuple arithmetic (wadd, wsub, wneg, wzero, is_zero_weight, wdot, eps),
which the library does inline at its few call sites, brackets and
cochain values on packed vectors and basis indices, the decode of a
packed coordinate (coord_of_code), the basis cochains of a weight block,
the model index of a monomial, symplectic transvections and Weyl orbits.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from operator import add, sub
from typing import NamedTuple

from d2lie.cohomology import (
    Cochain,
    _block_coords,
    _block_row,
    _c2_weights,
    _image_rank,
    _torus_characters,
    cochain_weight,
    differential,
    h2_survey_rows,
    weight_block,
)
from d2lie.deformation import obstruction_verdict
from d2lie.exterior import SymplecticSpace, phi
from d2lie.algebra import Label, LieAlgebra, Weight, _coord_code, express_in_simple_roots, odd_coords
from d2lie.gf2 import GF2Matrix, PivotBasis, bit_indices, row_reduce


# -- the root system of D_l ------------------------------------------------


def wadd(a: Weight, b: Weight) -> Weight:
    if len(a) != len(b):
        raise ValueError(f"weights {a} and {b} differ in length")
    return tuple(map(add, a, b))


def wneg(a: Weight) -> Weight:
    return tuple(-x for x in a)


def wzero(l: int) -> Weight:
    return (0,) * l


def is_zero_weight(a: Weight) -> bool:
    return all(x == 0 for x in a)


def wsub(a: Weight, b: Weight) -> Weight:
    if len(a) != len(b):
        raise ValueError(f"weights {a} and {b} differ in length")
    return tuple(map(sub, a, b))


def wdot(a: Weight, b: Weight) -> int:
    return sum(x * y for x, y in zip(a, b, strict=True))


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


def chevalley_D_from_root_system(l: int) -> LieAlgebra:
    """Type D_l over GF(2) from build_root_system: Cartans H_1..H_l, then
    root vectors in lex order, with the brackets of build_chevalley_D.

    Brackets mod 2:
      [H_i, H_j] = 0
      [H_i, E_a] = <a, alpha_i> E_a
      [E_a, E_-a] = H_a, the mod-2 simple-root coordinates of a
      [E_a, E_b] = E_(a+b) when a+b is a root, else 0
    """
    system = build_root_system(l)
    roots = system.roots
    labels: list[Label] = [("CARTAN", i) for i in range(1, l + 1)]
    labels += [("ROOTVEC", r) for r in roots]
    weights: list[Weight] = [wzero(l)] * l + list(roots)
    idx_of_root = {r: l + k for k, r in enumerate(roots)}

    h_alpha: dict[Weight, int] = {}
    for r in roots:
        coeffs = express_in_simple_roots(r)
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


# -- brackets and cochain values ------------------------------------------


def bracket_vec_basis(L, x, j):
    """[x, b_j] for a packed vector x."""
    out = 0
    for i in bit_indices(x):
        out ^= L.bracket_basis(i, j)
    return out


def bracket(L, x, y):
    """The bilinear bracket of two packed vectors."""
    out = 0
    for j in bit_indices(y):
        out ^= bracket_vec_basis(L, x, j)
    return out


def basis_cochain_weight(L, key, value_index):
    """weight(value) minus the sum of the argument weights, on weight tuples;
    the oracle of cochain_weight's packed scan."""
    w = L.weights[value_index]
    for i in key:
        w = wsub(w, L.weights[i])
    return w


def coord_of_code(code, dim):
    """The (key, value index) a packed coordinate codes, inverse to _coord_code."""
    s = dim.bit_length()
    return tuple(bit_indices(code >> s)), code & ((1 << s) - 1)


def eval_vec_basis(psi, x, c):
    """psi(x, b_c) for a packed vector x and a basis index c, pair by pair; degree 2 only."""
    if psi.degree != 2:
        raise ValueError("eval_vec_basis needs a degree-2 cochain")
    out = 0
    for m in bit_indices(x):
        if m != c:
            out ^= psi.data.get((m, c) if m < c else (c, m), 0)
    return out


def eval_basis(c, *indices):
    """c on the basis vectors b_i for i in indices: symmetric, and 0 when an index repeats."""
    if len(indices) != c.degree:
        raise ValueError("arity mismatch")
    if len(set(indices)) != c.degree:
        return 0
    return c.data.get(tuple(sorted(indices)), 0)


def truncated_jacobi(L, psi, i, j, k):
    """Coefficients of 1, t and t^2 in the Jacobi sum of f_t at (b_i, b_j, b_k).

    f_t(b_x, b_y) = c0 + t c1 with c0 = [b_x, b_y] and c1 = psi(b_x, b_y), so
    f_t(f_t(b_x, b_y), b_z) = [c0, b_z] + t ([c1, b_z] + psi(c0, b_z)) + t^2 psi(c1, b_z).
    """
    out = [0, 0, 0]
    for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
        c0, c1 = L.bracket_basis(x, y), eval_basis(psi, x, y)
        out[0] ^= bracket_vec_basis(L, c0, z)
        out[1] ^= bracket_vec_basis(L, c1, z) ^ eval_vec_basis(psi, c0, z)
        out[2] ^= eval_vec_basis(psi, c1, z)
    return tuple(out)


def first_truncated_failures(L, psi):
    """{power: (triple, value)}: for each power of t whose coefficient in the
    Jacobi sum of f_t is nonzero somewhere, the lex-first such basis triple
    and the coefficient there.  Empty when f_t satisfies the Jacobi identity."""
    out = {}
    for triple in combinations(range(L.dim), 3):
        for power, value in enumerate(truncated_jacobi(L, psi, *triple)):
            if value and power not in out:
                out[power] = triple, value
    return out


# -- GF(2) reduced row echelon form -------------------------------------


def rref(rows, ncols):
    """Reduced row echelon form of packed rows, in place; returns (rows, pivot columns)."""
    pivots = []
    r = 0
    nrows = len(rows)
    for c in range(ncols):
        pivot = None
        for k in range(r, nrows):
            if (rows[k] >> c) & 1:
                pivot = k
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for k in range(nrows):
            if k != r and (rows[k] >> c) & 1:
                rows[k] ^= rows[r]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def rref_rank(m):
    return len(rref(list(m.rows), m.ncols)[1])


def rref_row_reduce(m):
    """The nonzero RREF rows of m."""
    rows, pivots = rref(list(m.rows), m.ncols)
    return tuple(rows[: len(pivots)])


def rref_nullspace(m):
    """One kernel vector per free column f: e_f plus the pivot columns whose row has bit f."""
    rows, pivots = rref(list(m.rows), m.ncols)
    basis = []
    for f in sorted(set(range(m.ncols)) - set(pivots)):
        v = 1 << f
        for r, c in enumerate(pivots):
            if (rows[r] >> f) & 1:
                v |= 1 << c
        basis.append(v)
    return tuple(basis)


def rref_solve(m, b):
    """The solution of m x = b with free coordinates 0, or None."""
    aug = [r | (((b >> i) & 1) << m.ncols) for i, r in enumerate(m.rows)]
    aug, pivots = rref(aug, m.ncols)
    if any(aug[r] >> m.ncols for r in range(len(pivots), m.nrows)):
        return None
    x = 0
    for r, c in enumerate(pivots):
        if aug[r] >> m.ncols:
            x |= 1 << c
    return x


def mul_vector(m, x):
    """m x for a packed vector x over the columns of m, packed over its rows."""
    bits = 0
    for i, r in enumerate(m.rows):
        if (r & x).bit_count() & 1:
            bits |= 1 << i
    return bits


# -- the centre ----------------------------------------------------------


def constraint_center(L):
    """The reduced rows of the centre from constraint rows: row (j, m), in (j, m) order, has
    bit i when b_m is in [b_i, b_j]; the RREF kernel of their matrix, in RREF."""
    row_map = {}
    for (i, j), v in L.brackets.items():
        for m in bit_indices(v):
            row_map[(j, m)] = row_map.get((j, m), 0) | 1 << i
            row_map[(i, m)] = row_map.get((i, m), 0) | 1 << j
    rows = [row_map[k] for k in sorted(row_map)]
    kernel = rref_nullspace(GF2Matrix(len(rows), L.dim, rows))
    return rref_row_reduce(GF2Matrix(len(kernel), L.dim, kernel))


# -- second cohomology --------------------------------------------------


def h2_weight_survey(L):
    """Map weight -> dim H^2 over the weights where it is nonzero, from h2_survey_rows."""
    return {r["weight"]: r["dim_h2"] for r in h2_survey_rows(L)}


def unpruned_survey_rows(L):
    """h2_survey_rows without torus pruning: every C^2 weight block is ranked."""
    rows = (_block_row(L, mu) for mu in _c2_weights(L))
    return [r for r in rows if r["dim_h2"]]


def per_weight_survey_rows(L):
    """h2_survey_rows without orbits: every block torus pruning keeps is ranked."""
    rows = (_block_row(L, mu) for mu in _c2_weights(L, _torus_characters(L)))
    return [r for r in rows if r["dim_h2"]]


def functional_pruned_weights(L):
    """The C^2 weights mu with lambda . mu even for every torus functional lambda, sorted.

    h gives a functional when it has weight 0 and [h, b_k] is 0 or b_k for
    every k (from bracket_basis) and rref_solve finds lambda in GF(2)^l with
    lambda . w_k = chi_h(k) mod 2 on the matrix of weight parities.  Pair
    sums are grouped by the parities lambda . w of their indices.
    """
    odd = [sum((c & 1) << i for i, c in enumerate(w)) for w in L.weights]
    parities = GF2Matrix(L.dim, len(L.weights[0]) if L.weights else 0, odd)
    functionals = []
    for h in range(L.dim):
        ad = [L.bracket_basis(h, k) for k in range(L.dim)]
        if is_zero_weight(L.weights[h]) and all(v in (0, 1 << k) for k, v in enumerate(ad)):
            lam = rref_solve(parities, sum(1 << k for k, v in enumerate(ad) if v))
            if lam is not None:
                functionals.append(lam)
    par = [sum(((b & lam).bit_count() & 1) << j for j, lam in enumerate(functionals)) for b in odd]
    sums = {}
    for s, ((i, j), *_) in L.weight_sums(2).items():
        sums.setdefault(par[i] ^ par[j], []).append(s)
    weights = {w - s for w, ((k,), *_) in L.weight_sums(1).items() for s in sums.get(par[k], ())}
    return [L.weight_of_code(mu) for mu in sorted(weights)]


def ungraded_h2_dim(L):
    """dim H^2 computed on the whole complex, ignoring the grading.

    Quadratically larger than the graded path; for small algebras only.
    """
    dim = L.dim
    c1 = [_coord_code((i,), k, dim) for i in range(dim) for k in range(dim)]
    c2 = [_coord_code(key, k, dim) for key in combinations(range(dim), 2) for k in range(dim)]
    return len(c2) - _image_rank(L, c2) - _image_rank(L, c1)


def composite_is_zero(block):
    """d2 d1 = 0 on a weight block, by the dense matrix product: row r of
    d2 d1 is the sum of the rows j of d1 for the set bits j of row r of d2."""
    for r in block.d2.rows:
        acc = 0
        for j in bit_indices(r):
            acc ^= block.d1.rows[j]
        if acc:
            return False
    return True


def representative(L, mu):
    """A cocycle generating a complement of the coboundaries at weight mu.

    Deterministic: first kernel vector of the block's d2 (in canonical
    basis order) that is not a coboundary.
    """
    block = weight_block(L, mu)
    coboundaries = PivotBasis(block.d1.transpose().rows)
    for v in rref_nullspace(block.d2):
        if not coboundaries.contains(v):
            return Cochain(2, L.dim, odd_coords([block.c2[p] for p in bit_indices(v)], L.dim, 2))
    raise ValueError(f"H^2 vanishes at weight {mu}")


def dense_differential(L, c):
    """(d on the weight block below c as a dense matrix, c packed over its rows, the source basis).

    For a degree-2 c the matrix is weight_block(L, mu).d1, rows over the
    block's c2.  For a degree-3 c column j is differential of the j-th basis
    cochain of C^2_mu, and the rows run over c's coordinates, then the
    others the columns reach, in the order they do.
    """
    mu = cochain_weight(L, c)
    coords = [_coord_code(key, k, L.dim) for key, v in sorted(c.data.items()) for k in bit_indices(v)]
    if c.degree == 2:
        block = weight_block(L, mu)
        pos = {code: p for p, code in enumerate(block.c2)}
        return block.d1, sum(1 << pos[t] for t in coords), cochain_basis(L, 1, mu)
    src = cochain_basis(L, 2, mu)
    pos = {t: p for p, t in enumerate(coords)}
    cols = []
    for b in src:
        image = [_coord_code(key, k, L.dim) for key, v in differential(L, b).data.items() for k in bit_indices(v)]
        cols.append(sum(1 << pos.setdefault(t, len(pos)) for t in image))
    return GF2Matrix(len(cols), len(pos), cols).transpose(), (1 << len(coords)) - 1, src


def coboundary_preimage(L, c):
    """A cochain whose differential is the nonzero homogeneous c, by rref_solve on dense_differential, or None."""
    m, b, src = dense_differential(L, c)
    x = rref_solve(m, b)
    return None if x is None else sum((src[p] for p in bit_indices(x)), Cochain(c.degree - 1, L.dim))


def cochain_basis(L, n, mu):
    """Basis cochains of weight mu in canonical (key, value) order."""
    out = []
    for code in _block_coords(L, n, mu):
        key, k = coord_of_code(code, L.dim)
        out.append(Cochain(n, L.dim, {key: 1 << k}))
    return out


# -- the wedge-square model on packed vectors ----------------------------


@lru_cache(maxsize=None)
def all_monomials(l):
    """All index pairs a < b of the 2l basis vectors, lex order: the full
    monomial coordinates of the wedge square."""
    dim = 2 * l
    return tuple((a, b) for a in range(dim) for b in range(a + 1, dim))


@lru_cache(maxsize=None)
def monomial_pos(l):
    return {m: p for p, m in enumerate(all_monomials(l))}


def omega_bits(space: SymplecticSpace) -> int:
    """The invariant element e_1 e_-1 + ... + e_l e_-l in monomial coordinates."""
    pos = monomial_pos(space.l)
    bits = 0
    for i in range(space.l):
        bits |= 1 << pos[(i, space.partner(i))]
    return bits


def basis_vector(space: SymplecticSpace, label: int) -> int:
    """e_label as a packed vector of V."""
    return 1 << space.index_of(label)


def form(space: SymplecticSpace, x: int, y: int) -> int:
    """Symplectic pairing of two packed vectors of V."""
    acc = 0
    while x:
        low = x & -x
        acc ^= (y >> space.partner(low.bit_length() - 1)) & 1
        x ^= low
    return acc


def wedge_of_vectors(space: SymplecticSpace, x: int, y: int) -> int:
    """x wedge y expanded over monomial coordinates."""
    pos = monomial_pos(space.l)
    out = 0
    xs = list(bit_indices(x))
    for b in bit_indices(y):
        for a in xs:
            if a != b:
                out ^= 1 << pos[(a, b) if a < b else (b, a)]
    return out


def poisson_mono(space: SymplecticSpace, m1, m2) -> int:
    """The four-term Poisson bracket of two monomials (index pairs), in
    full monomial coordinates."""
    a, b = m1
    c, d = m2
    partner = space.partner
    pos = monomial_pos(space.l)
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
    v1, v2, v3, v4 = (form(space, v, w) for w in (w1, w2, w3, w4))
    f12, f34 = form(space, w1, w2), form(space, w3, w4)
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


def dense_phi_of_vector(v, model):
    """phi at a nonzero vector v of V, evaluated on all C(n, 2) monomial pairs."""
    units = [(1 << a, 1 << b) for a, b in model.monomials]
    data = {}
    for i, j in combinations(range(len(units)), 2):
        val = phi_eval(model.space, v, units[i], units[j])
        if val:
            reduced = per_bit_reduce(model, val)
            if reduced:
                data[(i, j)] = reduced
    return Cochain(2, model.algebra.dim, data)


def per_bit_reduce(model, wedge_bits):
    """Full monomial coordinates -> model coordinates, one bit at a time:
    rewrite e_l e_-l as the other dual pairs, then move each monomial to
    its position among the kept ones."""
    l, space = model.l, model.space
    monos, pos = all_monomials(l), monomial_pos(l)
    dropped = pos[(l - 1, l)]
    if (wedge_bits >> dropped) & 1:
        wedge_bits ^= 1 << dropped
        for i in range(l - 1):
            wedge_bits ^= 1 << pos[(i, space.partner(i))]
    kept_pos = {m: p for p, m in enumerate(m for m in monos if m != (l - 1, l))}
    out = 0
    for p in bit_indices(wedge_bits):
        out ^= 1 << kept_pos[monos[p]]
    return out


def monomial_index(model, sa, sb):
    """Model basis index of the monomial with signed labels sa, sb."""
    return model.monomials.index(tuple(sorted((model.space.index_of(sa), model.space.index_of(sb)))))


# -- central quotients ------------------------------------------------------


def quotient_with_projection(L, Z):
    """Quotient by a central subspace plus the old-basis projection matrix.

    Z is the subspace's packed rows over the basis of L, as center(L)
    gives them.  Coset representatives drop the lowest index of each row
    of row_reduce(Z), its RREF pivot; the choice is arbitrary but fixed,
    and every downstream quantity is representative-independent because
    Z is central.
    """
    dim = L.dim
    if any(z >> dim for z in Z):
        raise ValueError("subspace ambient dimension mismatch")
    for z in Z:
        for j in range(dim):
            if bracket_vec_basis(L, z, j):
                raise ValueError("subspace is not central")
        for m in bit_indices(z):
            if not is_zero_weight(L.weights[m]):
                raise ValueError("central generators must be weight-0 combinations")

    # An RREF row's pivot appears in no other row, so adding the row
    # rewrites b_pivot as the rest of the row, modulo Z.
    pivot_rows = {z & -z: z for z in row_reduce(Z)}
    dropped = {low.bit_length() - 1 for low in pivot_rows}
    kept = [i for i in range(dim) if i not in dropped]
    new_pos = {old: new for new, old in enumerate(kept)}

    def project(bits):
        for low, z in pivot_rows.items():
            if bits & low:
                bits ^= z
        out = 0
        for i in bit_indices(bits):
            out |= 1 << new_pos[i]
        return out

    if not dropped:
        identity = GF2Matrix(dim, dim, (1 << i for i in range(dim)))
        return LieAlgebra(L.labels, L.weights, dict(L.brackets)), identity

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


# -- the even-rank cocycle by root pairs ---------------------------------


def root_pair_keys(L, mu):
    """The sorted index pairs of E_-g, E_-d over the roots g < d of D_l with g + d = mu."""
    system = build_root_system(len(mu))
    keys = set()
    for g in system.roots:
        d = wsub(mu, g)
        if d in system.root_set and g < d:
            ig = L.labels.index(("ROOTVEC", wneg(g)))
            jd = L.labels.index(("ROOTVEC", wneg(d)))
            keys.add((min(ig, jd), max(ig, jd)))
    return keys


# -- automorphisms over signed permutations ------------------------------


def chevalley_automorphism(l, g):
    """Basis images of the automorphism of build_chevalley_D(l) over g:
    E_a -> E_(g a), and H_i -> H_(g alpha_i), the mod-2 simple-root
    coordinates of g alpha_i."""
    system = build_root_system(l)
    idx_of_root = {r: l + k for k, r in enumerate(system.roots)}

    def h(beta):
        return sum((c & 1) << i for i, c in enumerate(express_in_simple_roots(beta)))

    return [h(g(a)) for a in system.simple] + [1 << idx_of_root[g(r)] for r in system.roots]


def model_automorphism(model, g):
    """Basis images of the automorphism of the model over g: g permutes the
    basis of V by weight, and e_a e_b -> per_bit_reduce(e_(g a) e_(g b))."""
    space = model.space
    by_weight = {space.weight_of_index(a): a for a in range(space.dim)}
    img = [by_weight[g(space.weight_of_index(a))] for a in range(space.dim)]
    return [per_bit_reduce(model, wedge_of_vectors(space, 1 << img[a], 1 << img[b])) for a, b in model.monomials]


def eval_vectors(c, *vectors):
    """c on packed vectors, expanded over their basis vectors one argument at a time."""
    if len(vectors) != c.degree:
        raise ValueError("arity mismatch")
    out = 0
    for indices in product(*(list(bit_indices(x)) for x in vectors)):
        out ^= eval_basis(c, *indices)
    return out


def dense_inverse(theta):
    """theta^-1 by images, from the column-sweep RREF of [A | I], where column i of A is theta(b_i):
    row k then reads e_k | row k of A^-1, and theta^-1(b_j) is column j of A^-1."""
    dim = len(theta)
    a = [sum((theta[i] >> k & 1) << i for i in range(dim)) | 1 << (dim + k) for k in range(dim)]
    rows, pivots = rref(a, dim)
    if pivots != list(range(dim)):
        raise ValueError("singular map")
    return [sum((rows[k] >> (dim + j) & 1) << k for k in range(dim)) for j in range(dim)]


def dense_transport(theta, c):
    """theta . c by its definition: theta c(theta^-1 b_j1, ..) at every sorted index tuple J.

    A b_j whose theta^-1 b_j meets no index of c's keys makes every term 0,
    so J runs over the other j only.
    """
    inverse = dense_inverse(theta)
    support = 0
    for key in c.data:
        for i in key:
            support |= 1 << i
    live = [j for j in range(c.dim) if inverse[j] & support]
    data = {}
    for J in combinations(live, c.degree):
        image = 0
        for m in bit_indices(eval_vectors(c, *(inverse[j] for j in J))):
            image ^= theta[m]
        if image:
            data[J] = image
    return Cochain(c.degree, c.dim, data)


def invert(theta: list[int]) -> list[int]:
    """The packed images of theta^-1, for a theta given by its packed images theta(b_i).

    Row i, theta(b_i) tagged with bit dim + i, is reduced once: the RREF
    has a unit row on each b_j exactly when theta is invertible, and its
    tag is theta^-1(b_j).
    """
    dim = len(theta)
    rows = row_reduce(t | 1 << (dim + i) for i, t in enumerate(theta))
    if [r & ((1 << dim) - 1) for r in rows] != [1 << j for j in range(dim)]:
        raise ValueError("the map is not invertible")
    return [r >> dim for r in rows]


def transport(theta: list[int], inverse: list[int], c: Cochain) -> Cochain:
    """theta . c, the cochain (x_1, ..) -> theta c(theta^-1 x_1, ..), for theta with inverse theta^-1.

    Both maps are given by their packed basis images.  The basis cochain
    key -> v goes to the wedge of the functionals b_i^* o theta^-1, i in
    key, with value theta(v), and b_i^* o theta^-1 is the sum of the b_j^*
    with b_i in theta^-1(b_j).  The wedge expands into one index from each
    factor, and a term that repeats an index is 0.  Where every image is
    one basis vector, as for almost every basis vector under an
    automorphism of L, the key just moves.
    """
    if len(theta) != c.dim or len(inverse) != c.dim:
        raise ValueError(f"a map of dimension {len(theta)} on a cochain of dimension {c.dim}")
    dual: list[list[int]] = [[] for _ in range(c.dim)]
    for j, v in enumerate(inverse):
        for i in bit_indices(v):
            dual[i].append(j)
    data: dict[tuple[int, ...], int] = {}
    for key, v in c.data.items():
        value = 0
        for m in bit_indices(v):
            value ^= theta[m]
        for js in product(*map(dual.__getitem__, key)):
            if len(set(js)) == len(js):
                k = tuple(sorted(js))
                data[k] = data.get(k, 0) ^ value
    return Cochain(c.degree, c.dim, data)


def per_class_rigidity_scan(model):
    """The rigidity scan that judges every class with obstruction_verdict, in weight order."""
    l = model.l
    ranks = range(1, l + 1)
    items = sorted((tuple(2 * sign * (k == i) for k in ranks), sign * i) for i in ranks for sign in (1, -1))
    reports = []
    for w, label in items:
        try:
            report = obstruction_verdict(model.algebra, phi(label, model))
        except ValueError as exc:
            raise ArithmeticError(f"quadratic cocycle {label} at weight {w}: {exc}") from exc
        if report.weight != w:
            raise ArithmeticError(f"quadratic cocycle {label} has weight {report.weight}, expected {w}")
        reports.append(report)
    return reports


# -- symplectic transvections --------------------------------------------


@dataclass(frozen=True)
class Transvection:
    """x -> x + (x, v) v; an involution preserving the form."""

    space: SymplecticSpace
    v: int

    def __call__(self, x: int) -> int:
        return x ^ (self.v if form(self.space, x, self.v) else 0)

    def apply_to_wedge(self, wedge_bits: int) -> int:
        monos = all_monomials(self.space.l)
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


# -- Weyl group -------------------------------------------------------------


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
