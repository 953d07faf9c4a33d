"""Slow references shared by the test modules.

- The truncated-ring Jacobi sum: f_t = [,] + t psi over K[t]/(t^3),
  evaluated at one basis triple at a time.  The decision the
  integrability command makes, check_jacobi on L and a ZERO verdict,
  must agree with it power by power: check_jacobi names its t^0
  failure, obstruction_verdict's error its t^1 failure and a
  NONTRIVIAL witness its t^2 failure.
- The dense column-sweep reduced row echelon form over GF(2); the
  library's rank, row_reduce, nullspace and solve must equal what it
  gives, bit for bit.
- The unpruned H^2 survey, which ranks every weight block of C^2, the
  per-weight survey, which ranks every block torus pruning keeps, and
  the ungraded H^2, which ranks the whole complex at once; the orbit
  survey must give the same rows and the same total.
- The dense product d2 d1 of a weight block, which must vanish, and a
  representative cocycle from the block's dense matrices.
- The dense quadratic cocycle, which evaluates the eight-term formula on
  every pair of model monomials; phi_of_vector, which evaluates only the
  pairs where v can pair with an argument, must give the same cochain.
- The per-bit reduction of wedge coordinates to model coordinates, which
  looks up each monomial's kept position; QuotientModel.reduce, a closed
  form, must agree with it.
- The closed formulas for the automorphism over a signed permutation g:
  E_a -> E_(g a) and H_i -> H_(g alpha_i) on D_l, and e_a e_b ->
  reduce(e_(g a) e_(g b)) on the model; the automorphisms the survey
  derives from the algebra must equal them.

- The quotient of D_l by its centre, built by projecting every bracket;
  the wedge-square model must be graded-isomorphic to it.

It also holds helpers that more than one test module uses: brackets and
cochain values on packed vectors and basis indices, the basis cochains
of a weight block, the model index of a monomial, symplectic
transvections and Weyl orbits.
"""

from dataclasses import dataclass
from itertools import combinations

from d2lie.cohomology import (
    Cochain,
    _block_coords,
    _block_row,
    _c2_weights,
    _cochain,
    _coord_code,
    _coord_of_code,
    _image_rank,
    _torus_functionals,
    weight_block,
)
from d2lie.exterior import SymplecticSpace, _monomial_pos, _monomials, phi_eval, wedge_of_vectors
from d2lie.algebra import LieAlgebra
from d2lie.gf2 import GF2Matrix, PivotBasis, bit_indices
from d2lie.roots import (
    RootSystem,
    Weight,
    build_root_system,
    express_in_simple_roots,
    is_zero_weight,
    wdot,
)


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
        out[1] ^= bracket_vec_basis(L, c1, z) ^ psi.eval_vec_basis(c0, z)
        out[2] ^= psi.eval_vec_basis(c1, z)
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


# -- second cohomology --------------------------------------------------


def unpruned_survey_rows(L):
    """h2_survey_rows without torus pruning: every C^2 weight block is ranked."""
    rows = (_block_row(L, mu) for mu in _c2_weights(L))
    return [r for r in rows if r["dim_h2"]]


def per_weight_survey_rows(L):
    """h2_survey_rows without orbits: every block torus pruning keeps is ranked."""
    rows = (_block_row(L, mu) for mu in _c2_weights(L, _torus_functionals(L)))
    return [r for r in rows if r["dim_h2"]]


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
    for v in block.d2.nullspace().rows:
        if not coboundaries.contains(v):
            return _cochain(2, L.dim, block.c2, v)
    raise ValueError(f"H^2 vanishes at weight {mu}")


def cochain_basis(L, n, mu):
    """Basis cochains of weight mu in canonical (key, value) order."""
    out = []
    for code in _block_coords(L, n, mu):
        key, k = _coord_of_code(code, L.dim)
        out.append(Cochain(n, L.dim, {key: 1 << k}))
    return out


# -- the quadratic cocycle of the wedge-square model ---------------------


def dense_phi_of_vector(v, model):
    """phi at a nonzero vector v of V, evaluated on all C(n, 2) monomial pairs."""
    units = [(1 << a, 1 << b) for a, b in model.monomials]
    data = {}
    for i, j in combinations(range(len(units)), 2):
        val = phi_eval(model.space, v, units[i], units[j])
        if val:
            reduced = model.reduce(val)
            if reduced:
                data[(i, j)] = reduced
    return Cochain(2, model.algebra.dim, data)


def per_bit_reduce(model, wedge_bits):
    """model.reduce one bit at a time: rewrite e_l e_-l as the other dual
    pairs, then move each monomial to its position among the kept ones."""
    l, space = model.l, model.space
    monos, pos = _monomials(l), _monomial_pos(l)
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
            if bracket_vec_basis(L, z, j):
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


# -- automorphisms over signed permutations ------------------------------


def chevalley_automorphism(l, g):
    """Basis images of the automorphism of build_chevalley_D(l) over g:
    E_a -> E_(g a), and H_i -> H_(g alpha_i), the mod-2 simple-root
    coordinates of g alpha_i."""
    system = build_root_system(l)
    idx_of_root = {r: l + k for k, r in enumerate(system.roots)}

    def h(beta):
        return sum((c & 1) << i for i, c in enumerate(express_in_simple_roots(beta, system)))

    return [h(g(a)) for a in system.simple] + [1 << idx_of_root[g(r)] for r in system.roots]


def model_automorphism(model, g):
    """Basis images of the automorphism of the model over g: g permutes the
    basis of V by weight, and e_a e_b -> reduce(e_(g a) e_(g b))."""
    space = model.space
    by_weight = {space.weight_of_index(a): a for a in range(space.dim)}
    img = [by_weight[g(space.weight_of_index(a))] for a in range(space.dim)]
    return [model.reduce(wedge_of_vectors(space, 1 << img[a], 1 << img[b])) for a, b in model.monomials]


# -- symplectic transvections --------------------------------------------


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
