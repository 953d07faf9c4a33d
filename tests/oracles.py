"""Slow references shared by the test modules.

- The truncated-ring Jacobi sum: f_t = [,] + t psi over K[t]/(t^3),
  evaluated at one basis triple at a time; verify_deformation must agree
  with it coefficient by coefficient.
- The dense column-sweep reduced row echelon form over GF(2); the
  library's rank, row_reduce, nullspace and solve must equal what it
  gives, bit for bit.
"""

from itertools import combinations


def truncated_jacobi(L, psi, i, j, k):
    """Coefficients of 1, t and t^2 in the Jacobi sum of f_t at (b_i, b_j, b_k).

    f_t(b_x, b_y) = c0 + t c1 with c0 = [b_x, b_y] and c1 = psi(b_x, b_y), so
    f_t(f_t(b_x, b_y), b_z) = [c0, b_z] + t ([c1, b_z] + psi(c0, b_z)) + t^2 psi(c1, b_z).
    """
    out = [0, 0, 0]
    for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
        c0, c1 = L.bracket_basis(x, y), psi.eval_basis(x, y)
        out[0] ^= L.bracket_vec_basis(c0, z)
        out[1] ^= L.bracket_vec_basis(c1, z) ^ psi.eval_vec_basis(c0, z)
        out[2] ^= psi.eval_vec_basis(c1, z)
    return tuple(out)


def first_truncated_failure(L, psi):
    """(triple, power, value) at the lex-first triple with a nonzero
    coefficient and the lowest such power there; None when f_t satisfies
    the Jacobi identity."""
    for triple in combinations(range(L.dim), 3):
        for power, value in enumerate(truncated_jacobi(L, psi, *triple)):
            if value:
                return triple, power, value
    return None


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
