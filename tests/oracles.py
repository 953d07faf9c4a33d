"""The truncated-ring Jacobi sum, a slow reference shared by the test modules.

f_t = [,] + t psi over K[t]/(t^3), evaluated at one basis triple at a
time; verify_deformation must agree with it coefficient by coefficient.
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
