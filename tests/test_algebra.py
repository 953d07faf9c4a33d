import json
import random
from pathlib import Path

import pytest

from d2lie.algebra import (
    JacobiReport,
    LieAlgebra,
    Subspace,
    bracket_jacobiator,
    build_chevalley_D,
    center,
    check_jacobi,
    check_weight_additivity,
    expected_center_generators,
    format_label,
    jacobiator,
    quotient_by_center,
    quotient_with_projection,
)
from d2lie.cohomology import _term_codes
from d2lie.gf2 import GF2Matrix, bit_indices
from d2lie.roots import build_root_system, wadd, wzero

GOLDEN = Path(__file__).parent / "golden"


def weight_decomposition(L):
    """Partition of the basis by weight label."""
    out = {}
    for w, idxs in L.weight_index().items():
        rows = [1 << i for i in idxs]
        out[w] = Subspace(L.dim, GF2Matrix(len(rows), L.dim, rows))
    return out


def algebra_to_json(L):
    """JSON document: dim, labels, weights, sparse bracket triples."""
    return {
        "dim": L.dim,
        "labels": [format_label(x) for x in L.labels],
        "weights": [list(w) for w in L.weights],
        "brackets": [
            [i, j, sorted(bit_indices(v))]
            for (i, j), v in sorted(L.brackets.items())
        ],
    }


def root_index(L, root):
    return L.labels.index(("ROOTVEC", root))


def test_dimension():
    assert build_chevalley_D(4).dim == 28
    assert build_chevalley_D(5).dim == 45


def test_rank_below_three_rejected():
    with pytest.raises(ValueError):
        build_chevalley_D(2)


def test_bracket_of_last_two_simple_root_vectors_vanishes():
    # alpha_l + alpha_(l-1) = 2 eps_(l-1) is not a root.
    for l in (4, 5):
        L = build_chevalley_D(l)
        sys = build_root_system(l)
        i = root_index(L, sys.simple[l - 1])
        j = root_index(L, sys.simple[l - 2])
        assert L.bracket_basis(i, j) == 0


def test_dual_root_pair_bracket_l5():
    # [E_(e1+e2), E_(-e1-e2)] = H1 + H4 + H5:
    # e1+e2 = a1 + 2a2 + 2a3 + a4 + a5, reduced mod 2.
    L = build_chevalley_D(5)
    a = (1, 1, 0, 0, 0)
    i = root_index(L, a)
    j = root_index(L, tuple(-c for c in a))
    assert L.bracket_basis(i, j) == 0b11001  # bits 0, 3, 4 = H1, H4, H5


def test_cartan_action_is_diagonal():
    L = build_chevalley_D(4)
    for i in range(4):
        for j in range(4, L.dim):
            v = L.bracket_basis(i, j)
            assert v in (0, 1 << j)


def test_center_dimensions_and_generators():
    for l in range(4, 9):
        L = build_chevalley_D(l)
        Z = center(L)
        gens = expected_center_generators(l)
        assert Z.dim == (1 if l % 2 else 2)
        expected = Subspace(L.dim, GF2Matrix(len(gens), L.dim, gens))
        assert Z.same_space(expected)


def test_center_l3():
    L = build_chevalley_D(3)
    Z = center(L)
    assert Z.dim == 1
    assert Z.contains(0b110)  # H2 + H3
    assert center(L) is Z  # computed once per algebra


def jacobi_defects(L):
    """The Jacobi defect at every basis triple i < j < k, by the exhaustive
    triple loop; the oracle for jacobiator and check_jacobi."""
    dim = L.dim
    get = L.brackets.get
    bvb = L.bracket_vec_basis
    out = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            vij = get((i, j), 0)
            for k in range(j + 1, dim):
                d = 0
                if vij:
                    d ^= bvb(vij, k)
                vjk = get((j, k), 0)
                if vjk:
                    d ^= bvb(vjk, i)
                vik = get((i, k), 0)
                if vik:
                    d ^= bvb(vik, j)
                if d:
                    out[(i, j, k)] = d
    return out


def test_jacobi_small_ranks():
    for l in (3, 4, 5):
        assert check_jacobi(build_chevalley_D(l)).ok


def test_jacobiator_matches_triple_loop(d3, d4, model5, d5_quotient):
    rng = random.Random(36)
    for L in (d3, d4, model5.algebra, d5_quotient):
        assert jacobiator(L.brackets) == jacobi_defects(L) == {}
        assert check_jacobi(L) == JacobiReport(True)
        # One random structure constant flipped.
        bad = dict(L.brackets)
        key = tuple(sorted(rng.sample(range(L.dim), 2)))
        bad[key] = bad.get(key, 0) ^ (1 << rng.randrange(L.dim))
        broken = LieAlgebra(L.labels, L.weights, bad)
        oracle = jacobi_defects(broken)
        assert oracle and jacobiator(broken.brackets) == oracle


def test_bracket_jacobiator_is_computed_once(d4):
    defects = bracket_jacobiator(d4)
    assert defects == jacobiator(d4.brackets) == {}
    assert bracket_jacobiator(d4) is defects
    bad = dict(d4.brackets)
    bad[(0, 4)] = bad.get((0, 4), 0) ^ (1 << 5)
    broken = LieAlgebra(d4.labels, d4.weights, bad)
    defects = bracket_jacobiator(broken)
    assert defects == jacobi_defects(broken)
    assert bracket_jacobiator(broken) is defects
    report = check_jacobi(broken)
    assert (report.triple, report.defect) == (min(defects), defects[min(defects)])


def test_jacobi_catches_corruption():
    L = build_chevalley_D(3)
    sys = build_root_system(3)
    i = root_index(L, sys.simple[0])
    j = root_index(L, sys.simple[1])
    bad = dict(L.brackets)
    key = (min(i, j), max(i, j))
    bad[key] = bad.get(key, 0) ^ 1  # flip one structure constant
    broken = LieAlgebra(L.labels, L.weights, bad)
    report = check_jacobi(broken)
    assert not report.ok
    assert report.triple is not None
    assert report.defect != 0
    oracle = jacobi_defects(broken)
    assert jacobiator(broken.brackets) == oracle
    first = min(oracle)  # the triple loop meets triples in lex order
    assert (report.triple, report.defect) == (first, oracle[first])


def test_bracket_values_outside_the_basis_rejected():
    # A bit at or above dim names no basis vector; it is an error, not data
    # to be masked away.
    for v in (1 << 3, -1):
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            LieAlgebra(["x", "y", "z"], [(0,)] * 3, {(0, 1): v})


def test_adjacency_matches_bracket_table(d4, model5):
    for L in (d4, model5.algebra):
        adj = L.adjacency()
        for k in range(L.dim):
            expected = [(a, L.bracket_basis(a, k)) for a in range(L.dim) if L.bracket_basis(a, k)]
            assert adj[k] == expected


def test_pairs_with_support_are_masks(d4, model5):
    # The pair-mask table lives in cohomology's term tables; for each m it
    # lists the bracket keys whose value involves b_m, in table order.
    for L in (d4, model5.algebra):
        pairs = _term_codes(L)[1]
        for k in range(L.dim):
            assert pairs[k] == [(1 << i) | (1 << j) for (i, j), v in L.brackets.items() if (v >> k) & 1]


def test_weight_additivity():
    for l in (3, 4, 5):
        assert check_weight_additivity(build_chevalley_D(l))


def test_weight_decomposition_d4():
    L = build_chevalley_D(4)
    dec = weight_decomposition(L)
    assert dec[wzero(4)].dim == 4
    root_weights = [w for w in dec if w != wzero(4)]
    assert len(root_weights) == 24
    assert all(dec[w].dim == 1 for w in root_weights)


def test_quotient_dimension_l5():
    L = build_chevalley_D(5)
    Q = quotient_by_center(L, center(L))
    assert Q.dim == 44
    assert check_jacobi(Q).ok
    assert check_weight_additivity(Q)


def test_quotient_identifies_h5_with_h4():
    L = build_chevalley_D(5)
    Q, proj = quotient_with_projection(L, center(L))
    img_h5 = proj.rows[4]
    img_h4 = proj.rows[3]
    assert img_h5 == img_h4 != 0
    assert Q.weights.count(wzero(5)) == 4


def test_quotient_by_zero_subspace_is_identity():
    L = build_chevalley_D(4)
    Q = quotient_by_center(L, Subspace(L.dim, GF2Matrix.zeros(0, L.dim)))
    assert Q.dim == L.dim
    assert Q.labels == L.labels
    assert Q.brackets == L.brackets


def test_quotient_rejects_noncentral_subspace():
    L = build_chevalley_D(4)
    not_central = Subspace(L.dim, GF2Matrix(1, L.dim, [1]))  # H1 alone
    with pytest.raises(ValueError):
        quotient_by_center(L, not_central)


def test_quotient_even_rank():
    L = build_chevalley_D(4)
    Q = quotient_by_center(L, center(L))
    assert Q.dim == 26
    assert check_jacobi(Q).ok
    # Quotient representatives are weight-graded like the parent.
    assert Q.weights.count(wzero(4)) == 2


def test_central_generators_bracket_to_zero_before_quotient():
    # Well-definedness of the quotient bracket: [z, b] = 0 for every
    # central generator z and basis vector b.
    L = build_chevalley_D(6)
    Z = center(L)
    for z in Z.basis.rows:
        for j in range(L.dim):
            assert L.bracket_vec_basis(z, j) == 0


def test_bracket_weight_is_sum_of_weights():
    L = build_chevalley_D(4)
    for (i, j), v in L.brackets.items():
        w = wadd(L.weights[i], L.weights[j])
        k = v.bit_length() - 1
        assert L.weights[k] == w


def test_json_golden_d3():
    doc = algebra_to_json(build_chevalley_D(3))
    golden = json.loads((GOLDEN / "d3_algebra.json").read_text())
    assert doc == golden


def test_json_shape():
    doc = algebra_to_json(build_chevalley_D(4))
    assert doc["dim"] == 28
    assert doc["labels"][0] == "H1"
    assert all(len(t) == 3 for t in doc["brackets"])
    assert doc["brackets"] == sorted(doc["brackets"])
