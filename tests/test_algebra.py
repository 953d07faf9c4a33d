import json
import random
from itertools import combinations
from pathlib import Path

import pytest
from oracles import (
    bracket_vec_basis,
    build_root_system,
    chevalley_D_from_root_system,
    constraint_center,
    quotient_with_projection,
    wadd,
    wsub,
    wzero,
)

import d2lie.algebra
from d2lie.algebra import (
    JacobiReport,
    LieAlgebra,
    _coord_code,
    _term_tables,
    build_chevalley_D,
    center,
    check_jacobi,
    check_weight_additivity,
    expected_center_generators,
    format_label,
    jacobiator,
)
from d2lie.cohomology import h2_survey_rows
from d2lie.gf2 import GF2Matrix, PivotBasis, bit_indices, row_reduce

GOLDEN = Path(__file__).parent / "golden"


def weight_decomposition(L):
    """Partition of the basis by weight label."""
    idx = {}
    for i, w in enumerate(L.weights):
        idx.setdefault(w, []).append(1 << i)
    return {w: GF2Matrix(len(rows), L.dim, rows) for w, rows in idx.items()}


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


def test_rank_below_three_raises_the_rank_error():
    with pytest.raises(ValueError, match=r"^type D needs rank l >= 3, got 2$"):
        build_chevalley_D(2)


def test_chevalley_build_equals_the_root_system_construction():
    # The builder enumerates the roots itself and reads <a, alpha_i> mod 2
    # off two coordinates; the reference goes through the root system.
    # Bracket items are compared as lists, so insertion order counts too.
    for l in range(3, 13):
        L, ref = build_chevalley_D(l), chevalley_D_from_root_system(l)
        assert L.labels == ref.labels
        assert L.weights == ref.weights
        assert list(L.brackets.items()) == list(ref.brackets.items())


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
        assert len(Z) == (1 if l % 2 else 2)
        assert Z == row_reduce(gens)


def test_center_is_reduced_once_per_algebra(d3, d4, d5, d6, model5):
    for L in (d3, d4, d5, d6, model5.algebra):
        Z = center(L)
        assert type(Z) is tuple and not any(z >> L.dim for z in Z)
        assert Z == row_reduce(Z)
        assert center(L) is Z


def test_center_equals_the_constraint_row_oracle(d3, d4, d5, d6, d7, d8, model3, model5, model7, model9):
    # The kernel of ad against the kernel of the constraint rows (j, m), both
    # reduced: every D_l the paper works, the odd-rank models, whose centre is
    # 0, and a small algebra whose only bracket [b_0, b_1] = b_2 leaves the
    # centre spanned by b_2 and b_3.
    small = LieAlgebra("wxyz", [(0,)] * 4, {(0, 1): 0b100})
    for L in (d3, d4, d5, d6, d7, d8, model3.algebra, model5.algebra, model7.algebra, model9.algebra, small):
        assert center(L) == constraint_center(L)
    assert center(small) == (0b100, 0b1000)


def test_term_tables_are_built_once_per_algebra(monkeypatch):
    # The Jacobi check, the centre and the survey read the algebra's one copy.
    calls = []

    def spy(data, dim):
        calls.append(dim)
        return _term_tables(data, dim)

    monkeypatch.setattr(d2lie.algebra, "_term_tables", spy)
    L = build_chevalley_D(4)
    assert check_jacobi(L).ok and len(center(L)) == 2 and len(h2_survey_rows(L)) == 24
    assert calls == [L.dim]


def test_center_l3():
    L = build_chevalley_D(3)
    Z = center(L)
    assert len(Z) == 1
    assert PivotBasis(Z).contains(0b110)  # H2 + H3
    assert center(L) is Z  # computed once per algebra


def jacobi_defects(L):
    """The Jacobi defect at every basis triple i < j < k, by the exhaustive
    triple loop; the oracle for jacobiator and check_jacobi."""
    dim = L.dim
    get = L.brackets.get
    out = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            vij = get((i, j), 0)
            for k in range(j + 1, dim):
                d = 0
                if vij:
                    d ^= bracket_vec_basis(L, vij, k)
                vjk = get((j, k), 0)
                if vjk:
                    d ^= bracket_vec_basis(L, vjk, i)
                vik = get((i, k), 0)
                if vik:
                    d ^= bracket_vec_basis(L, vik, j)
                if d:
                    out[(i, j, k)] = d
    return out


def test_jacobi_small_ranks():
    for l in (3, 4, 5):
        assert check_jacobi(build_chevalley_D(l)).ok


def test_jacobiator_matches_triple_loop(d3, d4, model5, d5_quotient):
    rng = random.Random(36)
    for L in (d3, d4, model5.algebra, d5_quotient):
        assert jacobiator(L.term_tables(), L.dim) == jacobi_defects(L) == {}
        assert check_jacobi(L) == JacobiReport(True)
        # One random structure constant flipped.
        bad = dict(L.brackets)
        key = tuple(sorted(rng.sample(range(L.dim), 2)))
        bad[key] = bad.get(key, 0) ^ (1 << rng.randrange(L.dim))
        broken = LieAlgebra(L.labels, L.weights, bad)
        oracle = jacobi_defects(broken)
        assert oracle and jacobiator(broken.term_tables(), broken.dim) == oracle
        first = min(oracle)
        assert check_jacobi(broken) == JacobiReport(False, first, oracle[first])
    # Random alternating tables with multi-bit values on the rank-5 model's
    # basis, sparse like a degree-2 cochain whose cup square jacobiator
    # takes, and denser.
    A = model5.algebra
    for density in (0.01, 0.05, 0.2):
        table = {key: rng.getrandbits(A.dim) for key in combinations(range(A.dim), 2) if rng.random() < density}
        oracle = jacobi_defects(LieAlgebra(A.labels, A.weights, table))
        assert oracle and jacobiator(_term_tables(table, A.dim), A.dim) == oracle


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
    assert jacobiator(broken.term_tables(), broken.dim) == oracle
    first = min(oracle)  # the triple loop meets triples in lex order
    assert (report.triple, report.defect) == (first, oracle[first])


def test_bracket_values_outside_the_basis_rejected():
    # A bit at or above dim names no basis vector; it is an error, not data
    # to be masked away.
    for v in (1 << 3, -1):
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            LieAlgebra(["x", "y", "z"], [(0,)] * 3, {(0, 1): v})


def test_ragged_weights_rejected():
    # (1,) and (0, 1) would pack to one int, so the additivity check and the
    # survey would read them as one weight.  Weights of length 0 all agree.
    with pytest.raises(ValueError, match="basis weight 1 has length 2, expected 1"):
        LieAlgebra(["x", "y", "z"], [(1,), (0, 1), (2,)], {(0, 1): 0b100})
    with pytest.raises(ValueError, match="basis weight 2 has length 1, expected 0"):
        LieAlgebra(["x", "y", "z"], [(), (), (0,)], {})
    assert LieAlgebra(["x", "y"], [(), ()], {}).weights == ((), ())


def test_bracket_keys_outside_the_upper_triangle_rejected():
    # The table stores [b_i, b_j] only for i < j < dim, so a diagonal,
    # reversed or out-of-range key is an error: alternation of every
    # LieAlgebra rests on it.
    for key in ((1, 1), (2, 1), (0, 3)):
        with pytest.raises(ValueError, match="bad bracket key"):
            LieAlgebra(["x", "y", "z"], [(0,)] * 3, {key: 1})


def test_term_tables_pair_masks_follow_the_bracket_support(d4, model5):
    # The pair-mask table lives in the algebra's term tables; for each m it
    # lists the bracket keys whose value involves b_m, in key order.
    for L in (d4, model5.algebra):
        pairs = L.term_tables()[1]
        for k in range(L.dim):
            assert pairs[k] == [_coord_code(key, 0, L.dim) for key, v in sorted(L.brackets.items()) if (v >> k) & 1]


def test_weight_additivity():
    for l in (3, 4, 5):
        assert check_weight_additivity(build_chevalley_D(l))


def test_weight_additivity_catches_an_off_weight_bracket(d4):
    # The packed check against a bracket that lands one weight off.
    i, j = next(key for key, v in d4.brackets.items() if v.bit_count() == 1)
    m = d4.brackets[(i, j)].bit_length() % d4.dim  # the index after the value's bit
    bad = {**d4.brackets, (i, j): 1 << m}
    assert wadd(d4.weights[i], d4.weights[j]) != d4.weights[m]
    assert not check_weight_additivity(LieAlgebra(d4.labels, d4.weights, bad))


def test_weight_codes_add_like_tuples(d4, model5):
    # The packed basis weights decode to L.weights, and signed sums of five
    # of them, the weight of a degree-4 basis cochain, decode to the tuple sum.
    rng = random.Random(43)
    for L in (d4, model5.algebra):
        codes = L.weight_codes
        assert [L.weight_of_code(c) for c in codes] == list(L.weights)
        for _ in range(200):
            picks = [(rng.randrange(L.dim), rng.choice((1, -1))) for _ in range(rng.randint(1, 5))]
            total, packed = (0,) * len(L.weights[0]), 0
            for i, sign in picks:
                total = (wadd if sign > 0 else wsub)(total, L.weights[i])
                packed += sign * codes[i]
            assert L.weight_of_code(packed) == total
            assert L.weight_code(total) == packed
        l = len(L.weights[0])
        # Past the fields no basis cochain has the weight; another length is an error.
        assert L.weight_code((1 << 8,) * l) is None
        with pytest.raises(ValueError, match="length"):
            L.weight_code((0,) * (l + 1))


def test_weight_sums_match_combinations_oracle(d4, model5):
    # Dict order (first occurrence) and key order included.
    for L in (d4, model5.algebra):
        for n in (1, 2):
            oracle = {}
            for key in combinations(range(L.dim), n):
                w = L.weights[key[0]]
                for i in key[1:]:
                    w = wadd(w, L.weights[i])
                oracle.setdefault(w, []).append(key)
            got = [(L.weight_of_code(w), list(keys)) for w, keys in L.weight_sums(n).items()]
            assert got == list(oracle.items())


def test_weight_decomposition_d4():
    L = build_chevalley_D(4)
    dec = weight_decomposition(L)
    assert dec[wzero(4)].nrows == 4
    root_weights = [w for w in dec if w != wzero(4)]
    assert len(root_weights) == 24
    assert all(dec[w].nrows == 1 for w in root_weights)


def test_quotient_dimension_l5():
    L = build_chevalley_D(5)
    Q, _ = quotient_with_projection(L, center(L))
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
    Q, _ = quotient_with_projection(L, ())
    assert Q.dim == L.dim
    assert Q.labels == L.labels
    assert Q.brackets == L.brackets


def test_quotient_rejects_noncentral_subspace():
    L = build_chevalley_D(4)
    not_central = (1,)  # H1 alone
    with pytest.raises(ValueError):
        quotient_with_projection(L, not_central)


def test_quotient_even_rank():
    L = build_chevalley_D(4)
    Q, _ = quotient_with_projection(L, center(L))
    assert Q.dim == 26
    assert check_jacobi(Q).ok
    # Quotient representatives are weight-graded like the parent.
    assert Q.weights.count(wzero(4)) == 2


def test_central_generators_bracket_to_zero_before_quotient():
    # Well-definedness of the quotient bracket: [z, b] = 0 for every
    # central generator z and basis vector b.
    L = build_chevalley_D(6)
    Z = center(L)
    for z in Z:
        for j in range(L.dim):
            assert bracket_vec_basis(L, z, j) == 0


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
