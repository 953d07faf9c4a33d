import random
from dataclasses import dataclass
from itertools import combinations

import pytest
from oracles import (
    all_monomials,
    basis_vector,
    bracket,
    dense_phi_of_vector,
    eval_basis,
    eval_vec_basis,
    form,
    monomial_index,
    monomial_pos,
    omega_bits,
    per_bit_reduce,
    phi_eval,
    poisson_mono,
    quotient_with_projection,
    transvection,
    wedge_of_vectors,
)

from d2lie.algebra import (
    build_chevalley_D,
    center,
    check_jacobi,
    check_weight_additivity,
)
from d2lie.cohomology import cochain_weight, differential, find_graded_isomorphism
from d2lie.exterior import SymplecticSpace, build_quotient_model, phi
from d2lie.gf2 import PivotBasis, bit_indices


@dataclass(frozen=True)
class Wedge2Element:
    """GF(2) combination of wedge monomials, packed over the lex order."""

    space: SymplecticSpace
    bits: int

    @classmethod
    def from_monomials(cls, space, monos):
        pos = monomial_pos(space.l)
        bits = 0
        for sa, sb in monos:
            a, b = space.index_of(sa), space.index_of(sb)
            if a == b:
                raise ValueError(f"degenerate monomial e_{sa} e_{sb}")
            bits ^= 1 << pos[(a, b) if a < b else (b, a)]
        return cls(space, bits)

    def is_zero(self):
        return self.bits == 0


def poisson_bracket(x, y):
    """Bilinear extension of the four-term monomial bracket."""
    space = x.space
    monos = all_monomials(space.l)
    xm = [monos[p] for p in bit_indices(x.bits)]
    out = 0
    for q in bit_indices(y.bits):
        for m1 in xm:
            out ^= poisson_mono(space, m1, monos[q])
    return Wedge2Element(space, out)


def wedge(space, *monos):
    return Wedge2Element.from_monomials(space, monos)


# -- symplectic space ----------------------------------------------------


def test_form_dual_pairs_only():
    s = SymplecticSpace(3)
    for i in range(1, 4):
        for j in range(1, 4):
            expect = 1 if i == j else 0
            assert form(s, basis_vector(s, i), basis_vector(s, -j)) == expect
            assert form(s, basis_vector(s, i), basis_vector(s, j)) == 0
            assert form(s, basis_vector(s, -i), basis_vector(s, -j)) == 0


def test_form_alternating_and_nondegenerate():
    s = SymplecticSpace(4)
    rng = random.Random(10)
    for _ in range(50):
        v = rng.getrandbits(s.dim)
        assert form(s, v, v) == 0
    # Gram matrix has full rank: every basis vector pairs with its partner.
    for idx in range(s.dim):
        assert form(s, 1 << idx, 1 << s.partner(idx)) == 1


def test_basis_order_is_mirrored():
    s = SymplecticSpace(5)
    assert [s.label_of(i) for i in range(10)] == [1, 2, 3, 4, 5, -5, -4, -3, -2, -1]


def test_symplectic_space_rejects_nonpositive_rank():
    for l in (0, -1):
        with pytest.raises(ValueError, match="rank must be positive"):
            SymplecticSpace(l)


# -- poisson bracket -----------------------------------------------------


def test_poisson_hand_value():
    s = SymplecticSpace(3)
    out = poisson_bracket(wedge(s, (1, 2)), wedge(s, (-1, -2)))
    assert out == wedge(s, (2, -2), (1, -1))


def test_poisson_alternating():
    s = SymplecticSpace(3)
    for m in all_monomials(3):
        x = Wedge2Element(s, 1 << all_monomials(3).index(m))
        assert poisson_bracket(x, x).is_zero()


def test_poisson_no_dual_pairs_gives_zero():
    s = SymplecticSpace(4)
    assert poisson_bracket(wedge(s, (1, 2)), wedge(s, (3, 4))).is_zero()


@pytest.mark.parametrize("l", [3, 5])
def test_poisson_jacobi_on_monomials(l):
    s = SymplecticSpace(l)
    monos = [Wedge2Element(s, 1 << p) for p in range(len(all_monomials(l)))]
    for x, y, z in combinations(monos, 3):
        acc = poisson_bracket(poisson_bracket(x, y), z).bits
        acc ^= poisson_bracket(poisson_bracket(y, z), x).bits
        acc ^= poisson_bracket(poisson_bracket(z, x), y).bits
        assert acc == 0


@pytest.mark.parametrize("l", [3, 5, 7])
def test_invariant_line_is_poisson_central(l):
    s = SymplecticSpace(l)
    omega = Wedge2Element(s, omega_bits(s))
    for p in range(len(all_monomials(l))):
        assert poisson_bracket(omega, Wedge2Element(s, 1 << p)).is_zero()


# -- quotient model ------------------------------------------------------


def test_model_dimension_and_structure(model5):
    A = model5.algebra
    assert A.dim == 44
    assert check_jacobi(A).ok
    assert check_weight_additivity(A)
    assert center(A) == ()


def test_model_even_rank_rejected():
    with pytest.raises(ValueError):
        build_quotient_model(4)


def test_model_rank3_for_testing(model3):
    assert model3.algebra.dim == 14
    assert check_jacobi(model3.algebra).ok


def test_reduce_rewrites_dropped_monomial(model5):
    # e_5 e_-5 is the sum of the other dual pairs, in the oracle and in the model's table.
    dropped_bit = 1 << monomial_pos(5)[(4, 5)]
    expected = {(i, model5.space.partner(i)) for i in range(4)}
    for reduced in (per_bit_reduce(model5, dropped_bit), model5.wedge[4][5]):
        assert {model5.monomials[p] for p in bit_indices(reduced)} == expected


def test_wedge_table_matches_per_bit_oracle(model3, model5, model7, model9):
    # The library's e_x e_y in model coordinates, for every x != y, is the
    # per-bit reduction of that monomial's bit in full coordinates; the
    # holding lists and dual positions are those of a scan of the monomials.
    for model in (model3, model5, model7, model9):
        pos, dim, partner = monomial_pos(model.l), model.space.dim, model.space.partner
        assert model.monomials == tuple(m for m in all_monomials(model.l) if m != (model.l - 1, model.l))
        for x in range(dim):
            for y in range(dim):
                if x != y:
                    assert model.wedge[x][y] == per_bit_reduce(model, 1 << pos[min(x, y), max(x, y)]), (x, y)
            held = [(i, b if a == x else a) for i, (a, b) in enumerate(model.monomials) if x in (a, b)]
            assert model.holding[x] == held
        assert model.duals == tuple(i for i, (a, b) in enumerate(model.monomials) if b == partner(a))


def test_model_bracket_matches_poisson_oracle(model3, model5, model7, model9):
    # The model's bracket of two kept monomials is their Poisson bracket,
    # reduced: every kept pair, and the table keys in the same (lex) order.
    for model in (model3, model5, model7, model9):
        s = model.space
        expected = {}
        for (i, m1), (j, m2) in combinations(enumerate(model.monomials), 2):
            v = per_bit_reduce(model, poisson_mono(s, m1, m2))
            if v:
                expected[(i, j)] = v
        assert model.algebra.brackets == expected
        assert list(model.algebra.brackets) == list(expected)


# -- the quadratic cocycle map --------------------------------------------


def test_phi_paper_values(model5):
    psi = phi(4, model5)
    i1 = monomial_index(model5, -4, -5)
    i2 = monomial_index(model5, -4, 5)
    i3 = monomial_index(model5, 3, -4)
    e5em5 = per_bit_reduce(model5, 1 << monomial_pos(5)[(4, 5)])
    assert eval_basis(psi, i1, i2) == e5em5
    e3e4 = 1 << model5.monomials.index((2, 3))
    assert eval_vec_basis(psi, e5em5, i3) == e3e4


def test_phi_alternating(model5):
    psi = phi(4, model5)
    for i in (0, 10, 20):
        assert eval_basis(psi, i, i) == 0


def test_phi_is_weight_homogeneous_with_distinct_weights(model5):
    A = model5.algebra
    seen = set()
    for label in list(range(1, 6)) + [-i for i in range(1, 6)]:
        psi = phi(label, model5)
        w = cochain_weight(A, psi)
        expected = [0] * 5
        expected[abs(label) - 1] = 2 if label > 0 else -2
        assert w == tuple(expected)
        seen.add(w)
    assert len(seen) == 10


def test_phi_cocycle_and_not_coboundary(model5):
    from d2lie.cohomology import is_coboundary

    A = model5.algebra
    for label in (4, -2):
        psi = phi(label, model5)
        assert differential(A, psi).is_zero()
        assert not is_coboundary(A, psi)


def test_phi_well_defined_modulo_relation(model5):
    # Evaluating on the eliminated monomial equals evaluating on its
    # rewritten representative, in either argument slot.
    s = model5.space
    e5, em5 = 1 << 4, 1 << 5
    dropped = (e5, em5)
    rewrite = [(1 << i, 1 << s.partner(i)) for i in range(4)]
    v = basis_vector(s, 4)
    for other in [(1 << s.index_of(3), 1 << s.index_of(-4)),
                  (1 << s.index_of(1), 1 << s.index_of(2))]:
        direct = per_bit_reduce(model5, phi_eval(s, v, dropped, other))
        via_rewrite = 0
        for rep in rewrite:
            via_rewrite ^= phi_eval(s, v, rep, other)
        assert direct == per_bit_reduce(model5, via_rewrite)
        # symmetric slot
        direct2 = per_bit_reduce(model5, phi_eval(s, v, other, dropped))
        via2 = 0
        for rep in rewrite:
            via2 ^= phi_eval(s, v, other, rep)
        assert direct2 == per_bit_reduce(model5, via2)


def phi_eval_poisson_form(
    space: SymplecticSpace,
    v: int,
    arg1: tuple[int, int],
    arg2: tuple[int, int],
) -> int:
    """phi_eval in closed form, through vector-level Poisson brackets:

        {w1w2, v} wedge {w3w4, v} + v wedge {v, (w3,w4) w1w2 + (w1,w2) w3w4}

    with {v1 v2, u} = (v1,u) v2 + (v2,u) v1.  An oracle for phi_eval.
    """
    w1, w2 = arg1
    w3, w4 = arg2
    def pb_vec(a: int, b: int, u: int) -> int:
        out = 0
        if form(space, a, u):
            out ^= b
        if form(space, b, u):
            out ^= a
        return out

    out = wedge_of_vectors(space, pb_vec(w1, w2, v), pb_vec(w3, w4, v))
    inner = 0
    if form(space, w3, w4):
        inner ^= pb_vec(w1, w2, v)
    if form(space, w1, w2):
        inner ^= pb_vec(w3, w4, v)
    out ^= wedge_of_vectors(space, v, inner)
    return out


def test_phi_closed_form_cross_check(model5):
    s = model5.space
    units = [(1 << a, 1 << b) for a, b in model5.monomials]
    for v_label in (4, -1):
        v = basis_vector(s, v_label)
        for i in range(0, len(units), 7):
            for j in range(i + 1, len(units), 5):
                assert phi_eval(s, v, units[i], units[j]) == phi_eval_poisson_form(
                    s, v, units[i], units[j]
                )


def test_phi_matches_dense_oracle(model3, model5, model7, model9):
    # The closed form at every basis vector against the eight-term formula
    # on all monomial pairs.
    for model in (model3, model5, model7, model9):
        l = model.l
        for label in [*range(1, l + 1), *range(-l, 0)]:
            closed = phi(label, model)
            dense = dense_phi_of_vector(basis_vector(model.space, label), model)
            assert closed == dense
            assert list(closed.data) == list(dense.data)  # same keys, in the same order


def test_phi_rejects_zero_vector(model5):
    # Label 0 names no basis vector.
    with pytest.raises(ValueError, match="no basis vector"):
        phi(0, model5)


def test_phi_rejects_vector_outside_v(model5):
    # e_6 and e_-6 lie outside V at rank 5.
    for label in (6, -6):
        with pytest.raises(ValueError, match="no basis vector"):
            phi(label, model5)


# -- transvections -------------------------------------------------------


def test_transvection_fixes_its_direction():
    s = SymplecticSpace(4)
    v = basis_vector(s, 2)
    assert transvection(s, v)(v) == v


def test_transvection_moves_dual_vector():
    s = SymplecticSpace(4)
    t = transvection(s, basis_vector(s, 1))
    assert t(basis_vector(s, -1)) == basis_vector(s, -1) ^ basis_vector(s, 1)


def test_transvection_preserves_form():
    s = SymplecticSpace(4)
    v = basis_vector(s, 1) ^ basis_vector(s, -2)
    t = transvection(s, v)
    for a in range(s.dim):
        for b in range(s.dim):
            assert form(s, t(1 << a), t(1 << b)) == form(s, 1 << a, 1 << b)


def test_transvection_is_involution():
    s = SymplecticSpace(5)
    rng = random.Random(11)
    for _ in range(20):
        v = rng.getrandbits(s.dim) or 1
        t = transvection(s, v)
        x = rng.getrandbits(s.dim)
        assert t(t(x)) == x


def test_transvection_rejects_zero():
    # Bits at or above dim are an error too, not bits to be masked away:
    # masked, 1 << dim was the zero direction and -1 the all-ones vector.
    s = SymplecticSpace(3)
    for v in (0, 1 << s.dim, -1):
        with pytest.raises(ValueError):
            transvection(s, v)


def test_transvections_preserve_invariant_line():
    s = SymplecticSpace(5)
    rng = random.Random(12)
    for _ in range(10):
        t = transvection(s, rng.getrandbits(s.dim) or 1)
        assert t.apply_to_wedge(omega_bits(s)) == omega_bits(s)


def test_phi_equivariance_under_random_transvections(model5):
    # phi(g v)(m1, m2) = g(phi(v)(g^-1 m1, g^-1 m2)) over all monomial
    # argument pairs, for >= 20 random transvections.
    s = model5.space
    rng = random.Random(13)
    units = [(1 << a, 1 << b) for a, b in model5.monomials]
    pair_sample = [
        (units[i], units[j])
        for i in range(0, len(units))
        for j in range(i + 1, len(units))
    ]
    count = 0
    while count < 20:
        u = rng.getrandbits(s.dim)
        if not u:
            continue
        g = transvection(s, u)
        count += 1
        for v_label in (4, -3):
            v = basis_vector(s, v_label)
            gv = g(v)
            if gv == 0:
                continue
            for (m1, m2) in pair_sample:
                lhs = per_bit_reduce(model5, phi_eval(s, gv, m1, m2))
                inner = phi_eval(
                    s, v, (g(m1[0]), g(m1[1])), (g(m2[0]), g(m2[1]))
                )  # g^-1 = g
                rhs = per_bit_reduce(model5, g.apply_to_wedge(inner))
                assert lhs == rhs


# -- graded isomorphism ----------------------------------------------------


def test_isomorphism_model_to_quotient():
    for l in (5, 7, 9):
        D = build_chevalley_D(l)
        A, B = build_quotient_model(l).algebra, quotient_with_projection(D, center(D))[0]
        theta = find_graded_isomorphism(A, B)
        assert theta is not None
        assert PivotBasis(theta).rank == A.dim

        def apply(bits):
            out = 0
            for m in bit_indices(bits):
                out ^= theta[m]
            return out

        for i in range(A.dim):
            for j in range(i + 1, A.dim):
                assert apply(A.bracket_basis(i, j)) == bracket(B, theta[i], theta[j])
        # weight compatibility
        for i in range(A.dim):
            for m in bit_indices(theta[i]):
                assert B.weights[m] == A.weights[i]


def test_isomorphism_wrong_dimension_is_none(model5, d5):
    assert find_graded_isomorphism(model5.algebra, d5) is None


def test_isomorphism_model_to_itself_is_identity(model5):
    theta = find_graded_isomorphism(model5.algebra, model5.algebra)
    assert theta == [1 << i for i in range(model5.algebra.dim)]
