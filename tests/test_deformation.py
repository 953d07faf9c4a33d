import random
from itertools import combinations

import pytest
from oracles import first_truncated_failure, representative, truncated_jacobi

from d2lie.algebra import LieAlgebra, build_chevalley_D, center
from d2lie.cohomology import (
    Cochain,
    cochain_weight,
    differential,
    is_coboundary,
    weight_block,
    _coord_of_code,
)
from d2lie.deformation import (
    DeformedAlgebra,
    ObstructionReport,
    VERDICT_COBOUNDARY,
    VERDICT_NONTRIVIAL,
    VERDICT_ZERO,
    build_even_cocycle,
    central_valued,
    cup_square,
    integrability_scan,
    obstruction_verdict,
    rigidity_scan,
    scan_to_json,
    vanishes_on_center,
    verify_deformation,
)
from d2lie.exterior import build_quotient_model, phi
from d2lie.gf2 import bit_indices
from d2lie.roots import build_root_system, wadd


def e_weight(l, i, c):
    w = [0] * l
    w[i - 1] = c
    return tuple(w)


# -- cup square ------------------------------------------------------------


def test_cup_square_of_zero(d4):
    assert cup_square(d4, Cochain.zero(2, d4.dim)).is_zero()


def test_cup_square_paper_triple(model5):
    A = model5.algebra
    psi = phi(4, model5)
    i1 = model5.monomial_index(-4, -5)
    i2 = model5.monomial_index(-4, 5)
    i3 = model5.monomial_index(3, -4)
    e3e4 = 1 << model5.monomials.index((2, 3))
    cup = cup_square(A, psi)
    assert cup.eval_basis(i1, i2, i3) == e3e4
    # The displayed computation keeps only one cyclic term; the other two
    # vanish individually.
    assert psi.eval_vec_basis(psi.eval_basis(i2, i3), i1) == 0
    assert psi.eval_vec_basis(psi.eval_basis(i3, i1), i2) == 0
    assert psi.eval_vec_basis(psi.eval_basis(i1, i2), i3) == e3e4


def cup_square_at(psi, i: int, j: int, k: int) -> int:
    """Direct evaluation of the cyclic sum at one basis triple; an oracle for cup_square."""
    return (
        psi.eval_vec_basis(psi.eval_basis(i, j), k)
        ^ psi.eval_vec_basis(psi.eval_basis(j, k), i)
        ^ psi.eval_vec_basis(psi.eval_basis(i, k), j)
    )


def random_homogeneous_cochains(L, rng, n):
    """Up to n nonzero degree-2 cochains, each a random part of one weight block."""
    weights = sorted(set(L.weights))
    out = []
    for _ in range(n):
        block = weight_block(L, wadd(rng.choice(weights), rng.choice(weights)))
        data = {}
        for code in block.c2:
            key, k = _coord_of_code(code, L.dim)
            if rng.random() < 0.3:
                data[key] = data.get(key, 0) ^ (1 << k)
        psi = Cochain(2, L.dim, data)
        if not psi.is_zero():
            out.append(psi)
    return out


def test_cup_square_agrees_with_direct_cyclic_sum(model5, d4):
    rng = random.Random(31)
    cases = [(model5.algebra, phi(4, model5))]
    cases += [(d4, psi) for psi in random_homogeneous_cochains(d4, rng, 12)]
    nonzero = 0
    for L, psi in cases:
        cup = cup_square(L, psi)
        direct = {}
        for t in combinations(range(L.dim), 3):
            v = cup_square_at(psi, *t)
            if v:
                direct[t] = v
        assert cup.data == direct
        nonzero += bool(direct)
    assert nonzero > 1
    # A sampled check with the triple in any order: the cyclic sum is symmetric.
    A = model5.algebra
    psi = phi(4, model5)
    cup = cup_square(A, psi)
    for _ in range(200):
        i, j, k = rng.sample(range(A.dim), 3)
        assert cup.eval_basis(i, j, k) == cup_square_at(psi, i, j, k)


def test_cup_square_weight_doubling(model5, d4):
    A = model5.algebra
    psi = phi(2, model5)
    cup = cup_square(A, psi)
    assert cochain_weight(A, psi) == e_weight(5, 2, 2)
    assert cochain_weight(A, cup) == e_weight(5, 2, 4)
    psi4 = build_even_cocycle(d4)
    assert cup_square(d4, psi4).is_zero()  # weight doubling holds vacuously


def test_even_cocycle_cup_square_vanishes_identically(d4):
    psi = build_even_cocycle(d4)
    assert cup_square(d4, psi).is_zero()


# -- verdicts ----------------------------------------------------------------


def test_verdict_nontrivial_for_phi(model5):
    A = model5.algebra
    rep = obstruction_verdict(A, phi(4, model5))
    assert rep.verdict == VERDICT_NONTRIVIAL
    assert rep.weight == e_weight(5, 4, 2)
    assert rep.obstruction_weight == e_weight(5, 4, 4)
    assert rep.witness_key is not None
    assert rep.witness_value_support


def test_verdict_zero_for_even_cocycle(d4):
    rep = obstruction_verdict(d4, build_even_cocycle(d4))
    assert rep.verdict == VERDICT_ZERO
    assert rep.witness_key is None


def test_verdict_rejects_non_cocycle(d4):
    c = Cochain(2, d4.dim, {(0, 4): 1 << 5})
    if differential(d4, c).is_zero():
        pytest.skip("accidental cocycle")
    with pytest.raises(ValueError):
        obstruction_verdict(d4, c)


def test_verdict_class_insensitive_to_coboundary_shift(d4, model5):
    # Shifting a representative by d(xi) may move ZERO to COBOUNDARY but
    # never across the trivial/nontrivial divide.
    def verdict_class(v):
        return v in (VERDICT_ZERO, VERDICT_COBOUNDARY)

    sys4 = build_root_system(4)
    mu = wadd(sys4.simple[3], sys4.simple[2])
    psi = build_even_cocycle(d4, mu)
    base = verdict_class(obstruction_verdict(d4, psi).verdict)
    assert base is True
    block = weight_block(d4, mu)
    for code in block.c1:
        key, k = _coord_of_code(code, d4.dim)
        xi = Cochain(1, d4.dim, {key: 1 << k})
        shifted = psi + differential(d4, xi)
        rep = obstruction_verdict(d4, shifted)
        assert verdict_class(rep.verdict) is True

    A = model5.algebra
    psi5 = phi(4, model5)
    mu5 = e_weight(5, 4, 2)
    block5 = weight_block(A, mu5)
    rng = random.Random(32)
    for code in rng.sample(list(block5.c1), min(6, len(block5.c1))):
        key, k = _coord_of_code(code, A.dim)
        xi = Cochain(1, A.dim, {key: 1 << k})
        shifted = psi5 + differential(A, xi)
        assert obstruction_verdict(A, shifted).verdict == VERDICT_NONTRIVIAL


# -- centre interaction --------------------------------------------------------


def test_even_cocycle_centre_properties(d4):
    psi = build_even_cocycle(d4)
    assert central_valued(d4, psi)
    assert vanishes_on_center(d4, psi)


def test_phi_not_central_valued(model5):
    A = model5.algebra
    psi = phi(4, model5)
    assert not central_valued(A, psi)  # centre is zero, values are not
    assert vanishes_on_center(A, psi)  # vacuous: no central directions


def test_zero_cochain_centre_properties(d4):
    z = Cochain.zero(2, d4.dim)
    assert central_valued(d4, z)
    assert vanishes_on_center(d4, z)


# -- the distinguished even-rank cocycle -----------------------------------------


def test_even_cocycle_structure_l4(d4):
    psi = build_even_cocycle(d4)
    # Three unordered root pairs add to 2 eps_3 at rank 4.
    assert len(psi.data) == 3
    z = 0b101  # H1 + H3
    assert set(psi.data.values()) == {z}
    assert cochain_weight(d4, psi) == (0, 0, 2, 0)
    assert differential(d4, psi).is_zero()
    trivial, _ = is_coboundary(d4, psi)
    assert not trivial


def test_even_cocycle_requires_even_rank(d5):
    with pytest.raises(ValueError):
        build_even_cocycle(d5)


def test_even_cocycle_no_pairs_error(d4):
    with pytest.raises(ValueError):
        build_even_cocycle(d4, (3, 0, 0, 0))


def test_even_cocycle_value_is_central(d4):
    psi = build_even_cocycle(d4)
    Z = center(d4)
    for v in psi.data.values():
        assert Z.contains(v)


# -- deformed brackets ------------------------------------------------------------


def test_deform_with_zero_cochain_is_base_bracket(d4):
    zero = Cochain.zero(2, d4.dim)
    D = DeformedAlgebra(d4, zero)
    assert D.base is d4 and D.cochain == zero
    report = verify_deformation(D)
    assert report.ok and report.failing_triple is None and report.failing_value == 0


def test_deformation_passes_for_even_cocycle(d4):
    report = verify_deformation(DeformedAlgebra(d4, build_even_cocycle(d4)))
    assert report.ok
    assert report.base_ok and report.t1_ok and report.t2_ok


def test_reports_and_model_are_immutable(d4, model5):
    # Reports and models are shared values: no field can be reassigned
    # and no attribute added.
    psi = build_even_cocycle(d4)
    for record, field in (
        (obstruction_verdict(d4, psi), "verdict"),
        (verify_deformation(DeformedAlgebra(d4, psi)), "ok"),
        (model5, "algebra"),
    ):
        for name in (field, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)


def _failure(report):
    return report.failing_triple, report.failing_power, report.failing_value


def test_deformation_fails_at_t2_for_phi(model5):
    A = model5.algebra
    psi = phi(4, model5)
    cup = cup_square(A, psi)
    report = verify_deformation(DeformedAlgebra(A, psi))
    assert not report.ok
    assert report.t1_ok and not report.t2_ok
    assert report.failing_power == 2
    first_key, first_val = cup.items_sorted()[0]
    assert report.failing_triple == first_key
    assert report.failing_value == first_val
    assert _failure(report) == first_truncated_failure(A, psi)


def test_deformation_fails_at_t0_for_corrupted_base(d4):
    bad = dict(d4.brackets)
    bad[(0, 4)] = bad.get((0, 4), 0) ^ (1 << 5)  # flip one structure constant
    broken = LieAlgebra(d4.labels, d4.weights, bad)
    for psi in (Cochain.zero(2, d4.dim), build_even_cocycle(d4)):
        report = verify_deformation(DeformedAlgebra(broken, psi))
        assert not report.ok and not report.base_ok
        assert report.failing_power == 0
        assert _failure(report) == first_truncated_failure(broken, psi)


def test_deformation_fails_at_t1_for_non_cocycle(d4):
    psi = Cochain(2, d4.dim, {(0, 4): 1 << 5})
    report = verify_deformation(DeformedAlgebra(d4, psi))
    assert not report.ok
    assert report.base_ok and not report.t1_ok
    assert report.failing_power == 1
    assert report.failing_value == differential(d4, psi).eval_basis(*report.failing_triple)
    assert _failure(report) == first_truncated_failure(d4, psi)


def test_cochains_of_another_dimension_rejected(d4):
    # Cochains on 45 basis vectors handed to the 28-dimensional D_4: one
    # whose key and value lie past D_4's basis, one whose key straddles it.
    # Every entry point rejects both, naming both dimensions.
    checks = (
        differential,
        cup_square,
        is_coboundary,
        obstruction_verdict,
        lambda L, c: verify_deformation(DeformedAlgebra(L, c)),
    )
    for c in (Cochain(2, 45, {(30, 40): 1 << 44}), Cochain(2, 45, {(5, 30): 1 << 3})):
        for check in checks:
            with pytest.raises(ValueError, match="dimension 45 on an algebra of dimension 28"):
                check(d4, c)


def test_deformation_rejects_degree_three_cochain(d4):
    with pytest.raises(ValueError):
        verify_deformation(DeformedAlgebra(d4, Cochain(3, d4.dim, {(0, 4, 5): 1})))


def test_jacobi_coefficients_match_d_and_cup_on_random_cochains(d4, model5):
    # The t and t^2 coefficients of the truncated Jacobi sum are d(psi)
    # and the cup square, cocycle or not.
    rng = random.Random(33)
    for L in (d4, model5.algebra):
        for psi in random_homogeneous_cochains(L, rng, 6):
            dpsi = differential(L, psi)
            cup = cup_square(L, psi)
            for _ in range(40):
                i, j, k = sorted(rng.sample(range(L.dim), 3))
                j0, j1, j2 = truncated_jacobi(L, psi, i, j, k)
                assert j0 == 0
                assert j1 == dpsi.eval_basis(i, j, k)
                assert j2 == cup.eval_basis(i, j, k)
            report = verify_deformation(DeformedAlgebra(L, psi))
            assert _failure(report) == (first_truncated_failure(L, psi) or (None, None, 0))


def test_random_cocycles_obstruction_equals_t2(d4):
    # For genuine cocycles the t coefficient vanishes and the t^2
    # coefficient is the whole story.
    rng = random.Random(34)
    sys4 = build_root_system(4)
    mu = wadd(sys4.simple[3], sys4.simple[2])
    block = weight_block(d4, mu)
    kernel = block.d2.nullspace()
    assert kernel.nrows > 0
    for _ in range(5):
        combo = 0
        for r in range(kernel.nrows):
            if rng.getrandbits(1):
                combo ^= kernel.rows[r]
        if not combo:
            continue
        data = {}
        for col in bit_indices(combo):
            key, k = _coord_of_code(block.c2[col], d4.dim)
            data[key] = data.get(key, 0) ^ (1 << k)
        psi = Cochain(2, d4.dim, data)
        assert differential(d4, psi).is_zero()
        report = verify_deformation(DeformedAlgebra(d4, psi))
        assert report.t1_ok
        assert report.t2_ok == cup_square(d4, psi).is_zero()


# -- scans --------------------------------------------------------------------------


def test_rigidity_scan_l5(model5):
    reports = rigidity_scan(model5)
    assert len(reports) == 10
    assert all(r.verdict == VERDICT_NONTRIVIAL for r in reports)
    for r in reports:
        doubled = tuple(2 * c for c in r.weight)
        assert r.obstruction_weight == doubled
    assert [r.weight for r in reports] == sorted(r.weight for r in reports)


def test_rigidity_scan_rejects_small_rank(model3):
    with pytest.raises(ValueError):
        rigidity_scan(model3)


def test_rigidity_scan_agrees_with_representative_choice(model5):
    A = model5.algebra
    for i in (1, 4):
        mu = e_weight(5, i, 2)
        v1 = obstruction_verdict(A, phi(i, model5)).verdict
        v2 = obstruction_verdict(A, representative(A, mu)).verdict
        assert v1 == v2 == VERDICT_NONTRIVIAL


def test_integrability_scan_l4(d4):
    reports = integrability_scan(d4)
    assert len(reports) == 24
    assert all(r.verdict == VERDICT_ZERO for r in reports)
    assert all(r.central_valued and r.vanishes_on_center for r in reports)


def test_integrability_scan_rejects_odd_rank(d5):
    with pytest.raises(ValueError):
        integrability_scan(d5)


def test_scan_json_is_deterministic(model5):
    reports = rigidity_scan(model5)
    doc1 = scan_to_json(5, "rigidity", reports)
    doc2 = scan_to_json(5, "rigidity", rigidity_scan(model5))
    assert doc1 == doc2
    assert doc1["parity"] == "odd"
    assert doc1["verdicts"] == [VERDICT_NONTRIVIAL]
    import json

    assert json.dumps(doc1, sort_keys=True) == json.dumps(doc2, sort_keys=True)
