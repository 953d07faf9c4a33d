import random
import re
from itertools import combinations

import pytest
from oracles import (
    build_root_system,
    cochain_basis,
    coord_of_code,
    eval_basis,
    eval_vec_basis,
    first_truncated_failures,
    h2_weight_survey,
    monomial_index,
    per_class_rigidity_scan,
    representative,
    root_pair_keys,
    rref_nullspace,
    rref_solve,
    truncated_jacobi,
    wadd,
    wneg,
)

import d2lie.cohomology
import d2lie.deformation
from d2lie.algebra import (
    LieAlgebra,
    _coord_code,
    build_chevalley_D,
    center,
    check_jacobi,
    chevalley_rank,
    expected_center_generators,
)
from d2lie.cohomology import (
    Cochain,
    _block_coords,
    cochain_weight,
    differential,
    is_coboundary,
    weight_block,
)
from d2lie.deformation import (
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
)
from d2lie.exterior import build_quotient_model, phi
from d2lie.gf2 import PivotBasis, bit_indices


def e_weight(l, i, c):
    w = [0] * l
    w[i - 1] = c
    return tuple(w)


# -- cup square ------------------------------------------------------------


def test_cup_square_of_zero(d4):
    assert cup_square(d4, Cochain(2, d4.dim)).is_zero()


def test_cup_square_paper_triple(model5):
    A = model5.algebra
    psi = phi(4, model5)
    i1 = monomial_index(model5, -4, -5)
    i2 = monomial_index(model5, -4, 5)
    i3 = monomial_index(model5, 3, -4)
    e3e4 = 1 << model5.monomials.index((2, 3))
    cup = cup_square(A, psi)
    assert eval_basis(cup, i1, i2, i3) == e3e4
    # The displayed computation keeps only one cyclic term; the other two
    # vanish individually.
    assert eval_vec_basis(psi, eval_basis(psi, i2, i3), i1) == 0
    assert eval_vec_basis(psi, eval_basis(psi, i3, i1), i2) == 0
    assert eval_vec_basis(psi, eval_basis(psi, i1, i2), i3) == e3e4


def cup_square_at(psi, i: int, j: int, k: int) -> int:
    """Direct evaluation of the cyclic sum at one basis triple; an oracle for cup_square."""
    return (
        eval_vec_basis(psi, eval_basis(psi, i, j), k)
        ^ eval_vec_basis(psi, eval_basis(psi, j, k), i)
        ^ eval_vec_basis(psi, eval_basis(psi, i, k), j)
    )


def random_homogeneous_cochains(L, rng, n):
    """Up to n nonzero degree-2 cochains, each a random part of one weight block."""
    weights = sorted(set(L.weights))
    out = []
    for _ in range(n):
        block = weight_block(L, wadd(rng.choice(weights), rng.choice(weights)))
        data = {}
        for code in block.c2:
            key, k = coord_of_code(code, L.dim)
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
        assert eval_basis(cup, i, j, k) == cup_square_at(psi, i, j, k)


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


def test_obstruction_weight_is_twice_the_class_weight(model5, model7):
    # obstruction_verdict doubles the class weight instead of scanning the
    # cup square; the scan must give the same weight.
    for model in (model5, model7):
        A = model.algebra
        for r in rigidity_scan(model):
            assert r.obstruction_weight == tuple(2 * c for c in r.weight)
            assert r.obstruction_weight == cochain_weight(A, cup_square(A, r.representative))


def test_verdict_zero_for_even_cocycle(d4):
    rep = obstruction_verdict(d4, build_even_cocycle(d4))
    assert rep.verdict == VERDICT_ZERO
    assert rep.witness_key is None


def test_verdict_rejects_non_cocycle(d4):
    c = Cochain(2, d4.dim, {(0, 4): 1 << 5})
    assert not differential(d4, c).is_zero(), "d c is 0 on a cochain that is no cocycle"
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
        key, k = coord_of_code(code, d4.dim)
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
        key, k = coord_of_code(code, A.dim)
        xi = Cochain(1, A.dim, {key: 1 << k})
        shifted = psi5 + differential(A, xi)
        assert obstruction_verdict(A, shifted).verdict == VERDICT_NONTRIVIAL


def test_trivial_classes_with_a_nonzero_cup_square_get_the_coboundary_verdict(d4, model5):
    # psi = d eta for each basis 1-cochain eta of weight w = (-1, -1, 0, ..)
    # whose psi has a nonzero cup square: 11 of the 16 at D_4 and 14 of the
    # 20 on the rank-5 model.  Each square is a coboundary, and the report
    # gives its weight 2w and no witness.
    for L, count in ((d4, 11), (model5.algebra, 14)):
        w = (-1, -1) + (0,) * (len(L.weights[0]) - 2)
        reports = []
        for eta in cochain_basis(L, 1, w):
            psi = differential(L, eta)
            if not cup_square(L, psi).is_zero():
                reports.append(obstruction_verdict(L, psi))
        assert len(reports) == count
        for r in reports:
            assert (r.weight, r.verdict, r.obstruction_weight) == (w, VERDICT_COBOUNDARY, tuple(2 * c for c in w))
            assert (r.witness_key, r.witness_value_support, r.central_valued, r.vanishes_on_center) == (None,) * 4


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


def test_value_on_a_central_cartan_index_breaks_vanishing_on_center(d4):
    # H_1 (index 0) lies in the central element H_1 + H_4, so psi(H_1 + H_4, b_4)
    # is psi(b_0, b_4) = b_5 and psi does not vanish on the centre.
    psi = Cochain(2, d4.dim, {(0, 4): 1 << 5})
    rows = center(d4)
    assert 0b1001 in rows
    assert eval_vec_basis(psi, 0b1001, 4) == 1 << 5
    assert not vanishes_on_center(d4, psi)
    # The verdict is the one-sided definition, over every centre row and basis vector.
    values = [eval_vec_basis(psi, z, x) for z in rows for x in range(d4.dim)]
    assert vanishes_on_center(d4, psi) == (not any(values))


def test_vanishing_on_center_is_a_parity_over_each_centre_row(d4):
    # The centre rows are H_1 + H_4 and H_3 + H_4.  Each sends b_4 to two equal
    # values that cancel, so psi vanishes on the centre although it is nonzero
    # at every central basis vector.
    rows = center(d4)
    assert set(rows) == {0b1001, 0b1100}
    v = 1 << 5
    psi = Cochain(2, d4.dim, {(0, 4): v, (2, 4): v, (3, 4): v})
    assert all(eval_basis(psi, i, 4) for i in (0, 2, 3))
    assert vanishes_on_center(d4, psi)


def test_vanishing_on_center_matches_the_pair_by_pair_oracle(d4, d6, timed_survey):
    # Every class integrability builds, checked against psi(z, b_x) summed pair by pair.
    for L, classes in ((d4, 24), (d6, 12)):
        weights = list(timed_survey(L)[0])
        assert len(weights) == classes
        rows = center(L)
        for mu in weights:
            psi = build_even_cocycle(L, mu)
            values = [eval_vec_basis(psi, z, x) for z in rows for x in range(L.dim)]
            assert vanishes_on_center(L, psi) == (not any(values)), mu


def test_vanishing_on_center_needs_a_degree_two_cochain(d4):
    with pytest.raises(ValueError, match="degree-2"):
        vanishes_on_center(d4, Cochain(3, d4.dim, {(0, 4, 5): 1 << 6}))


def test_zero_cochain_centre_properties(d4):
    z = Cochain(2, d4.dim)
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
    assert not is_coboundary(d4, psi)


def test_even_cocycle_requires_even_rank(d5):
    with pytest.raises(ValueError):
        build_even_cocycle(d5)


def test_even_cocycle_no_pairs_error(d4):
    # (40, 0, 0, 0) lies past the packed weight fields as well as off every pair sum.
    for mu in ((3, 0, 0, 0), (40, 0, 0, 0)):
        with pytest.raises(ValueError, match="no root pairs add up to"):
            build_even_cocycle(d4, mu)


def test_even_cocycle_keys_equal_the_root_pair_oracle(d4, d6, d8):
    # The pairs read off the weight-sum index are the root pairs g + d = mu,
    # at the default weight 2 eps_(l-1) and at every class.
    for L in (d4, d6, d8):
        l = chevalley_rank(L)
        assert set(build_even_cocycle(L).data) == root_pair_keys(L, e_weight(l, l - 1, 2))
        for mu in h2_weight_survey(L):
            assert set(build_even_cocycle(L, mu).data) == root_pair_keys(L, mu), (l, mu)


def test_even_cocycle_keys_at_every_pair_sum_weight(d4, monkeypatch):
    # With every psi taken as nontrivial, the keys at -s, for each sum s of two
    # basis weights, are still the root pairs: a pair holding a Cartan index
    # (s a root or 0) is left out.
    monkeypatch.setattr("d2lie.deformation.is_coboundary", lambda L, c: False)
    for s in d4.weight_sums(2):
        mu = wneg(d4.weight_of_code(s))
        assert set(build_even_cocycle(d4, mu).data) == root_pair_keys(d4, mu), mu


def test_even_cocycle_value_is_central(d4):
    psi = build_even_cocycle(d4)
    Z = PivotBasis(center(d4))
    for v in psi.data.values():
        assert Z.contains(v)


def test_quoted_weight_class_is_checked_nontrivial(d4, monkeypatch):
    # The paper's own class goes through the same nontriviality check as
    # every other weight.
    seen = []

    def spy(L, c):
        seen.append(c)
        return is_coboundary(L, c)

    monkeypatch.setattr("d2lie.deformation.is_coboundary", spy)
    psi = build_even_cocycle(d4)
    assert seen == [psi]


def test_even_cocycle_takes_the_paper_value_at_d6(d6):
    # H_5 + H_3 + H_1 gives a nontrivial class at every H^2 weight of D_6.
    paper = expected_center_generators(6)[1]
    for mu in h2_weight_survey(d6):
        assert set(build_even_cocycle(d6, mu).data.values()) == {paper}


def test_even_cocycles_are_not_dense_coboundaries(d4, d6):
    # Each class's psi lies outside the column span of its block's dense d1.
    for L in (d4, d6):
        for mu in h2_weight_survey(L):
            psi = build_even_cocycle(L, mu)
            block = weight_block(L, mu)
            pos = {code: p for p, code in enumerate(block.c2)}
            b = sum(1 << pos[_coord_code(key, k, L.dim)] for key, v in psi.data.items() for k in bit_indices(v))
            assert rref_solve(block.d1, b) is None, f"rank {chevalley_rank(L)}, weight {mu}"


# -- the deformation check ------------------------------------------------------
#
# integrability accepts f_t = [.,.] + t psi when check_jacobi passes on L (the
# t^0 coefficient) and the verdict is ZERO (t^2); obstruction_verdict raises
# unless d psi = 0 (t).  The truncated-ring oracle judges each power apart.


def assert_decision_agrees(L, psi):
    """Each power the oracle finds failing fails the check integrability makes,
    at the oracle's triple, and a class passes only when the oracle finds none."""
    oracle = first_truncated_failures(L, psi)
    jacobi = check_jacobi(L)
    assert (jacobi.triple, jacobi.defect) == oracle.get(0, (None, 0))
    if 1 in oracle:
        triple, value = oracle[1]
        with pytest.raises(ValueError, match=re.escape(f"triple {triple} is {tuple(bit_indices(value))}")):
            obstruction_verdict(L, psi)
        return
    report = obstruction_verdict(L, psi)
    assert (jacobi.ok and report.verdict == VERDICT_ZERO) == (not oracle)
    assert (report.verdict == VERDICT_ZERO) == (2 not in oracle)
    if report.verdict == VERDICT_NONTRIVIAL:
        triple, value = oracle[2]
        assert report.witness_key == triple
        assert report.witness_value_support == tuple(bit_indices(value))


def test_deform_with_zero_cochain_is_base_bracket(d4):
    zero = Cochain(2, d4.dim)
    assert first_truncated_failures(d4, zero) == {}
    assert check_jacobi(d4).ok
    assert obstruction_verdict(d4, zero).verdict == VERDICT_ZERO


def test_deformation_passes_for_even_cocycle(d4):
    psi = build_even_cocycle(d4)
    assert first_truncated_failures(d4, psi) == {}
    assert check_jacobi(d4).ok
    assert obstruction_verdict(d4, psi).verdict == VERDICT_ZERO


def test_reports_and_model_are_immutable(d4, model5):
    # Reports and models are shared values: no field can be reassigned
    # and no attribute added.
    psi = build_even_cocycle(d4)
    for record, field in (
        (obstruction_verdict(d4, psi), "verdict"),
        (check_jacobi(d4), "ok"),
        (model5, "algebra"),
    ):
        for name in (field, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)


def test_deformation_fails_at_t2_for_phi(model5):
    A = model5.algebra
    psi = phi(4, model5)
    oracle = first_truncated_failures(A, psi)
    assert set(oracle) == {2}
    report = obstruction_verdict(A, psi)
    assert report.verdict == VERDICT_NONTRIVIAL
    triple, value = oracle[2]
    assert report.witness_key == triple
    assert report.witness_value_support == tuple(bit_indices(value))


def test_deformation_fails_at_t0_for_corrupted_base(d4):
    bad = dict(d4.brackets)
    bad[(0, 4)] = bad.get((0, 4), 0) ^ (1 << 5)  # flip one structure constant
    broken = LieAlgebra(d4.labels, d4.weights, bad)
    report = check_jacobi(broken)
    assert not report.ok
    for psi in (Cochain(2, d4.dim), build_even_cocycle(d4)):
        assert (report.triple, report.defect) == first_truncated_failures(broken, psi)[0]


def test_deformation_fails_at_t1_for_non_cocycle(d4):
    psi = Cochain(2, d4.dim, {(0, 4): 1 << 5})
    oracle = first_truncated_failures(d4, psi)
    assert 0 not in oracle and 1 in oracle
    triple, value = oracle[1]
    assert value == eval_basis(differential(d4, psi), *triple)
    with pytest.raises(ValueError, match=re.escape(f"triple {triple} is {tuple(bit_indices(value))}")):
        obstruction_verdict(d4, psi)


def test_cochains_of_another_dimension_rejected(d4):
    # Cochains on 45 basis vectors handed to the 28-dimensional D_4: one
    # whose key and value lie past D_4's basis, one whose key straddles it.
    # Every entry point rejects both, naming both dimensions.
    checks = (differential, cup_square, is_coboundary, obstruction_verdict)
    for c in (Cochain(2, 45, {(30, 40): 1 << 44}), Cochain(2, 45, {(5, 30): 1 << 3})):
        for check in checks:
            with pytest.raises(ValueError, match="dimension 45 on an algebra of dimension 28"):
                check(d4, c)


def test_deformation_rejects_degree_three_cochain(d4):
    c = Cochain(3, d4.dim, {(0, 4, 5): 1})
    for check in (cup_square, obstruction_verdict):
        with pytest.raises(ValueError, match="degree-2"):
            check(d4, c)


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
                assert j1 == eval_basis(dpsi, i, j, k)
                assert j2 == eval_basis(cup, i, j, k)
            assert_decision_agrees(L, psi)


def test_random_cocycles_obstruction_equals_t2(d4):
    # For genuine cocycles the t coefficient vanishes and the t^2
    # coefficient is the whole story.
    rng = random.Random(34)
    sys4 = build_root_system(4)
    mu = wadd(sys4.simple[3], sys4.simple[2])
    block = weight_block(d4, mu)
    kernel = rref_nullspace(block.d2)
    assert len(kernel) > 0
    for _ in range(5):
        combo = 0
        for r in range(len(kernel)):
            if rng.getrandbits(1):
                combo ^= kernel[r]
        if not combo:
            continue
        data = {}
        for col in bit_indices(combo):
            key, k = coord_of_code(block.c2[col], d4.dim)
            data[key] = data.get(key, 0) ^ (1 << k)
        psi = Cochain(2, d4.dim, data)
        assert differential(d4, psi).is_zero()
        report = obstruction_verdict(d4, psi)
        assert (report.verdict == VERDICT_ZERO) == cup_square(d4, psi).is_zero()


# -- scans --------------------------------------------------------------------------


def test_rigidity_scan_l5(model5):
    reports = rigidity_scan(model5)
    assert len(reports) == 10
    assert all(r.verdict == VERDICT_NONTRIVIAL for r in reports)
    for r in reports:
        doubled = tuple(2 * c for c in r.weight)
        assert r.obstruction_weight == doubled
    assert [r.weight for r in reports] == sorted(r.weight for r in reports)


def test_cup_square_weights_hold_no_other_term(model5, model7, model9, timed_survey):
    # Rigidity's weight argument on the survey's own weights: C^2 is empty at
    # +-4 eps_i, so B^3 is 0 there, and no two distinct H^2 weights add up to
    # +-4 eps_i.  So the +-4 eps_i part of the cup square of sum c_i phi_i is
    # c_i^2 (phi_i cup phi_i), nonzero whenever c_i is.
    for model in (model5, model7, model9):
        L, l = model.algebra, model.l
        weights = list(timed_survey(L)[0])
        assert len(weights) == 2 * l
        for i in range(1, l + 1):
            for sign in (1, -1):
                target = e_weight(l, i, 4 * sign)
                assert _block_coords(L, 2, target) == [], (l, target)
                assert not [(a, b) for a, b in combinations(weights, 2) if wadd(a, b) == target], (l, target)


def test_rigidity_scan_equals_the_per_class_oracle(model5, model7, model9):
    for model in (model5, model7, model9):
        assert rigidity_scan(model) == per_class_rigidity_scan(model)


def _counted(monkeypatch, module, name):
    """Replace module.name by a function that records its arguments; return the record."""
    fn = getattr(module, name)
    calls = []

    def spy(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(module, name, spy)
    return calls


def test_rigidity_scan_judges_one_class_directly(model5, model7, monkeypatch):
    # Only the class at -2 eps_1 runs obstruction_verdict, and with it the
    # one degree-2 cocycle check; every class still gets its coboundary test,
    # and each of those checks that the cup square is a cocycle.
    for model in (model5, model7):
        verdicts = _counted(monkeypatch, d2lie.deformation, "obstruction_verdict")
        coboundaries = _counted(monkeypatch, d2lie.deformation, "is_coboundary")
        cocycles = _counted(monkeypatch, d2lie.cohomology, "require_cocycle")
        reports = rigidity_scan(model)
        assert [psi for _, psi in verdicts] == [phi(-1, model)]
        assert len(coboundaries) == 2 * model.l
        assert [c for _, c in cocycles] == [cup for _, cup in coboundaries]
        assert [cup_square(model.algebra, r.representative) for r in reports] == sorted(
            (c for _, c in coboundaries), key=lambda c: cochain_weight(model.algebra, c)
        )
        monkeypatch.undo()


def test_rigidity_scan_without_an_automorphism_judges_every_class(model5, monkeypatch):
    monkeypatch.setattr(d2lie.deformation, "find_graded_isomorphism", lambda A, B, g: None)
    verdicts = _counted(monkeypatch, d2lie.deformation, "obstruction_verdict")
    assert rigidity_scan(model5) == per_class_rigidity_scan(model5)
    assert len(verdicts) == 10


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
