"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines and timings.  Everything is exact GF(2) arithmetic, so every
comparison is bit-exact equality.
"""

import random
import time

from oracles import (
    basis_vector,
    bracket,
    build_root_system,
    cochain_basis,
    composite_is_zero,
    coord_of_code,
    eval_basis,
    eval_vec_basis,
    h2_weight_survey,
    monomial_index,
    monomial_pos,
    per_bit_reduce,
    phi_eval,
    quotient_with_projection,
    rref_nullspace,
    transvection,
    truncated_jacobi,
    ungraded_h2_dim,
    wadd,
    wdot,
    weyl_orbit,
    wzero,
)

from d2lie.algebra import (
    build_chevalley_D,
    center,
    check_jacobi,
    expected_center_generators,
)
from d2lie.cohomology import (
    Cochain,
    cochain_weight,
    cohomology_dim,
    differential,
    find_graded_isomorphism,
    is_coboundary,
    weight_block,
)
from d2lie.deformation import (
    VERDICT_NONTRIVIAL,
    VERDICT_ZERO,
    build_even_cocycle,
    cup_square,
    integrability_scan,
    rigidity_scan,
)
from d2lie.exterior import build_quotient_model, phi
from d2lie.gf2 import GF2Matrix, bit_indices, row_reduce


def _stamp(num: int, name: str, t0: float) -> None:
    print(f"\nACCEPTANCE {num} ({name}): PASS [{time.time() - t0:.1f}s]")


def _eps2(l: int) -> set:
    out = set()
    for i in range(l):
        for s in (2, -2):
            w = [0] * l
            w[i] = s
            out.add(tuple(w))
    return out


def test_criterion_1_jacobi_suite(model5, model7):
    t0 = time.time()
    for l in range(3, 9):
        L = build_chevalley_D(l)
        assert check_jacobi(L).ok, f"Jacobi fails for rank {l}"
        Q, _ = quotient_with_projection(L, center(L))
        assert check_jacobi(Q).ok, f"Jacobi fails for the rank-{l} quotient"
    assert check_jacobi(model5.algebra).ok
    assert check_jacobi(model7.algebra).ok
    elapsed = time.time() - t0
    assert elapsed < 30.0, f"Jacobi suite took {elapsed:.1f}s"
    _stamp(1, "Jacobi suite", t0)


def test_criterion_2_centre_claims():
    t0 = time.time()
    for l in range(4, 9):
        L = build_chevalley_D(l)
        Z = center(L)
        assert len(Z) == (1 if l % 2 else 2), f"centre dim wrong at rank {l}"
        gens = expected_center_generators(l)
        assert Z == row_reduce(gens), f"centre generators differ at rank {l}"
    _stamp(2, "centre claims", t0)


def test_criterion_3_cohomology_dimensions(model5, model7, model9, d4, d6, d8, timed_survey):
    t0 = time.time()
    cases = [
        ("model rank 5", model5.algebra, 10),
        ("model rank 7", model7.algebra, 14),
        ("model rank 9", model9.algebra, 18),
        ("D4", d4, 24),
        ("D6", d6, 12),
        ("D8", d8, 16),
    ]
    for name, L, expected in cases:
        survey, elapsed = timed_survey(L)
        assert sum(survey.values()) == expected, f"{name}: wrong total"
        assert set(survey.values()) == {1}, f"{name}: a weight space is not 1-dim"
        assert wzero(len(L.weights[0])) not in survey, f"{name}: H2 at weight 0"
        assert cohomology_dim(L, wzero(len(L.weights[0]))) == 0
        assert elapsed < 120.0, f"{name}: survey took {elapsed:.1f}s"
    _stamp(3, "cohomology dimensions", t0)


def test_criterion_4_weight_lists(model5, model7, model9, d4, d6, d8, timed_survey):
    t0 = time.time()
    ranks = ((model5.algebra, 5), (d6, 6), (model7.algebra, 7), (d8, 8), (model9.algebra, 9))
    for L, l in ranks:
        assert set(timed_survey(L)[0]) == _eps2(l), f"weights differ at rank {l}"
    # Rank 4: the three stated orbits.
    sys4 = build_root_system(4)
    a1, a3, a4 = sys4.simple[0], sys4.simple[2], sys4.simple[3]
    orbits = (
        weyl_orbit(wadd(a1, a3), sys4)
        | weyl_orbit(wadd(a1, a4), sys4)
        | weyl_orbit(wadd(a3, a4), sys4)
    )
    weights4 = set(timed_survey(d4)[0])
    assert weights4 == set(orbits)
    assert len(weights4) == 24
    # Every supported weight splits as an orthogonal pair of roots.
    for L, l in (*ranks, (d4, 4)):
        system = build_root_system(l)
        for mu in timed_survey(L)[0]:
            found = any(
                tuple(m - g for m, g in zip(mu, gamma)) in system.root_set
                and wdot(gamma, tuple(m - g for m, g in zip(mu, gamma))) == 0
                for gamma in system.roots
            )
            assert found, f"weight {mu} is not an orthogonal root-pair sum"
    _stamp(4, "weight lists", t0)


def test_criterion_5_worked_computation(model5):
    t0 = time.time()
    A = model5.algebra
    psi = phi(4, model5)
    i1 = monomial_index(model5, -4, -5)
    i2 = monomial_index(model5, -4, 5)
    i3 = monomial_index(model5, 3, -4)
    e5em5 = per_bit_reduce(model5, 1 << monomial_pos(5)[(4, 5)])
    assert eval_basis(psi, i1, i2) == e5em5
    e3e4 = 1 << model5.monomials.index((2, 3))
    assert eval_vec_basis(psi, e5em5, i3) == e3e4

    cup = cup_square(A, psi)
    assert eval_basis(cup, i1, i2, i3) == e3e4

    mu4 = (0, 0, 0, 4, 0)
    assert cochain_basis(A, 2, mu4) == []
    assert cochain_weight(A, cup) == mu4
    assert not is_coboundary(A, cup)
    _stamp(5, "worked cup-square computation", t0)


def test_criterion_6_rigidity(model5, model7):
    t0 = time.time()
    for model, l in ((model5, 5), (model7, 7)):
        reports = rigidity_scan(model)
        assert len(reports) == 2 * l
        assert all(r.verdict == VERDICT_NONTRIVIAL for r in reports)
    _stamp(6, "rigidity at odd rank", t0)


def test_criterion_7_integrability(d4, d6):
    t0 = time.time()
    for L, l in ((d4, 4), (d6, 6)):
        reports = integrability_scan(L)
        assert len(reports) == (24 if l == 4 else 2 * l)
        assert all(r.verdict == VERDICT_ZERO for r in reports)
        # The t^0, t and t^2 coefficients of the Jacobi sum of [.,.] + t psi,
        # each decided apart from the verdict.
        assert check_jacobi(L).ok
        for r in reports:
            psi = r.representative
            assert psi == build_even_cocycle(L, r.weight)
            assert differential(L, psi).is_zero() and cup_square(L, psi).is_zero(), (
                f"deformation fails at rank {l}, weight {r.weight}"
            )
    _stamp(7, "integrability at even rank", t0)


def test_criterion_8_oracle_equivalences(model5, d4, d5_quotient):
    t0 = time.time()
    # (a) rank vs brute-force span enumeration, at most 12 columns.
    rng = random.Random(99)
    for _ in range(60):
        nrows = rng.randrange(1, 9)
        ncols = rng.randrange(1, 13)
        m = GF2Matrix(nrows, ncols, (rng.getrandbits(ncols) for _ in range(nrows)))
        span = {0}
        for r in m.rows:
            span |= {s ^ r for s in span}
        assert 2 ** m.rank() == len(span)
    # (b) graded vs ungraded second cohomology at rank 4.
    assert sum(h2_weight_survey(d4).values()) == ungraded_h2_dim(d4)
    # (c) explicit graded isomorphism onto the centre quotient, verified
    # on every basis pair.
    A, B = model5.algebra, d5_quotient
    theta = find_graded_isomorphism(A, B, lambda w: w)
    assert theta is not None
    assert GF2Matrix(A.dim, B.dim, theta).rank() == A.dim

    def apply(bits):
        out = 0
        for m in bit_indices(bits):
            out ^= theta[m]
        return out

    for i in range(A.dim):
        for j in range(i + 1, A.dim):
            assert apply(A.bracket_basis(i, j)) == bracket(B, theta[i], theta[j])
    _stamp(8, "oracle equivalences", t0)


def test_criterion_9_property_suites(model5, d4):
    t0 = time.time()
    rng = random.Random(100)

    # d o d = 0 on weight blocks: every supported weight plus random ones.
    for L in (d4, model5.algebra):
        mus = sorted(h2_weight_survey(L))
        weights = sorted(set(L.weights))
        for _ in range(4):
            mus.append(wadd(rng.choice(weights), rng.choice(weights)))
        for mu in mus:
            assert composite_is_zero(weight_block(L, mu)), f"d2 d1 != 0 at {mu}"

    # Cup-square weight doubling on the rigidity representatives.
    for label in range(1, 6):
        psi = phi(label, model5)
        cup = cup_square(model5.algebra, psi)
        w = cochain_weight(model5.algebra, psi)
        assert cochain_weight(model5.algebra, cup) == tuple(2 * c for c in w)

    # t^2 coefficient of the truncated Jacobi sum equals the cup square
    # on random cocycles.
    sys4 = build_root_system(4)
    mu = wadd(sys4.simple[3], sys4.simple[2])
    block = weight_block(d4, mu)
    kernel = rref_nullspace(block.d2)
    tested = 0
    for _ in range(8):
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
        cup = cup_square(d4, psi)
        for _ in range(60):
            i, j, k = sorted(rng.sample(range(d4.dim), 3))
            _, j1, j2 = truncated_jacobi(d4, psi, i, j, k)
            assert j1 == 0
            assert j2 == eval_basis(cup, i, j, k)
        tested += 1
    assert tested >= 4

    # Equivariance of the quadratic cocycle map under 20 random
    # transvections at rank 5, on all monomial argument pairs.
    s = model5.space
    units = [(1 << a, 1 << b) for a, b in model5.monomials]
    pairs = [
        (units[i], units[j])
        for i in range(len(units))
        for j in range(i + 1, len(units))
    ]
    done = 0
    while done < 20:
        u = rng.getrandbits(s.dim)
        if not u:
            continue
        g = transvection(s, u)
        done += 1
        v = basis_vector(s, 4)
        gv = g(v)
        for m1, m2 in pairs:
            lhs = per_bit_reduce(model5, phi_eval(s, gv, m1, m2))
            inner = phi_eval(s, v, (g(m1[0]), g(m1[1])), (g(m2[0]), g(m2[1])))
            assert lhs == per_bit_reduce(model5, g.apply_to_wedge(inner))
    _stamp(9, "property suites", t0)
