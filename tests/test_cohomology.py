import random
from itertools import combinations
from math import factorial

import pytest
from oracles import (
    basis_cochain_weight,
    bracket_vec_basis,
    build_root_system,
    chevalley_automorphism,
    coboundary_preimage,
    cochain_basis,
    composite_is_zero,
    coord_of_code,
    dense_differential,
    dense_transport,
    eval_basis,
    functional_pruned_weights,
    h2_weight_survey,
    invert,
    is_zero_weight,
    model_automorphism,
    per_weight_survey_rows,
    pointwise_differential,
    representative,
    rref_rank,
    transport,
    ungraded_h2_dim,
    unpruned_survey_rows,
    wadd,
    wdot,
    wsub,
    wzero,
)

from d2lie.algebra import (
    LieAlgebra,
    _coord_code,
    build_chevalley_D,
    center,
    check_jacobi,
    check_weight_additivity,
    express_in_simple_roots,
)
from d2lie.cohomology import (
    Cochain,
    cochain_weight,
    cohomology_dim,
    differential,
    find_graded_isomorphism,
    h2_survey_rows,
    intertwines,
    is_coboundary,
    weight_block,
    _automorphisms,
    _block_coords,
    _block_row,
    _c2_groups,
    _c2_weights,
    _signed_permutation_generators,
    _torus_characters,
    signed_cyclic_shift,
)
from d2lie.deformation import cup_square, rigidity_scan
from d2lie.exterior import build_quotient_model, phi
from d2lie.gf2 import GF2Matrix, bit_indices


def e4_weight(c):
    w = [0] * 5
    w[3] = c
    return tuple(w)


# -- cochain container ----------------------------------------------------


def test_cochain_keys_are_canonical_sets():
    c = Cochain(2, 6, {(3, 1): 0b100})
    assert c.data == {(1, 3): 0b100}
    assert eval_basis(c, 3, 1) == 0b100
    assert eval_basis(c, 1, 1) == 0


def test_cochain_rejects_repeated_key_entries():
    with pytest.raises(ValueError):
        Cochain(2, 6, {(2, 2): 1})


def test_cochain_addition_cancels():
    a = Cochain(2, 6, {(0, 1): 0b11})
    b = Cochain(2, 6, {(0, 1): 0b11, (1, 2): 1})
    assert (a + b).data == {(1, 2): 1}


def test_cochain_values_outside_the_basis_rejected():
    for v in (1 << 5, 1 << 9 | 1, -1):
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            Cochain(2, 5, {(0, 1): v})


def test_cochain_keys_checked_at_every_degree():
    # A strictly increasing key inside range(dim) skips the re-sort; every
    # other key is sorted and checked as before, at each degree of the complex.
    dim = 6
    for n in (1, 2, 3):
        key = tuple(range(1, n + 1))
        assert Cochain(n, dim, {(*key[:-1], dim - 1): 1}).data == {(*key[:-1], dim - 1): 1}
        bad = [((*key, 5), "bad key"), ((-1, *key[1:]), "out of range"), ((*key[:-1], dim), "out of range")]
        if n > 1:
            # Unsorted keys are normalized and merge with their sorted form.
            assert Cochain(n, dim, {key[::-1]: 0b10, key: 0b11}).data == {key: 0b01}
            bad.append(((key[0],) * n, "bad key"))
        for k, match in bad:
            with pytest.raises(ValueError, match=match):
                Cochain(n, dim, {k: 1})
        for v in (1 << dim, -1):
            with pytest.raises(ValueError, match="bits outside the basis"):
                Cochain(n, dim, {key: v})


def test_cochain_degree_bounds():
    with pytest.raises(ValueError):
        Cochain(5, 6, {})
    with pytest.raises(ValueError):
        Cochain(0, 6, {})


# -- block bases -----------------------------------------------------------


def test_c2_block_vanishes_at_quadruple_weight(model5):
    assert cochain_basis(model5.algebra, 2, e4_weight(4)) == []


def test_c1_weight_zero_d4_dimension(d4):
    basis = cochain_basis(d4, 1, wzero(4))
    assert len(basis) == 40
    assert len(basis) >= 16


def _brute_force_blocks(L):
    """(n, mu) -> the degree-n basis cochains of weight mu, in (key, value)
    order, from a scan of every key and value index."""
    keys = [(i,) for i in range(L.dim)]
    keys += [(i, j) for i in range(L.dim) for j in range(i + 1, L.dim)]
    blocks = {}
    for key in keys:
        for k in range(L.dim):
            mu = L.weights[k]
            for i in key:
                mu = wsub(mu, L.weights[i])
            blocks.setdefault((len(key), mu), []).append((key, k))
    return blocks


def _decoded(L, codes):
    return [coord_of_code(code, L.dim) for code in codes]


def test_c2_block_golden_dimension(d4, model5):
    # The weight-sum lookup against the brute-force scan, order included,
    # at every weight of C^1 or C^2 and at one weight of neither.
    for L in (d4, model5.algebra):
        brute = _brute_force_blocks(L)
        # _block_coords's emptiness bound is exact: some block of each degree reaches it.
        top = max(abs(c) for w in L.weights for c in w)
        for n in (1, 2):
            assert max(max(map(abs, mu)) for m, mu in brute if m == n) == (n + 1) * top
        far = (9,) * len(L.weights[0])
        for mu in {mu for _, mu in brute} | {far}:
            for n in (1, 2):
                assert _decoded(L, _block_coords(L, n, mu)) == brute.get((n, mu), [])
        groups = {mu: _decoded(L, codes) for mu, codes in _c2_groups(L).items()}
        assert groups == {mu: b for (n, mu), b in brute.items() if n == 2}
        with pytest.raises(ValueError):
            _block_coords(L, 3, far)
    assert len(brute[2, e4_weight(2)]) == 120
    assert len(cochain_basis(model5.algebra, 2, e4_weight(2))) == 120


def test_block_past_the_weight_bound_is_empty_without_an_index():
    # A degree-n basis cochain's weight is a signed sum of n + 1 basis
    # weights.  On a fresh rank-7 model the cup-square weight 4 eps_1 is past
    # that bound in degree 2, so its block is empty before the pair index is
    # built; a weight of the wrong length is still an error.
    L = build_quotient_model(7).algebra
    assert _block_coords(L, 2, (4, 0, 0, 0, 0, 0, 0)) == []
    assert 2 not in L._weight_sums
    for mu in ((4,) * 6, (0,) * 8):
        with pytest.raises(ValueError, match="length"):
            _block_coords(L, 2, mu)


def test_basis_cochains_are_weight_homogeneous(d4):
    mu = (1, 1, 0, 0)
    for c in cochain_basis(d4, 2, mu)[:20]:
        assert cochain_weight(d4, c) == mu


def test_cochain_weight_matches_tuple_oracle_and_rejects_mixed(d4, model5):
    # The packed scan against basis_cochain_weight on tuples: a single
    # coordinate has the oracle's weight at degrees 1..3, the zero cochain
    # none, and two coordinates of different weights, in two keys or in
    # one key's value, are an error.
    rng = random.Random(27)
    for L in (d4, model5.algebra):
        assert cochain_weight(L, Cochain(2, L.dim)) is None
        for _ in range(40):
            n = rng.randint(1, 3)
            key, k = tuple(sorted(rng.sample(range(L.dim), n))), rng.randrange(L.dim)
            assert cochain_weight(L, Cochain(n, L.dim, {key: 1 << k})) == basis_cochain_weight(L, key, k)
            m = next(m for m in range(L.dim) if L.weights[m] != L.weights[k])
            other = tuple(sorted(rng.sample(range(L.dim), n)))
            if basis_cochain_weight(L, other, m) != basis_cochain_weight(L, key, k):
                with pytest.raises(ValueError, match="cochain is not weight-homogeneous"):
                    cochain_weight(L, Cochain(n, L.dim, {key: 1 << k, other: 1 << m}))
            with pytest.raises(ValueError, match="cochain is not weight-homogeneous"):
                cochain_weight(L, Cochain(n, L.dim, {key: 1 << k | 1 << m}))


# -- differential -----------------------------------------------------------


def test_differential_of_zero(d4):
    assert differential(d4, Cochain(1, d4.dim)).is_zero()
    assert differential(d4, Cochain(2, d4.dim)).is_zero()


def test_differential_squares_to_zero_random_degree_one(d4):
    rng = random.Random(20)
    for _ in range(15):
        i = rng.randrange(d4.dim)
        k = rng.randrange(d4.dim)
        xi = Cochain(1, d4.dim, {(i,): 1 << k})
        assert differential(d4, differential(d4, xi)).is_zero()
    # linear combinations too
    for _ in range(5):
        data = {}
        for _ in range(4):
            data[(rng.randrange(d4.dim),)] = rng.getrandbits(d4.dim)
        xi = Cochain(1, d4.dim, data)
        assert differential(d4, differential(d4, xi)).is_zero()


def test_differential_of_phi_vanishes(model5):
    psi = phi(4, model5)
    assert differential(model5.algebra, psi).is_zero()


def test_differential_rejects_degree_four(d4):
    # The complex stops at C^3: no degree-4 cochain exists, and d is not taken on C^3.
    with pytest.raises(ValueError, match="unsupported cochain degree 4"):
        Cochain(4, d4.dim, {(0, 1, 2, 3): 1})
    with pytest.raises(ValueError, match="differential not supported in degree 3"):
        differential(d4, Cochain(3, d4.dim, {(0, 1, 2): 1}))


def test_differential_preserves_weight(d4):
    rng = random.Random(21)
    for _ in range(30):
        i = rng.randrange(d4.dim)
        j = rng.randrange(d4.dim)
        if i == j:
            continue
        k = rng.randrange(d4.dim)
        key = (min(i, j), max(i, j))
        mu = basis_cochain_weight(d4, key, k)
        img = differential(d4, Cochain(2, d4.dim, {key: 1 << k}))
        for t, v in img.data.items():
            for m in bit_indices(v):
                assert basis_cochain_weight(d4, t, m) == mu


def test_differential_matches_bracket_defect_on_degree_one(d4):
    # d(xi)(x, y) = [x, xi(y)] + [y, xi(x)] + xi([x, y]), checked at random
    # basis pairs against a direct evaluation.
    rng = random.Random(22)
    for _ in range(20):
        i = rng.randrange(d4.dim)
        k = rng.randrange(d4.dim)
        xi = Cochain(1, d4.dim, {(i,): 1 << k})
        img = differential(d4, xi)
        for _ in range(10):
            a = rng.randrange(d4.dim)
            b = rng.randrange(d4.dim)
            if a == b:
                continue
            expect = 0
            if b == i:
                expect ^= bracket_vec_basis(d4, 1 << k, a)  # [b_a, xi(b_b)]
            if a == i:
                expect ^= bracket_vec_basis(d4, 1 << k, b)
            if (d4.bracket_basis(a, b) >> i) & 1:
                expect ^= 1 << k  # xi([b_a, b_b])
            assert eval_basis(img, a, b) == expect


def _random_cochain(L, n, rng, density, indices=None):
    data = {}
    for key in combinations(range(L.dim) if indices is None else indices, n):
        if rng.random() < density:
            data[key] = rng.getrandbits(L.dim)
    return Cochain(n, L.dim, data)


def test_differential_matches_pointwise_oracle(d4, d5, model5, model7):
    rng = random.Random(25)
    cochains = [
        (L, _random_cochain(L, n, rng, density))
        for L, n, density in [(d4, 1, 1.0), (d4, 1, 0.2), (d4, 2, 0.05), (d4, 2, 0.5)]
        # D_5 and the rank-5 model have 45 and 44 basis vectors, so the packed
        # coordinates (key mask << dim.bit_length() | k) take 51 and 50 bits,
        # past one 30-bit digit of a Python int; the rank-7 model's 90 take
        # 97, past 64.
        + [(L, n, density) for L in (d5, model5.algebra) for n, density in ((1, 0.5), (2, 0.03))]
        + [(model7.algebra, 2, 0.003)]
    ]
    # On the Cartan indices, bracketing the value with a key index gives a
    # term with a repeated index, which must drop out, and terms of one
    # source cancel in pairs.
    cartan = [i for i, w in enumerate(d4.weights) if is_zero_weight(w)]
    cochains += [(d4, _random_cochain(d4, n, rng, 1.0, cartan)) for n in (1, 2)]
    # A cocycle plus one dual-basis cochain has a nonzero image.
    psi = phi(1, model7) + Cochain(2, model7.algebra.dim, {(0, 4): 1 << 5})
    cochains.append((model7.algebra, psi))
    for L, c in cochains:
        assert differential(L, c).data == pointwise_differential(L, c)
    assert differential(model7.algebra, psi).data


def test_coordinate_code_round_trips(d4):
    dim = d4.dim
    for n in (1, 2, 3, 4):
        codes = set()
        for key in combinations(range(dim), n):
            for k in range(dim):
                code = _coord_code(key, k, dim)
                assert coord_of_code(code, dim) == (key, k)
                codes.add(code)
        assert len(codes) == len(list(combinations(range(dim), n))) * dim


def test_term_tables_match_bracket_table(d4, model5):
    for L in (d4, model5.algebra):
        dim = L.dim
        tables = L.term_tables()
        assert L.term_tables() is tables  # built once per algebra
        codes, pairs = tables
        for k in range(dim):
            assert codes[k] == [
                _coord_code((a,), m, dim)
                for a in range(dim)
                for m in range(dim)
                if (L.bracket_basis(a, k) >> m) & 1
            ]
            # The key masks of the brackets whose value involves b_k.
            assert pairs[k] == [_coord_code(key, 0, dim) for key, v in sorted(L.brackets.items()) if (v >> k) & 1]


# -- cohomology dimensions ---------------------------------------------------


def test_h2_zero_weight_vanishes(model5):
    assert cohomology_dim(model5.algebra, wzero(5)) == 0


def test_h2_at_distinguished_weight(model5):
    assert cohomology_dim(model5.algebra, e4_weight(2)) == 1


def test_h2_at_quadruple_weight(model5):
    assert cohomology_dim(model5.algebra, e4_weight(4)) == 0


def test_survey_model5(model5):
    survey = h2_weight_survey(model5.algebra)
    assert sum(survey.values()) == 10
    assert set(survey.values()) == {1}
    expected = set()
    for i in range(5):
        for s in (2, -2):
            w = [0] * 5
            w[i] = s
            expected.add(tuple(w))
    assert set(survey) == expected


def test_survey_rows_structure(d4):
    rows = h2_survey_rows(d4)
    assert len(rows) == 24
    for r in rows:
        assert r["dim_h2"] == 1
        assert r["dim_z2"] - r["dim_b2"] == 1
        assert r["dim_c2"] >= r["dim_z2"] >= r["dim_b2"]


def test_graded_matches_ungraded_d3(d3):
    graded = sum(h2_weight_survey(d3).values())
    assert graded == ungraded_h2_dim(d3)


def test_rank_0_weights_rank_every_block():
    # Weights of length 0 have no signed permutations, so no orbits: every
    # block is ranked.
    assert _signed_permutation_generators(0) == {}
    A = LieAlgebra(["x", "y"], [(), ()], {})
    rows = h2_survey_rows(A)
    assert [(r["weight"], r["dim_h2"]) for r in rows] == [((), 2)]
    assert rows[0]["dim_h2"] == ungraded_h2_dim(A)
    assert h2_survey_rows(LieAlgebra(["x"], [()], {})) == []


# -- torus pruning -------------------------------------------------------------


def test_pruned_survey_equals_unpruned_oracle(d4, d5, d6, model5):
    for L in (d4, d5, d6, model5.algebra):
        assert h2_survey_rows(L) == unpruned_survey_rows(L)


def test_torus_characters_and_block_counts(d4, d5, d6, model5, model7, monkeypatch):
    # (algebra, characters, C^2 blocks, blocks torus pruning keeps, orbits ranked)
    cases = (
        (d4, 4, 601, 145, 6),
        (d5, 5, 2011, 131, 4),
        (d6, 6, 5517, 297, 5),
        (model5.algebra, 4, 2011, 131, 4),
        (model7.algebra, 6, 13119, 379, 4),
    )
    ranked = []

    def spy(L, mu, orbit=None):
        ranked.append(mu)
        return _block_row(L, mu, orbit)

    monkeypatch.setattr("d2lie.cohomology._block_row", spy)
    for L, n_characters, n_blocks, n_kept, n_ranked in cases:
        characters = _torus_characters(L)
        assert len(characters) == n_characters
        assert len(_c2_groups(L)) == n_blocks
        assert len(_c2_weights(L, characters)) == n_kept
        ranked.clear()
        h2_survey_rows(L)
        assert len(ranked) == n_ranked
    # H_i scales E_a by <a, alpha_i> mod 2, and every H_i is kept.
    simple = build_root_system(4).simple
    for chi, alpha in zip(_torus_characters(d4), simple, strict=True):
        for k, w in enumerate(d4.weights):
            assert chi >> k & 1 == wdot(w, alpha) % 2


def test_character_pruning_equals_functional_oracle(d3, d4, d5, d6, d7, d8, model3, model5, model7, model9):
    # Span membership of chi_h keeps the weights the slow route keeps: a
    # solved lambda per diagonal h and pair sums grouped by lambda . w.
    algebras = [d3, d4, d5, d6, d7, d8] + [m.algebra for m in (model3, model5, model7, model9)]
    for L in algebras + list(_toy_algebras()):
        assert _c2_weights(L, _torus_characters(L)) == functional_pruned_weights(L)


def _lie_derivative_is_one(L, ad, pre, n, mu):
    """Whether L_h c = c for every basis cochain c of C^n_mu.

    ad[m] = [h, b_m] from the bracket table and pre[j] lists the m with b_j
    in ad[m].  For c = key -> b_k, (L_h c)(x) = [h, c(x)] + sum_i c(.., [h, x_i], ..):
    the first term is ad[k] at key, and the slot of key's argument i takes
    each b_m with b_i in [h, b_m], at the key with i replaced by m.
    """
    for key, k in _decoded(L, _block_coords(L, n, mu)):
        image = {key: ad[k]}
        for i in key:
            rest = tuple(x for x in key if x != i)
            for m in pre[i]:
                if m not in rest:
                    t = tuple(sorted((*rest, m)))
                    image[t] = image.get(t, 0) ^ (1 << k)
        if {t: v for t, v in image.items() if v} != {key: 1 << k}:
            return False
    return True


def test_pruned_blocks_are_acyclic_by_torus_action(d4, model5):
    # Checked from bracket_basis alone: on every block the survey skips,
    # some diagonal weight-0 h acts on C^1_mu and C^2_mu by the scalar 1.
    for L in (d4, model5.algebra):
        actions = []
        for h in range(L.dim):
            ad = [L.bracket_basis(h, m) for m in range(L.dim)]
            if is_zero_weight(L.weights[h]) and all(v in (0, 1 << m) for m, v in enumerate(ad)):
                pre = [[m for m in range(L.dim) if ad[m] >> j & 1] for j in range(L.dim)]
                actions.append((ad, pre))
        every, kept = set(_c2_groups(L)), set(_c2_weights(L, _torus_characters(L)))
        assert kept < every
        for mu in sorted(every - kept):
            assert any(
                all(_lie_derivative_is_one(L, ad, pre, n, mu) for n in (1, 2))
                for ad, pre in actions
            ), f"no torus element acts by 1 at weight {mu}"


def _toy_algebras():
    """A and B, whose one weight-0 element h gives no linear character.

    In A, h sends x and y to x + y: nilpotent, yet every vector of odd
    weight meets it, so reading its bracket support as a character would
    prune the odd weight -1, where H^2 has dimension 2.  In B, h scales x
    but not y of the same weight: diagonal, but its character is no
    function of the weights.
    """
    A = LieAlgebra(["h", "x", "y"], [(0,), (1,), (1,)], {(0, 1): 0b110, (0, 2): 0b110})
    B = LieAlgebra(["h", "x", "y"], [(0,), (1,), (1,)], {(0, 1): 0b10})
    return A, B


def test_survey_drops_torus_elements_without_a_functional():
    A, B = _toy_algebras()
    for L in (A, B):
        assert check_jacobi(L).ok and check_weight_additivity(L)
        assert _torus_characters(L) == ()
        assert _automorphisms(L) == {}
        assert h2_survey_rows(L) == unpruned_survey_rows(L)
    assert {r["weight"]: r["dim_h2"] for r in h2_survey_rows(A)}[(-1,)] == 2


# -- orbit survey ---------------------------------------------------------------


def test_orbit_survey_equals_per_weight_oracle(d4, d5, d6, d7, d8, model5, model7, model9):
    for L in (d4, d5, d6, d7, d8, model5.algebra, model7.algebra, model9.algebra):
        assert list(_automorphisms(L)) == ["shift", "eps_1<->eps_2"]
        assert h2_survey_rows(L) == per_weight_survey_rows(L)


def _orbit(w, maps):
    """The orbit of the weight w under the group the maps generate, walked point by point."""
    seen, todo = {w}, [w]
    while todo:
        v = todo.pop()
        for g in maps:
            if (u := g(v)) not in seen:
                seen.add(u)
                todo.append(u)
    return seen


def test_the_pair_generates_every_signed_permutation():
    # A generic weight has one point per signed permutation in its orbit,
    # 2^l l! of them, the order of B_l, so the orbit key of the survey
    # holds; the shift alone is a cyclic group of order 2l.  The walk lists
    # every point, 46,080 at l = 6; that the pair generates B_l at every l
    # is classical (Coxeter and Moser 1957).
    assert _signed_permutation_generators(0) == {}
    assert list(_signed_permutation_generators(1)) == ["shift"]
    for l in range(1, 7):
        pair = list(_signed_permutation_generators(l).values())
        x = tuple(range(1, l + 1))
        assert len(_orbit(x, pair)) == 2**l * factorial(l)
        assert len(_orbit(x, pair[:1])) == 2 * l


def test_only_the_survey_builds_the_automorphisms():
    # Building, the Jacobi check, the centre and the rigidity scan never
    # pay for the pair; the first survey builds both.
    L, model = build_chevalley_D(4), build_quotient_model(5)
    for A in (L, model.algebra):
        check_jacobi(A)
        center(A)
    rigidity_scan(model)
    assert L._automorphisms is None and model.algebra._automorphisms is None
    h2_survey_rows(L)
    assert list(L._automorphisms) == ["shift", "eps_1<->eps_2"]
    assert model.algebra._automorphisms is None


def test_automorphisms_equal_the_closed_formulas(d4, d5, d6, d7, d8, model5, model7, model9):
    # The pair the survey finds, and find_graded_isomorphism on each simple
    # reflection of B_l, all land on the closed formulas.
    cases = [(L, lambda g, l=len(L.weights[0]): chevalley_automorphism(l, g)) for L in (d4, d5, d6, d7, d8)]
    cases += [(m.algebra, lambda g, m=m: model_automorphism(m, g)) for m in (model5, model7, model9)]
    for L, formula in cases:
        gens = _signed_permutation_generators(len(L.weights[0]))
        assert _automorphisms(L) == {name: formula(g) for name, g in gens.items()}
        for name, g, theta in _closed_form_maps(L, formula):
            assert find_graded_isomorphism(L, L, g) == theta, (L, name)


def _apply(theta, x):
    """theta(x) for a packed vector x."""
    out = 0
    for m in bit_indices(x):
        out ^= theta[m]
    return out


def _simple_reflections(l):
    """eps_i <-> eps_(i+1) for i < l and eps_l -> -eps_l, the Coxeter generators of B_l, by name."""
    gens = {
        f"eps_{i}<->eps_{i + 1}": lambda w, i=i: (*w[: i - 1], w[i], w[i - 1], *w[i + 1 :])
        for i in range(1, l)
    }
    gens[f"eps_{l}->-eps_{l}"] = lambda w: (*w[:-1], -w[-1])
    return gens


def _closed_form_maps(L, formula):
    """(name, g, theta_g by the closed formula) for every simple reflection and the survey's pair."""
    l = len(L.weights[0])
    gens = {**_simple_reflections(l), **_signed_permutation_generators(l)}
    return [(name, g, formula(g)) for name, g in gens.items()]


def _random_homogeneous_cochain(L, n, mu_code, rng, size=8):
    """Up to size random basis cochains of degree n and packed weight mu_code, summed."""
    sums = L.weight_sums(n)
    coords = [(key, m) for m, c in enumerate(L.weight_codes) for key in sums.get(c - mu_code, ())]
    data = {}
    for key, m in rng.sample(coords, min(size, len(coords))):
        data[key] = data.get(key, 0) | 1 << m
    return Cochain(n, L.dim, data)


def _random_cochains(L, rng):
    """Random weight-homogeneous cochains of degrees 1-3.

    Each degree gets two cochains at the weights of random basis cochains and
    one on the weight-0 indices alone, where the images of D_l's Cartans and
    of the model's dual pairs are not single basis vectors.
    """
    zero = [i for i, c in enumerate(L.weight_codes) if not c]
    cochains = []
    for n in (1, 2, 3):
        for _ in range(2):
            key, k = rng.sample(range(L.dim), n), rng.randrange(L.dim)
            mu = L.weight_codes[k] - sum(L.weight_codes[i] for i in key)
            cochains.append(_random_homogeneous_cochain(L, n, mu, rng))
        keys = rng.sample(list(combinations(zero, n)), 4)
        cochains.append(Cochain(n, L.dim, {key: sum(1 << i for i in rng.sample(zero, 2)) for key in keys}))
    return cochains


def _transport_cases(d4, d5, d6, model5, model7):
    """(L, name, g, theta_g, cochains): _random_cochains of L under each map of _closed_form_maps."""
    rng = random.Random(32)
    cases = [(L, lambda g, l=len(L.weights[0]): chevalley_automorphism(l, g)) for L in (d4, d5, d6)]
    cases += [(m.algebra, lambda g, m=m: model_automorphism(m, g)) for m in (model5, model7)]
    for L, formula in cases:
        cochains = _random_cochains(L, rng)
        for name, g, theta in _closed_form_maps(L, formula):
            yield L, name, g, theta, cochains


def test_transport_equals_the_dense_oracle(d4, d5, d6, model5, model7):
    for L, name, g, theta, cochains in _transport_cases(d4, d5, d6, model5, model7):
        inverse = invert(theta)
        assert [_apply(inverse, t) for t in theta] == [1 << i for i in range(L.dim)], name
        for c in cochains:
            moved = transport(theta, inverse, c)
            assert moved == dense_transport(theta, c), (L, name, c)
            w = cochain_weight(L, c)
            assert cochain_weight(L, moved) == (None if w is None else g(w)), (L, name)


def test_transport_commutes_with_the_differential(d4, d5, d6, model5, model7):
    for L, name, _, theta, cochains in _transport_cases(d4, d5, d6, model5, model7):
        inverse = invert(theta)
        for c in [c for c in cochains if c.degree < 3]:
            dc = differential(L, c)
            assert differential(L, transport(theta, inverse, c)) == transport(theta, inverse, dc), (L, name, c)


def test_the_pair_commutes_with_the_differential_at_higher_rank(d7, d8, model9):
    # The survey's own theta_shift and theta_swap, at ranks past the dense
    # transport oracle's.
    rng = random.Random(34)
    for L in (d7, d8, model9.algebra):
        cochains = _random_cochains(L, rng)
        for name, theta in _automorphisms(L).items():
            inverse = invert(theta)
            for c in [c for c in cochains if c.degree < 3]:
                dc = differential(L, c)
                assert differential(L, transport(theta, inverse, c)) == transport(theta, inverse, dc), (L, name, c)


def test_intertwines_accepts_exactly_the_transported_cochain(d4, d5, d6, model5, model7, model9):
    # The rigidity walk -2 eps_1 -> .. -> 2 eps_l: intertwines must agree
    # with the transport oracle on each step and on a skipped step.
    for m in (model5, model7, model9):
        L = m.algebra
        theta = find_graded_isomorphism(L, L, signed_cyclic_shift)
        inverse = invert(theta)
        walk = [phi(sign * i, m) for sign in (-1, 1) for i in range(1, m.l + 1)]
        for k, (a, b) in enumerate(zip(walk, walk[1:])):
            assert transport(theta, inverse, a) == b, (m.l, k)
            assert intertwines(theta, a.data, b.data), (m.l, k)
        assert transport(theta, inverse, walk[0]) != walk[2]
        assert not intertwines(theta, walk[0].data, walk[2].data)
    # Random degree-2 cochains against their dense transport, and with one value bit flipped.
    for L, name, _, theta, cochains in _transport_cases(d4, d5, d6, model5, model7):
        for c in cochains:
            if c.degree != 2:
                continue
            moved = dense_transport(theta, c).data
            assert intertwines(theta, c.data, moved), (L, name, c)
            key = min(moved)
            assert not intertwines(theta, c.data, {**moved, key: moved[key] ^ 1}), (L, name, c)


def test_shift_automorphism_is_found_by_its_weight_map(d4, d5, model5, model7):
    # rigidity_scan asks for the shift alone, outside _automorphisms:
    # find_graded_isomorphism relabels the weights by it directly and must
    # land on the closed formula.
    shift = signed_cyclic_shift
    assert find_graded_isomorphism(d4, d4, shift) == chevalley_automorphism(4, shift)
    assert find_graded_isomorphism(d5, d5, shift) == chevalley_automorphism(5, shift)
    for m in (model5, model7):
        assert find_graded_isomorphism(m.algebra, m.algebra, shift) == model_automorphism(m, shift)


def _triality(w):
    """The weight map of the D_4 diagram automorphism alpha_1 -> alpha_3 -> alpha_4 -> alpha_1 fixing
    alpha_2, on the root lattice: w's simple-root coordinates applied to the permuted roots."""
    simple = [(1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, -1), (0, 0, 1, 1)]
    images = [simple[2], simple[1], simple[3], simple[0]]
    coords = express_in_simple_roots(w)
    return tuple(sum(c * a[k] for c, a in zip(coords, images)) for k in range(4))


def test_triality_is_found_by_its_weight_map_and_joins_the_d4_orbits(d4, timed_survey):
    # Triality is no signed permutation: T(2 eps_1) = (1, 1, 1, -1).  Its
    # automorphism has order 3, and with it the 24 H^2 weights of D_4 are
    # one orbit; the signed permutations alone leave the ±2 eps_i (8) and
    # the (±1)^4 (16) apart.
    assert _triality((2, 0, 0, 0)) == (1, 1, 1, -1)
    theta = find_graded_isomorphism(d4, d4, _triality)
    assert theta is not None and intertwines(theta, d4.brackets, d4.brackets)
    assert [_apply(theta, _apply(theta, t)) for t in theta] == [1 << i for i in range(d4.dim)]
    maps = list(_signed_permutation_generators(4).values())
    weights = set(timed_survey(d4)[0])
    assert len(weights) == 24
    assert _orbit((2, 0, 0, 0), maps + [_triality]) == weights
    assert sorted(len(_orbit(w, maps)) for w in weights) == [8] * 8 + [16] * 16


def test_invert_rejects_a_singular_map():
    with pytest.raises(ValueError, match="not invertible"):
        invert([0b11, 0b11])
    assert invert([0b01, 0b11]) == [0b01, 0b11]
    with pytest.raises(ValueError, match="dimension"):
        transport([1], [1], Cochain(1, 2))


def test_is_homomorphism_rejects_swapped_root_images():
    L = build_chevalley_D(4)
    theta = list(_automorphisms(L)["eps_1<->eps_2"])
    assert intertwines(theta, L.brackets, L.brackets)
    theta[4], theta[5] = theta[5], theta[4]
    assert not intertwines(theta, L.brackets, L.brackets)
    # One bracket entry of the target changed: [E_a, E_b] = E_(a+b) dropped.
    key = next((i, j) for (i, j), v in sorted(L.brackets.items()) if i >= 4 and v.bit_count() == 1)
    B = LieAlgebra(L.labels, L.weights, {k: v for k, v in L.brackets.items() if k != key})
    assert find_graded_isomorphism(L, L, lambda w: w) == [1 << i for i in range(L.dim)]
    assert find_graded_isomorphism(L, B, lambda w: w) is None


def test_survey_without_a_negative_weight_ranks_per_weight():
    # x has weight (-1, -1) and nothing has weight (1, 1): no dual pair
    # fixes theta on h, so no generator gets an automorphism.
    L = LieAlgebra(["h", "x"], [(0, 0), (-1, -1)], {(0, 1): 0b10})
    assert check_jacobi(L).ok and check_weight_additivity(L)
    assert find_graded_isomorphism(L, L, lambda w: w) is None
    assert _automorphisms(L) == {}
    assert h2_survey_rows(L) == unpruned_survey_rows(L)


def test_graded_isomorphism_needs_equal_weight_multiplicities():
    # A and A with every weight negated have the weights {-1, 0, 1}, but A
    # has weight 1 twice and weight -1 once, so the sign flip of eps_1 gets
    # no automorphism.
    A = LieAlgebra("hxyz", [(0,), (1,), (1,), (-1,)], {})
    assert find_graded_isomorphism(A, A, lambda w: (-w[0],)) is None
    assert _automorphisms(A) == {}


def test_graded_isomorphism_needs_one_dimensional_nonzero_weight_spaces():
    # Weights 1 and -1 are planes, which force no image, so the search
    # gives up although the identity is an automorphism.
    L = LieAlgebra("wxyz", [(1,), (1,), (-1,), (-1,)], {})
    assert intertwines([1 << i for i in range(L.dim)], L.brackets, L.brackets)
    assert find_graded_isomorphism(L, L, lambda w: w) is None
    assert _automorphisms(L) == {}


def test_graded_isomorphism_needs_the_dual_pairs_to_fix_weight_0():
    # [e, f] = h + k is the one equation at weight 0: its reduced row h + k
    # is no unit row, so theta(h) and theta(k) stay undetermined.
    L = LieAlgebra("hkef", [(0,), (0,), (1,), (-1,)], {(2, 3): 0b11})
    assert check_jacobi(L).ok and check_weight_additivity(L)
    assert intertwines([1 << i for i in range(L.dim)], L.brackets, L.brackets)
    assert find_graded_isomorphism(L, L, lambda w: w) is None
    assert _automorphisms(L) == {}


def test_d2_failure_names_the_ranked_representative(monkeypatch):
    monkeypatch.setattr("d2lie.cohomology._image_rank", lambda L, src: len(src))
    with pytest.raises(ArithmeticError) as exc:
        h2_survey_rows(build_chevalley_D(4))
    assert str(exc.value) == (
        "d^2 != 0 at weight (-2, -2, 0, 0), the representative of the orbit (0, 0, 2, 2):"
        " rank d1 = 1 exceeds dim ker d2 = 0"
    )


# -- weight blocks ------------------------------------------------------------


def test_weight_block_composite_is_zero(d4, model5):
    mu4 = wadd(d4.weights[d4.dim - 1], d4.weights[d4.dim - 2])
    for L, mu in ((d4, (0, 0, 2, 0)), (d4, mu4), (model5.algebra, e4_weight(2))):
        block = weight_block(L, mu)
        assert composite_is_zero(block)
        assert len(block.c2) - block.d2.rank() - block.d1.rank() == cohomology_dim(L, mu)
    # Every H^2-carrying block of D_4: the survey's lazy ranks of d2 and of
    # d1, each against the dense matrices.
    for row in h2_survey_rows(d4):
        block = weight_block(d4, row["weight"])
        assert composite_is_zero(block)
        assert row["dim_c2"] == len(block.c2)
        assert row["dim_z2"] == len(block.c2) - block.d2.rank()
        assert row["dim_b2"] == block.d1.rank()


def test_weight_block_random_weights(d4):
    rng = random.Random(23)
    weights = sorted({w for w in d4.weights if w != wzero(4)})
    for w in rng.sample(weights, 4):
        mu = wadd(w, rng.choice(weights))
        block = weight_block(d4, mu)
        assert composite_is_zero(block)


# -- coboundary tests ----------------------------------------------------------


def _random_block_cochain(L, n, mu, rng):
    data = {}
    for key, k in _decoded(L, _block_coords(L, n, mu)):
        if rng.random() < 0.4:
            data[key] = data.get(key, 0) ^ (1 << k)
    return Cochain(n, L.dim, data)


def test_coboundary_detects_differentials(d4):
    # Degree-1 inputs give coboundaries in C^2, degree-2 inputs in C^3.
    rng = random.Random(24)
    mu = (1, 1, 0, 0)
    for n in (1, 2):
        hits = 0
        for _ in range(10):
            xi = _random_block_cochain(d4, n, mu, rng)
            img = differential(d4, xi)
            if img.is_zero():
                continue
            hits += 1
            assert is_coboundary(d4, img)
            assert differential(d4, coboundary_preimage(d4, img)) == img
        assert hits > 0


def test_phi_not_coboundary(model5):
    psi = phi(4, model5)
    assert not is_coboundary(model5.algebra, psi)
    assert coboundary_preimage(model5.algebra, psi) is None


def test_cup_square_weight_block_empty_makes_nontrivial(model5):
    A = model5.algebra
    cup = cup_square(A, phi(4, model5))
    assert cochain_weight(A, cup) == e4_weight(4)
    assert not is_coboundary(A, cup)


def _dense_is_coboundary(L, c):
    """rank [d | c] = rank d on the block's dense differential."""
    m, b, _ = dense_differential(L, c)
    augmented = GF2Matrix(m.nrows, m.ncols + 1, [r | (b >> i & 1) << m.ncols for i, r in enumerate(m.rows)])
    return rref_rank(augmented) == rref_rank(m)


def test_coboundary_test_equals_the_dense_rank_test(d4, model5):
    # Differentials of random block cochains in degrees 2 and 3 are
    # coboundaries; the phi classes, the representatives, their sums with
    # differentials and the cup squares of the phi are not.
    rng = random.Random(61)
    A = model5.algebra
    cases = []
    for L, mus in ((d4, [(1, 1, 0, 0), (0, 0, 2, 0), (0, -2, 0, 0)]), (A, [e4_weight(2), (1, -1, 0, 0, 0)])):
        for mu in mus:
            for n in (1, 2):
                for _ in range(3):
                    img = differential(L, _random_block_cochain(L, n, mu, rng))
                    if not img.is_zero():
                        cases.append((L, img, True))
        for mu in mus:
            if cohomology_dim(L, mu):
                rep = representative(L, mu)
                cases += [(L, rep, False), (L, rep + differential(L, _random_block_cochain(L, 1, mu, rng)), False)]
    for label in (4, -2):
        psi = phi(label, model5)
        cases += [(A, psi, False), (A, psi + representative(A, cochain_weight(A, psi)), True)]
        cases += [(A, psi + differential(A, _random_block_cochain(A, 1, cochain_weight(A, psi), rng)), False)]
        cases.append((A, cup_square(A, psi), False))
    cases = [(L, c, expected) for L, c, expected in cases if not c.is_zero()]
    assert {(c.degree, expected) for _, c, expected in cases} == {(2, True), (2, False), (3, True), (3, False)}
    for L, c, expected in cases:
        assert is_coboundary(L, c) == _dense_is_coboundary(L, c) == expected


def test_coboundary_rejects_non_cocycle(d4):
    # A cochain that is no cocycle is no coboundary: a single dual-basis
    # cochain at a generic key, the same plus a coboundary, and a single
    # degree-3 basis cochain, each with a nonzero pointwise d.
    c = Cochain(2, d4.dim, {(0, 4): 1 << 5})
    shifted = c + differential(d4, sum(cochain_basis(d4, 1, cochain_weight(d4, c)), Cochain(1, d4.dim)))
    assert shifted != c
    cases = [c, shifted, Cochain(3, d4.dim, {(0, 4, 9): 1 << 5})]
    for x in cases:
        assert pointwise_differential(d4, x), x
        assert is_coboundary(d4, x) is _dense_is_coboundary(d4, x) is False


def test_coboundary_degree_guard(d4):
    with pytest.raises(ValueError):
        is_coboundary(d4, Cochain(1, d4.dim))


def test_weight_blocks_reject_ungraded_bracket():
    # [x, y] = z with weights 1 + 1 != 5: d of the weight-3 cochain z -> w
    # lands at weight 6, outside its block.
    L = LieAlgebra(["x", "y", "z", "w"], [(1,), (1,), (5,), (8,)], {(0, 1): 0b100})
    cocycle = Cochain(2, L.dim, {(0, 1): 0b100})
    assert differential(L, cocycle).is_zero()
    with pytest.raises(ValueError, match="does not preserve weight"):
        weight_block(L, (3,))
    with pytest.raises(ValueError, match="does not preserve weight"):
        is_coboundary(L, cocycle)


# -- representatives -------------------------------------------------------------


def test_representative_matches_phi_class(model5):
    A = model5.algebra
    mu = e4_weight(2)
    rep = representative(A, mu)
    assert differential(A, rep).is_zero()
    assert not is_coboundary(A, rep)
    diff = rep + phi(4, model5)
    if not diff.is_zero():
        assert is_coboundary(A, diff)  # cohomologous


def test_representative_errors_when_h2_vanishes(model5):
    with pytest.raises(ValueError):
        representative(model5.algebra, e4_weight(4))
    root_weight = (1, -1, 0, 0, 0)
    with pytest.raises(ValueError):
        representative(model5.algebra, root_weight)


def test_representative_deterministic(d4):
    mu = (0, 0, 2, 0)
    assert representative(d4, mu) == representative(d4, mu)
