import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from d2lie.gf2 import GF2Matrix, GF2Vector, PivotBasis


def vec(*coords):
    return GF2Vector.from_coords(coords)


def mat(*rows):
    return GF2Matrix.from_rows([vec(*r) for r in rows])


def random_matrix(rng, nrows, ncols):
    return GF2Matrix(nrows, ncols, (rng.getrandbits(ncols) for _ in range(nrows)))


# -- rank ---------------------------------------------------------------


def test_rank_identity():
    assert GF2Matrix.identity(5).rank() == 5


def test_rank_zero_matrix():
    assert GF2Matrix.zeros(3, 4).rank() == 0


def test_rank_dependent_rows():
    # third row is the sum of the first two
    assert mat((1, 1, 0), (0, 1, 1), (1, 0, 1)).rank() == 2


def test_rank_equals_transpose_rank():
    rng = random.Random(1)
    for _ in range(50):
        m = random_matrix(rng, rng.randrange(1, 9), rng.randrange(1, 9))
        assert m.rank() == m.transpose().rank()


def test_rank_matches_span_enumeration():
    # Independent oracle: the row span of an m x n matrix has 2^rank elements.
    rng = random.Random(2)
    for _ in range(40):
        nrows = rng.randrange(1, 9)
        ncols = rng.randrange(1, 13)
        m = random_matrix(rng, nrows, ncols)
        span = {0}
        for r in m.rows:
            span |= {s ^ r for s in span}
        assert 2 ** m.rank() == len(span)


# -- nullspace ----------------------------------------------------------


def test_nullspace_identity_is_empty():
    assert GF2Matrix.identity(4).nullspace().nrows == 0


def test_nullspace_zero_matrix_is_full():
    ns = GF2Matrix.zeros(2, 3).nullspace()
    assert ns.nrows == 3
    assert ns.rank() == 3


def test_nullspace_hand_case():
    ns = mat((1, 1, 0), (0, 1, 1)).nullspace()
    assert ns.nrows == 1
    assert ns.row(0) == vec(1, 1, 1)


def test_nullspace_vectors_are_killed_and_independent():
    rng = random.Random(3)
    for _ in range(50):
        m = random_matrix(rng, rng.randrange(1, 8), rng.randrange(1, 10))
        ns = m.nullspace()
        assert ns.nrows == m.ncols - m.rank()
        assert ns.rank() == ns.nrows
        for i in range(ns.nrows):
            assert m.mul_vector(ns.row(i)).is_zero()


# -- solve --------------------------------------------------------------


def test_solve_identity():
    b = vec(1, 0, 1, 1)
    assert GF2Matrix.identity(4).solve(b) == b


def test_solve_zero_matrix_nonzero_rhs():
    assert GF2Matrix.zeros(2, 3).solve(vec(1, 0)) is None


def test_solve_hand_case():
    m = mat((1, 1, 0), (0, 1, 1))
    x = m.solve(vec(1, 1))
    assert x is not None
    assert m.mul_vector(x) == vec(1, 1)


def test_solve_roundtrip_random():
    rng = random.Random(4)
    for _ in range(60):
        m = random_matrix(rng, rng.randrange(1, 8), rng.randrange(1, 8))
        x = m.solve(m.mul_vector(GF2Vector(m.ncols, rng.getrandbits(m.ncols))))
        assert x is not None
        # Mx = b must hold bit-exactly for the returned solution.


def test_solve_detects_unsolvable():
    rng = random.Random(5)
    hits = 0
    for _ in range(200):
        m = random_matrix(rng, rng.randrange(1, 7), rng.randrange(1, 7))
        b = GF2Vector(m.nrows, rng.getrandbits(m.nrows))
        x = m.solve(b)
        if x is None:
            hits += 1
            # Oracle: exhaust all candidate vectors.
            assert all(
                m.mul_vector(GF2Vector(m.ncols, c)) != b
                for c in range(1 << m.ncols)
            )
        else:
            assert m.mul_vector(x) == b
    assert hits > 0


def test_solve_dimension_mismatch_is_an_error_not_none():
    with pytest.raises(ValueError):
        mat((1, 0), (0, 1)).solve(vec(1, 0, 0))


# -- vectors ------------------------------------------------------------


def test_vector_addition_self_inverse():
    rng = random.Random(6)
    for _ in range(30):
        v = GF2Vector(12, rng.getrandbits(12))
        assert (v + v).is_zero()


def test_vector_scale_restricted_to_bits():
    v = vec(1, 0, 1)
    assert v.scale(1) == v
    assert v.scale(0).is_zero()
    with pytest.raises(ValueError):
        v.scale(2)


def test_rank_nullity():
    rng = random.Random(7)
    for _ in range(40):
        m = random_matrix(rng, rng.randrange(1, 9), rng.randrange(1, 11))
        assert m.rank() + m.nullspace().nrows == m.ncols


# -- pivot basis --------------------------------------------------------


def test_pivot_basis_rank_agrees_with_matrix_rank():
    rng = random.Random(8)
    for _ in range(30):
        nrows, ncols = rng.randrange(1, 9), rng.randrange(1, 11)
        m = random_matrix(rng, nrows, ncols)
        pb = PivotBasis()
        for r in m.rows:
            pb.add(r)
        assert pb.rank == m.rank()


def test_pivot_basis_membership():
    pb = PivotBasis()
    pb.add(0b110)
    pb.add(0b011)
    assert pb.contains(0b101)
    assert not pb.contains(0b001)


# -- properties ---------------------------------------------------------

# No example database: each run draws its examples afresh and stores none.
properties = settings(database=None, max_examples=150)


@st.composite
def matrices(draw, max_side=12):
    nrows = draw(st.integers(0, max_side))
    ncols = draw(st.integers(0, max_side))
    rows = draw(st.lists(st.integers(0, (1 << ncols) - 1), min_size=nrows, max_size=nrows))
    return GF2Matrix(nrows, ncols, rows)


@properties
@given(matrices())
def test_property_rank_plus_nullity_is_ncols(m):
    assert m.rank() + m.nullspace().nrows == m.ncols


@properties
@given(matrices(), st.integers(min_value=0))
def test_property_solution_satisfies_the_system(m, rhs):
    b = GF2Vector(m.nrows, rhs)
    x = m.solve(b)
    if x is not None:
        assert m.mul_vector(x) == b


@properties
@given(matrices(), st.integers(min_value=0))
def test_property_image_is_always_solvable(m, bits):
    x = GF2Vector(m.ncols, bits)
    assert m.solve(m.mul_vector(x)) is not None


@properties
@given(matrices())
def test_property_pivot_basis_rank_is_matrix_rank(m):
    pb = PivotBasis()
    for r in m.rows:
        pb.add(r)
    assert pb.rank == m.rank()
