import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import mul_vector, rref_nullspace, rref_rank, rref_row_reduce, rref_solve

from d2lie.gf2 import GF2Matrix, PivotBasis, column_kernel


def vec(*coords):
    """Pack coordinates, coordinate i into bit i."""
    return sum(c << i for i, c in enumerate(coords))


def mat(*rows):
    return GF2Matrix(len(rows), len(rows[0]), [vec(*r) for r in rows])


def identity(n):
    return GF2Matrix(n, n, (1 << i for i in range(n)))


def kernel(m):
    """A kernel basis of m: column_kernel on the columns of m, the path center takes."""
    return column_kernel(m.transpose().rows, m.nrows)


def in_image(m, b):
    """Whether m x = b has a solution: b in the span of m's columns."""
    return PivotBasis(m.transpose().rows).contains(b)


def random_matrix(rng, nrows, ncols):
    return GF2Matrix(nrows, ncols, (rng.getrandbits(ncols) for _ in range(nrows)))


# -- rank ---------------------------------------------------------------


def test_rank_identity():
    assert identity(5).rank() == 5


def test_rank_zero_matrix():
    assert GF2Matrix(3, 4, (0, 0, 0)).rank() == 0


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


# -- kernel -------------------------------------------------------------


def test_nullspace_identity_is_empty():
    assert kernel(identity(4)) == []


def test_nullspace_zero_matrix_is_full():
    ns = kernel(GF2Matrix(2, 3, (0, 0)))
    assert len(ns) == 3
    assert PivotBasis(ns).rank == 3


def test_nullspace_hand_case():
    assert kernel(mat((1, 1, 0), (0, 1, 1))) == [vec(1, 1, 1)]


def test_nullspace_vectors_are_killed_and_independent():
    rng = random.Random(3)
    for _ in range(50):
        m = random_matrix(rng, rng.randrange(1, 8), rng.randrange(1, 10))
        ns = kernel(m)
        assert len(ns) == m.ncols - m.rank()
        assert PivotBasis(ns).rank == len(ns)
        for v in ns:
            assert mul_vector(m, v) == 0


# -- solve: the oracle the coboundary preimages rely on, and span tests --


def test_solve_identity():
    b = vec(1, 0, 1, 1)
    assert rref_solve(identity(4), b) == b


def test_solve_zero_matrix_nonzero_rhs():
    assert rref_solve(GF2Matrix(2, 3, (0, 0)), vec(1, 0)) is None


def test_solve_hand_case():
    m = mat((1, 1, 0), (0, 1, 1))
    x = rref_solve(m, vec(1, 1))
    assert x is not None
    assert mul_vector(m, x) == vec(1, 1)


def test_solve_roundtrip_random():
    rng = random.Random(4)
    for _ in range(60):
        m = random_matrix(rng, rng.randrange(1, 8), rng.randrange(1, 8))
        b = mul_vector(m, rng.getrandbits(m.ncols))
        x = rref_solve(m, b)
        assert x is not None
        assert mul_vector(m, x) == b


def test_solve_detects_unsolvable():
    # The span test on m's columns against the oracle: exhaust all candidate vectors.
    rng = random.Random(5)
    hits = 0
    for _ in range(200):
        m = random_matrix(rng, rng.randrange(1, 7), rng.randrange(1, 7))
        b = rng.getrandbits(m.nrows)
        solvable = any(mul_vector(m, c) == b for c in range(1 << m.ncols))
        assert in_image(m, b) == solvable
        hits += not solvable
    assert hits > 0


def test_rows_with_bits_outside_the_columns_rejected():
    # Masking them would make GF2Matrix(1, 2, [0b100]) a zero matrix of rank 0.
    for nrows, ncols, rows in ((1, 2, [0b100]), (2, 3, [0b1, 0b1000]), (1, 0, [1]), (1, 4, [-1])):
        with pytest.raises(ValueError):
            GF2Matrix(nrows, ncols, rows)
    assert GF2Matrix(1, 3, [0b100]).rank() == 1


def test_rank_nullity():
    rng = random.Random(7)
    for _ in range(40):
        m = random_matrix(rng, rng.randrange(1, 9), rng.randrange(1, 11))
        assert m.rank() + len(kernel(m)) == m.ncols


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
    assert m.rank() + len(kernel(m)) == m.ncols


@properties
@given(matrices(), st.integers(min_value=0))
def test_property_solution_satisfies_the_system(m, rhs):
    b = rhs & ((1 << m.nrows) - 1)
    x = rref_solve(m, b)
    if x is not None:
        assert mul_vector(m, x) == b


@properties
@given(matrices(), st.integers(min_value=0))
def test_property_image_is_always_solvable(m, bits):
    x = bits & ((1 << m.ncols) - 1)
    assert in_image(m, mul_vector(m, x))


@properties
@given(matrices(), st.integers(min_value=0))
def test_property_elimination_equals_rref(m, rhs):
    # The RREF column sweep is the reference: rank and canonical form agree
    # with it bit for bit, the kernel once row-reduced, and the span test
    # with its solvability.
    b = rhs & ((1 << m.nrows) - 1)
    assert m.rank() == rref_rank(m)
    assert m.row_reduce().rows == rref_row_reduce(m)
    ns, ref = kernel(m), rref_nullspace(m)
    reduced = GF2Matrix(len(ns), m.ncols, ns).row_reduce().rows
    assert reduced == rref_row_reduce(GF2Matrix(len(ref), m.ncols, ref))
    assert in_image(m, b) == (rref_solve(m, b) is not None)


@properties
@given(matrices())
def test_property_pivot_basis_rank_is_matrix_rank(m):
    pb = PivotBasis()
    for r in m.rows:
        pb.add(r)
    assert pb.rank == m.rank()
