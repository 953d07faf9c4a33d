"""Weight-graded Chevalley-Eilenberg cochains with adjoint coefficients.

Cochains are alternating by construction: they are keyed on sets of
basis indices, the right notion in characteristic 2 where symmetric and
skew-symmetric maps coincide but alternating is strictly stronger.

The differential, with every sign trivial mod 2, is

    (d c)(x_0..x_n) = sum_i [x_i, c(.. x_i dropped ..)]
                    + sum_{i<j} c([x_i, x_j], .. x_i, x_j dropped ..)

It preserves weight, so second cohomology is computed one weight block
at a time; the ungraded computation is kept only as a small-rank test
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import LieAlgebra, check_weight_additivity
from .gf2 import GF2Matrix, PivotBasis, bit_indices, solve_columns
from .roots import Weight, wsub


class Cochain:
    """Sparse alternating multilinear map, keyed on index subsets.

    data maps sorted index tuples (the arguments) to packed value
    vectors.  Degrees 1..3 form the working complex; degree 4 exists
    only as the image of a degree-3 differential.
    """

    __slots__ = ("degree", "dim", "data")

    def __init__(self, degree: int, dim: int, data: dict | None = None):
        if not 1 <= degree <= 4:
            raise ValueError(f"unsupported cochain degree {degree}")
        clean = {}
        for key, v in (data or {}).items():
            key = tuple(sorted(key))
            if len(key) != degree or len(set(key)) != degree:
                raise ValueError(f"bad key {key} for degree {degree}")
            if not all(0 <= i < dim for i in key):
                raise ValueError(f"key {key} out of range")
            if v < 0 or v >> dim:
                raise ValueError(f"value of key {key} has bits outside the basis")
            clean[key] = clean.get(key, 0) ^ v
        self.degree = degree
        self.dim = dim
        self.data = {k: v for k, v in clean.items() if v}

    @classmethod
    def zero(cls, degree: int, dim: int) -> Cochain:
        return cls(degree, dim, {})

    @classmethod
    def single(cls, degree: int, dim: int, key, value_bits: int) -> Cochain:
        return cls(degree, dim, {tuple(key): value_bits})

    def value(self, key) -> int:
        return self.data.get(tuple(sorted(key)), 0)

    def __add__(self, other: Cochain) -> Cochain:
        if (self.degree, self.dim) != (other.degree, other.dim):
            raise ValueError("cochain shape mismatch")
        data = dict(self.data)
        for k, v in other.data.items():
            data[k] = data.get(k, 0) ^ v
        return Cochain(self.degree, self.dim, data)

    def is_zero(self) -> bool:
        return not self.data

    def eval_basis(self, *indices: int) -> int:
        if len(indices) != self.degree:
            raise ValueError("arity mismatch")
        if len(set(indices)) != self.degree:
            return 0
        return self.data.get(tuple(sorted(indices)), 0)

    def eval_vec_basis(self, x: int, c: int) -> int:
        """Bilinear value on (packed vector, basis index c); degree 2 only."""
        if self.degree != 2:
            raise ValueError("eval_vec_basis needs a degree-2 cochain")
        data = self.data
        out = 0
        while x:
            low = x & -x
            m = low.bit_length() - 1
            x ^= low
            if m != c:
                out ^= data.get((m, c) if m < c else (c, m), 0)
        return out

    def items_sorted(self):
        return sorted(self.data.items())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Cochain)
            and self.degree == other.degree
            and self.dim == other.dim
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.degree, self.dim, tuple(sorted(self.data.items()))))

    def __repr__(self) -> str:
        return f"Cochain(degree={self.degree}, support={len(self.data)})"


def basis_cochain_weight(L: LieAlgebra, key, value_index: int) -> Weight:
    """weight(value) minus the sum of the argument weights."""
    w = L.weights[value_index]
    for i in key:
        w = wsub(w, L.weights[i])
    return w


def cochain_weight(L: LieAlgebra, c: Cochain) -> Weight | None:
    """Weight of a homogeneous cochain; None when zero; error when mixed."""
    w = None
    for key, bits in c.data.items():
        for m in bit_indices(bits):
            cand = basis_cochain_weight(L, key, m)
            if w is None:
                w = cand
            elif w != cand:
                raise ValueError("cochain is not weight-homogeneous")
    return w


def _cochain(degree: int, dim: int, coords: list | tuple, bits: int) -> Cochain:
    """The cochain whose coordinates (key, value index) are coords[p] for the set bits p."""
    data: dict[tuple, int] = {}
    for p in bit_indices(bits):
        key, k = coords[p]
        data[key] = data.get(key, 0) ^ (1 << k)
    return Cochain(degree, dim, data)


# -- differential ------------------------------------------------------


def differential(L: LieAlgebra, c: Cochain) -> Cochain:
    """Chevalley-Eilenberg differential; degrees 1..3 accepted.

    Degree 3 is admitted (image degree 4) solely so that cocycle
    preconditions on degree-3 inputs can be machine-checked.
    """
    if c.degree not in (1, 2, 3):
        raise ValueError(f"differential not supported in degree {c.degree}")
    src = [(key, k) for key, bits in c.data.items() for k in bit_indices(bits)]
    target_pos: dict[tuple, int] = {}
    acc = 0
    for img in _images(L, src, target_pos):
        acc ^= img
    return _cochain(c.degree + 1, c.dim, list(target_pos), acc)


# -- weight blocks -----------------------------------------------------


def _block_pairs(L: LieAlgebra, n: int, mu: Weight) -> list[tuple[tuple, int]]:
    """Ordered basis of the weight-mu degree-n cochains, as (key, value) pairs.

    The basis cochain key -> b_k has weight w_k minus the weight sum of
    key, so each value weight w takes the keys summing to w - mu.  Keys
    come in lex order and the values of one key in index order.
    """
    if n not in (1, 2):
        raise ValueError(f"no basis enumeration in degree {n}")
    sums = L.weight_sums(n)
    hits = sorted(
        (key, ks)
        for w, ks in L.weight_index().items()
        for key in sums.get(wsub(w, mu), ())
    )
    return [(key, k) for key, ks in hits for k in ks]


def cochain_basis(L: LieAlgebra, n: int, mu: Weight) -> list[Cochain]:
    """Basis cochains of weight mu in canonical (key, value) order."""
    return [
        Cochain.single(n, L.dim, key, 1 << k) for key, k in _block_pairs(L, n, mu)
    ]


def _images(
    L: LieAlgebra, src: list[tuple[tuple, int]], target_pos: dict[tuple, int]
) -> list[int]:
    """d of each basis cochain (key, k) in src, packed over target_pos.

    target_pos maps a target coordinate (key, value index) to its bit.
    A coordinate not yet in it gets the next number, in place, in the
    order the terms reach it.  Each term toggles its bit, so terms that
    meet cancel and a numbered coordinate may end up zero in every image.
    """
    adj = L.adjacency()
    pws = L.pairs_with_support()
    images = []
    for key, k in src:
        # sum_i [x_i, c(.. x_i dropped ..)]: x_i = b_a brackets the value b_k.
        terms = [
            (tuple(sorted((*key, a))), m)
            for a, v in adj[k]
            if a not in key
            for m in bit_indices(v)
        ]
        # sum_{i<j} c([x_i, x_j], ..): [b_a, b_b] meets the argument b_i.
        for i in key:
            rest = tuple(x for x in key if x != i)
            terms += [
                (tuple(sorted((*rest, a, b))), k)
                for a, b in pws[i]
                if a not in rest and b not in rest
            ]
        img = 0
        for t in terms:
            pos = target_pos.get(t)
            if pos is None:
                pos = target_pos[t] = len(target_pos)
            img ^= 1 << pos
        images.append(img)
    return images


def _diff_matrix(
    L: LieAlgebra,
    src: list[tuple[tuple, int]],
    target_pos: dict[tuple, int],
) -> GF2Matrix:
    """Matrix of the differential, columns over src, rows over target_pos."""
    images = _images(L, src, target_pos)
    return GF2Matrix(len(src), len(target_pos), images).transpose()


@dataclass(frozen=True)
class WeightBlock:
    """One weight's slice of the complex with its two differentials."""

    mu: Weight
    c1: tuple
    c2: tuple
    d1: GF2Matrix  # C1 -> C2, rows over c2
    d2: GF2Matrix  # C2 -> C3, rows over the coordinates its terms reach (some may be zero)

    def h2_dim(self) -> int:
        return len(self.c2) - self.d2.rank() - self.d1.rank()

    def composite_is_zero(self) -> bool:
        product = self.d2 @ self.d1
        return all(r == 0 for r in product.rows)


def weight_block(L: LieAlgebra, mu: Weight) -> WeightBlock:
    """The weight-mu block with dense d1 and d2.

    Columns run over the canonical bases c1 and c2 and d1's rows over
    c2; d2's rows run over the C^3 coordinates its terms reach, in term
    order, so C^3_mu is never listed.  A row whose terms all cancel is
    zero; ranks, nullspaces and solves do not see it.  The dense form
    serves representative and the tests; H^2 dimensions go through
    _image_rank and coboundary solves eliminate the _images columns,
    so neither builds a matrix.
    """
    _require_graded(L)
    c1 = _block_pairs(L, 1, mu)
    c2 = _block_pairs(L, 2, mu)
    d1 = _diff_matrix(L, c1, {pk: p for p, pk in enumerate(c2)})
    d2 = _diff_matrix(L, c2, {})
    return WeightBlock(mu, tuple(c1), tuple(c2), d1, d2)


# -- ranks without materializing the target basis ----------------------


def _image_rank(L: LieAlgebra, src: list[tuple[tuple, int]]) -> int:
    """Rank of the differential on the basis cochains src.

    A rank does not depend on how the target is indexed, so this serves
    d1 and d2.
    """
    return PivotBasis(_images(L, src, {})).rank


def _require_graded(L: LieAlgebra) -> None:
    # Weight blocks are subcomplexes only when the bracket adds weights.
    if not check_weight_additivity(L):
        raise ValueError("the bracket does not preserve weight; H^2 is not graded")


def _block_row(L: LieAlgebra, mu: Weight) -> dict:
    """Survey statistics of the weight-mu block."""
    c2 = _block_pairs(L, 2, mu)
    rank2 = _image_rank(L, c2)
    rank1 = _image_rank(L, _block_pairs(L, 1, mu))
    n2 = len(c2)
    h2 = n2 - rank2 - rank1
    if h2 < 0:
        raise ArithmeticError(f"rank d1 exceeds dim ker d2 at weight {mu}: d^2 != 0")
    return {
        "weight": mu,
        "dim_c2": n2,
        "dim_z2": n2 - rank2,
        "dim_b2": rank1,
        "dim_h2": h2,
    }


def cohomology_dim(L: LieAlgebra, mu: Weight) -> int:
    """dim H^2 at weight mu."""
    _require_graded(L)
    return _block_row(L, mu)["dim_h2"]


# -- full weight survey ------------------------------------------------


def _c2_weights(L: LieAlgebra) -> list[Weight]:
    """The weights mu with C^2_mu != 0, sorted."""
    sums = L.weight_sums(2)
    return sorted({wsub(w, s) for w in L.weight_index() for s in sums})


def _c2_groups(L: LieAlgebra) -> dict[Weight, list[tuple[tuple, int]]]:
    """All degree-2 basis cochains grouped by weight."""
    return {mu: _block_pairs(L, 2, mu) for mu in _c2_weights(L)}


def h2_survey_rows(L: LieAlgebra) -> list[dict]:
    """Rows for the nonzero-H^2 weights in weight order; ranks one block at a time."""
    _require_graded(L)
    rows = (_block_row(L, mu) for mu in _c2_weights(L))
    return [r for r in rows if r["dim_h2"]]


def h2_weight_survey(L: LieAlgebra) -> dict[Weight, int]:
    """Map weight -> dim H^2 over the weights where it is nonzero."""
    return {r["weight"]: r["dim_h2"] for r in h2_survey_rows(L)}


# -- cocycle / coboundary tests ----------------------------------------


def is_coboundary(L: LieAlgebra, c: Cochain) -> tuple[bool, Cochain | None]:
    """Whether c is a differential, plus one preimage when it is.

    Requires a weight-homogeneous cocycle of degree 2 or 3.  The preimage
    uses only basis cochains whose image is independent of the earlier ones.
    """
    if c.degree not in (2, 3):
        raise ValueError("coboundary test supports degrees 2 and 3")
    _require_graded(L)
    if not differential(L, c).is_zero():
        raise ValueError("input is not a cocycle")
    if c.is_zero():
        return True, Cochain.zero(c.degree - 1, c.dim)
    mu = cochain_weight(L, c)
    src = _block_pairs(L, c.degree - 1, mu)
    # c's own coordinates come first, so c is the all-ones vector on them;
    # coordinates only the images reach are numbered after.
    coords = [(key, m) for key, v in c.items_sorted() for m in bit_indices(v)]
    target_pos = {pk: p for p, pk in enumerate(coords)}
    images = _images(L, src, target_pos)
    x = solve_columns(images, len(target_pos), (1 << len(coords)) - 1)
    if x is None:
        return False, None
    return True, _cochain(c.degree - 1, c.dim, src, x)


def representative(L: LieAlgebra, mu: Weight) -> Cochain:
    """A cocycle generating a complement of the coboundaries at weight mu.

    Deterministic: first kernel vector of the block's d2 (in canonical
    basis order) that is not a coboundary.
    """
    block = weight_block(L, mu)
    coboundaries = PivotBasis(block.d1.transpose().rows)
    for v in block.d2.nullspace().rows:
        if not coboundaries.contains(v):
            return _cochain(2, L.dim, block.c2, v)
    raise ValueError(f"H^2 vanishes at weight {mu}")


# -- ungraded oracle ---------------------------------------------------


def ungraded_h2_dim(L: LieAlgebra) -> int:
    """dim H^2 computed on the whole complex, ignoring the grading.

    Quadratically larger than the graded path; intended as a test
    oracle for small algebras only.
    """
    dim = L.dim
    c1 = [((i,), k) for i in range(dim) for k in range(dim)]
    c2 = [((i, j), k) for i in range(dim) for j in range(i + 1, dim) for k in range(dim)]
    return len(c2) - _image_rank(L, c2) - _image_rank(L, c1)
