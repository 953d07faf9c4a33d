"""Weight-graded Chevalley-Eilenberg cochains with adjoint coefficients.

Cochains are alternating by construction: they are keyed on sets of
basis indices, the right notion in characteristic 2 where symmetric and
skew-symmetric maps coincide but alternating is strictly stronger.

The differential, with every sign trivial mod 2, is

    (d c)(x_0..x_n) = sum_i [x_i, c(.. x_i dropped ..)]
                    + sum_{i<j} c([x_i, x_j], .. x_i, x_j dropped ..)

It preserves weight, so second cohomology is computed one weight block
at a time; the ungraded computation survives as a small-rank oracle in
the test suite.

The survey skips the blocks a torus element makes acyclic.  For a
weight-0 element h, Cartan's formula L_h = d i_h + i_h d holds over any
ring, and i_h keeps the weight.  Let h act diagonally, [h, b_k] = chi(k) b_k
with chi(k) in {0, 1}, and let chi be linear: lambda . w_k = chi(k) mod 2
for some lambda in GF(2)^l.  Then L_h multiplies the basis cochain
key -> b_k by chi(k) + sum of chi(i) over the key, which is lambda . mu
mod 2 on the whole weight-mu block.  Where that is 1, every cocycle z is
L_h z = d(i_h z), so H^n_mu = 0 and the block need not be ranked.  An h
that is not diagonal or whose character is not linear gives no
functional; that only prunes fewer blocks, so dropping it is always
safe.  The survey enumerates just the weights with lambda . mu even for
every functional; _c2_groups is the unpruned view, every C^2 block.

The survey then ranks one block per orbit of the signed permutations of
the eps coordinates.  An automorphism theta of L that moves each weight
w to g(w) acts on cochains by c -> theta c (theta^-1 x, ..), a
bijection C^n_mu -> C^n_(g mu) that commutes with d, since d is built
from the bracket alone; so the rows of mu and g(mu) agree.  The eps_i <->
eps_(i+1) and eps_l -> -eps_l generate every signed permutation, so once
each of them has a theta, two weights lie in one orbit exactly when
their sorted absolute coordinates agree, and that is the orbit key.
theta is derived from the algebra, not supplied: on the one-dimensional
nonzero weight spaces it must send b_w to b_(g w), and at weight 0 the
brackets of the dual pairs fix it; the candidate is kept only if it has
full rank and keeps every bracket (find_graded_isomorphism).  It exists
on D_l because W(D_l) and the graph automorphism act on the Chevalley
Z-form (Chevalley 1955; Steinberg 1967) with signs that vanish mod 2,
and on the model because a signed permutation of the basis of V keeps
the form and omega.  Where a generator gets no theta, every weight is
ranked.

Inside this module a basis cochain key -> b_k is one int, its packed
coordinate (_coord_code): the mask of the key's indices with bit dim + k
set, so every term of the differential is a mask union.  differential
only counts how often each term occurs and keeps the odd ones, so a
cocycle check numbers nothing; _images numbers the target coordinates
only where packed rows are needed: ranks, the dense blocks and the
coboundary solve.  Cochain is the type at the module's boundary, and
_cochain is the one place a set of packed coordinates becomes one.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from typing import NamedTuple

from .algebra import LieAlgebra, check_weight_additivity, find_graded_isomorphism
from .gf2 import GF2Matrix, PivotBasis, bit_indices, solve_columns
from .roots import Weight, is_zero_weight, wsub


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

    def __add__(self, other: Cochain) -> Cochain:
        if (self.degree, self.dim) != (other.degree, other.dim):
            raise ValueError("cochain shape mismatch")
        data = dict(self.data)
        for k, v in other.data.items():
            data[k] = data.get(k, 0) ^ v
        return Cochain(self.degree, self.dim, data)

    def is_zero(self) -> bool:
        return not self.data

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


def _cochain(degree: int, dim: int, codes: Sequence[int], bits: int) -> Cochain:
    """The cochain with the packed coordinates codes[p] for the set bits p of bits."""
    data: dict[tuple, int] = {}
    for p in bit_indices(bits):
        key, k = _coord_of_code(codes[p], dim)
        data[key] = data.get(key, 0) ^ (1 << k)
    return Cochain(degree, dim, data)


def _coord_code(key, k: int, dim: int) -> int:
    """The packed coordinate (key, value index k): bit i for each i in key, and bit dim + k."""
    code = 1 << (dim + k)
    for i in key:
        code |= 1 << i
    return code


def _coord_of_code(code: int, dim: int) -> tuple[tuple[int, ...], int]:
    """The (key, value index) a packed coordinate codes, inverse to _coord_code."""
    return tuple(bit_indices(code & ((1 << dim) - 1))), (code >> dim).bit_length() - 1


def _term_codes(L: LieAlgebra) -> tuple[list[list[int]], list[list[int]]]:
    """The two term tables of differential and _images, built once per algebra.

    codes[k] lists the code of ((a,), m) for each b_m in a nonzero
    [b_a, b_k], by a then m: the adjacency of L in packed coordinates.
    pairs[m] lists the key mask (1 << i) | (1 << j) of each bracket
    [b_i, b_j] that involves b_m, in table order.
    """
    if L._term_codes is None:
        dim = L.dim
        pairs: list[list[int]] = [[] for _ in range(dim)]
        for (i, j), v in L.brackets.items():
            for m in bit_indices(v):
                pairs[m].append((1 << i) | (1 << j))
        codes = [
            [_coord_code((a,), m, dim) for a, v in row for m in bit_indices(v)]
            for row in L.adjacency()
        ]
        L._term_codes = codes, pairs
    return L._term_codes


# -- differential ------------------------------------------------------


def differential(L: LieAlgebra, c: Cochain) -> Cochain:
    """Chevalley-Eilenberg differential; degrees 1..3 accepted.

    Degree 3 is admitted (image degree 4) solely so that cocycle
    preconditions on degree-3 inputs can be machine-checked.  Each term
    is a packed coordinate, kept when it occurs an odd number of times
    and its key has degree + 1 indices: a term whose new index is already
    in the key collapses to a shorter key.
    """
    if c.degree not in (1, 2, 3):
        raise ValueError(f"differential not supported in degree {c.degree}")
    if c.dim != L.dim:
        raise ValueError(f"cochain of dimension {c.dim} on an algebra of dimension {L.dim}")
    dim = L.dim
    codes, pairs = _term_codes(L)
    terms: list[int] = []
    for key, bits in c.data.items():
        mask = sum(1 << i for i in key)
        for k in bit_indices(bits):
            # sum_i [x_i, c(..)] and sum_{i<j} c([x_i, x_j], ..), as in _images.
            terms.extend(map(mask.__or__, codes[k]))
            for i in key:
                terms.extend(map((mask ^ (1 << i) | 1 << (dim + k)).__or__, pairs[i]))
    # Counter keeps first-occurrence order, the order _images numbers targets in.
    low = (1 << dim) - 1
    odd = [t for t, n in Counter(terms).items() if n & 1 and (t & low).bit_count() == c.degree + 1]
    return _cochain(c.degree + 1, dim, odd, (1 << len(odd)) - 1)


# -- weight blocks -----------------------------------------------------


def _block_coords(L: LieAlgebra, n: int, mu: Weight) -> list[int]:
    """Ordered basis of the weight-mu degree-n cochains, as packed coordinates.

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
    return [_coord_code(key, k, L.dim) for key, ks in hits for k in ks]


def _images(L: LieAlgebra, src: list[int], target_pos: dict[int, int]) -> list[int]:
    """d of each basis cochain in src, packed over target_pos.

    Sources and targets are packed coordinates, so a term is a mask
    union and "a not in key" a mask test: no key is sorted and no tuple
    built.  target_pos maps a target coordinate to its bit.  A coordinate
    not yet in it gets the next number, in place, in the order the terms
    reach it.  Each term toggles its bit, so terms that meet cancel and a
    numbered coordinate may end up zero in every image.
    """
    dim = L.dim
    low = (1 << dim) - 1
    codes, pairs = _term_codes(L)
    images = []
    for code in src:
        mask = code & low
        # sum_i [x_i, c(.. x_i dropped ..)]: x_i = b_a brackets the value b_k
        # into b_m; the code of (a, m) has bit a, so it meets the key there.
        terms = [mask | t for t in codes[(code >> dim).bit_length() - 1] if not t & mask]
        # sum_{i<j} c([x_i, x_j], ..): [b_a, b_b] meets the argument b_i.
        for i in bit_indices(mask):
            rest = code ^ (1 << i)
            terms += [rest | pair for pair in pairs[i] if not pair & rest]
        img = 0
        for t in terms:
            pos = target_pos.get(t)
            if pos is None:
                pos = target_pos[t] = len(target_pos)
            img ^= 1 << pos
        images.append(img)
    return images


def _diff_matrix(L: LieAlgebra, src: list[int], target_pos: dict[int, int]) -> GF2Matrix:
    """Matrix of the differential, columns over src, rows over target_pos."""
    images = _images(L, src, target_pos)
    return GF2Matrix(len(src), len(target_pos), images).transpose()


class WeightBlock(NamedTuple):
    """One weight's slice of the complex with its two differentials."""

    mu: Weight
    c1: tuple[int, ...]  # packed coordinates, canonical order
    c2: tuple[int, ...]
    d1: GF2Matrix  # C1 -> C2, rows over c2
    d2: GF2Matrix  # C2 -> C3, rows over the coordinates its terms reach (some may be zero)


def weight_block(L: LieAlgebra, mu: Weight) -> WeightBlock:
    """The weight-mu block with dense d1 and d2.

    Columns run over the canonical bases c1 and c2 and d1's rows over
    c2; d2's rows run over the C^3 coordinates its terms reach, in term
    order, so C^3_mu is never listed.  A row whose terms all cancel is
    zero; ranks, nullspaces and solves do not see it.  The dense form
    serves the test oracles and the benchmark's probe; H^2 dimensions
    go through _image_rank and coboundary solves eliminate the _images
    columns, so neither builds a matrix.
    """
    _require_graded(L)
    c1 = _block_coords(L, 1, mu)
    c2 = _block_coords(L, 2, mu)
    d1 = _diff_matrix(L, c1, {code: p for p, code in enumerate(c2)})
    d2 = _diff_matrix(L, c2, {})
    return WeightBlock(mu, tuple(c1), tuple(c2), d1, d2)


# -- ranks without materializing the target basis ----------------------


def _image_rank(L: LieAlgebra, src: list[int]) -> int:
    """Rank of the differential on the basis cochains src.

    A rank does not depend on how the target is indexed, so this serves
    d1 and d2.
    """
    return PivotBasis(_images(L, src, {})).rank


def _require_graded(L: LieAlgebra) -> None:
    # Weight blocks are subcomplexes only when the bracket adds weights.
    if not check_weight_additivity(L):
        raise ValueError("the bracket does not preserve weight; H^2 is not graded")


def _block_row(L: LieAlgebra, mu: Weight, orbit: Weight | None = None) -> dict:
    """Survey statistics of the weight-mu block; orbit is the orbit key when mu represents one."""
    c2 = _block_coords(L, 2, mu)
    rank2 = _image_rank(L, c2)
    rank1 = _image_rank(L, _block_coords(L, 1, mu))
    n2 = len(c2)
    h2 = n2 - rank2 - rank1
    if h2 < 0:
        rep = "" if orbit is None else f", the representative of the orbit {orbit}"
        raise ArithmeticError(
            f"d^2 != 0 at weight {mu}{rep}: rank d1 = {rank1} exceeds dim ker d2 = {n2 - rank2}"
        )
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


def _torus_functionals(L: LieAlgebra) -> tuple[int, ...]:
    """The lambda in GF(2)^l, packed, of the weight-0 basis elements with a linear diagonal character.

    h qualifies when [h, b_k] is 0 or b_k for every k and some lambda has
    lambda . w_k = chi_h(k) mod 2 for every k; the other h are left out.
    """
    # Column i is coordinate i of every weight mod 2, packed over the basis.
    cols = [sum((c & 1) << k for k, c in enumerate(coord)) for coord in zip(*L.weights)]
    functionals = []
    for h, adj in enumerate(L.adjacency()):
        if not is_zero_weight(L.weights[h]) or any(v != 1 << a for a, v in adj):
            continue
        lam = solve_columns(cols, L.dim, sum(1 << a for a, _ in adj))
        if lam is not None:
            functionals.append(lam)
    return tuple(functionals)


def _c2_weights(L: LieAlgebra, functionals: tuple[int, ...] = ()) -> list[Weight]:
    """The weights mu with C^2_mu != 0 and lambda . mu even for every functional, sorted.

    mu = w - s for a value weight w and a pair sum s, and lambda . mu is
    even exactly when w and s have the same parity under every lambda, so
    only those pairs are formed.
    """

    def parity(w: Weight) -> int:
        bits = sum((c & 1) << i for i, c in enumerate(w))
        return sum(((bits & lam).bit_count() & 1) << j for j, lam in enumerate(functionals))

    sums: dict[int, list[Weight]] = {}
    for s in L.weight_sums(2):
        sums.setdefault(parity(s), []).append(s)
    return sorted({wsub(w, s) for w in L.weight_index() for s in sums.get(parity(w), ())})


def _c2_groups(L: LieAlgebra) -> dict[Weight, list[int]]:
    """All degree-2 basis cochains grouped by weight, the unpruned view of the survey."""
    return {mu: _block_coords(L, 2, mu) for mu in _c2_weights(L)}


def _signed_permutation_generators(l: int) -> dict:
    """eps_i <-> eps_(i+1) for i < l and eps_l -> -eps_l, as maps of weights, by name."""
    gens = {
        f"eps_{i}<->eps_{i + 1}": lambda w, i=i: (*w[: i - 1], w[i], w[i - 1], *w[i + 1 :])
        for i in range(1, l)
    }
    gens[f"eps_{l}->-eps_{l}"] = lambda w: (*w[:-1], -w[-1])
    return gens


def _automorphisms(L: LieAlgebra) -> dict[str, list[int]]:
    """The basis images of an automorphism of L over each generator, found once per algebra.

    theta_g is find_graded_isomorphism from L with every weight w relabelled
    g(w) onto L.  Empty unless every generator gets one, and then the
    survey ranks every weight.
    """
    if L._automorphisms is None:
        gens = _signed_permutation_generators(len(L.weights[0])) if L.weights else {}
        found = {
            name: find_graded_isomorphism(LieAlgebra(L.labels, map(g, L.weights), L.brackets), L)
            for name, g in gens.items()
        }
        L._automorphisms = found if None not in found.values() else {}
    return L._automorphisms


def h2_survey_rows(L: LieAlgebra) -> list[dict]:
    """Rows for the nonzero-H^2 weights in weight order; ranks one block at a time.

    Only the blocks no torus functional makes acyclic are ranked.  When
    _automorphisms finds all the generators, one block serves its whole
    orbit: the first admissible weight with a given sorted |coordinates|
    is ranked and its row, with each weight's own mu, is copied to the
    rest.  Otherwise every admissible block is ranked.
    """
    _require_graded(L)
    orbits = bool(_automorphisms(L))
    ranked: dict[Weight, dict] = {}
    rows = []
    for mu in _c2_weights(L, _torus_functionals(L)):
        key = tuple(sorted(map(abs, mu))) if orbits else mu
        if key not in ranked:
            ranked[key] = _block_row(L, mu, key if orbits else None)
        if ranked[key]["dim_h2"]:
            rows.append({**ranked[key], "weight": mu})
    return rows


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
    src = _block_coords(L, c.degree - 1, mu)
    # c's own coordinates come first, so c is the all-ones vector on them;
    # coordinates only the images reach are numbered after.
    coords = [_coord_code(key, m, L.dim) for key, v in c.items_sorted() for m in bit_indices(v)]
    target_pos = {code: p for p, code in enumerate(coords)}
    images = _images(L, src, target_pos)
    x = solve_columns(images, len(target_pos), (1 << len(coords)) - 1)
    if x is None:
        return False, None
    return True, _cochain(c.degree - 1, L.dim, src, x)
