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
ring, and i_h keeps the weight.  Let h act diagonally,
[h, b_k] = chi(k) b_k with chi(k) in {0, 1}, and let chi be linear:
packed over the basis, it lies in the span of the weight parities, the
l vectors whose bit k is coordinate i of w_k mod 2.  Then
chi(k) = lambda . w_k mod 2 for some lambda in GF(2)^l, and L_h
multiplies the basis cochain key -> b_k by chi(k) + sum of chi(i) over
the key, which is lambda . mu mod 2 on the whole weight-mu block.  Where
that is 1, every cocycle z is L_h z = d(i_h z), so H^n_mu = 0 and the
block need not be ranked.  An h that is not diagonal or whose character
is not linear is left out; that only prunes fewer blocks, so dropping it
is always safe.  The survey enumerates just the weights where every kept
L_h is 0; _c2_groups is the unpruned view, every C^2 block.

The survey then ranks one block per orbit of the signed permutations of
the eps coordinates.  An automorphism theta of L that moves each weight
w to g(w) acts on cochains by c -> theta c (theta^-1 x, ..), a
bijection C^n_mu -> C^n_(g mu) that commutes with d, since d is built
from the bracket alone; so the rows of mu and g(mu) agree.  The pair
of the signed cyclic shift (-w_l, w_1, .., w_(l-1)) and eps_1 <-> eps_2
generates every signed permutation (Coxeter and Moser 1957), so when
both have a theta, two weights lie in one orbit exactly when their
sorted absolute coordinates agree, the orbit key; else each is ranked.
theta is derived from the algebra, not supplied: find_graded_isomorphism
relabels each basis weight w as g(w), by the weight map it is given, so
on the one-dimensional nonzero weight spaces theta must send b_w to
b_(g w), and at weight 0 the brackets of the dual pairs fix it; the
candidate is kept only if it has full rank and keeps every bracket.  It
exists on D_l because W(D_l) and the graph automorphism act on the
Chevalley Z-form (Chevalley 1955; Steinberg 1967) with signs that
vanish mod 2, and on the model because a signed permutation of the
basis of V keeps the form and omega.

The survey only needs theta to exist; the rigidity scan
(deformation.rigidity_scan) also walks the shift's theta, by intertwines.

Inside this module a basis cochain key -> b_k is one int, its packed
coordinate (algebra._coord_code): the key's index mask shifted left by
dim.bit_length(), or'd with k, about dim + 7 bits.  differential composes
the term tables of L and c both ways, counts the terms once and decodes
the odd ones (algebra.odd_coords), as the Jacobi identity and the cup
square do, so a cocycle check numbers nothing; _images numbers target
coordinates only for ranks, the dense blocks and the coboundary test, a
PivotBasis membership.  Cochain is the type at the module's boundary.
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra import (
    LieAlgebra,
    Weight,
    _coord_code,
    _term_tables,
    check_weight_additivity,
    composed_terms,
    odd_coords,
)
from .gf2 import GF2Matrix, PivotBasis, bit_indices, row_reduce


class Cochain:
    """Sparse alternating multilinear map, keyed on index subsets.

    data maps sorted index tuples (the arguments) to packed value
    vectors.  Degrees 1..3 are the working complex C^1 -> C^2 -> C^3.
    """

    __slots__ = ("degree", "dim", "data")

    def __init__(self, degree: int, dim: int, data: dict | None = None):
        if not 1 <= degree <= 3:
            raise ValueError(f"unsupported cochain degree {degree}")
        # Padded with dim, dim + 1, .. to four entries, a canonical key passes one chained comparison.
        pad = tuple(range(dim, dim + 4 - degree))
        clean = {}
        for key, v in (data or {}).items():
            if not (len(k := key + pad) == 4 and -1 < k[0] < k[1] < k[2] < k[3]):
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
        self.data = clean if all(clean.values()) else {k: v for k, v in clean.items() if v}

    def __add__(self, other: Cochain) -> Cochain:
        if (self.degree, self.dim) != (other.degree, other.dim):
            raise ValueError("cochain shape mismatch")
        data = dict(self.data)
        for k, v in other.data.items():
            data[k] = data.get(k, 0) ^ v
        return Cochain(self.degree, self.dim, data)

    def is_zero(self) -> bool:
        return not self.data

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Cochain)
            and self.degree == other.degree
            and self.dim == other.dim
            and self.data == other.data
        )

    def __repr__(self) -> str:
        return f"Cochain(degree={self.degree}, support={len(self.data)})"


def cochain_weight(L: LieAlgebra, c: Cochain) -> Weight | None:
    """Weight of a homogeneous cochain; None when zero; error when mixed."""
    codes = L.weight_codes
    ws = {codes[m] - sum(map(codes.__getitem__, key)) for key, bits in c.data.items() for m in bit_indices(bits)}
    if len(ws) > 1:
        raise ValueError("cochain is not weight-homogeneous")
    return L.weight_of_code(ws.pop()) if ws else None


# -- differential ------------------------------------------------------


def differential(L: LieAlgebra, c: Cochain) -> Cochain:
    """Chevalley-Eilenberg differential C^1 -> C^2 -> C^3, composed from the term tables of L and c.

    d on C^3 is never needed: a cup square is a cocycle whenever psi is (see deformation)."""
    if c.degree not in (1, 2):
        raise ValueError(f"differential not supported in degree {c.degree}")
    if c.dim != L.dim:
        raise ValueError(f"cochain of dimension {c.dim} on an algebra of dimension {L.dim}")
    f, t = L.term_tables(), _term_tables(c.data, L.dim)
    # sum_i [x_i, c(..)] applies c, then the bracket; sum_{i<j} c([x_i, x_j], ..) the other way round.
    terms = composed_terms(t, f) + composed_terms(f, t)
    return Cochain(c.degree + 1, L.dim, odd_coords(terms, L.dim, c.degree + 1))


# -- weight blocks -----------------------------------------------------


def _block_coords(L: LieAlgebra, n: int, mu: Weight) -> list[int]:
    """Ordered basis of the weight-mu degree-n cochains, as packed coordinates.

    The basis cochain key -> b_k has weight w_k minus the weight sum of
    key, so each value weight w takes the keys summing to w - mu.  Keys
    come in lex order and the values of one key in index order.  That
    weight is a signed sum of n + 1 basis weights, so past (n + 1) times
    their largest coordinate the block is empty and no index is built.
    """
    if n not in (1, 2):
        raise ValueError(f"no basis enumeration in degree {n}")
    code = L.weight_code(mu)  # checks the length; inside the bound it is never None
    if max(map(abs, mu), default=0) > (n + 1) * L._weight_top:
        return []
    sums = L.weight_sums(n)
    hits = sorted((key, ks) for w, ks in L.weight_sums(1).items() for key in sums.get(w - code, ()))
    return [_coord_code(key, 0, L.dim) | k for key, ks in hits for (k,) in ks]


def _images(L: LieAlgebra, src: list[int], target_pos: dict[int, int]) -> list[int]:
    """d of each basis cochain in src, packed over target_pos.

    Sources and targets are packed coordinates, so a term is a mask
    union and "a not in key" a mask test: no key is sorted and no tuple
    built.  target_pos maps a target coordinate to its bit.  A coordinate
    not yet in it gets the next number, in place, in the order the terms
    reach it.  Each term toggles its bit, so terms that meet cancel and a
    numbered coordinate may end up zero in every image.
    """
    s = L.dim.bit_length()
    low = (1 << s) - 1
    codes, pairs = L.term_tables()
    images = []
    for code in src:
        k = code & low
        mask = code ^ k
        # sum_i [x_i, c(.. x_i dropped ..)]: x_i = b_a brackets the value b_k
        # into b_m; the code of (a, m) has bit a, so it meets the key there.
        terms = [mask | t for t in codes[k] if not t & mask]
        # sum_{i<j} c([x_i, x_j], ..): [b_a, b_b] meets the argument b_i.
        for i in bit_indices(code >> s):
            rest = code ^ (1 << (i + s))
            terms += [rest | pair for pair in pairs[i] if not pair & rest]
        img = 0
        for t in terms:
            pos = target_pos.get(t)
            if pos is None:
                pos = target_pos[t] = len(target_pos)
            img ^= 1 << pos
        images.append(img)
    return images


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
    zero; ranks, kernels and spans do not see it.  The dense form
    serves the test oracles and the benchmark's probe; H^2 dimensions
    go through _image_rank and coboundary tests reduce against the
    _images, so neither builds a matrix.
    """
    _require_graded(L)
    c1 = _block_coords(L, 1, mu)
    c2 = _block_coords(L, 2, mu)
    d = []
    for src, target_pos in ((c1, {code: p for p, code in enumerate(c2)}), (c2, {})):
        # _images numbers new targets in place, so the row count is read after it.
        images = _images(L, src, target_pos)
        d.append(GF2Matrix(len(src), len(target_pos), images).transpose())
    return WeightBlock(mu, tuple(c1), tuple(c2), *d)


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


# -- graded isomorphisms ----------------------------------------------


def intertwines(theta: list[int], f: dict, g: dict) -> bool:
    """Whether theta f(b_i, b_j) = g(theta b_i, theta b_j) on every basis pair, for b_i -> theta[i], packed.

    f and g are alternating tables {(i, j): packed value}, i < j: two
    bracket tables, when theta is to be a homomorphism, or two degree-2
    cochains, when theta . f is to be g.  g(theta b_i, theta b_j) is the
    sum of the g(b_a, b_b) with b_a in theta b_i and b_b in theta b_j, so
    each entry of g is spread over the pairs whose images meet it, and the
    pairs that none meets give 0.
    """
    preimages: list[list[int]] = [[] for _ in range(len(theta))]
    for i, t in enumerate(theta):
        for m in bit_indices(t):
            preimages[m].append(i)
    lhs = {}
    for key, v in f.items():
        image = 0
        for m in bit_indices(v):
            image ^= theta[m]
        lhs[key] = image
    rhs: dict[tuple[int, int], int] = {}
    for (a, b), v in g.items():
        for i in preimages[a]:
            for j in preimages[b]:
                if i != j:
                    key = (i, j) if i < j else (j, i)
                    rhs[key] = rhs.get(key, 0) ^ v
    return all(lhs.get(k, 0) == rhs.get(k, 0) for k in lhs.keys() | rhs.keys())


def find_graded_isomorphism(A: LieAlgebra, B: LieAlgebra, g) -> list[int] | None:
    """The packed images theta(b_i) of an isomorphism A -> B that moves each weight w to g(w), or None.

    g maps a weight tuple of A to one of B; pass the identity for an
    isomorphism that keeps every weight.  Each nonzero weight space must
    be a line on both sides, which forces theta(b_w) = b'_(g w).  At
    weight 0, theta [b_w, b_-w] = [b'_(g w), b'_-(g w)] for every dual
    pair: one row reduction of these equations, the image of each bracket
    tagged above bit dim, must leave a unit row on every weight-0 basis
    vector, its image in the tag.  The candidate is returned only if it
    has full rank and keeps every bracket (intertwines), so a g that is
    not linear can only give None.

    None does not prove that no isomorphism exists: a nonzero weight space
    of dimension above 1, or a weight-0 part that the dual pairs leave
    undetermined, gives None as well.
    """
    dim = A.dim
    moved = [g(w) for w in A.weights]
    # Both sides are packed in B's fields; a weight past them has no basis vector of B.
    if B.dim != dim or any(len(w) != B._weight_field[0] for w in moved):
        return None
    wa: dict[int | None, list[int]] = {}
    for i, w in enumerate(moved):
        wa.setdefault(B.weight_code(w), []).append(i)
    wb = {w: [i for (i,) in keys] for w, keys in B.weight_sums(1).items()}
    if wa.keys() != wb.keys() or any(len(wa[w]) != len(wb[w]) for w in wa):
        return None
    theta = [0] * dim
    rows = []
    zero_a = zero_b = 0
    for w, ia in wa.items():
        if not w:
            zero_a, zero_b = sum(1 << i for i in ia), sum(1 << i for i in wb[w])
        elif len(ia) != 1:
            return None
        else:
            theta[ia[0]] = 1 << wb[w][0]
            # A weight whose negative is absent has no dual pair.
            if w < -w and -w in wa:
                pair = A.bracket_basis(ia[0], wa[-w][0])
                rows.append(pair | B.bracket_basis(wb[w][0], wb[-w][0]) << dim)
    solved = 0
    for v in row_reduce(rows):
        low, image = v & ((1 << dim) - 1), v >> dim
        # Any row but a unit row on a weight-0 vector with a weight-0 image
        # leaves theta undetermined, off weight or inconsistent.
        if low & (low - 1) or not low & zero_a or image & ~zero_b:
            return None
        theta[low.bit_length() - 1] = image
        solved |= low
    if solved != zero_a or PivotBasis(theta).rank != dim or not intertwines(theta, A.brackets, B.brackets):
        return None
    return theta


def signed_cyclic_shift(w: Weight) -> Weight:
    """(-w_l, w_1, .., w_(l-1)): eps_i -> eps_(i+1) for i < l, and eps_l -> -eps_1."""
    return (-w[-1], *w[:-1])


def _signed_permutation_generators(l: int) -> dict:
    """The shift and eps_1 <-> eps_2, as maps of weights, by name; the shift alone at l = 1, none at l = 0."""
    swap = {"eps_1<->eps_2": lambda w: (w[1], w[0], *w[2:])} if l > 1 else {}
    return {"shift": signed_cyclic_shift, **swap} if l else {}


def _automorphisms(L: LieAlgebra) -> dict[str, list[int]]:
    """The basis images of an automorphism of L over each generator, found once per algebra.

    theta_g is find_graded_isomorphism(L, L, g).  Empty unless every
    generator gets one, and then the survey ranks every weight.
    """
    if L._automorphisms is None:
        gens = _signed_permutation_generators(len(L.weights[0])) if L.weights else {}
        found = {name: find_graded_isomorphism(L, L, g) for name, g in gens.items()}
        L._automorphisms = found if None not in found.values() else {}
    return L._automorphisms


# -- full weight survey ------------------------------------------------


def _torus_characters(L: LieAlgebra) -> tuple[int, ...]:
    """The characters chi_h, packed over the basis, of the weight-0 diagonal h whose chi_h is linear.

    h is diagonal when [h, b_k] is 0 or b_k for every k, and chi_h has
    bit k when it is b_k; it is linear when it lies in the span of the
    weight parities, parity i with bit k when coordinate i of w_k is odd.
    """
    parities = PivotBasis(sum((c & 1) << k for k, c in enumerate(coord)) for coord in zip(*L.weights))
    s = L.dim.bit_length()
    low = (1 << s) - 1
    characters = []
    # Row h of the codes table holds ((a,), m) for b_m in [b_a, b_h]: h is diagonal when m = a throughout.
    for h, row in enumerate(L.term_tables()[0]):
        if not L.weight_codes[h] and all(c >> s == 1 << (c & low) for c in row):
            chi = sum(c >> s for c in row)
            if parities.contains(chi):
                characters.append(chi)
    return tuple(characters)


def _c2_weights(L: LieAlgebra, characters: tuple[int, ...] = ()) -> list[Weight]:
    """The weights mu with C^2_mu != 0 on whose block every character's L_h is 0, sorted.

    On the block of mu = w - s, for a value weight w and a pair sum s, L_h
    multiplies by chi_h of the value plus chi_h of the pair, which is
    lambda . mu mod 2, so it is 0 exactly when the two agree, and only
    those pairs are formed.
    """
    # Bit j of par[k] is chi_j(k).  A linear character is a function of the
    # weight, and a pair sum takes the sum of its indices' bits.
    par = [sum((chi >> k & 1) << j for j, chi in enumerate(characters)) for k in range(L.dim)]
    sums: dict[int, list[int]] = {}
    for s, ((i, j), *_) in L.weight_sums(2).items():
        sums.setdefault(par[i] ^ par[j], []).append(s)
    weights = {w - s for w, ((k,), *_) in L.weight_sums(1).items() for s in sums.get(par[k], ())}
    return [L.weight_of_code(mu) for mu in sorted(weights)]


def _c2_groups(L: LieAlgebra) -> dict[Weight, list[int]]:
    """All degree-2 basis cochains grouped by weight, the unpruned view of the survey."""
    return {mu: _block_coords(L, 2, mu) for mu in _c2_weights(L)}


def h2_survey_rows(L: LieAlgebra) -> list[dict]:
    """Rows for the nonzero-H^2 weights in weight order; ranks one block at a time.

    Only the blocks no torus character makes acyclic are ranked.  When
    _automorphisms finds all the generators, one block serves its whole
    orbit: the first admissible weight with a given sorted |coordinates|
    is ranked and its row, with each weight's own mu, is copied to the
    rest.  Otherwise every admissible block is ranked.
    """
    _require_graded(L)
    orbits = bool(_automorphisms(L))
    ranked: dict[Weight, dict] = {}
    rows = []
    for mu in _c2_weights(L, _torus_characters(L)):
        key = tuple(sorted(map(abs, mu))) if orbits else mu
        if key not in ranked:
            ranked[key] = _block_row(L, mu, key if orbits else None)
        if ranked[key]["dim_h2"]:
            rows.append({**ranked[key], "weight": mu})
    return rows


# -- cocycle / coboundary tests ----------------------------------------


def require_cocycle(L: LieAlgebra, c: Cochain) -> None:
    """Raise ValueError unless d c = 0, naming the lex-first basis tuple where it is not."""
    if dc := differential(L, c).data:
        t = min(dc)
        noun = ("pair", "triple")[len(t) - 2]
        raise ValueError(f"not a cocycle: d at the basis {noun} {t} is {tuple(bit_indices(dc[t]))}")


def is_coboundary(L: LieAlgebra, c: Cochain) -> bool:
    """Whether c, a weight-homogeneous cochain of degree 2 or 3, is in the span of its block's images.

    A non-cocycle never is, so False means a nonzero class only where d c = 0 is known."""
    if c.degree not in (2, 3):
        raise ValueError("coboundary test supports degrees 2 and 3")
    _require_graded(L)
    if c.dim != L.dim:
        raise ValueError(f"cochain of dimension {c.dim} on an algebra of dimension {L.dim}")
    if c.is_zero():
        return True
    src = _block_coords(L, c.degree - 1, cochain_weight(L, c))
    # c's own coordinates come first, so c is the all-ones vector on them;
    # coordinates only the images reach are numbered after.
    coords = [_coord_code(key, m, L.dim) for key, v in c.data.items() for m in bit_indices(v)]
    images = _images(L, src, {code: p for p, code in enumerate(coords)})
    return not PivotBasis(images).reduce((1 << len(coords)) - 1)
