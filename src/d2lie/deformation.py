"""Cup-square obstructions and first-order deformations.

For a degree-2 cochain psi the bracket family f_t = [.,.] + t psi is a
Lie bracket over K[t] iff it is alternating and its Jacobi sum

    J_t(x, y, z) = f_t(f_t(x, y), z) + f_t(f_t(y, z), x) + f_t(f_t(z, x), y)

vanishes.  f_t is linear in t, so J_t is a polynomial of degree 2 in t
and splits by power:

    t^0   the Jacobi identity of [.,.]
    t^1   d psi, the Chevalley-Eilenberg differential
    t^2   the cup square (psi u psi)(x, y, z) = psi(psi(x, y), z)
          + psi(psi(y, z), x) + psi(psi(z, x), y)

Because f_t has no t^2 term, no power above t^2 occurs, so working over
K[t]/(t^3) loses nothing: the three coefficients are the whole identity.
Triviality of the cup square in H^3 is the first obstruction; a class
whose cup square is not even a coboundary admits no extension at all.
Once d psi = 0 the cup square Sq psi is a 3-cocycle.  Under the
Nijenhuis-Richardson bracket of alternating cochains, with mu the bracket
of L, d psi = ±[mu, psi] and 2 Sq psi = ±[psi, psi], so the graded Jacobi
identity [mu, [psi, psi]] = 2 [[mu, psi], psi] gives d(Sq psi) =
±[psi, d psi] (Gerstenhaber 1964; Nijenhuis and Richardson 1967).  That
holds over Z for any alternating mu and psi, so for integral lifts of the
GF(2) tables, and mod 2.  The scans check d psi; the tests d(Sq psi) = 0.

Alternation needs no check: LieAlgebra stores [b_i, b_j] only for
i < j and Cochain keys are index sets, so both vanish on every (b_i, b_i)
and are symmetric in their arguments.  In characteristic 2 that makes
f_t alternating on all of K[t]^dim, since for x = sum a_i b_i

    f(x, x) = sum a_i^2 f(b_i, b_i) + sum_{i<j} a_i a_j (f(b_i, b_j) + f(b_j, b_i)).

So the Jacobi identity of L and a ZERO verdict are the whole deformation
check, and the integrability command makes no other.  check_jacobi
decides t^0, once for every class of the algebra; obstruction_verdict
raises unless d psi = 0, the t coefficient; and ZERO says that the cup
square, the t^2 coefficient, vanishes on every basis triple.  COBOUNDARY
is not enough: f_t then extends to order t^2 after a correction term,
but f_t itself fails the Jacobi identity.

At even rank each class is represented by psi = omega (x) z: omega is the
scalar 2-form sum (E_-g ^ E_-d)* over the root pairs g + d = mu, and z a
central value.  Since [x, z] = 0, d psi = (d omega) (x) z, so either every
central z gives a cocycle or none does.  build_even_cocycle tries the
paper's value H_(l-1) + H_(l-3) + ... + H_1 first, then the rest of the
centre's span, and keeps the first psi outside B^2 (is_coboundary).  A
non-cocycle is outside too, and obstruction_verdict's d psi = 0 on the psi
kept speaks for every z, so every class is shown nonzero in H^2.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .algebra import (
    LieAlgebra,
    Weight,
    _term_tables,
    center,
    chevalley_rank,
    expected_center_generators,
    jacobiator,
    odd_coords,
)
from .cohomology import (
    Cochain,
    cochain_weight,
    find_graded_isomorphism,
    h2_survey_rows,
    intertwines,
    is_coboundary,
    require_cocycle,
    signed_cyclic_shift,
)
from .gf2 import PivotBasis, bit_indices

if TYPE_CHECKING:
    from .exterior import QuotientModel

VERDICT_ZERO = "ZERO"
VERDICT_COBOUNDARY = "COBOUNDARY"
VERDICT_NONTRIVIAL = "NONTRIVIAL"


# -- cup square ---------------------------------------------------------


def cup_square(L: LieAlgebra, psi: Cochain) -> Cochain:
    """The cyclic composition of psi with itself, over all basis triples."""
    if psi.degree != 2:
        raise ValueError("cup square needs a degree-2 cochain")
    if psi.dim != L.dim:
        raise ValueError(f"cochain of dimension {psi.dim} on an algebra of dimension {L.dim}")
    return Cochain(3, L.dim, jacobiator(_term_tables(psi.data, L.dim), L.dim))


# -- verdicts -----------------------------------------------------------


class ObstructionReport(NamedTuple):
    """Cup-square verdict for one cohomology class."""

    weight: Weight | None
    verdict: str
    representative: Cochain
    obstruction_weight: Weight | None = None
    witness_key: tuple | None = None
    witness_value_support: tuple | None = None
    central_valued: bool | None = None
    vanishes_on_center: bool | None = None

    def to_json_dict(self) -> dict:
        def listed(x):
            return list(x) if x else None

        return {
            "weight": listed(self.weight),
            "verdict": self.verdict,
            "obstruction_weight": listed(self.obstruction_weight),
            "witness_triple": listed(self.witness_key),
            "witness_value_support": listed(self.witness_value_support),
            "central_valued": self.central_valued,
            "vanishes_on_center": self.vanishes_on_center,
        }


def obstruction_verdict(L: LieAlgebra, psi: Cochain) -> ObstructionReport:
    """ZERO / COBOUNDARY / NONTRIVIAL for psi's cup square; raises unless d psi = 0, the scans' one cocycle check."""
    cup = cup_square(L, psi)  # first, so that it rejects a cochain of another degree
    require_cocycle(L, psi)
    return _cup_verdict(L, psi, cup)


def _cup_verdict(L: LieAlgebra, psi: Cochain, cup: Cochain) -> ObstructionReport:
    """obstruction_verdict for a psi already known to be a cocycle, with its cup square."""
    w = cochain_weight(L, psi)
    if cup.is_zero():
        return ObstructionReport(w, VERDICT_ZERO, psi)
    # psi(psi(b_i, b_j), b_k) has weight w_i + w_j + w_k + 2w: the cup square's weight is 2w.
    ow = tuple(2 * c for c in w)
    if is_coboundary(L, cup):
        return ObstructionReport(w, VERDICT_COBOUNDARY, psi, obstruction_weight=ow)
    key, val = min(cup.data.items())
    return ObstructionReport(
        w,
        VERDICT_NONTRIVIAL,
        psi,
        obstruction_weight=ow,
        witness_key=key,
        witness_value_support=tuple(bit_indices(val)),
    )


# -- centre interaction -------------------------------------------------


def central_valued(L: LieAlgebra, psi: Cochain) -> bool:
    """Every value of psi on basis pairs lies in the centre."""
    Z = PivotBasis(center(L))
    return all(Z.contains(v) for v in psi.data.values())


def vanishes_on_center(L: LieAlgebra, psi: Cochain) -> bool:
    """psi(z, x) = 0 for every central z and every basis vector x.

    This one-sided form is stronger than vanishing on central pairs and
    is what the cup-square argument actually consumes; for the
    weight-homogeneous representatives used here it holds because
    central elements sit in weight 0.

    psi(z, b_x) is the sum of psi(b_i, b_x) over the basis vectors b_i
    of the centre row z.  psi's term tables list each b_m in psi(b_i, b_x)
    as the coordinate ((x,), m) in codes[i], so the check is a parity:
    over the codes rows of z's basis vectors, no coordinate may occur an
    odd number of times.
    """
    if psi.degree != 2:
        raise ValueError("vanishes_on_center needs a degree-2 cochain")
    codes = _term_tables(psi.data, L.dim)[0]
    return not any(odd_coords([t for i in bit_indices(z) for t in codes[i]], L.dim, 1) for z in center(L))


# -- distinguished even-rank cocycles ------------------------------------


def build_even_cocycle(L: LieAlgebra, mu: Weight | None = None) -> Cochain:
    """psi = sum (E_-g ^ E_-d)* (x) z over the root pairs g + d = mu, for
    the first central z that makes psi a nontrivial class.

    mu defaults to the paper's weight alpha_l + alpha_(l-1) = 2 eps_(l-1).  z runs over
    H_(l-1) + H_(l-3) + ... + H_3 + H_1 first, then the rest of the
    centre's span in canonical order; the module docstring says why one
    cocycle check covers every z.
    """
    l = chevalley_rank(L)
    if l % 2 or l < 4:
        raise ValueError("this cocycle family lives at even rank >= 4")
    if mu is None:
        mu = tuple(2 * (k == l - 2) for k in range(l))
    # E_-g ^ E_-d has weight -mu; a pair with a weight-0 index is no root pair.
    codes = L.weight_codes
    keys = [(i, j) for i, j in L.weight_sums(2).get(L.weight_code(tuple(-c for c in mu)), ()) if codes[i] and codes[j]]
    if not keys:
        raise ValueError(f"no root pairs add up to {mu}")
    span = [0]
    for row in center(L):
        span += [s ^ row for s in span]
    paper = expected_center_generators(l)[1]
    for z in sorted(span[1:], key=lambda z: z != paper):
        psi = Cochain(2, L.dim, dict.fromkeys(keys, z))
        if not is_coboundary(L, psi):
            return psi
    raise ValueError(f"no central value gives a nontrivial class at weight {mu}")


# -- the two theorem scans ------------------------------------------------


def rigidity_scan(model: QuotientModel) -> list[ObstructionReport]:
    """Verdict per basis class phi of the odd-rank model's H^2, in weight order.

    The classes judged are the 2l quadratic cocycles of the basis vectors of
    V, one per weight ±2 eps_i; each must come back NONTRIVIAL.  That they
    span H^2 and that their nonzero combinations are obstructed too, as
    rigidity needs, is not checked here.

    The survey's signed cyclic shift g(w) = (-w_l, w_1, .., w_(l-1))
    walks every class: -2 eps_1 -> .. -> -2 eps_l -> 2 eps_1 -> .. ->
    2 eps_l.  Only its theta is found (find_graded_isomorphism), not the
    survey's pair.  The first class goes through obstruction_verdict.  A
    later one whose phi is theta . phi_prev for the class before, that is
    theta phi_prev(x, y) = phi(theta x, theta y) on every basis pair
    (cohomology.intertwines), is a cocycle, since d(theta . c) =
    theta . d c and d phi_prev is 0; its cup square, weight and
    coboundary test still run.  Any other class, and every class when no
    theta is found, goes through obstruction_verdict.  A ValueError from
    building or judging a class is re-raised as ArithmeticError naming
    the class, the first in weight order when several fail;
    integrability_scan re-raises its own the same way.
    """
    from .exterior import phi

    l = model.l
    if l % 2 == 0:
        raise ValueError("rigidity scan applies at odd rank")
    if l < 5:
        raise ValueError("rigidity scan needs rank > 3")
    L = model.algebra
    theta = find_graded_isomorphism(L, L, signed_cyclic_shift)
    # The cocycle of e_(sign i) has weight 2 sign eps_i.
    ranks = range(1, l + 1)
    outcomes = {}
    cocycle = None  # the previous class, when its d phi = 0 is known
    for sign, i in [(sign, i) for sign in (-1, 1) for i in ranks]:
        label, w = sign * i, tuple(2 * sign * (k == i) for k in ranks)
        try:
            psi = phi(label, model)
            carried = cocycle is not None and intertwines(theta, cocycle.data, psi.data)
            outcomes[w] = label, _cup_verdict(L, psi, cup_square(L, psi)) if carried else obstruction_verdict(L, psi)
            cocycle = psi if theta else None
        except ValueError as exc:
            outcomes[w] = label, exc
            cocycle = None
    reports = []
    for w, (label, outcome) in sorted(outcomes.items()):
        if isinstance(outcome, ValueError):
            raise ArithmeticError(f"quadratic cocycle {label} at weight {w}: {outcome}") from outcome
        if outcome.weight != w:
            raise ArithmeticError(f"quadratic cocycle {label} has weight {outcome.weight}, expected {w}")
        reports.append(outcome)
    return reports


def integrability_scan(L: LieAlgebra) -> list[ObstructionReport]:
    """Verdict per second-cohomology class at even rank.

    Uses the central-valued generator at each weight and cross-checks
    the structural reason for integrability: central values plus
    vanishing on the centre force a vanishing cup square.  It judges one
    class per weight, so a weight with dim H^2 other than 1 is reported
    as a discrepancy naming that weight.
    """
    l = chevalley_rank(L)
    if l % 2 or l < 4:
        raise ValueError("integrability scan applies at even rank >= 4")
    reports = []
    for row in h2_survey_rows(L):
        mu = row["weight"]
        try:
            if row["dim_h2"] != 1:
                raise ValueError(f"dim H^2 is {row['dim_h2']}, but the scan judges one class per weight")
            psi = build_even_cocycle(L, mu)
            report = obstruction_verdict(L, psi)
        except ValueError as exc:
            raise ArithmeticError(f"weight {mu}: {exc}") from exc
        cv, vc = central_valued(L, psi), vanishes_on_center(L, psi)
        if cv and vc and report.verdict != VERDICT_ZERO:
            raise ArithmeticError(
                f"weight {mu}: central values with vanishing on the centre"
                f" must kill the cup square, got {report.verdict}"
            )
        reports.append(report._replace(central_valued=cv, vanishes_on_center=vc))
    return reports


def scan_to_json(l: int, kind: str, reports: list[ObstructionReport]) -> dict:
    return {
        "l": l,
        "parity": "odd" if l % 2 else "even",
        "kind": kind,
        "classes": [r.to_json_dict() for r in reports],
        "verdicts": sorted({r.verdict for r in reports}),
    }
