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

Alternation needs no check: LieAlgebra stores [b_i, b_j] only for
i < j and Cochain keys are index sets, so both vanish on every (b_i, b_i)
and are symmetric in their arguments.  In characteristic 2 that makes
f_t alternating on all of K[t]^dim, since for x = sum a_i b_i

    f(x, x) = sum a_i^2 f(b_i, b_i) + sum_{i<j} a_i a_j (f(b_i, b_j) + f(b_j, b_i)).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .algebra import (
    LieAlgebra,
    bracket_jacobiator,
    center,
    chevalley_rank,
    jacobiator,
)
from .cohomology import (
    Cochain,
    cochain_weight,
    differential,
    h2_weight_survey,
    is_coboundary,
)
from .gf2 import bit_indices
from .roots import Weight, build_root_system, wadd, wneg, wsub

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
    return Cochain(3, L.dim, jacobiator(psi.data))


# -- verdicts -----------------------------------------------------------


class ObstructionReport(NamedTuple):
    """Cup-square verdict for one cohomology class."""

    weight: Weight | None
    verdict: str
    representative: Cochain
    obstruction_weight: Weight | None = None
    witness_key: tuple | None = None
    witness_value_support: tuple | None = None
    preimage: Cochain | None = None
    central_valued: bool | None = None
    vanishes_on_center: bool | None = None

    def to_json_dict(self) -> dict:
        return {
            "weight": list(self.weight) if self.weight else None,
            "verdict": self.verdict,
            "obstruction_weight": (
                list(self.obstruction_weight) if self.obstruction_weight else None
            ),
            "witness_triple": list(self.witness_key) if self.witness_key else None,
            "witness_value_support": (
                list(self.witness_value_support)
                if self.witness_value_support
                else None
            ),
            "central_valued": self.central_valued,
            "vanishes_on_center": self.vanishes_on_center,
        }


def obstruction_verdict(L: LieAlgebra, psi: Cochain) -> ObstructionReport:
    """ZERO / COBOUNDARY / NONTRIVIAL for the cup square of a cocycle."""
    if dpsi := differential(L, psi).data:
        t = min(dpsi)
        raise ValueError(f"not a cocycle: d psi at the basis triple {t} is {tuple(bit_indices(dpsi[t]))}")
    w = cochain_weight(L, psi)
    cup = cup_square(L, psi)
    if cup.is_zero():
        return ObstructionReport(w, VERDICT_ZERO, psi)
    ow = cochain_weight(L, cup)
    trivial, pre = is_coboundary(L, cup)
    if trivial:
        return ObstructionReport(
            w, VERDICT_COBOUNDARY, psi, obstruction_weight=ow, preimage=pre
        )
    key, val = cup.items_sorted()[0]
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
    Z = center(L)
    return all(Z.contains(v) for v in psi.data.values())


def vanishes_on_center(L: LieAlgebra, psi: Cochain) -> bool:
    """psi(z, x) = 0 for every central z and every basis vector x.

    This one-sided form is stronger than vanishing on central pairs and
    is what the cup-square argument actually consumes; for the
    weight-homogeneous representatives used here it holds because
    central elements sit in weight 0.
    """
    for z in center(L).basis.rows:
        for x in range(L.dim):
            if psi.eval_vec_basis(z, x):
                return False
    return True


# -- distinguished even-rank cocycles ------------------------------------


def build_even_cocycle(L: LieAlgebra, mu: Weight | None = None) -> Cochain:
    """Sum of dual-basis cochains over root pairs adding to mu, valued in
    a fixed central element.

    At the default weight alpha_l + alpha_(l-1) the value is
    H_(l-1) + H_(l-3) + ... + H_3 + H_1.  At the other supported
    weights the central value is the first (in canonical order) that
    yields a nontrivial cocycle; such a value exists because the
    default translates along the Weyl group.
    """
    l = chevalley_rank(L)
    if l % 2 or l < 4:
        raise ValueError("this cocycle family lives at even rank >= 4")
    system = build_root_system(l)
    quoted = wadd(system.simple[l - 1], system.simple[l - 2])
    if mu is None:
        mu = quoted
    pairs = [
        (g, wsub(mu, g))
        for g in system.roots
        if wsub(mu, g) in system.root_set and g < wsub(mu, g)
    ]
    if not pairs:
        raise ValueError(f"no root pairs add up to {mu}")
    keys = []
    for g, d in pairs:
        ig = L.labels.index(("ROOTVEC", wneg(g)))
        jd = L.labels.index(("ROOTVEC", wneg(d)))
        keys.append((ig, jd) if ig < jd else (jd, ig))

    def assemble(z: int) -> Cochain:
        return Cochain(2, L.dim, {key: z for key in keys})

    if mu == quoted:
        z = 0
        for i in range(0, l - 1, 2):
            z |= 1 << i
        psi = assemble(z)
        if not differential(L, psi).is_zero():
            raise ArithmeticError("the distinguished cocycle failed d psi = 0")
        return psi

    zmat = center(L).canonical()
    for mask in range(1, 1 << zmat.nrows):
        z = 0
        for r in bit_indices(mask):
            z ^= zmat.rows[r]
        psi = assemble(z)
        if not differential(L, psi).is_zero():
            continue
        trivial, _ = is_coboundary(L, psi)
        if not trivial:
            return psi
    raise ValueError(f"no central-valued generator found at weight {mu}")


# -- the deformed bracket ----------------------------------------------


class DeformedAlgebra(NamedTuple):
    """Bracket family f_t(x, y) = [x, y] + t psi(x, y) over K[t]; verify_deformation checks it."""

    base: LieAlgebra
    cochain: Cochain


class DeformationReport(NamedTuple):
    ok: bool
    base_ok: bool          # t^0 coefficient: Jacobi of the original bracket
    t1_ok: bool            # t coefficient: d psi
    t2_ok: bool            # t^2 coefficient: psi u psi
    failing_triple: tuple | None = None
    failing_power: int | None = None
    failing_value: int = 0


def verify_deformation(D: DeformedAlgebra) -> DeformationReport:
    """The Jacobi identity of f_t, one power of t at a time.

    f_t is alternating by construction (see the module docstring), so
    the t^0, t and t^2 coefficients of its Jacobi sum, the Jacobi
    identity of the base, d psi and the cup square, are the whole check.
    A failure names the lex-first failing basis triple, the lowest
    failing power there and that power's value.
    """
    L, psi = D.base, D.cochain
    coefficients = (
        bracket_jacobiator(L),
        differential(L, psi).data,
        cup_square(L, psi).data,
    )
    base_ok, t1_ok, t2_ok = (not c for c in coefficients)
    failures = [(min(c), power) for power, c in enumerate(coefficients) if c]
    triple, power = min(failures, default=(None, None))
    value = coefficients[power][triple] if failures else 0
    return DeformationReport(not failures, base_ok, t1_ok, t2_ok, triple, power, value)


# -- the two theorem scans ------------------------------------------------


def rigidity_scan(model: QuotientModel) -> list[ObstructionReport]:
    """Verdict per second-cohomology class of the odd-rank model.

    Every class is represented by the quadratic cocycle of a basis
    vector of V, one per weight ±2 eps_i; the algebra is rigid iff all
    verdicts come back NONTRIVIAL.  Each weight is checked directly
    rather than transported by symmetry.  Both scans re-raise a verdict's
    ValueError on their own cocycles as ArithmeticError naming the class.
    """
    from .exterior import phi

    l = model.l
    if l % 2 == 0:
        raise ValueError("rigidity scan applies at odd rank")
    if l < 5:
        raise ValueError("rigidity scan needs rank > 3")
    items = []
    for i in range(1, l + 1):
        for sign in (1, -1):
            w = [0] * l
            w[i - 1] = 2 * sign
            items.append((tuple(w), sign * i))
    items.sort()
    reports = []
    for w, label in items:
        try:
            report = obstruction_verdict(model.algebra, phi(label, model))
        except ValueError as exc:
            raise ArithmeticError(f"quadratic cocycle {label} at weight {w}: {exc}") from exc
        if report.weight != w:
            raise ArithmeticError(
                f"quadratic cocycle {label} has weight {report.weight}, expected {w}"
            )
        reports.append(report)
    return reports


def integrability_scan(L: LieAlgebra) -> list[ObstructionReport]:
    """Verdict per second-cohomology class at even rank.

    Uses the central-valued generator at each weight and cross-checks
    the structural reason for integrability: central values plus
    vanishing on the centre force a vanishing cup square.
    """
    l = chevalley_rank(L)
    if l % 2 or l < 4:
        raise ValueError("integrability scan applies at even rank >= 4")
    reports = []
    for mu in sorted(h2_weight_survey(L)):
        psi = build_even_cocycle(L, mu)
        cv = central_valued(L, psi)
        vc = vanishes_on_center(L, psi)
        try:
            report = obstruction_verdict(L, psi)._replace(central_valued=cv, vanishes_on_center=vc)
        except ValueError as exc:
            raise ArithmeticError(f"weight {mu}: {exc}") from exc
        if cv and vc and report.verdict != VERDICT_ZERO:
            raise ArithmeticError(
                f"weight {mu}: central values with vanishing on the centre"
                f" must kill the cup square, got {report.verdict}"
            )
        reports.append(report)
    return reports


def scan_to_json(l: int, kind: str, reports: list[ObstructionReport]) -> dict:
    return {
        "l": l,
        "parity": "odd" if l % 2 else "even",
        "kind": kind,
        "classes": [r.to_json_dict() for r in reports],
        "verdicts": sorted({r.verdict for r in reports}),
    }
