"""Workloads, metrics and the layer map of the d2lie benchmark.

Inputs are fixed CLI commands, so the workload seed only permutes the
order in which a pass runs them.  Each command writes an ``--out``
report that is compared byte for byte with ``reference/<name>.json``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Command:
    name: str  # also the stem of the reference report
    argv: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple[Command, ...]
    builds: tuple[tuple[str, int], ...]  # ("chevalley" | "exterior", rank) for setup_s


# Ranks are chosen so that one pass takes a few seconds and a run holds
# several passes: single passes of the D_6 / rank-9 commands take 20-34 s
# each and vary too much on a small shared host.  For the same reason the
# survey and the even-rank deformation work share one workload, which
# leaves room in the time budget for longer runs.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "survey-integrability",
            "H^2 surveys of D_5, the rank-5 model and D_4 plus the D_4 central-value search and "
            "deformation check; survey and deformation changes show here, and trade-offs too",
            (
                Command("cohomology_l5", ("cohomology", "--l", "5")),
                Command("cohomology_exterior_l5", ("cohomology", "--model", "exterior", "--l", "5")),
                Command("verify_l4", ("verify", "--l", "4")),
                Command("integrability_l4", ("integrability", "--l", "4")),
            ),
            (("chevalley", 5), ("exterior", 5), ("chevalley", 4)),
        ),
        Workload(
            "odd-rigidity",
            "cohomology solve path: is_coboundary on degree-3 blocks of the rank-7 model; "
            "never runs the survey or the deformation check, so changes there must leave it unchanged",
            (
                Command("verify_exterior_l7", ("verify", "--model", "exterior", "--l", "7")),
                Command("rigidity_l7", ("rigidity", "--l", "7")),
            ),
            (("exterior", 7),),
        ),
    )
}

# name -> unit, measured with tracing off (see run.py).  The failed ratio
# is carried by the result's "failed" / "attempted" counts rather than by
# a metric, because it is 0 when all is well and metrics must be nonzero.
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass(frozen=True)
class Layer:
    metric: str
    calls: tuple[tuple[str, str], ...]  # (module, public function) spanned under `span`
    moves: str  # the end-to-end metric this layer should move
    on: str  # the workloads where it runs

    @property
    def span(self) -> str:
        return self.metric.removesuffix("_s")


# Timed layers: self time, in seconds, of the spans around these calls.
# A function is spanned wherever a d2lie module binds it, so calls made
# inside the library (is_coboundary inside build_even_cocycle, centre
# inside the centre checks) land in their own layer.
LAYERS = (
    Layer("algebra.build_s", (("d2lie.algebra", "build_chevalley_D"),), "setup_s", "all"),
    Layer("exterior.build_s", (("d2lie.exterior", "build_quotient_model"),), "setup_s", "all"),
    Layer("algebra.jacobi_s", (("d2lie.algebra", "check_jacobi"),), "wall_s",
          "odd-rigidity, survey-integrability (small share)"),
    Layer("algebra.center_s", (("d2lie.algebra", "center"),), "wall_s",
          "odd-rigidity, survey-integrability (small share)"),
    Layer("cohomology.survey_s", (("d2lie.cohomology", "h2_survey_rows"),), "wall_s",
          "survey-integrability (most of the time)"),
    Layer("cohomology.h2_zero_s", (("d2lie.cohomology", "cohomology_dim"),), "wall_s",
          "survey-integrability"),
    Layer("cohomology.coboundary_s", (("d2lie.cohomology", "is_coboundary"),), "wall_s",
          "odd-rigidity (most of the time), survey-integrability (small share)"),
    Layer("cohomology.differential_s", (("d2lie.cohomology", "differential"),), "wall_s",
          "odd-rigidity, survey-integrability"),
    Layer("exterior.phi_s", (("d2lie.exterior", "phi"),), "wall_s", "odd-rigidity"),
    Layer("deformation.cup_square_s", (("d2lie.deformation", "cup_square"),), "wall_s",
          "odd-rigidity, survey-integrability"),
    Layer("deformation.even_cocycle_s", (("d2lie.deformation", "build_even_cocycle"),), "wall_s",
          "survey-integrability"),
    Layer("deformation.center_checks_s",
          (("d2lie.deformation", "central_valued"), ("d2lie.deformation", "vanishes_on_center")),
          "wall_s", "survey-integrability"),
    Layer("deformation.verify_s", (("d2lie.deformation", "verify_deformation"),), "wall_s",
          "survey-integrability"),
    # Probe, outside the command spans: weight_block and GF2Matrix.rank on
    # each H^2-carrying block of every survey the workload ran.
    Layer("cohomology.weight_block_s", (), "wall_s once the survey uses the dense block API",
          "survey-integrability"),
    Layer("gf2.rank_s", (), "wall_s once the survey uses the dense block API",
          "survey-integrability"),
)

# Metrics derived from the command spans and from the inputs, not from a
# single layer call: name -> (unit, better, moves, on).
DERIVED = {
    "cli.other_s": ("s", "lower", "wall_s", "all: self time of each command span"),
    "cohomology.coboundary_calls": ("count", "lower", "wall_s", "odd-rigidity, survey-integrability"),
    "deformation.triples": ("count", "lower", "wall_s", "survey-integrability"),
    "deformation.classes": ("count", "higher", "-", "odd-rigidity, survey-integrability"),
    "cohomology.c2_blocks": ("count", "lower", "peak_rss_mb, wall_s", "survey-integrability"),
    "cohomology.h2_blocks": ("count", "higher", "-", "survey-integrability"),
    "cohomology.h2_block_ratio": ("ratio", "higher", "wall_s", "survey-integrability"),
    "cohomology.max_c2_block": ("count", "lower", "peak_rss_mb, wall_s", "survey-integrability"),
}


def per_layer_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name -> (unit, better)."""
    out = {layer.metric: ("s", "lower") for layer in LAYERS}
    out.update({name: (unit, better) for name, (unit, better, _, _) in DERIVED.items()})
    return out
