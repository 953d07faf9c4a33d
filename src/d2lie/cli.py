"""Command-line front end; --help prints DESCRIPTION, with the exit codes.

Each command returns its report and verdict; main writes the report to
--out with the verdict as "pass" and turns the verdict into the exit
code, so a discrepancy is reported, never silently reconciled.

integrability passes a class's deformation on check_jacobi, run once per
command, and the class's ZERO verdict; the deformation module says why.

Each command runs in a fresh process, mostly start-up at the checked
ranks, so deformation and exterior are imported inside the commands that
run them: rigidity loads both, integrability deformation, and verify and
cohomology exterior only under --model exterior.  build_chevalley_D and
h2_survey_rows stay module-level: the tests and the benchmark's tracing
look them up on this module.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

from .algebra import (
    build_chevalley_D,
    center,
    check_jacobi,
    check_weight_additivity,
    expected_center_generators,
    format_label,
)
from .cohomology import h2_survey_rows
from .gf2 import GF2Matrix, bit_indices
from .roots import express_in_simple_roots, wzero

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DISCREPANCY = 2

DEFAULT_L_CAP = 10
DESCRIPTION = (
    "Exact GF(2) checks of D_l in characteristic 2. Subcommands: verify,"
    " cohomology, rigidity, integrability. Exit codes: 0 = expected structure"
    " reproduced, 1 = usage error, 2 = mathematical discrepancy."
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # Usage problems exit 1; code 2 is reserved for mathematical findings.
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="d2lie", description=DESCRIPTION)
    sub = p.add_subparsers(dest="command", required=True)
    # rigidity always runs on the wedge-square model and integrability on
    # the Chevalley algebra, so only verify and cohomology take --model.
    for name, fn, has_model in (
        ("verify", cmd_verify, True),
        ("cohomology", cmd_cohomology, True),
        ("rigidity", cmd_rigidity, False),
        ("integrability", cmd_integrability, False),
    ):
        sp = sub.add_parser(name)
        sp.add_argument("--l", type=int, required=True, help="rank (3..max-l)")
        if has_model:
            sp.add_argument(
                "--model",
                choices=("chevalley", "exterior"),
                default="chevalley",
                help="chevalley: structure-constant algebra; exterior: wedge-square model (odd rank)",
            )
        sp.add_argument("--out", default=None, help="write a JSON report here")
        sp.add_argument(
            "--max-l",
            type=int,
            default=DEFAULT_L_CAP,
            help=f"raise the rank cap past {DEFAULT_L_CAP} (expect long runtimes)",
        )
        sp.set_defaults(func=fn)
    return p


def _validate(args) -> None:
    if args.l < 3:
        raise UsageError(f"rank must be at least 3, got {args.l}")
    if args.l > args.max_l:
        raise UsageError(
            f"rank {args.l} above the cap {args.max_l}; pass --max-l to override"
        )
    if args.l > DEFAULT_L_CAP:
        print(
            f"warning: rank {args.l} exceeds the default cap; runtimes grow steeply",
            file=sys.stderr,
        )
    if getattr(args, "model", None) == "exterior" and args.l % 2 == 0:
        raise UsageError("the exterior model exists only at odd rank")
    if args.command == "rigidity" and (args.l % 2 == 0 or args.l < 5):
        raise UsageError("rigidity applies at odd rank >= 5")
    if args.command == "integrability" and args.l % 2:
        raise UsageError("integrability applies at even rank")
    if args.out == "":
        raise UsageError("--out needs a file name")
    if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
        raise UsageError(f"no directory for --out {args.out}")
    if args.out and os.path.isdir(args.out):
        raise UsageError(f"--out {args.out} is a directory, not a file")


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def _build(args):
    if args.model == "exterior":
        from .exterior import build_quotient_model

        return build_quotient_model(args.l).algebra
    return build_chevalley_D(args.l)


def _weight_row(w) -> dict:
    coeffs = express_in_simple_roots(w)
    return {
        "eps_coords": list(w),
        "simple_root_coords": list(coeffs) if coeffs is not None else None,
    }


def cmd_verify(args) -> tuple[dict, bool]:
    L = _build(args)
    jr = check_jacobi(L)
    additive = check_weight_additivity(L)
    Z = center(L)
    gens = [
        "+".join(format_label(L.labels[i]) for i in bit_indices(r))
        for r in Z.rows
    ]
    print(f"dim {L.dim}")
    print(f"jacobi {'PASS' if jr.ok else f'FAIL at {jr.triple}'}")
    print(f"weight additivity {'PASS' if additive else 'FAIL'}")
    print(f"centre dim {Z.nrows}" + (f": {{{', '.join(gens)}}}" if gens else ""))

    ok = jr.ok and additive
    if args.model == "chevalley":
        rows = expected_center_generators(args.l)
        if Z != GF2Matrix(len(rows), L.dim, rows).row_reduce():
            print("centre differs from the expected generators", file=sys.stderr)
            ok = False
    elif Z.nrows:
        print("exterior model should be centreless", file=sys.stderr)
        ok = False
    return {
        "command": "verify",
        "l": args.l,
        "model": args.model,
        "dim": L.dim,
        "jacobi": jr.ok,
        "weight_additivity": additive,
        "centre_dim": Z.nrows,
        "centre_generators": gens,
    }, ok


def cmd_cohomology(args) -> tuple[dict, bool]:
    L = _build(args)
    rows = h2_survey_rows(L)
    total = sum(r["dim_h2"] for r in rows)
    h2_zero = next((r["dim_h2"] for r in rows if r["weight"] == wzero(args.l)), 0)
    print(f"dim H^2 = {total} over {len(rows)} weights; at weight 0: {h2_zero}")
    weight_rows = []
    for r in rows:
        row = _weight_row(r["weight"]) | {k: r[k] for k in ("dim_c2", "dim_z2", "dim_b2", "dim_h2")}
        coords = row["simple_root_coords"] or "?"
        print(f"  weight {row['eps_coords']} ~ simple-root coords {coords} : dim {r['dim_h2']}")
        weight_rows.append(row)

    # The claim for the exterior model at odd l > 3 and for D_l at even l is
    # one class at each weight ±2 eps_i, plus at D_4 one at each
    # (±1, ±1, ±1, ±1): 2l classes, or 24 at D_4.  Rank 3 and odd-rank D_l
    # have no claim, so only H^2_0 = 0 decides them.
    want = {}
    if args.l >= 4 and (args.model == "exterior" or args.l % 2 == 0):
        want = {tuple(s if k == i else 0 for k in range(args.l)): 1
                for i in range(args.l) for s in (2, -2)}
        if args.l == 4:
            want.update(dict.fromkeys(itertools.product((1, -1), repeat=4), 1))
    expected = sum(want.values()) or None
    got = {r["weight"]: r["dim_h2"] for r in rows}
    differing = sorted(w for w in want.keys() | got.keys() if want.get(w, 0) != got.get(w, 0)) if want else []
    for w in differing:
        dims = f"expected dim {want.get(w, 0)}, computed {got.get(w, 0)}"
        print(f"weight {list(w)}: {dims}", file=sys.stderr)
    ok = h2_zero == 0 and not differing and (expected is None or total == expected)
    if expected is not None and total != expected:
        print(f"expected total {expected}, computed {total}", file=sys.stderr)
    return {
        "command": "cohomology",
        "l": args.l,
        "model": args.model,
        "total_dim_h2": total,
        "dim_h2_at_zero": h2_zero,
        "expected_total": expected,
        "weights": weight_rows,
    }, ok


def cmd_rigidity(args) -> tuple[dict, bool]:
    from .deformation import VERDICT_NONTRIVIAL, rigidity_scan, scan_to_json
    from .exterior import build_quotient_model

    model = build_quotient_model(args.l)
    reports = rigidity_scan(model)
    ok = bool(reports) and all(r.verdict == VERDICT_NONTRIVIAL for r in reports)
    for r in reports:
        print(f"  weight {list(r.weight)}: {r.verdict}")
    print(
        f"{len(reports)} classes; "
        + ("all obstructed: rigid" if ok else "unobstructed classes found")
    )
    return scan_to_json(args.l, "rigidity", reports), ok


def cmd_integrability(args) -> tuple[dict, bool]:
    from .deformation import VERDICT_ZERO, integrability_scan, scan_to_json

    L = build_chevalley_D(args.l)
    jacobi = check_jacobi(L).ok
    reports = integrability_scan(L)
    deformed = [jacobi and r.verdict == VERDICT_ZERO for r in reports]
    for r, passed in zip(reports, deformed):
        print(
            f"  weight {list(r.weight)}: {r.verdict}"
            f" deformation {'PASS' if passed else 'FAIL'}"
        )
    deform_ok = all(deformed)
    ok = bool(reports) and deform_ok
    print(
        f"{len(reports)} classes; "
        + ("all integrable" if ok else "obstructions or deformation failures found")
    )
    doc = scan_to_json(args.l, "integrability", reports)
    doc["deformations_verified"] = deform_ok
    return doc, ok


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _validate(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        doc, ok = args.func(args)
    except ArithmeticError as exc:
        print(f"discrepancy: {exc}", file=sys.stderr)
        return EXIT_DISCREPANCY
    if args.out:
        _write_json(args.out, {**doc, "pass": ok})
    return EXIT_OK if ok else EXIT_DISCREPANCY


if __name__ == "__main__":
    sys.exit(main())
