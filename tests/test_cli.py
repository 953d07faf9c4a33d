import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from oracles import h2_weight_survey

import d2lie.cli
import d2lie.deformation
import d2lie.exterior
from d2lie.algebra import build_chevalley_D
from d2lie.cli import EXIT_DISCREPANCY, EXIT_OK, EXIT_USAGE, main
from d2lie.cohomology import Cochain, differential

GOLDEN = Path(__file__).parent / "golden"
BENCH_REFERENCE = Path(__file__).parent.parent / "bench" / "reference"


def test_verify_l5_reports_centre(capsys):
    assert main(["verify", "--l", "5"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "dim 45" in out
    assert "centre dim 1" in out
    assert "H4+H5" in out


def test_verify_l4_two_dimensional_centre(capsys):
    assert main(["verify", "--l", "4"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "centre dim 2" in out


def test_verify_exterior_model(capsys):
    assert main(["verify", "--l", "5", "--model", "exterior"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "dim 44" in out
    assert "centre dim 0" in out


def test_verify_compares_the_centre_by_span(monkeypatch, capsys):
    # Another span is a discrepancy, even of the same dimension; another
    # basis of the same span is not.
    a, b = d2lie.cli.expected_center_generators(4)
    for other in ([a], [a, b ^ 1 << 4]):
        monkeypatch.setattr("d2lie.cli.expected_center_generators", lambda l, other=other: other)
        assert main(["verify", "--l", "4"]) == EXIT_DISCREPANCY
        assert "centre differs from the expected generators" in capsys.readouterr().err
    monkeypatch.setattr("d2lie.cli.expected_center_generators", lambda l: [a, a ^ b])
    assert main(["verify", "--l", "4"]) == EXIT_OK
    assert capsys.readouterr().err == ""


def test_verify_exterior_with_a_centre_exits_2(monkeypatch, tmp_path, capsys):
    # cli imports exterior when the command runs, so the patch goes on the
    # module that defines the build.
    def centred(l):
        return SimpleNamespace(algebra=build_chevalley_D(l))

    monkeypatch.setattr("d2lie.exterior.build_quotient_model", centred)
    out = tmp_path / "report.json"
    assert main(["verify", "--model", "exterior", "--l", "5", "--out", str(out)]) == EXIT_DISCREPANCY
    captured = capsys.readouterr()
    assert "centre dim 1" in captured.out
    assert "exterior model should be centreless" in captured.err
    doc = json.loads(out.read_text())
    assert (doc["centre_dim"], doc["pass"]) == (1, False)


def test_usage_error_small_rank(capsys):
    assert main(["verify", "--l", "2"]) == EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_usage_error_parity_guards(capsys):
    assert main(["rigidity", "--l", "4"]) == EXIT_USAGE
    assert main(["integrability", "--l", "5"]) == EXIT_USAGE
    assert main(["cohomology", "--l", "4", "--model", "exterior"]) == EXIT_USAGE
    capsys.readouterr()


def test_usage_error_rank_cap(capsys):
    assert main(["verify", "--l", "11"]) == EXIT_USAGE
    assert "--max-l" in capsys.readouterr().err


def test_usage_error_unknown_command(tmp_path, capsys):
    assert main(["frobnicate", "--l", "4"]) == EXIT_USAGE
    assert main(["cohomology", "--l", "4", "--jobs", "3"]) == EXIT_USAGE
    missing = tmp_path / "missing" / "report.json"
    assert main(["cohomology", "--l", "4", "--out", str(missing)]) == EXIT_USAGE
    assert "--out" in capsys.readouterr().err


def test_usage_error_out_is_a_directory(tmp_path, monkeypatch, capsys):
    def no_work(l):
        raise RuntimeError("the algebra was built before --out was checked")

    monkeypatch.setattr("d2lie.cli.build_chevalley_D", no_work)
    assert main(["verify", "--l", "4", "--out", str(tmp_path)]) == EXIT_USAGE
    assert "is a directory" in capsys.readouterr().err


def test_usage_error_empty_out(tmp_path, monkeypatch, capsys):
    # An empty --out names no file; it is refused before any work, not
    # taken for a run without --out.
    def no_work(l):
        raise RuntimeError("the algebra was built before --out was checked")

    monkeypatch.setattr("d2lie.cli.build_chevalley_D", no_work)
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "--l", "4", "--out", ""]) == EXIT_USAGE
    assert "--out" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_exterior_rank_3_has_no_expected_total(tmp_path, capsys):
    # The 2l count is the claim for odd l > 3; at rank 3 only H^2_0 = 0 is checked.
    out = tmp_path / "report.json"
    assert main(["cohomology", "--model", "exterior", "--l", "3", "--out", str(out)]) == EXIT_OK
    assert "expected total" not in capsys.readouterr().err
    doc = json.loads(out.read_text())
    assert doc["total_dim_h2"] == 20
    assert doc["expected_total"] is None
    assert doc["dim_h2_at_zero"] == 0
    assert doc["pass"] is True


def test_library_discrepancy_exits_2(monkeypatch, capsys):
    def contradiction(L):
        raise ArithmeticError("weight (0, 0, 2, 0): cup square survived")

    # cli imports deformation when the command runs, so the patch goes on
    # the module that defines the scan.
    monkeypatch.setattr("d2lie.deformation.integrability_scan", contradiction)
    assert main(["integrability", "--l", "4"]) == EXIT_DISCREPANCY
    assert "weight (0, 0, 2, 0): cup square survived" in capsys.readouterr().err


def test_scan_non_cocycle_exits_2(monkeypatch, model5, d4, capsys):
    # A scan's own cocycle failing d psi = 0 is a discrepancy, not a usage
    # error, and the message names the class and the lex-first failing triple.
    def broken(make):
        def build(*args):
            psi = make(*args)
            return psi + Cochain(2, psi.dim, {(0, 4): 1 << 5})

        return build

    rigidity_phi = broken(d2lie.exterior.phi)
    monkeypatch.setattr("d2lie.exterior.phi", rigidity_phi)
    # rigidity_scan checks the weight -2 eps_1 (label -1) first.
    triple = min(differential(model5.algebra, rigidity_phi(-1, model5)).data)
    assert main(["rigidity", "--l", "5"]) == EXIT_DISCREPANCY
    err = capsys.readouterr().err
    assert "quadratic cocycle -1 at weight (-2, 0, 0, 0, 0)" in err
    assert f"basis triple {triple}" in err

    even_cocycle = broken(d2lie.deformation.build_even_cocycle)
    monkeypatch.setattr("d2lie.deformation.build_even_cocycle", even_cocycle)
    mu = min(h2_weight_survey(d4))
    triple = min(differential(d4, even_cocycle(d4, mu)).data)
    assert main(["integrability", "--l", "4"]) == EXIT_DISCREPANCY
    err = capsys.readouterr().err
    assert f"weight {mu}: " in err
    assert f"basis triple {triple}" in err


def test_rigidity_names_the_first_class_that_is_no_cocycle(monkeypatch, model5, capsys):
    # Only the broken classes fail d phi = 0.  Their neighbours along the
    # walk are no transports of them, so each broken class is judged
    # directly; when several fail, the first in weight order is named
    # (weight order runs 2 eps_5 .. 2 eps_1, the walk 2 eps_1 .. 2 eps_5).
    phi = d2lie.exterior.phi
    extra = Cochain(2, model5.algebra.dim, {(0, 4): 1 << 5})
    for broken, named, w in (({3}, 3, "(0, 0, 2, 0, 0)"), ({2, 4}, 4, "(0, 0, 0, 2, 0)")):
        def built(label, model, broken=broken):
            return phi(label, model) + extra if label in broken else phi(label, model)

        monkeypatch.setattr("d2lie.exterior.phi", built)
        triple = min(differential(model5.algebra, built(named, model5)).data)
        assert main(["rigidity", "--l", "5"]) == EXIT_DISCREPANCY
        out, err = capsys.readouterr()
        assert err.startswith(f"discrepancy: quadratic cocycle {named} at weight {w}: not a cocycle")
        assert f"basis triple {triple}" in err
        assert "rigid" not in out


def test_rigidity_class_of_another_weight_exits_2(monkeypatch, capsys):
    # phi(-label) has the weight of phi(label) negated; rigidity_scan checks
    # the class at -2 eps_1 (label -1) first and must refuse its weight.
    phi = d2lie.exterior.phi
    monkeypatch.setattr("d2lie.exterior.phi", lambda label, model: phi(-label, model))
    assert main(["rigidity", "--l", "5"]) == EXIT_DISCREPANCY
    err = capsys.readouterr().err
    assert "quadratic cocycle -1 has weight (2, 0, 0, 0, 0), expected (-2, 0, 0, 0, 0)" in err


def test_integrability_unkilled_cup_square_of_a_central_twist_exits_2(monkeypatch, capsys):
    # Central values and vanishing on the centre force a ZERO verdict, so a
    # NONTRIVIAL one on such a class is the scan's own discrepancy, named
    # by the weight of the first class.
    verdict = d2lie.deformation.obstruction_verdict
    monkeypatch.setattr(
        "d2lie.deformation.obstruction_verdict",
        lambda L, psi: verdict(L, psi)._replace(verdict=d2lie.deformation.VERDICT_NONTRIVIAL),
    )
    L = build_chevalley_D(4)
    mu = d2lie.deformation.h2_survey_rows(L)[0]["weight"]
    psi = d2lie.deformation.build_even_cocycle(L, mu)
    assert d2lie.deformation.central_valued(L, psi) and d2lie.deformation.vanishes_on_center(L, psi)
    assert main(["integrability", "--l", "4"]) == EXIT_DISCREPANCY
    out, err = capsys.readouterr()
    assert f"weight {mu}: central values with vanishing on the centre must kill the cup square, got NONTRIVIAL" in err
    assert "all integrable" not in out


def test_integrability_without_a_nontrivial_central_value_exits_2(monkeypatch, capsys):
    # When no central value gives a nontrivial class, the scan reports the
    # weight as a discrepancy instead of raising out of main.
    monkeypatch.setattr("d2lie.deformation.is_coboundary", lambda L, c: True)
    assert main(["integrability", "--l", "4"]) == EXIT_DISCREPANCY
    assert "weight (-2, 0, 0, 0): no central value gives a nontrivial class" in capsys.readouterr().err


def test_integrability_with_two_classes_at_a_weight_exits_2(monkeypatch, capsys):
    # The scan judges one class per weight, so a survey row of dimension 2
    # would leave a class unjudged under "all integrable"; it is a
    # discrepancy that names the weight.
    survey = d2lie.deformation.h2_survey_rows
    mu = (0, 0, 2, 0)

    def doubled(L):
        return [{**r, "dim_h2": 2} if r["weight"] == mu else r for r in survey(L)]

    assert mu in [r["weight"] for r in survey(build_chevalley_D(4))]
    monkeypatch.setattr("d2lie.deformation.h2_survey_rows", doubled)
    assert main(["integrability", "--l", "4"]) == EXIT_DISCREPANCY
    out, err = capsys.readouterr()
    assert f"weight {mu}: dim H^2 is 2" in err
    assert "all integrable" not in out


def test_help_lists_exit_codes_without_code_notes():
    # The help text is a constant, so it survives python -OO, which drops docstrings.
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")}
    proc = subprocess.run(
        [sys.executable, "-OO", "-m", "d2lie.cli", "--help"], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    for code in ("0 = expected structure", "1 = usage error", "2 = mathematical discrepancy"):
        assert code in " ".join(proc.stdout.split())
    assert "build_chevalley_D" not in proc.stdout


def test_cohomology_json_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["cohomology", "--l", "4", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert doc["total_dim_h2"] == 24
    assert doc["expected_total"] == 24
    assert doc["dim_h2_at_zero"] == 0
    assert doc["pass"] is True
    assert len(doc["weights"]) == 24
    assert all(w["dim_h2"] == 1 for w in doc["weights"])
    assert out.read_bytes() == (GOLDEN / "cohomology_l4.json").read_bytes()


def test_cohomology_json_byte_stable(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["cohomology", "--l", "5", "--model", "exterior", "--out", str(a)]) == EXIT_OK
    assert main(["cohomology", "--l", "5", "--model", "exterior", "--out", str(b)]) == EXIT_OK
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() == (GOLDEN / "cohomology_exterior_l5.json").read_bytes()


def test_rigidity_command(tmp_path, capsys):
    out = tmp_path / "rigidity.json"
    assert main(["rigidity", "--l", "5", "--out", str(out)]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "10 classes" in stdout
    assert "rigid" in stdout
    doc = json.loads(out.read_text())
    assert doc["pass"] is True
    assert doc["verdicts"] == ["NONTRIVIAL"]
    assert len(doc["classes"]) == 10
    assert out.read_bytes() == (GOLDEN / "rigidity_l5.json").read_bytes()


def test_integrability_command(tmp_path, capsys):
    out = tmp_path / "integrability.json"
    assert main(["integrability", "--l", "4", "--out", str(out)]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "24 classes" in stdout
    assert "all integrable" in stdout
    doc = json.loads(out.read_text())
    assert doc["pass"] is True
    assert doc["deformations_verified"] is True
    assert doc["verdicts"] == ["ZERO"]
    assert out.read_bytes() == (GOLDEN / "integrability_l4.json").read_bytes()


def test_integrability_squares_each_class_once(monkeypatch, capsys):
    # The deformation check reuses the verdict: one cup square per class
    # and one Jacobi check per command.
    calls = {"cup_square": 0, "check_jacobi": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(d2lie.deformation, "cup_square")
    counted(d2lie.cli, "check_jacobi")
    assert main(["integrability", "--l", "4"]) == EXIT_OK
    assert "24 classes" in capsys.readouterr().out
    assert calls == {"cup_square": 24, "check_jacobi": 1}


def test_model_option_only_on_verify_and_cohomology(tmp_path, capsys):
    # rigidity always runs on the wedge-square model and integrability on
    # the Chevalley algebra; an option that changed nothing is now refused.
    assert main(["rigidity", "--model", "exterior", "--l", "5"]) == EXIT_USAGE
    assert main(["rigidity", "--model", "chevalley", "--l", "5"]) == EXIT_USAGE
    assert main(["integrability", "--model", "chevalley", "--l", "4"]) == EXIT_USAGE
    assert "--model" in capsys.readouterr().err
    # Without it the reports are unchanged (integrability --l 4 is
    # test_integrability_command).
    out = tmp_path / "rigidity_l7.json"
    assert main(["rigidity", "--l", "7", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert out.read_bytes() == (BENCH_REFERENCE / "rigidity_l7.json").read_bytes()


def test_rank_6_reports_match_goldens(tmp_path, capsys):
    for command, expected in (("cohomology", "12 weights"), ("integrability", "12 classes")):
        out = tmp_path / f"{command}_l6.json"
        assert main([command, "--l", "6", "--out", str(out)]) == EXIT_OK
        assert expected in capsys.readouterr().out
        assert out.read_bytes() == (GOLDEN / f"{command}_l6.json").read_bytes()


def test_rigidity_l9_matches_golden(tmp_path, capsys):
    # The report from the model's closed-form bracket and phi, byte for
    # byte as the eight-term evaluator produced it.
    out = tmp_path / "rigidity_l9.json"
    assert main(["rigidity", "--l", "9", "--out", str(out)]) == EXIT_OK
    assert "18 classes; all obstructed: rigid" in capsys.readouterr().out
    assert out.read_bytes() == (GOLDEN / "rigidity_l9.json").read_bytes()


@pytest.mark.parametrize("model, l", [("exterior", 5), ("chevalley", 4), ("chevalley", 6)])
def test_cohomology_names_each_differing_weight(model, l, monkeypatch, tmp_path, capsys):
    # Where a claim exists (the model at odd l >= 5, D_l at even l) the H^2
    # weights must be exactly +-2 eps_i, plus (+-1, +-1, +-1, +-1) at D_4,
    # one class each.  A mismatch exits 2 and names every differing weight
    # with its expected and computed dimensions, even when the total still
    # matches.
    survey = d2lie.cli.h2_survey_rows
    total = 24 if l == 4 else 2 * l
    zeros = (0,) * (l - 2)
    e1, m1, extra = (2, 0) + zeros, (-2, 0) + zeros, (2, 2) + zeros

    def skewed(L):
        rows = [r for r in survey(L) if r["weight"] != m1]
        return [{**r, "dim_h2": 2} if r["weight"] == e1 else r for r in rows]

    monkeypatch.setattr("d2lie.cli.h2_survey_rows", skewed)
    out = tmp_path / "report.json"
    assert main(["cohomology", "--model", model, "--l", str(l), "--out", str(out)]) == EXIT_DISCREPANCY
    err = capsys.readouterr().err.splitlines()
    assert err == [
        f"weight {list(m1)}: expected dim 1, computed 0",
        f"weight {list(e1)}: expected dim 1, computed 2",
    ]
    doc = json.loads(out.read_text())
    assert (doc["total_dim_h2"], doc["expected_total"], doc["pass"]) == (total, total, False)

    def widened(L):
        rows = survey(L)
        return rows + [{**rows[-1], "weight": extra}]

    monkeypatch.setattr("d2lie.cli.h2_survey_rows", widened)
    assert main(["cohomology", "--model", model, "--l", str(l)]) == EXIT_DISCREPANCY
    assert capsys.readouterr().err.splitlines() == [
        f"weight {list(extra)}: expected dim 0, computed 1",
        f"expected total {total}, computed {total + 1}",
    ]


def test_odd_rank_cohomology_with_a_class_off_weight_0_exits_2(monkeypatch, tmp_path, capsys):
    # Odd-rank D_l has H^2 = 0 at every weight, not only at weight 0, so a
    # class at (2, 0, 0, 0, 0) is a discrepancy that names its weight.  The
    # report keeps "expected_total" null: no total is claimed.
    mu = (2, 0, 0, 0, 0)

    def with_a_class(L):
        return [{"weight": mu, "dim_c2": 10, "dim_z2": 3, "dim_b2": 2, "dim_h2": 1}]

    monkeypatch.setattr("d2lie.cli.h2_survey_rows", with_a_class)
    out = tmp_path / "report.json"
    assert main(["cohomology", "--l", "5", "--out", str(out)]) == EXIT_DISCREPANCY
    assert capsys.readouterr().err.splitlines() == [f"weight {list(mu)}: expected dim 0, computed 1"]
    doc = json.loads(out.read_text())
    assert (doc["total_dim_h2"], doc["dim_h2_at_zero"], doc["expected_total"], doc["pass"]) == (1, 0, None, False)
