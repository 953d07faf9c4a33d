"""Fast checks of the benchmark's own arithmetic and failure accounting.

    python3 -m pytest -q bench/test_bench.py

Only the smallest inputs run here: D_4 and the rank-5 model.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

import run
from tracing import Span, Tracer, instrument, self_time_by_name, self_times
from workloads import END_TO_END, LAYERS, WORKLOADS, Command, per_layer_units

VERIFY_D4 = Command("verify_l4", ("verify", "--l", "4"))


def test_self_times_subtract_direct_children_only():
    spans = [
        Span("cli.x", 0.0, 10.0, None, "r"),
        Span("a", 1.0, 4.0, 0, "r"),
        Span("b", 2.0, 3.0, 1, "r"),
        Span("a", 5.0, 9.0, 0, "r"),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert self_time_by_name(spans) == {"cli.x": 3.0, "a": 6.0, "b": 1.0}
    assert sum(self_times(spans)) == spans[0].end - spans[0].start


def test_tracer_records_parent_and_run_id():
    tracer = Tracer("run-7")
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    assert [(s.name, s.parent, s.run_id) for s in tracer.spans] == [
        ("outer", None, "run-7"), ("inner", 0, "run-7"), ("inner", 0, "run-7"),
    ]
    outer, first, second = tracer.spans
    assert outer.start <= first.start <= first.end <= second.start <= second.end <= outer.end
    assert set(tracer.to_json()[0]) == {"name", "start", "end", "parent", "run_id"}


def test_changed_byte_and_nonzero_exit_each_raise_failed_ratio(tmp_path):
    good = run.run_command(VERIFY_D4, tmp_path, timeout=60, reference=None)
    assert good.error is None and good.exit_code == 0
    reference = good.report

    same = run.run_command(VERIFY_D4, tmp_path, timeout=60, reference=reference)
    assert run.failed_ratio([good.error, same.error]) == 0

    changed = bytearray(reference)
    changed[changed.index(b'"dim": 28') + len('"dim": 2')] = ord("9")
    edited = run.run_command(VERIFY_D4, tmp_path, timeout=60, reference=bytes(changed))
    assert "first differing key dim" in edited.error
    assert run.failed_ratio([same.error, edited.error]) == 0.5

    usage = run.run_command(Command("verify_l2", ("verify", "--l", "2")), tmp_path, timeout=60,
                            reference=None)
    assert usage.exit_code == 1 and usage.error == "exit code 1"
    assert run.failed_ratio([same.error, edited.error, usage.error]) == 2 / 3


def test_judge_rejects_failing_report():
    report = json.dumps({"pass": False}).encode()
    assert run.judge(0, report, report) == '"pass" is not true'
    assert run.judge(0, None, None) == "no report written"


def test_first_difference_walks_keys_in_order():
    assert run.first_difference({"a": [1, 2], "b": 0}, {"a": [1, 3], "b": 1}) == "a[1]"
    assert run.first_difference({"a": [1]}, {"a": [1, 2]}) == "a[1]"
    assert run.first_difference({"a": True}, {"a": 1}) == "a"
    assert run.first_difference({"a": 1}, {"a": 1}) is None


@pytest.fixture(scope="module")
def rigidity_l5(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("replay")
    cmd = Command("rigidity_l5", ("rigidity", "--l", "5"))
    untraced = run.run_command(cmd, tmp, timeout=120, reference=None)
    tracer = Tracer("test")
    (tmp / "traced").mkdir()
    [(_, code, traced)] = run.replay(tracer, [cmd], tmp / "traced", deadline=math.inf)
    return untraced, code, traced, tracer


def test_replay_cross_check_fails_on_a_wrong_verdict(rigidity_l5):
    untraced, code, traced, _ = rigidity_l5
    assert untraced.error is None
    assert run.cross_check(untraced.report, code, traced) is None

    doc = json.loads(traced)
    assert doc["classes"][0]["verdict"] == "NONTRIVIAL"
    doc["classes"][0]["verdict"] = "ZERO"
    wrong = (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()
    error = run.cross_check(untraced.report, code, wrong)
    assert error is not None and "classes[0].verdict" in error
    assert run.cross_check(untraced.report, 2, traced) == "replay exit code 2"


def test_replay_spans_each_layer_call(rigidity_l5):
    _, _, traced, tracer = rigidity_l5
    names = {s.name for s in tracer.spans}
    assert {"cli.rigidity_l5", "exterior.build", "exterior.phi", "cohomology.differential",
            "deformation.cup_square", "cohomology.coboundary"} <= names
    assert "cohomology.survey" not in names
    metrics = run.layer_metrics(tracer, [traced])
    assert metrics["deformation.classes"] == 10
    assert metrics["cohomology.coboundary_calls"] == 10
    assert metrics["cohomology.c2_blocks"] == 0 and metrics["cohomology.h2_block_ratio"] == 0.0
    assert set(metrics) == set(per_layer_units())
    times = [v for k, v in metrics.items() if per_layer_units()[k][0] == "s"]
    whole = tracer.spans[0].end - tracer.spans[0].start
    assert math.isclose(sum(times), whole, rel_tol=1e-6)


def test_instrument_restores_the_library():
    cli = run.load_cli()
    import d2lie.cohomology as cohomology
    import d2lie.deformation as deformation

    before = (cohomology.is_coboundary, deformation.is_coboundary, cli.h2_survey_rows)
    with instrument(Tracer("t"), {"x": [("d2lie.cohomology", "is_coboundary"),
                                        ("d2lie.cohomology", "no_such_function")]}) as missing:
        assert deformation.is_coboundary is not before[1]
        assert missing == ["d2lie.cohomology.no_such_function"]
    assert (cohomology.is_coboundary, deformation.is_coboundary, cli.h2_survey_rows) == before


def test_survey_probe_and_block_counts_on_d4(tmp_path):
    cmd = Command("cohomology_l4", ("cohomology", "--l", "4"))
    tracer = Tracer("test")
    [(_, code, report)] = run.replay(tracer, [cmd], tmp_path, deadline=math.inf)
    assert code == 0
    assert run.probe_blocks(tracer) == [None] * 24
    metrics = run.layer_metrics(tracer, [report])
    from d2lie.algebra import build_chevalley_D
    from d2lie.cohomology import _c2_groups

    L = build_chevalley_D(4)
    groups = _c2_groups(L)
    assert metrics["cohomology.c2_blocks"] == len(groups) == 601
    assert metrics["cohomology.max_c2_block"] == max(len(v) for v in groups.values())
    assert metrics["cohomology.h2_blocks"] == 24
    assert metrics["cohomology.h2_block_ratio"] == 24 / 601
    assert metrics["gf2.rank_s"] > 0 and metrics["cohomology.weight_block_s"] > 0


def test_benchmark_json_matches_the_tables():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == per_layer_units()
    assert all(layer.metric.endswith("_s") for layer in LAYERS)


def test_reference_reports_exist_and_pass():
    for workload in WORKLOADS.values():
        for cmd in workload.commands:
            doc = json.loads(run.reference_report(cmd))
            assert doc["pass"] is True
