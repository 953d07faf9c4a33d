"""Benchmark of the d2lie CLI on fixed workloads.

    python3 bench/run.py --workload survey-integrability --seed 1 --seconds 55 --trace 0

--trace 0 measures the end-to-end metrics with tracing off.  It runs as
many passes over the workload's commands as fit in --seconds (at least
one), each command a fresh `python -m d2lie.cli ... --out FILE` process
timed from launch to exit.  Every report must match
bench/reference/<command>.json byte for byte.
  wall_s       one pass, each command at its fastest over the passes
  setup_s      time, inside a fresh process, to import d2lie and build the
               workload's algebras; sampled after every command, fastest
               sample
  peak_rss_mb  largest ru_maxrss among the command processes
Both timings take the fastest sample of the run, not the median.  On a
small shared host, load from elsewhere only ever adds time and comes in
spells of seconds to minutes: a spell raises the median of a run's
samples by up to 1.7x but its minimum by about 1.2x, so minima are far
steadier from run to run.  The median is taken across runs.

--trace 1 runs one untraced pass, then replays the same commands in
this process with a span around each call of d2lie's public functions,
and reports per-layer self times and counts.  The replayed reports must
equal the untraced ones, and a probe re-ranks each H^2-carrying survey
block with weight_block and GF2Matrix.rank.

The seed only permutes the order of the commands in each pass.  The last
line of standard output is one JSON object: correct, attempted, failed
(failed / attempted is the failed ratio) and metrics.  Spans and the
per-run stamp are written to .bench_out/.  --workload all runs every
workload and prefixes each metric with the workload name.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from tracing import Tracer, instrument, self_time_by_name
from workloads import END_TO_END, LAYERS, WORKLOADS, Command, Workload, per_layer_units

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference"
OUT = ROOT / ".bench_out"

SETUP_SAMPLES_PER_COMMAND = 2
# Stop starting work this long after a workload starts, so a run of one
# workload exits within 180 s.
BUDGET_S = 150.0

SETUP_CODE = """
import time
t0 = time.perf_counter()
from d2lie.algebra import build_chevalley_D
from d2lie.exterior import build_quotient_model
for kind, l in {builds!r}:
    (build_chevalley_D if kind == "chevalley" else build_quotient_model)(l)
print(time.perf_counter() - t0)
"""


@dataclass
class CommandResult:
    command: Command
    wall_s: float
    exit_code: int
    rss_mb: float
    report: bytes | None
    error: str | None  # why the command counts as failed, None when it passed


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def first_difference(got, want, path: str = "") -> str | None:
    """Path of the first key (in sorted order) where two JSON values differ."""
    if isinstance(got, dict) and isinstance(want, dict):
        for key in sorted(set(got) | set(want)):
            sub = f"{path}.{key}" if path else key
            if key not in got or key not in want:
                return sub
            diff = first_difference(got[key], want[key], sub)
            if diff is not None:
                return diff
        return None
    if isinstance(got, list) and isinstance(want, list):
        for i, (g, w) in enumerate(zip(got, want)):
            diff = first_difference(g, w, f"{path}[{i}]")
            if diff is not None:
                return diff
        return None if len(got) == len(want) else f"{path}[{min(len(got), len(want))}]"
    return None if got == want and type(got) is type(want) else (path or "<root>")


def report_mismatch(got: bytes, want: bytes) -> str | None:
    """None when the reports are byte-identical, else the first differing key."""
    if got == want:
        return None
    try:
        key = first_difference(json.loads(got), json.loads(want))
    except ValueError:
        return "report is not JSON"
    return f"first differing key {key}" if key else "same JSON, different bytes"


def judge(exit_code: int, report: bytes | None, reference: bytes | None) -> str | None:
    """Why a command failed: nonzero exit, "pass": false, or a report that
    differs from the reference.  None when it passed."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    if report is None:
        return "no report written"
    try:
        passed = json.loads(report).get("pass")
    except (ValueError, AttributeError):
        return "report is not a JSON object"
    if passed is not True:
        return '"pass" is not true'
    if reference is None:
        return None
    mismatch = report_mismatch(report, reference)
    return f"report differs from the reference: {mismatch}" if mismatch else None


def failed_ratio(errors: list[str | None]) -> float:
    """Share of attempted operations that failed; None marks a success."""
    return sum(e is not None for e in errors) / len(errors)


def reference_report(cmd: Command) -> bytes:
    return (REFERENCE / f"{cmd.name}.json").read_bytes()


def run_command(cmd: Command, out_dir: Path, timeout: float, reference: bytes | None) -> CommandResult:
    """Run one CLI command in a fresh process, timed from launch to exit."""
    out = out_dir / f"{cmd.name}.json"
    out.unlink(missing_ok=True)
    with open(out_dir / f"{cmd.name}.stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "d2lie.cli", *cmd.argv, "--out", str(out)],
            cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, stderr=err,
        )
        killer = threading.Timer(max(timeout, 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: stop the child before leaving
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    report = out.read_bytes() if out.exists() else None
    error = judge(proc.returncode, report, reference)
    if error is not None:
        print(f"FAILED {' '.join(cmd.argv)}: {error}", file=sys.stderr)
    return CommandResult(cmd, wall, proc.returncode, usage.ru_maxrss / 1024, report, error)


def measure_setup(workload: Workload) -> float:
    """Seconds, inside a fresh process, to import d2lie and build the algebras."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE.format(builds=workload.builds)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=60,
    )
    if proc.returncode != 0:
        raise SystemExit(f"set-up failed for {workload.name}:\n{proc.stderr}")
    return float(proc.stdout.strip())


def run_untraced(workload: Workload, seed: int, seconds: float, tmp: Path, t_start: float):
    rng = random.Random(seed)
    references = {c.name: reference_report(c) for c in workload.commands}
    passes: list[float] = []
    results: list[CommandResult] = []
    # Set-up samples follow each command, so that they spread over the
    # whole run rather than catching the host in a single state.
    setups: list[float] = []
    while True:
        t_pass = time.perf_counter()
        pass_results = []
        for cmd in rng.sample(workload.commands, len(workload.commands)):
            left = BUDGET_S - (time.perf_counter() - t_start)
            pass_results.append(run_command(cmd, tmp, left, references[cmd.name]))
            setups += [measure_setup(workload) for _ in range(SETUP_SAMPLES_PER_COMMAND)]
        results += pass_results
        passes.append(sum(r.wall_s for r in pass_results))
        now = time.perf_counter()
        # Start another pass only if it should end within both limits.
        if now - t_start + (now - t_pass) > min(seconds, BUDGET_S):
            break
    fastest: dict[str, float] = {}
    for r in results:
        fastest[r.command.name] = min(r.wall_s, fastest.get(r.command.name, math.inf))
    metrics = {
        "wall_s": sum(fastest.values()),
        "setup_s": min(setups),
        "peak_rss_mb": max(r.rss_mb for r in results),
    }
    detail = {
        "passes_s": passes,
        "setup_samples_s": setups,
        "commands": [{"command": list(r.command.argv), "wall_s": r.wall_s, "exit_code": r.exit_code,
                      "rss_mb": r.rss_mb, "error": r.error} for r in results],
    }
    notes = {
        "wall_s": f"each command at its fastest of {len(passes)} passes; "
                  f"median pass {statistics.median(passes):.4g} s",
        "setup_s": f"fastest of {len(setups)}; median {statistics.median(setups):.4g} s",
        "peak_rss_mb": f"max of {len(results)} processes",
    }
    return metrics, [r.error for r in results], detail, notes


# -- traced replay -------------------------------------------------------


def load_cli():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import d2lie.cli

    return d2lie.cli


def replay(tracer: Tracer, commands, out_dir: Path, deadline: float) -> list[tuple[Command, int, bytes | None]]:
    """Run each command through d2lie.cli.main in this process, with spans.

    A command not started by the deadline (a perf_counter value) counts
    as failed with exit code -1, and one that raises with exit code -2."""
    cli = load_cli()
    targets = {layer.span: list(layer.calls) for layer in LAYERS if layer.calls}
    out = []
    with instrument(tracer, targets) as missing:
        for name in missing:
            print(f"warning: {name} not found; its layer records nothing", file=sys.stderr)
        for cmd in commands:
            if time.perf_counter() > deadline:
                out.append((cmd, -1, None))
                continue
            path = out_dir / f"{cmd.name}.json"
            sink = io.StringIO()
            try:
                with tracer.span(f"cli.{cmd.name}"), contextlib.redirect_stdout(sink), \
                        contextlib.redirect_stderr(sink):
                    code = cli.main([*cmd.argv, "--out", str(path)])
            except Exception as exc:  # a crash fails this command, not the whole run
                print(f"replay of {' '.join(cmd.argv)} raised {exc!r}", file=sys.stderr)
                code = -2
            out.append((cmd, code, path.read_bytes() if path.exists() else None))
    return out


def cross_check(untraced: bytes | None, code: int, traced: bytes | None) -> str | None:
    """The replay must reproduce the untraced report: H^2 rows, verdicts,
    deformation results and everything else in it."""
    if code != 0:
        return f"replay exit code {code}"
    if untraced is None or traced is None:
        return "missing report"
    mismatch = report_mismatch(traced, untraced)
    return f"replay differs from the untraced report: {mismatch}" if mismatch else None


def c2_block_sizes(weights) -> dict[tuple, int]:
    """|C^2_mu| for every weight mu = w_k - w_i - w_j, i < j, of the basis."""
    pair_sums: dict[tuple, int] = {}
    n = len(weights)
    for i in range(n):
        wi = weights[i]
        for j in range(i + 1, n):
            s = tuple(a + b for a, b in zip(wi, weights[j]))
            pair_sums[s] = pair_sums.get(s, 0) + 1
    mult: dict[tuple, int] = {}
    for w in weights:
        mult[w] = mult.get(w, 0) + 1
    sizes: dict[tuple, int] = {}
    for s, count in pair_sums.items():
        for w, m in mult.items():
            mu = tuple(a - b for a, b in zip(w, s))
            sizes[mu] = sizes.get(mu, 0) + count * m
    return sizes


def probe_blocks(tracer: Tracer) -> list[str | None]:
    """Re-rank every H^2-carrying block of each traced survey through the
    dense block API.  One entry per block: None when its H^2 agrees."""
    from d2lie.cohomology import weight_block

    surveys = [s for s in tracer.spans if s.name == "cohomology.survey"]
    errors = []
    for s in surveys:
        L = s.note["args"][0]
        for row in s.note["result"]:
            with tracer.span("cohomology.weight_block"):
                block = weight_block(L, row["weight"])
            with tracer.span("gf2.rank"):
                h2 = len(block.c2) - block.d2.rank() - block.d1.rank()
            error = None
            if h2 != row["dim_h2"]:
                error = f"probe at weight {row['weight']}: dense H^2 {h2}, survey {row['dim_h2']}"
                print(f"FAILED {error}", file=sys.stderr)
            errors.append(error)
    return errors


def layer_metrics(tracer: Tracer, reports: list[bytes | None]) -> dict[str, float]:
    spans = tracer.spans
    by_name = self_time_by_name(spans)
    metrics = {layer.metric: by_name.get(layer.span, 0.0) for layer in LAYERS}
    metrics["cli.other_s"] = sum(t for name, t in by_name.items() if name.startswith("cli."))
    metrics["cohomology.coboundary_calls"] = sum(s.name == "cohomology.coboundary" for s in spans)
    metrics["deformation.triples"] = sum(
        math.comb(s.note["args"][0].base.dim, 3) for s in spans if s.name == "deformation.verify"
    )
    metrics["deformation.classes"] = sum(
        len(json.loads(r).get("classes", ())) for r in reports if r is not None
    )
    c2 = h2 = largest = 0
    for s in spans:
        if s.name == "cohomology.survey":
            sizes = c2_block_sizes(s.note["args"][0].weights)
            c2 += len(sizes)
            largest = max(largest, max(sizes.values()))
            h2 += len(s.note["result"])
    metrics["cohomology.c2_blocks"] = c2
    metrics["cohomology.h2_blocks"] = h2
    metrics["cohomology.h2_block_ratio"] = h2 / c2 if c2 else 0.0
    metrics["cohomology.max_c2_block"] = largest
    return metrics


def run_traced(workload: Workload, seed: int, tmp: Path, t_start: float):
    order = random.Random(seed).sample(workload.commands, len(workload.commands))
    (tmp / "untraced").mkdir()
    (tmp / "traced").mkdir()
    untraced = [
        run_command(c, tmp / "untraced", BUDGET_S - (time.perf_counter() - t_start), reference_report(c))
        for c in order
    ]
    untraced_wall = sum(r.wall_s for r in untraced)

    tracer = Tracer(run_id=f"{workload.name}-seed{seed}-{os.getpid()}")
    t0 = time.perf_counter()
    replayed = replay(tracer, order, tmp / "traced", t_start + BUDGET_S)
    traced_wall = time.perf_counter() - t0

    errors = [r.error for r in untraced]
    for r, (cmd, code, report) in zip(untraced, replayed):
        error = cross_check(r.report, code, report)
        if error is not None:
            print(f"FAILED replay of {' '.join(cmd.argv)}: {error}", file=sys.stderr)
        errors.append(error)
    probe_errors = probe_blocks(tracer)
    metrics = layer_metrics(tracer, [report for _, _, report in replayed])
    print(f"{workload.name}: tracing overhead {traced_wall - untraced_wall:+.3f} s "
          f"(traced replay {traced_wall:.3f} s, untraced pass {untraced_wall:.3f} s)")
    detail = {"untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall,
              "tracing_overhead_s": traced_wall - untraced_wall,
              "probe_blocks": len(probe_errors), "spans": tracer.to_json()}
    return metrics, errors + probe_errors, detail, {}


# -- entry point ---------------------------------------------------------


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def stamp(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "seed": seed,
    }


def main(argv=None) -> int:
    # Turn SIGTERM into SystemExit so that a running command is stopped too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "d2lie" / "cli.py").is_file():
        print(f"error: no d2lie sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    missing = [c.name for w in WORKLOADS.values() for c in w.commands
               if not (REFERENCE / f"{c.name}.json").is_file()]
    if missing:
        print(f"error: reference reports missing: {', '.join(missing)}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    info = stamp(args.seed)
    print("stamp " + json.dumps(info, sort_keys=True))
    units = {m: u for m, (u, _) in per_layer_units().items()} if args.trace else END_TO_END
    attempted = failed = 0
    metrics_out = {}
    OUT.mkdir(exist_ok=True)
    for name in names:
        workload = WORKLOADS[name]
        t_start = time.perf_counter()
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            if args.trace:
                metrics, errors, detail, notes = run_traced(workload, args.seed, Path(tmp), t_start)
            else:
                metrics, errors, detail, notes = run_untraced(
                    workload, args.seed, args.seconds, Path(tmp), t_start)
        attempted += len(errors)
        failed += sum(e is not None for e in errors)
        print(f"{name}: failed_ratio {failed_ratio(errors):.4g} "
              f"({sum(e is not None for e in errors)} of {len(errors)} operations)")
        for metric, value in metrics.items():
            unit = units[metric]
            note = f"  ({notes[metric]})" if metric in notes else ""
            print(f"{name}: {metric} = {value:.6g} {unit}{note}")
            key = metric if len(names) == 1 else f"{name}.{metric}"
            metrics_out[key] = {"value": value, "unit": unit}
        record = {"stamp": info, "workload": name, "trace": args.trace, "metrics": metrics, **detail}
        (OUT / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics_out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
