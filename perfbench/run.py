#!/usr/bin/env python3
"""Layered benchmark of the polarpool engine through its CLI entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare BASE.jsonl NEW.jsonl
    python3 perfbench/run.py --self-check

A run drives ``polarpool.cli.main(argv)`` in-process: a closed loop with one
client and one command in flight. It builds the workload's inputs from the
seed, measures for the given seconds, checks every output against a float
or mpmath model, and prints one table and, as its last line, one JSON
object with the end-to-end metrics (``--trace 0``) or the per-layer metrics
of a separate traced phase (``--trace 1``). Each result is also appended to
``.perfbench/results.jsonl`` for ``--compare``. See README.md in this
directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from decimal import Context, Decimal
from pathlib import Path

import model
import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
ENGINE = SRC / "polarpool" / "cli.py"
STATE = ROOT / ".perfbench"  # scratch inputs, results and spans
SETUP_REPEATS = 7
MAX_NOTES = 20
# Command times are scaled to a host on which the reference loop below takes
# this long; it is about the loop's time on the host the bench was built on.
REFERENCE_NS = 250_000
STEADY = 0.1


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def code_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted([*SRC.glob("polarpool/**/*.py"), *HERE.glob("*.py")]):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def import_cli():
    """Import the engine's CLI; returns (main, milliseconds the import took)."""
    if not ENGINE.is_file():
        raise SystemExit(f"perfbench: no engine source at {ENGINE}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    t0 = time.perf_counter_ns()
    from polarpool.cli import main
    return main, (time.perf_counter_ns() - t0) / 1e6


class Runner:
    """Runs one CLI command in-process, timed, with its output captured."""

    def __init__(self, cli_main):
        self.main = cli_main
        self.tracer: tracing.Tracer | None = None
        self.op_id = 0

    def __call__(self, argv):
        rc, out, err, _ = self.run(argv)
        return rc, out, err

    def run(self, argv):
        out, err = io.StringIO(), io.StringIO()
        op, self.op_id = self.op_id, self.op_id + 1
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            root = self.tracer.begin_op(op, "op." + argv[0]) if self.tracer else None
            t0 = time.perf_counter_ns()
            try:
                rc = self.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # an engine error the CLI does not map fails the op
                traceback.print_exc()
                rc = -1
            ns = time.perf_counter_ns() - t0
            if root is not None:
                self.tracer.end_op(root)
        return rc, out.getvalue(), err.getvalue(), ns


_REF_CTX = Context(prec=42)
_WAD = 10 ** 18


def _reference_once() -> None:
    parser = argparse.ArgumentParser(prog="reference")
    for k in range(6):
        parser.add_argument(f"--a{k}", default="1")
    args = parser.parse_args(["--a3", "0.25"])
    acc, x, terms = _WAD, 785398163397448309, []
    for k in range(60):
        q, r = divmod(acc * x, _WAD)
        acc = q + (2 * r >= _WAD)
        terms.append(str(_REF_CTX.divide(Decimal(acc), Decimal(k + 1))))
    json.loads(json.dumps({"terms": terms, "args": vars(args)}, sort_keys=True, indent=2))


def reference_ns(samples: int = 2) -> int:
    """Best of ``samples`` timings of a fixed bench-owned loop with the
    engine's mix of work: argument parsing, fixed-point integer rounding,
    42-digit decimal division and JSON formatting."""
    best = None
    for _ in range(samples):
        t0 = time.perf_counter_ns()
        _reference_once()
        ns = time.perf_counter_ns() - t0
        best = ns if best is None else min(best, ns)
    return best


class Phase:
    """Timings and outcomes of the commands of one measured phase.

    The shared host this was built on changes speed by up to 60 % for
    seconds to minutes at a time. So the reference loop is timed between
    commands, and each command's time is divided by the reference time
    around it and multiplied by REFERENCE_NS: the time the command takes on
    a host where the reference loop takes REFERENCE_NS. A command's scaled
    time is the lower quartile of its repeats, failed repeats included;
    throughput and latency come from those.
    """

    def __init__(self):
        self.repeats: dict[int, list[tuple[int, int, int]]] = {}  # index -> [(ns, ref before, ref after)]
        self.ops: dict[int, int] = {}
        self.ok_repeats: Counter = Counter()  # index -> repeats that succeeded
        self.attempted = self.failed = self.ok_ops = self.commands = self.timed_ns = 0
        self.passes = 0
        self.ops_by_command: Counter = Counter()
        self.op_ids: list[int] = []
        self.notes: list[str] = []
        self.wrong = 0

    def note(self, text: str) -> None:
        if len(self.notes) < MAX_NOTES:
            self.notes.append(text)

    def scaled(self) -> dict[int, float]:
        """Lower-quartile scaled nanoseconds of each command.

        Repeats whose reference times before and after differ by more than
        STEADY are left out when at least two other repeats are steady: the
        host's speed changed during them, so their scale is unknown. A
        single steady repeat is not trusted alone, because a burst of load
        between its reference timings slows it unseen. The lower quartile
        rather than the median, because such bursts slow some repeats of a
        command, never speed them up.
        """
        out = {}
        for k, runs in self.repeats.items():
            steady = [r for r in runs if abs(r[1] - r[2]) <= STEADY * (r[1] + r[2]) / 2]
            times = sorted(ns * REFERENCE_NS * 2 / (before + after)
                           for ns, before, after in (steady if len(steady) >= 2 else runs))
            out[k] = times[(len(times) - 1) // 4]
        return out

    @property
    def ops_per_s(self) -> float:
        """Successful ops of a pass over the scaled time of all its commands.

        A command that failed in some repeats counts its ops in the share of
        repeats that succeeded; the time of failed repeats stays in.
        """
        times = self.scaled()
        ns = sum(times.values())
        ok = sum(self.ops[k] * self.ok_repeats[k] / len(self.repeats[k]) for k in times)
        return ok / (ns / 1e9) if ns else 0.0

    def latency(self, q: float) -> float:
        """Percentile over the ops of the pass, each op taking its command's
        scaled milliseconds per op."""
        pairs = sorted((ns / 1e6 / self.ops[k], self.ops[k])
                       for k, ns in self.scaled().items())
        total, seen = sum(w for _, w in pairs), 0
        for value, weight in pairs:
            seen += weight
            if seen >= q * total:
                return value
        return 0.0


def measure(runner: Runner, workload, phase: Phase, seconds: float, min_passes: int = 1,
            limit: int | None = None) -> None:
    """Repeat the workload's pass until ``seconds`` of command time and
    ``min_passes`` whole passes, or until ``limit`` commands."""
    before = reference_ns(workload.reference_samples)
    while True:
        workload.reset()
        for idx, cmd in enumerate(workload.commands):
            if limit is not None and phase.commands >= limit:
                return
            if phase.passes >= min_passes and phase.timed_ns >= seconds * 1e9:
                return
            phase.op_ids.append(runner.op_id)
            rc, out, err, ns = runner.run(cmd.argv)
            after = reference_ns(workload.reference_samples)
            phase.timed_ns += ns
            phase.commands += 1
            phase.attempted += cmd.ops
            phase.ops[idx] = cmd.ops
            phase.repeats.setdefault(idx, []).append((ns, before, after))
            if rc != 0:
                phase.failed += cmd.ops
                phase.note(f"{' '.join(cmd.argv)} exited {rc}: {err.strip()[-300:]}")
            else:
                try:
                    cmd.check(out)
                    phase.ok_ops += cmd.ops
                    phase.ok_repeats[idx] += 1
                    phase.ops_by_command[cmd.argv[0]] += cmd.ops
                except model.OracleError as exc:
                    phase.failed += cmd.ops
                    phase.wrong += 1
                    phase.note(f"wrong output of {' '.join(cmd.argv)}: {exc}")
            before = after
        phase.passes += 1


def execute(name: str, seed: int, seconds: float, trace: bool, work: Path,
            quick: bool = False, min_passes: int = 1) -> dict:
    """Set up one workload in ``work``, measure it and check its outputs."""
    cli_main, import_ms = import_cli()
    runner = Runner(cli_main)
    workload = WORKLOADS[name](seed, work, quick)
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install()
        runner.tracer = tracer
    try:
        workload.setup(runner)
        setup_ops = list(range(runner.op_id))
        timed = Phase()
        measure(runner, workload, timed, seconds / 2 if trace else seconds, min_passes)
    finally:
        if tracer is not None:
            tracer.uninstall()
            runner.tracer = None
    result = {"phase": timed, "import_ms": import_ms, "op_unit": workload.op_unit}
    if trace:
        # the same commands again, untraced: the overhead ratio then
        # compares identical work
        plain = Phase()
        measure(runner, workload, plain, float("inf"), 0, limit=timed.commands)
        table = tracing.SpanTable(tracer, timed.op_ids)
        layers = tracing.layer_metrics(tracer, table, tracing.SpanTable(tracer, setup_ops),
                                       timed.ok_ops, timed.ops_by_command)
        layers["trace.overhead_ratio"] = (plain.ops_per_s / timed.ops_per_s
                                          if timed.ops_per_s else 0.0)
        result.update(plain=plain, layers=layers, tracer=tracer, counts=tracing.op_counts(
            tracer, tracing.SpanTable(tracer, setup_ops + timed.op_ids),
            setup_ops + timed.op_ids))
    try:
        result["probe"] = workload.probe(runner)
    except model.OracleError as exc:
        timed.wrong += 1
        timed.note(f"wrong output of a known-defect probe: {exc}")
        result["probe"] = (0, 0)
    return result


# A fresh process of the bench's own: interpreter start, standard-library
# imports, 42-digit decimal division and JSON formatting. Set-up times are
# scaled to a host on which it takes REFERENCE_PROCESS_S, about its time on
# the host the bench was built on.
REFERENCE_PROGRAM = """\
import argparse, csv, decimal, io, json
ctx = decimal.Context(prec=42)
terms = [str(ctx.divide(decimal.Decimal(k * 7919), decimal.Decimal(k + 3))) for k in range(20000)]
json.dumps(terms)
"""
REFERENCE_PROCESS_S = 0.135


def _timed_process(argv) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=170, cwd=ROOT)
    return time.perf_counter() - t0, proc


def measure_setup(name: str, seed: int) -> tuple[float, float, float]:
    """Seconds from a fresh process to ready inputs: the median over
    SETUP_REPEATS processes, scaled and raw; and the median import
    milliseconds the processes report.

    The host's speed for fresh processes drifts by a factor of two over
    minutes, and the in-process reference loop does not follow it. So a
    reference process runs before and after each set-up process, and each
    set-up time is divided by the mean of the two and multiplied by
    REFERENCE_PROCESS_S.
    """
    def reference() -> float:
        seconds, proc = _timed_process([sys.executable, "-c", REFERENCE_PROGRAM])
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: reference process failed:\n{proc.stderr[-2000:]}")
        return seconds

    scaled, raw, imports = [], [], []
    before = reference()
    for k in range(SETUP_REPEATS):
        work = STATE / "work" / f"{name}-{os.getpid()}-setup{k}"
        work.mkdir(parents=True)
        try:
            seconds, proc = _timed_process(
                [sys.executable, str(HERE / "run.py"), "--setup-only", str(work),
                 "--workload", name, "--seed", str(seed)])
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: setup of {name} failed:\n{proc.stderr[-2000:]}")
        after = reference()
        raw.append(seconds)
        scaled.append(seconds * REFERENCE_PROCESS_S * 2 / (before + after))
        imports.append(json.loads(proc.stdout.splitlines()[-1])["import_ms"])
        before = after
    return statistics.median(scaled), statistics.median(raw), statistics.median(imports)


def setup_only(name: str, seed: int, work: Path) -> None:
    cli_main, import_ms = import_cli()
    WORKLOADS[name](seed, work).setup(Runner(cli_main))
    print(json.dumps({"import_ms": import_ms}))


def run(args) -> int:
    spec = load_spec()
    name = args.workload
    setup_s, setup_raw_s, import_ms = measure_setup(name, args.seed)
    work = STATE / "work" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = execute(name, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    phase: Phase = result["phase"]
    probe_attempted, probe_failed = result["probe"]
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    correct = phase.wrong == 0
    record = {"workload": name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "code": code_hash()}
    if args.trace:
        values = dict(result["layers"])
        values["cli.import_ms"] = import_ms
        values["known_defect.fail_ratio"] = (probe_failed / probe_attempted
                                             if probe_attempted else 0.0)
        wanted = spec["per_layer"]
        record["counts"] = result["counts"]
        spans = STATE / "traces" / f"{name}-seed{args.seed}.tsv.gz"
        spans.parent.mkdir(parents=True, exist_ok=True)
        result["tracer"].write(spans)
    else:
        values = {
            "ops_per_s": phase.ops_per_s,
            "op_p50_ms": phase.latency(0.50),
            "op_p99_ms": phase.latency(0.99),
            "success_ratio": phase.ok_ops / phase.attempted if phase.attempted else 0.0,
            "setup_s": setup_s,
            "peak_rss_mib": rss_mib,
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    record.update(correct=correct, attempted=phase.attempted, failed=phase.failed,
                  metrics={k: v["value"] for k, v in metrics.items()},
                  samples={"commands": phase.commands, "ops": phase.attempted,
                           "setup_runs": SETUP_REPEATS, "setup_raw_s": setup_raw_s,
                           "known_defect_probes": probe_attempted,
                           "known_defect_failures": probe_failed})
    results = Path(args.results)
    results.parent.mkdir(parents=True, exist_ok=True)
    with open(results, "a") as fh:
        fh.write(json.dumps(record) + "\n")

    unit = result["op_unit"]
    print(f"workload {name}  seed {args.seed}  trace {args.trace}  code {record['code']}")
    print(f"  {phase.commands} commands in {phase.passes} whole passes and a part, "
          f"{phase.attempted} {unit}s attempted, "
          f"{phase.failed} failed, {phase.timed_ns / 1e9:.2f} s timed; "
          f"setup median of {SETUP_REPEATS} fresh processes ({setup_raw_s:.4f} s raw); "
          f"known-defect probes {probe_failed}/{probe_attempted} failed")
    for note in phase.notes:
        print("  ! " + note)
    for key, m in metrics.items():
        print(f"  {key:40s} {m['value']:>16.6f} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": phase.attempted,
                      "failed": phase.failed, "metrics": metrics}))
    return 0


# -- compare -----------------------------------------------------------------


def _load_results(path: str) -> dict[str, list[dict]]:
    by_workload: dict[str, list[dict]] = {}
    with open(path) as fh:
        for line in fh:
            record = json.loads(line)
            if record.get("trace") == 0:
                by_workload.setdefault(record["workload"], []).append(record)
    return by_workload


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(base_path: str, new_path: str) -> int:
    """One row per workload and end-to-end metric: medians, ratio, verdict."""
    spec = load_spec()
    base, new = _load_results(base_path), _load_results(new_path)
    print(f"{'workload':15s} {'metric':14s} {'base median [q1, q3]':>34s} "
          f"{'new median [q1, q3]':>34s} {'ratio':>7s}  verdict")
    for name in sorted(set(base) | set(new)):
        for m in spec["end_to_end"]:
            a = [r["metrics"][m["name"]] for r in base.get(name, [])]
            b = [r["metrics"][m["name"]] for r in new.get(name, [])]
            if not a or not b:
                print(f"{name:15s} {m['name']:14s} missing runs (base {len(a)}, new {len(b)})")
                continue
            (qa1, ma, qa3), (qb1, mb, qb3) = _quartiles(a), _quartiles(b)
            lower = m["better"] == "lower"
            worse = ((mb - ma) if lower else (ma - mb)) / ma if ma else 0.0
            spread = max((qa3 - qa1) / ma if ma else 0.0, (qb3 - qb1) / mb if mb else 0.0)
            every_better = (max(b) < min(a)) if lower else (min(b) > max(a))
            if spread > m["bound"] and not every_better:
                verdict = f"unresolved (spread {spread:.1%} > bound {m['bound']:.0%})"
            elif worse > m["bound"]:
                verdict = f"worse by {worse:.1%}, beyond bound {m['bound']:.0%}"
            elif -worse > m["bound"] or every_better:
                verdict = f"better by {-worse:.1%}"
            else:
                verdict = f"within bound {m['bound']:.0%}"
            print(f"{name:15s} {m['name']:14s} "
                  f"{f'{ma:.4g} [{qa1:.4g}, {qa3:.4g}]':>34s} "
                  f"{f'{mb:.4g} [{qb1:.4g}, {qb3:.4g}]':>34s} "
                  f"{mb / ma if ma else float('nan'):7.3f}  {verdict}  (n={len(a)}/{len(b)})")
    return 0


# -- self-check ----------------------------------------------------------------


def count_differences(first: list[dict], second: list[dict]) -> list[str]:
    """Ops whose deterministic counts differ between two traced runs."""
    diffs = [f"op {k}: first run {a}, second run {b}"
             for k, (a, b) in enumerate(zip(first, second)) if a != b]
    if len(first) != len(second):
        diffs.append(f"{len(first)} ops in the first run, {len(second)} in the second")
    return diffs


def self_check() -> int:
    """Each workload with a few ops, traced twice: oracle, counts and metric names."""
    spec = load_spec()
    problems = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the bench's")
    for name in WORKLOADS:
        counts = []
        for attempt in range(2):
            work = STATE / "work" / f"check-{name}-{os.getpid()}-{attempt}"
            work.mkdir(parents=True)
            try:
                result = execute(name, 1, 0.0, True, work, quick=True)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            for phase in (result["phase"], result["plain"]):
                if phase.wrong or phase.failed or not phase.ok_ops:
                    problems.append(f"{name}: {phase.failed} of {phase.attempted} ops failed "
                                    f"or were wrong: {phase.notes[:3]}")
            counts.append(result["counts"])
        diffs = count_differences(*counts)
        if diffs:
            problems.append(f"{name}: op counts differ between two traced runs")
            for line in diffs[:10]:
                print(f"  {name}: {line}")
        emitted = set(result["layers"]) | {"cli.import_ms", "known_defect.fail_ratio"}
        if emitted != {m["name"] for m in spec["per_layer"]}:
            problems.append(f"{name}: per-layer metrics {sorted(emitted)} differ from "
                            "BENCHMARK.json")
        print(f"{name:15s} {'ok' if not any(p.startswith(name) for p in problems) else 'FAIL'}"
              f"  ({result['phase'].ok_ops} + {result['plain'].ok_ops} ops)")
    e2e = {"ops_per_s", "op_p50_ms", "op_p99_ms", "success_ratio", "setup_s", "peak_rss_mib"}
    if e2e != {m["name"] for m in spec["end_to_end"]}:
        problems.append("BENCHMARK.json end-to-end metrics differ from the bench's")
    for p in problems:
        print("FAIL " + p)
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=str(STATE / "results.jsonl"),
                        help="JSON-lines file each run appends its record to")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="compare two results files")
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload briefly with the oracle and tracing on")
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.self_check:
        return self_check()
    if not args.workload:
        parser.error("--workload is required")
    if not ENGINE.is_file():
        parser.error(f"no engine source at {ENGINE}")
    if args.setup_only:
        setup_only(args.workload, args.seed, Path(args.setup_only))
        return 0
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
