#!/usr/bin/env python3
"""The modclass benchmark.

Seeded, generated documents go one at a time (closed loop, one client, one
thread) through the path a user pays for: ``json.loads`` ->
``schema.parse_data`` -> ``cli.run`` -> ``ReportDocument.to_json``.  Every
report is checked against the value its document was built to give, and
against the first pass's report byte for byte.

    python3 perfbench/run.py --workload ruth-decide --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` prints the end-to-end metrics: ``batch_s`` is the median
pass, ``doc_ms_p50`` and ``doc_ms_tail`` are taken over every request of
every timed pass, and ``setup_s`` is the median of several fresh set-ups.
These four are reference seconds: CPU seconds of this process
(``time.process_time``; the loop is one thread that never waits, so this is
the program's time without the stalls a shared host adds to the wall clock),
scaled by the host's speed in that stretch, which a fixed burst of the
benchmark's own work timed between requests and around every set-up
measures (see speed.py).  The raw CPU and wall-clock figures are written to
the run record next to them.
``peak_rss_mb`` is the process's peak resident set at the end of the timed
loop; the record shows it after set-up and warm-up too, so that the phase
which reached it can be seen.
``--trace 1`` wraps modclass's layers (see spans.py) and prints the
per-layer ones; it alternates untraced and traced passes to state its
overhead in raw CPU seconds, and counts groupoid composition lookups in
further, untimed passes.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A record
of the run, and in traced runs the spans of one pass, are written under
``.bench_out/`` at the repository root.
The modclass package is imported from ``src/`` next to this directory and
nowhere else; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = SRC / "modclass" / "fixtures"
GOLDEN = ROOT / "tests" / "golden"
OUT = ROOT / ".bench_out"
FIXTURE_NAMES = ("z2_sign_odd", "pair2", "s3_action", "acyclic_two_term")
SETUPS = 5  # setup_s is the median of this many full set-ups
SETUP_BURSTS = 3  # host-speed bursts timed before, and again after, each set-up
MIN_PASSES = 3  # traced passes per traced run, even when one pass outlasts --seconds
# Timed passes per untraced run, likewise.  doc_ms_tail's percentile is the
# highest with ten samples beyond it in this many passes, in every run.  The
# documents of a pass differ in cost, so that percentile must fall inside
# one document's band rather than on the edge between two, where it would
# flip from one to the other; with 7 passes it does on every workload
# (p79.6 of 7 requests a pass, p82.1 of 8, p95.2 of 30).
LATENCY_PASSES = 7

sys.path.insert(0, str(HERE))

import check as checks  # noqa: E402
import gen  # noqa: E402
import speed  # noqa: E402
from spans import Tracer  # noqa: E402

clock = time.perf_counter  # wall
cpu_clock = time.process_time  # this process's CPU, user and system

END_TO_END = {
    "batch_s": "s",
    "doc_ms_p50": "ms",
    "doc_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> span whose self time it reports, in ms per pass
LAYER_TIMES = {
    "bench.json_decode_ms": "bench.json_decode",
    "schema.parse_ms": "schema.parse_data",
    "cli.render_ms": "cli.ReportDocument.to_json",
    "groupoid.validate_ms": "groupoid.validate",
    "groupoid.composable_pairs_ms": "groupoid.FiniteGroupoid.composable_pairs",
    "groupoid.is_cocycle_1_ms": "groupoid.is_cocycle_1",
    "groupoid.coboundary_solve_1_ms": "groupoid.coboundary_solve_1",
    "reps.verify_ruth_self_ms": "reps.verify_ruth",
    "reps.induced_ber_rep_ms": "reps.induced_ber_rep",
    "reps.verify_vector_rep_ms": "reps.verify_vector_rep",
    "complexes.null_homotopy_ms": "complexes.null_homotopy",
    "complexes.decompose_ms": "complexes.decompose",
    "complexes.block_form_ms": "complexes.block_form",
    "complexes.invertible_replacement_ms": "complexes.invertible_replacement",
    "complexes.berezinian_class_ms": "complexes.berezinian_class",
    "complexes.verify_chain_map_ms": "complexes.verify_chain_map",
    "linalg.rref_ms": "linalg.rref",
    "linalg.solve_ms": "linalg.solve",
    "linalg.matmul_ms": "linalg.Matrix.__mul__",
    "linalg.det_ms": "linalg.det",
    "linalg.det_and_inverse_ms": "linalg.det_and_inverse",
    "linalg.extend_to_basis_ms": "linalg.extend_to_basis",
}

# per-layer metric -> span whose number of calls it reports
LAYER_CALLS = {
    "complexes.null_homotopy_calls": "complexes.null_homotopy",
    "complexes.decompose_calls": "complexes.decompose",
    "linalg.rref_calls": "linalg.rref",
    "linalg.matmul_calls": "linalg.Matrix.__mul__",
    "linalg.det_calls": "linalg.det",
}

# counts that must repeat exactly between traced passes of the same inputs
DETERMINISTIC = (
    "linalg.rref_calls",
    "linalg.rref_cells",
    "linalg.matmul_calls",
    "linalg.det_calls",
    "complexes.decompose_calls",
    "complexes.null_homotopy_calls",
    "complexes.homotopy_system_cells",
    "groupoid.triples_checked",
    "groupoid.validate_compose_calls",
    "reps.certificates_built",
    "linalg.max_coeff_bits",
)

PER_LAYER_UNITS = {
    **{name: "ms" for name in LAYER_TIMES},
    **{name: "count" for name in LAYER_CALLS},
    "schema.input_kb": "KiB",
    "groupoid.triples_checked": "count",
    "groupoid.validate_compose_calls": "count",
    "reps.certificates_built": "count",
    "reps.certificates_reported_ratio": "ratio",
    "complexes.homotopy_system_cells": "count",
    "complexes.decompose_per_fiber": "ratio",
    "linalg.rref_cells": "count",
    "linalg.max_coeff_bits": "bits",
    "trace.batch_s": "s",
    "trace.untraced_batch_s": "s",
    "trace.overhead_ratio": "ratio",
}


class SetupError(Exception):
    """The checkout cannot run the benchmark (no source tree, no fixtures)."""


def import_modclass():
    """Import modclass afresh from this checkout's src/, never an installed copy."""
    if not (SRC / "modclass" / "__init__.py").is_file():
        raise SetupError(f"no modclass source tree at {SRC}")
    for name in [n for n in sys.modules if n == "modclass" or n.startswith("modclass.")]:
        del sys.modules[name]
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("modclass")
    if Path(package.__file__).resolve().parent != SRC / "modclass":
        raise SetupError(f"imported modclass from {package.__file__}, not {SRC}")
    return importlib.import_module("modclass.schema"), importlib.import_module("modclass.cli")


def fixture_gate(schema, cli) -> list[str]:
    """The shipped fixtures must still give their golden reports byte for byte."""
    failures = []
    for name in FIXTURE_NAMES:
        try:
            data = json.loads((FIXTURES / f"{name}.json").read_text(encoding="utf-8"))
            golden = (GOLDEN / f"{name}.modular-class.json").read_text(encoding="utf-8")
        except OSError as exc:
            raise SetupError(f"fixture gate: {exc}") from exc
        args = argparse.Namespace(command="modular-class", input=f"{name}.json", fmt="json")
        report, code = cli.run("modular-class", schema.parse_data(data), args)
        if code != 0 or report.to_json() != golden:
            failures.append(name)
    return failures


class Workload:
    """One set-up of a workload: fresh modclass import, documents, references, gate."""

    def __init__(self, name: str, seed: int):
        start, start_cpu = clock(), cpu_clock()
        self.schema, self.cli = import_modclass()
        self.docs, self.requests = gen.build(name, seed)
        self.gate_failures = fixture_gate(self.schema, self.cli)
        self.args = [
            argparse.Namespace(
                command=r.command, input=self.docs[r.doc].name + ".json", fmt="json", arrow=r.arrow
            )
            for r in self.requests
        ]
        self.seconds, self.cpu_seconds = clock() - start, cpu_clock() - start_cpu

    def server(self, decode=json.loads):
        """serve(i) takes request i through the whole path; modules are looked up per call."""
        schema, cli, docs, requests, args = self.schema, self.cli, self.docs, self.requests, self.args

        def serve(i):
            r = requests[i]
            report, code = cli.run(r.command, schema.parse_data(decode(docs[r.doc].text)), args[i])
            return code, report, report.to_json()

        return serve

    def sizes(self) -> list[dict]:
        return [dict(d.sizes, name=d.name, kind=d.kind, trivial=d.trivial) for d in self.docs]


class Pass:
    """One pass's wall, CPU and (when calibrated) reference seconds, per
    request and summed over its requests, and its outcomes.  A request's
    reference seconds scale its CPU seconds by the bursts just before and
    just after it: the host's speed changes within a pass."""

    def __init__(self, doc_wall, doc_cpu, bursts, outcomes):
        self.doc_wall, self.doc_cpu, self.outcomes = doc_wall, doc_cpu, outcomes
        self.wall, self.cpu = sum(doc_wall), sum(doc_cpu)
        if bursts:
            self.factor = speed.factor(bursts)
            self.doc_ref = [t * speed.factor(bursts[i : i + 2]) for i, t in enumerate(doc_cpu)]
            self.ref = sum(self.doc_ref)


def run_pass(work: Workload, serve, tracer: Tracer | None = None, calibrate=False) -> Pass:
    """Every request once; with ``calibrate``, host-speed bursts between them and at both ends."""
    doc_wall, doc_cpu, bursts, outcomes = [], [], [], []
    for i in range(len(work.requests)):
        if calibrate:
            bursts.append(speed.burst())
        if tracer is not None:
            tracer.begin_request(i)
        t0, c0 = clock(), cpu_clock()
        try:
            outcome = serve(i)
        except Exception as exc:  # a crash fails this request, not the benchmark
            outcome = (None, None, f"{type(exc).__name__}: {exc}")
        doc_cpu.append(cpu_clock() - c0)
        doc_wall.append(clock() - t0)
        if tracer is not None:
            tracer.end_request()
        outcomes.append(outcome)
    if calibrate:
        bursts.append(speed.burst())
    return Pass(doc_wall, doc_cpu, bursts, outcomes)


class Ledger:
    """Attempted and failed requests; the first pass is the byte-level reference."""

    def __init__(self, work: Workload, first_outcomes):
        self.reference = [(code, text) for code, _, text in first_outcomes]
        self.verdicts = [
            checks.check(work.docs[r.doc], r, code, text)
            for r, (code, text) in zip(work.requests, self.reference)
        ]
        self.attempted = len(self.reference)
        self.failed = sum(v is not None for v in self.verdicts)
        self.reasons = [
            f"{work.docs[r.doc].name} {r.command} {r.arrow or ''}: {v}"
            for r, v in zip(work.requests, self.verdicts)
            if v is not None
        ]
        self.max_coeff_bits = max(
            (checks.max_coeff_bits(text) for (code, text), v in zip(self.reference, self.verdicts) if v is None),
            default=0,
        )

    def add(self, outcomes) -> None:
        for i, (code, _, text) in enumerate(outcomes):
            self.attempted += 1
            if self.verdicts[i] is not None or (code, text) != self.reference[i]:
                self.failed += 1
                if self.verdicts[i] is None and len(self.reasons) < 20:
                    self.reasons.append(f"request {i}: report differs from the first pass")


def timed_passes(work, serve, seconds, ledger) -> list[Pass]:
    """Passes until ``seconds`` have gone by on the wall clock (at least LATENCY_PASSES)."""
    passes = []
    deadline = clock() + seconds
    while len(passes) < LATENCY_PASSES or clock() < deadline:
        p = run_pass(work, serve, calibrate=True)
        passes.append(p)
        ledger.add(p.outcomes)
        p.outcomes = None  # so that peak memory does not grow with the number of passes
    return passes


def tail(samples, base):
    """The value at the highest percentile that has at least ten of ``base``
    samples beyond it (the maximum when ``base`` is under eleven), and that
    percentile.  With ``base`` fixed per workload, the percentile does not
    move with the number of passes a run makes, which the host's speed sets;
    the documents of a pass differ in cost, so a moving percentile would
    fall on another document.  More samples than ``base`` put more than ten
    beyond it."""
    ordered = sorted(samples)
    share = (base - 10, base) if base > 10 else (1, 1)
    k = -(-share[0] * len(ordered) // share[1]) - 1  # nearest rank
    return ordered[k], 100.0 * share[0] / share[1]


def setup(workload: str, seed: int):
    """SETUPS full set-ups; the last one is kept.  Same seed, same documents.

    Returns the workload and the median reference, CPU and wall seconds of
    a set-up.
    """
    ref, cpu, wall, texts, work = [], [], [], None, None
    for _ in range(SETUPS):
        # The previous set-up goes first, so that two never share the peak
        # resident set, which the timed loop should set.
        work = None
        gc.collect()
        before = [speed.burst() for _ in range(SETUP_BURSTS)]
        work = Workload(workload, seed)
        after = [speed.burst() for _ in range(SETUP_BURSTS)]
        ref.append(work.cpu_seconds * speed.factor(before + after))
        cpu.append(work.cpu_seconds)
        wall.append(work.seconds)
        if texts is None:
            texts = [d.text for d in work.docs]
        elif [d.text for d in work.docs] != texts:
            raise SetupError("document generation is not deterministic")
    return work, statistics.median(ref), statistics.median(cpu), statistics.median(wall)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def latency_figures(passes, attr):
    """batch seconds (median pass), doc ms p50 and tail, tail percentile, samples."""
    samples = [t for p in passes for t in getattr(p, "doc_" + attr)]
    tail_s, tail_pct = tail(samples, LATENCY_PASSES * len(passes[0].doc_cpu))
    batch = statistics.median(getattr(p, attr) for p in passes)
    return batch, statistics.median(samples) * 1000.0, tail_s * 1000.0, tail_pct, len(samples)


def measure(workload: str, seed: int, seconds: float) -> dict:
    work, setup_s, setup_cpu_s, setup_wall_s = setup(workload, seed)
    rss = {"setup": peak_rss_mb()}
    serve = work.server()
    # The first pass warms up and gives the reference reports; it is not timed.
    first = run_pass(work, serve, calibrate=True)
    rss["warm_up"] = peak_rss_mb()
    ledger = Ledger(work, first.outcomes)
    passes = timed_passes(work, serve, seconds, ledger)
    rss["timed"] = peak_rss_mb()
    batch_s, p50, tail_ms, tail_pct, samples = latency_figures(passes, "ref")
    cpu = latency_figures(passes, "cpu")
    wall = latency_figures(passes, "wall")
    metrics = {
        "batch_s": batch_s,
        "doc_ms_p50": p50,
        "doc_ms_tail": tail_ms,
        "setup_s": setup_s,
        "peak_rss_mb": rss["timed"],
    }
    extra = {
        "passes": len(passes),
        "pass_ref_s": [p.ref for p in passes],
        "pass_cpu_s": [p.cpu for p in passes],
        "pass_wall_s": [p.wall for p in passes],
        "pass_speed_factor": [p.factor for p in passes],
        "cpu": {"batch_s": cpu[0], "doc_ms_p50": cpu[1], "doc_ms_tail": cpu[2], "setup_s": setup_cpu_s},
        "wall": {"batch_s": wall[0], "doc_ms_p50": wall[1], "doc_ms_tail": wall[2], "setup_s": setup_wall_s},
        "samples": samples,
        "doc_ms_tail_percentile": tail_pct,
        "peak_rss_mb_after": rss,
        "peak_rss_reached_in": next(phase for phase, mb in rss.items() if mb == rss["timed"]),
        "fail_ratio": ledger.failed / ledger.attempted,
    }
    return _result(work, ledger, metrics, END_TO_END, extra)


def measure_traced(workload: str, seed: int, seconds: float) -> dict:
    work = setup(workload, seed)[0]
    serve = work.server()
    ledger = Ledger(work, run_pass(work, serve).outcomes)

    tracer = Tracer()
    per_pass, spans = [], []
    decode = tracer.wrap("bench.json_decode", json.loads)
    traced_serve = tracer.wrap("bench.request", work.server(decode))

    def on_pass(outcomes):
        reported = sum(
            sum(p.get("certificate") == "found" for p in report.fields.get("pairs", []))
            for _, report, _ in outcomes
            if report is not None
        )
        per_pass.append((dict(tracer.self_s), dict(tracer.calls), dict(tracer.counts), reported))
        if not spans:
            spans.extend(tracer.spans)

    def traced_pass(count_lookups=False):
        tracer.reset()
        tracer.install()
        if count_lookups:
            tracer.count_lookups()
        try:
            p = run_pass(work, traced_serve, tracer)
        finally:
            tracer.uninstall()
        ledger.add(p.outcomes)
        on_pass(p.outcomes)
        return p

    # Untraced and traced passes alternate, so that the host's drift falls
    # on both alike and the overhead compares like with like.
    untraced, traced = [], []
    deadline = clock() + seconds
    while len(traced) < MIN_PASSES or clock() < deadline:
        untraced.append(run_pass(work, serve))
        ledger.add(untraced[-1].outcomes)
        traced.append(traced_pass())
    # Composition lookups are too many to count in timed passes without
    # swelling validate's self time; MIN_PASSES more passes count them.
    for _ in range(MIN_PASSES):
        traced_pass(count_lookups=True)

    def layer_metrics(self_s, calls, counts, reported):
        m = {name: self_s.get(span, 0.0) * 1000.0 for name, span in LAYER_TIMES.items()}
        m.update({name: calls.get(span, 0) for name, span in LAYER_CALLS.items()})
        built = counts.get("reps.certificates_built", 0)
        fibers = counts.get("complexes.distinct_fibers", 0)
        m.update(
            {
                "schema.input_kb": sum(len(work.docs[r.doc].text) for r in work.requests) / 1024.0,
                "groupoid.validate_compose_calls": counts.get("groupoid.validate_compose_calls", 0),
                "groupoid.triples_checked": triples_checked(counts),
                "reps.certificates_built": built,
                "reps.certificates_reported_ratio": reported / built if built else 0.0,
                "complexes.homotopy_system_cells": counts.get("complexes.homotopy_system_cells", 0),
                "complexes.decompose_per_fiber": calls.get("complexes.decompose", 0) / fibers if fibers else 0.0,
                "linalg.rref_cells": counts.get("linalg.rref_cells", 0),
                "linalg.max_coeff_bits": ledger.max_coeff_bits,
            }
        )
        return m

    passes = [layer_metrics(*p) for p in per_pass]
    timed, counted = passes[: len(traced)], passes[len(traced) :]
    metrics = {
        name: statistics.median(p[name] for p in timed) if name in LAYER_TIMES else counted[0][name]
        for name in counted[0]
    }
    metrics["trace.batch_s"] = statistics.median(p.cpu for p in traced)
    metrics["trace.untraced_batch_s"] = statistics.median(p.cpu for p in untraced)
    metrics["trace.overhead_ratio"] = metrics["trace.batch_s"] / metrics["trace.untraced_batch_s"]
    nondeterministic = sorted(
        name for name in DETERMINISTIC if any(p[name] != counted[0][name] for p in counted)
    )
    self_sum = [sum(p[0].values()) for p in per_pass[: len(traced)]]
    extra = {
        "passes": len(traced),
        "untraced_passes": len(untraced),
        "count_passes": len(counted),
        "traced_wall_s": statistics.median(p.wall for p in traced),
        "untraced_wall_s": statistics.median(p.wall for p in untraced),
        "self_time_sum_s": statistics.median(self_sum),
        "nondeterministic_counts": nondeterministic,
        "fail_ratio": ledger.failed / ledger.attempted,
        "spans_file": str(_write_spans(work, workload, seed, spans).relative_to(ROOT)),
    }
    return _result(work, ledger, metrics, PER_LAYER_UNITS, extra, ok=not nondeterministic)


def triples_checked(counts) -> int:
    """Triples visited by validate's associativity loop, from its measured
    composition lookups: the loop makes three per triple, after two per
    composable pair (closure check, outer loop) and four per arrow (unit
    and inverse laws)."""
    lookups = counts.get("groupoid.validate_compose_calls", 0)
    rest = 2 * counts.get("groupoid.validate_pairs", 0) + 4 * counts.get("groupoid.validate_arrows", 0)
    return max(lookups - rest, 0) // 3


def _write_spans(work, workload, seed, spans) -> Path:
    """One traced pass: spans by request index; ``requests`` names each request."""
    names = sorted({s[0] for s in spans})
    index = {n: i for i, n in enumerate(names)}
    t0 = spans[0][1] if spans else 0.0
    rows = [
        [index[name], round((start - t0) * 1e6, 1), round((end - t0) * 1e6, 1), parent, request]
        for name, start, end, parent, request in spans
    ]
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-seed{seed}.json"
    path.write_text(
        json.dumps(
            {
                "fields": ["name", "start_us", "end_us", "parent", "request"],
                "names": names,
                "requests": [
                    [work.docs[r.doc].name, r.command, r.arrow] for r in work.requests
                ],
                "spans": rows,
            }
        )
    )
    return path


def _result(work, ledger, metrics, units, extra, ok=True) -> dict:
    correct = ok and ledger.failed == 0 and not work.gate_failures
    return {
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "extra": dict(extra, gate_failures=work.gate_failures, failures=ledger.reasons[:20]),
        "sizes": work.sizes(),
    }


def environment(workload, seed, seconds, trace) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def run_one(workload, seed, seconds, trace) -> int:
    result = (measure_traced if trace else measure)(workload, seed, seconds)
    env = environment(workload, seed, seconds, trace)
    OUT.mkdir(exist_ok=True)
    (OUT / f"BENCH_{workload}_seed{seed}_trace{trace}.json").write_text(
        json.dumps(dict(result, environment=env), indent=2, sort_keys=True)
    )
    extra = result["extra"]
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(
        f"fail_ratio: {extra['fail_ratio']:.4g} ({result['failed']} of {result['attempted']} requests)"
    )
    if "doc_ms_tail_percentile" in extra:
        print(
            f"doc_ms_tail is p{extra['doc_ms_tail_percentile']:.1f} of {extra['samples']} requests"
            f" over {extra['passes']} passes; times are reference seconds (speed.py),"
            f" raw cpu: {json.dumps(extra['cpu'])}, wall: {json.dumps(extra['wall'])}"
        )
        print(f"peak_rss_mb reached in the {extra['peak_rss_reached_in']} phase: {json.dumps(extra['peak_rss_mb_after'])}")
    for reason in extra["failures"] + [f"fixture {g} differs from its golden report" for g in extra["gate_failures"]]:
        print(f"FAILED {reason}")
    if extra.get("nondeterministic_counts"):
        print(f"FAILED counts differ between traced passes: {extra['nondeterministic_counts']}")
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


def run_all(seed, seconds, trace) -> int:
    """Each workload in its own process, so that peak memory is its own."""
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for workload in gen.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            sys.stderr.write(proc.stderr)
            raise SetupError(f"{workload} exited with code {proc.returncode}")
        result = json.loads(lines[-1])
        totals["correct"] = totals["correct"] and result["correct"]
        totals["attempted"] += result["attempted"]
        totals["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            totals["metrics"][f"{workload}.{name}"] = m
            rows.append((workload, name, m["value"], m["unit"]))
        print(f"{workload}: correct={result['correct']}"
              f" fail_ratio={result['failed'] / result['attempted']:.4g}"
              f" ({result['failed']} of {result['attempted']} requests)")
    for workload, name, value, unit in rows:
        print(f"{workload:16s} {name:40s} {value:14.6g} {unit}")
    print(json.dumps(totals))
    return 0 if totals["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*gen.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds, args.trace)
        return run_one(args.workload, args.seed, args.seconds, args.trace)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
