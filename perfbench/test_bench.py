"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import check
import gen
import run
import speed

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def quick(monkeypatch):
    monkeypatch.setattr(run, "SETUPS", 1)
    monkeypatch.setattr(run, "MIN_PASSES", 2)
    monkeypatch.setattr(run, "LATENCY_PASSES", 2)


def test_benchmark_json_names_what_run_prints():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(gen.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER_UNITS


def test_same_seed_same_inputs():
    for workload in gen.WORKLOADS:
        first = [d.text for d in gen.build(workload, 5)[0]]
        assert first == [d.text for d in gen.build(workload, 5)[0]]
        assert first != [d.text for d in gen.build(workload, 6)[0]]


@pytest.mark.parametrize("workload", list(gen.WORKLOADS))
def test_workload_runs_clean(workload, quick):
    result = run.measure(workload, seed=0, seconds=0)
    assert result["correct"], result["extra"]
    assert result["failed"] == 0 and result["extra"]["fail_ratio"] == 0
    assert result["attempted"] == 3 * len(gen.build(workload, 0)[1])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def _first_report(workload, kind):
    work = run.Workload(workload, 0)
    serve = work.server()
    for i, r in enumerate(work.requests):
        if r.command == kind:
            code, _, text = serve(i)
            return work, i, code, text
    raise AssertionError(f"no {kind} request in {workload}")


def test_flipped_class_is_caught():
    work, i, code, text = _first_report("ruth-decide", "modular-class")
    doc, req = work.docs[work.requests[i].doc], work.requests[i]
    assert check.check(doc, req, code, text) is None
    report = json.loads(text)
    report["class"] = "nontrivial" if report["class"] == "trivial" else "trivial"
    assert check.check(doc, req, code, json.dumps(report)) is not None


def test_changed_berezinian_digit_is_caught():
    work, i, code, text = _first_report("ruth-construct", "berezinian")
    doc, req = work.docs[work.requests[i].doc], work.requests[i]
    assert check.check(doc, req, code, text) is None
    report = json.loads(text)
    report["value"] = str(Fraction(report["value"]) + 1)
    assert check.check(doc, req, code, json.dumps(report)) is not None


def test_replacement_that_is_not_homotopic_is_caught():
    work, i, code, text = _first_report("ruth-construct", "replace")
    doc, req = work.docs[work.requests[i].doc], work.requests[i]
    assert check.check(doc, req, code, text) is None
    report = json.loads(text)
    report["components"] = {d: [[str(-Fraction(x)) for x in row] for row in rows]
                            for d, rows in report["components"].items()}
    assert check.check(doc, req, code, json.dumps(report)) is not None


def test_report_differing_from_first_pass_counts_as_failed():
    work = run.Workload("groupoid-wide", 0)
    outcomes = run.run_pass(work, work.server()).outcomes
    ledger = run.Ledger(work, outcomes)
    assert ledger.failed == 0
    code, report, text = outcomes[0]
    ledger.add([(code, report, text.replace("\n", "\n ", 1))] + outcomes[1:])
    assert (ledger.attempted, ledger.failed) == (2 * len(outcomes), 1)


def test_fixture_gate_catches_a_changed_golden(tmp_path, monkeypatch):
    work = run.Workload("groupoid-wide", 0)
    assert run.fixture_gate(work.schema, work.cli) == []
    for name in run.FIXTURE_NAMES:
        shutil.copy(run.GOLDEN / f"{name}.modular-class.json", tmp_path)
    golden = tmp_path / "pair2.modular-class.json"
    golden.write_text(golden.read_text().replace('"trivial"', '"nontrivial"'))
    monkeypatch.setattr(run, "GOLDEN", tmp_path)
    assert run.fixture_gate(work.schema, work.cli) == ["pair2"]


def test_traced_run_accounts_for_the_batch(quick):
    result = run.measure_traced("ruth-construct", seed=0, seconds=0)
    assert result["correct"], result["extra"]
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    traced, untraced = result["extra"]["traced_wall_s"], result["extra"]["untraced_wall_s"]
    # self times partition the request spans, which fill the pass but for loop upkeep
    gap = abs(result["extra"]["self_time_sum_s"] - traced)
    assert gap <= max(traced - untraced, 0.0) + 0.02 * traced
    assert metrics["complexes.decompose_per_fiber"] == 2
    assert metrics["reps.certificates_reported_ratio"] == 1
    assert metrics["complexes.null_homotopy_calls"] == metrics["reps.certificates_built"] > 0


def test_triples_counted_from_validate_match_the_construction():
    work = run.Workload("groupoid-wide", 0)
    serve = work.server()
    tracer = run.Tracer()
    tracer.install()
    tracer.count_lookups()
    try:
        tracer.begin_request(0)
        serve(0)
    finally:
        tracer.uninstall()
    assert tracer.calls["groupoid.validate"] == 1
    assert run.triples_checked(tracer.counts) == work.docs[work.requests[0].doc].sizes["triples"] > 0


def test_counts_repeat_between_processes():
    def counts():
        proc = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload", "ruth-construct",
             "--seed", "3", "--seconds", "0", "--trace", "1"],
            capture_output=True, text=True, timeout=300, check=True,
        )
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        return {name: metrics[name]["value"] for name in run.DETERMINISTIC}

    assert counts() == counts()


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ruth-decide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert not (tmp_path / ".bench_out").exists()


def test_speed_bursts_run_none_of_the_program():
    code = (
        "import sys; sys.path.insert(0, 'perfbench'); import speed;"
        " assert speed.burst() > 0;"
        " assert not [m for m in sys.modules if m.split('.')[0] == 'modclass']"
    )
    subprocess.run([sys.executable, "-c", code], cwd=run.ROOT, check=True, timeout=60)


def test_calibrated_pass_scales_each_request_by_the_bursts_around_it():
    ref = speed.REF_BURST_S
    p = run.Pass([0.5, 0.7], [0.4, 0.6], [ref / 2, ref / 2, ref], [None, None])
    assert p.doc_ref == pytest.approx([0.8, 0.8]) and p.ref == pytest.approx(1.6)


def test_tail_percentile_is_set_by_the_base_not_the_sample_count():
    samples = list(range(100))
    assert run.tail(samples, 100) == (89, 90.0)
    assert run.tail(samples, 50) == (79, 80.0)
    assert run.tail(samples[:50], 50) == (39, 80.0)
    assert run.tail(samples, 8) == (99, 100.0)
