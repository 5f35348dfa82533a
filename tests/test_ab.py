"""``tools/ab.py`` builds its record from the pairs of runs it is given."""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)

META = {"parent": "p" * 40, "change": "c" * 40, "seeds": [1, 2, 1, 2]}


def run(batch_s: float, rss: float, failed: int = 0) -> dict:
    # one side's ``perfbench/run.py --workload all`` result
    return {
        "correct": True,
        "attempted": 8,
        "failed": failed,
        "metrics": {
            "w.batch_s": {"value": batch_s, "unit": "s"},
            "w.peak_rss_mb": {"value": rss, "unit": "MB"},
        },
    }


def pairs(parent: list[float], change: list[float], failed: int = 0) -> list[dict]:
    return [
        {"seed": seed, "first": ab.SIDES[i % 2], "parent": run(p, 50.0), "change": run(c, 50.0, failed)}
        for i, (seed, p, c) in enumerate(zip(META["seeds"], parent, change))
    ]


PASSES = {"w": {"12": {"identical": True, "median_ratio": 0.9, "change_faster": 27, "rounds": 30}}}


def test_each_metric_keeps_its_pairs_ratios_and_lower_count():
    record = ab.build_record(META, pairs([1.0, 2.0, 4.0, 2.0], [0.5, 2.0, 5.0, 1.0]), PASSES)
    batch = record["metrics"]["w.batch_s"]
    assert batch["unit"] == "s"
    assert batch["parent"] == [1.0, 2.0, 4.0, 2.0]
    assert batch["change"] == [0.5, 2.0, 5.0, 1.0]
    assert batch["ratios"] == [0.5, 1.0, 1.25, 0.5]
    assert batch["median_ratio"] == 0.75
    assert batch["pairs_lower"] == 2
    # the "inclusive" quartiles: the parent's median 2 is not below by more
    # than its own quartile distance 0.75, and the change's median 1.5 is not
    # below 2 by more than that either
    assert batch["parent_quartiles"] == [1.75, 2.0, 2.5]
    assert batch["change_quartiles"] == [0.875, 1.5, 2.75]
    assert batch["parent_spread"] == pytest.approx(0.375)
    assert not batch["lower_beyond_parent_spread"]
    rss = record["metrics"]["w.peak_rss_mb"]
    assert (rss["ratios"], rss["pairs_lower"], rss["parent_spread"]) == ([1.0] * 4, 0, 0.0)
    assert not rss["lower_beyond_parent_spread"]
    assert record["pairs"] == 4 and record["seeds"] == [1, 2, 1, 2]
    assert [r["first"] for r in record["runs"]] == ["parent", "change", "parent", "change"]
    assert record["runs"][0]["change"] == {"correct": True, "attempted": 8, "failed": 0}
    assert record["every_run_correct"]
    assert record["ab_passes"] == {"every_report_identical": True, "by_workload": PASSES}


def test_a_change_below_the_parent_spread_is_named():
    record = ab.build_record(META, pairs([2.0, 2.1, 1.9, 2.0], [1.5, 1.6, 1.4, 1.5]), PASSES)
    batch = record["metrics"]["w.batch_s"]
    assert batch["pairs_lower"] == 4
    assert batch["lower_beyond_parent_spread"]


def test_a_failed_request_or_a_differing_report_is_flagged():
    failing = ab.build_record(META, pairs([1.0] * 4, [1.0] * 4, failed=1), PASSES)
    assert not failing["every_run_correct"]
    differing = {"w": {"12": {"identical": False, "error": "error: request 3 differs"}}}
    record = ab.build_record(META, pairs([1.0] * 4, [1.0] * 4), differing)
    assert record["every_run_correct"]
    assert not record["ab_passes"]["every_report_identical"]


def test_one_pair_has_no_spread():
    record = ab.build_record(META, pairs([1.0], [1.0]), {})
    batch = record["metrics"]["w.batch_s"]
    assert batch["parent_quartiles"] is None and batch["parent_spread"] is None
    assert not batch["lower_beyond_parent_spread"]
    assert record["ab_passes"] == {"every_report_identical": True, "by_workload": {}}
