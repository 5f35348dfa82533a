"""A short end-to-end run of ``tools/ab.py``: one checkout against itself.

    python -m pytest tools/test_ab_smoke.py

One pair at ``--seconds 1`` and one ``ab_passes`` round; it takes about a
minute, so it is not collected with the tests under ``tests/``.
"""

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)


def test_a_revision_against_itself(tmp_path):
    argv = ["HEAD", "HEAD", "--pairs", "1", "--seconds", "1", "--seeds", "3",
            "--passes-rounds", "1", "--passes-seeds", "3", "--out", str(tmp_path)]
    assert ab.main(argv) == 0
    (path,) = tmp_path.glob("BENCH_ab_*.json")
    record = json.loads(path.read_text())
    assert record["parent"] == record["change"] == ab.git("rev-parse", "HEAD")
    assert path.name == f"BENCH_ab_{record['change'][:7]}.json"
    assert record["every_run_correct"] and record["ab_passes"]["every_report_identical"]
    workloads = {name.split(".")[0] for name in record["metrics"]}
    assert set(record["ab_passes"]["by_workload"]) == workloads
    assert all(len(m["ratios"]) == 1 for m in record["metrics"].values())
