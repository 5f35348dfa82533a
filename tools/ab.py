#!/usr/bin/env python3
"""Write the A/B record of two modclass revisions: perfbench pairs and ab_passes.

    python3 tools/ab.py PARENT CHANGE --pairs 10 --seconds 5 --seeds 41 42 43 44 45

PARENT and CHANGE are revisions of this git repository.  Each is copied
with ``git archive`` into a fresh directory, which holds no ``__pycache__``.
Then ``--pairs`` pairs of ``perfbench/run.py --workload all`` run, each
run in its own process with ``PYTHONDONTWRITEBYTECODE=1`` and from its
own copy; PARENT goes first in the even pairs and CHANGE in the odd ones,
and pair ``i`` uses seed ``seeds[i % len(seeds)]``.  Then this checkout's
``tools/ab_passes.py`` compares the two copies on every workload, at each
of ``--passes-seeds``.

The record goes to ``BENCH_ab_<short CHANGE sha>.json`` (in ``--out``, the
repository root by default).  For every end-to-end metric it holds both
sides' value in each pair, the ratio CHANGE/PARENT in each pair, their
median, the number of pairs where CHANGE is lower, and the quartile
of each side's values; for every run,
whether it was ``correct`` and how many requests failed; and the
``ab_passes`` median ratios, the seeds, the host's CPU count and the
Python version.  The tool changes no workload, counter or bound.  It
exits with 1 when a run is not correct or ``ab_passes`` finds a report
that differs.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def archive(sha: str, into: Path) -> Path:
    """A ``git archive`` copy of ``sha`` under ``into``, with no ``__pycache__``."""
    tar = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", sha], check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archived:
        archived.extractall(into, filter="data")
    for cache in list(into.rglob("__pycache__")):
        shutil.rmtree(cache)
    return into


def perfbench(checkout: Path, seed: int, seconds: float) -> dict:
    """The last line of ``perfbench/run.py --workload all`` run from ``checkout``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", "all",
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, env=env, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: perfbench exited with code {proc.returncode} in {checkout}")
    return json.loads(lines[-1])


def ab_passes(parent: Path, change: Path, workload: str, seed: int, rounds: int) -> dict:
    """``tools/ab_passes.py``'s verdict on one workload and seed, read off its output."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_passes.py"), str(parent), str(change),
         "--workload", workload, "--seed", str(seed), "--rounds", str(rounds)],
        env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        return {"identical": False, "error": proc.stderr.strip()}
    out = proc.stdout
    ratio = re.search(r"median ratio CHANGE/PARENT over rounds: (\S+)", out)
    faster = re.search(r"CHANGE faster in (\d+) of (\d+) rounds", out)
    return {
        "identical": True,
        "median_ratio": float(ratio.group(1)),
        "change_faster": int(faster.group(1)),
        "rounds": int(faster.group(2)),
    }


def quartiles(values: list[float]) -> list[float] | None:
    """``[q1, median, q3]`` of ``values``, or None for fewer than two."""
    if len(values) < 2:
        return None
    return statistics.quantiles(values, n=4, method="inclusive")


def build_record(meta: dict, pairs: list[dict], passes: dict) -> dict:
    """The A/B record of ``pairs``, each ``{"seed", "first", "parent", "change"}``
    with a side's ``perfbench/run.py --workload all`` result, and of the
    ``ab_passes`` verdicts ``passes``, by workload and seed."""
    names = list(pairs[0]["parent"]["metrics"]) if pairs else []
    metrics = {}
    for name in names:
        parent = [p["parent"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["metrics"][name]["value"] for p in pairs]
        ratios = [c / p if p else None for p, c in zip(parent, change)]
        known = [r for r in ratios if r is not None]
        p_q, c_q = quartiles(parent), quartiles(change)
        metrics[name] = {
            "unit": pairs[0]["parent"]["metrics"][name]["unit"],
            "parent": parent,
            "change": change,
            "ratios": ratios,
            "median_ratio": statistics.median(known) if known else None,
            "pairs_lower": sum(c < p for p, c in zip(parent, change)),
            "parent_quartiles": p_q,
            "change_quartiles": c_q,
            # the parent's quartile distance over its median
            "parent_spread": (p_q[2] - p_q[0]) / p_q[1] if p_q and p_q[1] else None,
            # the change's median below the parent's by more than that distance
            "lower_beyond_parent_spread": bool(p_q) and p_q[1] - c_q[1] > p_q[2] - p_q[0],
        }
    runs = [
        {
            "seed": p["seed"],
            "first": p["first"],
            **{side: {k: p[side][k] for k in ("correct", "attempted", "failed")} for side in SIDES},
        }
        for p in pairs
    ]
    every_run_correct = all(r[side]["correct"] and not r[side]["failed"] for r in runs for side in SIDES)
    identical = all(v["identical"] for by_seed in passes.values() for v in by_seed.values())
    return {
        **meta,
        "pairs": len(pairs),
        "every_run_correct": every_run_correct,
        "runs": runs,
        "metrics": metrics,
        "ab_passes": {"every_report_identical": identical, "by_workload": passes},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--seeds", type=int, nargs="+", default=[41, 42, 43, 44, 45])
    parser.add_argument("--passes-rounds", type=int, default=30)
    parser.add_argument("--passes-seeds", type=int, nargs="*", default=[12, 13])
    parser.add_argument("--out", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    shas = {side: git("rev-parse", "--verify", f"{rev}^{{commit}}")
            for side, rev in zip(SIDES, (args.parent, args.change))}
    with tempfile.TemporaryDirectory(prefix="modclass-ab-") as work:
        copies = {side: archive(sha, Path(work) / side) for side, sha in shas.items()}
        pairs = []
        for i in range(args.pairs):
            seed = args.seeds[i % len(args.seeds)]
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = perfbench(copies[side], seed, args.seconds)
            pairs.append(pair)
            print(f"pair {i + 1} of {args.pairs} (seed {seed}, {order[0]} first):"
                  f" correct {pair['parent']['correct']}/{pair['change']['correct']}", flush=True)
        workloads = list(dict.fromkeys(name.split(".")[0] for name in pairs[0]["parent"]["metrics"]))
        passes = {
            w: {str(s): ab_passes(copies["parent"], copies["change"], w, s, args.passes_rounds)
                for s in args.passes_seeds}
            for w in workloads
        }
    meta = {
        "parent": shas["parent"],
        "change": shas["change"],
        "src_trees": {side: git("rev-parse", f"{sha}:src") for side, sha in shas.items()},
        "command": f"perfbench/run.py --workload all --seconds {args.seconds:g}",
        "seconds": args.seconds,
        "seeds": [p["seed"] for p in pairs],
        "passes_rounds": args.passes_rounds,
        "passes_seeds": args.passes_seeds,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
    }
    record = build_record(meta, pairs, passes)
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"BENCH_ab_{shas['change'][:7]}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    for name, m in record["metrics"].items():
        print(f"{name:40s} median ratio {m['median_ratio']}, lower in {m['pairs_lower']} of {len(pairs)}")
    return 0 if record["every_run_correct"] and record["ab_passes"]["every_report_identical"] else 1


if __name__ == "__main__":
    sys.exit(main())
