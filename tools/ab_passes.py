#!/usr/bin/env python3
"""Alternate whole benchmark passes of two modclass checkouts in one process.

    python3 tools/ab_passes.py PARENT CHANGE --workload ruth-construct --seed 12 --rounds 20

PARENT and CHANGE are checkout roots.  Each one's ``src/modclass`` is
loaded under its own package name, so both run in this process, on the
documents and requests that this repository's ``perfbench/gen.py`` builds
for the workload and seed.  A request goes the way ``perfbench/run.py``
serves it: ``json.loads``, ``schema.parse_data``, ``cli.run`` and the JSON
report.

First every request runs once on each side; if any request gives another
exit code or report, the first such request is named and the tool exits
with 1.  Then each round times one whole pass of each side in CPU seconds
of this process, after a garbage collection, and the side that goes first
switches from one round to the next.  The tool prints both medians, the
median over rounds of the ratio CHANGE/PARENT and the number of rounds
CHANGE was faster.
It is meant for effects below the run-to-run noise of ``perfbench/run.py``
(a few percent), beside that benchmark, not in place of it.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load(name: str, path: Path, package_dir: Path | None = None):
    """The module at ``path`` imported as ``name``; a package when ``package_dir`` is given."""
    locations = None if package_dir is None else [str(package_dir)]
    spec = importlib.util.spec_from_file_location(name, path, submodule_search_locations=locations)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_side(checkout: Path, name: str):
    """``checkout``'s ``schema`` and ``cli`` modules, its package imported as ``name``."""
    package = checkout / "src" / "modclass"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no modclass source tree at {package}")
    _load(name, package / "__init__.py", package)
    return importlib.import_module(f"{name}.schema"), importlib.import_module(f"{name}.cli")


def pass_runner(side, docs, requests):
    """A function that serves every request once and returns ``(code, report)`` for each."""
    schema, cli = side
    work = [
        (
            r.command,
            docs[r.doc].text,
            argparse.Namespace(
                command=r.command, input=docs[r.doc].name + ".json", fmt="json", arrow=r.arrow
            ),
        )
        for r in requests
    ]

    def run_pass():
        outcomes = []
        for command, text, args in work:
            try:
                report, code = cli.run(command, schema.parse_data(json.loads(text)), args)
                outcomes.append((code, report.to_json()))
            except Exception as exc:  # compared like a report
                outcomes.append((None, f"{type(exc).__name__}: {exc}"))
        return outcomes

    return run_pass


def first_difference(requests, parent, change) -> str | None:
    """The first request whose outcome differs between the two sides, worded, or None."""
    for i, (r, a, b) in enumerate(zip(requests, parent, change)):
        if a != b:
            what = " ".join(filter(None, (r.command, r.arrow)))
            return f"request {i} ({what} on document {r.doc}) differs"
    return None


def timed(run_pass) -> float:
    gc.collect()
    start = time.process_time()
    run_pass()
    return time.process_time() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, default=20)
    args = parser.parse_args(argv)
    gen = _load("_ab_perfbench_gen", ROOT / "perfbench" / "gen.py")
    if args.workload not in gen.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(gen.WORKLOADS)}")
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    docs, requests = gen.build(args.workload, args.seed)
    sides = {
        "PARENT": pass_runner(load_side(args.parent, "_ab_parent_modclass"), docs, requests),
        "CHANGE": pass_runner(load_side(args.change, "_ab_change_modclass"), docs, requests),
    }
    problem = first_difference(requests, sides["PARENT"](), sides["CHANGE"]())
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 1
    print(f"{args.workload} seed {args.seed}: {len(requests)} requests, identical on both sides")
    times = {name: [] for name in sides}
    for k in range(args.rounds):
        order = ("PARENT", "CHANGE") if k % 2 == 0 else ("CHANGE", "PARENT")
        for name in order:
            times[name].append(timed(sides[name]))
    medians = {name: statistics.median(t) for name, t in times.items()}
    pairs = list(zip(times["PARENT"], times["CHANGE"]))
    ratio = statistics.median(c / p for p, c in pairs)
    for name, m in medians.items():
        print(f"{name} median pass: {m * 1000:.2f} ms CPU")
    print(f"median ratio CHANGE/PARENT over rounds: {ratio:.3f}")
    won = sum(c < p for p, c in pairs)
    print(f"CHANGE faster in {won} of {args.rounds} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
