"""Spans around modclass's layers, recorded from outside the package.

``Tracer.install`` wraps every public function of the layer modules, plus a
few methods, at the module that defines it and at every module that bound
it with ``from .x import``.  Each call records a span (name, start, end,
parent span, request id) in memory and adds its self time, its duration
minus that of its child spans, to a per-name total.  Hooks add counts of
work at the same boundaries; ``Tracer.count_lookups`` adds one below them.
Nothing in modclass changes.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("linalg", "complexes", "groupoid", "reps", "schema", "cli")
METHODS = (
    ("linalg", "Matrix", "__mul__"),
    ("groupoid", "FiniteGroupoid", "composable_pairs"),
    ("cli", "ReportDocument", "to_json"),
)


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1, request)
        self.self_s: defaultdict = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.request = None  # index of the request being served
        self.fibers: set = set()  # fibers decomposed while serving it
        self._stack: list = []  # [span index, seconds spent in children, name]
        self._patches: list = []  # (owner, attribute, original)

    def reset(self) -> None:
        self.spans.clear()
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()

    def begin_request(self, index) -> None:
        self.request = index
        self.fibers = set()

    def end_request(self) -> None:
        self.counts["complexes.distinct_fibers"] += len(self.fibers)

    def wrap(self, name, fn, before=None, after=None):
        """``fn`` recording a span; ``before(args)``/``after(args, result)`` count work."""
        spans, stack, self_s, calls = self.spans, self._stack, self.self_s, self.calls
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            frame = [len(spans), 0.0, name]
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                spans[frame[0]] = (name, start, end, parent, tracer.request)
                self_s[name] += duration - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += duration
            if after is not None:
                after(args, result)
            return result

        return traced

    def _inside(self, span) -> bool:
        return bool(self._stack) and self._stack[-1][2] == span

    def _hooks(self) -> dict:
        counts = self.counts

        def rref_cells(args):
            counts["linalg.rref_cells"] += args[0].rows * args[0].cols

        def system_cells(args):
            # the global system null_homotopy hands to solve
            if self._inside("complexes.null_homotopy"):
                counts["complexes.homotopy_system_cells"] += args[0].rows * args[0].cols

        def fiber(args):
            self.fibers.add(args[0])

        def validate_pairs(args, result):
            if self._inside("groupoid.validate"):
                counts["groupoid.validate_pairs"] += len(result)

        def validate_arrows(args, result):
            counts["groupoid.validate_arrows"] += len(args[0].arrows)

        def certificates(args, result):
            counts["reps.certificates_built"] += len(result.certificates)

        return {
            "linalg.rref": (rref_cells, None),
            "linalg.solve": (system_cells, None),
            "complexes.decompose": (fiber, None),
            "groupoid.FiniteGroupoid.composable_pairs": (None, validate_pairs),
            "groupoid.validate": (None, validate_arrows),
            "reps.verify_ruth": (None, certificates),
        }

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "modclass" or n.startswith("modclass.")]
        hooks = self._hooks()
        wrapped = {}  # id(original) -> wrapper
        for layer in LAYERS:
            module = sys.modules[f"modclass.{layer}"]
            for attr, fn in list(vars(module).items()):
                if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not attr.startswith("_"):
                    name = f"{layer}.{attr}"
                    wrapped[id(fn)] = (fn, self.wrap(name, fn, *hooks.get(name, (None, None))))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped and wrapped[id(value)][0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapped[id(value)][1])
        for layer, cls_name, attr in METHODS:
            cls = getattr(sys.modules[f"modclass.{layer}"], cls_name)
            original = cls.__dict__[attr]
            name = f"{layer}.{cls_name}.{attr}"
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self.wrap(name, original, *hooks.get(name, (None, None))))

    def count_lookups(self) -> None:
        """Count ``FiniteGroupoid.compose`` calls made directly by ``groupoid.validate``.

        They are too many for spans, and counting them costs validate a
        large share of its time, so passes that count them are not timed.
        """
        cls = sys.modules["modclass.groupoid"].FiniteGroupoid
        compose, stack, counts = cls.compose, self._stack, self.counts

        @functools.wraps(compose)
        def counted(gpd, g, h):
            if stack and stack[-1][2] == "groupoid.validate":
                counts["groupoid.validate_compose_calls"] += 1
            return compose(gpd, g, h)

        self._patches.append((cls, "compose", compose))
        cls.compose = counted

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
