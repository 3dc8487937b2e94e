"""Span tracing of carlevel's public entry points, for the per-layer run.

The tracer replaces module and class attributes that the benchmark's ops
reach (the names the CLI and run_all_checks look up at call time) with
wrappers that record spans: name, op id, start, end and parent.  Nothing in
the program changes; the wrappers are installed for a traced pass and
removed after it.  An entry point that no longer exists is reported as
missing, and the metrics that depend on it come out as absent.

The closed form is called hundreds of thousands of times per grid
certificate, so its calls are counted and timed in aggregate instead of
becoming spans; their time is still subtracted from the enclosing span's
self time.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Set, Tuple

# (module, attribute, span name).  A span name's layer is its first component.
SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("carlevel.cli", "main", "cli.main"),
    ("carlevel.extremal", "LevelSetDP.table", "extremal.table"),
    ("carlevel.extremal", "LevelSetDP.max_levelset", "extremal.search"),
    ("carlevel.extremal", "LevelSetDP.convergence", "extremal.convergence"),
    ("carlevel.cli", "run_all_checks", "supersolution.run_all"),
    ("carlevel.supersolution", "run_all_checks", "supersolution.run_all"),
    ("carlevel.supersolution", "check_obstacle", "supersolution.obstacle"),
    ("carlevel.supersolution", "check_midpoint_concavity", "supersolution.concavity"),
    ("carlevel.supersolution", "check_jump", "supersolution.jump"),
    ("carlevel.supersolution", "check_main_inequality", "supersolution.main"),
    ("carlevel.supersolution", "induction_trace", "supersolution.trace"),
    ("carlevel.cli", "candidate_surface", "candidate.surface"),
    ("carlevel.candidate", "candidate_surface", "candidate.surface"),
    ("carlevel.sequences", "random_carleson", "sequences.random"),
    ("carlevel.sequences", "CarlesonSeq.from_json", "sequences.from_json"),
    ("carlevel.sequences", "CarlesonSeq.to_json", "sequences.to_json"),
    ("carlevel.sequences", "CarlesonSeq.to_json_dict", "sequences.to_json"),
    ("carlevel.cli", "carleson_constant", "sequences.constant"),
    ("carlevel.sequences", "carleson_constant", "sequences.constant"),
    ("carlevel.sequences", "CarlesonSeq.sparse_generations", "sequences.generations"),
    ("carlevel.sequences", "CarlesonSeq.generation_measure", "sequences.generations"),
    ("carlevel.sequences", "CarlesonSeq.level_set_measure", "sequences.generations"),
    ("carlevel.sequences", "CarlesonSeq.truncate", "sequences.truncate"),
    ("carlevel.cli", "construct_admissible", "construct.admissible"),
    ("carlevel.construct", "construct_admissible", "construct.admissible"),
)

# Entry points counted and timed in aggregate: (module, attribute, name).
COUNTED: Tuple[Tuple[str, str, str], ...] = (
    ("carlevel.candidate", "candidate_eval", "candidate.eval"),
    ("carlevel.extremal", "candidate_eval", "candidate.eval"),
    ("carlevel.cli", "candidate_eval", "candidate.eval"),
)

# Spans whose first argument is the evaluated function; its calls are counted.
FN_ARG_SPANS = {"supersolution.run_all": "supersolution.fn_eval"}


class Tracer:
    """Records spans in memory while installed; one instance per traced pass."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.ops: List[int] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.child_s: List[float] = []
        self.calls: Dict[str, List[float]] = {}  # name -> [count, seconds]
        self.op = -1
        self.present: Set[str] = set()
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.ops.append(self.op)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.child_s.append(0.0)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        end = time.perf_counter()
        self.ends[idx] = end
        self._stack.pop()
        parent = self.parents[idx]
        if parent >= 0:
            self.child_s[parent] += end - self.starts[idx]

    @contextmanager
    def op_span(self, op: int):
        """The root span of one op; spans opened inside it carry its id."""
        self.op = op
        idx = self._open("bench.op")
        try:
            yield
        finally:
            self._close(idx)

    def _span_wrapper(self, name: str, fn: Callable) -> Callable:
        tracer = self
        counted_arg = FN_ARG_SPANS.get(name)

        def traced(*args, **kwargs):
            stack = tracer._stack
            # A same-named call nested directly inside (to_json calling
            # to_json_dict, say) is part of the outer span's busy time.
            if stack and tracer.names[stack[-1]] == name:
                return fn(*args, **kwargs)
            if counted_arg is not None and args:
                args = (tracer._count_calls(counted_arg, args[0]),) + args[1:]
            idx = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        return traced

    def _count_calls(self, name: str, fn: Callable) -> Callable:
        cell = self.calls.setdefault(name, [0, 0.0])

        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return counted

    def _timed_wrapper(self, name: str, fn: Callable) -> Callable:
        cell = self.calls.setdefault(name, [0, 0.0])
        stack, child_s = self._stack, self.child_s
        clock = time.perf_counter

        def timed(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                cell[0] += 1
                cell[1] += elapsed
                if stack:
                    child_s[stack[-1]] += elapsed

        return timed

    # -- installation ---------------------------------------------------------

    def _patch(self, module_name: str, path: str, make: Callable[[Callable], Callable]) -> bool:
        try:
            owner = importlib.import_module(module_name)
            *outer, key = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = owner.__dict__[key] if isinstance(owner, type) else getattr(owner, key)
        except (ImportError, AttributeError, KeyError):
            return False
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(make(raw.__func__))
        elif callable(raw):
            replacement = make(raw)
        else:
            return False
        setattr(owner, key, replacement)
        self._saved.append((owner, key, raw))
        return True

    def install(self) -> None:
        for module_name, path, name in SPANS:
            if self._patch(module_name, path, lambda fn, n=name: self._span_wrapper(n, fn)):
                self.present.add(name)
        for module_name, path, name in COUNTED:
            if self._patch(module_name, path, lambda fn, n=name: self._timed_wrapper(n, fn)):
                self.present.add(name)
        for span, counted in FN_ARG_SPANS.items():
            if span in self.present:
                self.present.add(counted)

    def uninstall(self) -> None:
        while self._saved:
            owner, key, raw = self._saved.pop()
            setattr(owner, key, raw)

    # -- reading --------------------------------------------------------------

    def duration(self, idx: int) -> float:
        return self.ends[idx] - self.starts[idx]

    def busy(self, name: str, parent_name: str = "", exclude_parent: str = "") -> float:
        """Total time in spans called name, optionally filtered by their parent's name."""
        total = 0.0
        for idx, span in enumerate(self.names):
            if span != name:
                continue
            parent = self.parents[idx]
            pname = self.names[parent] if parent >= 0 else ""
            if parent_name and pname != parent_name:
                continue
            if exclude_parent and pname == exclude_parent:
                continue
            total += self.duration(idx)
        return total

    def layer_self(self, layer: str) -> float:
        """Time in the layer's spans not covered by child spans or counted calls."""
        prefix = layer + "."
        total = sum(self.duration(i) - self.child_s[i]
                    for i, name in enumerate(self.names) if name.startswith(prefix))
        total += sum(cell[1] for name, cell in self.calls.items() if name.startswith(prefix))
        return total

    def count(self, name: str) -> int:
        return int(self.calls.get(name, [0, 0.0])[0])

    def seconds(self, name: str) -> float:
        return self.calls.get(name, [0, 0.0])[1]

    def op_durations(self, name: str, ops: Set[int]) -> List[float]:
        return [self.duration(i) for i, span in enumerate(self.names)
                if span == name and self.ops[i] in ops]

    def dump(self) -> List[Dict]:
        return [{"name": self.names[i], "op": self.ops[i], "start": self.starts[i],
                 "end": self.ends[i], "parent": self.parents[i]}
                for i in range(len(self.names))]
