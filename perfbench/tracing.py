"""Per-layer tracing from outside the package.

Wrappers go around public wardrop functions and methods.  Each wrapper is
installed in every ``wardrop.*`` module namespace that binds the original
object, so calls one module makes into another through its module globals
are caught too.  No private function is patched.

A span records (name, start, end, parent, op id).  Spans stay in memory and
are written out when the run ends.  Hot calls are counted, never spanned:
``LatencyFn.__call__``, ``GameInstance.resource_index`` and ``tau_rel``.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict

import wardrop as W
import wardrop.bounds
import wardrop.cli
import wardrop.core
import wardrop.equilibria
import wardrop.graphs
import wardrop.jsonio
import wardrop.matroid

# span name -> public functions, as (module, attribute)
SPANNED = {
    "core.validate_instance": [(wardrop.core, "validate_instance")],
    "core.strategy_latencies": [(wardrop.core, "strategy_latencies")],
    "core.social_cost": [(wardrop.core, "social_cost")],
    "equilibria.compute_nash_flow": [(wardrop.equilibria, "compute_nash_flow")],
    "equilibria.verify": [(wardrop.equilibria, "verify_approx_nash"),
                          (wardrop.equilibria, "verify_deviated_nash")],
    "equilibria.heterogeneous": [(wardrop.equilibria, "heterogeneous_parallel_equilibrium")],
    "graphs.compute_alternating_path": [(wardrop.graphs, "compute_alternating_path")],
    "graphs.enumerate_st_paths": [(wardrop.graphs, "enumerate_st_paths")],
    "graphs.generators": [(wardrop.graphs, name) for name in (
        "gen_braess_subcritical", "gen_braess_supercritical", "gen_two_arc_dr",
        "gen_parallel_sr", "gen_random_sp")] + [(wardrop.matroid, "gen_matroid_unbounded")],
    "bounds": [(wardrop.bounds, name) for name in (
        "sr_bound_discrete", "dr_bound_discrete", "sr_bound_continuous",
        "dr_bound_continuous", "discretize_density", "stability_upper", "braess_sup",
        "matroid_dr_bound", "matroid_sr_lower")],
    "jsonio.read": [(wardrop.jsonio, "read_instance"), (wardrop.jsonio, "read_flow")],
    "jsonio.write": [(wardrop.jsonio, name) for name in (
        "write_instance", "write_flow", "dumps_canonical")],
    "cli.gen": [(wardrop.cli, "cmd_gen")],
    "cli.analyze": [(wardrop.cli, "cmd_analyze")],
    "cli.sweep": [(wardrop.cli, "cmd_sweep")],
}

TALLIES = ("latency.eval_calls", "core.resource_index.calls", "tolerances.tau_rel.calls",
           "equilibria.heterogeneous.fail", "jsonio.bytes")


class Tally:
    """Counter safe across threads: ``next`` on itertools.count is atomic in
    CPython, so the hot path takes no lock."""

    def __init__(self):
        self._count = itertools.count()
        self.incr = self._count.__next__
        self._lock = threading.Lock()
        self._added = 0
        self._reads = 0  # each read takes one value from the count
        self._last = 0

    def add(self, n: int) -> None:
        with self._lock:
            self._added += n

    def read(self) -> int:
        """Total since the previous read."""
        with self._lock:
            total = next(self._count) - self._reads
            self._reads += 1
            value = total - self._last + self._added
            self._last = total
            self._added = 0
        return value


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent span, op id]
        self.op = "setup"
        self.tallies = {name: Tally() for name in TALLIES}
        self.counts: dict[str, dict[str, int]] = {}  # pass label -> tally totals
        self._local = threading.local()
        self._main_stack: list = []
        self._local.stack = self._main_stack
        self._undo: list[tuple] = []

    # -- recording -------------------------------------------------------------

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def spanned(self, name, fn, name_of=None, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            # a span opened on a worker thread hangs under the main thread's span
            parent = stack[-1] if stack else (tracer._main_stack[-1] if tracer._main_stack else None)
            span = [name_of(kwargs) if name_of else name, time.perf_counter(), None,
                    parent, tracer.op]
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except W.ConvergenceError:
                if name == "equilibria.heterogeneous":
                    tracer.tallies["equilibria.heterogeneous.fail"].incr()
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def close_pass(self, label: str) -> None:
        """Attribute the tallies since the previous call to ``label``."""
        self.counts[label] = {name: t.read() for name, t in self.tallies.items()}

    # -- installation ------------------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        for name, module in list(sys.modules.items()):
            if name != "wardrop" and not name.startswith("wardrop."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def _patch_class(self, cls, attr, replacement) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def install(self) -> None:
        add_bytes = self.tallies["jsonio.bytes"].add
        after = {
            "read_instance": lambda args, _r: add_bytes(os.path.getsize(args[0])),
            "read_flow": lambda args, _r: add_bytes(os.path.getsize(args[0])),
            "dumps_canonical": lambda _a, result: add_bytes(len(result)),
        }
        for span_name, targets in SPANNED.items():
            for module, attr in targets:
                original = getattr(module, attr)
                self._rebind(original, self.spanned(span_name, original, after=after.get(attr)))
        verify = wardrop.matroid.verify_matroid_deviated
        self._rebind(verify, self.spanned(
            "matroid.verify", verify,
            name_of=lambda kwargs: f"matroid.verify_{kwargs.get('method', 'swap')}"))
        build = W.Flow.__dict__["build"].__func__
        self._patch_class(W.Flow, "build", classmethod(self.spanned("core.flow_build", build)))
        for cls, attr, tally in ((W.LatencyFn, "__call__", "latency.eval_calls"),
                                 (W.GameInstance, "resource_index", "core.resource_index.calls")):
            self._patch_class(cls, attr, _counted(cls.__dict__[attr], self.tallies[tally].incr))
        self._rebind(W.tau_rel, _counted(W.tau_rel, self.tallies["tolerances.tau_rel.calls"].incr))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reduction -----------------------------------------------------------------

    def totals(self, label: str) -> dict[str, float]:
        """Per-layer counts and seconds over the spans of one pass label.

        ``NAME.s`` is inclusive time, counted once where a layer calls
        itself; ``NAME.self_s`` excludes time in child spans (floored at
        zero where children ran on several threads at once).  The swap
        check of ``verify_matroid_deviated`` cross-checks itself with a
        nested full check: ``matroid.verify_swap.s`` leaves that out, so it
        does not overlap ``matroid.verify_full.s``.
        """
        out: dict[str, float] = defaultdict(float)
        child_time: dict[int, float] = defaultdict(float)
        nested_full: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span[3] is not None:
                child_time[id(span[3])] += span[2] - span[1]
                if span[0] == "matroid.verify_full" and span[3][0] == "matroid.verify_swap":
                    nested_full[id(span[3])] += span[2] - span[1]
        for span in self.spans:
            name, start, end, parent, op = span
            if op.split("/")[0] != label:
                continue
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += max(0.0, (end - start) - child_time[id(span)])
            ancestor = parent
            while ancestor is not None and ancestor[0] != name:
                ancestor = ancestor[3]
            if ancestor is None:
                out[f"{name}.s"] += end - start - nested_full[id(span)]
        for name, value in self.counts.get(label, {}).items():
            out[name] += value
        return out

    def write_spans(self, path) -> None:
        index = {id(span): k for k, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for k, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": k, "name": name, "start": start, "end": end,
                    "parent": None if parent is None else index[id(parent)], "op": op,
                }) + "\n")


def _counted(fn, incr):
    def counted(*args, **kwargs):
        incr()
        return fn(*args, **kwargs)

    counted.__wrapped__ = fn
    return counted
