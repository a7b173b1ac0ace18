"""Spans and counts recorded around the benchmark's calls into symtoc.

The tracer wraps public functions of symtoc's modules from outside: nothing
under src/ knows about it. A wrapper replaces every reference to the wrapped
function in the loaded symtoc modules, so calls through any import path
(`symtoc.cli.simulate`, `symtoc.synthesis.solve_pessimistic`, ...) are seen.

A span is (name, start, end, parent, thread). A span opened on a thread with
no open span of its own (a thread-pool worker) hangs under the main thread's
innermost open span. Self time is a span's duration minus the union of its
children's intervals, so with a thread pool it is the wall time during which
no child runs on any thread.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import threading
import time
from collections import defaultdict

import numpy as np


class Tracer:
    """Spans and counts of one worker process, kept in memory."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, thread ident]
        self.counts = defaultdict(float)
        self._stacks = {}
        self._main = threading.main_thread().ident
        self._lock = threading.Lock()

    @contextlib.contextmanager
    def span(self, name):
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            outer = stack or self._stacks.get(self._main, [])
            sid = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, outer[-1] if outer else None, tid])
            stack.append(sid)
        try:
            yield
        finally:
            end = time.perf_counter()
            with self._lock:
                self.spans[sid][2] = end
                stack.pop()

    def inside(self, name) -> bool:
        """True when a span called `name` is open on the calling thread."""
        return any(self.spans[s][0] == name
                   for s in self._stacks.get(threading.get_ident(), ()))

    def summary(self) -> dict:
        """Per span name: [calls, busy seconds, self seconds]."""
        children = defaultdict(list)
        for s in self.spans:
            if s[3] is not None:
                children[s[3]].append((s[1], s[2]))
        out = {}
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += (end - start) - _union_length(children[sid])
        return out


def _union_length(intervals) -> float:
    covered, reach = 0.0, -float("inf")
    for start, end in sorted(intervals):
        if end > reach:
            covered += end - max(start, reach)
            reach = end
    return covered


# -- hooks ---------------------------------------------------------------------

class Capture:
    """Last artifacts parsed back by the CLI, for the output checks."""

    def __init__(self):
        self.system = None
        self.controller = None
        self.bounds = None


def _replace_everywhere(orig, wrapper):
    """Point every symtoc module attribute that is `orig` at `wrapper`."""
    for name, mod in list(sys.modules.items()):
        if name == "symtoc" or name.startswith("symtoc."):
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)


def _wrap(orig, span_name, tracer, after):
    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        if tracer is None:
            result = orig(*args, **kwargs)
        else:
            with tracer.span(span_name):
                result = orig(*args, **kwargs)
        if after is not None:
            if tracer is None:
                after(result, args)
            else:
                with tracer.span("bench.bookkeeping"):
                    after(result, args)
        return result
    return wrapper


def install(tracer: Tracer | None, capture: Capture) -> list:
    """Install the hooks; returns the names that could not be found.

    Without a tracer only the capture hooks go in, and they add one Python
    call to three parse functions.
    """
    import symtoc.abstraction
    import symtoc.cli
    import symtoc.config
    import symtoc.dynamics
    import symtoc.formats
    import symtoc.fts
    import symtoc.refine
    import symtoc.synthesis

    c = tracer.counts if tracer is not None else None

    def store(attr):
        def after(result, args):
            setattr(capture, attr, result)
        return after

    def on_build(result, args):
        system = result[0]
        pc = system.pair_counts
        enabled = int(np.count_nonzero(pc))
        c["abstraction.cells"] += system.num_states
        c["abstraction.inputs"] += system.num_inputs
        c["abstraction.transitions"] += system.num_transitions
        c["abstraction.enabled_pairs"] += enabled
        c["abstraction.succ_size_max"] = max(c["abstraction.succ_size_max"], int(pc.max(initial=0)))

    def on_integrate(result, args):
        model, flow, x = args[0], args[1], np.asarray(args[2])
        points = x.size // model.dim
        c["dynamics.integrate_calls"] += 1
        c["dynamics.points"] += points
        c["dynamics.field_evals"] += 4 * flow.substeps * points

    def on_safety(result, args):
        c["synthesis.safety_sweeps"] -= 1  # the final call computes the allowed inputs
        c["synthesis.safe_states"] += len(result.domain)

    def on_sums(result, args):
        if tracer.inside("synthesis.safety"):
            c["synthesis.safety_sweeps"] += 1

    def levels(key):
        def after(result, args):
            c[key] += result.iterations
        return after

    def on_extract(result, args):
        c["synthesis.winning_states"] += len(result.domain())

    def on_write_system(result, args):
        c["formats.sts_bytes"] += os.path.getsize(args[0])

    def on_write_bounds(result, args):
        lower, upper = args[1].entry_times(), args[2].values()
        won = np.isfinite(upper)
        c["synthesis.gap_cells"] += int(won.sum())
        c["synthesis.gap_sum"] += float((upper[won] - lower[won]).sum())

    def on_simulate(result, args):
        c["refine.traces"] += 1
        c["refine.steps"] += len(result.steps)
        c["refine.certified"] += bool(result.certified)
        if result.achieved is not None:
            margin = result.upper_bound - result.achieved
            c["refine.margin_min"] = min(c.get("refine.margin_min", margin), margin)

    F = symtoc.formats
    # (owner, attribute, span name, callback); the capture hooks come first
    hooks = [
        (F, "parse_system", "formats.parse_system", store("system")),
        (F, "parse_controller", "formats.parse_controller", store("controller")),
        (F, "parse_bounds", "formats.parse_bounds", store("bounds")),
    ]
    if tracer is not None:
        FS = symtoc.fts.FiniteSystem
        S = symtoc.synthesis
        hooks += [
            (symtoc.config, "parse_config", "config.parse", None),
            (symtoc.abstraction, "build_abstraction", "abstraction.build", on_build),
            (symtoc.abstraction, "target_under", "abstraction.target_cover", None),
            (symtoc.abstraction, "target_over", "abstraction.target_cover", None),
            (symtoc.dynamics, "integrate", "dynamics.integrate", on_integrate),
            (symtoc.dynamics, "reach_radius", "dynamics.radius", None),
            (FS, "reverse", "fts.reverse", None),
            (FS, "restrict", "fts.restrict", None),
            (S, "solve_safety", "synthesis.safety", on_safety),
            (S, "solve_pessimistic", "synthesis.pessimistic", levels("synthesis.pessimistic_levels")),
            (S, "solve_optimistic", "synthesis.optimistic", levels("synthesis.optimistic_levels")),
            (S, "extract_controller", "synthesis.extract", on_extract),
            (F, "write_system", "formats.write_system", on_write_system),
            (F, "write_controller", "formats.write_controller", None),
            (F, "write_bounds", "formats.write_bounds", on_write_bounds),
            (F, "write_trace", "formats.write_trace", None),
            (symtoc.refine, "simulate", "refine.simulate", on_simulate),
        ]
    missing = []
    for owner, attr, span_name, after in hooks:
        orig = getattr(owner, attr, None)
        if orig is None:
            missing.append(f"{owner.__name__}.{attr}")
            continue
        wrapper = _wrap(orig, span_name, tracer, after)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
        else:
            _replace_everywhere(orig, wrapper)
    if tracer is not None:
        orig = getattr(symtoc.synthesis, "segment_sums", None)
        if orig is None:
            missing.append("symtoc.synthesis.segment_sums")
        else:
            @functools.wraps(orig)
            def counted(*args, **kwargs):
                on_sums(None, args)
                return orig(*args, **kwargs)
            symtoc.synthesis.segment_sums = counted
    return missing
