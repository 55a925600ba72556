"""Tracing from outside the package: wrap each layer's public functions where
the importing module bound it, keep spans in memory, derive per-layer
metrics.

A span is ``[name, op, parent, start, end, child_s]``; ``child_s`` is the
time covered by its direct children, so self time is ``end - start -
child_s``.  The diode law and ``numpy.linalg.solve`` run tens of thousands of
times per solve, and a wrapper on each call would dwarf the layer times
around them.  So ``Tracer`` leaves them alone, and ``LawCounter`` counts and
times them in a separate pass over the same ops.
"""

from __future__ import annotations

import json
import threading
import time
from collections import Counter

import numpy

import kcl
from vcit import bus, checks, circuit, executive, fixture, prober
from vcit.errors import NonConvergence

# (module, attribute, span name): every binding the workloads reach.
SPANNED = (
    (executive, "run_session", "executive.run_session"),
    (executive, "run_vcit_battery", "executive.run_vcit_battery"),
    (executive, "dummy_self_test", "executive.dummy_self_test"),
    (executive, "execute", "prober.execute"),
    (executive, "single_level_test", "checks.single_level_test"),
    (executive, "solve_dc", "circuit.solve_dc"),
    (executive, "solve_rail_sense", "circuit.solve_rail_sense"),
    (prober, "execute", "prober.execute"),
    (prober, "solve_dc", "circuit.solve_dc"),
    (prober, "step_transient", "circuit.step_transient"),
    (bus, "execute", "prober.execute"),
    (bus, "client_call", "bus.client_call"),
    (circuit, "solve_dc", "circuit.solve_dc"),
    (checks, "differential_test", "checks.differential_test"),
    (fixture, "load_fixture", "fixture.load_fixture"),
)
AGGREGATED = (
    (circuit.DiodeModel, "current", "circuit.diode_law"),
    (circuit.DiodeModel, "conductance", "circuit.diode_law"),
    (numpy.linalg, "solve", "circuit.linalg_solve"),
)
SOLVES = ("circuit.solve_dc", "circuit.step_transient")


class Patches:
    """Context manager: entering sets each attribute to its wrapper, leaving
    restores the originals."""

    def __init__(self):
        self._saved = []

    def wrappers(self):
        """(owner, attribute, wrapper) for every binding to patch."""
        raise NotImplementedError

    def __enter__(self):
        for owner, attr, value in self.wrappers():
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


class LawCounter(Patches):
    """Calls and seconds of the diode law and numpy.linalg.solve."""

    def __init__(self):
        super().__init__()
        self.agg = {}

    def wrappers(self):
        return [(owner, attr, self._counted(name, getattr(owner, attr)))
                for owner, attr, name in AGGREGATED]

    def _counted(self, name, fn):
        cell = self.agg.setdefault(name, [0, 0.0])

        def wrapper(*args):
            start = time.perf_counter()
            result = fn(*args)
            cell[1] += time.perf_counter() - start
            cell[0] += 1
            return result

        return wrapper

    def metrics(self):
        m = {}
        for name in ("circuit.diode_law", "circuit.linalg_solve"):
            n, t = self.agg.get(name, (0, 0.0))
            m[f"{name}.calls"] = n
            m[f"{name}.busy_s"] = t
        return m


class Tracer(Patches):
    """Spans and counters of one traced pass over every binding in SPANNED."""

    def __init__(self):
        super().__init__()
        self.spans = []
        self.solves = []  # (iterations, solver residual, KCL inputs) per solve
        self.nonconvergence = 0
        self.samples = 0  # waveform samples through prober.execute
        self.trips = 0  # captures that tripped protection
        self.verbs = {}  # span index -> bus verb
        self._local = threading.local()

    @property
    def op(self):
        """Id of the op the calling thread is running; spans carry it."""
        return getattr(self._local, "op", None)

    @op.setter
    def op(self, value):
        self._local.op = value

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _spanned(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else -1
            span = [name, tracer.op, parent, 0.0, 0.0, 0.0]
            index = len(tracer.spans)
            tracer.spans.append(span)
            if name == "bus.client_call":
                tracer.verbs[index] = args[0].verb
            stack.append(index)
            if name in SOLVES:
                # prober.execute rewrites the stimuli dict when it clamps a
                # source, so the KCL check keeps a copy of what this solve saw.
                stimuli = dict(args[2])
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except NonConvergence:
                tracer.nonconvergence += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                span[3], span[4] = start, end
                if parent >= 0:
                    tracer.spans[parent][5] += end - start
            if name == "circuit.solve_dc":
                uut, contacts = args[:2]
                tracer.solves.append((result.iterations, result.residual,
                                      (uut, contacts, stimuli, result)))
            elif name == "circuit.step_transient":
                uut, contacts, _, state, dt = args
                solved = result[1]
                tracer.solves.append((solved.iterations, solved.residual,
                                      (uut, contacts, stimuli, solved, state, dt)))
            elif name == "prober.execute":
                tracer.samples += len(args[0].samples)
                tracer.trips += sum(1 for c in result if c.protection_tripped)
            return result

        return wrapper

    def wrappers(self):
        return [(owner, attr, self._spanned(name, getattr(owner, attr)))
                for owner, attr, name in SPANNED]

    # --- reduction ---------------------------------------------------------------

    def layer_metrics(self):
        """Counts and busy/self times per layer, from the spans."""
        calls, busy, selfs = Counter(), Counter(), Counter()
        for name, _, _, start, end, child in self.spans:
            calls[name] += 1
            busy[name] += end - start
            selfs[name] += end - start - child
        solved_under = Counter(self.spans[p][0] for (n, _, p, *_rest) in self.spans if n in SOLVES and p >= 0)
        rail_with_solve = {p for (n, _, p, *_rest) in self.spans if n == "circuit.solve_dc" and p >= 0
                           and self.spans[p][0] == "circuit.solve_rail_sense"}
        iters = [it for it, _, _ in self.solves]
        m = {}
        for name in ("circuit.solve_dc", "circuit.step_transient", "circuit.solve_rail_sense",
                     "prober.execute", "checks.single_level_test", "checks.differential_test",
                     "executive.run_vcit_battery", "executive.dummy_self_test"):
            m[f"{name}.calls"] = calls[name]
            m[f"{name}.busy_s"] = busy[name]
        m["circuit.solve_rail_sense.skipped"] = calls["circuit.solve_rail_sense"] - len(rail_with_solve)
        m["circuit.newton_iters"] = sum(iters)
        m["circuit.newton_iters_per_solve"] = sum(iters) / len(iters) if iters else 0.0
        m["circuit.newton_iters_max"] = max(iters, default=0)
        # KCL recomputed from the returned voltages; the solver's own figure
        # is kept beside it for reference only.
        m["circuit.residual_max_a"] = max((kcl.residual(*inputs) for _, _, inputs in self.solves),
                                          default=0.0)
        m["_solver_residual_max_a"] = max((r for _, r, _ in self.solves), default=0.0)
        m["circuit.nonconvergence"] = self.nonconvergence
        m["prober.execute.self_s"] = selfs["prober.execute"]
        m["prober.samples"] = self.samples
        # Solves made directly by execute per sample: the clamp-and-resolve passes.
        m["prober.solves_per_sample"] = (solved_under["prober.execute"] / self.samples
                                         if self.samples else 0.0)
        m["prober.trips"] = self.trips
        m["executive.run_session.busy_s"] = busy["executive.run_session"]
        m["executive.run_session.self_s"] = selfs["executive.run_session"]
        m["fixture.load_fixture.busy_s"] = busy["fixture.load_fixture"]
        return m

    def verb_latencies(self):
        """Seconds per bus.client_call span, keyed by verb."""
        out = {}
        for index, verb in self.verbs.items():
            span = self.spans[index]
            out.setdefault(verb, []).append(span[4] - span[3])
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, op, parent, start, end, child) in enumerate(self.spans):
                fh.write(json.dumps({"i": index, "name": name, "op": op, "parent": parent,
                                     "start": start, "end": end, "child_s": child,
                                     "verb": self.verbs.get(index)}) + "\n")
