"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces public functions of ``qexpect``'s modules (and a
few private helpers, when they exist) with timing wrappers, in every
``qexpect`` module namespace that holds the same function object, so calls
through ``from .x import f`` bindings are seen too. Nothing inside ``qexpect``
is edited, and no ``QEXPECT_*`` variable is read or set.

Spans nest on one stack: a span's self time is its duration minus the time
of the spans it called. Stats are kept per round (one pass over the
workload's ops) and reported as per-round values: counts from the first
round, times as the median over rounds.

A target whose name no longer exists is skipped; the metrics that need it
read 0 and are listed under ``absent`` in the report.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time

import numpy as np

# span name -> (module, attribute path); all are wrapped when present.
TARGETS = {
    "cli.main": ("qexpect.cli", "main"),
    "config.load_document": ("qexpect.config", "load_document"),
    "config.scenario_from_document": ("qexpect.config", "scenario_from_document"),
    "market.run_market": ("qexpect.market", "run_market"),
    "market.uniforms": ("qexpect.market", "_agent_uniforms"),
    "market.assign_outcomes": ("qexpect.market", "_assign_outcomes"),
    "market.cohort_step": ("qexpect.market", "_QuantumCohort.step"),
    "classical.classical_agent_step": ("qexpect.classical", "classical_agent_step"),
    "hilbert.evolve": ("qexpect.hilbert", "evolve"),
    "hilbert.projector_for": ("qexpect.hilbert", "projector_for"),
    "hilbert.validate.state": ("qexpect.hilbert", "StateVector.__post_init__"),
    "hilbert.validate.projector": ("qexpect.hilbert", "Projector.__post_init__"),
    "measurement.born_distribution": ("qexpect.measurement", "born_distribution"),
    "measurement.collapse": ("qexpect.measurement", "collapse"),
    "measurement.sequential_joint": ("qexpect.measurement", "sequential_joint"),
    "measurement.interference_term": ("qexpect.measurement", "interference_term"),
    "measurement.uncertainty_product": ("qexpect.measurement", "uncertainty_product"),
    "measurement.evolved_born": ("qexpect.measurement", "evolved_born"),
}

# metric -> (unit, spans it reads, how): "calls" and "self" sum over the
# spans, "incl" is inclusive time; market.* group metrics come from the
# states collapse returns inside each quantum-cohort step.
METRICS = {
    "market.groups_max": ("count", ("market.cohort_step",), "groups_max"),
    "market.groups_total": ("count", ("market.cohort_step",), "groups_total"),
    "market.distinct_states_max": ("count", ("market.cohort_step",), "distinct_max"),
    "market.useful_group_ratio": ("ratio", ("market.cohort_step",), "useful_ratio"),
    "hilbert.validate_calls": ("count", ("hilbert.validate.state", "hilbert.validate.projector"), "calls"),
    "hilbert.validate_s": ("s", ("hilbert.validate.state", "hilbert.validate.projector"), "self"),
    "hilbert.evolve_calls": ("count", ("hilbert.evolve",), "calls"),
    "hilbert.evolve_s": ("s", ("hilbert.evolve",), "self"),
    "hilbert.projector_for_calls": ("count", ("hilbert.projector_for",), "calls"),
    "hilbert.projector_for_s": ("s", ("hilbert.projector_for",), "self"),
    "measurement.born_distribution_calls": ("count", ("measurement.born_distribution",), "calls"),
    "measurement.born_distribution_s": ("s", ("measurement.born_distribution",), "self"),
    "measurement.collapse_calls": ("count", ("measurement.collapse",), "calls"),
    "measurement.collapse_s": ("s", ("measurement.collapse",), "self"),
    "measurement.sequential_joint_s": ("s", ("measurement.sequential_joint",), "self"),
    "measurement.interference_term_s": ("s", ("measurement.interference_term",), "self"),
    "measurement.uncertainty_product_s": ("s", ("measurement.uncertainty_product",), "self"),
    "measurement.evolved_born_calls": ("count", ("measurement.evolved_born",), "calls"),
    "market.run_market_s": ("s", ("market.run_market",), "incl"),
    "market.run_market_self_s": ("s", ("market.run_market",), "self"),
    "market.cohort_step_s": ("s", ("market.cohort_step",), "self"),
    "market.uniforms_s": ("s", ("market.uniforms",), "self"),
    "market.assign_outcomes_s": ("s", ("market.assign_outcomes",), "self"),
    "classical.classical_agent_step_calls": ("count", ("classical.classical_agent_step",), "calls"),
    "classical.classical_agent_step_s": ("s", ("classical.classical_agent_step",), "self"),
    "config.load_document_calls": ("count", ("config.load_document",), "calls"),
    "config.load_document_s": ("s", ("config.load_document",), "self"),
    "config.scenario_from_document_s": ("s", ("config.scenario_from_document",), "self"),
    "cli.main_s": ("s", ("cli.main",), "incl"),
    "cli.self_s": ("s", ("cli.main",), "self"),
}


def distinct_up_to_phase(states) -> int:
    """Number of distinct unit vectors, identifying vectors that differ by a
    global phase: each is rotated so its first component of modulus > 0.1
    is real and positive, then rounded to 8 decimals."""
    if not states:
        return 0
    amps = np.vstack(states)
    pivot = amps[np.arange(len(amps)), np.argmax(np.abs(amps) > 0.1, axis=1)]
    canon = amps * (np.abs(pivot) / pivot)[:, None]
    keys = np.round(np.hstack([canon.real, canon.imag]), 8) + 0.0
    return len(np.unique(keys, axis=0))


class Tracer:
    def __init__(self):
        self.rounds: list[dict] = []
        self.absent: set[str] = set()
        self._stack: list[list[float]] = []
        self._collapsed: list | None = None
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "qexpect"]
        for span, (module_name, path) in TARGETS.items():
            try:
                owner = importlib.import_module(module_name)
            except ModuleNotFoundError:
                owner = None
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.add(span)
                continue
            wrapper = self._wrap(span, original)
            if owner_path:  # a method: patch the class it lives on
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._patch(module, attr, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap(self, span: str, fn):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if span == "market.cohort_step":
                outer, self._collapsed = self._collapsed, []
            frame = [0.0]
            stack.append(frame)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stats = self.rounds[-1]["spans"].setdefault(span, [0, 0.0, 0.0])
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[0]
                if span == "market.cohort_step":
                    states, self._collapsed = self._collapsed, outer
            if span == "measurement.collapse" and self._collapsed is not None:
                self._collapsed.append(np.array(result.amplitudes))
            elif span == "market.cohort_step":
                # The count is bookkeeping, not program work: keep its time
                # out of the enclosing span's self time.
                counted = clock()
                self.rounds[-1]["groups"].append((len(states), distinct_up_to_phase(states)))
                if stack:
                    stack[-1][0] += clock() - counted
            return result

        return wrapper

    # -- reporting ----------------------------------------------------------

    def start_round(self) -> None:
        self.rounds.append({"spans": {}, "groups": []})

    @staticmethod
    def _value(rnd: dict, spans: tuple, how: str) -> float:
        if how in ("calls", "incl", "self"):
            column = {"calls": 0, "incl": 1, "self": 2}[how]
            return sum(rnd["spans"].get(s, [0, 0.0, 0.0])[column] for s in spans)
        groups = rnd["groups"]
        if how == "groups_max":
            return max((g for g, _ in groups), default=0)
        if how == "groups_total":
            return sum(g for g, _ in groups)
        if how == "distinct_max":
            return max((d for _, d in groups), default=0)
        total = sum(g for g, _ in groups)
        return sum(d for _, d in groups) / total if total else 0.0

    def report(self) -> dict:
        metrics, unsteady = {}, []
        for name, (unit, spans, how) in METRICS.items():
            values = [self._value(r, spans, how) for r in self.rounds]
            if unit == "s":
                metrics[name] = statistics.median(values)
            else:
                metrics[name] = values[0]
                if any(v != values[0] for v in values):
                    unsteady.append(name)
        absent = sorted(n for n, (_, spans, _) in METRICS.items() if self.absent & set(spans))
        return {
            "rounds": len(self.rounds),
            "metrics": metrics,
            "absent": absent,
            "unsteady_counts": unsteady,
            "spans": self.rounds,
        }
