"""In-memory spans and call counters around qaccredit's public functions.

Both instruments patch the attribute a caller actually looks up, because
several modules bind a function into their own namespace (``qotp`` and
``traps`` import ``compose_singles``; ``protocol`` and ``mesothetic`` import
``validate``). Patches are undone when the ``with`` block ends, so the
untraced passes run the program exactly as shipped.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter


@contextlib.contextmanager
def patched(targets, make_wrapper):
    """Replace every ``(owner, attr)`` of each ``name: [(owner, attr)]``.

    ``make_wrapper(name, fn)`` returns the replacement for ``fn``. Owners
    that share one function object get one wrapper, so a call is seen once.
    A site the program no longer defines is skipped and its metric reads 0.
    """
    saved = []
    try:
        for name, sites in targets.items():
            wrappers = {}
            for owner, attr in sites:
                fn = owner.__dict__.get(attr)
                if fn is None:
                    continue
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = make_wrapper(name, fn)
                saved.append((owner, attr, fn))
                setattr(owner, attr, wrappers[id(fn)])
        yield
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


class SpanRecorder:
    """Spans as ``[name, start, end, parent, op]`` rows, kept in memory.

    ``parent`` is the row index of the enclosing span (-1 at top level) and
    ``op`` numbers the top-level spans, each one operation (a protocol run,
    a session, an oracle check), so the spans of one operation share an
    identifier. A call that re-enters the span it is already inside (a
    composite noise model delegating to its part) is not recorded again.
    """

    def __init__(self):
        self.rows = []
        self._ops = 0
        self._stack = []

    def wrapper(self, name, fn):
        rows, stack = self.rows, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and rows[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            if stack:
                parent = stack[-1]
            else:
                parent, self._ops = -1, self._ops + 1
            row = [name, clock(), 0.0, parent, self._ops]
            stack.append(len(rows))
            rows.append(row)
            try:
                return fn(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()
        return traced

    def summary(self):
        """Per span name: call count and self time (span minus children)."""
        child_time = [0.0] * len(self.rows)
        for name, start, end, parent, _ in self.rows:
            if parent >= 0:
                child_time[parent] += end - start
        calls, self_s = Counter(), Counter()
        for i, (name, start, end, _, _) in enumerate(self.rows):
            calls[name] += 1
            self_s[name] += (end - start) - child_time[i]
        return calls, self_s

    def dump(self, path, label):
        """Append the spans as JSON lines tagged with ``label``."""
        with open(path, "a", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.rows:
                fh.write(json.dumps({"run": label, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


class CallCounter:
    """Bare call counts, for functions too hot to wrap in spans."""

    def __init__(self):
        self.calls = Counter()

    def wrapper(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted


def span_targets(qa):
    """Layer boundaries that get spans, by metric name."""
    noise, meso = qa.noise, qa.mesothetic
    reg = meso.QubitRegister

    def methods(attr):
        return [(cls, attr) for cls in vars(noise).values()
                if isinstance(cls, type) and issubclass(cls, noise.NoiseModel)
                and cls is not noise.NoiseModel and attr in cls.__dict__]

    targets = {
        "protocol.single_run": [(qa.protocol, "single_run")],
        "circuit.validate": [(qa.protocol, "validate"), (meso, "validate")],
        "noise.sample_collection": methods("sample_collection"),
        "noise.sample_gate_deviation": methods("sample_gate_deviation"),
        "mesothetic.run_session": [(meso, "run_session")],
    }
    for mod, names in (
            (qa.qotp, ("dress", "sample_pads", "postprocess")),
            (qa.traps, ("sample_choice", "generate_trap")),
            (qa.simulator, ("trap_output", "propagate_frame",
                            "run_statevector", "statevector_distribution",
                            "run_density")),
            (qa.oracles, ("lemma2_sweep", "theorem1_empirical",
                          "twirl_channel", "pad_averaged_distribution"))):
        short = mod.__name__.rsplit(".", 1)[1]
        for fn in names:
            targets[f"{short}.{fn}"] = [(mod, fn)]
    for fn in ("apply_single", "apply_cz", "apply_pauli", "measure_x"):
        targets[f"mesothetic.QubitRegister.{fn}"] = [(reg, fn)]
    return targets


def count_targets(qa):
    """Hot inner functions that are only counted, in a pass of their own."""
    compose_sites = [(mod, "compose_singles")
                     for mod in (qa.circuit, qa.qotp, qa.traps)]
    return {
        "pauli.conj_single": [(qa.pauli, "conj_single")],
        "pauli.conj_cz": [(qa.pauli, "conj_cz")],
        "pauli.multiply": [(qa.pauli, "multiply")],
        "circuit.compose_singles": compose_sites,
        "cliffords.matrix": [(qa.cliffords, "matrix")],
        "traps.enumerate_choices": [(qa.traps, "enumerate_choices")],
    }
