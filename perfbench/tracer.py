"""Outside-in layer tracer for ``qparrondo``.

The package imports its kernels by name (``from .statevector import
apply_single_qubit``), so wrapping one module attribute is not enough: the
tracer replaces every binding of each traced function object in every loaded
``qparrondo`` module, and puts every binding back on exit.  ``StateVector``
is timed through ``StateVector.__post_init__``, its validation and copy step.

A target that a later version of the package renames or deletes is skipped
and reports 0 calls; nothing in here needs ``src/`` to change.

Self time is a span's duration minus the time of the traced spans it
directly contains.  A root span per traced pass holds everything else, so
the self times of all spans add up to the root's duration.
"""
from __future__ import annotations

import sys
import time
from contextlib import contextmanager

TARGETS = (
    ("cli", "main"),
    ("wiring", "compile_sequence"),
    ("wiring", "initial_state_for"),
    ("wiring", "run"),
    ("statevector", "apply_single_qubit"),
    ("statevector", "apply_two_controlled_multiplexed"),
    ("statevector", "check_unitary2"),
    ("statevector", "StateVector"),
    ("coins", "games_from_bias"),
    ("coins", "su2_matrix"),
    ("payoff", "payoff_expectation"),
    ("payoff", "payoff_epsilon_expansion"),
    ("optimize", "optimize_phases"),
    ("table", "build_table"),
    ("classical", "classical_sequence_expansion"),
    ("classical", "paradox_threshold"),
    ("analytic", "aab_extremal_phases"),
)
KERNELS = ("statevector.apply_single_qubit", "statevector.apply_two_controlled_multiplexed")
BYTES_PER_AMP = 32  # read and write one complex128 amplitude per gate


def _amplitudes(args, kwargs) -> int:
    state = args[0] if args else kwargs.get("state")
    n = getattr(state, "num_qubits", None)
    return 1 << int(n) if n is not None else int(getattr(state, "size", 0))


def _count(per_pass: float) -> int | float:
    """A per-pass count, as an int when every pass did the same work."""
    return int(per_pass) if per_pass.is_integer() else per_pass


class Tracer:
    """Accumulates calls, total and self seconds per target, plus counters."""

    def __init__(self) -> None:
        self.calls = {name: 0 for name in self.names()}
        self.total = {name: 0.0 for name in self.names()}
        self.self_time = {name: 0.0 for name in self.names()}
        self.counters = {"amps_touched": 0, "evaluations": 0, "sweeps": 0}
        self.root_total = 0.0
        self.root_self = 0.0
        self.restored = True
        self._child_time = []  # stack: traced child seconds inside each open span

    @staticmethod
    def names() -> list[str]:
        return [f"{mod}.{name}" for mod, name in TARGETS]

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            if name in KERNELS:
                self.counters["amps_touched"] += _amplitudes(args, kwargs)
            self._child_time.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                inner = self._child_time.pop()
                if self._child_time:
                    self._child_time[-1] += elapsed
                self.calls[name] += 1
                self.total[name] += elapsed
                self.self_time[name] += elapsed - inner
            if name == "optimize.optimize_phases":
                self.counters["evaluations"] += int(getattr(result, "evaluations", 0))
                self.counters["sweeps"] += max(0, len(getattr(result, "trace", ())) - 1)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "qparrondo" or key.startswith("qparrondo."))
        ]
        replaced = []  # (owner, attribute, original)
        try:
            for mod_name, attr in TARGETS:
                name = f"{mod_name}.{attr}"
                home = sys.modules.get(f"qparrondo.{mod_name}")
                original = getattr(home, attr, None)
                if original is None:
                    continue
                if isinstance(original, type):
                    hook = original.__dict__.get("__post_init__")
                    if hook is not None:
                        setattr(original, "__post_init__", self._wrap(name, hook))
                        replaced.append((original, "__post_init__", hook))
                    continue
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            replaced.append((mod, key, original))
            yield
        finally:
            for owner, key, original in reversed(replaced):
                setattr(owner, key, original)
            self.restored = all(getattr(o, k) is v for o, k, v in replaced)

    @contextmanager
    def root(self):
        """The root span of one traced pass."""
        self._child_time.append(0.0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - t0
            self.root_total += elapsed
            self.root_self += elapsed - self._child_time.pop()

    def selftest(self) -> list[str]:
        """Self times are non-negative, add up to the root spans, and every
        binding was restored."""
        problems = [f"{n}.self_s = {v!r} < 0" for n, v in self.self_time.items() if v < -1e-9]
        span_sum = self.root_self + sum(self.self_time.values())
        if abs(span_sum - self.root_total) > 1e-9 * max(1.0, self.root_total):
            problems.append(f"self times sum to {span_sum!r}, root spans to {self.root_total!r}")
        if not self.restored:
            problems.append("original functions were not restored")
        return problems

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-pass figures: ``<target>.calls``, ``.s``, ``.self_s`` and counters."""
        out = {}
        for name in self.names():
            out[f"{name}.calls"] = _count(self.calls[name] / passes)
            out[f"{name}.s"] = self.total[name] / passes
            out[f"{name}.self_s"] = self.self_time[name] / passes
        amps = _count(self.counters["amps_touched"] / passes)
        kernel_self = sum(self.self_time[k] for k in KERNELS) / passes
        out["statevector.amps_touched"] = amps
        out["statevector.ns_per_amp"] = 1e9 * kernel_self / amps if amps else 0.0
        out["statevector.bytes_computed"] = BYTES_PER_AMP * amps
        evals = _count(self.counters["evaluations"] / passes)
        opt_s = out["optimize.optimize_phases.s"]
        out["optimize.evaluations"] = evals
        out["optimize.sweeps"] = _count(self.counters["sweeps"] / passes)
        out["optimize.evals_per_s"] = evals / opt_s if opt_s else 0.0
        return out
