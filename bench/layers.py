"""Per-layer timing of the drablocus model, applied from outside the package.

Nothing under ``src/`` is edited. :class:`LayerTrace` replaces class
attributes (and the ``aesref`` module functions) with timing wrappers at
run time and puts the originals back on :meth:`LayerTrace.restore`. The
model dispatches every per-cycle call through the class (``_units`` and
``_parts`` hold instances, and ``self.x()`` looks ``x`` up on the type), so
a class-level wrapper sees every call.

A call's self time is its duration minus the durations of the wrapped
calls it made directly. The wrapper's own cost is subtracted
(:func:`calibrate`): per call from the span's own time, for the clock
reads inside its window, and per direct child from the parent's self
time, for the bookkeeping outside the child's window. Without this, the
fabric self times would be mostly wrapper cost. The cost is an average
over the model's calls, so a layer whose self time is smaller than the
spread of that cost between call sites (the key-add instances, the
controller commit) can read near zero or slightly negative.

``metrics`` is left untimed: its calls take microseconds and no roadmap
item targets it. Properties are not wrapped; their cost lands in the
caller's self time.
"""

from __future__ import annotations

import functools
import statistics
import time
from dataclasses import dataclass

from drablocus import aesref, controller, datapath, fabric, keyschedule, simulator
from hostprobe import REFERENCE_PROBE_S, probe_seconds

_CONTROLLER_GROUPS = {
    "check_against": "controller.check",
    "commit": "controller.commit",
}
_ARK_KEYS = {
    f"{prefix}_hi": f"datapath.{prefix}" for prefix in ("ark_main", "ark_init", "ark_final")
}


def _public_methods(cls) -> list[str]:
    return [
        name for name, value in vars(cls).items()
        if callable(value) and not isinstance(value, type) and not name.startswith("_")
    ]


def plan() -> list[tuple[object, str, str | None]]:
    """(owner, attribute, key) for every wrapped callable; key None means keyed by instance."""
    entries: list[tuple[object, str, str | None]] = []
    for cls, key in (
        (fabric.BramModel, "fabric.bram"),
        (fabric.DspXorSlice, "fabric.dsp"),
        (fabric.Register, "fabric.reg"),
        (fabric.LutShiftRegister, "fabric.lutsr"),
        (datapath.SubBytesUnit, "datapath.sub_bytes"),
        (datapath.ShiftRowsUnit, "datapath.shift_rows"),
        (datapath.MixColumnsUnit, "datapath.mix_columns"),
        (datapath.AddRoundKeyUnit, None),
        (datapath.RoundDatapath, "datapath.round"),
    ):
        entries.extend((cls, name, key) for name in _public_methods(cls))
    for name in _public_methods(controller.Controller):
        entries.append((controller.Controller, name,
                        _CONTROLLER_GROUPS.get(name, "controller.decide")))
    for name in _public_methods(keyschedule.KeyScheduler):
        entries.append((keyschedule.KeyScheduler, name, f"keyschedule.{name}"))
    for cls in (datapath.RoundDatapath, controller.Controller, keyschedule.KeyScheduler):
        entries.append((cls, "__init__", "simulator.core_build"))
    entries.append((simulator.PipelineSimulator, "run", "simulator.run"))
    entries.append((simulator.PipelineSimulator, "_emit_trace", "simulator.emit_trace"))
    for name in ("encrypt_block", "decrypt_block", "key_expand", "key_expand_equivalent_inverse"):
        entries.append((aesref, name, f"aesref.{name}"))
    return entries


class LayerTrace:
    """Self time, call count and direct-child count per key.

    Spans nest strictly, so no stack is kept: ``_state`` holds the time
    and the number of calls completed at the current nesting level. A
    span snapshots it on entry; on exit the growth since then is exactly
    its direct children's, and it resets the level to its snapshot plus
    itself.
    """

    def __init__(self):
        # Per key: [self ns, calls, direct wrapped children].
        self.totals: dict[str, list[int]] = {}
        self._state = [0, 0]
        self._undo: list[tuple[object, str, object]] = []

    def _totals(self, key: str) -> list[int]:
        return self.totals.setdefault(key, [0, 0, 0])

    def wrap(self, fn, key: str | None):
        clock = time.perf_counter_ns
        state = self._state
        # Key-add instances share one class; they are told apart by slice-name prefix.
        by_name = {name: self._totals(k) for name, k in _ARK_KEYS.items()} if key is None else None
        fixed = None if key is None else self._totals(key)

        def timed(*args, **kwargs):
            base_ns, base_calls = state
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                totals = fixed if by_name is None else by_name[args[0].hi.name]
                totals[0] += dt - (state[0] - base_ns)
                totals[1] += 1
                totals[2] += state[1] - base_calls
                state[0] = base_ns + dt
                state[1] = base_calls + 1

        return functools.wraps(fn)(timed)

    def patch(self, owner, name: str, key: str | None) -> None:
        original = vars(owner)[name]
        if isinstance(original, staticmethod):
            replacement = staticmethod(self.wrap(original.__func__, key))
        else:
            replacement = self.wrap(original, key)
        self._undo.append((owner, name, original))
        setattr(owner, name, replacement)

    def install(self) -> "LayerTrace":
        for owner, name, key in plan():
            self.patch(owner, name, key)
        return self

    def restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def calls(self, key: str) -> int:
        return self.totals.get(key, [0, 0, 0])[1]

    def total_calls(self) -> int:
        return sum(calls for _, calls, _ in self.totals.values())

    def self_ns(self, key: str, cost: "WrapperCost") -> float:
        """Self time with the wrapper's own cost taken out."""
        self_ns, calls, children = self.totals.get(key, [0, 0, 0])
        return self_ns - calls * cost.inside - children * cost.outside


@dataclass(frozen=True)
class WrapperCost:
    """Wrapper cost per call in ns: inside the span's window, and outside it (billed to the parent)."""

    inside: float
    outside: float


class _Probe:
    def noop(self, a, b):
        pass


def _split(n: int = 20_000, rounds: int = 7) -> float:
    """Share of the wrapper's cost that falls inside the span, from no-op calls."""
    clock = time.perf_counter_ns
    probe = _Probe()
    shares = []
    for _ in range(rounds):
        trace = LayerTrace()
        wrapped = trace.wrap(_Probe.noop, "probe")
        t0 = clock()
        for _ in range(n):
            pass
        t1 = clock()
        for _ in range(n):
            probe.noop(1, 2)
        t2 = clock()
        for _ in range(n):
            wrapped(probe, 1, 2)
        t3 = clock()
        loop, plain, total = (t1 - t0) / n, (t2 - t1) / n, (t3 - t2) / n
        recorded = trace.totals["probe"][0] / n
        shares.append((recorded - (plain - loop)) / (total - plain))
    return min(max(statistics.median(shares), 0.0), 1.0)


def reference_ns(fn) -> float:
    """Duration of ``fn()`` in reference ns, converted by probes on either side (``hostprobe``)."""
    before = probe_seconds()
    t0 = time.perf_counter_ns()
    fn()
    elapsed = time.perf_counter_ns() - t0
    return elapsed * REFERENCE_PROBE_S / ((before + probe_seconds()) / 2)


def calibrate(run_model, rounds: int = 3) -> WrapperCost:
    """Wrapper cost in reference ns, measured on the model itself, split by the no-op share.

    ``run_model()`` performs a fixed piece of simulation; it runs plain and
    wrapped in turn, and the time difference over the wrapped call count is
    the cost per call in the model's own working set, which runs well
    above a tight no-op loop's. Both runs are in reference time, so a change
    of host speed between them does not read as wrapper cost.
    """
    per_call = []
    for _ in range(rounds):
        plain = reference_ns(run_model)
        trace = LayerTrace().install()
        try:
            wrapped = reference_ns(run_model)
        finally:
            trace.restore()
        per_call.append((wrapped - plain) / trace.total_calls())
    cost = statistics.median(per_call)
    inside = _split() * cost
    return WrapperCost(inside, cost - inside)
