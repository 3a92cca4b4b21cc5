"""Every modelled fault: a hardware failure that halts the simulation.

Components raise a fault with what they saw; none of them formats a cycle.
:meth:`~drablocus.simulator.PipelineSimulator.run` sets ``cycle`` on any
fault raised inside it and re-raises the same object, so its message leads
with ``cycle N: ``.
"""

from __future__ import annotations


class SimulationFault(RuntimeError):
    """The root of every modelled fault; ``cycle`` is set by the run that
    raised it and is None outside a run.

    A fault raised inside a pass of many cycles carries the context the
    run needs to name its cycle and end its trace: ``offset``, the
    faulting cycle's offset from the pass's first, and ``completions``,
    the ``(offset, tag, data)`` completions the pass returned before it,
    or None where the raiser has none to give."""

    cycle: int | None = None
    offset: int = 0
    completions: list[tuple[int, int, int]] | None = None

    def __str__(self) -> str:
        message = super().__str__()
        return message if self.cycle is None else f"cycle {self.cycle}: {message}"


class ProtocolError(SimulationFault):
    """Two OR-multiplexed sources drove data in the same cycle."""


class CollisionError(SimulationFault):
    """Two valid words tried to claim the same stage register."""


class ControlFault(SimulationFault):
    """The controller's registers disagree with the datapath's tags."""


class AdmissionError(SimulationFault):
    """Admission attempted outside the run state or on a stalled cycle."""


class KeyStoreFault(SimulationFault):
    """A slot asked the key store for a round past the last main round."""


class TimingFault(SimulationFault):
    """A run broke the fixed-latency contract: a block completed off its
    latency, or the pipeline wedged."""
