"""Cycle-accurate models of the FPGA primitives the datapath is built from.

Everything clocked follows one two-phase contract: during a cycle,
``compute()`` may read any component's visible outputs (which reflect state
committed in *prior* cycles) plus values presented this cycle, and derives
pending next state; ``commit()`` then latches pending state everywhere.
Outputs never change during the compute phase, so compute order is free
between components whose same-cycle links go through registers; a purely
combinational link (an unregistered output read the same cycle) needs its
source computed first.

Presented inputs persist until re-presented, mirroring input lines driven
by an upstream register.

These classes are the unit-tested specification of the primitives. The
simulator's per-cycle step (:class:`~drablocus.datapath.RoundDatapath`,
:class:`~drablocus.controller.Controller`,
:class:`~drablocus.keyschedule.KeyScheduler`) holds their state as plain
ints and does not call them.
"""

from __future__ import annotations

from .faults import SimulationFault


class Register:
    """A rank of flip flops with a synchronous reset held at zero."""

    __slots__ = ("width", "_mask", "_in", "_pending", "out", "reset_in", "name")

    def __init__(self, width: int, name: str = "reg"):
        self.width = width
        self._mask = (1 << width) - 1
        self._in = 0
        self._pending = 0
        self.out = 0
        self.reset_in = False
        self.name = name

    def present(self, value: int) -> None:
        self._in = value & self._mask

    def compute(self) -> None:
        self._pending = 0 if self.reset_in else self._in

    def commit(self) -> None:
        self.out = self._pending


class BramModel:
    """True dual-port block RAM with an optional built-in output register.

    Read latency is one cycle, or two with the output register enabled.
    Ports a and b read independently within a cycle. A synchronous write
    port is available for RAM use (the round-key store); reads of a word
    written in the same cycle return the old contents.
    """

    __slots__ = (
        "image",
        "depth",
        "output_register",
        "name",
        "addr_a",
        "addr_b",
        "out_a",
        "out_b",
        "_mid_a",
        "_mid_b",
        "_read_a",
        "_read_b",
        "_write",
    )

    def __init__(self, image, output_register: bool = False, name: str = "bram"):
        self.image = list(image)
        self.depth = len(self.image)
        self.output_register = output_register
        self.name = name
        self.addr_a = 0
        self.addr_b = 0
        self.out_a = 0
        self.out_b = 0
        self._mid_a = 0
        self._mid_b = 0
        self._read_a = 0
        self._read_b = 0
        self._write = None

    def present(self, addr_a: int | None = None, addr_b: int | None = None) -> None:
        if addr_a is not None:
            self.addr_a = addr_a
        if addr_b is not None:
            self.addr_b = addr_b

    def present_write(self, addr: int, data: int) -> None:
        if not 0 <= addr < self.depth:
            raise SimulationFault(
                f"{self.name}: write address {addr:#x} outside image of depth {self.depth}"
            )
        self._write = (addr, data)

    def compute(self) -> None:
        a, b = self.addr_a, self.addr_b
        if not 0 <= a < self.depth:
            raise SimulationFault(
                f"{self.name}: port a address {a:#x} outside image of depth {self.depth}"
            )
        if not 0 <= b < self.depth:
            raise SimulationFault(
                f"{self.name}: port b address {b:#x} outside image of depth {self.depth}"
            )
        self._read_a = self.image[a]
        self._read_b = self.image[b]

    def commit(self) -> None:
        if self.output_register:
            self.out_a = self._mid_a
            self.out_b = self._mid_b
            self._mid_a = self._read_a
            self._mid_b = self._read_b
        else:
            self.out_a = self._read_a
            self.out_b = self._read_b
        if self._write is not None:
            addr, data = self._write
            self.image[addr] = data
            self._write = None


class DspXorSlice:
    """DSP slice configured as a wide XOR with selectable register stages.

    Each input may pass through 0, 1 or 2 internal registers; the output
    register is optional. ``cascade_from`` replaces the first operand with
    another slice's output, delivered over the dedicated cascade route
    without passing through input registers. Asserting ``reset_in`` holds
    the output at zero regardless of the inputs.
    """

    __slots__ = (
        "width",
        "_mask",
        "a_regs",
        "b_regs",
        "output_register",
        "cascade_from",
        "name",
        "_a_in",
        "_b_in",
        "_a_pipe",
        "_b_pipe",
        "_pending",
        "_out",
        "reset_in",
    )

    def __init__(
        self,
        width: int = 48,
        a_regs: int = 1,
        b_regs: int = 1,
        output_register: bool = True,
        cascade_from: "DspXorSlice | None" = None,
        name: str = "dsp",
    ):
        if width not in (32, 48):
            raise ValueError("DSP XOR width must be 32 or 48 bits")
        if a_regs not in (0, 1, 2) or b_regs not in (0, 1, 2):
            raise ValueError("input register stages must be 0, 1 or 2")
        if cascade_from is not None and a_regs != 0:
            raise ValueError("cascade input bypasses the first operand's registers")
        self.width = width
        self._mask = (1 << width) - 1
        self.a_regs = a_regs
        self.b_regs = b_regs
        self.output_register = output_register
        self.cascade_from = cascade_from
        self.name = name
        self._a_in = 0
        self._b_in = 0
        self._a_pipe = [0] * a_regs
        self._b_pipe = [0] * b_regs
        self._pending = 0
        self._out = 0
        self.reset_in = False

    @property
    def latency(self) -> int:
        return max(self.a_regs, self.b_regs) + (1 if self.output_register else 0)

    def present(self, a: int | None = None, b: int | None = None) -> None:
        if a is not None:
            if self.cascade_from is not None:
                raise ValueError(f"{self.name}: operand a is driven by the cascade route")
            self._a_in = a & self._mask
        if b is not None:
            self._b_in = b & self._mask

    def _operands(self) -> tuple[int, int]:
        if self.cascade_from is not None:
            va = self.cascade_from.out
        else:
            va = self._a_pipe[-1] if self._a_pipe else self._a_in
        vb = self._b_pipe[-1] if self._b_pipe else self._b_in
        return va, vb

    def compute(self) -> None:
        va, vb = self._operands()
        self._pending = 0 if self.reset_in else (va ^ vb) & self._mask

    def commit(self) -> None:
        if self.output_register:
            self._out = self._pending
        if self.a_regs == 2:
            self._a_pipe[1] = self._a_pipe[0]
            self._a_pipe[0] = self._a_in
        elif self.a_regs == 1:
            self._a_pipe[0] = self._a_in
        if self.b_regs == 2:
            self._b_pipe[1] = self._b_pipe[0]
            self._b_pipe[0] = self._b_in
        elif self.b_regs == 1:
            self._b_pipe[0] = self._b_in

    @property
    def out(self) -> int:
        if self.output_register:
            return self._out
        if self.reset_in:
            return 0
        va, vb = self._operands()
        return (va ^ vb) & self._mask


class LutShiftRegister:
    """LUT-based shift register; shifts exactly one position per commit.

    M-type LUT chains only bring out the final bit, so tap access is
    restricted unless ``expose_all`` is set (the short controller registers
    are built from ordinary flip flops and expose every bit).
    """

    __slots__ = ("length", "expose_all", "_mask", "_in", "_state", "name")

    def __init__(self, length: int, expose_all: bool = False, name: str = "sr"):
        if length < 1:
            raise ValueError("shift register length must be positive")
        self.length = length
        self.expose_all = expose_all
        self._mask = (1 << length) - 1
        self._in = 0
        self._state = 0
        self.name = name

    def present(self, bit_in: int) -> None:
        self._in = bit_in & 1

    def compute(self) -> None:
        """Nothing to derive: the chain shifts its presented bit in at commit."""

    def commit(self) -> None:
        self._state = ((self._state << 1) | self._in) & self._mask
        self._in = 0

    @property
    def final(self) -> int:
        return (self._state >> (self.length - 1)) & 1

    def bit(self, position: int) -> int:
        if not self.expose_all and position != self.length - 1:
            raise SimulationFault(
                f"{self.name}: only the final bit of an M-type LUT chain is accessible"
            )
        return (self._state >> position) & 1

    @property
    def any_set(self) -> bool:
        """Model-level inspection only; real chains expose no such signal."""
        return self._state != 0
