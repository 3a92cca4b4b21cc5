"""A fixed pure-Python loop that measures how fast the host runs right now.

The benchmark runs on a shared virtual machine on which the same code runs
up to about 1.8 times slower, in phases of seconds to minutes, as other
tenants load the physical cores; wall and CPU time slow alike. No figure
in host seconds can hold a 25% bound there. So the benchmark times this
probe between its passes and converts each pass's host time to *reference
seconds*, the seconds of a host on which one probe call takes
:data:`REFERENCE_PROBE_S`: ``reference = host * REFERENCE_PROBE_S / probe``.

The probe mixes kinds of interpreter work, since they slow by different
amounts under contention: integer and dict arithmetic, tuple-table lookups
building ``bytes`` (as ``aesref`` does), method calls on small slotted
objects (as the per-cycle model does) and string formatting into a text
buffer (as the trace writer does). Sampled over minutes of slow and quiet
phases, the simulator slowed less than every part but the arithmetic, so
the arithmetic takes about half of the probe's time; ``aesref`` then reads
a few percent slow in slow phases and the simulator a few percent fast.
The probe imports nothing from ``drablocus``, so a change to the model
never moves it.
"""

from __future__ import annotations

import io
import time

# Probe time, in seconds, on the baseline host (2-vCPU Xeon VM, Python
# 3.11.7) in a quiet phase. It fixes the unit; changing it rescales every
# host-time figure.
REFERENCE_PROBE_S = 0.018

_TABLE = tuple((7 * i + 3) & 255 for i in range(256))


def _arith() -> int:
    seen = {}
    acc = 0
    for i in range(80000):
        seen[i & 255] = acc
        acc = (acc * 31 + i) & 0xFFFF
    return acc + len(seen)


def _tables() -> int:
    block = bytes(range(16))
    acc = 0
    for _ in range(1200):
        out = bytearray(16)
        for c in range(0, 16, 4):
            a0, a1, a2, a3 = block[c], block[c + 1], block[c + 2], block[c + 3]
            out[c] = _TABLE[a0] ^ _TABLE[a1] ^ a2 ^ a3
            out[c + 1] = a0 ^ _TABLE[a1] ^ _TABLE[a2]
        block = bytes(out)
        acc ^= int.from_bytes(block, "big")
    return acc


class _Register:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def step(self, x: int) -> int:
        self.value = (self.value + x) & 255
        return self.value


def _calls() -> int:
    registers = [_Register() for _ in range(8)]
    acc = 0
    for i in range(4000):
        for register in registers:
            acc ^= register.step(i)
    return acc


def _format() -> int:
    out = io.StringIO()
    for i in range(4000):
        out.write(f"cycle={i} fsm=run word={3 * i:08x} stage=r{i % 10}\n")
    return out.tell()


def probe_seconds() -> float:
    """Host seconds the fixed probe work takes now."""
    t0 = time.perf_counter()
    _arith()
    _tables()
    _calls()
    _format()
    return time.perf_counter() - t0
