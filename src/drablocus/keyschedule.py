"""Key schedule: initialization FSM and the three-consumer key store.

During initialization the scheduler owns the datapath taps (the
controller holds everything else in reset): word substitutions for the
expansion run through the substitution RAMs with the encrypt mode bit,
and the nine inner decryption keys are produced by pushing encryption
keys through the byte-product path with the decrypt mode bit, which
computes exactly the inverse mix-columns each key needs for the
equivalent inverse cipher.

All 22 keys land in one dual-port RAM addressed by {mode bit, round}, so
service during operation is uniform: port a answers the arbitrary-round
consumer, port b constantly reads the final round key, and the initial
key-add instance is fed from dedicated holding registers. Per-slot
round counters select port-a addresses.

Initialization schedule (one line per cycle group, counted in the run
summary): cycle 0 writes round 0 and starts the first substitution;
each expansion round takes 3 cycles (inject, wait, read + write); the
inversion phase streams nine keys through the product path back to
back, reading each result 6 cycles after injection.
"""

from __future__ import annotations

from .aesref import NUM_ROUNDS, RCON
from .controller import KEY_INIT
from .datapath import (
    _MASK32,
    _MASK128,
    _SLOT_FIELD,
    MAIN_ROUNDS,
    MIX_COLUMNS_LATENCY,
    SLOT_VALUES,
    TAG_BITS,
    TAG_VALID,
    RoundDatapath,
)
from .faults import KeyStoreFault
from .tables import MODE_DECRYPT, MODE_ENCRYPT, build_empty_key_store, key_store_address

EXPANDING = "expanding"
READY = "ready"

# An inner encryption key read from the store at cycle t is injected into
# the product path at t + 1 and leaves it, inverse-mixed, at t + 7.
_INVERSION_DELAY = 1 + MIX_COLUMNS_LATENCY

# Cycles the initialization program runs: three per expansion round, then
# the nine inner keys streamed back to back through the product path.
KEY_INIT_CYCLES = 3 * NUM_ROUNDS + MAIN_ROUNDS + _INVERSION_DELAY

_NO_INJECT = (0, 0)

# The service reads the tag fields of loop stages 7, 8 and 1.
_TAG7_SHIFT = 7 * TAG_BITS
_TAG8_SHIFT = 8 * TAG_BITS


def _rot_word(w: int) -> int:
    return ((w << 8) | (w >> 24)) & _MASK32


class KeyScheduler:
    """The initialization program for one cipher key and the round-key
    store it fills.

    The store, a dual-port RAM without an output register, is held as
    plain attributes: ``image``, the port addresses ``addr_a``/``addr_b``,
    their read latches, ``pending_write`` and the outputs ``out_a``/``out_b``.
    Every cycle :meth:`compute` sets both addresses and reads them;
    :meth:`commit` latches the reads, then applies the write, so a word
    written and read in one cycle reads old. :class:`~drablocus.fabric.BramModel`
    is its specification.
    """

    def __init__(self, key: int):
        self.image = build_empty_key_store()
        self.addr_a = 0
        self.addr_b = 0
        self.out_a = 0
        self.out_b = 0
        self._read_a = 0
        self._read_b = 0
        # (address, data) for the write port this cycle, or None.
        self.pending_write: tuple[int, int] | None = None
        # Initial-round keys per mode: the cipher key for encryption, the
        # last expansion key for decryption. Two holding registers with a
        # mode mux stand in for the single register plus routing.
        self.initial_keys = [0, 0]
        # One per value of a tag's 4-bit slot field.
        self.round_counters = [0] * SLOT_VALUES
        self.fsm = EXPANDING
        self.init_cycles = 0
        self._cipher_key = key & _MASK128
        self._program = None
        # (data, mode) the schedule drives into the substitution and
        # product RAMs this cycle; zero outside initialization.
        self.sub_bytes_inject = _NO_INJECT
        self.mix_columns_inject = _NO_INJECT
        self._pending_increment: int | None = None

    def on_admission(self, slot: int) -> None:
        self.round_counters[slot] = 0

    def compute(self, datapath: RoundDatapath, controller_fsm: str) -> None:
        if self.fsm == READY:
            # Service. A {mode, round <= 10} address is below the depth of
            # 32, so neither port can leave the image. The injects stay
            # zero, as cleared on the last initialization cycle.
            tags = datapath.tags
            # Arbitrary-round consumer: the word now in stage 7 presents to
            # the main key-add next cycle, together with port a's read.
            code = tags >> _TAG7_SHIFT
            if code & TAG_VALID:
                slot = code >> 1 & _SLOT_FIELD
                round_index = self.round_counters[slot] + 1
                if round_index > MAIN_ROUNDS:
                    raise KeyStoreFault(
                        f"slot {slot} requested main-loop key for round {round_index}"
                    )
                self.addr_a = (code & 1) << 4 | round_index
            else:
                self.addr_a = 0
            # Final-key consumer: constantly reads round 10 for the mode of
            # the word that would reach the final instance two cycles from
            # now (a stage without a word has a zero field).
            self.addr_b = (tags >> TAG_BITS & 1) << 4 | NUM_ROUNDS
            # The word in stage 8 consumes its key at the next commit.
            code = tags >> _TAG8_SHIFT
            self._pending_increment = code >> 1 & _SLOT_FIELD if code & TAG_VALID else None
        else:
            self.sub_bytes_inject = self.mix_columns_inject = _NO_INJECT
            if controller_fsm == KEY_INIT:
                if self._program is None:
                    self._program = self._initialization(datapath)
                try:
                    next(self._program)
                except StopIteration:
                    self.fsm = READY
                else:
                    self.init_cycles += 1
        image = self.image
        self._read_a = image[self.addr_a]
        self._read_b = image[self.addr_b]

    def at_fixed_point(self) -> bool:
        """Whether the schedule is in service and the commit leaves the
        store, its outputs and the round counters unchanged."""
        return (
            self.fsm == READY
            and self.pending_write is None
            and self._pending_increment is None
            and self._read_a == self.out_a
            and self._read_b == self.out_b
        )

    def commit(self) -> None:
        self.out_a = self._read_a
        self.out_b = self._read_b
        if self.pending_write is not None:
            addr, data = self.pending_write
            self.image[addr] = data
            self.pending_write = None
        if self._pending_increment is not None:
            self.round_counters[self._pending_increment] += 1
            self._pending_increment = None

    def _initialization(self, datapath: RoundDatapath):
        key = self._cipher_key
        self.initial_keys[MODE_ENCRYPT] = key
        self.pending_write = (key_store_address(MODE_ENCRYPT, 0), key)

        current = key
        round_keys = [key]
        for r in range(1, NUM_ROUNDS + 1):
            self.sub_bytes_inject = (_rot_word(current & _MASK32) << 96, MODE_ENCRYPT)
            yield
            yield
            substituted = (datapath.s1 >> 96) & _MASK32
            w0 = (current >> 96) ^ substituted ^ (RCON[r] << 24)
            w1 = ((current >> 64) & _MASK32) ^ w0
            w2 = ((current >> 32) & _MASK32) ^ w1
            w3 = (current & _MASK32) ^ w2
            current = (w0 << 96) | (w1 << 64) | (w2 << 32) | w3
            round_keys.append(current)
            self.pending_write = (key_store_address(MODE_ENCRYPT, r), current)
            yield

        self.initial_keys[MODE_DECRYPT] = round_keys[NUM_ROUNDS]

        # Stream encryption keys 9..1 back through the store and into the
        # product path; each inverse-transformed key returns
        # _INVERSION_DELAY cycles after its read and is stored as the
        # decrypt key for round 10 - source.
        reads = range(MAIN_ROUNDS, 0, -1)
        for t in range(MAIN_ROUNDS + _INVERSION_DELAY):
            if t < MAIN_ROUNDS:
                self.addr_a = key_store_address(MODE_ENCRYPT, reads[t])
            if t == 0:
                self.pending_write = (
                    key_store_address(MODE_DECRYPT, 0), round_keys[NUM_ROUNDS]
                )
            elif t == 1:
                self.pending_write = (key_store_address(MODE_DECRYPT, NUM_ROUNDS), key)
            if 1 <= t <= MAIN_ROUNDS:
                # The key read last cycle enters the product path.
                self.mix_columns_inject = (self.out_a, MODE_DECRYPT)
            if t >= _INVERSION_DELAY:
                self.pending_write = (
                    key_store_address(MODE_DECRYPT, NUM_ROUNDS - reads[t - _INVERSION_DELAY]),
                    datapath.s8,
                )
            yield
