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

The store takes part in every cycle of the datapath's pass loop
(:meth:`~drablocus.datapath.RoundDatapath.compute_cycle`), which steps
each cycle the controller's plan lists. The reset cycle is the program's
first step, on which both ports only read their addresses; key
initialization is then one pass, which the controller plans to end on
the cycle the program reports ready. Its held resets leave each injected
word alone in the RAMs, so from the reset cycle's state the pass is
computed at once from the datapath's tables (:meth:`KeyScheduler.initialize`);
a capped or upset one resumes the program once per cycle with the
S1 and S8 values the loop holds. In service the same loop serves the
store on every cycle from the tag rank it steps: it resets the round
counters, sets and reads both ports and counts the keys consumed.
"""

from __future__ import annotations

from .aesref import NUM_ROUNDS, RCON
from .datapath import _MASK32, _MASK128, MAIN_ROUNDS, MIX_COLUMNS_LATENCY, SLOT_VALUES, _products
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

# The store the reset cycle leaves, in the order :meth:`KeyScheduler.initialize` reads it.
_AFTER_RESET = (0,) * 7 + (None, _NO_INJECT, _NO_INJECT, [0, 0], build_empty_key_store())


def _rot_word(w: int) -> int:
    return ((w << 8) | (w >> 24)) & _MASK32


def _next_round_key(current: int, substituted: int, r: int) -> int:
    """Round key ``r`` from key ``r - 1`` and the substitution of its rotated last word."""
    w0 = (current >> 96) ^ substituted ^ (RCON[r] << 24)
    w1 = ((current >> 64) & _MASK32) ^ w0
    w2 = ((current >> 32) & _MASK32) ^ w1
    w3 = (current & _MASK32) ^ w2
    return (w0 << 96) | (w1 << 64) | (w2 << 32) | w3


class KeyScheduler:
    """The initialization program for one cipher key and the round-key
    store it fills.

    The store, a dual-port RAM without an output register, is held as
    plain attributes: ``image``, the port addresses ``addr_a``/``addr_b``,
    their read latches ``read_a``/``read_b``, ``pending_write`` and the
    outputs ``out_a``/``out_b``; ``round_counters`` go with it. Every
    cycle sets both addresses and reads them: the reset cycle and key
    initialization in the program, which the datapath's pass loop resumes
    through ``resume`` or :meth:`initialize` runs at once, and service in
    that loop itself, which also counts each key consumed in place, on
    the pass's last cycle as on the others. :meth:`commit` latches the
    last cycle's reads, then applies the write, so a word written and read
    in one cycle reads old.
    :class:`~drablocus.fabric.BramModel` is its specification.
    """

    def __init__(self, key: int):
        self.image = build_empty_key_store()
        self.addr_a = 0
        self.addr_b = 0
        self.out_a = 0
        self.out_b = 0
        self.read_a = 0
        self.read_b = 0
        # (address, data) for the write port this cycle, or None.
        self.pending_write: tuple[int, int] | None = None
        # Initial-round keys per mode: the cipher key for encryption, the
        # last expansion key for decryption. Two holding registers with a
        # mode mux stand in for the single register plus routing.
        self.initial_keys = [0, 0]
        # One per value of a tag's 4-bit slot field.
        self.round_counters = [0] * SLOT_VALUES
        self.fsm = EXPANDING
        # The program's cycles run; its first step, the reset cycle, is none.
        self.init_cycles = -1
        self._cipher_key = key & _MASK128
        self._program = self._initialization()
        next(self._program)
        # (data, mode) the schedule drives into the substitution and
        # product RAMs this cycle; zero outside initialization.
        self.sub_bytes_inject = _NO_INJECT
        self.mix_columns_inject = _NO_INJECT
        # The program's next step, ``resume(s1, s8)``, until the commit of
        # the cycle that reports the schedule ready; then None, and the
        # datapath's pass loop serves the store.
        self.resume = self._init_cycle

    def commit(self) -> None:
        self._latch()
        if self.fsm == READY:
            self.resume = None

    def _latch(self) -> None:
        """Latch both ports' reads into their outputs, then apply the
        pending write."""
        self.out_a = self.read_a
        self.out_b = self.read_b
        write = self.pending_write
        if write is not None:
            self.image[write[0]] = write[1]
            self.pending_write = None

    def _init_cycle(self, s1: bytes, s8: int) -> tuple[int, int, tuple, tuple]:
        """One step of the program, on the cycle's committed S1 and S8:
        latch the cycle before as :meth:`commit` does, run the program's
        step, then read both ports. Returns the cycle's port outputs and
        injects. On a pass's first cycle :meth:`commit` has latched the
        reads and the write, and the latch here changes nothing; no round
        counter moves before service. It does not call :meth:`commit`,
        the once-a-pass method that instrumentation hooks."""
        self._latch()
        self.sub_bytes_inject = self.mix_columns_inject = _NO_INJECT
        try:
            self._program.send((s1, s8))
        except StopIteration:
            self.fsm = READY
        else:
            self.init_cycles += 1
        image = self.image
        self.read_a = image[self.addr_a]
        self.read_b = image[self.addr_b]
        return self.out_a, self.out_b, self.sub_bytes_inject, self.mix_columns_inject

    def initialize(self, cycles: int, tables) -> bool:
        """Run the program's whole pass, ``cycles`` long, at once through the
        datapath's ``tables``, as the held datapath runs it: the S-box image
        substitutes the expansion's words, the product image and the cascade's
        fold inverse-mix the inner keys. Returns False, changing nothing, for
        another length or a store other than the one the reset cycle leaves."""
        state = (self.init_cycles, self.addr_a, self.addr_b, self.read_a, self.read_b,
                 self.out_a, self.out_b, self.pending_write, self.sub_bytes_inject,
                 self.mix_columns_inject, self.initial_keys, self.image)
        if cycles != KEY_INIT_CYCLES + 1 or state != _AFTER_RESET:
            return False
        image, key, sbox = self.image, self._cipher_key, tables.sbox[MODE_ENCRYPT]
        # Round r's encryption key is at address r, its decryption key at dec + r.
        dec = key_store_address(MODE_DECRYPT, 0)
        current = image[0] = image[dec + NUM_ROUNDS] = key
        for r in range(1, NUM_ROUNDS + 1):
            word = _rot_word(current & _MASK32).to_bytes(4, "big").translate(sbox)
            current = image[r] = _next_round_key(current, int.from_bytes(word, "big"), r)
        for r in range(1, MAIN_ROUNDS + 1):
            v = _products(tables.lanes[MODE_DECRYPT], image[r].to_bytes(16, "big"))
            v ^= v >> 256
            image[dec + NUM_ROUNDS - r] = (v ^ v >> 128) & _MASK128
        image[dec] = current
        self.initial_keys[:] = key, current
        # The last two cycles read round 1 on port a and the cipher key on port b.
        self.addr_a = 1
        self.out_a, self.out_b = self.read_a, self.read_b = image[1], image[self.addr_b]
        self.init_cycles, self.fsm = KEY_INIT_CYCLES, READY
        return True

    def _initialization(self):
        """The program, primed to its first yield; then each resume runs one
        cycle, the reset cycle first. A resume is sent the cycle's committed
        ``(s1, s8)``, s1 as bytes, and the yield that ends the cycle before
        takes them: the program reads the substituted word from S1 two
        cycles after its inject, and each inverse-mixed key from S8 seven
        cycles after its read."""
        yield
        # The reset cycle: both ports read their addresses, and nothing else.
        yield
        key = self._cipher_key
        self.initial_keys[MODE_ENCRYPT] = key
        self.pending_write = (key_store_address(MODE_ENCRYPT, 0), key)

        current = key
        round_keys = [key]
        for r in range(1, NUM_ROUNDS + 1):
            self.sub_bytes_inject = (_rot_word(current & _MASK32) << 96, MODE_ENCRYPT)
            yield
            s1, _ = yield
            current = _next_round_key(current, int.from_bytes(s1[:4], "big"), r)
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
                    s8,
                )
            _, s8 = yield
