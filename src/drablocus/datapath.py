"""The 12-stage iterative inner-pipelined AES round datapath.

One traversal of the loop crosses twelve register ranks:

====== ==========================================================
stage  register
====== ==========================================================
S0     substitution RAM read latch (8 dual-port RAMs, 2 bytes each)
S1     substitution RAM output register
S2     shift-rows switch register (slice flip flops)
S3     byte-product RAM read latch (8 dual-port RAMs)
S4     byte-product RAM output register
S5     XOR cascade rank 1 (slice-1 inputs, slice-2 input 1, fabric FF rank)
S6     XOR cascade rank 2 (slice-1 output, slice-2 input 2, slice-3 input 1)
S7     XOR cascade rank 3 (slice-2 output, slice-3 input 2)
S8     XOR cascade rank 4 (slice-3 output: full mix-columns result)
S9     main add-round-key input rank 1
S10    main add-round-key input rank 2
S11    main add-round-key output register
====== ==========================================================

The initial and final add-round-key instances sit outside the loop with
one input rank and one output rank each. A block makes the initial pass
(2 cycles), nine loop traversals (108), then re-enters S0..S2 for the
last substitution and row shift and diverts from S2 into the final
instance (2 + 1 + 2), 115 cycles in all.

Data and its (valid, mode, slot) tag advance in lockstep: each tag's
next value is computed with the data's and latched by the same commit,
and the controller's shift registers mirror the tag pipeline. Like the
data, the loop's tags are held as one packed rank with a 6-bit
``valid << 5 | slot << 1 | mode`` field per stage, zero where the stage
is empty, that rotates as the words move; a per-slot table holds each
word's sequence id. The controller holds its occupancy and mode
registers in the same layout. Inputs to
the substitution and product RAMs are OR-multiplexed; the controller's
reset sequencing must keep all but one source at zero, and the mux
asserts that.

Two descriptions of the same hardware live here. The unit classes
(:class:`SubBytesUnit`, :class:`ShiftRowsUnit`, :class:`MixColumnsUnit`,
:class:`AddRoundKeyUnit`) compose the fabric primitives one RAM, slice
and register at a time; they are the unit-tested specification.
:class:`RoundDatapath` is what runs: it holds every rank as a named int
(several registers of one rank as bit fields of one int) and steps them
in straight-line code, with substitution as ``bytes.translate`` and the
product lookups as per-lane tables (:class:`DatapathTables`), so a cycle
makes no per-primitive calls. The same code steps a pass of one cycle or
of many, in one frame over locals, under the lines the events of the
controller's record of the pass (:class:`Plan`) give each cycle, by the
same rules on every cycle, the first and the last included. It takes
every cycle's keys from the key store: in service it serves the store's
three consumers on each cycle from the tag rank it holds, the one copy
of the rank's movement, and before service it resumes the key
schedule's program on each cycle, which gives the cycle's keys and
injects. The power-up passes of held lines, a fresh
key's initialization and the flush, it computes at once to the end state
that follows from the tables and the key store. An untraced pass takes
all but its last two cycles position-major, events included, each
position's words in table-lookup rounds built from the model's images;
the words that run all nine rounds inside it, when a mode has a loop's
worth, go through their rounds together, one byte string per mode. A
lockstep test replays a simulator run into both and compares every tap
on every cycle.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property, lru_cache
from itertools import repeat
from operator import itemgetter, lshift
from struct import iter_unpack
from typing import NamedTuple, Sequence

from .aesref import _DEC_ROWS, _DEC_SHIFT, _ENC_ROWS, _ENC_SHIFT, NUM_ROUNDS
from .fabric import BramModel, DspXorSlice, Register
from .faults import CollisionError, KeyStoreFault, ProtocolError, SimulationFault
from .tables import MODE_DECRYPT, build_mixcolumns_image, build_sbox_image, key_store_address

NUM_LOOP_STAGES = 12
MAIN_ROUNDS = 9

SUB_BYTES_LATENCY = 2
SHIFT_ROWS_LATENCY = 1
MIX_COLUMNS_LATENCY = 6
ARK_EDGE_LATENCY = 2

# Admission to the last use of the shift-rows register: the track-register
# length. The final add-round-key instance adds two more cycles.
TRACK_CYCLES = ARK_EDGE_LATENCY + MAIN_ROUNDS * NUM_LOOP_STAGES + SUB_BYTES_LATENCY + SHIFT_ROWS_LATENCY
BLOCK_LATENCY = TRACK_CYCLES + ARK_EDGE_LATENCY

_MASK48 = (1 << 48) - 1
_MASK32 = (1 << 32) - 1
_MASK128 = (1 << 128) - 1
_MASK256 = (1 << 256) - 1
_MASK384 = (1 << 384) - 1
# The 128-bit field below the top one of a 384-bit and of a 512-bit rank.
_MID128 = _MASK128 << 128
_SECOND128 = _MASK128 << 256

# Tag ranks: one 6-bit ``valid << 5 | slot << 1 | mode`` field per loop
# stage, stage k in bits 6k..6k+5, zero where the stage is empty. Rotating
# a rank by one stage wraps S11 into S0. A 4-bit slot field can hold 16
# values, so the per-slot tables have 16 entries: a slot upset past 11
# reaches the controller's check instead of an index error. A word's tag
# outside the loop is its field with its sequence id above it, ``seq <<
# TAG_BITS | field``, and 0 where a rank holds no word.
TAG_BITS = 6
TAG_VALID = 1 << 5
TAG_FIELD = (1 << TAG_BITS) - 1
SLOT_VALUES = 16
_SLOT_FIELD = SLOT_VALUES - 1
# Bit 0 of every stage's field.
FIELD_LSBS = sum(1 << TAG_BITS * k for k in range(NUM_LOOP_STAGES))
_TAGS_MASK = (1 << TAG_BITS * NUM_LOOP_STAGES) - 1
_TAG_WRAP_SHIFT = TAG_BITS * (NUM_LOOP_STAGES - 1)
_TAG2_SHIFT = 2 * TAG_BITS
_TAG7_SHIFT = 7 * TAG_BITS
_TAG8_SHIFT = 8 * TAG_BITS
_VALID2 = TAG_VALID << _TAG2_SHIFT
_VALID11 = TAG_VALID << _TAG_WRAP_SHIFT
_CLEAR_TAG3 = ~(TAG_FIELD << 3 * TAG_BITS)

# Row shift of a 16-byte state, per mode bit.
_SHIFT_ROWS = (_ENC_ROWS, _DEC_ROWS)
_ZERO_STATE = (0,) * 16
# The row shift's moved bytes per mode bit, ``(to, at)``: byte ``to`` of its
# output is byte ``at`` of its input, and row 0 stays.
_ROW_MOVES = tuple(tuple((to, at) for to, at in enumerate(shift) if to != at)
                   for shift in (_ENC_SHIFT, _DEC_SHIFT))
# The tap record of a cycle that carries no tag.
_UNTAGGED = (0, 0, 0, bytes(16), _ZERO_STATE, 0, 0)


def or_mux_tap(*operands: int) -> int:
    """Bitwise-OR source multiplexing; at most one operand may be nonzero."""
    live = 0
    value = 0
    for v in operands:
        if v:
            live += 1
        value |= v
    if live > 1:
        raise ProtocolError(
            "OR-mux driven by multiple nonzero sources: "
            + ", ".join(f"{v:#034x}" for v in operands)
        )
    return value


class Word(NamedTuple):
    """The read-only view of a tag riding alongside a 128-bit value in the
    pipeline; :func:`word_view` builds it."""

    seq: int
    mode: int
    slot: int


class Plan(NamedTuple):
    """The one record of a pass's events, from the controller's plan to its
    commit: the pass's ``cycles``, the ascending offsets it admits on, the
    block, initial key and tag of each admission in turn in ``words``, which
    :meth:`~drablocus.controller.Controller.admit` fills, the ascending
    offsets it diverts on, whether a word ``arriving`` from the initial
    key-add reaches it on offset 0, and whether it is ``held`` outside run.

    The reset lines follow from the record by the controller's rules 4-6:
    the main key-add output is reset on each arrival, the cycle after an
    admission or offset 0 when a word is arriving, and the initial key-add
    output on every other cycle; a held pass resets both on every cycle."""

    cycles: int
    admissions: list[int]
    words: list[int]
    diverts: list[int]
    arriving: bool
    held: bool


def _permute_bytes(data: int, perm: tuple[int, ...]) -> int:
    v = 0
    for src in perm:
        v = (v << 8) | ((data >> ((15 - src) << 3)) & 0xFF)
    return v


def _present_bytes(brams: list[BramModel], data: int, mode: int) -> None:
    """Address eight dual-port {mode, byte} RAMs with a word's 16 bytes, two per RAM."""
    base = (mode & 1) << 8
    shift = 120
    for bram in brams:
        bram.addr_a = base | ((data >> shift) & 0xFF)
        bram.addr_b = base | ((data >> (shift - 8)) & 0xFF)
        shift -= 16


class SubBytesUnit:
    """16 parallel {mode, byte} substitutions in 8 dual-port RAMs; 2 cycles."""

    def __init__(self, image=None):
        image = build_sbox_image() if image is None else image
        self.brams = [BramModel(image, output_register=True, name=f"sbox{i}") for i in range(8)]

    def present(self, data: int, mode: int) -> None:
        _present_bytes(self.brams, data, mode)

    @property
    def out(self) -> int:
        v = 0
        for bram in self.brams:
            v = (v << 16) | (bram.out_a << 8) | bram.out_b
        return v

    def compute(self) -> None:
        for bram in self.brams:
            bram.compute()

    def commit(self) -> None:
        for bram in self.brams:
            bram.commit()


class ShiftRowsUnit:
    """LUT switch selecting the rotation for the word's mode, then one register rank."""

    def __init__(self):
        self.reg = Register(128, name="shift_rows")

    def present(self, data: int, mode: int) -> None:
        self.reg.present(_permute_bytes(data, _DEC_SHIFT if mode else _ENC_SHIFT))

    @property
    def reset_in(self) -> bool:
        return self.reg.reset_in

    @reset_in.setter
    def reset_in(self, value: bool) -> None:
        self.reg.reset_in = value

    @property
    def out(self) -> int:
        return self.reg.out

    def compute(self) -> None:
        self.reg.compute()

    def commit(self) -> None:
        self.reg.commit()


def _build_pack_map() -> tuple[tuple[tuple[tuple[tuple[int, int], ...], ...], int], ...]:
    """Wiring of product-RAM output fields into the twelve cascade vectors.

    Output byte n (row i = n mod 4, column j = n div 4) is the XOR, over
    k = 0..3, of field (i - k) mod 4 of the product entry for input byte
    s(k, j). Lane k of each group gathers its terms so the four addends of
    every output byte line up at the same position across the four lanes.
    """
    groups = []
    for g, byte_range in enumerate((range(0, 6), range(6, 12), range(12, 16))):
        lanes = []
        for k in range(4):
            positions = []
            for n in byte_range:
                i, j = n % 4, n // 4
                source_index = 4 * j + k
                field = (i - k) % 4
                positions.append((source_index, 24 - 8 * field))
            lanes.append(tuple(positions))
        groups.append((tuple(lanes), len(byte_range) * 8))
    return tuple(groups)


PACK_MAP = _build_pack_map()


class MixColumnsUnit:
    """Two-phase mix columns: product lookups, then cascaded wide XORs.

    Phase 1 is 16 parallel {mode, byte} lookups returning 32-bit product
    vectors (2 cycles in the RAMs). Phase 2 packs the lookup fields into
    four vectors per output group (48, 48 and 32 bits wide) and XORs each
    group's vectors in a three-slice cascade. Lane delays are 1, 2 and 3
    cycles; the slices provide at most two input registers, so the third
    lane's extra cycle comes from a 128-bit fabric register rank.
    """

    def __init__(self, image=None):
        image = build_mixcolumns_image() if image is None else image
        self.brams = [BramModel(image, output_register=True, name=f"mcprod{i}") for i in range(8)]
        self.ff_rank = Register(128, name="mc_lane3_delay")
        self.cascades = []
        for g, (_, width) in enumerate(PACK_MAP):
            first = DspXorSlice(width, a_regs=1, b_regs=1, name=f"mc_g{g}s0")
            second = DspXorSlice(first.width, a_regs=0, b_regs=2, cascade_from=first,
                                 name=f"mc_g{g}s1")
            third = DspXorSlice(first.width, a_regs=0, b_regs=2, cascade_from=second,
                                name=f"mc_g{g}s2")
            self.cascades.append((first, second, third))
        self._parts = [self.ff_rank]
        for cascade in self.cascades:
            self._parts.extend(cascade)

    def present(self, data: int, mode: int) -> None:
        _present_bytes(self.brams, data, mode)

    def _wire_cascade(self) -> None:
        lookups = []
        for bram in self.brams:
            lookups.append(bram.out_a)
            lookups.append(bram.out_b)
        lane3_packed = 0
        for (lanes, width), (first, second, third) in zip(PACK_MAP, self.cascades):
            vectors = []
            for positions in lanes:
                v = 0
                for source_index, field_shift in positions:
                    v = (v << 8) | ((lookups[source_index] >> field_shift) & 0xFF)
                vectors.append(v)
            first.present(a=vectors[0], b=vectors[1])
            second.present(b=vectors[2])
            lane3_packed = (lane3_packed << width) | vectors[3]
        self.ff_rank.present(lane3_packed)
        delayed = self.ff_rank.out
        self.cascades[2][2].present(b=delayed & _MASK32)
        self.cascades[1][2].present(b=(delayed >> 32) & _MASK48)
        self.cascades[0][2].present(b=(delayed >> 80) & _MASK48)

    @property
    def out(self) -> int:
        return (
            (self.cascades[0][2].out << 80)
            | (self.cascades[1][2].out << 32)
            | self.cascades[2][2].out
        )

    def compute(self) -> None:
        for bram in self.brams:
            bram.compute()
        self._wire_cascade()
        for part in self._parts:
            part.compute()

    def commit(self) -> None:
        for bram in self.brams:
            bram.commit()
        for part in self._parts:
            part.commit()


class AddRoundKeyUnit:
    """128-bit XOR with a round key in three parallel slices (48/48/32).

    The main instance runs two input ranks plus the output rank; the
    initial and final instances use a single input rank.
    """

    def __init__(self, input_regs: int, name: str):
        self.hi = DspXorSlice(48, a_regs=input_regs, b_regs=input_regs, name=f"{name}_hi")
        self.mid = DspXorSlice(48, a_regs=input_regs, b_regs=input_regs, name=f"{name}_mid")
        self.lo = DspXorSlice(32, a_regs=input_regs, b_regs=input_regs, name=f"{name}_lo")
        self.latency = input_regs + 1
        self._slices = (self.hi, self.mid, self.lo)

    def present(self, data: int, key: int) -> None:
        self.hi.present(a=(data >> 80) & _MASK48, b=(key >> 80) & _MASK48)
        self.mid.present(a=(data >> 32) & _MASK48, b=(key >> 32) & _MASK48)
        self.lo.present(a=data & _MASK32, b=key & _MASK32)

    @property
    def reset_in(self) -> bool:
        return self.hi.reset_in

    @reset_in.setter
    def reset_in(self, value: bool) -> None:
        for s in self._slices:
            s.reset_in = value

    @property
    def out(self) -> int:
        return (self.hi.out << 80) | (self.mid.out << 32) | self.lo.out

    def compute(self) -> None:
        for s in self._slices:
            s.compute()

    def commit(self) -> None:
        for s in self._slices:
            s.commit()


def _checked_image(image, width: int, name: str) -> list[int]:
    """The 512 words of a {mode, byte} RAM image, checked once.

    A 9-bit address reaches exactly 512 words. A read can fall outside
    only a short image, so this length check replaces the per-read address
    check of :class:`BramModel`; a longer image holds words no such RAM has.
    """
    words = list(image)
    if len(words) != 512:
        raise SimulationFault(
            f"{name}: image has {len(words)} entries, the 9-bit address needs 512"
        )
    for addr, word in enumerate(words):
        if not 0 <= word < 1 << width:
            raise SimulationFault(
                f"{name}: entry {addr:#x} = {word:#x} exceeds the {width}-bit RAM word"
            )
    return words


class DatapathTables:
    """Lookup tables of the flat step, derived once from the two RAM images.

    ``sbox[mode]`` is the 256-byte ``bytes.translate`` table of one half of
    the substitution image. ``lanes[mode][k][b]`` is the product entry for
    {mode, b} rotated right by k bytes, as 4 big-endian bytes: lane k of
    column j then lines up field (i - k) mod 4 of entry 4j + k under output
    row i, which is the :data:`PACK_MAP` wiring with the cascade groups side
    by side, and a rank of product entries is the join of its 16 entries.
    ``fused[mode][i][b]``, built on first use, fuses the two for byte i of a
    round's input, one entry a byte: byte n's table, lane n mod 4 of
    ``lanes[mode][.][sbox[mode][b]]`` as an int in column n div 4, gathered
    by the other mode's row shift, as :mod:`~drablocus.aesref` builds its
    round tables, so byte i takes the table of the position the row shift
    moves it to.
    ``fields[mode][f]``, built on first use, is the ``bytes.translate`` table
    of byte f of each byte's substituted product entry, for rounds of many
    words at once (:meth:`whole_legs`).
    ``power_up[flush]`` holds the ranks a key-initialization or flush pass
    ends on: the idle word, S2, its products and their S6, S7 and S8 folds.
    """

    def __init__(self, sbox_image=None, mc_image=None):
        sbox = _checked_image(build_sbox_image() if sbox_image is None else sbox_image, 8, "sbox")
        mc = _checked_image(
            build_mixcolumns_image() if mc_image is None else mc_image, 32, "mcprod"
        )
        self.sbox = (bytes(sbox[:256]), bytes(sbox[256:]))
        lanes = []
        for base in (0, 256):
            entries = [entry.to_bytes(4, "big") for entry in mc[base : base + 256]]
            lanes.append(tuple(tuple(e[4 - k :] + e[: 4 - k] for e in entries) for k in range(4)))
        self.lanes = tuple(lanes)
        idle = bytes(16).translate(self.sbox[0])
        self.power_up = tuple(
            (int.from_bytes(idle, "big"), int.from_bytes(s2, "big"), x, *_cascade(x))
            for s2 in (bytes(16), bytes(_SHIFT_ROWS[0](idle)))
            for x in (_products(self.lanes[0], s2),)
        )

    @cached_property
    def fused(self):
        fused = []
        for mode, (s, lanes) in enumerate(zip(self.sbox, self.lanes)):
            k = [itemgetter(*s)(tuple(map(int.from_bytes, lane, ("big",) * 256))) for lane in lanes]
            placed = [tuple(map(lshift, k[n % 4], repeat(96 - 32 * (n // 4), 256)))
                      for n in range(16)]
            fused.append(_SHIFT_ROWS[1 - mode](placed))
        return tuple(fused)

    @cached_property
    def fields(self):
        return tuple(tuple([bytes(map(itemgetter(f), itemgetter(*s)(lanes[0]))) for f in range(4)])
                     for s, lanes in zip(self.sbox, self.lanes))

    def whole_legs(self, mode, legs, keys) -> list[tuple[int, int, int]]:
        """The completions ``(offset, tag, data)`` of whole legs of one
        ``mode``, ``legs`` holding each leg's value, offset and tag in turn,
        the value its word's S11 value on admission as 16 bytes, under
        ``keys``, the mode's nine main round keys and its final key, as
        :meth:`RoundDatapath._window` would complete each.

        Every round serves all the legs' words at once, their states joined
        in one byte string: a gather of each byte the row shift moves, four
        translates to fields 0..3 of each byte's product entry, fields 1..3
        rotated right within their 32-bit columns, and their XOR with the key
        in every word. The last round is the translate, gather and final key.
        """
        n, moves, (f0, f1, f2, f3) = len(legs) // 3, _ROW_MOVES[mode], self.fields[mode]
        # The low byte of every 32-bit column.
        low = int.from_bytes(b"\0\0\0\xff" * 4 * n, "big")
        x = b"".join(legs[::3])
        for r, key in enumerate(keys):
            y = bytearray(x)
            for to, at in moves:
                y[to::16] = x[at::16]
            if r < MAIN_ROUNDS:
                # Field f rotated right by f bytes, as the fields folded from
                # 3 down, each rotated right by one byte before the next joins.
                a = int.from_bytes(y.translate(f3), "big")
                for f in (f2, f1, f0):
                    m = a & low
                    a = int.from_bytes(y.translate(f), "big") ^ (a ^ m) >> 8 ^ m << 24
            else:
                a = int.from_bytes(y.translate(self.sbox[mode]), "big")
            x = (a ^ int.from_bytes(key.to_bytes(16, "big") * n, "big")).to_bytes(16 * n, "big")
        words = map(int.from_bytes, map(itemgetter(0), iter_unpack("16s", x)), repeat("big"))
        return list(zip(legs[1::3], legs[2::3], words))


_tables_of = lru_cache(maxsize=1)(DatapathTables)


def built_in_tables() -> DatapathTables:
    """The built-in RAM images' tables, shared while the builders return the same images."""
    return _tables_of(tuple(build_sbox_image()), tuple(build_mixcolumns_image()))


def _products(lanes, state) -> int:
    """The rank of product entries for a row-shifted ``state``'s 16 bytes,
    read from one mode's ``lanes``: lane k takes row k of each column."""
    l0, l1, l2, l3 = lanes
    b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15 = state
    return int.from_bytes(b"".join((
        l0[b0], l0[b4], l0[b8], l0[b12], l1[b1], l1[b5], l1[b9], l1[b13],
        l2[b2], l2[b6], l2[b10], l2[b14], l3[b3], l3[b7], l3[b11], l3[b15],
    )), "big")


def word_view(tag: int) -> Word | None:
    """The :class:`Word` a ``seq << TAG_BITS | field`` tag names, or None
    where its valid bit is clear."""
    if not tag & TAG_VALID:
        return None
    return tuple.__new__(Word, (tag >> TAG_BITS, tag & 1, tag >> 1 & _SLOT_FIELD))


def _word(tags: int, stage: int, seqs: Sequence[int]) -> Word | None:
    """The view of the word in ``stage`` of a tag rank, its sequence id from
    the slots' ``seqs``, or None."""
    code = tags >> TAG_BITS * stage & TAG_FIELD
    return word_view(seqs[code >> 1 & _SLOT_FIELD] << TAG_BITS | code)


def _cascade(x: int) -> tuple[int, int, int]:
    """The S6, S7 and S8 values a rank ``x`` of product entries folds to in
    the XOR cascade, one lane more each."""
    x6 = (x ^ x >> 128 & _SECOND128) & _MASK384
    x7 = (x6 ^ x6 >> 128 & _MID128) & _MASK256
    return x6, x7, (x7 ^ x7 >> 128) & _MASK128


class RoundDatapath:
    """The loop plus initial/final key-add instances and tap points.

    Per pass, drive :meth:`compute_cycle` with the record of its events
    (:class:`Plan`) and the key store, then :meth:`commit_cycle`. Compute
    derives the next value of every rank and tag (raising the S0 collision
    there) after each cycle, and the words completed on the way; commit
    only latches the last. Between the two, :meth:`taps` and the tags show
    the state committed before the pass, each tag naming the word whose
    data its rank holds.

    Every register rank is one int attribute; a rank built from several
    registers holds them as bit fields, first register most significant:

    ======= =============================================================
    rank    fields
    ======= =============================================================
    s0, s1  16 substituted bytes (RAM read latch, RAM output register)
    s2      row-shifted state
    s3, s4  16 product entries as four 128-bit lanes (lane 0 first)
    s5      slice-1 operands a and b, slice-2 first b register, fabric
            rank: lanes 0, 1, 2, 3
    s6      slice-1 output, slice-2 second b register, slice-3 first b
            register: lanes 0^1, 2, 3
    s7      slice-2 output, slice-3 second b register: lanes 0^1^2, 3
    s8      slice-3 output: the mixed columns
    s9, s10 main key-add input ranks: data, key
    s11     main key-add output
    ia_in   initial key-add input rank: block, key
    ia_out  initial key-add output
    fa_in   final key-add input rank: data, key
    fa_out  final key-add output
    ======= =============================================================

    Each 128-bit field spans the 48/48/32-bit slices (or the three
    cascade groups) side by side; XOR is bitwise, so one int per rank
    computes what the slices compute.

    The tags of the loop's words are a rank too, ``tags``, with one field
    per stage, stage k lowest: bits 6k..6k+5 hold ``valid << 5 | slot << 1
    | mode`` for the word in stage k, and a stage without a word has a
    zero field. The rank rotates one stage per cycle as the data does,
    S11's word wrapping into S0, and the arriving word takes S0.
    ``seqs[slot]`` is the sequence id of the word holding a slot: a pass
    writes it for each word entering S0 into a copy, which the commit
    latches with the ranks. It has an entry for each of the 16 values a
    slot field can hold. Each rank of the initial and final instances has
    its word's tag beside it (``ia_in_tag``, ``ia_out_tag``, ``fa_in_tag``,
    ``fa_out_tag``) as an int: the word's field with its sequence id above
    it, ``seq << TAG_BITS | valid << 5 | slot << 1 | mode``, or 0. An edge
    tag carries its own sequence id because an arriving word and the
    recirculating word it collides with at S0 may share a slot.
    :attr:`loop_tags` and :meth:`taps` build :class:`Word` views only when
    asked.
    """

    __slots__ = (
        "s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11",
        "ia_in", "ia_out", "fa_in", "fa_out",
        "tags", "seqs", "ia_in_tag", "ia_out_tag", "fa_in_tag", "fa_out_tag",
        "fused_cycles", "_sbox", "_lanes", "_tables", "_next",
    )

    def __init__(self, tables: DatapathTables | None = None):
        tables = built_in_tables() if tables is None else tables
        self._sbox = tables.sbox
        self._lanes, self._tables = tables.lanes, tables
        self.fused_cycles = 0
        self.s0 = self.s1 = self.s2 = self.s3 = self.s4 = self.s5 = 0
        self.s6 = self.s7 = self.s8 = self.s9 = self.s10 = self.s11 = 0
        self.ia_in = self.ia_out = self.fa_in = self.fa_out = 0
        self._next = None
        self.tags = 0
        self.seqs = [0] * SLOT_VALUES
        self.ia_in_tag = self.ia_out_tag = self.fa_in_tag = self.fa_out_tag = 0

    def compute_cycle(
        self,
        *,
        plan: Plan,
        store,
        held_reset: bool = False,
        taps: list | None = None,
    ) -> list[tuple[int, int, int]]:
        """Compute each cycle of the pass ``plan`` records, under the lines
        its events give the cycle: an admission presents its word's block and
        initial key, a divert sends S2's word into the final instance, and
        the reset lines follow from the arrivals (:class:`Plan`). The loop
        walks the record, with the next admission and divert held as
        offsets: it decodes the admission and reset lines only on an
        admission or arrival cycle and the cycle after it, and takes each
        divert on its own cycle. ``held_reset``, the reset of the shift-rows
        register and the final key-add output, holds over the pass. Each
        cycle but the last is committed in locals, and the last one's next
        state awaits :meth:`commit_cycle`.

        The key ``store`` (a :class:`~drablocus.keyschedule.KeyScheduler`)
        gives every cycle's keys and injects. In service the first cycle's
        are its outputs and injects, and every cycle of the pass reads it
        from the committed tag rank: an admission resets its slot's round
        counter, port a reads the key of the next round of the word in S7,
        raising :class:`KeyStoreFault` past the last main round, port b
        reads the final key for the mode of the word in S1, and the word in
        S8 counts its key in the store's round counters, on every cycle the
        same. The reads are the next cycle's keys; the last cycle's
        addresses and reads await the store's commit. Before service ``store.resume(s1, s8)``, given each
        cycle's committed S1 (as bytes) and S8, returns its main and final
        keys and its substitution and product injects, ``(data, mode)``
        each.

        A held pass with no event, key initialization from the reset cycle's
        state or a flush of at least :data:`NUM_LOOP_STAGES` cycles with no
        tag, is computed at once (:meth:`_power_up`); from any other state,
        or shorter, it steps every cycle.

        An untraced pass in service that opens with no word on its way in
        computes all but its last two cycles position-major
        (:meth:`_window`), any number of diverts, admissions and their S11
        resets at each position included, if those are at least a loop
        traversal and it admits on neither cycle before them. A stray tag
        bit, a divert that finds no word or an arrival one, a slot live at
        two positions or a key read past round 9 declines, and the pass
        steps every cycle. The window computes a
        mode's whole legs, words admitted and diverted in it after nine
        rounds, at once (:meth:`DatapathTables.whole_legs`) when the mode has
        at least :data:`NUM_LOOP_STAGES` of them.

        Returns each completion of the pass as ``(offset, tag, data)``: the
        cycle's offset from the first, the tag of the word the final key-add
        output carries then, ``seq << TAG_BITS | field``, and its value. A
        fault raised on a later cycle carries its offset as ``offset`` and
        the completions before it as ``completions``. A ``taps`` list gets
        each cycle's committed ``(tags, ia_out, ia_out_tag, s1, s2, s8,
        s11)``, s1 and s2 as bytes.
        """
        held = plan.held
        if held and self._power_up(plan, store, held_reset, taps):
            return []
        sbox, lanes = self._sbox, self._lanes
        # The slots' sequence ids, latched with the ranks at commit.
        seqs = self.seqs[:]

        # The committed state in locals: s0 and s1 as bytes, s2 as its 16
        # bytes (the row shift gives a tuple of them). Each cycle computes
        # every rank's next value and latches it in place, from the end of
        # the loop back, so that each rank is read before it is overwritten;
        # S0's next value waits in sub while S11's is computed. The final
        # key-add ranks take the last two cycles' s2 and final keys: s2_1
        # and s2_2 keep the s2 of the last two cycles, and last_final_key
        # the final key of the cycle before the last, seeded from the
        # committed input rank as the cycle before the pass left them.
        s0 = self.s0.to_bytes(16, "big")
        s1 = self.s1.to_bytes(16, "big")
        s2 = self.s2.to_bytes(16, "big")
        s3, s4, s5, s6, s7, s8 = self.s3, self.s4, self.s5, self.s6, self.s7, self.s8
        s9, s10, s11 = self.s9, self.s10, self.s11
        ia_in, ia_out, fa_in, tags = self.ia_in, self.ia_out, self.fa_in, self.tags
        ia_in_tag, entering, fa_in_tag = self.ia_in_tag, self.ia_out_tag, self.fa_in_tag
        fa_out_tag = self.fa_out_tag
        s2_1, last_final_key = (fa_in >> 128).to_bytes(16, "big"), fa_in & _MASK128

        # The completions: the committed output rank's word on the first
        # cycle, the committed input rank's on the second, and each word
        # diverted in the pass two cycles after its divert, with the row
        # shift it left S2 with under that cycle's final key.
        cycles = plan.cycles - 1
        completions = [(0, fa_out_tag, self.fa_out)] if fa_out_tag & TAG_VALID else []
        if cycles and fa_in_tag & TAG_VALID:
            data = 0 if held_reset else (fa_in >> 128) ^ last_final_key
            completions.append((1, fa_in_tag, data))
        # The store serves from its image and round counters, or resumes its
        # program, which gives the first cycle's keys and injects too.
        image = counters = None
        resume = store.resume
        if resume is None:
            image, counters = store.image, store.round_counters
            main_key, final_key = store.out_a, store.out_b
            ks_sub_bytes, ks_mix_columns = store.sub_bytes_inject, store.mix_columns_inject
        else:
            main_key, final_key, ks_sub_bytes, ks_mix_columns = resume(s1, s8)
        (ks_sb_data, ks_sb_mode), (ks_mc_data, ks_mc_mode) = ks_sub_bytes, ks_mix_columns
        # An untraced pass in service with no word on its way in tries one
        # window, from its first cycle.
        cycle = 0
        if not (held or held_reset or taps is not None or image is None
                or ks_sb_data or ks_sb_mode or ks_mc_data or ks_mc_mode
                or ia_in or ia_out or (entering | ia_in_tag) & TAG_VALID):
            ranks = [s0, s1, s2, s3, s4, s5, s6, s7, s8, s9, s10, s11, main_key, final_key]
            cycle = self._window(plan, cycles, ranks, tags, seqs, image, counters, completions)
            if cycle:
                s0, s1, s2, s3, s4, s5, s6, s7, s8, s9, s10, s11, main_key, final_key, tags = ranks
        # The record from this cycle on, an offset past the pass standing for
        # no next admission or divert; ``arriving`` holds whether the next
        # decoded cycle is an arrival. The window declines an admission whose
        # word would arrive on its end, so only offset 0 opens on an arrival.
        _, admissions, words, diverts, arriving, _ = plan
        never, a, d = cycles + 1, bisect_left(admissions, cycle), bisect_left(diverts, cycle)
        admits, words, diverts = iter(admissions[a:]), iter(words[3 * a:]), iter(diverts[d:])
        next_admit, next_divert, event = next(admits, never), next(diverts, never), cycle
        try:
            while True:
                if cycle == event:
                    # The lines of the first cycle, an admission or arrival
                    # cycle, or the cycle after one, which has none unless it
                    # is one too. A divert is read where it acts.
                    initial_reset, main_reset = held or not arriving, held or arriving
                    event = cycle + 1 if arriving else next_admit
                    arriving = cycle == next_admit
                    if arriving:
                        block, key, admitted = next(words), next(words), next(words)
                        ia_in_next, event = (block << 128) | key, cycle + 1
                        next_admit = next(admits, never)
                    else:
                        ia_in_next = admitted = 0
                if taps is not None:
                    taps.append((tags, ia_out, entering, s1, s2, s8, s11))
                if image is not None:
                    # Port a answers the word in S7, which presents to the main
                    # key-add next cycle; port b reads round 10 for the mode of
                    # the word two cycles from the final instance (an empty
                    # stage has a zero field). A {mode, round <= 10} address is
                    # below the depth of 32, so neither port leaves the image.
                    if admitted & TAG_VALID:
                        counters[admitted >> 1 & _SLOT_FIELD] = 0
                    code = tags >> _TAG7_SHIFT
                    if code & TAG_VALID:
                        slot = code >> 1 & _SLOT_FIELD
                        round_index = counters[slot] + 1
                        if round_index > MAIN_ROUNDS:
                            raise KeyStoreFault(
                                f"slot {slot} requested main-loop key for round {round_index}"
                            )
                        addr_a = (code & 1) << 4 | round_index
                    else:
                        addr_a = 0
                    addr_b = (tags >> TAG_BITS & 1) << 4 | NUM_ROUNDS
                    read_a = image[addr_a]
                    read_b = image[addr_b]
                    # The word in S8 consumes its key.
                    code = tags >> _TAG8_SHIFT
                    if code & TAG_VALID:
                        counters[code >> 1 & _SLOT_FIELD] += 1
                # Substitution RAMs behind the OR mux; the driving word's mode
                # (the key schedule's when none) selects the table half. The mux
                # check is called only when two sources drive, to raise its fault.
                if (s11 and (ia_out or ks_sb_data)) or (ia_out and ks_sb_data):
                    or_mux_tap(s11, ia_out, ks_sb_data)
                if entering & TAG_VALID:
                    sb_mode = entering & 1
                elif tags & _VALID11:
                    sb_mode = tags >> _TAG_WRAP_SHIFT & 1
                else:
                    sb_mode = ks_sb_mode
                sub = (s11 | ia_out | ks_sb_data).to_bytes(16, "big").translate(sbox[sb_mode])

                # Key-add outputs: the XOR of the last input rank's data and key.
                s11 = 0 if main_reset else (s10 >> 128) ^ (s10 & _MASK128)
                s10 = s9
                s9 = (s8 << 128) | main_key
                ia_out = 0 if initial_reset else (ia_in >> 128) ^ (ia_in & _MASK128)
                ia_in = ia_in_next

                # XOR cascade: each rank folds the next lane into the running sum,
                # XORing its first field onto the second and dropping the first.
                s8 = (s7 ^ (s7 >> 128)) & _MASK128
                s7 = (s6 ^ ((s6 >> 128) & _MID128)) & _MASK256
                s6 = (s5 ^ ((s5 >> 128) & _SECOND128)) & _MASK384
                s5 = s4
                s4 = s3

                # Product RAMs behind the OR mux, read straight into lane order:
                # the join of :func:`_products`, inline to save a call a cycle.
                if ks_mc_data:
                    shifted = int.from_bytes(bytes(s2), "big")
                    if shifted:
                        or_mux_tap(shifted, ks_mc_data)
                    mc_in = (shifted | ks_mc_data).to_bytes(16, "big")
                else:
                    mc_in = s2
                l0, l1, l2, l3 = lanes[tags >> _TAG2_SHIFT & 1 if tags & _VALID2 else ks_mc_mode]
                b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15 = mc_in
                s3 = int.from_bytes(b"".join((
                    l0[b0], l0[b4], l0[b8], l0[b12], l1[b1], l1[b5], l1[b9], l1[b13],
                    l2[b2], l2[b6], l2[b10], l2[b14], l3[b3], l3[b7], l3[b11], l3[b15],
                )), "big")

                # Row shift of the substitution RAM output register.
                s2_2 = s2_1
                s2_1 = s2
                s2 = _ZERO_STATE if held_reset else _SHIFT_ROWS[tags >> TAG_BITS & 1](s1)
                s1 = s0
                s0 = sub

                # Tags take their next value beside the data: the tag rank rotates
                # one stage, S11's word wrapping into S0; the arriving word takes
                # S0 (never beside a recirculating one), and a divert sends S2's
                # word into the final instance instead of S3.
                rotated = ((tags << TAG_BITS) | (tags >> _TAG_WRAP_SHIFT)) & _TAGS_MASK
                if entering & TAG_VALID:
                    if rotated & TAG_VALID:
                        raise CollisionError(
                            f"stage S0 claimed by arriving {word_view(entering)} and "
                            f"recirculating {_word(tags, NUM_LOOP_STAGES - 1, seqs)}"
                        )
                    seqs[entering >> 1 & _SLOT_FIELD] = entering >> TAG_BITS
                    rotated |= entering & TAG_FIELD
                diverted = 0
                if cycle == next_divert:
                    next_divert = next(diverts, never)
                    code = tags >> _TAG2_SHIFT & TAG_FIELD
                    if code & TAG_VALID:
                        diverted = seqs[code >> 1 & _SLOT_FIELD] << TAG_BITS | code
                        if cycle + 2 <= cycles:
                            completions.append((
                                cycle + 2, diverted,
                                0 if held_reset
                                else int.from_bytes(bytes(s2_1), "big") ^ final_key,
                            ))
                    rotated &= _CLEAR_TAG3
                tags = rotated
                fa_out_tag = fa_in_tag
                fa_in_tag = diverted
                entering = ia_in_tag
                ia_in_tag = admitted

                if cycle == cycles:
                    break
                last_final_key = final_key
                if image is not None:
                    main_key, final_key = read_a, read_b
                else:
                    (
                        main_key, final_key, (ks_sb_data, ks_sb_mode), (ks_mc_data, ks_mc_mode)
                    ) = resume(s1, s8)
                cycle += 1
        except SimulationFault as fault:
            fault.offset = cycle
            fault.completions = completions
            raise

        if image is not None:
            store.addr_a, store.addr_b, store.read_a, store.read_b = addr_a, addr_b, read_a, read_b

        # The final key-add ranks, from the last two cycles: the input rank
        # takes the last cycle's s2 and final key, and the output rank the
        # XOR of the input rank the last cycle began with.
        self._next = (
            int.from_bytes(s0, "big"), int.from_bytes(s1, "big"), int.from_bytes(bytes(s2), "big"),
            s3, s4, s5, s6, s7, s8, s9, s10, s11,
            ia_in, ia_out, (int.from_bytes(bytes(s2_1), "big") << 128) | final_key,
            0 if held_reset else int.from_bytes(bytes(s2_2), "big") ^ last_final_key,
            tags, seqs, ia_in_tag, entering, fa_in_tag, fa_out_tag,
        )
        return completions

    def _power_up(self, plan, store, held_reset, taps) -> bool:
        """Compute a held power-up pass with no event at once, to the end state
        that follows from these tables and the key store alone: no tag, the
        idle word (a zero word substituted in encrypt mode) in S0 and S1,
        and S2 and its encrypt-lane products and cascade folds down to S8.

        Before service, under ``held_reset``, it is key initialization from
        the reset cycle's state, which ``store.initialize`` runs whole: S2
        stays in reset, and S9 and S10 hold the last two S8 values beside
        port a's key. In service, with the held reset released, it is the
        flush: from a state with no tag, no store inject and at most one
        source at the substitution mux, the resets zero the mux input from
        the second cycle, so the idle word holds S0 from the third and S10
        from the thirteenth, and port a reads word 0 and port b the encrypt
        final key on every cycle; S9 and S10 hold S8 beside word 0, and the
        final key-add S2 beside port b's word. A ``taps`` list gets a record
        of each cycle that carries no tag. Returns False, changing nothing,
        for any other pass, such as a flush shorter than
        :data:`NUM_LOOP_STAGES`."""
        n, flush = plan.cycles, store.resume is None
        if (n < (NUM_LOOP_STAGES if flush else 2) or plan.admissions or plan.diverts
                or held_reset == flush or self.tags
                or (self.ia_in_tag | self.ia_out_tag | self.fa_in_tag | self.fa_out_tag) & TAG_VALID
                or flush and (self.s11 and self.ia_out
                              or not store.sub_bytes_inject == store.mix_columns_inject == (0, 0))):
            return False
        idle, s2, x, x6, x7, x8 = self._tables.power_up[flush]
        if flush:
            store.addr_a, store.addr_b = 0, NUM_ROUNDS
            store.read_a, store.read_b = store.image[0], store.image[NUM_ROUNDS]
            last = x8
        else:
            if (
                self.s0, self.s1, self.s2, self.s3, self.s4, self.s5, self.s6, self.s7, self.s8,
                self.s9, self.s10, self.s11, self.ia_in, self.ia_out, self.fa_in, self.fa_out,
            ) != (idle, 0, 0, x) + (0,) * 12 or not store.initialize(n, self._tables):
                return False
            last = store.image[key_store_address(MODE_DECRYPT, MAIN_ROUNDS)]
        key, final = store.read_a, store.read_b
        self._next = (idle, idle, s2, x, x, x, x6, x7, x8, x8 << 128 | key, last << 128 | key,
                      0, 0, 0, s2 << 128 | final, 0 if held_reset else s2 ^ final,
                      0, self.seqs, 0, 0, 0, 0)
        if taps is not None:
            taps += [_UNTAGGED] * n
        return True

    def _window(self, plan, cycles, ranks, tags, seqs, image, counters, completions) -> int:
        """Advance ``ranks``, the loop's twelve and the held main and final
        keys, over all but the last two cycles of the pass, append the tag
        rank and add the completions; return the end, or 0 having changed
        nothing. Each position runs its words in fused rounds from S11 value
        to S11 value, restarting to its stage at the end: a divert completes
        its word from its last S11 value, an admitted word starts as its
        block XOR the initial key on the S11 visit the reset clears. A
        window shorter than a loop traversal, a word arriving on its first
        cycle, an admission whose word would be on its way in at the end, or
        an event a check could fire on, declines. The record's offsets give
        each position its events by arithmetic, in one walk of both lists in
        offset order, with no cycle scanned: an admission on offset o
        arrives at position (9 - o) mod 12, and a divert on o leaves (2 - o)
        mod 12. A position's diverts and arrivals alternate, so its legs run
        in turn: the starting word, then after each divert the next arriving
        word, or what the last divert leaves. A whole leg, an arriving word
        that reads all nine main keys and is diverted before the next
        arrival at its position, feeds only its completion. The walk finds
        each by its admission offset; when it finds at least
        :data:`NUM_LOOP_STAGES` of a mode, each of that mode's runs its
        checks and only records its value, completion offset and tag, and
        :meth:`DatapathTables.whole_legs` completes them all at once after
        the positions."""
        end = cycles - 1
        admissions, diverts, words = plan.admissions, plan.diverts, plan.words
        # The admissions inside the window: none on the two cycles before the
        # end, whose words would still be on their way in there.
        na, nd = bisect_left(admissions, end - 2), bisect_left(diverts, end)
        if (end < NUM_LOOP_STAGES or plan.arriving or na < len(admissions) and admissions[na] < end
                or tags & ~((tags >> 5 & FIELD_LSBS) * TAG_FIELD)):
            return 0
        # Each position's event offsets, then ``end``, and the words its
        # arrivals take, by their first index into the plan's words. An
        # arrival needs a free S0 and a divert a word, so from the start the
        # two alternate. Both offset lists end on ``end``, past any event.
        lists, whole = [[] for _ in range(2 * NUM_LOOP_STAGES)], (set(), set())
        events, taken = lists[:NUM_LOOP_STAGES], lists[NUM_LOOP_STAGES:]
        occupied = [tags >> TAG_BITS * p & TAG_VALID for p in range(NUM_LOOP_STAGES)]
        admits, stops, k, j = admissions[:na] + [end], diverts[:nd] + [end], 0, 0
        while k < na or j < nd:
            o, d = admits[k], stops[j]
            if o < d:
                p = (9 - o) % NUM_LOOP_STAGES
                if occupied[p]:
                    return 0
                occupied[p], at = TAG_VALID, events[p]
                # The word this position admitted two events back left after
                # nine rounds and this admission follows it: a whole leg, by
                # its admission offset under its mode.
                if len(at) > 1 and at[-1] - at[-2] == TRACK_CYCLES:
                    whole[words[taken[p][-1] + 2] & 1].add(at[-2])
                at.append(o)
                taken[p].append(3 * k)
                k += 1
            else:
                p = (2 - d) % NUM_LOOP_STAGES
                if not occupied[p]:
                    return 0
                occupied[p], j = 0, j + 1
                events[p].append(d)
        sbox, lanes, idle = self._sbox, self._lanes, image[0]
        out, done, owners, counts, entered, new_tags = [0] * 14, [], {}, counters[:], seqs[:], 0
        probe, fused, batch = type(counters)(counters), self._tables.fused, [[], []]
        for p, offsets in enumerate(events):
            code = tags >> TAG_BITS * p & TAG_FIELD
            e, m, slot = (p + end) % NUM_LOOP_STAGES, code & 1, code >> 1 & _SLOT_FIELD
            # Its legs: the word at the start, unless an arrival resets it away
            # first; each arriving word; what a divert leaves, while it reads.
            offsets.append(end)
            i, u, key, field, arrivals = 0, None, 0, code, iter(taken[p])
            leg = "arriving" if offsets[0] < end and code < TAG_VALID else "starting"
            while leg:
                if leg == "arriving":
                    a, w = offsets[i], next(arrivals)
                    block, initial_key, tag = words[w:w + 3]
                    field, v, u, live = tag & TAG_FIELD, block ^ initial_key, None, True
                    seq, m, slot = tag >> TAG_BITS, tag & 1, tag >> 1 & _SLOT_FIELD
                    probe[slot] = 0  # the admission's reset, as the loop makes it
                    i += 1
                    s7, s8, count, stop = a + 10, a + 11, probe[slot], offsets[i]
                    entered[slot] = seq
                elif leg == "starting":
                    v, stop, live, seq = ranks[p], offsets[0], code, seqs[slot]
                    count = counters[slot]
                    s7, s8 = (7 - p) % NUM_LOOP_STAGES, (8 - p) % NUM_LOOP_STAGES
                else:
                    stop, live, s7 = end, 0, d + 5
                # A tagged word reads its next key at S7 each turn and counts it
                # at S8; S7 reads word 0 while untagged.
                reads = (stop - s7 + 11) // NUM_LOOP_STAGES
                if not live:
                    keys = [idle] * reads
                else:
                    first = count + 1 + (s8 < s7)
                    if (reads and not 0 < first <= MAIN_ROUNDS + 1 - reads
                            or owners.setdefault(slot, p) != p):
                        return 0
                    counts[slot] = count + (stop - s8 + 11) // NUM_LOOP_STAGES
                    # A whole leg, as the scan found it, feeds only its
                    # completion. When its mode has a loop's worth of them (all
                    # at once pays from about ten), it joins them, computed at
                    # once after the positions.
                    if leg == "arriving" and len(whole[m]) >= NUM_LOOP_STAGES and a in whole[m]:
                        batch[m] += v.to_bytes(16, "big"), stop + 2, tag
                        i += 1
                        continue
                    keys = image[m << 4 | first : (m << 4 | first) + reads]
                if leg == "starting":
                    if stop < 11 - p:  # diverted before its S11 visit
                        u = v if p == 2 else _SHIFT_ROWS[m](v)
                    else:  # finished to its S11 value; S9 and S10 hold their keys
                        if p < 3:
                            v = _products(lanes[m], v if p == 2 else _SHIFT_ROWS[m](v))
                        v ^= v >> 256
                        v = (v ^ v >> 128) & _MASK128 ^ (
                            keys.pop(0) if p < 8 else ranks[12] if p == 8 else 0)
                elif leg == "left":  # the divert's round in the word's mode, then untagged
                    v, key, m, u = _products(lanes[m], u), keys.pop(0), 0, None
                    v ^= v >> 256
                    v = (v ^ v >> 128) & _MASK128 ^ key
                if keys:
                    f0, f1, f2, f3, f4, f5, f6, f7, f8, f9, f10, f11, f12, f13, f14, f15 = fused[m]
                for key in keys:
                    b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15 = (
                        v.to_bytes(16, "big"))
                    v = (f0[b0] ^ f1[b1] ^ f2[b2] ^ f3[b3] ^ f4[b4] ^ f5[b5] ^ f6[b6] ^ f7[b7]
                         ^ f8[b8] ^ f9[b9] ^ f10[b10] ^ f11[b11] ^ f12[b12] ^ f13[b13]
                         ^ f14[b14] ^ f15[b15] ^ key)
                if stop == end:
                    break
                # The divert, under the final key its S1 visit read.
                if u is None:
                    u = _SHIFT_ROWS[m](v.to_bytes(16, "big").translate(sbox[m]))
                final = ranks[13] if not stop else image[m << 4 | NUM_ROUNDS]
                done.append((stop + 2, seq << TAG_BITS | field,
                             int.from_bytes(bytes(u), "big") ^ final))
                d, i, field = stop, i + 1, 0
                leg = "arriving" if offsets[i] < end else "left" if d + 5 < end else None
            # The restart from the last S11 value, or from a partial round
            # whose last read the end's S8 word holds as the main key.
            if e < 8:
                sub = v.to_bytes(16, "big").translate(sbox[m])
                u = _SHIFT_ROWS[m](sub)
                x = _products(lanes[m], u) if e > 2 else 0
                out[e] = (sub, sub, u, x, x, x)[e] if e < 6 else _cascade(x)[e - 6]
            elif e == 8:
                out[8], out[12] = v ^ key, key
            else:
                out[e] = ((v ^ key) << 128 | key, (v ^ key) << 128 | key, v)[e - 9]
            new_tags |= field << TAG_BITS * e
        for m in (0, 1):
            # Each mode's legs are let go as the next mode's call starts.
            legs, batch[m] = batch[m], None
            if legs:
                done += self._tables.whole_legs(m, legs, image[m << 4 | 1 : m << 4 | 11])
        counters[:], seqs[:], self.fused_cycles = counts, entered, self.fused_cycles + end
        out[13] = image[(new_tags >> _TAG2_SHIFT & 1) << 4 | NUM_ROUNDS]
        ranks[:] = out + [new_tags]
        completions += sorted(done)
        return end

    def commit_cycle(self) -> None:
        (
            self.s0, self.s1, self.s2, self.s3, self.s4, self.s5, self.s6, self.s7, self.s8,
            self.s9, self.s10, self.s11,
            self.ia_in, self.ia_out, self.fa_in, self.fa_out,
            self.tags, self.seqs, self.ia_in_tag, self.ia_out_tag, self.fa_in_tag, self.fa_out_tag,
        ) = self._next

    @property
    def loop_tags(self) -> tuple[Word | None, ...]:
        """The tag of each loop stage's word (None where a stage is empty),
        built from the tag ranks on request."""
        return tuple(_word(self.tags, stage, self.seqs) for stage in range(NUM_LOOP_STAGES))

    def taps(self) -> tuple[tuple[int, Word | None], ...]:
        """The six tap points in trace order (ia, sb, sr, mc, ark, fin),
        each value with the tag of the word it carries this cycle."""
        tags, seqs = self.tags, self.seqs
        return (
            (self.ia_out, word_view(self.ia_out_tag)),
            (self.s1, _word(tags, 1, seqs)),
            (self.s2, _word(tags, 2, seqs)),
            (self.s8, _word(tags, 8, seqs)),
            (self.s11, _word(tags, 11, seqs)),
            (self.fa_out, word_view(self.fa_out_tag)),
        )
