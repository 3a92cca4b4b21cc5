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
makes no per-primitive calls. A lockstep test replays a simulator run
into both and compares every tap on every cycle.
"""

from __future__ import annotations

from operator import itemgetter
from typing import NamedTuple

from .aesref import _DEC_SHIFT, _ENC_SHIFT
from .fabric import BramModel, DspXorSlice, Register
from .faults import CollisionError, ProtocolError, SimulationFault
from .tables import build_mixcolumns_image, build_sbox_image

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

# Tag ranks: one 6-bit ``valid << 5 | slot << 1 | mode`` field per loop
# stage, stage k in bits 6k..6k+5, zero where the stage is empty. Rotating
# a rank by one stage wraps S11 into S0. A 4-bit slot field can hold 16
# values, so the per-slot tables have 16 entries: a slot upset past 11
# reaches the controller's check instead of an index error.
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
_VALID2 = TAG_VALID << _TAG2_SHIFT
_VALID11 = TAG_VALID << _TAG_WRAP_SHIFT
_CLEAR_TAG3 = ~(TAG_FIELD << 3 * TAG_BITS)

# Row shift of a 16-byte state, per mode bit.
_SHIFT_ROWS = (itemgetter(*_ENC_SHIFT), itemgetter(*_DEC_SHIFT))


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
    """Tag riding alongside a 128-bit value in the pipeline."""

    seq: int
    mode: int
    slot: int


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


def _rotate_right(entry: int, k: int) -> int:
    return ((entry >> 8 * k) | (entry << 32 - 8 * k)) & _MASK32


class DatapathTables:
    """Lookup tables of the flat step, derived once from the two RAM images.

    ``sbox[mode]`` is the 256-byte ``bytes.translate`` table of one half of
    the substitution image. ``lanes[mode][k][b]`` is the product entry for
    {mode, b} rotated right by k bytes: lane k of column j then lines up
    field (i - k) mod 4 of entry 4j + k under output row i, which is the
    :data:`PACK_MAP` wiring with the cascade groups side by side.
    """

    __slots__ = ("sbox", "lanes")

    def __init__(self, sbox_image=None, mc_image=None):
        sbox = _checked_image(build_sbox_image() if sbox_image is None else sbox_image, 8, "sbox")
        mc = _checked_image(
            build_mixcolumns_image() if mc_image is None else mc_image, 32, "mcprod"
        )
        self.sbox = (bytes(sbox[:256]), bytes(sbox[256:]))
        self.lanes = tuple(
            tuple(tuple(_rotate_right(e, k) for e in mc[base : base + 256]) for k in range(4))
            for base in (0, 256)
        )


class RoundDatapath:
    """The loop plus initial/final key-add instances and tap points.

    Per cycle, drive :meth:`compute_cycle` with this cycle's control and
    key values, then :meth:`commit_cycle`. Compute derives the next value
    of every rank and tag (raising the S0 collision there); commit only
    latches them. Between the two, :meth:`taps` and the tags show the
    committed state, each tag naming the word whose data its rank holds.

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
    ``seqs[slot]`` is the sequence id of the word holding a slot, written
    when it enters S0; it has an entry for each of the 16 values a slot
    field can hold. :attr:`loop_tags` and :meth:`taps` build
    :class:`Word` views only when asked. Each rank of the initial and
    final instances has its tag beside it (``ia_in_tag``, ``ia_out_tag``,
    ``fa_in_tag``, ``fa_out_tag``): the word's :class:`Word`, or None.
    The edge ranks keep whole ``Word``s because an arriving word and the
    recirculating word it collides with at S0 may share a slot, and each
    keeps its own sequence id.
    """

    __slots__ = (
        "s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11",
        "ia_in", "ia_out", "fa_in", "fa_out",
        "tags", "seqs", "ia_in_tag", "ia_out_tag", "fa_in_tag", "fa_out_tag",
        "_sbox", "_lanes", "_next",
    )

    def __init__(self, tables: DatapathTables | None = None):
        tables = DatapathTables() if tables is None else tables
        self._sbox = tables.sbox
        self._lanes = tables.lanes
        self.s0 = self.s1 = self.s2 = self.s3 = self.s4 = self.s5 = 0
        self.s6 = self.s7 = self.s8 = self.s9 = self.s10 = self.s11 = 0
        self.ia_in = self.ia_out = self.fa_in = self.fa_out = 0
        self._next = None
        self.tags = 0
        self.seqs = [0] * SLOT_VALUES
        self.ia_in_tag = self.ia_out_tag = self.fa_in_tag = self.fa_out_tag = None

    def compute_cycle(
        self,
        *,
        admit: tuple[int, int, Word] | None = None,
        divert: bool = False,
        main_key: int = 0,
        final_key: int = 0,
        initial_reset: bool = True,
        main_reset: bool = False,
        shift_rows_reset: bool = False,
        final_reset: bool = False,
        ks_sub_bytes: tuple[int, int] = (0, 0),
        ks_mix_columns: tuple[int, int] = (0, 0),
    ) -> None:
        # Locals named after a rank hold its next value; committed values
        # are read from the attributes, so taps do not move until commit.
        # live_tags is the committed tag rank.
        live_tags = self.tags
        entering = self.ia_out_tag
        recirc = self.s11
        arriving = self.ia_out
        ks_sb_data, ks_sb_mode = ks_sub_bytes
        ks_mc_data, ks_mc_mode = ks_mix_columns

        # Substitution RAMs behind the OR mux; the driving word's mode (the
        # key schedule's when none) selects the table half. The mux check
        # is called only when two sources drive, to raise its fault.
        if (recirc and (arriving or ks_sb_data)) or (arriving and ks_sb_data):
            or_mux_tap(recirc, arriving, ks_sb_data)
        if entering is not None:
            sb_mode = entering.mode
        elif live_tags & _VALID11:
            sb_mode = live_tags >> _TAG_WRAP_SHIFT & 1
        else:
            sb_mode = ks_sb_mode
        s0 = int.from_bytes(
            (recirc | arriving | ks_sb_data).to_bytes(16, "big").translate(self._sbox[sb_mode]),
            "big",
        )

        # Row shift of the substitution RAM output register.
        if shift_rows_reset:
            s2 = 0
        else:
            s2 = int.from_bytes(
                bytes(_SHIFT_ROWS[live_tags >> TAG_BITS & 1](self.s1.to_bytes(16, "big"))), "big"
            )

        # Product RAMs behind the OR mux, read straight into lane order.
        shifted = self.s2
        if shifted and ks_mc_data:
            or_mux_tap(shifted, ks_mc_data)
        mc_mode = live_tags >> _TAG2_SHIFT & 1 if live_tags & _VALID2 else ks_mc_mode
        l0, l1, l2, l3 = self._lanes[mc_mode]
        b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15 = (
            (shifted | ks_mc_data).to_bytes(16, "big")
        )
        s3 = (
            (l0[b0] << 480) | (l0[b4] << 448) | (l0[b8] << 416) | (l0[b12] << 384)
            | (l1[b1] << 352) | (l1[b5] << 320) | (l1[b9] << 288) | (l1[b13] << 256)
            | (l2[b2] << 224) | (l2[b6] << 192) | (l2[b10] << 160) | (l2[b14] << 128)
            | (l3[b3] << 96) | (l3[b7] << 64) | (l3[b11] << 32) | l3[b15]
        )

        # XOR cascade: each rank folds the next lane into the running sum.
        rank = self.s5
        s6 = ((((rank >> 256) ^ (rank >> 384)) & _MASK128) << 256) | (rank & _MASK256)
        rank = self.s6
        s7 = ((((rank >> 128) ^ (rank >> 256)) & _MASK128) << 128) | (rank & _MASK128)
        rank = self.s7
        s8 = (rank >> 128) ^ (rank & _MASK128)

        # Key-add outputs: the XOR of the last input rank's data and key.
        rank = self.s10
        s11 = 0 if main_reset else (rank >> 128) ^ (rank & _MASK128)
        rank = self.fa_in
        fa_out = 0 if final_reset else (rank >> 128) ^ (rank & _MASK128)
        rank = self.ia_in
        ia_out = 0 if initial_reset else (rank >> 128) ^ (rank & _MASK128)
        if admit is not None:
            block, key, admitted = admit
            ia_in = (block << 128) | key
        else:
            ia_in = 0
            admitted = None

        # Tags take their next value beside the data: the tag rank rotates
        # one stage, S11's word wrapping into S0; the arriving word takes S0
        # (never beside a recirculating one), and a divert sends S2's word
        # into the final instance instead of S3.
        tags = ((live_tags << TAG_BITS) | (live_tags >> _TAG_WRAP_SHIFT)) & _TAGS_MASK
        if entering is not None:
            if tags & TAG_VALID:
                raise CollisionError(
                    f"stage S0 claimed by arriving {entering} and recirculating "
                    f"{self._tag(NUM_LOOP_STAGES - 1)}"
                )
            slot = entering.slot
            self.seqs[slot] = entering.seq
            tags |= TAG_VALID | slot << 1 | entering.mode & 1
        diverted = None
        if divert:
            code = live_tags >> _TAG2_SHIFT
            if code & TAG_VALID:
                slot = code >> 1 & _SLOT_FIELD
                diverted = Word(self.seqs[slot], code & 1, slot)
            tags &= _CLEAR_TAG3

        self._next = (
            s0, self.s0, s2, s3, self.s3, self.s4, s6, s7, s8,
            (self.s8 << 128) | main_key, self.s9, s11,
            ia_in, ia_out, (shifted << 128) | final_key, fa_out,
            tags, admitted, self.ia_in_tag, diverted, self.fa_in_tag,
        )

    def commit_cycle(self) -> None:
        (
            self.s0, self.s1, self.s2, self.s3, self.s4, self.s5, self.s6, self.s7, self.s8,
            self.s9, self.s10, self.s11,
            self.ia_in, self.ia_out, self.fa_in, self.fa_out,
            self.tags, self.ia_in_tag, self.ia_out_tag, self.fa_in_tag, self.fa_out_tag,
        ) = self._next

    def at_fixed_point(self) -> bool:
        """Whether the computed next state equals the committed ranks with
        every tag empty: the commit changes nothing, and a next cycle driven
        by the same inputs computes this same state again."""
        return self._next == (
            self.s0, self.s1, self.s2, self.s3, self.s4, self.s5, self.s6, self.s7, self.s8,
            self.s9, self.s10, self.s11, self.ia_in, self.ia_out, self.fa_in, self.fa_out,
            0, None, None, None, None,
        )

    def _tag(self, stage: int) -> Word | None:
        code = self.tags >> TAG_BITS * stage
        if not code & TAG_VALID:
            return None
        slot = code >> 1 & _SLOT_FIELD
        return Word(self.seqs[slot], code & 1, slot)

    @property
    def loop_tags(self) -> tuple[Word | None, ...]:
        """The tag of each loop stage's word (None where a stage is empty),
        built from the tag ranks on request."""
        return tuple(map(self._tag, range(NUM_LOOP_STAGES)))

    def taps(self) -> tuple[tuple[int, Word | None], ...]:
        """The six tap points in trace order (ia, sb, sr, mc, ark, fin),
        each value with the tag of the word it carries this cycle."""
        tag = self._tag
        return (
            (self.ia_out, self.ia_out_tag),
            (self.s1, tag(1)),
            (self.s2, tag(2)),
            (self.s8, tag(8)),
            (self.s11, tag(11)),
            (self.fa_out, self.fa_out_tag),
        )
