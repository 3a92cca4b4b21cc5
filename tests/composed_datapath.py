"""Reference composition of the round datapath from the unit classes.

:class:`drablocus.datapath.RoundDatapath` steps flat register ranks with
no per-primitive calls. This module keeps the composition it replaced:
the substitution, row-shift, column-mix and key-add units, each built
from the fabric primitives and clocked through their own compute/commit
methods. ``test_lockstep.py`` replays the inputs of a simulator run into
both and compares every tap on every cycle.
"""

from __future__ import annotations

from drablocus.datapath import (
    NUM_LOOP_STAGES,
    AddRoundKeyUnit,
    MixColumnsUnit,
    ShiftRowsUnit,
    SubBytesUnit,
    Word,
    or_mux_tap,
    word_view,
)
from drablocus.faults import CollisionError


class ComposedDatapath:
    """The loop composed from the unit classes, stepped unit by unit.

    Same stepping interface as :class:`RoundDatapath` (``compute_cycle``,
    ``commit_cycle``, ``taps``, ``loop_tags``) for passes of one cycle,
    whose keys and injects a key store before service gives, with its own
    list-based tag pipeline shifted at commit (where it raises the S0
    collision), so the flat step's next-state tags are checked against an
    independent derivation; the lockstep test drives both with identical
    calls.
    """

    def __init__(self, sbox_image=None, mc_image=None):
        self.sub_bytes = SubBytesUnit(sbox_image)
        self.shift_rows = ShiftRowsUnit()
        self.mix_columns = MixColumnsUnit(mc_image)
        self.main_ark = AddRoundKeyUnit(input_regs=2, name="ark_main")
        self.initial_ark = AddRoundKeyUnit(input_regs=1, name="ark_init")
        self.final_ark = AddRoundKeyUnit(input_regs=1, name="ark_final")
        self._units = (
            self.sub_bytes,
            self.shift_rows,
            self.mix_columns,
            self.main_ark,
            self.initial_ark,
            self.final_ark,
        )
        # Tag pipelines: entry k holds the tag of the word occupying that
        # register rank in the current cycle (None when the rank carries
        # no live word).
        self.loop_tags: list[Word | None] = [None] * NUM_LOOP_STAGES
        self.initial_tags: list[Word | None] = [None, None]
        self.final_tags: list[Word | None] = [None, None]
        # This cycle's tag-pipeline inputs, latched at commit: the
        # admitted tag and the divert line.
        self._tag_inputs: tuple[Word | None, bool] = (None, False)

    def compute_cycle(
        self,
        *,
        plan,
        store,
        held_reset: bool = False,
    ) -> None:
        ((admit, divert, initial_reset, main_reset),) = plan
        main_key, final_key, ks_sub_bytes, ks_mix_columns = store.resume(
            self.sub_bytes.out.to_bytes(16, "big"), self.mix_columns.out
        )
        recirc = self.main_ark.out
        arriving = self.initial_ark.out
        ks_sb_data, ks_sb_mode = ks_sub_bytes
        ks_mc_data, ks_mc_mode = ks_mix_columns

        sb_in = or_mux_tap(recirc, arriving, ks_sb_data)
        if self.loop_tags[11] is not None:
            sb_mode = self.loop_tags[11].mode
        elif self.initial_tags[1] is not None:
            sb_mode = self.initial_tags[1].mode
        else:
            sb_mode = ks_sb_mode
        self.sub_bytes.present(sb_in, sb_mode)

        sr_tag = self.loop_tags[1]
        self.shift_rows.present(self.sub_bytes.out, sr_tag.mode if sr_tag else 0)

        mc_in = or_mux_tap(self.shift_rows.out, ks_mc_data)
        mc_tag = self.loop_tags[2]
        self.mix_columns.present(mc_in, mc_tag.mode if mc_tag else ks_mc_mode)

        self.main_ark.present(self.mix_columns.out, main_key)
        self.final_ark.present(self.shift_rows.out, final_key)

        if admit is not None:
            block, key, tag = admit
            tag = word_view(tag)
            self.initial_ark.present(block, key)
        else:
            self.initial_ark.present(0, 0)
            tag = None
        self._tag_inputs = (tag, divert)

        self.initial_ark.reset_in = initial_reset
        self.main_ark.reset_in = main_reset
        self.shift_rows.reset_in = held_reset
        self.final_ark.reset_in = held_reset

        for unit in self._units:
            unit.compute()

    def commit_cycle(self) -> None:
        for unit in self._units:
            unit.commit()

        tags = self.loop_tags
        entering = self.initial_tags[1]
        wrapping = tags[11]
        if entering is not None and wrapping is not None:
            raise CollisionError(
                f"stage S0 claimed by arriving {entering} and recirculating {wrapping}"
            )
        admitted, divert = self._tag_inputs
        diverted = tags[2] if divert else None
        into_s3 = None if divert else tags[2]
        self.loop_tags = [entering or wrapping] + tags[0:2] + [into_s3] + tags[3:11]
        self.final_tags = [diverted, self.final_tags[0]]
        self.initial_tags = [admitted, self.initial_tags[0]]
        self._tag_inputs = (None, False)

    def taps(self) -> tuple[tuple[int, Word | None], ...]:
        """The six tap points in trace order (ia, sb, sr, mc, ark, fin)."""
        tags = self.loop_tags
        return (
            (self.initial_ark.out, self.initial_tags[1]),
            (self.sub_bytes.out, tags[1]),
            (self.shift_rows.out, tags[2]),
            (self.mix_columns.out, tags[8]),
            (self.main_ark.out, tags[11]),
            (self.final_ark.out, self.final_tags[1]),
        )
