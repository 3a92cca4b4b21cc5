"""The per-cycle protocol of a core, for tests that step one by hand.

:func:`step_cycle` makes the calls :meth:`PipelineSimulator.run` makes on
each pass of its loop, in its order, for a pass of one cycle: the
controller's FSM step and plan of the cycle's events, the controller's
admission into the plan, the datapath, which takes the plan and the
cycle's keys from the key store, the controller's check, then the three
commits. A planned pass gives the datapath a plan of many cycles, and the
controller's one commit covers every cycle of the plan, before the key
schedule commits.

A plan is the record of a pass's events (:class:`~drablocus.datapath.Plan`),
which the datapath, the controller's check and its commit all read. A
test edits one in place, as removing an offset from its diverts drops that
divert for every reader. :func:`lines` decodes the per-cycle lines the
datapath takes from a record, :func:`make_plan` builds one by hand, and
:func:`cut` and :func:`single_cycles` cut one into the records of shorter
passes.
:func:`word_tag` builds the int tag of a word, as a plan's admission, an
edge rank and a completion carry it.

:class:`ScriptedStore` stands in for the key store in a datapath driven
without a key schedule: it gives each cycle scripted keys and injects.

:func:`before_each_pass` hooks the datapath's call on each pass of a
simulator run, the one point at which a test upsets or inspects the core
before a pass reads it.

:func:`step_every_cycle` makes a whole simulator run take passes of one
cycle, so that a hook on a per-cycle method sees every cycle: the
stepped run, the reference a run of planned passes must match. :func:`cap_passes` shortens passes to any length, so that a
pass can open in the middle of a batch, and :func:`end_passes_at` ends
them on given cycles, so that a pass opens on each, however long the
passes before and after it.
"""

from drablocus.controller import RUN, Controller
from drablocus.datapath import TAG_BITS, TAG_VALID, Plan, RoundDatapath, word_view
from drablocus.keyschedule import KeyScheduler
from drablocus.simulator import Job

# The keys and injects of a cycle that has none: main key, final key, and
# the substitution and product injects as ``(data, mode)``.
NO_KEYS = (0, 0, (0, 0), (0, 0))

# The lines of a cycle with no event, ``(admit, divert, initial_reset,
# main_reset)``, and of every cycle of a held pass.
QUIET = (None, False, True, False)
HELD = (None, False, True, True)


class ScriptedStore:
    """A key store before service, for a datapath driven without a key
    schedule: ``resume(s1, s8)`` returns the next cycle's scripted
    ``(main_key, final_key, sub_bytes_inject, mix_columns_inject)``, and
    :data:`NO_KEYS` once the script has run out."""

    def __init__(self, script=()):
        self._script = iter(script)

    def resume(self, s1, s8):
        return next(self._script, NO_KEYS)


def word_tag(seq, mode, slot):
    """The tag of word ``seq`` in ``mode`` and ``slot``: ``seq << TAG_BITS |
    TAG_VALID | slot << 1 | mode``."""
    return seq << TAG_BITS | TAG_VALID | slot << 1 | mode


def lines(plan):
    """The ``(admit, divert, initial_reset, main_reset)`` lines of each cycle
    of ``plan``, as the datapath takes them: ``admit`` an admission's
    ``(block, initial key, tag)`` once admitted, else None, and the resets
    by the controller's rules, the main one on each arrival and the initial
    one on every other cycle, both on every cycle of a held pass."""
    admitted = dict(zip(plan.admissions, zip(*[iter(plan.words)] * 3)))
    admissions, diverts = set(plan.admissions), set(plan.diverts)
    cycles = []
    for offset in range(plan.cycles):
        arrived = offset - 1 in admissions if offset else plan.arriving
        cycles.append((admitted.get(offset), offset in diverts,
                       plan.held or not arrived, plan.held or arrived))
    return cycles


def make_plan(cycles, admissions=None, diverts=(), arriving=False, held=False):
    """A record made by hand: ``admissions`` maps each offset to its
    ``(block, initial key, tag)``."""
    admitted = sorted((admissions or {}).items())
    return Plan(cycles, [offset for offset, _ in admitted],
                [value for _, word in admitted for value in word],
                sorted(diverts), arriving, held)


def cut(plan, *ends):
    """The records of the passes ``plan`` takes when it is cut at each of
    the offsets ``ends``: a word admitted on the cycle before a cut arrives
    on the next record's first cycle."""
    records, start = [], 0
    for end in (*sorted(ends), plan.cycles):
        taken = [k for k, offset in enumerate(plan.admissions) if start <= offset < end]
        records.append(Plan(
            end - start, [plan.admissions[k] - start for k in taken],
            [value for k in taken for value in plan.words[3 * k:3 * k + 3]],
            [offset - start for offset in plan.diverts if start <= offset < end],
            start - 1 in plan.admissions if start else plan.arriving, plan.held,
        ))
        start = end
    return records


def single_cycles(plan):
    """The records of ``plan``'s cycles as passes of one cycle each."""
    return cut(plan, *range(1, plan.cycles))


def new_core(key: int):
    """A datapath, controller and key schedule with ``key`` loaded."""
    return RoundDatapath(), Controller(), KeyScheduler(key)


def step_cycle(dp, ctrl, ks, job=None, mid_cycle=None):
    """One cycle; returns the admitted word's :class:`~drablocus.datapath.Word`
    view, or None.

    ``job`` is ``(seq, mode, block)`` with the block as an int; it is
    admitted if the controller allows it this cycle. ``mid_cycle(divert)``
    runs once the controller has decided the cycle, before the datapath
    computes it and takes its keys from the key store.
    """
    plan = ctrl.begin_cycle(0 if job is None else 1)
    admitted = None
    if plan.admissions:
        seq, mode, block = job
        ctrl.admit([Job(seq, mode, block.to_bytes(16, "big"))], ks.initial_keys)
        admitted = word_view(plan.words[2])
    if mid_cycle is not None:
        mid_cycle(bool(plan.diverts))
    dp.compute_cycle(plan=plan, store=ks, held_reset=ctrl.held_reset)
    ctrl.check_against(dp)
    dp.commit_cycle()
    ctrl.commit()
    ks.commit()
    return admitted


def cap_passes(monkeypatch, cycles):
    """Limit every pass a simulator run plans to ``cycles`` cycles."""
    begin_cycle = Controller.begin_cycle

    def capped(self, pending=0, limit=1):
        return begin_cycle(self, pending, min(limit, cycles))

    monkeypatch.setattr(Controller, "begin_cycle", capped)


def end_passes_at(monkeypatch, cycles):
    """Stop every pass a simulator run plans from crossing any of
    ``cycles``: a pass that would cover one of them ends before it, so that
    the next pass opens on it."""
    begin_cycle = Controller.begin_cycle

    def bounded(self, pending=0, limit=1):
        bound = min((cycle - self.cycle for cycle in cycles if cycle > self.cycle), default=limit)
        return begin_cycle(self, pending, min(limit, bound))

    monkeypatch.setattr(Controller, "begin_cycle", bounded)


def before_each_pass(monkeypatch, hook):
    """Call ``hook(ctrl, dp, ks)`` on each pass a core computes, with its
    controller, datapath and key store, once the controller has decided
    the pass and before the datapath reads a rank or the key store."""
    core = {}
    init, compute_cycle = Controller.__init__, RoundDatapath.compute_cycle

    def recorded_init(self):
        init(self)
        core["ctrl"] = self

    def hooked(self, **kwargs):
        hook(core["ctrl"], self, kwargs["store"])
        return compute_cycle(self, **kwargs)

    monkeypatch.setattr(Controller, "__init__", recorded_init)
    monkeypatch.setattr(RoundDatapath, "compute_cycle", hooked)


def step_every_cycle(monkeypatch):
    """Limit every pass a simulator run plans to one cycle."""
    cap_passes(monkeypatch, 1)


def core_in_run(key: int, limit: int = 400):
    """A core with ``key`` loaded, stepped through reset, key_init and flush into run."""
    dp, ctrl, ks = new_core(key)
    while ctrl.fsm != RUN:
        step_cycle(dp, ctrl, ks)
        if ctrl.cycle > limit:
            raise AssertionError("never reached run")
    return dp, ctrl, ks
