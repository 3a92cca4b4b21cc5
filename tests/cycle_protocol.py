"""The per-cycle protocol of a core, for tests that step one by hand.

:func:`step_cycle` makes the calls :meth:`PipelineSimulator.run` makes on
each pass of its loop, in its order, for a pass of one cycle: the
controller's FSM step and plan of the cycle's lines, the controller's
admission into the plan, the datapath, which takes the plan and the
cycle's keys from the key store, the controller's check, then the three
commits. A planned pass gives the datapath a plan of many cycles, and the
controller's one commit covers every cycle of the plan, before the key
schedule commits.
:func:`set_line` edits one line of a plan, which both the datapath and
the controller's check read. :func:`word_tag` builds the int tag of a
word, as a plan's admission, an edge rank and a completion carry it.

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
from drablocus.datapath import TAG_BITS, TAG_VALID, RoundDatapath, word_view
from drablocus.keyschedule import KeyScheduler
from drablocus.simulator import Job

# The keys and injects of a cycle that has none: main key, final key, and
# the substitution and product injects as ``(data, mode)``.
NO_KEYS = (0, 0, (0, 0), (0, 0))

# The lines of a plan entry, in order.
LINE_NAMES = ("admit", "divert", "initial_reset", "main_reset")


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


def set_line(plan, offset, name, value):
    """Set the ``name``d line of the plan's cycle at ``offset``, on a list
    of its own: :data:`~drablocus.datapath.QUIET` and
    :data:`~drablocus.controller.HOLD` entries are shared tuples."""
    entry = plan[offset] = list(plan[offset])
    entry[LINE_NAMES.index(name)] = value


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
    if ctrl.admissions:
        seq, mode, block = job
        ctrl.admit([Job(seq, mode, block.to_bytes(16, "big"))], ks.initial_keys)
        admitted = word_view(plan[0][0][2])
    if mid_cycle is not None:
        mid_cycle(plan[0][1])
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
