"""The source-size and call-count report the Tier-1 workflow prints.

It prints the code lines of each module of the model's source and their
total (no docstring, comment or blank line), the lines of the tests
(code moved from src/ into tests/ shows on both sides), Python calls per
simulated cycle of the untraced, traced, fresh-key and traced fresh-key
runs the Tier-1 bounds cover, and of the fresh-key run as the first run
of a new interpreter, whose run builds the fused tables; the share of the
untraced run's cycles computed in fused windows, the fresh-key run's
passes, and the key-initialization cycles the untraced and the traced
fresh-key run step through the cycle loop (each one resume of the
key-store program after the reset cycle's), and the bytes per job a
completed 20,000-job untraced run retains and its peak bytes per job,
both under ``tracemalloc``. Then the share of a 2,000-job untraced run's
words its window computes in whole legs at once, and the cost of a
word's round on the model's tables, in ns per word-round, best of 7 in
this process: the batched calls on that run's whole legs, each call's
time over its words' nine main rounds (its final round and the joins of
its words included), beside the same words in bare per-word fused rounds,
the rounds a smaller pass runs. Then the same run's best-of-7 CPU time
split by where it goes, timed by wrappers on the methods: the controller
(``begin_cycle``, ``admit`` and ``commit``), the window outside its
batched rounds (``_window`` less ``whole_legs``), the batched rounds
(``whole_legs``) and the rest, and the run's ratio to its batched rounds,
the floor the window's bookkeeping sits on. Last, the set-up every
process pays, ``import drablocus`` and ``PipelineSimulator()``: the
median wall time of 5 fresh interpreters on a copy of the package with
no bytecode, once compiling the source each time and once reading the
bytecode an untimed first interpreter wrote, and the ``gf_mul`` calls
the set-up makes; and the CLI's start-up, ``import drablocus.cli`` on
top of ``import drablocus``, which every ``drablocus`` command pays
before its parser runs, as the median of 5 fresh interpreters reading
bytecode. Then the golden reference's speed, in a fresh
interpreter: the best of 7 repeats of 1,000 calls, in µs per call, of
``aesref.encrypt_block`` and ``aesref.decrypt_block`` with keys expanded
beforehand, and of ``aesref.key_expand`` and
``aesref.key_expand_equivalent_inverse``.

Run it from the repository root with
``PYTHONPATH=src:tests python3 tests/ci_report.py``. It must run in a
fresh interpreter: the first-run figure counts the building of tables
that later runs share.
"""

import ast
import io
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import timeit
import tokenize
import tracemalloc
from itertools import repeat
from pathlib import Path

from drablocus.controller import Controller
from drablocus.datapath import MAIN_ROUNDS, DatapathTables, RoundDatapath
from drablocus.keyschedule import KeyScheduler
from drablocus.simulator import PipelineSimulator
from test_simulator import FIPS_KEY, mixed_jobs, python_calls_per_cycle

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER}
OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(text: str) -> int:
    """Lines holding a token other than layout or a comment, outside docstrings."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        first = node.body[0] if isinstance(node, OWNERS) and node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(code - docstrings)


SET_UP = "import drablocus\ndrablocus.PipelineSimulator()\n"
TIMED = "import time\nstart = time.perf_counter()\n{}print(time.perf_counter() - start)\n"
TIME_SET_UP = TIMED.format(SET_UP)
TIME_CLI_START_UP = "import drablocus\n" + TIMED.format("import drablocus.cli\n")
COUNT_GF_MUL = (
    "import sys\n"
    "calls = []\n"
    "sys.setprofile(lambda frame, event, arg: event == 'call'"
    " and frame.f_code.co_name == 'gf_mul' and calls.append(1))\n"
    f"{SET_UP}sys.setprofile(None)\nprint(len(calls))\n"
)

MEMORY_JOBS = 20_000
BATCHED_JOBS = 2_000

ORACLE_CALLS = ("encrypt_block(enc, block)", "decrypt_block(dec, block)", "key_expand(key)",
                "key_expand_equivalent_inverse(key)")
TIME_ORACLE = (
    "import timeit\n"
    "from drablocus import aesref\n"
    "key, block = bytes(range(16)), bytes(16)\n"
    "names = dict(vars(aesref), key=key, block=block, enc=aesref.key_expand(key),\n"
    "             dec=aesref.key_expand_equivalent_inverse(key))\n"
    f"for call in {ORACLE_CALLS!r}:\n"
    "    print(min(timeit.repeat(call, globals=names, number=1000, repeat=7)) * 1000)\n"
)


def fresh_interpreter(code: str, src: str, write_bytecode: bool = False) -> str:
    """The output of ``code`` in a new interpreter that imports the package from ``src``."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="" if write_bytecode else "1")
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True, timeout=60).stdout


def set_up_ms(write_bytecode: bool, timed: str = TIME_SET_UP) -> float:
    """Median ms that ``timed`` prints in 5 fresh interpreters on a copy of
    the package, after an untimed one."""
    with tempfile.TemporaryDirectory() as src:
        shutil.copytree("src/drablocus", Path(src, "drablocus"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        times = [float(fresh_interpreter(timed, src, write_bytecode)) for _ in range(6)]
    return statistics.median(times[1:]) * 1000


def fused_rounds(fused, values, keys) -> None:
    """Each of ``values`` through a bare fused round per key, as a window
    runs a leg word by word."""
    f0, f1, f2, f3, f4, f5, f6, f7, f8, f9, f10, f11, f12, f13, f14, f15 = fused
    for v in values:
        for key in keys:
            b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15 = v.to_bytes(16, "big")
            v = (f0[b0] ^ f1[b1] ^ f2[b2] ^ f3[b3] ^ f4[b4] ^ f5[b5] ^ f6[b6] ^ f7[b7] ^ f8[b8]
                 ^ f9[b9] ^ f10[b10] ^ f11[b11] ^ f12[b12] ^ f13[b13] ^ f14[b14] ^ f15[b15] ^ key)


def whole_leg_report(sim) -> str:
    """The share of a saturated run's words computed in whole legs at once,
    and ns per word-round of the batched round and of the per-word one."""
    calls, whole_legs = [], DatapathTables.whole_legs
    DatapathTables.whole_legs = lambda *call: calls.append(call) or whole_legs(*call)
    try:
        sim.run(FIPS_KEY, mixed_jobs(BATCHED_JOBS, seed=1))
    finally:
        DatapathTables.whole_legs = whole_legs
    words = sum(len(legs) // 3 for _, _, legs, _ in calls)
    batched = per_word = 0.0
    for tables, mode, legs, keys in calls:
        values = list(map(int.from_bytes, legs[::3], repeat("big")))
        batched += min(timeit.repeat(lambda: whole_legs(tables, mode, legs, keys),
                                     number=1, repeat=7))
        per_word += min(timeit.repeat(
            lambda: fused_rounds(tables.fused[mode], values, keys[:MAIN_ROUNDS]),
            number=1, repeat=7))
    rounds = words * MAIN_ROUNDS / 1e9
    return (f"Whole legs of a {BATCHED_JOBS:,}-job untraced run: {words:,} of its words "
            f"({words / BATCHED_JOBS:.1%}) at once in {len(calls)} calls; ns per word-round on "
            f"the model's tables, best of 7: batched {batched / rounds:.0f}, per-word fused "
            f"{per_word / rounds:.0f}")


# The methods the CPU split times, by the part of the run each belongs to.
SPLIT_METHODS = ((Controller, "begin_cycle", "controller"), (Controller, "admit", "controller"),
                 (Controller, "commit", "controller"), (RoundDatapath, "_window", "window"),
                 (DatapathTables, "whole_legs", "whole_legs"))


def cpu_split_report(sim) -> str:
    """The best of 7 runs' CPU time of the whole-leg report's run, split by
    the methods each part's wrappers time."""
    spent = {}

    def timed(method, part):
        def wrapper(*args, **kwargs):
            start = time.process_time_ns()
            try:
                return method(*args, **kwargs)
            finally:
                spent[part] += time.process_time_ns() - start
        return wrapper

    originals = [(cls, name, vars(cls)[name]) for cls, name, _ in SPLIT_METHODS]
    for cls, name, part in SPLIT_METHODS:
        setattr(cls, name, timed(vars(cls)[name], part))
    jobs, runs = mixed_jobs(BATCHED_JOBS, seed=1), []
    try:
        for _ in range(7):
            spent.update(controller=0, window=0, whole_legs=0)
            start = time.process_time_ns()
            sim.run(FIPS_KEY, jobs)
            runs.append((time.process_time_ns() - start, dict(spent)))
    finally:
        for cls, name, method in originals:
            setattr(cls, name, method)
    total, parts = min(runs, key=lambda run: run[0])
    rest = total - parts["controller"] - parts["window"]
    return (f"CPU split of the {BATCHED_JOBS:,}-job untraced run, best of 7: {total / 1e6:.2f} ms; "
            f"controller (begin_cycle + admit + commit) {parts['controller'] / 1e6:.2f}, window "
            f"outside whole legs {(parts['window'] - parts['whole_legs']) / 1e6:.2f}, whole legs "
            f"{parts['whole_legs'] / 1e6:.2f}, the rest {rest / 1e6:.2f}; "
            f"{total / parts['whole_legs']:.2f}x its batched rounds")


def main() -> None:
    total = 0
    for path in sorted(Path("src/drablocus").glob("*.py")):
        lines = code_lines(path.read_text())
        total += lines
        print(f"{lines:5d} {path}")
    print(f"{total:5d} code lines in total")
    tests = sum(len(path.read_text().splitlines()) for path in Path("tests").glob("*.py"))
    print(f"{tests:5d} lines in tests/*.py")

    sim = PipelineSimulator()
    fresh = {"key": random.Random(0x6B01).randbytes(16), "jobs": mixed_jobs(1, seed=107)}
    # First, while no run of this interpreter has built the fused tables.
    first = python_calls_per_cycle(sim, **fresh)
    print(f"Python calls per cycle: fresh key as a new interpreter's first run {first:.2f}")
    untraced = sim.run(FIPS_KEY, mixed_jobs(120, seed=0xD12AB))
    print(f"Python calls per cycle: untraced {python_calls_per_cycle(sim):.3f} "
          f"({untraced.fused_cycles / untraced.summary.total_cycles:.3f} of its cycles fused), "
          f"traced {python_calls_per_cycle(sim, trace=io.StringIO()):.2f}, "
          f"fresh key {python_calls_per_cycle(sim, **fresh):.2f}, traced fresh key "
          f"{python_calls_per_cycle(sim, trace=io.StringIO(), **fresh):.2f}")
    resumes, step = [], KeyScheduler._init_cycle
    KeyScheduler._init_cycle = lambda self, s1, s8: resumes.append(s1) or step(self, s1, s8)
    try:
        passes = sim.run(**fresh).passes
        untraced_steps = len(resumes) - 1
        resumes.clear()
        sim.run(**fresh, trace=io.StringIO())
    finally:
        KeyScheduler._init_cycle = step
    print(f"Fresh-key run: {passes} passes; key-initialization cycles stepped: "
          f"untraced {untraced_steps}, traced {len(resumes) - 1}")
    jobs = mixed_jobs(MEMORY_JOBS, seed=MEMORY_JOBS)
    tracemalloc.start()
    # Held, so that what the run retains is still traced.
    result = sim.run(FIPS_KEY, jobs)
    retained, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    print(f"Memory of a {MEMORY_JOBS:,}-job untraced run under tracemalloc: "
          f"{retained / MEMORY_JOBS:.0f} B a job retained once it ends, "
          f"{peak / MEMORY_JOBS:.0f} B a job at its peak")
    print(whole_leg_report(sim))
    print(cpu_split_report(sim))
    print(f"Set-up (import drablocus; PipelineSimulator()), median of 5 fresh interpreters: "
          f"{set_up_ms(False):.1f} ms compiling the source, {set_up_ms(True):.1f} ms from "
          f"bytecode; gf_mul calls {fresh_interpreter(COUNT_GF_MUL, 'src').strip()}; CLI start-up "
          f"(import drablocus.cli after import drablocus) "
          f"{set_up_ms(True, TIME_CLI_START_UP):.1f} ms from bytecode")
    times = fresh_interpreter(TIME_ORACLE, "src").split()
    print("Oracle, us per call, best of 7 x 1,000 in a fresh interpreter: " + ", ".join(
        f"{call.split('(')[0]} {float(us):.2f}" for call, us in zip(ORACLE_CALLS, times))
        + " (block calls with keys expanded beforehand)")


if __name__ == "__main__":
    main()
