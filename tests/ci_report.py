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
key-store program after the reset cycle's). Last, the set-up every
process pays, ``import drablocus`` and ``PipelineSimulator()``: the
median wall time of 5 fresh interpreters on a copy of the package with
no bytecode, once compiling the source each time and once reading the
bytecode an untimed first interpreter wrote, and the ``gf_mul`` calls
the set-up makes.

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
import tokenize
from pathlib import Path

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
TIME_SET_UP = f"import time\nstart = time.perf_counter()\n{SET_UP}print(time.perf_counter() - start)\n"
COUNT_GF_MUL = (
    "import sys\n"
    "calls = []\n"
    "sys.setprofile(lambda frame, event, arg: event == 'call'"
    " and frame.f_code.co_name == 'gf_mul' and calls.append(1))\n"
    f"{SET_UP}sys.setprofile(None)\nprint(len(calls))\n"
)


def fresh_interpreter(code: str, src: str, write_bytecode: bool = False) -> str:
    """The output of ``code`` in a new interpreter that imports the package from ``src``."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="" if write_bytecode else "1")
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True, timeout=60).stdout


def set_up_ms(write_bytecode: bool) -> float:
    """Median ms of 5 fresh set-ups on a copy of the package, after an untimed one."""
    with tempfile.TemporaryDirectory() as src:
        shutil.copytree("src/drablocus", Path(src, "drablocus"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        times = [float(fresh_interpreter(TIME_SET_UP, src, write_bytecode)) for _ in range(6)]
    return statistics.median(times[1:]) * 1000


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
    untraced = sim.run(FIPS_KEY, mixed_jobs(120, seed=0xD12AB)).summary
    print(f"Python calls per cycle: untraced {python_calls_per_cycle(sim):.3f} "
          f"({untraced.fused_cycles / untraced.total_cycles:.3f} of its cycles fused), "
          f"traced {python_calls_per_cycle(sim, trace=io.StringIO()):.2f}, "
          f"fresh key {python_calls_per_cycle(sim, **fresh):.2f}, traced fresh key "
          f"{python_calls_per_cycle(sim, trace=io.StringIO(), **fresh):.2f}")
    resumes, step = [], KeyScheduler._init_cycle
    KeyScheduler._init_cycle = lambda self, s1, s8: resumes.append(s1) or step(self, s1, s8)
    try:
        summary = sim.run(**fresh).summary
        untraced_steps = len(resumes) - 1
        resumes.clear()
        sim.run(**fresh, trace=io.StringIO())
    finally:
        KeyScheduler._init_cycle = step
    print(f"Fresh-key run: {summary.passes} passes; key-initialization cycles stepped: "
          f"untraced {untraced_steps}, traced {len(resumes) - 1}")
    print(f"Set-up (import drablocus; PipelineSimulator()), median of 5 fresh interpreters: "
          f"{set_up_ms(False):.1f} ms compiling the source, {set_up_ms(True):.1f} ms from "
          f"bytecode; gf_mul calls {fresh_interpreter(COUNT_GF_MUL, 'src').strip()}")


if __name__ == "__main__":
    main()
