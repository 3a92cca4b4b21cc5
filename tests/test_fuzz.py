"""Fuzzing the job-file input with Hypothesis.

Any text either parses into jobs or raises :class:`JobError`, and
``drablocus simulate --jobs <file>`` turns every bad file, text or not,
into exit 2 with one ``error:`` line and never a traceback. The examples
are derandomized, so the suite draws the same inputs on every run.
"""

import contextlib
import io
import string
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from drablocus.cli import EXIT_OK, EXIT_USAGE, main
from drablocus.simulator import Job, JobError, parse_jobs

FIPS_KEY_HEX = "000102030405060708090a0b0c0d0e0f"

FUZZ = settings(max_examples=80, deadline=None, database=None, derandomize=True)

# Text over ASCII and the non-ASCII characters str methods treat specially:
# line breaks splitlines() honours, whitespace split() honours, digits int()
# accepts. A fixed alphabet also spares Hypothesis its Unicode tables.
SPECIAL = "\x00\x0b\x0c\x1c\x85\xa0\u2028\u3000\u0663\uff11\u2460\xe9\U0001f600"
chars = st.one_of(st.sampled_from(string.printable), st.sampled_from(SPECIAL))

# Lines near the job format, each field drawn from valid and broken forms,
# so that examples reach every check of parse_jobs and, now and then, a run.
seq_texts = st.one_of(st.integers(-2, 8).map(str), st.text(chars, max_size=6))
mode_texts = st.one_of(st.sampled_from(["enc", "dec"]), st.text(chars, max_size=5))
hex_texts = st.one_of(
    st.binary(min_size=16, max_size=16).map(bytes.hex),
    st.text(alphabet="0123456789abcdefABCDEF xyz#\t", max_size=36),
)
near_lines = st.builds(
    lambda seq, mode, block, comment: f"{seq} {mode} {block}{comment}",
    seq_texts, mode_texts, hex_texts, st.sampled_from(["", " # note", "#"]),
)
job_texts = st.one_of(
    st.text(chars),
    st.lists(st.one_of(near_lines, st.text(chars, max_size=20)), max_size=5).map("\n".join),
)
job_files = st.one_of(job_texts.map(str.encode), st.binary(max_size=64))


@FUZZ
@given(job_texts)
def test_any_text_parses_or_raises_job_error(text):
    try:
        jobs = parse_jobs(text)
    except JobError:
        return
    assert all(isinstance(job, Job) for job in jobs)


@FUZZ
@given(near_lines)
def test_sequence_ids_are_written_back_as_read(line):
    # The output file names each job by the digits its job-file line gave.
    try:
        [job] = parse_jobs(line)
    except JobError:
        return
    assert str(job.seq) == line.split()[0].lstrip("0").rjust(1, "0")


@FUZZ
@given(st.lists(st.one_of(near_lines, st.text(chars, max_size=20)), max_size=5))
def test_errors_cite_the_line_they_are_on(lines):
    # Lines as a file holds them: split on line breaks only.
    lines = [line.replace("\n", " ").replace("\r", " ") for line in lines]
    bad = []
    for number, line in enumerate(lines, start=1):
        try:
            parse_jobs(line)
        except JobError:
            bad.append(number)
    try:
        parse_jobs("\n".join(lines))
    except JobError as err:
        assert bad and str(err).startswith(f"line {bad[0]}: ")
    else:
        assert not bad


def simulate(content: bytes) -> tuple[int, str]:
    """Exit code and standard error of ``simulate`` on a job file holding ``content``."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        jobs = Path(tmp) / "jobs.txt"
        jobs.write_bytes(content)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["simulate", "--key", FIPS_KEY_HEX, "--jobs", str(jobs)])
    return code, err.getvalue()


def runnable(content: bytes) -> bool:
    """Whether the file holds UTF-8 jobs with sequence ids dense from 0."""
    try:
        jobs = parse_jobs(content.decode())
    except (UnicodeDecodeError, JobError):
        return False
    return bool(jobs) and sorted(job.seq for job in jobs) == list(range(len(jobs)))


@FUZZ
@given(job_files)
def test_simulate_rejects_bad_job_files_with_one_error_line(content):
    code, err = simulate(content)
    if runnable(content):
        assert (code, err) == (EXIT_OK, "")
    else:
        assert code == EXIT_USAGE
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")


def test_non_utf8_catalog_is_a_usage_error(tmp_path, capsys):
    catalog = tmp_path / "cat.txt"
    catalog.write_bytes(b"\xff\xfe")
    assert main(["metrics", "--catalog", str(catalog), "--design", "x"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: cannot read catalog: ")
