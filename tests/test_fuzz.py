"""Fuzzing the job-file and catalog inputs with Hypothesis.

Any text either parses into jobs or raises :class:`JobError`, and
``drablocus simulate --jobs <file>`` turns every bad file, text or not,
into exit 2 with one ``error:`` line and never a traceback. The same holds
for catalogs: any text parses or raises :class:`CatalogError`, whose
message cites the line at fault, and ``metrics`` and ``colocate`` exit 0,
1 or 2 on any ``--catalog`` file, with at most one ``error:`` line. The
examples are derandomized, so the suite draws the same inputs on every run.
"""

import contextlib
import io
import shutil
import string
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drablocus.cli import EXIT_FAILURE, EXIT_OK, EXIT_USAGE, KEY_ENV_VAR, main
from drablocus.metrics import Catalog, CatalogError, parse_catalog
from drablocus.simulator import Job, JobError, parse_jobs
from drablocus.textlines import split_lines

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


@pytest.fixture(scope="module")
def input_file(tmp_path_factory):
    """The one file every example of the command-line fuzzers rewrites."""
    return tmp_path_factory.mktemp("fuzz") / "input.txt"


def run_cli(argv: list[str], path: Path, content: bytes) -> tuple[int, str]:
    """Exit code and standard error of ``argv`` and then ``path``, holding ``content``."""
    path.write_bytes(content)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([*argv, str(path)])
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
def test_simulate_rejects_bad_job_files_with_one_error_line(input_file, content):
    code, err = run_cli(["simulate", "--key", FIPS_KEY_HEX, "--jobs"], input_file, content)
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


# Catalog lines: lines of each kind, some with one character from GAPS
# written in at a drawn place, and free text. GAPS holds blanks and the
# characters str.splitlines() breaks at but a text-mode read does not.
BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
GAPS = " \t\xa0\u3000" + BREAKS
CATALOG_LINES = (
    "[design d]", "[device x]", "[accelerator a]", "[device d]", "[gadget g]", "[design]",
    "device = x", "slices = 5", "brams = 3", "brams = 300", "dsps = 1", "datapath_brams = 0",
    "throughput_mbps = 1e3", "bram_utilization = 0.5", "power_total_mw = 2", "luts = n/a",
    "slices = many", "wombats = 3", "# note",
)
catalog_line = st.one_of(
    st.sampled_from(CATALOG_LINES),
    st.builds(
        lambda line, gap, at: line[:at] + gap + line[at:],
        st.sampled_from(CATALOG_LINES), st.sampled_from(GAPS), st.integers(0, 24),
    ),
    st.text(string.printable.replace("\n", "").replace("\r", "") + SPECIAL, max_size=12),
)
catalog_lines = st.lists(catalog_line, max_size=8)
catalog_texts = st.one_of(
    st.text(string.printable + SPECIAL + BREAKS), catalog_lines.map("\n".join)
)

# A catalog every command below accepts, whose last section drawn lines
# extend; design e does not fit beside accelerator a.
BASE_CATALOG = (
    "[device x]\nslices = 100\nbrams = 10\ndsps = 4\n"
    "[accelerator a]\ndevice = x\nslices = 40\nbrams = 2\ndsps = 1\n"
    "[design e]\ndevice = x\nslices = 10\nbrams = 300\ndsps = 1\n"
    "[design d]\ndevice = x\nslices = 10\nbrams = 1\ndsps = 1\nthroughput_mbps = 1e3\n"
)
catalog_files = st.builds(
    bytes.__add__,
    st.sampled_from([BASE_CATALOG.encode(), b""]),
    st.one_of(catalog_texts.map(str.encode), st.binary(max_size=64)),
)


def cited_line(text: str) -> int | None:
    """The line a parse error of ``text`` cites, or None if it parses; any
    exception but :class:`CatalogError` fails the test."""
    try:
        assert isinstance(parse_catalog(text), Catalog)
    except CatalogError as err:
        number, _, _ = str(err).partition(":")
        assert number.startswith("line ")
        return int(number.removeprefix("line "))
    return None


@FUZZ
@given(catalog_texts)
def test_any_catalog_text_parses_or_cites_the_line_at_fault(text):
    # The characters str.splitlines() alone breaks at are whitespace inside
    # a line, so writing them as spaces moves no error to another line.
    number = cited_line(text)
    assert number == cited_line(text.translate({ord(c): " " for c in BREAKS}))
    assert number is None or 1 <= number <= len(split_lines(text))


@FUZZ
@given(
    st.sampled_from([
        ["metrics", "--design", "d"],
        ["colocate", "--accel", "a", "--aes", "d"],
        ["colocate", "--accel", "a", "--aes", "e"],
    ]),
    catalog_files,
)
def test_catalog_commands_exit_with_at_most_one_error_line(input_file, argv, content):
    code, err = run_cli([*argv, "--catalog"], input_file, content)
    assert code in (EXIT_OK, EXIT_FAILURE, EXIT_USAGE)
    assert len(err.splitlines()) == (code == EXIT_USAGE)
    assert code != EXIT_USAGE or err.startswith("error: ")


# Whole argument vectors: a subcommand, optionally its valid base flags, then
# drawn flags, each with a valid value, a fixture path or drawn text. The
# text is what a command line can carry: no NUL, and lone surrogates only in
# the range surrogateescape gives undecodable bytes; with no "/" it names no
# path outside the working directory. Values argparse reads as --help are
# left out, since help exits through argparse by design.
ARG_CHARS = (
    string.printable.replace("/", "") + SPECIAL.replace("\x00", "") + BREAKS + "\udc80\udcff"
)
arg_texts = st.text(ARG_CHARS, max_size=8).filter(lambda t: not t.startswith(("-h", "--h")))
FIXTURES = ("blocks.bin", "jobs.txt", "catalog.txt", "binary.bin", "dir", "no/such", "fresh")
CLI_BASES = {
    "vectors": [],
    "encrypt": ["--key", FIPS_KEY_HEX, "--in", "blocks.bin", "--out", "fresh"],
    "decrypt": ["--key", FIPS_KEY_HEX, "--in", "blocks.bin", "--out", "fresh"],
    "simulate": ["--key", FIPS_KEY_HEX, "--jobs", "jobs.txt"],
    "metrics": ["--design", "DRAB-LOCUS"],
    "colocate": ["--accel", "DNN 1", "--aes", "DRAB-LOCUS"],
    "dump-tables": ["--out", "dir"],
}
# Each flag with its valid values; None marks a flag that takes no value.
CLI_FLAGS = {
    "--engine": ["ref", "sim", "both"],
    "--key": [FIPS_KEY_HEX, "00" * 15, ""],
    "--in": ["blocks.bin"],
    "--out": ["fresh", "dir"],
    "--jobs": ["jobs.txt"],
    "--trace": ["fresh"],
    "--freq": ["528.262", "0", "nan", "-1"],
    "--catalog": ["catalog.txt"],
    "--design": ["DRAB-LOCUS", "AES-Efficient", "AES-Expanded"],
    "--bram-utilization": ["0.375", "1", "2"],
    "--device": ["xc7z020", "xc7z045"],
    "--accel": ["Video", "DNN 1", "CNN"],
    "--aes": ["DRAB-LOCUS", "AES-Modes"],
    "--records": None,
}


@st.composite
def cli_argvs(draw) -> list[str]:
    # One command in eight is drawn text.
    command = draw(st.sampled_from([*CLI_BASES, None]))
    if command is None:
        command = draw(arg_texts)
    argv = [command]
    if draw(st.booleans()):
        argv += CLI_BASES.get(command, [])
    for flag in draw(st.lists(st.sampled_from(sorted(CLI_FLAGS)), max_size=4)):
        argv.append(flag)
        values = CLI_FLAGS[flag]
        if values is not None:
            argv.append(draw(st.one_of(
                st.sampled_from(values), st.sampled_from(FIXTURES), arg_texts
            )))
    return argv


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory):
    """The working directory of the argument-vector examples, one level
    inside a temporary directory, so that ``..`` names a temporary
    directory too."""
    work = tmp_path_factory.mktemp("argv") / "work"
    work.mkdir()
    return work


def reset_fixtures(work: Path) -> None:
    """Write every fixture afresh, undoing what an earlier example wrote."""
    (work / "blocks.bin").write_bytes(bytes(range(32)))
    (work / "jobs.txt").write_text(
        "0 enc 00112233445566778899aabbccddeeff\n1 dec 69c4e0d86a7b0430d8cdb78070b4c55a\n"
    )
    (work / "catalog.txt").write_text(
        resources.files("drablocus").joinpath("data/catalog.txt").read_text()
    )
    (work / "binary.bin").write_bytes(b"\xff\xfe\x80 not UTF-8\n")
    (work / "dir").mkdir(exist_ok=True)
    for written in (work / "no", work / "fresh"):
        if written.is_dir():
            shutil.rmtree(written)
        else:
            written.unlink(missing_ok=True)


@FUZZ
@given(cli_argvs())
def test_any_argument_vector_exits_0_1_or_2_with_at_most_one_line(cli_dir, argv):
    reset_fixtures(cli_dir)
    err = io.StringIO()
    with (
        pytest.MonkeyPatch.context() as patch,
        contextlib.redirect_stdout(io.StringIO()),
        contextlib.redirect_stderr(err),
    ):
        patch.delenv(KEY_ENV_VAR, raising=False)
        patch.chdir(cli_dir)
        code = main(argv)
    err = err.getvalue()
    assert code in (EXIT_OK, EXIT_FAILURE, EXIT_USAGE)
    if code == EXIT_USAGE:
        assert err.startswith("error: ")
        assert len(err.splitlines()) == 1 and err.endswith("\n")
    elif code == EXIT_FAILURE:
        assert len(err.splitlines()) <= 1
    else:
        assert err == ""
