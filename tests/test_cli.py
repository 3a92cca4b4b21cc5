"""Command-line surface: subcommands, exit codes, engine equivalence."""

import math
import os

import pytest

from cycle_protocol import before_each_pass
from drablocus import aesref, datapath, metrics
from drablocus.cli import EXIT_FAILURE, EXIT_OK, EXIT_USAGE, KEY_ENV_VAR, main
from drablocus.controller import RUN, STAGE_PHASE_OFFSET, Controller
from drablocus.datapath import MAIN_ROUNDS, NUM_LOOP_STAGES, TAG_BITS, TAG_VALID
from drablocus.simulator import RUN_START_CYCLE, PipelineSimulator
from drablocus.tables import MODE_DECRYPT, MODE_ENCRYPT, build_sbox_image, key_store_address

FIPS_KEY_HEX = "000102030405060708090a0b0c0d0e0f"
FIPS_PT = bytes.fromhex("00112233445566778899aabbccddeeff")
FIPS_CT = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")


def test_vectors_default_pass(capsys):
    assert main(["vectors"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "24/24 vectors passed" in out


def test_vectors_ref_only(capsys):
    assert main(["vectors", "--engine", "ref"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "sim " not in out
    assert "12/12 vectors passed" in out


def test_vectors_corrupted_table_detected(capsys, monkeypatch):
    # One bit flipped in S-box entry 0x53 of the image the simulator builds.
    def corrupted_sbox_image():
        image = build_sbox_image()
        image[0x53] ^= 0x01
        return image

    monkeypatch.setattr(datapath, "build_sbox_image", corrupted_sbox_image)
    assert main(["vectors"]) == EXIT_FAILURE
    out = capsys.readouterr().out
    assert "FAIL" in out
    # The reference engine is unaffected by the table fault.
    assert all("PASS" in line for line in out.splitlines() if line.startswith("ref "))


@pytest.mark.parametrize("engine", ["ref", "sim"])
def test_encrypt_decrypt_round_trip(tmp_path, engine):
    plain = tmp_path / "plain.bin"
    ct = tmp_path / "ct.bin"
    back = tmp_path / "back.bin"
    plain.write_bytes(bytes(range(48)))
    assert (
        main(["encrypt", "--key", FIPS_KEY_HEX, "--in", str(plain), "--out", str(ct),
              "--engine", engine])
        == EXIT_OK
    )
    other = "sim" if engine == "ref" else "ref"
    assert (
        main(["decrypt", "--key", FIPS_KEY_HEX, "--in", str(ct), "--out", str(back),
              "--engine", other])
        == EXIT_OK
    )
    assert back.read_bytes() == plain.read_bytes()


def test_engines_produce_identical_files(tmp_path):
    plain = tmp_path / "plain.bin"
    plain.write_bytes(os.urandom(16 * 20))
    outs = {}
    for engine in ("ref", "sim"):
        out = tmp_path / f"{engine}.bin"
        assert (
            main(["encrypt", "--key", FIPS_KEY_HEX, "--in", str(plain), "--out", str(out),
                  "--engine", engine])
            == EXIT_OK
        )
        outs[engine] = out.read_bytes()
    assert outs["ref"] == outs["sim"]


def test_fips_single_block_file(tmp_path):
    plain = tmp_path / "p.bin"
    out = tmp_path / "c.bin"
    plain.write_bytes(FIPS_PT)
    main(["encrypt", "--key", FIPS_KEY_HEX, "--in", str(plain), "--out", str(out)])
    assert out.read_bytes() == FIPS_CT


def test_non_block_multiple_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes(17))
    code = main(["encrypt", "--key", FIPS_KEY_HEX, "--in", str(bad), "--out", str(tmp_path / "x")])
    assert code == EXIT_USAGE
    assert "multiple" in capsys.readouterr().err


def test_empty_input_is_usage_error(tmp_path, capsys):
    empty = tmp_path / "empty.bin"
    empty.write_bytes(b"")
    out = tmp_path / "x"
    assert main(["encrypt", "--key", FIPS_KEY_HEX, "--in", str(empty), "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: input is empty\n"
    assert not out.exists()


def test_bad_key_is_usage_error(tmp_path, capsys):
    f = tmp_path / "p.bin"
    f.write_bytes(bytes(16))
    assert main(["encrypt", "--key", "1234", "--in", str(f), "--out", str(tmp_path / "x")]) == EXIT_USAGE
    assert main(["encrypt", "--key", "zz" * 16, "--in", str(f), "--out", str(tmp_path / "x")]) == EXIT_USAGE


def test_key_from_environment(tmp_path, monkeypatch):
    plain = tmp_path / "p.bin"
    out = tmp_path / "c.bin"
    plain.write_bytes(FIPS_PT)
    monkeypatch.setenv(KEY_ENV_VAR, FIPS_KEY_HEX)
    assert main(["encrypt", "--in", str(plain), "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == FIPS_CT
    monkeypatch.delenv(KEY_ENV_VAR)
    assert main(["encrypt", "--in", str(plain), "--out", str(out)]) == EXIT_USAGE


def test_simulate_summary_and_outputs(tmp_path, capsys):
    jobs = tmp_path / "jobs.txt"
    jobs.write_text(
        "0 enc 00112233445566778899aabbccddeeff\n"
        "1 dec 69c4e0d86a7b0430d8cdb78070b4c55a\n"
    )
    out = tmp_path / "out.txt"
    trace = tmp_path / "trace.txt"
    code = main([
        "simulate", "--key", FIPS_KEY_HEX, "--jobs", str(jobs),
        "--out", str(out), "--trace", str(trace),
    ])
    assert code == EXIT_OK
    summary = capsys.readouterr().out
    assert "latency_cycles=115" in summary
    assert "blocks=2" in summary
    lines = out.read_text().splitlines()
    assert lines[0] == "0 " + FIPS_CT.hex()
    assert lines[1] == "1 " + FIPS_PT.hex()
    assert trace.read_text().startswith("cycle=0 fsm=reset")


def test_simulate_reports_the_batch_period_cadence(tmp_path, capsys):
    # 44 jobs: three full batches and a partial fourth, which must not lift
    # the measured cadence above one batch per 120 cycles.
    blocks = [bytes([i]) * 16 for i in range(44)]
    jobs = tmp_path / "jobs.txt"
    jobs.write_text("".join(f"{i} {('enc', 'dec')[i % 2]} {b.hex()}\n" for i, b in enumerate(blocks)))
    assert main(["simulate", "--key", FIPS_KEY_HEX, "--jobs", str(jobs), "--out",
                 str(tmp_path / "out.txt")]) == EXIT_OK
    summary = capsys.readouterr().out.splitlines()
    assert "nominal_gbps=7.056" in summary
    assert "measured_blocks_per_cycle=0.100000" in summary
    assert "measured_gbps=6.762" in summary


@pytest.mark.parametrize(
    "command, option, path",
    [
        ("simulate", "--trace", "missing/t.txt"),
        ("simulate", "--out", "missing/o.txt"),
        ("dump-tables", "--out", "jobs.txt/sub"),
    ],
)
def test_unwritable_path_is_usage_error(tmp_path, capsys, command, option, path):
    # A path that cannot be written is bad input: exit 2 with one line naming
    # it, before any simulation starts.
    jobs = tmp_path / "jobs.txt"
    jobs.write_text("0 enc 00112233445566778899aabbccddeeff\n")
    path = str(tmp_path / path)
    argv = [command, option, path]
    if command == "simulate":
        argv += ["--key", FIPS_KEY_HEX, "--jobs", str(jobs)]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")
    assert repr(path) in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate", "--jobs", "j.txt", "--freq", "abc"],
         "argument --freq: invalid float value: 'abc'"),
        (["simulate", "--key", FIPS_KEY_HEX], "the following arguments are required: --jobs"),
        (["frob"], "argument command: invalid choice: 'frob' (choose from 'vectors', "
                   "'encrypt', 'decrypt', 'simulate', 'metrics', 'colocate', 'dump-tables')"),
        (["vectors", "--engine", "gpu"],
         "argument --engine: invalid choice: 'gpu' (choose from 'ref', 'sim', 'both')"),
        ([], "the following arguments are required: command"),
    ],
    ids=["freq_abc", "missing_jobs", "unknown_command", "engine_gpu", "empty_argv"],
)
def test_rejected_arguments_are_one_line_usage_errors(capsys, argv, message):
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("text, shown", [("a\nb", "a\\nb"), ("a\r\u2028b", "a\\r\\u2028b")])
def test_line_breaks_in_an_echoed_argument_are_escaped(capsys, text, shown):
    # argparse echoes an unrecognized argument as it was given.
    assert main(["vectors", "--key", text]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == f"error: unrecognized arguments: --key {shown}\n"
    assert captured.out == ""


def test_help_still_prints_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["simulate", "--help"])
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith("usage: drablocus simulate ")


@pytest.mark.parametrize("freq", ["0", "-1", "nan", "inf"])
def test_simulate_clock_must_be_positive_and_finite(tmp_path, capsys, monkeypatch, freq):
    def run(*args, **kwargs):
        pytest.fail("the run started")

    monkeypatch.setattr(PipelineSimulator, "run", run)
    jobs = tmp_path / "jobs.txt"
    jobs.write_text("0 enc 00112233445566778899aabbccddeeff\n")
    argv = ["simulate", "--key", FIPS_KEY_HEX, "--jobs", str(jobs), "--freq", freq]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"error: --freq must be a positive finite number of MHz, got {float(freq)}\n"
    )


@pytest.mark.parametrize("freq", ["1e308", "1e-320"])
def test_simulate_clock_whose_figures_overflow_is_refused_before_the_run(
        tmp_path, capsys, monkeypatch, freq):
    # Finite and positive, but 1e308 MHz makes the throughputs infinite and
    # 1e-320 MHz the latency in ns.
    def run(*args, **kwargs):
        pytest.fail("the run started")

    monkeypatch.setattr(PipelineSimulator, "run", run)
    jobs = tmp_path / "jobs.txt"
    jobs.write_text("0 enc 00112233445566778899aabbccddeeff\n")
    argv = ["simulate", "--key", FIPS_KEY_HEX, "--jobs", str(jobs), "--freq", freq]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == f"error: --freq {float(freq)} MHz makes the derived figures overflow\n"
    assert captured.out == ""


@pytest.mark.parametrize("freq", ["1e306", "1e-300"])
def test_simulate_prints_finite_figures_at_extreme_clocks(tmp_path, capsys, freq):
    # 36 saturated jobs print every figure, the measured ones included.
    jobs = tmp_path / "jobs.txt"
    jobs.write_text("".join(f"{i} enc {bytes([i]).hex() * 16}\n" for i in range(36)))
    argv = ["simulate", "--key", FIPS_KEY_HEX, "--jobs", str(jobs), "--freq", freq,
            "--out", str(tmp_path / "out.txt")]
    assert main(argv) == EXIT_OK
    figures = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    assert "measured_gbps" in figures
    for name in ("latency_ns", "nominal_gbps", "measured_blocks_per_cycle", "measured_gbps"):
        assert math.isfinite(float(figures[name])), name


def test_simulate_bad_jobs_file_line_number(tmp_path, capsys):
    jobs = tmp_path / "jobs.txt"
    jobs.write_text("0 enc 00112233445566778899aabbccddeeff\nbogus line\n")
    assert main(["simulate", "--key", FIPS_KEY_HEX, "--jobs", str(jobs)]) == EXIT_USAGE
    assert "line 2" in capsys.readouterr().err


def test_simulate_modelled_fault_exits_1_with_one_line(tmp_path, capsys, monkeypatch):
    # Flip an occupancy bit on the first run cycle; the controller check
    # catches it in the same cycle.
    original = Controller.begin_cycle
    upset_cycles = []

    def begin_cycle(self, *args):
        plan = original(self, *args)
        if self.fsm == RUN and not upset_cycles:
            upset_cycles.append(self.cycle)
            self.tags ^= TAG_VALID << TAG_BITS * 5
        return plan

    monkeypatch.setattr(Controller, "begin_cycle", begin_cycle)
    jobs = tmp_path / "jobs.txt"
    jobs.write_text("0 enc 00112233445566778899aabbccddeeff\n")
    assert main(["simulate", "--key", FIPS_KEY_HEX, "--jobs", str(jobs)]) == EXIT_FAILURE
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"simulation fault: cycle {upset_cycles[0]}: occupancy register")


def test_simulate_datapath_fault_names_its_cycle(tmp_path, capsys, monkeypatch):
    # The block is admitted on the first run cycle, which opens a pass. Its
    # plan leaves the main key-add output out of reset on the cycle before
    # the block leaves the initial key-add, so stale loop contents and the
    # block reach the OR mux together, two cycles into the pass.
    original_begin = Controller.begin_cycle
    upsets = []

    def begin_cycle(self, *args):
        plan = original_begin(self, *args)
        if self.fsm == RUN and not upsets:
            assert self.admissions == [0] and plan[1][3]
            upsets.append(self.cycle)
            plan[1][3] = False
        return plan

    monkeypatch.setattr(Controller, "begin_cycle", begin_cycle)
    jobs = tmp_path / "jobs.txt"
    jobs.write_text("0 enc 00112233445566778899aabbccddeeff\n")
    assert main(["simulate", "--key", FIPS_KEY_HEX, "--jobs", str(jobs)]) == EXIT_FAILURE
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert upsets == [RUN_START_CYCLE]
    assert err.startswith(
        f"simulation fault: cycle {RUN_START_CYCLE + 2}: OR-mux driven by multiple nonzero sources"
    )
    assert RUN_START_CYCLE + 2 == 163


def test_simulate_key_store_fault_names_its_cycle(tmp_path, capsys, monkeypatch):
    # Between passes, as the run opens, the round counters' reset is upset
    # to load the last main round: the admitted block's first request for a
    # main-loop key overflows. The untraced run planned a pass over it and
    # raises inside it. The cycle is the phase math's, found without hooks:
    # admitted on the first run cycle, the block reaches stage 7 seven
    # cycles after it enters stage 0.
    class ResetToLastMainRound(list):
        def __setitem__(self, slot, value):
            super().__setitem__(slot, value or MAIN_ROUNDS)

    def upset(ctrl, dp, ks):
        if ctrl.fsm == RUN and type(ks.round_counters) is list:
            ks.round_counters = ResetToLastMainRound(ks.round_counters)

    before_each_pass(monkeypatch, upset)
    jobs = tmp_path / "jobs.txt"
    jobs.write_text("0 enc 00112233445566778899aabbccddeeff\n")
    assert main(["simulate", "--key", FIPS_KEY_HEX, "--jobs", str(jobs)]) == EXIT_FAILURE
    cycle = RUN_START_CYCLE + STAGE_PHASE_OFFSET + 7
    assert capsys.readouterr().err == (
        f"simulation fault: cycle {cycle}: slot {RUN_START_CYCLE % NUM_LOOP_STAGES} "
        f"requested main-loop key for round {MAIN_ROUNDS + 1}\n"
    )
    assert cycle == 171


def test_metrics_prints_both_bram_factors(capsys):
    assert main(["metrics", "--design", "DRAB-LOCUS"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "220.47" in out
    assert "195.97" in out
    assert "energy_per_block_nws=7.47" in out


def test_metrics_prints_the_catalog_energy_figure_without_a_power_figure(tmp_path, capsys):
    catalog = tmp_path / "cat.txt"
    catalog.write_text(
        "[design d]\ndevice = x\nslices = 10\nthroughput_mbps = 1e3\nenergy_nws = 5\n"
    )
    assert main(["metrics", "--catalog", str(catalog), "--design", "d"]) == EXIT_OK
    assert "energy_per_block_nws=5.00 (catalog figure)\n" in capsys.readouterr().out


def test_metrics_unknown_design_lists_alternatives(capsys):
    assert main(["metrics", "--design", "AES-Missing"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "available:" in err


def test_metrics_design_without_throughput_is_usage_error(capsys):
    assert main(["metrics", "--design", "AES-Expanded"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: AES-Expanded: no throughput figure in catalog\n"


@pytest.mark.parametrize("factor", ["2", "0"])
def test_metrics_bram_utilization_outside_unit_interval_is_usage_error(capsys, factor):
    assert main(["metrics", "--design", "DRAB-LOCUS", "--bram-utilization", factor]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"error: bram utilization must be in (0, 1], got {float(factor)}\n"
    )


@pytest.mark.parametrize(
    "command, field, value, rule",
    [
        ("metrics", "throughput_mbps", "nan", "must be finite and >= 0"),
        ("metrics", "frequency_mhz", "-100", "must be finite and >= 0"),
        ("metrics", "bram_utilization", "0", "must be in (0, 1]"),
        ("colocate", "slices", "-50", "must be finite and >= 0"),
    ],
)
def test_catalog_figure_out_of_range_is_usage_error(tmp_path, capsys, command, field, value, rule):
    kind = "accelerator" if command == "colocate" else "design"
    catalog = tmp_path / "cat.txt"
    catalog.write_text(f"[{kind} x]\ndevice = tiny\n{field} = {value}\n")
    message = f"line 3: field {field!r} {rule}, got {value!r}"
    argv = {
        "metrics": ["metrics", "--design", "x"],
        "colocate": ["colocate", "--accel", "x", "--aes", "x"],
    }[command]
    assert main([*argv, "--catalog", str(catalog)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [["metrics", "--design", "x"], ["colocate", "--accel", "a", "--aes", "x"]],
)
def test_repeated_catalog_section_is_usage_error(tmp_path, capsys, argv):
    catalog = tmp_path / "cat.txt"
    catalog.write_text(
        "[design x]\ndevice = tiny\nslices = 1\n"
        "[accelerator a]\ndevice = tiny\nslices = 1\n"
        "[design x]\ndevice = tiny\nslices = 2\n"
    )
    assert main([*argv, "--catalog", str(catalog)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 7: duplicate design 'x' (first at line 1)\n"


def test_metrics_zero_catalog_bram_factor_is_not_read_as_one(capsys, monkeypatch):
    # A catalog entry built in code skips the parser's range check; the CLI
    # must hand its factor on as it is, not swap a zero for 1.0.
    catalog = metrics.Catalog()
    catalog.designs["x"] = metrics.DesignCatalogEntry(
        name="x", device="d", total=metrics.ResourceVector(slices=1),
        throughput_mbps=10.0, bram_utilization=0.0,
    )
    monkeypatch.setattr(metrics, "default_catalog", lambda: catalog)
    assert main(["metrics", "--design", "x"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: bram utilization must be in (0, 1], got 0.0\n"


def test_metrics_records(capsys):
    assert main(["metrics", "--design", "AES-Efficient", "--records"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[2] == (
        "design=AES-Efficient lut=19.8225 ff=10.7372 bram=837.5000 dsp=418.7500 "
        "slice=22.6351 util=1.0000"
    )


def test_colocate_records(capsys):
    assert main(["colocate", "--accel", "Video", "--aes", "DRAB-LOCUS", "--records"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == [
        "4675 19 176 feasible",
        "device=xc7z020 accel=Video design=DRAB-LOCUS slices=4675 brams=19 dsps=176 feasible=1",
    ]


def test_colocate_feasible_row(capsys):
    assert main(["colocate", "--accel", "Video", "--aes", "DRAB-LOCUS"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[0] == "4675 19 176 feasible"


def test_colocate_infeasible_exits_1(capsys):
    assert main(["colocate", "--accel", "DNN 1", "--aes", "AES-EncDec"]) == EXIT_FAILURE
    assert capsys.readouterr().out.splitlines()[0] == "-3286 -394 -126 infeasible"


def test_colocate_explicit_device(capsys):
    assert main([
        "colocate", "--device", "xc7z020", "--accel", "Video", "--aes", "AES-Modes",
    ]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[0] == "4826 20 166 feasible"


def test_dump_tables(tmp_path, capsys):
    assert main(["dump-tables", "--out", str(tmp_path), "--key", FIPS_KEY_HEX]) == EXIT_OK
    sbox = (tmp_path / "sbox.hex").read_text().splitlines()
    assert len(sbox) == 512
    assert sbox[0] == "63"
    assert sbox[0x163] == "00"
    mc = (tmp_path / "mixcolumns.hex").read_text().splitlines()
    assert len(mc) == 512
    assert mc[1] == "02010103"
    assert mc[0x101] == "0e090d0b"
    # {mode, round} addressing: 11 keys per mode, the other 10 words zero.
    key = bytes.fromhex(FIPS_KEY_HEX)
    expected = ["0" * 32] * 32
    for mode, keys in ((MODE_ENCRYPT, aesref.key_expand(key).keys),
                       (MODE_DECRYPT, aesref.key_expand_equivalent_inverse(key).keys)):
        for r, round_key in enumerate(keys):
            expected[key_store_address(mode, r)] = round_key.hex()
    assert (tmp_path / "keystore.hex").read_text().splitlines() == expected


def test_dump_tables_with_a_bad_key_writes_nothing(tmp_path, capsys):
    # The key is parsed before the output directory is made.
    out_dir = tmp_path / "tables"
    assert main(["dump-tables", "--out", str(out_dir), "--key", "zz"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: key must be hex, got 'zz'\n"
    assert not out_dir.exists()


def test_custom_catalog_file(tmp_path, capsys):
    catalog = tmp_path / "cat.txt"
    catalog.write_text(
        "[device tiny]\nslices = 100\nbrams = 10\ndsps = 4\n"
        "[accelerator blinker]\ndevice = tiny\nslices = 40\nbrams = 2\ndsps = 1\n"
        "[design mini]\ndevice = tiny\nslices = 10\nbrams = 1\ndsps = 1\n"
    )
    assert main([
        "colocate", "--catalog", str(catalog), "--accel", "blinker", "--aes", "mini",
    ]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[0] == "50 7 2 feasible"
