"""Command-line surface: verification vectors, block processing through
either engine, pipeline simulation with tracing, and evaluation reports.

Exit codes: 0 success, 1 verification or feasibility failure or a
modelled fault, 2 usage error, including a file that cannot be read or
written. Results go to stdout or --out; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from contextlib import ExitStack
from pathlib import Path

from . import aesref, metrics
from .faults import SimulationFault
from .simulator import (
    CLOCK_MHZ,
    Job,
    JobError,
    PipelineSimulator,
    measure_cadence,
    parse_jobs,
    write_outputs,
)
from .tables import (
    MODE_DECRYPT,
    MODE_ENCRYPT,
    build_mixcolumns_image,
    build_sbox_image,
    datapath_bram_utilization,
    dump_image_hex,
)

KEY_ENV_VAR = "DRABLOCUS_KEY"

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2

# What str.splitlines() breaks at, as repr() writes it: argparse echoes arguments raw.
_LINE_BREAKS = str.maketrans({c: repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"})


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises each argument it rejects as a UsageError, which ``main``
    reports as one ``error:`` line; ``--help`` still prints and exits."""

    def error(self, message):
        raise UsageError(message)


def _parse_key(args) -> bytes:
    key_hex = args.key or os.environ.get(KEY_ENV_VAR)
    if not key_hex:
        raise UsageError(f"no key: pass --key or set {KEY_ENV_VAR}")
    try:
        key = bytes.fromhex(key_hex)
    except ValueError:
        raise UsageError(f"key must be hex, got {key_hex!r}") from None
    if len(key) != 16:
        raise UsageError(f"key must be 32 hex chars (16 bytes), got {len(key)} bytes")
    return key


def _read_text(path: str, what: str) -> str:
    # A file that cannot be opened raises OSError, which main reports.
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise UsageError(f"cannot read {what}: {exc}") from None


def _load_catalog(args) -> metrics.Catalog:
    if args.catalog:
        return metrics.parse_catalog(_read_text(args.catalog, "catalog"))
    return metrics.default_catalog()


# Known-answer vectors: (label, key, plaintext, ciphertext), all hex.
# FIPS-197 App. C.1 and the App. B worked example, plus the four
# SP 800-38A ECB-AES128 blocks.
KNOWN_ANSWERS = (
    ("fips-c1", "000102030405060708090a0b0c0d0e0f",
     "00112233445566778899aabbccddeeff", "69c4e0d86a7b0430d8cdb78070b4c55a"),
    ("fips-b", "2b7e151628aed2a6abf7158809cf4f3c",
     "3243f6a8885a308d313198a2e0370734", "3925841d02dc09fbdc118597196a0b32"),
    ("ecb128-1", "2b7e151628aed2a6abf7158809cf4f3c",
     "6bc1bee22e409f96e93d7e117393172a", "3ad77bb40d7a3660a89ecaf32466ef97"),
    ("ecb128-2", "2b7e151628aed2a6abf7158809cf4f3c",
     "ae2d8a571e03ac9c9eb76fac45af8e51", "f5d3d58503b9699de785895a96fdbaaf"),
    ("ecb128-3", "2b7e151628aed2a6abf7158809cf4f3c",
     "30c81c46a35ce411e5fbc1191a0a52ef", "43b1cd7f598ece23881b00e3ed030688"),
    ("ecb128-4", "2b7e151628aed2a6abf7158809cf4f3c",
     "f69f2445df4f9b17ad2b417be66c3710", "7b0c785e27e8ad3f8223207104725dd4"),
)


def _cmd_vectors(args) -> int:
    failures = 0
    checks: list[tuple[str, bytes, bytes]] = []  # (label, got, expected)

    if args.engine in ("ref", "both"):
        for label, key_hex, pt_hex, ct_hex in KNOWN_ANSWERS:
            key, pt, ct = (bytes.fromhex(h) for h in (key_hex, pt_hex, ct_hex))
            checks.append((f"ref {label} enc", aesref.encrypt_block(key, pt), ct))
            checks.append((f"ref {label} dec", aesref.decrypt_block(key, ct), pt))

    if args.engine in ("sim", "both"):
        sim = PipelineSimulator()
        by_key: dict[str, list[tuple[str, int, bytes, bytes]]] = {}
        for label, key_hex, pt_hex, ct_hex in KNOWN_ANSWERS:
            pt, ct = bytes.fromhex(pt_hex), bytes.fromhex(ct_hex)
            group = by_key.setdefault(key_hex, [])
            group.append((label, MODE_ENCRYPT, pt, ct))
            group.append((label, MODE_DECRYPT, ct, pt))
        for key_hex, entries in by_key.items():
            jobs = [Job(i, mode, block) for i, (_, mode, block, _) in enumerate(entries)]
            result = sim.run(bytes.fromhex(key_hex), jobs)
            for i, (label, mode, _, expected) in enumerate(entries):
                direction = "enc" if mode == MODE_ENCRYPT else "dec"
                checks.append((f"sim {label} {direction}", result.outputs[i], expected))

    for label, got, expected in checks:
        ok = got == expected
        failures += not ok
        print(f"{label}: {'PASS' if ok else 'FAIL (got ' + got.hex() + ')'}")
    print(f"{len(checks) - failures}/{len(checks)} vectors passed")
    return EXIT_OK if failures == 0 else EXIT_FAILURE


def _process_blocks(key: bytes, data: bytes, mode: int, engine: str) -> bytes:
    blocks = [data[i : i + 16] for i in range(0, len(data), 16)]
    if engine == "ref":
        keys = (
            aesref.key_expand(key) if mode == MODE_ENCRYPT
            else aesref.key_expand_equivalent_inverse(key)
        )
        op = aesref.encrypt_block if mode == MODE_ENCRYPT else aesref.decrypt_block
        return b"".join(op(keys, b) for b in blocks)
    sim = PipelineSimulator()
    jobs = [Job(i, mode, b) for i, b in enumerate(blocks)]
    result = sim.run(key, jobs)
    return b"".join(result.outputs[i] for i in range(len(blocks)))


def _cmd_crypt(args, mode: int) -> int:
    key = _parse_key(args)
    data = Path(args.infile).read_bytes()
    if len(data) % 16 != 0:
        raise UsageError(
            f"input length {len(data)} is not a multiple of the 16-byte block size"
        )
    if not data:
        raise UsageError("input is empty")
    Path(args.outfile).write_bytes(_process_blocks(key, data, mode, args.engine))
    return EXIT_OK


def _cmd_simulate(args) -> int:
    if not 0 < args.freq < math.inf:
        raise UsageError(f"--freq must be a positive finite number of MHz, got {args.freq}")
    key = _parse_key(args)
    jobs = parse_jobs(_read_text(args.jobs, "jobs file"))
    with ExitStack() as files:
        # Both files are opened before the run, so a bad path costs no run.
        trace = files.enter_context(open(args.trace, "w")) if args.trace else None
        out = files.enter_context(open(args.out, "w")) if args.out else sys.stdout
        result = PipelineSimulator().run(key, jobs, trace=trace)
        _report_run(result.summary, args.freq)
        write_outputs(jobs, result.outputs, out)
    return EXIT_OK


def _report_run(summary, freq_mhz: float) -> None:
    cadence = measure_cadence(summary, freq_mhz=freq_mhz)
    lat = sorted(set(summary.latencies.values()))
    lines = [
        f"blocks={summary.blocks_completed}",
        f"total_cycles={summary.total_cycles}",
        f"key_init_cycles={summary.key_init_cycles}",
        f"flush_cycles={summary.flush_cycles}",
        f"stall_cycles={summary.stall_cycles}",
        f"max_loop_occupancy={summary.max_loop_occupancy}",
        f"latency_cycles={','.join(str(v) for v in lat)}",
        f"latency_ns={lat[0] * 1000.0 / freq_mhz:.1f}" if lat else "latency_ns=n/a",
        f"nominal_blocks_per_cycle={cadence.nominal_blocks_per_cycle:.6f}",
        f"nominal_gbps={cadence.nominal_gbps:.3f}",
    ]
    if cadence.steady_state:
        lines.append(f"measured_blocks_per_cycle={cadence.measured_blocks_per_cycle:.6f}")
        lines.append(f"measured_gbps={cadence.measured_gbps:.3f}")
    else:
        lines.append("measured_blocks_per_cycle=not-steady-state")
    print("\n".join(lines))


def _cmd_metrics(args) -> int:
    catalog = _load_catalog(args)
    entry = catalog.design(args.design)
    factor = args.bram_utilization
    if factor is None:
        factor = 1.0 if entry.bram_utilization is None else entry.bram_utilization
    try:
        reports = [metrics.efficiency_report(entry, factor)]
    except ValueError as exc:
        # A factor outside (0, 1], or a design with no throughput figure.
        raise UsageError(str(exc)) from None
    if args.design == "DRAB-LOCUS" and args.bram_utilization is None:
        # The catalog factor reproduces the published figure; the factor
        # implied by the actual table contents is reported alongside.
        reports.append(metrics.efficiency_report(entry, datapath_bram_utilization()))
    print(metrics.render_efficiency(reports))
    if args.records:
        print(metrics.efficiency_records(reports))
    total_power = entry.power_mw.get("total")
    if total_power is not None and entry.throughput_mbps:
        energy = metrics.energy_per_block_nws(total_power, entry.throughput_mbps)
        print(f"energy_per_block_nws={energy:.2f}")
    elif entry.energy_nws is not None:
        print(f"energy_per_block_nws={entry.energy_nws:.2f} (catalog figure)")
    if entry.frequency_mhz and entry.latency_cycles:
        period = 1000.0 / entry.frequency_mhz
        cycles, ns = metrics.latency_ns(entry.latency_cycles, 1, 0, period)
        print(f"latency={cycles} cycles ({ns:.1f} ns at {entry.frequency_mhz} MHz)")
    return EXIT_OK


def _cmd_colocate(args) -> int:
    catalog = _load_catalog(args)
    accel = catalog.accelerator(args.accel)
    device = catalog.device(args.device or accel.device)
    design = catalog.design(args.aes)
    result = metrics.colocate(device, accel, design)
    r = result.remainder
    print(f"{r.slices} {r.brams} {r.dsps} {'feasible' if result.feasible else 'infeasible'}")
    if args.records:
        print(metrics.colocation_records([result]))
    return EXIT_OK if result.feasible else EXIT_FAILURE


def _cmd_dump_tables(args) -> int:
    # A bad key is a usage error before any file is written.
    key = _parse_key(args) if args.key or os.environ.get(KEY_ENV_VAR) else None
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "sbox.hex", "w") as stream:
        dump_image_hex(build_sbox_image(), 8, stream)
    with open(out_dir / "mixcolumns.hex", "w") as stream:
        dump_image_hex(build_mixcolumns_image(), 32, stream)
    written = ["sbox.hex", "mixcolumns.hex"]
    if key is not None:
        result = PipelineSimulator().run(key, [Job(0, MODE_ENCRYPT, bytes(16))])
        with open(out_dir / "keystore.hex", "w") as stream:
            dump_image_hex(result.key_store, 128, stream)
        written.append("keystore.hex")
    print(f"wrote {', '.join(written)} to {out_dir}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use."""
    parser = _Parser(
        prog="drablocus",
        description="Cycle-accurate DRAB-LOCUS AES-128 model and evaluation tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("vectors", help="run the built-in verification suite")
    p.add_argument("--engine", choices=("ref", "sim", "both"), default="both")
    p.set_defaults(run=_cmd_vectors)

    for name in ("encrypt", "decrypt"):
        p = sub.add_parser(name, help=f"{name} a file of raw 16-byte blocks")
        p.add_argument("--key", help=f"32 hex chars (or set {KEY_ENV_VAR})")
        p.add_argument("--in", dest="infile", required=True)
        p.add_argument("--out", dest="outfile", required=True)
        p.add_argument("--engine", choices=("ref", "sim"), default="ref")
        mode = MODE_ENCRYPT if name == "encrypt" else MODE_DECRYPT
        p.set_defaults(run=functools.partial(_cmd_crypt, mode=mode))

    p = sub.add_parser("simulate", help="run a job file through the pipeline")
    p.add_argument("--key", help=f"32 hex chars (or set {KEY_ENV_VAR})")
    p.add_argument("--jobs", required=True)
    p.add_argument("--out", help="output file (default stdout)")
    p.add_argument("--trace", help="write a cycle trace to this file")
    p.add_argument("--freq", type=float, default=CLOCK_MHZ, help="clock MHz for derived figures")
    p.set_defaults(run=_cmd_simulate)

    p = sub.add_parser("metrics", help="per-resource efficiency report")
    p.add_argument("--catalog", help="catalog file (default: built-in)")
    p.add_argument("--design", required=True)
    p.add_argument("--bram-utilization", type=float)
    p.add_argument("--records", action="store_true", help="also emit machine-readable records")
    p.set_defaults(run=_cmd_metrics)

    p = sub.add_parser("colocate", help="resources left after co-locating designs")
    p.add_argument("--catalog", help="catalog file (default: built-in)")
    p.add_argument("--device", help="device name (default: the accelerator's device)")
    p.add_argument("--accel", required=True)
    p.add_argument("--aes", required=True)
    p.add_argument("--records", action="store_true")
    p.set_defaults(run=_cmd_colocate)

    p = sub.add_parser("dump-tables", help="write RAM images as hex text")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--key", help="also dump the key store for this key")
    p.set_defaults(run=_cmd_dump_tables)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except (UsageError, JobError, metrics.CatalogError, OSError) as exc:
        print(f"error: {exc}".translate(_LINE_BREAKS), file=sys.stderr)
        return EXIT_USAGE
    except SimulationFault as exc:
        print(f"simulation fault: {exc}".translate(_LINE_BREAKS), file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
