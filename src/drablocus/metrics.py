"""Evaluation engine: latency/throughput calculators, per-resource
efficiency, energy per block, and accelerator co-location arithmetic.

All performance and power figures are catalog inputs; this module never
estimates them. The shipped catalog (data/catalog.txt) carries the
published figures for DRAB-LOCUS and the designs, devices and
accelerators it is compared against.
"""

from __future__ import annotations

import math
import operator
from importlib import resources
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .textlines import split_lines

BLOCK_BITS = 128


class CatalogError(ValueError):
    """Bad catalog contents or an unknown entry name."""


class ResourceVector(NamedTuple):
    """Component counts; None marks a figure the source did not disclose."""

    slices: int | None = None
    luts: int | None = None
    flip_flops: int | None = None
    brams: int | None = None
    dsps: int | None = None

    def _componentwise(self, other: "ResourceVector", op) -> "ResourceVector":
        """``op`` per component; a component unknown on either side stays unknown."""
        return ResourceVector(
            *(None if a is None or b is None else op(a, b) for a, b in zip(self, other))
        )

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return self._componentwise(other, operator.add)

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        return self._componentwise(other, operator.sub)


class DesignCatalogEntry(NamedTuple):
    name: str
    device: str
    total: ResourceVector
    datapath: ResourceVector | None = None
    frequency_mhz: float | None = None
    latency_cycles: int | None = None
    throughput_mbps: float | None = None
    power_mw: Mapping[str, float] = MappingProxyType({})
    bram_utilization: float | None = None
    energy_nws: float | None = None


class DeviceCatalogEntry(NamedTuple):
    name: str
    capacity: ResourceVector


class AcceleratorCatalogEntry(NamedTuple):
    name: str
    device: str
    usage: ResourceVector


def latency_ns(
    stages: int, rounds: int, extra_cycles: int, clock_period_ns: float
) -> tuple[int, float]:
    """Cycle count stages*rounds + extra and its wall-clock time."""
    cycles = stages * rounds + extra_cycles
    return cycles, cycles * clock_period_ns


def throughput_gbps(
    block_bits: int, freq_mhz: float, cycles_per_batch: int, blocks_per_batch: int
) -> float:
    """Bits per block times batch completion rate, in Gbps."""
    return block_bits * freq_mhz * blocks_per_batch / cycles_per_batch / 1000.0


def energy_per_block_nws(
    total_power_mw: float, throughput_mbps: float, block_bits: int = BLOCK_BITS
) -> float:
    """Power over block completion rate: nanowatt-seconds per block."""
    return total_power_mw * block_bits / throughput_mbps


class EfficiencyReport(NamedTuple):
    design: str
    bram_utilization: float
    mbps_per_lut: float | None
    mbps_per_flip_flop: float | None
    mbps_per_bram: float | None
    mbps_per_dsp: float | None
    mbps_per_slice: float | None


def efficiency_report(
    entry: DesignCatalogEntry, bram_utilization: float
) -> EfficiencyReport:
    """Datapath-only throughput-per-resource figures.

    The block RAM figure is scaled by the supplied memory-utilization
    factor. Figures whose resource count is undisclosed or zero are
    absent, not an error. The per-slice figure uses the whole design's
    slice count and is kept for comparison with older reports.
    """
    if not 0 < bram_utilization <= 1:
        raise ValueError(f"bram utilization must be in (0, 1], got {bram_utilization}")
    throughput = entry.throughput_mbps
    if throughput is None:
        raise ValueError(f"{entry.name}: no throughput figure in catalog")

    def per(count: int | None, scale: float = 1.0) -> float | None:
        if count is None or count == 0:
            return None
        return throughput / count * scale

    dp = entry.datapath
    return EfficiencyReport(
        design=entry.name,
        bram_utilization=bram_utilization,
        mbps_per_lut=per(dp.luts) if dp else None,
        mbps_per_flip_flop=per(dp.flip_flops) if dp else None,
        mbps_per_bram=per(dp.brams, bram_utilization) if dp else None,
        mbps_per_dsp=per(dp.dsps) if dp else None,
        mbps_per_slice=per(entry.total.slices),
    )


class ColocationResult(NamedTuple):
    device: str
    accelerator: str
    design: str
    remainder: ResourceVector
    feasible: bool


def colocate(
    device: DeviceCatalogEntry,
    accelerator: AcceleratorCatalogEntry,
    design: DesignCatalogEntry,
) -> ColocationResult:
    """Componentwise device capacity minus accelerator and cipher usage.

    Feasible exactly when no slice/RAM/DSP component goes negative.
    Only those three components enter the analysis; undisclosed LUT and
    flip-flop splits are why published co-location studies stick to
    slice counts.
    """
    remainder = device.capacity - accelerator.usage - design.total
    parts = (remainder.slices, remainder.brams, remainder.dsps)
    if any(p is None for p in parts):
        raise CatalogError(
            f"co-location of {design.name} needs slice/brams/dsps figures"
        )
    return ColocationResult(
        device=device.name,
        accelerator=accelerator.name,
        design=design.name,
        remainder=remainder,
        feasible=all(p >= 0 for p in parts),
    )


class Catalog:
    def __init__(self):
        self.designs: dict[str, DesignCatalogEntry] = {}
        self.devices: dict[str, DeviceCatalogEntry] = {}
        self.accelerators: dict[str, AcceleratorCatalogEntry] = {}

    def _lookup(self, table: dict, kind: str, name: str):
        if name not in table:
            options = ", ".join(sorted(table)) or "none"
            raise CatalogError(f"unknown {kind} {name!r}; available: {options}")
        return table[name]

    def design(self, name: str) -> DesignCatalogEntry:
        return self._lookup(self.designs, "design", name)

    def device(self, name: str) -> DeviceCatalogEntry:
        return self._lookup(self.devices, "device", name)

    def accelerator(self, name: str) -> AcceleratorCatalogEntry:
        return self._lookup(self.accelerators, "accelerator", name)


_DESIGN_FIELDS = {
    "device": str,
    "slices": int,
    "luts": int,
    "flip_flops": int,
    "brams": int,
    "dsps": int,
    "datapath_slices": int,
    "datapath_luts": int,
    "datapath_flip_flops": int,
    "datapath_brams": int,
    "datapath_dsps": int,
    "frequency_mhz": float,
    "latency_cycles": int,
    "throughput_mbps": float,
    "power_logic_mw": float,
    "power_bram_mw": float,
    "power_dsp_mw": float,
    "power_signal_clock_mw": float,
    "power_total_mw": float,
    "bram_utilization": float,
    "energy_nws": float,
}
_DEVICE_FIELDS = {"slices": int, "brams": int, "dsps": int}
_ACCELERATOR_FIELDS = {"device": str, "slices": int, "brams": int, "dsps": int}
_SCHEMAS = {"design": _DESIGN_FIELDS, "device": _DEVICE_FIELDS, "accelerator": _ACCELERATOR_FIELDS}


def parse_catalog(text: str) -> Catalog:
    """Parse the sectioned key-value catalog format.

    Sections open with ``[design NAME]``, ``[device NAME]`` or
    ``[accelerator NAME]``; bodies are ``key = value`` lines. ``n/a``
    marks an undisclosed numeric value. Unknown section kinds or field
    names, and a second section of one kind and name, are rejected with
    the offending line number. Lines end as ``split_lines`` ends them.
    """
    catalog = Catalog()
    section: tuple[str, str] | None = None
    fields: dict[str, object] = {}
    # The header line of every section seen, by kind and name.
    header_lines: dict[tuple[str, str], int] = {}

    def finish() -> None:
        if section is None:
            return
        kind, name = section
        if kind != "device" and "device" not in fields:
            raise CatalogError(f"line {header_lines[section]}: {kind} {name!r} needs a device")
        # Devices and accelerators carry slices, brams and dsps only.
        total = ResourceVector(*(fields.get(f) for f in ResourceVector._fields))
        if kind == "design":
            dp_fields = [fields.get(f"datapath_{f}") for f in ResourceVector._fields]
            datapath = (
                ResourceVector(*dp_fields) if any(v is not None for v in dp_fields) else None
            )
            power = {
                key[len("power_") : -len("_mw")]: value
                for key, value in fields.items()
                if key.startswith("power_") and value is not None
            }
            catalog.designs[name] = DesignCatalogEntry(
                name=name,
                device=fields["device"],
                total=total,
                datapath=datapath,
                frequency_mhz=fields.get("frequency_mhz"),
                latency_cycles=fields.get("latency_cycles"),
                throughput_mbps=fields.get("throughput_mbps"),
                power_mw=power,
                bram_utilization=fields.get("bram_utilization"),
                energy_nws=fields.get("energy_nws"),
            )
        elif kind == "device":
            catalog.devices[name] = DeviceCatalogEntry(name=name, capacity=total)
        else:
            catalog.accelerators[name] = AcceleratorCatalogEntry(
                name=name, device=fields["device"], usage=total
            )

    for number, raw in enumerate(split_lines(text), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise CatalogError(f"line {number}: unterminated section header {raw!r}")
            parts = line[1:-1].split(None, 1)
            if len(parts) != 2:
                raise CatalogError(
                    f"line {number}: section header needs a kind and a name, got {raw!r}"
                )
            kind, name = parts
            if kind not in _SCHEMAS:
                raise CatalogError(f"line {number}: unknown section kind {kind!r}")
            finish()
            section = (kind, name.strip())
            if section in header_lines:
                raise CatalogError(
                    f"line {number}: duplicate {kind} {section[1]!r} "
                    f"(first at line {header_lines[section]})"
                )
            header_lines[section] = number
            fields = {}
            continue
        if "=" not in line:
            raise CatalogError(f"line {number}: expected 'key = value', got {raw!r}")
        if section is None:
            raise CatalogError(f"line {number}: field outside any section")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        schema = _SCHEMAS[section[0]]
        if key not in schema:
            raise CatalogError(
                f"line {number}: unknown field {key!r} in {section[0]} section"
            )
        if key in fields:
            raise CatalogError(f"line {number}: duplicate field {key!r}")
        caster = schema[key]
        if caster is str:
            fields[key] = value
        elif value.lower() in ("n/a", "na", "unknown"):
            fields[key] = None
        else:
            try:
                fields[key] = caster(value)
                # Every figure enters float arithmetic, so must fit a float.
                figure = float(fields[key])
            except (ValueError, OverflowError):
                raise CatalogError(
                    f"line {number}: field {key!r} needs a {caster.__name__}, got {value!r}"
                ) from None
            # A count, rate or power is finite and not negative; nan fails
            # every comparison. Zero stays a valid report.
            if not 0 <= figure < math.inf:
                raise CatalogError(
                    f"line {number}: field {key!r} must be finite and >= 0, got {value!r}"
                )
            if key == "bram_utilization" and not 0 < figure <= 1:
                raise CatalogError(
                    f"line {number}: field {key!r} must be in (0, 1], got {value!r}"
                )
    finish()
    return catalog


def default_catalog() -> Catalog:
    """The packaged reference catalog."""
    text = resources.files("drablocus").joinpath("data/catalog.txt").read_text()
    return parse_catalog(text)


def _figures(r: EfficiencyReport, digits: int) -> list[str]:
    """The five per-resource figures of a report, ``n/a`` where absent."""
    return [
        "n/a" if v is None else f"{v:.{digits}f}"
        for v in (r.mbps_per_lut, r.mbps_per_flip_flop, r.mbps_per_bram, r.mbps_per_dsp,
                  r.mbps_per_slice)
    ]


def _aligned(rows: list[tuple[str, ...]]) -> str:
    """Left-aligned columns two spaces apart, trailing blanks stripped."""
    widths = [max(len(cell) for cell in column) for column in zip(*rows)]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows
    )


def render_efficiency(reports: list[EfficiencyReport]) -> str:
    """Aligned throughput-per-resource table (Mbps per unit)."""
    headers = ("Design", "Mbps/LUT", "Mbps/FF", "Mbps/BRAM", "Mbps/DSP", "Mbps/slice", "util")
    return _aligned(
        [headers]
        + [(r.design, *_figures(r, 2), f"{r.bram_utilization:.4f}") for r in reports]
    )


def efficiency_records(reports: list[EfficiencyReport]) -> str:
    """Machine-readable one-line-per-design record stream."""
    lines = []
    for r in reports:
        lut, ff, bram, dsp, slice_ = _figures(r, 4)
        lines.append(
            f"design={r.design} lut={lut} ff={ff} bram={bram} dsp={dsp} "
            f"slice={slice_} util={r.bram_utilization:.4f}"
        )
    return "\n".join(lines)


def render_colocation(results: list[ColocationResult]) -> str:
    """Aligned remainder table in the published row shape."""
    headers = ("Accelerator", "Design", "Slices", "B.RAMs", "DSPs", "Fit")
    return _aligned(
        [headers]
        + [
            (r.accelerator, r.design, str(r.remainder.slices), str(r.remainder.brams),
             str(r.remainder.dsps), "feasible" if r.feasible else "infeasible")
            for r in results
        ]
    )


def colocation_records(results: list[ColocationResult]) -> str:
    return "\n".join(
        f"device={r.device} accel={r.accelerator} design={r.design} "
        f"slices={r.remainder.slices} brams={r.remainder.brams} dsps={r.remainder.dsps} "
        f"feasible={1 if r.feasible else 0}"
        for r in results
    )
