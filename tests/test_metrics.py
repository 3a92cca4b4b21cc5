"""Evaluation formulas, catalog parsing, and co-location arithmetic."""

import random

import pytest

from drablocus import metrics as m
from drablocus.tables import datapath_bram_utilization


@pytest.fixture(scope="module")
def catalog():
    return m.default_catalog()


class TestLatency:
    def test_main_configuration(self):
        cycles, ns = m.latency_ns(12, 9, 7, 1.893)
        assert cycles == 115
        assert ns == pytest.approx(217.7, abs=0.1)

    def test_unit_case(self):
        assert m.latency_ns(1, 1, 0, 1.0) == (1, 1.0)

    def test_back_fit_8_stage_design(self):
        cycles, ns = m.latency_ns(8, 9, 12, 1.818)
        assert cycles == 84
        assert ns == pytest.approx(152.7, abs=0.1)


class TestThroughput:
    def test_published_figure(self):
        assert m.throughput_gbps(128, 528.262, 115, 12) == pytest.approx(7.055, abs=0.001)

    def test_round_numbers(self):
        assert m.throughput_gbps(128, 100, 128, 1) == pytest.approx(0.1)

    def test_fully_pipelined_back_fit(self):
        assert m.throughput_gbps(128, 611, 1, 1) == pytest.approx(78.2, abs=0.01)


class TestEnergy:
    def test_published_figures(self):
        assert m.energy_per_block_nws(412, 7055, 128) == pytest.approx(7.47, abs=0.01)
        assert m.energy_per_block_nws(491, 6700, 128) == pytest.approx(9.38, abs=0.01)

    def test_zero_power(self):
        assert m.energy_per_block_nws(0, 7055, 128) == 0


class TestEfficiency:
    def test_modeled_design_catalog_factor(self, catalog):
        entry = catalog.design("DRAB-LOCUS")
        report = m.efficiency_report(entry, entry.bram_utilization)
        assert report.mbps_per_lut == pytest.approx(26.5, abs=0.05)
        assert report.mbps_per_flip_flop == pytest.approx(27.56, abs=0.05)
        assert report.mbps_per_dsp == pytest.approx(391.94, abs=0.05)
        assert report.mbps_per_bram == pytest.approx(220.47, abs=0.05)
        assert report.mbps_per_slice == pytest.approx(22.75, abs=0.05)

    def test_modeled_design_self_computed_factor(self, catalog):
        entry = catalog.design("DRAB-LOCUS")
        report = m.efficiency_report(entry, datapath_bram_utilization())
        assert report.mbps_per_bram == pytest.approx(195.97, abs=0.05)

    def test_comparison_design(self, catalog):
        entry = catalog.design("AES-Efficient")
        report = m.efficiency_report(entry, 1.0)
        assert report.mbps_per_lut == pytest.approx(19.8, abs=0.05)
        assert report.mbps_per_flip_flop == pytest.approx(10.7, abs=0.05)
        assert report.mbps_per_bram == pytest.approx(837.5, abs=0.05)
        assert report.mbps_per_dsp == pytest.approx(418.75, abs=0.05)

    def test_missing_datapath_split_gives_absent_figures(self, catalog):
        entry = catalog.design("AES-EncDec")
        report = m.efficiency_report(entry, 1.0)
        assert report.mbps_per_lut is None
        assert report.mbps_per_slice == pytest.approx(13.9, abs=0.05)

    def test_zero_throughput_gives_zero_figures(self, catalog):
        entry = m.DesignCatalogEntry(
            name="t",
            device="d",
            total=m.ResourceVector(slices=10),
            datapath=m.ResourceVector(luts=5, flip_flops=5, brams=2, dsps=2),
            throughput_mbps=0.0,
        )
        with pytest.raises(ValueError):
            # Throughput present but zero is still a report; only None faults.
            m.efficiency_report(
                m.DesignCatalogEntry(name="x", device="d", total=m.ResourceVector()),
                1.0,
            )
        report = m.efficiency_report(entry, 1.0)
        assert report.mbps_per_lut == 0

    def test_utilization_bounds(self, catalog):
        entry = catalog.design("DRAB-LOCUS")
        with pytest.raises(ValueError):
            m.efficiency_report(entry, 0)
        with pytest.raises(ValueError):
            m.efficiency_report(entry, 1.5)


# Remainder triples after co-location, derived from the device capacities
# and accelerator/design usages in the catalog. Three cells of the
# published table disagree with its own stated inputs (marked *here*):
# DLAU/DRAB-LOCUS DSPs print as 25 there (the AES-Modes value), CNN and
# DNN 2 AES-Modes B.RAMs print as 31 and 3 (inputs give 44 and 16). The
# arithmetic below follows the stated inputs.
COLOCATION_TABLE = {
    "Video": {
        "AES-EncDec": (-628, -365, 50),
        "AES-Modes": (4826, 20, 166),
        "AES-Efficient": (4689, 26, 178),
        "DRAB-LOCUS": (4675, 19, 176),
    },
    "DLAU": {
        "AES-EncDec": (-1409, -295, -91),
        "AES-Modes": (4045, 90, 25),
        "AES-Efficient": (3908, 96, 37),
        "DRAB-LOCUS": (3894, 89, 35),  # published table prints 25
    },
    "CNN": {
        "AES-EncDec": (3383, -341, -24),
        "AES-Modes": (8837, 44, 92),  # published table prints 31 B.RAMs
        "AES-Efficient": (8700, 50, 104),
        "DRAB-LOCUS": (8686, 43, 102),
    },
    "DNN 1": {
        "AES-EncDec": (-3286, -394, -126),
        "AES-Modes": (2168, -9, -10),
        "AES-Efficient": (2031, -3, 2),
        "DRAB-LOCUS": (2017, -10, 0),
    },
    "DNN 2": {
        "AES-EncDec": (-2474, -369, -110),
        "AES-Modes": (2980, 16, 6),  # published table prints 3 B.RAMs
        "AES-Efficient": (2843, 22, 18),
        "DRAB-LOCUS": (2829, 15, 16),
    },
    "DNN 3": {
        "AES-EncDec": (-4017, -368, -96),
        "AES-Modes": (1437, 17, 20),
        "AES-Efficient": (1300, 23, 32),
        "DRAB-LOCUS": (1286, 16, 30),
    },
}


class TestColocation:
    def test_all_24_remainder_triples(self, catalog):
        for accel_name, row in COLOCATION_TABLE.items():
            accel = catalog.accelerator(accel_name)
            device = catalog.device(accel.device)
            for design_name, expected in row.items():
                result = m.colocate(device, accel, catalog.design(design_name))
                got = (result.remainder.slices, result.remainder.brams, result.remainder.dsps)
                assert got == expected, (accel_name, design_name)
                assert result.feasible == all(v >= 0 for v in expected)

    def test_empty_accelerator_and_design_leave_capacity(self, catalog):
        device = catalog.device("xc7z020")
        empty_accel = m.AcceleratorCatalogEntry(
            name="none", device="xc7z020", usage=m.ResourceVector(slices=0, brams=0, dsps=0)
        )
        empty_design = m.DesignCatalogEntry(
            name="none", device="any", total=m.ResourceVector(slices=0, brams=0, dsps=0)
        )
        result = m.colocate(device, empty_accel, empty_design)
        assert (result.remainder.slices, result.remainder.brams, result.remainder.dsps) == (
            13300,
            140,
            220,
        )
        assert result.feasible

    def test_monotone_in_accelerator_usage(self, catalog):
        rng = random.Random(61)
        device = catalog.device("xc7z020")
        design = catalog.design("DRAB-LOCUS")
        for _ in range(200):
            base = [rng.randrange(0, 12000), rng.randrange(0, 130), rng.randrange(0, 200)]
            bump = [rng.randrange(0, 50) for _ in range(3)]
            a1 = m.AcceleratorCatalogEntry(
                "a", "xc7z020", m.ResourceVector(slices=base[0], brams=base[1], dsps=base[2])
            )
            a2 = m.AcceleratorCatalogEntry(
                "b",
                "xc7z020",
                m.ResourceVector(
                    slices=base[0] + bump[0], brams=base[1] + bump[1], dsps=base[2] + bump[2]
                ),
            )
            r1 = m.colocate(device, a1, design).remainder
            r2 = m.colocate(device, a2, design).remainder
            assert r2.slices <= r1.slices
            assert r2.brams <= r1.brams
            assert r2.dsps <= r1.dsps

    def test_unknown_names_list_alternatives(self, catalog):
        with pytest.raises(m.CatalogError) as err:
            catalog.design("nope")
        assert "available:" in str(err.value)
        assert "DRAB-LOCUS" in str(err.value)


class TestCatalogParsing:
    def test_unknown_field_cites_line(self):
        text = "[device d1]\nslices = 5\nwombats = 3\n"
        with pytest.raises(m.CatalogError) as err:
            m.parse_catalog(text)
        assert "line 3" in str(err.value)
        assert "wombats" in str(err.value)

    def test_unknown_section_kind(self):
        with pytest.raises(m.CatalogError) as err:
            m.parse_catalog("[gadget g]\n")
        assert "line 1" in str(err.value)

    def test_field_outside_section(self):
        with pytest.raises(m.CatalogError) as err:
            m.parse_catalog("slices = 5\n")
        assert "line 1" in str(err.value)

    def test_bad_number_cites_line(self):
        with pytest.raises(m.CatalogError) as err:
            m.parse_catalog("[device d]\nslices = many\n")
        assert "line 2" in str(err.value)

    def test_number_past_the_float_range_cites_line(self):
        # The efficiency figures divide by it, which a float cannot hold.
        with pytest.raises(m.CatalogError) as err:
            m.parse_catalog("[design d]\ndevice = x\nslices = " + "9" * 400 + "\n")
        assert str(err.value).startswith("line 3: field 'slices' needs a int")

    @pytest.mark.parametrize(
        "kind, field, value",
        [
            ("design", "throughput_mbps", "nan"),
            ("design", "throughput_mbps", "inf"),
            ("design", "frequency_mhz", "-100"),
            ("design", "power_total_mw", "-inf"),
            ("design", "datapath_luts", "-1"),
            ("accelerator", "slices", "-50"),
            ("device", "dsps", "-2"),
        ],
    )
    def test_non_finite_or_negative_figure_cites_line(self, kind, field, value):
        first = "brams = 3" if kind == "device" else "device = x"
        with pytest.raises(m.CatalogError) as err:
            m.parse_catalog(f"[{kind} n]\n{first}\n{field} = {value}\n")
        assert str(err.value) == f"line 3: field {field!r} must be finite and >= 0, got {value!r}"

    @pytest.mark.parametrize("value", ["0", "0.0", "1.5"])
    def test_bram_utilization_outside_unit_interval_cites_line(self, value):
        with pytest.raises(m.CatalogError) as err:
            m.parse_catalog(f"[design d]\ndevice = x\nbram_utilization = {value}\n")
        assert str(err.value) == (
            f"line 3: field 'bram_utilization' must be in (0, 1], got {value!r}"
        )

    def test_zero_figures_and_a_full_bram_factor_are_reports(self):
        entry = m.parse_catalog(
            "[design d]\ndevice = x\nthroughput_mbps = 0\npower_total_mw = 0\n"
            "slices = 0\nbram_utilization = 1\n"
        ).design("d")
        assert entry.throughput_mbps == 0
        assert entry.power_mw == {"total": 0}
        assert entry.total.slices == 0
        assert entry.bram_utilization == 1

    def test_unterminated_section_header_cites_line(self):
        with pytest.raises(m.CatalogError) as err:
            m.parse_catalog("[device d]\nslices = 1\n[design X\n")
        assert str(err.value) == "line 3: unterminated section header '[design X'"

    def test_datapath_count_at_na_or_zero_reads_na(self):
        entry = m.parse_catalog(
            "[design d]\ndevice = x\nslices = 20\nthroughput_mbps = 100\n"
            "datapath_luts = n/a\ndatapath_flip_flops = 0\n"
            "datapath_brams = 4\ndatapath_dsps = 5\n"
        ).design("d")
        report = m.efficiency_report(entry, 0.5)
        assert report.mbps_per_lut is None
        assert report.mbps_per_flip_flop is None
        assert report.mbps_per_bram == 12.5
        assert report.mbps_per_dsp == 20
        assert m.efficiency_records([report]) == (
            "design=d lut=n/a ff=n/a bram=12.5000 dsp=20.0000 slice=5.0000 util=0.5000"
        )

    def test_duplicate_field(self):
        with pytest.raises(m.CatalogError) as err:
            m.parse_catalog("[device d]\nslices = 1\nslices = 2\n")
        assert "line 3" in str(err.value)

    def test_na_marks_unknown(self):
        cat = m.parse_catalog("[design d]\ndevice = x\nslices = n/a\ndsps = 4\n")
        entry = cat.design("d")
        assert entry.total.slices is None
        assert entry.total.dsps == 4

    def test_default_catalog_contents(self, catalog):
        assert set(catalog.devices) == {"xc7z020", "xc7z045"}
        assert len(catalog.designs) == 5
        assert len(catalog.accelerators) == 6
        drab = catalog.design("DRAB-LOCUS")
        assert drab.datapath.luts == 266
        assert drab.bram_utilization == 0.375
        expanded = catalog.design("AES-Expanded")
        assert expanded.energy_nws == 622.17
        assert expanded.throughput_mbps is None


class TestRendering:
    def test_efficiency_table_alignment(self, catalog):
        entry = catalog.design("DRAB-LOCUS")
        text = m.render_efficiency([m.efficiency_report(entry, 0.375)])
        lines = text.splitlines()
        assert lines[0].startswith("Design")
        assert "220.47" in lines[1]

    def test_colocation_records_shape(self, catalog):
        accel = catalog.accelerator("Video")
        device = catalog.device(accel.device)
        result = m.colocate(device, accel, catalog.design("DRAB-LOCUS"))
        record = m.colocation_records([result])
        assert record == (
            "device=xc7z020 accel=Video design=DRAB-LOCUS "
            "slices=4675 brams=19 dsps=176 feasible=1"
        )


# The whole shipped catalog through the four renderers: every design with a
# throughput figure at its catalog memory factor, then DRAB-LOCUS at the
# factor its packed tables imply (as `drablocus metrics` prints them), and
# every accelerator with every design that has slice/RAM/DSP figures.
# AES-Expanded has neither, so both reports refuse it.
EFFICIENCY_TABLE = """\
Design         Mbps/LUT  Mbps/FF  Mbps/BRAM  Mbps/DSP  Mbps/slice  util
DRAB-LOCUS     26.52     27.56    220.47     391.94    22.76       0.3750
AES-EncDec     n/a       n/a      n/a        n/a       13.94       1.0000
AES-Modes      n/a       n/a      n/a        n/a       0.78        1.0000
AES-Efficient  19.82     10.74    837.50     418.75    22.64       1.0000
DRAB-LOCUS     26.52     27.56    195.97     391.94    22.76       0.3333"""

EFFICIENCY_RECORDS = """\
design=DRAB-LOCUS lut=26.5226 ff=27.5586 bram=220.4688 dsp=391.9444 slice=22.7581 util=0.3750
design=AES-EncDec lut=n/a ff=n/a bram=n/a dsp=n/a slice=13.9355 util=1.0000
design=AES-Modes lut=n/a ff=n/a bram=n/a dsp=n/a slice=0.7799 util=1.0000
design=AES-Efficient lut=19.8225 ff=10.7372 bram=837.5000 dsp=418.7500 slice=22.6351 util=1.0000
design=DRAB-LOCUS lut=26.5226 ff=27.5586 bram=195.9722 dsp=391.9444 slice=22.7581 util=0.3333"""

COLOCATION_RENDERED = """\
Accelerator  Design         Slices  B.RAMs  DSPs  Fit
Video        DRAB-LOCUS     4675    19      176   feasible
Video        AES-EncDec     -628    -365    50    infeasible
Video        AES-Modes      4826    20      166   feasible
Video        AES-Efficient  4689    26      178   feasible
DLAU         DRAB-LOCUS     3894    89      35    feasible
DLAU         AES-EncDec     -1409   -295    -91   infeasible
DLAU         AES-Modes      4045    90      25    feasible
DLAU         AES-Efficient  3908    96      37    feasible
CNN          DRAB-LOCUS     8686    43      102   feasible
CNN          AES-EncDec     3383    -341    -24   infeasible
CNN          AES-Modes      8837    44      92    feasible
CNN          AES-Efficient  8700    50      104   feasible
DNN 1        DRAB-LOCUS     2017    -10     0     infeasible
DNN 1        AES-EncDec     -3286   -394    -126  infeasible
DNN 1        AES-Modes      2168    -9      -10   infeasible
DNN 1        AES-Efficient  2031    -3      2     infeasible
DNN 2        DRAB-LOCUS     2829    15      16    feasible
DNN 2        AES-EncDec     -2474   -369    -110  infeasible
DNN 2        AES-Modes      2980    16      6     feasible
DNN 2        AES-Efficient  2843    22      18    feasible
DNN 3        DRAB-LOCUS     1286    16      30    feasible
DNN 3        AES-EncDec     -4017   -368    -96   infeasible
DNN 3        AES-Modes      1437    17      20    feasible
DNN 3        AES-Efficient  1300    23      32    feasible"""

COLOCATION_RECORDS = """\
device=xc7z020 accel=Video design=DRAB-LOCUS slices=4675 brams=19 dsps=176 feasible=1
device=xc7z020 accel=Video design=AES-EncDec slices=-628 brams=-365 dsps=50 feasible=0
device=xc7z020 accel=Video design=AES-Modes slices=4826 brams=20 dsps=166 feasible=1
device=xc7z020 accel=Video design=AES-Efficient slices=4689 brams=26 dsps=178 feasible=1
device=xc7z020 accel=DLAU design=DRAB-LOCUS slices=3894 brams=89 dsps=35 feasible=1
device=xc7z020 accel=DLAU design=AES-EncDec slices=-1409 brams=-295 dsps=-91 feasible=0
device=xc7z020 accel=DLAU design=AES-Modes slices=4045 brams=90 dsps=25 feasible=1
device=xc7z020 accel=DLAU design=AES-Efficient slices=3908 brams=96 dsps=37 feasible=1
device=xc7z045 accel=CNN design=DRAB-LOCUS slices=8686 brams=43 dsps=102 feasible=1
device=xc7z045 accel=CNN design=AES-EncDec slices=3383 brams=-341 dsps=-24 feasible=0
device=xc7z045 accel=CNN design=AES-Modes slices=8837 brams=44 dsps=92 feasible=1
device=xc7z045 accel=CNN design=AES-Efficient slices=8700 brams=50 dsps=104 feasible=1
device=xc7z020 accel=DNN 1 design=DRAB-LOCUS slices=2017 brams=-10 dsps=0 feasible=0
device=xc7z020 accel=DNN 1 design=AES-EncDec slices=-3286 brams=-394 dsps=-126 feasible=0
device=xc7z020 accel=DNN 1 design=AES-Modes slices=2168 brams=-9 dsps=-10 feasible=0
device=xc7z020 accel=DNN 1 design=AES-Efficient slices=2031 brams=-3 dsps=2 feasible=0
device=xc7z020 accel=DNN 2 design=DRAB-LOCUS slices=2829 brams=15 dsps=16 feasible=1
device=xc7z020 accel=DNN 2 design=AES-EncDec slices=-2474 brams=-369 dsps=-110 feasible=0
device=xc7z020 accel=DNN 2 design=AES-Modes slices=2980 brams=16 dsps=6 feasible=1
device=xc7z020 accel=DNN 2 design=AES-Efficient slices=2843 brams=22 dsps=18 feasible=1
device=xc7z020 accel=DNN 3 design=DRAB-LOCUS slices=1286 brams=16 dsps=30 feasible=1
device=xc7z020 accel=DNN 3 design=AES-EncDec slices=-4017 brams=-368 dsps=-96 feasible=0
device=xc7z020 accel=DNN 3 design=AES-Modes slices=1437 brams=17 dsps=20 feasible=1
device=xc7z020 accel=DNN 3 design=AES-Efficient slices=1300 brams=23 dsps=32 feasible=1"""


class TestShippedCatalogText:
    def test_efficiency_table_and_records(self, catalog):
        reports = [
            m.efficiency_report(entry, entry.bram_utilization or 1.0)
            for entry in catalog.designs.values()
            if entry.throughput_mbps is not None
        ]
        reports.append(
            m.efficiency_report(catalog.design("DRAB-LOCUS"), datapath_bram_utilization())
        )
        assert m.render_efficiency(reports) == EFFICIENCY_TABLE
        assert m.efficiency_records(reports) == EFFICIENCY_RECORDS
        with pytest.raises(ValueError, match="no throughput figure"):
            m.efficiency_report(catalog.design("AES-Expanded"), 1.0)

    def test_colocation_table_and_records(self, catalog):
        results = []
        for accel in catalog.accelerators.values():
            device = catalog.device(accel.device)
            for design in catalog.designs.values():
                if design.name == "AES-Expanded":
                    with pytest.raises(m.CatalogError, match="needs slice/brams/dsps"):
                        m.colocate(device, accel, design)
                    continue
                results.append(m.colocate(device, accel, design))
        assert m.render_colocation(results) == COLOCATION_RENDERED
        assert m.colocation_records(results) == COLOCATION_RECORDS

    def test_resource_arithmetic_is_componentwise_with_unknowns(self):
        a = m.ResourceVector(slices=10, luts=None, flip_flops=3, brams=4, dsps=5)
        b = m.ResourceVector(slices=1, luts=7, flip_flops=None, brams=2, dsps=9)
        assert a + b == m.ResourceVector(11, None, None, 6, 14)
        assert a - b == m.ResourceVector(9, None, None, 2, -4)
