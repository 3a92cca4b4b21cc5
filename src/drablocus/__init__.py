"""Cycle-accurate model of the DRAB-LOCUS area-efficient AES-128 architecture.

The package has three layers: a golden functional AES-128 (aesref, built
on gf256), a register-accurate model of the 12-stage dual-mode pipeline
(tables, datapath, controller, keyschedule, simulator, and faults, which
holds every fault they raise), and a pure-calculation evaluation engine
for latency, throughput, efficiency, energy and accelerator co-location
analysis (metrics). fabric and datapath's unit classes specify the FPGA
primitives and units for the tests; a run never calls them.
"""

from .aesref import decrypt_block, encrypt_block, key_expand, key_expand_equivalent_inverse
from .simulator import Job, PipelineSimulator, RunSummary, measure_cadence
from .tables import MODE_DECRYPT, MODE_ENCRYPT

__all__ = [
    "Job",
    "MODE_DECRYPT",
    "MODE_ENCRYPT",
    "PipelineSimulator",
    "RunSummary",
    "decrypt_block",
    "encrypt_block",
    "key_expand",
    "key_expand_equivalent_inverse",
    "measure_cadence",
]

__version__ = "0.1.0"
