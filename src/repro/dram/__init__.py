"""The DRAM substrate: devices, decay physics, addressing, and timing.

This package simulates everything the paper did with physical hardware:
removable DIMMs with temperature-dependent charge decay (§III-D), raw
FPGA-style access around the scrambler (§III-A), physical address
decomposition (§III-C attack model), and the JEDEC DDR4 timing window
that the §IV cipher engines must hide inside.
"""

from repro.dram.address import (
    GENERATION_ADDRESS_MAPS,
    DramAddressMap,
    DramCoordinates,
    address_map_for,
)
from repro.dram.bus import (
    CompletedRead,
    DdrChannelSimulator,
    DdrTimingParameters,
    ReadRequest,
)
from repro.dram.cells import DecayModel, GroundState, apply_decay, ground_state_pattern
from repro.dram.image import MemoryImage
from repro.dram.module import DramModule, random_fill
from repro.dram.nvdimm import (
    NVDIMM_PROFILE,
    NvdimmModule,
    NvdimmThreatComparison,
    compare_nvdimm_threat,
)
from repro.dram.retention import (
    DUSTER_TEMPERATURE_C,
    MODULE_PROFILES,
    TRANSFER_SECONDS,
    ModuleProfile,
    RetentionPoint,
    predicted_retention,
    retention_sweep,
)
from repro.dram.thermal import DEFAULT_THERMAL_TAU_S, ThermalTransfer
from repro.dram.timing import (
    DDR4_2400,
    JEDEC_CAS_LATENCIES_NS,
    MAX_CAS_LATENCY_NS,
    MAX_OUTSTANDING_CAS_DDR4_2400,
    MIN_CAS_LATENCY_NS,
    DdrBusTiming,
    DramTiming,
)

__all__ = [
    "DDR4_2400",
    "DEFAULT_THERMAL_TAU_S",
    "DUSTER_TEMPERATURE_C",
    "GENERATION_ADDRESS_MAPS",
    "JEDEC_CAS_LATENCIES_NS",
    "MAX_CAS_LATENCY_NS",
    "MAX_OUTSTANDING_CAS_DDR4_2400",
    "MIN_CAS_LATENCY_NS",
    "MODULE_PROFILES",
    "TRANSFER_SECONDS",
    "CompletedRead",
    "DdrChannelSimulator",
    "DdrTimingParameters",
    "DecayModel",
    "DdrBusTiming",
    "DramAddressMap",
    "DramCoordinates",
    "DramModule",
    "NVDIMM_PROFILE",
    "NvdimmModule",
    "NvdimmThreatComparison",
    "DramTiming",
    "GroundState",
    "MemoryImage",
    "ModuleProfile",
    "ThermalTransfer",
    "ReadRequest",
    "RetentionPoint",
    "address_map_for",
    "apply_decay",
    "compare_nvdimm_threat",
    "ground_state_pattern",
    "predicted_retention",
    "random_fill",
    "retention_sweep",
]
