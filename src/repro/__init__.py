"""repro: a full reproduction of Mocktails (Badr et al., ISCA 2020).

Mocktails synthetically recreates the spatio-temporal memory access
behaviour of heterogeneous SoC compute devices (CPU, GPU, DPU, VPU) from
black-box statistical profiles, so proprietary workloads can be studied
without distributing proprietary traces.

Quickstart::

    from repro import build_profile, synthesize, workload_trace

    trace = workload_trace("hevc1", num_requests=50_000)   # baseline
    profile = build_profile(trace)                          # industry side
    synthetic = synthesize(profile, seed=42)                # academia side

Subpackages:
    core          Partitioning, McC models, profiles, synthesis.
    baselines     STM and HRD prior-art models.
    dram          Event-driven DRAM memory-controller simulator.
    interconnect  Crossbar with backpressure.
    cache         Set-associative write-back cache hierarchy.
    workloads     Synthetic stand-ins for the paper's proprietary traces.
    sim           Drivers wiring traces into the simulators.
    eval          Experiment runners for every paper figure/table.
"""

from .core import (
    AddressRange,
    ColumnarTrace,
    CorruptArtifactError,
    FeedbackSynthesizer,
    HierarchyConfig,
    LeafModel,
    MarkovChain,
    McCModel,
    MemoryRequest,
    Operation,
    Profile,
    SpatialLayer,
    TemporalLayer,
    Trace,
    build_leaves,
    build_profile,
    load_profile,
    partition_dynamic,
    partition_fixed,
    save_profile,
    synthesize,
    synthesize_stream,
    two_level_rs,
    two_level_ts,
)
from .workloads import available_workloads, workload_trace

__version__ = "1.6.0"

__all__ = [
    "AddressRange",
    "ColumnarTrace",
    "CorruptArtifactError",
    "FeedbackSynthesizer",
    "HierarchyConfig",
    "LeafModel",
    "MarkovChain",
    "McCModel",
    "MemoryRequest",
    "Operation",
    "Profile",
    "SpatialLayer",
    "TemporalLayer",
    "Trace",
    "available_workloads",
    "build_leaves",
    "build_profile",
    "load_profile",
    "partition_dynamic",
    "partition_fixed",
    "save_profile",
    "synthesize",
    "synthesize_stream",
    "two_level_rs",
    "two_level_ts",
    "workload_trace",
    "__version__",
]
