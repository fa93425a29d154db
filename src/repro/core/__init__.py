"""Mocktails core: partitioning, McC modeling, profiles and synthesis."""

from .hierarchy import (
    HierarchyConfig,
    LeafPartition,
    SpatialLayer,
    TemporalLayer,
    build_leaves,
    micro_macro,
    two_level_rs,
    two_level_ts,
)
from .leaf import (
    AddressModel,
    LeafModel,
    McCAddressModel,
    McCOperationModel,
    OperationModel,
    make_leaf_factory,
    wrap_address,
)
from .columnar import ColumnarTrace, resolve_backend
from .errors import CorruptArtifactError
from .markov import MarkovChain
from .mcc import McCModel
from .partition import partition_by_cycle_count, partition_by_request_count
from .profile import Profile
from .profiler import build_profile
from .request import AddressRange, MemoryRequest, Operation
from .serialization import (
    load_profile,
    profile_size_bytes,
    register_address_model,
    register_operation_model,
    save_profile,
)
from .spatial import SpatialPartition, partition_dynamic, partition_fixed
from .synthesis import (
    FeedbackSynthesizer,
    synthesize,
    synthesize_stream,
    synthesize_transition_based,
)
from .trace import Trace

__all__ = [
    "AddressModel",
    "AddressRange",
    "ColumnarTrace",
    "CorruptArtifactError",
    "FeedbackSynthesizer",
    "HierarchyConfig",
    "LeafModel",
    "LeafPartition",
    "MarkovChain",
    "McCAddressModel",
    "McCModel",
    "McCOperationModel",
    "MemoryRequest",
    "Operation",
    "OperationModel",
    "Profile",
    "SpatialLayer",
    "SpatialPartition",
    "TemporalLayer",
    "Trace",
    "build_leaves",
    "build_profile",
    "load_profile",
    "make_leaf_factory",
    "micro_macro",
    "partition_by_cycle_count",
    "partition_by_request_count",
    "partition_dynamic",
    "partition_fixed",
    "profile_size_bytes",
    "register_address_model",
    "register_operation_model",
    "resolve_backend",
    "save_profile",
    "synthesize",
    "synthesize_stream",
    "synthesize_transition_based",
    "two_level_rs",
    "two_level_ts",
    "wrap_address",
]
