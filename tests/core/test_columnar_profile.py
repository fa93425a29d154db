"""Scalar/columnar profile equivalence (the tentpole's bit-identity contract).

The vectorized profiler must reproduce the scalar profiler exactly —
down to Markov transition-dict insertion order, because serialization
numbers states by first appearance. These tests compare canonical JSON
of the full profile dict (which encodes that order) and the serialized
on-disk bytes across data paths, hierarchy configurations and workloads,
with and without numpy.
"""

import json

import pytest

from repro import obs
from repro.baselines.stm import (
    stm_address_leaf_factory,
    stm_leaf_factory,
    stm_operation_leaf_factory,
)
from repro.core.columnar import ColumnarTrace, numpy_or_none
from repro.core.hierarchy import (
    HierarchyConfig,
    SpatialLayer,
    TemporalLayer,
    micro_macro,
    two_level_rs,
    two_level_ts,
)
from repro.core.profiler import build_profile
from repro.core.serialization import profile_to_dict, save_profile
from repro.workloads import workload_trace

from ..conftest import synthetic_trace

HAVE_NUMPY = numpy_or_none() is not None

REQUESTS = 3000


def canonical(profile) -> str:
    return json.dumps(profile_to_dict(profile), sort_keys=True, separators=(",", ":"))


def _hevc():
    return workload_trace("hevc1", num_requests=REQUESTS)


@pytest.fixture(scope="module")
def hevc_trace():
    return _hevc()


def _ties_and_jumps():
    """Timestamp ties, 100k-cycle gaps and address jumps up to 2**40."""
    return synthetic_trace(1200, seed=7)


#: Hierarchy shapes, each with the trace it is profiled over.
CONFIGS = {
    "2l_ts": (_hevc, lambda: two_level_ts(cycles_per_interval=50_000)),
    "2l_rs": (_hevc, lambda: two_level_rs(requests_per_interval=500)),
    "micro_macro": (_hevc, lambda: micro_macro(macro_cycles=50_000, micro_cycles=5_000)),
    "fixed": (
        _hevc,
        lambda: two_level_ts(cycles_per_interval=50_000, spatial="fixed", block_size=4096),
    ),
    "pure-request-count": (
        _ties_and_jumps,
        lambda: HierarchyConfig([TemporalLayer("request_count", 97)]),
    ),
    "pure-cycle-count": (
        _ties_and_jumps,
        lambda: HierarchyConfig([TemporalLayer("cycle_count", 1009)]),
    ),
    "spatial-outer": (
        _ties_and_jumps,
        lambda: HierarchyConfig(
            [SpatialLayer("fixed", 1 << 22), TemporalLayer("request_count", 50)]
        ),
    ),
    "wide-gap-cycle-count": (
        lambda: synthetic_trace(3000, seed=13),
        lambda: HierarchyConfig(
            [TemporalLayer("cycle_count", 5000), SpatialLayer("fixed", 1 << 20)]
        ),
    ),
}


def scalar_profile(monkeypatch, trace, config, **kwargs):
    """The scalar reference: build_profile with numpy disabled."""
    with monkeypatch.context() as patch:
        patch.setenv("MOCKTAILS_NO_NUMPY", "1")
        return build_profile(trace, config, **kwargs)


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_columnar_profile_bit_identical(config_name, monkeypatch):
    """Canonical JSON matches between data paths for every hierarchy shape."""
    make_trace, make_config = CONFIGS[config_name]
    trace, config = make_trace(), make_config()
    scalar = scalar_profile(monkeypatch, trace, config, name="t")
    columnar = build_profile(trace, config, name="t")
    assert canonical(columnar) == canonical(scalar)


@pytest.mark.parametrize("workload", ["mcf", "crypto1", "manhattan"])
def test_columnar_profile_across_workloads(workload, monkeypatch):
    trace = workload_trace(workload, num_requests=REQUESTS)
    config = two_level_ts(cycles_per_interval=50_000)
    scalar = scalar_profile(monkeypatch, trace, config, name=workload)
    columnar = build_profile(trace, config, name=workload)
    assert canonical(columnar) == canonical(scalar)


def test_columnar_accepts_columnar_input(hevc_trace, monkeypatch):
    """A ColumnarTrace input avoids the object conversion and still matches."""
    config = two_level_ts(cycles_per_interval=50_000)
    scalar = scalar_profile(monkeypatch, hevc_trace, config, name="hevc1")
    columns = ColumnarTrace.from_trace(hevc_trace)
    columnar = build_profile(columns, config, name="hevc1")
    assert canonical(columnar) == canonical(scalar)


STM_FACTORIES = {
    "stm": stm_leaf_factory,
    "stm_address": stm_address_leaf_factory,
    "stm_operation": stm_operation_leaf_factory,
}


@pytest.mark.parametrize("config_name", ["2l_ts", "micro_macro", "spatial-outer"])
@pytest.mark.parametrize("factory", sorted(STM_FACTORIES))
def test_stm_leaves_from_columns_bit_identical(factory, config_name, monkeypatch):
    """STM leaves fitted from column segments equal the scalar path's."""
    make_trace, make_config = CONFIGS[config_name]
    trace, config = make_trace(), make_config()
    leaf_factory = STM_FACTORIES[factory]
    scalar = scalar_profile(monkeypatch, trace, config, leaf_factory=leaf_factory)
    columnar = build_profile(trace, config, leaf_factory=leaf_factory)
    assert canonical(columnar) == canonical(scalar)


@pytest.mark.skipif(not HAVE_NUMPY, reason="needs the columnar path")
@pytest.mark.parametrize("columns", [False, True], ids=["trace", "columns"])
def test_stm_build_skips_per_request_path(hevc_trace, monkeypatch, columns):
    """With numpy, an STM build neither walks build_leaves nor materializes a Trace."""
    from repro.core import profiler

    def forbidden(*args, **kwargs):
        raise AssertionError("the STM build left the columnar path")

    reference = canonical(build_profile(hevc_trace, leaf_factory=stm_leaf_factory))
    monkeypatch.setattr(profiler, "build_leaves", forbidden)
    monkeypatch.setattr(ColumnarTrace, "to_trace", forbidden)
    trace = ColumnarTrace.from_trace(hevc_trace) if columns else hevc_trace
    assert canonical(build_profile(trace, leaf_factory=stm_leaf_factory)) == reference


def test_scalar_accepts_columnar_input(hevc_trace, monkeypatch):
    """The scalar path transparently converts columnar input back."""
    config = two_level_ts(cycles_per_interval=50_000)
    from_objects = scalar_profile(monkeypatch, hevc_trace, config, name="hevc1")
    from_columns = scalar_profile(
        monkeypatch, ColumnarTrace.from_trace(hevc_trace), config, name="hevc1"
    )
    assert canonical(from_columns) == canonical(from_objects)


def test_serialized_bytes_identical(tmp_path, hevc_trace, monkeypatch):
    """The on-disk profile artifact is byte-identical across data paths."""
    config = two_level_ts(cycles_per_interval=50_000)
    scalar_path = tmp_path / "scalar.profile"
    columnar_path = tmp_path / "columnar.profile"
    save_profile(scalar_profile(monkeypatch, hevc_trace, config, name="hevc1"), scalar_path)
    save_profile(build_profile(hevc_trace, config, name="hevc1"), columnar_path)
    assert scalar_path.read_bytes() == columnar_path.read_bytes()


def test_forced_columnar_without_numpy_matches(monkeypatch, hevc_trace):
    """Array-backed columns without numpy take the scalar path, same bits."""
    config = two_level_ts(cycles_per_interval=50_000)
    reference = build_profile(hevc_trace, config, name="hevc1")
    monkeypatch.setenv("MOCKTAILS_NO_NUMPY", "1")
    columns = ColumnarTrace.from_trace(hevc_trace)
    fallback = build_profile(columns, config, name="hevc1")
    assert canonical(fallback) == canonical(reference)


def test_empty_trace_profiles_identically(monkeypatch):
    from repro.core.trace import Trace

    config = two_level_ts()
    scalar = scalar_profile(monkeypatch, Trace(), config, name="empty")
    columnar = build_profile(Trace(), config, name="empty")
    assert canonical(columnar) == canonical(scalar)


def test_unsorted_trace_rejected_by_both_backends(monkeypatch):
    from repro.core.trace import Trace

    from ..conftest import req

    trace = Trace([req(5, 0), req(3, 64)])
    with pytest.raises(ValueError, match="sorted by timestamp"):
        scalar_profile(monkeypatch, trace, two_level_ts())
    with pytest.raises(ValueError, match="sorted by timestamp"):
        build_profile(trace, two_level_ts())


def _fallback_counters(trace, **kwargs):
    registry = obs.enable()
    try:
        build_profile(trace, two_level_ts(cycles_per_interval=50_000), **kwargs)
    finally:
        obs.disable()
    return {
        name: value
        for name, value in registry.counters()
        if name.startswith("profile.fallback.")
    }


def test_fallback_counter_no_numpy(monkeypatch, hevc_trace):
    monkeypatch.setenv("MOCKTAILS_NO_NUMPY", "1")
    assert _fallback_counters(hevc_trace) == {"profile.fallback.no_numpy": 1}


def test_fallback_counter_leaf_factory(hevc_trace):
    """A non-default leaf factory no longer forces the scalar path."""
    counters = _fallback_counters(hevc_trace, leaf_factory=stm_leaf_factory)
    assert counters == ({} if HAVE_NUMPY else {"profile.fallback.no_numpy": 1})


@pytest.mark.skipif(not HAVE_NUMPY, reason="the int64 check runs on the numpy path")
def test_fallback_counter_int64_range():
    from repro.core.trace import Trace

    from ..conftest import req

    trace = Trace([req(2**63 + 5, 0), req(2**63 + 9, 64)])
    assert _fallback_counters(trace) == {"profile.fallback.int64_range": 1}


@pytest.mark.skipif(not HAVE_NUMPY, reason="needs the columnar path")
def test_columnar_build_counts_no_fallback(hevc_trace):
    assert _fallback_counters(hevc_trace) == {}
