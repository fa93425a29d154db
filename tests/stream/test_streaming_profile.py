"""Streamed profile build == single-pass build, down to serialized bytes.

The acceptance bar for the out-of-core path: for every hierarchy shape
(temporal outer, spatial outer, single layer, request_count and
cycle_count bins) and every tested block size — including pathological
``block_requests=1`` — the streamed profile serializes to the same
bytes as ``core/profiler.build_profile`` over the whole trace.
"""

from __future__ import annotations

import pytest

from repro.core.columnar import ColumnarTrace
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
from repro.stream import build_profile_sharded, build_profile_streaming
from repro.stream.partial import ProfilePartial

from .conftest import synthetic_trace

CONFIGS = {
    "2lts": two_level_ts,
    "2lrs": two_level_rs,
    "micro-macro": micro_macro,
    "pure-request-count": lambda: HierarchyConfig(
        [TemporalLayer("request_count", 97)]
    ),
    "pure-cycle-count": lambda: HierarchyConfig([TemporalLayer("cycle_count", 1009)]),
    "spatial-outer": lambda: HierarchyConfig(
        [SpatialLayer("fixed", 1 << 22), TemporalLayer("request_count", 50)]
    ),
}


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_streamed_bytes_identical_across_block_sizes(
    config_name, stream_trace, stream_columns, tmp_path
):
    config = CONFIGS[config_name]()
    reference = build_profile(stream_trace, config, name="t")
    ref_path = tmp_path / "ref.json.gz"
    save_profile(reference, ref_path)
    for block_requests in (1, 7, 1000, len(stream_trace)):
        streamed = build_profile_streaming(
            stream_columns.iter_blocks(block_requests), config, name="t"
        )
        got_path = tmp_path / f"got_{block_requests}.json.gz"
        save_profile(streamed, got_path)
        assert got_path.read_bytes() == ref_path.read_bytes(), (
            f"{config_name} at block_requests={block_requests}"
        )


def test_streamed_empty_trace(stream_trace):
    config = two_level_ts()
    reference = build_profile(stream_trace[:0], config)
    streamed = build_profile_streaming(iter(()), config)
    assert profile_to_dict(streamed) == profile_to_dict(reference)


@pytest.mark.parametrize("config_name", ["2lts", "pure-cycle-count", "spatial-outer"])
def test_sharded_build_identical(config_name, stream_trace, stream_columns, tmp_path):
    config = CONFIGS[config_name]()
    expected = profile_to_dict(build_profile(stream_trace, config))
    trace_path = tmp_path / "t.mtr.gz"
    stream_trace.save_binary(trace_path)
    for jobs in (1, 2):
        sharded = build_profile_sharded(
            trace_path, config, jobs=jobs, block_requests=128, shard_requests=256
        )
        assert profile_to_dict(sharded) == expected, f"{config_name} jobs={jobs}"


def test_shard_merge_requires_stream_order(stream_columns):
    config = two_level_ts()
    blocks = list(stream_columns.iter_blocks(100))
    first = ProfilePartial(config)
    first.feed(blocks[0])
    # A shard whose offset skips the middle of the stream must be rejected.
    origin = int(blocks[0].timestamps[0])
    late = ProfilePartial(config, offset=2 * len(blocks[0]), origin=origin)
    late.feed(blocks[2])
    with pytest.raises(ValueError, match="stream order"):
        first.merge(late)


def test_only_offset_zero_partial_can_finish(stream_columns):
    config = two_level_ts()
    block = next(stream_columns.iter_blocks(100))
    shard = ProfilePartial(config, offset=5, origin=0)
    shard.feed(block)
    with pytest.raises(ValueError, match="offset-0"):
        shard.finish()


def test_cycle_count_shard_requires_origin():
    config = HierarchyConfig([TemporalLayer("cycle_count", 100)])
    with pytest.raises(ValueError, match="origin"):
        ProfilePartial(config, offset=10)


def test_unsorted_blocks_rejected():
    config = two_level_ts()
    partial = ProfilePartial(config)
    unsorted = ColumnarTrace([5, 3], [0x100, 0x200], [64, 64], [0, 0])
    with pytest.raises(ValueError, match="sorted"):
        partial.feed(unsorted)


def test_cross_block_regression_rejected():
    config = two_level_ts()
    partial = ProfilePartial(config)
    partial.feed(ColumnarTrace([10, 20], [0x100, 0x140], [64, 64], [0, 0]))
    with pytest.raises(ValueError, match="sorted"):
        partial.feed(ColumnarTrace([5], [0x180], [64], [0]))


def test_streamed_scalar_backend_identical(stream_trace, stream_columns, monkeypatch):
    """Without numpy the stream builds bit-identically to the scalar path."""
    config = two_level_ts()
    monkeypatch.setenv("MOCKTAILS_NO_NUMPY", "1")
    expected = profile_to_dict(build_profile(stream_trace, config))
    streamed = build_profile_streaming(stream_columns.iter_blocks(256), config)
    assert profile_to_dict(streamed) == expected


def test_long_trace_with_wide_gaps():
    """cycle_count binning survives huge timestamp gaps (uint64 math)."""
    trace = synthetic_trace(3000, seed=13)
    config = HierarchyConfig(
        [TemporalLayer("cycle_count", 5000), SpatialLayer("fixed", 1 << 20)]
    )
    expected = profile_to_dict(build_profile(trace, config))
    columns = ColumnarTrace.from_trace(trace)
    for block_requests in (1, 64, 997):
        streamed = build_profile_streaming(columns.iter_blocks(block_requests), config)
        assert profile_to_dict(streamed) == expected, block_requests
