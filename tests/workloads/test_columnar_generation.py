"""Columnar workload generation (TraceBuilder columns).

``generate_columnar`` must emit exactly the requests ``generate`` does —
the generators' RNG streams are untouched, only the output container
changes.
"""

import pytest

from repro.core.columnar import ColumnarTrace
from repro.core.request import Operation
from repro.core.trace import Trace
from repro.workloads import available_workloads, make_generator
from repro.workloads.base import TraceBuilder

REQUESTS = 1500

SAMPLED = ["hevc1", "crypto1", "manhattan", "cpu-d", "mcf"]


@pytest.mark.parametrize("name", SAMPLED)
def test_generate_columnar_matches_generate(name):
    objects = make_generator(name, seed=7).generate(REQUESTS)
    columns = make_generator(name, seed=7).generate_columnar(REQUESTS)
    assert isinstance(columns, ColumnarTrace)
    assert columns.to_trace() == objects


def test_generate_columnar_without_numpy(monkeypatch):
    objects = make_generator("hevc1", seed=5).generate(REQUESTS)
    monkeypatch.setenv("MOCKTAILS_NO_NUMPY", "1")
    columns = make_generator("hevc1", seed=5).generate_columnar(REQUESTS)
    assert columns.to_trace() == objects


def test_every_registered_workload_supports_columnar():
    for name in available_workloads():
        generator = make_generator(name, seed=1)
        objects = generator.generate(300)
        columns = make_generator(name, seed=1).generate_columnar(300)
        assert columns.to_trace() == objects, name


class TestTraceBuilderColumns:
    def test_build_returns_trace_by_default(self):
        builder = TraceBuilder()
        builder.emit(0x100, Operation.READ, 64)
        result = builder.build()
        assert isinstance(result, Trace)

    def test_build_columnar(self):
        builder = TraceBuilder()
        builder.emit(0x100, Operation.READ, 64)
        builder.emit(0x140, Operation.WRITE, 32, gap=5)
        columns = builder.build_columnar()
        assert isinstance(columns, ColumnarTrace)
        assert columns.to_lists() == {
            "timestamps": [1, 6],
            "addresses": [0x100, 0x140],
            "sizes": [64, 32],
            "ops": [0, 1],
        }

    def test_columnar_output_scope(self):
        builder = TraceBuilder()
        builder.emit(0, Operation.READ, 64)
        with TraceBuilder.columnar_output():
            assert isinstance(builder.build(), ColumnarTrace)
        assert isinstance(builder.build(), Trace)

    def test_emit_validation_matches_request_errors(self):
        builder = TraceBuilder()
        with pytest.raises(ValueError, match="gap must be non-negative"):
            builder.emit(0, Operation.READ, 64, gap=-1)
        with pytest.raises(ValueError, match="size must be positive"):
            builder.emit(0, Operation.READ, 0)
        with pytest.raises(ValueError, match="address must be non-negative"):
            builder.emit(-4, Operation.READ, 64)

    def test_emit_many_matches_emit(self):
        one_by_one = TraceBuilder()
        for i in range(8):
            one_by_one.emit(i * 64, Operation.WRITE if i % 2 else Operation.READ, 16, gap=i)
        bulk = TraceBuilder()
        bulk.emit_many(
            [i * 64 for i in range(8)],
            [Operation.WRITE if i % 2 else Operation.READ for i in range(8)],
            [16] * 8,
            gaps=list(range(8)),
        )
        assert bulk.build_columnar() == one_by_one.build_columnar()

    def test_emit_many_broadcasts_scalars(self):
        builder = TraceBuilder()
        builder.emit_many([0, 64, 128], Operation.READ, [4, 4, 4])
        columns = builder.build_columnar()
        assert columns.to_lists()["ops"] == [0, 0, 0]
        assert columns.to_lists()["timestamps"] == [1, 2, 3]

    def test_emit_many_length_mismatch(self):
        builder = TraceBuilder()
        with pytest.raises(ValueError, match="equal lengths"):
            builder.emit_many([0, 64], Operation.READ, [4])
