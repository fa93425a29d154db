"""Unit tests for the STM baseline models."""

import random
from collections import Counter

import pytest

from repro.baselines.stm import (
    STMAddressModel,
    STMOperationModel,
    StrideTable,
    stm_leaf_factory,
)
from repro.core.profiler import build_profile
from repro.core.request import AddressRange, Operation
from repro.core.synthesis import synthesize

from ..conftest import req


class TestStrideTable:
    def test_constant_stride_predicted(self):
        table = StrideTable.fit([64] * 10)
        rng = random.Random(0)
        assert table.next_stride([64], rng) == 64

    def test_history_disambiguates(self):
        # Sequence 1,2,1,3: after (2,1) comes 3; after just (1,) both 2
        # and 3 are possible. The longest-match row should win.
        strides = [1, 2, 1, 3, 1, 2, 1, 3]
        table = StrideTable.fit(strides, max_history=2)
        rng = random.Random(0)
        assert table.next_stride([2, 1], rng) == 3

    def test_fallback_to_global(self):
        table = StrideTable.fit([10, 20, 10, 20])
        rng = random.Random(0)
        # Unseen history falls back; result must be an observed stride.
        assert table.next_stride([999], rng) in (10, 20)

    def test_empty_table(self):
        table = StrideTable.fit([])
        assert table.next_stride([], random.Random(0)) == 0

    def test_rows_consume_counts(self):
        table = StrideTable.fit([5, 5, 5])
        rng = random.Random(0)
        table.next_stride([5], rng)
        table.next_stride([5], rng)
        # Both observed (5->5) transitions consumed; falls back to global.
        assert table.next_stride([5], rng) == 5

    def test_consuming_counts_leaves_rows_intact(self):
        table = StrideTable.fit([5, 5, 5])
        fitted = {history: Counter(row) for history, row in table.rows.items()}
        rng = random.Random(0)
        table.next_stride([5], rng)
        table.next_stride([5], rng)
        assert table.rows == fitted

    def test_roundtrip(self):
        table = StrideTable.fit([1, 2, 3, 1, 2, 3])
        restored = StrideTable.from_dict(table.to_dict())
        assert restored.rows == table.rows
        assert restored.global_counts == table.global_counts
        assert restored.max_history == table.max_history


class TestSTMAddressModel:
    def test_generates_count_addresses(self):
        addresses = [0x100 + 64 * i for i in range(10)]
        model = STMAddressModel.fit(addresses, AddressRange(0x100, 0x400))
        assert len(model.generate(random.Random(0))) == 10

    def test_starts_at_start_address(self):
        addresses = [0x100, 0x140, 0x180]
        model = STMAddressModel.fit(addresses, AddressRange(0x100, 0x1C0))
        assert model.generate(random.Random(0))[0] == 0x100

    def test_addresses_in_region(self):
        region = AddressRange(0x100, 0x300)
        addresses = [0x100, 0x200, 0x140, 0x2C0, 0x180]
        model = STMAddressModel.fit(addresses, region)
        for seed in range(5):
            for address in model.generate(random.Random(seed)):
                assert region.contains(address)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            STMAddressModel.fit([], AddressRange(0, 1))

    def test_reuse_reproduced(self):
        # A ping-pong pattern has stack distance 1 everywhere; STM's
        # stack-distance table should reproduce frequent re-references.
        addresses = [0x100, 0x200] * 20
        model = STMAddressModel.fit(addresses, AddressRange(0x100, 0x240))
        generated = model.generate(random.Random(1))
        unique = len(set(generated))
        assert unique <= 6  # strongly reusing a handful of addresses

    def test_roundtrip(self):
        addresses = [0x100, 0x140, 0x100, 0x180, 0x140]
        model = STMAddressModel.fit(addresses, AddressRange(0x100, 0x1C0))
        restored = STMAddressModel.from_dict(model.to_dict())
        assert restored.generate(random.Random(3)) == model.generate(random.Random(3))


class TestSTMOperationModel:
    def test_exact_counts_in_strict_mode(self):
        operations = [Operation.READ] * 7 + [Operation.WRITE] * 3
        model = STMOperationModel.fit(operations)
        for seed in range(5):
            generated = model.generate(random.Random(seed))
            counts = Counter(generated)
            assert counts[Operation.READ] == 7
            assert counts[Operation.WRITE] == 3

    def test_read_probability(self):
        model = STMOperationModel(read_count=3, write_count=1)
        assert model.read_probability == 0.75

    def test_empty(self):
        model = STMOperationModel(0, 0)
        assert model.generate(random.Random(0)) == []
        assert model.read_probability == 0.0

    def test_non_strict_right_length(self):
        model = STMOperationModel(5, 5)
        assert len(model.generate(random.Random(0), strict=False)) == 10

    def test_memoryless_order(self):
        # A strictly alternating pattern should not be reproduced exactly
        # (that is the point of the paper's Fig. 10/11 comparison).
        operations = [Operation.READ, Operation.WRITE] * 50
        model = STMOperationModel.fit(operations)
        outputs = {tuple(model.generate(random.Random(s))) for s in range(5)}
        assert tuple(operations) not in outputs or len(outputs) > 1

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            STMOperationModel(-1, 0)

    def test_roundtrip(self):
        model = STMOperationModel(4, 6)
        restored = STMOperationModel.from_dict(model.to_dict())
        assert restored.read_count == 4 and restored.write_count == 6


class TestSTMLeafFactory:
    def test_profile_and_synthesis(self, mixed_trace):
        profile = build_profile(mixed_trace, leaf_factory=stm_leaf_factory)
        synthetic = synthesize(profile, seed=2)
        assert len(synthetic) == len(mixed_trace)
        assert synthetic.read_count() == mixed_trace.read_count()
        assert synthetic.is_sorted()

    def test_synthesis_repeats_and_leaves_profile_intact(self):
        from repro.core.serialization import profile_to_dict
        from repro.workloads import workload_trace

        trace = workload_trace("hevc1", num_requests=4000)
        profile = build_profile(trace, leaf_factory=stm_leaf_factory)
        fitted = profile_to_dict(profile)
        first = synthesize(profile, seed=1)
        assert synthesize(profile, seed=1) == first
        assert profile_to_dict(profile) == fitted

    def test_leaf_metadata_matches_mcc(self, mixed_trace):
        stm_profile = build_profile(mixed_trace, leaf_factory=stm_leaf_factory)
        mcc_profile = build_profile(mixed_trace)
        assert len(stm_profile) == len(mcc_profile)
        for stm_leaf, mcc_leaf in zip(stm_profile, mcc_profile):
            assert stm_leaf.start_time == mcc_leaf.start_time
            assert stm_leaf.count == mcc_leaf.count
            assert stm_leaf.region == mcc_leaf.region


class TestHybridFactories:
    def test_address_only_factory(self, mixed_trace):
        from repro.baselines.stm import stm_address_leaf_factory
        from repro.core.leaf import McCOperationModel

        profile = build_profile(mixed_trace, leaf_factory=stm_address_leaf_factory)
        for leaf in profile:
            assert isinstance(leaf.address_model, STMAddressModel)
            assert isinstance(leaf.operation_model, McCOperationModel)
        synthetic = synthesize(profile, seed=1)
        assert len(synthetic) == len(mixed_trace)
        assert synthetic.read_count() == mixed_trace.read_count()

    def test_operation_only_factory(self, mixed_trace):
        from repro.baselines.stm import stm_operation_leaf_factory
        from repro.core.leaf import McCAddressModel

        profile = build_profile(mixed_trace, leaf_factory=stm_operation_leaf_factory)
        for leaf in profile:
            assert isinstance(leaf.address_model, McCAddressModel)
            assert isinstance(leaf.operation_model, STMOperationModel)
        synthetic = synthesize(profile, seed=1)
        assert synthetic.read_count() == mixed_trace.read_count()

    def test_hybrid_profiles_serialize(self, mixed_trace):
        from repro.baselines.stm import stm_address_leaf_factory
        from repro.core.serialization import profile_from_dict, profile_to_dict

        profile = build_profile(mixed_trace, leaf_factory=stm_address_leaf_factory)
        restored = profile_from_dict(profile_to_dict(profile))
        assert synthesize(restored, seed=2) == synthesize(profile, seed=2)
