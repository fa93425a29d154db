"""Unit tests for profile serialization."""

import pytest

from repro.baselines.stm import stm_leaf_factory
from repro.core.profiler import build_profile
from repro.core.serialization import (
    leaf_from_dict,
    leaf_to_dict,
    load_profile,
    profile_from_dict,
    profile_size_bytes,
    profile_to_dict,
    save_profile,
)
from repro.core.synthesis import synthesize
from repro.core.tracefile import save_trace


class TestProfileRoundtrip:
    def test_mcc_profile_roundtrip(self, mixed_trace):
        profile = build_profile(mixed_trace, name="mixed")
        restored = profile_from_dict(profile_to_dict(profile))
        assert restored == profile
        assert restored.name == "mixed"

    def test_file_roundtrip(self, tmp_path, mixed_trace):
        profile = build_profile(mixed_trace)
        path = tmp_path / "p.mprof.gz"
        size = save_profile(profile, path)
        assert size == path.stat().st_size
        assert load_profile(path) == profile

    def test_roundtrip_preserves_synthesis(self, tmp_path, bursty_trace):
        profile = build_profile(bursty_trace)
        path = tmp_path / "p.mprof.gz"
        save_profile(profile, path)
        restored = load_profile(path)
        assert synthesize(profile, seed=6) == synthesize(restored, seed=6)

    def test_stm_profile_roundtrip(self, mixed_trace):
        profile = build_profile(mixed_trace, leaf_factory=stm_leaf_factory)
        data = profile_to_dict(profile)
        restored = profile_from_dict(data)
        assert restored.total_requests == profile.total_requests
        assert len(synthesize(restored, seed=2)) == len(mixed_trace)

    def test_unknown_model_type_rejected(self, mixed_trace):
        profile = build_profile(mixed_trace)
        data = profile_to_dict(profile)
        data["leaves"][0]["address"]["type"] = "martian"
        with pytest.raises(ValueError):
            profile_from_dict(data)

    def test_bad_version_rejected(self, mixed_trace):
        data = profile_to_dict(build_profile(mixed_trace))
        data["format_version"] = 999
        with pytest.raises(ValueError):
            profile_from_dict(data)

    def test_leaf_roundtrip(self, mixed_trace):
        profile = build_profile(mixed_trace)
        leaf = profile[0]
        assert leaf_from_dict(leaf_to_dict(leaf)) == leaf


class TestProfileSize:
    def test_size_matches_disk(self, tmp_path, mixed_trace):
        profile = build_profile(mixed_trace)
        in_memory = profile_size_bytes(profile)
        on_disk = save_profile(profile, tmp_path / "p.gz")
        # gzip embeds no filename for both paths; sizes must agree closely.
        assert abs(in_memory - on_disk) <= 16

    def test_profile_smaller_than_trace_for_regular_traffic(self, tmp_path, linear_trace):
        # A constant-stride trace compresses to a handful of constants.
        big = linear_trace
        profile = build_profile(big)
        trace_size = save_trace(big, tmp_path / "t.mtr.gz")
        profile_size = profile_size_bytes(profile)
        assert profile_size < trace_size * 5  # same order; real wins need volume


class TestDeterministicBytes:
    def test_save_profile_is_byte_deterministic(self, tmp_path, mixed_trace):
        # Regression: gzip used to stamp the save-time mtime into the
        # header, so two saves of the same profile differed on disk.
        # MTIME lives at header bytes 4-8; 0 means "not recorded".
        profile = build_profile(mixed_trace)
        first, second = tmp_path / "a.mprof.gz", tmp_path / "b.mprof.gz"
        save_profile(profile, first)
        save_profile(profile, second)
        data = first.read_bytes()
        assert data[4:8] == b"\x00\x00\x00\x00"
        assert data == second.read_bytes()

    def test_size_is_exact(self, tmp_path, mixed_trace):
        profile = build_profile(mixed_trace)
        assert profile_size_bytes(profile) == save_profile(profile, tmp_path / "p.gz")


class TestObfuscation:
    def test_profile_contains_no_raw_timestamps(self, mixed_trace):
        """The profile must not embed the original request sequence."""
        import json

        profile = build_profile(mixed_trace)
        payload = json.dumps(profile_to_dict(profile))
        raw_times = [str(r.timestamp) for r in list(mixed_trace)[5:15]]
        # Start times of leaves may appear; the full ordered timestamp
        # sequence must not be recoverable as a contiguous run.
        joined = ",".join(raw_times)
        assert joined not in payload


class TestCorruptFiles:
    def test_not_gzip(self, tmp_path):
        from repro.core.serialization import load_profile

        path = tmp_path / "p.mprof.gz"
        path.write_bytes(b"definitely not gzip")
        with pytest.raises(ValueError, match="not a gzip"):
            load_profile(path)

    def test_truncated_gzip(self, tmp_path, mixed_trace):
        from repro.core.serialization import load_profile

        path = tmp_path / "p.mprof.gz"
        save_profile(build_profile(mixed_trace), path)
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(ValueError):
            load_profile(path)

    def test_gzip_but_not_json(self, tmp_path):
        import gzip

        from repro.core.serialization import load_profile

        path = tmp_path / "p.mprof.gz"
        path.write_bytes(gzip.compress(b"{not json"))
        with pytest.raises(ValueError, match="corrupt profile payload"):
            load_profile(path)

    def test_json_but_wrong_structure(self, tmp_path):
        import gzip
        import json

        from repro.core.serialization import load_profile

        path = tmp_path / "p.mprof.gz"
        payload = json.dumps({"format_version": 1, "leaves": [{"bogus": 1}]})
        path.write_bytes(gzip.compress(payload.encode()))
        with pytest.raises(ValueError, match="malformed profile structure"):
            load_profile(path)
