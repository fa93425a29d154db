"""Tests for the ``python -m repro.eval`` command-line interface."""

import json

import pytest

from repro.eval import experiments
from repro.eval.__main__ import EXPERIMENTS, main
from repro.eval.comparison import clear_cache


def _clear_all_caches():
    clear_cache()
    experiments._SPEC_SYNTH_CACHE.clear()
    experiments._SPEC_SIZE_CACHE.clear()


class TestEvalCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig2", "fig9", "fig17", "table1", "ext-soc"):
            assert name in out

    def test_experiment_registry_complete(self):
        # Every paper exhibit plus the extension studies.
        expected = {f"fig{i}" for i in list(range(2, 4)) + list(range(6, 18))}
        expected |= {"table1", "ext-chargecache", "ext-soc"}
        assert set(EXPERIMENTS) == expected

    def test_run_cheap_experiment(self, capsys):
        clear_cache()
        assert main(["run", "fig3", "--requests", "1500"]) == 0
        out = capsys.readouterr().out
        assert "=== fig3" in out
        assert "requests" in out

    def test_run_table1(self, capsys):
        assert main(["run", "table1", "--requests", "1500"]) == 0
        assert "stride" in capsys.readouterr().out

    def test_run_ext_soc(self, capsys):
        assert main(["run", "ext-soc", "--requests", "600"]) == 0
        out = capsys.readouterr().out
        assert "bandwidth_share" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "fig99"])

    @pytest.mark.parametrize("command", [
        ["run", "fig6", "--requests", "-5"],
        ["run", "fig6", "--requests", "0"],
        ["quick", "fig6", "--jobs", "0"],
        ["all", "--requests", "0"],
        ["run", "fig6", "--requests", "many"],
    ], ids=" ".join)
    def test_non_positive_counts_are_usage_errors(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(command)
        assert exit_info.value.code == 2
        flag = next(arg for arg in command if arg.startswith("--"))
        assert f"argument {flag}:" in capsys.readouterr().err

    @pytest.mark.parametrize("command, error", [
        pytest.param(command, error, id=" ".join(command))
        for command, error in [
            (["quick", "fig6", "--backend", "scalar"], "unrecognized arguments"),
            (["quick", "fig6", "--stream"], "unrecognized arguments"),
            (["run", "fig6", "--block-requests", "512"], "unrecognized arguments"),
            (["stream", "trace.mtr", "--backend", "columnar"], "invalid choice: 'stream'"),
            (["stream", "trace.mtr"], "invalid choice: 'stream'"),
            (["quick", "fig6", "--sample-intervals", "3"], "unrecognized arguments"),
            (["quick", "sampling"], "invalid choice: 'sampling'"),
        ]
    ])
    def test_backend_and_stream_flags_are_gone(self, command, error, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(command)
        assert exit_info.value.code == 2
        assert error in capsys.readouterr().err

    def test_serve_subcommand_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'serve'" in capsys.readouterr().err

    def test_quick_with_metrics_and_events(self, tmp_path, capsys):
        import json

        from repro import obs

        clear_cache()
        manifest_path = tmp_path / "run.json"
        events_path = tmp_path / "events.jsonl"
        assert main([
            "quick", "fig3", "--requests", "1500",
            "--metrics-out", str(manifest_path),
            "--trace-events", str(events_path),
        ]) == 0
        assert obs.active() is None  # CLI tears the registry down

        manifest = json.loads(manifest_path.read_text())
        assert manifest["kind"] == "mocktails-run-manifest"
        assert manifest["scale"] == {"requests": 1500, "jobs": 1}
        assert "fig3" in manifest["phases_seconds"]
        assert manifest["experiments"] == ["fig3"]

        events = [json.loads(line) for line in events_path.read_text().splitlines()]
        types = {event["type"] for event in events}
        assert {"phase.start", "phase.end"} <= types

        out = capsys.readouterr().out
        assert "wrote run manifest" in out


class TestResultCache:
    def test_warm_run_hits_and_json_identical(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        cold_json = tmp_path / "cold.json"
        warm_json = tmp_path / "warm.json"

        _clear_all_caches()
        assert main([
            "run", "fig10", "--requests", "1200",
            "--cache-dir", cache_dir, "--json-out", str(cold_json),
        ]) == 0
        cold_out = capsys.readouterr().out
        assert "cache: 0 hits, 2 misses" in cold_out

        _clear_all_caches()  # simulate a fresh process
        assert main([
            "run", "fig10", "--requests", "1200",
            "--cache-dir", cache_dir, "--json-out", str(warm_json),
        ]) == 0
        warm_out = capsys.readouterr().out
        assert "cache: 2 hits, 0 misses" in warm_out

        assert cold_json.read_bytes() == warm_json.read_bytes()

    def test_no_cache_flag_disables_store(self, tmp_path, capsys):
        _clear_all_caches()
        assert main([
            "run", "fig10", "--requests", "1200",
            "--cache-dir", str(tmp_path / "cache"), "--no-cache",
        ]) == 0
        assert "cache:" not in capsys.readouterr().out
        assert not (tmp_path / "cache").exists()

    def test_cache_stats_on_empty_dir(self, tmp_path, capsys):
        assert main(["cache", "--cache-dir", str(tmp_path / "c"), "stats"]) == 0
        out = capsys.readouterr().out
        assert "entries:    0" in out
        assert "size:       0 B" in out

    def test_corrupt_entry_is_recomputed(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        _clear_all_caches()
        assert main([
            "run", "fig10", "--requests", "1200", "--cache-dir", str(cache_dir),
            "--json-out", str(tmp_path / "cold.json"),
        ]) == 0
        capsys.readouterr()

        entries = sorted(p for p in cache_dir.rglob("*") if p.is_file())
        assert len(entries) == 2
        entries[0].write_bytes(b"deliberately corrupted")

        _clear_all_caches()
        assert main([
            "run", "fig10", "--requests", "1200", "--cache-dir", str(cache_dir),
            "--json-out", str(tmp_path / "warm.json"),
        ]) == 0
        assert "1 hits, 1 misses, 1 corrupt (recomputed)" in capsys.readouterr().out
        assert (tmp_path / "cold.json").read_bytes() == (tmp_path / "warm.json").read_bytes()

    def test_cache_clear(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        _clear_all_caches()
        assert main([
            "run", "fig10", "--requests", "1200", "--cache-dir", str(cache_dir),
        ]) == 0
        capsys.readouterr()
        assert main(["cache", "--cache-dir", str(cache_dir), "clear"]) == 0
        assert "removed 2 entries" in capsys.readouterr().out
        assert main(["cache", "--cache-dir", str(cache_dir), "stats"]) == 0
        assert "entries:    0" in capsys.readouterr().out

    def test_json_out_is_valid_json(self, tmp_path, capsys):
        _clear_all_caches()
        out_path = tmp_path / "results.json"
        assert main([
            "run", "fig3", "--requests", "1500",
            "--no-cache", "--json-out", str(out_path),
        ]) == 0
        data = json.loads(out_path.read_text())
        assert set(data) == {"fig3"}
        assert data["fig3"]  # non-empty bins
