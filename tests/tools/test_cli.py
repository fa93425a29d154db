"""Tests for the trace/profile command-line tools."""

import pytest

from repro.core.tracefile import load_trace
from repro.tools import profile as profile_tool
from repro.tools import soc as soc_tool
from repro.tools import trace as trace_tool


@pytest.fixture
def trace_file(tmp_path):
    path = tmp_path / "t.mtr.gz"
    assert trace_tool.main(
        ["generate", "crypto1", str(path), "--requests", "2000"]
    ) == 0
    return path


TOOLS = {"trace": trace_tool, "soc": soc_tool, "profile": profile_tool}


@pytest.mark.parametrize("command", [
    ["trace", "generate", "hevc1", "{tmp}/out.mtr", "--requests", "-3"],
    ["soc", "run", "--device", "gpu=hevc1", "--requests", "-4"],
    ["soc", "run", "--channels", "0"],
    ["profile", "create", "{trace}", "{tmp}/out.mprof.gz", "--interval", "0"],
    ["profile", "create", "{trace}", "{tmp}/out.mprof.gz", "--spatial", "fixed",
     "--block-size", "0"],
], ids=" ".join)
def test_non_positive_counts_are_usage_errors(command, trace_file, tmp_path, capsys):
    argv = [arg.format(trace=trace_file, tmp=tmp_path) for arg in command[1:]]
    with pytest.raises(SystemExit) as exit_info:
        TOOLS[command[0]].main(argv)
    assert exit_info.value.code == 2
    flag = next(arg for arg in reversed(command) if arg.startswith("--"))
    assert f"argument {flag}:" in capsys.readouterr().err


class TestTraceTool:
    def test_list(self, capsys):
        assert trace_tool.main(["list"]) == 0
        out = capsys.readouterr().out
        assert "hevc1" in out and "gobmk" in out

    def test_generate_writes_file(self, trace_file):
        assert trace_file.exists()
        assert len(load_trace(trace_file)) == 2000

    def test_generate_unknown_workload(self, tmp_path, capsys):
        code = trace_tool.main(["generate", "doom", str(tmp_path / "x.mtr.gz")])
        assert code == 1
        assert "unknown workload" in capsys.readouterr().err

    def test_info(self, trace_file, capsys):
        assert trace_tool.main(["info", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "requests:    2,000" in out
        assert "sorted:      True" in out

    def test_convert_roundtrip(self, trace_file, tmp_path, capsys):
        csv_path = tmp_path / "t.csv.gz"
        assert trace_tool.main(["convert", str(trace_file), str(csv_path)]) == 0
        back_path = tmp_path / "t2.mtr.gz"
        assert trace_tool.main(["convert", str(csv_path), str(back_path)]) == 0
        assert load_trace(back_path) == load_trace(trace_file)

    def test_seed_changes_trace(self, tmp_path):
        a, b = tmp_path / "a.mtr.gz", tmp_path / "b.mtr.gz"
        trace_tool.main(["generate", "crypto1", str(a), "--requests", "500",
                         "--seed", "1"])
        trace_tool.main(["generate", "crypto1", str(b), "--requests", "500",
                         "--seed", "2"])
        assert load_trace(a) != load_trace(b)


class TestProfileTool:
    def test_create_info_synthesize(self, trace_file, tmp_path, capsys):
        profile_path = tmp_path / "p.mprof.gz"
        assert profile_tool.main(
            ["create", str(trace_file), str(profile_path)]
        ) == 0
        assert profile_path.exists()

        assert profile_tool.main(["info", str(profile_path)]) == 0
        out = capsys.readouterr().out
        assert "leaves:" in out
        assert "requests:    2,000" in out

        clone_path = tmp_path / "clone.mtr.gz"
        assert profile_tool.main(
            ["synthesize", str(profile_path), str(clone_path), "--seed", "3"]
        ) == 0
        clone = load_trace(clone_path)
        original = load_trace(trace_file)
        assert len(clone) == len(original)
        assert clone.read_count() == original.read_count()

    def test_anonymous_profile_hides_name(self, trace_file, tmp_path, capsys):
        profile_path = tmp_path / "p.mprof.gz"
        profile_tool.main(
            ["create", str(trace_file), str(profile_path), "--anonymous"]
        )
        profile_tool.main(["info", str(profile_path)])
        out = capsys.readouterr().out
        assert "(withheld)" in out

    def test_stm_leaf_model(self, trace_file, tmp_path):
        profile_path = tmp_path / "stm.mprof.gz"
        assert profile_tool.main(
            ["create", str(trace_file), str(profile_path), "--leaf-model", "stm"]
        ) == 0
        clone_path = tmp_path / "clone.mtr.gz"
        assert profile_tool.main(
            ["synthesize", str(profile_path), str(clone_path)]
        ) == 0
        assert len(load_trace(clone_path)) == 2000

    def test_request_count_hierarchy(self, trace_file, tmp_path):
        profile_path = tmp_path / "rc.mprof.gz"
        assert profile_tool.main(
            ["create", str(trace_file), str(profile_path),
             "--temporal", "request_count", "--interval", "500"]
        ) == 0

    def test_fixed_spatial(self, trace_file, tmp_path):
        profile_path = tmp_path / "fx.mprof.gz"
        assert profile_tool.main(
            ["create", str(trace_file), str(profile_path),
             "--spatial", "fixed", "--block-size", "8192"]
        ) == 0

    def test_non_strict_synthesis(self, trace_file, tmp_path):
        profile_path = tmp_path / "p.mprof.gz"
        profile_tool.main(["create", str(trace_file), str(profile_path)])
        clone_path = tmp_path / "loose.mtr.gz"
        assert profile_tool.main(
            ["synthesize", str(profile_path), str(clone_path), "--no-strict"]
        ) == 0
        assert len(load_trace(clone_path)) > 0
