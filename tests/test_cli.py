"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import build_parser, main


DOTPROD = """
float dotprod(float x1, float y1, float z1,
              float x2, float y2, float z2, float scale) {
    if (scale != 0.0) {
        return (x1*x2 + y1*y2 + z1*z2) / scale;
    } else {
        return -1.0;
    }
}
"""


@pytest.fixture()
def source_file(tmp_path):
    path = tmp_path / "dotprod.ds"
    path.write_text(DOTPROD)
    return str(path)


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def run_cli_err(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


class TestSpecialize:
    def test_default_shows_layout(self, source_file):
        code, out = run_cli(["specialize", source_file, "-v", "z1,z2"])
        assert code == 0
        assert "cache layout" in out
        assert "x1 * x2 + y1 * y2" in out

    def test_show_all_sections(self, source_file):
        code, out = run_cli(
            ["specialize", source_file, "-v", "z1,z2", "--show", "all"]
        )
        assert "cache loader" in out
        assert "cache reader" in out
        assert "caching labels" in out

    def test_cache_bound(self, source_file):
        code, out = run_cli(
            ["specialize", source_file, "-v", "z1,z2", "--cache-bound", "0"]
        )
        assert "0 slots, 0 bytes" in out

    def test_unknown_varying_fails(self, source_file):
        with pytest.raises(SystemExit):
            run_cli(["specialize", source_file, "-v", "nope"])

    def test_function_selection_single(self, source_file):
        code, out = run_cli(
            ["specialize", source_file, "-f", "dotprod", "-v", "scale"]
        )
        assert code == 0

    def test_missing_function_reports_choices(self, tmp_path):
        path = tmp_path / "two.ds"
        path.write_text("int a() { return 1; } int b() { return 2; }")
        with pytest.raises(SystemExit) as err:
            run_cli(["specialize", str(path), "-v", ""])
        assert "pick one" in str(err.value)


class TestRun:
    def test_run_function(self, source_file):
        code, out = run_cli(
            ["run", source_file, "-a", "1,2,3,4,5,6,2.0"]
        )
        assert "result: 16.0" in out
        assert "cost:" in out

    def test_run_bad_args(self, source_file):
        with pytest.raises(SystemExit):
            run_cli(["run", source_file, "-a", "1,banana"])

    def test_run_missing_file(self):
        with pytest.raises(SystemExit):
            run_cli(["run", "/nonexistent/file.ds"])


class TestPE:
    def test_residual_printed(self, source_file):
        code, out = run_cli(
            ["pe", source_file, "--fix",
             "x1=1.0,y1=2.0,x2=4.0,y2=5.0,scale=2.0"]
        )
        assert "residual program" in out
        body = out.split("*/", 1)[1].split("/*", 1)[0]
        assert "if" not in body

    def test_generation_cost_reported(self, source_file):
        code, out = run_cli(["pe", source_file, "--fix", "scale=2.0"])
        assert "generation" in out

    def test_bad_binding(self, source_file):
        with pytest.raises(SystemExit):
            run_cli(["pe", source_file, "--fix", "scale"])


class TestCFG:
    def test_dump(self, source_file):
        code, out = run_cli(["cfg", source_file])
        assert "cfg of dotprod" in out
        assert "branch" in out
        assert "halt" in out


class TestSaveReplay:
    def test_save_and_replay(self, source_file, tmp_path):
        directory = str(tmp_path / "saved")
        code, out = run_cli(
            ["specialize", source_file, "-v", "z1,z2", "--save", directory]
        )
        assert "saved specialization" in out

        code, out = run_cli(
            ["replay", directory,
             "--load-args", "1,2,3,4,5,6,2.0",
             "--read-args", "1,2,9,4,5,6,2.0",
             "--read-args", "1,2,0,4,5,0,2.0"]
        )
        assert code == 0
        assert "loader: result=16.0" in out
        assert out.count("reader:") == 2

    def test_replay_missing_directory(self):
        """Typed artifact errors exit with code 2 and a one-line
        ``error:`` message on stderr — no traceback, no SystemExit."""
        code, out, err = run_cli_err(
            ["replay", "/nonexistent", "--load-args", "1"]
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_replay_corrupted_artifact_exits_2(self, source_file, tmp_path):
        directory = tmp_path / "saved"
        run_cli(["specialize", source_file, "-v", "z1,z2",
                 "--save", str(directory)])
        loader = directory / "loader.ds"
        loader.write_text(loader.read_text().replace("z1", "z9"))
        code, out, err = run_cli_err(
            ["replay", str(directory), "--load-args", "1,2,3,4,5,6,2.0"]
        )
        assert code == 2
        assert err.startswith("error: ")
        assert "Traceback" not in err


class TestRenderSupervision:
    def test_render_json_reports_health(self):
        import json

        code, out = run_cli(
            ["render", "1", "--size", "4", "--json", "--supervise"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["shader"] == 1
        assert payload["health"]["requests"] == 2
        assert payload["health"]["exhausted"] == 0
        assert payload["fault_log"] is None  # unguarded render

    def test_render_json_without_supervision(self):
        import json

        code, out = run_cli(["render", "1", "--size", "4", "--json"])
        assert code == 0
        assert json.loads(out)["health"] is None

    def test_render_deadline_flag_degrades_cleanly(self):
        import json

        code, out = run_cli(
            ["render", "1", "--size", "4", "--json",
             "--deadline-steps", "3"]
        )
        assert code == 0
        health = json.loads(out)["health"]
        assert health["deadline_misses"] >= 1
        assert health["rungs"]["original"] >= 1

    def test_health_command_reports_breaker_trip(self):
        import json

        code, out = run_cli(
            ["health", "1", "--size", "4", "--drags", "10",
             "--corrupt-rate", "0.3", "--breaker-threshold", "0.05",
             "--json"]
        )
        assert code == 0
        snapshot = json.loads(out)
        assert snapshot["requests"] == 11  # load + 10 adjusts
        breakers = list(snapshot["breakers"].values())
        assert breakers and breakers[0]["trips"] >= 1
        causes = {i["cause"] for i in snapshot["incidents"]}
        assert "open" in causes

    def test_health_command_text_summary(self):
        code, out = run_cli(["health", "1", "--size", "4", "--drags", "3"])
        assert code == 0
        assert "requests served" in out
        assert "breakers:" in out


class TestObservability:
    def test_render_json_reports_canonical_last_rung(self):
        import json

        code, out = run_cli(
            ["render", "1", "--size", "4", "--json", "--supervise"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["last_rung"] in ("batch", "scalar", "original", "lkg")
        assert set(payload["health"]["rungs"]) == {
            "batch", "scalar", "original", "lkg",
        }

    def test_render_trace_out_writes_chrome_trace(self, tmp_path):
        import json

        path = tmp_path / "trace.json"
        code, out = run_cli(
            ["render", "1", "--size", "4", "--trace-out", str(path)]
        )
        assert code == 0
        assert "wrote %s" % path in out
        with open(str(path)) as handle:
            document = json.load(handle)
        names = {e["name"] for e in document["traceEvents"]}
        assert {"frontend.parse", "specialize", "render.load",
                "render.adjust"} <= names
        assert "repro_metrics" in document["otherData"]

    def test_trace_command_reports_stage_table(self, tmp_path):
        path = tmp_path / "trace.json"
        code, out = run_cli(
            ["trace", "1", "--size", "4", "--adjusts", "2",
             "--out", str(path)]
        )
        assert code == 0
        assert "stage" in out and "median ms" in out
        assert "render.adjust" in out
        assert path.exists()

    def test_trace_unknown_shader_fails(self):
        with pytest.raises(SystemExit):
            run_cli(["trace", "99"])

    def test_stats_prometheus_covers_every_shader(self):
        from repro.shaders.sources import SHADERS

        code, out = run_cli(["stats", "--format", "prometheus"])
        assert code == 0
        assert "# TYPE repro_cache_slot_bytes gauge" in out
        for info in SHADERS.values():
            assert 'repro_cache_slot_bytes{shader="%s"' % info.name in out
            for param in info.control_params:
                assert (
                    'repro_specializations_total{shader="%s",'
                    'partition="%s"}' % (info.name, param) in out
                )

    def test_stats_json_lines(self):
        import json

        code, out = run_cli(["stats", "--format", "json"])
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert all(
            r["kind"] in ("metric", "span", "native_builtins")
            for r in records
        )
        assert any(r["name"] == "repro_cache_dead_slots"
                   for r in records if r["kind"] == "metric")
        assert any(r["kind"] == "span" for r in records)
        (native,) = [r for r in records if r["kind"] == "native_builtins"]
        assert native["state"] in ("loaded", "fallback")
        (gauge,) = [r for r in records
                    if r.get("name") == "repro_native_builtins_loaded"]
        assert gauge["value"] == (1 if native["state"] == "loaded" else 0)

    def test_health_reports_native_builtins(self):
        import json

        code, out = run_cli(["health", "3", "--size", "4", "--drags", "1",
                             "--json"])
        assert code == 0
        section = json.loads(out)["native_builtins"]
        assert section["state"] in ("loaded", "fallback")
        assert section["key"] or section["reason"]
        code, out = run_cli(["health", "3", "--size", "4", "--drags", "1"])
        assert code == 0 and "native builtins: " in out

    def test_stats_render_populates_runtime_counters(self):
        code, out = run_cli(["stats", "--render", "--size", "2"])
        assert code == 0
        assert "repro_frames_total" in out
        assert "repro_pixel_cost_steps_bucket" in out
        assert "repro_cache_hits_total" in out


class TestPoolKnobs:
    """``--workers``/``--tile`` share one argparse validator across the
    five subcommands that take them: a bad spelling exits 2 with one
    line naming the accepted spellings, never a traceback."""

    PREFIXES = {
        "render": ["render", "1"],
        "health": ["health", "1"],
        "serve": ["serve"],
        "trace": ["trace", "1"],
        "stats": ["stats"],
    }

    @pytest.mark.parametrize("command", sorted(PREFIXES))
    @pytest.mark.parametrize("flag,value,expected", [
        ("--workers", "fork:x", "a count, 'auto', or 'fork[:N]'"),
        ("--workers", "threads:2", "a count, 'auto', or 'fork[:N]'"),
        ("--tile", "0", "a lane count >= 1"),
    ])
    def test_bad_pool_knob_exits_2(self, command, flag, value, expected,
                                   capsys):
        # Parse only: a regression must fail here, not start a daemon.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(self.PREFIXES[command] + [flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument %s" % flag in err
        assert expected in err
        assert "Traceback" not in err

    def test_five_subcommands_resolve_one_plan(self):
        """The shared session-options helper gives every subcommand the
        plan ``render`` resolves from the same flags."""
        from repro.cli import _session_options
        from repro.runtime.plan import ExecutionPlan

        for flags, tiled in [
            (["--workers", "2", "--tile", "64"], True),
            (["--workers", "1", "--tile", "64"], True),
            (["--workers", "1"], False),
            (["--backend", "scalar", "--workers", "2"], False),
        ]:
            plans = set()
            for prefix in self.PREFIXES.values():
                args = build_parser().parse_args(prefix + flags)
                options = _session_options(args)
                options.pop("pool_policy")
                plans.add(ExecutionPlan(**options))
            assert len(plans) == 1
            assert plans.pop().tiled is tiled


def _render_config(argv):
    import json

    code, out = run_cli(["render"] + argv + ["--json"])
    assert code == 0
    return json.loads(out)["config"]


class TestRenderPlan:
    """``render --json`` reports the plan the drag runs, not the flags:
    only the tiled case carries a tile size and more than one worker."""

    def test_tiled(self):
        from repro.runtime import parallel as P

        config = _render_config(
            ["3", "--size", "8", "--workers", "2", "--tile", "16"]
        )
        assert config["tiled"] is True
        assert config["workers"] == 2
        assert config["tile"] == 16
        assert config["transport"] == (
            "shm" if P._pool_available() else "serial"
        )

    @pytest.mark.parametrize("argv", [
        ["3", "--guard"],
        ["9", "--dispatch"],
        ["3", "--backend", "scalar"],
        # At or below POOL_MIN_PIXELS, --workers without --tile.
        ["3"],
    ], ids=["guarded", "dispatch", "scalar", "small-frame"])
    def test_untiled(self, argv):
        config = _render_config(argv + ["--size", "8", "--workers", "2"])
        assert config["tiled"] is False
        assert config["workers"] == 1
        assert config["tile"] is None
        assert config["transport"] == "serial"

    def test_text_header_reports_the_plan(self):
        code, out = run_cli(
            ["render", "3", "--size", "8", "--workers", "2", "--guard"]
        )
        assert code == 0
        assert "(workers 1, transport serial)" in out.splitlines()[0]

    def test_trace_tiles_like_render(self, tmp_path):
        """``trace`` runs the path ``render`` runs with the same flags:
        both record one ``render.tile`` span per frame."""
        import json

        def tile_spans(path):
            with open(str(path)) as handle:
                events = json.load(handle)["traceEvents"]
            return sum(1 for e in events if e["name"] == "render.tile")

        rendered, traced = tmp_path / "render.json", tmp_path / "trace.json"
        run_cli(["render", "3", "--size", "16", "--workers", "1",
                 "--tile", "256", "--trace-out", str(rendered)])
        run_cli(["trace", "3", "--size", "16", "--workers", "1",
                 "--tile", "256", "--adjusts", "1", "--out", str(traced)])
        assert tile_spans(rendered) == tile_spans(traced) == 2


class TestMainModule:
    def test_python_dash_m_repro(self, source_file):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro", "specialize", source_file,
             "-v", "z1,z2"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "cache layout" in proc.stdout

    def test_closed_stdout_exits_without_traceback(self):
        """``repro trace 3 | head``: a reader that closes the pipe early
        gets a nonzero exit and no traceback on stderr."""
        import subprocess
        import sys

        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "trace", "3", "--size", "8"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) != 0
        assert "Traceback" not in err
        assert "BrokenPipeError" not in err

    def test_lex_error_is_one_line_without_traceback(self, tmp_path):
        """A non-ASCII digit in a source file is a typed lex error: one
        line on stderr naming the file and position, no traceback."""
        import subprocess
        import sys

        bad = tmp_path / "bad.k"
        bad.write_text(
            "float f(float x) { return x * 2\u00b2; }\n", encoding="utf-8"
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "specialize", str(bad),
             "--varying", "x"],
            capture_output=True, text=True,
        )
        assert proc.returncode != 0
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1
        assert "bad.k: line 1, col 32: unexpected character" in lines[0]

    def test_non_utf8_source_is_one_line_error(self, tmp_path):
        bad = tmp_path / "latin1.k"
        bad.write_bytes(b"float f(float x) { return x * 2\xb2; }\n")
        with pytest.raises(SystemExit) as exc_info:
            run_cli(["specialize", str(bad), "--varying", "x"])
        assert "latin1.k: not UTF-8 text" in str(exc_info.value)
