"""Unit tests for the repro CLI."""

import json
import socket

import pytest

from repro.experiments.cli import (
    _parse_address,
    _parse_grid_axes,
    build_parser,
    main,
)
from repro.obs import read_jsonl


class TestParseGridAxes:
    def test_explicit_values_and_int_range(self):
        grids = _parse_grid_axes(["n=10,20,30", "k=20:40:10"])
        assert grids == {"n": [10, 20, 30], "k": [20, 30, 40]}

    def test_float_range_inclusive(self):
        assert _parse_grid_axes(["rs=0:1:0.25"])["rs"] == [
            0,
            0.25,
            0.5,
            0.75,
            1.0,
        ]

    def test_large_magnitude_range_keeps_endpoint(self):
        # Regression: repeated accumulation with an absolute 1e-9
        # epsilon dropped the final point once rounding drift at this
        # magnitude exceeded the epsilon, silently changing the point
        # list (and hence the checkpoint fingerprint).
        values = _parse_grid_axes(["x=100000:100184.2:0.1"])["x"]
        assert len(values) == 1843
        assert values[-1] == pytest.approx(100184.2)
        assert values[5] == 100000 + 5 * 0.1

    def test_degenerate_range_is_single_point(self):
        assert _parse_grid_axes(["v=2:2:0.5"])["v"] == [2]

    def test_rejects_malformed(self):
        for spec in ["n", "n=", "n=1:2", "n=2:1:1", "n=1:2:0"]:
            with pytest.raises(ValueError):
                _parse_grid_axes([spec])


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["fig8"])
        assert args.experiment == "fig8"
        assert args.trials == 10_000
        assert args.seed == 20080617

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_options(self):
        args = build_parser().parse_args(
            ["fig9a", "--trials", "500", "--seed", "1", "--accuracy", "0.9"]
        )
        assert args.trials == 500
        assert args.seed == 1
        assert args.accuracy == 0.9

    def test_options_before_subcommand(self):
        args = build_parser().parse_args(
            ["--trials", "2000", "--workers", "4", "fig9a"]
        )
        assert args.experiment == "fig9a"
        assert args.trials == 2000
        assert args.workers == 4
        assert args.seed == 20080617  # untouched options keep defaults

    def test_option_after_subcommand_wins(self):
        args = build_parser().parse_args(
            ["--trials", "2000", "fig9a", "--trials", "500", "--seed", "1"]
        )
        assert args.trials == 500
        assert args.seed == 1

    def test_plot_flag_before_subcommand(self):
        args = build_parser().parse_args(["--plot", "fig8"])
        assert args.plot is True
        assert build_parser().parse_args(["fig8"]).plot is False


class TestMain:
    def test_fig8_prints_table(self, capsys):
        assert main(["fig8"]) == 0
        out = capsys.readouterr().out
        assert "[FIG8]" in out
        assert "num_sensors" in out

    def test_truncation_experiment(self, capsys):
        assert main(["truncation"]) == 0
        out = capsys.readouterr().out
        assert "EXT-EXACT" in out

    def test_false_alarms_experiment(self, capsys):
        assert main(["false-alarms"]) == 0
        assert "EXT-FA" in capsys.readouterr().out

    def test_json_output(self, tmp_path, capsys):
        assert main(["fig8", "--json", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "fig8.json").read_text())
        assert payload["experiment_id"] == "FIG8"
        assert payload["rows"]

    def test_design_experiment(self, capsys):
        assert main(["design", "--max-sensors", "250"]) == 0
        out = capsys.readouterr().out
        assert "EXT-DESIGN" in out
        assert "joint_sensors" in out

    def test_small_simulation_experiment(self, capsys):
        # Keep trials tiny so the test stays fast.
        assert main(["boundary", "--trials", "50", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "EXT-BND" in out
        assert "torus" in out


class TestObservability:
    def test_trace_flag_parses(self, tmp_path):
        args = build_parser().parse_args(
            ["fig9a", "--trace", str(tmp_path / "t.jsonl"), "--profile"]
        )
        assert str(args.trace).endswith("t.jsonl")
        assert args.profile is True
        assert build_parser().parse_args(["fig9a"]).trace is None
        assert build_parser().parse_args(["fig9a"]).profile is False

    def test_fig9a_trace_and_profile(self, tmp_path, capsys):
        """Acceptance: `repro fig9a --trace out.jsonl --profile` emits
        parseable JSONL plus a manifest whose per-stage wall times sum to
        (within tolerance) the instrumented run's wall clock."""
        trace = tmp_path / "out.jsonl"
        assert (
            main(
                [
                    "fig9a",
                    "--trials",
                    "50",
                    "--seed",
                    "3",
                    "--trace",
                    str(trace),
                    "--profile",
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "[FIG9A]" in captured.out
        assert "== repro profile ==" in captured.err
        assert "experiment:fig9a" in captured.err

        records = read_jsonl(trace)  # every line parses as JSON
        assert records[-1]["type"] == "manifest"
        manifest = records[-1]["manifest"]
        assert manifest == json.loads(
            (tmp_path / "out.jsonl.manifest.json").read_text()
        )
        # The experiment span is the run's single stage: its wall time
        # accounts for (almost) all of the measured wall clock.
        stage_wall = sum(s["wall"] for s in manifest["stages"].values())
        assert stage_wall <= manifest["wall_time"]
        assert stage_wall >= 0.95 * manifest["wall_time"]
        # Trial accounting reached the manifest through the live run.
        assert manifest["counters"]["sim.trials"] > 0
        assert manifest["run"]["command"] == "fig9a"
        span_names = {r["name"] for r in records if r["type"] == "span"}
        assert "experiment:fig9a" in span_names
        assert "sim.run" in span_names

    def test_profile_without_trace(self, capsys):
        assert main(["fig8", "--profile"]) == 0
        err = capsys.readouterr().err
        assert "== repro profile ==" in err
        assert "experiment:fig8" in err

    def test_trace_written_even_when_experiment_fails(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.experiments import cli as cli_module

        def boom(args):
            raise RuntimeError("forced failure")

        monkeypatch.setitem(cli_module._EXPERIMENTS, "fig8", boom)
        trace = tmp_path / "t.jsonl"
        with pytest.raises(RuntimeError):
            main(["fig8", "--trace", str(trace)])
        records = read_jsonl(trace)
        assert records[-1]["type"] == "manifest"
        (span,) = [r for r in records if r["type"] == "span"]
        assert span["name"] == "experiment:fig8"
        assert span["ok"] is False


class TestBackendOption:
    def test_backend_rejects_unknown(self, capsys):
        # The convolution policy is not user-selectable: no --backend flag.
        for argv in (
            ["--backend", "fft", "truncation"],
            ["truncation", "--backend", "fft"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                build_parser().parse_args(argv)
            assert excinfo.value.code == 2


class TestSweepAddresses:
    def test_parse_address(self):
        assert _parse_address("--connect", "10.0.0.2:7000") == (
            "10.0.0.2",
            7000,
        )
        assert _parse_address("--coordinator", ":0") == ("127.0.0.1", 0)

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--connect", "localhost"],
            ["sweep", "--connect", "localhost:"],
            ["sweep", "--connect", "localhost:99999"],
            ["sweep", "--connect", "localhost:-1"],
            [
                "sweep",
                "--distributed",
                "--coordinator",
                "127.0.0.1:http",
                "--grid",
                "num_sensors=20",
            ],
        ],
    )
    def test_bad_address_exits_2(self, argv, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("repro sweep: ")

    def test_unreachable_coordinator_exits_nonzero(self, capsys):
        # Bind then close a loopback port: nothing listens there, so the
        # worker's connect is refused.
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        assert main(["sweep", "--connect", f"127.0.0.1:{port}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            f"repro sweep: cannot reach coordinator 127.0.0.1:{port}: "
        )
        assert "Traceback" not in err
