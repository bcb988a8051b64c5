"""Tests for the repro.cli command-line interface."""

import logging

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        for command in ("table2", "table3", "table4", "fig3", "fig4", "fig5"):
            args = parser.parse_args(["--scale", "tiny", command])
            assert args.command == command

    def test_list_arguments_parsed(self):
        parser = build_parser()
        args = parser.parse_args(["table3", "--np-ratios", "5,10"])
        assert args.np_ratios == [5, 10]
        args = parser.parse_args(["table4", "--sample-ratios", "0.2,0.8"])
        assert args.sample_ratios == [0.2, 0.8]

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize(
        "argv, complaint",
        [
            # The explicit action keeps argparse from reading the flag's
            # value as engine's optional positional.
            (
                ["engine", "diagnose", "--executor", "rpc"],
                "unrecognized arguments: --executor rpc",
            ),
            (
                ["worker", "--listen", "127.0.0.1:0", "--store-dir", "D"],
                "invalid choice: 'worker'",
            ),
            (
                ["engine", "diagnose", "--executor", "process"],
                "unrecognized arguments: --executor process",
            ),
        ],
    )
    def test_removed_executor_surface_is_a_usage_error(self, capsys, argv, complaint):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert complaint in capsys.readouterr().err


class TestCommands:
    def test_table2(self, capsys):
        assert main(["--scale", "tiny", "table2"]) == 0
        out = capsys.readouterr().out
        assert "# anchor links" in out

    def test_table3_minimal(self, capsys):
        code = main(
            [
                "--scale",
                "tiny",
                "table3",
                "--np-ratios",
                "5",
                "--repeats",
                "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "[F1]" in out and "ActiveIter-100" in out

    def test_fig3_minimal(self, capsys):
        assert main(["--scale", "tiny", "fig3", "--np-ratios", "5"]) == 0
        assert "Convergence" in capsys.readouterr().out

    def test_fig4_minimal(self, capsys):
        code = main(
            ["--scale", "tiny", "fig4", "--np-ratios", "2,4", "--budget", "5"]
        )
        assert code == 0
        assert "linear fit" in capsys.readouterr().out

    def test_fig5_minimal(self, capsys):
        code = main(
            [
                "--scale",
                "tiny",
                "fig5",
                "--budgets",
                "5",
                "--np-ratio",
                "5",
                "--repeats",
                "1",
            ]
        )
        assert code == 0
        assert "budget b=5" in capsys.readouterr().out

    def test_discover(self, capsys):
        assert main(["discover", "--max-length", "3"]) == 0
        out = capsys.readouterr().out
        assert "P1" in out and "signature" in out

    def test_baselines(self, capsys):
        assert main(["--scale", "tiny", "baselines"]) == 0
        out = capsys.readouterr().out
        assert "IsoRank" in out and "precision" in out

    def test_validate(self, capsys):
        assert main(["--scale", "tiny", "validate"]) == 0
        assert "Integrity report" in capsys.readouterr().out

    def test_stats(self, capsys):
        assert main(["--scale", "tiny", "stats"]) == 0
        out = capsys.readouterr().out
        assert "structure" in out and "P5xP6" in out

    def test_engine(self, capsys):
        code = main(
            ["--scale", "tiny", "engine", "--budget", "4", "--np-ratio", "5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Incremental session vs full recompute" in out
        assert "labels identical: True" in out
        assert "Candidate streaming" in out
        assert "session stats: workers=1" in out

    def test_engine_workers(self, capsys):
        code = main(
            [
                "--scale",
                "tiny",
                "engine",
                "--budget",
                "4",
                "--np-ratio",
                "5",
                "--workers",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "session stats: workers=2" in out
        assert "Parallel execution layer vs serial (workers=2" in out
        assert "features identical: True" in out
        assert "selection identical: True" in out

    def test_engine_streamed(self, capsys):
        code = main(
            [
                "--scale",
                "tiny",
                "engine",
                "--budget",
                "4",
                "--np-ratio",
                "5",
                "--streamed",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Streamed active fit vs materialized task" in out
        assert "queried links identical: True" in out

    def test_engine_store_dir(self, capsys, tmp_path):
        code = main(
            [
                "--scale",
                "tiny",
                "engine",
                "--budget",
                "4",
                "--np-ratio",
                "5",
                "--store-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Disk-backed matrix store vs in-memory baseline" in out
        assert "features identical: True" in out
        assert "selection identical: True" in out
        assert (tmp_path / "manifest.json").exists()

    def test_engine_raises_when_a_race_is_not_identical(
        self, monkeypatch, tmp_path
    ):
        from repro.eval import timing
        from repro.exceptions import ExperimentError

        run_anchor_rounds = timing.run_anchor_rounds

        def diverging(*args, **kwargs):
            run = run_anchor_rounds(*args, **kwargs)
            if kwargs.get("store") is None:
                return run
            # Plant a stray pick in the store run's selection.
            selection = run.outputs["selection"] + [(("u", "v"), 1.0)]
            return run._replace(outputs={**run.outputs, "selection": selection})

        monkeypatch.setattr(timing, "run_anchor_rounds", diverging)
        with pytest.raises(ExperimentError) as error:
            main(
                [
                    "--scale", "tiny", "engine", "--budget", "4",
                    "--np-ratio", "5", "--store-dir", str(tmp_path),
                ]
            )
        assert "store vs in-memory" in str(error.value)
        assert "selection identical: False" in str(error.value)

    def test_engine_checkpoint_resume_workflow(self, capsys, tmp_path):
        common = [
            "--scale",
            "tiny",
            "engine",
        ]
        trailing = [
            "--store-dir",
            str(tmp_path),
            "--budget",
            "8",
            "--batch",
            "2",
        ]
        code = main(
            common
            + ["checkpoint"]
            + trailing
            + ["--interrupt-after", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "interrupted: simulated crash" in out
        assert (tmp_path / "checkpoint.pkl").exists()

        code = main(common + ["resume"] + trailing)
        assert code == 0
        out = capsys.readouterr().out
        assert "Resumed active fit" in out
        assert "byte-identical to uninterrupted run: True" in out
        assert not (tmp_path / "checkpoint.pkl").exists()

    def test_engine_checkpoint_requires_store_dir(self):
        with pytest.raises(SystemExit):
            main(["--scale", "tiny", "engine", "checkpoint"])

    def test_engine_resume_without_checkpoint_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "--scale",
                    "tiny",
                    "engine",
                    "resume",
                    "--store-dir",
                    str(tmp_path),
                ]
            )


class TestObservability:
    @pytest.fixture(autouse=True)
    def _reset_obs_state(self):
        """Undo what --trace-out / --log-level install globally."""
        yield
        from repro.obs import set_tracer

        set_tracer(None)
        logger = logging.getLogger("repro")
        for handler in list(logger.handlers):
            if getattr(handler, "_repro_obs_handler", False):
                logger.removeHandler(handler)
        logger.setLevel(logging.NOTSET)
        logger.propagate = True

    def test_trace_out_then_summarize_and_tree(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        code = main(
            [
                "--scale", "tiny", "engine",
                "--budget", "4", "--np-ratio", "5",
                "--trace-out", str(trace),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Metrics registry" in out  # diagnose prints the snapshot
        assert "session.full_recounts" in out
        assert trace.exists()

        assert main(["trace", "summarize", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "trace(s)" in out
        assert "cli.engine" in out

        assert main(["trace", "tree", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "- cli.engine" in out
        assert "- active." in out  # fit phases nested under the root

    def test_trace_missing_file_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["trace", "summarize", str(tmp_path / "absent.jsonl")])

    def test_log_level_emits_module_logs(self, capsys, tmp_path):
        code = main(
            [
                "--scale", "tiny", "engine", "checkpoint",
                "--store-dir", str(tmp_path),
                "--budget", "4", "--batch", "2",
                "--log-level", "debug", "--log-format", "json",
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert '"logger": "repro.store.checkpoint"' in err
        assert "checkpoint save" in err


class TestModelBackendCommands:
    def test_experiment_command(self, capsys):
        code = main(
            [
                "--scale", "tiny", "experiment",
                "--np-ratio", "5", "--budget", "5",
                "--model", "svm", "--streamed",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Custom lineup (model=svm" in out
        assert "SVM-MPMD[streamed]" in out

    def test_experiment_with_feature_map(self, capsys):
        code = main(
            [
                "--scale", "tiny", "experiment",
                "--np-ratio", "5", "--budget", "5",
                "--feature-map", "nystroem",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "feature-map=nystroem" in out
        assert "Iter-MPMD[ridge+nystroem]" in out

    def test_engine_model_knob_races_streamed_fit(self, capsys):
        code = main(
            [
                "--scale", "tiny", "engine",
                "--budget", "4", "--np-ratio", "5",
                "--model", "svm",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Streamed active fit vs materialized task" in out
        assert "queried links identical: True" in out
        assert "labels identical: True" in out

    def test_evolve_sweep(self, capsys):
        code = main(
            ["--scale", "tiny", "evolve", "--events", "2", "--sweep"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "SVM-MPMD-streamed" in out
        assert "phase 'event 1'" in out
        assert "features identical: True" in out

    def test_evolve_model_knob(self, capsys):
        code = main(
            [
                "--scale", "tiny", "evolve", "--events", "1",
                "--model", "svm",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Iter-MPMD[svm]" in out
