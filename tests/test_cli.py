"""Tests for the eraser-repro command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_ler_defaults(self):
        args = build_parser().parse_args(["ler"])
        assert args.distances == [3, 5]
        assert args.shots == 100
        assert args.jobs == 1
        assert args.cache_dir is None
        assert args.resume is False
        assert args.chunk_shots is None

    def test_orchestration_flags_parse(self):
        args = build_parser().parse_args(
            ["ler", "--jobs", "4", "--cache-dir", "cache/", "--resume",
             "--chunk-shots", "64"]
        )
        assert args.jobs == 4
        assert args.cache_dir == "cache/"
        assert args.resume is True
        assert args.chunk_shots == 64

    def test_engine_choices_default_to_packed(self, capsys):
        assert build_parser().parse_args(["ler"]).engine == "packed"
        args = build_parser().parse_args(["ler", "--engine", "scalar"])
        assert args.engine == "scalar"
        for retired in ("auto", "batched"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["ler", "--engine", retired])
        assert "{scalar,packed}" in capsys.readouterr().err

    def test_experiments_run_defaults(self):
        args = build_parser().parse_args(["experiments", "run", "fig14"])
        assert args.action == "run"
        assert args.experiment_id == "fig14"
        assert args.jobs == 1

    def test_rtl_arguments(self):
        args = build_parser().parse_args(["rtl", "--distance", "5", "--multilevel"])
        assert args.distance == 5
        assert args.multilevel is True

    def test_report_defaults(self):
        args = build_parser().parse_args(["report"])
        assert args.ids is None
        assert args.shots is None  # resolved from --quick at run time
        assert args.seed == 1234  # fixed by default so reruns hit the cache
        assert args.quick is False
        assert args.output_dir == "report"
        assert args.jobs == 1

    def test_report_flags_parse(self):
        args = build_parser().parse_args(
            ["report", "--ids", "fig14", "table2", "--quick", "--jobs", "2",
             "--cache-dir", "c/", "--resume", "--no-figures"]
        )
        assert args.ids == ["fig14", "table2"]
        assert args.quick is True
        assert args.jobs == 2
        assert args.cache_dir == "c/"
        assert args.resume is True
        assert args.no_figures is True


class TestCommands:
    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "93.75" in out
        assert "P(L_parity | L_data)" in out

    def test_fpga(self, capsys):
        assert main(["fpga", "--distances", "3", "5"]) == 0
        out = capsys.readouterr().out
        assert "LUT %" in out
        assert "latency" in out

    def test_rtl_to_stdout(self, capsys):
        assert main(["rtl", "--distance", "3"]) == 0
        out = capsys.readouterr().out
        assert "module eraser_d3" in out

    def test_rtl_to_file(self, tmp_path, capsys):
        target = tmp_path / "out.sv"
        assert main(["rtl", "--distance", "3", "--output", str(target)]) == 0
        assert target.exists()
        assert "wrote" in capsys.readouterr().out

    def test_speculation_command(self, capsys):
        code = main(
            [
                "speculation",
                "--distance",
                "3",
                "--cycles",
                "1",
                "--shots",
                "2",
                "--policies",
                "eraser",
                "--seed",
                "0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "accuracy %" in out
        assert "eraser" in out

    def test_ler_command_small(self, capsys):
        code = main(
            [
                "ler",
                "--distances",
                "3",
                "--cycles",
                "1",
                "--shots",
                "2",
                "--policies",
                "no-lrc",
                "--seed",
                "0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "no-lrc" in out

    def test_experiments_command(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        assert "fig14" in out
        assert "table3" in out
        assert "benchmark" in out

    def test_experiments_run_executes_a_plan(self, capsys, tmp_path):
        argv = [
            "experiments", "run", "fig14",
            "--shots", "4", "--max-distance", "3", "--seed", "0",
            "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "eraser" in out
        assert "0 cached" in out
        # Second invocation is served entirely from the cache.
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "4 cached, 0 executed (0 chunk(s))" in out

    def test_experiments_run_skips_unfaithful_ler_table(self, capsys):
        """fig2c varies cycles/leakage at one distance; a per-distance LER
        table would collapse those rows, so it must not be printed."""
        assert main(
            ["experiments", "run", "fig2c", "--shots", "2", "--max-distance",
             "3", "--seed", "0"]
        ) == 0
        out = capsys.readouterr().out
        assert "distance  " not in out  # series_table header absent
        assert out.count("no-lrc") >= 10  # every grid row still listed

    def test_experiments_run_without_plan_points_at_benchmark(self, capsys):
        assert main(["experiments", "run", "table3"]) == 1
        out = capsys.readouterr().out
        assert "bench_table3_fpga.py" in out

    def test_experiments_run_unknown_id(self, capsys):
        assert main(["experiments", "run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().out

    def test_experiments_run_missing_id(self, capsys):
        assert main(["experiments", "run"]) == 2

    def test_ler_with_cache_and_jobs(self, capsys, tmp_path):
        argv = [
            "ler", "--distances", "3", "--cycles", "1", "--shots", "4",
            "--policies", "eraser", "--seed", "0",
            "--jobs", "2", "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_report_subset_renders_and_caches(self, capsys, tmp_path):
        argv = [
            "report", "--ids", "fig14", "table2",
            "--shots", "2", "--max-distance", "3",
            "--cache-dir", str(tmp_path / "cache"),
            "--output-dir", str(tmp_path / "report"),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "report: 2 experiment(s)" in out
        assert (tmp_path / "report" / "index.md").exists()
        assert (tmp_path / "report" / "table2.csv").exists()
        # Rerun: all Monte-Carlo jobs must be served from the cache.
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "0 executed (0 chunk(s))" in out

    def test_report_unknown_id(self, capsys):
        assert main(["report", "--ids", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().out

    def test_report_kind_labels_match_experiments_list(self, capsys, tmp_path):
        """The report index and `experiments list` label entries consistently."""
        from repro.experiments.registry import EXPERIMENTS, spec_marker

        assert main(["experiments"]) == 0
        listing = capsys.readouterr().out
        for spec in EXPERIMENTS.values():
            assert spec_marker(spec) in listing
        argv = [
            "report", "--ids", "table2", "table3", "--shots", "2",
            "--max-distance", "3", "--output-dir", str(tmp_path / "report"),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        text = (tmp_path / "report" / "index.md").read_text()
        assert "*Kind: analytic." in text
        assert "*Kind: hardware." in text

    def test_lpr_command_small(self, capsys):
        code = main(
            [
                "lpr",
                "--distance",
                "3",
                "--cycles",
                "1",
                "--shots",
                "2",
                "--policies",
                "no-lrc",
                "--seed",
                "0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "round" in out
