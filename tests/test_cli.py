"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, load_problem, main


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_synthesize_defaults(self):
        args = build_parser().parse_args(["synthesize", "example1"])
        assert args.style == "p2p"
        assert args.solver == "auto"


class TestLoadProblem:
    def test_builtin_names(self):
        graph, library = load_problem("example1")
        assert len(graph) == 4
        graph2, _ = load_problem("example2")
        assert len(graph2) == 9

    def test_problem_file(self, tmp_path):
        from repro.taskgraph import example1, graph_to_dict

        document = {
            "graph": graph_to_dict(example1()),
            "library": {
                "types": [
                    {"name": "p1", "cost": 4,
                     "exec_times": {"S1": 1, "S2": 1, "S3": 12, "S4": 3}},
                    {"name": "p2", "cost": 5,
                     "exec_times": {"S1": 3, "S2": 1, "S3": 2, "S4": 1}},
                ],
                "instances_per_type": 1,
                "link_cost": 1.0,
            },
        }
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(document))
        graph, library = load_problem(str(path))
        assert len(library.instances()) == 2


class TestCommands:
    def test_synthesize_example1(self, capsys):
        code = main(["synthesize", "example1", "--cost-cap", "7", "--gantt"])
        output = capsys.readouterr().out
        assert code == 0
        assert "cost 7, performance 4" in output
        assert "p1a" in output

    def test_synthesize_writes_output(self, capsys, tmp_path):
        out = tmp_path / "design.json"
        code = main(["synthesize", "example1", "--output", str(out)])
        assert code == 0
        document = json.loads(out.read_text())
        assert document["makespan"] == pytest.approx(2.5)

    def test_min_cost_mode(self, capsys):
        code = main(["synthesize", "example1", "--min-cost"])
        output = capsys.readouterr().out
        assert code == 0
        assert "cost 4" in output

    def test_sweep(self, capsys):
        code = main(["sweep", "example1"])
        output = capsys.readouterr().out
        assert code == 0
        assert "14" in output and "2.5" in output

    def test_sweep_workers_prints_serial_front(self, capsys, tmp_path):
        # --workers runs parallel branch and bound inside each cost-capped
        # solve, so the front matches the serial sweep row for row.
        def front(name, *flags):
            out = tmp_path / f"{name}.csv"
            code = main(["sweep", "example1", *flags, "--csv", str(out)])
            capsys.readouterr()
            assert code == 0
            # Drop the wall-clock column; every other field must match.
            return [line.rsplit(",", 1)[0]
                    for line in out.read_text().splitlines()]

        parallel = front("parallel", "--solver", "bozo", "--workers", "2")
        serial = front("serial", "--solver", "highs")
        assert parallel == serial
        assert parallel[1].startswith("1,14,2.5")

    @pytest.mark.parametrize("command", ["synthesize", "sweep"])
    def test_fast_flag_is_rejected(self, command, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "example1", "--fast"])

    def test_synthesize_trace_then_trace_command(self, capsys, tmp_path):
        trace = tmp_path / "solve.jsonl"
        code = main(["synthesize", "example1", "--trace", str(trace)])
        capsys.readouterr()
        assert code == 0
        assert trace.exists()

        code = main(["trace", str(trace), "--replay-stats"])
        output = capsys.readouterr().out
        assert code == 0
        assert "bound-convergence timeline" in output
        assert "solve_started" in output and "solve_done" in output
        assert "replayed stats:" in output

    def test_trace_replay_matches_telemetry(self, capsys, tmp_path):
        from repro.obs import read_trace, replay_stats

        trace = tmp_path / "solve.jsonl"
        code = main(["synthesize", "example1", "--solver", "bozo",
                     "--trace", str(trace), "--telemetry"])
        output = capsys.readouterr().out
        assert code == 0
        replayed = replay_stats(read_trace(trace))
        assert replayed.summary() in output

    def test_progress_flag_prints_updates(self, capsys):
        code = main(["synthesize", "example1", "--solver", "bozo", "--progress"])
        output = capsys.readouterr().out
        assert code == 0
        assert "nodes=" in output and "bound=" in output

    def test_sweep_csv_export(self, capsys, tmp_path):
        out = tmp_path / "front.csv"
        code = main(["sweep", "example1", "--csv", str(out)])
        capsys.readouterr()
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("design,cost,performance")
        assert lines[1].startswith("1,14,2.5")

    def test_info(self, capsys):
        code = main(["info", "example1"])
        output = capsys.readouterr().out
        assert code == 0
        assert "21 timing" in output
        assert "processor-selection (3.3.1): 4" in output

    def test_paper_table2(self, capsys):
        code = main(["paper", "--artifact", "table2"])
        output = capsys.readouterr().out
        assert code == 0
        assert "Table II" in output and "reproduced OK" in output

    def test_paper_sizes(self, capsys):
        code = main(["paper", "--artifact", "sizes"])
        output = capsys.readouterr().out
        assert code == 0
        assert "example2_bus" in output

    def test_infeasible_is_clean_error(self, capsys):
        code = main(["synthesize", "example1", "--cost-cap", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err

    def test_validate_accepts_own_output(self, capsys, tmp_path):
        out = tmp_path / "design.json"
        assert main(["synthesize", "example1", "--output", str(out)]) == 0
        capsys.readouterr()
        code = main(["validate", "example1", str(out)])
        output = capsys.readouterr().out
        assert code == 0
        assert "VALID" in output

    def test_validate_rejects_tampered_design(self, capsys, tmp_path):
        out = tmp_path / "design.json"
        assert main(["synthesize", "example1", "--output", str(out)]) == 0
        document = json.loads(out.read_text())
        document["schedule"]["executions"][0]["end"] += 1.0
        out.write_text(json.dumps(document))
        capsys.readouterr()
        code = main(["validate", "example1", str(out)])
        output = capsys.readouterr().out
        assert code == 1
        assert "INVALID" in output

    def test_baseline_command(self, capsys):
        code = main(["baseline", "example1", "--compare-exact"])
        output = capsys.readouterr().out
        assert code == 0
        assert "Heuristic non-inferior designs" in output
        assert "coverage" in output

    def test_baseline_refined(self, capsys):
        code = main(["baseline", "example1", "--refine"])
        output = capsys.readouterr().out
        assert code == 0
        assert "refined" in output or "heuristic" in output

    def test_stats_command(self, capsys, tmp_path):
        out = tmp_path / "design.json"
        assert main(["synthesize", "example1", "--output", str(out)]) == 0
        capsys.readouterr()
        code = main(["stats", "example1", str(out), "--trace"])
        output = capsys.readouterr().out
        assert code == 0
        assert "critical path:" in output
        assert "resource utilization" in output
        assert "t=0" in output  # the trace

    def test_dot_graph(self, capsys):
        code = main(["dot", "example1"])
        output = capsys.readouterr().out
        assert code == 0
        assert output.startswith('digraph "example1"')

    def test_dot_design_to_file(self, capsys, tmp_path):
        out = tmp_path / "system.dot"
        code = main(["dot", "example1", "--design", "--cost-cap", "7",
                     "--output", str(out)])
        assert code == 0
        assert "p1a" in out.read_text()
