"""Unit tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.data import ACQUAINTANCE


@pytest.fixture()
def program_file(tmp_path):
    path = tmp_path / "acquaintance.pl"
    path.write_text(ACQUAINTANCE)
    return str(path)


class TestRun:
    def test_prints_tuples(self, program_file, capsys):
        assert main(["run", program_file, "--relation", "know"]) == 0
        output = capsys.readouterr().out
        assert 'know("Ben","Elena")' in output

    def test_probabilities_flag(self, program_file, capsys):
        main(["run", program_file, "--relation", "know", "--probabilities"])
        output = capsys.readouterr().out
        assert "0.163840" in output

    def test_all_relations_excludes_capture_tables(self, program_file, capsys):
        main(["run", program_file])
        output = capsys.readouterr().out
        assert "prov_" not in output

    def test_all_relations_include_underscore_names(self, tmp_path, capsys):
        path = tmp_path / "underscore.pl"
        path.write_text("0.5: edge_(1,2). "
                        "0.9: reach_(X,Y) :- edge_(X,Y). 0.7: other(1).")
        assert main(["run", str(path)]) == 0
        assert capsys.readouterr().out.split() == [
            "edge_(1,2)", "other(1)", "reach_(1,2)"]


class TestExplain:
    def test_text(self, program_file, capsys):
        code = main(["explain", program_file, 'know("Ben","Elena")'])
        assert code == 0
        output = capsys.readouterr().out
        assert "success probability: 0.163840" in output

    def test_dot(self, program_file, capsys):
        main(["explain", program_file, 'know("Ben","Elena")', "--dot"])
        assert capsys.readouterr().out.startswith("digraph")

    def test_unknown_tuple_errors(self, program_file, capsys):
        code = main(["explain", program_file, 'know("Nobody","Here")'])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestDerive:
    def test_compression_reported(self, program_file, capsys):
        code = main(["derive", program_file, 'know("Ben","Elena")',
                     "--epsilon", "0.05"])
        assert code == 0
        output = capsys.readouterr().out
        assert "monomials: 2 -> 1" in output

    def test_match_group_algorithm(self, program_file, capsys):
        code = main(["derive", program_file, 'know("Ben","Elena")',
                     "--epsilon", "0.05", "--algorithm", "match-group"])
        assert code == 0


class TestInfluence:
    def test_top_literals(self, program_file, capsys):
        main(["influence", program_file, 'know("Ben","Elena")', "--top", "2"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("r3")

    def test_kind_filter(self, program_file, capsys):
        main(["influence", program_file, 'know("Ben","Elena")',
              "--kind", "tuple"])
        output = capsys.readouterr().out
        assert "r3" not in output.split()


class TestModify:
    def test_reached_plan_exit_zero(self, program_file, capsys):
        code = main(["modify", program_file, 'know("Ben","Elena")',
                     "--target", "0.5"])
        assert code == 0
        assert "reached" in capsys.readouterr().out

    def test_unreachable_plan_exit_one(self, program_file, capsys):
        code = main(["modify", program_file, 'know("Ben","Elena")',
                     "--target", "0.99", "--only-tuples"])
        assert code == 1


class TestGenerate:
    def test_emits_program(self, capsys):
        code = main(["generate", "--nodes", "30", "--edges", "60",
                     "--seed", "1"])
        assert code == 0
        output = capsys.readouterr().out
        assert "trustPath" in output
        assert "trust(" in output

    def test_sampled_output_parses(self, capsys):
        main(["generate", "--nodes", "40", "--edges", "80", "--seed", "2",
              "--sample", "10"])
        output = capsys.readouterr().out
        from repro.datalog.parser import parse_program
        program = parse_program(output)
        assert len(program.rules) == 3


class TestTopK:
    def test_lists_derivations(self, program_file, capsys):
        code = main(["topk", program_file, 'know("Ben","Elena")', "--k", "2"])
        assert code == 0
        output = capsys.readouterr().out
        assert output.startswith("#1")
        assert "#2" in output

    def test_base_tuple_single(self, program_file, capsys):
        main(["topk", program_file, 'like("Steve","Veggies")'])
        output = capsys.readouterr().out
        assert "p=0.400000" in output


class TestWhatIf:
    def test_deletion_report(self, program_file, capsys):
        code = main(["whatif", program_file, 'know("Ben","Elena")',
                     "--delete", "r3"])
        assert code == 0
        output = capsys.readouterr().out
        assert "UNDERIVABLE" in output

    def test_partial_deletion(self, program_file, capsys):
        main(["whatif", program_file, 'know("Ben","Elena")',
              "--delete", "r2"])
        output = capsys.readouterr().out
        assert "0.1638 -> 0.1600" in output


class TestGoal:
    def test_ground_pattern(self, program_file, capsys):
        code = main(["goal", program_file, 'know("Ben","Elena")'])
        assert code == 0
        output = capsys.readouterr().out
        assert "0.163840" in output
        assert "rule firings" in output

    def test_free_variable_pattern(self, program_file, capsys):
        main(["goal", program_file, 'know("Ben",X)'])
        output = capsys.readouterr().out
        assert 'know("Ben","Elena")' in output
        assert 'know("Ben","Steve")' in output


class TestStats:
    def test_graph_summary(self, program_file, capsys):
        code = main(["stats", program_file])
        assert code == 0
        output = capsys.readouterr().out
        assert "Provenance graph" in output

    def test_tuple_summary(self, program_file, capsys):
        main(["stats", program_file, 'know("Ben","Elena")'])
        output = capsys.readouterr().out
        assert "Polynomial: 2 monomials" in output


class TestErrors:
    def test_missing_file(self, capsys):
        code = main(["run", "/nonexistent/program.pl"])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestWhyNot:
    def test_missing_tuple_explained(self, program_file, capsys):
        code = main(["whynot", program_file, 'know("Mary","Steve")'])
        assert code == 0
        output = capsys.readouterr().out
        assert "MISSING" in output

    def test_guard_blocked_tuple(self, program_file, capsys):
        main(["whynot", program_file, 'know("Steve","Steve")'])
        assert "BLOCKED by guard" in capsys.readouterr().out

    def test_derivable_tuple_redirects(self, program_file, capsys):
        main(["whynot", program_file, 'know("Ben","Elena")'])
        assert "IS derivable" in capsys.readouterr().out


class TestTrace:
    def test_tree_covers_pipeline_stages(self, program_file, capsys):
        code = main(["trace", program_file, 'know("Ben","Elena")'])
        assert code == 0
        output = capsys.readouterr().out
        assert "trace of explain" in output
        assert "P=0.163840" in output
        for stage in ("parse", "evaluate", "query", "extract", "infer"):
            assert stage in output

    def test_json_emits_trace_envelope(self, program_file, capsys):
        import json
        from repro.telemetry import validate_span_dicts
        code = main(["trace", program_file, 'know("Ben","Elena")',
                     "--json"])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["kind"] == "trace"
        assert document["version"] == 2
        assert validate_span_dicts(document["spans"]) == []

    def test_telemetry_disabled_after_exit(self, program_file):
        from repro import telemetry
        main(["trace", program_file, 'know("Ben","Elena")'])
        assert not telemetry.runtime().enabled


class TestTelemetryFlags:
    def test_trace_out_writes_valid_jsonl(self, program_file, tmp_path,
                                          capsys):
        from repro.telemetry.validate import load_jsonl, validate_span_dicts
        trace_path = tmp_path / "trace.jsonl"
        code = main(["query", program_file, 'know("Ben","Elena")',
                     "--trace-out", str(trace_path)])
        assert code == 0
        spans = load_jsonl(str(trace_path))
        assert spans
        assert validate_span_dicts(spans) == []
        assert {"parse", "evaluate", "query"} <= {
            span["name"] for span in spans}

    def test_metrics_out_writes_prometheus_text(self, program_file,
                                                tmp_path, capsys):
        metrics_path = tmp_path / "metrics.prom"
        code = main(["query", program_file, 'know("Ben","Elena")',
                     "--metrics-out", str(metrics_path)])
        assert code == 0
        text = metrics_path.read_text()
        assert "# TYPE p3_infer_seconds histogram" in text
        assert 'p3_infer_calls_total{backend="exact"} 1' in text
        assert 'p3_cache_requests_total{' in text

    def test_metrics_agree_with_stats(self, program_file, tmp_path,
                                      capsys):
        metrics_path = tmp_path / "metrics.prom"
        code = main(["query", program_file, 'know("Ben","Elena")',
                     "--metrics-out", str(metrics_path), "--stats"])
        assert code == 0
        err = capsys.readouterr().err
        text = metrics_path.read_text()
        # One probability query, answered once: --stats and the exported
        # metrics count the same events.
        assert '"probability": 1' in err
        assert 'p3_queries_total{kind="probability"} 1' in text

    def test_chrome_out_writes_trace_event_file(self, program_file,
                                                tmp_path, capsys):
        import json
        chrome_path = tmp_path / "chrome.json"
        code = main(["query", program_file, 'know("Ben","Elena")',
                     "--chrome-out", str(chrome_path)])
        assert code == 0
        document = json.loads(chrome_path.read_text())
        assert any(event["ph"] == "X"
                   for event in document["traceEvents"])

    def test_slow_query_log_prints_to_stderr(self, program_file, capsys):
        # An absurdly low threshold: every query is "slow".
        code = main(["query", program_file, 'know("Ben","Elena")',
                     "--slow-query", "0.0000001"])
        assert code == 0
        assert "p3: slow query:" in capsys.readouterr().err

    def test_audit_accepts_trace_out(self, tmp_path, capsys):
        from repro.telemetry.validate import load_jsonl, validate_span_dicts
        trace_path = tmp_path / "audit-trace.jsonl"
        code = main(["audit", "--cases", "2", "--seed", "0",
                     "--trace-out", str(trace_path)])
        assert code == 0
        spans = load_jsonl(str(trace_path))
        assert validate_span_dicts(spans) == []
        assert "audit.case" in {span["name"] for span in spans}
