"""CLI coverage for the executor-backed subcommands and flags.

The ``query`` subcommand, the ``--stats`` observability flag, and the
``--json`` QueryResult output mode, exercised through ``main()`` and (once)
through a real ``python -m repro`` subprocess.
"""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.cli import main
from repro.data import ACQUAINTANCE
from repro.io.serialize import load_query_result

KEY = 'know("Ben","Elena")'


@pytest.fixture()
def program_file(tmp_path):
    path = tmp_path / "acquaintance.pl"
    path.write_text(ACQUAINTANCE)
    return str(path)


@pytest.fixture()
def directive_file(tmp_path):
    path = tmp_path / "directives.pl"
    path.write_text(ACQUAINTANCE + '\nquery(know("Ben","Elena")).\n')
    return str(path)


class TestQuery:
    def test_explicit_tuples(self, program_file, capsys):
        assert main(["query", program_file, KEY,
                     'know("Steve","Elena")']) == 0
        output = capsys.readouterr().out
        assert "0.163840" in output
        assert 'know("Steve","Elena")' in output

    def test_program_directives(self, directive_file, capsys):
        assert main(["query", directive_file]) == 0
        assert "0.163840" in capsys.readouterr().out

    def test_no_directives_errors(self, program_file, capsys):
        assert main(["query", program_file]) == 2
        assert "query(...)" in capsys.readouterr().err

    def test_unknown_tuple_partial_failure(self, program_file, capsys):
        code = main(["query", program_file, KEY, 'know("No","One")'])
        assert code == 1
        captured = capsys.readouterr()
        assert "0.163840" in captured.out
        assert "ERROR" in captured.out
        assert "failed" in captured.err

    def test_json_document(self, program_file, capsys):
        assert main(["query", program_file, KEY, "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["kind"] == "query_batch"
        assert document["results"][KEY] == pytest.approx(0.163840)


class TestStatsFlag:
    def test_stats_on_stderr(self, program_file, capsys):
        assert main(["query", program_file, KEY, "--stats"]) == 0
        captured = capsys.readouterr()
        stats = json.loads(captured.err)
        assert stats["stages"]["parse"]["calls"] == 1
        assert stats["stages"]["evaluate"]["seconds"] > 0
        assert stats["stages"]["extract"]["calls"] >= 1
        assert stats["stages"]["infer"]["seconds"] > 0
        assert stats["queries"]["probability"] == 1
        assert "polynomial" in stats["caches"]
        # stdout stays clean for piping.
        assert "stages" not in captured.out

    def test_stats_with_explain(self, program_file, capsys):
        assert main(["explain", program_file, KEY, "--stats"]) == 0
        stats = json.loads(capsys.readouterr().err)
        assert stats["queries"]["explain"] == 1


class TestJsonMode:
    def test_explain_envelope_round_trips(self, program_file, capsys):
        assert main(["explain", program_file, KEY, "--json"]) == 0
        explanation = load_query_result(capsys.readouterr().out)
        assert explanation.query_type == "explanation"
        assert explanation.probability == pytest.approx(0.163840)

    def test_derive_envelope(self, program_file, capsys):
        assert main(["derive", program_file, KEY,
                     "--epsilon", "0.05", "--json"]) == 0
        result = load_query_result(capsys.readouterr().out)
        assert result.query_type == "derivation"
        assert result.error <= 0.05

    def test_influence_envelope_respects_top(self, program_file, capsys):
        assert main(["influence", program_file, KEY,
                     "--top", "2", "--json"]) == 0
        report = load_query_result(capsys.readouterr().out)
        assert report.query_type == "influence"
        assert len(report.scores) == 2

    def test_modify_envelope(self, program_file, capsys):
        assert main(["modify", program_file, KEY,
                     "--target", "0.5", "--json"]) == 0
        plan = load_query_result(capsys.readouterr().out)
        assert plan.query_type == "modification"
        assert plan.reached


PATH_PROGRAM = """
t1 0.5: edge(1,2).
t2 0.9: edge(2,3).
r1 1.0: path(X,Y) :- edge(X,Y).
r2 0.5: path(X,Z) :- edge(X,Y), path(Y,Z).
"""


@pytest.fixture()
def path_file(tmp_path):
    path = tmp_path / "path.pl"
    path.write_text(PATH_PROGRAM)
    return str(path)


@pytest.fixture()
def updates_file(tmp_path):
    path = tmp_path / "updates.pl"
    path.write_text("t3 0.25: edge(3,4).\n")
    return str(path)


class TestUpdate:
    def test_applies_and_requeries(self, path_file, updates_file, capsys):
        code = main(["update", path_file, updates_file, "path(1,4)"])
        assert code == 0
        output = capsys.readouterr().out
        assert "update applied" in output
        assert "(epoch 1)" in output
        assert "path(1,4)" in output

    def test_json_envelope(self, path_file, updates_file, capsys):
        code = main(["update", path_file, updates_file, "path(1,4)",
                     "--json"])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["kind"] == "update"
        assert document["epoch"] == 1
        assert document["delta"]["derived"] > 0
        scratch = repro.P3.from_source(
            PATH_PROGRAM + "\nt3 0.25: edge(3,4).")
        scratch.evaluate()
        assert document["results"]["path(1,4)"] == pytest.approx(
            scratch.probability_of("path", 1, 4))

    def test_answers_program_directives(self, path_file, tmp_path,
                                        updates_file, capsys):
        directive = tmp_path / "path_q.pl"
        directive.write_text(PATH_PROGRAM + "\nquery(path(1,4)).\n")
        code = main(["update", str(directive), updates_file])
        assert code == 0
        assert "path(1,4)" in capsys.readouterr().out

    def test_updates_with_rules_rejected(self, path_file, tmp_path, capsys):
        bad = tmp_path / "bad.pl"
        bad.write_text("r9 1.0: loop(X,Y) :- path(Y,X).\n")
        code = main(["update", path_file, str(bad)])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_stats_include_update_stage(self, path_file, updates_file,
                                        capsys):
        code = main(["update", path_file, updates_file, "path(1,4)",
                     "--stats"])
        assert code == 0
        stats = json.loads(capsys.readouterr().err)
        assert stats["stages"]["update"]["calls"] == 1

    def test_timeout_flag_accepted(self, path_file, updates_file, capsys):
        code = main(["update", path_file, updates_file, "path(1,4)",
                     "--timeout", "30"])
        assert code == 0


class TestSubprocess:
    def test_python_dash_m_repro(self, directive_file):
        src = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "query", directive_file,
             "--stats", "--json"],
            capture_output=True, text=True, env=env, timeout=120)
        assert completed.returncode == 0, completed.stderr
        document = json.loads(completed.stdout)
        assert document["results"][KEY] == pytest.approx(0.163840)
        stats = json.loads(completed.stderr)
        assert stats["total_queries"] == 1
