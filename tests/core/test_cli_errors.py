"""CLI failure behaviour: nonzero exits and the JSON error envelope."""

import json
from types import SimpleNamespace

import pytest

from repro.cli import main
from repro.data import ACQUAINTANCE
from repro.io.serialize import chaos_report_to_json
from repro.resilience.isolation import process_isolation_supported


@pytest.fixture()
def program_file(tmp_path):
    path = tmp_path / "acquaintance.pl"
    path.write_text(ACQUAINTANCE)
    return str(path)


class TestExitCodes:
    def test_missing_program_file(self, capsys):
        assert main(["run", "/no/such/file.pl"]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_tuple(self, program_file, capsys):
        assert main(["explain", program_file, 'know("No","One")']) == 2
        err = capsys.readouterr().err
        assert "p3: error:" in err

    def test_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.pl"
        bad.write_text("this is not problog ::: at all.\n")
        assert main(["run", str(bad)]) == 2

    def test_success_still_exits_zero(self, program_file):
        assert main(["run", program_file, "--relation", "know"]) == 0


class TestJsonErrorEnvelope:
    def test_envelope_on_stdout_message_on_stderr(self, program_file,
                                                  capsys):
        code = main(["explain", program_file, 'know("No","One")', "--json"])
        assert code == 2
        captured = capsys.readouterr()
        document = json.loads(captured.out)
        assert document["version"] == 2
        assert document["kind"] == "error"
        assert document["error"]["type"] == "UnknownTupleError"
        assert 'know("No","One")' in document["error"]["message"]
        # The repr-quoting of KeyError must not leak into the message.
        assert not document["error"]["message"].startswith("'")
        assert "p3: error:" in captured.err

    def test_no_envelope_without_json_flag(self, program_file, capsys):
        code = main(["explain", program_file, 'know("No","One")'])
        assert code == 2
        assert capsys.readouterr().out == ""

    def test_query_batch_with_bad_key_exits_nonzero(self, program_file,
                                                    capsys):
        code = main(["query", program_file, 'know("No","One")', "--json"])
        captured = capsys.readouterr()
        assert code == 1  # per-outcome error, reported in the batch doc
        document = json.loads(captured.out)
        assert document["results"]['know("No","One")'] is None

    def test_budget_error_detail_rides_along(self, capsys):
        # A budget hit escaping a direct (non-batch) query path carries
        # its structured detail into the envelope.
        from repro.core.errors import BudgetExceededError
        from repro.io.serialize import error_to_json
        document = error_to_json(BudgetExceededError(
            "blew the monomial budget", resource="monomials",
            limit=10, used=11))
        assert document["error"]["type"] == "BudgetExceededError"
        assert document["error"]["resource"] == "monomials"
        assert document["error"]["limit"] == 10
        assert document["error"]["used"] == 11
        assert document["error"]["has_partial"] is False


class TestResilientFlag:
    def test_resilient_query_answers(self, program_file, capsys):
        code = main(["query", program_file, 'know("Ben","Elena")',
                     "--resilient"])
        assert code == 0
        assert "0.163840" in capsys.readouterr().out

    def test_chaos_smoke(self, capsys):
        # Tiny chaos runs through the CLI, one per transport: seeded,
        # JSON, exit 0 on ok, and every document a valid chaos report.
        code = main(["chaos", "--seed", "0", "--specs", "12",
                     "--people", "8", "--samples", "4000", "--json"])
        captured = capsys.readouterr()
        document = json.loads(captured.out)
        assert document["kind"] == "chaos_report"
        assert code == (0 if document["ok"] else 1)
        assert document["well_formed"] == document["specs"]

        runs = {"service": ["--service", "--json"]}
        if process_isolation_supported():
            runs["process"] = ["--process", "--rounds", "1", "--people", "8",
                               "--json"]
        for transport, flags in runs.items():
            code = main(["chaos", "--seed", "0"] + flags)
            document = json.loads(capsys.readouterr().out)
            printed = SimpleNamespace(to_dict=lambda: document)
            assert chaos_report_to_json(printed) == document
            assert document["transport"] == transport
            assert document["well_formed"] == document["exchanges"]
            assert code == 0, document

    def test_chaos_transports_are_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["chaos", "--service", "--process"])
        assert exit_info.value.code == 2
        assert "not allowed with" in capsys.readouterr().err
