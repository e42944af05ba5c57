"""Tests for the sweep runner, replay round-trip, and the audit CLI."""

import glob
import json
import os

import pytest

from repro.audit import inject_fault, run_audit
from repro.audit.runner import AuditReport, load_replay
from repro.cli import main
from repro.io.serialize import SerializationError, audit_report_to_json


class TestRunAudit:
    def test_clean_sweep(self):
        report = run_audit(cases=30, seed=0, samples=1500)
        assert report.ok
        assert report.cases_run == 30
        assert report.disagreement_count == 0
        assert set(report.origins) == {"corpus", "program", "random"}
        assert "all agree" in report.summary()

    def test_deterministic_across_runs(self):
        first = run_audit(cases=15, seed=4, samples=1000)
        second = run_audit(cases=15, seed=4, samples=1000)
        assert first.to_dict() == second.to_dict()

    def test_fail_fast_stops_at_first_failure(self):
        with inject_fault("exact-offset"):
            report = run_audit(cases=20, seed=0, include_programs=False,
                               backends=["exact"], shrink=False,
                               fail_fast=True)
        assert len(report.failures) == 1

    def test_report_envelope(self):
        report = run_audit(cases=5, seed=0, include_programs=False)
        document = audit_report_to_json(report)
        assert document["kind"] == "audit_report"
        assert document["version"] == 1
        assert document["ok"] is True
        assert document["cases"] == 5
        # Stable: survives a JSON round trip.
        assert json.loads(json.dumps(document)) == document

    def test_envelope_rejects_non_reports(self):
        with pytest.raises(SerializationError):
            audit_report_to_json(object())
        with pytest.raises(SerializationError):

            class Impostor:
                def to_dict(self):
                    return {"kind": "something-else"}

            audit_report_to_json(Impostor())

    def test_settings_recorded(self):
        report = run_audit(cases=3, seed=9, samples=777, repeats=2,
                           z=4.5, include_programs=False)
        assert report.settings["seed"] == 9
        assert report.settings["samples"] == 777
        assert report.settings["repeats"] == 2
        assert report.settings["z"] == 4.5


class TestReplayFiles:
    def test_write_and_load_round_trip(self, tmp_path):
        replay_dir = str(tmp_path)
        with inject_fault("exact-offset"):
            run_audit(cases=3, seed=0, include_programs=False,
                      include_corpus=False, backends=["exact"],
                      shrink=True, replay_dir=replay_dir)
        paths = glob.glob(os.path.join(replay_dir, "audit-replay-*.json"))
        assert paths
        loaded = load_replay(paths[0])
        assert loaded["case"].origin == "random"
        assert loaded["settings"]["backends"] == ["exact"]

    def test_load_rejects_foreign_documents(self, tmp_path):
        path = os.path.join(str(tmp_path), "bogus.json")
        with open(path, "w") as handle:
            json.dump({"version": 1, "kind": "graph"}, handle)
        with pytest.raises(SerializationError):
            load_replay(path)


class TestAuditCli:
    def test_clean_sweep_exit_zero(self, capsys):
        code = main(["audit", "--cases", "15", "--seed", "0",
                     "--samples", "1000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "all agree" in out

    def test_json_envelope_on_stdout(self, capsys):
        code = main(["audit", "--cases", "8", "--seed", "0",
                     "--samples", "800", "--no-programs", "--json"])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["kind"] == "audit_report"
        assert document["ok"] is True

    def test_failure_exit_one_and_replay_files(self, tmp_path, capsys):
        replay_dir = str(tmp_path / "replays")
        with inject_fault("exact-offset"):
            code = main(["audit", "--cases", "4", "--seed", "0",
                         "--no-programs", "--no-corpus", "--no-shrink",
                         "--backends", "exact",
                         "--replay-dir", replay_dir])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAILED" in out
        assert glob.glob(os.path.join(replay_dir, "*.json"))

    def test_replay_subcommand_round_trip(self, tmp_path, capsys):
        replay_dir = str(tmp_path)
        with inject_fault("exact-offset"):
            main(["audit", "--cases", "1", "--seed", "0",
                  "--no-programs", "--no-corpus", "--backends", "exact",
                  "--replay-dir", replay_dir])
        capsys.readouterr()
        [path] = glob.glob(os.path.join(replay_dir, "*.json"))
        # Green without the fault...
        assert main(["audit", "--replay", path]) == 0
        # ...red with it, for both the shrunk and the original case.
        with inject_fault("exact-offset"):
            assert main(["audit", "--replay", path]) == 1
            assert main(["audit", "--replay", path,
                         "--replay-original"]) == 1

    def test_backend_restriction(self, capsys):
        code = main(["audit", "--cases", "6", "--seed", "2",
                     "--no-programs", "--backends", "exact", "bdd"])
        assert code == 0
        assert "x 2 backends" in capsys.readouterr().out


def test_report_repr_mentions_state():
    report = AuditReport({}, 3, {"random": 3}, [], ["exact"])
    assert "all agree" in repr(report)
