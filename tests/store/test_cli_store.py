"""CLI tests for snapshot / record / replay and the persisted-source
loading flag (``--from-store``)."""

import json

import pytest

from repro.cli import main

PROGRAM = """
0.9::edge(a,b).
0.8::edge(b,c).
0.7::edge(a,c).
0.5::edge(c,d).
path(X,Y) :- edge(X,Y).
path(X,Y) :- path(X,Z), edge(Z,Y).
query(path(a,c)).
"""

KEY = 'path("a","c")'


@pytest.fixture()
def program_file(tmp_path):
    path = tmp_path / "paths.pl"
    path.write_text(PROGRAM)
    return str(path)


@pytest.fixture()
def update_file(tmp_path):
    path = tmp_path / "update.pl"
    path.write_text("0.6::edge(c,e).\n")
    return str(path)


@pytest.fixture()
def store_file(tmp_path):
    return str(tmp_path / "prov.db")


class TestSnapshot:
    def test_writes_store(self, program_file, store_file, capsys):
        code = main(["snapshot", program_file, "--store", store_file,
                     "--json"])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["kind"] == "snapshot"
        assert document["epoch"] == 0
        assert document["epochs"][0]["tuples"] > 0

    def test_snapshot_from_store(self, program_file, store_file, tmp_path,
                                 capsys):
        assert main(["snapshot", program_file, "--store", store_file]) == 0
        capsys.readouterr()
        copy = str(tmp_path / "copy.db")
        code = main(["snapshot", "--from-store", store_file,
                     "--store", copy, "--json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["epoch"] == 0
        assert main(["query", "--from-store", copy, KEY]) == 0
        from_copy = capsys.readouterr().out
        assert main(["query", program_file, KEY]) == 0
        assert capsys.readouterr().out == from_copy

    def test_non_ascii_constants_survive(self, tmp_path, store_file,
                                         capsys):
        from repro import P3
        key = 'likes("Øyvind","Zoë")'
        program = tmp_path / "likes.pl"
        program.write_text("0.5::%s.\nquery(%s).\n" % (key, key),
                           encoding="utf-8")
        assert main(["snapshot", str(program), "--store", store_file]) == 0
        capsys.readouterr()
        restored = P3.from_store(store_file, attach=False)
        assert key in restored.graph.tuple_keys()
        assert restored.probability_of(key) == pytest.approx(0.5)
        assert str(restored.program) == str(P3.from_file(program).program)

    def test_export_is_unknown_subcommand(self, program_file, capsys):
        with pytest.raises(SystemExit) as info:
            main(["export", program_file, "--output", "out.json"])
        assert info.value.code == 2
        assert "invalid choice: 'export'" in capsys.readouterr().err


class TestRecordReplay:
    def test_round_trip(self, program_file, update_file, store_file,
                        capsys):
        assert main(["record", program_file, KEY, "--store", store_file,
                     "--name", "demo", "--update", update_file]) == 0
        capsys.readouterr()
        assert main(["replay", "--store", store_file, "--name", "demo",
                     "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["kind"] == "replay_report"
        assert document["ok"] is True
        assert document["total"] == 2
        assert document["epochs"] == [0, 1]

    def test_record_defaults_to_query_directives(self, program_file,
                                                 store_file, capsys):
        assert main(["record", program_file, "--store", store_file]) == 0
        output = capsys.readouterr().out
        assert "recorded 'session': 1 queries" in output

    def test_replay_without_name_uses_newest(self, program_file,
                                             store_file, capsys):
        assert main(["record", program_file, KEY,
                     "--store", store_file]) == 0
        capsys.readouterr()
        assert main(["replay", "--store", store_file]) == 0
        assert "byte-identical" in capsys.readouterr().out

    def test_replay_missing_store_fails(self, store_file, capsys):
        assert main(["replay", "--store", store_file]) == 2
        assert "error" in capsys.readouterr().err


class TestLoadingFlags:
    def test_query_from_store_matches_program(self, program_file,
                                              store_file, capsys):
        assert main(["snapshot", program_file, "--store", store_file]) == 0
        capsys.readouterr()
        assert main(["query", program_file, KEY]) == 0
        from_program = capsys.readouterr().out
        assert main(["query", "--from-store", store_file, KEY]) == 0
        assert capsys.readouterr().out == from_program

    def test_source_required(self, capsys):
        assert main(["query"]) == 2
        assert "exactly one program source" in capsys.readouterr().err

    def test_conflicting_sources_rejected(self, store_file, program_file,
                                          capsys):
        assert main(["snapshot", program_file, "--store", store_file]) == 0
        capsys.readouterr()
        code = main(["serve", program_file, "--from-store", store_file])
        assert code == 2
        assert "exactly one source" in capsys.readouterr().err
        # The program positional would otherwise be taken for a tuple key.
        for command in (["query", program_file, KEY],
                        ["snapshot", program_file, "--store", store_file],
                        ["record", program_file, KEY,
                         "--store", store_file]):
            code = main(command + ["--from-store", store_file])
            assert code == 2, command
            captured = capsys.readouterr()
            assert "exactly one source" in captured.err, command
            assert "UnknownTupleError" not in captured.err, command

    def test_store_version_mismatch_envelope(self, program_file,
                                             store_file, capsys):
        import sqlite3
        assert main(["snapshot", program_file, "--store", store_file]) == 0
        capsys.readouterr()
        raw = sqlite3.connect(store_file)
        raw.execute("UPDATE meta SET value = '99' "
                    "WHERE key = 'store_format'")
        raw.commit()
        raw.close()
        code = main(["query", "--from-store", store_file, KEY, "--json"])
        assert code == 2
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["error"]["type"] == "StoreVersionError"
        assert envelope["error"]["found_version"] == 99
