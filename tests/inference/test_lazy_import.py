"""NumPy is imported only when a sampling kernel runs.

Each check runs in a fresh interpreter, since the test process itself
has long since imported NumPy.
"""

import json
import os
import subprocess
import sys
import textwrap

import repro
from repro.data.programs import ACQUAINTANCE

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
KEY = 'know("Ben","Elena")'


def run_fresh(script, cwd):
    """Run ``script`` in a new interpreter; returns its last stdout line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)], cwd=str(cwd),
        capture_output=True, text=True, env=env, timeout=120)
    assert completed.returncode == 0, completed.stderr
    return completed.stdout.strip().splitlines()[-1]


def query_loads_numpy(tmp_path, method):
    (tmp_path / "acquaintance.pl").write_text(ACQUAINTANCE)
    line = run_fresh("""
        import json, sys
        import repro.cli
        code = repro.cli.main(["query", "acquaintance.pl", %r,
                               "--method", %r, "--seed", "1", "--json"])
        print(json.dumps([code, "numpy" in sys.modules]))
        """ % (KEY, method), tmp_path)
    code, loaded = json.loads(line)
    assert code == 0
    return loaded


def test_importing_the_cli_leaves_numpy_out(tmp_path):
    line = run_fresh("""
        import sys
        import repro, repro.cli
        print("numpy" in sys.modules)
        """, tmp_path)
    assert line == "False"


def test_exact_and_bdd_queries_leave_numpy_out(tmp_path):
    assert query_loads_numpy(tmp_path, "exact") is False
    assert query_loads_numpy(tmp_path, "bdd") is False


def test_mc_query_loads_numpy(tmp_path):
    assert query_loads_numpy(tmp_path, "mc") is True


def test_every_inference_export_resolves(tmp_path):
    line = run_fresh("""
        import json, sys
        import repro.inference as inference
        before = "numpy" in sys.modules
        missing = [name for name in inference.__all__
                   if getattr(inference, name, None) is None]
        print(json.dumps([before, missing, "numpy" in sys.modules]))
        """, tmp_path)
    before, missing, after = json.loads(line)
    assert before is False
    assert missing == []
    assert after is True


def test_unknown_inference_attribute_raises_attribute_error():
    import repro.inference as inference

    assert not hasattr(inference, "no_such_backend")
