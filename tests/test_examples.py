"""The runnable entry points outside the package: ``examples/`` and the
Table 1 helpers in ``benchmarks/``.

Both drive the public :mod:`repro.api` surface, so a removed or renamed
name there must fail here rather than only when someone next runs an
example or a benchmark by hand.
"""

import importlib.util
import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES_DIR = os.path.join(REPO_ROOT, "examples")

#: Arguments that keep an example fast; the default 14-stage pipeline
#: sweep of ``pipeline_scaling.py`` takes seconds, six stages do not.
EXAMPLE_ARGS = {"pipeline_scaling.py": ["6"]}

EXAMPLES = sorted(name for name in os.listdir(EXAMPLES_DIR)
                  if name.endswith(".py"))


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES_DIR, name),
         *EXAMPLE_ARGS.get(name, [])],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_table1_row_reproduces_the_family_verdicts():
    path = os.path.join(REPO_ROOT, "benchmarks", "table1_common.py")
    spec = importlib.util.spec_from_file_location("table1_common", path)
    table1 = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(table1)
    row = table1.run_table1_row("muller_pipeline", 4)
    expected = table1.expected_verdicts("muller_pipeline")
    assert {key: row[key] for key in expected} == expected
    assert row["states"] > 0
