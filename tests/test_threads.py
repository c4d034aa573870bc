"""The package pins BLAS to one thread before NumPy loads, unless the caller chose."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import torus_qpt

VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Records the thread variables at the moment `numpy` is first looked up, then lets the
# regular finders import it; prints what it saw and what os.environ holds at the end.
SPY = """
import json, os, sys
VARS = {vars!r}
seen = {{}}
class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.update({{v: os.environ.get(v) for v in VARS}})
        return None
sys.meta_path.insert(0, Spy())
{body}
print(json.dumps({{"at_numpy": seen, "after": {{v: os.environ.get(v) for v in VARS}}}}))
"""


def _run(body: str, **env_vars: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in VARS}
    env.update(env_vars)
    src = str(Path(torus_qpt.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SPY.format(vars=VARS, body=body)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout)


@pytest.mark.parametrize(
    "body,env_vars,at_numpy",
    [
        ("import torus_qpt", {}, {"OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}),
        (
            "import torus_qpt",
            {"OPENBLAS_NUM_THREADS": "3"},
            {"OPENBLAS_NUM_THREADS": "3", "MKL_NUM_THREADS": "1"},
        ),
        ("import numpy\nimport torus_qpt", {}, {"OPENBLAS_NUM_THREADS": None, "MKL_NUM_THREADS": None}),
    ],
    ids=["default", "caller-value-wins", "numpy-first"],
)
def test_blas_threads_are_set_before_numpy_loads(body, env_vars, at_numpy):
    seen = _run(body, **env_vars)
    assert seen["at_numpy"] == at_numpy
    # nothing is set after NumPy has loaded: too late to matter, and not the caller's choice
    assert seen["after"] == at_numpy
