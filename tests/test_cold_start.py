"""Cold start: importing udortho and making sequences load numpy, not scipy.

qhull (`scipy.spatial`) takes most of the package's import time and only
hulls need it, so `geometry` imports it inside the functions that build one.
These tests run fresh interpreters, because the test session has long since
loaded scipy (and every udortho module).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from udortho.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"

COLD_SCRIPT = """
import sys
from pathlib import Path

import udortho
from udortho import cli, geometry

out = Path(sys.argv[1])
for argv in (
    ["gen", "sphere", "--n", "3", "--count", "5"],
    ["gen", "ortho", "--n", "4", "--count", "5"],
    ["gen", "grassmann", "--n", "4", "--k", "2", "--count", "5"],
    ["gen", "udsg", "--count", "5"],
    ["estimate", "--polytope", "3-cube", "--k", "2", "--N", "100"],
):
    assert cli.main(argv + ["--output", str(out / f"{argv[1]}.csv")]) == 0, argv
assert len(list(out.iterdir())) == 5
loaded = sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))
assert not loaded, loaded

names = set(vars(geometry))
assert geometry.hull_measure([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]) == 0.5
assert "scipy.spatial" in sys.modules
assert set(vars(geometry)) == names, set(vars(geometry)) ^ names
"""


def fresh_python(*args, cwd):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, timeout=120)


def test_import_and_gen_never_load_scipy(tmp_path):
    # gen, the d = 1 (width) estimate and the imports leave scipy unloaded;
    # the first hull loads it without adding a name to geometry
    done = fresh_python("-c", COLD_SCRIPT, str(tmp_path), cwd=tmp_path)
    assert done.returncode == 0, done.stderr


GEOMETRY_ALONE = """
import sys
import types

# the package without its __init__, which imports every module
package = types.ModuleType("udortho")
package.__path__ = [sys.argv[1]]
sys.modules["udortho"] = package

import udortho.geometry

loaded = sorted(name for name in sys.modules if name.startswith("udortho."))
assert loaded == ["udortho.geometry"], loaded
"""


def test_geometry_imports_no_other_module(tmp_path):
    # geometry takes bases as arrays: importing it leaves udortho.grassmann
    # (and every other udortho module) unloaded
    done = fresh_python("-c", GEOMETRY_ALONE, str(SRC / "udortho"), cwd=tmp_path)
    assert done.returncode == 0, done.stderr


def test_python_m_udortho_runs_the_cli(capsys, tmp_path):
    done = fresh_python("-m", "udortho", "gen", "udsg", "--count", "5", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert main(["gen", "udsg", "--count", "5"]) == 0
    assert done.stdout == capsys.readouterr().out.encode()

    done = fresh_python("-m", "udortho", "gen", "ortho", "--n", "4", "--count", "0", cwd=tmp_path)
    assert done.returncode == 2
    assert done.stdout == b""
    assert json.loads(done.stderr) == {"error": "count must be >= 1"}
