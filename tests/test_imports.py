"""The planner, and every CLI command but ``fit``, load no SciPy module.

Each check runs in a fresh interpreter: the test process has SciPy loaded
already (the oracle tests and the references import it).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs cli.main commands in process, in order, and prints the SciPy modules
# loaded after the import and after each.
_CHILD = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")

import nli_planner
from nli_planner.cli import main

loaded = {"import": scipy_modules()}
for name, argv in json.loads(sys.argv[1]):
    code = main(argv)
    if code != 0:
        raise SystemExit(f"{name} exited {code}")
    loaded[name] = scipy_modules()
print(json.dumps(loaded))
"""

_DESK = ["--band-width-thz", "0.5", "--n-spans", "3"]


def _loaded_after(commands, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(commands)],
                          capture_output=True, text=True, env=env,
                          cwd=cwd, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_the_planner_and_its_commands_load_no_scipy(tmp_path):
    loaded = _loaded_after([
        ("generate", ["generate", "--seed", "3", *_DESK, "--optimize-powers",
                      "-o", "sys.json"]),
        ("evaluate", ["evaluate", "sys.json", "--all-channels",
                      "--threshold-db", "12", "-o", "eval.json"]),
        ("oracle", ["oracle", "sys.json", "--n-spans", "1",
                    "-o", "oracle.json"]),
        ("campaign", ["campaign", "--n-systems", "2", *_DESK, "--models",
                      "cfm1", "cfm4", "-o", "campaign.json"]),
        ("campaign-cfm4", ["campaign", "--n-systems", "2", *_DESK,
                           "--models", "cfm1", "--benchmark", "cfm4",
                           "-o", "campaign-cfm4.json"]),
    ], tmp_path)
    assert loaded == {name: [] for name in
                      ("import", "generate", "evaluate", "oracle",
                       "campaign", "campaign-cfm4")}


def test_the_fit_loads_the_optimizer(tmp_path):
    loaded = _loaded_after([
        ("fit", ["fit", "cfm2", "--benchmark", "cfm2", "--n-systems", "2",
                 *_DESK, "--max-iterations", "20", "-o", "fit.json"]),
    ], tmp_path)
    assert loaded["import"] == []
    assert "scipy.optimize" in loaded["fit"]
    assert "scipy.sparse" in loaded["fit"]
