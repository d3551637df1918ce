"""Start-up cost: importing the package loads numpy and no scipy module.

scipy is imported inside the few functions that use it: ``extract_ridges``,
``fit_line``, ``fock_oracle`` and the two coupling estimators.  The pytest
process has scipy loaded already, so every check runs in a fresh interpreter
with ``PYTHONPATH`` set to the checkout's ``src``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("module", ["magnon_hybrid", "magnon_hybrid.cli"])
def test_import_loads_no_scipy(module):
    out = run_fresh(
        f"import sys, json, {module}\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m == 'scipy' or m.startswith('scipy.'))))")
    assert json.loads(out) == []


# each snippet sets ``result`` to a list of floats from a function whose
# scipy import is local to it
_SCIPY_USERS = {
    "extract_ridges": (
        "model = mh.build_n4(13.65, 0.155, 1.84, 12.0, photon_linewidth_ghz=(0.014, 0.022),\n"
        "                    magnon_linewidth_ghz=0.001)\n"
        "smap = mh.synth_map(model, mh.MagnonMode(28.0, 0.0, 0.001),\n"
        "                    np.linspace(0.42, 0.55, 6), np.linspace(10.0, 17.0, 400))\n"
        "pts = mh.extract_ridges(smap, 6.0, 3)\n"
        "result = [*pts.field_t, *pts.freq_ghz, *pts.prominence_db]\n"),
    "fit_line": (
        "f = np.linspace(12.9, 13.1, 81)\n"
        "y = 10.0 * np.log10(mh.lorentzian_value(f, mh.LorentzianLine(13.01, 0.02, 2.0)))\n"
        "line, q = mh.fit_line(f, y, 13.0, 0.2)\n"
        "result = [line.center_ghz, line.fwhm_ghz, line.amplitude, q]\n"),
    "fock_oracle": (
        "result = list(mh.fock_oracle(mh.build_n4(13.65, 0.155, 1.84, 12.0), 4))\n"),
    "estimate_coupling": (
        "ens = mh.SpinEnsemble(spin_density_per_m3=2.1e28, filling_factor=0.015)\n"
        "g = mh.estimate_coupling(ens, 13.65)\n"
        "result = [g, mh.estimate_filling(g, ens, 13.65)]\n"),
}


@pytest.mark.parametrize("name", sorted(_SCIPY_USERS))
def test_scipy_users_run_in_fresh_process(name):
    code = _SCIPY_USERS[name]
    out = run_fresh("import json\nimport numpy as np\nimport magnon_hybrid as mh\n"
                    + code + "print(json.dumps([float(v) for v in result]))")
    fresh = json.loads(out)
    scope = {}
    exec("import numpy as np\nimport magnon_hybrid as mh\n" + code, scope)
    assert len(fresh) > 0
    assert fresh == [float(v) for v in scope["result"]]
