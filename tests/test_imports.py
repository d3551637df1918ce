"""Start-up cost: importing the package, running any command and extracting
ridges load numpy and no scipy module.

scipy is imported inside the two functions that use it, ``fit_line`` and
``fock_oracle``.  The pytest process has scipy loaded already, so every check
runs in a fresh interpreter with ``PYTHONPATH`` set to the checkout's ``src``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
_LOADED_SCIPY = (
    "print(json.dumps(sorted(m for m in sys.modules\n"
    "                        if m == 'scipy' or m.startswith('scipy.'))))")


def run_fresh(code: str, cwd=None) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=300, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("module", ["magnon_hybrid", "magnon_hybrid.cli"])
def test_import_loads_no_scipy(module):
    out = run_fresh(f"import sys, json, {module}\n" + _LOADED_SCIPY)
    assert json.loads(out) == []


def test_commands_and_ridges_load_no_scipy(tmp_path):
    # fit_n4 names its data file relative to the repository root
    out = run_fresh(
        "import sys, json\n"
        "from magnon_hybrid import extract_ridges\n"
        "from magnon_hybrid.cli import main\n"
        "from magnon_hybrid.spectra import SpectralMap\n"
        f"out = {str(tmp_path)!r}\n"
        "for command, config in [('modes', 'modes_ring4'), ('estimate', 'estimate_yig'),\n"
        "                        ('sweep', 'sweep_n4'), ('synth', 'synth_n4'),\n"
        "                        ('fit', 'fit_n4')]:\n"
        "    assert main([command, '--config', f'configs/{config}.json',\n"
        "                 '--out', f'{out}/{config}']) == 0\n"
        "points = extract_ridges(SpectralMap.from_csv(f'{out}/synth_n4/map.csv'), 6.0, 3)\n"
        "assert len(points) > 0\n" + _LOADED_SCIPY, cwd=ROOT)
    assert json.loads(out.splitlines()[-1]) == []   # after the commands' own output


# each snippet sets ``result`` to a list of floats; a fresh interpreter must
# give the same floats as this one.  ``fit_line`` and ``fock_oracle`` import
# scipy locally; the ridge extractor and the coupling estimators, which once
# did too, must now run without loading any scipy module.
_SCIPY_USERS = {
    "fit_line": (
        "f = np.linspace(12.9, 13.1, 81)\n"
        "y = 10.0 * np.log10(mh.lorentzian_value(f, mh.LorentzianLine(13.01, 0.02, 2.0)))\n"
        "line, q = mh.fit_line(f, y, 13.0, 0.2)\n"
        "result = [line.center_ghz, line.fwhm_ghz, line.amplitude, q]\n"),
    "fock_oracle": (
        "result = list(mh.fock_oracle(mh.build_n4(13.65, 0.155, 1.84, 12.0), 4))\n"),
}
_FORMER_SCIPY_USERS = {
    "extract_ridges": (
        "model = mh.build_n4(13.65, 0.155, 1.84, 12.0, photon_linewidth_ghz=(0.014, 0.022),\n"
        "                    magnon_linewidth_ghz=0.001)\n"
        "smap = mh.synth_map(model, mh.MagnonMode(28.0, 0.0, 0.001),\n"
        "                    np.linspace(0.42, 0.55, 6), np.linspace(10.0, 17.0, 400))\n"
        "pts = mh.extract_ridges(smap, 6.0, 3)\n"
        "result = [*pts.field_t, *pts.freq_ghz, *pts.prominence_db]\n"),
    "estimate_coupling": (
        "ens = mh.SpinEnsemble(spin_density_per_m3=2.1e28, filling_factor=0.015)\n"
        "g = mh.estimate_coupling(ens, 13.65)\n"
        "result = [g, mh.estimate_filling(g, ens, 13.65)]\n"),
}


@pytest.mark.parametrize("name", sorted({**_SCIPY_USERS, **_FORMER_SCIPY_USERS}))
def test_scipy_users_run_in_fresh_process(name):
    code = {**_SCIPY_USERS, **_FORMER_SCIPY_USERS}[name]
    out = run_fresh("import sys, json\nimport numpy as np\nimport magnon_hybrid as mh\n"
                    + code + "print(json.dumps([float(v) for v in result]))\n"
                    + _LOADED_SCIPY)
    result_line, scipy_line = out.splitlines()
    fresh = json.loads(result_line)
    scope = {}
    exec("import numpy as np\nimport magnon_hybrid as mh\n" + code, scope)
    assert len(fresh) > 0
    assert fresh == [float(v) for v in scope["result"]]
    if name in _FORMER_SCIPY_USERS:
        assert json.loads(scipy_line) == []
