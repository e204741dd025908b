"""Every demo script runs to completion against the package in src/, and its
stdout is pinned by one sha256, so a change that moves a byte of a demo's
output fails here."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

STDOUT_DIGESTS = {
    "01_hom_ext_basics.py": "3311cb48e66b07fa8b5e2c7b1d8c74ff2333f15caa0de4b12aaaaafe763df792",
    "02_point_counting.py": "9204a69b4851c19daaaa418a2cb1c6696a066eab6823d8496da433f8beb39551",
    "03_flag_degenerations.py":
        "8a063a01434d40cadf16498e7e04193cde9a2dd6871d100c0d51e987d0706456",
    "04_ar_quiver.py": "a3b08a59e64b98e90870435de28db2934c99ac23a76fde1d801505ae6f897b5a",
    "05_cluster_characters.py":
        "36065b1d4b0339487bc5a85273f8c1c0c4c3c4cb309bc24dca533cc3040fb99a",
    "06_elliptic_curve.py": "878dde0ee29ad8d37fa9731a99ff93595f3d76223651f0f4f4b55d711740d2d2",
}


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")),
                         ids=lambda path: path.name)
def test_demo_exits_0(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == STDOUT_DIGESTS[demo.name]
