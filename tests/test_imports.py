"""The package's import footprint."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import bregman_consensus
from bregman_consensus.cli import main
from bregman_consensus.ensemble_inputs import save_matrix_csv, save_similarity_triplets

from conftest import random_pi, random_similarity


def _fresh_env():
    src = os.path.dirname(os.path.dirname(os.path.abspath(bregman_consensus.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_import_loads_no_scipy():
    # only the stored-pair operator needs scipy, and it imports it on first
    # build: importing scipy.sparse alone nearly doubles the resident size of
    # a bare import
    code = ("import sys, bregman_consensus; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=_fresh_env(), check=True)
    assert out.stdout.strip() == "[]"


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("data")
    assert main(["generate", "--kind", "half-moon", "--n", "80", "--seed", "1",
                 "--out-dir", str(d)]) == 0
    rng = np.random.default_rng(1)
    save_matrix_csv(d / "pi_stored.csv", random_pi("gen-i", rng, 30, 3))
    save_similarity_triplets(d / "similarity.txt", random_similarity(rng, 30))
    return d


@pytest.mark.parametrize("command, loads", [
    ("generate", False),
    ("run --partitions", False),
    ("diagnose --partitions", False),
    ("run --similarity", True),
])
def test_only_stored_pairs_load_scipy(data_dir, tmp_path, command, loads):
    # a partition input or generate that imported scipy.sparse would pay
    # about 0.2 s and 20 MB for nothing
    name, *source = command.split()
    argv = {
        "generate": ["generate", "--kind", "circles", "--n", "40", "--out-dir", str(tmp_path)],
        "run": ["run", "--labels-out", str(tmp_path / "labels.csv")],
        "diagnose": ["diagnose", "--report-out", str(tmp_path / "report.txt")],
    }[name]
    if source == ["--partitions"]:
        argv += ["--pi", str(data_dir / "pi.csv"), "--partitions",
                 str(data_dir / "partitions.csv")]
    elif source:
        argv += ["--pi", str(data_dir / "pi_stored.csv"), "--similarity",
                 str(data_dir / "similarity.txt")]
    code = ("import json, sys; from bregman_consensus.cli import main; "
            f"code = main({argv!r}); print(json.dumps([code, sorted("
            "m for m in sys.modules if m.split('.')[0] == 'scipy')]))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=_fresh_env(), check=True)
    code, scipy_modules = json.loads(out.stdout.splitlines()[-1])
    assert code in (0, 3)  # 3: the iteration cap, with outputs written
    assert bool(scipy_modules) == loads, scipy_modules
