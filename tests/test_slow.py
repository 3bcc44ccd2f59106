"""Far tier: `check` and `certify` end to end on the largest models.

These take minutes and are deselected by default; run them with

    PYTHONPATH=src python -m pytest -m slow
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.slow


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "cartansuper.cli", *args],
                          capture_output=True, text=True, timeout=1800)


def check_json(family, n, *extra):
    res = run_cli("check", "--family", family, "--n", str(n), "--format", "json", *extra)
    return res.returncode, res.stdout


def test_check_h7_does_not_depend_on_the_seed():
    # H(7) is above the size where `check` used to sample Jacobi triples
    rc0, out0 = check_json("H", 7, "--seed", "0")
    rc1, out1 = check_json("H", 7, "--seed", "1")
    assert rc0 == rc1 == 0
    assert out0 == out1
    assert json.loads(out0)["axioms_ok"] is True


@pytest.mark.parametrize("family, n, dim", [("Stilde", 6, 321), ("H", 8, 256), ("W", 6, 384)])
def test_check_far_models(family, n, dim):
    rc, out = check_json(family, n)
    assert rc == 0
    payload = json.loads(out)
    assert payload["axioms_ok"] is True
    assert payload["lemma_der_holds"] is True
    assert payload["dim_Der"] == payload["dim_Lprime"] == dim


# certify reports that must stay byte-identical: probe labels, dim_C and
# both verdicts
CERTIFY_GOLDEN = {("Stilde", 6): "certify_stilde6.json"}


@pytest.mark.parametrize("family, n", [("H", 8), ("W", 6), ("Stilde", 6)])
def test_certify_far_models(family, n):
    res = run_cli("certify", "--family", family, "--n", str(n), "--format", "json", "--seed", "0")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["verdict"] == "CERTIFIED"
    assert payload["twolocal_verdict"] == "CERTIFIED"
    golden = CERTIFY_GOLDEN.get((family, n))
    if golden is not None:
        assert res.stdout == (Path(__file__).parent / "golden" / golden).read_text()
