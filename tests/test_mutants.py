"""Mutation gate: planted defects that named tier-1 tests must catch.

Each mutant is (file, old text, new text, test ids).  The test copies
src/ under tmp_path, replaces the old text, which must occur exactly once
in the file, by the new one, and runs the named tests in a subprocess with
PYTHONPATH pointing at the copy; at least one of them must fail.  A
refactor that moves or rewrites a mutated text fails here loudly, and the
mutant is then to be written against the new text.  Slow tier:

    PYTHONPATH=src python -m pytest -m slow tests/test_mutants.py
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.slow

ROOT = Path(__file__).resolve().parent.parent

MUTANTS = {
    # the dominant-first policy never runs again on every block
    "solve-skips-every-block-run": (
        "derivations.py",
        "        if not got[1] and got[0].reduced():\n",
        "        if False:\n",
        ["tests/test_localcert.py::test_reduced_inconclusive_reports_what_the_full_run_reports",
         "tests/test_derivations.py::test_lemma_fails_when_lprime_is_only_l"],
    ),
    # a block with lambda_s(h) = 0 for some root is no longer dominant
    "dominance-strict": (
        "derivations.py",
        "return all(cr * (x - y) >= 0 for cr, x, y in zip(c, ma, mb))",
        "return all(cr * (x - y) > 0 for cr, x, y in zip(c, ma, mb))",
        ["tests/test_derivations.py::test_dominant_blocks_of_w_have_non_increasing_weights",
         "tests/test_derivations.py::test_dominance_read_from_one_pair_matches_every_pair"],
    ),
    # check stops each block at dim ad L'_s without ad L' known to lie in Der L
    "ad-target-without-guard": (
        "derivations.py",
        "core = BlockKernels(ctx.blocks, P, solved, outer_ok)",
        "core = BlockKernels(ctx.blocks, P, solved, True)",
        ["tests/test_derivations.py::test_guard_failure_keeps_dim_der_exact_above_the_target",
         "tests/test_derivations.py::test_guard_failure_cuts_every_row"],
    ),
    # certify reports dim ad L' for a run on every block too
    "certify-ad-rank-unreduced": (
        "localcert.py",
        "    if engine.reduced():\n",
        "    if True:\n",
        ["tests/test_localcert.py::test_certify_insufficient_budget_is_inconclusive",
         "tests/test_cli.py::test_golden_inconclusive_certify_report"],
    ),
    # the Leibniz term [i, D(j)] with the opposite sign
    "leibniz-third-term-sign": (
        "derivations.py",
        "s = 1 if third and odd_i and shift[0] % 2 else -1",
        "s = (-1 if odd_i and shift[0] % 2 else 1) if third else -1",
        ["tests/test_derivations.py::test_leibniz_rows_are_the_brute_force_rows",
         "tests/test_derivations.py::test_blocks_solve_on_generators"],
    ),
    # H(4), whose Der L exceeds ad L', admitted
    "validate-admits-h4": (
        "families.py",
        'if f == "H" and n <= 4:',
        'if f == "H" and n < 4:',
        ["tests/test_families.py::test_family_spec_rejections",
         "tests/test_families.py::test_every_admitted_model_has_a_passing_check_golden"],
    ),
}


@pytest.mark.parametrize("name", list(MUTANTS))
def test_mutant_fails_a_named_test(name, tmp_path):
    file, old, new, tests = MUTANTS[name]
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    path = src / "cartansuper" / file
    text = path.read_text()
    assert text.count(old) == 1, f"{name}: {old!r} occurs {text.count(old)} times in {file}"
    path.write_text(text.replace(old, new))
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    where = subprocess.run(
        [sys.executable, "-c", "import cartansuper; print(cartansuper.__file__)"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert Path(where.stdout.strip()).parent == src / "cartansuper", where.stderr
    res = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        capture_output=True, text=True, cwd=ROOT, env=env, timeout=900,
    )
    # exit code 1: tests ran and one failed (not 0, and not a usage error,
    # a missing test id or no test collected)
    assert res.returncode == 1, f"{name} survived:\n{res.stdout[-3000:]}{res.stderr[-2000:]}"
