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
    # an escalation stage keeps probes whose direction an earlier probe has
    "escalation-keeps-repeats": (
        "localcert.py",
        "            if key not in seen:\n",
        "            if True:\n",
        ["tests/test_localcert.py::test_escalation_draws_each_stage_within_the_budget"],
    ),
    # an escalation stage feeds one probe past the budget
    "escalation-budget-off-by-one": (
        "localcert.py",
        "            if len(labels) == budget:\n",
        "            if len(labels) == budget + 1:\n",
        ["tests/test_localcert.py::test_escalation_draws_each_stage_within_the_budget",
         "tests/test_cli.py::test_golden_inconclusive_certify_report"],
    ),
    # [j, i] = +[i, j] when either row is odd, not only when both are
    "mirror-sign-or": (
        "families.py",
        "            if not (parity[i] and parity[j]):\n",
        "            if not (parity[i] or parity[j]):\n",
        ["tests/test_families.py::test_table_is_closed_under_swap_with_the_super_sign",
         "tests/test_liesuper.py::test_check_axioms_passes"],
    ),
    # the Jacobi scan drops the triples (g, j, j) for an odd j
    "jacobi-scan-drops-odd-self-pairs": (
        "liesuper.py",
        "(i, j, range(j + 1 - parity[j], dim))",
        "(i, j, range(j + 1, dim))",
        ["tests/test_liesuper.py::test_halved_scan_catches_odd_self_bracket_faults",
         "tests/test_liesuper.py::test_odd_self_bracket_fault_seen_only_at_y_y_y"],
    ),
    # a block equals ad L'_s when the dimensions agree, contained or not
    "blocks-equal-ad-by-dimension": (
        "derivations.py",
        "    return not any(\n        vec_dot(row, ad_row)",
        "    return True or any(\n        vec_dot(row, ad_row)",
        ["tests/test_localcert.py::test_matches_ad_checks_containment_not_only_dimension",
         "tests/test_derivations.py::test_guard_failure_cuts_every_row"],
    ),
    # separating_t returns t = 2 without checking any weight
    "separating-t-first-t": (
        "localcert.py",
        "        if all(values):\n",
        "        if True:\n",
        ["tests/test_localcert.py::test_separating_t_s4_needs_three",
         "tests/test_cli.py::test_golden_certify_report"],
    ),
    # the engine skips a block it has met before, whatever the probe's key
    "last-key-skip-on-any-key": (
        "localcert.py",
        "                if key == last.get(shift):\n",
        "                if shift in last:\n",
        ["tests/test_localcert.py::test_skips_keep_the_rows_of_every_probe_on_open_blocks",
         "tests/test_localcert.py::test_memo_holds_one_key_per_open_block"],
    ),
    # the dominance filter takes ad h as diagonal without looking
    "dominance-skips-diagonal-check": (
        "derivations.py",
        "            if len(hx) != (m != 0):\n",
        "            if False:\n",
        ["tests/test_derivations.py::test_off_diagonal_h_is_refused"],
    ),
    # the dominance filter keeps the first mu it meets at each weight
    "dominance-skips-one-mu-per-weight": (
        "derivations.py",
        "if mu.setdefault(A.weight[x], tuple(at_x)) != tuple(at_x):",
        "if mu.setdefault(A.weight[x], tuple(at_x)) is None:",
        ["tests/test_derivations.py::test_one_wrong_sign_is_refused_and_every_block_solved",
         "tests/test_localcert.py::test_certify_solves_every_block_when_a_root_is_refused"],
    ),
    # the dominance filter takes mu as linear in the weight without looking
    "dominance-skips-linearity-check": (
        "derivations.py",
        "    if len(weights.rows) != len(with_mu.rows):\n",
        "    if False:\n",
        ["tests/test_derivations.py::test_one_wrong_sign_is_refused_and_every_block_solved"],
    ),
    # the Leibniz term [D(i), j] with the opposite sign
    "leibniz-second-term-sign": (
        "derivations.py",
        "s = 1 if third and odd_i and shift[0] % 2 else -1",
        "s = (1 if odd_i and shift[0] % 2 else -1) if third else 1",
        ["tests/test_derivations.py::test_leibniz_rows_are_the_brute_force_rows",
         "tests/test_derivations.py::test_derivation_report_payload"],
    ),
    # the bracket of vectors keeps a table entry's stored 0 as a term
    "bracket-keeps-stored-zeros": (
        "liesuper.py",
        "        return {k: c for k, c in out.items() if c} if 0 in out.values() else out\n",
        "        return out\n",
        ["tests/test_liesuper.py::test_a_stored_zero_is_no_bracket_term"],
    ),
    # the integer pivot loop stops at a stored 0 as at a new lead
    "int-reduce-stops-at-a-zero-lead": (
        "linalg.py",
        "            if v[lead]:\n                break\n",
        "            if True:\n                break\n",
        ["tests/test_linalg.py::test_integer_eliminations_drop_stored_zeros",
         "tests/test_liesuper.py::test_stored_zeros_change_no_generating_set_or_axiom_report"],
    ),
    # express returns what it read at the homes, whatever is left over
    "express-skips-the-remainder": (
        "linalg.py",
        "        return None if any(rest.values()) else coords\n",
        "        return coords\n",
        ["tests/test_families.py::test_constructor_refuses_a_chain_outside_the_rows",
         "tests/test_linalg.py::test_span_solver_agrees_with_solve"],
    ),
    # a row's home may be a column that other rows touch too
    "home-on-a-shared-column": (
        "linalg.py",
        "                if seen[h] == 1:\n",
        "                if seen[h] >= 1:\n",
        ["tests/test_families.py::test_span_solver_homes_skip_a_shared_column",
         "tests/test_linalg.py::test_span_solver_agrees_with_solve"],
    ),
    # the Cartan chain taken to lie in the cell without looking
    "chain-in-cell-unchecked": (
        "families.py",
        "    inside = {k for coords in chain_model for k in coords}.issubset(cartan)\n",
        "    inside = True\n",
        ["tests/test_families.py::test_constructor_refuses_a_chain_on_rows_outside_the_cell"],
    ),
    # the constructor takes the basis rows as independent without looking
    "basis-rows-unchecked": (
        "families.py",
        "    if not all(kern.cut(row) for row in rows):\n",
        "    if False:\n",
        ["tests/test_families.py::test_constructor_refuses_dependent_rows"],
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
