"""Algebra container: bracket table, axioms, bigrading, serialization."""

import copy
import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cartansuper.derivations import BlockSystem, ProofContext, derivation_report, dominant_blocks
from cartansuper.families import (
    FamilyError,
    FamilySpec,
    LPrimeModel,
    build,
    build_lprime,
    model_from_json,
)
from cartansuper.liesuper import (
    AlgebraModel,
    Combo,
    GradingElement,
    Ham,
    ModelFormatError,
    VectorField,
    ad_matrix,
    check_axioms,
    first_difference,
    generators,
    head_difference,
    jacobi_violation,
    model_to_json,
)
from cartansuper.localcert import certify

SRC = Path(__file__).resolve().parent.parent / "src"
DESK = [("W", 4), ("S", 4), ("Stilde", 4), ("H", 5), ("H", 6)]


@pytest.fixture(scope="module")
def W4():
    return build("W", 4)


@pytest.fixture(scope="module")
def H5():
    return build("H", 5)


def halved(A):
    """The (y, z) a proving Jacobi scan visits per x: y < z, and y = z odd."""
    return A.dim * (A.dim - 1) // 2 + sum(A.parity)


def halved_groups(A, xs):
    """The groups (x, y, zs) of a proving scan over the x in xs."""
    return ((x, y, range(y + 1 - A.parity[y], A.dim)) for x in xs for y in range(A.dim))


def unit(A, desc_str):
    for i, d in enumerate(A.basis):
        if str(d) == desc_str:
            return {i: Fraction(1)}
    raise AssertionError(f"no basis element {desc_str}")


def test_bracket_d1_x1d2(W4):
    out = W4.bracket(unit(W4, "1*d1"), unit(W4, "x1*d2"))
    assert out == unit(W4, "1*d2")


def test_bracket_weight_one(W4):
    out = W4.bracket(unit(W4, "x1*d1"), unit(W4, "x1*d2"))
    assert out == unit(W4, "x1*d2")


def test_bracket_constant_fields_commute(W4):
    assert W4.bracket(unit(W4, "1*d1"), unit(W4, "1*d2")) == {}


def test_ad_matrix_zero(W4):
    assert ad_matrix(W4, {}).data == {}


def test_ad_matrix_cartan_is_diagonal_of_weights(W4):
    h1 = unit(W4, "x1*d1")
    m = ad_matrix(W4, h1)
    for b in range(W4.dim):
        col = {a: row[b] for a, row in m.data.items() if b in row}
        lam = W4.weight[b][0]
        expect = {b: Fraction(lam)} if lam else {}
        assert col == expect


def test_ad_matrix_grading_element_is_degree_diagonal():
    # oracle: bracket the Euler field with every basis vector by brute force
    from cartansuper.families import build_lprime

    S4 = build("S", 4)
    P = build_lprime(S4)
    c_idx = P.ext.dim - 1
    assert str(P.ext.basis[c_idx]) == "C"
    m = ad_matrix(P.ext, {c_idx: Fraction(1)}, restrict=S4.dim)
    for b in range(S4.dim):
        brute = P.ext.bracket({c_idx: Fraction(1)}, {b: Fraction(1)})
        expect = {b: Fraction(S4.degree[b])} if S4.degree[b] else {}
        assert brute == expect
        col = {a: row[b] for a, row in m.data.items() if b in row}
        assert col == expect


def test_check_axioms_passes(W4, H5):
    assert check_axioms(W4).ok
    assert check_axioms(H5).ok


def test_check_axioms_detects_fault_injection(W4):
    broken = copy.copy(W4)
    broken.table = dict(W4.table)
    key = next(k for k, v in W4.table.items() if v)
    broken.table[key] = {i: -c for i, c in W4.table[key].items()}
    rep = check_axioms(broken)
    assert not rep.ok
    assert rep.first_violation is not None


def test_parity_additivity_is_checked():
    # [e0, e1] = e2 with e0 even and e1 odd, so e2 must be odd.  Every other
    # bracket vanishes and e2 is central, so only its parity label is wrong.
    def model(parity):
        one = Fraction(1)
        table = {(0, 1): {2: one}, (1, 0): {2: -one}}
        return AlgebraModel("W", 1, ["e0", "e1", "e2"], table, parity,
                            [0, 0, 0], [(), (), ()], [])

    rep = check_axioms(model([0, 1, 0]))
    assert not rep.ok
    assert rep.first_violation == "parity additivity fails at pair (0,1)"
    assert check_axioms(model([0, 1, 1])).ok


def passes_pair_scan(rep):
    """Whether an axiom report got past the pair scan: it is ok, or its
    first violation is a Jacobi triple."""
    return rep.ok or rep.first_violation.startswith("Jacobi fails at triple")


def pair_scan_oracle(A):
    """The first pair fault over all dim(dim+1)/2 pairs (i, j), i <= j, in
    row-major order, and the number of pairs up to it: the scan over every
    pair, zero brackets included."""
    pairs = 0
    for i in range(A.dim):
        for j in range(i, A.dim):
            pairs += 1
            w = A.bracket_basis(i, j)
            sign = 1 if A.parity[i] * A.parity[j] % 2 else -1
            if A.bracket_basis(j, i) != {k: sign * c for k, c in w.items()}:
                return f"anticommutativity fails at pair ({i},{j})", pairs
            for k in w:
                if A.degree[k] != A.deg_add(A.degree[i], A.degree[j]):
                    return f"degree additivity fails at pair ({i},{j})", pairs
                if A.weight[k] != tuple(map(sum, zip(A.weight[i], A.weight[j]))):
                    return f"weight additivity fails at pair ({i},{j})", pairs
                if A.parity[k] != (A.parity[i] + A.parity[j]) % 2:
                    return f"parity additivity fails at pair ({i},{j})", pairs
    return None, pairs


@pytest.mark.parametrize("spec", DESK)
def test_pair_scan_names_each_planted_fault(spec):
    # the scan walks the table's keys: a missing mirror, a wrong sign on an
    # odd-odd pair and a lone entry below the diagonal are each named at
    # (min, max), and together the first of them in row-major order is
    A = build(*spec)
    rng = random.Random(19)
    upper = sorted(key for key in A.table if key[0] < key[1])
    zeros = [(i, j) for i in range(A.dim) for j in range(i + 1, A.dim)
             if (i, j) not in A.table]
    odd = [(i, j) for i, j in upper if A.parity[i] and A.parity[j]]
    missing, flipped, lone = rng.choice(upper), rng.choice(odd), rng.choice(zeros)
    faults = {
        missing: lambda t: t.pop(missing[::-1]),
        flipped: lambda t: t.update({flipped[::-1]: {k: -c for k, c in t[flipped].items()}}),
        lone: lambda t: t.update({lone[::-1]: {0: 1}}),
    }
    assert len(faults) == 3
    for pair, plant in faults.items():
        B = edited(A, {})
        plant(B.table)
        rep = check_axioms(B)
        assert rep.first_violation == "anticommutativity fails at pair ({},{})".format(*pair)
        assert (rep.first_violation, rep.pairs_checked) == pair_scan_oracle(B)
    B = edited(A, {})
    for plant in faults.values():
        plant(B.table)
    rep = check_axioms(B)
    assert rep.first_violation == "anticommutativity fails at pair ({},{})".format(*min(faults))
    assert (rep.first_violation, rep.pairs_checked) == pair_scan_oracle(B)
    # a term of the wrong degree in both orders, under the super sign
    i, j = rng.choice(upper)
    k = next(k for k in range(A.dim) if A.degree[k] != A.deg_add(A.degree[i], A.degree[j]))
    sign = 1 if A.parity[i] and A.parity[j] else -1
    w = {**A.table[(i, j)], k: 1}
    B = edited(A, {(i, j): w, (j, i): {m: sign * c for m, c in w.items()}})
    rep = check_axioms(B)
    assert rep.first_violation == f"degree additivity fails at pair ({i},{j})"
    assert (rep.first_violation, rep.pairs_checked) == pair_scan_oracle(B)
    assert (None, A.dim * (A.dim + 1) // 2) == pair_scan_oracle(A)
    assert check_axioms(A).pairs_checked == A.dim * (A.dim + 1) // 2


@pytest.mark.parametrize("spec, size", [
    (("W", 4), 8), (("S", 4), 8), (("Stilde", 4), 4), (("H", 5), 7), (("H", 6), 8),
])
def test_generators_of_desk_models(spec, size):
    # candidates lowest degree first, then from the highest degree down,
    # each degree by index
    A = build(*spec)
    G = generators(A)
    assert len(G) == size
    low = min(A.degree)
    assert G == sorted(G, key=lambda i: (A.degree[i] != low, -A.degree[i], i))
    assert A.degree[G[0]] == low
    # the chosen set is a generating set in its own right
    assert generators(A, G) == G
    rep = check_axioms(A, generating_set=G)
    assert rep.ok
    assert rep.triples_checked == size * halved(A)


def test_non_generating_set_is_refused(W4, H5):
    for A in (W4, H5):
        negative = [i for i in range(A.dim) if A.degree[i] == -1]
        assert generators(A, negative) is None
    negative = [i for i in range(H5.dim) if H5.degree[i] == -1]
    rep = check_axioms(H5, generating_set=negative)
    assert rep.ok
    assert rep.triples_checked == H5.dim * halved(H5)  # the full scan ran instead


def test_generator_mode_catches_jacobi_only_faults(W4):
    # scaling both orders of one bracket keeps anticommutativity and the
    # gradings, so only Jacobi can see the edit
    rng = random.Random(5)
    keys = sorted((i, j) for (i, j), w in W4.table.items() if i < j and w)
    for i, j in rng.sample(keys, 8):
        broken = copy.copy(W4)
        broken.table = dict(W4.table)
        for key in ((i, j), (j, i)):
            broken.table[key] = {k: 2 * c for k, c in W4.table[key].items()}
        full = check_axioms(broken)
        assert passes_pair_scan(full)
        G = generators(broken)
        rep = check_axioms(broken, generating_set=G)
        assert not rep.ok, (i, j)
        g = int(rep.first_violation.split("(")[1].split(",")[0])
        assert g in G
        assert not full.ok  # the full scan agrees


def test_jacobi_is_checked_on_fractional_structure_constants(H5):
    # [x, y]' = [x, y] / 3 is isomorphic to H(5) through x -> x / 3; the
    # Jacobi scans read the table as it is, Fractions included.  The
    # isomorphism also keeps the closure under ad G, so G is taken from the
    # integer table, and the generator-mode scan is run on its triples
    # (g, y, z), y < z or y = z odd, as `check_axioms` runs it
    third = copy.copy(H5)
    third.table = {
        key: {k: Fraction(c, 3) for k, c in w.items()} for key, w in H5.table.items()
    }
    G = generators(H5)
    assert check_axioms(third).ok
    assert jacobi_violation(third, halved_groups(third, G))[1] is None
    key = min(k for k, w in third.table.items() if w)
    third.table[key] = {k: c / 2 for k, c in third.table[key].items()}
    third.table[key[::-1]] = {k: c / 2 for k, c in third.table[key[::-1]].items()}
    assert not check_axioms(third).ok
    assert jacobi_violation(third, halved_groups(third, G))[1] is not None


def jacobi_fails(A, x, y, z):
    """Whether Jacobi fails at the basis triple (x, y, z), computed through
    the bilinear bracket, with no row index and no skipped triple."""
    s = -1 if A.parity[x] and A.parity[y] else 1
    lhs = A.bracket({x: 1}, A.bracket_basis(y, z))
    rhs = A.bracket(A.bracket_basis(x, y), {z: 1})
    for k, c in A.bracket({y: 1}, A.bracket_basis(x, z)).items():
        rhs[k] = rhs.get(k, 0) + s * c
    return {k: c for k, c in lhs.items() if c} != {k: c for k, c in rhs.items() if c}


def jacobi_oracle(A, G):
    """Jacobi on every triple of G x L x L, one triple at a time, with no
    halving."""
    return not any(
        jacobi_fails(A, x, y, z) for x in G for y in range(A.dim) for z in range(A.dim)
    )


def scan_oracle(A, xs):
    """The report of a proving scan over the x in xs, for a table whose
    pair scan passes, one triple at a time: every triple (x, y, z) with
    y < z, or y = z odd, in that order, up to the first at which Jacobi
    fails."""
    pairs, count = A.dim * (A.dim + 1) // 2, 0
    for x in xs:
        for y in range(A.dim):
            for z in range(y + 1 - A.parity[y], A.dim):
                count += 1
                if jacobi_fails(A, x, y, z):
                    return {"ok": False, "pairs_checked": pairs, "triples_checked": count,
                            "first_violation": f"Jacobi fails at triple ({x},{y},{z})"}
    return {"ok": True, "pairs_checked": pairs, "triples_checked": count,
            "first_violation": None}


def edited(A, entries):
    """A copy of A whose table has the given entries replaced."""
    B = copy.copy(A)
    B.table = {**A.table, **entries}
    return B


def run_fresh(code, timeout=30):
    """The stdout of Python code run in a fresh interpreter on this tree's
    package; past timeout seconds the run is killed and the test fails."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=timeout)
    assert res.returncode == 0, res.stderr
    return res.stdout


def with_stored_zeros(A, j, k):
    """A with a stored 0 at a basis vector t of the cell of [j, k], in both
    [j, k] and [k, j]: the same bracket, one more table entry or term."""
    cell = (A.deg_add(A.degree[j], A.degree[k]),
            tuple(a + b for a, b in zip(A.weight[j], A.weight[k])))
    parity = (A.parity[j] + A.parity[k]) % 2
    jk = A.bracket_basis(j, k)
    t = next((t for t in range(A.dim)
              if A.cell_of(t) == cell and A.parity[t] == parity and t not in jk), None)
    if t is None:
        return None
    return edited(A, {(j, k): {**jk, t: 0}, (k, j): {**A.bracket_basis(k, j), t: 0}})


def test_stored_zeros_change_no_generating_set_or_axiom_report(H5):
    # a zero entry of a bracket is no bracket term: the closure kernel must
    # not count it as rank, nor a nonzero entry's stored 0 as a lead, and
    # check and certify, run with the same stored 0 in L' too, must give
    # H(5)'s reports (the integer eliminations drop a 0 they meet)
    G = generators(H5)
    report = check_axioms(H5, generating_set=range(H5.dim)).as_dict()
    P = build_lprime(H5)
    der = derivation_report(ProofContext(P)).as_dict()
    cert = certify(ProofContext(P)).as_dict()
    edits = 0
    for j in range(H5.dim):
        for k in range(j + 1, H5.dim):
            B = with_stored_zeros(H5, j, k)
            if B is None:
                continue
            edits += 1
            assert generators(B) == G, (j, k)
            assert check_axioms(B, generating_set=range(H5.dim)).as_dict() == report, (j, k)
            ext = edited(P.ext, {key: B.table[key] for key in ((j, k), (k, j))})
            Q = LPrimeModel(B, ext, P.extra)
            assert derivation_report(ProofContext(Q)).as_dict() == der, (j, k)
            assert certify(ProofContext(Q)).as_dict() == cert, (j, k)
    assert edits == 60


@pytest.mark.parametrize("spec, placements", [(("H", 5), 60), (("W", 4), 502)])
def test_a_stored_zero_is_no_bracket_term(spec, placements):
    # the one bracket of vectors drops an entry's stored 0: `ad_matrix`
    # builds a Matrix, which holds no zero, and the dominance filter reads
    # each [h, x] as on the clean table, so it keeps the clean blocks
    A = build(*spec)
    blocks = BlockSystem(A)
    dominant = dominant_blocks(blocks)
    edits = 0
    for j in range(A.dim):
        for k in range(j + 1, A.dim):
            B = with_stored_zeros(A, j, k)
            if B is None:
                continue
            edits += 1
            assert B.bracket({j: 1}, {k: 1}) == A.bracket({j: 1}, {k: 1}), (j, k)
            assert ad_matrix(B, {j: 1}) == ad_matrix(A, {j: 1}), (j, k)
            seen = copy.copy(blocks)
            seen.A = B
            assert dominant_blocks(seen) == dominant, (j, k)
    assert edits == placements


def test_orbits_through_a_stored_zero_are_the_clean_ones():
    # orbit({0: 1}) on W(4) with a stored 0 in [0, k], at each of the 24
    # pairs (0, k) that take one; a 0 read as a lead made the Fraction
    # echelon loop for ever, so the orbits run in a fresh interpreter that
    # the timeout stops
    W4 = build("W", 4)
    edits = []
    for k in range(1, W4.dim):
        B = with_stored_zeros(W4, 0, k)
        if B is not None:
            edits.append({key: B.table[key] for key in ((0, k), (k, 0))})
    assert len(edits) == 24
    code = (
        "import copy\n"
        "from cartansuper.families import build, build_lprime\n"
        "from cartansuper.localcert import orbit\n"
        "A = build('W', 4)\n"
        "clean = orbit({0: 1}, build_lprime(A))\n"
        f"for entries in {edits!r}:\n"
        "    B = copy.copy(A)\n"
        "    B.table = {**A.table, **entries}\n"
        "    print(orbit({0: 1}, build_lprime(B)) == clean)\n"
    )
    out = run_fresh(code)
    assert out.split() == ["True"] * 24


def jacobi_only_fault(A, rng):
    """[j, k] and [k, j] for some j < k both moved by the same basis vector
    of their cell: anticommutativity and the gradings still hold."""
    while True:
        j, k = sorted(rng.sample(range(A.dim), 2))
        cell = (A.deg_add(A.degree[j], A.degree[k]),
                tuple(a + b for a, b in zip(A.weight[j], A.weight[k])))
        parity = (A.parity[j] + A.parity[k]) % 2
        targets = [t for t in range(A.dim) if A.cell_of(t) == cell and A.parity[t] == parity]
        if targets:
            break
    t = rng.choice(targets)
    sign = 1 if A.parity[j] and A.parity[k] else -1  # [k, j] = sign * [j, k]
    jk = dict(A.bracket_basis(j, k))
    jk[t] = jk.get(t, 0) + 1
    return j, k, edited(A, {(j, k): jk, (k, j): {m: sign * c for m, c in jk.items()}})


@pytest.mark.parametrize("spec", DESK)
def test_halved_scan_catches_faults_seen_at_j_above_k(spec):
    # a fault seen at (g, k, j), j < k, a triple the scan skips, is caught
    # through its mirror (g, j, k)
    A = build(*spec)
    rng = random.Random(16)
    caught = 0
    while caught < 2:
        j, k, B = jacobi_only_fault(A, rng)
        full = check_axioms(B)
        assert passes_pair_scan(full)
        G = generators(B)
        if not any(jacobi_violation(B, [(g, k, range(j, j + 1))])[1] for g in G):
            continue
        assert not check_axioms(B, generating_set=G).ok, (j, k)
        assert not full.ok, (j, k)
        caught += 1


def odd_self_bracket_faults(A):
    """(j, B) for each odd j of A that has an even t of twice its degree: B
    is a copy of A with t added to [j, j].  [j, j] is symmetric, so the pair
    scan cannot see the edit.  Twice the weight of an odd j is no weight of
    W, S or H, so B forgets the weights, which the Jacobi scan never reads."""
    A = edited(A, {})
    A.weight = [()] * A.dim
    for j in range(A.dim):
        if not A.parity[j]:
            continue
        cell = (A.deg_add(A.degree[j], A.degree[j]), ())
        t = next((t for t in range(A.dim) if A.cell_of(t) == cell and not A.parity[t]), None)
        if t is None:
            continue
        jj = dict(A.bracket_basis(j, j))
        jj[t] = jj.get(t, 0) + 1
        yield j, edited(A, {(j, j): jj})


@pytest.mark.parametrize("spec", DESK)
def test_halved_scan_catches_odd_self_bracket_faults(spec):
    # the triples (g, j, j) for an odd j stay in the scan
    planted = 0
    for j, B in odd_self_bracket_faults(build(*spec)):
        full = check_axioms(B)
        assert passes_pair_scan(full)
        G = generators(B)
        assert jacobi_violation(B, [(g, j, range(j, j + 1)) for g in G])[1] is not None
        assert not check_axioms(B, generating_set=G).ok, j
        assert not full.ok, j
        planted += 1
        if planted == 3:
            break
    assert planted == 3


def test_odd_self_bracket_fault_seen_only_at_y_y_y():
    # y odd, v even, w odd in degrees 1, 2, 3, with [y, v] = w: a Lie
    # superalgebra.  With [y, y] = v added, J(y, y, y) = 3 [y, v] = 3 w is
    # the only nonzero Jacobi value, at a triple with j = k.
    def model(yy):
        table = {(0, 1): {2: 1}, (1, 0): {2: -1}, (0, 0): yy}
        return AlgebraModel("W", 1, ["y", "v", "w"], table, [1, 0, 1],
                            [1, 2, 3], [(), (), ()], [])

    assert check_axioms(model({})).ok
    assert check_axioms(model({}), generating_set=[0, 1]).ok
    broken = model({1: 1})
    assert generators(broken) == [0]
    assert jacobi_oracle(broken, range(1, 3))
    assert jacobi_violation(broken, [(0, 0, range(1, 3)), (0, 1, range(3)), (0, 2, range(3))])[1] is None
    for rep in (check_axioms(broken, generating_set=[0]), check_axioms(broken)):
        assert rep.first_violation == "Jacobi fails at triple (0,0,0)"


@pytest.mark.parametrize("spec", DESK)
def test_halved_scan_agrees_with_the_per_triple_oracle(spec):
    # the whole report, the first violation and the triple count included,
    # in generator and full mode: on the model, on Jacobi-only faults (two
    # of them seen at a triple (g, k, j) with j < k, which the scan skips and
    # reaches through its mirror) and on odd [j, j] edits
    A = build(*spec)
    G = generators(A)
    assert jacobi_oracle(A, G)
    assert check_axioms(A, generating_set=G).as_dict() == scan_oracle(A, G)
    rng = random.Random(sum(map(ord, spec[0])) + spec[1])
    faults, above = [], 0
    while len(faults) < 8 or above < 2:
        j, k, B = jacobi_only_fault(A, rng)
        seen_above = any(jacobi_fails(B, g, k, j) for g in generators(B))
        if len(faults) < 8 or seen_above:
            faults.append(B)
            above += seen_above
    faults += [B for _, B in itertools.islice(odd_self_bracket_faults(A), 3)]
    for B in faults:
        G = generators(B)
        full = check_axioms(B)
        assert passes_pair_scan(full)
        assert check_axioms(B, generating_set=G).ok == jacobi_oracle(B, G)
        assert check_axioms(B, generating_set=G).as_dict() == scan_oracle(B, G)
        assert full.as_dict() == scan_oracle(B, range(B.dim))
        # these faults are first seen at x = G[0]; with G reversed, the
        # first failure is at another generator
        rep = scan_oracle(B, G[::-1])
        count, bad = jacobi_violation(B, halved_groups(B, G[::-1]))
        assert count == rep["triples_checked"]
        assert rep["first_violation"] == "Jacobi fails at triple ({},{},{})".format(*bad)


def test_bigrade_blocks_w4(W4):
    blocks = W4.cells()
    d1 = unit(W4, "1*d1")
    (idx,) = d1.keys()
    assert blocks[(-1, (-1, 0, 0, 0))] == [idx]
    theta = blocks[(0, (0, 0, 0, 0))]
    assert len(theta) == 4
    assert sorted(str(W4.basis[i]) for i in theta) == [
        "x1*d1",
        "x2*d2",
        "x3*d3",
        "x4*d4",
    ]
    assert sorted(i for cell in blocks.values() for i in cell) == list(range(W4.dim))


def test_bigrade_blocks_h5_cartan_cell(H5):
    blocks = H5.cells()
    assert len(blocks[(0, (0, 0))]) == 2


def test_bracket_maps_cells_additively(W4):
    blocks = W4.cells()
    cell_of = {i: key for key, cell in blocks.items() for i in cell}
    for (i, j), w in W4.table.items():
        di, wi = cell_of[i]
        dj, wj = cell_of[j]
        for k in w:
            dk, wk = cell_of[k]
            assert dk == di + dj
            assert wk == tuple(a + b for a, b in zip(wi, wj))


def test_serialization_round_trip_bit_exact():
    for spec in [("W", 4), ("S", 4), ("Stilde", 4), ("H", 5)]:
        A = build(*spec)
        text = model_to_json(A)
        B = model_from_json(text)
        assert model_to_json(B) == text
        assert B.table == A.table
        assert B.weight == A.weight
        assert B.cartan == A.cartan
        assert B.w_coords == A.w_coords
        assert B.cartan_chain == A.cartan_chain


# The value types are NamedTuples, not frozen dataclasses (see the basis
# descriptors in liesuper); these pin the semantics they must keep.
VALUES = {
    "VectorField": (lambda: VectorField(3, 1), "mono"),
    "Ham": (lambda: Ham(3), "mono"),
    "GradingElement": (lambda: GradingElement(), "mono"),
    "Combo": (lambda: Combo(((Fraction(1, 2), 3, 1), (-1, 1, 2))), "terms"),
    "FamilySpec": (lambda: FamilySpec("H", 5), "n"),
}


@pytest.mark.parametrize("kind", sorted(VALUES))
def test_value_types_are_immutable_values(kind):
    make, field = VALUES[kind]
    value, copy_ = make(), make()
    assert value == copy_
    assert hash(value) == hash(copy_)
    assert str(value) == str(copy_)
    with pytest.raises(AttributeError):
        setattr(value, field, 0)
    assert value == copy_


def test_descriptors_of_different_kinds_never_compare_equal():
    descs = [
        VectorField(3, 1), VectorField(1, 3), Ham(3), Ham(1), GradingElement(),
        Combo(((1, 3, 1),)), Combo(((3, 1, 1),)),
    ]
    for a in descs:
        for b in descs:
            assert (a == b) == (a is b), (a, b)


@pytest.mark.parametrize("spec", [("W", 4), ("S", 4), ("Stilde", 4), ("H", 5)])
def test_every_descriptor_is_written_distinctly(spec):
    # a model file pins its basis by the descriptors' text, so no two may
    # share one; L' covers the top Ham of H and the grading element C, and
    # S(4) has Combos
    P = build_lprime(build(*spec))
    assert len({str(d) for d in P.ext.basis}) == P.dim_lprime
    kinds = {type(d) for d in P.ext.basis}
    assert kinds == {
        "W": {VectorField}, "S": {VectorField, Combo, GradingElement},
        "Stilde": {VectorField, Combo}, "H": {Ham, GradingElement},
    }[spec[0]]


def compact(obj):
    return json.dumps(obj, separators=(",", ":"))


def test_deserialization_rejects_garbage():
    with pytest.raises(ModelFormatError, match="^family/n"):
        model_from_json("not json {{{")
    with pytest.raises(ModelFormatError, match="^family/n: unknown family 'X'"):
        model_from_json('{"family":"X","n":4,')
    obj = json.loads(model_to_json(build("H", 5)))
    obj["bracket"][0][2][0][1] = 1  # a number where "num/den" belongs
    with pytest.raises(ModelFormatError, match=r"^bracket \(0,"):
        model_from_json(compact(obj))
    # numbers inside strings written otherwise than `model_to_json` does
    for path, text in [(("bracket", 0, 2, 0, 1), " 1/1"), (("basis", 3), "DH(x01)"),
                       (("basis", 3), "DH(x1_0)")]:
        obj = json.loads(model_to_json(build("H", 5)))
        *head, last = path
        node = obj
        for key in head:
            node = node[key]
        node[last] = text
        with pytest.raises(ModelFormatError, match=r"^(basis\[3\]|bracket \(0,)"):
            model_from_json(compact(obj))


# each edit names the entry it edits
def _repeat_pair(obj):
    # a bogus first copy of a pair, followed by the true one
    i, j, entries = obj["bracket"][5]
    obj["bracket"].insert(5, [i, j, [[entries[0][0], "7/1"]]])
    return i, j


def _repeat_k(obj):
    i, j, entries = obj["bracket"][5]
    entries.insert(0, [entries[0][0], "7/1"])
    return i, j


def _empty_entry(obj):
    i, j, entries = obj["bracket"][5]
    entries.clear()
    return i, j


def _k_out_of_range(obj):
    i, j, entries = obj["bracket"][5]
    entries[0][0] = len(obj["basis"])
    return i, j


@pytest.mark.parametrize("edit", [_repeat_pair, _repeat_k, _empty_entry, _k_out_of_range])
def test_deserialization_refuses_an_entry_not_written_as_model_to_json_writes_it(edit):
    obj = json.loads(model_to_json(build("H", 5)))
    i, j = edit(obj)
    with pytest.raises(ModelFormatError, match=rf"^bracket \({i},{j}\) differs from the H\(5\)"):
        model_from_json(compact(obj))


H5_REF = build("H", 5)
H5_OBJ = json.loads(model_to_json(H5_REF))


def whole_tree_reader(text):
    """The contract read the long way, as the oracle: the family and n of
    the whole tree from `json.loads`, the constructor's model for them,
    and the text compared whole with what `model_to_json` writes for it,
    alone or followed by one newline."""
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ModelFormatError(f"invalid JSON: {type(exc).__name__}") from None
    if not isinstance(obj, dict) or type(obj.get("n")) is not int:
        raise ModelFormatError("no family and n")
    try:
        A = build(obj.get("family"), obj["n"])
    except FamilyError as exc:
        raise ModelFormatError(str(exc)) from None
    if text not in (model_to_json(A), model_to_json(A) + "\n"):
        raise ModelFormatError("not the text build writes")
    return A


def model_fields(A):
    return (A.family, A.n, A.basis, A.table, A.parity, A.degree, A.weight, A.cartan,
            A.grading_modulus)


def _with(**fields):
    """The H(5) text with fields replaced by raw JSON text, in place."""
    obj = {k: json.dumps(v, separators=(",", ":")) for k, v in H5_OBJ.items()}
    obj.update(fields)
    return "{" + ",".join(f'"{k}":{v}' for k, v in obj.items()) + "}"


H5_TEXT = model_to_json(H5_REF)
DEEP = "[" * 100_000 + "]" * 100_000
# each form of the H(5) text, with whether it loads: only the text as
# `build` writes it, alone or with the newline that `build --out` adds
H5_FORMS = {
    "as written": (H5_TEXT, True),
    "trailing newline": (H5_TEXT + "\n", True),
    "indent 1, sorted keys": (json.dumps(H5_OBJ, indent=1, sort_keys=True), False),
    "keys reversed": (json.dumps(dict(reversed(list(H5_OBJ.items())))), False),
    "bracket last": (json.dumps({**{k: v for k, v in H5_OBJ.items() if k != "bracket"},
                                 "bracket": H5_OBJ["bracket"]}), False),
    "keys escaped": (H5_TEXT.replace('"bracket"', '"\\u0062racket"')
                     .replace('"n"', '"\\u006e"'), False),
    # no string of the H(5) text holds a comma or a bracket
    "whitespace around every comma and bracket": (
        H5_TEXT.replace(",", " ,\t").replace("[", "[\r\n ").replace("]", " ]"), False),
    "bracket empty": (_with(bracket="[ ]"), False),
    "bracket an empty object": (_with(bracket="{}"), False),
    "bracket a string": (_with(bracket='"x"'), False),
    "NaN coefficient": (H5_TEXT.replace('"1/1"', "NaN", 1), False),
    "trailing data": (H5_TEXT + " {}", False),
    "trailing whitespace": (H5_TEXT + " \n", False),
    "second bracket": (H5_TEXT[:-1] + ',"bracket":'
                       + json.dumps(H5_OBJ["bracket"], separators=(",", ":")) + "}", False),
    "family and n repeated": ('{"family":"W","n":9,' + H5_TEXT[1:], False),
    "extra key": (H5_TEXT[:-1] + ',"comment":"by hand"}', False),
    "entry of two": (H5_TEXT.replace(']]]],"parity"', ']]],[0,1]],"parity"'), False),
    "trailing comma in the bracket list": (H5_TEXT.replace(']]]],"parity"', ']]],],"parity"'),
                                           False),
    "nested 100,000 deep around the object": ('{"a":' * 100_000 + H5_TEXT + "}" * 100_000,
                                              False),
    "nested 100,000 deep in an entry": (H5_TEXT.replace("]]],", "]]]," + DEEP + ",", 1),
                                        False),
    "nested 100,000 deep in cartan": (_with(cartan=DEEP), False),
    "integer of 5,000 digits in n": (_with(n="1" * 5000), False),
    "integer of 5,000 digits after the fields": (H5_TEXT[:-1] + ',"x":' + "1" * 5000 + "}", False),
    "bracket list closed by a brace": (H5_TEXT.replace(']]]],"parity"', ']]]},"parity"'), False),
    "an array": ("[" + H5_TEXT + "]", False),
    "empty object": ("{}", False),
}


@pytest.mark.parametrize("form", sorted(H5_FORMS))
def test_model_from_json_agrees_with_the_whole_tree_reader(form):
    text, loads = H5_FORMS[form]
    if not loads:
        with pytest.raises(ModelFormatError):
            whole_tree_reader(text)
        with pytest.raises(ModelFormatError):
            model_from_json(text)
        return
    assert model_fields(model_from_json(text)) == model_fields(whole_tree_reader(text))


def test_model_from_json_refuses_every_cut_where_the_whole_tree_reader_does():
    for end in range(0, len(H5_TEXT), 97):
        text = H5_TEXT[:end]
        with pytest.raises(ModelFormatError):
            whole_tree_reader(text)
        with pytest.raises(ModelFormatError, match="^family/n|differs from the H\\(5\\)"):
            model_from_json(text)


def test_model_to_json_skips_empty_entries():
    # every entry of row 0 and the entry (1, 0) emptied: written as if absent
    table = dict(H5_REF.table)
    emptied = {**table, **{key: {} for key in table if key[0] == 0}, (1, 0): {}}
    dropped = {key: w for key, w in emptied.items() if w}
    assert len(dropped) < len(table)

    def with_table(t):
        A = H5_REF
        return AlgebraModel(A.family, A.n, A.basis, t, A.parity, A.degree, A.weight, A.cartan)

    text = model_to_json(with_table(emptied))
    assert text == model_to_json(with_table(dropped))
    assert json.loads(text)["bracket"] == [e for e in H5_OBJ["bracket"] if e[0] != 0 and e[:2] != [1, 0]]


def test_model_file_keys_are_named_when_refused():
    # each is named by what the written text holds where the file differs:
    # the key "basis" after a head that the file repeats, and the end of
    # the object where it goes on with another key
    with pytest.raises(ModelFormatError, match="^basis differs from the H\\(5\\)"):
        model_from_json('{"family":"H","n":5,' + H5_TEXT[1:])
    with pytest.raises(ModelFormatError, match="^family/n: W\\(9\\) has dimension"):
        model_from_json(H5_FORMS["family and n repeated"][0])
    for form in ("extra key", "second bracket"):
        with pytest.raises(ModelFormatError, match="^the end of the object differs"):
            model_from_json(H5_FORMS[form][0])


def test_head_difference_names_what_first_difference_names():
    # each one-character change or deletion up to the opening of the bracket
    # list is named alike, so `model_from_json` refuses it before building
    # a bracket table with the message the whole comparison gives
    A = H5_REF
    end = H5_TEXT.index('"bracket":[') + len('"bracket":[')
    assert head_difference(A.family, A.n, A.basis, H5_TEXT) is None
    names = set()
    for at in range(end):
        for text in (H5_TEXT[:at] + "x" + H5_TEXT[at + 1:], H5_TEXT[:at] + H5_TEXT[at + 1:]):
            if text == H5_TEXT:
                continue
            name, full = head_difference(A.family, A.n, A.basis, text), first_difference(A, text)
            if name is None:
                # the bracket list's "[" deleted: the first entry's "[" stands in
                # for it, and the text first differs inside the list
                assert at == end - 1 and full.startswith("bracket ("), (at, full)
                continue
            assert name == full, (at, text[:end])
            names.add(name.split("[")[0])
    assert names == {"family/n", "basis", "bracket"}


def _paths(value, path=()):
    """(path, value) for every node of a JSON value, the root included."""
    yield path, value
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, child in items:
            yield from _paths(child, path + (key,))


H5_NODES = list(_paths(H5_OBJ))
H5_LISTS = [p for p, v in H5_NODES if isinstance(v, list) and len(v) >= 2]
H5_INTS = [p for p, v in H5_NODES if type(v) is int]
H5_COEFFS = [p for p, v in H5_NODES if isinstance(v, str) and p[0] == "bracket"]


def coefficient_texts(obj):
    return {(i, j, k, c) for i, j, entries in obj["bracket"] for k, c in entries}


def h5_with_first_unit_written(text):
    obj = copy.deepcopy(H5_OBJ)
    entry = next(e for _, _, entries in obj["bracket"] for e in entries if e[1] == "1/1")
    entry[1] = text
    return compact(obj)


@st.composite
def single_edits(draw):
    """The H(5) model JSON, compact as `build` writes it, with one random
    edit applied."""
    obj = copy.deepcopy(H5_OBJ)

    def at(path):
        node = obj
        for key in path:
            node = node[key]
        return node

    kind = draw(st.sampled_from(["swap", "int", "coeff", "drop", "family", "n"]))
    if kind == "swap":
        items = at(draw(st.sampled_from(H5_LISTS)))
        i = draw(st.integers(0, len(items) - 1))
        j = draw(st.integers(0, len(items) - 1))
        items[i], items[j] = items[j], items[i]
    elif kind == "int":
        *head, last = draw(st.sampled_from(H5_INTS))
        at(head)[last] = draw(st.integers(-2, 70))
    elif kind == "coeff":
        *head, last = draw(st.sampled_from(H5_COEFFS))
        at(head)[last] = draw(
            st.sampled_from(["0/1", "1/1", "-1/1", "2/1", "1/2", "1/0", "2/2", "-3/3",
                             "4/2", "x", ""])
        )
    elif kind == "drop":
        del obj[draw(st.sampled_from(sorted(obj)))]
    elif kind == "family":
        obj["family"] = draw(st.sampled_from(["W", "S", "Stilde", "H", "Q"]))
    else:
        obj["n"] = draw(st.integers(-1, 70) | st.booleans())
    return compact(obj)


@settings(max_examples=150, deadline=None)
@given(single_edits())
@example(h5_with_first_unit_written("2/2"))
def test_single_edits_load_as_h5_or_exit_as_input_errors(text):
    try:
        B = model_from_json(text)
    except (ModelFormatError, FamilyError):
        return
    # what loads is H(5)'s text as `build` writes it: an edit that leaves
    # it so (a swap of equal items, an int set to its own value)
    assert text == H5_TEXT
    assert coefficient_texts(json.loads(text)) == coefficient_texts(H5_OBJ)
    assert model_to_json(B) == model_to_json(H5_REF)
    assert B.table == H5_REF.table
    assert B.w_coords == H5_REF.w_coords
    assert B.cartan_chain == H5_REF.cartan_chain


def test_ad_is_morphism_on_homogeneous_pairs(W4):
    rng = random.Random(21)
    blocks = list(W4.cells().values())
    for _ in range(12):
        cu = rng.choice(blocks)
        cv = rng.choice(blocks)
        u = {i: Fraction(rng.randint(-2, 2)) for i in cu}
        v = {i: Fraction(rng.randint(-2, 2)) for i in cv}
        u = {i: c for i, c in u.items() if c}
        v = {i: c for i, c in v.items() if c}
        if not u or not v:
            continue
        pu = W4.parity[cu[0]]
        pv = W4.parity[cv[0]]
        lhs = ad_matrix(W4, W4.bracket(u, v))
        mu, mv = ad_matrix(W4, u), ad_matrix(W4, v)
        sign = -1 if (pu * pv) % 2 == 0 else 1
        # ad[u,v] = ad u ad v - (-1)^{|u||v|} ad v ad u, column by column
        for b in range(W4.dim):
            col_b = {b: Fraction(1)}
            expect = mu.matvec(mv.matvec(col_b))
            for k, c in mv.matvec(mu.matvec(col_b)).items():
                s = expect.get(k, Fraction(0)) + sign * c
                if s:
                    expect[k] = s
                else:
                    expect.pop(k, None)
            got = {a: row[b] for a, row in lhs.data.items() if b in row}
            assert got == expect


def test_ad_injective_on_lprime():
    from cartansuper.derivations import ad_image
    from cartansuper.families import build_lprime

    for spec in [("W", 4), ("S", 4), ("H", 5)]:
        A = build(*spec)
        P = build_lprime(A)
        assert ad_image(P).dim == P.dim_lprime


def test_stilde_modular_degree_arithmetic():
    St = build("Stilde", 4)
    assert St.grading_modulus == 4
    assert St.deg_add(-1, -1) == 2  # -2 = n-2 mod n, stored in {-1..n-2}
    assert St.deg_add(2, 1) == -1
    assert set(St.degree) == {-1, 0, 1, 2}
