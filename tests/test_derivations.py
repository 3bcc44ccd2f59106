"""Superderivation computation: Leibniz solver vs the inner route."""

import contextlib
import copy
import io
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from cartansuper import derivations
from cartansuper.derivations import (
    BlockKernels,
    BlockSystem,
    EndMap,
    ProofContext,
    ad_image,
    derivation_report,
    derivation_space,
    is_superderivation,
    transitivity_check,
)
from cartansuper.families import LPrimeModel, build, build_lprime
from cartansuper.liesuper import AlgebraModel, ad_matrix, generators
from cartansuper.localcert import ConstraintEngine


@pytest.fixture(scope="module")
def pairs():
    out = {}
    for spec in [("W", 4), ("S", 4), ("Stilde", 4), ("H", 5), ("H", 6)]:
        A = build(*spec)
        out[spec] = (A, build_lprime(A))
    return out


def random_lprime_element(rng, P, terms=3):
    v = {rng.randrange(P.ext.dim): Fraction(rng.randint(-2, 2)) for _ in range(terms)}
    return {k: c for k, c in v.items() if c}


def test_inner_maps_are_superderivations(pairs):
    rng = random.Random(31)
    for spec in [("W", 4), ("H", 5)]:
        A, P = pairs[spec]
        for _ in range(5):
            u = random_lprime_element(rng, P)
            D = EndMap.from_matrix(ad_matrix(P.ext, u, restrict=A.dim))
            p = D.infer_parity(A)
            if p is None:
                # mixed element: test its parity pieces instead
                continue
            assert is_superderivation(D, A)


def test_inner_homogeneous_maps_are_superderivations(pairs):
    rng = random.Random(32)
    A, P = pairs[("H", 5)]
    for _ in range(8):
        b = rng.randrange(P.ext.dim)
        D = EndMap.from_matrix(ad_matrix(P.ext, {b: Fraction(1)}, restrict=A.dim))
        assert is_superderivation(D, A)


def test_identity_is_not_a_superderivation(pairs):
    A, _ = pairs[("W", 4)]
    assert not is_superderivation(EndMap.identity(A.dim), A)


def test_zero_is_a_superderivation(pairs):
    A, _ = pairs[("W", 4)]
    assert is_superderivation(EndMap(A.dim, {}, parity=0), A)


def test_mixed_parity_rejected(pairs):
    A, P = pairs[("W", 4)]
    # d_1 + x1x2 d_1 has mixed parity as an adjoint argument
    u = {0: Fraction(1)}
    D = EndMap.from_matrix(ad_matrix(P.ext, u, restrict=A.dim))
    D.parity = None
    D.cols.setdefault(0, {})[A.dim - 1] = Fraction(1)
    with pytest.raises(ValueError, match="parity"):
        is_superderivation(D, A)


def test_derivation_space_dimensions_and_lemma(pairs):
    expected = {
        ("W", 4): 64,
        ("S", 4): 50,
        ("Stilde", 4): 49,
        ("H", 5): 32,
        ("H", 6): 64,
    }
    for spec, dim in expected.items():
        A, P = pairs[spec]
        der = derivation_space(A)
        inner = ad_image(P)
        assert der.dim == dim
        assert inner.dim == dim
        assert der == inner


def test_parity_split_sums_to_total(pairs):
    A, _ = pairs[("H", 5)]
    even = derivation_space(A, parity=0)
    odd = derivation_space(A, parity=1)
    total = derivation_space(A)
    assert even.dim + odd.dim == total.dim
    for row in even.rows + odd.rows:
        assert total.contains(row)


@pytest.mark.parametrize("method", ["blocks", "reference"])
@pytest.mark.parametrize("parity", [2, -1, "odd"])
def test_derivation_space_refuses_other_parities(pairs, parity, method):
    A, _ = pairs[("H", 5)]
    with pytest.raises(ValueError, match="parity"):
        derivation_space(A, parity=parity, method=method)


def test_blockwise_agrees_with_reference_on_w4(pairs):
    A, _ = pairs[("W", 4)]
    assert derivation_space(A, method="blocks") == derivation_space(
        A, method="reference"
    )


@pytest.mark.parametrize("spec", [("S", 4), ("Stilde", 4), ("H", 5), ("H", 6)])
def test_blockwise_agrees_with_reference(pairs, spec):
    A, _ = pairs[spec]
    assert derivation_space(A) == derivation_space(A, method="reference")


@pytest.mark.parametrize("spec", [("W", 4), ("S", 4), ("Stilde", 4), ("H", 5), ("H", 6)])
def test_blocks_solve_on_generators(pairs, spec, monkeypatch):
    """The blocks path emits rows for the pairs (g, y) with g in G only; the
    tests above compare its answer with the all-pairs reference."""
    A, P = pairs[spec]
    seen = []
    rows = derivations.leibniz_rows

    def recorded(core, G):
        seen.append(G)
        return rows(core, G)

    monkeypatch.setattr(derivations, "leibniz_rows", recorded)
    assert derivation_space(A) == ad_image(P)
    assert seen == [generators(A)]


def parity_core(A, parity=None):
    """A core with no target on the blocks of A whose degree shift has the
    parity, or on every block for None, as `derivation_space` builds it."""
    blocks = BlockSystem(A)
    solved = None if parity is None else {s for s in blocks.size if s[0] % 2 == parity}
    return BlockKernels(blocks, solved=solved)


def every_row(A, G, parity=None):
    """The rows `leibniz_rows` yields for the pairs with an index in G, over
    a core on every block of the parity that never stops: none is cut."""
    return derivations.leibniz_rows(parity_core(A, parity), G)


def test_generator_rows_are_the_rows_of_their_pairs(pairs):
    A, _ = pairs[("H", 5)]
    G = generators(A)
    on_g = [(s, frozenset(r.items())) for s, r in every_row(A, G)]
    every = [(s, frozenset(r.items())) for s, r in every_row(A, range(A.dim))]
    assert set(on_g) <= set(every)
    assert len(on_g) < len(every)


def brute_force_rows(A, parity):
    """Every nonzero Leibniz row of the parity, counted, as (shift, flat
    row): per pair i <= j and output k, D([i, j])_k - [D(i), j]_k -
    (-1)^{|D||i|} [i, D(j)]_k read term by term off the table."""
    dim, table = A.dim, A.table
    out = Counter()
    for i in range(dim):
        for j in range(i, dim):
            rows = [Counter() for _ in range(dim)]
            # D has parity |k| - |i| - |j| on the row of k
            odd = [(A.parity[k] - A.parity[i] - A.parity[j]) % 2 for k in range(dim)]
            for m, c in table.get((i, j), {}).items():
                for k in range(dim):
                    rows[k][k * dim + m] += c
            for a in range(dim):
                for k, c in table.get((a, j), {}).items():
                    rows[k][a * dim + i] -= c
                for k, c in table.get((i, a), {}).items():
                    rows[k][a * dim + j] -= -c if odd[k] and A.parity[i] else c
            for k, row in enumerate(rows):
                row = frozenset((key, c) for key, c in row.items() if c)
                if odd[k] == parity and row:
                    degree = A.deg_sub(A.degree[k], A.deg_add(A.degree[i], A.degree[j]))
                    weight = zip(A.weight[k], A.weight[i], A.weight[j])
                    shift = (degree, tuple(x - y - z for x, y, z in weight))
                    out[(shift, row)] += 1
    return out


@pytest.mark.parametrize("spec", [("W", 3), ("H", 5), ("S", 4), ("Stilde", 4)])
@pytest.mark.parametrize("parity", [0, 1])
def test_leibniz_rows_are_the_brute_force_rows(pairs, spec, parity):
    # the rows over a core on every block of the parity that never stops,
    # with every index as G, lifted to flat ids
    A = pairs[spec][0] if spec in pairs else build(*spec)
    core = parity_core(A, parity)
    got = Counter(
        (shift, frozenset(core.blocks.lift(shift, row).items()))
        for shift, row in derivations.leibniz_rows(core, range(A.dim))
    )
    assert got == brute_force_rows(A, parity)


def test_members_of_derivation_space_satisfy_leibniz(pairs):
    A, _ = pairs[("H", 5)]
    space = derivation_space(A)
    rng = random.Random(33)
    for row in rng.sample(space.rows, 6):
        D = EndMap.from_flat(A.dim, row)
        p = D.infer_parity(A)
        assert p is not None
        D.parity = p
        assert is_superderivation(D, A)


def test_transitivity_all_families(pairs):
    for spec, (A, P) in pairs.items():
        assert transitivity_check(P), spec


def central_fault_model(A: AlgebraModel) -> AlgebraModel:
    """A copy of A with one central element of degree zero appended."""
    broken = copy.copy(A)
    broken.basis = list(A.basis) + [A.basis[0]]
    broken.table = dict(A.table)
    broken.parity = list(A.parity) + [0]
    broken.degree = list(A.degree) + [0]
    broken.weight = list(A.weight) + [A.zero_weight()]
    broken.cartan = list(A.cartan)
    return broken


def test_transitivity_fails_with_injected_center(pairs):
    A, _ = pairs[("W", 4)]
    broken = central_fault_model(A)
    P = LPrimeModel(broken, broken, [])
    assert not transitivity_check(P)


def test_derivation_report_payload(pairs):
    A, P = pairs[("H", 5)]
    rep = derivation_report(ProofContext(P))
    d = rep.as_dict()
    assert d == {
        "family": "H",
        "n": 5,
        "dim_L": 30,
        "dim_Lprime": 32,
        "dim_Der": 32,
        "lemma_der_holds": True,
        "transitive": True,
    }


@pytest.mark.parametrize("spec", [("H", 5), ("S", 4)])
def test_derivation_report_runs_on_the_integer_blocks(pairs, spec, monkeypatch):
    from cartansuper import linalg

    A, P = pairs[spec]
    expected = derivation_report(ProofContext(P)).as_dict()

    def refuse(*args, **kwargs):
        raise AssertionError("Fraction subspace route used")

    monkeypatch.setattr(linalg.Subspace, "from_vectors", refuse)
    monkeypatch.setattr(linalg.Echelon, "insert", refuse)
    for name in ("as_fractions", "derivation_space", "ad_image"):
        monkeypatch.setattr(derivations, name, refuse)
    report = derivation_report(ProofContext(P))
    assert report.as_dict() == expected
    assert report.lemma_der_holds and report.dim_der == P.dim_lprime


def test_check_and_certify_run_on_one_block_core(pairs, monkeypatch):
    # the engine is the core, check builds exactly one, both run on the
    # context's one BlockSystem, and patching dominant_blocks, the one name
    # the context reads, decides the blocks that both solve
    from cartansuper import localcert

    _, P = pairs[("H", 5)]
    assert isinstance(localcert.certify(ProofContext(P)).engine, derivations.BlockKernels)
    real = derivations.BlockKernels.__init__
    cores = []

    def spy(core, *args):
        real(core, *args)
        cores.append(core)

    for reduced in (True, False):
        with monkeypatch.context() as m:
            if not reduced:
                m.setattr(derivations, "dominant_blocks", every_block)
            ctx = ProofContext(P)
            solved = ctx.dominant or set(ctx.blocks.size)
            assert (len(solved) < len(ctx.blocks.size)) == reduced
            m.setattr(derivations.BlockKernels, "__init__", spy)
            cores.clear()
            assert derivation_report(ctx, True).lemma_der_holds
            assert len(cores) == 1 and set(cores[0].space) == solved
            cert = localcert.certify(ctx)
            assert cert.verdict == "CERTIFIED" and cores[1:] == [cert.engine]
            assert set(cert.engine.space) == solved
            assert cert.engine.reduced() == cores[0].reduced() == reduced
            assert {core.blocks for core in cores} == {ctx.blocks}


@pytest.mark.parametrize("refused", [False, True])
@pytest.mark.parametrize("spec", [("H", 5), ("Stilde", 4)])
def test_one_context_serves_the_axioms_check_and_certify(pairs, spec, refused, monkeypatch):
    # check_axioms, derivation_report and certify on one ProofContext build
    # one BlockSystem, one dominant set and one generating set, and give the
    # golden reports; with the filter refusing (None), both runs solve
    # every block of that one system
    from cartansuper import localcert
    from cartansuper.cli import SCHEMA_VERSION
    from cartansuper.liesuper import check_axioms
    from cartansuper.localcert import certify_2local

    A, P = pairs[spec]
    calls = Counter()

    def counted(name, fn, answer=lambda got: got):
        def spy(*args):
            calls[name] += 1
            return answer(fn(*args))
        return spy

    monkeypatch.setattr(BlockSystem, "__init__", counted("BlockSystem", BlockSystem.__init__))
    monkeypatch.setattr(derivations, "generators", counted("generators", derivations.generators))
    refuse = (lambda got: None) if refused else (lambda got: got)
    monkeypatch.setattr(derivations, "dominant_blocks",
                        counted("dominant_blocks", derivations.dominant_blocks, refuse))
    cores = []
    real_core = BlockKernels.__init__

    def core_spy(core, *args):
        real_core(core, *args)
        cores.append(core)

    monkeypatch.setattr(BlockKernels, "__init__", core_spy)
    ctx = ProofContext(P)
    axioms = check_axioms(A, generating_set=ctx.G)
    report = derivation_report(ctx, axioms.ok)
    cert = certify_2local(localcert.certify(ctx))
    assert calls == {"BlockSystem": 1, "generators": 1, "dominant_blocks": 1}
    assert not hasattr(localcert, "generators") and not hasattr(localcert, "dominant_blocks")
    assert [core.blocks for core in cores] == [ctx.blocks, ctx.blocks] and cert.engine is cores[1]
    solved = set(ctx.blocks.size) if refused else ctx.dominant
    assert (len(solved) < len(ctx.blocks.size)) != refused
    assert [set(core.space) for core in cores] == [solved, solved]
    assert [core.reduced() for core in cores] == [not refused] * 2
    name = f"{spec[0].lower()}{spec[1]}.json"
    check_payload = {"schema_version": SCHEMA_VERSION, **report.as_dict(), "axioms_ok": axioms.ok,
                     "axioms_first_violation": axioms.first_violation}
    assert check_payload == json.loads(golden(f"check_{name}"))
    certify_payload = {"schema_version": SCHEMA_VERSION, **cert.as_dict()}
    assert certify_payload == json.loads(golden(f"certify_{name}"))


@pytest.mark.parametrize("spec, dim_der", [(("H", 5), 32), (("S", 4), 50)])
def test_lemma_fails_when_lprime_is_only_l(pairs, spec, dim_der, monkeypatch):
    # ad L is a proper subspace of Der L for H(5) and S(4): the outer
    # derivations of L' are missing.  With the axioms passed, the verdict
    # fails on the dominant blocks, and dim Der comes from the rerun on
    # every block
    A, _ = pairs[spec]
    P = LPrimeModel(A, A, [])
    for axioms_ok in (False, True):
        solved = solved_blocks(monkeypatch)
        report = derivation_report(ProofContext(P), axioms_ok)
        assert not report.lemma_der_holds
        assert report.dim_der == derivation_space(A, method="reference").dim == dim_der
        assert report.dim_lprime == A.dim < dim_der
        every = len(BlockSystem(A).size)
        assert solved == ([len(derivations.dominant_blocks(BlockSystem(A))), every]
                          if axioms_ok else [every])


# -- the rank target and its guard


def with_table(P: LPrimeModel, entries) -> LPrimeModel:
    """A copy of P whose L' table has the given entries replaced."""
    ext = copy.copy(P.ext)
    ext.table = {**P.ext.table, **entries}
    return LPrimeModel(P.base, ext, list(P.extra))


def outer_bracket_changed(P: LPrimeModel) -> LPrimeModel:
    # [E, b] = deg(b) b for the grading element E, the last basis vector of
    # L'; one eigenvalue moved by 1 leaves ad E in its block, not in Der L
    u = P.dim_lprime - 1
    b = next(b for b in range(P.dim_l) if P.ext.table.get((u, b)))
    (k, c), = P.ext.table[(u, b)].items()
    return with_table(P, {(u, b): {k: c + 1}})


def l_bracket_changed(P: LPrimeModel) -> LPrimeModel:
    # L' brackets one pair of L otherwise than L does
    (i, j), w = next((key, w) for key, w in P.base.table.items() if w)
    return with_table(P, {(i, j): {k: 2 * c for k, c in w.items()}})


def rows_pulled(monkeypatch, run):
    """How many rows `run()` reads from `derivations.leibniz_rows`."""
    rows = derivations.leibniz_rows
    count = [0]

    def counted(core, G):
        for item in rows(core, G):
            count[0] += 1
            yield item

    monkeypatch.setattr(derivations, "leibniz_rows", counted)
    run()
    monkeypatch.setattr(derivations, "leibniz_rows", rows)
    return count[0]


@pytest.mark.parametrize("spec, dim_der", [(("S", 4), 50), (("H", 5), 32)])
@pytest.mark.parametrize("broken", [outer_bracket_changed, l_bracket_changed])
def test_guard_failure_cuts_every_row(pairs, spec, dim_der, broken, monkeypatch):
    A, P = pairs[spec]
    bad, G = broken(P), generators(A)
    assert derivations.outer_ads_are_derivations(P, G)
    assert not derivations.outer_ads_are_derivations(bad, G)
    report = derivation_report(ProofContext(bad))
    assert not report.lemma_der_holds
    assert report.dim_der == derivation_space(A, method="reference").dim == dim_der
    # no block stopped at dim ad L'_s: the rows read are those of the
    # targetless solve, which stops only at a zero kernel
    every = rows_pulled(
        monkeypatch, lambda: derivations.leibniz_kernels(BlockKernels(BlockSystem(A)), G)
    )
    # with the axioms passed too: a failed guard solves every block from
    # the start, not the dominant blocks first
    for axioms_ok in (False, True):
        assert rows_pulled(
            monkeypatch, lambda: derivation_report(ProofContext(bad), axioms_ok)
        ) == every
    assert rows_pulled(monkeypatch, lambda: derivation_report(ProofContext(P))) < every


def test_guard_failure_keeps_dim_der_exact_above_the_target(pairs):
    # ad L' one larger than Der L on the block of E: with that target, the
    # block would stop one dimension short of Der_s
    A, P = pairs[("W", 4)]
    ext = copy.copy(P.ext)
    u = ext.dim
    b = next(b for b in range(A.dim) if A.degree[b] == 1)
    ext.basis = list(ext.basis) + [ext.basis[0]]
    ext.parity = list(ext.parity) + [0]
    ext.degree = list(ext.degree) + [0]
    ext.weight = list(ext.weight) + [ext.zero_weight()]
    ext.table = {**ext.table, (u, b): {b: 1}}
    bad = LPrimeModel(A, ext, ["e_bb"])
    G = generators(A)
    assert not derivations.outer_ads_are_derivations(bad, G)
    report = derivation_report(ProofContext(bad))
    assert not report.lemma_der_holds
    assert report.dim_der == 64 and report.dim_lprime == 65


def outer_jacobi_fails(P: LPrimeModel, G) -> bool:
    """Whether a Jacobi triple (u, g, y) of L', u outside L, g in G and y in
    L, fails, one triple at a time through the bilinear bracket."""
    ext = P.ext
    for u in range(P.dim_l, P.dim_lprime):
        for g in G:
            for y in range(P.dim_l):
                s = -1 if ext.parity[u] and ext.parity[g] else 1
                lhs = ext.bracket({u: 1}, ext.bracket_basis(g, y))
                rhs = ext.bracket(ext.bracket_basis(u, g), {y: 1})
                for k, c in ext.bracket({g: 1}, ext.bracket_basis(u, y)).items():
                    rhs[k] = rhs.get(k, 0) + s * c
                if {k: c for k, c in lhs.items() if c} != {k: c for k, c in rhs.items() if c}:
                    return True
    return False


@pytest.mark.parametrize("spec", [("S", 4), ("H", 5), ("H", 6)])
def test_outer_ads_refuse_a_planted_outer_fault(pairs, spec):
    # [u, b] and [b, u] for an outer u of L' and b in L, both moved by the
    # same basis vector of L in their cell: L' still brackets L x L as L
    # does, so only the triples (u, g, y) can see the edit
    A, P = pairs[spec]
    G = generators(A)
    assert derivations.outer_ads_are_derivations(P, G) and not outer_jacobi_fails(P, G)
    ext, rng = P.ext, random.Random(24)
    refused = 0
    while refused < 3:
        u, b = rng.randrange(P.dim_l, P.dim_lprime), rng.randrange(P.dim_l)
        cell = (ext.deg_add(ext.degree[u], ext.degree[b]),
                tuple(p + q for p, q in zip(ext.weight[u], ext.weight[b])))
        parity = (ext.parity[u] + ext.parity[b]) % 2
        targets = [t for t in range(P.dim_l) if ext.cell_of(t) == cell and ext.parity[t] == parity]
        if not targets:
            continue
        ub = dict(ext.bracket_basis(u, b))
        t = rng.choice(targets)
        ub[t] = ub.get(t, 0) + 1
        sign = 1 if ext.parity[u] and ext.parity[b] else -1
        bad = with_table(P, {(u, b): ub, (b, u): {k: sign * c for k, c in ub.items()}})
        assert derivations.lprime_extends_l(bad)
        assert outer_jacobi_fails(bad, G)
        assert not derivations.outer_ads_are_derivations(bad, G)
        refused += 1


@pytest.mark.parametrize("spec", [("W", 4), ("S", 4), ("Stilde", 4), ("H", 5), ("H", 6)])
def test_report_stops_each_block_at_its_target(pairs, spec, monkeypatch):
    # a regression to reducing every row fails here, not only in the benchmark
    A, P = pairs[spec]
    G = generators(A)
    every = sum(1 for _ in every_row(A, G))
    assert rows_pulled(monkeypatch, lambda: derivation_report(ProofContext(P))) < every


def test_bigrade_decompose_reconstructs(pairs):
    from cartansuper.localcert import bigrade_decompose

    A, P = pairs[("W", 4)]
    rng = random.Random(34)
    flat = {}
    for _ in range(30):
        a, b = rng.randrange(A.dim), rng.randrange(A.dim)
        flat[a * A.dim + b] = Fraction(rng.randint(-3, 3))
    flat = {k: c for k, c in flat.items() if c}
    phi = EndMap.from_flat(A.dim, flat)
    comps = bigrade_decompose(phi, A)
    total = {}
    for shift, comp in comps.items():
        assert comp.parity == shift[0] % 2
        cells = set()
        for b, col in comp.cols.items():
            for a in col.keys():
                da, wa = A.cell_of(a)
                db, wb = A.cell_of(b)
                cells.add((A.deg_sub(da, db), tuple(x - y for x, y in zip(wa, wb))))
        assert cells == {shift}
        for b, col in comp.cols.items():
            for a, c in col.items():
                total[a * A.dim + b] = total.get(a * A.dim + b, Fraction(0)) + c
    assert {k: c for k, c in total.items() if c} == flat


# -- the block core


DESK = [("W", 4), ("S", 4), ("Stilde", 4), ("H", 5)]


@pytest.mark.parametrize("spec", DESK)
def test_block_system_partitions_end_l(pairs, spec):
    A, _ = pairs[spec]
    blocks = BlockSystem(A)
    blocks.lay_out(blocks.size)
    ids = sorted(k for entries in blocks.entries.values() for k in entries)
    assert ids == list(range(A.dim * A.dim))
    for shift, entries in blocks.entries.items():
        assert entries == sorted(entries)
        assert blocks.local[shift] == {k: i for i, k in enumerate(entries)}


@pytest.mark.parametrize("spec", DESK)
def test_block_system_localize_lift_round_trip(pairs, spec):
    A, _ = pairs[spec]
    blocks = BlockSystem(A)
    blocks.lay_out(blocks.size)
    rng = random.Random(35)
    for shift in rng.sample(sorted(blocks.entries), 20):
        entries = blocks.entries[shift]
        row = {
            k: Fraction(rng.choice([-3, -1, 1, 2]))
            for k in rng.sample(entries, min(len(entries), 5))
        }
        local = {blocks.local[shift][k]: c for k, c in row.items()}
        assert set(local) <= set(range(len(entries)))
        assert blocks.lift(shift, local) == row


@pytest.mark.parametrize("spec", DESK)
def test_cell_shift_agrees_with_bigrade_decompose(pairs, spec):
    from cartansuper.localcert import bigrade_decompose

    A, _ = pairs[spec]
    blocks = BlockSystem(A)
    blocks.lay_out(blocks.size)
    rng = random.Random(36)
    for _ in range(5):
        flat = {
            rng.randrange(A.dim * A.dim): Fraction(rng.randint(1, 3))
            for _ in range(25)
        }
        comps = bigrade_decompose(EndMap.from_flat(A.dim, flat), A)
        for shift, comp in comps.items():
            for b, col in comp.cols.items():
                for a in col:
                    assert BlockSystem.cell_shift(A, A.cell_of(a), A.cell_of(b)) == shift
                    assert a * A.dim + b in blocks.local[shift]


# -- the integer block kernels


def scaled_model(A: AlgebraModel, lam: int) -> AlgebraModel:
    """A copy of A with every structure constant multiplied by lam.

    [x, y]' = lam [x, y] is isomorphic to A through x -> lam x (take
    f_i = e_i / lam as the new basis), with the same grading.
    """
    out = copy.copy(A)
    out.table = {key: {k: lam * c for k, c in w.items()} for key, w in A.table.items()}
    return out


def test_large_structure_constants_solve_exactly(pairs):
    P = 2**31 - 1
    A, _ = pairs[("H", 5)]
    B = scaled_model(A, P)
    assert min(abs(c) for w in B.table.values() for c in w.values()) >= P
    blocks = derivation_space(B)
    assert blocks.dim == 32
    assert blocks == derivation_space(B, method="reference")


def test_leibniz_rows_are_integral(pairs):
    A, _ = pairs[("H", 5)]
    for model in (A, scaled_model(A, 2**31 - 1)):
        for _, row in every_row(model, range(model.dim)):
            assert all(type(c) is int and c for c in row.values())


# -- the dominant blocks


STRETCH = [
    pytest.param(spec, marks=pytest.mark.slow) for spec in [("H", 7), ("S", 5), ("W", 5)]
]


def every_block(blocks):
    """`dominant_blocks` as it answers when a check fails."""
    return None


def model_pair(pairs, spec):
    if spec in pairs:
        return pairs[spec]
    A = build(*spec)
    return A, build_lprime(A)


def roots(A):
    """The (e, f) basis pairs of the roots that `dominant_blocks` uses."""
    cells = A.cells()
    out = []
    for (d, alpha), es in cells.items():
        fs = cells.get((0, tuple(-x for x in alpha)), [])
        if d == 0 and alpha > A.zero_weight() and len(es) == len(fs) == 1:
            if A.parity[es[0]] == A.parity[fs[0]] == 0:
                out.append((es[0], fs[0]))
    return out


def with_one_sign_wrong(A):
    """A copy of A whose [k, f] is negated, for the f of its first root and
    a k in h = [e, f] with [k, f] != 0: [h, f] is then still a multiple of
    f, but not -c f."""
    e, f = roots(A)[0]
    k = next(k for k in A.table[(e, f)] if A.table.get((k, f)))
    B = copy.copy(A)
    B.table = {**A.table, (k, f): {x: -c for x, c in A.table[(k, f)].items()}}
    return B


def filter_reads(monkeypatch, edit):
    """Make `dominant_blocks` read the table of ``edit(A)`` in place of
    the run's model A, in `check` and in `certify`: the patch is on the one
    name that `ProofContext` reads."""
    real = derivations.dominant_blocks

    def on_copy(blocks):
        seen = copy.copy(blocks)
        seen.A = edit(blocks.A)
        return real(seen)

    monkeypatch.setattr(derivations, "dominant_blocks", on_copy)


def solved_blocks(monkeypatch):
    """The number of blocks each `leibniz_kernels` call solves, as a list
    that fills in while the test runs."""
    real = derivations.leibniz_kernels
    solved = []

    def spy(*args):
        space = real(*args)
        solved.append(len(space))
        return space

    monkeypatch.setattr(derivations, "leibniz_kernels", spy)
    return solved


@pytest.mark.parametrize("n", [4, 5])
def test_dominant_blocks_of_w_have_non_increasing_weights(n):
    # the roots of W(n) are e_i - e_j, i < j, with h = x_i d_i - x_j d_j and
    # c = 2, so a block (d, a) is dominant when a_i >= a_j for all i < j
    blocks = BlockSystem(build("W", n))
    dominant = derivations.dominant_blocks(blocks)
    assert len(roots(blocks.A)) == n * (n - 1) // 2
    assert dominant == {
        (d, a) for d, a in blocks.size if all(x >= y for x, y in zip(a, a[1:]))
    }


# (blocks, entries) that `dominant_blocks` keeps; the blocks equal the number
# of orbits of the odd-generator symmetry that `check` solved before, but
# on H(6) (36 orbits, 551 entries) and H(8) (71 orbits, 3,863 entries)
DOMINANT = {
    ("W", 4): (39, 635), ("S", 4): (35, 347), ("Stilde", 4): (25, 347),
    ("H", 5): (36, 296), ("H", 6): (46, 632), ("H", 7): (84, 2312),
    ("S", 5): (55, 1139), ("W", 5): (59, 1902), ("W", 6): (83, 5203),
    ("Stilde", 6): (61, 3331), ("H", 8): (86, 4200), ("H", 9): (159, 15688),
    ("W", 7): (111, 13430),
}
FAR = {("W", 6), ("Stilde", 6), ("H", 8), ("H", 9), ("W", 7)}


@pytest.mark.parametrize("spec", [
    pytest.param(spec, marks=pytest.mark.slow) if spec in FAR else spec for spec in DOMINANT
])
def test_dominant_block_counts_are_pinned(pairs, spec):
    A, _ = model_pair(pairs, spec)
    blocks = BlockSystem(A)
    dominant = derivations.dominant_blocks(blocks)
    assert (len(dominant), sum(blocks.size[s] for s in dominant)) == DOMINANT[spec]


@pytest.mark.parametrize("spec", [("W", 4), ("S", 4), ("Stilde", 4), ("H", 5), ("H", 6), *STRETCH])
def test_reduced_der_agrees_with_every_block(pairs, spec):
    A, P = model_pair(pairs, spec)
    G = generators(A)
    blocks = BlockSystem(A)
    dominant = derivations.dominant_blocks(blocks)
    assert len(dominant) < len(blocks.size)
    # Der_s on every block, each solved to a zero kernel or to its last row
    every = derivations.leibniz_kernels(BlockKernels(blocks), G)
    reduced = derivations.leibniz_kernels(BlockKernels(blocks, P, dominant, stop_at_ad=False), G)
    assert list(reduced) == [shift for shift in every if shift in dominant]
    for shift, kern in reduced.items():
        assert kern.basis() == every[shift].basis(), shift
    # Der L = ad L' on every block, and dim ad L' on ints is its dimension
    assert derivations.blocks_equal_ad(every, derivations.ad_blocks(P, blocks, every))
    assert derivations.ad_rank(P, G) == sum(len(kern) for kern in every.values())
    assert derivation_report(ProofContext(P), True).as_dict() == (
        derivation_report(ProofContext(P)).as_dict()
    )


def test_ad_rank_is_a_rank(pairs):
    # an outer element whose ad repeats that of basis vector 0 adds no rank
    A, P = pairs[("H", 5)]
    G = generators(A)
    ext = copy.copy(P.ext)
    u = ext.dim
    ext.table = {**ext.table, **{(u, y): w for (x, y), w in P.ext.table.items() if x == 0}}
    ext.basis = list(ext.basis) + [ext.basis[0]]
    twice = LPrimeModel(A, ext, [*P.extra, "copy of 0"])
    assert derivations.ad_rank(P, G) == ad_image(P).dim == P.dim_lprime
    assert derivations.ad_rank(twice, G) == P.dim_lprime


@pytest.mark.parametrize("spec", DESK)
def test_one_wrong_sign_is_refused_and_every_block_solved(pairs, spec, monkeypatch, capsys):
    # the filter reads a table whose [h, f] is not -c f for one root: it
    # refuses, and check and certify solve every block and print the goldens
    A, P = pairs[spec]
    blocks = BlockSystem(A)
    seen = copy.copy(blocks)
    seen.A = with_one_sign_wrong(A)
    assert derivations.dominant_blocks(seen) is None
    filter_reads(monkeypatch, with_one_sign_wrong)
    solved = solved_blocks(monkeypatch)
    engines = []
    real = ConstraintEngine.__init__

    def spy(engine, *args):
        real(engine, *args)
        engines.append(engine)

    monkeypatch.setattr(ConstraintEngine, "__init__", spy)
    name = f"{spec[0].lower()}{spec[1]}.json"
    for command in ("check", "certify"):
        assert run_report(capsys, command, *spec) == (0, golden(f"{command}_{name}"))
    assert solved == [len(blocks.size)]
    assert [len(engine.space) for engine in engines] == [len(blocks.size)]


@pytest.mark.parametrize("family, n", [("W", 4), ("H", 5)])
def test_off_diagonal_h_is_refused(family, n):
    # [h, x] with a second term for one basis vector x of the root's
    # cell: ad h is no longer diagonal
    A = build(family, n)
    e, f = roots(A)[0]
    k = next(iter(A.table[(e, f)]))
    B = copy.copy(A)
    B.table = {**A.table, (k, e): {**A.table.get((k, e), {}), f: 1}}
    seen = BlockSystem(A)
    seen.A = B
    assert derivations.dominant_blocks(BlockSystem(A)) is not None
    assert derivations.dominant_blocks(seen) is None


def run_check(monkeypatch, A):
    """`cartansuper check` on the model A in place of the constructor's."""
    from cartansuper import cli

    monkeypatch.setattr(cli, "build", lambda spec: A)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(["check", "--family", A.family, "--n", str(A.n), "--format", "json"])
    return code, json.loads(out.getvalue())


@pytest.mark.parametrize("spec", DESK)
def test_table_edited_in_one_non_representative_block_fails_check(pairs, spec, monkeypatch):
    # [i, j] changed at one coefficient, in both orders, for an i whose
    # cell, the block of ad(i), is not dominant: a block the reduced run
    # does not solve
    A, P = pairs[spec]
    dominant = derivations.dominant_blocks(BlockSystem(A))
    i, j = next(
        (i, j) for (i, j), w in sorted(A.table.items())
        if w and A.cell_of(i) not in dominant
    )
    B = copy.copy(A)
    B.table = dict(A.table)
    k = min(A.table[(i, j)])
    for key in ((i, j), (j, i)):
        w = B.table[key] = dict(A.table[key])
        w[k] += 1 if w[k] == A.table[(i, j)][k] else -1
    solved = solved_blocks(monkeypatch)
    code, report = run_check(monkeypatch, B)
    assert code == 1
    # the axiom scan refuses the table, so every block is solved
    assert not report["axioms_ok"]
    assert solved == [len(BlockSystem(B).size)]


def test_isomorphic_table_keeps_the_dominant_blocks(pairs, monkeypatch):
    # W(4) with one basis vector negated is a Lie superalgebra isomorphic to
    # W(4): the filter, which reads the table alone, keeps the same blocks,
    # and check passes on them
    A, _ = pairs[("W", 4)]
    b = next(b for b in range(A.dim) if A.degree[b] == -1)
    sign = [-1 if x == b else 1 for x in range(A.dim)]
    B = copy.copy(A)
    B.table = {
        (x, y): {k: sign[x] * sign[y] * sign[k] * c for k, c in w.items()}
        for (x, y), w in A.table.items()
    }
    dominant = derivations.dominant_blocks(BlockSystem(B))
    assert dominant == derivations.dominant_blocks(BlockSystem(A))
    solved = solved_blocks(monkeypatch)
    code, report = run_check(monkeypatch, B)
    assert code == 0 and report["dim_Der"] == 64
    assert solved == [len(dominant)]


# -- the code-keyed layout, and only the blocks a run solves


LAYOUT = [*DESK, ("H", 6), ("Stilde", 6)]


def reference_layout(A):
    """`BlockSystem`'s blocks, the (degree, weight) differences of each
    block's cell pairs, and each source cell's (block, target cell) list,
    from a walk over every pair of cells, one `cell_shift` tuple per pair."""
    cells, dim = A.cells(), A.dim
    entries, diffs = {}, {}
    for cb, bs in cells.items():
        for ca, as_ in cells.items():
            shift = BlockSystem.cell_shift(A, ca, cb)
            entries.setdefault(shift, []).extend(a * dim + b for a in as_ for b in bs)
            diff = (ca[0] - cb[0], *(x - y for x, y in zip(ca[1], cb[1])))
            diffs.setdefault(shift, set()).add(diff)
    for keys in entries.values():
        keys.sort()
    targets = {cb: [(BlockSystem.cell_shift(A, ca, cb), ca) for ca in cells] for cb in cells}
    return entries, diffs, targets


def reference_dominant(A):
    """`dominant_blocks` from every pair of cells: the eigenvalues of each
    root's ad h, read off the table on each basis vector, must be the same
    tuple on every pair of a block, and a block is dominant when c times
    each is >= 0."""
    cells = A.cells()
    hs = [(A.table[(e, f)], e) for e, f in roots(A)]
    mu = {}
    for cell, members in cells.items():
        for x in members:
            hx = [A.bracket(h, {x: 1}) for h, _ in hs]
            assert all(set(v) <= {x} for v in hx)
            assert mu.setdefault(cell, [v.get(x, 0) for v in hx]) == [v.get(x, 0) for v in hx]
    c = [mu[A.cell_of(e)][r] for r, (_, e) in enumerate(hs)]
    lam = {}
    for cb in cells:
        for ca in cells:
            shift = BlockSystem.cell_shift(A, ca, cb)
            got = [x - y for x, y in zip(mu[ca], mu[cb])]
            assert lam.setdefault(shift, got) == got, shift
    return {shift for shift, ls in lam.items() if all(cr * x >= 0 for cr, x in zip(c, ls))}


def assert_laid_out(blocks, reference, shifts):
    """``blocks`` has laid out exactly the blocks in ``shifts``, as the walk
    over every pair of cells finds them: their flat ids, their local ids,
    and each source cell's (block, target cell) pairs in target-cell
    order."""
    entries, _, targets = reference
    assert blocks.entries == {shift: entries[shift] for shift in shifts}
    assert blocks.local == {
        shift: {k: i for i, k in enumerate(entries[shift])} for shift in shifts
    }
    expected = {cb: [p for p in pairs if p[0] in shifts] for cb, pairs in targets.items()}
    assert blocks.targets == {cb: pairs for cb, pairs in expected.items() if pairs}


@pytest.mark.parametrize("spec", LAYOUT)
def test_code_keyed_layout_matches_a_walk_over_every_pair(pairs, spec):
    A, P = model_pair(pairs, spec)
    reference = entries, diffs, _ = reference_layout(A)
    cells = A.cells()
    blocks = BlockSystem(A)
    assert blocks.size == {shift: len(keys) for shift, keys in entries.items()}
    assert list(blocks.size) == list(entries)
    assert blocks.entries == blocks.local == blocks.targets == {}
    # the Z_n degree of Stilde makes two code differences name one block
    merged = [shift for shift, ds in diffs.items() if len(ds) > 1]
    assert bool(merged) == (A.grading_modulus is not None)
    assert all(len(ds) <= 2 for ds in diffs.values())
    # a few blocks, merged ones among them, with fewer code differences than
    # there are cells: the walk through the code differences; then every
    # block, the walk through every cell, merged into the record of the few
    few = list(dict.fromkeys(merged[:2] + list(entries)[::7]))[: len(cells) // 3]
    assert sum(len(diffs[shift]) for shift in few) < len(cells)
    blocks.lay_out(few)
    assert_laid_out(blocks, reference, set(few))
    blocks.lay_out(blocks.size)
    assert_laid_out(blocks, reference, set(entries))
    # cores on one system: the dominant blocks, then every block, then the
    # dominant blocks again, which lays out nothing and reads the record of
    # every block; each core reads the record cut to its open blocks
    blocks = BlockSystem(A)
    dominant, seen = derivations.dominant_blocks(blocks), set()
    for solved in (dominant, None, dominant):
        core = BlockKernels(blocks, P, solved)
        seen |= set(core.space)
        assert_laid_out(blocks, reference, seen)
        assert set(core.space) == (solved or set(entries)) and core.open <= set(core.space)
        for cb, pairs in blocks.targets.items():
            assert core._open_reach(cb) == [p for p in pairs if p[0] in core.open]


@pytest.mark.parametrize("spec", [("W", 4), ("H", 5)])
def test_open_reach_keeps_the_record_until_a_block_closes(pairs, spec):
    # a core that never stops at ad L' opens every block: each cell's list is
    # the record's own; a block cut down to a zero kernel closes, and the
    # lists that held it are pruned into new lists, the record untouched
    A, P = pairs[spec]
    blocks = BlockSystem(A)
    core = BlockKernels(blocks, P, stop_at_ad=False)
    assert core.open == set(blocks.size)
    record = dict(blocks.targets)
    for cb, pairs_b in record.items():
        assert core._open_reach(cb) is pairs_b
    shift = record[next(iter(record))][0][0]
    for i in range(blocks.size[shift]):
        core._cut(shift, {i: 1})
    assert shift not in core.open
    assert blocks.targets == record
    for cb, pairs_b in record.items():
        got = core._open_reach(cb)
        assert got == [p for p in pairs_b if p[0] != shift]
        assert (got is pairs_b) == all(p[0] != shift for p in pairs_b)


@pytest.mark.parametrize("spec", LAYOUT)
def test_dominance_read_from_one_pair_matches_every_pair(pairs, spec):
    A, _ = model_pair(pairs, spec)
    dominant = derivations.dominant_blocks(BlockSystem(A))
    assert dominant == reference_dominant(A)
    assert len(dominant) < len(BlockSystem(A).size)


@pytest.mark.parametrize("spec", [*DESK, ("H", 6)])
def test_cell_codes_tell_differences_apart(pairs, spec):
    # two code differences code(c) - code(c') are equal exactly when the
    # differences of the cells' (d, *w) are
    A, _ = model_pair(pairs, spec)
    cells = list(A.cells())
    vecs = [(d, *w) for d, w in cells]
    codes = derivations.cell_codes(cells)
    two = {}
    for code, v in zip(codes, vecs):
        for code2, v2 in zip(codes, vecs):
            diff = tuple(x - y for x, y in zip(v, v2))
            assert two.setdefault(code - code2, diff) == diff


def laid_out(monkeypatch):
    """The blocks that each `BlockSystem.lay_out` call is asked for, as a
    list that fills in while the test runs."""
    real = BlockSystem.lay_out
    calls = []

    def spy(blocks, shifts):
        shifts = list(shifts)
        calls.append((blocks, set(shifts)))
        return real(blocks, shifts)

    monkeypatch.setattr(BlockSystem, "lay_out", spy)
    return calls


def by_system(calls):
    """Every block laid out, per `BlockSystem`, in the order of the systems."""
    out = {}
    for blocks, shifts in calls:
        out.setdefault(blocks, set()).update(shifts)
    return list(out.values())


def golden(name):
    from pathlib import Path

    return (Path(__file__).parent / "golden" / name).read_text()


def run_report(capsys, command, family, n, *extra):
    from cartansuper import cli

    code = cli.main([command, "--family", family, "--n", str(n), *extra, "--format", "json"])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("family, n", [("W", 4), ("S", 4), ("Stilde", 4), ("H", 5), ("H", 6)])
def test_reduced_runs_lay_out_only_the_representatives(family, n, monkeypatch, capsys):
    # the dominant blocks stand for every block, and only they are laid out
    dominant = derivations.dominant_blocks(BlockSystem(build(family, n)))
    calls = laid_out(monkeypatch)
    name = f"{family.lower()}{n}.json"
    assert run_report(capsys, "check", family, n) == (0, golden(f"check_{name}"))
    assert by_system(calls) == [dominant]
    calls.clear()
    assert run_report(capsys, "certify", family, n) == (0, golden(f"certify_{name}"))
    assert by_system(calls) == [dominant]


def test_fallbacks_lay_out_every_block(pairs, monkeypatch, capsys):
    from cartansuper import cli

    A, P = pairs[("H", 5)]
    every = set(BlockSystem(A).size)
    dominant = derivations.dominant_blocks(BlockSystem(A))
    assert len(dominant) < len(every)
    calls = laid_out(monkeypatch)
    # certify's rerun on every block after a reduced INCONCLUSIVE lays out
    # the rest of the first run's system
    out = run_report(capsys, "certify", "H", 5, "--budget", "67", "--seed", "0")
    assert out == (3, golden("certify_h5_budget67.json"))
    assert by_system(calls) == [every] and calls[0][1] == dominant
    # check with no passed axiom scan
    calls.clear()
    with monkeypatch.context() as m:
        m.setattr(cli, "derivation_report", lambda ctx, ok: derivation_report(ctx))
        assert run_report(capsys, "check", "H", 5) == (0, golden("check_h5.json"))
    assert by_system(calls) == [every]
    # a root whose [h, f] is not -c f
    filter_reads(monkeypatch, with_one_sign_wrong)
    for command in ("check", "certify"):
        calls.clear()
        assert run_report(capsys, command, "H", 5) == (0, golden(f"{command}_h5.json"))
        assert by_system(calls) == [every]
