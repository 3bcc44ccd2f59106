"""Probe machinery, separating scalar, and the certification pipeline."""

import copy
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartansuper import derivations, localcert
from cartansuper.derivations import BlockSystem, EndMap, ProofContext, ad_image
from cartansuper.families import build, build_lprime, w_basis
from cartansuper.liesuper import ad_matrix
from cartansuper.linalg import (
    IntKernel,
    Matrix,
    Subspace,
    as_fractions,
    int_multiple,
    kernel,
    kernel_of_rows,
    rank,
    rref,
    solve,
    vec_axpy_inplace,
    vec_dot,
)
from cartansuper.localcert import (
    ConstraintEngine,
    Probe,
    SeparatingScalar,
    anchored_probes,
    basis_probes,
    certify,
    certify_2local,
    constrained_space,
    is_2local_at,
    is_local_at,
    orbit,
    proof_probes,
    random_probes,
    separating_t,
    visit_order,
)


def test_separating_scalars_do_not_share_a_certificate():
    a, b = SeparatingScalar(1), SeparatingScalar(1)
    a.certificate.append(((1, 0), 1))
    assert b.certificate == []


@pytest.fixture(scope="module")
def W4():
    A = build("W", 4)
    return A, build_lprime(A)


@pytest.fixture(scope="module")
def S4():
    A = build("S", 4)
    return A, build_lprime(A)


@pytest.fixture(scope="module")
def H5():
    A = build("H", 5)
    return A, build_lprime(A)


@pytest.fixture(scope="module")
def St4():
    A = build("Stilde", 4)
    return A, build_lprime(A)


def inner_map(P, u):
    return EndMap.from_matrix(ad_matrix(P.ext, u, restrict=P.dim_l))


def every_block(blocks):
    """`dominant_blocks` as it answers when a check fails."""
    return None


def block_modes(monkeypatch):
    """Yield twice: as `certify` runs, on the dominant blocks, and then
    with every block solved, which lasts to the end of the test.  The
    patch is on the one name that `ProofContext` reads."""
    yield "dominant blocks"
    monkeypatch.setattr(derivations, "dominant_blocks", every_block)
    yield "every block"


def assert_mode(cert, mode):
    """The certificate's engine ran in ``mode`` of `block_modes`."""
    assert cert.engine.reduced() == (mode == "dominant blocks"), mode


# -- orbits


def test_orbit_of_zero(W4):
    _, P = W4
    assert orbit({}, P).dim == 0


def test_orbit_of_cartan_element_is_nonvanishing_weight_span(W4):
    A, P = W4
    h1 = A.cartan_chain[0]
    o = orbit(h1, P)
    expected = [b for b in range(A.dim) if A.weight[b][0] != 0]
    assert o.dim == len(expected)
    for b in expected:
        assert o.contains({b: Fraction(1)})
    for b in range(A.dim):
        if A.weight[b][0] == 0:
            assert not o.contains({b: Fraction(1)})


def test_orbit_of_depth_field_matches_bracket_rank_oracle(W4):
    A, P = W4
    d1 = {0: Fraction(1)}
    assert str(A.basis[0]) == "1*d1"
    # oracle: dim orbit = dim L' - dim centralizer, both read off the
    # bracket matrix u -> [u, d1]
    data = {}
    for u in range(P.ext.dim):
        w = P.ext.bracket({u: Fraction(1)}, d1)
        for k, c in w.items():
            data.setdefault(k, {})[u] = c
    m = Matrix(A.dim, P.ext.dim, data)
    centralizer = kernel(m)
    assert orbit(d1, P).dim == rank(m) == P.dim_lprime - centralizer.dim
    # fields with coefficients free of x1 commute with d1
    assert centralizer.dim == 4 * 2**3


def test_orbit_scale_invariance(W4):
    A, P = W4
    rng = random.Random(41)
    for _ in range(5):
        x = {rng.randrange(A.dim): Fraction(rng.randint(-2, 2)) for _ in range(3)}
        x = {k: c for k, c in x.items() if c}
        if not x:
            continue
        assert orbit(x, P) == orbit({k: 7 * c for k, c in x.items()}, P)


# -- pointwise locality


def test_inner_maps_are_local_everywhere(W4):
    A, P = W4
    rng = random.Random(42)
    for _ in range(10):
        u = {rng.randrange(P.ext.dim): Fraction(rng.randint(-2, 2)) for _ in range(3)}
        u = {k: c for k, c in u.items() if c}
        phi = inner_map(P, u)
        x = {rng.randrange(A.dim): Fraction(rng.randint(-2, 2)) for _ in range(3)}
        x = {k: c for k, c in x.items() if c}
        assert is_local_at(phi, x, P)


def test_identity_fails_locality_at_cartan_element(W4):
    A, P = W4
    ident = EndMap.identity(A.dim)
    assert not is_local_at(ident, A.cartan_chain[0], P)


def test_zero_map_is_local(W4):
    A, P = W4
    assert is_local_at(EndMap(A.dim), {0: Fraction(1)}, P)


def test_inner_maps_are_2local(W4):
    A, P = W4
    rng = random.Random(43)
    u = {1: Fraction(2), 17: Fraction(-1)}
    phi = inner_map(P, u)
    for _ in range(10):
        x = {rng.randrange(A.dim): Fraction(rng.randint(-2, 2)) for _ in range(3)}
        y = {rng.randrange(A.dim): Fraction(rng.randint(-2, 2)) for _ in range(3)}
        x = {k: c for k, c in x.items() if c}
        y = {k: c for k, c in y.items() if c}
        assert is_2local_at(phi, x, y, P)


def test_identity_fails_2local_on_cartan_pair(W4):
    A, P = W4
    ident = EndMap.identity(A.dim)
    h1, h2 = A.cartan_chain[0], A.cartan_chain[1]
    assert not is_2local_at(ident, h1, h2, P)


def test_2local_implies_local_on_projection(W4):
    # joint feasibility at (x, y) gives a witness for x alone
    A, P = W4
    rng = random.Random(44)
    u = {5: Fraction(1)}
    phi = inner_map(P, u)
    for _ in range(5):
        x = {rng.randrange(A.dim): Fraction(1)}
        y = {rng.randrange(A.dim): Fraction(1)}
        if is_2local_at(phi, x, y, P):
            assert is_local_at(phi, x, P)


# -- separating scalar


def test_separating_t_w4(W4):
    _, P = W4
    sep = separating_t(P.ext)
    assert sep.t == 2
    assert sep.certificate
    for wt, value in sep.certificate:
        assert value == sum(2 ** (i + 1) * c for i, c in enumerate(wt))
        assert value != 0


def test_separating_t_s4_needs_three():
    # sl-torus weight entries reach +-2, and (2,-1,0) kills t=2
    A = build("S", 4)
    P = build_lprime(A)
    sep = separating_t(P.ext)
    assert sep.t == 3
    assert (2, -1, 0) in {wt for wt, _ in sep.certificate}
    assert sum(2 ** (i + 1) * c for i, c in enumerate((2, -1, 0))) == 0


def test_separating_t_h6_exhaustive():
    # weight entries on the h_i = x_i d_i - x_{i'} d_{i'} torus stay in
    # {-1, 0, 1}, so the exhaustive check already accepts t = 2
    A = build("H", 6)
    P = build_lprime(A)
    sep = separating_t(P.ext)
    assert sep.t == 2
    entries = {c for wt, _ in sep.certificate for c in wt}
    assert entries <= {-1, 0, 1}


def test_separating_t_gives_nonzero_on_all_roots(H5):
    A, P = H5
    sep = separating_t(P.ext)
    h0 = {}
    for i, h in enumerate(A.cartan_chain, start=1):
        vec_axpy_inplace(h0, Fraction(sep.t**i), h)
    for wt in set(P.ext.weight):
        if any(wt):
            assert sum(sep.t ** (i + 1) * c for i, c in enumerate(wt)) != 0


def test_separating_t_minimality(W4):
    _, P = W4
    sep = separating_t(P.ext)
    # t = 2 is the smallest admissible integer >= 2 by construction
    assert sep.t == 2


# -- probe lists


def test_proof_probes_contain_h0_with_powers(W4):
    A, P = W4
    sep = separating_t(P.ext)
    probes = proof_probes(P, sep)
    by_label = {p.label: p for p in probes}
    h0 = by_label["h0"].vector
    expect = {}
    for i, h in enumerate(A.cartan_chain, start=1):
        vec_axpy_inplace(expect, Fraction(sep.t**i), h)
    assert h0 == expect


def test_proof_probes_use_shifted_depth_fields_for_stilde(St4):
    A, P = St4
    sep = separating_t(P.ext)
    probes = proof_probes(P, sep)
    full = (1 << 4) - 1
    basis = w_basis(4)
    depth = [p for p in probes if p.label.startswith("dminus")]
    assert len(depth) == 4
    for p in depth:
        (b,) = p.vector.keys()
        row = A.w_coords[b]
        masks = {basis[k][0] for k in row}
        assert masks == {0, full}  # d_k - x1x2x3x4 d_k, never bare d_k


def test_proof_probe_count_is_linear_in_dim(W4):
    A, P = W4
    probes = proof_probes(P, separating_t(P.ext))
    labels = [p.label for p in probes]
    assert len(labels) == len(set(labels))
    assert len(probes) <= 4 * A.dim


def test_probe_rejects_zero_vector():
    with pytest.raises(ValueError, match="zero"):
        Probe("z", {})


# -- the constrained space


def test_constrained_space_soundness_on_probe_subsets(H5):
    # every inner map lies in the constrained space, whatever the probes
    A, P = H5
    rng = random.Random(45)
    sep = separating_t(P.ext)
    all_probes = proof_probes(P, sep)
    subsets = [all_probes[:1], all_probes[:7], all_probes]
    for probes in subsets:
        C = constrained_space(P, probes)
        for _ in range(8):
            u = {rng.randrange(P.ext.dim): Fraction(rng.randint(-2, 2)) for _ in range(3)}
            u = {k: c for k, c in u.items() if c}
            flat = {}
            mat = ad_matrix(P.ext, u, restrict=A.dim)
            for a, row in mat.data.items():
                for b, c in row.items():
                    flat[a * A.dim + b] = c
            assert C.contains(flat)


def test_constrained_space_monotone_under_probe_growth(H5):
    A, P = H5
    sep = separating_t(P.ext)
    all_probes = proof_probes(P, sep)
    prev = None
    for cut in (1, 4, 12, len(all_probes)):
        C = constrained_space(P, all_probes[:cut])
        if prev is not None:
            assert C.dim <= prev.dim
            assert prev.contains_subspace(C)
        prev = C


def test_single_cartan_probe_leaves_slack(W4):
    A, P = W4
    h1 = A.cartan_chain[0]
    C = constrained_space(P, [Probe("h1", h1)])
    assert C.dim > ad_image(P).dim


def test_blocks_and_reference_paths_agree(W4, S4, St4, H5):
    for _, P in (W4, S4, St4, H5):
        sep = separating_t(P.ext)
        for probes in (proof_probes(P, sep)[:25], random_probes(P, 20, seed=3)):
            assert constrained_space(P, probes, method="blocks") == constrained_space(
                P, probes, method="reference"
            )


@pytest.mark.parametrize("scale", [Fraction(1, 2), Fraction(-3)])
def test_constrained_space_is_invariant_under_probe_scaling(H5, scale):
    _, P = H5
    probes = proof_probes(P, separating_t(P.ext))[:25] + random_probes(P, 10, seed=5)
    scaled = [
        Probe(p.label, {k: c * scale for k, c in p.vector.items()}) for p in probes
    ]
    assert constrained_space(P, scaled) == constrained_space(P, probes)


def test_engine_runs_on_ints(H5):
    _, P = H5
    engine = certify(ProofContext(P)).engine
    kept = [r for space in engine.space.values() for r in space.rows.values()]
    inner = [r for rows in engine.ad_pivots.values() for r in rows.values()]
    assert kept and all(type(c) is int for r in kept + inner for c in r.values())
    assert all(
        type(c) is int
        for slices in engine.slice_ad.values()
        for cols in slices
        for col in cols.values()
        for c in col.values()
    )
    x = {k: int(c) for k, c in proof_probes(P, separating_t(P.ext))[0].vector.items()}
    comps = engine.split(x)
    rows = [
        r for shift, pairs in engine.blocks.shifts_from(x).items()
        for r in engine.constraint_rows(x, shift, pairs, comps)
    ]
    assert rows and all(type(c) is int for r in rows for c in r.values())


@pytest.mark.parametrize("model", ["W4", "H5"])
def test_skipped_shifts_have_no_constraint_rows(model, request):
    # a block without an entry in any column of x's support gives
    # phi_shift(x) = 0, which every orbit contains
    A, P = request.getfixturevalue(model)
    engine = ConstraintEngine(BlockSystem(P.base), P)
    columns = {
        shift: {k % A.dim for k in entries}
        for shift, entries in engine.blocks.entries.items()
    }
    probes = proof_probes(P, separating_t(P.ext)) + anchored_probes(P)
    for probe in probes:
        x = probe.vector
        reach = engine.blocks.shifts_from(x)
        for shift in engine.space:
            touches = not columns[shift].isdisjoint(x)
            assert (shift in reach) == touches


def test_constrained_space_requires_probes(H5):
    _, P = H5
    with pytest.raises(ValueError):
        constrained_space(P, [])


DESK = [("W", 4), ("S", 4), ("Stilde", 4), ("H", 5), ("H", 6)]


def per_call_constraint_rows(engine, x, shift):
    """The constraint rows with all the per-probe work done inside the call:
    x is split into cells, the value space laid out over every entry of
    each target cell, the annihilator always solved, over Q by the Fraction
    `kernel_of_rows` and not by the integer core, and the rows built over
    flat ids and then localized.  The oracle for the engine's rows."""
    L, dim, cells = engine.L, engine.dim, engine.blocks.cells
    pairs = engine.blocks.shifts_from(x).get(shift)
    if not pairs:
        return []
    comps = {}
    for b, c in x.items():
        comps.setdefault(L.cell_of(b), {})[b] = c
    targets = [(ca, comps[cb]) for ca, cb in pairs]
    v_ids = sorted(a for ca, _ in targets for a in cells[ca])
    v_local = {a: i for i, a in enumerate(v_ids)}
    span_rows = []
    for cols in engine.slice_ad.get(shift, []):
        w = {}
        for b, c in x.items():
            if b in cols:
                vec_axpy_inplace(w, c, cols[b])
        if w:
            span_rows.append({v_local[a]: c for a, c in w.items()})
    rows = []
    for kappa in kernel_of_rows(as_fractions(span_rows), len(v_ids)):
        row = {}
        for ca, sub in targets:
            for a in cells[ca]:
                ka = kappa.get(v_local[a])
                if ka:
                    for b, xb in sub.items():
                        if xb:
                            row[a * dim + b] = ka * xb
        if row:
            local = engine.blocks.local[shift]
            rows.append({local[k]: c for k, c in row.items()})
    return rows


@pytest.mark.parametrize("family, n", DESK)
def test_constraint_rows_span_the_per_call_rows(family, n):
    P = build_lprime(build(family, n))
    engine = ConstraintEngine(BlockSystem(P.base), P)
    compared = 0
    for probe in proof_probes(P, separating_t(P.ext)):
        x = int_multiple(probe.vector)
        comps = engine.split(x)
        for shift, pairs in engine.blocks.shifts_from(x).items():
            got = engine.constraint_rows(x, shift, pairs, comps)
            want = per_call_constraint_rows(engine, x, shift)
            ncols = engine.space[shift].ncols
            assert Subspace.from_vectors(as_fractions(got), ncols) == (
                Subspace.from_vectors(as_fractions(want), ncols)
            ), (probe.label, shift)
            compared += bool(want)
    assert compared


def feed(P, probes):
    engine = ConstraintEngine(BlockSystem(P.base), P)
    engine.add_probes(probes)
    return engine


def assert_same_blocks(engine, oracle):
    assert list(engine.space) == list(oracle.space)
    for shift, kern in oracle.space.items():
        assert len(engine.space[shift]) == len(kern), shift
        assert engine.space[shift].basis() == kern.basis(), shift


@pytest.mark.parametrize("family, n", DESK)
def test_stage1_visit_order_cannot_change_the_certificate(family, n, monkeypatch):
    P = build_lprime(build(family, n))
    stage1 = proof_probes(P, separating_t(P.ext))
    rng = random.Random(1414)
    orders = {
        "report": list,
        "visit": visit_order,
        "shuffled": lambda probes: rng.sample(list(probes), len(probes)),
    }
    engines = {name: feed(P, order(stage1)) for name, order in orders.items()}
    for name in orders:
        assert_same_blocks(engines[name], engines["report"])
    for mode in block_modes(monkeypatch):
        certs = {}
        for name, order in orders.items():
            monkeypatch.setattr(localcert, "visit_order", order)
            certs[name] = certify(ProofContext(P))
        report = certs["report"]
        assert report.verdict == "CERTIFIED", mode
        assert_mode(report, mode)
        for name in orders:
            assert_same_blocks(certs[name].engine, report.engine)
            assert certs[name].as_dict() == report.as_dict()


def test_certify_feeds_each_stage_once_and_stage1_in_visit_order(H5, monkeypatch):
    _, P = H5
    stage1 = proof_probes(P, separating_t(P.ext))
    fed = []
    real = ConstraintEngine.add_probes

    def spy(engine, probes):
        probes = list(probes)
        fed.append([p.label for p in probes])
        real(engine, probes)

    monkeypatch.setattr(ConstraintEngine, "add_probes", spy)
    cert = certify(ProofContext(P))
    assert cert.verdict == "CERTIFIED"
    assert len(fed) == 2  # H(odd n) certifies in the anchored stage
    assert fed[0] == [p.label for p in visit_order(stage1)] != [p.label for p in stage1]
    assert fed[0][0].startswith("x+dsum[")
    assert cert.probe_labels == [p.label for p in stage1] + fed[1]


@pytest.mark.parametrize("budget", [1, 20, 45])
def test_certify_truncates_stage1_to_the_budget_before_reordering(H5, budget):
    _, P = H5
    stage1 = proof_probes(P, separating_t(P.ext))
    assert budget < len(stage1)
    cert = certify(ProofContext(P), budget=budget)
    assert cert.verdict == "INCONCLUSIVE"
    assert cert.probe_labels == [p.label for p in stage1[:budget]]
    assert_same_blocks(cert.engine, feed(P, stage1[:budget]))


@pytest.mark.parametrize("budget", [180, 240, None, 300])
def test_escalation_draws_each_stage_within_the_budget(W4, budget, monkeypatch):
    # with the verdict held back, every stage runs: the labels are those of
    # the stages built whole, each probe deduplicated by direction against
    # everything before it, and cut at the budget
    _, P = W4
    monkeypatch.setattr(ConstraintEngine, "matches_ad", lambda engine: False)
    limit = 4 * P.dim_l if budget is None else budget
    seen, labels = set(), []

    def push(batch):
        for p in batch:
            lead = p.vector[min(p.vector)]
            key = frozenset((k, Fraction(c, lead)) for k, c in p.vector.items())
            if key not in seen:
                seen.add(key)
                labels.append(p.label)

    push(proof_probes(P, separating_t(P.ext)))
    push(anchored_probes(P))
    push(basis_probes(P))
    push(random_probes(P, max(0, limit - len(labels)), seed=3))
    cert = certify(ProofContext(P), budget=budget, seed=3)
    assert cert.verdict == "INCONCLUSIVE"
    assert cert.probe_labels == labels[:limit]
    stages = {l.split("[")[0] for l in cert.probe_labels}
    assert ("deg0sum+x" in stages, "basis" in stages, "rand" in stages) == {
        180: (True, False, False), 240: (True, True, False),
        None: (True, True, True), 300: (True, True, True),
    }[budget]


# -- certification


def test_certify_all_families_at_desk_scale():
    for spec in [("W", 4), ("S", 4), ("Stilde", 4), ("H", 5)]:
        A = build(*spec)
        P = build_lprime(A)
        cert = certify(ProofContext(P))
        assert cert.verdict == "CERTIFIED", spec
        assert cert.dim_constrained == cert.dim_ad == P.dim_lprime


def test_certify_insufficient_budget_is_inconclusive(W4):
    _, P = W4
    cert = certify(ProofContext(P), budget=1)
    assert cert.verdict == "INCONCLUSIVE"
    assert cert.dim_constrained > cert.dim_ad
    assert len(cert.probe_labels) == 1


@pytest.mark.parametrize("budget", [0, -3])
def test_certify_without_budget_feeds_no_probe(W4, budget):
    _, P = W4
    cert = certify(ProofContext(P), budget=budget)
    assert cert.verdict == "INCONCLUSIVE"
    assert cert.probe_labels == []
    assert cert.dim_constrained == sum(cert.engine.blocks.size.values())


def test_certified_w4_uses_proof_probes_only(W4):
    _, P = W4
    cert = certify(ProofContext(P))
    assert not any(l.startswith(("basis[", "rand[", "deg0sum")) for l in cert.probe_labels)


def test_h5_needs_the_anchored_stage(H5):
    _, P = H5
    cert = certify(ProofContext(P))
    assert cert.verdict == "CERTIFIED"
    assert any(l.startswith("deg0sum") for l in cert.probe_labels)
    # and the anchored stage is genuinely load-bearing: without it the
    # weight-zero depth slice leaves a residual space
    sep = separating_t(P.ext)
    C = constrained_space(P, proof_probes(P, sep))
    assert C.dim > ad_image(P).dim


def test_certify_2local_reduction(W4, monkeypatch):
    # the 2-local verdict is the local one: no pair is checked and no
    # random number is drawn
    _, P = W4

    def refuse(*args, **kwargs):
        raise AssertionError("certify_2local checked a pair or drew a random number")

    cert = certify(ProofContext(P))
    monkeypatch.setattr(localcert, "is_2local_at", refuse)
    monkeypatch.setattr(localcert.random, "Random", refuse)
    assert certify_2local(cert) is cert
    assert cert.twolocal_verdict == cert.verdict == "CERTIFIED"
    assert cert.twolocal_pairs_checked == 0


def test_certify_2local_inconclusive_passthrough(W4):
    _, P = W4
    cert = certify_2local(certify(ProofContext(P), budget=1))
    assert cert.twolocal_verdict == cert.verdict == "INCONCLUSIVE"


def test_bigrade_decompose_of_inner_maps_is_single_shift(W4):
    from cartansuper.localcert import bigrade_decompose

    A, P = W4
    h1 = A.cartan_chain[0]
    phi = inner_map(P, h1)
    comps = bigrade_decompose(phi, A)
    assert set(comps) == {(0, (0, 0, 0, 0))}

    d1 = {0: Fraction(1)}
    assert str(A.basis[0]) == "1*d1"
    comps = bigrade_decompose(inner_map(P, d1), A)
    assert set(comps) == {(-1, (-1, 0, 0, 0))}


def test_forcing_t_one_breaks_h0_collapsing_power(W4):
    # the separating hypothesis is load-bearing: with t = 1 the h0-anchored
    # probe family cuts strictly less on W(4)
    A, P = W4

    def h0_family(sep):
        probes = [p for p in proof_probes(P, sep)
                  if p.label == "h0" or p.label.startswith(("h0+", "dminus", "dsum"))]
        return probes

    good = separating_t(P.ext)
    C_good = constrained_space(P, h0_family(good))
    C_bad = constrained_space(P, h0_family(SeparatingScalar(1)))
    assert C_bad.dim > C_good.dim


# -- the kernel of cut rows against the all-rows cut of an explicit basis


def combine(a, u, b, v):
    """a u + b v divided by its content."""
    out = {k: a * u.get(k, 0) + b * v.get(k, 0) for k in u.keys() | v.keys()}
    out = {k: c for k, c in out.items() if c}
    g = gcd(*out.values())
    return {k: c // g for k, c in out.items()} if g > 1 else out


class AllRowsSpace:
    """A block's solution space kept as an explicit basis in `solutions`,
    starting from the unit vectors, and cut by dotting every row of it."""

    def __init__(self, ncols):
        self.solutions = [{i: 1} for i in range(ncols)]

    def __len__(self):
        return len(self.solutions)

    def cut(self, functional):
        space = self.solutions
        dots = [vec_dot(row, functional) for row in space]
        pivot_idx = next((i for i, d in enumerate(dots) if d), None)
        if pivot_idx is None:
            return False
        pivot = space[pivot_idx]
        d0 = dots[pivot_idx]
        new_space = []
        for row, d in zip(space, dots):
            if row is pivot:
                continue
            if d:
                row = combine(d0, row, -d, pivot)
            new_space.append(row)
        self.solutions = new_space
        return True

    def basis(self):
        return self.solutions


class AllRowsEngine(ConstraintEngine):
    """The engine with an `AllRowsSpace` per block, whose verdict compares
    RREFs over Q: the oracle for the blocks kept as `IntKernel`s and for
    `matches_ad`."""

    def __init__(self, blocks, P, solved=None):
        super().__init__(blocks, P, solved)
        self.space = {shift: AllRowsSpace(space.ncols) for shift, space in self.space.items()}

    def matches_ad(self):
        return all(
            rref(as_fractions(space.solutions))[0]
            == rref(as_fractions(self.ad_pivots.get(shift, {}).values()))[0]
            for shift, space in self.space.items()
        )


def certify_with(engine_class, P, monkeypatch, **kwargs):
    with monkeypatch.context() as m:
        m.setattr(localcert, "ConstraintEngine", engine_class)
        cert = certify(ProofContext(P), **kwargs)
    assert type(cert.engine) is engine_class
    return cert


def assert_same_spaces(fast, slow, shifts=None):
    """Each block of the kernel engine spans the oracle's explicit basis."""
    assert list(fast.space) == list(slow.space)
    for shift in shifts or fast.space:
        kern, oracle = fast.space[shift], slow.space[shift]
        assert len(kern) == len(oracle), shift
        assert Subspace.from_vectors(as_fractions(kern.basis()), kern.ncols) == (
            Subspace.from_vectors(as_fractions(oracle.solutions), kern.ncols)
        ), shift


@pytest.mark.parametrize("family, n", [("W", 4), ("S", 4), ("Stilde", 4), ("H", 5), ("H", 6)])
def test_indexed_cut_equals_all_rows_cut(family, n, monkeypatch):
    P = build_lprime(build(family, n))
    for mode in block_modes(monkeypatch):
        fast = certify(ProofContext(P))
        slow = certify_with(AllRowsEngine, P, monkeypatch)
        assert fast.verdict == slow.verdict == "CERTIFIED", mode
        assert_mode(fast, mode)
        assert_mode(slow, mode)
        assert fast.probe_labels == slow.probe_labels
        assert_same_spaces(fast.engine, slow.engine)


def test_indexed_cut_equals_all_rows_cut_on_open_blocks(H5, monkeypatch):
    _, P = H5
    fast = certify(ProofContext(P), budget=67)
    slow = certify_with(AllRowsEngine, P, monkeypatch, budget=67)
    assert fast.verdict == slow.verdict == "INCONCLUSIVE"
    assert fast.dim_constrained == slow.dim_constrained > fast.dim_ad
    assert_same_spaces(fast.engine, slow.engine)


def test_matches_ad_checks_containment_not_only_dimension(H5):
    # a block cut down to the dimension of ad L'_s by rows that do not
    # vanish on ad L'_s has the right size but is another subspace
    _, P = H5
    engine = certify(ProofContext(P)).engine
    assert engine.matches_ad()
    shift = next(s for s, rows in engine.ad_pivots.items() if rows)
    target = list(engine.ad_pivots[shift].values())
    kern = engine.space[shift] = IntKernel(engine.space[shift].ncols)
    on_ad = sorted({k for row in target for k in row})
    for k in on_ad + [k for k in range(kern.ncols) if k not in on_ad]:
        if len(kern) == len(target):
            break
        kern.cut({k: 1})
    assert engine.residual_dim() == 0
    assert any(vec_dot(row, a) for row in kern.rows.values() for a in target)
    assert not engine.matches_ad()


def small_block(engine):
    # at most 24 columns, with a nonzero inner target, so random cuts can
    # pass through convergence
    space, target = engine.space, engine.ad_pivots
    return max(space, key=lambda s: (len(space[s]) <= 24, s in target, len(space[s])))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_random_functionals_cut_alike(H5, data):
    _, P = H5
    fast, slow = ConstraintEngine(BlockSystem(P.base), P), AllRowsEngine(BlockSystem(P.base), P)
    shift = small_block(fast)
    size = len(fast.space[shift])
    assert size == 24 and fast.ad_pivots[shift]
    entry = st.one_of(st.integers(-3, -1), st.integers(1, 3), st.sampled_from([40000, -7 * 40000]))
    functional = st.dictionaries(st.integers(0, size - 1), entry, min_size=1, max_size=5)
    # enough cuts to pass through the inner target's dimension
    for f in data.draw(st.lists(functional, min_size=size, max_size=2 * size)):
        fast._cut(shift, f)
        slow._cut(shift, f)
        assert_same_spaces(fast, slow, [shift])


# -- the open-block lists and the last-key skip against every probe on every block


class CountingEngine(ConstraintEngine):
    """The engine, recording the shift of each `constraint_rows` call and
    counting the cuts that shrink a block."""

    def __init__(self, blocks, P, solved=None):
        super().__init__(blocks, P, solved)
        self.calls = []
        self.effective = 0

    def constraint_rows(self, x, shift, pairs, comps):
        self.calls.append(shift)
        return super().constraint_rows(x, shift, pairs, comps)

    def _cut(self, shift, functional):
        before = len(self.space[shift])
        super()._cut(shift, functional)
        self.effective += len(self.space[shift]) < before


class EveryProbeEngine(CountingEngine):
    """`add_probes` imposing each probe on every block it reaches that the
    engine solves and that is still above its target, with no open-block
    list and no key: the oracle for both skips."""

    def add_probes(self, probes):
        for probe in probes:
            x = probe.vector
            comps = self.split(x)
            for shift, pairs in self.blocks.shifts_from(x).items():
                if shift not in self.space:
                    continue
                space = self.space[shift]
                target = len(self.ad_pivots.get(shift, ()))
                if len(space) <= target:
                    continue
                for row in self.constraint_rows(x, shift, pairs, comps):
                    self._cut(shift, row)
                    if len(space) <= target:
                        break


def assert_same_rows(fast, slow):
    """The same kept rows in every block, from the same effective cuts and
    fewer constraint_rows calls."""
    assert fast.effective == slow.effective > 0
    assert len(fast.calls) < len(slow.calls)
    assert list(fast.space) == list(slow.space)
    for shift, kern in slow.space.items():
        assert fast.space[shift].rows == kern.rows, shift


@pytest.mark.parametrize("family, n", DESK)
def test_skips_keep_the_rows_of_every_probe_on_every_block(family, n):
    # on every block, and on the dominant blocks as `certify` opens them
    P = build_lprime(build(family, n))
    stage1 = visit_order(proof_probes(P, separating_t(P.ext)))
    ctx = ProofContext(P)
    assert ctx.dominant is not None and len(ctx.dominant) < len(ctx.blocks.size)
    for solved in (None, ctx.dominant):
        fast = CountingEngine(ctx.blocks, P, solved)
        slow = EveryProbeEngine(ctx.blocks, P, solved)
        assert set(fast.space) == set(slow.space) == (solved or set(ctx.blocks.size))
        fast.add_probes(stage1)
        slow.add_probes(stage1)
        assert_same_rows(fast, slow)


def test_skips_keep_the_rows_of_every_probe_on_open_blocks(H5, monkeypatch):
    _, P = H5
    fast = certify_with(CountingEngine, P, monkeypatch, budget=67)
    slow = certify_with(EveryProbeEngine, P, monkeypatch, budget=67)
    assert fast.verdict == slow.verdict == "INCONCLUSIVE"
    assert fast.as_dict() == slow.as_dict()
    assert_same_rows(fast.engine, slow.engine)


def depth_probe(A, b, first=1):
    """dsum + b, with ``first`` on the first depth-one vector."""
    depth = [d for d in range(A.dim) if A.degree[d] == -1]
    x = {d: 1 for d in depth}
    x[depth[0]] = first
    x[b] = 1
    return Probe(f"x+dsum[{b}]", x)


def reached(engine, cell):
    engine.blocks.lay_out(engine.blocks.size)
    return {shift for shift, _ in engine.blocks.targets[cell]}


def test_repeated_probe_makes_no_call(H5):
    A, P = H5
    engine = CountingEngine(BlockSystem(P.base), P)
    x = depth_probe(A, next(b for b in range(A.dim) if A.degree[b] == 0))
    engine.add_probes([x])
    assert engine.calls
    assert engine.open & set(engine.blocks.shifts_from(x.vector))
    engine.calls.clear()
    engine.add_probes([Probe("again", dict(x.vector))])
    assert engine.calls == []


def test_key_reads_only_the_source_cells(H5):
    A, P = H5
    engine = CountingEngine(BlockSystem(P.base), P)
    b1 = next(b for b in range(A.dim) if A.degree[b] == 0)
    b2 = next(b for b in range(A.dim) if A.degree[b] == 1)
    c1, c2 = A.cell_of(b1), A.cell_of(b2)
    engine.add_probes([depth_probe(A, b1)])

    # a probe that differs from the last only in cells that are no source
    # of s makes no call at s
    open_before = set(engine.open)
    engine.calls.clear()
    x2 = depth_probe(A, b2)
    engine.add_probes([x2])
    beside = (
        open_before & set(engine.blocks.shifts_from(x2.vector))
    ) - reached(engine, c1) - reached(engine, c2)
    assert beside
    assert not beside & set(engine.calls)
    assert set(engine.calls) <= reached(engine, c1) | reached(engine, c2)

    # a changed coefficient in a source cell makes the call there
    d = next(d for d in range(A.dim) if A.degree[d] == -1)
    open_before = set(engine.open)
    engine.calls.clear()
    engine.add_probes([depth_probe(A, b2, first=2)])
    changed = open_before & reached(engine, A.cell_of(d))
    assert changed
    assert changed <= set(engine.calls)


def test_closed_blocks_get_no_call(H5):
    A, P = H5
    engine = CountingEngine(BlockSystem(P.base), P)
    stage1 = visit_order(proof_probes(P, separating_t(P.ext)))
    engine.add_probes(stage1)
    closed = set(engine.space) - engine.open
    assert closed and engine.open
    # the same probes scaled by 2: every key differs, so only the closed
    # blocks are skipped
    engine.calls.clear()
    engine.add_probes([Probe(p.label, {b: 2 * c for b, c in p.vector.items()}) for p in stage1])
    assert engine.calls
    assert not closed & set(engine.calls)
    dim_ad = {s: len(engine.ad_pivots.get(s, ())) for s in engine.space}
    assert all(len(engine.space[s]) <= dim_ad[s] for s in closed)
    assert all(len(engine.space[s]) > dim_ad[s] for s in engine.open)


def test_memo_holds_one_key_per_open_block(H5):
    _, P = H5
    engine = ConstraintEngine(BlockSystem(P.base), P)
    engine.add_probes(visit_order(proof_probes(P, separating_t(P.ext))))
    assert engine.last_key and set(engine.last_key) <= engine.open
    for key in engine.last_key.values():
        assert type(key) is tuple and key
        assert all(type(part) is dict and part for part in key)
    assert certify(ProofContext(P)).engine.last_key == {}


# -- the integer 2-local check against the Fraction system


def is_2local_at_reference(phi, x, y, P):
    """Joint feasibility as one Fraction system over all of L', solved by
    `solve`: the oracle for the integer `is_2local_at`."""
    m = P.dim_l
    ext = P.ext
    data = {}
    for u in range(ext.dim):
        for offset, point in ((0, x), (m, y)):
            w = ext.bracket({u: Fraction(1)}, point)
            for k, c in w.items():
                data.setdefault(offset + k, {})[u] = c
    system = Matrix(2 * m, ext.dim, data)
    b = dict(phi.apply(x))
    for k, c in phi.apply(y).items():
        b[m + k] = c
    return solve(system, b) is not None


def random_fraction_vector(rng, dim):
    v = {}
    for _ in range(rng.randint(1, 4)):
        v[rng.randrange(dim)] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return {k: c for k, c in v.items() if c}


@pytest.mark.parametrize("model", ["W4", "H5"])
def test_2local_agrees_with_fraction_solve(model, request):
    A, P = request.getfixturevalue(model)
    rng = random.Random(47)
    verdicts = []
    for _ in range(30):
        u = random_fraction_vector(rng, P.ext.dim)
        inner = inner_map(P, u)
        # an inner map plus a random column: feasible for some pairs only
        mixed = EndMap(A.dim, {b: dict(col) for b, col in inner.cols.items()})
        noise = random_fraction_vector(rng, A.dim)
        vec_axpy_inplace(mixed.cols.setdefault(rng.randrange(A.dim), {}), Fraction(1), noise)
        x, y = random_fraction_vector(rng, A.dim), random_fraction_vector(rng, A.dim)
        for phi in (inner, mixed):
            got = is_2local_at(phi, x, y, P)
            assert got == is_2local_at_reference(phi, x, y, P)
            verdicts.append(got)
        assert is_2local_at(inner, x, y, P)
    assert True in verdicts and False in verdicts
    ident = EndMap.identity(A.dim)
    h1, h2 = A.cartan_chain[0], A.cartan_chain[1]
    assert not is_2local_at(ident, h1, h2, P)
    assert not is_2local_at_reference(ident, h1, h2, P)


# -- the dominant blocks


STRETCH = [
    pytest.param(*spec, marks=pytest.mark.slow) for spec in [("H", 7), ("S", 5), ("W", 5)]
]


def certify_every_block(P, monkeypatch, **kwargs):
    with monkeypatch.context() as m:
        m.setattr(derivations, "dominant_blocks", every_block)
        cert = certify(ProofContext(P), **kwargs)
    assert not cert.engine.reduced()
    return cert


@pytest.mark.parametrize("family, n", DESK + STRETCH)
def test_certify_on_representatives_agrees_with_every_block(family, n, monkeypatch):
    # the dominant blocks stand for every block
    P = build_lprime(build(family, n))
    reduced = certify(ProofContext(P))
    every = certify_every_block(P, monkeypatch)
    assert reduced.verdict == "CERTIFIED"
    assert reduced.as_dict() == every.as_dict()
    dominant = derivations.dominant_blocks(reduced.engine.blocks)
    assert list(reduced.engine.space) == [s for s in every.engine.space if s in dominant]
    assert len(dominant) < len(every.engine.space)
    for shift, kern in reduced.engine.space.items():
        assert kern.basis() == every.engine.space[shift].basis(), shift
    assert reduced.dim_constrained == reduced.dim_ad == every.engine.dim_space()


def test_reduced_inconclusive_reports_what_the_full_run_reports(H5, monkeypatch):
    _, P = H5
    engines = []
    real = ConstraintEngine.__init__

    def spy(engine, *args):
        real(engine, *args)
        engines.append(engine)

    with monkeypatch.context() as m:
        m.setattr(ConstraintEngine, "__init__", spy)
        cert = certify(ProofContext(P), budget=67)
    # the run on the dominant blocks, then the rerun on every block
    assert [len(e.space) for e in engines] == [36, len(engines[0].blocks.size)]
    assert cert.engine is engines[1]
    every = certify_every_block(P, monkeypatch, budget=67)
    assert cert.verdict == every.verdict == "INCONCLUSIVE"
    assert cert.as_dict() == every.as_dict()
    assert cert.dim_constrained > cert.dim_ad


def test_certify_solves_every_block_when_a_root_is_refused(H5, monkeypatch):
    # the filter reads a table whose [h, f] for the first root has one
    # entry doubled, so that [h, f] is not -c f
    A, P = H5
    e, f = next(
        (es[0], cells[(0, tuple(-x for x in alpha))][0])
        for cells in [A.cells()] for (d, alpha), es in cells.items()
        if d == 0 and alpha > A.zero_weight() and len(es) == 1
    )
    k = next(k for k in A.table[(e, f)] if A.table.get((k, f)))
    B = copy.copy(A)
    B.table = {**A.table, (k, f): {x: 2 * c for x, c in A.table[(k, f)].items()}}
    real = derivations.dominant_blocks

    def on_copy(blocks):
        seen = copy.copy(blocks)
        seen.A = B
        return real(seen)

    assert on_copy(BlockSystem(A)) is None
    monkeypatch.setattr(derivations, "dominant_blocks", on_copy)
    cert = certify(ProofContext(P))
    assert not cert.engine.reduced()
    assert len(cert.engine.space) == len(cert.engine.blocks.size)
    assert cert.verdict == "CERTIFIED"
    assert cert.as_dict() == certify_every_block(P, monkeypatch).as_dict()
