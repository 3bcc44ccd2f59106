"""Acceptance suite: one test per criterion, at the stated tolerances.

Every numeric assertion here is exact (tolerance 0); runtime budgets are
asserted where the criterion states one.  Run with ``pytest -s
tests/test_acceptance.py`` to see one PASS line per criterion.
"""

import copy
import random
import time
from fractions import Fraction

import pytest

from cartansuper.derivations import (
    EndMap,
    ad_image,
    derivation_space,
    transitivity_check,
)
from cartansuper.families import LPrimeModel, build, build_lprime
from cartansuper.liesuper import ad_matrix, check_axioms
from cartansuper.localcert import (
    SeparatingScalar,
    certify,
    certify_2local,
    constrained_space,
    is_2local_at,
    is_local_at,
    proof_probes,
    separating_t,
)

SPECS = [("W", 4), ("S", 4), ("Stilde", 4), ("H", 5), ("H", 6)]


def report(n, text):
    print(f"PASS criterion {n}: {text}")


@pytest.fixture(scope="module")
def models():
    return {spec: build(*spec) for spec in SPECS}


@pytest.fixture(scope="module")
def lprimes(models):
    return {spec: build_lprime(A) for spec, A in models.items()}


@pytest.fixture(scope="module")
def certificates(lprimes):
    out = {}
    for spec in [("W", 4), ("S", 4), ("Stilde", 4), ("H", 5)]:
        t0 = time.monotonic()
        cert = certify(lprimes[spec])
        out[spec] = (cert, time.monotonic() - t0)
    return out


def test_criterion_1_structural_dimensions():
    expected = {
        ("W", 4): 64,
        ("S", 4): 49,
        ("Stilde", 4): 49,
        ("H", 5): 30,
        ("H", 6): 62,
    }
    for spec, dim in expected.items():
        t0 = time.monotonic()
        A = build(*spec)
        elapsed = time.monotonic() - t0
        assert A.dim == dim, spec
        assert elapsed < 1.0, f"{spec} built in {elapsed:.2f}s"
    report(1, "dims W(4)=64 S(4)=49 Stilde(4)=49 H(5)=30 H(6)=62, each < 1 s")


def test_criterion_2_axiom_suite(models):
    t0 = time.monotonic()
    for spec in [("W", 4), ("S", 4), ("Stilde", 4), ("H", 5)]:
        A = models[spec]
        rep = check_axioms(A)  # full triple scan, the pairs y < z and odd y = z
        assert rep.ok, (spec, rep.first_violation)
        assert rep.triples_checked == A.dim * (A.dim * (A.dim - 1) // 2 + sum(A.parity))
    rep = check_axioms(models[("H", 6)], jacobi_triples=100_000, seed=0)
    assert rep.ok, rep.first_violation
    assert rep.triples_checked == 100_000
    elapsed = time.monotonic() - t0
    assert elapsed < 120, f"axiom suite took {elapsed:.1f}s"
    report(2, f"axioms pass, full scans at n=4/H(5), 1e5 sampled at n=6 ({elapsed:.1f}s)")


def test_criterion_3_derivation_lemma(models, lprimes):
    expected = {
        ("W", 4): 64,
        ("S", 4): 50,
        ("Stilde", 4): 49,
        ("H", 5): 32,
        ("H", 6): 64,
    }
    t0 = time.monotonic()
    for spec, dim in expected.items():
        der = derivation_space(models[spec])
        inner = ad_image(lprimes[spec])
        assert der.dim == inner.dim == dim, spec
        assert der == inner, spec
    elapsed = time.monotonic() - t0
    assert elapsed < 300, f"derivation lemma took {elapsed:.1f}s"
    report(3, f"Der L = ad L' with dims 64/50/49/32/64 ({elapsed:.1f}s)")


def test_criterion_4_transitivity(models, lprimes):
    t0 = time.monotonic()
    for spec in SPECS:
        assert transitivity_check(lprimes[spec]), spec
    A = models[("W", 4)]
    broken = copy.copy(A)
    broken.basis = list(A.basis) + [A.basis[0]]
    broken.table = dict(A.table)
    broken.parity = list(A.parity) + [0]
    broken.degree = list(A.degree) + [0]
    broken.weight = list(A.weight) + [A.zero_weight()]
    broken.cartan = list(A.cartan)
    assert not transitivity_check(LPrimeModel(broken, broken, []))
    elapsed = time.monotonic() - t0
    assert elapsed < 10, f"transitivity took {elapsed:.1f}s"
    report(4, f"L' transitive for all five models, injected center detected ({elapsed:.1f}s)")


def test_criterion_5_root_systems(models):
    # W(4): all e_{i1}+...+e_{ik} - e_i, as integer vectors on the gl-torus
    expected_w = set()
    for a in range(16):
        chi = [1 if a & (1 << t) else 0 for t in range(4)]
        for i in range(4):
            wt = tuple(chi[t] - (1 if t == i else 0) for t in range(4))
            if any(wt):
                expected_w.add(wt)
    assert {w for w in models[("W", 4)].weight if any(w)} == expected_w

    # S(4)/Stilde(4): W roots minus e1+e2+e3+e4-e_i, reduced to the sl-torus
    expected_s = set()
    for a in range(16):
        chi = [1 if a & (1 << t) else 0 for t in range(4)]
        if sum(chi) == 4:
            continue
        for i in range(4):
            eps = [chi[t] - (1 if t == i else 0) for t in range(4)]
            wt = tuple(eps[k] - eps[k + 1] for k in range(3))
            if any(wt):
                expected_s.add(wt)
    for family in ("S", "Stilde"):
        assert {w for w in models[(family, 4)].weight if any(w)} == expected_s

    # H(5): +-e_{i1} +- ... +- e_{ik} over the rank-2 torus
    expected_h = {
        (a, b) for a in (-1, 0, 1) for b in (-1, 0, 1) if (a, b) != (0, 0)
    }
    assert {w for w in models[("H", 5)].weight if any(w)} == expected_h
    report(5, "realized root systems equal the family descriptions exactly")


def test_criterion_6_local_theorem_instances(certificates, lprimes):
    for spec, (cert, elapsed) in certificates.items():
        assert cert.verdict == "CERTIFIED", spec
        assert cert.dim_constrained == cert.dim_ad == lprimes[spec].dim_lprime
        assert elapsed < 600, f"{spec} certified in {elapsed:.1f}s"
    report(6, "certify: constrained space = ad L' for W(4), S(4), Stilde(4), H(5)")


def test_criterion_7_two_local_corollary(models, lprimes, certificates):
    for spec, (cert, _) in certificates.items():
        assert certify_2local(cert).twolocal_verdict == "CERTIFIED", spec

    # 100 seeded random pairs with inner maps stay jointly feasible
    A, P = models[("W", 4)], lprimes[("W", 4)]
    rng = random.Random(101)
    for _ in range(100):
        u = {rng.randrange(P.ext.dim): Fraction(rng.randint(-2, 2)) for _ in range(3)}
        u = {k: c for k, c in u.items() if c} or {0: Fraction(1)}
        phi = EndMap.from_matrix(ad_matrix(P.ext, u, restrict=A.dim))
        x = {rng.randrange(A.dim): Fraction(rng.randint(-2, 2)) for _ in range(3)}
        y = {rng.randrange(A.dim): Fraction(rng.randint(-2, 2)) for _ in range(3)}
        x = {k: c for k, c in x.items() if c} or {1: Fraction(1)}
        y = {k: c for k, c in y.items() if c} or {2: Fraction(1)}
        assert is_2local_at(phi, x, y, P)

    # the identity map is not local at h_1: the orbit of a Cartan element
    # has no Cartan component
    assert not is_local_at(EndMap.identity(A.dim), A.cartan_chain[0], P)
    report(7, "2-local verdicts CERTIFIED, 100 inner pairs feasible, identity rejected at h1")


def test_criterion_8_soundness_and_monotonicity(lprimes):
    P = lprimes[("H", 5)]
    A = P.base
    sep = separating_t(P.ext)
    probes = proof_probes(P, sep)
    subsets = [probes[:1], probes[:5], probes[:20], probes]
    spaces = [constrained_space(P, s) for s in subsets]

    rng = random.Random(202)
    for _ in range(50):
        u = {rng.randrange(P.ext.dim): Fraction(rng.randint(-2, 2)) for _ in range(3)}
        u = {k: c for k, c in u.items() if c} or {0: Fraction(1)}
        mat = ad_matrix(P.ext, u, restrict=A.dim)
        flat = {}
        for a, row in mat.data.items():
            for b, c in row.items():
                flat[a * A.dim + b] = c
        for C in spaces:
            assert C.contains(flat)

    for _ in range(20):
        lo = rng.randrange(1, len(probes))
        hi = rng.randrange(lo, len(probes) + 1)
        small = constrained_space(P, probes[:lo])
        large = constrained_space(P, probes[:hi])
        assert large.dim <= small.dim
        assert small.contains_subspace(large)
    report(8, "ad(u) in every constrained space (50 seeded u); monotone on 20 nested pairs")


def test_criterion_9_separating_scalar(lprimes):
    P = lprimes[("W", 4)]
    sep = separating_t(P.ext)
    assert sep.t == 2
    realized = {w for w in P.ext.weight if any(w)}
    assert {wt for wt, _ in sep.certificate} == realized
    for wt, value in sep.certificate:
        assert value == sum(sep.t ** (i + 1) * c for i, c in enumerate(wt)) != 0

    def h0_family(s):
        return [
            p
            for p in proof_probes(P, s)
            if p.label == "h0" or p.label.startswith(("h0+", "dminus", "dsum"))
        ]

    C_good = constrained_space(P, h0_family(sep))
    C_bad = constrained_space(P, h0_family(SeparatingScalar(1)))
    assert C_bad.dim > C_good.dim
    report(
        9,
        f"t=2 with exhaustive certificate over {len(realized)} weights; "
        f"forcing t=1 inflates the h0-family space {C_good.dim} -> {C_bad.dim}",
    )
