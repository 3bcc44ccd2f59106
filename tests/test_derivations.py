"""Superderivation computation: Leibniz solver vs the inner route."""

import copy
import random
from fractions import Fraction

import pytest

from cartansuper import derivations
from cartansuper.derivations import (
    BlockSystem,
    EndMap,
    ad_image,
    derivation_report,
    derivation_space,
    is_superderivation,
    transitivity_check,
)
from cartansuper.families import LPrimeModel, build, build_lprime
from cartansuper.liesuper import AlgebraModel, ad_matrix, generators
from cartansuper.linalg import PRIME


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

    def recorded(model, parity=None, generating_set=None):
        seen.append(generating_set)
        return rows(model, parity, generating_set)

    monkeypatch.setattr(derivations, "leibniz_rows", recorded)
    assert derivation_space(A) == ad_image(P)
    assert seen == [generators(A)]


def test_generator_rows_are_the_rows_of_their_pairs(pairs):
    A, _ = pairs[("H", 5)]
    G = generators(A)
    on_g = [(s, frozenset(r.items())) for s, r in derivations.leibniz_rows(A, None, G)]
    every = [(s, frozenset(r.items())) for s, r in derivations.leibniz_rows(A)]
    assert set(on_g) <= set(every)
    assert len(on_g) < len(every)


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
    rep = derivation_report(P)
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
        for k, c in comp.to_flat().items():
            total[k] = total.get(k, Fraction(0)) + c
    assert {k: c for k, c in total.items() if c} == flat


# -- the block core


DESK = [("W", 4), ("S", 4), ("Stilde", 4), ("H", 5)]


@pytest.mark.parametrize("spec", DESK)
def test_block_system_partitions_end_l(pairs, spec):
    A, _ = pairs[spec]
    blocks = BlockSystem(A)
    ids = sorted(k for entries in blocks.entries.values() for k in entries)
    assert ids == list(range(A.dim * A.dim))
    for shift, entries in blocks.entries.items():
        assert entries == sorted(entries)
        assert blocks.local[shift] == {k: i for i, k in enumerate(entries)}


@pytest.mark.parametrize("spec", DESK)
def test_block_system_localize_lift_round_trip(pairs, spec):
    A, _ = pairs[spec]
    blocks = BlockSystem(A)
    rng = random.Random(35)
    for shift in rng.sample(sorted(blocks.entries), 20):
        entries = blocks.entries[shift]
        row = {
            k: Fraction(rng.choice([-3, -1, 1, 2]))
            for k in rng.sample(entries, min(len(entries), 5))
        }
        local = blocks.localize(shift, row)
        assert set(local) <= set(range(len(entries)))
        assert blocks.lift(shift, local) == row


@pytest.mark.parametrize("spec", DESK)
def test_cell_shift_agrees_with_bigrade_decompose(pairs, spec):
    from cartansuper.localcert import bigrade_decompose

    A, _ = pairs[spec]
    blocks = BlockSystem(A)
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


# -- the modular block kernels


def rescaled_model(A: AlgebraModel, r: int, lam: Fraction) -> AlgebraModel:
    """A copy of A in the basis where e_r is replaced by lam * e_r.

    [s_i e_i, s_j e_j] = sum_k (s_i s_j / s_k) c_ij^k (s_k e_k), so the
    copy is isomorphic to A and has the same grading.
    """
    scale = [Fraction(1)] * A.dim
    scale[r] = lam
    out = copy.copy(A)
    out.table = {
        (i, j): {k: scale[i] * scale[j] / scale[k] * c for k, c in w.items()}
        for (i, j), w in A.table.items()
    }
    return out


@pytest.fixture
def fallbacks(monkeypatch):
    """Counts the blocks that `derivation_space` solves with Fractions."""
    calls = []
    exact = derivations.kernel_of_rows

    def counted(rows, ncols):
        calls.append(ncols)
        return exact(rows, ncols)

    monkeypatch.setattr(derivations, "kernel_of_rows", counted)
    return calls


def test_desk_blocks_need_no_fallback(pairs, fallbacks):
    for spec in [("H", 5), ("Stilde", 4)]:
        A, P = pairs[spec]
        assert derivation_space(A) == ad_image(P)
    assert fallbacks == []


def test_unlucky_prime_falls_back_to_fractions(pairs, fallbacks):
    A, _ = pairs[("H", 5)]
    B = rescaled_model(A, 0, Fraction(PRIME))
    constants = {c for w in B.table.values() for c in w.values()}
    assert any(c.denominator == PRIME for c in constants)
    assert any(c.numerator % PRIME == 0 for c in constants)
    blocks = derivation_space(B)
    assert fallbacks
    assert blocks.dim == 32
    assert blocks == derivation_space(B, method="reference")


def test_denominators_are_cleared_once(pairs, fallbacks):
    A, _ = pairs[("H", 5)]
    B = rescaled_model(A, 0, Fraction(1, 2))
    assert any(c.denominator == 2 for w in B.table.values() for c in w.values())
    blocks = derivation_space(B)
    assert fallbacks == []
    assert blocks.dim == 32
    assert blocks == derivation_space(B, method="reference")


def test_leibniz_rows_are_integral(pairs):
    A, _ = pairs[("H", 5)]
    B = rescaled_model(A, 0, Fraction(1, 2))
    for model in (A, B):
        for _, row in derivations.leibniz_rows(model):
            assert all(type(c) is int and c for c in row.values())
