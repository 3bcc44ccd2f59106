"""Algebra container: bracket table, axioms, bigrading, serialization."""

import copy
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartansuper.families import FamilyError, attach_derived, build
from cartansuper.liesuper import (
    AlgebraModel,
    ModelFormatError,
    ad_matrix,
    check_axioms,
    generators,
    model_from_json,
    model_to_json,
)


@pytest.fixture(scope="module")
def W4():
    return build("W", 4)


@pytest.fixture(scope="module")
def H5():
    return build("H", 5)


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


@pytest.mark.parametrize("spec, size", [
    (("W", 4), 12), (("S", 4), 12), (("Stilde", 4), 4), (("H", 5), 12), (("H", 6), 17),
])
def test_generators_of_desk_models(spec, size):
    A = build(*spec)
    G = generators(A)
    assert len(G) == size
    assert G == sorted(G, key=lambda i: (A.degree[i], i))
    # the chosen set is a generating set in its own right
    assert generators(A, G) == G
    rep = check_axioms(A, generating_set=G)
    assert rep.ok
    assert rep.triples_checked == size * A.dim**2


def test_non_generating_set_is_refused(W4, H5):
    for A in (W4, H5):
        negative = [i for i in range(A.dim) if A.degree[i] == -1]
        assert generators(A, negative) is None
    negative = [i for i in range(H5.dim) if H5.degree[i] == -1]
    rep = check_axioms(H5, generating_set=negative)
    assert rep.ok
    assert rep.triples_checked == H5.dim**3  # the full scan ran instead


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
        assert check_axioms(broken, jacobi_triples=0).ok  # the pair scan passes
        G = generators(broken)
        rep = check_axioms(broken, generating_set=G)
        assert not rep.ok, (i, j)
        g = int(rep.first_violation.split("(")[1].split(",")[0])
        assert g in G
        assert not check_axioms(broken).ok  # the full scan agrees


def test_jacobi_is_checked_on_fractional_structure_constants(H5):
    # [x, y]' = [x, y] / 3 is isomorphic to H(5) through x -> x / 3; the
    # Jacobi scans run on the table times the lcm of its denominators
    third = copy.copy(H5)
    third.table = {key: {k: c / 3 for k, c in w.items()} for key, w in H5.table.items()}
    G = generators(third)
    assert check_axioms(third).ok
    assert check_axioms(third, generating_set=G).ok
    key = min(k for k, w in third.table.items() if w)
    third.table[key] = {k: c / 2 for k, c in third.table[key].items()}
    third.table[key[::-1]] = {k: c / 2 for k, c in third.table[key[::-1]].items()}
    assert not check_axioms(third).ok
    assert not check_axioms(third, generating_set=G).ok


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
        attach_derived(B)
        assert B.table == A.table
        assert B.weight == A.weight
        assert B.cartan == A.cartan
        assert B.w_coords == A.w_coords
        assert B.cartan_chain == A.cartan_chain


def test_deserialization_rejects_garbage():
    with pytest.raises(ModelFormatError):
        model_from_json("not json {{{")
    with pytest.raises(ModelFormatError):
        model_from_json('{"family": "X", "n": 4}')
    obj = json.loads(model_to_json(build("H", 5)))
    obj["bracket"][0][2][0][1] = 1  # a number where "num/den" belongs
    with pytest.raises(ModelFormatError):
        model_from_json(json.dumps(obj))
    # numbers inside strings written otherwise than `model_to_json` does
    for path, text in [(("bracket", 0, 2, 0, 1), " 1/1"), (("basis", 3), "DH(x01)"),
                       (("basis", 3), "DH(x1_0)")]:
        obj = json.loads(model_to_json(build("H", 5)))
        *head, last = path
        node = obj
        for key in head:
            node = node[key]
        node[last] = text
        with pytest.raises(ModelFormatError, match=r"basis\[3\]|bracket \(0,"):
            model_from_json(json.dumps(obj))


H5_REF = build("H", 5)
H5_OBJ = json.loads(model_to_json(H5_REF))


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


@st.composite
def single_edits(draw):
    """The H(5) model JSON with one random edit applied."""
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
            st.sampled_from(["0/1", "1/1", "-1/1", "2/1", "1/2", "1/0", "x", ""])
        )
    elif kind == "drop":
        del obj[draw(st.sampled_from(sorted(obj)))]
    elif kind == "family":
        obj["family"] = draw(st.sampled_from(["W", "S", "Stilde", "H", "Q"]))
    else:
        obj["n"] = draw(st.integers(-1, 70) | st.booleans())
    return json.dumps(obj)


@settings(max_examples=150, deadline=None)
@given(single_edits())
def test_single_edits_load_as_h5_or_exit_as_input_errors(text):
    try:
        B = attach_derived(model_from_json(text))
    except (ModelFormatError, FamilyError):
        return
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
