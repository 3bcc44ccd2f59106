"""Family constructors: dimensions, gradings, roots, the extension L'."""

import json
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartansuper import families
from cartansuper.derivations import ProofContext, derivation_report
from cartansuper.exterior import (
    MAX_N,
    ExtElem,
    all_monomials,
    mono_degree,
    mono_mask,
    mono_mul,
    mono_partial,
)
from cartansuper.families import (
    MAX_DIM,
    FamilyError,
    FamilySpec,
    _bracket_rows,
    _divergence_kernel,
    _family_rows,
    _finish_model,
    _graded,
    attach_derived,
    build,
    build_lprime,
    cartan_chain_w,
    divergence,
    euler,
    ham,
    involution,
    model_from_json,
    w_basis,
    w_bracket,
    w_index,
    w_unit,
    xi,
)
from cartansuper.liesuper import (
    AlgebraModel,
    ModelFormatError,
    VectorField,
    check_axioms,
    first_difference,
    generators,
    model_to_json,
)
from cartansuper.linalg import Matrix, SpanSolver, kernel, rank, solve, vec_axpy_inplace


# -- spec validation


@pytest.mark.parametrize(
    "family,n,message",
    [
        ("W", 2, "n >= 3"),
        ("S", 2, "n >= 4"),
        ("Stilde", 5, "even"),
        ("H", 4, "n > 4"),
        ("Q", 4, "unknown family"),
        ("W", 0, "n must be in 1..63"),
        ("H", 64, "n must be in 1..63"),
        # refused by the closed-form dimension, before anything is built
        ("W", 40, f"W\\(40\\) has dimension 43980465111040, above the limit {MAX_DIM}"),
        ("H", 13, f"H\\(13\\) has dimension 8190, above the limit {MAX_DIM}"),
    ],
)
def test_family_spec_rejections(family, n, message):
    with pytest.raises(FamilyError, match=message):
        FamilySpec(family, n).validate()


def test_h4_stays_out_because_der_l_exceeds_ad_lprime():
    # H(4) is the reason for H's range: built with `validate` bypassed, its
    # Der L is one dimension larger than ad L', so Der L = ad L' fails there
    # (and every superderivation is local, so that extra one is a local
    # superderivation that is not inner)
    with pytest.raises(FamilyError, match="H requires n > 4"):
        FamilySpec("H", 4).validate()
    A = _finish_model("H", 4, *_family_rows(FamilySpec("H", 4)))
    ctx = ProofContext(build_lprime(A))
    report = derivation_report(ctx, check_axioms(A, generating_set=ctx.G).ok)
    assert not report.lemma_der_holds
    assert (report.dim_der, report.dim_lprime) == (17, 16)
    # a model file with the head of H(4) exits 2 (tests/test_cli.py, `_h4`)


def admitted_models():
    """Every (family, n) that `FamilySpec.validate` admits."""
    out = []
    for family in ("W", "S", "Stilde", "H"):
        for n in range(1, MAX_N + 2):
            try:
                FamilySpec(family, n).validate()
            except FamilyError:
                continue
            out.append((family, n))
    return out


def test_every_admitted_model_has_a_passing_check_golden():
    # the admitted range is tied to the pinned one: a model that validate
    # admits without a golden `check` report proving its lemma fails here
    # (the slow tier recomputes the reports of the largest ones)
    golden = Path(__file__).parent / "golden"
    admitted = admitted_models()
    assert len(admitted) == 22 and ("H", 12) in admitted and ("H", 4) not in admitted
    for family, n in admitted:
        path = golden / f"check_{family.lower()}{n}.json"
        assert path.exists(), f"{family}({n}) is admitted but has no golden check report"
        report = json.loads(path.read_text())
        assert (report["family"], report["n"]) == (family, n)
        assert report["axioms_ok"] is report["lemma_der_holds"] is True, (family, n)
        assert report["dim_Der"] == report["dim_Lprime"] == FamilySpec(family, n).dim_lprime


def test_dimension_limit_admits_the_largest_models():
    # W(7), dim 896, is the largest model run; H(12), dim 4094, the largest H below the limit
    for family, n in (("W", 7), ("H", 12)):
        FamilySpec(family, n).validate()


@pytest.mark.parametrize("family, n", [
    (family, n) for family in ("W", "S", "Stilde", "H") for n in (4, 5, 6)
    if not (family == "Stilde" and n % 2 or family == "H" and n == 4)
])
def test_dim_lprime_closed_form_matches_the_built_lprime(family, n):
    spec = FamilySpec(family, n)
    P = build_lprime(build(spec))
    assert spec.dim_lprime == P.dim_lprime
    assert spec.dim == P.dim_l


# -- involution


def test_involution_examples():
    assert involution(1, 5) == 3
    assert involution(5, 5) == 5
    assert involution(4, 6) == 1
    assert [involution(i, 6) for i in range(1, 7)] == [4, 5, 6, 1, 2, 3]


def test_involution_is_an_involution():
    for n in (4, 5, 6, 7):
        for i in range(1, n + 1):
            assert involution(involution(i, n), n) == i


# -- divergence and the S family


def test_divergence_examples():
    n = 4
    assert divergence(n, w_unit(n, mono_mask([1]), 2)).is_zero()
    assert divergence(n, w_unit(n, mono_mask([1]), 1)) == ExtElem.one(n)
    v = dict(w_unit(n, mono_mask([1]), 2))
    v.update(w_unit(n, mono_mask([2]), 1))
    assert divergence(n, v).is_zero()


def test_s_dimension_against_divergence_rank_oracle():
    # oracle: dim S(n) = n*2^n - rank(divergence matrix)
    n = 4
    basis = w_basis(n)
    data = {}
    lam_index = {}
    for col, (mask, j) in enumerate(basis):
        d = divergence(n, {col: Fraction(1)})
        for m, c in d.terms.items():
            r = lam_index.setdefault(m, len(lam_index))
            data.setdefault(r, {})[col] = c
    div = Matrix(len(lam_index), len(basis), data)
    expected = n * 2**n - rank(div)
    assert expected == 49
    assert build("S", n).dim == expected


def test_every_s_basis_row_is_divergence_free():
    S4 = build("S", 4)
    for row in S4.w_coords:
        assert divergence(4, row).is_zero()


def test_s_kernel_is_echelonized():
    ker = _divergence_kernel(4)
    leads = [min(row) for row in ker]
    assert leads == sorted(set(leads))
    assert all(row[lead] == 1 for row, lead in zip(ker, leads))
    assert not any(lead in row for lead in leads for row in ker if min(row) != lead)
    assert len(ker) == 49


def fraction_divergence_kernel(n):
    """ker(div) by the Fraction route: the RREF rows of `linalg.kernel`."""
    idx_l = {m: i for i, m in enumerate(all_monomials(n))}
    data = {}
    for col, (mask, j) in enumerate(w_basis(n)):
        hit = mono_partial(j, mask)
        if hit is not None:
            sign, m = hit
            data.setdefault(idx_l[m], {})[col] = Fraction(sign)
    return kernel(Matrix(1 << n, len(w_basis(n)), data)).rows


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_divergence_kernel_matches_the_fraction_kernel(n):
    ker = _divergence_kernel(n)
    assert ker == fraction_divergence_kernel(n)
    assert all(type(c) is int for row in ker for c in row.values())


# -- the Hamiltonian family


def test_ham_examples_n5():
    n = 5
    f = ExtElem.monomial(n, mono_mask([1, 2]))
    expect = dict(w_unit(n, mono_mask([2]), 3))
    expect.update(w_unit(n, mono_mask([1]), 4, -1))
    assert ham(f) == expect
    assert ham(ExtElem.one(n)) == {}
    assert ham(ExtElem.generator(n, 5)) == w_unit(n, 0, 5, -1)


def test_ham_requires_homogeneous_parity():
    f = ExtElem.one(5) + ExtElem.generator(5, 1)
    with pytest.raises(ValueError, match="parity"):
        ham(f)


def test_h_dimension_against_dh_rank_oracle():
    # oracle: dim H(n) = rank of D_H on the monomials of degree < n
    for n, expected in [(5, 30), (6, 62)]:
        cols = [
            m for m in range(1 << n) if bin(m).count("1") < n
        ]
        data = {}
        for col, mask in enumerate(cols):
            v = ham(ExtElem.monomial(n, mask))
            for k, c in v.items():
                data.setdefault(k, {})[col] = c
        dh = Matrix(n * 2**n, len(cols), data)
        r = rank(dh)
        assert r == 2**n - 2 == expected
        assert build("H", n).dim == r


def test_h_bracket_closure_on_basis_pairs():
    # the Poisson-transport identity is not assumed; closure is checked by
    # re-expressing every bracket in the H basis (raises on failure)
    H5 = build("H", 5)
    assert check_axioms(H5).ok
    n_nonzero = sum(1 for w in H5.table.values() if w)
    assert n_nonzero > 0


# -- xi and the top fields


def test_xi_examples():
    assert xi(1, 4) == w_unit(4, mono_mask([1, 2, 3, 4]), 1)
    basis = w_basis(4)
    (k,) = xi(2, 4).keys()
    mask, j = basis[k]
    assert bin(mask).count("1") - 1 == 3  # Z-degree n-1
    # [d_i, xi_i] lands in degree n-2 (brute-force bracket)
    out = w_bracket(4, w_unit(4, 0, 1), xi(1, 4))
    assert out
    for idx in out:
        mask, j = basis[idx]
        assert bin(mask).count("1") - 1 == 2


# -- the bracket kernel against the per-pair closed form


def w_bracket_pair(n, a, b):
    """[f d_i, g d_j] = f d_i(g) d_j - (-1)^((|f|+1)(|g|+1)) g d_j(f) d_i,
    one monomial pair at a time, over the W(n) index."""
    f, i = a
    g, j = b
    idx = w_index(n)
    out = {}
    hit = mono_partial(i, g)
    if hit is not None:
        s1, g1 = hit
        s2, m = mono_mul(f, g1)
        if s2:
            out[idx[(m, j)]] = s1 * s2
    hit = mono_partial(j, f)
    if hit is not None:
        s1, f1 = hit
        s2, m = mono_mul(g, f1)
        if s2:
            sign = -1 if ((mono_degree(f) + 1) * (mono_degree(g) + 1)) % 2 == 0 else 1
            vec_axpy_inplace(out, sign * s1 * s2, {idx[(m, i)]: 1})
    return out


def w_bracket_oracle(n, a, b):
    basis = w_basis(n)
    out = {}
    for ia, ca in a.items():
        for ib, cb in b.items():
            vec_axpy_inplace(out, ca * cb, w_bracket_pair(n, basis[ia], basis[ib]))
    return out


@st.composite
def sparse_field_pairs(draw):
    n = draw(st.integers(1, 7))
    field = st.dictionaries(
        st.integers(0, (n << n) - 1), st.integers(-3, 3).filter(bool), max_size=6
    )
    return n, draw(field), draw(field)


@settings(max_examples=300, deadline=None)
@given(sparse_field_pairs())
def test_w_bracket_is_the_per_pair_closed_form(case):
    n, a, b = case
    assert w_bracket(n, a, b) == w_bracket_oracle(n, a, b)


def lprime_rows(family, n):
    """`_graded`'s model and solver for the rows of L' over L = family(n)."""
    A = build(family, n)
    ext = build_lprime(A).ext
    return A, *_graded(family + "'", n, ext.w_coords, ext.basis, base=A)


@pytest.mark.parametrize("family,n", [
    ("W", 4), ("S", 4), ("Stilde", 4), ("H", 5), ("H", 6), ("S'", 4), ("H'", 5), ("H'", 6),
])
def test_bracket_rows_are_the_nonzero_pairs_in_row_major_order(family, n):
    # one order of each unordered pair, i <= j, with j >= first for the
    # extension, as `build_lprime` passes first = dim L; `_finish_model`
    # mirrors the other.  The coordinates, read at the homes, times the
    # rows give the bracket.
    if family.endswith("'"):
        A, model, span = lprime_rows(family.rstrip("'"), n)
        firsts = (A.dim, model.dim - 2)
    else:
        model, span = _graded(family, n, *_family_rows(FamilySpec(family, n)))
        firsts = (0, model.dim - 2)
    rows = model.w_coords
    dim = len(rows)
    for first in firsts:
        want = []
        for i in range(dim):
            for j in range(max(i, first), dim):
                z = w_bracket_oracle(n, rows[i], rows[j])
                if z:
                    want.append((i, j, z))
        got = list(_bracket_rows(model, span, first))
        assert [(i, j) for i, j, _ in got] == [(i, j) for i, j, _ in want]
        for (i, j, coords), (_, _, z) in zip(got, want):
            assert all(type(c) is int and c for c in coords.values())
            total = {}
            for r, c in coords.items():
                vec_axpy_inplace(total, c, rows[r])
            assert total == z, (i, j)


@pytest.mark.parametrize("family,n", [("S", 4), ("H", 5), ("H", 6)])
def test_bracket_rows_of_lprime_from_zero_raise(family, n):
    # first = 0 over L' brackets pairs of L that need a row whose home the
    # Euler field or the top Hamiltonian takes: no home readout gives them
    _, model, span = lprime_rows(family, n)
    with pytest.raises(AssertionError, match=rf"{family}'\({n}\): bracket of basis \d+,\d+ "):
        for _ in _bracket_rows(model, span):
            pass


@pytest.mark.parametrize("family,n", [("W", 4), ("S", 4), ("Stilde", 4), ("H", 5), ("H", 6)])
def test_table_is_closed_under_swap_with_the_super_sign(family, n):
    # [j, i] = -(-1)^(|i||j|) [i, j] on every key of L and of L'
    A = build(family, n)
    ext = build_lprime(A).ext
    odd_odd = 0
    for M in (A, ext):
        for (i, j), w in M.table.items():
            sign = 1 if M.parity[i] and M.parity[j] else -1
            assert M.table.get((j, i)) == {k: sign * c for k, c in w.items()}, (M, i, j)
            odd_odd += i != j and M.parity[i] and M.parity[j]
    assert odd_odd  # pairs where the sign is +1
    m = A.dim
    extension = [(i, j) for i, j in ext.table if i < m <= j]
    assert (ext is A) == (not extension)  # L' adds rows for S and H only
    assert all((j, i) in ext.table for i, j in extension)


def unshared_table(model, span, base=None):
    """The table as `_finish_model` filled it before equal entries were
    shared: base's entries, then a new dict for every pair `_bracket_rows`
    yields and for its mirror."""
    table = dict(base.table) if base is not None else {}
    for i, j, coords in _bracket_rows(model, span, base.dim if base is not None else 0):
        table[(i, j)] = coords
        if j != i:
            table[(j, i)] = (dict(coords) if model.parity[i] and model.parity[j]
                             else {k: -c for k, c in coords.items()})
    return table


def assert_shared_like(table, oracle, made=None):
    # the oracle's keys in its order, each entry with its items in its
    # order, and one dict for all the equal entries the producer made (all
    # of them, or those at the keys in ``made``)
    assert list(table) == list(oracle)
    assert [list(w.items()) for w in table.values()] == [list(w.items()) for w in oracle.values()]
    first = {}
    entries = [w for key, w in table.items() if made is None or key in made]
    for w in entries:
        assert first.setdefault(tuple(sorted(w.items())), w) is w


@pytest.mark.parametrize("family,n", [("W", 4), ("S", 4), ("Stilde", 4), ("H", 5)])
def test_equal_table_entries_are_one_dict(family, n):
    A = build(family, n)
    assert_shared_like(A.table, unshared_table(*_graded(family, n, *_family_rows(FamilySpec(family, n)))))
    assert len({id(w) for w in A.table.values()}) < len(A.table) / 4
    # L' holds L's entries themselves and shares the ones it adds
    ext = build_lprime(A).ext
    if ext is not A:
        assert all(ext.table[key] is w for key, w in A.table.items())
        model, span = _graded(ext.family, n, ext.w_coords, ext.basis, base=A)
        assert_shared_like(ext.table, unshared_table(model, span, A), ext.table.keys() - A.table.keys())
    # a model file lists every entry; the model loaded from it is built by
    # the constructor, and holds the file's entries shared as A's are
    text = model_to_json(A)
    read = {
        (i, j): {k: int(c[:-2]) for k, c in entries}
        for i, j, entries in json.loads(text)["bracket"]
    }
    B = model_from_json(text)
    assert B.table == read
    assert_shared_like(B.table, unshared_table(*_graded(family, n, *_family_rows(FamilySpec(family, n)))))


def with_table(M, table):
    return AlgebraModel(M.family, M.n, M.basis, table, M.parity, M.degree, M.weight, M.cartan)


def written(M):
    # the layout of the serialization comment in `liesuper`, by json.dumps
    return json.dumps({
        "family": M.family, "n": M.n, "basis": [str(d) for d in M.basis],
        "bracket": [[i, j, [[k, f"{c}/1"] for k, c in sorted(w.items())]]
                    for (i, j), w in sorted(M.table.items()) if w],
        "parity": M.parity, "degree": M.degree, "weight": M.weight, "cartan": M.cartan,
    }, separators=(",", ":"))


@pytest.mark.parametrize("family,n", [("W", 4), ("S", 4), ("Stilde", 4), ("H", 5)])
def test_model_to_json_is_the_same_on_shared_and_unshared_tables(family, n):
    # the writer formats an entry once per dict, keyed by the dict's
    # identity; a table with one dict per pair gives the same bytes
    A = build(family, n)
    loose = with_table(A, unshared_table(*_graded(family, n, *_family_rows(FamilySpec(family, n)))))
    models = [(A, loose)]
    ext = build_lprime(A).ext
    if ext is not A:
        model, span = _graded(ext.family, n, ext.w_coords, ext.basis, base=loose)
        models.append((ext, with_table(ext, unshared_table(model, span, loose))))
    for M, N in models:
        assert len({id(w) for w in N.table.values()}) == len(N.table) == len(M.table)
        assert len({id(w) for w in M.table.values()}) < len(M.table) / 2
        text = model_to_json(M)
        assert model_to_json(N) == text == written(M)
        assert first_difference(N, text) is None and first_difference(M, text) is None


def test_model_to_json_writes_one_dict_held_at_several_pairs():
    # one dict at a pair, its mirror (odd-odd, so the mirror is equal), a
    # diagonal pair and a pair in another row; an equal dict and an empty
    # one elsewhere, and other entries written between them
    A = build("H", 5)
    odd = [i for i in range(A.dim) if A.parity[i]]
    a, b = odd[-2], odd[-1]
    shared, other = {0: 3, 2: -1}, {1: 5}
    table = {(a, b): shared, (b, a): shared, (a, a): shared, (0, 1): dict(shared),
             (0, 2): other, (1, 0): {}, (2, 3): shared, (2, 0): other, (1, 1): {0: 3, 2: -2}}
    B = with_table(A, table)
    text = model_to_json(B)
    assert text == written(B)
    assert first_difference(B, text) is None
    assert text.count('[[0,"3/1"],[2,"-1/1"]]') == 5


def test_span_solver_stays_on_ints_for_unit_leads():
    span = SpanSolver([{0: 1, 1: 2}, {1: -1, 2: 3}])
    assert span.homes == {0: (0, 1, [(1, 2)]), 2: (1, 3, [(1, -1)])}
    coords = span.express({0: 2, 1: 1, 2: 9})
    assert coords == {0: 2, 1: 3}
    assert all(type(c) is int for c in coords.values())


def test_span_solver_refuses_a_vector_that_needs_a_homeless_row():
    # both columns are shared, so neither row has a home: the span of the
    # rows with a home is 0, and express reads nothing else
    span = SpanSolver([{0: 1, 1: 1}, {0: 1, 1: -1}])
    assert span.homes == {}
    assert span.express({0: 1, 1: 3}) is None
    assert span.express({0: 1, 1: 1}) is None
    assert span.express({}) == {}


@pytest.mark.parametrize("family, n", [("S", 4), ("H", 5)])
def test_lprime_chain_and_table_are_ints(family, n):
    # euler reduces to a lead of 4 in S(4)' and of 2 in H(5)'
    ext = build_lprime(build(family, n)).ext
    assert all(type(c) is int for h in ext.cartan_chain for c in h.values())
    assert all(type(c) is int for w in ext.table.values() for c in w.values())


def test_span_solver_divides_exactly_for_a_lead_of_2():
    span = SpanSolver([{0: 2, 1: 1}, {1: 1, 2: 2}])
    coords = span.express({0: 1, 1: 1, 2: 1})
    assert coords == {0: Fraction(1, 2), 1: Fraction(1, 2)}
    assert all(type(c) is Fraction for c in coords.values())
    assert span.express({2: 1}) is None


def test_span_solver_refuses_a_stray_column_after_exact_home_reads():
    # columns 0-2 are 3 row 0 - row 1 exactly; column 3 is on no row
    span = SpanSolver([{0: 1, 1: 2}, {1: 1, 2: 1}])
    assert span.express({0: 3, 1: 5, 2: -1}) == {0: 3, 1: -1}
    assert span.express({0: 3, 1: 5, 2: -1, 3: 7}) is None
    assert span.express({3: 7}) is None


def test_span_solver_homes_skip_a_shared_column():
    # row 1 takes column 0, so row 0's home is its next column, 1
    span = SpanSolver([{0: 1, 1: 1}, {0: 1, 2: 1}])
    assert span.homes == {1: (0, 1, [(0, 1)]), 2: (1, 1, [(0, 1)])}
    assert span.express({0: 2, 1: 2}) == {0: 2}
    assert span.express({0: 3, 1: 1, 2: 2}) == {0: 1, 1: 2}
    assert span.express({0: 1}) is None


@pytest.mark.parametrize("family,n", [("W", 4), ("S", 4), ("Stilde", 4), ("H", 5)])
def test_every_basis_row_has_a_home(family, n, monkeypatch):
    # so L's table is read off at the homes, with no elimination per bracket
    A = build(family, n)
    model, span = _graded(family, n, *_family_rows(FamilySpec(family, n)))
    assert len(span.homes) == model.dim
    calls = []
    express = SpanSolver.express
    monkeypatch.setattr(
        SpanSolver, "express", lambda s, v: calls.append(express(s, v)) or calls[-1])
    for _ in _bracket_rows(model, span):
        pass
    assert calls == []
    # L' reads its Cartan chain at L's homes, one call per chain vector,
    # and nothing else; W and Stilde have no L' of their own
    ext = build_lprime(A).ext
    assert calls == ([] if ext is A else ext.cartan_chain)


@pytest.mark.parametrize("family,n", [("W", 4), ("S", 4), ("Stilde", 4), ("H", 5)])
def test_table_times_rows_is_the_bracket_of_rows(family, n):
    # sum_k T[(i, j)]_k row_k = [row i, row j] over W(n), for L and L', from
    # the per-pair closed form alone
    A = build(family, n)
    for M in {id(m): m for m in (A, build_lprime(A).ext)}.values():
        rows = M.w_coords
        for i in range(M.dim):
            for j in range(M.dim):
                got = {}
                for k, c in M.table.get((i, j), {}).items():
                    vec_axpy_inplace(got, c, rows[k])
                assert got == w_bracket_oracle(n, rows[i], rows[j]), (M, i, j)


def test_constructor_refuses_dependent_rows():
    rows, descs = _family_rows(FamilySpec("W", 4))
    with pytest.raises(AssertionError, match="dependent basis rows"):
        _finish_model("W", 4, rows + [rows[5]], descs + [descs[5]])


def test_constructor_refuses_a_row_that_is_not_a_weight_vector():
    # x1 d1 + x1 d2: one degree and parity, two weights
    rows, descs = _family_rows(FamilySpec("W", 4))
    i, k = w_index(4)[(1, 1)], w_index(4)[(1, 2)]
    rows[k] = {i: 1, k: 1}
    with pytest.raises(AssertionError, match="not a weight vector"):
        _finish_model("W", 4, rows, descs)


def test_constructor_refuses_a_bracket_that_leaves_the_span():
    # without d_1, [d_2, x_2 d_1] = d_1 has nowhere to go
    rows, descs = _family_rows(FamilySpec("W", 4))
    with pytest.raises(AssertionError, match="leaves the span"):
        _finish_model("W", 4, rows[1:], descs[1:])


def test_constructor_refuses_a_chain_outside_the_rows():
    # without x1 d1, the chain's h_1 = x1 d1 is no combination of the rows
    rows, descs = _family_rows(FamilySpec("W", 4))
    k = w_index(4)[(1, 1)]
    with pytest.raises(AssertionError, match="Cartan chain escapes the span"):
        _finish_model("W", 4, rows[:k] + rows[k + 1:], descs[:k] + descs[k + 1:])


def test_constructor_refuses_a_cell_larger_than_the_chain():
    # W(4)'s rows under S(4)'s chain: the four x_i d_i have weight 0, a
    # 4-dimensional cell against a chain of rank 3
    with pytest.raises(AssertionError, match="Cartan cell does not match the chain"):
        _finish_model("S", 4, *_family_rows(FamilySpec("W", 4)))


def test_constructor_refuses_a_chain_on_rows_outside_the_cell(monkeypatch):
    # a family's chain is abelian of degree 0, so the weight check already
    # puts its coordinates on cell rows; a chain of degree 2 that commutes
    # with both rows, x1 x2 x3 d1, is read on the row outside the cell,
    # and the cell, x1 d1, has the chain's rank, 1
    top = w_unit(3, 0b111, 1)
    monkeypatch.setattr(families, "cartan_chain_w", lambda family, n: [top])
    rows = [w_unit(3, 0b001, 1), top]
    descs = [VectorField(0b001, 1), VectorField(0b111, 1)]
    with pytest.raises(AssertionError, match="Cartan cell does not match the chain"):
        _graded("W", 3, rows, descs)
    with pytest.raises(AssertionError, match="chain escapes the Cartan cell"):
        _graded("W'", 3, rows, descs, base=SimpleNamespace(dim=2))


@pytest.mark.parametrize("family,n", [("W", 4), ("S", 4), ("Stilde", 4), ("H", 5)])
def test_chain_read_at_the_homes_is_the_solve_oracle(family, n):
    # the chain's coordinates in the rows by Fraction elimination over all
    # of them are the ints read at the homes, and L' reads the same over
    # L's rows; the chain is independent, so its rank is its length
    rows, descs = _family_rows(FamilySpec(family, n))
    A, _ = _graded(family, n, rows, descs)
    m = Matrix(len(w_basis(n)), len(rows), {})
    for col, row in enumerate(rows):
        for k, c in row.items():
            m.data.setdefault(k, {})[col] = Fraction(c)
    chain = cartan_chain_w(family, n)
    assert rank(Matrix(len(chain), len(w_basis(n)), dict(enumerate(chain)))) == len(chain)
    assert A.cartan_chain == [solve(m, h) for h in chain]
    assert all(type(c) is int for h in A.cartan_chain for c in h.values())
    assert build_lprime(build(family, n)).ext.cartan_chain == A.cartan_chain


@pytest.mark.parametrize("late", ["extra", "dropped"])
def test_attach_derived_names_the_first_differing_pair(late):
    A = build("W", 4)
    table = dict(A.table)
    keys = sorted(table)
    zeros = [(i, j) for i in range(A.dim) for j in range(A.dim) if (i, j) not in table]
    # one extra entry at a pair whose bracket is zero and one dropped entry;
    # the one earlier in row-major order is named, whether the file or the
    # constructor lists it
    extra, dropped = (zeros[0], keys[-1]) if late == "dropped" else (zeros[-1], keys[0])
    del table[dropped]
    table[extra] = {0: 1}
    B = AlgebraModel(A.family, A.n, A.basis, table, A.parity, A.degree, A.weight, A.cartan)
    first = min(extra, dropped)
    with pytest.raises(ModelFormatError, match=rf"^bracket \({first[0]},{first[1]}\) differs"):
        attach_derived(A, model_to_json(B))


def test_attach_derived_names_the_second_holder_of_a_shared_entry():
    # W(4)'s file with the coefficient changed at the second pair, in
    # row-major order, that holds some dict; both pairs are in one row, so
    # the row's written text holds the same entry text twice
    A = build("W", 4)
    holders = {}
    for key in sorted(A.table):
        holders.setdefault(id(A.table[key]), []).append(key)
    first, second = next(keys[:2] for keys in holders.values()
                         if len(keys) > 1 and keys[0][0] == keys[1][0])
    assert A.table[first] is A.table[second]
    obj = json.loads(model_to_json(A))
    entry = next(e for e in obj["bracket"] if tuple(e[:2]) == second)
    entry[2][0][1] = str(int(entry[2][0][1][:-2]) + 1) + "/1"
    text = json.dumps(obj, separators=(",", ":"))
    with pytest.raises(ModelFormatError, match=rf"^bracket \({second[0]},{second[1]}\) differs"):
        attach_derived(A, text)


DESK = [("W", 4), ("S", 4), ("Stilde", 4), ("H", 5), ("H", 6)]


@pytest.mark.parametrize("family,n", DESK)
def test_bracket_tables_hold_ints_when_built_and_when_loaded(family, n):
    A = build(family, n)
    B = model_from_json(model_to_json(A))
    for model in (A, build_lprime(A).ext, B, build_lprime(B).ext):
        assert all(type(c) is int for w in model.table.values() for c in w.values())


def test_a_non_integer_structure_constant_is_refused():
    # with d_1 replaced by 2 d_1, [d_2, x_2 d_1] = d_1 has coordinate 1/2
    rows, descs = _family_rows(FamilySpec("W", 4))
    rows[0] = {k: 2 * c for k, c in rows[0].items()}
    with pytest.raises(AssertionError, match="non-integer coefficient"):
        _finish_model("W", 4, rows, descs)


# -- full builds


def test_dimensions():
    assert build("W", 4).dim == 64
    assert build("S", 4).dim == 49
    assert build("Stilde", 4).dim == 49
    assert build("H", 5).dim == 30
    assert build("H", 6).dim == 62


def test_degree_zero_parts_match_classical_algebras():
    # gl(4), sl(4), so(5) dimension counts by block extraction
    assert sum(1 for d in build("W", 4).degree if d == 0) == 16
    assert sum(1 for d in build("S", 4).degree if d == 0) == 15
    assert sum(1 for d in build("Stilde", 4).degree if d == 0) == 15
    assert sum(1 for d in build("H", 5).degree if d == 0) == 10


def test_grading_depths():
    assert max(build("W", 4).degree) == 3
    assert max(build("S", 4).degree) == 2
    assert max(build("Stilde", 4).degree) == 2
    assert max(build("H", 5).degree) == 2
    assert min(build("W", 4).degree) == -1


def test_stilde_depth_slice_is_shifted():
    St = build("Stilde", 4)
    full = mono_mask([1, 2, 3, 4])
    basis = w_basis(4)
    for i in range(St.dim):
        if St.degree[i] == -1:
            row = St.w_coords[i]
            masks = {basis[k][0] for k in row}
            assert masks == {0, full}


def test_lprime_models():
    for spec, expected in [
        (("W", 4), 64),
        (("S", 4), 50),
        (("Stilde", 4), 49),
        (("H", 5), 32),
        (("H", 6), 64),
    ]:
        A = build(*spec)
        P = build_lprime(A)
        assert P.dim_lprime == expected
        if A.family in ("W", "Stilde"):
            assert P.ext is A
        else:
            rep = check_axioms(P.ext)  # the full proving scan
            assert rep.ok, rep.first_violation
            dim = P.ext.dim
            assert rep.triples_checked == dim * (dim * (dim - 1) // 2 + sum(P.ext.parity))


def test_lprime_euler_acts_as_degree():
    S4 = build("S", 4)
    P = build_lprime(S4)
    c_idx = P.ext.dim - 1
    for b in range(S4.dim):
        out = P.ext.bracket({c_idx: Fraction(1)}, {b: Fraction(1)})
        expect = {b: Fraction(S4.degree[b])} if S4.degree[b] else {}
        assert out == expect


# -- roots and weights


def test_w4_weight_examples():
    W4 = build("W", 4)
    idx = w_index(4)
    k = idx[(mono_mask([1, 2]), 3)]
    assert W4.weight[k] == (1, 1, -1, 0)
    k = idx[(mono_mask([3]), 3)]
    assert W4.weight[k] == (0, 0, 0, 0)


def test_s4_removed_roots_are_absent():
    # the root spaces of e1+...+e4-e_i in W(4) are the top fields
    # x1x2x3x4 d_i; S(4) has no component on them at all, and Stilde(4)
    # touches them only through its shifted depth slice d_i - xi_i
    basis = w_basis(4)
    full = mono_mask([1, 2, 3, 4])
    for row in build("S", 4).w_coords:
        assert all(basis[k][0] != full for k in row)
    St = build("Stilde", 4)
    for i, row in enumerate(St.w_coords):
        if any(basis[k][0] == full for k in row):
            assert St.degree[i] == -1


def test_root_systems_match_descriptions():
    # W(4): {e_{i1}+...+e_{ik} - e_i}, k >= 0, minus the zero root
    W4 = build("W", 4)
    expected = set()
    for a in range(16):
        chi = [1 if a & (1 << t) else 0 for t in range(4)]
        for i in range(4):
            wt = tuple(chi[t] - (1 if t == i else 0) for t in range(4))
            if any(wt):
                expected.add(wt)
    assert {w for w in W4.weight if any(w)} == expected

    # S(4)/Stilde(4): the same set reduced to the sl-torus, with the
    # removed roots e1+..+e4-e_i taken out first
    for family in ("S", "Stilde"):
        A = build(family, 4)
        reduced = set()
        for a in range(16):
            chi = [1 if a & (1 << t) else 0 for t in range(4)]
            for i in range(4):
                eps = [chi[t] - (1 if t == i else 0) for t in range(4)]
                if sum(chi) == 4:  # removed: e1+e2+e3+e4-e_i
                    continue
                wt = tuple(eps[k] - eps[k + 1] for k in range(3))
                if any(wt):
                    reduced.add(wt)
        assert {w for w in A.weight if any(w)} == reduced

    # H(5): {±e_{i1} ± ... ± e_{ik}} over the rank-2 torus
    H5 = build("H", 5)
    expected_h = {
        (a, b)
        for a in (-1, 0, 1)
        for b in (-1, 0, 1)
        if (a, b) != (0, 0)
    }
    assert {w for w in H5.weight if any(w)} == expected_h


def test_euler_field_coordinates():
    e = euler(4)
    idx = w_index(4)
    assert e == {
        idx[(mono_mask([i]), i)]: Fraction(1) for i in range(1, 5)
    }


def test_axioms_hold_for_every_family_at_n_4_5_6():
    # full pair scans, and Jacobi proved from a generating set
    for spec in [
        ("W", 4),
        ("S", 4),
        ("Stilde", 4),
        ("H", 5),
        ("W", 6),
        ("S", 6),
        ("Stilde", 6),
        ("H", 6),
    ]:
        A = build(*spec)
        G = generators(A)
        rep = check_axioms(A, generating_set=G)
        assert rep.ok, spec
        # the generator-mode count: (g, y, z) with y < z, or y = z odd
        assert rep.triples_checked == len(G) * (A.dim * (A.dim - 1) // 2 + sum(A.parity)), spec
