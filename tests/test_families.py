"""Family constructors: dimensions, gradings, roots, the extension L'."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartansuper.exterior import (
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
    attach_derived,
    build,
    build_lprime,
    divergence,
    euler,
    ham,
    involution,
    w_basis,
    w_bracket,
    w_index,
    w_unit,
    xi,
)
from cartansuper.liesuper import ModelFormatError, check_axioms, model_from_json, model_to_json
from cartansuper.linalg import Matrix, SpanSolver, kernel, rank, vec_axpy_inplace


# -- spec validation


@pytest.mark.parametrize(
    "family,n,message",
    [
        ("W", 3, "n >= 4"),
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


def test_dimension_limit_admits_the_largest_models():
    # W(7), dim 896, is the largest model run; H(12), dim 4094, the largest H below the limit
    for family, n in (("W", 7), ("H", 12)):
        FamilySpec(family, n).validate()


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
    assert check_axioms(H5, jacobi_triples=0).ok
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


@pytest.mark.parametrize("family,n", [("W", 4), ("S", 4), ("Stilde", 4), ("H", 5), ("H", 6)])
def test_bracket_rows_are_the_nonzero_pairs_in_row_major_order(family, n):
    # one order of each unordered pair, i <= j, with j >= first for the
    # extension; `_finish_model` mirrors the other
    rows = build(family, n).w_coords
    dim = len(rows)
    for first in (0, dim - 2):
        want = []
        for i in range(dim):
            for j in range(max(i, first), dim):
                z = w_bracket_oracle(n, rows[i], rows[j])
                if z:
                    want.append((i, j, z))
        assert list(_bracket_rows(n, rows, first)) == want


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


def test_span_solver_stays_on_ints_for_unit_leads():
    span = SpanSolver()
    assert span.add({0: 1, 1: 2})
    assert span.add({1: -1, 2: 3})
    assert not span.add({0: 1, 1: 1, 2: 3})
    coords = span.express({0: 2, 1: 1, 2: 9})
    assert coords == {0: 2, 1: 3}
    assert all(type(c) is int for c in coords.values())


def test_span_solver_stays_on_ints_through_a_lead_of_2():
    # the second row reduces to {1: -2}: an integral answer stays an int
    span = SpanSolver()
    assert span.add({0: 1, 1: 1})
    assert span.add({0: 1, 1: -1})
    coords = span.express({0: 1, 1: 3})
    assert coords == {0: 2, 1: -1}
    assert all(type(c) is int for c in coords.values())


@pytest.mark.parametrize("family, n", [("S", 4), ("H", 5)])
def test_lprime_chain_and_table_are_ints(family, n):
    # euler reduces to a lead of 4 in S(4)' and of 2 in H(5)'
    ext = build_lprime(build(family, n)).ext
    assert all(type(c) is int for h in ext.cartan_chain for c in h.values())
    assert all(type(c) is int for w in ext.table.values() for c in w.values())


def test_span_solver_divides_exactly_for_a_lead_of_2():
    span = SpanSolver()
    assert span.add({0: 2, 1: 1})
    assert span.add({1: 1, 2: 2})
    coords = span.express({0: 1, 1: 1, 2: 1})
    assert coords == {0: Fraction(1, 2), 1: Fraction(1, 2)}
    assert all(type(c) is Fraction for c in coords.values())
    assert span.express({2: 1}) is None


def test_span_solver_refuses_a_stray_column_after_exact_home_reads():
    # the homes 0 and 2 read 3 and -1 exactly; column 3 is on no row
    span = SpanSolver()
    assert span.add({0: 1, 1: 2})
    assert span.add({1: 1, 2: 1})
    assert span.express({0: 3, 1: 5, 2: -1}) == {0: 3, 1: -1}
    assert span.express({0: 3, 1: 5, 2: -1, 3: 7}) is None
    assert span.express({3: 7}) is None


def test_span_solver_rereads_homes_after_a_later_add():
    span = SpanSolver()
    assert span.add({0: 1, 1: 1})
    assert span.express({0: 2, 1: 2}) == {0: 2}  # home 0 read
    assert span.add({0: 1, 2: 1})  # takes column 0: row 0's home is now 1
    assert span.express({0: 2, 1: 2}) == {0: 2}
    assert span.express({0: 3, 1: 1, 2: 2}) == {0: 1, 1: 2}
    assert span.express({0: 1}) is None


@pytest.mark.parametrize("family,n", [("W", 4), ("S", 4), ("Stilde", 4), ("H", 5)])
def test_every_basis_row_has_a_home(family, n, monkeypatch):
    # so the table is read off at the homes, with no elimination per bracket
    calls = []
    solve = SpanSolver._solve
    monkeypatch.setattr(SpanSolver, "_solve", lambda span, v: calls.append(v) or solve(span, v))
    A = build(family, n)
    assert calls == []
    build_lprime(A)  # the extra rows of L' take some homes: a few calls, all solved
    assert len(calls) < A.dim


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


@pytest.mark.parametrize("late", ["extra", "dropped"])
def test_attach_derived_names_the_first_differing_pair(late):
    text = model_to_json(build("W", 4))
    B = model_from_json(text)
    keys = sorted(B.table)
    zeros = [(i, j) for i in range(B.dim) for j in range(B.dim) if (i, j) not in B.table]
    # one extra entry at a pair whose bracket is zero and one dropped entry;
    # the one earlier in row-major order is named
    extra, dropped = (zeros[0], keys[-1]) if late == "dropped" else (zeros[-1], keys[0])
    del B.table[dropped]
    B.table[extra] = {0: Fraction(1)}
    first = min(extra, dropped)
    with pytest.raises(ModelFormatError, match=rf"bracket \({first[0]},{first[1]}\)"):
        attach_derived(B)


DESK = [("W", 4), ("S", 4), ("Stilde", 4), ("H", 5), ("H", 6)]


@pytest.mark.parametrize("family,n", DESK)
def test_bracket_tables_hold_ints_when_built_and_when_loaded(family, n):
    A = build(family, n)
    B = attach_derived(model_from_json(model_to_json(A)))
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
            assert check_axioms(P.ext, jacobi_triples=3000, seed=2).ok


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
    # full pair scans always; Jacobi sampled above desk scale
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
        samples = None if A.dim**3 <= 150_000 else 20_000
        assert check_axioms(A, jacobi_triples=samples, seed=1).ok, spec
