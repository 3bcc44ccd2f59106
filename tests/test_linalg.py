"""Exact linear algebra: spec examples plus randomized invariants."""

import copy
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cartansuper.linalg import (
    IntKernel,
    Matrix,
    SpanSolver,
    Subspace,
    as_fractions,
    int_multiple,
    int_reduce,
    intersect,
    kernel,
    kernel_of_rows,
    kernel_terms,
    member,
    rank,
    rref,
    solve,
)


def F(x):
    return Fraction(x)


def random_matrix(rng, rows, cols, density=0.5):
    data = {}
    for i in range(rows):
        for j in range(cols):
            if rng.random() < density:
                v = rng.randint(-4, 4)
                if v:
                    data.setdefault(i, {})[j] = F(v)
    return Matrix(rows, cols, data)


def test_rank_identity():
    assert rank(Matrix.from_dense([[1, 0], [0, 1]])) == 2


def test_rank_zero():
    assert rank(Matrix(3, 3)) == 0


def test_rank_proportional_rows():
    assert rank(Matrix.from_dense([[1, 2], [2, 4]])) == 1


def test_kernel_identity_is_zero():
    assert kernel(Matrix.from_dense([[1, 0], [0, 1]])).dim == 0


def test_kernel_zero_map_is_full():
    k = kernel(Matrix(4, 4))
    assert k.dim == 4
    assert k == Subspace.full(4)


def test_kernel_one_relation():
    k = kernel(Matrix.from_dense([[1, 1]]))
    assert k.dim == 1
    (row,) = k.rows
    assert row == {0: F(1), 1: F(-1)}


def test_solve_identity():
    m = Matrix.from_dense([[1, 0], [0, 1]])
    assert solve(m, [3, -5]) == {0: F(3), 1: F(-5)}


def test_solve_infeasible():
    m = Matrix.from_dense([[1], [0]])
    assert solve(m, [0, 1]) is None


def test_solve_free_variables_zero():
    m = Matrix.from_dense([[1, 1]])
    assert solve(m, [5]) == {0: F(5)}


def test_intersect_with_full():
    b = Subspace.from_vectors([{0: F(1), 2: F(2)}], 3)
    assert intersect(Subspace.full(3), b) == b


def test_intersect_distinct_lines():
    a = Subspace.from_vectors([{0: F(1)}], 2)
    b = Subspace.from_vectors([{1: F(1)}], 2)
    assert intersect(a, b).dim == 0


def test_intersect_self():
    a = Subspace.from_vectors([{0: F(1), 1: F(1)}, {2: F(1)}], 3)
    assert intersect(a, a) == a


def test_intersect_ambient_mismatch():
    a = Subspace.full(2)
    b = Subspace.full(3)
    with pytest.raises(ValueError):
        intersect(a, b)


def test_member_zero_vector():
    s = Subspace.from_vectors([{0: F(1)}], 3)
    assert member(s, {})
    assert member(s, [0, 0, 0])


def test_member_basis_rows():
    s = Subspace.from_vectors([{0: F(1), 1: F(2)}, {2: F(1)}], 3)
    for row in s.rows:
        assert member(s, row)


def test_member_outside():
    s = Subspace.from_vectors([{0: F(1)}], 2)
    assert not member(s, [0, 1])


def transpose(m):
    data = {}
    for i, row in m.data.items():
        for j, x in row.items():
            data.setdefault(j, {})[i] = x
    return Matrix(m.cols, m.rows, data)


def test_rank_equals_rank_of_transpose():
    rng = random.Random(11)
    for _ in range(25):
        m = random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
        assert rank(m) == rank(transpose(m))


def test_rank_nullity():
    rng = random.Random(12)
    for _ in range(25):
        cols = rng.randint(1, 8)
        m = random_matrix(rng, rng.randint(1, 8), cols)
        assert kernel(m).dim + rank(m) == cols


def test_solve_is_exact():
    rng = random.Random(13)
    hits = 0
    for _ in range(40):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        x = {j: F(rng.randint(-3, 3)) for j in range(m.cols)}
        b = m.matvec(x)
        sol = solve(m, b)
        assert sol is not None
        assert m.matvec(sol) == b
        hits += 1
    assert hits == 40


def test_member_of_kernel_iff_maps_to_zero():
    rng = random.Random(14)
    for _ in range(25):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        k = kernel(m)
        for _ in range(6):
            v = {j: F(rng.randint(-2, 2)) for j in range(m.cols)}
            v = {j: c for j, c in v.items() if c}
            assert member(k, v) == (m.matvec(v) == {})


def test_grassmann_dimension_formula():
    rng = random.Random(15)
    for _ in range(25):
        ambient = rng.randint(2, 7)
        def rand_space():
            vecs = []
            for _ in range(rng.randint(0, ambient)):
                v = {j: F(rng.randint(-2, 2)) for j in range(ambient)}
                vecs.append({j: c for j, c in v.items() if c})
            return Subspace.from_vectors(vecs, ambient)
        a, b = rand_space(), rand_space()
        inter = a.intersect(b)
        total = a.sum(b)
        assert a.dim + b.dim == inter.dim + total.dim


def test_annihilator_characterizes_membership():
    rng = random.Random(16)
    for _ in range(15):
        ambient = rng.randint(2, 6)
        vecs = []
        for _ in range(rng.randint(1, ambient)):
            v = {j: F(rng.randint(-2, 2)) for j in range(ambient)}
            vecs.append({j: c for j, c in v.items() if c})
        s = Subspace.from_vectors(vecs, ambient)
        # over Q the dot product is anisotropic, so the kernel of the rows
        # of s is its annihilator, and v is in s iff every row of it kills v
        ann = kernel_of_rows(s.rows, s.ambient)
        assert len(ann) == ambient - s.dim
        for _ in range(6):
            v = {j: F(rng.randint(-2, 2)) for j in range(ambient)}
            v = {j: c for j, c in v.items() if c}
            killed = all(
                sum(row.get(j, F(0)) * c for j, c in v.items()) == 0
                for row in ann
            )
            assert killed == s.contains(v)


# -- integer rows

# small entries, plus multiples of a large prime and entries congruent to
# small ones modulo it
P = 2**31 - 1
ENTRY = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([P, -P, 2 * P, P + 1, P * P, 40000]),
)


@st.composite
def int_rows(draw, max_cols=6, max_rows=8):
    ncols = draw(st.integers(1, max_cols))
    rows = draw(st.lists(
        st.dictionaries(st.integers(0, ncols - 1), ENTRY, max_size=ncols),
        max_size=max_rows,
    ))
    rows = [{k: c for k, c in row.items() if c} for row in rows]
    # repeat some rows, as the Leibniz system does
    rows += draw(st.lists(st.sampled_from(rows), max_size=3)) if rows else []
    return rows, ncols


@settings(max_examples=200, deadline=None)
@given(int_rows(), st.randoms(use_true_random=False))
def test_rref_is_unique_per_row_space(case, rnd):
    rows, _ = case
    mixed = []
    for row in rows:
        scale = rnd.choice([-2, 1, 3])
        mixed.append({k: c * scale for k, c in row.items()})
    rnd.shuffle(mixed)
    assert rref(as_fractions(mixed)) == rref(as_fractions(rows))


# -- the fraction-free integer kernel


def kernel_of_int_rows(rows, ncols):
    """The kernel basis of integer rows, cut into an `IntKernel`."""
    kern = IntKernel(ncols)
    for row in rows:
        kern.cut(row)
    return kern.basis()


@settings(max_examples=300, deadline=None)
@given(int_rows())
@example(([{0: P, 1: 1}], 2))
@example(([{0: 1, 1: 40000}], 2))
@example(([{0: 2}, {1: -1}, {0: 1, 1: 1}], 2))
@example(([], 3))
def test_int_kernel_is_the_exact_kernel_on_ints(case):
    rows, ncols = case
    rows = rows + [{}]  # a zero row, beside the repeated ones
    exact = kernel_of_rows(as_fractions(rows), ncols)
    got = kernel_of_int_rows(rows, ncols)
    assert all(type(c) is int for v in got for c in v.values())
    assert Subspace.from_vectors(as_fractions(got), ncols) == Subspace.from_vectors(
        exact, ncols
    )
    # row by row, each vector is a positive multiple of the RREF row
    assert len(got) == len(exact)
    for v, e in zip(got, exact):
        lead = min(e)
        assert min(v) == lead and v[lead] > 0
        assert {k: Fraction(c, v[lead]) for k, c in v.items()} == e


def test_int_kernel_small_cases():
    assert kernel_of_int_rows([], 2) == [{0: 1}, {1: 1}]
    assert kernel_of_int_rows([{0: 2}, {1: -1}], 2) == []
    # the RREF kernel of 2x - 4y + 6z = 0 is (1, 0, -1/3), (0, 1, 2/3)
    assert kernel_of_int_rows([{0: 2, 1: -4, 2: 6}], 3) == [
        {0: 3, 2: -1}, {1: 3, 2: 2}
    ]


def test_int_kernel_dependent_cut_changes_nothing():
    kern = IntKernel(3)
    assert len(kern) == 3
    assert kern.cut({0: 2, 1: -4, 2: 6})
    assert len(kern) == 2
    rows = dict(kern.rows)
    # a multiple of a kept row, a zero row, and a combination of kept rows
    assert not kern.cut({0: -1, 1: 2, 2: -3})
    assert not kern.cut({})
    assert len(kern) == 2 and kern.rows == rows
    assert kern.cut({1: 1})
    assert not kern.cut({0: 1, 1: 5, 2: 3})
    assert len(kern) == 1
    assert rows.items() <= kern.rows.items()


@settings(max_examples=200, deadline=None)
@given(int_rows())
def test_int_kernel_basis_is_the_exact_kernel_after_every_cut(case):
    rows, ncols = case
    kern, untouched = IntKernel(ncols), IntKernel(ncols)
    for i, row in enumerate(rows):
        assert kern.cut(row) == untouched.cut(row)
        # reading the basis leaves the kept rows, and so later cuts, alone
        kept = {lead: dict(r) for lead, r in kern.rows.items()}
        got = kern.basis()
        assert kern.rows == kept == untouched.rows
        exact = kernel_of_rows(as_fractions(rows[: i + 1]), ncols)
        assert len(kern) == len(got) == len(exact)
        for v, e in zip(got, exact):
            assert {k: Fraction(c, v[min(v)]) for k, c in v.items()} == e


def test_int_reduce_divides_by_the_content():
    # {0: 4, 1: 2} - 2 {0: 1, 1: 1} = {0: 2}, whose content is 2
    assert int_reduce({1: {0: 1, 1: 1}}, {0: 4, 1: 2}) == {0: 1}
    # -{0: 1, 1: 1} - {0: 3, 1: -1} = {0: -4}: a lead of -1 flips the sign
    assert int_reduce({1: {0: 3, 1: -1}}, {0: 1, 1: 1}) == {0: -1}
    # with nothing to eliminate, the argument itself comes back
    row = {0: 4, 1: 2}
    assert int_reduce({0: {0: 1}}, row) is row


def test_integer_eliminations_drop_stored_zeros():
    # a stored 0 is no term: not a lead, and not a term to cancel
    row = {3: 0, 1: 2}
    assert int_reduce({}, row) == {1: 2} and row == {3: 0, 1: 2}
    kern = IntKernel(3)
    assert kern.cut({0: 1})
    assert not kern.cut({2: 0, 0: 5})  # at the 0 lead no pivot: {0: 5} lies in the span
    # a kept row {0: 0, 1: 1} with a stored 0, against which {1: 1} reduces
    kern = IntKernel(2)
    assert kern.cut({0: 0, 1: 1})
    assert not kern.cut({1: 1})
    assert len(kern) == 1 and kern.basis() == [{0: 1}]


def test_fraction_helpers_drop_explicit_zeros():
    # an explicit 0 at a pivot's column made `Echelon.insert` and
    # `Subspace.contains` loop for ever (a zero multiple of the pivot row
    # leaves the 0 in place), so the calls run in a fresh interpreter that
    # the timeout stops
    code = (
        "from cartansuper.linalg import Subspace, kernel_of_rows\n"
        "print(Subspace.from_vectors([{0: 1}, {0: 0, 1: 2}], 2).dim)\n"
        "print(Subspace.from_vectors([{0: 1}], 2).contains({0: 0, 1: 1}))\n"
        "print(Subspace.from_vectors([{1: 1}], 2).contains({0: 0, 1: 1}))\n"
        "print(kernel_of_rows([{0: 1}, {0: 0, 1: 1}], 3) == [{2: 1}])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=30)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["2", "False", "True", "True"]


def fraction_reduce(pivots, v):
    """v reduced over Q against rows keyed by their last column."""
    v = {k: Fraction(c) for k, c in v.items()}
    while v:
        lead = max(v)
        prow = pivots.get(lead)
        if prow is None:
            break
        f = v[lead] / prow[lead]
        for k, c in prow.items():
            s = v.get(k, 0) - f * c
            if s:
                v[k] = s
            else:
                del v[k]
    return v


def primitive_positive(v):
    """The primitive integer multiple of v with a positive last entry."""
    w = int_multiple(v)
    g = gcd(*w.values())
    return {k: c // (g if w[max(w)] > 0 else -g) for k, c in w.items()}


@settings(max_examples=300, deadline=None)
@given(int_rows())
# multipliers of about 2**62 at two steps: the content is divided mid-reduction
@example(([{0: 1, 1: P * P}, {0: 1, 2: (P + 1) ** 2}, {0: 1, 1: 1, 2: 1}], 3))
# a row kept in raw with a lead of -1, as constraint_rows keeps the orbit
@example(([{0: 3, 1: -1}, {0: 1, 1: 1}, {1: 2, 2: 2}, {0: 1, 2: 5}], 3))
def test_int_reduce_and_cut_keep_the_fraction_rows_and_write_nothing(case):
    """The in-place pivot step writes only its own copy: `_graded` cuts the
    model's `w_coords` rows and `generators` keeps every vector it cuts.
    Every kept row is the primitive, positive-lead multiple of the row that
    Fraction elimination keeps for that lead, and the kernel read off rows
    kept as `int_reduce` returns them, unscaled, is `basis()`."""
    rows, ncols = case
    kern, kept, raw = IntKernel(ncols), {}, {}
    for row in rows:
        arg, stored = copy.deepcopy(row), copy.deepcopy(kern.rows)
        want = fraction_reduce(kept, row)
        got = int_reduce(kern.rows, row)
        assert row == arg and kern.rows == stored
        assert bool(got) == bool(want)
        if got:
            lead = max(got)
            assert lead == max(want) and lead not in kern.rows
            assert got is row or gcd(*got.values()) == 1
            # got is a nonzero multiple of want
            ratio = Fraction(got[lead]) / want[lead]
            assert {k: Fraction(c) for k, c in got.items()} == {
                k: c * ratio for k, c in want.items()
            }
        assert kern.cut(row) == bool(want)
        assert row == arg
        assert all(kern.rows[lead] == r for lead, r in stored.items())
        if want:
            kept[max(want)] = want
        assert kern.rows == {lead: primitive_positive(v) for lead, v in kept.items()}
        v = int_reduce(raw, row)
        if v:
            raw[max(v)] = v
    raw_rows = copy.deepcopy(raw)
    assert [dict(t) for t in kernel_terms(raw, range(ncols))] == kern.basis()
    assert raw == raw_rows


# -- the span solver, against the Fraction oracle


@settings(max_examples=200, deadline=None)
@given(int_rows(), st.randoms(use_true_random=False))
@example(([{0: 2, 1: 1}, {1: 1, 2: 2}], 3), random.Random(0))
def test_span_solver_agrees_with_solve(case, rnd):
    # each row gets a private column past ncols, so the rows are
    # independent and each has a home (not always the private column)
    drawn, ncols = case
    rows = [{**row, ncols + k: rnd.choice([-2, 1, 3])} for k, row in enumerate(drawn)]
    width = ncols + len(rows)
    span = SpanSolver(rows)
    assert sorted(i for i, _, _ in span.homes.values()) == list(range(len(rows)))
    # the rows as the columns of a matrix, for solve
    m = Matrix(width, len(rows), {})
    for col, row in enumerate(rows):
        for c, x in row.items():
            m.data.setdefault(c, {})[col] = Fraction(x)

    def oracle(v):
        return solve(m, as_fractions([v])[0])

    # an integer combination of the rows, divided by an integer that keeps
    # it integral, so some coordinates may be Fractions
    z = {}
    for row in rows:
        a = rnd.randint(-3, 3)
        for c, x in row.items():
            z[c] = z.get(c, 0) + a * x
    z = {c: x for c, x in z.items() if x}
    d = gcd(*z.values(), rnd.choice([1, 2, 3, 4, 6])) if z else 1
    v = {c: x // d for c, x in z.items()}
    got = span.express(v)
    assert got is not None and got == oracle(v)
    assert all((type(c) is int) == (Fraction(c).denominator == 1) for c in got.values())
    # any integer vector: None exactly when solve finds no solution
    w = {c: rnd.randint(-2, 2) for c in range(width)}
    w = {c: x for c, x in w.items() if x}
    assert span.express(w) == oracle(w)
    # a column that no row touches
    assert span.express({**v, width: 1}) is None
