"""Constructors for the Cartan type families W(n), S(n), S~(n), H(n).

All four live inside the superderivation algebra of the exterior algebra on
n generators.  Every model is built over a fixed ambient basis of monomial
vector fields f*d_j (the W(n) basis, ordered degree-major), with a single
closed-form bracket

    [f d_i, g d_j] = f d_i(g) d_j - (-1)^((|f|+1)(|g|+1)) g d_j(f) d_i

and the subfamilies carved out exactly:

* S(n):  the kernel of the divergence map, echelonized over the monomial
  ordering, which yields a deterministic canonical basis.
* S~(n): the degree -1 slice replaced by the fields d_i - x_1...x_n d_i,
  all other slices shared with S(n); degrees live in Z_n, stored as
  representatives in {-1, ..., n-2}.
* H(n):  the Hamiltonian fields of the monomials of degree 1..n-1 (the
  constant inputs are annihilated, so they contribute nothing).

Cartan subalgebras are the diagonal tori matching the degree-0 parts
gl(n), sl(n), so(n):

    W:    h_i = x_i d_i                 (i = 1..n)
    S,S~: h_i = x_i d_i - x_{i+1} d_{i+1}   (i = 1..n-1)
    H:    h_i = x_i d_i - x_{i'} d_{i'}     (i = 1..[n/2])

Weights are the exact ad-eigenvalue vectors against those chains; the
constructors verify the eigenvector property entry by entry.

The bracket tables of W, S, S~ and every L' are computed by one
output-sensitive kernel over integer rows (`_row_brackets`).  Every term
of the basis rows is indexed by the generators of its monomial and by its
d-index; a term f d_a then visits only the partner terms g d_b with x_a in
g or x_b in f, the ones a derivative can hit, and looks up the result's
index and sign in flat per-n tables.  Only nonzero brackets come out.  The
same kernel, run once per Cartan chain element over all rows, gives the
weights.

H(n)'s table is computed in H's own basis, from the Poisson bracket of its
monomials (`_hamiltonian_brackets`).  D_H is a homomorphism from the
Poisson superalgebra of the exterior algebra onto H~(n), whose kernel is
the constants (V. G. Kac, "Lie superalgebras", Adv. Math. 26 (1977)):

    [D_H(f), D_H(g)] = D_H(D_H(f)(g)),
    D_H(f)(g) = (-1)^|f| sum_i d_i(f) d_{i'}(g).

So [D_H(x^A), D_H(x^B)] = sum_C c_C D_H(x^C), where c_C is the coefficient
of x^C in D_H(x^A)(x^B), a sum over the generators of A of products of two
monomials.  A constant C contributes nothing, since D_H(1) = 0.  Any other
C must be a basis monomial, of degree 1..n-1, and c_C is then the
coordinate of its row; a nonzero c_C at another monomial (the top one, or
one whose row a basis lacks) means the bracket leaves the span, and
raises.  A Hamiltonian row has |A| terms against the few generators of A,
so a pair costs a few bit operations per term pair and needs no readout.
`_finish_model` takes this route when there is no base and every
descriptor is a `Ham`, once each row is checked to be D_H of its
descriptor's monomial; L' of H, with the Euler field, takes the W route.

Each unordered pair of basis rows is bracketed once, as (i, j) with
i <= j.  The other order follows from super anticommutativity,

    [j, i] = -(-1)^(|i||j|) [i, j],

which holds for any two parity-homogeneous fields (the closed form above
is super antisymmetric term by term).  `_graded` checks that every row
is homogeneous in parity, so [j, i] is stored as +[i, j] when both rows
are odd and -[i, j] otherwise, exactly, with no second bracket and no
second readout.

The W route builds the table one basis row at a time (`_bracket_rows`): row i is
bracketed with all its partners j >= i in one `_row_brackets` call, and
each coordinate is read off that one accumulator at a *home*, with no
elimination.  Every basis row has a home, a column where no other row is
nonzero (W: the row's unit; H: the Hamiltonian rows have disjoint
supports; S and S~: the free column of the divergence-kernel basis), so
if [i, j] = sum_r c_r row_r then c_r = [i, j][h] / row_r[h] at the home h
of row r.  The rows and the kernel are integer, so this is a quotient of
ints, and an exact one gives an int.  In L' the Euler field and the top
Hamiltonian take a few rows' homes.  A bracket that needs one of those
rows raises, but no build brackets one: `build_lprime` brackets only the
pairs with j >= dim L, which need no such row (see `_bracket_rows`).  A
bracket read at the homes is an exact quotient of ints, and one that is
not raises too.  So the table holds Python ints: every
structure constant of the four families is an integer.  So are the basis
rows, the Cartan chain and the divergence kernel: a build makes no
Fraction, which only `ExtElem`'s helpers (`divergence`, `ham`) return.

A model file is what `build` writes, byte for byte (`model_from_json`):
only its head, the family and n, is read; the file's basis is compared
with the constructor's descriptors, the constructor builds that model from
the same rows, and the file is compared with the text `model_to_json`
writes for it, one basis row of bracket entries at a time
(`attach_derived`).  The first difference names a field with its index
or a bracket pair.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from .exterior import (
    ExtElem,
    all_monomials,
    check_n,
    mono_degree,
    mono_partial,
)
from .liesuper import (
    FAMILIES,
    AlgebraModel,
    BasisDesc,
    Combo,
    GradingElement,
    Ham,
    ModelFormatError,
    VectorField,
    WeightVec,
    first_difference,
    head_difference,
    model_head,
)
from .linalg import IntKernel, IntVec, SpanSolver, Vec, vec_axpy_inplace

# the largest dim L a spec may have; the slow tier runs the largest admitted
# model, H(12), dim 4,094
MAX_DIM = 4096


class FamilyError(ValueError):
    """A family/n combination outside the defined range."""


class FamilySpec(NamedTuple):
    """A family name and n; a NamedTuple, not a dataclass (see the basis
    descriptors in `liesuper`)."""

    family: str
    n: int

    def validate(self) -> None:
        f, n = self.family, self.n
        if f not in FAMILIES:
            raise FamilyError(f"unknown family {f!r} (expected W, S, Stilde or H)")
        try:
            check_n(n)
        except ValueError as exc:
            raise FamilyError(str(exc)) from None
        if f == "W" and n < 3:
            raise FamilyError("W requires n >= 3")
        if f == "S" and n < 4:
            raise FamilyError("S requires n >= 4")
        if f == "Stilde":
            if n < 4:
                raise FamilyError("Stilde requires n >= 4")
            if n % 2:
                raise FamilyError("Stilde requires even n")
        if f == "H" and n <= 4:
            raise FamilyError("H requires n > 4")
        if self.dim > MAX_DIM:
            raise FamilyError(f"{self} has dimension {self.dim}, above the limit {MAX_DIM}")

    @property
    def dim(self) -> int:
        """dim of the algebra, from the closed form (no construction)."""
        f, n = self.family, self.n
        if f == "W":
            return n << n
        if f == "H":
            return (1 << n) - 2
        return ((n - 1) << n) + 1

    @property
    def dim_lprime(self) -> int:
        """dim of L' (`build_lprime`), from the closed form: dim L plus the
        outer elements, none for W and Stilde, 1 for S and 2 for H."""
        return self.dim + {"S": 1, "H": 2}.get(self.family, 0)

    def __str__(self) -> str:
        return f"{self.family}({self.n})"


def involution(i: int, n: int) -> int:
    """The index pairing i': i+r for i <= r, i-r for r < i <= 2r, else fixed."""
    if not 1 <= i <= n:
        raise ValueError(f"index {i} out of 1..{n}")
    r = n // 2
    if i <= r:
        return i + r
    if i <= 2 * r:
        return i - r
    return i


# ---------------------------------------------------------------------------
# the ambient W(n) coordinate system


@lru_cache(maxsize=None)
def w_basis(n: int) -> Tuple[Tuple[int, int], ...]:
    """Ambient basis (mask, j) of W(n), ordered by (deg f, mask, j)."""
    check_n(n)
    return tuple((m, j) for m in all_monomials(n) for j in range(1, n + 1))


@lru_cache(maxsize=None)
def w_index(n: int) -> Dict[Tuple[int, int], int]:
    return {fj: i for i, fj in enumerate(w_basis(n))}


def w_unit(n: int, mask: int, j: int, coeff: int = 1) -> IntVec:
    return {w_index(n)[(mask, j)]: coeff}


@lru_cache(maxsize=None)
def _w_tables(n: int) -> Tuple[List[int], List[int], List[int]]:
    """Flat lookup tables of the W(n) bracket kernel.

    pos[mask*n + j-1] is the W(n) index of (mask, j); par[x] is the parity of
    popcount(x); sp[a] has bit p set when a has an odd number of generators
    above p, so the monomial product a*b has sign (-1)^par[sp[a] & b].
    """
    pos = [0] * (n << n)
    for k, (mask, j) in enumerate(w_basis(n)):
        pos[mask * n + j - 1] = k
    par = [x.bit_count() & 1 for x in range(1 << n)]
    sp = [0] * (1 << n)
    for a in range(1 << n):
        for p in range(n):
            if par[a >> (p + 1)]:
                sp[a] |= 1 << p
    return pos, par, sp


# A term index over rows j >= first: for each generator a, the terms g d_b
# with x_a in g, as (j*n*2^n, g without x_a, b-1, c * sign of d_a(g)); for
# each b, the terms g d_b as (j*n*2^n, g, c, parity of g).  Each list runs
# from the last row down, so the lowest rows' terms sit at its end.
_TermIndex = Tuple[List[list], List[list]]


def _term_index(n: int, rows: List[Vec], first: int = 0) -> _TermIndex:
    basis = w_basis(n)
    par = _w_tables(n)[1]
    stride = n << n
    by_gen: List[list] = [[] for _ in range(n)]
    by_d: List[list] = [[] for _ in range(n)]
    for j in range(len(rows) - 1, first - 1, -1):
        key = j * stride
        for k, c in rows[j].items():
            g, b = basis[k]
            by_d[b - 1].append((key, g, c, par[g]))
            for a in range(n):
                bit = 1 << a
                if g & bit:
                    s = -c if par[g & (bit - 1)] else c
                    by_gen[a].append((key, g ^ bit, b - 1, s))
    return by_gen, by_d


def _row_brackets(n: int, row: Vec, index: _TermIndex) -> Dict[int, object]:
    """[row, row_j] for every indexed row j, as a dict keyed j*n*2^n + k
    holding the coefficient of W(n) basis vector k (zeros included).

    With f d_a a term of row and g d_b a term of row j, the closed form

        [f d_a, g d_b] = f d_a(g) d_b - (-1)^((|f|+1)(|g|+1)) g d_b(f) d_a

    is nonzero only where x_a divides g or x_b divides f, so each term of
    row visits only those partners.
    """
    pos, par, sp = _w_tables(n)
    basis = w_basis(n)
    by_gen, by_d = index
    acc: Dict[int, object] = {}
    get = acc.get
    for k, c1 in row.items():
        f, a = basis[k]
        spf = sp[f]
        for key, g1, b, c2 in by_gen[a - 1]:
            if g1 & f:
                continue
            t = key + pos[(f | g1) * n + b]
            v = c1 * c2
            acc[t] = get(t, 0) + (-v if par[spf & g1] else v)
        # -(-1)^((|f|+1)(|g|+1)) is -1 for odd f and (-1)^|g| for even f
        fodd = par[f]
        feven = fodd ^ 1
        col = a - 1
        for b in range(n):
            bit = 1 << b
            if not f & bit:
                continue
            f1 = f ^ bit
            c = -c1 if par[f & (bit - 1)] ^ fodd else c1
            for key, g, c2, gpar in by_d[b]:
                if g & f1:
                    continue
                t = key + pos[(g | f1) * n + col]
                v = c * c2
                acc[t] = get(t, 0) + (-v if par[sp[g] & f1] ^ (gpar & feven) else v)
    return acc


def w_bracket(n: int, a: Vec, b: Vec) -> Vec:
    """Bilinear bracket of two fields given in W(n) coordinates."""
    acc = _row_brackets(n, a, _term_index(n, [b]))
    return {k: c for k, c in acc.items() if c}


def divergence(n: int, v: Vec) -> ExtElem:
    """sum_i d_i(f_i) of a field sum_i f_i d_i given in W(n) coordinates."""
    basis = w_basis(n)
    terms: Dict[int, object] = {}
    for i, c in v.items():
        mask, j = basis[i]
        hit = mono_partial(j, mask)
        if hit is not None:
            vec_axpy_inplace(terms, hit[0], {hit[1]: c})
    return ExtElem(n, terms)


def _ham_mono(n: int, mask: int) -> IntVec:
    """D_H of the monomial x^mask, (-1)^|mask| sum_i d_i(x^mask) d_{i'}, in W
    coords.  Its terms sit at distinct fields (mask without x_i, i')."""
    idx = w_index(n)
    pref = -1 if mono_degree(mask) % 2 else 1
    out: IntVec = {}
    for i in range(1, n + 1):
        hit = mono_partial(i, mask)
        if hit is not None:
            sign, m = hit
            out[idx[(m, involution(i, n))]] = pref * sign
    return out


def ham(f: ExtElem) -> Vec:
    """The Hamiltonian field D_H(f) = (-1)^|f| sum_i d_i(f) d_{i'}, in W coords:
    the sum of c * `_ham_mono` over the terms c x^mask of f.

    f must be parity-homogeneous; the sign prefactor is undefined otherwise.
    """
    if f.parity() is None:
        raise ValueError("ham requires a parity-homogeneous element")
    out: Vec = {}
    for mask, c in f.terms.items():
        vec_axpy_inplace(out, c, _ham_mono(f.n, mask))
    return out


def xi(i: int, n: int) -> IntVec:
    """The top-monomial field x_1...x_n d_i."""
    if not 1 <= i <= n:
        raise ValueError(f"index {i} out of 1..{n}")
    return w_unit(n, (1 << n) - 1, i)


def euler(n: int) -> IntVec:
    """The grading field sum_i x_i d_i."""
    out: IntVec = {}
    for i in range(1, n + 1):
        out.update(w_unit(n, 1 << (i - 1), i))
    return out


def cartan_chain_w(family: str, n: int) -> List[IntVec]:
    """The standard Cartan basis h_1..h_l in W(n) coordinates, over ints."""
    def diag(i: int, c: int = 1) -> Vec:
        return {w_index(n)[(1 << (i - 1), i)]: c}

    if family == "W":
        return [diag(i) for i in range(1, n + 1)]
    if family in ("S", "Stilde"):
        pairs = [(i, i + 1) for i in range(1, n)]
    elif family == "H":
        pairs = [(i, involution(i, n)) for i in range(1, n // 2 + 1)]
    else:
        raise FamilyError(f"unknown family {family!r}")
    return [{**diag(i), **diag(k, -1)} for i, k in pairs]


# ---------------------------------------------------------------------------
# model assembly


def _row_desc(n: int, row: Vec) -> BasisDesc:
    basis = w_basis(n)
    if len(row) == 1:
        ((i, c),) = row.items()
        if c == 1:
            mask, j = basis[i]
            return VectorField(mask, j)
    return Combo(tuple((row[i], *basis[i]) for i in sorted(row)))


def _graded(
    family: str,
    n: int,
    rows: List[IntVec],
    descs: List[BasisDesc],
    base: Optional[AlgebraModel] = None,
) -> Tuple[AlgebraModel, SpanSolver]:
    """An AlgebraModel with an empty bracket table, from basis rows given in
    W(n) coordinates, plus the rows' homes (`SpanSolver`), where
    `_bracket_rows` reads the table.

    Verifies along the way that the rows are independent and that every
    row has integer coordinates, is homogeneous in parity and (possibly
    modular) degree, and is an exact simultaneous eigenvector of the
    Cartan chain, whose coordinates are read at the homes; any failure is
    a constructor bug, not user error.  For L' over ``base``, whose rows
    must lead these, the chain is base's, and the grading element enlarges
    the zero cell, so the chain need only sit inside it.
    """
    chain_family = family.rstrip("'")
    modulus = n if chain_family == "Stilde" else None
    basis_w = w_basis(n)
    if any(type(c) is not int for row in rows for c in row.values()):
        raise AssertionError(f"{family}({n}): non-integer basis row")

    period = modulus or n + 1  # field degree = deg f - 1, and deg f <= n
    parity: List[int] = []
    degree: List[int] = []
    for row in rows:
        degs = {mono_degree(basis_w[i][0]) % period - 1 for i in row}
        pars = {(mono_degree(basis_w[i][0]) + 1) % 2 for i in row}
        if len(degs) != 1 or len(pars) != 1:
            raise AssertionError(f"{family}({n}): basis row not bigraded")
        degree.append(degs.pop())
        parity.append(pars.pop())

    chain_w = cartan_chain_w(chain_family, n)
    stride = n << n
    index = _term_index(n, rows)
    weights: List[List[int]] = [[] for _ in rows]
    for h in chain_w:
        # [h, row j] for every j at once, split by j
        hits: List[Vec] = [{} for _ in rows]
        for t, c in _row_brackets(n, h, index).items():
            if c:
                j, k = divmod(t, stride)
                hits[j][k] = c
        for row, z, wt in zip(rows, hits, weights):
            lead = min(row)
            lam, rem = divmod(z.get(lead, 0), row[lead])
            if rem or z != {k: lam * c for k, c in row.items() if lam * c}:
                raise AssertionError(
                    f"{family}({n}): basis row not a weight vector of integer weight"
                )
            wt.append(lam)
    weight: List[WeightVec] = [tuple(wt) for wt in weights]

    kern = IntKernel(len(basis_w))
    if not all(kern.cut(row) for row in rows):
        raise AssertionError(f"{family}({n}): dependent basis rows")

    span = SpanSolver(rows)
    if base is None:
        chain_model = [span.express(h) for h in chain_w]
        if None in chain_model:
            raise AssertionError(f"{family}({n}): Cartan chain escapes the span")
    else:
        # the chain lies in L, whose rows lead the rows of L': it has L's
        # coordinates, read at L's homes when L was built
        if rows[: base.dim] != base.w_coords:
            raise AssertionError(f"{family}({n}): L's rows do not lead the rows")
        chain_model = base.cartan_chain

    zero_wt = tuple([0] * len(chain_w))
    cartan = [i for i in range(len(rows)) if degree[i] == 0 and weight[i] == zero_wt]
    # the rows are independent, so the chain lies in the cell exactly when
    # its coordinates sit on cell rows; the chain's vectors are independent
    # (`cartan_chain_w`), so its rank is its length
    inside = {k for coords in chain_model for k in coords}.issubset(cartan)
    if base is not None:
        if not inside:
            raise AssertionError(f"{family}({n}): chain escapes the Cartan cell")
    elif not inside or len(cartan) != len(chain_w):
        raise AssertionError(f"{family}({n}): Cartan cell does not match the chain")

    model = AlgebraModel(family, n, descs, {}, parity, degree, weight, cartan,
                         grading_modulus=modulus, w_coords=rows, cartan_chain=chain_model)
    return model, span


def _bracket_rows(
    model: AlgebraModel, span: SpanSolver, first: int = 0
) -> Iterator[Tuple[int, int, IntVec]]:
    """Yield (i, j, the coordinates of [row i, row j] in the rows), in
    row-major order, for every pair of the model's basis rows with i <= j
    and j >= first whose bracket is nonzero; ``span`` holds the rows.  The
    one place that brackets basis rows; `_finish_model` fills in the other
    order.

    One term index over the rows j >= first serves every i: before row i
    is bracketed, the terms of the rows below i are popped off the ends of
    its lists.  `_row_brackets` brackets row i with all its partners at
    once, and the coordinates are read off that one accumulator at the
    partners' home columns (`SpanSolver.homes`): if z = sum_r c_r row_r,
    then z[h] = c_r row_r[h] at the home h of row r, so c_r is read there,
    and c_r times the row's other terms is subtracted from a remainder kept
    for the whole of row i, as `SpanSolver.express` does for one vector.
    A bracket in the span whose coordinates are ints leaves a zero
    remainder and exact divisions, so a nonzero remainder or an inexact
    division raises AssertionError naming the pair: the bracket leaves the
    span, has a non-integer coordinate, or needs a row whose home another
    row takes.  In L' the Euler field and the top Hamiltonian take a few
    homes: `build_lprime` passes first = dim L and brackets only the pairs
    with j >= dim L, none of which needs such a row, while first = 0 over
    an L' model meets one and raises.  A home coordinate is an exact quotient of
    ints, so an int.
    """
    n, rows = model.n, model.w_coords
    stride = n << n
    index = _term_index(n, rows, first)
    lists = index[0] + index[1]
    homes = span.homes
    for i, row in enumerate(rows):
        low = i * stride
        for terms in lists:
            while terms and terms[-1][0] < low:
                terms.pop()
        acc = _row_brackets(n, row, index)
        pairs: List[Tuple[int, IntVec]] = []
        rest: Dict[int, int] = {}  # t -> z[k] - sum_r c_r row_r[k], t = j*stride + k
        last = -1
        for t in sorted(acc):
            x = acc[t]
            if not x:
                continue
            j, k = divmod(t, stride)
            if j != last:
                coords: IntVec = {}
                pairs.append((j, coords))
                last, base = j, t - k
            hit = homes.get(k)
            if hit is None:
                rest[t] = rest.get(t, 0) + x
                continue
            r, d, others = hit
            if d == 1:
                c = x
            else:
                c, m = divmod(x, d)
                if m:
                    raise AssertionError(f"{model.family}({n}): bracket of basis {i},{j} "
                                         "has a non-integer coefficient at a home")
            coords[r] = c
            for u, y in others:
                u += base
                rest[u] = rest.get(u, 0) - c * y
        for t, x in rest.items():
            if x:
                raise AssertionError(f"{model.family}({n}): bracket of basis {i},{t // stride} "
                                     "leaves the span read at the homes")
        for j, coords in pairs:
            yield i, j, coords


def _hamiltonian_brackets(n: int, masks: List[int]) -> Iterator[Tuple[int, int, IntVec]]:
    """Yield (i, j, the coordinates of [D_H(x^A), D_H(x^B)] in the rows
    D_H(x^mask) of ``masks``), A = masks[i] and B = masks[j], for every pair
    with i <= j whose bracket is nonzero, in row-major order, as
    `_bracket_rows` yields them for these rows.

    D_H maps the Poisson bracket onto the bracket of fields,

        [D_H(f), D_H(g)] = D_H(D_H(f)(g)),
        D_H(x^A)(x^B) = (-1)^|A| sum_a d_a(x^A) d_{a'}(x^B),

    and D_H(c x^C) = c D_H(x^C), so the coordinate of row r is the
    coefficient of its monomial in D_H(x^A)(x^B), summed term by term:
    each generator a of A meets the rows j >= i whose monomial holds x_{a'},
    indexed by generator as in `_term_index`, and the product of the two
    monomials is signed with `_w_tables`' par/sp.  A constant is dropped,
    since D_H(1) = 0.  A nonzero coefficient at a monomial that is no
    basis monomial, such as the top one, raises AssertionError naming the
    pair: the bracket leaves the span.

    A pair's coordinates come by monomial, ascending.  That is the order of
    the rows' homes, in which `_bracket_rows` reads them: the monomials of
    one bracket share a degree and a weight, and the home of D_H(x^C), its
    first term, is the field (C without its lowest generator x_a) d_{a'},
    so two such homes order like their monomials.
    """
    par, sp = _w_tables(n)[1:]
    size = 1 << n
    partner = [involution(a, n) - 1 for a in range(1, n + 1)]
    row_at: List[Optional[int]] = [None] * size
    for r, m in enumerate(masks):
        row_at[m] = r
    # for each generator a, the rows j as (j*2^n, B without x_a, sign of
    # d_a(x^B)), from the last row down, so the lowest rows sit at the end
    by_gen: List[list] = [[] for _ in range(n)]
    for j in range(len(masks) - 1, -1, -1):
        key, g = j << n, masks[j]
        for a in range(n):
            bit = 1 << a
            if g & bit:
                by_gen[a].append((key, g ^ bit, -1 if par[g & (bit - 1)] else 1))
    for i, f in enumerate(masks):
        low = i << n
        for terms in by_gen:
            while terms and terms[-1][0] < low:
                terms.pop()
        acc: Dict[int, int] = {}
        get = acc.get
        for a in range(n):
            bit = 1 << a
            if not f & bit:
                continue
            f1 = f ^ bit
            spf = sp[f1]
            flip = par[f] ^ par[f & (bit - 1)]  # the sign of (-1)^|A| d_a(x^A)
            for key, g1, c in by_gen[partner[a]]:
                if g1 & f1:
                    continue
                t = key + (f1 | g1)
                acc[t] = get(t, 0) + (-c if flip ^ par[spf & g1] else c)
        last, coords = -1, {}
        for t in sorted(acc):
            x = acc[t]
            if not x:
                continue
            j, k = t >> n, t & (size - 1)
            r = row_at[k]
            if r is None:
                if not k:
                    continue
                raise AssertionError(f"H({n}): bracket of basis {i},{j} leaves the span "
                                     "of the basis monomials")
            if j != last:
                if coords:
                    yield i, last, coords
                last, coords = j, {}
            coords[r] = x
        if coords:
            yield i, last, coords


def _finish_model(
    family: str,
    n: int,
    rows: List[IntVec],
    descs: List[BasisDesc],
    base: Optional[AlgebraModel] = None,
) -> AlgebraModel:
    """The model of `_graded` with its bracket table filled in.

    Each unordered pair is bracketed and expressed once, as (i, j) with
    i <= j, and [j, i] is stored as

        [j, i] = -(-1)^(|i||j|) [i, j],

    +[i, j] when both rows are odd and -[i, j] otherwise.  The rows are
    super vector fields, whose bracket is super anticommutative, and
    `_graded` has checked that each row is homogeneous in parity, so the
    sign is exact and the mirrored coordinates are the ones the home
    readout would give for [j, i].

    The pairs come from `_hamiltonian_brackets` when there is no ``base``
    and every descriptor is a `Ham`, once each row is checked to be
    `_ham_mono` of its descriptor's monomial (a mismatch raises), so the
    route follows the rows given, not the family's name.  There
    [D_H(x^A), D_H(x^B)] = D_H(D_H(x^A)(x^B)) (Kac, Adv. Math. 26 (1977)):
    the coordinates are the coefficients of the Poisson bracket of the two
    monomials, with the constant term dropped, as D_H(1) = 0, and a
    nonzero coefficient at a monomial with no row, such as the top one,
    raises, as the bracket leaves the span.  Every other model, and every
    L', takes the per-row pass of `_bracket_rows` (home readout).  With
    ``base``, whose rows are the leading rows here, the table starts as a
    copy of base's and only the pairs involving the extra rows are
    bracketed.  Every structure constant is an int: the Poisson kernel
    sums signs, `_bracket_rows` reads exact quotients of ints, the mirror
    of an int is one, and base's were checked when base was built.

    Equal entries are one dict (see `AlgebraModel`): each coordinate dict,
    and each negated mirror, is stored through a map keyed on its items in
    order, so an entry keeps the item order it was built with, and an
    odd-odd mirror is the entry itself.  With ``base``, base's entries are
    stored as they are, and the map shares the new ones.
    """
    model, span = _graded(family, n, rows, descs, base)
    if base is None and all(type(d) is Ham for d in descs):
        masks = [d.mono for d in descs]
        for r, (row, mask) in enumerate(zip(rows, masks)):
            if row != _ham_mono(n, mask):
                raise AssertionError(f"{family}({n}): basis row {r} is not D_H of its monomial")
        brackets = _hamiltonian_brackets(n, masks)
    else:
        brackets = _bracket_rows(model, span, base.dim if base is not None else 0)
    table = dict(base.table) if base is not None else {}
    parity = model.parity
    share = {}.setdefault
    negated: Dict[int, IntVec] = {}  # id of a stored entry -> its stored negative
    for i, j, coords in brackets:
        table[(i, j)] = coords = share(tuple(coords.items()), coords)
        if j != i:
            if not (parity[i] and parity[j]):
                back = negated.get(id(coords))
                if back is None:
                    back = {k: -c for k, c in coords.items()}
                    back = negated[id(coords)] = share(tuple(back.items()), back)
                coords = back
            table[(j, i)] = coords
    model.table = table
    return model


def _divergence_kernel(n: int) -> List[IntVec]:
    """ker(div) inside W(n), echelonized over the monomial-ordered basis:
    its RREF basis, whose rows are integer with lead 1 (`IntKernel.basis`)."""
    basis = w_basis(n)
    div: Dict[int, IntVec] = {}
    for col, (mask, j) in enumerate(basis):
        hit = mono_partial(j, mask)
        if hit is not None:
            sign, m = hit
            div.setdefault(m, {})[col] = sign
    kern = IntKernel(len(basis))
    for row in div.values():
        kern.cut(row)
    return kern.basis()


def _family_rows(spec: FamilySpec) -> Tuple[List[IntVec], List[BasisDesc]]:
    """The basis rows, in W(n) coordinates, and descriptors of a valid spec."""
    family, n = spec.family, spec.n
    if family == "W":
        rows = [w_unit(n, mask, j) for mask, j in w_basis(n)]
        return rows, [VectorField(mask, j) for mask, j in w_basis(n)]

    if family == "S":
        rows = _divergence_kernel(n)
        return rows, [_row_desc(n, r) for r in rows]

    if family == "Stilde":
        rows = []
        for i in range(1, n + 1):
            row = w_unit(n, 0, i)
            vec_axpy_inplace(row, -1, xi(i, n))
            rows.append(row)
        basis_w = w_basis(n)
        for r in _divergence_kernel(n):
            if mono_degree(basis_w[min(r)][0]) - 1 >= 0:
                rows.append(r)
        return rows, [_row_desc(n, r) for r in rows]

    rows = []
    descs: List[BasisDesc] = []
    for mask, j in w_basis(n):
        if j == 1 and 1 <= mono_degree(mask) <= n - 1:
            rows.append(_ham_mono(n, mask))
            descs.append(Ham(mask))
    return rows, descs


def build(spec, n: Optional[int] = None) -> AlgebraModel:
    """Build the AlgebraModel for a family spec (or family tag plus n)."""
    if not isinstance(spec, FamilySpec):
        spec = FamilySpec(spec, n)
    spec.validate()
    return _finish_model(spec.family, spec.n, *_family_rows(spec))


# ---------------------------------------------------------------------------
# the extended algebra L'


class LPrimeModel:
    """L together with the extension L' acting on it by superderivations.

    L' = L for W and S~, L + C*euler for S, and Htilde + C*euler for H,
    where Htilde adds the Hamiltonian field of the top monomial.  The
    embedding of L into L' is the identity on the first dim(L) indices;
    `extra` names the basis vectors of L' outside L.
    """

    def __init__(self, base: AlgebraModel, ext: AlgebraModel,
                 extra: Optional[List[str]] = None) -> None:
        self.base = base
        self.ext = ext
        self.extra = [] if extra is None else extra

    @property
    def dim_l(self) -> int:
        return self.base.dim

    @property
    def dim_lprime(self) -> int:
        return self.ext.dim

    @cached_property
    def ad_columns(self) -> List[Dict[int, IntVec]]:
        """For each basis vector u of L', ad(u) on L as {b: [u, b]} with the
        zero brackets left out; a bracket escaping L raises, since ad(L')
        must preserve L.  The columns are the table's own int entries, to be
        read and not changed: `ad_image`, `ad_blocks`, the certifier's
        engine and `is_2local_at` share them."""
        ext, m = self.ext, self.dim_l
        ad: List[Dict[int, IntVec]] = [{} for _ in range(ext.dim)]
        for (u, b), w in ext.table.items():
            if b < m and w:
                if max(w) >= m:
                    raise ValueError("ad(L') does not preserve L")
                ad[u][b] = w
        return ad


def build_lprime(A: AlgebraModel) -> LPrimeModel:
    family, n = A.family, A.n
    if family in ("W", "Stilde"):
        return LPrimeModel(A, A, [])

    rows = list(A.w_coords)
    extra: List[BasisDesc] = []
    if family == "H":
        top = (1 << n) - 1
        rows.append(_ham_mono(n, top))
        extra.append(Ham(top))
    rows.append(euler(n))
    extra.append(GradingElement())

    ext = _finish_model(family + "'", n, rows, A.basis + extra, base=A)
    return LPrimeModel(A, ext, [str(d) for d in extra])


def model_from_json(text: str) -> AlgebraModel:
    """The model whose file is text: the constructor's model for the family
    and n of its head, once `attach_derived` has checked that text is that
    model's file.  The head (`model_head`) is validated before anything is
    built; any fault in it raises ModelFormatError starting "family/n:".
    The file's basis is compared with the constructor's descriptors
    (`head_difference`) before the bracket table is built from the same
    rows, so a file whose head names a larger model than its basis holds is
    refused without building that model."""
    spec = FamilySpec(*model_head(text))
    try:
        spec.validate()
    except FamilyError as exc:
        raise ModelFormatError(f"family/n: {exc}") from None
    rows, descs = _family_rows(spec)
    part = head_difference(spec.family, spec.n, descs, text)
    if part is not None:
        raise ModelFormatError(f"{part} differs from the {spec} constructor")
    return attach_derived(_finish_model(spec.family, spec.n, rows, descs), text)


def attach_derived(A: AlgebraModel, text: str) -> AlgebraModel:
    """A, once text is checked to be its model file: byte for byte what
    `model_to_json` writes for A, alone or followed by the one newline that
    `build --out` adds.  A is the constructor's model, so its derived data
    (w_coords, the Cartan chain) are its own.  A difference raises
    ModelFormatError naming what the written text holds at the first
    differing offset, a field with its index or a bracket pair
    (`first_difference`)."""
    part = first_difference(A, text)
    if part is not None:
        raise ModelFormatError(f"{part} differs from the {A.family}({A.n}) constructor")
    return A
