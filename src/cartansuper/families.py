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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterator, List, Optional, Tuple

from .exterior import (
    ExtElem,
    check_n,
    mono_degree,
    mono_mul,
    mono_partial,
)
from .liesuper import (
    AlgebraModel,
    BasisDesc,
    Combo,
    GradingElement,
    Ham,
    ModelFormatError,
    VectorField,
    WeightVec,
)
from .linalg import Matrix, SpanSolver, Subspace, Vec, kernel, vec_axpy_inplace

class FamilyError(ValueError):
    """A family/n combination outside the defined range."""


@dataclass(frozen=True)
class FamilySpec:
    family: str
    n: int

    def validate(self) -> None:
        f, n = self.family, self.n
        if f not in ("W", "S", "Stilde", "H"):
            raise FamilyError(f"unknown family {f!r} (expected W, S, Stilde or H)")
        try:
            check_n(n)
        except ValueError as exc:
            raise FamilyError(str(exc)) from None
        if f in ("W", "S") and n < 4:
            raise FamilyError(f"{f} requires n >= 4")
        if f == "Stilde":
            if n < 4:
                raise FamilyError("Stilde requires n >= 4")
            if n % 2:
                raise FamilyError("Stilde requires even n")
        if f == "H" and n <= 4:
            raise FamilyError("H requires n > 4")

    @property
    def dim(self) -> int:
        """dim of the algebra, from the closed form (no construction)."""
        f, n = self.family, self.n
        if f == "W":
            return n << n
        if f == "H":
            return (1 << n) - 2
        return ((n - 1) << n) + 1

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
    masks = sorted(range(1 << n), key=lambda m: (m.bit_count(), m))
    return tuple((m, j) for m in masks for j in range(1, n + 1))


@lru_cache(maxsize=None)
def w_index(n: int) -> Dict[Tuple[int, int], int]:
    return {fj: i for i, fj in enumerate(w_basis(n))}


def w_unit(n: int, mask: int, j: int, coeff=1) -> Vec:
    return {w_index(n)[(mask, j)]: Fraction(coeff)}


def w_bracket_pair(n: int, a: Tuple[int, int], b: Tuple[int, int]) -> Vec:
    """Closed-form bracket of two monomial fields, over the W(n) index."""
    f, i = a
    g, j = b
    idx = w_index(n)
    out: Vec = {}
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
            k = idx[(m, i)]
            c = out.get(k, 0) + sign * s1 * s2
            if c:
                out[k] = c
            else:
                del out[k]
    return out


def w_bracket(n: int, a: Vec, b: Vec) -> Vec:
    """Bilinear bracket of two fields given in W(n) coordinates."""
    basis = w_basis(n)
    out: Vec = {}
    for ia, ca in a.items():
        for ib, cb in b.items():
            w = w_bracket_pair(n, basis[ia], basis[ib])
            if w:
                vec_axpy_inplace(out, ca * cb, w)
    return out


def divergence(n: int, v: Vec) -> ExtElem:
    """sum_i d_i(f_i) of a field sum_i f_i d_i given in W(n) coordinates."""
    basis = w_basis(n)
    out = ExtElem.zero(n)
    terms: Dict[int, Fraction] = {}
    for i, c in v.items():
        mask, j = basis[i]
        hit = mono_partial(j, mask)
        if hit is None:
            continue
        sign, m = hit
        s = terms.get(m, Fraction(0)) + (c if sign > 0 else -c)
        if s:
            terms[m] = s
        else:
            terms.pop(m, None)
    out.terms = terms
    return out


def ham(f: ExtElem) -> Vec:
    """The Hamiltonian field D_H(f) = (-1)^|f| sum_i d_i(f) d_{i'}, in W coords.

    f must be parity-homogeneous; the sign prefactor is undefined otherwise.
    """
    p = f.parity()
    if p is None:
        raise ValueError("ham requires a parity-homogeneous element")
    n = f.n
    idx = w_index(n)
    pref = -1 if p else 1
    out: Vec = {}
    for mask, c in f.terms.items():
        for i in range(1, n + 1):
            hit = mono_partial(i, mask)
            if hit is None:
                continue
            sign, m = hit
            k = idx[(m, involution(i, n))]
            s = out.get(k, Fraction(0)) + c * pref * sign
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


def xi(i: int, n: int) -> Vec:
    """The top-monomial field x_1...x_n d_i."""
    if not 1 <= i <= n:
        raise ValueError(f"index {i} out of 1..{n}")
    return w_unit(n, (1 << n) - 1, i)


def euler(n: int) -> Vec:
    """The grading field sum_i x_i d_i."""
    out: Vec = {}
    for i in range(1, n + 1):
        out.update(w_unit(n, 1 << (i - 1), i))
    return out


def cartan_chain_w(family: str, n: int) -> List[Vec]:
    """The standard Cartan basis h_1..h_l in W(n) coordinates."""
    def diag(i: int, c: int = 1) -> Vec:
        return w_unit(n, 1 << (i - 1), i, c)

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
    terms = tuple(
        (row[i], basis[i][0], basis[i][1]) for i in sorted(row)
    )
    return Combo(terms)


def _graded(
    family: str,
    n: int,
    rows: List[Vec],
    descs: List[BasisDesc],
    base: Optional[AlgebraModel] = None,
) -> Tuple[AlgebraModel, SpanSolver]:
    """An AlgebraModel with an empty bracket table, from basis rows given in
    W(n) coordinates, plus a solver that expresses W(n) vectors in the rows.

    Verifies along the way that every row has integer coordinates, is
    homogeneous in parity and (possibly modular) degree, and is an exact
    simultaneous eigenvector of the Cartan chain; any failure is a
    constructor bug, not user error.  For L' over ``base`` the grading
    element enlarges the zero cell, so the chain need only sit inside it.
    """
    chain_family = family.rstrip("'")
    modulus = n if chain_family == "Stilde" else None
    basis_w = w_basis(n)
    if any(c.denominator != 1 for row in rows for c in row.values()):
        raise AssertionError(f"{family}({n}): non-integer basis row")
    rows = [{k: int(c) for k, c in row.items()} for row in rows]

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
    weight: List[WeightVec] = []
    for row in rows:
        wt = []
        for h in chain_w:
            z = w_bracket(n, h, row)
            lead = min(row)
            lam = z.get(lead, Fraction(0)) / row[lead]
            if z != {k: lam * c for k, c in row.items() if lam * c}:
                raise AssertionError(f"{family}({n}): basis row not a weight vector")
            if lam.denominator != 1:
                raise AssertionError(f"{family}({n}): non-integer weight")
            wt.append(int(lam))
        weight.append(tuple(wt))

    span = SpanSolver()
    for row in rows:
        if not span.add(row):
            raise AssertionError(f"{family}({n}): dependent basis rows")

    chain_model: List[Vec] = []
    for h in chain_w:
        coords = span.express(h)
        if coords is None:
            raise AssertionError(f"{family}({n}): Cartan chain escapes the span")
        chain_model.append(coords)

    zero_wt = tuple([0] * len(chain_w))
    cartan = [
        i for i in range(len(rows)) if degree[i] == 0 and weight[i] == zero_wt
    ]
    cartan_space = Subspace.from_vectors([rows[i] for i in cartan], len(basis_w))
    chain_space = Subspace.from_vectors(chain_w, len(basis_w))
    if base is not None:
        if not cartan_space.contains_subspace(chain_space):
            raise AssertionError(f"{family}({n}): chain escapes the Cartan cell")
    elif cartan_space != chain_space:
        raise AssertionError(f"{family}({n}): Cartan cell does not match the chain")

    model = AlgebraModel(family, n, descs, {}, parity, degree, weight, cartan,
                         grading_modulus=modulus, w_coords=rows, cartan_chain=chain_model)
    return model, span


def _bracket_rows(
    n: int, rows: List[Vec], first: int = 0
) -> Iterator[Tuple[int, int, Vec]]:
    """Yield (i, j, [row i, row j]) over W(n) for every pair of basis rows
    with i >= first or j >= first.  The one place that brackets basis rows."""
    dim = len(rows)
    for i in range(dim):
        for j in range(0 if i >= first else first, dim):
            yield i, j, w_bracket(n, rows[i], rows[j])


def _finish_model(
    family: str,
    n: int,
    rows: List[Vec],
    descs: List[BasisDesc],
    base: Optional[AlgebraModel] = None,
) -> AlgebraModel:
    """The model of `_graded` with its bracket table filled in.

    With ``base``, whose rows are the leading rows here, the table starts as
    a copy of base's and only the pairs involving the extra rows are
    bracketed.
    """
    model, span = _graded(family, n, rows, descs, base)
    table = dict(base.table) if base is not None else {}
    first = base.dim if base is not None else 0
    for i, j, z in _bracket_rows(n, model.w_coords, first):
        if not z:
            continue
        coords = span.express(z)
        if coords is None:
            raise AssertionError(
                f"{family}({n}): bracket of basis {i},{j} leaves the span"
            )
        table[(i, j)] = coords
    model.table = table
    return model


def _divergence_kernel(n: int) -> Subspace:
    """ker(div) inside W(n), echelonized over the monomial-ordered basis."""
    basis = w_basis(n)
    idx_l = {m: i for i, m in enumerate(sorted(range(1 << n), key=lambda m: (m.bit_count(), m)))}
    data: Dict[int, Vec] = {}
    for col, (mask, j) in enumerate(basis):
        hit = mono_partial(j, mask)
        if hit is None:
            continue
        sign, m = hit
        data.setdefault(idx_l[m], {})[col] = Fraction(sign)
    div = Matrix(1 << n, len(basis), data)
    return kernel(div)


def _family_rows(spec: FamilySpec) -> Tuple[List[Vec], List[BasisDesc]]:
    """The basis rows, in W(n) coordinates, and descriptors of a valid spec."""
    family, n = spec.family, spec.n
    if family == "W":
        rows = [w_unit(n, mask, j) for mask, j in w_basis(n)]
        return rows, [VectorField(mask, j) for mask, j in w_basis(n)]

    if family == "S":
        rows = [dict(r) for r in _divergence_kernel(n).rows]
        return rows, [_row_desc(n, r) for r in rows]

    if family == "Stilde":
        rows = []
        for i in range(1, n + 1):
            row = w_unit(n, 0, i)
            vec_axpy_inplace(row, Fraction(-1), xi(i, n))
            rows.append(row)
        basis_w = w_basis(n)
        for r in _divergence_kernel(n).rows:
            if mono_degree(basis_w[min(r)][0]) - 1 >= 0:
                rows.append(dict(r))
        return rows, [_row_desc(n, r) for r in rows]

    rows = []
    descs: List[BasisDesc] = []
    for mask, j in w_basis(n):
        if j == 1 and 1 <= mono_degree(mask) <= n - 1:
            rows.append(ham(ExtElem.monomial(n, mask)))
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


@dataclass
class LPrimeModel:
    """L together with the extension L' acting on it by superderivations.

    L' = L for W and S~, L + C*euler for S, and Htilde + C*euler for H,
    where Htilde adds the Hamiltonian field of the top monomial.  The
    embedding of L into L' is the identity on the first dim(L) indices.
    """

    base: AlgebraModel
    ext: AlgebraModel
    extra: List[str] = field(default_factory=list)

    @property
    def dim_l(self) -> int:
        return self.base.dim

    @property
    def dim_lprime(self) -> int:
        return self.ext.dim


def build_lprime(A: AlgebraModel) -> LPrimeModel:
    family, n = A.family, A.n
    if family in ("W", "Stilde"):
        return LPrimeModel(A, A, [])

    rows = list(A.w_coords)
    extra: List[BasisDesc] = []
    if family == "H":
        top = (1 << n) - 1
        rows.append(ham(ExtElem.monomial(n, top)))
        extra.append(Ham(top))
    rows.append(euler(n))
    extra.append(GradingElement())

    ext = _finish_model(family + "'", n, rows, A.basis + extra, base=A)
    return LPrimeModel(A, ext, [str(d) for d in extra])


def attach_derived(A: AlgebraModel) -> AlgebraModel:
    """Check a deserialized model against the constructor of its family and
    n, then attach the constructor's w_coords and Cartan chain.

    Any difference raises ModelFormatError naming the first differing field
    or bracket pair.  The dimension is checked before anything is built.
    The table is compared in place: for every pair (i, j), the W(n) bracket
    of rows i and j must equal sum_k c_k row_k over the model's entry, which
    is equality of the structure constants, as the rows are independent.
    """
    spec = FamilySpec(A.family, A.n)
    try:
        spec.validate()
    except FamilyError as exc:
        raise ModelFormatError(f"family/n: {exc}") from None
    if A.dim != spec.dim:
        raise ModelFormatError(
            f"basis: {A.dim} entries, but {spec} has dimension {spec.dim}"
        )
    C, _ = _graded(spec.family, spec.n, *_family_rows(spec))
    for name in ("basis", "parity", "degree", "weight", "cartan"):
        got, want = getattr(A, name), getattr(C, name)
        if got != want:
            i = next(
                (i for i, (g, w) in enumerate(zip(got, want)) if g != w),
                min(len(got), len(want)),
            )
            raise ModelFormatError(f"{name}[{i}] differs from the {spec} constructor")
    rows = C.w_coords
    for i, j, z in _bracket_rows(spec.n, rows):
        w = A.table.get((i, j), {})
        combo: Vec = {}
        for k, c in w.items():
            vec_axpy_inplace(combo, c, rows[k])
        if combo != z or not all(w.values()):
            raise ModelFormatError(
                f"bracket ({i},{j}) differs from the {spec} constructor"
            )
    A.w_coords, A.cartan_chain = rows, C.cartan_chain
    return A
