"""Exact sparse linear algebra over the rationals.

The trusted path (`build`, `check`, `certify`) runs on Python ints, and
every elimination on it is `int_reduce`'s: integer rows (``{index: int}``)
are reduced fraction-free over Z against an echelon keyed by last column.
`IntKernel` cuts rows into such an echelon and `kernel_terms` reads the
kernel off one.  They serve the constructors' divergence kernel and
independence check, the generating-set closure, all of `check`'s
derivation layer, the certifier's engine and `localcert.is_2local_at`.
Every row is kept as a primitive integer multiple of the row Fraction
elimination would hold, so the answer is the Fraction answer, scaled,
with nothing to check and nothing to fall back to: a rational solution
space has the same dimension as its complex counterpart, which is what
lets integer structure constants stand in for the complex field.
`SpanSolver` eliminates nothing: it reads a vector in a set of
independent rows at the columns that only one row touches, for the
constructors' Cartan chain and bracket coordinates.

The `fractions.Fraction` machinery (`Matrix`, `Echelon`, `rref`, `kernel`,
`kernel_of_rows`, `solve`, `Subspace`) serves the reference oracles and the
public helpers.  Its vectors are sparse dicts ``{index: Fraction}`` with no
stored zeros, and it takes int entries as well.  `fractions` is imported
where a Fraction is built, not with the module: every CLI run is a fresh
process, and the trusted path builds none.  Subspaces are kept in
reduced row echelon form (RREF), which is unique per row space, so
subspace equality is plain row-list equality and all outputs are
deterministic.
"""

from __future__ import annotations

from collections import Counter
from math import gcd, lcm
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from fractions import Fraction

Vec = Dict[int, "Fraction"]
IntVec = Dict[int, int]


# ---------------------------------------------------------------------------
# sparse vector helpers


def vec_axpy_inplace(u: Vec, c: Fraction, v: Vec) -> None:
    """u += c * v, destructively."""
    if not c:
        return
    for k, x in v.items():
        s = u.get(k)
        if s is None:
            u[k] = c * x
        else:
            s += c * x
            if s:
                u[k] = s
            else:
                del u[k]


def vec_dot(u: Vec, v: Vec) -> Fraction:
    """The dot product; an int when both vectors have int entries."""
    if len(u) > len(v):
        u, v = v, u
    total = 0
    for k, c in u.items():
        x = v.get(k)
        if x is not None:
            total += c * x
    return total


# ---------------------------------------------------------------------------
# matrices


class Matrix:
    """Sparse rational matrix; rows are sparse dicts, no stored zeros."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: Optional[Dict[int, Vec]] = None):
        self.rows = rows
        self.cols = cols
        self.data: Dict[int, Vec] = data if data is not None else {}

    @classmethod
    def from_dense(cls, dense: Sequence[Sequence]) -> "Matrix":
        from fractions import Fraction
        nrows = len(dense)
        ncols = len(dense[0]) if nrows else 0
        data: Dict[int, Vec] = {}
        for i, row in enumerate(dense):
            r = {j: Fraction(x) for j, x in enumerate(row) if x}
            if r:
                data[i] = r
        return cls(nrows, ncols, data)

    def matvec(self, v: Vec) -> Vec:
        out: Vec = {}
        for i, row in self.data.items():
            s = vec_dot(row, v)
            if s:
                out[i] = s
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols}, nnz={sum(len(r) for r in self.data.values())})"


# ---------------------------------------------------------------------------
# echelon machinery
#
# Pivoting rule: pivots are chosen at the first nonzero column, rows in the
# order given.  The final back-reduction makes the result the (unique) RREF
# of the row space, so golden tests see one canonical basis.


class Echelon:
    """Incremental row echelon structure over sparse rational rows."""

    def __init__(self):
        self.pivots: Dict[int, Vec] = {}

    def insert(self, row: Vec) -> bool:
        """Reduce row against the current pivots; keep it if independent.

        Returns True when the row increased the rank.
        """
        v = {k: x for k, x in row.items() if x}
        pivots = self.pivots
        while v:
            lead = min(v)
            prow = pivots.get(lead)
            if prow is None:
                c = v[lead]
                if c != 1:
                    from fractions import Fraction
                    inv = Fraction(1) / c
                    v = {k: x * inv for k, x in v.items()}
                pivots[lead] = v
                return True
            vec_axpy_inplace(v, -v[lead], prow)
        return False

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def rref_rows(self) -> Tuple[List[Vec], List[int]]:
        """Back-reduce and return RREF rows with strictly increasing pivots."""
        cols = sorted(self.pivots)
        reduced: Dict[int, Vec] = {}
        for p in reversed(cols):
            row = dict(self.pivots[p])
            for k in sorted(row):
                if k != p and k in reduced:
                    vec_axpy_inplace(row, -row[k], reduced[k])
            reduced[p] = row
        return [reduced[p] for p in cols], cols


def rref(rows: Iterable[Vec]) -> Tuple[List[Vec], List[int]]:
    ech = Echelon()
    for r in rows:
        ech.insert(r)
    return ech.rref_rows()


def rank(m: Matrix) -> int:
    """Rank over the rationals via exact Gaussian elimination."""
    ech = Echelon()
    for i in sorted(m.data):
        ech.insert(m.data[i])
    return ech.rank


def _kernel_rows(rref_rows: List[Vec], piv: List[int], ncols: int) -> List[Vec]:
    from fractions import Fraction
    piv_set = set(piv)
    col_of_piv = {p: idx for idx, p in enumerate(piv)}
    out: List[Vec] = []
    for free in range(ncols):
        if free in piv_set:
            continue
        v: Vec = {free: Fraction(1)}
        for p in piv:
            c = rref_rows[col_of_piv[p]].get(free)
            if c:
                v[p] = -c
        out.append(v)
    return out


def kernel(m: Matrix) -> "Subspace":
    """All v with m·v = 0, as an RREF-based subspace of dimension cols - rank."""
    rows, piv = rref(m.data[i] for i in sorted(m.data))
    kern = _kernel_rows(rows, piv, m.cols)
    return Subspace.from_vectors(kern, m.cols)


def kernel_of_rows(rows: Iterable[Vec], ncols: int) -> List[Vec]:
    """Kernel basis (RREF) of the linear system given by constraint rows."""
    rr, piv = rref(rows)
    kern = _kernel_rows(rr, piv, ncols)
    kern_rref, _ = rref(kern)
    return kern_rref


# ---------------------------------------------------------------------------
# fraction-free integer elimination
#
# Bareiss-style (Math. Comp. 22, 1968): a row is eliminated by cross
# multiplication, v <- a v - b w with gcd(a, b) = 1, in place on one copy of
# the row made at its first step.  Its content (the gcd of its entries) is
# divided out once, at the end, or earlier once the multipliers since the
# last division pass _GROWTH.  Dividing after every step would give the same
# row up to a positive integer factor, so every row returned is the
# primitive integer multiple of the row that Fraction elimination would
# hold, with no modular step.  No argument and no stored row is written.
_GROWTH = 1 << 64


def as_fractions(rows: Iterable[IntVec]) -> List[Vec]:
    from fractions import Fraction
    return [{k: Fraction(c) for k, c in row.items()} for row in rows]


def int_multiple(v: Vec) -> IntVec:
    """v times the lcm of its denominators: the same direction, on ints."""
    den = lcm(*(c.denominator for c in v.values()))
    return {k: c.numerator * (den // c.denominator) for k, c in v.items()}


def _primitive(v: IntVec, sign: int = 1) -> IntVec:
    """v divided by its content times sign, in place."""
    g = gcd(*v.values()) * sign
    if g and g != 1:
        for k, x in v.items():
            v[k] = x // g
    return v


def _eliminate(v: IntVec, k: int, prow: IntVec) -> int:
    """v <- a v - b prow in place, a and b the least integers that cancel
    column k (a has the sign of prow[k]); returns |a|.  Drops a stored 0."""
    p, c = prow[k], v[k]
    if not c:
        del v[k]
        return 1
    g = gcd(p, c)
    a, b = p // g, c // g
    if a != 1:
        for j, x in v.items():
            v[j] = a * x
    for j, x in prow.items():
        s = v.get(j, 0) - b * x
        if s:
            v[j] = s
        else:
            v.pop(j, None)  # none there when prow[j] is a stored 0
    return abs(a)


def int_reduce(pivots: Dict[int, IntVec], v: IntVec) -> IntVec:
    """v reduced fraction-free against echelon rows keyed by their last
    column: the one pivot loop.  The result is {} exactly when v lies in
    the span of the rows; otherwise it is v times a nonzero integer minus a
    combination of the rows, and its last column is no key of `pivots`.  It
    is a primitive copy once a step is taken, and before that v itself, or
    a copy without v's stored 0s."""
    grown = 0  # the multipliers' product since the last division; 0 before a step
    while v:
        lead = max(v)
        prow = pivots.get(lead)
        if prow is None:
            if v[lead]:
                break
            v = {k: c for k, c in v.items() if c}  # stored 0s: no pivot removes one
            continue
        if not grown:
            v, grown = dict(v), 1
        grown *= _eliminate(v, lead, prow)
        if grown > _GROWTH:
            _primitive(v)
            grown = 1
    return _primitive(v) if grown else v


def kernel_terms(pivots: Dict[int, IntVec], columns: Iterable[int]) -> List[List[Tuple[int, int]]]:
    """The kernel of echelon rows keyed by their last column, in any scaling
    (as `int_reduce` leaves them): one vector per column f of ``columns``
    that is no key, in that order, as (column, entry) pairs, f first with a
    positive entry, primitive.  Over sorted columns these are the RREF basis
    of `kernel_of_rows`, scaled.  The rows are back-reduced on copies; the
    vector of f, taken with 1 at f, is nonzero only at f and at the pivots
    p > f whose reduced row has an entry x at f, where it is -x / row_p[p]."""
    reduced: Dict[int, IntVec] = {}
    hits: Dict[int, List[Tuple[int, int, int]]] = {}  # f -> (p, row_p[f], row_p[p])
    for lead in sorted(pivots):  # back-reduce left to right
        row = pivots[lead]
        ks = [k for k in row if k in reduced] if reduced else None
        if ks:
            row = dict(row)
            for k in ks:
                _eliminate(row, k, reduced[k])
            _primitive(row)
        reduced[lead] = row
        for f, x in row.items():
            if x and f != lead:  # a row may keep its argument's stored 0
                hits.setdefault(f, []).append((lead, x, row[lead]))
    out = []
    for f in columns:  # a reduced row has no entry at another pivot
        col = hits.get(f)
        if col is None:
            if f not in reduced:
                out.append([(f, 1)])
        else:
            m = lcm(*[d for _, _, d in col])
            terms = [(f, m)] + [(p, -x * (m // d)) for p, x, d in col]
            g = gcd(*[c for _, c in terms]) if m > 1 else 1
            out.append([(k, c // g) for k, c in terms] if g > 1 else terms)
    return out


class IntKernel:
    """The kernel in Q^ncols of the integer rows cut into it.

    The rows are kept in fraction-free echelon form, keyed by their last
    column (`rows`), each primitive with a positive entry there; a cut
    stores a new dict and never writes its argument or a kept row.  `len`
    is the kernel's dimension, ncols minus the rank.
    """

    __slots__ = ("ncols", "rows")

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: Dict[int, IntVec] = {}

    def __len__(self) -> int:
        return self.ncols - len(self.rows)

    def cut(self, row: IntVec) -> bool:
        """Impose row . v = 0; True when that shrank the kernel."""
        v = int_reduce(self.rows, row)
        if v:
            lead = max(v)
            self.rows[lead] = _primitive(dict(v) if v is row else v, -1 if v[lead] < 0 else 1)
        return bool(v)

    def basis(self) -> List[IntVec]:
        """`kernel_of_rows`'s RREF basis of the kernel, each vector scaled to
        a primitive integer vector with a positive lead (`kernel_terms`)."""
        return [dict(terms) for terms in kernel_terms(self.rows, range(self.ncols))]


def solve(m: Matrix, b) -> Optional[Vec]:
    """Some v with m·v = b, or None when b is outside the column space.

    Deterministic: after echelonization the free variables are set to zero.
    """
    if isinstance(b, (list, tuple)):
        from fractions import Fraction
        b = {i: Fraction(x) for i, x in enumerate(b) if x}
    aug_col = m.cols
    ech = Echelon()
    for i in range(m.rows):
        row = dict(m.data.get(i, {}))
        c = b.get(i)
        if c:
            row[aug_col] = c
        if row:
            ech.insert(row)
    if aug_col in ech.pivots:
        return None
    rows, piv = ech.rref_rows()
    sol: Vec = {}
    for p, row in zip(piv, rows):
        c = row.get(aug_col)
        if c:
            sol[p] = c
    return sol


# ---------------------------------------------------------------------------
# subspaces


class Subspace:
    """A subspace of Q^ambient, stored as the unique RREF basis of its span."""

    __slots__ = ("ambient", "rows", "pivots")

    def __init__(self, ambient: int, rows: List[Vec], pivots: List[int]):
        self.ambient = ambient
        self.rows = rows
        self.pivots = pivots

    @classmethod
    def from_vectors(cls, vectors: Iterable[Vec], ambient: int) -> "Subspace":
        rows, piv = rref(vectors)
        return cls(ambient, rows, piv)

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        from fractions import Fraction
        rows = [{i: Fraction(1)} for i in range(ambient)]
        return cls(ambient, rows, list(range(ambient)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains(self, v: Vec) -> bool:
        v = {k: x for k, x in v.items() if x}
        piv_index = {p: i for i, p in enumerate(self.pivots)}
        while v:
            lead = min(v)
            i = piv_index.get(lead)
            if i is None:
                return False
            vec_axpy_inplace(v, -v[lead], self.rows[i])
        return True

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(r) for r in other.rows)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus intersection; requires matching ambient dimension."""
        if self.ambient != other.ambient:
            raise ValueError(
                f"ambient mismatch: {self.ambient} != {other.ambient}"
            )
        n = self.ambient
        stacked: List[Vec] = []
        for r in self.rows:
            row = dict(r)
            for k, c in r.items():
                row[k + n] = c
            stacked.append(row)
        stacked.extend(dict(r) for r in other.rows)
        rows, _ = rref(stacked)
        inter = []
        for row in rows:
            if min(row) >= n:
                inter.append({k - n: c for k, c in row.items()})
        return Subspace.from_vectors(inter, n)

    def sum(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise ValueError(
                f"ambient mismatch: {self.ambient} != {other.ambient}"
            )
        return Subspace.from_vectors(list(self.rows) + list(other.rows), self.ambient)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.rows == other.rows
        )

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


def intersect(a: Subspace, b: Subspace) -> Subspace:
    return a.intersect(b)


def member(s: Subspace, v) -> bool:
    if isinstance(v, (list, tuple)):
        if len(v) != s.ambient:
            raise ValueError(f"vector length {len(v)} != ambient {s.ambient}")
        from fractions import Fraction
        v = {i: Fraction(x) for i, x in enumerate(v) if x}
    return s.contains(v)


class SpanSolver:
    """Read vectors in fixed independent integer rows at the rows' homes.

    ``homes`` maps the home h of each row i that has one, the first column
    of row i that no other row touches, to (i, row_i[h], the other terms of
    row_i).  If v = sum_i c_i row_i, then v[h] = c_i row_i[h], so
    ``express(v)`` reads c_i there, an int when the division is exact and
    a Fraction only when it is not, and subtracts c_i times the other terms
    from the rest of v.  A nonzero remainder means v is outside the span of
    the rows with a home (None); the rows are independent, so otherwise
    these are v's coordinates.  `families._bracket_rows` reads a whole row
    of brackets at the homes in one pass of its own.
    """

    __slots__ = ("homes",)

    def __init__(self, rows: Sequence[IntVec]):
        seen = Counter(k for row in rows for k in row)
        self.homes: Dict[int, Tuple[int, int, List[Tuple[int, int]]]] = {}
        for i, row in enumerate(rows):
            for h, d in row.items():
                if seen[h] == 1:
                    self.homes[h] = (i, d, [(k, x) for k, x in row.items() if k != h])
                    break

    def express(self, v: IntVec) -> Optional[Vec]:
        coords: Vec = {}
        rest: Dict[int, object] = {}  # v minus the rows read so far, off the homes
        for k, x in v.items():
            hit = self.homes.get(k)
            if hit is None:
                rest[k] = rest.get(k, 0) + x
            elif x:
                i, d, others = hit
                c, m = divmod(x, d)
                if m:
                    from fractions import Fraction
                    c = Fraction(x, d)
                coords[i] = c
                for u, y in others:
                    rest[u] = rest.get(u, 0) - c * y
        return None if any(rest.values()) else coords
