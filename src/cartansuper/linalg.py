"""Exact sparse linear algebra over the rationals.

The trusted path (`build`, `check`, `certify`) runs on Python ints:
`IntKernel` (with `kernel_of_int_rows` on top of it), `int_reduce` and
`int_combine` eliminate integer rows (``{index: int}``) fraction-free over
Z, and `SpanSolver` writes vectors in a set of rows, reading coordinates
at columns that only one row touches and eliminating the rest the same
way.  They
serve the constructors' divergence kernel and Cartan-cell check, the
generating-set closure, all of `check`'s derivation layer, the certifier's
engine and `localcert.is_2local_at`.  Every row is kept as a primitive integer
multiple of the row Fraction elimination would hold, so the answer is the
Fraction answer, scaled, with nothing to check and nothing to fall back
to: a rational solution space has the same dimension as its complex
counterpart, which is what lets integer structure constants stand in for
the complex field.

The `fractions.Fraction` machinery (`Matrix`, `Echelon`, `rref`, `kernel`,
`kernel_of_rows`, `solve`, `Subspace`) serves the reference oracles and the
public helpers.  Its vectors are sparse dicts ``{index: Fraction}`` with no
stored zeros, and it takes int entries as well.  Subspaces are kept in
reduced row echelon form (RREF), which is unique per row space, so
subspace equality is plain row-list equality and all outputs are
deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

Vec = Dict[int, Fraction]
IntVec = Dict[int, int]

_ONE = Fraction(1)


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
        v = dict(row)
        pivots = self.pivots
        while v:
            lead = min(v)
            prow = pivots.get(lead)
            if prow is None:
                c = v[lead]
                if c != 1:
                    inv = _ONE / c
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
    piv_set = set(piv)
    col_of_piv = {p: idx for idx, p in enumerate(piv)}
    out: List[Vec] = []
    for free in range(ncols):
        if free in piv_set:
            continue
        v: Vec = {free: _ONE}
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
# multiplication, v <- a v - b w, and then divided by its content, so every
# row stays a primitive integer multiple of the row that Fraction elimination
# would hold.  Nothing is reduced modulo anything, so there is no fallback.


def as_fractions(rows: Iterable[IntVec]) -> List[Vec]:
    return [{k: Fraction(c) for k, c in row.items()} for row in rows]


def int_multiple(v: Vec) -> IntVec:
    """v times the lcm of its denominators: the same direction, on ints."""
    den = lcm(*(c.denominator for c in v.values()))
    return {k: c.numerator * (den // c.denominator) for k, c in v.items()}


def int_combine(a: int, u: IntVec, b: int, v: IntVec) -> IntVec:
    """a u + b v divided by its content (the gcd of its entries)."""
    g = gcd(a, b)
    if g > 1:
        a //= g
        b //= g
    out = {k: a * x for k, x in u.items()} if a != 1 else dict(u)
    for k, x in v.items():
        s = out.get(k, 0) + b * x
        if s:
            out[k] = s
        else:
            del out[k]
    g = gcd(*out.values())
    if g > 1:
        out = {k: x // g for k, x in out.items()}
    return out


def int_reduce(pivots: Dict[int, IntVec], v: IntVec) -> IntVec:
    """v reduced fraction-free against echelon rows keyed by their last
    column (the pivot loop of `IntKernel.cut`).

    The result is {} exactly when v lies in the span of the rows; otherwise
    it is v times a nonzero integer minus a combination of the rows, and
    its last column is not a key of `pivots`.
    """
    while v:
        lead = max(v)
        prow = pivots.get(lead)
        if prow is None:
            break
        v = int_combine(prow[lead], v, -v[lead], prow)
    return v


class IntKernel:
    """The kernel in Q^ncols of the integer rows cut into it.

    The rows are kept in fraction-free echelon form, keyed by their last
    column (`rows`), each with a positive entry there.  `len` is the
    kernel's dimension, ncols minus the rank.
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
        if not v:
            return False
        lead = max(v)
        self.rows[lead] = int_combine(1 if v[lead] > 0 else -1, v, 0, {})
        return True

    def basis(self) -> List[IntVec]:
        """`kernel_of_rows`'s RREF basis of the kernel, each vector scaled to
        a primitive integer vector with a positive lead.

        The rows are brought to reduced echelon form (on a copy: the stored
        rows stay as they are).  The kernel vector of a free column f is
        then nonzero only at f and at pivot columns right of f, so f is its
        lead and every other kernel vector vanishes there: these vectors, in
        order of f, are the RREF of the kernel up to positive scalars.
        """
        pivots = dict(self.rows)
        # back-reduce left to right; each pivot row used is already reduced
        for lead in sorted(pivots):
            row = pivots[lead]
            for k in [k for k in row if k != lead and k in pivots]:
                row = int_combine(pivots[k][k], row, -row[k], pivots[k])
            pivots[lead] = row
        kern: Dict[int, IntVec] = {f: {} for f in range(self.ncols) if f not in pivots}
        for lead, row in pivots.items():
            for f, x in row.items():
                if f != lead:
                    kern[f][lead] = x
        out = []
        for f, hits in kern.items():
            # f + sum_p (-row_p[f] / row_p[p]) p, scaled by the lcm of the row_p[p]
            m = lcm(*(pivots[p][p] for p in hits))
            v = {f: m}
            for p, x in hits.items():
                v[p] = -x * (m // pivots[p][p])
            g = gcd(*v.values())
            out.append({k: x // g for k, x in v.items()} if g > 1 else v)
        return out


def kernel_of_int_rows(rows: Iterable[IntVec], ncols: int) -> List[IntVec]:
    """`kernel_of_rows` for integer rows, on ints (`IntKernel.basis`)."""
    kern = IntKernel(ncols)
    for row in rows:
        if kern.cut(row) and not kern:
            break
    return kern.basis()


def solve(m: Matrix, b) -> Optional[Vec]:
    """Some v with m·v = b, or None when b is outside the column space.

    Deterministic: after echelonization the free variables are set to zero.
    """
    if isinstance(b, (list, tuple)):
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
        rows = [{i: _ONE} for i in range(ambient)]
        return cls(ambient, rows, list(range(ambient)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains(self, v: Vec) -> bool:
        v = dict(v)
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
        v = {i: Fraction(x) for i, x in enumerate(v) if x}
    return s.contains(v)


class SpanSolver:
    """Express vectors in a fixed set of independent rows.

    Rows are added once; ``express`` then writes any vector of the span as a
    coordinate dict over the original row indices (None if outside the span).

    ``express`` reads most coordinates off the vector.  A row's *home* is a
    column where no other added row is nonzero; the index of homes is built
    after the last ``add``.  If z = sum_i c_i row_i, then z[h] = c_i row_i[h]
    at the home h of row i, because no other row touches h; so c_i is read
    there, sum_i c_i row_i is subtracted, and what is left lies in the span
    of the rows without a home (and is 0 when every row has one).  A vector
    outside the span leaves a remainder outside that span, which the
    echelon below refuses.  A division at a home that is not exact (a
    coordinate that is not an integer) sends the whole vector to the
    echelon instead.

    The echelon: each pivot is an integer row kept with the integer
    combination of the added rows that gives it, built by ``add``, which
    also tells a dependent row.  A reduction cross-multiplies where a
    pivot's lead is not 1, so integer rows stay on Python ints.  A
    coordinate of ``express`` is a Fraction only when it is not an integer.
    """

    def __init__(self):
        # lead -> (row, coeffs), row = sum_k coeffs[k] row_k with row_k the
        # k-th row added, and row[lead] > 0
        self.pivots: Dict[int, Tuple[IntVec, IntVec]] = {}
        self.count = 0  # rows offered to add, dependent ones included
        self.rows: Dict[int, IntVec] = {}  # the independent ones, by index
        # home h of row i -> (i, row_i[h], the other terms of row_i); built by
        # the first express after an add
        self._homes: Optional[Dict[int, Tuple[int, int, List[Tuple[int, int]]]]] = None

    def _reduce(self, v: IntVec, coeffs: IntVec) -> Tuple[IntVec, IntVec, int]:
        # reduce v against the pivots, keeping s t = v + sum_k coeffs[k] row_k
        # for the t the caller started from with s = 1
        v, s = dict(v), 1
        while v:
            lead = min(v)
            hit = self.pivots.get(lead)
            if hit is None:
                break
            prow, pcoef = hit
            a, c = v[lead], prow[lead]
            if c != 1:
                g = gcd(a, c)
                a, c = a // g, c // g
                s *= c
                v = {k: c * x for k, x in v.items()}
                coeffs = {k: c * x for k, x in coeffs.items()}
            vec_axpy_inplace(v, -a, prow)
            vec_axpy_inplace(coeffs, a, pcoef)
        return v, coeffs, s

    def add(self, row: IntVec) -> bool:
        """Add a row, which takes the next index; False when it depends on
        the rows added before, and then it is never used."""
        # t = 0: the reduced row v satisfies v = -sum_k coeffs[k] * row_k
        v, coeffs, _ = self._reduce(row, {self.count: -1})
        self.count += 1
        if not v:
            return False
        self.rows[self.count - 1] = row
        self._homes = None
        lead = min(v)
        g = gcd(*v.values(), *coeffs.values())
        if v[lead] < 0:
            g = -g
        self.pivots[lead] = ({k: x // g for k, x in v.items()}, {k: -x // g for k, x in coeffs.items()})
        return True

    def _home_index(self) -> Dict[int, Tuple[int, int, List[Tuple[int, int]]]]:
        seen: Dict[int, int] = {}
        for row in self.rows.values():
            for k in row:
                seen[k] = seen.get(k, 0) + 1
        homes = {}
        for i, row in self.rows.items():
            for h, d in row.items():
                if seen[h] == 1:
                    homes[h] = (i, d, [(k, x) for k, x in row.items() if k != h])
                    break
        self._homes = homes
        return homes

    def _solve(self, v: IntVec) -> Optional[Vec]:
        v, coeffs, s = self._reduce(v, {})
        if v:
            return None
        if s == 1:
            return coeffs
        return {k: c // s if c % s == 0 else Fraction(c, s) for k, c in coeffs.items()}

    def express(self, v: IntVec) -> Optional[Vec]:
        homes = self._homes
        if homes is None:
            homes = self._home_index()
        rest = dict(v)
        coords: Vec = {}
        for h, x in v.items():
            hit = homes.get(h)
            if hit is None:
                continue
            i, d, others = hit
            if d == 1:
                c = x
            else:
                c, r = divmod(x, d)
                if r:
                    return self._solve(v)
            coords[i] = c
            del rest[h]  # x - c d = 0: no other row touches h
            for k, y in others:
                y = rest.get(k, 0) - c * y
                if y:
                    rest[k] = y
                else:
                    del rest[k]
        if rest:
            more = self._solve(rest)
            if more is None:
                return None
            coords.update(more)
        return coords
