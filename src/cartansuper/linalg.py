"""Exact sparse linear algebra over the rationals.

Everything downstream (algebra constructors, derivation solvers, the
certifier) runs on the primitives in this module.  Scalars are
`fractions.Fraction`, so every rank / kernel / membership decision is exact:
a rational solution space has the same dimension as its complex counterpart,
which is what lets integer structure constants stand in for the complex
field.

There are two exceptions, both on integer rows (``{index: int}``):

- `kernel_of_rows_modp`, the fast path for the Leibniz block kernels,
  eliminates mod p = 2^31 - 1 and returns a kernel only after checking it
  exactly over Q, so its answer is either the Fraction answer or None;
- `kernel_of_int_rows` and `int_combine`, the certifier's engine,
  eliminate fraction-free over Z.  Every row is kept as a primitive
  integer multiple of the row Fraction elimination would hold, so the
  answer is the Fraction answer, scaled, with nothing to check.

Vectors are sparse dicts ``{index: Fraction}`` with no stored zeros.
Subspaces are kept in reduced row echelon form (RREF), which is unique per
row space, so subspace equality is plain row-list equality and all outputs
are deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

Vec = Dict[int, Fraction]
IntVec = Dict[int, int]

_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# sparse vector helpers


def vec_scale(v: Vec, c: Fraction) -> Vec:
    if not c:
        return {}
    return {k: x * c for k, x in v.items()}


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

    def transpose(self) -> "Matrix":
        data: Dict[int, Vec] = {}
        for i, row in self.data.items():
            for j, x in row.items():
                data.setdefault(j, {})[i] = x
        return Matrix(self.cols, self.rows, data)

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


def kernel_of_int_rows(rows: Iterable[IntVec], ncols: int) -> List[IntVec]:
    """`kernel_of_rows` for integer rows, on ints: its RREF basis with each
    vector scaled to a primitive integer vector with a positive lead.

    The rows are brought to reduced echelon form with each pivot at a row's
    last column.  The kernel vector of a free column f is then nonzero only
    at f and at pivot columns right of f, so f is its lead and every other
    kernel vector vanishes there: these vectors, in order of f, are the RREF
    of the kernel up to positive scalars.
    """
    pivots: Dict[int, IntVec] = {}
    for row in rows:
        v = row
        while v:
            lead = max(v)
            prow = pivots.get(lead)
            if prow is None:
                pivots[lead] = int_combine(1 if v[lead] > 0 else -1, v, 0, {})
                break
            v = int_combine(prow[lead], v, -v[lead], prow)
        if len(pivots) == ncols:
            return []
    # back-reduce left to right; each pivot row used is already reduced
    for lead in sorted(pivots):
        row = pivots[lead]
        for k in [k for k in row if k != lead and k in pivots]:
            row = int_combine(pivots[k][k], row, -row[k], pivots[k])
        pivots[lead] = row
    kern: Dict[int, IntVec] = {f: {} for f in range(ncols) if f not in pivots}
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


# ---------------------------------------------------------------------------
# one-sided modular kernel
#
# The modular method of von zur Gathen & Gerhard, Modern Computer Algebra,
# ch. 5: eliminate over F_p, lift the answer to Q by rational reconstruction,
# and keep it only if it checks exactly over Z.

PRIME = 2**31 - 1
# 2 * _RR_BOUND**2 < PRIME, so a reconstruction within the bound is unique
_RR_BOUND = isqrt(PRIME // 2)


def rational_reconstruct(x: int) -> Optional[Fraction]:
    """The a/b with |a|, b <= sqrt(p/2) and a = b x (mod p), or None."""
    if x <= _RR_BOUND:
        return Fraction(x)
    if x >= PRIME - _RR_BOUND:
        return Fraction(x - PRIME)
    r0, r1, t0, t1 = PRIME, x, 0, 1
    while r1 > _RR_BOUND:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if abs(t1) > _RR_BOUND or gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def rref_modp(rows: Iterable[IntVec], ncols: int) -> Dict[int, IntVec]:
    """RREF mod PRIME of integer rows, as {pivot column: monic row}.

    Stops early once every column is a pivot.
    """
    p = PRIME
    pivots: Dict[int, IntVec] = {}
    for row in rows:
        v = {}
        for k, c in row.items():
            c %= p
            if c:
                v[k] = c
        while v:
            lead = min(v)
            prow = pivots.get(lead)
            if prow is None:
                inv = pow(v[lead], -1, p)
                pivots[lead] = {k: x * inv % p for k, x in v.items()}
                break
            c = v[lead]
            for k, x in prow.items():
                s = (v.get(k, 0) - c * x) % p
                if s:
                    v[k] = s
                else:
                    del v[k]
        if len(pivots) == ncols:
            break
    for lead in sorted(pivots, reverse=True):
        row = pivots[lead]
        for k in sorted(row):
            if k != lead and k in pivots:
                c = row[k]
                for j, x in pivots[k].items():
                    s = (row.get(j, 0) - c * x) % p
                    if s:
                        row[j] = s
                    else:
                        del row[j]
    return pivots


def kernel_of_rows_modp(rows: Iterable[IntVec], ncols: int) -> Optional[List[Vec]]:
    """`kernel_of_rows` for integer rows, eliminated mod p; None if unproved.

    Duplicate rows are dropped and the rest are brought to RREF mod
    p = 2^31 - 1.  Each kernel vector (unit on its free column) is lifted to
    Q by rational reconstruction and then checked against every row exactly
    over Z.  The answer is exact because:

    - the rows are integral, so every minor that vanishes over Q vanishes
      mod p, and rank_p <= rank_Q;
    - so the lifted vectors, ncols - rank_p of them, are at least
      dim ker_Q in number;
    - they are independent (each is the only one that is nonzero on its
      free column), and the check puts every one of them in ker_Q, so they
      span ker_Q exactly;
    - their RREF is the unique RREF basis of ker_Q, the very answer of
      `kernel_of_rows`.

    When reconstruction or the check fails (an unlucky prime, or entries
    beyond the reconstruction bound sqrt(p/2)), the result is None and the
    caller solves over Q instead: a bad prime costs time, never a wrong
    kernel.  Rows must have int entries; a non-int entry also gives None.
    """
    distinct = list({frozenset(row.items()): row for row in rows if row}.values())
    if any(type(c) is not int for row in distinct for c in row.values()):
        return None
    pivots = rref_modp(distinct, ncols)
    if len(pivots) == ncols:
        return []
    # kernel vector of free column f: 1 at f, -row[f] at each pivot's column
    lifted: Dict[int, Vec] = {f: {f: _ONE} for f in range(ncols) if f not in pivots}
    for lead, row in pivots.items():
        for f, x in row.items():
            if f != lead:
                c = rational_reconstruct(PRIME - x)
                if c is None:
                    return None
                lifted[f][lead] = c
    for v in lifted.values():
        den = lcm(*(c.denominator for c in v.values()))
        w = {k: int(c * den) for k, c in v.items()}
        for row in distinct:
            if sum(c * w.get(k, 0) for k, c in row.items()):
                return None
    return rref(lifted.values())[0]


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

    def annihilator_rows(self) -> List[Vec]:
        """RREF rows spanning {w : w·u = 0 for all u in the subspace}.

        Over Q the standard dot product is anisotropic, so v is a member
        iff every annihilator row kills it.
        """
        return kernel_of_rows(self.rows, self.ambient)

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
    """Echelon with transform tracking: express vectors in a fixed spanning set.

    Rows are added once; ``express`` then writes any vector of the span as a
    coordinate dict over the original row indices (None if outside the span).
    """

    def __init__(self):
        self.pivots: Dict[int, Tuple[Vec, Vec]] = {}  # lead -> (row, coeffs)
        self.count = 0

    def add(self, row: Vec) -> bool:
        v = dict(row)
        coeffs: Vec = {self.count: _ONE}
        self.count += 1
        while v:
            lead = min(v)
            hit = self.pivots.get(lead)
            if hit is None:
                c = v[lead]
                if c != 1:
                    inv = _ONE / c
                    v = {k: x * inv for k, x in v.items()}
                    coeffs = {k: x * inv for k, x in coeffs.items()}
                self.pivots[lead] = (v, coeffs)
                return True
            prow, pcoef = hit
            c = v[lead]
            vec_axpy_inplace(v, -c, prow)
            vec_axpy_inplace(coeffs, -c, pcoef)
        return False

    def express(self, v: Vec) -> Optional[Vec]:
        v = dict(v)
        coeffs: Vec = {}
        while v:
            lead = min(v)
            hit = self.pivots.get(lead)
            if hit is None:
                return None
            prow, pcoef = hit
            c = v[lead]
            vec_axpy_inplace(v, -c, prow)
            vec_axpy_inplace(coeffs, c, pcoef)
        return coeffs
