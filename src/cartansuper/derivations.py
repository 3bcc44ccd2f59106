"""Superderivations of a graded Lie superalgebra model, two independent ways.

Route one solves the signed Leibniz equation

    D([x, y]) = [D(x), y] + (-1)^{|D||x|} [x, D(y)]

as an exact linear system in the matrix entries of D.  The system splits
along the bigrading: a basis-homogeneous derivation component of bidegree
shift (d, a) maps the cell (j, b) into (j+d, b+a), and every scalar Leibniz
constraint touches exactly one such shift, so the global kernel decomposes
into many small block kernels (the performance path).  The rows have int
coefficients, and each block is solved mod p and then checked over Q; a
block whose modular answer is not proved is solved again with Fractions.

The block path emits rows only for the pairs (g, y) with g in a generating
set G of L (`liesuper.generators`), |G| * dim pairs instead of dim^2 / 2.
That is exact once L passes `check_axioms`: for a homogeneous D, the
homogeneous x with D([x, y]) = [D(x), y] + (-1)^{|D||x|} [x, D(y)] for all
y form a subalgebra (expand [[x, x'], y] and D([x, x']) by Jacobi, and use
parity additivity for homogeneity), so Leibniz on G x L gives Leibniz on
the left-normed brackets of G, which span L.  Each block holds one
homogeneous shift, so the argument applies block by block, and the pair
(y, g) with y < g is covered by (g, y) through anticommutativity.

A reference path feeds the rows of every pair, as Fractions, through one
global elimination without using G, the block structure or the modular
kernel.

Route two spans the inner maps ad(u) for u in the extension algebra L'.
Their agreement, subspace equality inside End(L), is the machine-checkable
form of the classification of Der(L) for these families.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .families import LPrimeModel
from .liesuper import AlgebraModel, ad_matrix, generators, int_table
from .linalg import (
    Echelon,
    IntVec,
    Matrix,
    Subspace,
    Vec,
    as_fractions,
    kernel_of_rows,
    kernel_of_rows_modp,
    vec_axpy_inplace,
)

WeightTuple = Tuple[int, ...]
Cell = Tuple[int, WeightTuple]
Shift = Tuple[int, WeightTuple]


class EndMap:
    """A linear map on the model, stored column-sparse, with a parity tag.

    parity 0 or 1 means the map respects that Z_2-shift on basis vectors;
    None marks a mixed map (accepted by the decomposition helpers, rejected
    where the Leibniz sign needs a definite parity).
    """

    __slots__ = ("dim", "cols", "parity")

    def __init__(self, dim: int, cols: Optional[Dict[int, Vec]] = None,
                 parity: Optional[int] = None):
        self.dim = dim
        self.cols: Dict[int, Vec] = cols if cols is not None else {}
        self.parity = parity

    @classmethod
    def from_matrix(cls, m: Matrix, parity: Optional[int] = None) -> "EndMap":
        cols: Dict[int, Vec] = {}
        for a, row in m.data.items():
            for b, c in row.items():
                cols.setdefault(b, {})[a] = c
        return cls(m.rows, cols, parity)

    @classmethod
    def from_flat(cls, dim: int, flat: Vec, parity: Optional[int] = None) -> "EndMap":
        cols: Dict[int, Vec] = {}
        for key, c in flat.items():
            a, b = divmod(key, dim)
            cols.setdefault(b, {})[a] = c
        return cls(dim, cols, parity)

    @classmethod
    def identity(cls, dim: int) -> "EndMap":
        return cls(dim, {b: {b: Fraction(1)} for b in range(dim)}, parity=0)

    def apply(self, v: Vec) -> Vec:
        out: Vec = {}
        for b, c in v.items():
            col = self.cols.get(b)
            if col:
                vec_axpy_inplace(out, c, col)
        return out

    def to_flat(self) -> Vec:
        dim = self.dim
        out: Vec = {}
        for b, col in self.cols.items():
            for a, c in col.items():
                out[a * dim + b] = c
        return out

    def infer_parity(self, A: AlgebraModel) -> Optional[int]:
        """Definite Z_2-shift of the map on A's basis, or None when mixed."""
        shifts = set()
        for b, col in self.cols.items():
            for a in col:
                shifts.add((A.parity[a] + A.parity[b]) % 2)
        if len(shifts) == 1:
            return shifts.pop()
        return 0 if not shifts else None

    def __repr__(self) -> str:
        nnz = sum(len(c) for c in self.cols.values())
        return f"EndMap(dim={self.dim}, nnz={nnz}, parity={self.parity})"


def is_superderivation(D: EndMap, A: AlgebraModel) -> bool:
    """Check the signed Leibniz rule on every basis pair (sufficient by
    bilinearity)."""
    p = D.parity
    if p is None:
        p = D.infer_parity(A)
    if p is None:
        raise ValueError("is_superderivation requires a parity-homogeneous map")
    dim = A.dim
    for i in range(dim):
        di = D.cols.get(i, {})
        sign = Fraction(1 if (p * A.parity[i]) % 2 == 0 else -1)
        for j in range(dim):
            lhs = D.apply(A.bracket_basis(i, j))
            rhs = A.bracket(di, {j: Fraction(1)})
            vec_axpy_inplace(rhs, sign, A.bracket({i: Fraction(1)}, D.cols.get(j, {})))
            if lhs != rhs:
                return False
    return True


# ---------------------------------------------------------------------------
# the Leibniz linear system


def _bracket_tables(A: AlgebraModel):
    """The int bracket table of `int_table` and its column/row views indexed
    by output coordinate.

    Every Leibniz coefficient is linear in the structure constants, so the
    scaling multiplies each row by one nonzero constant and leaves the row
    space alone.
    """
    table = int_table(A)
    by_col: List[Dict[int, List[Tuple[int, int]]]] = [{} for _ in range(A.dim)]
    by_row: List[Dict[int, List[Tuple[int, int]]]] = [{} for _ in range(A.dim)]
    for (i, j), ints in table.items():
        for k, c in ints.items():
            by_col[j].setdefault(k, []).append((i, c))
            by_row[i].setdefault(k, []).append((j, c))
    return table, by_col, by_row


def leibniz_rows(
    A: AlgebraModel,
    parity: Optional[int] = None,
    generating_set: Optional[Iterable[int]] = None,
) -> Iterator[Tuple[Shift, IntVec]]:
    """Yield (shift, constraint row) pairs over flattened End(L) coordinates.

    One row per (basis pair i <= j, output coordinate k); the pair (j, i) is
    dropped as anticommutativity makes it redundant, while i = j stays (odd
    self-brackets are not trivial).  With ``generating_set``, only the pairs
    with i or j in it are kept.  Each row touches entries of exactly one
    bidegree shift, computed and attached for the block solver.  Rows have
    int coefficients: they are built from the denominator-free table of
    `int_table`.
    """
    dim = A.dim
    table, by_col, by_row = _bracket_tables(A)
    deg, wt = A.degree, A.weight
    cell_no = {cell: n for n, cell in enumerate(A.cells())}
    cell_of = [cell_no[A.cell_of(k)] for k in range(dim)]
    in_gens = set(range(dim) if generating_set is None else generating_set)
    gens = sorted(in_gens)
    for i in range(dim):
        pi = A.parity[i]
        partners = range(i, dim) if i in in_gens else gens[bisect_right(gens, i):]
        for j in partners:
            w = table.get((i, j), {})
            rows: Dict[int, IntVec] = {}
            if w:
                for k in range(dim):
                    rows[k] = {k * dim + m: c for m, c in w.items()}
            for k, hits in by_col[j].items():
                row = rows.setdefault(k, {})
                for a, c in hits:
                    key = a * dim + i
                    s = row.get(key, 0) - c
                    if s:
                        row[key] = s
                    else:
                        row.pop(key, None)
            # the shift of row k depends on k only through its cell
            d0 = A.deg_sub(A.deg_sub(0, deg[i]), deg[j])
            w0 = [-y - z for y, z in zip(wt[i], wt[j])]
            shifts: Dict[int, Shift] = {}
            for k in rows.keys() | by_row[i].keys():
                if cell_of[k] not in shifts:
                    shifts[cell_of[k]] = (
                        A.deg_add(deg[k], d0), tuple(map(add, wt[k], w0))
                    )
            for k, hits in by_row[i].items():
                row = rows.setdefault(k, {})
                p_k = shifts[cell_of[k]][0] % 2
                sgn = -1 if (p_k * pi) % 2 == 0 else 1
                for a, c in hits:
                    key = a * dim + j
                    s = row.get(key, 0) + sgn * c
                    if s:
                        row[key] = s
                    else:
                        row.pop(key, None)
            for k, row in rows.items():
                if not row:
                    continue
                shift = shifts[cell_of[k]]
                if parity is not None and shift[0] % 2 != parity:
                    continue
                yield shift, row


class BlockSystem:
    """The bigrade block layout of End(L), shared by both machine checks.

    The entry (a, b) of a map, flat id a * dim + b, sends the cell of b
    into the cell of a; its block is the shift between the two cells.
    Each block lists its flat ids in sorted order, and an entry's local id
    is its position there.  Parity 0 or 1 keeps only the blocks of that
    Z_2-shift.
    """

    def __init__(self, A: AlgebraModel, parity: Optional[int] = None):
        self.A = A
        self.cells = A.cells()
        dim = A.dim
        self.entries: Dict[Shift, List[int]] = {}
        for cb, bs in self.cells.items():
            for ca, as_ in self.cells.items():
                shift = self.cell_shift(A, ca, cb)
                if parity is not None and shift[0] % 2 != parity:
                    continue
                self.entries.setdefault(shift, []).extend(
                    a * dim + b for a in as_ for b in bs
                )
        self.local: Dict[Shift, Dict[int, int]] = {}
        for shift, entries in self.entries.items():
            entries.sort()
            self.local[shift] = {key: i for i, key in enumerate(entries)}
        # source cells and answer of the last shifts_from call, and the
        # (shift, target cell) pairs of each source cell
        self._reach: tuple = ((), {})
        self._cell_reach: Dict[Cell, List[Tuple[Shift, Cell]]] = {}

    @staticmethod
    def cell_shift(A: AlgebraModel, ca: Cell, cb: Cell) -> Shift:
        """The (degree, weight) shift of a map sending cell cb into cell ca."""
        (da, wa), (db, wb) = ca, cb
        return (A.deg_sub(da, db), tuple(x - y for x, y in zip(wa, wb)))

    def localize(self, shift: Shift, row: Vec) -> Vec:
        local = self.local[shift]
        return {local[k]: c for k, c in row.items()}

    def lift(self, shift: Shift, row: Vec) -> Vec:
        entries = self.entries[shift]
        return {entries[k]: c for k, c in row.items()}

    def kernel(self, shift: Shift, rows: List[IntVec]) -> List[Vec]:
        """Flat basis of the maps in one block annihilated by the flat
        integer rows.

        The block is solved mod p first (`kernel_of_rows_modp`, checked over
        Q); only when that is not proved does it fall back to the Fraction
        `kernel_of_rows`.  Both give the same RREF basis.
        """
        local_rows = [self.localize(shift, row) for row in rows]
        ncols = len(self.entries[shift])
        kern = kernel_of_rows_modp(local_rows, ncols)
        if kern is None:
            kern = kernel_of_rows(as_fractions(local_rows), ncols)
        return [self.lift(shift, v) for v in kern]

    def shifts_from(self, x: Vec) -> Dict[Shift, List[Tuple[Cell, Cell]]]:
        """The shifts that move some cell of x's support onto a cell of L,
        each with its (target cell, source cell) pairs.

        Callers ask for one vector many times in a row, so the answer for
        the last set of source cells is kept, and so is each source cell's
        list of shifts.
        """
        cell_of = self.A.cell_of
        sources = tuple(dict.fromkeys(cell_of(b) for b in x))
        if sources != self._reach[0]:
            reach: Dict[Shift, List[Tuple[Cell, Cell]]] = {}
            for cb in sources:
                targets = self._cell_reach.get(cb)
                if targets is None:
                    shifts = ((self.cell_shift(self.A, ca, cb), ca) for ca in self.cells)
                    targets = self._cell_reach[cb] = [
                        (shift, ca) for shift, ca in shifts if shift in self.entries
                    ]
                for shift, ca in targets:
                    reach.setdefault(shift, []).append((ca, cb))
            self._reach = (sources, reach)
        return self._reach[1]


def derivation_space(
    A: AlgebraModel,
    parity: Optional[int] = None,
    method: str = "blocks",
) -> Subspace:
    """The space of parity-homogeneous superderivations inside End(L).

    parity None returns the direct sum of the even and odd parts.  The
    "blocks" method keeps the rows of the pairs (g, y) with g in a
    generating set G (see `generators`) and solves one small kernel per
    bidegree shift; "reference" pushes the rows of every pair through a
    single global elimination and must agree.  The blocks answer assumes
    that A passes `check_axioms` (see the module docstring).
    """
    dim = A.dim
    flat_dim = dim * dim
    if method == "reference":
        rows = as_fractions(row for _, row in leibniz_rows(A, parity))
        if parity is None:
            return Subspace.from_vectors(kernel_of_rows(rows, flat_dim), flat_dim)
        support = [
            a * dim + b
            for a in range(dim)
            for b in range(dim)
            if (A.parity[a] + A.parity[b]) % 2 == parity
        ]
        local = {key: idx for idx, key in enumerate(support)}
        local_rows = []
        for row in rows:
            local_rows.append({local[k]: c for k, c in row.items()})
        kern = kernel_of_rows(local_rows, len(support))
        lifted = [{support[k]: c for k, c in v.items()} for v in kern]
        return Subspace.from_vectors(lifted, flat_dim)
    if method != "blocks":
        raise ValueError(f"unknown method {method!r}")

    blocks = BlockSystem(A, parity)
    grouped: Dict[Shift, List[IntVec]] = {}
    for shift, row in leibniz_rows(A, parity, generators(A)):
        grouped.setdefault(shift, []).append(row)

    out_rows: List[Vec] = []
    for shift in sorted(blocks.entries):
        out_rows.extend(blocks.kernel(shift, grouped.get(shift, [])))
    return Subspace.from_vectors(out_rows, flat_dim)


# ---------------------------------------------------------------------------
# the inner route and the structural checks


def ad_image(P: LPrimeModel) -> Subspace:
    """span{ad(u)|_L : u in L'} inside End(L); ad is injective here, so the
    dimension equals dim L'."""
    m = P.dim_l
    rows = []
    for u in range(P.ext.dim):
        mat = ad_matrix(P.ext, {u: Fraction(1)}, restrict=m)
        rows.append(EndMap.from_matrix(mat).to_flat())
    return Subspace.from_vectors(rows, m * m)


def transitivity_check(P: LPrimeModel) -> bool:
    """No nonzero element of nonnegative degree annihilates L'_{-1}."""
    ext = P.ext
    neg = [i for i in range(ext.dim) if ext.degree[i] == -1]
    nonneg = [i for i in range(ext.dim) if ext.degree[i] >= 0]
    ech = Echelon()
    ranked = 0
    for a in nonneg:
        row: Vec = {}
        for slot, v in enumerate(neg):
            w = ext.bracket_basis(a, v)
            for k, c in w.items():
                row[slot * ext.dim + k] = c
        if ech.insert(row):
            ranked += 1
    return ranked == len(nonneg)


@dataclass
class DerivationReport:
    family: str
    n: int
    dim_l: int
    dim_lprime: int
    dim_der: int
    lemma_der_holds: bool
    transitive: bool

    def as_dict(self) -> dict:
        return {
            "family": self.family,
            "n": self.n,
            "dim_L": self.dim_l,
            "dim_Lprime": self.dim_lprime,
            "dim_Der": self.dim_der,
            "lemma_der_holds": self.lemma_der_holds,
            "transitive": self.transitive,
        }


def derivation_report(P: LPrimeModel) -> DerivationReport:
    der = derivation_space(P.base)
    inner = ad_image(P)
    return DerivationReport(
        family=P.base.family,
        n=P.base.n,
        dim_l=P.dim_l,
        dim_lprime=P.dim_lprime,
        dim_der=der.dim,
        lemma_der_holds=der == inner,
        transitive=transitivity_check(P),
    )
