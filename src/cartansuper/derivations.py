"""Superderivations of a graded Lie superalgebra model, two independent ways.

Route one solves the signed Leibniz equation

    D([x, y]) = [D(x), y] + (-1)^{|D||x|} [x, D(y)]

as an exact linear system in the matrix entries of D.  The system splits
along the bigrading: a basis-homogeneous derivation component of bidegree
shift (d, a) maps the cell (j, b) into (j+d, b+a), and every scalar Leibniz
constraint touches exactly one such shift, so the global kernel decomposes
into many small block kernels (the performance path).  The rows have int
coefficients, the integer structure constants of the table, and each one
is cut into its block's `IntKernel` as it is emitted (`leibniz_kernels`):
fraction-free elimination over Z, exact over Q.

The block path emits rows only for the pairs (g, y) with g in a generating
set G of L (`liesuper.generators`), |G| * dim pairs instead of dim^2 / 2.
That is exact once L passes `check_axioms`: for a homogeneous D, the
homogeneous x with D([x, y]) = [D(x), y] + (-1)^{|D||x|} [x, D(y)] for all
y form a subalgebra (expand [[x, x'], y] and D([x, x']) by Jacobi, and use
parity additivity for homogeneity), so Leibniz on G x L gives Leibniz on
the left-normed brackets of G, which span L.  Each block holds one
homogeneous shift, so the argument applies block by block, and the pair
(y, g) with y < g is covered by (g, y) through anticommutativity.

`check` stops each block at a rank target instead of reducing all its
rows.  Block s of Der L contains ad L'_s once every ad(u), u in L', is a
superderivation of L.  For u in L that is the Jacobi identity on
G x L x L, which `check_axioms` proves and the pairs (g, y) already
assume.  For the dim L' - dim L outer elements u of L' it is
`outer_ads_are_derivations`: L' must bracket L x L as L's own table does,
and every Jacobi triple (u, g, y) with g in G must hold, which is ad(u)
meeting the rows of the pair (g, y).  With that guard passed, a block
whose kernel has come down to dim ad L'_s holds Der_s = ad L'_s, since
Der_s lies between the two, and `leibniz_rows` builds none of its
remaining rows.  When the guard fails, no block stops early: each one
takes its rows until they run out or its kernel is zero, and
`blocks_equal_ad` decides.  A block that never reaches its target takes
every row, so dim Der L is exact either way.

A reference path feeds the rows of every pair, as Fractions, through one
global elimination without using G, the block structure or the integer
kernel, and emits every row.

Route two spans the inner maps ad(u) for u in the extension algebra L',
read as int columns straight from its bracket table (`ad_columns`, which
the certifier shares), as integer echelon rows per block (`ad_blocks`).
The two routes are compared block by block, on ints, by dimension and
containment (`blocks_equal_ad`, the test the certifier's verdict makes
too): Der_s = ad L'_s on every block is the machine-checkable form of the
classification of Der(L) for these families.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from operator import add, sub
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from .families import LPrimeModel
from .liesuper import AlgebraModel, generators, jacobi_violation
from .linalg import (
    IntKernel,
    IntVec,
    Matrix,
    Subspace,
    Vec,
    as_fractions,
    kernel_of_rows,
    vec_axpy_inplace,
    vec_dot,
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
        return cls(dim, {b: {b: 1} for b in range(dim)}, parity=0)

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
        sign = 1 if (p * A.parity[i]) % 2 == 0 else -1
        for j in range(dim):
            lhs = D.apply(A.bracket_basis(i, j))
            rhs = A.bracket(di, {j: 1})
            vec_axpy_inplace(rhs, sign, A.bracket({i: 1}, D.cols.get(j, {})))
            if lhs != rhs:
                return False
    return True


# ---------------------------------------------------------------------------
# the Leibniz linear system


def _bracket_tables(A: AlgebraModel):
    """The bracket table's column and row views, indexed by output
    coordinate."""
    by_col: List[Dict[int, List[Tuple[int, int]]]] = [{} for _ in range(A.dim)]
    by_row: List[Dict[int, List[Tuple[int, int]]]] = [{} for _ in range(A.dim)]
    for (i, j), w in A.table.items():
        for k, c in w.items():
            by_col[j].setdefault(k, []).append((i, c))
            by_row[i].setdefault(k, []).append((j, c))
    return by_col, by_row


def leibniz_rows(
    A: AlgebraModel,
    parity: Optional[int] = None,
    generating_set: Optional[Iterable[int]] = None,
    live: Optional[Set[Shift]] = None,
) -> Iterator[Tuple[Shift, IntVec]]:
    """Yield (shift, constraint row) pairs over flattened End(L) coordinates.

    One row per (basis pair i <= j, output coordinate k); the pair (j, i) is
    dropped as anticommutativity makes it redundant, while i = j stays (odd
    self-brackets are not trivial).  With ``generating_set``, only the pairs
    with i or j in it are kept.  Each row touches entries of exactly one
    bidegree shift, computed and attached for the block solver.  Rows have
    int coefficients, the structure constants of the table.

    With ``live``, a set of shifts the caller may shrink while it reads, a
    row is built only when its shift is in the set, a pair none of whose
    rows can land in it is skipped, and the generator returns once the set
    is empty.
    """
    dim = A.dim
    table = A.table
    by_col, by_row = _bracket_tables(A)
    deg, wt = A.degree, A.weight
    cells = list(A.cells())
    cell_no = {cell: n for n, cell in enumerate(cells)}
    cell_of = [cell_no[A.cell_of(k)] for k in range(dim)]
    in_gens = set(range(dim) if generating_set is None else generating_set)
    gens = sorted(in_gens)
    every_cell = [True] * len(cells)
    # the shift of row k depends on the pair only through the cell of its
    # bracket, and on k only through k's cell: per bracket cell, the shift
    # of each cell's rows, each shift stored once
    shifts_into: Dict[Cell, List[Shift]] = {}
    one_copy: Dict[Shift, Shift] = {}
    for i in range(dim):
        pi = A.parity[i]
        partners = range(i, dim) if i in in_gens else gens[bisect_right(gens, i):]
        for j in partners:
            top = (A.deg_add(deg[i], deg[j]), tuple(map(add, wt[i], wt[j])))
            shifts = shifts_into.get(top)
            if shifts is None:
                shifts = shifts_into[top] = [
                    one_copy.setdefault(shift, shift)
                    for shift in (BlockSystem.cell_shift(A, c, top) for c in cells)
                ]
            if live is None:
                wanted = every_cell
            elif not live:
                return
            elif live.isdisjoint(shifts):
                continue
            else:
                wanted = [shift in live for shift in shifts]
            w = table.get((i, j), {})
            rows: Dict[int, IntVec] = {}
            if w:
                for k in range(dim):
                    if wanted[cell_of[k]]:
                        rows[k] = {k * dim + m: c for m, c in w.items()}
            for k, hits in by_col[j].items():
                if not wanted[cell_of[k]]:
                    continue
                row = rows.setdefault(k, {})
                for a, c in hits:
                    key = a * dim + i
                    s = row.get(key, 0) - c
                    if s:
                        row[key] = s
                    else:
                        row.pop(key, None)
            for k, hits in by_row[i].items():
                if not wanted[cell_of[k]]:
                    continue
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
        # source cells and answer of the last shifts_from call, and each
        # source cell's `reach` list
        self._reach: tuple = ((), {})
        self._cell_reach: Dict[Cell, List[Tuple[Shift, Cell]]] = {}
        self._keys: Dict[Shift, Shift] = {shift: shift for shift in self.entries}

    @staticmethod
    def cell_shift(A: AlgebraModel, ca: Cell, cb: Cell) -> Shift:
        """The (degree, weight) shift of a map sending cell cb into cell ca."""
        (da, wa), (db, wb) = ca, cb
        return (A.deg_sub(da, db), tuple(map(sub, wa, wb)))

    def localize(self, shift: Shift, row: Vec) -> Vec:
        local = self.local[shift]
        return {local[k]: c for k, c in row.items()}

    def lift(self, shift: Shift, row: Vec) -> Vec:
        entries = self.entries[shift]
        return {entries[k]: c for k, c in row.items()}

    def subspace(self, space: Dict[Shift, IntKernel]) -> Subspace:
        """The direct sum of the blocks' kernels as a subspace of End(L), the
        one place where a block becomes Fractions."""
        rows = [
            self.lift(shift, v)
            for shift in sorted(space)
            for v in as_fractions(space[shift].basis())
        ]
        return Subspace.from_vectors(rows, self.A.dim ** 2)

    def reach(self, cb: Cell) -> List[Tuple[Shift, Cell]]:
        """The (shift, target cell) pairs of the blocks with entries in the
        columns of cell cb, in cell order, built once per cell.  The shifts
        are the blocks' own keys, not a fresh tuple per pair."""
        targets = self._cell_reach.get(cb)
        if targets is None:
            keys = self._keys
            shifts = ((keys.get(self.cell_shift(self.A, ca, cb)), ca) for ca in self.cells)
            targets = self._cell_reach[cb] = [
                (shift, ca) for shift, ca in shifts if shift is not None
            ]
        return targets

    def shifts_from(self, x: Vec) -> Dict[Shift, List[Tuple[Cell, Cell]]]:
        """The shifts that move some cell of x's support onto a cell of L,
        each with its (target cell, source cell) pairs.

        Callers ask for one vector many times in a row, so the answer for
        the last set of source cells is kept.
        """
        cell_of = self.A.cell_of
        sources = tuple(dict.fromkeys(cell_of(b) for b in x))
        if sources != self._reach[0]:
            reach: Dict[Shift, List[Tuple[Cell, Cell]]] = {}
            for cb in sources:
                for shift, ca in self.reach(cb):
                    reach.setdefault(shift, []).append((ca, cb))
            self._reach = (sources, reach)
        return self._reach[1]


def ad_columns(P: LPrimeModel) -> List[Dict[int, IntVec]]:
    """For each basis vector u of L', ad(u) on L as {b: [u, b]}
    (`LPrimeModel.ad_columns`).

    The columns are the bracket table's own int entries, to be read and not
    changed, and P keeps them for as long as it lives: `ad_image`, the
    certifier's constraint engine and `is_2local_at` share them.
    """
    return P.ad_columns


def leibniz_kernels(
    blocks: BlockSystem, G: List[int], targets: Optional[Dict[Shift, int]] = None
) -> Dict[Shift, IntKernel]:
    """Der L on each block of ``blocks``: each Leibniz row of the pairs
    (g, y), g in G, a generating set of L (`generators`), is cut into its
    block's `IntKernel` as it is emitted.  Exact once A passes
    `check_axioms` (see the module docstring).

    A block takes rows only while its kernel is larger than its target
    (``targets``, 0 where none is given), and `leibniz_rows` builds no row
    for a block that has stopped.  A zero kernel can shrink no more, so
    with no targets every kernel is Der_s.  A block that stops at a target
    t_s holds Der_s when Der_s is known to have a subspace of dimension
    t_s: `derivation_report` passes t_s = dim ad L'_s only once ad L'_s
    lies in Der_s, and then Der_s, squeezed between ad L'_s and the kernel
    reached, equals both.  A block that never reaches its target takes
    every row, so its kernel is Der_s either way.
    """
    targets = targets or {}
    space = {shift: IntKernel(len(entries)) for shift, entries in blocks.entries.items()}
    live = {shift for shift, kern in space.items() if len(kern) > targets.get(shift, 0)}
    for shift, row in leibniz_rows(blocks.A, None, G, live):
        if shift in live:
            kern = space[shift]
            if kern.cut(blocks.localize(shift, row)) and len(kern) <= targets.get(shift, 0):
                live.discard(shift)
    return space


def ad_blocks(P: LPrimeModel, blocks: BlockSystem) -> Dict[Shift, Dict[int, IntVec]]:
    """ad L'_s for every block s it meets, as integer echelon rows over the
    block's local ids keyed by their last column (what `int_reduce` reads):
    the rows cut into a kernel are an echelon basis of their span, so
    there are dim ad L'_s of them.  Each ad(u) must be nonzero and must lie
    in a block of the pattern."""
    ext = P.ext
    span: Dict[Shift, IntKernel] = {}
    for u, cols in enumerate(ad_columns(P)):
        shift = (ext.degree[u], ext.weight[u])
        if not cols:
            raise ValueError(f"ad is not injective on L' (basis {u})")
        if shift not in blocks.entries:
            raise ValueError("ad(u) hits a shift outside the block pattern")
        kern = span.setdefault(shift, IntKernel(len(blocks.entries[shift])))
        kern.cut(blocks.localize(shift, EndMap(P.dim_l, cols).to_flat()))
    return {shift: kern.rows for shift, kern in span.items()}


def blocks_equal_ad(
    space: Dict[Shift, IntKernel], ad: Dict[Shift, Dict[int, IntVec]]
) -> bool:
    """space_s = ad L'_s for every block s, decided on ints: every row cut
    into the kernel vanishes on every row of ad L'_s, so ad L'_s lies in
    the kernel, and the kernel has dimension dim ad L'_s; a subspace of
    that dimension containing ad L'_s equals it."""
    if any(len(kern) != len(ad.get(shift, ())) for shift, kern in space.items()):
        return False
    return not any(
        vec_dot(row, ad_row)
        for shift, kern in space.items()
        for ad_row in ad.get(shift, {}).values()
        for row in kern.rows.values()
    )


def derivation_space(
    A: AlgebraModel,
    parity: Optional[int] = None,
    method: str = "blocks",
) -> Subspace:
    """The space of parity-homogeneous superderivations inside End(L).

    parity None returns the direct sum of the even and odd parts.  The
    "blocks" method is `leibniz_kernels`, read out as one subspace;
    "reference" pushes the rows of every pair through a single global
    elimination and must agree.  The blocks answer assumes that A passes
    `check_axioms` (see the module docstring).
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
    return blocks.subspace(leibniz_kernels(blocks, generators(A)))


# ---------------------------------------------------------------------------
# the inner route and the structural checks


def ad_image(P: LPrimeModel) -> Subspace:
    """span{ad(u)|_L : u in L'} inside End(L); ad is injective here, so the
    dimension equals dim L'."""
    m = P.dim_l
    rows = [
        {a * m + b: c for b, col in cols.items() for a, c in col.items()}
        for cols in ad_columns(P)
    ]
    return Subspace.from_vectors(rows, m * m)


def transitivity_check(P: LPrimeModel) -> bool:
    """No nonzero element of nonnegative degree annihilates L'_{-1}: the
    rows ([a, v] for v in L'_{-1}), one per basis vector a of nonnegative
    degree, are independent, so each one shrinks the kernel they cut."""
    ext = P.ext
    neg = [i for i in range(ext.dim) if ext.degree[i] == -1]
    nonneg = [i for i in range(ext.dim) if ext.degree[i] >= 0]
    kern = IntKernel(len(neg) * ext.dim)
    for a in nonneg:
        row: IntVec = {}
        for slot, v in enumerate(neg):
            for k, c in ext.bracket_basis(a, v).items():
                row[slot * ext.dim + k] = c
        if not kern.cut(row):
            return False
    return True


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


def outer_ads_are_derivations(P: LPrimeModel, G: List[int]) -> bool:
    """ad(u) lies in Der L for every u of L' outside L, checked on ints.

    L' must bracket L x L exactly as L's own table does, and every Jacobi
    triple (u, g, y) with g in G, a generating set of L (`generators`), and
    y in L must hold in L'.
    That triple is the Leibniz row of the pair (g, y) applied to ad(u); the
    pair (y, g) follows by anticommutativity, and Leibniz on G x L gives
    Leibniz on L x L once L passes `check_axioms` (see the module
    docstring).  At most (dim L' - dim L) * |G| * dim L triples."""
    base, ext, m = P.base, P.ext, P.dim_l
    on_l = {key: w for key, w in ext.table.items() if key[0] < m and key[1] < m and w}
    if on_l != {key: w for key, w in base.table.items() if w}:
        return False
    groups = ((u, g, range(m)) for u in range(m, ext.dim) for g in G)
    return jacobi_violation(ext, groups)[1] is None


def derivation_report(P: LPrimeModel, G: List[int]) -> DerivationReport:
    """`check`'s comparison of Der L with ad L', on the Leibniz rows of the
    pairs (g, y), g in G, a generating set of L (`generators`).  Each block
    of Der L stops at dim ad L'_s once `outer_ads_are_derivations` has
    shown ad L' to lie in Der L; otherwise it stops only at a zero kernel
    (`leibniz_kernels`)."""
    blocks = BlockSystem(P.base)
    ad = ad_blocks(P, blocks)
    targets = None
    if outer_ads_are_derivations(P, G):
        targets = {shift: len(rows) for shift, rows in ad.items()}
    space = leibniz_kernels(blocks, G, targets)
    return DerivationReport(
        family=P.base.family,
        n=P.base.n,
        dim_l=P.dim_l,
        dim_lprime=P.dim_lprime,
        dim_der=sum(len(kern) for kern in space.values()),
        lemma_der_holds=blocks_equal_ad(space, ad),
        transitive=transitivity_check(P),
    )
