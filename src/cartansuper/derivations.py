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
fraction-free elimination over Z, exact over Q.  `leibniz_rows` builds a
row only in a block that is still open, each of its three terms read from
the table's own entries at the target cells that block reaches.

The block path emits rows only for the pairs (g, y) with g in a generating
set G of L (`liesuper.generators`), |G| * dim pairs instead of dim^2 / 2.
That is exact once L passes `check_axioms`: for a homogeneous D, the
homogeneous x with D([x, y]) = [D(x), y] + (-1)^{|D||x|} [x, D(y)] for all
y form a subalgebra (expand [[x, x'], y] and D([x, x']) by Jacobi, and use
parity additivity for homogeneity), so Leibniz on G x L gives Leibniz on
the left-normed brackets of G, which span L.  Each block holds one
homogeneous shift, so the argument applies block by block, and the pair
(y, g) with y < g is covered by (g, y) through anticommutativity.

`check` closes each block at a rank target instead of reducing all its
rows (`BlockKernels`, which gives the argument).  The target dim ad L'_s
needs ad L'_s inside block s of Der L: every ad(u), u in L', a
superderivation of L.  For u in L that is the Jacobi identity on
G x L x L, which `check_axioms` proves and the pairs (g, y) already
assume.  For the dim L' - dim L outer elements u of L' it is
`outer_ads_are_derivations`.  When that guard fails, the target is 0 and
`blocks_equal_ad` decides.

`check` solves only the dominant blocks (`dominant_blocks`) once L has
passed `check_axioms` and `outer_ads_are_derivations` holds.  Let
R = Der L / ad L' and let b+ be the even elements of positive order:
degree > 0, or degree 0 and a lexicographically positive weight (for
Stilde, whose degree lives in Z_n, a lexicographically positive weight).
The two premises make every ad(w), w in L', a superderivation of L, so
[ad u, D] is one for u in L and D in Der L, and [ad u, ad w] = ad [u, w]:
R is an L-module.  An element of b+ raises the order, by the grading
additivity that `check_axioms` proves, so it acts on R by a nilpotent
map.  If R != 0, Engel's theorem gives a nonzero r in R that all of b+
kills.  R is the sum of its blocks Der_s / ad L'_s, and b+ is spanned by
basis vectors, each of which maps block s into one block s + its shift,
so b+ kills each block part of r too: take r in one block s.  For a
root alpha with e_alpha in b+ and its sl2 triple (e, h, f), [h, e] = c e,
ad h acts on block s by the scalar lambda_s(h) (`dominant_blocks` checks
both on the table), and e r = 0 makes r a highest-weight vector of the
finite-dimensional sl2-module R: c lambda_s(h) >= 0.  So a nonzero R has
a nonzero part in a block with c lambda_s(h) >= 0 for every root, a
dominant block, and Der_s = ad L'_s on the dominant blocks gives
Der L = ad L', whose dimension `ad_rank` computes.  `ProofContext` says
what a run does when the verdict or a premise fails.

Blocks and cell pairs are named by ints (`cell_codes`, `BlockSystem`).  A
cell (d, w) gets the code sum_p x_p base^p over x = (d, *w), and the pair
of a target cell ca and a source cell cb the code difference
code(ca) - code(cb).  The base exceeds the spread of every entry of such a
difference, and an expansion in it whose digits lie in one interval of
base consecutive integers is unique, so two pairs have equal code
differences exactly when their (da - db, wa - wb) are equal.  Each
code difference is mapped once to its block's (degree, weight) key; for
Stilde, whose degree lives in Z_n, the degree differences da - db and
da - db -+ n give one block, and both code differences are mapped to it
and merged there.  A `BlockSystem` learns every block's size from the
code differences alone.  Its `lay_out` is the one walk that finds a
block's cell pairs, and a block is laid out only when a core solves it:
a run that solves the dominant blocks lays out those blocks only, and one
that falls back to every block (`ProofContext.solve`) lays out the rest
then.

A reference path takes the rows of every pair, not only those of G, from
`leibniz_rows` over a core that never stops, lifts them to flat ids and
pushes them, as Fractions, through one global elimination, without the
block kernels or the integer kernel.

Route two spans the inner maps ad(u) for u in the extension algebra L',
read as int columns straight from its bracket table
(`LPrimeModel.ad_columns`, which the certifier shares), as integer
echelon rows per block (`ad_blocks`).
The two routes are compared block by block, on ints, by dimension and
containment (`blocks_equal_ad`, the test the certifier's verdict makes
too): Der_s = ad L'_s on every block is the machine-checkable form of the
classification of Der(L) for these families.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property
from operator import sub
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

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


def cell_codes(cells: List[Cell]) -> List[int]:
    """Each cell's linear integer code, sum_p x_p base^p over its entries
    x = (d, *w), with base = 2 (hi - lo) + 1 for the least and greatest
    entries lo and hi of the cells.

    The code tells apart the differences c - c' of two cells.  Each entry of
    one lies in [lo - hi, hi - lo], an interval of base consecutive
    integers, and an int has at most one expansion sum_p y_p base^p with
    every digit y_p in a given such interval (at the least p where two
    expansions differ, base would divide the difference of their digits,
    which is smaller than base).  So two differences are equal exactly when
    their codes are.
    """
    entries = [x for d, w in cells for x in (d, *w)]
    base = 2 * (max(entries) - min(entries)) + 1
    return [sum(x * base ** p for p, x in enumerate((d, *w))) for d, w in cells]


class BlockSystem:
    """The bigrade block layout of End(L), shared by both machine checks.

    The entry (a, b) of a map, flat id a * dim + b, sends the cell of b
    into the cell of a; its block is the shift between the two cells.

    A pair of cells (ca, cb) is named by the difference of their codes
    (`cell_codes`), code(ca) - code(cb), which tells (da - db, wa - wb)
    apart.  Under the Z_n degree of Stilde the block's degree is da - db
    taken mod n, so up to two code differences name one block, and they
    are merged there: the block's size counts the entries of both, and its
    layout walks the pairs of both.  The blocks are keyed (degree, weight)
    as `cell_shift` gives them, in the order in which the pairs (source
    outer, target inner) first reach them.

    Construction walks every pair of cells on ints only, to learn each
    block's size (`size`) and one pair that realises it (`pair`, as the
    codes of its target and source cells).  `lay_out` is the one walk that
    finds a block's cell pairs: it lists the block's flat ids in sorted
    order (`entries`), gives each its position there as its local id
    (`local`), and records, for each source cell, the (block, target cell)
    pairs of every block laid out so far (`targets`).  `BlockKernels` lays
    out the blocks it solves when it opens them, so `entries`, `local` and
    `targets` hold those blocks only.
    """

    def __init__(self, A: AlgebraModel):
        self.A = A
        self.cells = A.cells()
        codes = cell_codes(list(self.cells))
        self.code: Dict[Cell, int] = dict(zip(self.cells, codes))
        # the entry count of each code difference, and the source code of
        # the first pair that makes it
        count: Dict[int, int] = {}
        source: Dict[int, int] = {}
        sized = [(code, len(members)) for code, members in zip(codes, self.cells.values())]
        for code_b, nb in sized:
            for code_a, na in sized:
                diff = code_a - code_b
                if diff in count:
                    count[diff] += na * nb
                else:
                    count[diff] = na * nb
                    source[diff] = code_b
        self._cell_at = cell_at = dict(zip(codes, self.cells))
        # each code difference's block, as the block's own key
        named: Dict[int, Shift] = {}
        self.size: Dict[Shift, int] = {}
        self.pair: Dict[Shift, Tuple[int, int]] = {}
        # the code differences that name each block
        self._diffs: Dict[Shift, List[int]] = {}
        for diff, n in count.items():
            code_b = source[diff]
            shift = self.cell_shift(A, cell_at[code_b + diff], cell_at[code_b])
            diffs = self._diffs.setdefault(shift, [])
            if diffs:
                shift = named[diffs[0]]  # the block's own key
            diffs.append(diff)
            named[diff] = shift
            self.size[shift] = self.size.get(shift, 0) + n
            self.pair.setdefault(shift, (code_b + diff, code_b))
        self.entries: Dict[Shift, List[int]] = {}
        self.local: Dict[Shift, Dict[int, int]] = {}
        self.targets: Dict[Cell, List[Tuple[Shift, Cell]]] = {}

    def lay_out(self, shifts: Iterable[Shift]) -> None:
        """Lay out the blocks of ``shifts`` that are not laid out yet: one
        walk over the source cells, matching each to the target cells of
        those blocks, through their code differences or through every cell,
        whichever is fewer.  Each source cell's new pairs join its
        `targets` list, sorted by target cell.  A KeyError for a shift that
        is no block."""
        todo = {
            diff: shift
            for shift in shifts if shift not in self.entries
            for diff in self._diffs[shift]
        }
        if not todo:
            return
        dim, cells, code, at = self.A.dim, self.cells, self.code, self._cell_at
        found: Dict[Shift, List[int]] = {shift: [] for shift in todo.values()}
        for cb, bs in cells.items():
            code_b = code[cb]
            if len(todo) < len(cells):
                hits = ((shift, at.get(code_b + diff)) for diff, shift in todo.items())
            else:
                hits = ((todo.get(code_a - code_b), ca) for ca, code_a in code.items())
            pairs = [(shift, ca) for shift, ca in hits if shift is not None and ca is not None]
            for shift, ca in pairs:
                found[shift].extend([a * dim + b for a in cells[ca] for b in bs])
            if pairs:
                self.targets[cb] = sorted(self.targets.get(cb, []) + pairs, key=lambda p: p[1])
        for shift, entries in found.items():
            entries.sort()
            self.entries[shift] = entries
            self.local[shift] = {key: i for i, key in enumerate(entries)}

    @staticmethod
    def cell_shift(A: AlgebraModel, ca: Cell, cb: Cell) -> Shift:
        """The (degree, weight) shift of a map sending cell cb into cell ca."""
        (da, wa), (db, wb) = ca, cb
        return (A.deg_sub(da, db), tuple(map(sub, wa, wb)))

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

    def shifts_from(self, x: Vec) -> Dict[Shift, List[Tuple[Cell, Cell]]]:
        """The shifts that move some cell of x's support onto a cell of L,
        each with its (target cell, source cell) pairs, read from `targets`
        once every block is laid out."""
        self.lay_out(self.size)
        cell_of = self.A.cell_of
        reach: Dict[Shift, List[Tuple[Cell, Cell]]] = {}
        for cb in dict.fromkeys(cell_of(b) for b in x):
            for shift, ca in self.targets[cb]:
                reach.setdefault(shift, []).append((ca, cb))
        return reach


def dominant_blocks(blocks: BlockSystem) -> Optional[Set[Shift]]:
    """The blocks s of ``blocks`` with c lambda_s(h) >= 0 for the sl2
    triple (e, h, f) of every root of L, or None, which means every block,
    when a check fails.

    A root is a cell (0, alpha) of L with alpha > 0 lexicographically that
    holds one basis vector e, even, while (0, -alpha) holds one, f, even
    too.  With h = [e, f], read off the table, the checks are that
    [h, x] = mu(x) x for every basis vector x, and that mu(x) =
    <v, weight(x)> for one v (adding the column mu to the weights' columns
    keeps their rank).  Then [h, e] = c e with c = mu(e), and [h, f] =
    mu(-alpha) f = -c f, so (e, h, f) spans an sl2 when c != 0 (a root
    with c = 0 keeps every block); and ad h acts on block s, all of whose
    cell pairs differ by its weight a, by the one scalar lambda_s(h) =
    <v, a> = mu(ca) - mu(cb), read from the pair (ca, cb) that
    `BlockSystem.pair` keeps.  Why the other blocks may be left out is in
    the module docstring.
    """
    A, cells = blocks.A, blocks.cells
    zero = A.zero_weight()
    roots = []
    for (d, alpha), es in cells.items():
        if d == 0 and alpha > zero:
            fs = cells.get((0, tuple([-x for x in alpha])), ())
            if len(es) == len(fs) == 1 and not A.parity[es[0]] and not A.parity[fs[0]]:
                roots.append((es[0], fs[0]))
    hs = [A.table.get(root, {}) for root in roots]
    # the roots' mu at each weight, one tuple per weight
    mu: Dict[WeightTuple, Tuple[int, ...]] = {}
    for x in range(A.dim):
        at_x = []
        for h in hs:
            hx = A.bracket(h, {x: 1})
            m = hx.get(x, 0)
            if len(hx) != (m != 0):
                return None
            at_x.append(m)
        if mu.setdefault(A.weight[x], tuple(at_x)) != tuple(at_x):
            return None
    n = len(zero)
    weights, with_mu = IntKernel(n), IntKernel(n + len(roots))
    for w, m in mu.items():
        row = {k: y for k, y in enumerate(w) if y}
        weights.cut(row)
        with_mu.cut({**row, **{n + r: y for r, y in enumerate(m) if y}})
    if len(weights.rows) != len(with_mu.rows):
        return None
    c = [mu[A.weight[e]][r] for r, (e, _) in enumerate(roots)]
    weight_at = {code: w for (_, w), code in blocks.code.items()}

    def dominant(shift: Shift) -> bool:
        ma, mb = (mu[weight_at[code]] for code in blocks.pair[shift])
        return all(cr * (x - y) >= 0 for cr, x, y in zip(c, ma, mb))

    return {shift for shift in blocks.size if dominant(shift)}


class BlockKernels:
    """The block core that `check` and `certify` share: which blocks are
    solved, their kernels and ad L'_s targets, when a block closes, the
    dimensions and the verdict.

    ``solved`` is the set of blocks to solve, and None means every block
    of ``blocks``: `check` and `certify` pass the dominant blocks first
    (`ProofContext.solve`), `derivation_space` the blocks of one parity.
    The solved blocks are laid out here, in one walk, and no other
    (`BlockSystem.lay_out`); a core built later on the same ``blocks``
    lays out only the blocks that are new to it.  `space` holds each
    solved block's kernel over its local ids, the `IntKernel` of the rows
    cut into it: a cut reduces the row fraction-free against the rows kept
    so far and keeps what is left, so the space shrinks exactly when the
    row is independent of them.  Rows reach it only through `_cut`.  Given
    P, `ad_pivots` holds ad L'_s on each solved block as integer echelon
    rows (`ad_blocks`).

    A block's target t_s is dim ad L'_s with ``stop_at_ad`` and 0 without,
    and `_cut` takes the block out of `open` once its kernel has come down
    to t_s; the callers feed a closed block no more rows.  That is exact
    when the space the rows cut out is known to contain a subspace of
    dimension t_s, as ad L'_s is for ``stop_at_ad`` (in Der_s once
    `outer_ads_are_derivations` holds; in the probe-constrained space by
    construction): the space, squeezed between that subspace and the
    kernel reached, equals both, and no further row can shrink it.  A zero
    kernel can shrink no more.  A block that never reaches its target
    takes every row, so its kernel is exact either way.  `_open_reach`
    gives, per source cell, the (block, target cell) pairs of the open
    blocks, cut from the record that `BlockSystem.lay_out` keeps
    (`targets`), the one list both callers read: `leibniz_rows` builds its
    terms there, and the certifier's engine finds the blocks a probe
    reaches.

    `dim_ad`, `dim_space` and `residual_dim` sum over the blocks solved.
    `matches_ad` is the verdict, space_s = ad L'_s on every block solved
    (`blocks_equal_ad`); it tests containment even where that holds by
    construction, so that a slip in the rows cannot pass.
    """

    def __init__(self, blocks: BlockSystem, P: Optional[LPrimeModel] = None,
                 solved: Optional[Set[Shift]] = None, stop_at_ad: bool = True):
        self.blocks = blocks
        self.space: Dict[Shift, IntKernel] = {
            shift: IntKernel(n) for shift, n in blocks.size.items()
            if solved is None or shift in solved
        }
        blocks.lay_out(self.space)
        self.ad_pivots = ad_blocks(P, blocks, self.space) if P is not None else {}
        self._target = {
            shift: len(self.ad_pivots.get(shift, ())) if stop_at_ad else 0
            for shift in self.space
        }
        # the blocks still above their target
        self.open = {shift for shift, kern in self.space.items() if len(kern) > self._target[shift]}
        # each source cell's `_open_reach` list with the size of `open` it
        # was pruned at
        self._open_lists: Dict[Cell, Tuple[int, List[Tuple[Shift, Cell]]]] = {}

    def _cut(self, shift: Shift, row: IntVec) -> None:
        """Cut a row, over the block's local ids, into its kernel, and close
        the block once the kernel is down to its target."""
        kern = self.space[shift]
        if kern.cut(row) and len(kern) <= self._target[shift]:
            self.open.discard(shift)

    def _open_reach(self, cb: Cell) -> List[Tuple[Shift, Cell]]:
        """`BlockSystem.targets[cb]` cut to the open blocks: cut when cb is
        first met, and pruned again when a block has closed since the last
        call for cb.  A list with no closed block in it is kept as it is,
        the record's own list too: `lay_out` rebinds `targets[cb]` and
        never changes a list in place."""
        live = self.open
        got = self._open_lists.get(cb)
        if got is None or got[0] != len(live):
            pairs = self.blocks.targets.get(cb, []) if got is None else got[1]
            if not all(shift in live for shift, _ in pairs):
                pairs = [p for p in pairs if p[0] in live]
            got = self._open_lists[cb] = (len(live), pairs)
        return got[1]

    def reduced(self) -> bool:
        """Whether some block is not solved."""
        return len(self.space) < len(self.blocks.size)

    def dim_ad(self) -> int:
        """dim ad L'_s summed over the blocks solved."""
        return sum(len(rows) for rows in self.ad_pivots.values())

    def dim_space(self) -> int:
        """The solved blocks' dimension."""
        return sum(len(kern) for kern in self.space.values())

    def residual_dim(self) -> int:
        """`dim_space` above `dim_ad`."""
        return self.dim_space() - self.dim_ad()

    def matches_ad(self) -> bool:
        """space_s = ad L'_s on every block solved (`blocks_equal_ad`)."""
        return blocks_equal_ad(self.space, self.ad_pivots)


def leibniz_rows(core: BlockKernels, G: Iterable[int]) -> Iterator[Tuple[Shift, IntVec]]:
    """Yield (shift, constraint row over the block's local ids) for the
    Leibniz rows of the pairs (i, j), i <= j, with i or j in G, that land in
    a block ``core`` has open.

    The row of a pair at an output coordinate k reads

        D([i, j])_k - [D(i), j]_k - (-1)^{|D||i|} [i, D(j)]_k = 0,

    one row per k; the pair (j, i) is dropped as anticommutativity makes it
    redundant, while i = j stays (odd self-brackets are not trivial).  The
    row's entries all lie in the block of the shift cell(k) - cell(i) -
    cell(j), so each term is built only where that block is open, from the
    table's own entries: D([i, j]) at the k in the target cells that the
    core reaches from the cell of [i, j]; [D(i), j] at the entries (a, i),
    a in a target cell it reaches from i's cell, read as [a, j]; and
    [i, D(j)] at the entries (a, j) likewise, read as [i, a].  The three
    reaches of a pair are read before any of its rows is yielded, so each
    row holds all its terms, and the generator returns once no block is
    open.  Rows have int coefficients, the structure constants of the
    table.
    """
    blocks, open_ = core.blocks, core.open
    A, reach = blocks.A, core._open_reach
    dim, table, parity, members = A.dim, A.table, A.parity, blocks.cells
    cell_of = [A.cell_of(k) for k in range(dim)]
    local = blocks.local
    in_gens = set(G)
    gens = sorted(in_gens)
    for i in range(dim):
        ci, odd_i = cell_of[i], parity[i]
        partners = range(i, dim) if i in in_gens else gens[bisect_right(gens, i):]
        for j in partners:
            if not open_:
                return
            w = table.get((i, j))
            top = reach(cell_of[next(iter(w))]) if w else ()
            left, right = reach(ci), reach(cell_of[j])
            rows: Dict[int, Tuple[Shift, IntVec]] = {}
            for shift, ca in top:
                loc = local[shift]
                for k in members[ca]:
                    base = k * dim
                    rows[k] = (shift, {loc[base + m]: c for m, c in w.items()})
            for third, terms in ((False, left), (True, right)):
                for shift, ca in terms:
                    loc = local[shift]
                    # -1 on [D(i), j]; -(-1)^{|D||i|} on [i, D(j)]
                    s = 1 if third and odd_i and shift[0] % 2 else -1
                    for a in members[ca]:
                        v = table.get((i, a) if third else (a, j))
                        if not v:
                            continue
                        key = loc[a * dim + (j if third else i)]
                        for k, c in v.items():
                            got = rows.get(k)
                            if got is None:
                                row = {}
                                rows[k] = (shift, row)
                            else:
                                row = got[1]
                            x = row.get(key, 0) + s * c
                            if x:
                                row[key] = x
                            else:
                                row.pop(key, None)
            for shift, row in rows.values():
                if row:
                    yield shift, row


def leibniz_kernels(core: BlockKernels, G: List[int]) -> Dict[Shift, IntKernel]:
    """Der L on each block that ``core`` solves, its `space`: each Leibniz
    row of the pairs (g, y), g in G, a generating set of L (`generators`),
    is cut into its block as it is emitted, and `leibniz_rows` builds no
    row for a block that is closed or not solved.  Exact once A passes
    `check_axioms` (see the module docstring) and when ad L'_s lies in
    Der_s wherever the core stops at it.
    """
    live = core.open
    for shift, row in leibniz_rows(core, G):
        if shift in live:
            core._cut(shift, row)
    return core.space


def ad_blocks(
    P: LPrimeModel, blocks: BlockSystem, shifts: Iterable[Shift]
) -> Dict[Shift, Dict[int, IntVec]]:
    """ad L'_s for every block s in ``shifts`` that it meets, as integer
    echelon rows over the block's local ids keyed by their last column
    (what `int_reduce` reads): the rows cut into a kernel are an echelon
    basis of their span, so there are dim ad L'_s of them.  Each ad(u) must
    be nonzero and must lie in a block of the pattern."""
    ext, dim = P.ext, P.dim_l
    solved = set(shifts)
    span: Dict[Shift, IntKernel] = {}
    for u, cols in enumerate(P.ad_columns):
        shift = (ext.degree[u], ext.weight[u])
        if not cols:
            raise ValueError(f"ad is not injective on L' (basis {u})")
        if shift not in blocks.size:
            raise ValueError("ad(u) hits a shift outside the block pattern")
        if shift not in solved:
            continue
        kern = span.setdefault(shift, IntKernel(blocks.size[shift]))
        local = blocks.local[shift]
        kern.cut({local[a * dim + b]: c for b, col in cols.items() for a, c in col.items()})
    return {shift: kern.rows for shift, kern in span.items()}


def ad_rank(P: LPrimeModel, G: List[int]) -> int:
    """dim ad L', on ints: the rank of u -> ([u, g] for g in G) on L'.

    A superderivation of L is fixed by its values on G, which generates L,
    so this is the rank of ad: L' -> End(L) once every ad(u) is a
    superderivation of L (`check_axioms` proves it for u in L,
    `outer_ads_are_derivations` for the rest).
    """
    ext, m = P.ext, P.dim_l
    span = IntKernel(len(G) * m)
    for u in range(ext.dim):
        span.cut({
            slot * m + k: c
            for slot, g in enumerate(G) for k, c in ext.table.get((u, g), {}).items()
        })
    return len(span.rows)


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

    parity None returns the direct sum of the even and odd parts; parity
    0 or 1 solves the blocks whose degree shift has that parity.  The
    "blocks" method is `leibniz_kernels`, read out as one subspace;
    "reference" takes the rows of every pair from `leibniz_rows`, over a
    core on the same blocks that never stops, lifts them to flat ids and
    pushes them as Fractions through one global elimination over those
    blocks' entries, and must agree.  The blocks answer assumes that A
    passes `check_axioms` (see the module docstring).  Any other parity is
    a ValueError.
    """
    if parity not in (None, 0, 1):
        raise ValueError(f"parity must be None, 0 or 1, not {parity!r}")
    if method not in ("blocks", "reference"):
        raise ValueError(f"unknown method {method!r}")
    blocks = BlockSystem(A)
    solved = None if parity is None else {s for s in blocks.size if s[0] % 2 == parity}
    core = BlockKernels(blocks, solved=solved)
    if method == "blocks":
        return blocks.subspace(leibniz_kernels(core, generators(A)))
    support = sorted(k for shift in core.space for k in blocks.entries[shift])
    index = {key: idx for idx, key in enumerate(support)}
    rows = as_fractions(
        {index[k]: c for k, c in blocks.lift(shift, row).items()}
        for shift, row in leibniz_rows(core, range(A.dim))
    )
    kern = kernel_of_rows(rows, len(support))
    lifted = [{support[k]: c for k, c in v.items()} for v in kern]
    return Subspace.from_vectors(lifted, A.dim ** 2)


# ---------------------------------------------------------------------------
# the inner route and the structural checks


def ad_image(P: LPrimeModel) -> Subspace:
    """span{ad(u)|_L : u in L'} inside End(L); ad is injective here, so the
    dimension equals dim L'."""
    m = P.dim_l
    rows = [
        {a * m + b: c for b, col in cols.items() for a, c in col.items()}
        for cols in P.ad_columns
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


class DerivationReport:
    def __init__(self, family: str, n: int, dim_l: int, dim_lprime: int, dim_der: int,
                 lemma_der_holds: bool, transitive: bool) -> None:
        self.family = family
        self.n = n
        self.dim_l = dim_l
        self.dim_lprime = dim_lprime
        self.dim_der = dim_der
        self.lemma_der_holds = lemma_der_holds
        self.transitive = transitive

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


def lprime_extends_l(P: LPrimeModel) -> bool:
    """L' brackets L x L exactly as L's own table does."""
    base, ext, m = P.base, P.ext, P.dim_l
    if ext is base:
        return True
    on_l = {key: w for key, w in ext.table.items() if key[0] < m and key[1] < m and w}
    return on_l == {key: w for key, w in base.table.items() if w}


def outer_ads_are_derivations(P: LPrimeModel, G: List[int]) -> bool:
    """ad(u) lies in Der L for every u of L' outside L, checked on ints.

    L' must bracket L x L exactly as L's own table does, and every Jacobi
    triple (u, g, y) with g in G, a generating set of L (`generators`), and
    y in L must hold in L'.
    That triple is the Leibniz row of the pair (g, y) applied to ad(u); the
    pair (y, g) follows by anticommutativity, and Leibniz on G x L gives
    Leibniz on L x L once L passes `check_axioms` (see the module
    docstring).  Of the (dim L' - dim L) * |G| * dim L triples,
    `jacobi_violation` evaluates only those at which a term can be
    nonzero."""
    ext, m = P.ext, P.dim_l
    if not lprime_extends_l(P):
        return False
    groups = ((u, g, range(m)) for u in range(m, ext.dim) for g in G)
    return jacobi_violation(ext, groups)[1] is None


class ProofContext:
    """One model's proof objects, shared by `check` (`derivation_report`)
    and `certify`, each built on first use and then kept: L, its
    generating set G (`generators`), one `BlockSystem`, its dominant set
    (`dominant_blocks`), whether `outer_ads_are_derivations` holds, and
    dim ad L' (`ad_rank`).

    `solve` is the dominant-first policy of both checks.  A run solves the
    dominant blocks, which stand for every block (the module docstring;
    `localcert`'s for the local maps): a verdict that holds there holds
    everywhere, with dimension `dim_ad`.  One that fails says nothing of
    the rest, so the run is made again, and reported, on every block of
    the same `BlockSystem`, whose walk lays out only the blocks the first
    run left out.  A failed premise, or a failed check of the filter
    (`dominant` is None), solves every block from the start.
    """

    def __init__(self, P: LPrimeModel):
        self.P, self.L = P, P.base

    G = cached_property(lambda self: generators(self.L))
    blocks = cached_property(lambda self: BlockSystem(self.L))
    dominant = cached_property(lambda self: dominant_blocks(self.blocks))
    outer_ok = cached_property(lambda self: outer_ads_are_derivations(self.P, self.G))
    dim_ad = cached_property(lambda self: ad_rank(self.P, self.G))

    def solve(self, run: Callable[[Optional[Set[Shift]]], tuple], reduce: bool = True) -> tuple:
        """The tuple of the run that decides.  ``run(solved)`` solves the
        blocks of ``solved`` (None: every block) on `blocks` and returns its
        core, whether the verdict holds, and what else it reports; without
        ``reduce``, a premise has failed."""
        got = run(self.dominant if reduce else None)
        if not got[1] and got[0].reduced():
            got = run(None)
        return got


def derivation_report(ctx: ProofContext, axioms_ok: bool = False) -> DerivationReport:
    """`check`'s comparison of Der L with ad L' in one `BlockKernels`, fed
    the Leibniz rows of the pairs (g, y), g in ``ctx.G``.  Its blocks stop
    at dim ad L'_s once `outer_ads_are_derivations` has shown ad L' to lie
    in Der L.  ``axioms_ok`` says that L has passed `check_axioms`; with it
    and that guard the run is dominant-first (`ProofContext.solve`).
    """
    P, outer_ok = ctx.P, ctx.outer_ok

    def run(solved: Optional[Set[Shift]]) -> Tuple[BlockKernels, bool]:
        core = BlockKernels(ctx.blocks, P, solved, outer_ok)
        leibniz_kernels(core, ctx.G)
        return core, core.matches_ad()

    core, holds = ctx.solve(run, axioms_ok and outer_ok)
    return DerivationReport(
        family=P.base.family,
        n=P.base.n,
        dim_l=P.dim_l,
        dim_lprime=P.dim_lprime,
        dim_der=ctx.dim_ad if core.reduced() else core.dim_space(),
        lemma_der_holds=holds,
        transitive=transitivity_check(P),
    )
