"""Local / 2-local superderivation machinery and the theorem certifier.

A local superderivation agrees at every single point with some inner map
ad(u), u in L' (the witness may vary per point).  At a fixed point x that is
one linear condition on a map phi: phi(x) must lie in the orbit [L', x].
The certifier imposes that condition at a finite probe list replayed from
the vanishing argument of the underlying proof:

* h_0 = sum_i t^i h_i with t an integer separating scalar (chosen so that
  sum_i t^i c_i != 0 for every realized nonzero weight vector c; an exact
  stand-in for a high-degree algebraic number),
* the Cartan elements h_i and the combinations a(h_k) h_i - a(h_i) h_k,
* the depth-one fields (d_k, shifted by the top fields for the Z_n-graded
  family, where the depth slice is spanned by d_k - x_1...x_n d_k),
* h_0-shifted and d-sum-shifted copies of every nonnegative-degree basis
  vector.

Constraints are intersected with the bigrade block pattern of End(L), the
:class:`~cartansuper.derivations.BlockSystem` that the Leibniz solver also
runs on: a local superderivation splits into (degree, weight)-homogeneous
components that are themselves local with witnesses in the matching slice
of L', so the certified space may soundly be computed one shift at a time,
and a probe only constrains the blocks its cells reach.  The engine runs
on Python ints, eliminating fraction-free (cross multiplication, then
division by the content), so it is exact over Q with no modular step and
no fallback.  Every probe `certify` builds is an integer vector, so it
makes no Fraction; only the public helpers take or return Fractions.  Each
block is kept as the kernel of its cut rows, and the verdict is `check`'s
block test (`derivations.blocks_equal_ad`) against ad L'.  When the space
collapses to exactly ad L' = Der L this way, every map that is locally
inner at all points is inner, the per-n certificate of LDer(L) = Der(L).
When the proof list leaves a residual (the weight-zero depth slice of
H(odd n), whose witness no Cartan anchor can see), deterministic
degree-0-anchored probes and then basis/random stages escalate, each
built only when it is reached.  INCONCLUSIVE only means this probe
budget did not collapse the space; it never claims the theorem fails.

`certify` cuts the proof list to the budget and then feeds it to the
engine with its x+dsum probes first (`visit_order`): they make nearly all
of the effective cuts, so most blocks reach ad L'_s before the other
probes get to them and are skipped from then on.  The report lists the
labels in probe-list order all the same, and the order cannot change it.
Each block's final space is the intersection of every constraint the
stage imposes, a block that reaches its target equals ad L'_s whatever
the order, and `IntKernel.basis()` is the RREF, so even the residual
witness of an INCONCLUSIVE run is the same.

The engine skips two kinds of dead work, exactly (`ConstraintEngine`): a
block that has reached its target takes no more probes, and a block takes
no probe whose parts in its source cells equal the last probe's there.
The second rests on two facts: `constraint_rows` reads x only through
those parts, since [L'_s, x_c] lies in cell c + s; and a row once cut
into an `IntKernel` never shrinks it again.  Rows that read more of x,
such as the full-orbit rows [L', x] at a probe spread over several cells
(ROADMAP.md, "A local certificate that rests on nothing unproven"), must
widen the key to all that they read.

`certify_2local` reports the 2-local verdict as the local one, by
reduction: a 2-local map is local (take the pair (x, x)), and the local
certificate is about linear maps, so the reduction covers the 2-local maps
that are linear.  The usual definition of a 2-local map does not assume
linearity, and for a map that is not linear the verdict says nothing.
`is_2local_at`, the exact joint-feasibility test at one pair, is a public
helper checked by the tests; the certifier does not call it.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field
from math import gcd
from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .derivations import BlockSystem, Cell, EndMap, Shift
from .derivations import ad_blocks, ad_columns, blocks_equal_ad
from .families import LPrimeModel
from .liesuper import AlgebraModel
from .linalg import (
    IntKernel,
    IntVec,
    Subspace,
    Vec,
    as_fractions,
    int_multiple,
    int_reduce,
    kernel_of_int_rows,
    kernel_of_rows,
    rref,  # not called here; perfbench/child.py wraps localcert.rref
    solve,  # not called here; perfbench/child.py wraps localcert.solve
    vec_axpy_inplace,
)


@dataclass
class Probe:
    """A concrete element of L at which the local condition is imposed."""

    label: str
    vector: Vec

    def __post_init__(self):
        if not self.vector:
            raise ValueError(f"probe {self.label!r} is zero")


@dataclass
class SeparatingScalar:
    """Integer t with sum_i t^i c_i != 0 for every realized nonzero weight c.

    The certificate lists each weight with its nonvanishing combination, so
    the hypothesis can be audited (and deliberately broken in tests).
    """

    t: int
    certificate: List[Tuple[Tuple[int, ...], int]] = field(default_factory=list)


@dataclass
class Certificate:
    family: str
    n: int
    t: int
    probe_labels: List[str]
    dim_constrained: int
    dim_ad: int
    verdict: str  # CERTIFIED | INCONCLUSIVE
    twolocal_verdict: Optional[str] = None
    # always 0: certify_2local checks no pairs; perfbench/child.py reads it
    twolocal_pairs_checked: int = 0
    elapsed_ms: Optional[int] = None
    # the engine that reached the verdict
    engine: Optional["ConstraintEngine"] = field(default=None, repr=False, compare=False)

    def as_dict(self, with_timing: bool = False) -> dict:
        return {
            "family": self.family,
            "n": self.n,
            "t": self.t,
            "probe_labels": list(self.probe_labels),
            "dim_C": self.dim_constrained,
            "dim_adLprime": self.dim_ad,
            "verdict": self.verdict,
            "twolocal_verdict": self.twolocal_verdict,
            "elapsed_ms": self.elapsed_ms if with_timing else None,
        }


# ---------------------------------------------------------------------------
# orbits and pointwise feasibility


def orbit(x: Vec, P: LPrimeModel) -> Subspace:
    """The set {[u, x] : u in L'} as a subspace of L."""
    m = P.dim_l
    ext = P.ext
    rows = []
    for u in range(ext.dim):
        w = ext.bracket({u: 1}, x)
        if any(k >= m for k in w):
            raise ValueError("orbit vector escapes L")
        if w:
            rows.append(w)
    return Subspace.from_vectors(rows, m)


def is_local_at(phi: EndMap, x: Vec, P: LPrimeModel) -> bool:
    return orbit(x, P).contains(phi.apply(x))


def is_2local_at(phi: EndMap, x: Vec, y: Vec, P: LPrimeModel) -> bool:
    """Joint feasibility of [u, x] = phi(x), [u, y] = phi(y) for one u in L'.

    Exact on ints: with X, Y the integer multiples of x, y (`int_multiple`),
    the system reads sum_u a_u ([u, X] + [u, Y]) = phi(X) + phi(Y) in
    L + L.  Its columns come from the integer bracket table, they are
    reduced fraction-free (`int_reduce`), and the system is feasible iff
    the right-hand side, scaled to ints, reduces to zero.
    """
    m = P.dim_l
    X, Y = int_multiple(x), int_multiple(y)
    pivots: Dict[int, IntVec] = {}
    for ad_u in ad_columns(P):
        col: IntVec = {}
        for offset, point in ((0, X), (m, Y)):
            for b, c in point.items():
                w = ad_u.get(b)
                if w:
                    for k, v in w.items():
                        k += offset
                        s = col.get(k, 0) + c * v
                        if s:
                            col[k] = s
                        else:
                            del col[k]
        col = int_reduce(pivots, col)
        if col:
            pivots[max(col)] = col
    rhs = dict(phi.apply(X))
    for k, c in phi.apply(Y).items():
        rhs[m + k] = c
    return not int_reduce(pivots, int_multiple(rhs))


def bigrade_decompose(phi: EndMap, A: AlgebraModel) -> Dict[Shift, EndMap]:
    """Split a map into its (degree, weight)-shift homogeneous components.

    The components sum back to the input exactly; each one is supported on a
    single shift cell and carries the parity of its degree shift.
    """
    out: Dict[Shift, Dict[int, Vec]] = {}
    for b, col in phi.cols.items():
        cb = A.cell_of(b)
        for a, c in col.items():
            shift = BlockSystem.cell_shift(A, A.cell_of(a), cb)
            out.setdefault(shift, {}).setdefault(b, {})[a] = c
    return {
        shift: EndMap(phi.dim, cols, parity=shift[0] % 2)
        for shift, cols in sorted(out.items())
    }


# ---------------------------------------------------------------------------
# the separating scalar


def separating_t(A: AlgebraModel) -> SeparatingScalar:
    """Smallest integer t >= 2 with sum_i t^i c_i != 0 for every realized
    nonzero weight c of the model.

    Such a t always exists: any t exceeding max|c_i| works by the base-t
    digit argument.  The check list over all realized weights is returned as
    the certificate.
    """
    realized = sorted({w for w in A.weight if any(w)})
    t = 2
    while True:
        values = [sum(t ** (i + 1) * c for i, c in enumerate(wt)) for wt in realized]
        if all(values):
            return SeparatingScalar(t, list(zip(realized, values)))
        t += 1


# ---------------------------------------------------------------------------
# the probe list


def _normalize_direction(v: IntVec) -> Tuple[Tuple[int, int], ...]:
    """The direction of an integer vector: its primitive multiple with a
    positive lead, so two vectors share a key exactly when one is a scalar
    multiple of the other."""
    g = gcd(*v.values())
    if v[min(v)] < 0:
        g = -g
    return tuple(sorted((k, c // g) for k, c in v.items()))


def proof_probes(P: LPrimeModel, t: SeparatingScalar) -> List[Probe]:
    """The deterministic probe list mirroring the vanishing argument.

    Orbit constraints are invariant under scaling of the probe, so probes
    that agree up to a scalar are emitted once (first label wins).
    """
    L = P.base
    chain = L.cartan_chain
    l = len(chain)
    probes: List[Probe] = []
    seen = set()

    def push(label: str, v: IntVec) -> None:
        if not v:
            return
        key = _normalize_direction(v)
        if key in seen:
            return
        seen.add(key)
        probes.append(Probe(label, v))

    h0: IntVec = {}
    for i, h in enumerate(chain, start=1):
        vec_axpy_inplace(h0, t.t ** i, h)
    push("h0", h0)
    for i, h in enumerate(chain, start=1):
        push(f"h[{i}]", dict(h))

    roots = sorted({w for w in P.ext.weight if any(w)})
    for alpha in roots:
        k = next(idx for idx, c in enumerate(alpha) if c) + 1
        for i in range(1, l + 1):
            if i == k or alpha[i - 1] == 0:
                continue
            v = {b: alpha[k - 1] * c for b, c in chain[i - 1].items()}
            vec_axpy_inplace(v, -alpha[i - 1], chain[k - 1])
            push(f"h_ik[{alpha[k - 1]}h{i}{-alpha[i - 1]:+d}h{k}]", v)

    def plus(v: IntVec, b: int) -> IntVec:
        out = dict(v)
        vec_axpy_inplace(out, 1, {b: 1})
        return out

    depth = [i for i in range(L.dim) if L.degree[i] == -1]
    dsum: IntVec = {}
    for idx, b in enumerate(depth, start=1):
        push(f"dminus[{idx}]", {b: 1})
        push(f"h0+dminus[{idx}]", plus(h0, b))
        dsum[b] = 1
    push("dsum", dsum)

    for b in range(L.dim):
        if L.degree[b] >= 0:
            push(f"x+dsum[{b}]", plus(dsum, b))
            push(f"h0+x[{b}]", plus(h0, b))

    return probes


def visit_order(probes: Sequence[Probe]) -> List[Probe]:
    """The probes with the d-sum-shifted ones (`x+dsum[b]`) first, each
    part in its given order: the order in which `certify` feeds stage 1 to
    the engine (see the module docstring).  On Stilde(6) they make 99,510
    of stage 1's 102,720 effective cuts.
    """
    first = [p for p in probes if p.label.startswith("x+dsum[")]
    return first + [p for p in probes if not p.label.startswith("x+dsum[")]


def anchored_probes(P: LPrimeModel) -> List[Probe]:
    """Degree-0-anchored copies of the basis vectors outside degree 0.

    The vanishing argument anchors each probe x at a Cartan element h with
    [u, h] != 0 for the candidate witness u.  At the depth slice of weight
    zero (present exactly when an index is fixed by the involution, i.e.
    H(n) with n odd) every Cartan anchor brackets to zero with the witness
    and the argument goes vacuous: the bigrade bands of ad(d_n) decouple at
    the written probe list.  Anchoring at the whole degree-0 slice instead
    restores the coupling; for the other families these probes are
    redundant and cheap (their blocks have already collapsed).
    """
    L = P.base
    anchor: IntVec = {b: 1 for b in range(L.dim) if L.degree[b] == 0}
    return [
        Probe(f"deg0sum+x[{b}]", {**anchor, b: 1}) for b in range(L.dim) if L.degree[b] != 0
    ]


def basis_probes(P: LPrimeModel) -> List[Probe]:
    return [Probe(f"basis[{b}]", {b: 1}) for b in range(P.dim_l)]


def random_probes(P: LPrimeModel, count: int, seed: int) -> List[Probe]:
    """Seeded sparse random elements with small integer coefficients.

    Deliberately not restricted to a single bigrade cell: cell-homogeneous
    probes constrain one column group at a time and provably cannot couple
    the degree bands of the weight-zero depth slice, so the escalation stage
    mixes cells.
    """
    return list(itertools.islice(_random_probe_stream(P, seed), count))


def _random_probe_stream(P: LPrimeModel, seed: int) -> Iterator[Probe]:
    """`random_probes` without an end: the first count items are theirs."""
    rng = random.Random(seed)
    dim = P.base.dim
    for j in itertools.count():
        while True:
            v = {
                rng.randrange(dim): rng.randint(-3, 3)
                for _ in range(rng.randint(2, 6))
            }
            v = {b: c for b, c in v.items() if c}
            if v:
                break
        yield Probe(f"rand[{j}]", v)


# ---------------------------------------------------------------------------
# the constrained space, solved per bigrade shift


class ConstraintEngine:
    """Incremental per-shift solver for the probe-constrained space.

    A shift-homogeneous local component admits witnesses inside the single
    bigraded slice of L' matching its shift (the decomposition lemma: write
    the witness at x as the sum of its bigraded pieces; the (d, a)-piece
    witnesses the (d, a)-component of the map).  The sound per-shift
    constraint at a probe x is therefore membership in the slice orbit

        phi_shift(x)  in  [L'_shift, x],

    which is far tighter than the full orbit and is what lets the finite
    probe list collapse each block onto ad(L'_shift).

    For every shift the engine keeps the block's constrained space as the
    kernel of the constraint rows cut into it (`IntKernel`): a cut reduces
    the row fraction-free against the rows kept so far and keeps what is
    left, so the space shrinks exactly when the row is independent of them.

    Everything runs on Python ints: probes are integer vectors (the orbit
    condition is invariant under scaling the probe, so `constrained_space`
    scales a caller's rational probes to ints), the slice
    ad columns are the integer bracket table's (`ad_columns`), the targets
    ad L'_s are integer echelon rows (`ad_blocks`), and the annihilator and
    the cuts are fraction-free integer eliminations.  So the result is
    exact and independent of the probe order (each block ends as the
    kernel of all the rows cut into it); Fractions appear only where
    spaces are handed out as subspaces over Q.

    `add_probes` splits each probe into its cells (`split`) once and groups
    the (shift, target cell) pairs of the blocks still open in each of them
    (`open`; each cell's list is `BlockSystem.reach`, pruned lazily once a
    block has closed).  Per shift, `constraint_rows` solves the small
    system on the target cells (the unit annihilator when the slice orbit
    is empty) and builds each row straight in the block's local ids.

    A block's constraint at x depends on x only through its key, the
    parts x_c in the source cells c of the block's pairs: [L'_s, x_c] lies
    in cell c + s, so the parts in other cells add nothing to the slice
    orbit, and every row entry (a, b) has b in a source cell.  Each open
    block keeps the key of its last call (`last_key`, one per block,
    dropped when the block closes), and a probe with the same key is
    skipped there.  Its rows would be the last call's, all of them cut
    (the call stops early only when the block closes), and a row once cut
    lies in the span of the kernel's kept rows, so it cannot shrink the
    kernel again.  The kept rows are therefore exactly those of imposing
    every probe on every open block it reaches.  Rows that read more of x
    must widen the key to all that they read (see the module docstring).

    `matches_ad` decides space_s = ad L'_s for every block with
    `derivations.blocks_equal_ad`, the dimension-and-containment test that
    `check` makes on the Leibniz blocks too.  Containment holds here by
    construction, and testing it keeps a slip in the constraint rows from
    passing as a certificate.  Because it holds, a block that has shrunk
    to the dimension of its inner target equals it, and no further cut can
    shrink it: it leaves `open` and is skipped from then on.
    """

    def __init__(self, P: LPrimeModel):
        self.P = P
        self.L = L = P.base
        self.dim = L.dim
        self.blocks = BlockSystem(L)
        # the constrained space of each block, over its local ids
        self.space: Dict[Shift, IntKernel] = {
            shift: IntKernel(len(entries)) for shift, entries in self.blocks.entries.items()
        }
        # ad L'_shift as integer echelon rows, the target of each block
        self.ad_pivots = ad_blocks(P, self.blocks)
        # the blocks still above their target, and each source cell's
        # `_open_reach` list with the size of `open` it was pruned at
        self.open = {
            shift for shift, kern in self.space.items()
            if len(kern) > len(self.ad_pivots.get(shift, ()))
        }
        self._open_lists: Dict[Cell, Tuple[int, List[Tuple[Shift, Cell]]]] = {}
        # the key of the last constraint_rows call on each open block
        self.last_key: Dict[Shift, Tuple[IntVec, ...]] = {}
        # the bigraded slices of L' and their ad matrices (column-sparse)
        ext = P.ext
        self.slice_ad: Dict[Shift, List[Dict[int, IntVec]]] = {}
        for u, cols in enumerate(ad_columns(P)):
            self.slice_ad.setdefault((ext.degree[u], ext.weight[u]), []).append(cols)

    def dim_ad(self) -> int:
        return sum(len(rows) for rows in self.ad_pivots.values())

    def split(self, x: IntVec) -> Dict[Cell, IntVec]:
        """The nonzero part of x in each cell of L."""
        cell_of = self.L.cell_of
        comps: Dict[Cell, IntVec] = {}
        for b, c in x.items():
            if c:
                comps.setdefault(cell_of(b), {})[b] = c
        return comps

    def constraint_rows(
        self,
        x: IntVec,
        shift: Shift,
        pairs: Optional[List[Tuple[Cell, Cell]]] = None,
        comps: Optional[Dict[Cell, IntVec]] = None,
    ) -> List[IntVec]:
        """Rows over the shift block, in its local ids, expressing
        phi_shift(x) in [L'_shift, x].

        x has int coefficients.  pairs are the shift's (target, source)
        cells, as `BlockSystem.shifts_from(x)` gives them, and comps is
        `split(x)`; `add_probes` computes both once per probe, and they are
        computed here when not given.
        """
        if pairs is None:
            pairs = self.blocks.shifts_from(x).get(shift)
        if not pairs:
            return []
        if comps is None:
            comps = self.split(x)
        cells = self.blocks.cells
        # the value space V = sum of the target cells, in sorted coordinates,
        # each with the part of x its entries multiply: the target cell a
        # lies in comes from one source cell
        coords = sorted(
            ((a, comps.get(cb, {})) for ca, cb in pairs for a in cells[ca]), key=itemgetter(0)
        )
        v_local = {a: i for i, (a, _) in enumerate(coords)}
        # the slice orbit [L'_shift, x], localized to V
        span_rows: List[IntVec] = []
        for cols in self.slice_ad.get(shift, ()):
            w: IntVec = {}
            for b, c in x.items():
                col = cols.get(b)
                if col:
                    vec_axpy_inplace(w, c, col)
            if w:
                span_rows.append({v_local[a]: c for a, c in w.items()})
        if span_rows:
            ann = kernel_of_int_rows(span_rows, len(coords))
        else:
            ann = [{i: 1} for i in range(len(coords))]
        # kappa . phi(x) = sum_a kappa_a sum_b phi_ab x_b: the entry (a, b)
        # gets kappa_a x_b, written straight to its local id
        dim, local = self.dim, self.blocks.local[shift]
        rows: List[IntVec] = []
        for kappa in ann:
            row: IntVec = {}
            for i, ka in kappa.items():
                a, sub = coords[i]
                base = a * dim
                for b, xb in sub.items():
                    row[local[base + b]] = ka * xb
            if row:
                rows.append(row)
        return rows

    def add_probes(self, probes: Iterable[Probe]) -> None:
        """Impose the condition at each probe, an integer vector, on the
        open blocks whose key it changes (see the class docstring)."""
        space, last = self.space, self.last_key
        for probe in probes:
            x = probe.vector
            comps = self.split(x)
            reach: Dict[Shift, List[Tuple[Cell, Cell]]] = {}
            for cb in comps:
                for shift, ca in self._open_reach(cb):
                    reach.setdefault(shift, []).append((ca, cb))
            for shift, pairs in reach.items():
                key = tuple([comps[cb] for _, cb in pairs])
                if key == last.get(shift):
                    continue  # the rows of the last call, cut already
                last[shift] = key
                kern, target = space[shift], len(self.ad_pivots.get(shift, ()))
                for row in self.constraint_rows(x, shift, pairs, comps):
                    self._cut(shift, row)
                    if len(kern) <= target:
                        self.open.discard(shift)
                        del last[shift]
                        break

    def _open_reach(self, cb: Cell) -> List[Tuple[Shift, Cell]]:
        """`BlockSystem.reach(cb)` without the blocks that have closed, pruned
        when a block has closed since the last call for cb."""
        got = self._open_lists.get(cb)
        if got is None or got[0] != len(self.open):
            pairs = self.blocks.reach(cb) if got is None else got[1]
            got = self._open_lists[cb] = (len(self.open), [p for p in pairs if p[0] in self.open])
        return got[1]

    def _cut(self, shift: Shift, functional: IntVec) -> None:
        self.space[shift].cut(functional)

    def matches_ad(self) -> bool:
        """space_s = ad L'_s on every block (`blocks_equal_ad`)."""
        return blocks_equal_ad(self.space, self.ad_pivots)

    def residual_dim(self) -> int:
        return sum(len(s) for s in self.space.values()) - self.dim_ad()


def constrained_space(
    P: LPrimeModel, probes: Sequence[Probe], method: str = "blocks"
) -> Subspace:
    """Maps satisfying the per-shift slice-orbit condition at every probe.

    "blocks" solves each bigrade shift incrementally (the performance path);
    "reference" pushes the identical constraint rows, as Fractions, through
    one global elimination over all of End(L), with no per-block
    bookkeeping or early-out, and must agree with the block path.  Probes
    may have rational coefficients: each is scaled to ints first.
    """
    if not probes:
        raise ValueError("constrained_space requires at least one probe")
    probes = [Probe(p.label, int_multiple(p.vector)) for p in probes]
    if method == "blocks":
        engine = ConstraintEngine(P)
        engine.add_probes(probes)
        return engine.blocks.subspace(engine.space)
    if method != "reference":
        raise ValueError(f"unknown method {method!r}")
    engine = ConstraintEngine(P)
    dim = engine.dim
    rows: List[Vec] = []
    for probe in probes:
        for shift in sorted(engine.space):
            for row in as_fractions(engine.constraint_rows(probe.vector, shift)):
                rows.append(engine.blocks.lift(shift, row))
    return Subspace.from_vectors(kernel_of_rows(rows, dim * dim), dim * dim)


# ---------------------------------------------------------------------------
# certification


def certify(
    P: LPrimeModel,
    budget: Optional[int] = None,
    seed: int = 0,
) -> Certificate:
    """Run the probe pipeline and compare the constrained space with ad L'.

    Probe order: proof probes, then the degree-0-anchored completions, then
    the remaining basis vectors of L, then seeded sparse random elements,
    all capped at the budget (default 4 * dim L).  CERTIFIED means the two
    spaces agree exactly; the escalation stages only run, and are only
    built, when the earlier ones leave a gap.  Each stage is one
    `add_probes` call; stage 1 is cut to the budget and then fed in
    `visit_order`, and `probe_labels` lists every probe in the order above.
    """
    start = time.monotonic()
    L = P.base
    if budget is None:
        budget = 4 * L.dim
    sep = separating_t(P.ext)
    proof = proof_probes(P, sep)
    seen = {_normalize_direction(p.vector) for p in proof}
    stage1 = proof[: max(budget, 0)]

    def fresh(batch: Iterable[Probe]) -> Iterator[Probe]:
        for p in batch:
            key = _normalize_direction(p.vector)
            if key not in seen:
                seen.add(key)
                yield p

    labels = [p.label for p in stage1]

    def logged(batch: Iterable[Probe]) -> Iterator[Probe]:
        for p in batch:
            labels.append(p.label)
            yield p

    # each escalation stage is built only when the loop reaches it, and at
    # most the probes the budget has left are drawn from it; the random
    # stage draws that many before the repeats are dropped
    escalation = (
        lambda: fresh(anchored_probes(P)),
        lambda: fresh(basis_probes(P)),
        lambda: fresh(itertools.islice(_random_probe_stream(P, seed), budget - len(labels))),
    )
    engine = ConstraintEngine(P)
    engine.add_probes(visit_order(stage1))
    verdict = "CERTIFIED" if engine.matches_ad() else "INCONCLUSIVE"
    for stage in escalation:
        if verdict == "CERTIFIED" or len(labels) >= budget:
            break
        engine.add_probes(logged(itertools.islice(stage(), budget - len(labels))))
        if engine.matches_ad():
            verdict = "CERTIFIED"

    elapsed = int((time.monotonic() - start) * 1000)
    return Certificate(
        family=L.family,
        n=L.n,
        t=sep.t,
        probe_labels=labels,
        dim_constrained=engine.dim_ad() + engine.residual_dim(),
        dim_ad=engine.dim_ad(),
        verdict=verdict,
        elapsed_ms=elapsed,
        engine=engine,
    )


def certify_2local(cert: Certificate) -> Certificate:
    """Extend a certificate with the 2-local verdict, which is the local one.

    A 2-local map is local (take the pair (x, x)), so CERTIFIED for linear
    local maps settles linear 2-local maps by reduction, and INCONCLUSIVE
    stays INCONCLUSIVE.  It says nothing about 2-local maps that are not
    linear.
    """
    cert.twolocal_verdict = cert.verdict
    return cert
