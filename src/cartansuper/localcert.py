"""Local / 2-local superderivation machinery and the theorem certifier.

A local superderivation agrees at every single point with some inner map
ad(u), u in L' (the witness may vary per point).  At a fixed point x that is
one linear condition on a map phi: phi(x) must lie in the orbit [L', x].
The certifier imposes a per-shift form of it, the slice condition below,
at a finite probe list replayed from the vanishing argument of the proof:

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
components that are themselves local, and the engine imposes on each the
slice condition phi_s(x) in [L'_s, x], one shift at a time, so a probe
only constrains the blocks its cells reach.  The slice condition is
proven only at a probe inside one cell (see `ConstraintEngine`); at a
probe spread over several cells it is the open gap of ROADMAP.md, "A
local certificate that rests on nothing unproven", and CERTIFIED rests on
it.  The engine (`ConstraintEngine`, on ints, with no work on a closed
block or a repeated key) is `check`'s block core
(`derivations.BlockKernels`): each block is kept as the kernel of its cut
rows, and the verdict is `check`'s block test against ad L'.  When the
space collapses to exactly ad L' = Der L this way, every map that is
locally inner at all points is inner, the per-n certificate of
LDer(L) = Der(L).  When the proof list leaves a residual (the
weight-zero depth slice of H(odd n), whose witness no Cartan anchor can
see), deterministic degree-0-anchored probes and then seeded random
probes escalate, each stage built only when it is reached.  INCONCLUSIVE
only means this probe budget did not collapse the space; it never claims
the theorem fails.

`certify` cuts the proof list to the budget and then feeds it to the
engine with its x+dsum probes first (`visit_order`): they make nearly all
of the effective cuts, so most blocks reach ad L'_s before the other
probes get to them and are skipped from then on.  The report lists the
labels in probe-list order all the same, and the order cannot change it.
Each block's final space is the intersection of every constraint the
stage imposes, a block that reaches its target equals ad L'_s whatever
the order, and `IntKernel.basis()` is the RREF, so even the residual
witness of an INCONCLUSIVE run is the same.

`certify` runs dominant-first (`derivations.ProofContext`, whose
`dominant_blocks` makes the sl2 checks on the table).  The argument is
`check`'s (the `derivations` docstring) with R = Loc / ad L', Loc the
local maps.  For u in L with ad u nilpotent, as for every u in b+ and for
the f of each sl2 triple, g = exp(t ad u) is an automorphism of L that
also respects the bracket L' x L -> L, because every ad(w), w in L', is a
superderivation of L; so g sends local maps to local maps (if
phi(g^-1 x) = [w, g^-1 x], then g phi g^-1 (x) = [g w, x]), and the term
of g phi g^-1 linear in t, [ad u, phi], lies in Loc.  With
[ad u, ad w] = ad [u, w], R is a module over b+ and over each f, and ad h
acts on its blocks, which the grading keeps apart in Loc, by the scalars
lambda_s(h).  Engel's theorem and the sl2 argument then put a nonzero part
of a nonzero R in a dominant block s; but there Loc_s lies in the
constrained space, which equals ad L'_s when the run certifies, so R = 0:
CERTIFIED on the dominant blocks is CERTIFIED, and `dim_C` and
`dim_adLprime` are then dim ad L' (`derivations.ad_rank`).  The
constrained space itself is not reduced this way (the probes are not
b+-stable), so an INCONCLUSIVE run is reported from every block; a block
that fails on its own fails in both runs, so the second run reaches the
same stages and draws the same probes.  This rests on the premises that
`check` proves: the Jacobi identity and grading additivity of L, ad L'
inside Der L (`outer_ads_are_derivations`), and Der L = ad L' (for
CERTIFIED to speak of every superderivation); and, as a run on every
block does, on the slice condition at probes spread over several cells,
the open gap named above.

`certify_2local` reports the 2-local verdict as the local one, by
reduction: a 2-local map is local (take the pair (x, x)), and the local
certificate is about linear maps, so the reduction covers the 2-local maps
that are linear.  The usual definition of a 2-local map does not assume
linearity, and for a map that is not linear the verdict says nothing.
`is_2local_at`, the exact joint-feasibility test at one pair, is a public
helper checked by the tests; the certifier does not call it.
"""

from __future__ import annotations

import random
import time
from math import gcd
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .derivations import BlockKernels, BlockSystem, Cell, EndMap, ProofContext, Shift
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
    kernel_of_rows,
    kernel_terms,
    rref,  # not called here; perfbench/child.py wraps localcert.rref
    solve,  # not called here; perfbench/child.py wraps localcert.solve
    vec_axpy_inplace,
)


class Probe:
    """A concrete element of L at which the local condition is imposed."""

    def __init__(self, label: str, vector: Vec) -> None:
        if not vector:
            raise ValueError(f"probe {label!r} is zero")
        self.label = label
        self.vector = vector


class SeparatingScalar:
    """Integer t with sum_i t^i c_i != 0 for every realized nonzero weight c.

    The certificate lists each weight with its nonvanishing combination, so
    the hypothesis can be audited (and deliberately broken in tests).
    """

    def __init__(self, t: int,
                 certificate: Optional[List[Tuple[Tuple[int, ...], int]]] = None) -> None:
        self.t = t
        self.certificate = [] if certificate is None else certificate


class Certificate:
    def __init__(
        self,
        family: str,
        n: int,
        t: int,
        probe_labels: List[str],
        dim_constrained: int,
        dim_ad: int,
        verdict: str,  # CERTIFIED | INCONCLUSIVE
        twolocal_verdict: Optional[str] = None,
        # always 0: certify_2local checks no pairs; perfbench/child.py reads it
        twolocal_pairs_checked: int = 0,
        elapsed_ms: Optional[int] = None,
        # the engine that reached the verdict
        engine: Optional["ConstraintEngine"] = None,
    ) -> None:
        self.family = family
        self.n = n
        self.t = t
        self.probe_labels = probe_labels
        self.dim_constrained = dim_constrained
        self.dim_ad = dim_ad
        self.verdict = verdict
        self.twolocal_verdict = twolocal_verdict
        self.twolocal_pairs_checked = twolocal_pairs_checked
        self.elapsed_ms = elapsed_ms
        self.engine = engine

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
    L + L.  Its columns come from the integer bracket table and are cut
    into an `IntKernel`, whose echelon spans them, and the system is
    feasible iff the right-hand side, scaled to ints, reduces to zero
    against that echelon (`int_reduce`).
    """
    m = P.dim_l
    X, Y = int_multiple(x), int_multiple(y)
    kern = IntKernel(2 * m)
    for ad_u in P.ad_columns:
        col: IntVec = {}
        for offset, point in ((0, X), (m, Y)):
            for b, c in point.items():
                vec_axpy_inplace(col, c, {k + offset: v for k, v in ad_u.get(b, {}).items()})
        kern.cut(col)
    rhs = dict(phi.apply(X))
    for k, c in phi.apply(Y).items():
        rhs[m + k] = c
    return not int_reduce(kern.rows, int_multiple(rhs))


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


def random_probes(P: LPrimeModel, count: int, seed: int) -> List[Probe]:
    """Seeded sparse random elements with small integer coefficients: the
    last stage of `certify`, which no model that `FamilySpec.validate`
    admits reaches.

    Each probe is drawn from one `random.Random(seed)` in turn, so the
    first count probes of a longer list with the same seed are these.
    Deliberately not restricted to a single bigrade cell: cell-homogeneous
    probes constrain one column group at a time and cannot couple the
    degree bands of the weight-zero depth slice, so the stage mixes cells.
    """
    rng = random.Random(seed)
    dim = P.base.dim
    probes: List[Probe] = []
    for j in range(count):
        v: IntVec = {}
        while not v:
            v = {rng.randrange(dim): rng.randint(-3, 3) for _ in range(rng.randint(2, 6))}
            v = {b: c for b, c in v.items() if c}
        probes.append(Probe(f"rand[{j}]", v))
    return probes


# ---------------------------------------------------------------------------
# the constrained space, solved per bigrade shift


class ConstraintEngine(BlockKernels):
    """Incremental per-shift solver for the probe-constrained space, on the
    block core `BlockKernels`, which owns the blocks, their targets ad L'_s,
    `open`, the open-block lists, the dimensions and `matches_ad`.  The
    engine adds the probe work: `split`, the last-key skip and
    `constraint_rows`.

    The constraint at a probe x on a shift's block is membership in the
    slice orbit

        phi_shift(x)  in  [L'_shift, x],

    which is far tighter than the full orbit and is what lets the finite
    probe list collapse each block onto ad(L'_shift).  ad L'_shift meets
    it at every x, so it lies in the constrained block.  Locality gives
    only phi_shift(x) in [L', x].  At a probe x inside one cell c the two
    agree: [L', x] is the direct sum of the [L'_s', x], each in its own
    cell c + s', and phi_shift(x) lies in cell c + shift.  At a probe spread
    over several cells the other slices of a witness also land in the
    target cells, so the slice condition can drop a local map; it is not
    proven there, and that is the open gap of ROADMAP.md, "A local
    certificate that rests on nothing unproven".

    Everything runs on Python ints: probes are integer vectors (the orbit
    condition is invariant under scaling the probe, so `constrained_space`
    scales a caller's rational probes to ints), the slice ad columns are
    the integer bracket table's (`LPrimeModel.ad_columns`), and the
    annihilator and the cuts are fraction-free integer eliminations, with
    no modular step and no fallback.  So the result is exact and
    independent of the probe order (each block ends as the kernel of all
    the rows cut into it); Fractions appear only where spaces are handed
    out as subspaces over Q.

    `add_probes` splits each probe into its cells (`split`) once and groups
    the (shift, target cell) pairs of the blocks still open in each of them
    (the core's `_open_reach`, which `check`'s Leibniz rows read too).
    Per shift, `constraint_rows` reduces the slice orbit [L'_shift, x] on
    the value space V, the sum of the target cells, with `int_reduce`, and
    reads its annihilator off that echelon, back-reduced (`kernel_terms`):
    one row per coordinate of V that is not a pivot, built straight in the
    block's local ids (the unit rows when the orbit is 0, none when it is
    all of V).

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
    every probe on every open block it reaches.  Rows that read more of x,
    such as the full-orbit rows [L', x] at a probe spread over several
    cells (ROADMAP.md, "A local certificate that rests on nothing
    unproven"), must widen the key to all that they read.
    """

    def __init__(self, blocks: BlockSystem, P: LPrimeModel, solved: Optional[Set[Shift]] = None):
        super().__init__(blocks, P, solved)
        self.L, self.dim = P.base, P.dim_l
        # the key of the last constraint_rows call on each open block
        self.last_key: Dict[Shift, Tuple[IntVec, ...]] = {}
        # the bigraded slices of L' and their ad matrices (column-sparse)
        ext = P.ext
        self.slice_ad: Dict[Shift, List[Dict[int, IntVec]]] = {}
        for u, cols in enumerate(P.ad_columns):
            self.slice_ad.setdefault((ext.degree[u], ext.weight[u]), []).append(cols)

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
        pairs: List[Tuple[Cell, Cell]],
        comps: Dict[Cell, IntVec],
    ) -> List[IntVec]:
        """Rows over the shift block, in its local ids, expressing
        phi_shift(x) in [L'_shift, x].

        x has int coefficients.  pairs are the shift's (target, source)
        cells, as `BlockSystem.shifts_from(x)` gives them, at least one,
        and comps is `split(x)`; the caller computes both once per probe.
        """
        # the value space V = sum of the target cells, each coordinate with
        # the part of x its entries multiply: the target cell a lies in
        # comes from one source cell
        sub = {a: comps.get(cb, {}) for ca, cb in pairs for a in self.blocks.cells[ca]}
        # the slice orbit [L'_shift, x], reduced to an echelon on V
        pivots: Dict[int, IntVec] = {}
        for cols in self.slice_ad.get(shift, ()):
            w: IntVec = {}
            for b, c in x.items():
                col = cols.get(b)
                if col:
                    vec_axpy_inplace(w, c, col)
            w = int_reduce(pivots, w)
            if w:
                pivots[max(w)] = w
                if len(pivots) == len(sub):
                    return []
        # one row kappa . phi(x) per free coordinate, kappa its kernel
        # vector: the entry (a, b) gets kappa_a x_b, written to its local id
        dim, local = self.dim, self.blocks.local[shift]
        return [
            {local[a * dim + b]: ka * xb for a, ka in kappa for b, xb in sub[a].items()}
            for kappa in kernel_terms(pivots, sorted(sub))
        ]

    def add_probes(self, probes: Iterable[Probe]) -> None:
        """Impose the condition at each probe, an integer vector, on the
        open blocks whose key it changes (see the class docstring)."""
        open_, last = self.open, self.last_key
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
                for row in self.constraint_rows(x, shift, pairs, comps):
                    self._cut(shift, row)
                    if shift not in open_:
                        del last[shift]
                        break


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
    if method not in ("blocks", "reference"):
        raise ValueError(f"unknown method {method!r}")
    probes = [Probe(p.label, int_multiple(p.vector)) for p in probes]
    engine = ConstraintEngine(BlockSystem(P.base), P)
    if method == "blocks":
        engine.add_probes(probes)
        return engine.blocks.subspace(engine.space)
    dim = engine.dim
    rows: List[Vec] = []
    for probe in probes:
        x = probe.vector
        reach, comps = engine.blocks.shifts_from(x), engine.split(x)
        for shift in sorted(reach):
            for row in as_fractions(engine.constraint_rows(x, shift, reach[shift], comps)):
                rows.append(engine.blocks.lift(shift, row))
    return Subspace.from_vectors(kernel_of_rows(rows, dim * dim), dim * dim)


# ---------------------------------------------------------------------------
# certification


def certify(
    ctx: ProofContext,
    budget: Optional[int] = None,
    seed: int = 0,
) -> Certificate:
    """Run the probe pipeline and compare the constrained space with ad L'.

    Probe order: proof probes, then the degree-0-anchored completions, then
    seeded sparse random elements, all capped at the budget (default
    4 * dim L).  CERTIFIED means the two spaces agree exactly; the
    escalation stages only run, and are only built, when the earlier ones
    leave a gap (`_run_stages`).  Each stage is one `add_probes` call;
    stage 1 is cut to the budget and then fed in `visit_order`, and
    `probe_labels` lists every probe in the order above.
    The run is ``ctx``'s dominant-first one (`ProofContext.solve`).
    CERTIFIED holds given `check`'s lemma Der L = ad L' for the same
    (family, n), which this does not prove; a golden `check` report pins
    it for every model that `FamilySpec.validate` admits.
    """
    start = time.monotonic()
    P, L = ctx.P, ctx.L
    if budget is None:
        budget = 4 * L.dim
    sep = separating_t(P.ext)
    proof = proof_probes(P, sep)

    def run(solved: Optional[Set[Shift]]) -> Tuple[ConstraintEngine, bool, List[str]]:
        engine = ConstraintEngine(ctx.blocks, P, solved)
        return (engine, *_run_stages(P, engine, proof, budget, seed))

    engine, certified, labels = ctx.solve(run)
    if engine.reduced():
        # CERTIFIED on the dominant blocks: the constrained space is ad L'
        dim_c = dim_ad = ctx.dim_ad
    else:
        dim_c, dim_ad = engine.dim_space(), engine.dim_ad()
    return Certificate(
        family=L.family,
        n=L.n,
        t=sep.t,
        probe_labels=labels,
        dim_constrained=dim_c,
        dim_ad=dim_ad,
        verdict="CERTIFIED" if certified else "INCONCLUSIVE",
        elapsed_ms=int((time.monotonic() - start) * 1000),
        engine=engine,
    )


def _run_stages(
    P: LPrimeModel, engine: ConstraintEngine, proof: List[Probe], budget: int, seed: int
) -> Tuple[bool, List[str]]:
    """Feed `certify`'s stages to the engine until it matches ad L' or the
    budget is spent; whether it matches, and the probe labels fed.

    Stage 1 is the proof list cut to the budget, fed in `visit_order`.
    Each later stage is built only when it is reached, and keeps, up to the
    budget, every probe whose direction no earlier probe has; the random
    stage draws as many probes as the budget has left, so its repeats are
    dropped after the draw.
    """
    stage1 = proof[: max(budget, 0)]
    seen = {_normalize_direction(p.vector) for p in stage1}
    labels = [p.label for p in stage1]
    engine.add_probes(visit_order(stage1))
    matches = engine.matches_ad()
    for stage in (anchored_probes, lambda P: random_probes(P, budget - len(labels), seed)):
        if matches or len(labels) >= budget:
            break
        batch: List[Probe] = []
        for p in stage(P):
            if len(labels) == budget:
                break
            key = _normalize_direction(p.vector)
            if key not in seen:
                seen.add(key)
                batch.append(p)
                labels.append(p.label)
        engine.add_probes(batch)
        matches = engine.matches_ad()
    return matches, labels


def certify_2local(cert: Certificate) -> Certificate:
    """Extend a certificate with the 2-local verdict, which is the local one.

    A 2-local map is local (take the pair (x, x)), so CERTIFIED for linear
    local maps settles linear 2-local maps by reduction, and INCONCLUSIVE
    stays INCONCLUSIVE.  It says nothing about 2-local maps that are not
    linear.
    """
    cert.twolocal_verdict = cert.verdict
    return cert
