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
no fallback; Fractions appear only at its edges.  The space
always contains ad L'; when it collapses to exactly ad L' = Der L, every
map that is locally inner at all points is inner, which is the per-n
certificate of LDer(L) = Der(L).  When the proof list leaves a residual
(the weight-zero depth slice of H(odd n), whose witness no Cartan anchor
can see), deterministic degree-0-anchored probes and then basis/random
stages escalate.  INCONCLUSIVE only means this probe budget did not
collapse the space; it never claims the theorem fails.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .derivations import BlockSystem, Cell, EndMap, Shift
from .families import LPrimeModel
from .liesuper import AlgebraModel, ad_matrix, table_denominator
from .linalg import (
    IntVec,
    Matrix,
    Subspace,
    Vec,
    as_fractions,
    int_combine,
    kernel_of_int_rows,
    kernel_of_rows,
    rref,
    solve,
    vec_axpy_inplace,
    vec_dot,
    vec_scale,
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
    twolocal_pairs_checked: int = 0
    twolocal_failure: Optional[str] = None
    elapsed_ms: Optional[int] = None
    # the engine that reached the verdict, for certify_2local
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
        w = ext.bracket({u: Fraction(1)}, x)
        if any(k >= m for k in w):
            raise ValueError("orbit vector escapes L")
        if w:
            rows.append(w)
    return Subspace.from_vectors(rows, m)


def is_local_at(phi: EndMap, x: Vec, P: LPrimeModel) -> bool:
    return orbit(x, P).contains(phi.apply(x))


def is_2local_at(phi: EndMap, x: Vec, y: Vec, P: LPrimeModel) -> bool:
    """Joint feasibility of [u, x] = phi(x), [u, y] = phi(y) for one u in L'."""
    m = P.dim_l
    ext = P.ext
    data: Dict[int, Vec] = {}
    for u in range(ext.dim):
        for offset, point in ((0, x), (m, y)):
            w = ext.bracket({u: Fraction(1)}, point)
            for k, c in w.items():
                data.setdefault(offset + k, {})[u] = c
    system = Matrix(2 * m, ext.dim, data)
    b = dict(phi.apply(x))
    for k, c in phi.apply(y).items():
        b[m + k] = c
    return solve(system, b) is not None


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


def _integral(v: Vec) -> IntVec:
    """v times the lcm of its denominators: the same direction, on ints."""
    den = lcm(*(c.denominator for c in v.values()))
    return {k: c.numerator * (den // c.denominator) for k, c in v.items()}


def _normalize_direction(v: Vec) -> Tuple[Tuple[int, Fraction], ...]:
    lead = min(v)
    inv = Fraction(1) / v[lead]
    return tuple(sorted((k, c * inv) for k, c in v.items()))


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

    def push(label: str, v: Vec) -> None:
        if not v:
            return
        key = _normalize_direction(v)
        if key in seen:
            return
        seen.add(key)
        probes.append(Probe(label, v))

    h0: Vec = {}
    for i, h in enumerate(chain, start=1):
        vec_axpy_inplace(h0, Fraction(t.t ** i), h)
    push("h0", h0)
    for i, h in enumerate(chain, start=1):
        push(f"h[{i}]", dict(h))

    roots = sorted({w for w in P.ext.weight if any(w)})
    for alpha in roots:
        k = next(idx for idx, c in enumerate(alpha) if c) + 1
        for i in range(1, l + 1):
            if i == k or alpha[i - 1] == 0:
                continue
            v = vec_scale(chain[i - 1], Fraction(alpha[k - 1]))
            vec_axpy_inplace(v, Fraction(-alpha[i - 1]), chain[k - 1])
            push(f"h_ik[{alpha[k - 1]}h{i}{-alpha[i - 1]:+d}h{k}]", v)

    depth = [i for i in range(L.dim) if L.degree[i] == -1]
    dsum: Vec = {}
    for idx, b in enumerate(depth, start=1):
        unit = {b: Fraction(1)}
        push(f"dminus[{idx}]", unit)
        shifted = dict(h0)
        vec_axpy_inplace(shifted, Fraction(1), unit)
        push(f"h0+dminus[{idx}]", shifted)
        vec_axpy_inplace(dsum, Fraction(1), unit)
    push("dsum", dsum)

    for b in range(L.dim):
        if L.degree[b] < 0:
            continue
        v = {b: Fraction(1)}
        shifted = dict(dsum)
        vec_axpy_inplace(shifted, Fraction(1), v)
        push(f"x+dsum[{b}]", shifted)
        shifted = dict(h0)
        vec_axpy_inplace(shifted, Fraction(1), v)
        push(f"h0+x[{b}]", shifted)

    return probes


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
    anchor: Vec = {
        b: Fraction(1) for b in range(L.dim) if L.degree[b] == 0
    }
    out = []
    for b in range(L.dim):
        if L.degree[b] == 0:
            continue
        v = dict(anchor)
        vec_axpy_inplace(v, Fraction(1), {b: Fraction(1)})
        out.append(Probe(f"deg0sum+x[{b}]", v))
    return out


def basis_probes(P: LPrimeModel) -> List[Probe]:
    return [Probe(f"basis[{b}]", {b: Fraction(1)}) for b in range(P.dim_l)]


def random_probes(P: LPrimeModel, count: int, seed: int) -> List[Probe]:
    """Seeded sparse random elements with small integer coefficients.

    Deliberately not restricted to a single bigrade cell: cell-homogeneous
    probes constrain one column group at a time and provably cannot couple
    the degree bands of the weight-zero depth slice, so the escalation stage
    mixes cells.
    """
    rng = random.Random(seed)
    dim = P.base.dim
    out = []
    for j in range(count):
        while True:
            v = {
                rng.randrange(dim): Fraction(rng.randint(-3, 3))
                for _ in range(rng.randint(2, 6))
            }
            v = {b: c for b, c in v.items() if c}
            if v:
                break
        out.append(Probe(f"rand[{j}]", v))
    return out


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

    For every shift the engine keeps the current solution space of that
    block (starting from the whole block) and cuts it with one linear
    functional per constraint row.  Everything runs on Python ints: probes
    are scaled to integer vectors (the orbit condition is invariant under
    scaling the probe), the slice ad columns come from the denominator-free
    table, the annihilator is a fraction-free integer kernel, and a cut
    keeps each row a primitive integer multiple of the row exact rational
    elimination would keep.  So the result is exact and independent of the
    probe order; Fractions appear only where spaces are compared with or
    handed out as subspaces over Q.  A block that has shrunk onto its inner
    target is skipped from then on: the target is contained in every
    further cut, so no more shrinking is possible.
    """

    def __init__(self, P: LPrimeModel):
        self.P = P
        L = P.base
        self.L = L
        dim = L.dim
        self.dim = dim
        self.blocks = BlockSystem(L)

        # current solution spaces: shift -> list of int rows over local ids
        self.space: Dict[Shift, List[IntVec]] = {
            shift: [{i: 1} for i in range(len(entries))]
            for shift, entries in self.blocks.entries.items()
        }

        # the bigraded slices of L' and their ad matrices (column-sparse)
        ext = P.ext
        den = table_denominator(ext)
        self.slice_ad: Dict[Shift, List[Dict[int, IntVec]]] = {}
        self.ad_rref: Dict[Shift, List[Vec]] = {}
        ad_rows: Dict[Shift, List[IntVec]] = {}
        for u in range(ext.dim):
            shift = (ext.degree[u], ext.weight[u])
            cols: Dict[int, IntVec] = {}
            for b in range(dim):
                for a, c in ext.bracket_basis(u, b).items():
                    if a >= dim:
                        raise ValueError("ad(L') does not preserve L")
                    cols.setdefault(b, {})[a] = c.numerator * (den // c.denominator)
            if not cols:
                raise ValueError(f"ad is not injective on L' (basis {u})")
            if shift not in self.blocks.entries:
                raise ValueError("ad(u) hits a shift outside the block pattern")
            self.slice_ad.setdefault(shift, []).append(cols)
            row = self.blocks.localize(shift, EndMap(dim, cols).to_flat())
            ad_rows.setdefault(shift, []).append(row)
        for shift, rows in ad_rows.items():
            self.ad_rref[shift] = rref(as_fractions(rows))[0]
        self.probe_labels: List[str] = []

    def dim_ad(self) -> int:
        return sum(len(rows) for rows in self.ad_rref.values())

    def _converged(self, shift: Shift) -> bool:
        # containment ad(L'_shift) <= space is structural, so dimension
        # equality already means equality
        return len(self.space[shift]) == len(self.ad_rref.get(shift, []))

    def constraint_rows(
        self,
        x: IntVec,
        shift: Shift,
        pairs: Optional[List[Tuple[Cell, Cell]]] = None,
    ) -> List[IntVec]:
        """Rows over the shift block expressing phi_shift(x) in [L'_shift, x].

        x has int coefficients.  pairs are the shift's (target, source)
        cells from `BlockSystem.shifts_from(x)`; they are looked up when
        not given.
        """
        L, dim, cells = self.L, self.dim, self.blocks.cells
        if pairs is None:
            pairs = self.blocks.shifts_from(x).get(shift)
        if not pairs:
            return []
        comps: Dict[Cell, IntVec] = {}
        for b, c in x.items():
            comps.setdefault(L.cell_of(b), {})[b] = c
        targets = [(ca, comps[cb]) for ca, cb in pairs]
        # local coordinates of the value space V = sum of target cells
        v_ids: List[int] = []
        for ca, _ in targets:
            v_ids.extend(cells[ca])
        v_ids.sort()
        v_local = {a: i for i, a in enumerate(v_ids)}
        # the slice orbit [L'_shift, x], localized to V
        span_rows: List[IntVec] = []
        for cols in self.slice_ad.get(shift, []):
            w: IntVec = {}
            for b, c in x.items():
                col = cols.get(b)
                if col:
                    vec_axpy_inplace(w, c, col)
            if w:
                span_rows.append({v_local[a]: c for a, c in w.items()})
        ann = kernel_of_int_rows(span_rows, len(v_ids))
        rows: List[IntVec] = []
        for kappa in ann:
            # distinct targets come from distinct source cells, so every
            # entry (a, b) is written once
            row: IntVec = {}
            for ca, sub in targets:
                for a in cells[ca]:
                    ka = kappa.get(v_local[a])
                    if ka:
                        for b, xb in sub.items():
                            if xb:
                                row[a * dim + b] = ka * xb
            if row:
                rows.append(self.blocks.localize(shift, row))
        return rows

    def add_probes(self, probes: Sequence[Probe]) -> None:
        for probe in probes:
            self.probe_labels.append(probe.label)
            x = _integral(probe.vector)
            for shift, pairs in self.blocks.shifts_from(x).items():
                if not self.space[shift] or self._converged(shift):
                    continue
                for row in self.constraint_rows(x, shift, pairs):
                    self._cut(shift, row)
                    if not self.space[shift]:
                        break

    def _cut(self, shift: Shift, functional: IntVec) -> None:
        space = self.space[shift]
        dots = [vec_dot(row, functional) for row in space]
        pivot_idx = next((i for i, d in enumerate(dots) if d), None)
        if pivot_idx is None:
            return
        pivot = space[pivot_idx]
        d0 = dots[pivot_idx]
        new_space = []
        for row, d in zip(space, dots):
            if row is pivot:
                continue
            if d:
                row = int_combine(d0, row, -d, pivot)
            new_space.append(row)
        self.space[shift] = new_space

    def matches_ad(self) -> bool:
        for shift, space in self.space.items():
            target = self.ad_rref.get(shift, [])
            if len(space) != len(target):
                return False
            if rref(as_fractions(space))[0] != target:
                return False
        return True

    def residual_dim(self) -> int:
        return sum(len(s) for s in self.space.values()) - self.dim_ad()

    def as_subspace(self) -> Subspace:
        rows = [
            self.blocks.lift(shift, row)
            for shift in sorted(self.space)
            for row in as_fractions(self.space[shift])
        ]
        return Subspace.from_vectors(rows, self.dim * self.dim)


def constrained_space(
    P: LPrimeModel, probes: Sequence[Probe], method: str = "blocks"
) -> Subspace:
    """Maps satisfying the per-shift slice-orbit condition at every probe.

    "blocks" solves each bigrade shift incrementally (the performance path);
    "reference" pushes the identical constraint rows, as Fractions, through
    one global elimination over all of End(L), with no per-block
    bookkeeping or early-out, and must agree with the block path.
    """
    if not probes:
        raise ValueError("constrained_space requires at least one probe")
    if method == "blocks":
        engine = ConstraintEngine(P)
        engine.add_probes(probes)
        return engine.as_subspace()
    if method != "reference":
        raise ValueError(f"unknown method {method!r}")
    engine = ConstraintEngine(P)
    dim = engine.dim
    rows: List[Vec] = []
    for probe in probes:
        x = _integral(probe.vector)
        for shift in sorted(engine.space):
            for row in as_fractions(engine.constraint_rows(x, shift)):
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
    spaces agree exactly; the escalation stages only run when the earlier
    ones leave a gap.
    """
    start = time.monotonic()
    L = P.base
    if budget is None:
        budget = 4 * L.dim
    sep = separating_t(P.ext)
    stage1 = proof_probes(P, sep)
    seen = {_normalize_direction(p.vector) for p in stage1}

    def fresh(batch: List[Probe]) -> List[Probe]:
        out = []
        for p in batch:
            key = _normalize_direction(p.vector)
            if key not in seen:
                seen.add(key)
                out.append(p)
        return out

    stage2 = fresh(anchored_probes(P))
    stage3 = fresh(basis_probes(P))
    used = len(stage1) + len(stage2) + len(stage3)
    stage4 = fresh(random_probes(P, max(0, budget - used), seed))

    engine = ConstraintEngine(P)
    remaining = budget
    verdict = "INCONCLUSIVE"
    for stage in (stage1, stage2, stage3, stage4):
        if remaining <= 0:
            break
        batch = stage[:remaining]
        remaining -= len(batch)
        engine.add_probes(batch)
        if engine.matches_ad():
            verdict = "CERTIFIED"
            break

    elapsed = int((time.monotonic() - start) * 1000)
    return Certificate(
        family=L.family,
        n=L.n,
        t=sep.t,
        probe_labels=list(engine.probe_labels),
        dim_constrained=engine.dim_ad() + engine.residual_dim(),
        dim_ad=engine.dim_ad(),
        verdict=verdict,
        elapsed_ms=elapsed,
        engine=engine,
    )


def _random_vector(rng: random.Random, dim: int, max_terms: int = 4) -> Vec:
    while True:
        v = {
            rng.randrange(dim): Fraction(rng.randint(-2, 2))
            for _ in range(rng.randint(1, max_terms))
        }
        v = {k: c for k, c in v.items() if c}
        if v:
            return v


def certify_2local(
    P: LPrimeModel,
    cert: Certificate,
    seed: int = 0,
    pairs: int = 100,
) -> Certificate:
    """Extend a certificate with the 2-local verdict.

    A 2-local superderivation is in particular a local superderivation
    (project the pairwise witness), so CERTIFIED for the local statement
    settles the 2-local one by reduction.  Seeded spot checks keep the
    reduction honest: inner maps must be jointly feasible on every sampled
    pair, and when the local verdict is INCONCLUSIVE a map from the residual
    space of the engine that reached the verdict is searched for a
    concretely failing pair.
    """
    rng = random.Random(seed)
    L = P.base
    ext = P.ext
    checked = 0
    failure = None
    for _ in range(pairs):
        u = _random_vector(rng, ext.dim)
        phi = EndMap.from_matrix(ad_matrix(ext, u, restrict=L.dim))
        x = _random_vector(rng, L.dim)
        y = _random_vector(rng, L.dim)
        checked += 1
        if not is_2local_at(phi, x, y, P):
            failure = f"inner map failed joint feasibility at pair {checked}"
            break

    if failure is None and cert.verdict == "CERTIFIED":
        verdict = "CERTIFIED"
    else:
        verdict = "INCONCLUSIVE"
        if failure is None and cert.engine is not None:
            # take a residual map and look for a failing pair
            engine = cert.engine
            witness = None
            for shift in sorted(engine.space):
                inner = Subspace.from_vectors(
                    engine.ad_rref.get(shift, []), len(engine.blocks.entries[shift])
                )
                outside = [
                    r for r in as_fractions(engine.space[shift]) if not inner.contains(r)
                ]
                if outside:
                    witness = EndMap.from_flat(L.dim, engine.blocks.lift(shift, outside[0]))
                    break
            if witness is not None:
                for _ in range(pairs):
                    x = _random_vector(rng, L.dim)
                    y = _random_vector(rng, L.dim)
                    if not is_2local_at(witness, x, y, P):
                        failure = "residual map fails joint feasibility"
                        break

    cert.twolocal_verdict = verdict
    cert.twolocal_pairs_checked = checked
    cert.twolocal_failure = failure
    return cert
