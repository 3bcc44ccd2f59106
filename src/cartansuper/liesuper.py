"""Finite-dimensional graded Lie superalgebra container.

A model is a basis-indexed structure: a sparse bracket table over the basis,
plus per-basis-element parity (Z_2), degree (Z, or Z_n residues stored as
representatives in {-1, ..., n-2}), an integer weight vector (the eigenvalue
list against the chosen Cartan elements), and the indices of a basis of the
Cartan subalgebra.

The bracket table is populated once by the constructors in
:mod:`cartansuper.families` and then only read; downstream solvers consult it
on the order of dim^2 times, so lookups have to stay O(1).  Every structure
constant of the four families is an integer, and the table holds them as
Python ints: the Jacobi scan, the Leibniz rows and the certifier read it
as it is, and rational dimensions computed from it are the complex ones.

Axioms checked by :func:`check_axioms`:

* super anticommutativity  [x, y] = -(-1)^{|x||y|} [y, x]
* super Jacobi  [x, [y, z]] = [[x, y], z] + (-1)^{|x||y|} [y, [x, z]]
* parity additivity  [L_p, L_q] <= L_{p+q mod 2}
* degree additivity  [L_i, L_j] <= L_{i+j}  (mod n for the Z_n-graded family)
* weight additivity  [L_a, L_b] <= L_{a+b}

Jacobi can be proved on a generating set: :func:`generators` picks basis
elements whose closure under their own adjoint maps is all of L, taking
candidates lowest degree first, then from the highest degree down.  Once the
pair scan has passed, the proving scans test only half of the (y, z):
y < z, and y = z for an odd y (see :func:`check_axioms`).  One kernel,
:func:`jacobi_violation`, serves the proving scans, the sampled one and
`derivations.outer_ads_are_derivations`.  For each (x, y) it visits only
the z at which a term of J(x, y, z) can be nonzero, reached through the
table's entries; at every other z all three terms are zero.
"""

from __future__ import annotations

import json
import random
import re
from os.path import commonprefix
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple, Union

from .exterior import mono_str
from .linalg import IntKernel, IntVec, Matrix, Vec, vec_axpy_inplace

WeightVec = Tuple[int, ...]

FAMILIES = ("W", "S", "Stilde", "H")


class ModelFormatError(ValueError):
    """Raised when a model file is not what `build` writes for its head."""


# ---------------------------------------------------------------------------
# basis descriptors
#
# The value types of the package (these and `families.FamilySpec`) are
# NamedTuples, and its records (`AxiomReport` and the like) plain classes,
# not dataclasses: every CLI run is a fresh process, and importing
# `dataclasses` (with `inspect`, `ast` and `dis`) and decorating the classes
# would double the package's import time.  tests/test_liesuper.py tests
# their equality, hash and immutability, and
# tests/test_cli.py::test_cli_import_loads_no_dataclasses the import.


class VectorField(NamedTuple):
    """The monomial vector field f * d_j."""

    mono: int
    j: int

    def __str__(self) -> str:
        return f"{mono_str(self.mono)}*d{self.j}"


class Ham(NamedTuple):
    """The Hamiltonian field obtained by applying D_H to a monomial."""

    mono: int

    def __str__(self) -> str:
        return f"DH({mono_str(self.mono)})"


class GradingElement(NamedTuple):
    """The Euler field sum_i x_i d_i."""

    def __str__(self) -> str:
        return "C"


class Combo(NamedTuple):
    """An integer combination of monomial vector fields (a basis row of S or
    Stilde that is not a single field; `families` builds them on ints)."""

    terms: Tuple[Tuple[int, int, int], ...]  # (coeff, mono, j)

    def __str__(self) -> str:
        return " + ".join(
            f"{c}*{mono_str(m)}*d{j}" for c, m, j in self.terms
        )


BasisDesc = Union[VectorField, Ham, GradingElement, Combo]


# ---------------------------------------------------------------------------
# the algebra model


class AlgebraModel:
    """Graded Lie superalgebra with an explicit sparse bracket table.

    ``table`` maps a basis pair (i, j) to the coordinates {k: c} of [i, j],
    with the zero brackets left out.  Its entries are shared: the
    constructors in `families`, the one producer of a model (a model file
    is checked against theirs), store one dict per distinct coordinate
    vector, in the order of its items, and every equal entry is that dict;
    an L' table built on L's holds L's entries themselves.  An entry is
    read-only: a reader that wants to change one copies it first.
    """

    def __init__(
        self,
        family: str,
        n: int,
        basis: List[BasisDesc],
        table: Dict[Tuple[int, int], IntVec],
        parity: List[int],
        degree: List[int],
        weight: List[WeightVec],
        cartan: List[int],
        grading_modulus: Optional[int] = None,
        w_coords: Optional[List[IntVec]] = None,
        cartan_chain: Optional[List[IntVec]] = None,
    ):
        self.family = family
        self.n = n
        self.basis = basis
        self.table = table
        self.parity = parity
        self.degree = degree
        self.weight = weight
        self.cartan = cartan
        self.grading_modulus = grading_modulus
        # derived data, attached by the constructors (not serialized):
        self.w_coords = w_coords          # basis vectors over the ambient W(n) basis
        self.cartan_chain = cartan_chain  # h_1..h_l in model coordinates

    @property
    def dim(self) -> int:
        return len(self.basis)

    def zero_weight(self) -> WeightVec:
        return tuple([0] * len(self.weight[0])) if self.weight else ()

    # -- grading arithmetic (Z, or Z_n stored as representatives -1..n-2)

    def deg_norm(self, d: int) -> int:
        m = self.grading_modulus
        if m is None:
            return d
        return (d + 1) % m - 1

    def deg_add(self, d1: int, d2: int) -> int:
        return self.deg_norm(d1 + d2)

    def deg_sub(self, d1: int, d2: int) -> int:
        return self.deg_norm(d1 - d2)

    def cell_of(self, i: int) -> Tuple[int, WeightVec]:
        return (self.degree[i], self.weight[i])

    def cells(self) -> Dict[Tuple[int, WeightVec], List[int]]:
        """Partition of basis indices by (degree, weight), in key order."""
        out: Dict[Tuple[int, WeightVec], List[int]] = {}
        for i in range(self.dim):
            out.setdefault(self.cell_of(i), []).append(i)
        return {key: out[key] for key in sorted(out)}

    # -- bracket

    def bracket_basis(self, i: int, j: int) -> Vec:
        """[i, j]: the table's shared entry itself, not to be written."""
        return self.table.get((i, j), {})

    def bracket(self, a: Vec, b: Vec) -> Vec:
        """Bilinear extension of the bracket table."""
        out: Vec = {}
        table = self.table
        for i, ca in a.items():
            for j, cb in b.items():
                w = table.get((i, j))
                if w:
                    vec_axpy_inplace(out, ca * cb, w)
        return out

    def __repr__(self) -> str:
        return f"AlgebraModel({self.family}({self.n}), dim={self.dim})"


def ad_matrix(A: AlgebraModel, u: Vec, restrict: Optional[int] = None) -> Matrix:
    """Matrix of x -> [u, x] on A's basis.

    With ``restrict=m`` the map is taken on the first m basis vectors only
    (the standard identity-prefix embedding of L inside L'); a bracket value
    escaping that prefix raises, since ad(L') must preserve L.
    """
    m = A.dim if restrict is None else restrict
    data: Dict[int, Vec] = {}
    for b in range(m):
        col: Vec = {}
        table = A.table
        for i, c in u.items():
            w = table.get((i, b))
            if w:
                vec_axpy_inplace(col, c, w)
        for k, c in col.items():
            if k >= m:
                raise ValueError(
                    f"ad(u) leaves the restricted subalgebra at basis {b}"
                )
            data.setdefault(k, {})[b] = c
    return Matrix(m, m, data)


# ---------------------------------------------------------------------------
# axiom checking


class AxiomReport:
    def __init__(self, ok: bool, pairs_checked: int, triples_checked: int,
                 first_violation: Optional[str] = None) -> None:
        self.ok = ok
        self.pairs_checked = pairs_checked
        self.triples_checked = triples_checked
        self.first_violation = first_violation

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "pairs_checked": self.pairs_checked,
            "triples_checked": self.triples_checked,
            "first_violation": self.first_violation,
        }


def _bracket_left(table: dict, i: int, v: Vec) -> Vec:
    """[i, v] from the table, without the zeros that an entry's stored 0
    leaves (`vec_axpy_inplace` keeps a term it sets to 0)."""
    out: Vec = {}
    for m, c in v.items():
        w = table.get((i, m))
        if w:
            vec_axpy_inplace(out, c, w)
    return {k: c for k, c in out.items() if c}


# ---------------------------------------------------------------------------
# generating sets


def generators(
    A: AlgebraModel, candidates: Optional[Iterable[int]] = None
) -> Optional[List[int]]:
    """Basis indices G whose closure under ad G is all of L, or None.

    The closure of G is the smallest subspace that contains G and is closed
    under ad g for every g in G.  Candidates (every basis index by default)
    are taken lowest degree of L first, then from the highest degree down,
    each degree by index; one joins G when it is not in the closure of the
    G chosen so far, so from the default candidates G always exists, the
    whole basis at worst.  None means the candidates ran out before the
    closure was all of L.

    The order is a rule on the grading, not on a family or an n.  For W(n),
    G is the n vectors d_i of the lowest degree and the n of the top
    degree: ad d_i applied again and again to x_1...x_n d_k gives every
    x^S d_k.  A smaller G makes every scan on G x L smaller: Jacobi here,
    and the Leibniz rows in `derivations`.

    The closure is computed exactly from the bracket table and uses no
    Jacobi identity, so it can be trusted on a table not yet known to be a
    Lie superalgebra.  Every vector in it is a left-normed bracket
    [g_1, [g_2, ... [g_k, g]]] of generators or a sum of such.  The table
    must hold ints, as every table the constructors build does: the
    closure is kept in an `IntKernel`.
    """
    if candidates is None:
        candidates = range(A.dim)
    # the closure is the span of the rows cut into kern: a vector is new to
    # it exactly when its cut shrinks kern, and it is all of L once kern is 0
    kern = IntKernel(A.dim)
    span: List[IntVec] = []  # a basis of the closure, as found
    applied: List[int] = []  # per span vector, how many generators it has met
    G: List[int] = []
    degree = A.degree
    low = min(degree, default=0)
    for g in sorted(set(candidates), key=lambda i: (degree[i] != low, -degree[i], i)):
        if not kern:
            break
        if not kern.cut({g: 1}):
            continue
        G.append(g)
        span.append({g: 1})
        applied.append(0)
        v = 0
        while v < len(span):
            for h in G[applied[v]:]:
                w = _bracket_left(A.table, h, span[v])
                if w and kern.cut(w):
                    span.append(w)
                    applied.append(0)
            applied[v] = len(G)
            v += 1
    return G if not kern else None


def check_axioms(
    A: AlgebraModel,
    jacobi_triples: Optional[int] = None,
    seed: int = 0,
    generating_set: Optional[Iterable[int]] = None,
) -> AxiomReport:
    """Verify the superalgebra axioms plus parity, degree and weight
    additivity.

    Anticommutativity and the grading checks decide every basis pair, but
    only the pairs with a table entry are visited: a pair with neither
    order in the table has a zero bracket, which passes both.  Jacobi, in
    the form "ad x is a superderivation", runs in one of three modes:

    * generator mode, when ``generating_set`` is given and `generators`
      confirms that (a subset G of) it generates L: the triples (g, y, z)
      with g in G.  This proves Jacobi on all of L.
      The x for which ad x is a superderivation form a subalgebra: for
      homogeneous x and y among them, Jacobi at (x, y, .) says
      ad [x, y] = [ad x, ad y], a supercommutator of superderivations, and
      [x, y] is homogeneous by parity additivity.  That subalgebra contains
      G, hence every left-normed bracket of G, hence all of L.  A set that
      does not generate L is refused, and the mode below runs instead;
    * full mode, when ``jacobi_triples`` is None: the triples (x, y, z);
    * sampled mode: that many seeded random triples, which proves nothing.

    Both proving modes test only y < z, and y = z for an odd y, which is
    |G| (resp. dim) * (dim (dim - 1) / 2 + #odd) triples.  Proof: with
    J(x, y, z) = [x, [y, z]] - [[x, y], z] - (-1)^{|x||y|} [y, [x, z]],
    anticommutativity and parity additivity, both checked on every pair
    first, give J(x, z, y) = -(-1)^{|y||z|} J(x, y, z), so J(x, y, y) = 0
    for an even y.  Of these triples, `jacobi_violation` evaluates only
    those at which a term of J can be nonzero (the proof is in its
    docstring); the rest are zero, and ``triples_checked`` counts them all.

    The first violation, if any, is reported with the offending pair or
    triple; a pair fault is the first in row-major order over the pairs
    (i, j), i <= j, and ``pairs_checked`` counts the pairs up to it.  A
    Jacobi fault is the first failing triple in scan order, (x, y, z) with
    x in the order of G (or of the samples), and ``triples_checked``
    counts the triples of the scan up to it.
    """
    dim = A.dim
    pairs = dim * (dim + 1) // 2

    def fail(msg: str, triples: int = 0) -> AxiomReport:
        return AxiomReport(False, pairs, triples, msg)

    # walk the keys, not the dim^2 pairs, keeping the first faulty pair
    table = A.table
    first: Optional[Tuple[int, int]] = None
    for i, j in table:
        if i > j:
            if (j, i) in table:
                continue  # the key (j, i) compares the two
            i, j = j, i
        if first is None or (i, j) < first:
            fault = _pair_fault(A, i, j)
            if fault:
                first, first_fault = (i, j), fault
    if first is not None:
        i, j = first
        pairs = i * dim - i * (i - 1) // 2 + j - i + 1
        return fail(first_fault)

    G = None if generating_set is None else generators(A, generating_set)
    if G is not None or jacobi_triples is None:
        # y < z, and y = z for an odd y (see above)
        parity = A.parity
        groups = (
            (i, j, range(j + 1 - parity[j], dim))
            for i in (range(dim) if G is None else G)
            for j in range(dim)
        )
    else:
        rng = random.Random(seed)
        draws = (
            (rng.randrange(dim), rng.randrange(dim), rng.randrange(dim))
            for _ in range(jacobi_triples)
        )
        groups = ((i, j, range(k, k + 1)) for i, j, k in draws)

    triples, bad = jacobi_violation(A, groups)
    if bad is not None:
        return fail("Jacobi fails at triple ({},{},{})".format(*bad), triples)
    return AxiomReport(True, pairs, triples)


def _pair_fault(A: AlgebraModel, i: int, j: int) -> Optional[str]:
    """What fails at the basis pair (i, j), i <= j, or None: super
    anticommutativity first, then the gradings of [i, j] term by term."""
    table = A.table
    w = table.get((i, j), {})
    back = table.get((j, i), {})
    odd = (A.parity[i] * A.parity[j]) % 2
    if len(back) != len(w) or any(
        back.get(k) != (c if odd else -c) for k, c in w.items()
    ):
        return f"anticommutativity fails at pair ({i},{j})"
    dsum = A.deg_add(A.degree[i], A.degree[j])
    wsum = tuple(x + y for x, y in zip(A.weight[i], A.weight[j]))
    psum = (A.parity[i] + A.parity[j]) % 2
    for k in w:
        if A.degree[k] != dsum:
            return f"degree additivity fails at pair ({i},{j})"
        if A.weight[k] != wsum:
            return f"weight additivity fails at pair ({i},{j})"
        if A.parity[k] != psum:
            return f"parity additivity fails at pair ({i},{j})"
    return None


def jacobi_violation(
    A: AlgebraModel, groups: Iterable[Tuple[int, int, range]]
) -> Tuple[int, Optional[Tuple[int, int, int]]]:
    """Test J(x, y, z) = [x, [y, z]] - [[x, y], z] - (-1)^{|x||y|} [y, [x, z]]
    = 0 on the basis triples (x, y, z), z in zs, of each group (x, y, zs) in
    turn, zs a range of step 1.  Returns the number of triples, in group
    and then zs order, up to the first failing one, and that triple; or the
    number of all of them and None when every triple holds.

    Each group visits only the z at which a term of J(x, y, z) can be
    nonzero, and adds up the terms of all three at once, from A's table
    read as rows, rows[a][b] = [a, b]:

    * [x, [y, z]]: the z with [y, z] a table entry, through each term m of
      [y, z] at which ad x is nonzero;
    * [[x, y], z]: through each term m of [x, y], the z with [m, z] nonzero;
    * [y, [x, z]]: through each m with [y, m] nonzero, the z whose [x, z]
      has a term m (the columns of ad x, built once per x).

    At any other z all three terms are zero by bilinearity: [x, [y, z]]
    needs a term m of [y, z] with [x, m] nonzero, [[x, y], z] a term m of
    [x, y] with [m, z] nonzero, and [y, [x, z]] a term m of [x, z] with
    [y, m] nonzero.  So J(x, y, z) = 0 there, and the sums at the visited z
    are J itself.
    """
    dim = A.dim
    rows: List[Dict[int, Vec]] = [{} for _ in range(dim)]
    for (a, b), w in A.table.items():
        if w:
            rows[a][b] = w
    parity = A.parity
    # per x, the columns of ad x: m -> [(z, the m-term of [x, z])]
    columns: Dict[int, Dict[int, List[Tuple[int, int]]]] = {}
    count = 0
    for x, y, zs in groups:
        rx, ry = rows[x], rows[y]
        cols = columns.get(x)
        if cols is None:
            cols = columns[x] = {}
            for z, w in rx.items():
                for m, c in w.items():
                    cols.setdefault(m, []).append((z, c))
        lo, hi = zs.start, zs.stop
        out: Dict[int, int] = {}  # the t-term of J(x, y, z) at z * dim + t
        get = out.get
        for z, w in ry.items():
            if lo <= z < hi:
                for m, c in w.items():
                    xm = rx.get(m)
                    if xm:
                        for t, d in xm.items():
                            key = z * dim + t
                            out[key] = get(key, 0) + c * d
        xy = rx.get(y)
        if xy:
            for m, c in xy.items():
                for z, w in rows[m].items():
                    if lo <= z < hi:
                        for t, d in w.items():
                            key = z * dim + t
                            out[key] = get(key, 0) - c * d
        s = -1 if parity[x] and parity[y] else 1
        for m, w in ry.items():
            for z, c in cols.get(m, ()):
                if lo <= z < hi:
                    c *= s
                    for t, d in w.items():
                        key = z * dim + t
                        out[key] = get(key, 0) - c * d
        if any(out.values()):
            z = min(key for key, v in out.items() if v) // dim
            return count + z - lo + 1, (x, y, z)
        count += len(zs)
    return count, None


# ---------------------------------------------------------------------------
# serialization
#
# Format: one JSON object with no whitespace, in this key order, with each
# structure constant c written as the string "num/den" of its value, which
# for the integer c of every table is "c/1":
#   {"family":..,"n":..,"basis":["x1*d2",...],
#    "bracket":[[i,j,[[k,"c/1"],...]],...],
#    "parity":[...],"degree":[...],"weight":[[...],...],"cartan":[...]}
# The bracket entries are the nonzero (i, j) in row-major order, each with
# its k ascending.  The text is byte for byte what
# `json.dumps(..., separators=(",", ":"))` gives for the same object.
# `_pieces` writes it one basis row of entries at a time, each distinct
# table entry formatted once, and `model_to_json` joins the pieces.  There
# is no reader: a model file is the text `build` writes for its family and
# n, and `families.model_from_json` builds that model and compares the file
# with the pieces (`first_difference`), so the whole written text never
# exists beside the file's.


def _list_parts(key: str, items: List[str]) -> Iterator[Tuple[str, str]]:
    """(name, text) of a written list field: its key, each item with the
    comma before it, and the closing bracket, named as the item one past
    the last."""
    yield key, f',"{key}":['
    for i, item in enumerate(items):
        yield f"{key}[{i}]", "," + item if i else item
    yield f"{key}[{len(items)}]", "]"


def _head_parts(family: str, n: int, basis: List[BasisDesc]) -> Iterator[Tuple[str, str]]:
    yield "family/n", '{"family":' + json.dumps(family) + ',"n":' + str(n)
    yield from _list_parts("basis", [json.dumps(str(d)) for d in basis])
    yield "bracket", ',"bracket":['


_LIST_END = "the end of the bracket list"


def _tail_parts(A: AlgebraModel) -> Iterator[Tuple[str, str]]:
    yield _LIST_END, "]"
    yield from _list_parts("parity", list(map(str, A.parity)))
    yield from _list_parts("degree", list(map(str, A.degree)))
    yield from _list_parts("weight", ["[" + ",".join(map(str, w)) + "]" for w in A.weight])
    yield from _list_parts("cartan", list(map(str, A.cartan)))
    yield "the end of the object", "}"


def _pieces(A: AlgebraModel) -> Iterator[Tuple[int, List[str]]]:
    """The written text of A in pieces, each a list of parts with what it
    holds: -1 and the head with the basis, then row i and the entries of
    basis row i, for each row that has one, then A.dim and the tail.  A
    row's parts are three per nonzero pair (i, j), j ascending: "[i,"
    (after a comma, but for the first pair of the first row), str(j) and
    the entry's text ',[[k,"num/den"],...]]'.  Each distinct table entry is
    formatted once, cached by the id of its dict: the table holds its dicts
    while the pieces are written, so no id is reused."""
    yield -1, [t for _, t in _head_parts(A.family, A.n, A.basis)]
    table, js, texts = A.table, list(map(str, range(A.dim))), {}
    rows: List[List[int]] = [[] for _ in js]
    for i, j in table:
        rows[i].append(j)
    sep = ""
    for i, cols in enumerate(rows):
        pre, parts = f",[{i},", []
        for j in sorted(cols):
            w = table[i, j]
            if w:
                t = texts.get(id(w))
                if t is None:
                    t = texts[id(w)] = ",[" + ",".join(
                        f'[{k},"{c.numerator}/{c.denominator}"]' for k, c in sorted(w.items())) + "]]"
                parts += (pre, js[j], t)
        if parts:
            parts[0] = sep + pre[1:]
            yield i, parts
            sep = ","
    yield A.dim, [t for _, t in _tail_parts(A)]


def model_to_json(A: AlgebraModel) -> str:
    return "".join("".join(parts) for _, parts in _pieces(A))


# the head as `_head_parts` writes it, with n of at most nine digits
_HEAD = r'\{"family":"([^"\\]*)","n":(0|-?[1-9][0-9]{0,8}),'


def model_head(text: str) -> Tuple[str, int]:
    """The family and n of a model text, read from its head strictly as
    `model_to_json` writes it."""
    head = re.match(_HEAD, text)
    if head is None:
        raise ModelFormatError(
            'family/n: the model file does not start {"family":"<F>","n":<n>, as build writes it'
        )
    return head[1], int(head[2])


# an entry's pair, after the comma before the entry, with indices of at
# most nine digits; a pattern, compiled into `re`'s cache on a difference
_PAIR = r",?\[(0|[1-9][0-9]{0,8}),(0|[1-9][0-9]{0,8}),"


def head_difference(family: str, n: int, basis: List[BasisDesc], text: str) -> Optional[str]:
    """None if text starts as `model_to_json` writes a model of that family,
    n and basis, up to the opening of the bracket list; otherwise the part
    where it first differs, named as `first_difference` names it.  It needs
    no bracket table, so a file can be refused on its head and basis before
    one is built."""
    at = 0
    for key, part in _head_parts(family, n, basis):
        if not text.startswith(part, at):
            return key
        at += len(part)
    return None


def first_difference(A: AlgebraModel, text: str) -> Optional[str]:
    """None if text is what `model_to_json` writes for A, alone or followed
    by one "\\n"; otherwise what the written text holds where text first
    differs from it: a field with its index ("parity[7]"; the index one
    past the last where text goes on with the list), a bracket pair
    ("bracket (3,5)"), another part of the layout, or "text after the
    model".

    The written text is compared piece by piece (`_pieces`), and never
    held whole.  At a bracket entry the pair named is the first in
    row-major order of the entry written there and the one text lists
    there, so an extra pair, a missing one and a changed coefficient are
    each named at their pair; at the end of the bracket list it is the
    pair text lists on with.
    """
    at = 0
    for i, parts in _pieces(A):
        piece = "".join(parts)
        if not text.startswith(piece, at):
            d = len(commonprefix([piece, text[at:at + len(piece)]]))
            if 0 <= i < A.dim:
                keys = sorted(key for key, w in A.table.items() if key[0] == i and w)
                spans = ["".join(parts[k:k + 3]) for k in range(0, len(parts), 3)]
            else:
                keys, spans = zip(*(_head_parts(A.family, A.n, A.basis) if i < 0
                                    else _tail_parts(A)))
            for key, span in zip(keys, spans):
                if d < len(span):
                    break
                at, d = at + len(span), d - len(span)
            if isinstance(key, str) and key != _LIST_END:
                return key
            pair = re.compile(_PAIR).match(text, at)
            if pair is not None:
                theirs = (int(pair[1]), int(pair[2]))
                key = theirs if key == _LIST_END else min(key, theirs)
            return key if isinstance(key, str) else "bracket ({},{})".format(*key)
        at += len(piece)
    return None if text[at:] in ("", "\n") else "text after the model"
