"""Finite-dimensional graded Lie superalgebra container.

A model is a basis-indexed structure: a sparse bracket table over the basis,
plus per-basis-element parity (Z_2), degree (Z, or Z_n residues stored as
representatives in {-1, ..., n-2}), an integer weight vector (the eigenvalue
list against the chosen Cartan elements), and the indices of a basis of the
Cartan subalgebra.

The bracket table is populated once by the constructors in
:mod:`cartansuper.families` and then only read; downstream solvers consult it
on the order of dim^2 times, so lookups have to stay O(1).

Axioms checked by :func:`check_axioms`:

* super anticommutativity  [x, y] = -(-1)^{|x||y|} [y, x]
* super Jacobi  [x, [y, z]] = [[x, y], z] + (-1)^{|x||y|} [y, [x, z]]
* parity additivity  [L_p, L_q] <= L_{p+q mod 2}
* degree additivity  [L_i, L_j] <= L_{i+j}  (mod n for the Z_n-graded family)
* weight additivity  [L_a, L_b] <= L_{a+b}

Jacobi can be proved on a generating set: :func:`generators` picks basis
elements whose closure under their own adjoint maps is all of L.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Dict, Iterable, List, Optional, Tuple, Union

from .exterior import mono_str, parse_mono
from .linalg import Echelon, IntVec, Matrix, Vec, vec_axpy_inplace

SuperVec = Vec
WeightVec = Tuple[int, ...]

FAMILIES = ("W", "S", "Stilde", "H")


class ModelFormatError(ValueError):
    """Raised when serialized model data does not parse or validate."""


# ---------------------------------------------------------------------------
# basis descriptors


@dataclass(frozen=True)
class VectorField:
    """The monomial vector field f * d_j."""

    mono: int
    j: int

    def __str__(self) -> str:
        return f"{mono_str(self.mono)}*d{self.j}"


@dataclass(frozen=True)
class Ham:
    """The Hamiltonian field obtained by applying D_H to a monomial."""

    mono: int

    def __str__(self) -> str:
        return f"DH({mono_str(self.mono)})"


@dataclass(frozen=True)
class GradingElement:
    """The Euler field sum_i x_i d_i."""

    def __str__(self) -> str:
        return "C"


@dataclass(frozen=True)
class Combo:
    """A rational combination of monomial vector fields (kernel-basis rows)."""

    terms: Tuple[Tuple[Fraction, int, int], ...]  # (coeff, mono, j)

    def __str__(self) -> str:
        return " + ".join(
            f"{c}*{mono_str(m)}*d{j}" for c, m, j in self.terms
        )


BasisDesc = Union[VectorField, Ham, GradingElement, Combo]


def parse_desc(s: str) -> BasisDesc:
    s = s.strip()
    if s == "C":
        return GradingElement()
    if s.startswith("DH(") and s.endswith(")"):
        return Ham(parse_mono(s[3:-1]))
    if " + " in s:
        terms = []
        for part in s.split(" + "):
            c, m, d = part.split("*")
            if not d.startswith("d"):
                raise ModelFormatError(f"bad combo term {part!r}")
            terms.append((Fraction(c), parse_mono(m), int(d[1:])))
        return Combo(tuple(terms))
    try:
        m, d = s.split("*")
    except ValueError:
        raise ModelFormatError(f"bad basis descriptor {s!r}") from None
    if not d.startswith("d"):
        raise ModelFormatError(f"bad basis descriptor {s!r}")
    return VectorField(parse_mono(m), int(d[1:]))


# ---------------------------------------------------------------------------
# the algebra model


class AlgebraModel:
    """Graded Lie superalgebra with an explicit sparse bracket table."""

    def __init__(
        self,
        family: str,
        n: int,
        basis: List[BasisDesc],
        table: Dict[Tuple[int, int], Vec],
        parity: List[int],
        degree: List[int],
        weight: List[WeightVec],
        cartan: List[int],
        grading_modulus: Optional[int] = None,
        w_coords: Optional[List[Vec]] = None,
        cartan_chain: Optional[List[Vec]] = None,
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


@dataclass
class AxiomReport:
    ok: bool
    pairs_checked: int
    triples_checked: int
    first_violation: Optional[str] = None

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "pairs_checked": self.pairs_checked,
            "triples_checked": self.triples_checked,
            "first_violation": self.first_violation,
        }


def table_denominator(A: AlgebraModel) -> int:
    """The lcm of the bracket table's denominators; 1 for every built model.

    Scaling every structure constant by this one constant leaves each span
    built from them alone.
    """
    return lcm(*(c.denominator for w in A.table.values() for c in w.values()))


def int_table(A: AlgebraModel) -> Dict[Tuple[int, int], IntVec]:
    """The bracket table times `table_denominator`, with int entries.

    Both sides of a Jacobi triple are sums of products of two structure
    constants, so the scaling multiplies them alike and keeps every
    violation; a Leibniz row is linear in them and keeps its row space.
    """
    den = table_denominator(A)
    return {
        key: {k: c.numerator * (den // c.denominator) for k, c in w.items()}
        for key, w in A.table.items()
    }


def _bracket_left(table: dict, i: int, v: Vec) -> Vec:
    out: Vec = {}
    for m, c in v.items():
        w = table.get((i, m))
        if w:
            vec_axpy_inplace(out, c, w)
    return out


def _bracket_right(table: dict, v: Vec, k: int) -> Vec:
    out: Vec = {}
    for m, c in v.items():
        w = table.get((m, k))
        if w:
            vec_axpy_inplace(out, c, w)
    return out


# ---------------------------------------------------------------------------
# generating sets


def generators(
    A: AlgebraModel, candidates: Optional[Iterable[int]] = None
) -> Optional[List[int]]:
    """Basis indices G whose closure under ad G is all of L, or None.

    The closure of G is the smallest subspace that contains G and is closed
    under ad g for every g in G.  Candidates (every basis index by default)
    are taken in order of degree, then index; one joins G when it is not in
    the closure of the G chosen so far, so from the default candidates G
    always exists, the whole basis at worst.  None means the candidates ran
    out before the closure was all of L.

    The closure is computed exactly from the bracket table and uses no
    Jacobi identity, so it can be trusted on a table not yet known to be a
    Lie superalgebra.  Every vector in it is a left-normed bracket
    [g_1, [g_2, ... [g_k, g]]] of generators or a sum of such.
    """
    if candidates is None:
        candidates = range(A.dim)
    one = Fraction(1)
    ech = Echelon()
    span: List[Vec] = []  # a basis of the closure, as found
    applied: List[int] = []  # per span vector, how many generators it has met
    G: List[int] = []
    for g in sorted(set(candidates), key=lambda i: (A.degree[i], i)):
        if ech.rank == A.dim:
            break
        if not ech.insert({g: one}):
            continue
        G.append(g)
        span.append({g: one})
        applied.append(0)
        v = 0
        while v < len(span):
            for h in G[applied[v]:]:
                w = _bracket_left(A.table, h, span[v])
                if w and ech.insert(w):
                    span.append(w)
                    applied.append(0)
            applied[v] = len(G)
            v += 1
    return G if ech.rank == A.dim else None


def check_axioms(
    A: AlgebraModel,
    jacobi_triples: Optional[int] = None,
    seed: int = 0,
    generating_set: Optional[Iterable[int]] = None,
) -> AxiomReport:
    """Verify the superalgebra axioms plus parity, degree and weight
    additivity.

    Anticommutativity and the grading checks always run over every basis
    pair.  Jacobi, in the form "ad x is a superderivation", runs in one of
    three modes:

    * generator mode, when ``generating_set`` is given and `generators`
      confirms that (a subset G of) it generates L: every triple (g, y, z)
      with g in G, |G| * dim^2 triples.  This proves Jacobi on all of L.
      The x for which ad x is a superderivation form a subalgebra: for
      homogeneous x and y among them, Jacobi at (x, y, .) says
      ad [x, y] = [ad x, ad y], a supercommutator of superderivations, and
      [x, y] is homogeneous by parity additivity.  That subalgebra contains
      G, hence every left-normed bracket of G, hence all of L.  A set that
      does not generate L is refused, and the mode below runs instead;
    * full mode, when ``jacobi_triples`` is None: all dim^3 ordered triples;
    * sampled mode: that many seeded random triples, which proves nothing.

    The first violation, if any, is reported with the offending pair or
    triple.
    """
    dim = A.dim
    pairs = 0

    def fail(msg: str, triples: int = 0) -> AxiomReport:
        return AxiomReport(False, pairs, triples, msg)

    for i in range(dim):
        pi = A.parity[i]
        for j in range(i, dim):
            pairs += 1
            w = A.bracket_basis(i, j)
            back = A.bracket_basis(j, i)
            sign = -1 if (pi * A.parity[j]) % 2 == 0 else 1
            expect = {k: sign * c for k, c in w.items()}
            if back != expect:
                return fail(f"anticommutativity fails at pair ({i},{j})")
            dsum = A.deg_add(A.degree[i], A.degree[j])
            wsum = tuple(x + y for x, y in zip(A.weight[i], A.weight[j]))
            psum = (pi + A.parity[j]) % 2
            for k in w:
                if A.degree[k] != dsum:
                    return fail(f"degree additivity fails at pair ({i},{j})")
                if A.weight[k] != wsum:
                    return fail(f"weight additivity fails at pair ({i},{j})")
                if A.parity[k] != psum:
                    return fail(f"parity additivity fails at pair ({i},{j})")

    G = None if generating_set is None else generators(A, generating_set)
    if G is not None:
        triple_iter = ((i, j, k) for i in G for j in range(dim) for k in range(dim))
    elif jacobi_triples is None:
        triple_iter = (
            (i, j, k) for i in range(dim) for j in range(dim) for k in range(dim)
        )
    else:
        rng = random.Random(seed)
        triple_iter = (
            (rng.randrange(dim), rng.randrange(dim), rng.randrange(dim))
            for _ in range(jacobi_triples)
        )

    table, parity = int_table(A), A.parity
    triples = 0
    for i, j, k in triple_iter:
        triples += 1
        inner = table.get((j, k))
        lhs = _bracket_left(table, i, inner) if inner else {}
        left = table.get((i, j))
        rhs = _bracket_right(table, left, k) if left else {}
        inner2 = table.get((i, k))
        if inner2:
            sign = -1 if parity[i] * parity[j] % 2 else 1
            vec_axpy_inplace(rhs, sign, _bracket_left(table, j, inner2))
        if lhs != rhs:
            return fail(f"Jacobi fails at triple ({i},{j},{k})", triples)

    return AxiomReport(True, pairs, triples)


# ---------------------------------------------------------------------------
# serialization
#
# Format (one JSON object, canonical key order, fractions as "num/den"):
#   {family, n, basis: ["x1*d2", ...],
#    bracket: [[i, j, [[k, "num/den"], ...]], ...],
#    parity: [...], degree: [...], weight: [[...], ...], cartan: [...]}


def _frac_str(c: Fraction) -> str:
    return f"{c.numerator}/{c.denominator}"


def to_json_dict(A: AlgebraModel) -> dict:
    bracket = []
    for (i, j) in sorted(A.table):
        w = A.table[(i, j)]
        if not w:
            continue
        bracket.append([i, j, [[k, _frac_str(w[k])] for k in sorted(w)]])
    return {
        "family": A.family,
        "n": A.n,
        "basis": [str(d) for d in A.basis],
        "bracket": bracket,
        "parity": list(A.parity),
        "degree": list(A.degree),
        "weight": [list(w) for w in A.weight],
        "cartan": list(A.cartan),
    }


def model_to_json(A: AlgebraModel) -> str:
    return json.dumps(to_json_dict(A), separators=(",", ":"))


# descriptors and coefficients exactly as `str` and `_frac_str` write them
_INT = r"-?(0|[1-9][0-9]*)"
_MONO = r"(1|(x[1-9][0-9]*)+)"
_FIELD = rf"{_MONO}\*d[1-9][0-9]*"
_TERM = rf"{_INT}(/[1-9][0-9]*)?\*{_FIELD}"
_DESC = re.compile(rf"C|DH\({_MONO}\)|{_FIELD}|{_TERM}( \+ {_TERM})+")
_NUM_DEN = re.compile(rf"{_INT}/[1-9][0-9]*")


def _not_int(x, name: str) -> ValueError:
    return ValueError(f"{name}: expected a JSON integer, got {json.dumps(x, default=repr)}")


def _ints(xs, name: str) -> List[int]:
    """The list xs if every entry is a JSON integer (not a bool, float or string)."""
    for i, x in enumerate(xs):
        if type(x) is not int:
            raise _not_int(x, f"{name}[{i}]")
    return list(xs)


def _written(x, form: re.Pattern, name: str) -> str:
    """x itself if it is a string in the form `model_to_json` writes."""
    if not (isinstance(x, str) and form.fullmatch(x)):
        raise ValueError(f"{name}: malformed text {json.dumps(x, default=repr)}")
    return x


def from_json_dict(obj: dict) -> AlgebraModel:
    """Parse a model object; every malformed field is named in the error.

    Integer fields must be JSON integers, and the integers and fractions
    inside strings must be written as `model_to_json` writes them.
    """
    try:
        family = obj["family"]
        n = obj["n"]
        if type(n) is not int:
            raise _not_int(n, "family/n")
        basis = [
            parse_desc(_written(s, _DESC, f"basis[{i}]"))
            for i, s in enumerate(obj["basis"])
        ]
        dim = len(basis)
        table: Dict[Tuple[int, int], Vec] = {}
        coeffs: Dict[str, Fraction] = {}  # each distinct coefficient text, parsed once
        for e, (i, j, entries) in enumerate(obj["bracket"]):
            i, j = _ints((i, j), f"bracket[{e}]")
            w = {}
            for k, c in entries:
                x = coeffs.get(c) if type(c) is str else None
                if x is None:
                    x = coeffs[c] = Fraction(_written(c, _NUM_DEN, f"bracket ({i},{j})"))
                if type(k) is not int:
                    raise _not_int(k, f"bracket ({i},{j})")
                w[k] = x
            if w:
                table[(i, j)] = w
        parity = _ints(obj["parity"], "parity")
        degree = _ints(obj["degree"], "degree")
        weight = [tuple(_ints(w, f"weight[{i}]")) for i, w in enumerate(obj["weight"])]
        cartan = _ints(obj["cartan"], "cartan")
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"malformed model data: {exc}") from exc
    if family not in FAMILIES:
        raise ModelFormatError(f"unknown family {family!r}")
    if not (len(parity) == len(degree) == len(weight) == dim):
        raise ModelFormatError("basis/parity/degree/weight length mismatch")
    for (i, j), w in table.items():
        if not (0 <= i < dim and 0 <= j < dim) or any(
            not 0 <= k < dim for k in w
        ):
            raise ModelFormatError(f"bracket index out of range at ({i},{j})")
    if any(not 0 <= c < dim for c in cartan):
        raise ModelFormatError("cartan index out of range")
    modulus = n if family == "Stilde" else None
    return AlgebraModel(
        family, n, basis, table, parity, degree, weight, cartan, modulus
    )


def model_from_json(text: str) -> AlgebraModel:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ModelFormatError("model JSON must be an object")
    return from_json_dict(obj)
