"""The exterior superalgebra on n anticommuting generators x_1, ..., x_n.

Monomials are bitmasks: bit i-1 set means x_i divides the monomial, and the
generators of a monomial are always read in ascending index order.  All signs
come from counting inversions against that ascending order, which pins down
every structure constant used by the vector-field algebras built on top.

Gradings: |x_i| = 1 in Z_2, deg x_i = 1 in Z.  dim of the full algebra is
2^n and the degree-k slice has dimension C(n, k).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, Optional, Tuple

if TYPE_CHECKING:
    from fractions import Fraction

MAX_N = 63  # bitmask monomials; n beyond machine word size is out of range


def check_n(n: int) -> None:
    if not 1 <= n <= MAX_N:
        raise ValueError(f"n must be in 1..{MAX_N}, got {n}")


def mono_mask(indices) -> int:
    """Bitmask of the monomial x_{i1}...x_{ik} from 1-based indices."""
    mask = 0
    for i in indices:
        bit = 1 << (i - 1)
        if mask & bit:
            return 0
        mask |= bit
    return mask


def mono_indices(mask: int) -> Tuple[int, ...]:
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def mono_degree(mask: int) -> int:
    return mask.bit_count()


def mono_parity(mask: int) -> int:
    return mask.bit_count() & 1


def mono_str(mask: int) -> str:
    """Text form "x1x3x4"; the empty monomial prints as "1"."""
    if mask == 0:
        return "1"
    return "".join(f"x{i}" for i in mono_indices(mask))


def all_monomials(n: int) -> Iterator[int]:
    """All 2^n monomial masks, ordered by degree then mask value."""
    masks = sorted(range(1 << n), key=lambda m: (m.bit_count(), m))
    return iter(masks)


def mono_mul(a: int, b: int) -> Tuple[int, Optional[int]]:
    """Product of two monomials: (sign, mask), or (0, None) if they collide.

    The sign is (-1)^inversions for sorting the concatenation a then b back
    into ascending order.
    """
    if a & b:
        return 0, None
    inversions = 0
    bb = b
    pos = 0
    while bb:
        if bb & 1:
            inversions += (a >> (pos + 1)).bit_count()
        bb >>= 1
        pos += 1
    sign = -1 if inversions & 1 else 1
    return sign, a | b


def mono_partial(i: int, mask: int) -> Optional[Tuple[int, int]]:
    """d_i on a monomial: (sign, mask without x_i), or None when x_i is absent.

    d_i is the odd superderivation with d_i(x_j) = delta_ij, so the sign is
    (-1)^(number of generators preceding x_i).
    """
    bit = 1 << (i - 1)
    if not mask & bit:
        return None
    before = (mask & (bit - 1)).bit_count()
    sign = -1 if before & 1 else 1
    return sign, mask ^ bit


class ExtElem:
    """Sparse element of the exterior algebra: monomial mask -> coefficient."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Optional[Dict[int, Fraction]] = None):
        check_n(n)
        self.n = n
        self.terms: Dict[int, Fraction] = {}
        if terms:
            from fractions import Fraction
            for m, c in terms.items():
                c = Fraction(c)
                if c:
                    self.terms[m] = c

    @classmethod
    def zero(cls, n: int) -> "ExtElem":
        return cls(n)

    @classmethod
    def one(cls, n: int) -> "ExtElem":
        return cls(n, {0: 1})

    @classmethod
    def monomial(cls, n: int, mask: int, coeff=1) -> "ExtElem":
        return cls(n, {mask: coeff})

    @classmethod
    def generator(cls, n: int, i: int) -> "ExtElem":
        if not 1 <= i <= n:
            raise ValueError(f"generator index {i} out of 1..{n}")
        return cls(n, {1 << (i - 1): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def parity(self) -> Optional[int]:
        """0 or 1 when Z_2-homogeneous, None for mixed elements."""
        ps = {mono_parity(m) for m in self.terms}
        if len(ps) == 1:
            return ps.pop()
        return None if ps else 0

    def degree(self) -> Optional[int]:
        ds = {mono_degree(m) for m in self.terms}
        if len(ds) == 1:
            return ds.pop()
        return None if ds else 0

    def scale(self, c) -> "ExtElem":
        from fractions import Fraction
        c = Fraction(c)
        if not c:
            return ExtElem(self.n)
        return ExtElem(self.n, {m: x * c for m, x in self.terms.items()})

    def __add__(self, other: "ExtElem") -> "ExtElem":
        self._check(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m, 0) + c
            if s:
                terms[m] = s
            else:
                terms.pop(m, None)
        return ExtElem(self.n, terms)

    def __sub__(self, other: "ExtElem") -> "ExtElem":
        return self + other.scale(-1)

    def __neg__(self) -> "ExtElem":
        return self.scale(-1)

    def __mul__(self, other: "ExtElem") -> "ExtElem":
        return ext_mul(self, other)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExtElem)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def _check(self, other: "ExtElem") -> None:
        if self.n != other.n:
            raise ValueError(f"mixed generator counts {self.n} and {other.n}")

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=lambda m: (mono_degree(m), m)):
            c = self.terms[m]
            parts.append(f"{c}*{mono_str(m)}")
        return " + ".join(parts)


def ext_mul(f: ExtElem, g: ExtElem) -> ExtElem:
    """Bilinear extension of the monomial product."""
    f._check(g)
    terms: Dict[int, Fraction] = {}
    for mf, cf in f.terms.items():
        for mg, cg in g.terms.items():
            sign, prod = mono_mul(mf, mg)
            if sign == 0:
                continue
            c = cf * cg if sign > 0 else -cf * cg
            s = terms.get(prod, 0) + c
            if s:
                terms[prod] = s
            else:
                terms.pop(prod, None)
    return ExtElem(f.n, terms)


def partial(i: int, f: ExtElem) -> ExtElem:
    """The odd superderivation d_i, extended linearly."""
    if not 1 <= i <= f.n:
        raise ValueError(f"index {i} out of 1..{f.n}")
    terms: Dict[int, Fraction] = {}
    for m, c in f.terms.items():
        hit = mono_partial(i, m)
        if hit is None:
            continue
        sign, m2 = hit
        x = c if sign > 0 else -c
        s = terms.get(m2, 0) + x
        if s:
            terms[m2] = s
        else:
            terms.pop(m2, None)
    return ExtElem(f.n, terms)
