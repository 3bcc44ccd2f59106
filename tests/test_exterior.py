"""Exterior algebra: sign conventions, derivations, gradings."""

import random
from itertools import combinations
from math import comb

from cartansuper.exterior import (
    ExtElem,
    all_monomials,
    ext_mul,
    mono_mask,
    mono_mul,
    mono_parity,
    mono_str,
    partial,
)


def test_mono_mul_sorted_pair():
    sign, prod = mono_mul(mono_mask([1]), mono_mask([2]))
    assert (sign, prod) == (1, mono_mask([1, 2]))


def test_mono_mul_one_transposition():
    sign, prod = mono_mul(mono_mask([2]), mono_mask([1]))
    assert (sign, prod) == (-1, mono_mask([1, 2]))


def test_mono_mul_square_is_zero():
    sign, prod = mono_mul(mono_mask([1]), mono_mask([1]))
    assert sign == 0 and prod is None


def test_partial_first_position():
    f = ExtElem.monomial(4, mono_mask([1, 2]))
    assert partial(1, f) == ExtElem.monomial(4, mono_mask([2]))


def test_partial_past_one_generator():
    f = ExtElem.monomial(4, mono_mask([1, 2]))
    assert partial(2, f) == ExtElem.monomial(4, mono_mask([1]), -1)


def test_partial_absent_generator():
    f = ExtElem.monomial(4, mono_mask([1, 2]))
    assert partial(3, f).is_zero()


def test_ext_mul_distributes():
    one_plus_x1 = ExtElem.one(4) + ExtElem.generator(4, 1)
    x2 = ExtElem.generator(4, 2)
    expect = ExtElem.monomial(4, mono_mask([2])) + ExtElem.monomial(4, mono_mask([1, 2]))
    assert ext_mul(one_plus_x1, x2) == expect


def test_ext_mul_even_blocks_commute():
    a = ExtElem.monomial(4, mono_mask([1, 2]))
    b = ExtElem.monomial(4, mono_mask([3, 4]))
    assert ext_mul(a, b) == ExtElem.monomial(4, mono_mask([1, 2, 3, 4]))
    assert ext_mul(b, a) == ext_mul(a, b)


def test_ext_mul_identity():
    rng = random.Random(3)
    for _ in range(10):
        f = random_elem(rng, 4)
        assert ext_mul(f, ExtElem.one(4)) == f


def random_elem(rng, n, terms=4):
    e = ExtElem.zero(n)
    for _ in range(terms):
        mask = rng.randrange(1 << n)
        e = e + ExtElem.monomial(n, mask, rng.randint(-3, 3))
    return e


def test_partials_anticommute():
    rng = random.Random(4)
    for _ in range(20):
        f = random_elem(rng, 5)
        i, j = rng.randint(1, 5), rng.randint(1, 5)
        assert partial(i, partial(j, f)) == -partial(j, partial(i, f))
        assert partial(i, partial(i, f)).is_zero()


def test_super_leibniz_all_monomial_pairs_n4():
    n = 4
    for a in all_monomials(n):
        fa = ExtElem.monomial(n, a)
        sign = -1 if mono_parity(a) else 1
        for b in all_monomials(n):
            fb = ExtElem.monomial(n, b)
            prod = ext_mul(fa, fb)
            for i in range(1, n + 1):
                lhs = partial(i, prod)
                rhs = ext_mul(partial(i, fa), fb) + ext_mul(fa, partial(i, fb)).scale(sign)
                assert lhs == rhs, (mono_str(a), mono_str(b), i)


def test_dimension_counts():
    for n in (3, 4, 5):
        masks = list(all_monomials(n))
        assert len(masks) == 2**n
        for k in range(n + 1):
            assert sum(1 for m in masks if bin(m).count("1") == k) == comb(n, k)


def test_associativity_random_triples():
    rng = random.Random(5)
    for _ in range(15):
        f, g, h = (random_elem(rng, 4, 3) for _ in range(3))
        assert ext_mul(ext_mul(f, g), h) == ext_mul(f, ext_mul(g, h))


def test_mono_text_round_trip():
    # the indices read back from the text, as a model file's reader would
    for idxs in [(), (1,), (1, 3, 4), (2, 5)]:
        mask = mono_mask(idxs)
        text = mono_str(mask)
        assert mono_mask([int(i) for i in text.split("x")[1:]]) == mask
    assert mono_str(0) == "1"
    assert mono_str(mono_mask([1, 3, 4])) == "x1x3x4"


def test_mono_mul_sign_matches_sorting_parity():
    # oracle: brute-force inversion count of the concatenated index tuple
    for k_a in range(3):
        for a in combinations(range(1, 6), k_a):
            for k_b in range(3):
                for b in combinations(range(1, 6), k_b):
                    if set(a) & set(b):
                        assert mono_mul(mono_mask(a), mono_mask(b))[0] == 0
                        continue
                    seq = list(a) + list(b)
                    inv = sum(
                        1
                        for i in range(len(seq))
                        for j in range(i + 1, len(seq))
                        if seq[i] > seq[j]
                    )
                    sign, prod = mono_mul(mono_mask(a), mono_mask(b))
                    assert sign == (-1) ** inv
                    assert prod == mono_mask(sorted(seq))
