"""Tests for free spaces and tensor-element normalization."""

from fractions import Fraction as F
from random import Random

import pytest

from dipath.errors import (BadInputError, DuplicateLabelError,
                           LengthChainMismatchError)
from dipath.gspace import (
    elem_make,
    elem_normalize,
    free,
)
from dipath.reparam import compose, identity, inverse, mu, tensor
from dipath.sampling import rand_partition, rand_pl


def test_free_segment_space():
    f = free(1, ["*"])
    assert f.length == 1 and f.basis == ("*",)


def test_free_two_labels():
    assert free(1, ["a", "b"]).basis == ("a", "b")


def test_free_rejects_duplicates():
    with pytest.raises(DuplicateLabelError):
        free(1, ["a", "a"])


def test_an_element_needs_a_factor():
    with pytest.raises(BadInputError) as info:
        elem_make(identity(1), [])
    assert (info.value.code, info.value.detail) == (
        "bad_input", "a tensor element needs at least one factor")


def test_free_sphere_basis_for_globe_boundaries():
    # S^0 has the two poles; used by complex fixtures as 2-cell boundaries.
    f = free(2, ["-1", "+1"])
    assert len(f.basis) == 2 and f.length == 2


def test_elem_make_canonical_case():
    e = elem_make(identity(1), [("a", identity(1))])
    assert e.is_canonical()
    assert elem_normalize(e) == e


def test_elem_make_length_chain_checked():
    with pytest.raises(LengthChainMismatchError):
        elem_make(identity(1), [("a", identity(2))])


def test_elem_normalize_single_factor_absorbs_outer():
    # Non-canonical representative with a rescaling as outer map.
    outer = inverse(mu(2))  # [0,1] -> [0,2]
    e = elem_make(outer, [("a", identity(2))])
    n = elem_normalize(e)
    assert n.is_canonical()
    assert n.factors[0].twist == outer
    assert n.total_len == 1


def test_elem_normalize_two_blocks():
    # Outer map made of two half blocks over two unit factors: the block
    # lengths come out (1/2, 1/2) and the twists absorb the pieces.
    outer = tensor(mu(F(1, 2)), mu(F(1, 2)))  # [0,1] -> [0,2]
    e = elem_make(outer, [("a", identity(1)), ("b", identity(1))])
    n = elem_normalize(e)
    assert n.is_canonical()
    assert [f.length for f in n.factors] == [F(1, 2), F(1, 2)]
    assert n.factors[0].twist == mu(F(1, 2))


def test_elem_normalize_idempotent_sampled():
    rng = Random(5)
    for _ in range(40):
        n = rng.randrange(1, 5)
        free_lens = [rng.choice([1, 2, F(1, 2)]) for _ in range(n)]
        inner = rand_partition(rng, 1, n)
        outer = rand_pl(rng, rng.choice([1, 2]), 1)
        parts = [(f"x{i}", rand_pl(rng, inner[i], free_lens[i]))
                 for i in range(n)]
        e = elem_make(compose(outer, inverse(mu(1))), parts)
        once = elem_normalize(e)
        assert elem_normalize(once) == once


def test_identification_invariance():
    # Representatives related by sliding twists through the outer map
    # normalize identically: (psi, x.phi) ~ (phi o psi, x).
    rng = Random(9)
    for _ in range(100):
        n = rng.randrange(1, 5)
        free_lens = [rng.choice([1, 2, F(3, 2)]) for _ in range(n)]
        outer_src = rng.choice([1, 2, F(1, 2)])
        mid = rand_partition(rng, rng.choice([1, 2]), n)
        phis = [rand_pl(rng, mid[i], rng.choice([1, F(1, 2), 2]))
                for i in range(n)]
        psi = rand_pl(rng, outer_src, sum(mid))
        twists = [rand_pl(rng, phis[i].dst_len, free_lens[i]) for i in range(n)]
        lhs = elem_make(psi, [(f"u{i}", compose(phis[i], twists[i]))
                              for i in range(n)])
        rhs = elem_make(compose(psi, tensor(*phis)),
                        [(f"u{i}", twists[i]) for i in range(n)])
        assert elem_normalize(lhs) == elem_normalize(rhs)


def test_elem_normalize_distinguishes_twists():
    a = elem_make(identity(1), [("a", mu(1))])
    b = elem_make(identity(1), [("a", compose(
        mu(1), inverse(mu(1))))])
    assert elem_normalize(a) == elem_normalize(b)
    c = elem_make(identity(1), [("b", mu(1))])
    assert elem_normalize(a) != elem_normalize(c)
