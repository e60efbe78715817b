"""Tests for the piecewise-linear reparametrization algebra.

The interpolation oracle below is an independent re-implementation of
pointwise evaluation (no bisect, no shared code) used to pin down derived
expected values before trusting the library's own ``pl_eval``.
"""

from fractions import Fraction as F
from math import gcd
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dipath.errors import (
    BadEndpointsError,
    EngineError,
    LengthMismatchError,
    LengthSumMismatchError,
    NonMonotonicError,
    OutOfDomainError,
)
from dipath.rational import as_length
from dipath.reparam import (
    PLHomeo,
    _canonical,
    compose,
    decompose,
    identity,
    inverse,
    make_pl,
    mu,
    pl_eval,
    pl_eval_inv,
    pl_from_json,
    split,
    tensor,
)
from dipath.sampling import (
    rand_fraction,
    rand_nonidentity_pl,
    rand_partition,
    rand_pl,
)


def oracle_eval(breaks, t):
    """Straight-line interpolation over an explicit break list."""
    t = F(t)
    for (x1, y1), (x2, y2) in zip(breaks, breaks[1:]):
        if x1 <= t <= x2:
            return y1 + (y2 - y1) * (t - x1) / (x2 - x1)
    raise AssertionError("t outside domain")


HALF_QUARTER = [(0, 0), (F(1, 2), F(1, 4)), (1, 1)]


def test_rand_nonidentity_pl_gives_up_with_an_engine_error():
    # one linear piece from [0,1] onto [0,1] is always the identity
    with pytest.raises(EngineError, match="non-identity"):
        rand_nonidentity_pl(Random(0), 1, max_segments=1)


# the Fraction generators the integer ones replaced, kept as the reference
DENOMS = (2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 16)


def ref_fraction(rng, lo, hi, max_den=16):
    lo, hi = F(lo), F(hi)
    while True:
        den = rng.choice([d for d in DENOMS if d <= max_den])
        x = lo + (hi - lo) * F(rng.randrange(1, den), den)
        if lo < x < hi:
            return x


def ref_partition(rng, total, n):
    total = F(total)
    cuts = sorted(ref_fraction(rng, 0, total) for _ in range(n - 1))
    while len(set(cuts)) != n - 1:
        cuts = sorted(ref_fraction(rng, 0, total) for _ in range(n - 1))
    pts = [F(0)] + cuts + [total]
    return [b - a for a, b in zip(pts, pts[1:])]


def ref_pl(rng, src, dst, max_segments=8):
    src, dst = F(src), F(dst)
    n = rng.randrange(1, max_segments + 1)
    xs = sorted(set(ref_fraction(rng, 0, src) for _ in range(n - 1)))
    ys = sorted(set(ref_fraction(rng, 0, dst) for _ in range(len(xs))))
    while len(ys) != len(xs):
        ys = sorted(set(ref_fraction(rng, 0, dst) for _ in range(len(xs))))
    return make_pl(src, dst, [(0, 0), *zip(xs, ys), (src, dst)])


@pytest.mark.parametrize("seed", range(6))
def test_integer_generators_match_the_fraction_reference(seed):
    # same values from the same rng calls, so seeded suites are unchanged
    ours, ref = Random(seed), Random(seed)
    for _ in range(40):
        src = ours.choice([1, 2, F(1, 2), F(3, 7)])
        dst = ref.choice([1, 2, F(1, 2), F(3, 7)])
        segs = ours.randrange(1, 12)
        assert ref.randrange(1, 12) == segs
        phi = rand_pl(ours, src, dst, segs)
        assert phi == ref_pl(ref, src, dst, segs)
        assert_canonical_points(phi)
        n = ours.randrange(1, 9)
        assert ref.randrange(1, 9) == n
        assert rand_partition(ours, src, n) == ref_partition(ref, src, n)
        for lo, hi, max_den in ((-1, 1, 16), (F(1, 3), 2, 5), (0, dst, 2)):
            x = rand_fraction(ours, lo, hi, max_den)
            assert type(x) is F and x == ref_fraction(ref, lo, hi, max_den)
    assert ours.getstate() == ref.getstate()


def test_generators_refuse_empty_requests():
    # an empty interval or no parts at all used to make the draws loop
    with pytest.raises(EngineError, match="strictly inside"):
        rand_fraction(Random(0), 1, 1)
    with pytest.raises(EngineError, match="0 parts"):
        rand_partition(Random(0), 1, 0)


def test_empty_lengths_and_empty_tensors_are_refused():
    for call, args, code, detail in [
            (as_length, (0,), "bad_length", "length must be > 0, got 0"),
            (tensor, (), "bad_input", "tensor needs at least one factor")]:
        with pytest.raises(EngineError) as info:
            call(*args)
        assert (info.value.code, info.value.detail) == (code, detail)


def test_make_pl_identity():
    assert make_pl(1, 1, [(0, 0), (1, 1)]) == identity(1)


def test_make_pl_removes_collinear_break():
    assert make_pl(1, 1, [(0, 0), (F(1, 2), F(1, 2)), (1, 1)]) == identity(1)


def test_make_pl_two_slopes_matches_oracle():
    phi = make_pl(1, 1, HALF_QUARTER)
    for t in (F(1, 2), F(3, 4), F(1, 8), F(7, 8)):
        assert pl_eval(phi, t) == oracle_eval(HALF_QUARTER, t)
    assert pl_eval(phi, F(1, 2)) == F(1, 4)
    assert pl_eval(phi, F(3, 4)) == F(5, 8)


def test_make_pl_rejects_bad_endpoints():
    with pytest.raises(BadEndpointsError):
        make_pl(1, 1, [(0, 0), (1, 2)])
    with pytest.raises(BadEndpointsError):
        make_pl(1, 1, [(F(1, 8), 0), (1, 1)])
    with pytest.raises(BadEndpointsError):
        make_pl(1, 1, [(1, 1)])


def test_bad_endpoint_details_print_rationals():
    with pytest.raises(BadEndpointsError) as first:
        make_pl(1, 1, [(0, F(1, 2)), (1, 1)])
    assert str(first.value) == "first break must be (0, 0), got (0, 1/2)"
    with pytest.raises(BadEndpointsError) as last:
        make_pl(2, 1, [(0, 0), (F(3, 2), 1)])
    assert str(last.value) == "last break must be (2, 1), got (3/2, 1)"


def test_make_pl_rejects_non_monotonic():
    with pytest.raises(NonMonotonicError):
        make_pl(1, 1, [(0, 0), (F(1, 2), F(3, 4)), (F(1, 2), F(7, 8)), (1, 1)])
    with pytest.raises(NonMonotonicError):
        make_pl(1, 1, [(0, 0), (F(1, 2), F(3, 4)), (F(3, 4), F(1, 2)), (1, 1)])


def test_mu_halves():
    assert pl_eval(mu(2), 1) == F(1, 2)
    assert pl_eval(mu(2), 2) == 1
    assert mu(1) == identity(1)


def test_mu_inverse_roundtrip():
    assert compose(mu(3), inverse(mu(3))) == identity(3)


def test_eval_endpoints_and_domain():
    assert pl_eval(identity(1), F(2, 3)) == F(2, 3)
    with pytest.raises(OutOfDomainError):
        pl_eval(mu(2), 3)
    with pytest.raises(OutOfDomainError):
        pl_eval(mu(2), -1)


def test_eval_inv_is_inverse_evaluation():
    phi = make_pl(1, 1, HALF_QUARTER)
    for t in (F(0), F(1, 4), F(1, 2), F(5, 8), F(1)):
        assert pl_eval_inv(phi, pl_eval(phi, t)) == t


def test_compose_identity_neutral():
    phi = make_pl(1, 1, HALF_QUARTER)
    assert compose(phi, identity(1)) == phi
    assert compose(identity(1), phi) == phi


def test_compose_with_inverse_is_identity():
    assert compose(mu(2), inverse(mu(2))) == identity(2)


def test_compose_of_mutually_inverse_maps():
    phi = make_pl(1, 1, HALF_QUARTER)
    psi = make_pl(1, 1, [(0, 0), (F(1, 4), F(1, 2)), (1, 1)])
    comp = compose(phi, psi)
    # The two maps are inverse: check against the eval oracle at 5 points.
    for t in (F(1, 8), F(1, 3), F(1, 2), F(2, 3), F(9, 10)):
        assert pl_eval(comp, t) == t
    assert comp == identity(1)


def test_compose_with_inverse_straightens_every_tie_of_a_long_map():
    # every interior break of phi meets one of inverse(phi): 126 ties, each
    # collinear in the composite
    phi = make_pl(1, 1, [(F(k, 127), F(k * k, 127 * 127)) for k in range(128)])
    assert len(phi.pts) == 128
    assert compose(phi, inverse(phi)) == identity(1)
    assert compose(inverse(phi), phi) == identity(1)


def test_compose_length_mismatch():
    with pytest.raises(LengthMismatchError):
        compose(mu(2), mu(2))


def test_inverse_swaps_pairs():
    phi = make_pl(1, 1, HALF_QUARTER)
    assert inverse(phi) == make_pl(1, 1, [(0, 0), (F(1, 4), F(1, 2)), (1, 1)])
    assert inverse(identity(5)) == identity(5)
    assert inverse(mu(2)) == make_pl(1, 2, [(0, 0), (1, 2)])


def test_tensor_of_half_rescalings_is_inverse_mu2():
    # mu_{1/2} maps [0,1/2] onto [0,1]; two blocks give [0,1] -> [0,2].
    assert tensor(mu(F(1, 2)), mu(F(1, 2))) == inverse(mu(2))


def test_tensor_singleton_and_identity_blocks():
    phi = make_pl(1, 1, HALF_QUARTER)
    assert tensor(phi) == phi
    assert tensor(identity(1), identity(2)) == identity(3)


def test_decompose_recovers_tensor_factors():
    parts = decompose(tensor(mu(F(1, 2)), mu(F(1, 2))), [F(1, 2), F(1, 2)])
    assert parts == (mu(F(1, 2)), mu(F(1, 2)))


def test_decompose_identity():
    parts = decompose(identity(1), [F(1, 3), F(2, 3)])
    assert parts == (identity(F(1, 3)), identity(F(2, 3)))


def test_decompose_forced_target_lengths():
    phi = make_pl(1, 1, HALF_QUARTER)
    left, right = decompose(phi, [F(1, 2), F(1, 2)])
    # First target length is phi(1/2) = 1/4, checked by the eval oracle.
    assert oracle_eval(HALF_QUARTER, F(1, 2)) == F(1, 4)
    assert left == make_pl(F(1, 2), F(1, 4), [(0, 0), (F(1, 2), F(1, 4))])
    assert right == make_pl(F(1, 2), F(3, 4), [(0, 0), (F(1, 2), F(3, 4))])


def test_decompose_length_sum_mismatch():
    with pytest.raises(LengthSumMismatchError):
        decompose(identity(1), [F(1, 3), F(1, 3)])


def test_equals_is_pointwise():
    assert identity(1) == mu(1)
    assert mu(2) != inverse(mu(2))


def test_json_roundtrip():
    phi = make_pl(1, 2, [(0, 0), (F(1, 3), F(1, 2)), (1, 2)])
    assert pl_from_json(phi.to_json()) == phi
    assert phi.to_json()["breaks"][1] == ["1/3", "1/2"]


def test_repr_is_readable():
    assert "PLHomeo" in repr(mu(2))


def test_group_laws_sampled():
    rng = Random(7)
    for _ in range(60):
        phi = rand_pl(rng, 1, rng.choice([1, 2, F(1, 2), F(3, 2)]))
        psi = rand_pl(rng, phi.dst_len, rng.choice([1, 2, F(5, 3)]))
        chi = rand_pl(rng, psi.dst_len, 1)
        assert compose(phi, inverse(phi)) == identity(phi.src_len)
        assert compose(inverse(phi), phi) == identity(phi.dst_len)
        assert compose(compose(phi, psi), chi) == compose(phi, compose(psi, chi))


def test_tensor_decompose_roundtrips_sampled():
    rng = Random(11)
    for _ in range(60):
        phi = rand_pl(rng, 1, 1)
        lens = rand_partition(rng, 1, rng.randrange(1, 5))
        parts = decompose(phi, lens)
        assert tensor(*parts) == phi
        factors = tuple(
            rand_pl(rng, ell, rng.choice([1, F(1, 2), F(4, 3)]))
            for ell in rand_partition(rng, 1, rng.randrange(1, 4)))
        assert decompose(tensor(*factors),
                         [f.src_len for f in factors]) == factors


def test_tensor_associative_sampled():
    rng = Random(13)
    for _ in range(30):
        a = rand_pl(rng, F(1, 2), F(1, 3))
        b = rand_pl(rng, F(1, 4), F(2, 3))
        c = rand_pl(rng, F(1, 4), 1)
        assert tensor(tensor(a, b), c) == tensor(a, b, c)


def test_partial_sum_decomposition_property():
    # A map assembled from blocks with prescribed source/target lengths
    # decomposes back with exactly those target lengths.
    rng = Random(17)
    for _ in range(40):
        n = rng.randrange(1, 5)
        lens = rand_partition(rng, 1, n)
        dst_lens = rand_partition(rng, 1, n)
        phi = tensor(*(rand_pl(rng, a, b) for a, b in zip(lens, dst_lens)))
        assert phi.src_len == 1 and phi.dst_len == 1
        parts = decompose(phi, lens)
        assert [p.dst_len for p in parts] == dst_lens


def test_direct_construction_is_discouraged_but_equal_when_canonical():
    # points are (xn, xd, yn, yd) in lowest terms: the breaks (0, 0), (1, 1)
    shady = PLHomeo(((0, 1, 0, 1), (1, 1, 1, 1)))
    assert shady == identity(1)


# ---------------------------------------------------------------------------
# property tests of the integer-pair sweeps against slow Fraction oracles

PROPERTY = settings(max_examples=40, deadline=None, database=None)
lengths = st.builds(F, st.integers(1, 24), st.sampled_from([1, 2, 3, 4, 6, 7]))


def grid_points(draw, total, k):
    """k distinct ascending interior points of (0, total) on a random grid."""
    if k == 0:
        return []
    grid = draw(st.integers(k + 1, 4 * k + 8))
    cells = draw(st.lists(st.integers(1, grid - 1), min_size=k, max_size=k,
                          unique=True))
    return [total * F(c, grid) for c in sorted(cells)]


@st.composite
def pl_maps(draw, src=None, dst=None, max_breaks=24):
    src = draw(lengths) if src is None else src
    dst = draw(lengths) if dst is None else dst
    k = draw(st.integers(0, max_breaks - 2))
    xs = grid_points(draw, src, k)
    ys = grid_points(draw, dst, k)
    return make_pl(src, dst, [(0, 0), *zip(xs, ys), (src, dst)])


@st.composite
def partitions(draw, total, max_parts=12):
    n = draw(st.integers(1, max_parts))
    cuts = grid_points(draw, total, n - 1)
    return [b - a for a, b in zip([F(0), *cuts], [*cuts, total])]


@st.composite
def map_and_partition(draw, axis, max_breaks=24):
    phi = draw(pl_maps(max_breaks=max_breaks))
    return phi, draw(partitions(phi.breaks[-1][axis]))


def assert_blocks_of(phi, blocks):
    """Each block is phi between consecutive cuts, shifted to start at
    (0, 0), with strictly increasing breaks; checked by the oracle."""
    a = F(0)
    for block in blocks:
        bs = block.breaks
        assert all(x1 < x2 and y1 < y2
                   for (x1, y1), (x2, y2) in zip(bs, bs[1:]))
        fa = oracle_eval(phi.breaks, a)
        for t, v in bs:
            assert oracle_eval(phi.breaks, a + t) - fa == v
        a += block.src_len
    assert a == phi.src_len


@PROPERTY
@given(map_and_partition(axis=1))
def test_split_matches_cuts_then_decompose(case):
    phi, dst_lens = case
    cuts, acc = [], F(0)
    for ell in dst_lens:
        acc += ell
        cuts.append(pl_eval_inv(phi, acc))
    src_lens = [b - a for a, b in zip([F(0)] + cuts, cuts)]
    blocks = split(phi, dst_lens)
    assert blocks == decompose(phi, src_lens)
    assert [b.dst_len for b in blocks] == dst_lens
    assert_blocks_of(phi, blocks)
    assert tensor(*blocks) == phi


@PROPERTY
@given(st.data())
def test_compose_matches_pointwise_composite(data):
    phi = data.draw(pl_maps())
    psi = data.draw(pl_maps(src=phi.dst_len))
    comp = compose(phi, psi)
    pulled = [oracle_eval([(y, x) for x, y in phi.breaks], u)
              for u, _ in psi.breaks]
    times = {x for x, _ in phi.breaks + comp.breaks} | set(pulled)
    for t in times:
        expected = oracle_eval(psi.breaks, oracle_eval(phi.breaks, t))
        assert oracle_eval(comp.breaks, t) == expected
        assert pl_eval(psi, pl_eval(phi, t)) == expected


@PROPERTY
@given(map_and_partition(axis=0, max_breaks=128))
def test_tensor_undoes_decompose_on_long_maps(case):
    phi, lens = case
    blocks = decompose(phi, lens)
    assert [b.src_len for b in blocks] == lens
    assert_blocks_of(phi, blocks)
    assert tensor(*blocks) == phi


@PROPERTY
@given(st.data())
def test_canonical_leaves_no_collinear_break(data):
    phi = data.draw(pl_maps())
    pts = list(phi.breaks)
    # put extra breaks on the graph of phi, which canonical must drop again
    for i in sorted(data.draw(st.sets(st.integers(0, len(pts) - 2))),
                    reverse=True):
        (x1, y1), (x2, y2) = pts[i], pts[i + 1]
        r = data.draw(st.sampled_from([F(1, 2), F(1, 3), F(3, 4)]))
        pts.insert(i + 1, (x1 + r * (x2 - x1), y1 + r * (y2 - y1)))
    out = PLHomeo(_canonical([(x.numerator, x.denominator, y.numerator,
                               y.denominator) for x, y in pts])).breaks
    assert out == phi.breaks
    for (x1, y1), (x2, y2), (x3, y3) in zip(out, out[1:], out[2:]):
        assert (y2 - y1) * (x3 - x2) != (y3 - y2) * (x2 - x1)


def assert_composite_is_canonical_oracle(phi, psi):
    """compose(phi, psi) equals make_pl of the oracle's values at every
    break of either map: the fully canonical composite."""
    comp = compose(phi, psi)
    pulled = [oracle_eval([(y, x) for x, y in phi.breaks], u)
              for u, _ in psi.breaks]
    times = sorted({x for x, _ in phi.breaks} | set(pulled))
    assert comp == make_pl(phi.src_len, psi.dst_len, [
        (t, oracle_eval(psi.breaks, oracle_eval(phi.breaks, t)))
        for t in times])
    assert_canonical_points(comp)
    out = comp.breaks
    for (x1, y1), (x2, y2), (x3, y3) in zip(out, out[1:], out[2:]):
        assert (y2 - y1) * (x3 - x2) != (y3 - y2) * (x2 - x1)


@PROPERTY
@given(st.data(), st.sampled_from(["left", "right", "both"]))
def test_compose_with_a_linear_map_matches_pointwise_oracle(data, linear):
    src, mid, dst = data.draw(lengths), data.draw(lengths), data.draw(lengths)
    phi = (make_pl(src, mid, [(0, 0), (src, mid)]) if linear != "right"
           else data.draw(pl_maps(src, mid, max_breaks=64)))
    psi = (make_pl(mid, dst, [(0, 0), (mid, dst)]) if linear != "left"
           else data.draw(pl_maps(mid, dst, max_breaks=64)))
    assert_composite_is_canonical_oracle(phi, psi)


@st.composite
def tied_pairs(draw):
    """phi and psi with 2-64 breaks each, psi's abscissas drawn partly from
    phi's break values, so that both maps often break at one point.  On
    half the draws psi starts as inverse(phi), scaled, up to one of those
    values: the composite is linear there, and every tie on it straightens."""
    phi = draw(pl_maps(max_breaks=64))
    start = [(F(0), F(0))]
    if draw(st.booleans()):
        c = draw(st.sampled_from([F(1), F(2), F(1, 3)]))
        j = draw(st.integers(1, len(phi.pts) - 1))
        start = [(y, c * x) for x, y in phi.breaks[:j + 1]]
    (u0, v0), mid = start[-1], phi.dst_len
    if u0 == mid:
        return phi, make_pl(mid, v0, start)
    room = (63 - len(start)) // 2
    inner = [y for _, y in phi.breaks if u0 < y < mid]
    shared = draw(st.sets(st.sampled_from(inner), max_size=room)) if inner else ()
    own = [u0 + u for u in grid_points(draw, mid - u0,
                                       draw(st.integers(0, room)))]
    us = sorted({*shared, *own})
    rise = draw(lengths)
    vs = [v0 + v for v in grid_points(draw, rise, len(us))]
    return phi, make_pl(mid, v0 + rise,
                        [*start, *zip(us, vs), (mid, v0 + rise)])


@PROPERTY
@given(tied_pairs())
def test_compose_of_long_maps_with_ties_matches_pointwise_oracle(case):
    assert_composite_is_canonical_oracle(*case)


@st.composite
def junction_blocks(draw):
    """2-8 blocks: general maps, and linear maps of slope 1, 2, or the
    slope of the block before's last piece, so that some junctions join
    equal slopes and others do not."""
    blocks = []
    for _ in range(draw(st.integers(2, 8))):
        kind = draw(st.sampled_from(["general", "1", "2", "same"]))
        if kind == "general":
            blocks.append(draw(pl_maps(max_breaks=12)))
            continue
        if kind == "same" and blocks:
            (x1, y1), (x2, y2) = blocks[-1].breaks[-2:]
            slope = (y2 - y1) / (x2 - x1)
        else:
            slope = F(2 if kind == "2" else 1)
        src = draw(lengths)
        blocks.append(make_pl(src, slope * src, [(0, 0), (src, slope * src)]))
    return blocks


@PROPERTY
@given(junction_blocks())
def test_tensor_straightens_exactly_the_junctions_of_equal_slope(blocks):
    raw, x0, y0 = [(F(0), F(0))], F(0), F(0)
    for block in blocks:
        raw += [(x0 + x, y0 + y) for x, y in block.breaks[1:]]
        x0, y0 = raw[-1]
    out = tensor(*blocks)
    assert out == make_pl(x0, y0, raw)
    assert_canonical_points(out)


def pointwise_equal(phi, psi):
    """Equal domains and codomains, and equal values at every break of
    either map, between which both are linear: checked by the oracle."""
    if (phi.src_len, phi.dst_len) != (psi.src_len, psi.dst_len):
        return False
    times = {x for x, _ in phi.breaks + psi.breaks}
    return all(oracle_eval(phi.breaks, t) == oracle_eval(psi.breaks, t)
               for t in times)


def assert_canonical_points(phi):
    """Lowest-terms integer points with positive denominators, read back
    as the Fraction view, from which make_pl rebuilds the same map."""
    for xn, xd, yn, yd in phi.pts:
        assert xd > 0 and yd > 0 and gcd(xn, xd) == 1 and gcd(yn, yd) == 1
    assert phi.breaks == tuple((F(xn, xd), F(yn, yd))
                               for xn, xd, yn, yd in phi.pts)
    assert make_pl(phi.src_len, phi.dst_len, phi.breaks) == phi


@PROPERTY
@given(st.data())
def test_every_result_holds_lowest_terms_points_and_equality_is_pointwise(
        data):
    phi = data.draw(pl_maps())
    psi = data.draw(pl_maps(src=phi.dst_len))
    src_lens = data.draw(partitions(phi.src_len))
    dst_lens = data.draw(partitions(phi.dst_len))
    parts = decompose(phi, src_lens)
    blocks = split(phi, dst_lens)
    # phi again, rebuilt from unreduced points with collinear extra breaks
    k = data.draw(st.integers(2, 5))
    (x0, y0), (x1, y1) = phi.breaks[:2]
    mid = ((x0 + x1) / 2, (y0 + y1) / 2)
    raw = [(k * x.numerator, k * x.denominator, k * y.numerator,
            k * y.denominator) for x, y in (phi.breaks[0], mid,
                                            *phi.breaks[1:])]
    results = [phi, psi, compose(phi, psi), inverse(phi), tensor(phi, psi),
               tensor(*parts), tensor(*blocks), PLHomeo(_canonical(raw)),
               compose(phi, inverse(phi)), identity(phi.src_len),
               *parts, *blocks]
    for out in results:
        assert_canonical_points(out)
    for a in results:
        for b in results:
            same = a == b
            assert same == pointwise_equal(a, b)
            assert not same or hash(a) == hash(b)
    assert tensor(*parts) == tensor(*blocks) == PLHomeo(_canonical(raw)) == phi
    assert compose(phi, inverse(phi)) == identity(phi.src_len)
