"""Seeded random generators for property tests and the CLI selftest.

Everything is driven by an explicit ``random.Random`` so that sampled suites
are reproducible from a single seed.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from .cellcomplex import NormalPath, Seg, np_to_expr
from .errors import EngineError
from .rational import as_length
from .reparam import PLHomeo, _canonical, identity

_DENOMS = (2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 16)
_UNIT = 5040  # the lcm of _DENOMS: every draw is a whole number of 1/_UNIT


def _rand_unit(rng: Random, max_den: int = 16) -> int:
    """A seeded rational num/den strictly inside (0, 1), with den drawn from
    ``_DENOMS``, as the integer num/den * _UNIT."""
    den = rng.choice([d for d in _DENOMS if d <= max_den])
    return rng.randrange(1, den) * (_UNIT // den)


def rand_fraction(rng: Random, lo, hi, max_den: int = 16) -> Fraction:
    """A rational strictly inside (lo, hi)."""
    lo = Fraction(lo)
    hi = Fraction(hi)
    if not lo < hi:
        raise EngineError(f"no rational strictly inside ({lo}, {hi})")
    k = _rand_unit(rng, max_den)
    # lo + (hi - lo) k / _UNIT over one common denominator
    return Fraction(lo.numerator * hi.denominator * (_UNIT - k)
                    + hi.numerator * lo.denominator * k,
                    lo.denominator * hi.denominator * _UNIT)


def rand_partition(rng: Random, total, n: int) -> list[Fraction]:
    """Split a positive length into n strictly positive rational parts."""
    total = as_length(total)
    if n < 1:
        raise EngineError(f"cannot split a length into {n} parts")
    cuts = sorted(_rand_unit(rng) for _ in range(n - 1))
    while len(set(cuts)) != n - 1:
        cuts = sorted(_rand_unit(rng) for _ in range(n - 1))
    pts = [0, *cuts, _UNIT]
    return [Fraction(total.numerator * (b - a), total.denominator * _UNIT)
            for a, b in zip(pts, pts[1:])]


def rand_pl(rng: Random, src, dst, max_segments: int = 8) -> PLHomeo:
    """A random PL increasing bijection [0,src] -> [0,dst] with at most
    ``max_segments`` linear pieces.  The breaks are distinct sorted draws on
    both axes, so they strictly increase and need no further check."""
    src, dst = as_length(src), as_length(dst)
    n = rng.randrange(1, max_segments + 1)
    xs = sorted({_rand_unit(rng) for _ in range(n - 1)})
    ys = sorted({_rand_unit(rng) for _ in range(len(xs))})
    while len(ys) != len(xs):
        ys = sorted({_rand_unit(rng) for _ in range(len(xs))})
    return PLHomeo(_canonical([
        (src.numerator * x, src.denominator * _UNIT,
         dst.numerator * y, dst.denominator * _UNIT)
        for x, y in zip([0, *xs, _UNIT], [0, *ys, _UNIT])]))


def rand_nonidentity_pl(rng: Random, length=1, max_segments: int = 8) -> PLHomeo:
    for _ in range(100):
        phi = rand_pl(rng, length, length, max_segments)
        if phi != identity(length):
            return phi
    raise EngineError("failed to sample a non-identity map")


# ---------------------------------------------------------------------------
# complex-aware generators


def rand_seg(rng: Random, cx, cell_id, length):
    cell = cx.cell(cell_id)
    z = () if cell.disk_dim == 0 else (rand_fraction(rng, -1, 1),)
    return Seg(cell_id, z, rand_pl(rng, length, 1, max_segments=3))


def rand_normal_path(rng: Random, cx, carrier, total=1):
    """A random normal-form path over the given carrier word."""
    lens = rand_partition(rng, total, len(carrier))
    segs = tuple(rand_seg(rng, cx, cid, ell)
                 for cid, ell in zip(carrier, lens))
    start = cx.cell(carrier[0]).src
    end = cx.cell(carrier[-1]).dst
    return cx.check_normal_path(NormalPath(start, end, segs))


def rand_unit_path_expr(rng: Random, cx, carrier):
    """A random length-1 path expression realizing the given carrier."""
    return np_to_expr(rand_normal_path(rng, cx, carrier, total=1))


def rand_composable_unit_paths(rng: Random, cx, spine, n):
    """n composable random length-1 expressions along a spine of edges.

    ``spine`` is a list of consecutive edge cell ids; the sampled paths
    cover disjoint consecutive stretches of it.
    """
    hops = sorted(rng.sample(range(len(spine) + 1), n + 1))
    return [rand_unit_path_expr(rng, cx, tuple(spine[a:b]))
            for a, b in zip(hops, hops[1:])]
