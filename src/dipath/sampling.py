"""Seeded random generators for property tests and the CLI selftest.

Everything is driven by an explicit ``random.Random`` so that sampled suites
are reproducible from a single seed.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from .errors import EngineError
from .reparam import PLHomeo, identity, make_pl

_DENOMS = (2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 16)


def rand_fraction(rng: Random, lo, hi, max_den: int = 16) -> Fraction:
    """A rational strictly inside (lo, hi)."""
    lo = Fraction(lo)
    hi = Fraction(hi)
    while True:
        den = rng.choice([d for d in _DENOMS if d <= max_den])
        num = rng.randrange(1, den)
        x = lo + (hi - lo) * Fraction(num, den)
        if lo < x < hi:
            return x


def rand_partition(rng: Random, total, n: int) -> list[Fraction]:
    """Split a positive length into n strictly positive rational parts."""
    total = Fraction(total)
    cuts = sorted(rand_fraction(rng, 0, total) for _ in range(n - 1))
    while len(set(cuts)) != n - 1:
        cuts = sorted(rand_fraction(rng, 0, total) for _ in range(n - 1))
    pts = [Fraction(0)] + cuts + [total]
    return [b - a for a, b in zip(pts, pts[1:])]


def rand_pl(rng: Random, src, dst, max_segments: int = 8) -> PLHomeo:
    """A random PL increasing bijection [0,src] -> [0,dst] with at most
    ``max_segments`` linear pieces."""
    src = Fraction(src)
    dst = Fraction(dst)
    n = rng.randrange(1, max_segments + 1)
    xs = sorted(set(rand_fraction(rng, 0, src) for _ in range(n - 1)))
    ys = sorted(set(rand_fraction(rng, 0, dst) for _ in range(len(xs))))
    while len(ys) != len(xs):
        ys = sorted(set(rand_fraction(rng, 0, dst) for _ in range(len(xs))))
    pts = [(Fraction(0), Fraction(0))] + list(zip(xs, ys)) + [(src, dst)]
    return make_pl(src, dst, pts)


def rand_nonidentity_pl(rng: Random, length=1, max_segments: int = 8) -> PLHomeo:
    for _ in range(100):
        phi = rand_pl(rng, length, length, max_segments)
        if phi != identity(length):
            return phi
    raise EngineError("failed to sample a non-identity map")


# ---------------------------------------------------------------------------
# complex-aware generators


def rand_seg(rng: Random, cx, cell_id, length):
    from .cellcomplex import Seg

    cell = cx.cell(cell_id)
    z = () if cell.disk_dim == 0 else (rand_fraction(rng, -1, 1),)
    return Seg(cell_id, z, rand_pl(rng, length, 1, max_segments=3))


def rand_normal_path(rng: Random, cx, carrier, total=1):
    """A random normal-form path over the given carrier word."""
    from .cellcomplex import NormalPath

    lens = rand_partition(rng, total, len(carrier))
    segs = tuple(rand_seg(rng, cx, cid, ell)
                 for cid, ell in zip(carrier, lens))
    start = cx.cell(carrier[0]).src
    end = cx.cell(carrier[-1]).dst
    return cx.check_normal_path(NormalPath(start, end, segs))


def rand_unit_path_expr(rng: Random, cx, carrier):
    """A random length-1 path expression realizing the given carrier."""
    from .cellcomplex import np_to_expr

    return np_to_expr(rand_normal_path(rng, cx, carrier, total=1))


def rand_composable_unit_paths(rng: Random, cx, spine, n):
    """n composable random length-1 expressions along a spine of edges.

    ``spine`` is a list of consecutive edge cell ids; the sampled paths
    cover disjoint consecutive stretches of it.
    """
    hops = sorted(rng.sample(range(len(spine) + 1), n + 1))
    return [rand_unit_path_expr(rng, cx, tuple(spine[a:b]))
            for a, b in zip(hops, hops[1:])]
