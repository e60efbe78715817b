"""Piecewise-linear strictly increasing rational bijections between segments.

A ``PLHomeo`` models an orientation-preserving homeomorphism
[0, src_len] -> [0, dst_len] that is piecewise linear with rational
breakpoints.  This family is closed under composition, inverse, block tensor
and block decomposition, which is everything the path-algebra layers need,
and equality of canonical forms coincides with pointwise equality.

All arithmetic is exact; there is no floating point anywhere in the engine.
A break (xn/xd, yn/yd) is stored as the integer point (xn, xd, yn, yd) in
lowest terms with positive denominators, so equal maps hold equal points;
the sweeps compare and interpolate on these integers by cross-multiplication.
``Fraction`` stays at the API and JSON boundary: :func:`make_pl` reads it,
and ``breaks``, ``src_len`` and ``dst_len`` are views built on each read.
The path layers read a length as the integer pair ending ``pts`` instead,
and :func:`absorb` cuts on such pairs.  :func:`compose` and :func:`tensor`
keep every break that only one canonical operand has, since the rest is
linear there; a break can straighten only where two breaks meet.
The merge sweep of :func:`compose` interpolates inline; :func:`_lerp` serves
the cuts of :func:`_blocks` and the evaluations of :func:`_eval`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import gcd
from typing import Iterable, Sequence

from .errors import (
    BadEndpointsError,
    BadInputError,
    LengthMismatchError,
    LengthSumMismatchError,
    NonMonotonicError,
    OutOfDomainError,
)
from .rational import (as_length, format_point, format_ratio, json_list,
                       parse_fraction)

# (xn, xd, yn, yd): reduced when stored, possibly not inside a sweep
Pt = tuple[int, int, int, int]
_ORIGIN: Pt = (0, 1, 0, 1)


@dataclass(frozen=True)
class PLHomeo:
    """Canonical break list of a PL increasing bijection, as integer points.

    Construct through :func:`make_pl`, :func:`identity` or :func:`mu`; direct
    instantiation skips canonicalization and breaks equality semantics.
    Equality and hashing read ``pts`` alone.
    """

    pts: tuple[Pt, ...]

    @property
    def breaks(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """The breaks as (x, y) Fraction pairs; a read-only view."""
        return tuple((Fraction(xn, xd), Fraction(yn, yd))
                     for xn, xd, yn, yd in self.pts)

    @property
    def src_len(self) -> Fraction:
        return Fraction(self.pts[-1][0], self.pts[-1][1])

    @property
    def dst_len(self) -> Fraction:
        return Fraction(self.pts[-1][2], self.pts[-1][3])

    def is_identity(self) -> bool:
        return len(self.pts) == 2 and self.pts[1][:2] == self.pts[1][2:]

    def __repr__(self) -> str:
        pts = ", ".join(f"({x}, {y})" for x, y in self.breaks)
        return f"PLHomeo[{pts}]"

    def to_json(self) -> dict:
        breaks = [[format_ratio(xn, xd), format_ratio(yn, yd)]
                  for xn, xd, yn, yd in self.pts]
        return {"src": breaks[-1][0], "dst": breaks[-1][1], "breaks": breaks}


def _lowest(p: Pt) -> Pt:
    xn, xd, yn, yd = p
    g, h = gcd(xn, xd), gcd(yn, yd)
    return p if g == h == 1 else (xn // g, xd // g, yn // h, yd // h)


def _ratio(num: int, den: int) -> tuple[int, int]:
    return num // (g := gcd(num, den)), den // g


def add_ratio(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """a + b for (num, den) pairs in lowest terms with den > 0, reduced."""
    return _ratio(a[0] * b[1] + b[0] * a[1], a[1] * b[1])


def _straighten(pts: list[Pt], at: Iterable[int]) -> tuple[Pt, ...]:
    """Drop each pts[i], i in ``at`` (ascending), whose two slopes agree."""
    kept, last = [], 0
    for i in at:
        kept += pts[last:i]
        (x1, a1, y1, b1), (x2, a2, y2, b2), (x3, a3, y3, b3) = (
            kept[-1], pts[i], pts[i + 1])
        # (y2 - y1)(x3 - x2) == (y3 - y2)(x2 - x1), times every denominator
        last = i + ((y2 * b1 - y1 * b2) * (x3 * a2 - x2 * a3) * b3 * a1
                    == (y3 * b2 - y2 * b3) * (x2 * a1 - x1 * a2) * b1 * a3)
    return (*kept, *pts[last:])


def _canonical(pts: Sequence[Pt]) -> tuple[Pt, ...]:
    """Reduce each point to lowest terms; drop collinear interior breaks."""
    return _straighten(list(map(_lowest, pts)), range(1, len(pts) - 1))


def _lerp(p: Pt, q: Pt, tn: int, td: int, s: int) -> tuple[int, int]:
    """On the segment p-q, the other coordinate where axis s (0: source,
    2: target) reads t = tn/td: b1 + (b2 - b1)(t - a1)/(a2 - a1) as a
    reduced (numerator, denominator) pair with a positive denominator."""
    o = 2 - s
    a1, c1, b1, d1 = p[s], p[s + 1], p[o], p[o + 1]
    a2, c2, b2, d2 = q[s], q[s + 1], q[o], q[o + 1]
    den = td * (a2 * c1 - a1 * c2)  # (a2 - a1) td c1 c2
    rise = (tn * c1 - a1 * td) * c2 * (b2 * d1 - b1 * d2)
    return _ratio(b1 * d2 * den + rise, d1 * d2 * den)


def make_pl(src_len, dst_len, breaks: Iterable) -> PLHomeo:
    """Build a PLHomeo from raw break pairs, canonicalizing the result."""
    src, dst = as_length(src_len), as_length(dst_len)
    pairs = [(Fraction(x), Fraction(y)) for x, y in breaks]
    if len(pairs) < 2:
        raise BadEndpointsError("need at least the two endpoint breaks")
    if pairs[0] != (0, 0):
        raise BadEndpointsError(
            f"first break must be (0, 0), got {format_point(pairs[0])}")
    if pairs[-1] != (src, dst):
        raise BadEndpointsError(
            f"last break must be ({src}, {dst}), got {format_point(pairs[-1])}")
    pts = [(x.numerator, x.denominator, y.numerator, y.denominator)
           for x, y in pairs]
    for i in range(1, len(pts)):
        (x1, a1, y1, b1), (x2, a2, y2, b2) = pts[i - 1], pts[i]
        if x2 * a1 <= x1 * a2 or y2 * b1 <= y1 * b2:
            (x1, y1), (x2, y2) = pairs[i - 1], pairs[i]
            raise NonMonotonicError(
                f"breaks must strictly increase: ({x1},{y1}) then ({x2},{y2})")
    # a Fraction's terms are lowest already: only collinear breaks go
    return PLHomeo(_straighten(pts, range(1, len(pts) - 1)))


def scale(src_len, dst_len) -> PLHomeo:
    """The linear map [0, src_len] -> [0, dst_len]."""
    src, dst = as_length(src_len), as_length(dst_len)
    return PLHomeo((_ORIGIN, (src.numerator, src.denominator,
                              dst.numerator, dst.denominator)))


def identity(length) -> PLHomeo:
    return scale(length, length)


def mu(length) -> PLHomeo:
    """The linear rescaling [0, length] -> [0, 1], t |-> t / length."""
    return scale(length, 1)


def _eval(phi: PLHomeo, t, s: int) -> Fraction:
    """phi(t) for s = 0, phi^{-1}(t) for s = 2."""
    t, pts = Fraction(t), phi.pts
    tn, td = t.numerator, t.denominator
    if tn < 0 or tn * pts[-1][s + 1] > pts[-1][s] * td:
        raise OutOfDomainError(
            f"{t} outside [0, {format_ratio(pts[-1][s], pts[-1][s + 1])}]")
    i = 1
    while pts[i][s] * td < tn * pts[i][s + 1]:
        i += 1
    return Fraction(*_lerp(pts[i - 1], pts[i], tn, td, s))


def pl_eval(phi: PLHomeo, t) -> Fraction:
    """Exact value of phi at t by linear interpolation."""
    return _eval(phi, t, 0)


def pl_eval_inv(phi: PLHomeo, y) -> Fraction:
    """Exact preimage phi^{-1}(y); phi is bijective by invariant."""
    return _eval(phi, y, 2)


def compose(phi: PLHomeo, psi: PLHomeo) -> PLHomeo:
    """Diagrammatic composite: apply phi first, then psi.

    The result evaluates as psi(phi(t)); its breakpoints are phi's break
    abscissas together with the phi-preimages of psi's break abscissas,
    collected in one merge sweep over both break lists.  Only where both
    maps break can the slopes agree; elsewhere one of them is linear.
    """
    p, q = phi.pts, psi.pts
    if p[-1][2:] != q[-1][:2]:
        raise LengthMismatchError(
            f"cannot chain [0,{phi.src_len}]->[0,{phi.dst_len}] "
            f"with [0,{psi.src_len}]->[0,{psi.dst_len}]")
    if len(p) == 2:  # phi is t |-> t b/a: psi's sources scale by a/b
        an, ad, bn, bd = p[1]
        return PLHomeo(tuple((*_ratio(xn * an * bd, xd * ad * bn), yn, yd)
                             for xn, xd, yn, yd in q))
    if len(q) == 2:  # psi is t |-> t v/u: phi's targets scale by v/u
        un, ud, vn, vd = q[1]
        return PLHomeo(tuple((xn, xd, *_ratio(yn * vn * ud, yd * vd * un))
                             for xn, xd, yn, yd in p))
    pts, ties = [p[0]], []
    i = k = 1
    while i < len(p):
        xn, xd, yn, yd = p[i]
        un, ud, vn, vd = q[k]
        c = yn * ud - un * yd
        # _lerp inline, its axis fixed: a call per break was the sweep's cost
        if c < 0:  # phi's break comes first: evaluate psi there
            a, e, b, f = q[k - 1]
            den = yd * (un * e - a * ud)
            num = b * vd * den + (yn * e - a * yd) * ud * (vn * f - b * vd)
            g = gcd(num, den := f * vd * den)
            pts.append((xn, xd, num // g, den // g))
        elif c > 0:  # psi's break comes first: pull it back through phi
            b, f, a, e = p[i - 1]
            den = ud * (yn * e - a * yd)
            num = b * xd * den + (un * e - a * ud) * yd * (xn * f - b * xd)
            g = gcd(num, den := f * xd * den)
            pts.append((num // g, den // g, vn, vd))
        else:  # both maps break here: the only place the slopes may agree
            ties.append(len(pts))
            pts.append((xn, xd, vn, vd))
        i += c <= 0  # step past the break(s) just used
        k += c >= 0
    return PLHomeo(_straighten(pts, ties[:-1]))  # the last tie is the end


def inverse(phi: PLHomeo) -> PLHomeo:
    return PLHomeo(tuple((yn, yd, xn, xd) for xn, xd, yn, yd in phi.pts))


def tensor(*phis: PLHomeo) -> PLHomeo:
    """Block concatenation: the i-th block acts as phi_i shifted by the
    partial sums of the source and destination lengths.  A shift keeps each
    block's breaks, so only the junctions are tested for collinearity."""
    if not phis:
        raise BadInputError("tensor needs at least one factor")
    pts, joints = list(phis[0].pts), []
    for phi in phis[1:]:
        joints.append(len(pts) - 1)
        an, ad, bn, bd = pts[-1]  # the end of the blocks so far
        pts += [_lowest((an * xd + xn * ad, ad * xd,
                         bn * yd + yn * bd, bd * yd))
                for xn, xd, yn, yd in phi.pts[1:]]
    return PLHomeo(_straighten(pts, joints))


def _blocks(phi: PLHomeo, lengths: Sequence, s: int) -> tuple[PLHomeo, ...]:
    """Cut phi in one sweep where the partial sums of lengths, reduced
    (num, den) pairs, fall on axis s (0: source, 2: target), shifting each
    piece to (0, 0).  Pieces are canonical, with phi's own interior breaks."""
    pts, cuts = phi.pts, list(accumulate(lengths, add_ratio, initial=(0, 1)))
    if cuts[-1] != pts[-1][s:s + 2]:
        raise LengthSumMismatchError(
            f"lengths sum to {format_ratio(*cuts[-1])}, expected "
            f"{format_ratio(*pts[-1][s:s + 2])}")
    blocks, piece, i = [], [pts[0]], 1
    for cn, cd in cuts[1:]:
        while pts[i][s] * cd < cn * pts[i][s + 1]:
            piece.append(pts[i])
            i += 1
        vn, vd = _lerp(pts[i - 1], pts[i], cn, cd, s)
        end = (cn, cd, vn, vd) if s == 0 else (vn, vd, cn, cd)
        i += pts[i][s] * cd == cn * pts[i][s + 1]  # the cut is phi's break
        piece.append(end)
        an, ad, bn, bd = piece[0]
        blocks.append(PLHomeo((_ORIGIN, *(
            _lowest((xn * ad - an * xd, xd * ad, yn * bd - bn * yd, yd * bd))
            for xn, xd, yn, yd in piece[1:]))))
        piece = [end]
    return tuple(blocks)


def decompose(phi: PLHomeo, lengths: Sequence) -> tuple[PLHomeo, ...]:
    """Split phi into blocks with the given source lengths.

    The destination length of the i-th block is forced:
    dst_i = phi(sum of the first i lengths) - sum of the earlier dst lengths.
    Tensoring the blocks back recovers phi exactly, and the decomposition
    with these source lengths is unique.
    """
    return _blocks(phi, [as_length(v).as_integer_ratio() for v in lengths], 0)


def split(phi: PLHomeo, dst_lengths: Sequence) -> tuple[PLHomeo, ...]:
    """Split phi into blocks with the given destination lengths: the cuts
    are the phi-preimages of their partial sums, and the source lengths
    are forced as in :func:`decompose`."""
    return _blocks(phi, [as_length(v).as_integer_ratio()
                         for v in dst_lengths], 2)


def absorb(phi: PLHomeo, laws: Sequence[PLHomeo]) -> tuple[PLHomeo, ...]:
    """Push phi into a chain of laws whose source lengths add up to phi's
    target length: phi is cut on the integer pairs of the laws' source
    lengths, and each block composes into its law.  The tensor of the
    results is phi followed by the tensor of the laws."""
    blocks = _blocks(phi, [law.pts[-1][:2] for law in laws], 2)
    return tuple(map(compose, blocks, laws))


def pl_from_json(data) -> PLHomeo:
    try:
        src = parse_fraction(data["src"])
        dst = parse_fraction(data["dst"])
        breaks = []
        for pair in json_list(data["breaks"], "breaks"):
            x, y = json_list(pair, "break")
            breaks.append((parse_fraction(x), parse_fraction(y)))
    except (KeyError, TypeError, ValueError) as exc:
        raise BadInputError(f"malformed PL map: {exc}") from exc
    return make_pl(src, dst, breaks)
