"""Piecewise-linear strictly increasing rational bijections between segments.

A ``PLHomeo`` models an orientation-preserving homeomorphism
[0, src_len] -> [0, dst_len] that is piecewise linear with rational
breakpoints.  This family is closed under composition, inverse, block tensor
and block decomposition, which is everything the path-algebra layers need,
and equality of canonical forms coincides with pointwise equality.

All arithmetic is exact; there is no floating point anywhere in the engine.
``Fraction`` stays at the API and JSON boundary (``PLHomeo.breaks``); the
sweeps inside work on integer (numerator, denominator) pairs, compare and
interpolate by cross-multiplication, and build a ``Fraction`` only for a new
coordinate of a result break.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Optional, Sequence

from .errors import (
    BadEndpointsError,
    BadInputError,
    LengthMismatchError,
    LengthSumMismatchError,
    NonMonotonicError,
    OutOfDomainError,
)
from .rational import as_length, format_fraction, parse_fraction

Break = tuple[Fraction, Fraction]
# a break as integer pairs, then as Fractions where known (shared by results)
Pt = tuple[int, int, int, int, Optional[Fraction], Optional[Fraction]]
_ZERO = Fraction(0)


@dataclass(frozen=True)
class PLHomeo:
    """Canonical break list of a PL increasing bijection.

    Construct through :func:`make_pl`, :func:`identity` or :func:`mu`; direct
    instantiation skips canonicalization and breaks equality semantics.
    """

    breaks: tuple[Break, ...]

    @property
    def src_len(self) -> Fraction:
        return self.breaks[-1][0]

    @property
    def dst_len(self) -> Fraction:
        return self.breaks[-1][1]

    def is_identity(self) -> bool:
        return self.breaks == ((_ZERO, _ZERO), (self.src_len, self.src_len))

    def __repr__(self) -> str:
        pts = ", ".join(f"({x}, {y})" for x, y in self.breaks)
        return f"PLHomeo[{pts}]"

    def to_json(self) -> dict:
        return {
            "src": format_fraction(self.src_len),
            "dst": format_fraction(self.dst_len),
            "breaks": [[format_fraction(x), format_fraction(y)]
                       for x, y in self.breaks],
        }


def _ints(breaks: Iterable[Break]) -> list[Pt]:
    return [(x.numerator, x.denominator, y.numerator, y.denominator, x, y)
            for x, y in breaks]


def _canonical(pts: Sequence[Pt]) -> tuple[Break, ...]:
    """Drop collinear interior breaks and rebuild the Fraction break list."""
    kept = [pts[0]]
    for i in range(1, len(pts) - 1):
        x1, a1, y1, b1, _, _ = kept[-1]
        x2, a2, y2, b2, _, _ = pts[i]
        x3, a3, y3, b3, _, _ = pts[i + 1]
        # (y2 - y1)(x3 - x2) != (y3 - y2)(x2 - x1), times every denominator
        if ((y2 * b1 - y1 * b2) * (x3 * a2 - x2 * a3) * b3 * a1
                != (y3 * b2 - y2 * b3) * (x2 * a1 - x1 * a2) * b1 * a3):
            kept.append(pts[i])
    kept.append(pts[-1])
    return tuple((Fraction(xn, xd) if x is None else x,
                  Fraction(yn, yd) if y is None else y)
                 for xn, xd, yn, yd, x, y in kept)


def _lerp(p: Pt, q: Pt, tn: int, td: int, s: int) -> tuple[int, int]:
    """On the segment p-q, the other coordinate where axis s (0: source,
    2: target) reads t = tn/td: b1 + (b2 - b1)(t - a1)/(a2 - a1) as an
    unreduced (numerator, denominator) pair."""
    o = 2 - s
    a1, c1, b1, d1 = p[s], p[s + 1], p[o], p[o + 1]
    a2, c2, b2, d2 = q[s], q[s + 1], q[o], q[o + 1]
    den = td * (a2 * c1 - a1 * c2)  # (a2 - a1) td c1 c2
    rise = (tn * c1 - a1 * td) * c2 * (b2 * d1 - b1 * d2)
    return b1 * d2 * den + rise, d1 * d2 * den


def make_pl(src_len, dst_len, breaks: Iterable) -> PLHomeo:
    """Build a PLHomeo from raw break pairs, canonicalizing the result."""
    src = as_length(src_len)
    dst = as_length(dst_len)
    pts = [(Fraction(x), Fraction(y)) for x, y in breaks]
    if len(pts) < 2:
        raise BadEndpointsError("need at least the two endpoint breaks")
    if pts[0] != (0, 0):
        raise BadEndpointsError(f"first break must be (0, 0), got {pts[0]}")
    if pts[-1] != (src, dst):
        raise BadEndpointsError(
            f"last break must be ({src}, {dst}), got {pts[-1]}")
    for (x1, y1), (x2, y2) in zip(pts, pts[1:]):
        if x2 <= x1 or y2 <= y1:
            raise NonMonotonicError(
                f"breaks must strictly increase: ({x1},{y1}) then ({x2},{y2})")
    return PLHomeo(_canonical(_ints(pts)))


def identity(length) -> PLHomeo:
    ell = as_length(length)
    return PLHomeo(((_ZERO, _ZERO), (ell, ell)))


def mu(length) -> PLHomeo:
    """The linear rescaling [0, length] -> [0, 1], t |-> t / length."""
    ell = as_length(length)
    return PLHomeo(((_ZERO, _ZERO), (ell, Fraction(1))))


def scale(src_len, dst_len) -> PLHomeo:
    """The linear map [0, src_len] -> [0, dst_len]."""
    return PLHomeo(((_ZERO, _ZERO), (as_length(src_len), as_length(dst_len))))


def _eval(phi: PLHomeo, t, s: int) -> Fraction:
    """phi(t) for s = 0, phi^{-1}(t) for s = 1."""
    t = Fraction(t)
    bs = phi.breaks
    if t < 0 or t > bs[-1][s]:
        raise OutOfDomainError(f"{t} outside [0, {bs[-1][s]}]")
    i = 1
    while bs[i][s] < t:
        i += 1
    if bs[i][s] == t:
        return bs[i][1 - s]
    p, q = _ints(bs[i - 1:i + 1])
    return Fraction(*_lerp(p, q, t.numerator, t.denominator, 2 * s))


def pl_eval(phi: PLHomeo, t) -> Fraction:
    """Exact value of phi at t by linear interpolation."""
    return _eval(phi, t, 0)


def pl_eval_inv(phi: PLHomeo, y) -> Fraction:
    """Exact preimage phi^{-1}(y); phi is bijective by invariant."""
    return _eval(phi, y, 1)


def compose(phi: PLHomeo, psi: PLHomeo) -> PLHomeo:
    """Diagrammatic composite: apply phi first, then psi.

    The result evaluates as psi(phi(t)); its breakpoints are phi's break
    abscissas together with the phi-preimages of psi's break abscissas,
    collected in one merge sweep over both break lists.
    """
    if phi.dst_len != psi.src_len:
        raise LengthMismatchError(
            f"cannot chain [0,{phi.src_len}]->[0,{phi.dst_len}] "
            f"with [0,{psi.src_len}]->[0,{psi.dst_len}]")
    p, q = _ints(phi.breaks), _ints(psi.breaks)
    pts = [p[0]]
    i = k = 1
    while i < len(p):
        xn, xd, yn, yd, x, _ = p[i]
        un, ud, vn, vd, _, v = q[k]
        c = yn * ud - un * yd
        if c < 0:  # phi's break comes first: evaluate psi there
            pts.append((xn, xd, *_lerp(q[k - 1], q[k], yn, yd, 0), x, None))
        elif c > 0:  # psi's break comes first: pull it back through phi
            pts.append((*_lerp(p[i - 1], p[i], un, ud, 2), vn, vd, None, v))
        else:
            pts.append((xn, xd, vn, vd, x, v))
        i += c <= 0  # step past the break(s) just used
        k += c >= 0
    return PLHomeo(_canonical(pts))


def inverse(phi: PLHomeo) -> PLHomeo:
    return PLHomeo(tuple((y, x) for x, y in phi.breaks))


def tensor(*phis: PLHomeo) -> PLHomeo:
    """Block concatenation: the i-th block acts as phi_i shifted by the
    partial sums of the source and destination lengths."""
    if not phis:
        raise BadInputError("tensor needs at least one factor")
    pts = [(0, 1, 0, 1, _ZERO, _ZERO)]
    off_x = off_y = _ZERO
    for phi in phis:
        an, ad, bn, bd, _, _ = _ints([(off_x, off_y)])[0]
        for xn, xd, yn, yd, _, _ in _ints(phi.breaks[1:]):
            pts.append((an * xd + xn * ad, ad * xd, bn * yd + yn * bd,
                        bd * yd, None, None))
        off_x += phi.src_len
        off_y += phi.dst_len
    return PLHomeo(_canonical(pts))


def _blocks(phi: PLHomeo, lengths: Sequence, s: int) -> tuple[PLHomeo, ...]:
    """Cut phi in one sweep where the partial sums of lengths fall on axis s
    (0: source, 2: target), shifting each piece to (0, 0).  Pieces are
    canonical: their interior breaks are phi's own, on phi's segments."""
    total = phi.breaks[-1][s // 2]
    cuts = list(accumulate(as_length(v) for v in lengths))
    if not cuts or cuts[-1] != total:
        raise LengthSumMismatchError(
            f"lengths sum to {cuts[-1] if cuts else 0}, expected {total}")
    pts = _ints(phi.breaks)
    blocks, piece, i = [], [pts[0]], 1
    for cut in cuts:
        cn, cd = cut.numerator, cut.denominator
        while pts[i][s] * cd < cn * pts[i][s + 1]:
            piece.append(pts[i])
            i += 1
        if pts[i][s] * cd == cn * pts[i][s + 1]:
            end = pts[i]
            i += 1
        else:
            vn, vd = _lerp(pts[i - 1], pts[i], cn, cd, s)
            end = ((cn, cd, vn, vd, None, None) if s == 0
                   else (vn, vd, cn, cd, None, None))
        an, ad, bn, bd, _, _ = piece[0]
        blocks.append(PLHomeo(((_ZERO, _ZERO),) + tuple(
            (Fraction(xn * ad - an * xd, xd * ad),
             Fraction(yn * bd - bn * yd, yd * bd))
            for xn, xd, yn, yd, _, _ in piece[1:] + [end])))
        piece = [end]
    return tuple(blocks)


def decompose(phi: PLHomeo, lengths: Sequence) -> tuple[PLHomeo, ...]:
    """Split phi into blocks with the given source lengths.

    The destination length of the i-th block is forced:
    dst_i = phi(sum of the first i lengths) - sum of the earlier dst lengths.
    Tensoring the blocks back recovers phi exactly, and the decomposition
    with these source lengths is unique.
    """
    return _blocks(phi, lengths, 0)


def split(phi: PLHomeo, dst_lengths: Sequence) -> tuple[PLHomeo, ...]:
    """Split phi into blocks with the given destination lengths: the cuts
    are the phi-preimages of their partial sums, and the source lengths
    are forced as in :func:`decompose`."""
    return _blocks(phi, dst_lengths, 2)


def equals(phi: PLHomeo, psi: PLHomeo) -> bool:
    """Structural equality of canonical forms, i.e. pointwise equality."""
    return phi == psi


def pl_from_json(data) -> PLHomeo:
    try:
        src = parse_fraction(data["src"])
        dst = parse_fraction(data["dst"])
        breaks = [(parse_fraction(x), parse_fraction(y))
                  for x, y in data["breaks"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise BadInputError(f"malformed PL map: {exc}") from exc
    return make_pl(src, dst, breaks)
