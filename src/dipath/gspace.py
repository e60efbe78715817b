"""Free reparametrization-indexed spaces on finite label sets.

A ``FreeGSpace`` of length L over labels U stands for the presheaf whose
value at a length l is the set of pairs (PL map [0,l] -> [0,L], label).
A ``TensorElem`` is a raw representative of a point of an n-fold tensor
evaluated at some total length; :func:`elem_normalize` pushes the outer
reparametrization into the factors, yielding the canonical identity-outer
form, so equality of points in the quotient becomes decidable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Iterable, Sequence

from .errors import BadInputError, DuplicateLabelError, LengthChainMismatchError
from .rational import as_length, format_ratio
from .reparam import PLHomeo, absorb, add_ratio


@dataclass(frozen=True)
class FreeGSpace:
    length: Fraction
    basis: tuple[str, ...]


def free(length, labels: Iterable[str]) -> FreeGSpace:
    ell = as_length(length)
    basis = tuple(str(x) for x in labels)
    if len(set(basis)) != len(basis):
        raise DuplicateLabelError(f"labels not distinct: {basis}")
    return FreeGSpace(ell, basis)


@dataclass(frozen=True)
class Factor:
    """One tensor slot: a label of the free basis and its twist, a PL map
    from the slot's evaluation length onto the free space's length."""

    label: str
    twist: PLHomeo

    @property
    def length(self) -> Fraction:
        return self.twist.src_len


@dataclass(frozen=True)
class TensorElem:
    """Representative (outer, factors) of a tensor-product point.

    The outer map sends the evaluation interval onto the concatenation of
    the factor intervals; canonical form has outer = identity.
    """

    outer: PLHomeo
    factors: tuple[Factor, ...]

    @property
    def total_len(self) -> Fraction:
        return self.outer.src_len

    def is_canonical(self) -> bool:
        return self.outer.is_identity()


def elem_make(outer: PLHomeo, parts: Sequence[tuple[str, PLHomeo]]) -> TensorElem:
    """Store a raw representative; lengths must chain exactly."""
    if not parts:
        raise BadInputError("a tensor element needs at least one factor")
    factors = tuple(Factor(str(label), twist) for label, twist in parts)
    inner = reduce(add_ratio, (f.twist.pts[-1][:2] for f in factors))
    if outer.pts[-1][2:] != inner:
        raise LengthChainMismatchError(
            f"outer lands in [0,{format_ratio(*outer.pts[-1][2:])}] but "
            f"factors span [0,{format_ratio(*inner)}]")
    return TensorElem(outer, factors)


def elem_normalize(elem: TensorElem) -> TensorElem:
    """Absorb the outer map into the factors.

    :func:`~dipath.reparam.absorb` splits the outer map at the preimages
    of the factor partial sums and composes each block into the
    corresponding twist.  Idempotent.
    """
    if elem.is_canonical():
        return elem
    twists = absorb(elem.outer, [f.twist for f in elem.factors])
    end = elem.outer.pts[-1][:2]  # the identity's one break past (0, 0)
    return TensorElem(PLHomeo(((0, 1, 0, 1), (*end, *end))), tuple(
        Factor(f.label, twist) for f, twist in zip(elem.factors, twists)))
