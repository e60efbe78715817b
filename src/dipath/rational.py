"""Exact rational parsing, formatting and length validation, and the
readers of the other JSON fields.

Rationals cross the JSON boundary as strings in lowest terms: "3/4", "-1/2",
or "2" for integers.  ``fractions.Fraction`` keeps everything exact.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import BadInputError, BadLengthError


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")  # the only string form


def parse_fraction(value) -> Fraction:
    """Parse "p/q" (or "p", or a JSON integer) into a Fraction; no other
    string form, and no more digits than the interpreter converts."""
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str) and _RATIONAL.fullmatch(value):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise BadInputError(f"not a rational: {value!r:.40}: {exc}") from exc
    raise BadInputError(f"not a rational: {value!r:.40}")


def format_fraction(value: Fraction) -> str:
    value = Fraction(value)
    return format_ratio(value.numerator, value.denominator)


def as_length(value) -> Fraction:
    """Validate a strictly positive rational length."""
    x = value if isinstance(value, Fraction) else Fraction(value)
    if x <= 0:
        raise BadLengthError(f"length must be > 0, got {x}")
    return x


def format_ratio(num: int, den: int) -> str:
    """The string of num/den given in lowest terms with den > 0, with no
    Fraction.  Rationals become text here, so a term past the interpreter's
    digit limit is refused as bad input, whatever computed it."""
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError as exc:
        raise BadInputError(f"a rational has too many digits: {exc}") from exc


def format_point(values) -> str:
    """Rationals for a message as "(0, 1/2)": strings, never reprs."""
    return f"({', '.join(map(format_fraction, values))})"


def json_int(value, what: str) -> int:
    """A JSON integer field; floats, booleans and strings are refused."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise BadInputError(f"{what} must be an integer, got {value!r:.40}")
    return value


def json_str(value, what: str) -> str:
    """A JSON string field naming a state or a cell; numbers, booleans,
    lists, objects and null are refused."""
    if not isinstance(value, str):
        raise BadInputError(f"{what} must be a string, got {value!r:.40}")
    return value


def json_list(value, what: str) -> list:
    """A JSON array field; a string or an object is refused, not iterated."""
    if not isinstance(value, list):
        raise BadInputError(f"{what} must be an array, got {value!r:.40}")
    return value
