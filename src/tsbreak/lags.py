"""Closed-form lag-length rules of thumb for the unit-root tests."""

from __future__ import annotations

import math
import operator

_NEAR_INT = 1e-9


def _floor(x: float) -> int:
    # Guard against 4.999999998-style double artifacts before flooring.
    nearest = round(x)
    if abs(x - nearest) < _NEAR_INT:
        x = nearest
    return math.floor(x)


def schwert4(T: int) -> int:
    """l = floor(4 * (T/100)^(1/4))"""
    T = _length(T)
    return _floor(4.0 * (T / 100.0) ** 0.25)


def schwert12(T: int) -> int:
    """l = floor(12 * (T/100)^(1/4))"""
    T = _length(T)
    return _floor(12.0 * (T / 100.0) ** 0.25)


def newey_west(T: int) -> int:
    """l = floor(4 * (T/100)^(2/9))"""
    T = _length(T)
    return _floor(4.0 * (T / 100.0) ** (2.0 / 9.0))


def kpss_short(T: int) -> int:
    """l = floor(3 * sqrt(T) / 13)"""
    T = _length(T)
    return _floor(3.0 * math.sqrt(T) / 13.0)


RULES = {
    "schwert4": schwert4,
    "schwert12": schwert12,
    "newey_west": newey_west,
    "kpss_short": kpss_short,
}


def _length(T: int) -> int:
    """T as a Python int; any integer type but bool, and at least 1."""
    try:
        length = operator.index(T)
    except TypeError:
        length = 0
    if isinstance(T, bool) or length < 1:
        raise ValueError(f"series length must be a positive integer, got {T!r}")
    return length

