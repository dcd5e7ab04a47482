"""Extended-real order parameter of the Renyi divergence family.

The order ``alpha`` ranges over {-inf} | R | {+inf}. Almost every routine in
this package branches on the same four cases, so the classification lives in
one place: negative infinity, finite-and-not-one, one (the KL limit), and
positive infinity. Only alpha == 1 itself is the KL case: the finite-order
forms stay accurate next to 1 and tend to the KL values continuously.
"""

from __future__ import annotations

import math
from enum import Enum


class AlphaKind(Enum):
    NEG_INF = "neg_inf"
    FINITE = "finite_ne_1"
    ONE = "one"
    POS_INF = "pos_inf"


def classify_alpha(alpha: float) -> AlphaKind:
    """Classify ``alpha`` into exactly one of the four divergence branches.

    Raises ValueError for NaN; every other float (including +-inf) maps to
    exactly one branch.
    """
    alpha = float(alpha)
    if math.isnan(alpha):
        raise ValueError("alpha must not be NaN")
    if alpha == -math.inf:
        return AlphaKind.NEG_INF
    if alpha == math.inf:
        return AlphaKind.POS_INF
    if alpha == 1.0:
        return AlphaKind.ONE
    return AlphaKind.FINITE


def parse_alpha(value) -> float:
    """Parse an alpha from config input: a number or 'inf' / '-inf' strings."""
    if isinstance(value, str):
        text = value.strip().lower()
        if text in ("inf", "+inf", "infinity", "+infinity"):
            return math.inf
        if text in ("-inf", "-infinity"):
            return -math.inf
        value = float(text)
    alpha = float(value)
    if math.isnan(alpha):
        raise ValueError("alpha must not be NaN")
    return alpha
