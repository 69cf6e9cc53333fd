"""Continued fractions, exactly.

Rational inputs use the Euclidean algorithm and terminate; field elements
(quadratic irrationals and friends) expand to any requested depth through
exact floors under the chosen embedding.
"""

from __future__ import annotations

from fractions import Fraction

from .numberfield import FieldElement

__all__ = ["continued_fraction", "convergents", "cf_value"]


def continued_fraction(x, max_terms=64, root_index=None):
    """Quotients [a0; a1, a2, ...] of x, exact.

    Rational x terminates in canonical form (last quotient >= 2 when the
    expansion has length > 1); irrational field elements are truncated at
    ``max_terms`` quotients, and are read under the real embedding
    ``root_index``, which they must name.
    """
    if isinstance(x, FieldElement):
        if root_index is None:
            raise ValueError("a field element needs root_index, the embedding to read it under")
        out = []
        cur = x
        for _ in range(max_terms):
            a = cur.floor_at(root_index)
            out.append(a)
            frac = cur - a
            if frac.is_zero():
                break
            cur = frac.inverse()
        return out
    x = Fraction(x)
    out = []
    while True:
        a = x.numerator // x.denominator
        out.append(a)
        frac = x - a
        if frac == 0:
            break
        x = 1 / frac
        if len(out) > 10**6:
            raise RuntimeError("runaway continued fraction")
    return out


def convergents(quotients):
    """[(p_k, q_k)] for k = 0..len-1, with the standard recurrence."""
    out = []
    p_prev, q_prev = 1, 0   # k = -1
    p, q = quotients[0], 1  # k = 0
    out.append((p, q))
    for a in quotients[1:]:
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        out.append((p, q))
    return out


def cf_value(quotients):
    """Exact rational value of a finite continued fraction."""
    acc = Fraction(quotients[-1])
    for a in reversed(quotients[:-1]):
        acc = a + 1 / acc
    return acc
