"""Length-2 Witt vectors over F_p[x] and the splitting obstruction operator Δ₁.

W₂(S) elements are pairs (w0, w1) of polynomials with the classical Witt sum
and product laws.  Δ₁ measures the failure of additivity of the Teichmüller
lift: for a = Σ Mᵢ (a sum of terms, or more generally of grouped summands),

    (0, Δ₁(a)) = [a] − Σ [Mᵢ]      in W₂(S),

equivalently Δ₁(a) = Σ_{0≤αⱼ≤p−1, Σα=p} (1/p)·binom(p; α₁..α_r)·M₁^{α₁}⋯M_r^{α_r}.

`delta1` folds the summands through W₂ additions (one Witt addition per
summand).  The test suite evaluates the closed multinomial formula and the
ghost components independently and compares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from .rings import Polynomial, PolynomialRing, RingError


@dataclass(frozen=True)
class W2Element:
    """A length-2 Witt vector (w0, w1) with components in one ring."""

    w0: Polynomial
    w1: Polynomial

    def __post_init__(self):
        if self.w0.ring != self.w1.ring:
            raise RingError("W2 components must live in the same ring")

    @property
    def ring(self) -> PolynomialRing:
        return self.w0.ring


def teichmuller(a: Polynomial) -> W2Element:
    return W2Element(a, a.ring.zero)


def w2_zero(ring: PolynomialRing) -> W2Element:
    return W2Element(ring.zero, ring.zero)


@lru_cache(maxsize=None)
def _carry_coefficients(p: int) -> tuple[int, ...]:
    """(1/p)·binom(p, i) mod p for i = 1..p−1 (exact integer division)."""
    return tuple((math.comb(p, i) // p) % p for i in range(1, p))


def w2_add(x: W2Element, y: W2Element) -> W2Element:
    """Witt vector addition:

    (x0, x1) + (y0, y1) = (x0+y0, x1+y1 − Σ_{i=1}^{p−1} (1/p)·binom(p,i)·x0^i·y0^(p−i)).
    """
    ring = x.ring
    if ring != y.ring:
        raise RingError("W2 addition across different rings")
    p = ring.field.p
    w0 = x.w0 + y.w0
    carry = ring.zero
    if x.w0 and y.w0:
        coeffs = _carry_coefficients(p)
        xpow = ring.one
        ypows = [ring.one]
        for _ in range(p - 1):
            ypows.append(ypows[-1] * y.w0)
        for i in range(1, p):
            xpow = xpow * x.w0
            c = coeffs[i - 1]
            if c:
                carry = carry + (xpow * ypows[p - i]).scale(c)
    w1 = x.w1 + y.w1 - carry
    return W2Element(w0, w1)


def w2_neg(x: W2Element) -> W2Element:
    """Additive inverse.  For odd p this is componentwise; at p = 2 the second
    component picks up the square of the first."""
    if x.ring.field.p == 2:
        return W2Element(x.w0, x.w1 + x.w0 * x.w0)
    return W2Element(-x.w0, -x.w1)


def w2_sub(x: W2Element, y: W2Element) -> W2Element:
    return w2_add(x, w2_neg(y))


def w2_mul(x: W2Element, y: W2Element) -> W2Element:
    """Witt vector multiplication:

    (x0, x1)·(y0, y1) = (x0·y0, x0^p·y1 + y0^p·x1).
    """
    if x.ring != y.ring:
        raise RingError("W2 multiplication across different rings")
    return W2Element(
        x.w0 * y.w0,
        x.w0.pth_power() * y.w1 + y.w0.pth_power() * x.w1,
    )


def _summands_of(a: Polynomial) -> list[Polynomial]:
    """Default decomposition: one summand per term, in canonical term order."""
    ring = a.ring
    return [ring.from_terms({e: c}) for e, c in a.sorted_terms()]


def delta1(a: Polynomial, summands: Optional[Sequence[Polynomial]] = None) -> Polynomial:
    """Δ₁ of a relative to a decomposition into summands (default: its terms).

    Folds Teichmüller lifts of the summands through w2_add; by the defining
    identity the accumulated second component is −Δ₁(a).  Cost: one Witt
    addition per summand.
    """
    ring = a.ring
    if summands is None:
        summands = _summands_of(a)
    else:
        total = ring.zero
        for s in summands:
            total = total + s
        if total != a:
            raise RingError("summands do not add up to the polynomial")
    acc = w2_zero(ring)
    for s in summands:
        acc = w2_add(acc, teichmuller(s))
    return -acc.w1
