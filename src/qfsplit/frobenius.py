"""The splitting maps u and θ on the Frobenius pushforward.

Over S = F_p[x_1..x_N], the pushforward F_*S is free over S with monomial
basis {F_*(x^α) : 0 ≤ α_j ≤ p−1}.  Writing h = Σ_α h_α^p · x^α gives the
coordinates h_α of F_*h (p-th roots of coefficients are trivial over F_p).

u is the projection onto the top basis vector F_*((x_1⋯x_N)^{p−1}),
normalized by u(F_*((x_1⋯x_N)^{p−1})) = 1: the Cartier-type generator of
Hom_S(F_*S, S).  θ twists u by a fixed multiplier δ: θ(F_*a) = u(F_*(δ·a));
with δ = Δ₁(f^{p−1}) this is the transition operator of the splitting-height
chains computed in `criteria`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .rings import Polynomial, PolynomialRing, RingError


class FreeModuleVector:
    """An element of a finite free module S^r, stored as position ↦ polynomial.

    Positions are small integers whose meaning (e.g. which p-basis residue
    they stand for) is fixed by the surrounding computation.  Zero components
    are never stored.
    """

    __slots__ = ("ring", "components")

    def __init__(self, ring: PolynomialRing, components: dict[int, Polynomial]):
        self.ring = ring
        self.components = {i: c for i, c in components.items() if c}

    def is_zero(self) -> bool:
        return not self.components

    def __bool__(self) -> bool:
        return bool(self.components)

    def get(self, i: int) -> Polynomial:
        return self.components.get(i, self.ring.zero)

    def __add__(self, other: "FreeModuleVector") -> "FreeModuleVector":
        out = dict(self.components)
        for i, c in other.components.items():
            s = out.get(i)
            s = c if s is None else s + c
            if s:
                out[i] = s
            elif i in out:
                del out[i]
        return FreeModuleVector(self.ring, out)

    def __sub__(self, other: "FreeModuleVector") -> "FreeModuleVector":
        return self + other.scale_term((0,) * self.ring.nvars, -1)

    def scale_term(self, exps: Sequence[int], coeff: int) -> "FreeModuleVector":
        """Multiply by the single term coeff·x^exps."""
        return FreeModuleVector(
            self.ring, {i: c.mul_term(exps, coeff) for i, c in self.components.items()}
        )

    def scale(self, poly: Polynomial) -> "FreeModuleVector":
        return FreeModuleVector(self.ring, {i: c * poly for i, c in self.components.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FreeModuleVector):
            return NotImplemented
        return self.ring == other.ring and self.components == other.components

    def __repr__(self) -> str:
        inner = ", ".join(f"{i}: {c}" for i, c in sorted(self.components.items()))
        return f"<vector {{{inner}}}>"


# ---------------------------------------------------------------------------
# the u map
# ---------------------------------------------------------------------------


def u_map(h: Polynomial) -> Polynomial:
    """u(F_*h): the coordinate of F_*h along F_*((x_1⋯x_N)^{p−1})."""
    return iterated_u(h, 1)


def iterated_u(h: Polynomial, r: int) -> Polynomial:
    """u^r(F^r_* h).  Single pass: keeps terms with e ≡ p^r − 1 (mod p^r)."""
    if r < 0:
        raise RingError("negative iteration count")
    if r == 0:
        return h
    ring = h.ring
    q = ring.field.p**r
    out: dict[tuple[int, ...], int] = {}
    for e, c in h.terms.items():
        if all(x % q == q - 1 for x in e):
            out[tuple(x // q for x in e)] = c
    return Polynomial(ring, out)


@lru_cache(maxsize=32)
def _residue_buckets(delta: Polynomial):
    """Group the terms of delta by exponent residue class mod p."""
    p = delta.ring.field.p
    buckets: dict[tuple[int, ...], list[tuple[tuple[int, ...], int]]] = {}
    for e, c in delta.sorted_terms():
        buckets.setdefault(tuple(x % p for x in e), []).append((e, c))
    return buckets


def theta(a: Polynomial, delta: Polynomial) -> Polynomial:
    """θ(F_*a) = u(F_*(delta·a)) without forming the full product.

    Only products landing in the top residue class (p−1, ..., p−1) survive u,
    so for each term of `a` we touch only the compatible residue bucket of
    `delta`.  The bucket table is cached per delta polynomial.
    """
    ring = a.ring
    if delta.ring != ring:
        raise RingError("theta arguments must share a ring")
    p = ring.field.p
    buckets = _residue_buckets(delta)
    out: dict[tuple[int, ...], int] = {}
    get = out.get
    for ea, ca in a.terms.items():
        want = tuple((p - 1 - x) % p for x in ea)
        for ed, cd in buckets.get(want, ()):
            q = tuple((x + y - (p - 1)) // p for x, y in zip(ea, ed))
            s = (get(q, 0) + ca * cd) % p
            if s:
                out[q] = s
            elif q in out:
                del out[q]
    return Polynomial(ring, out)


# ---------------------------------------------------------------------------
# the monomial membership shortcut
# ---------------------------------------------------------------------------


def in_max_ideal_frobenius_power(a: Polynomial, n: int) -> bool:
    """Whether a ∈ m^[p^n] = (x_1^(p^n), ..., x_N^(p^n)).

    Monomial ideal shortcut: a monomial lies in m^[q] iff some exponent is
    ≥ q, and a polynomial lies in a monomial ideal iff all its terms do.
    Never runs a Groebner computation.
    """
    if n < 1:
        raise RingError("frobenius power index must be >= 1")
    q = a.ring.field.p**n
    return all(max(e) >= q for e in a.terms)
