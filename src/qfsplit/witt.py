"""The splitting obstruction operator Δ₁ (the carry of length-2 Witt vectors).

Δ₁ measures the failure of additivity of the Teichmüller lift: for
a = Σ Mᵢ (a sum of terms, or more generally of grouped summands),

    (0, Δ₁(a)) = [a] − Σ [Mᵢ]      in W₂(S),

equivalently Δ₁(a) = Σ_{0≤αⱼ≤p−1, Σα=p} (1/p)·binom(p; α₁..α_r)·M₁^{α₁}⋯M_r^{α_r}.

`delta1` evaluates the second ghost component of that identity,

    Δ₁(a) = (ã^p − Σ M̃ᵢ^p) / p  mod p,

with the coefficients lifted to [0, p).  The result does not depend on the
lift, since (A + pB)^p ≡ A^p mod p², so every product is taken over ℤ/p²:
one binary powering of ã, one small powering per grouped summand (a term
summand c·x^e contributes c^p·x^{pe}), then an exact division by p.  Inside
the call exponents are packed by `rings.narrow_codec` into fields wide
enough for every exponent up to p·M, M the largest exponent of a and the
summands, so monomial products are single int additions and no field carries
into the next; the products are `rings.packed_mul`, the package's one
product kernel.

The kernels on packed polynomials (dicts from packed exponents to
coefficients; `criteria._Splitting` packs f once and holds every result):
`packed_delta1` forms Δ₁(f) from the Teichmüller lift F of f and F^{p−1}
over ℤ/p² by the one product F·F^{p−1} = F^p, and `delta1_power` forms
Δ₁(f^{p−1}), the multiplier of θ, as h^p − f^{p(p−2)}·Δ₁(f) by the δ-ring
rules, its parts read off F^{p−2} and F^{p−1} (`delta1_power_parts`), not
by the p-th power of f^{p−1} that `delta1(f ** (p − 1))` takes (Joyal,
"δ-anneaux et vecteurs de Witt", 1985; Bhatt and Scholze, "Prisms and
prismatic cohomology", §2).  By the projection formula
u(F_*(b^p·c)) = b·u(F_*c) the rule gives
θ(F_*t) = h·u(F_*t) − f^{p−2}·u(F_*(Δ₁(f)·t)), so the graded engine and
the I_n chain, which apply θ only where u(F_*t) = 0, multiply by Δ₁(f).
Only the coefficient verifier forms Δ₁(f^{p−1}), from level 3 on; at
level 2 it reads the coefficients it needs from the parts and Δ₁(f).

The test suite checks Δ₁ against the W₂ fold, the multinomial formula and
exact integer ghost components, and Δ₁(f^{p−1}) by the δ-ring rules against
the ghost route and the fold (`tests/oracles.py`).
"""

from __future__ import annotations

from typing import Optional, Sequence

from .rings import EXPONENT_LIMIT, ExponentOverflowError, Polynomial, RingError
from .rings import narrow_codec, packed_mul, packed_power


def teichmuller_lift(f: dict[int, int], p: int) -> dict[int, int]:
    """The Teichmüller lift of packed f to ℤ/p²: each coefficient c becomes
    c^p mod p², the Teichmüller representative of c modulo p²."""
    q = p * p
    return {e: pow(c, p, q) for e, c in f.items()}


def delta1(a: Polynomial, summands: Optional[Sequence[Polynomial]] = None) -> Polynomial:
    """Δ₁ of a relative to a decomposition into summands (default: its terms).

    Raises RingError if the summands do not add up to a, and
    ExponentOverflowError if p times the largest exponent of a or of a
    summand exceeds EXPONENT_LIMIT.
    """
    ring = a.ring
    p = ring.field.p
    top = a.max_exponent()
    if summands is not None:
        total = ring.zero
        for s in summands:
            total = total + s
            top = max(top, s.max_exponent())
        if total != a:
            raise RingError("summands do not add up to the polynomial")
    if p * top > EXPONENT_LIMIT:
        raise ExponentOverflowError("Δ₁ would need exponents beyond the 32-bit budget")
    codec = narrow_codec(ring.nvars, p * top)
    q = p * p
    pack = codec.pack
    packed = {pack(e): c for e, c in a.terms.items()}
    acc = packed_power(packed, p, q)
    if summands is None:
        for e, c in packed.items():
            acc[p * e] = acc.get(p * e, 0) - pow(c, p, q)
    else:
        for s in summands:
            for e, c in packed_power({pack(x): v for x, v in s.terms.items()}, p, q).items():
                acc[e] = acc.get(e, 0) - c
    unpack = codec.unpack
    out = {}
    for e, c in acc.items():
        c %= q
        if c:
            out[unpack(e)] = c // p
    return Polynomial(ring, out)


def packed_delta1(lift: dict[int, int], power: dict[int, int], p: int) -> dict[int, int]:
    """Δ₁(f), packed, from F = `teichmuller_lift(f, p)` and `power` = F^{p−1}
    over ℤ/p²: (F^p − Σ c·x^{pe})/p mod p over the terms c·x^e of F, the
    ghost route of `delta1` on the Teichmüller lift, whose coefficients
    satisfy c^p ≡ c mod p².  Every exponent stays within p·M, M the largest
    exponent of f; the packing and the EXPONENT_LIMIT test are the caller's.
    """
    q = p * p
    ghost = packed_mul(power, lift, q)  # F^p
    for e, c in lift.items():  # minus Σ c^p·x^{pe}, which leaves p·Δ₁(f)
        ghost[p * e] = ghost.get(p * e, 0) - c
    return {e: r // p for e, c in ghost.items() if (r := c % q)}


def delta1_power_parts(
    low: dict[int, int], power: dict[int, int], p: int
) -> tuple[dict[int, int], dict[int, int]]:
    """h^p and f^{p(p−2)} mod p, packed, the parts of `delta1_power`'s
    h^p − f^{p(p−2)}·Δ₁(f) besides Δ₁(f), from its `low` and `power`.  Over
    F_p both are p-th powers, so each is keyed p·e by the exponents e of h
    and of f^{p−2}: h^p has the coefficient h_e at x^{pe}, and f^{p(p−2)}
    the coefficient of f^{p−2} at x^e."""
    q = p * p
    hp = {p * e: h for e, c in power.items() if (h := (c - pow(c % p, p, q)) % q // p)}
    scale = {p * e: r for e, c in low.items() if (r := c % p)}
    return hp, scale


def delta1_power(
    d1: dict[int, int], low: dict[int, int], power: dict[int, int], p: int
) -> dict[int, int]:
    """Δ₁(f^{p−1}) by the δ-ring rules, without the p-th power of f^{p−1}.

    Takes, packed, `d1` = Δ₁(f) (`packed_delta1`), and `low` = F^{p−2} and
    `power` = F^{p−1} over ℤ/p², F the Teichmüller lift of f.  With
    p·h = F^{p−1} − T(F^{p−1} mod p), where T is the same lift,

        Δ₁(f^{p−1}) = h^p − f^{p(p−2)}·Δ₁(f),

    from δ(A^k) ≡ k·A^{p(k−1)}·δ(A) and δ(A − p·h) ≡ δ(A) − h^p (mod p),
    since Δ₁(g) = −δ(T(g)) mod p for the Frobenius lift x_i ↦ x_i^p.  Every
    exponent stays within p(p−1)·M, M the largest exponent of f, so the
    caller's packing must hold that; the ghost route `delta1(f ** (p − 1))`
    raises ExponentOverflowError exactly when p(p−1)·M exceeds
    EXPONENT_LIMIT, and that test is the caller's part too.
    """
    hp, scale = delta1_power_parts(low, power, p)
    out = packed_mul(scale, d1, p)
    for e, h in hp.items():  # minus h^p, so out is −Δ₁(f^{p−1})
        out[e] = out.get(e, 0) - h
    return {e: r for e, c in out.items() if (r := -c % p)}
