"""The splitting maps u and θ on the Frobenius pushforward.

Over S = F_p[x_1..x_N], the pushforward F_*S is free over S with monomial
basis {F_*(x^α) : 0 ≤ α_j ≤ p−1}.  Writing h = Σ_α h_α^p · x^α gives the
coordinates h_α of F_*h (p-th roots of coefficients are trivial over F_p).

u is the projection onto the top basis vector F_*((x_1⋯x_N)^{p−1}),
normalized by u(F_*((x_1⋯x_N)^{p−1})) = 1: the Cartier-type generator of
Hom_S(F_*S, S).  θ twists u by a fixed multiplier δ: θ(F_*a) = u(F_*(δ·a));
with δ = Δ₁(f^{p−1}) this is the transition operator of the splitting-height
chains computed in `criteria`.  θ runs on exponents packed by
`rings.ExponentCodec`: it reads δ from a per-δ table of packed terms grouped
by residue class, so u's output exponent is one int addition and one exact
division by p.
"""

from __future__ import annotations

from functools import lru_cache

from .rings import ExponentCodec, Polynomial, RingError


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
def _residue_table(delta: Polynomial, width: int):
    """The terms of delta grouped by the residue mod p of the a-exponents they
    pair with, each packed at `width` bits with (p−1)·𝟙 already subtracted."""
    ring = delta.ring
    p = ring.field.p
    codec = ExponentCodec(ring.nvars, width)
    pack = codec.pack
    shift = pack((p - 1,) * ring.nvars)
    table: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for e, c in delta.terms.items():
        table.setdefault(tuple([(p - 1 - x) % p for x in e]), []).append((pack(e) - shift, c))
    return codec, table


def theta(a: Polynomial, delta: Polynomial) -> Polynomial:
    """θ(F_*a) = u(F_*(delta·a)) without forming the full product.

    Only products landing in the top residue class (p−1, ..., p−1) survive u,
    so for each term of `a` we touch only the compatible residue class of
    `delta`.  For such a pair every field of pa + pd (packed a-exponent plus
    packed delta-exponent minus (p−1)·𝟙) is a nonnegative multiple of p, so
    the packed exponent of u's output is (pa + pd) // p.  The residue table
    is cached per delta and field width; it is keyed at the width that holds
    2·max(delta) and re-keyed wider for an `a` whose exponents need more.
    """
    ring = a.ring
    if delta.ring != ring:
        raise RingError("theta arguments must share a ring")
    p = ring.field.p
    top = delta.max_exponent()
    width = max(2 * top, a.max_exponent() + top).bit_length()
    codec, table = _residue_table(delta, width)
    pack = codec.pack
    out: dict[int, int] = {}
    get = out.get
    for ea, ca in a.terms.items():
        bucket = table.get(tuple([x % p for x in ea]))
        if bucket is None:
            continue
        pa = pack(ea)
        for pd, cd in bucket:
            q = (pa + pd) // p
            out[q] = get(q, 0) + ca * cd
    unpack = codec.unpack
    return Polynomial(ring, {unpack(q): r for q, c in out.items() if (r := c % p)})


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
