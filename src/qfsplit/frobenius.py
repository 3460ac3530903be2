"""The splitting maps u and θ on the Frobenius pushforward.

Over S = F_p[x_1..x_N], the pushforward F_*S is free over S with monomial
basis {F_*(x^α) : 0 ≤ α_j ≤ p−1}.  Writing h = Σ_α h_α^p · x^α gives the
coordinates h_α of F_*h (p-th roots of coefficients are trivial over F_p).

u is the projection onto the top basis vector F_*((x_1⋯x_N)^{p−1}),
normalized by u(F_*((x_1⋯x_N)^{p−1})) = 1: the Cartier-type generator of
Hom_S(F_*S, S).  θ twists u by a fixed multiplier δ: θ(F_*a) = u(F_*(δ·a));
with δ = Δ₁(f^{p−1}) this is the transition operator of the splitting-height
chains of `criteria`, which apply it only on Ker u, as f^{p−2} times the
twist by δ = −Δ₁(f).  `packed_theta` is the one θ of the package: it reads
δ from a table of its packed terms grouped by residue class
(`residue_table`) and each term of a from its codec's residues, so the
output exponent is one int addition and one exact division by p, and
`packed_u` is the same division for the terms in the top residue class.
`theta`, `u_map` and `iterated_u` are their edges for polynomials on the
ring layout, packing in and unpacking out.  The ring layout's fields hold
any exponent sum that θ forms, so its residue table is cached per δ alone
(`_residue_table`); the I_n chain reads its table of −Δ₁(f) from that
cache, so a certificate's verifier reads its solver's table.
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
    """u^r(F^r_* h) by `packed_u` with q = p^r, packing at the edge."""
    if r < 0:
        raise RingError("negative iteration count")
    if r == 0:
        return h
    ring = h.ring
    codec = ring.codec
    return Polynomial(
        ring, codec.unpack_terms(packed_u(codec.pack_terms(h.terms), codec, ring.field.p**r))
    )


def packed_u(h: dict[int, int], codec: ExponentCodec, q: int) -> dict[int, int]:
    """u^r(F^r_* h) for packed h and q = p^r: the terms whose every field is
    ≡ q − 1 (mod q), each exponent e sent to (e − (q−1)·𝟙) / q, which is
    exact field by field (and on the degree field of the ring layout)."""
    top = (q - 1,) * len(codec.shifts)
    shift = codec.pack(top)
    residues = codec.residues
    return {(k - shift) // q: c for k, c in h.items() if residues(k, q) == top}


def residue_table(
    delta: dict[int, int], codec: ExponentCodec, p: int
) -> dict[tuple[int, ...], list[tuple[int, int]]]:
    """The packed terms of delta grouped by the residues mod p of the
    a-exponents they pair with under u, each with (p−1)·𝟙 already
    subtracted."""
    shift = codec.pack([p - 1] * len(codec.shifts))
    residues = codec.residues
    table: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for e, c in delta.items():
        table.setdefault(residues(e, p), []).append((e - shift, c))
    # a pairs with d exactly when a + d ≡ p − 1 field by field
    return {tuple([p - 1 - x for x in r]): bucket for r, bucket in table.items()}


def packed_theta(
    a: dict[int, int],
    codec: ExponentCodec,
    table: dict[tuple[int, ...], list[tuple[int, int]]],
    p: int,
) -> dict[int, int]:
    """θ(F_*a) = u(F_*(delta·a)) for a packed by `codec`, delta given by its
    `residue_table` under the same codec, without forming the full product;
    the image comes reduced mod p, zeros dropped.

    Only products landing in the top residue class (p−1, ..., p−1) survive u,
    so for each term of `a` we touch only the compatible residue class of
    delta (`codec.residues`).  For such a pair every field of pa + pd (packed
    a-exponent plus packed delta-exponent minus (p−1)·𝟙) is a nonnegative
    multiple of p, so the packed exponent of u's output is (pa + pd) // p.
    The codec must hold every field of a·delta: the ring layout holds any
    two exponents within EXPONENT_LIMIT."""
    out: dict[int, int] = {}
    get = out.get
    residues = codec.residues
    for pa, ca in a.items():
        bucket = table.get(residues(pa, p))
        if bucket is None:
            continue
        for pd, cd in bucket:
            q = (pa + pd) // p
            out[q] = get(q, 0) + ca * cd
    return {q: r for q, c in out.items() if (r := c % p)}


@lru_cache(maxsize=32)
def _residue_table(delta: Polynomial):
    """delta's `residue_table` on the ring layout."""
    ring = delta.ring
    return residue_table(ring.codec.pack_terms(delta.terms), ring.codec, ring.field.p)


def theta(a: Polynomial, delta: Polynomial) -> Polynomial:
    """θ(F_*a) = u(F_*(delta·a)): `packed_theta` on the ring layout, packing
    at the edge; the residue table is cached per delta."""
    ring = a.ring
    if delta.ring != ring:
        raise RingError("theta arguments must share a ring")
    codec = ring.codec
    out = packed_theta(codec.pack_terms(a.terms), codec, _residue_table(delta), ring.field.p)
    return Polynomial(ring, codec.unpack_terms(out))


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
