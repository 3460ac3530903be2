"""The splitting maps u and θ on the Frobenius pushforward.

Over S = F_p[x_1..x_N], the pushforward F_*S is free over S with monomial
basis {F_*(x^α) : 0 ≤ α_j ≤ p−1}.  Writing h = Σ_α h_α^p · x^α gives the
coordinates h_α of F_*h (p-th roots of coefficients are trivial over F_p).

u is the projection onto the top basis vector F_*((x_1⋯x_N)^{p−1}),
normalized by u(F_*((x_1⋯x_N)^{p−1})) = 1: the Cartier-type generator of
Hom_S(F_*S, S).  θ twists u by a fixed multiplier δ: θ(F_*a) = u(F_*(δ·a));
with δ = Δ₁(f^{p−1}) this is the transition operator of the splitting-height
chains computed in `criteria`.  θ runs on exponents packed by
`rings.ExponentCodec`: `packed_theta` reads δ from a table of its packed
terms grouped by residue class (`residue_table`), so u's output exponent is
one int addition and one exact division by p.  The graded engine keeps its
θ orbit packed and calls that kernel directly; `theta` is its edge for
polynomials, which packs, caches the table per δ, and unpacks.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

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
    top, n = q - 1, ring.nvars
    return Polynomial(
        ring,
        {
            tuple([x // q for x in e]): c
            for e, c in h.terms.items()
            if [x % q for x in e].count(top) == n
        },
    )


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
    a: Iterable[tuple[int, tuple[int, ...], int]],
    table: dict[tuple[int, ...], list[tuple[int, int]]],
    p: int,
) -> dict[int, int]:
    """θ(F_*a) = u(F_*(delta·a)) on packed exponents, delta given by its
    `residue_table`, without forming the full product.  `a` comes as
    (packed exponent, its residues mod p, coefficient) triples; the
    coefficients come back unreduced, and reducing them mod p (dropping
    zeros) is left to the caller's one pass over the result.

    Only products landing in the top residue class (p−1, ..., p−1) survive u,
    so for each term of `a` we touch only the compatible residue class of
    delta.  For such a pair every field of pa + pd (packed a-exponent plus
    packed delta-exponent minus (p−1)·𝟙) is a nonnegative multiple of p, so
    the packed exponent of u's output is (pa + pd) // p.  The packing must
    hold every field of a·delta."""
    out: dict[int, int] = {}
    get = out.get
    for pa, residues, ca in a:
        bucket = table.get(residues)
        if bucket is None:
            continue
        for pd, cd in bucket:
            q = (pa + pd) // p
            out[q] = get(q, 0) + ca * cd
    return out


@lru_cache(maxsize=32)
def _residue_table(delta: Polynomial, width: int):
    """The codec of `width` bits and delta's `residue_table` under it."""
    codec = ExponentCodec(delta.ring.nvars, width)
    pack = codec.pack
    return codec, residue_table(
        {pack(e): c for e, c in delta.terms.items()}, codec, delta.ring.field.p
    )


def theta(a: Polynomial, delta: Polynomial) -> Polynomial:
    """θ(F_*a) = u(F_*(delta·a)) by `packed_theta`, packing at the edge.

    The residue table is cached per delta and field width; it is keyed at
    the width that holds 2·max(delta) and re-keyed wider for an `a` whose
    exponents need more.
    """
    ring = a.ring
    if delta.ring != ring:
        raise RingError("theta arguments must share a ring")
    top = delta.max_exponent()
    width = max(2 * top, a.max_exponent() + top).bit_length()
    codec, table = _residue_table(delta, width)
    pack, unpack, p = codec.pack, codec.unpack, ring.field.p
    # only terms with a compatible residue class are packed
    terms = [
        (pack(e), r, c) for e, c in a.terms.items() if (r := tuple([x % p for x in e])) in table
    ]
    out = packed_theta(terms, table, p)
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
