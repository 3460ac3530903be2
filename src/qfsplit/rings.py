"""Prime fields and sparse multivariate polynomials over F_p.

Everything downstream (Witt vectors, Frobenius splittings, Groebner bases)
works over a polynomial ring S = F_p[x_1, ..., x_N].  Polynomials are stored
sparsely as a hash map from exponent vectors (tuples of machine ints) to
nonzero coefficients in [1, p), with a lazily cached graded-reverse-lex
sorted view used for display and leading-term scans.

Inner loops work on packed exponents instead: `ExponentCodec` packs a tuple
into one int with a fixed number of bits per variable, so a monomial product
is one int addition.  It is the only place exponents are packed, and it
holds the per-field tests those loops need on packed ints: the guard-bit
test of an exponent against a per-variable cap, and the residues mod p of
its fields, which every codec remembers.  It comes in two layouts.
Products, powers, Δ₁, the graded engine's θ orbit and pairings pack under a
narrow codec (`narrow_codec`), whose fields are just wide enough for the
largest exponent at hand plus a guard bit: small ints are what keeps those
loops fast.  Narrow codecs of one width are one object, so the problems of
a family share one residue memo.  The Groebner kernel and the I_n chain
pack under the ring layout (`PolynomialRing.codec`, one per variable
count): 32-bit fields that hold exactly 0..EXPONENT_LIMIT below a guard
bit, under an unbounded field for the total degree, on which divisibility
is one guard-bit subtraction and `ExponentCodec.key` sorts like
`grevlex_key`.

Every product of polynomials runs one kernel, `packed_mul` (and
`packed_power` over it, whose squarings take the kernel's square path):
`Polynomial.__mul__`, `__pow__`, `mul_term` and `capped_mul` pack their
operands once, call it and unpack once.  The one exception is a product
with a one-term factor, which `__mul__` forms by shifting and scaling the
other factor's terms, after the same ring and exponent checks.

Only prime coefficient fields are supported: every criterion implemented in
this package reads or writes coefficients through the identity c^(1/p) = c,
which is special to F_p.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Iterable, Mapping, Optional, Sequence

# Exponents are stored as plain ints but kept below 2^31 so that exponent
# arithmetic stays within machine-word range on every platform we target.
EXPONENT_LIMIT = 2**31 - 1
# the ring layout's field: EXPONENT_LIMIT and a guard bit above it
FIELD_WIDTH = 32
# how many residue classes a codec remembers per prime
RESIDUE_MEMO = 4096


class RingError(ValueError):
    """Base class for ring construction / arithmetic errors."""


class ExponentOverflowError(RingError):
    """An exponent would exceed the 32-bit budget."""


class ParseError(RingError):
    """Polynomial text did not match the expression grammar."""


class HomogeneityError(RingError):
    """A polynomial is not homogeneous for the requested grading."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class PrimeField:
    """The field F_p for a prime 2 <= p < 2^31, with canonical representatives [0, p)."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int) or not 2 <= p <= EXPONENT_LIMIT:
            raise RingError(f"field characteristic must be an integer in [2, 2^31-1], got {p!r}")
        if not _is_prime(p):
            raise RingError(f"{p} is not prime")
        self.p = p

    def __call__(self, n: int) -> int:
        return n % self.p

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in F_p")
        return pow(a, self.p - 2, self.p)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"


def grevlex_key(exps: tuple[int, ...]) -> tuple:
    """Sort key for graded reverse lexicographic order (ascending).

    a > b  iff  deg a > deg b, or degrees tie and the rightmost nonzero
    entry of a - b is negative.  Encoded as (total degree, negated reversed
    exponents) compared lexicographically.
    """
    return (sum(exps), tuple(-e for e in reversed(exps)))


class ExponentCodec:
    """Exponent tuples of `nvars` variables packed into one int, `width`
    bits per variable, the first variable in the lowest field.

    Sums of packed exponents are packed sums as long as every field of the
    sum stays in [0, 2^width); choosing a width that holds the largest
    exponent sum is the caller's part.  The top bit of each field is its
    guard bit: for exponents whose fields stay below it, `within` compares
    every field with a cap in one subtraction.

    With `degree`, the fields sit under one more, unbounded top field that
    holds the total degree: the ring layout (`ring_codec`), whose fields of
    32 bits hold exactly 0..EXPONENT_LIMIT below their guard bits.  On it a
    monomial product is one int addition, x^a | x^b is one guard-bit
    subtraction (`divides`), and `key` sorts exactly like `grevlex_key`.
    """

    __slots__ = (
        "shifts", "mask", "guard", "top", "low",
        "_weights", "_values", "_guard_bit", "_fold", "_memo",
    )

    def __init__(self, nvars: int, width: int, degree: bool = False):
        self.shifts = tuple([width * j for j in range(nvars)])
        self.mask = (1 << width) - 1
        self._guard_bit = width - 1
        self.guard = sum([1 << (s + self._guard_bit) for s in self.shifts])
        # the degree field's shift, and the mask of everything below it
        self.top = width * nvars if degree else None
        self.low = (1 << (width * nvars)) - 1
        # an exponent e_j adds e_j to its own field and, with `degree`, to
        # the degree field
        above = 1 << self.top if degree else 0
        self._weights = tuple([(1 << s) + above for s in self.shifts])
        self._values = self.low ^ self.guard
        # 2^width ≡ 1 mod 2^width − 1, so a packed int is its field sum mod that
        self._fold = self.mask
        # the residues of the keys read so far, per p (see `residues`)
        self._memo: dict[int, dict[int, tuple[int, ...]]] = {}

    def pack(self, exps: Sequence[int]) -> int:
        return sum(map(int.__mul__, exps, self._weights))

    def unpack(self, key: int) -> tuple[int, ...]:
        mask = self.mask
        return tuple([(key >> s) & mask for s in self.shifts])

    def pack_terms(self, terms: Mapping[tuple[int, ...], int]) -> dict[int, int]:
        """A term map with its exponents packed; raises ExponentOverflowError
        for an exponent that no field holds, rather than let it carry."""
        if terms and max(map(max, terms)) > self.mask >> 1:
            raise ExponentOverflowError("exponent beyond the 32-bit budget")
        pack = self.pack
        return {pack(e): c for e, c in terms.items()}

    def unpack_terms(self, terms: Mapping[int, int]) -> dict[tuple[int, ...], int]:
        unpack = self.unpack
        return {unpack(k): c for k, c in terms.items()}

    def ceiling(self, caps: Sequence[Optional[int]]) -> int:
        """The limit that `within` tests against: each field holds its cap
        (None: no cap), clipped to the room below the guard bit, with the
        guard bit set."""
        room = self.mask >> 1
        caps = [room if c is None else min(c, room) for c in caps]
        return self.guard + sum(map(int.__lshift__, caps, self.shifts))

    def within(self, limit: int, key: int) -> bool:
        """Whether every field of `key` is at most its cap in `limit` (from
        `ceiling`).  A field over its cap clears its own guard bit and
        borrows nothing from the next field, so (limit − key) keeps every
        guard bit exactly when all fields fit."""
        guard = self.guard
        return (limit - key) & guard == guard

    def residues(self, key: int, p: int) -> tuple[int, ...]:
        """The fields of `key` mod p, the residue class that θ buckets by.
        Every codec remembers up to RESIDUE_MEMO of them per p: the I_n
        chain's θ, u and translates read the same exponents over and over,
        and so do the graded engine's twists, from one problem to the next
        of a family (codecs of one width are one object, `narrow_codec`)."""
        memo = self._memo.get(p)
        if memo is None:
            memo = self._memo[p] = {}
        out = memo.get(key)
        if out is None:
            if len(memo) >= RESIDUE_MEMO:
                memo.clear()
            mask = self.mask
            out = memo[key] = tuple([((key >> s) & mask) % p for s in self.shifts])
        return out

    # -- the ring layout ----------------------------------------------

    def key(self, key: int) -> int:
        """A grevlex sort key: the degree field first, then the fields
        negated, the last variable's most significant.  It is its own
        inverse, so a heap of negated keys, 2·(k & low) − k, gives back k."""
        return key - 2 * (key & self.low)

    def divides(self, a: int, b: int) -> bool:
        """x^a | x^b: each field of (b + guard − a) keeps its guard bit iff
        a's field is at most b's, and none borrows from the next."""
        guard = self.guard
        return (b + guard - a) & guard == guard

    def lcm(self, a: int, b: int) -> int:
        """The field-wise maximum, its degree field included."""
        ge = ((a | self.guard) - b) & self.guard  # guard bits where a ≥ b
        ge -= ge >> self._guard_bit  # widened to the whole field
        low = (a & ge) | (b & (self._values ^ ge))
        if (a >> self.top) + (b >> self.top) < self._fold:
            return low + (low % self._fold << self.top)
        return low + (sum(self.unpack(low)) << self.top)

    def degree(self, key: int) -> int:
        return key >> self.top

    def of_degree(self, d: int) -> int:
        """The smallest key of total degree d: key < of_degree(d) iff its
        degree is below d."""
        return d << self.top

    def largest(self, keys: Iterable[int]) -> int:
        """The largest single exponent among `keys` (0 for none)."""
        return max((max(self.unpack(k)) for k in keys), default=0)


@lru_cache(maxsize=None)
def ring_codec(nvars: int) -> ExponentCodec:
    """The ring layout of `nvars` variables: 32-bit fields under a degree
    field, shared by every ring of that many variables."""
    return ExponentCodec(nvars, FIELD_WIDTH, degree=True)


# every narrow codec made so far, one per (nvars, width)
_NARROW: dict[tuple[int, int], ExponentCodec] = {}


def narrow_codec(nvars: int, largest: int) -> ExponentCodec:
    """The narrow layout of `nvars` variables whose fields hold every
    exponent up to `largest`: its bit length plus a guard bit, so that
    `within` tests caps exactly.  Layouts of one width are one object, so
    the problems of a family share one residue memo (`residues`), and
    there is at most one memo per (nvars, width)."""
    width = largest.bit_length() + 1
    codec = _NARROW.get((nvars, width))
    if codec is None:
        codec = _NARROW[nvars, width] = ExponentCodec(nvars, width)
    return codec


def packed_mul(f: dict[int, int], g: dict[int, int], q: int) -> dict[int, int]:
    """Product of two packed polynomials, coefficients mod q: the one
    term-pair loop of the package.  A square (`f is g`) walks only the
    triangle of term pairs, each cross term once with its coefficient
    doubled.  The codec must hold every field of f·g."""
    out: dict[int, int] = {}
    get = out.get
    if f is g:
        items = list(f.items())
        for i, (ea, ca) in enumerate(items, 1):
            e = ea + ea
            out[e] = get(e, 0) + ca * ca
            ca += ca
            for eb, cb in items[i:]:
                e = ea + eb
                out[e] = get(e, 0) + ca * cb
    else:
        gitems = list(g.items())
        for ea, ca in f.items():
            for eb, cb in gitems:
                e = ea + eb
                out[e] = get(e, 0) + ca * cb
    return {e: r for e, c in out.items() if (r := c % q)}


def packed_power(f: dict[int, int], n: int, q: int) -> dict[int, int]:
    """f^n mod q for n ≥ 0 by left-to-right binary powering."""
    if n == 0:
        return {0: 1}
    out = f
    for bit in bin(n)[3:]:
        out = packed_mul(out, out, q)
        if bit == "1":
            out = packed_mul(out, f, q)
    return out


class PolynomialRing:
    """S = F_p[x_1, ..., x_N] with a fixed variable naming."""

    __slots__ = ("field", "variables", "nvars", "codec", "_var_index", "_zero", "_one")

    def __init__(self, field: PrimeField, variables: Sequence[str]):
        names = tuple(variables)
        if not names:
            raise RingError("a polynomial ring needs at least one variable")
        if len(set(names)) != len(names):
            raise RingError(f"duplicate variable names in {names}")
        for nm in names:
            if not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", nm):
                raise RingError(f"bad variable name {nm!r}")
        self.field = field
        self.variables = names
        self.nvars = len(names)
        # the ring layout that the Groebner kernel and the I_n chain pack by
        self.codec = ring_codec(self.nvars)
        self._var_index = {nm: i for i, nm in enumerate(names)}
        self._zero = None
        self._one = None

    # -- constructors --------------------------------------------------

    @property
    def zero(self) -> "Polynomial":
        if self._zero is None:
            self._zero = Polynomial(self, {})
        return self._zero

    @property
    def one(self) -> "Polynomial":
        if self._one is None:
            self._one = Polynomial(self, {(0,) * self.nvars: 1})
        return self._one

    def constant(self, c: int) -> "Polynomial":
        c %= self.field.p
        if c == 0:
            return self.zero
        return Polynomial(self, {(0,) * self.nvars: c})

    def _exponents(self, exps: Sequence[int]) -> tuple[int, ...]:
        """`exps` as an exponent tuple of this ring; raises RingError for a
        wrong length or a negative entry."""
        e = tuple(exps)
        if len(e) != self.nvars:
            raise RingError(f"exponent vector {e} has wrong length for {self.nvars} variables")
        if any(x < 0 for x in e):
            raise RingError(f"negative exponent in {e}")
        return e

    def monomial(self, exps: Sequence[int], coeff: int = 1) -> "Polynomial":
        e = self._exponents(exps)
        if any(x > EXPONENT_LIMIT for x in e):
            raise ExponentOverflowError(f"exponent beyond 32-bit budget in {e}")
        c = coeff % self.field.p
        return Polynomial(self, {e: c} if c else {})

    def variable(self, name: str) -> "Polynomial":
        try:
            i = self._var_index[name]
        except KeyError:
            raise RingError(f"unknown variable {name!r}; ring has {self.variables}") from None
        e = [0] * self.nvars
        e[i] = 1
        return Polynomial(self, {tuple(e): 1})

    def from_terms(self, terms: Mapping[tuple[int, ...], int]) -> "Polynomial":
        """Build a polynomial, normalizing coefficients mod p and dropping zeros."""
        p = self.field.p
        out: dict[tuple[int, ...], int] = {}
        for e, c in terms.items():
            c %= p
            if c:
                out[tuple(e)] = c
        return Polynomial(self, out)

    def parse(self, text: str) -> "Polynomial":
        return parse_polynomial(text, self)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PolynomialRing)
            and other.field == self.field
            and other.variables == self.variables
        )

    def __hash__(self) -> int:
        return hash((self.field.p, self.variables))

    def __repr__(self) -> str:
        return f"PolynomialRing(F_{self.field.p}, {list(self.variables)})"


class Polynomial:
    """Sparse polynomial over F_p.  Treat as immutable.

    The term map never stores a zero coefficient; the zero polynomial is the
    empty map.  `sorted_terms()` caches the grevlex-descending view.
    """

    __slots__ = ("ring", "terms", "_sorted", "_maxexp", "_hash")

    def __init__(self, ring: PolynomialRing, terms: dict[tuple[int, ...], int]):
        self.ring = ring
        self.terms = terms
        self._sorted: Optional[list[tuple[tuple[int, ...], int]]] = None
        self._maxexp: Optional[int] = None
        self._hash: Optional[int] = None

    # -- views ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        """Terms in descending grevlex order (cached)."""
        if self._sorted is None:
            self._sorted = sorted(
                self.terms.items(), key=lambda t: grevlex_key(t[0]), reverse=True
            )
        return self._sorted

    def max_exponent(self) -> int:
        """Largest single exponent appearing (0 for the zero polynomial); cached."""
        if self._maxexp is None:
            self._maxexp = max((max(e) for e in self.terms), default=0)
        return self._maxexp

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def leading_term(self) -> tuple[tuple[int, ...], int]:
        """Largest (exponent, coefficient) pair under grevlex; error on zero."""
        if not self.terms:
            raise RingError("zero polynomial has no leading term")
        return self.sorted_terms()[0]

    # -- arithmetic ----------------------------------------------------

    def _require_same_ring(self, other: "Polynomial") -> None:
        if other.ring is not self.ring and other.ring != self.ring:
            raise RingError(f"mixed rings: {self.ring} vs {other.ring}")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._require_same_ring(other)
        p = self.ring.field.p
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = (out.get(e, 0) + c) % p
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        return Polynomial(self.ring, out)

    def __neg__(self) -> "Polynomial":
        p = self.ring.field.p
        if p == 2:
            return self
        return Polynomial(self.ring, {e: p - c for e, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def scale(self, c: int) -> "Polynomial":
        c %= self.ring.field.p
        if c == 0:
            return self.ring.zero
        if c == 1:
            return self
        p = self.ring.field.p
        return Polynomial(self.ring, {e: (c * v) % p for e, v in self.terms.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._require_same_ring(other)
        if not self.terms or not other.terms:
            return self.ring.zero
        top = self.max_exponent() + other.max_exponent()
        if top > EXPONENT_LIMIT:
            raise ExponentOverflowError("product would exceed the 32-bit exponent budget")
        # the smaller operand on the outside
        a, b = (self, other) if len(self.terms) <= len(other.terms) else (other, self)
        p = self.ring.field.p
        if len(a.terms) == 1:
            # a term times b: b's terms shifted and scaled, none cancels mod p
            ((e, c),) = a.terms.items()
            return Polynomial(
                self.ring, {tuple(map(int.__add__, k, e)): v * c % p for k, v in b.terms.items()}
            )
        pack = (codec := narrow_codec(self.ring.nvars, top)).pack_terms
        out = packed_mul(pack(a.terms), pack(b.terms), p)
        return Polynomial(self.ring, codec.unpack_terms(out))

    def mul_term(self, exps: Sequence[int], coeff: int = 1) -> "Polynomial":
        """Multiply by a single term coeff * x^exps.  Raises RingError for an
        exponent vector of the wrong length or with a negative entry; a zero
        coefficient or a zero self gives 0 whatever the size of `exps`."""
        e = self.ring._exponents(exps)
        coeff %= self.ring.field.p
        if not coeff:
            return self.ring.zero
        return self * Polynomial(self.ring, {e: coeff})

    def __pow__(self, n: int) -> "Polynomial":
        """self^n.  Raises ExponentOverflowError iff n·M passes
        EXPONENT_LIMIT (n ≥ 2, M the largest exponent), as n·M is the
        largest exponent of the power."""
        if n < 0:
            raise RingError("negative power of a polynomial")
        if n == 0:
            return self.ring.one
        if n == 1 or not self.terms:
            return self
        top = n * self.max_exponent()
        if top > EXPONENT_LIMIT:
            raise ExponentOverflowError("product would exceed the 32-bit exponent budget")
        p = self.ring.field.p
        if len(self.terms) == 1:
            # a term's power: its exponents scaled by n, and c^n ≠ 0 mod p
            ((e, c),) = self.terms.items()
            return Polynomial(self.ring, {tuple([x * n for x in e]): pow(c, n, p)})
        codec = narrow_codec(self.ring.nvars, top)
        out = packed_power(codec.pack_terms(self.terms), n, p)
        return Polynomial(self.ring, codec.unpack_terms(out))

    def pth_power(self, k: int = 1) -> "Polynomial":
        """self^(p^k), computed termwise: Frobenius fixes F_p coefficients."""
        if k < 0:
            raise RingError("negative Frobenius power")
        if k == 0 or not self.terms:
            return self
        q = self.ring.field.p**k
        if self.max_exponent() * q > EXPONENT_LIMIT:
            raise ExponentOverflowError("Frobenius power would exceed the 32-bit exponent budget")
        return Polynomial(self.ring, {tuple(x * q for x in e): c for e, c in self.terms.items()})

    def capped_mul(self, other: "Polynomial", cap: Sequence[Optional[int]]) -> "Polynomial":
        """Product with every term exceeding the per-variable cap discarded.

        cap[i] = None means variable i is unbounded.  Sound for any downstream
        query whose exponents all stay within the cap, because exponents only
        grow under multiplication.  Exponents are packed with one guard bit
        above each field, and `ExponentCodec.within` keeps exactly the terms
        that stay within every cap.  Operand terms already over the cap are
        dropped first.
        Raises ExponentOverflowError only where a kept exponent could pass
        EXPONENT_LIMIT: on a variable with no cap, or a cap above the limit.
        """
        self._require_same_ring(other)
        caps = tuple(cap)
        if len(caps) != self.ring.nvars:
            raise RingError("cap vector length mismatch")
        if not self.terms or not other.terms:
            return self.ring.zero
        top = self.max_exponent() + other.max_exponent()
        if top > EXPONENT_LIMIT and any(c is None or c > EXPONENT_LIMIT for c in caps):
            raise ExponentOverflowError("product would exceed the 32-bit exponent budget")
        if any(c is not None and c < 0 for c in caps):
            return self.ring.zero
        codec = narrow_codec(self.ring.nvars, top)
        within, limit, pack = codec.within, codec.ceiling(caps), codec.pack_terms
        a = {k: c for k, c in pack(self.terms).items() if within(limit, k)}
        b = {k: c for k, c in pack(other.terms).items() if within(limit, k)}
        out = packed_mul(a, b, self.ring.field.p)
        unpack = codec.unpack
        return Polynomial(
            self.ring, {unpack(e): c for e, c in out.items() if within(limit, e)}
        )

    # -- structure -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.ring.field.p, self.ring.variables, frozenset(self.terms.items())))
        return self._hash

    def __str__(self) -> str:
        return serialize_polynomial(self)

    def __repr__(self) -> str:
        return f"<{serialize_polynomial(self)} over F_{self.ring.field.p}>"


class Grading:
    """A nonnegative integer weight matrix: one row per grading component.

    Every column must be nonzero, so that each variable has nonzero
    multidegree and the weighted maximal ideal is genuinely maximal.
    """

    __slots__ = ("rows", "nvars")

    def __init__(self, rows: Sequence[Sequence[int]]):
        mat = tuple(tuple(int(w) for w in row) for row in rows)
        if not mat:
            raise RingError("grading needs at least one row")
        n = len(mat[0])
        if any(len(r) != n for r in mat):
            raise RingError("grading rows have inconsistent lengths")
        if any(w < 0 for r in mat for w in r):
            raise RingError("grading weights must be nonnegative")
        for j in range(n):
            if all(r[j] == 0 for r in mat):
                raise RingError(f"grading column {j} is identically zero")
        self.rows = mat
        self.nvars = n

    @classmethod
    def standard(cls, nvars: int) -> "Grading":
        return cls([(1,) * nvars])

    def degree(self, exps: Sequence[int]) -> tuple[int, ...]:
        return tuple([sum(map(int.__mul__, row, exps)) for row in self.rows])

    def total_of_variables(self) -> tuple[int, ...]:
        """Sum of the multidegrees of all variables (the anticanonical degree)."""
        return tuple(sum(row) for row in self.rows)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Grading) and other.rows == self.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"Grading({[list(r) for r in self.rows]})"


def check_homogeneous(a: Polynomial, g: Grading) -> tuple[int, ...]:
    """Return the common multidegree, or raise HomogeneityError naming two
    offending terms."""
    if g.nvars != a.ring.nvars:
        raise RingError("grading does not match ring variable count")
    if not a.terms:
        # the zero polynomial is homogeneous of every degree; report the zero degree
        return (0,) * len(g.rows)
    d: list[int] = []
    for row in g.rows:
        # one weighted sum per term; under unit weights, its exponent sum
        if row.count(1) == len(row):
            seen = set(map(sum, a.terms))
        else:
            seen = {sum(map(int.__mul__, row, e)) for e in a.terms}
        if len(seen) > 1:
            break
        d.extend(seen)
    else:
        return tuple(d)
    # sorted only here, so the message names the same two terms every time
    terms = [e for e, _ in a.sorted_terms()]
    d0 = g.degree(terms[0])
    e = next(e for e in terms if g.degree(e) != d0)
    raise HomogeneityError(
        f"not homogeneous: term {_term_str(a.ring, terms[0], 1)} has degree {d0} "
        f"but term {_term_str(a.ring, e, 1)} has degree {g.degree(e)}"
    )


# ---------------------------------------------------------------------------
# parsing / serialization
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>\*\*|[-+*^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r} at position {pos}")
        if m.group("int") is not None:
            tokens.append(("int", m.group("int")))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name")))
        else:
            tokens.append(("op", m.group("op")))
        pos = m.end()
    tokens.append(("end", ""))
    return tokens


class _Parser:
    """Recursive descent for:

        expr   := ['+'|'-'] term (('+'|'-') term)*
        term   := factor ('*' factor)*
        factor := coefficient | variable (('^'|'**') uint)? | '(' expr ')'

    Whitespace is ignored.  The optional leading sign is a strict superset of
    the grammar kept for convenience; the serializer never emits it.
    """

    def __init__(self, tokens: list[tuple[str, str]], ring: PolynomialRing):
        self.tokens = tokens
        self.i = 0
        self.ring = ring

    def peek(self) -> tuple[str, str]:
        return self.tokens[self.i]

    def take(self) -> tuple[str, str]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expr(self) -> Polynomial:
        sign = 1
        kind, val = self.peek()
        if kind == "op" and val in "+-":
            self.take()
            sign = -1 if val == "-" else 1
        result = self.term().scale(sign)
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                t = self.term()
                result = result + (t if val == "+" else -t)
            else:
                return result

    def term(self) -> Polynomial:
        result = self.factor()
        while True:
            kind, val = self.peek()
            if kind == "op" and val == "*":
                self.take()
                result = result * self.factor()
            else:
                return result

    def factor(self) -> Polynomial:
        kind, val = self.take()
        if kind == "int":
            return self.ring.constant(int(val))
        if kind == "name":
            try:
                v = self.ring.variable(val)
            except RingError:
                raise ParseError(
                    f"unknown variable {val!r}; ring has variables {', '.join(self.ring.variables)}"
                ) from None
            kind2, val2 = self.peek()
            if kind2 == "op" and val2 in ("^", "**"):
                self.take()
                kind3, val3 = self.take()
                if kind3 != "int":
                    raise ParseError(f"exponent must be an unsigned integer, got {val3!r}")
                e = int(val3)
                if e > EXPONENT_LIMIT:
                    raise ExponentOverflowError(f"exponent {e} beyond 32-bit budget")
                return v**e
            return v
        if kind == "op" and val == "(":
            inner = self.expr()
            kind2, val2 = self.take()
            if not (kind2 == "op" and val2 == ")"):
                raise ParseError("unbalanced parenthesis")
            return inner
        raise ParseError(f"unexpected token {val!r}")


def parse_polynomial(text: str, ring: PolynomialRing) -> Polynomial:
    """Parse an expression string into a Polynomial over `ring`.

    Grammar (whitespace ignored): expr := term (('+'|'-') term)*;
    term := factor ('*' factor)*; factor := coefficient | variable ('^' uint)?
    | '(' expr ')'.  Multiplication is always explicit.
    """
    parser = _Parser(_tokenize(text), ring)
    result = parser.expr()
    kind, val = parser.peek()
    if kind != "end":
        raise ParseError(f"trailing input starting at {val!r}")
    return result


def _term_str(ring: PolynomialRing, exps: tuple[int, ...], coeff: int) -> str:
    parts = []
    if coeff != 1 or all(e == 0 for e in exps):
        parts.append(str(coeff))
    for name, e in zip(ring.variables, exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def serialize_polynomial(a: Polynomial) -> str:
    """Canonical string form: grevlex-descending terms, explicit '*' and '^'.

    parse_polynomial(serialize_polynomial(a), a.ring) == a for every a.
    """
    if not a.terms:
        return "0"
    return " + ".join(_term_str(a.ring, e, c) for e, c in a.sorted_terms())
