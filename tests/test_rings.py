"""Tests for prime fields, polynomials, orders and gradings."""

import pytest
import sympy as sp
from hypothesis import given, strategies as st

from qfsplit import (
    EXPONENT_LIMIT,
    ExponentOverflowError,
    Grading,
    HomogeneityError,
    ParseError,
    PolynomialRing,
    PrimeField,
    RingError,
    check_homogeneous,
    parse_polynomial,
    serialize_polynomial,
)
from qfsplit.rings import (
    RESIDUE_MEMO,
    ExponentCodec,
    grevlex_key,
    narrow_codec,
    packed_mul,
    packed_power,
    ring_codec,
)

import oracles as O
from conftest import poly_strategy, ring_over

PRIMES = [2, 3, 5, 7]


@pytest.mark.parametrize("p", PRIMES)
@given(a=st.integers(-50, 50), b=st.integers(-50, 50))
def test_field_ring_axioms(p, a, b):
    F = PrimeField(p)
    assert F(a + b) == (F(a) + F(b)) % p
    assert F(a * b) == (F(a) * F(b)) % p


@pytest.mark.parametrize("p", PRIMES)
def test_field_inverses(p):
    F = PrimeField(p)
    for a in range(1, p):
        assert F(a * F.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


def test_prime_field_rejects_composite():
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ValueError):
        PrimeField(1)


@pytest.mark.parametrize("p", [2, 3, 5])
@given(data=st.data())
def test_serialize_parse_round_trip(p, data):
    ring = ring_over(p)
    f = data.draw(poly_strategy(ring))
    assert parse_polynomial(serialize_polynomial(f), ring) == f


def test_parse_accepts_caret_and_double_star():
    ring = ring_over(5)
    assert ring.parse("x^2*y + 3*z") == ring.parse("x**2*y + 3*z")


def test_parse_optional_leading_sign():
    ring = ring_over(3)
    assert ring.parse("-x + y") == ring.parse("2*x + y")
    assert ring.parse("+x") == ring.variable("x")


def test_parse_position_annotated_error():
    ring = ring_over(2)
    with pytest.raises(ParseError) as err:
        ring.parse("x^2 + @y")
    assert "position" in str(err.value) or "@" in str(err.value)


def test_parse_reduces_coefficients_mod_p():
    ring = ring_over(3)
    assert ring.parse("4*x") == ring.variable("x")
    assert ring.parse("3*x").is_zero()


@pytest.mark.parametrize("p", [2, 3])
@given(data=st.data())
def test_ring_arithmetic_laws(p, data):
    ring = ring_over(p)
    f = data.draw(poly_strategy(ring, max_exp=3, max_terms=4))
    g = data.draw(poly_strategy(ring, max_exp=3, max_terms=4))
    h = data.draw(poly_strategy(ring, max_exp=3, max_terms=4))
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) * h == f * h + g * h
    assert f + ring.zero == f
    assert f * ring.one == f
    assert (f - f).is_zero()


L = EXPONENT_LIMIT
# exponents small, or close to where a product, a square, a cube or a
# fourth power of them passes the limit
WIDE_EXPONENTS = st.one_of(
    st.integers(0, 4),
    st.sampled_from([L // 4, L // 3, L // 2, L]).flatmap(lambda m: st.integers(m - 2, m)),
)


def wide_poly_strategy(ring):
    exps = st.tuples(*[WIDE_EXPONENTS] * ring.nvars)
    return st.dictionaries(exps, st.integers(0, ring.field.p - 1), max_size=4).map(ring.from_terms)


def _equal_or_overflow(compute, overflows, reference):
    if overflows:
        with pytest.raises(ExponentOverflowError):
            compute()
    else:
        assert compute() == reference()


@pytest.mark.parametrize("p", [2, 3, 5])
@given(data=st.data())
def test_products_equal_the_tuple_loop_and_overflow_where_it_did(p, data):
    """`__mul__`, `__pow__` and `mul_term` run the packed kernel.  They equal
    the term-pair loop on tuples (`oracles.product_reference`), and raise
    ExponentOverflowError exactly where the tuple routes did: f·g where
    M_f + M_g passes EXPONENT_LIMIT, f^n (n ≥ 2) where n·M_f does, since the
    largest exponent of f^k is k·M_f, and c·x^e·f where M_f + max(e) does;
    a zero factor never raises."""
    ring = ring_over(p, ("x", "y", "z", "w")[: data.draw(st.integers(1, 4))])
    f, g = data.draw(wide_poly_strategy(ring)), data.draw(wide_poly_strategy(ring))
    m = f.max_exponent()
    _equal_or_overflow(
        lambda: f * g, f and g and m + g.max_exponent() > L, lambda: O.product_reference(f, g)
    )
    n = data.draw(st.integers(0, 4))

    def reference_power():
        out = ring.one
        for _ in range(n):
            out = O.product_reference(out, f)
        return out

    _equal_or_overflow(lambda: f**n, n >= 2 and f and n * m > L, reference_power)
    e = data.draw(st.tuples(*[st.one_of(WIDE_EXPONENTS, st.just(L + 1))] * ring.nvars))
    c = data.draw(st.integers(0, 2 * p))
    _equal_or_overflow(
        lambda: f.mul_term(e, c),
        f and c % p and m + max(e) > L,
        lambda: O.product_reference(f, ring.from_terms({e: c})),
    )


def test_mul_term_refuses_a_malformed_exponent_vector():
    """A negative entry or a wrong length raises RingError, as
    `PolynomialRing.monomial` does, instead of shifting a field of another
    variable or reading a missing exponent as 0."""
    ring = ring_over(3)
    f = ring.parse("x*y + z")
    for exps in [(-1, 0, 0), (0, 0, -2), (1, 2), (1, 0, 0, 0)]:
        with pytest.raises(RingError):
            f.mul_term(exps)
        with pytest.raises(RingError):
            ring.zero.mul_term(exps, 0)
    assert f.mul_term((1, 0, 2), 2) == ring.parse("2*x^2*y*z^2 + 2*x*z^3")


def test_mul_term_by_zero_never_overflows():
    """A zero coefficient or a zero polynomial gives 0 for exponents past
    EXPONENT_LIMIT; a nonzero product there raises ExponentOverflowError."""
    ring = ring_over(3)
    f = ring.parse("x*y + z")
    huge = (L + 1, 0, 0)
    assert f.mul_term(huge, 3).is_zero()
    assert f.mul_term(huge, 0).is_zero()
    assert ring.zero.mul_term(huge).is_zero()
    with pytest.raises(ExponentOverflowError):
        f.mul_term(huge)


@pytest.mark.parametrize("p", [2, 3, 5])
@given(data=st.data())
def test_one_term_products_equal_the_packed_kernel(p, data):
    """A product with a one-term factor shifts and scales the other factor's
    terms without packing.  It equals the packed kernel's product in terms
    and in their order, on either side, and raises ExponentOverflowError
    exactly where the packed route did: where M_t + M_f passes
    EXPONENT_LIMIT and neither factor is zero."""
    ring = ring_over(p, ("x", "y", "z", "w")[: data.draw(st.integers(1, 4))])
    e = data.draw(st.tuples(*[WIDE_EXPONENTS] * ring.nvars))
    t = ring.from_terms({e: data.draw(st.integers(1, p - 1))})
    f = data.draw(wide_poly_strategy(ring))
    top = max(e) + f.max_exponent()

    def kernel():
        codec = narrow_codec(ring.nvars, top)
        out = packed_mul(codec.pack_terms(t.terms), codec.pack_terms(f.terms), p)
        return list(codec.unpack_terms(out).items())

    for compute in (lambda: t * f, lambda: f * t):
        _equal_or_overflow(
            lambda: list(compute().terms.items()), f and top > L, kernel
        )


@pytest.mark.parametrize("p", [2, 3, 5])
@given(data=st.data())
def test_one_term_powers_equal_the_packed_kernel(p, data):
    """A power of a one-term base scales its exponents by n and raises its
    coefficient to c^n mod p without packing.  It equals `packed_power`'s
    power in terms and in their order, and raises ExponentOverflowError
    exactly where the packed route did: where n·M passes EXPONENT_LIMIT
    and n ≥ 2."""
    ring = ring_over(p, ("x", "y", "z", "w")[: data.draw(st.integers(1, 4))])
    e = data.draw(st.tuples(*[WIDE_EXPONENTS] * ring.nvars))
    t = ring.from_terms({e: data.draw(st.integers(1, p - 1))})
    n = data.draw(st.integers(0, 5))
    top = n * max(e)

    def kernel():
        codec = narrow_codec(ring.nvars, max(top, max(e)))
        out = packed_power(codec.pack_terms(t.terms), n, p)
        return list(codec.unpack_terms(out).items())

    _equal_or_overflow(lambda: list((t**n).terms.items()), n >= 2 and top > L, kernel)


# narrow fields of every width from 2 to 16 bits; a field of `largest`'s
# width holds every exponent of a square of exponents up to largest // 2
NARROW_LARGEST = st.integers(1, 15).flatmap(
    lambda bits: st.sampled_from([2**bits - 1, 2**bits - 2, 2 ** (bits - 1)])
)


@pytest.mark.parametrize("p", [2, 3, 5])
@given(data=st.data(), nvars=st.integers(1, 4), largest=NARROW_LARGEST, square=st.booleans())
def test_square_path_equals_the_pair_loop(p, data, nvars, largest, square):
    """`packed_mul(f, f, q)` walks the triangle of term pairs with the cross
    terms doubled; it equals the loop over all pairs, `packed_mul(f,
    dict(f), q)`, term for term and in the same order, over F_p and ℤ/p², on
    exponents up to the top of the narrow field that holds the square."""
    q = p * p if square else p
    codec = narrow_codec(nvars, largest)
    half = largest // 2
    field = st.one_of(st.integers(0, half), st.integers(max(half - 2, 0), half))
    terms = data.draw(st.dictionaries(st.tuples(*[field] * nvars), st.integers(1, q - 1), max_size=7))
    f = {codec.pack(e): c for e, c in terms.items()}
    out = packed_mul(f, f, q)
    assert list(out.items()) == list(packed_mul(f, dict(f), q).items())
    n = data.draw(st.integers(0, 3))
    if n * max((max(e) for e in terms), default=0) <= largest:
        power = {0: 1}
        for _ in range(n):
            power = packed_mul(power, dict(f), q)
        assert packed_power(f, n, q) == power


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@given(data=st.data(), nvars=st.integers(1, 4), largest=NARROW_LARGEST)
def test_residue_memo_reads_the_fields(p, data, nvars, largest):
    """A narrow codec's memoized residues are the fields of the key mod p,
    on a first read and on a repeated one."""
    codec = narrow_codec(nvars, largest)
    exps = data.draw(st.lists(st.tuples(*[st.integers(0, largest)] * nvars), min_size=1, max_size=8))
    for e in exps + exps:
        assert codec.residues(codec.pack(e), p) == tuple(x % p for x in e)


@given(nvars=st.integers(1, 6), bits=st.integers(0, 40), data=st.data())
def test_narrow_codecs_of_one_width_are_one_object(nvars, bits, data):
    """Codecs of equal width share one residue memo, so there is at most one
    memo per (nvars, width); codecs of other widths are other objects."""
    a, b = data.draw(st.lists(st.integers(2**bits >> 1, 2**bits - 1), min_size=2, max_size=2))
    other = data.draw(st.integers(0, 2**41).filter(lambda c: c.bit_length() != bits))
    codec = narrow_codec(nvars, a)
    assert codec is narrow_codec(nvars, b)
    assert codec is not narrow_codec(nvars, other)
    assert codec.mask == 2 ** (bits + 1) - 1


@pytest.mark.parametrize("degree", [False, True], ids=["narrow", "ring"])
def test_residue_memo_stays_within_its_bound(degree):
    """Each memo holds at most RESIDUE_MEMO residue classes per p: reading
    three times as many distinct keys keeps it within the bound, and the
    residues stay right after it is cleared."""
    codec = ExponentCodec(2, 32 if degree else 18, degree=degree)
    for p in (2, 3):
        for i in range(3 * RESIDUE_MEMO):
            e = (i, 7 * i + 1)
            assert codec.residues(codec.pack(e), p) == (i % p, (7 * i + 1) % p)
            assert len(codec._memo[p]) <= RESIDUE_MEMO
    assert sorted(codec._memo) == [2, 3]


@pytest.mark.parametrize("p", PRIMES)
@given(data=st.data())
def test_freshmans_dream(p, data):
    """(a + b)^p = a^p + b^p in characteristic p."""
    ring = ring_over(p)
    a = data.draw(poly_strategy(ring, max_exp=2, max_terms=3))
    b = data.draw(poly_strategy(ring, max_exp=2, max_terms=3))
    assert (a + b) ** p == a**p + b**p


@pytest.mark.parametrize("p", [2, 3, 5])
@given(data=st.data())
def test_pth_power_matches_pow(p, data):
    ring = ring_over(p)
    f = data.draw(poly_strategy(ring, max_exp=3, max_terms=4))
    assert f.pth_power() == f**p
    assert f.pth_power(2) == f ** (p * p)


@given(data=st.data())
def test_capped_mul_is_truncated_product(data):
    ring = ring_over(2)
    f = data.draw(poly_strategy(ring, max_exp=4, max_terms=5))
    g = data.draw(poly_strategy(ring, max_exp=4, max_terms=5))
    cap = (3, 5, None)
    truncated = ring.from_terms(
        {
            e: c
            for e, c in (f * g).terms.items()
            if all(cv is None or ev <= cv for ev, cv in zip(e, cap))
        }
    )
    assert f.capped_mul(g, cap) == truncated


@pytest.mark.parametrize("p", [3, 5])
@given(data=st.data())
def test_capped_mul_matches_truncated_product(p, data):
    """Caps of 0, None, exactly the largest exponent sum, one below it and
    far above it, or anything in between, per variable."""
    ring = ring_over(p, ("x", "y", "z", "w"))
    f = data.draw(poly_strategy(ring, max_exp=6, max_terms=5))
    g = data.draw(poly_strategy(ring, max_exp=6, max_terms=5))
    top = f.max_exponent() + g.max_exponent()
    caps = st.one_of(st.sampled_from([0, None, top, max(top - 1, 0), 2 * top + 1]), st.integers(0, top))
    cap = data.draw(st.tuples(*[caps] * 4))
    assert f.capped_mul(g, cap) == O.truncated_product(f, g, cap)


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 8])
@pytest.mark.parametrize("offset", [-1, 0])
def test_capped_mul_at_packing_boundaries(p, k, offset):
    """The largest exponent sum at a power of two, where the field width
    below the guard bit steps up; caps at the sum, one below it, 0 and negative."""
    ring = ring_over(p)
    e = 2**k + offset
    f = ring.parse(f"x^{e} + 2*y*z^{e} + x*y")
    g = ring.parse(f"y^{e}*z + x + 1")
    top = f.max_exponent() + g.max_exponent()
    for cap in ((top, top, top), (top - 1, None, top), (0, top - 1, None), (None, None, 0), (None, -1, top), (-(2**40), None, None)):
        assert f.capped_mul(g, cap) == O.truncated_product(f, g, cap)


def test_capped_mul_within_the_exponent_limit_does_not_overflow():
    """Kept exponents stay within the caps, so caps at or below the limit
    allow operands whose uncapped product would pass it; a variable with no
    cap still raises."""
    ring = ring_over(2)
    L = EXPONENT_LIMIT
    f = ring.from_terms({(L - 1, 0, 0): 1, (0, 1, 0): 1})
    g = ring.from_terms({(1, 0, 0): 1, (0, L - 1, 0): 1})
    expected = {(L, 0, 0): 1, (L - 1, L - 1, 0): 1, (1, 1, 0): 1, (0, L, 0): 1}
    assert f.capped_mul(g, (L, L, L)) == ring.from_terms(expected)
    del expected[L, 0, 0]
    assert f.capped_mul(g, (L - 1, L, 0)) == ring.from_terms(expected)
    with pytest.raises(ExponentOverflowError):
        f.capped_mul(g, (L, L, None))


def test_grevlex_order_matches_sympy():
    """Sorted monomials agree with sympy's grevlex enumeration."""
    ring = ring_over(5)
    f = ring.parse("x^3 + x*y*z + y^2*z + z^3 + x^2*y^2 + 1 + y")
    mine = [e for e, _ in f.sorted_terms()]
    x, y, z = sp.symbols("x y z")
    ref = sp.Poly(x**3 + x * y * z + y**2 * z + z**3 + x**2 * y**2 + 1 + y, x, y, z)
    assert mine == [tuple(m) for m in ref.monoms(order="grevlex")]


def test_grevlex_key_total_degree_dominates():
    assert grevlex_key((2, 0, 0)) > grevlex_key((1, 0, 0))
    assert grevlex_key((0, 0, 3)) > grevlex_key((1, 1, 0))
    # same degree: smaller last exponent wins
    assert grevlex_key((1, 1, 0)) > grevlex_key((0, 2, 0))


def test_leading_term_and_total_degree():
    ring = ring_over(7)
    f = ring.parse("3*x*y^2 + z^2 + 5")
    exps, coeff = f.leading_term()
    assert exps == (1, 2, 0) and coeff == 3
    assert f.total_degree() == 3
    assert f.max_exponent() == 2


def test_monomial_and_variable_constructors():
    ring = ring_over(5)
    assert ring.monomial((1, 0, 2), 3) == ring.parse("3*x*z^2")
    assert ring.variable("y") == ring.parse("y")
    assert ring.constant(7) == ring.parse("2")
    with pytest.raises(RingError):
        ring.variable("t")


def test_exponent_overflow_guard():
    ring = ring_over(2)
    x = ring.variable("x")
    with pytest.raises(ExponentOverflowError):
        x**EXPONENT_LIMIT * x


def test_grading_standard_and_weighted():
    g = Grading.standard(3)
    assert g.degree((2, 1, 0)) == (3,)
    w = Grading([[1, 1, 1, 2]])
    assert w.degree((0, 0, 0, 1)) == (2,)
    assert w.total_of_variables() == (5,)


def test_grading_multirow():
    # bidegree bookkeeping for two variable blocks
    g = Grading([[1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1]])
    assert g.degree((1, 0, 0, 0, 2, 0)) == (1, 2)


def test_check_homogeneous():
    ring = ring_over(2)
    g = Grading.standard(3)
    assert check_homogeneous(ring.parse("x^2*y + z^3"), g) == (3,)
    with pytest.raises(HomogeneityError):
        check_homogeneous(ring.parse("x + y^2"), g)


@pytest.mark.parametrize(
    "text,rows,message",
    [
        ("x + y^2", [[1, 1, 1, 1]], "term y^2 has degree (2,) but term x has degree (1,)"),
        (
            "2*x^3*y + w^2 + x*y*z^2 + z",
            [[1, 1, 1, 2]],
            "term x^3*y has degree (4,) but term z has degree (1,)",
        ),
        (
            "x*y + z^2 + w",
            [[1, 1, 0, 0], [0, 0, 1, 1]],
            "term x*y has degree (2, 0) but term z^2 has degree (0, 2)",
        ),
    ],
)
def test_check_homogeneous_names_the_grevlex_first_term_and_the_first_misfit(text, rows, message):
    """The error names the grevlex-largest term and the first later term of
    another degree, skipping terms that share the first one's degree."""
    ring = PolynomialRing(PrimeField(3), ("x", "y", "z", "w"))
    with pytest.raises(HomogeneityError) as exc:
        check_homogeneous(ring.parse(text), Grading(rows))
    assert str(exc.value) == "not homogeneous: " + message


def test_check_homogeneous_weighted():
    ring = PolynomialRing(PrimeField(2), ("x", "y", "z", "w"))
    w = Grading([[1, 1, 1, 2]])
    assert check_homogeneous(ring.parse("w^2 + x^2*y*z + x*y*z^2"), w) == (4,)


ROW = st.one_of(st.just((1, 1, 1)), st.tuples(*[st.integers(0, 3)] * 3))


@pytest.mark.parametrize("p", [2, 3])
@given(data=st.data(), rows=st.tuples(ROW, ROW), homogeneous=st.booleans())
def test_check_homogeneous_on_two_rows_is_the_degree_tuple_check(p, data, rows, homogeneous):
    """On two-row gradings (unit rows among them), the per-row check gives
    the degree tuple of the tuple-per-term check (`oracles.homogeneous_reference`)
    and raises with the same text; half the draws keep only the terms of the
    first term's degree, so both outcomes occur."""
    if not all(map(max, *rows)):  # a variable of degree zero
        rows = (rows[0], (1, 1, 1))
    g = Grading(rows)
    ring = ring_over(p)
    a = data.draw(poly_strategy(ring, max_exp=3, max_terms=5))
    if homogeneous and a:
        d = g.degree(next(iter(a.terms)))
        a = ring.from_terms({e: c for e, c in a.terms.items() if g.degree(e) == d})
    try:
        expected = O.homogeneous_reference(a, g)
    except HomogeneityError as exc:
        with pytest.raises(HomogeneityError) as got:
            check_homogeneous(a, g)
        assert str(got.value) == str(exc)
    else:
        assert check_homogeneous(a, g) == expected


@given(data=st.data())
def test_sorted_terms_is_descending_grevlex(data):
    ring = ring_over(3)
    f = data.draw(poly_strategy(ring))
    keys = [grevlex_key(e) for e, _ in f.sorted_terms()]
    assert keys == sorted(keys, reverse=True)


def test_str_round_trips_through_parse():
    ring = ring_over(7)
    f = ring.parse("x^2*y + 6*z^3 + 2")
    assert ring.parse(str(f)) == f


# ---------------------------------------------------------------------------
# the ring layout of packed exponents against tuple arithmetic
# ---------------------------------------------------------------------------

FIELD = st.one_of(
    st.integers(0, 9),
    st.integers(0, EXPONENT_LIMIT),
    st.sampled_from([EXPONENT_LIMIT, EXPONENT_LIMIT - 1, 2**30, 2**30 - 1]),
)


def exponents(nvars, field=FIELD):
    return st.tuples(*[field] * nvars)


@given(data=st.data(), nvars=st.integers(1, 6))
def test_ring_layout_round_trips(data, nvars):
    codec = ring_codec(nvars)
    e = data.draw(exponents(nvars))
    assert codec.unpack(codec.pack(e)) == e
    assert codec.degree(codec.pack(e)) == sum(e)


@pytest.mark.parametrize("nvars", range(1, 7))
@pytest.mark.parametrize("big", [EXPONENT_LIMIT + 1, 2**32, 2**40])
def test_ring_layout_refuses_what_no_field_holds(nvars, big):
    """An exponent past the limit would carry into its neighbour, so packing
    a term map refuses it."""
    ring = PolynomialRing(PrimeField(2), [f"x{i}" for i in range(nvars)])
    e = (0,) * (nvars - 1) + (big,)
    with pytest.raises(ExponentOverflowError):
        ring.codec.pack_terms({e: 1})
    assert ring.codec.pack_terms({(EXPONENT_LIMIT,) * nvars: 1})


@given(data=st.data(), nvars=st.integers(1, 6))
def test_ring_layout_key_sorts_like_grevlex(data, nvars):
    codec = ring_codec(nvars)
    a, b = data.draw(exponents(nvars)), data.draw(exponents(nvars))
    ka, kb = codec.key(codec.pack(a)), codec.key(codec.pack(b))
    assert (ka < kb) == (grevlex_key(a) < grevlex_key(b))
    assert (ka == kb) == (a == b)


@given(data=st.data(), nvars=st.integers(1, 6))
def test_ring_layout_products_quotients_lcms_and_divisibility(data, nvars):
    codec = ring_codec(nvars)
    a = data.draw(exponents(nvars))
    b = data.draw(exponents(nvars))
    pa, pb = codec.pack(a), codec.pack(b)
    assert codec.divides(pa, pb) == all(x <= y for x, y in zip(a, b))
    assert codec.lcm(pa, pb) == codec.pack(tuple(map(max, a, b)))
    if codec.divides(pa, pb):
        assert codec.unpack(pb - pa) == tuple(y - x for x, y in zip(a, b))
        assert pb - pa == codec.pack(tuple(y - x for x, y in zip(a, b)))
    # a factor that keeps the product within the limit, field by field
    c = tuple(data.draw(st.integers(0, EXPONENT_LIMIT - x)) for x in a)
    product = tuple(x + y for x, y in zip(a, c))
    assert codec.unpack(pa + codec.pack(c)) == product
    assert pa + codec.pack(c) == codec.pack(product)


@pytest.mark.parametrize("p", PRIMES)
@given(data=st.data(), nvars=st.integers(1, 6))
def test_ring_layout_u_and_theta_exponent(p, data, nvars):
    """For e + d ≡ p − 1 field by field, (pack(e) + pack(d) − pack((p−1)·𝟙)) // p
    is the packed (e + d − (p−1))/p, and θ's residue buckets find exactly
    that pairing; u keeps e iff every field is ≡ p − 1."""
    from qfsplit.frobenius import packed_theta, packed_u, residue_table

    codec = ring_codec(nvars)
    e = data.draw(exponents(nvars))
    d = tuple(
        (p - 1 - x) % p + p * data.draw(st.integers(0, (EXPONENT_LIMIT - p) // p)) for x in e
    )
    out = tuple((x + y - (p - 1)) // p for x, y in zip(e, d))
    one = codec.pack((p - 1,) * nvars)
    assert (codec.pack(e) + codec.pack(d) - one) // p == codec.pack(out)
    table = residue_table({codec.pack(d): 1}, codec, p)
    assert packed_theta({codec.pack(e): 1}, codec, table, p) == {codec.pack(out): 1}
    top = all(x % p == p - 1 for x in e)
    expected = {codec.pack(tuple((x - (p - 1)) // p for x in e)): 1} if top else {}
    assert packed_u({codec.pack(e): 1}, codec, p) == expected


@pytest.mark.parametrize("p", [2, 3, 5])
@given(data=st.data(), nvars=st.integers(1, 6), n=st.integers(1, 3))
def test_ring_layout_escape_test(p, data, nvars, n):
    """A term escapes m^[q] iff every field is below q: one guard-bit test
    against the ceiling (q−1)·𝟙, as `in_max_ideal_frobenius_power` decides
    on tuples."""
    from qfsplit.frobenius import in_max_ideal_frobenius_power

    ring = PolynomialRing(PrimeField(p), [f"x{i}" for i in range(nvars)])
    q = p**n
    field = st.one_of(st.integers(0, 2 * q), st.sampled_from([EXPONENT_LIMIT, q - 1, q]))
    terms = data.draw(st.dictionaries(exponents(nvars, field), st.integers(1, p - 1), max_size=4))
    a = ring.from_terms(terms)
    codec = ring.codec
    limit = codec.ceiling([q - 1] * nvars)
    escapes = any(codec.within(limit, k) for k in codec.pack_terms(a.terms))
    assert escapes == (not in_max_ideal_frobenius_power(a, n))
