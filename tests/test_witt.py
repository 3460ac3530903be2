"""Tests for length-2 Witt vectors and the carry polynomial Δ₁.

The ground truth is exact integer arithmetic: ghost components for the
additive structure, and the closed multinomial/ghost formulas for Δ₁.  The
W₂ arithmetic itself lives in `tests/oracles.py`, where folding Teichmüller
lifts through it gives a third, independent route to Δ₁.
"""

import pytest
from hypothesis import given, strategies as st

from qfsplit import EXPONENT_LIMIT, ExponentOverflowError, RingError, delta1

import oracles as O
from oracles import W2Element, teichmuller, w2_add, w2_mul, w2_neg, w2_sub, w2_zero
from conftest import poly_strategy, ring_over


@pytest.mark.parametrize("p", [2, 3, 5])
@given(data=st.data())
def test_w2_add_matches_ghost_components(p, data):
    ring = ring_over(p)
    x = data.draw(poly_strategy(ring, max_exp=2, max_terms=3))
    x1 = data.draw(poly_strategy(ring, max_exp=2, max_terms=3))
    y = data.draw(poly_strategy(ring, max_exp=2, max_terms=3))
    y1 = data.draw(poly_strategy(ring, max_exp=2, max_terms=3))
    s = w2_add(W2Element(x, x1), W2Element(y, y1))
    g0, g1 = O.w2_add_ghost(x, x1, y, y1)
    assert s.w0 == g0 and s.w1 == g1


@pytest.mark.parametrize("p", [2, 3])
@given(data=st.data())
def test_w2_add_commutative_associative(p, data):
    ring = ring_over(p)
    a = teichmuller(data.draw(poly_strategy(ring, max_exp=2, max_terms=3)))
    b = teichmuller(data.draw(poly_strategy(ring, max_exp=2, max_terms=3)))
    c = teichmuller(data.draw(poly_strategy(ring, max_exp=2, max_terms=3)))
    assert w2_add(a, b) == w2_add(b, a)
    assert w2_add(w2_add(a, b), c) == w2_add(a, w2_add(b, c))


@pytest.mark.parametrize("p", [2, 3, 5])
@given(data=st.data())
def test_w2_additive_inverse(p, data):
    ring = ring_over(p)
    a = teichmuller(data.draw(poly_strategy(ring, max_exp=2, max_terms=3)))
    zero = w2_zero(ring)
    assert w2_add(a, w2_neg(a)) == zero
    assert w2_sub(a, a) == zero


@pytest.mark.parametrize("p", [2, 3])
@given(data=st.data())
def test_w2_mul_distributes(p, data):
    ring = ring_over(p)
    a = teichmuller(data.draw(poly_strategy(ring, max_exp=1, max_terms=2)))
    b = teichmuller(data.draw(poly_strategy(ring, max_exp=1, max_terms=2)))
    c = teichmuller(data.draw(poly_strategy(ring, max_exp=1, max_terms=2)))
    lhs = w2_mul(a, w2_add(b, c))
    rhs = w2_add(w2_mul(a, b), w2_mul(a, c))
    assert lhs == rhs


def test_teichmuller_is_multiplicative():
    ring = ring_over(3)
    f = ring.parse("x + 2*y")
    g = ring.parse("z^2 + x")
    assert w2_mul(teichmuller(f), teichmuller(g)) == teichmuller(f * g)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@given(data=st.data())
def test_delta1_matches_ghost_formula(p, data):
    """delta1(f) = (f̃^p − Σ t̃^p)/p mod p for term lifts t̃."""
    ring = ring_over(p)
    f = data.draw(poly_strategy(ring, max_exp=2, max_terms=4))
    assert delta1(f) == O.delta1_ghost(f)


@pytest.mark.parametrize("p", [2, 3, 5])
@given(data=st.data())
def test_delta1_matches_multinomial_oracle(p, data):
    ring = ring_over(p)
    f = data.draw(poly_strategy(ring, max_exp=2, max_terms=3))
    assert delta1(f) == O.delta1_multinomial(f)


def test_delta1_of_monomial_is_zero():
    # a single Teichmüller lift carries nothing
    for p in (2, 3, 7):
        ring = ring_over(p)
        assert delta1(ring.parse("2*x^2*y")).is_zero()
        assert delta1(ring.zero).is_zero()


def test_delta1_pairwise_products_at_p2():
    """At p = 2 the carry of a sum of monomials is the sum of the pairwise
    products."""
    ring = ring_over(2)
    f = ring.parse("x + y + z")
    assert delta1(f) == ring.parse("x*y + x*z + y*z")


def test_delta1_cusp_value():
    # delta1(x^3 + y^2 z) = x^3 y^2 z at p = 2
    ring = ring_over(2)
    assert delta1(ring.parse("x^3 + y^2*z")) == ring.parse("x^3*y^2*z")


@pytest.mark.parametrize("p", [2, 3])
def test_delta1_grouped_summands(p):
    """A coarser summand decomposition changes the carry in a way the ghost
    oracle reproduces."""
    ring = ring_over(p)
    parts = [ring.parse("x^2 + y"), ring.parse("z"), ring.parse("x*z + 2*y")]
    total = parts[0] + parts[1] + parts[2]
    assert delta1(total, summands=parts) == O.delta1_ghost(total, summands=parts)
    assert delta1(total, summands=parts) == O.delta1_multinomial(total, summands=parts)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@given(data=st.data())
def test_delta1_matches_fold(p, data):
    ring = ring_over(p)
    f = data.draw(poly_strategy(ring, max_exp=3, max_terms=5))
    assert delta1(f) == O.delta1_fold(f)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@given(data=st.data())
def test_delta1_grouped_matches_fold(p, data):
    """Grouped summands that overlap and cancel: the carry does not depend on
    how the lifted summands add up to a lift of the polynomial."""
    ring = ring_over(p)
    f = data.draw(poly_strategy(ring, max_exp=3, max_terms=4))
    extra = data.draw(st.lists(poly_strategy(ring, max_exp=3, max_terms=3), max_size=3))
    rest = f
    for g in extra:
        rest = rest - g
    h = data.draw(poly_strategy(ring, max_exp=3, max_terms=3))
    parts = data.draw(st.permutations([rest, h, -h] + extra))
    assert delta1(f, summands=parts) == O.delta1_fold(f, summands=parts)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_delta1_with_cancelling_summands(p):
    ring = ring_over(p)
    parts = [ring.parse("x + y"), ring.parse("x"), ring.parse("-x")]
    f = ring.parse("x + y")
    assert delta1(f, summands=parts) == O.delta1_fold(f, summands=parts)
    assert delta1(f, summands=parts) == O.delta1_ghost(f, summands=parts)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 8])
@pytest.mark.parametrize("offset", [-1, 0])
def test_delta1_at_packing_boundaries(p, k, offset):
    """Largest exponents at a power of two, where the packed field width of
    p·M steps up, with a third variable in the next field."""
    ring = ring_over(p)
    e = 2**k + offset
    f = ring.parse(f"x^{e}*y + 2*x*y^{e} + z^{e}")
    assert delta1(f) == O.delta1_fold(f) == O.delta1_ghost(f)
    parts = [ring.parse(f"x^{e}*y + z^{e}"), ring.parse(f"2*x*y^{e}")]
    assert delta1(f, summands=parts) == O.delta1_fold(f, summands=parts)


def test_delta1_overflow_boundary():
    """p·M may reach EXPONENT_LIMIT but not pass it, M the largest exponent
    of the polynomial and of the summands."""
    ring = ring_over(3)
    k = EXPONENT_LIMIT // 3
    x, y = ring.parse("x"), ring.parse("y")
    f = x**k + y
    expected = ring.from_terms({(2 * k, 1, 0): 1, (k, 2, 0): 1})
    assert delta1(f) == expected == O.delta1_fold(f)
    assert delta1(f, summands=[x**k, y]) == expected
    g = x ** (k + 1) + y
    with pytest.raises(ExponentOverflowError):
        delta1(g)
    with pytest.raises(ExponentOverflowError):
        delta1(g, summands=[x ** (k + 1), y])
    with pytest.raises(ExponentOverflowError):
        delta1(y, summands=[g, -(x ** (k + 1))])


def test_delta1_rejects_wrong_summands():
    ring = ring_over(3)
    f = ring.parse("x + y")
    with pytest.raises(RingError):
        delta1(f, summands=[ring.parse("x"), ring.parse("z")])


@given(data=st.data())
def test_delta1_vanishes_iff_no_carry_on_disjoint_vars(data):
    """Summands in disjoint variables at p=2: delta1 is the sum of pairwise
    products, hence zero iff fewer than two summands are nonzero."""
    ring = ring_over(2)
    cx = data.draw(st.integers(0, 1))
    cy = data.draw(st.integers(0, 1))
    f = ring.from_terms({(3, 0, 0): cx, (0, 3, 0): cy})
    d = delta1(f)
    assert d.is_zero() == (cx * cy == 0)
    if cx and cy:
        assert d == ring.parse("x^3*y^3")
