"""Tests for the Frobenius pushforward coordinates, u, θ and ψ₂."""

import pytest
from hypothesis import given, strategies as st

from qfsplit import (
    Ideal,
    RingError,
    delta1,
    in_max_ideal_frobenius_power,
    iterated_u,
    theta,
    u_map,
)

from qfsplit.frobenius import packed_theta, residue_table
from qfsplit.rings import Polynomial, narrow_codec

import oracles as O
from oracles import W2Element
from conftest import poly_strategy, ring_over


@pytest.mark.parametrize("p", [2, 3, 5])
@given(data=st.data())
def test_decompose_compose_round_trip(p, data):
    ring = ring_over(p)
    h = data.draw(poly_strategy(ring, max_exp=6, max_terms=6))
    assert O.frobenius_compose(O.frobenius_decompose(h)) == h


def test_decompose_components_have_small_residues():
    ring = ring_over(3)
    h = ring.parse("x^7*y^2 + 2*x^3*z^5 + y")
    fc = O.frobenius_decompose(h)
    for alpha in fc.components:
        assert all(0 <= a < 3 for a in alpha)


@pytest.mark.parametrize("p", [2, 3, 5])
@given(data=st.data())
def test_u_map_matches_coefficient_oracle(p, data):
    ring = ring_over(p)
    h = data.draw(poly_strategy(ring, max_exp=8, max_terms=8))
    assert u_map(h) == O.u_oracle(h)


@pytest.mark.parametrize("p", [2, 3])
@given(data=st.data())
def test_u_map_is_frobenius_semilinear(p, data):
    """u(F_*(b^p · a)) = b · u(F_*a)."""
    ring = ring_over(p)
    a = data.draw(poly_strategy(ring, max_exp=5, max_terms=5))
    b = data.draw(poly_strategy(ring, max_exp=2, max_terms=3))
    assert u_map(b.pth_power() * a) == b * u_map(a)


def test_u_map_normalization():
    """u picks exactly the F_*((x₁⋯x_N)^{p−1}) coordinate."""
    ring = ring_over(3)
    top = ring.parse("x^2*y^2*z^2")
    assert u_map(top) == ring.one
    assert u_map(ring.one).is_zero()
    assert u_map(ring.parse("x^2*y^2*z^5")) == ring.variable("z")


@given(data=st.data())
def test_iterated_u_is_composition(data):
    ring = ring_over(2)
    h = data.draw(poly_strategy(ring, max_exp=8, max_terms=8))
    assert iterated_u(h, 0) == h
    assert iterated_u(h, 1) == u_map(h)
    assert iterated_u(h, 2) == u_map(u_map(h))
    assert iterated_u(h, 3) == u_map(iterated_u(h, 2))
    with pytest.raises(RingError):
        iterated_u(h, -1)


@pytest.mark.parametrize("p", [2, 3])
@given(data=st.data())
def test_theta_is_u_after_delta_multiplication(p, data):
    """θ(F_*a) = u(F_*(Δ·a)), with the oracle u on the right."""
    ring = ring_over(p)
    f = data.draw(poly_strategy(ring, max_exp=2, max_terms=3))
    a = data.draw(poly_strategy(ring, max_exp=4, max_terms=4))
    delta = delta1(f ** (p - 1))
    assert theta(a, delta) == O.u_oracle(delta * a)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("names", ["x", "xy", "xyzw"])
@given(data=st.data())
def test_theta_matches_u_oracle_in_one_to_four_variables(p, names, data):
    """θ against u(F_*(Δ·a)) with a both as narrow as Δ and far wider, in
    either order, so the cached residue table is read at its own width and
    re-keyed at a wider one."""
    ring = ring_over(p, tuple(names))
    f = data.draw(poly_strategy(ring, max_exp=2, max_terms=3))
    delta = delta1(f ** (p - 1))
    narrow = data.draw(poly_strategy(ring, max_exp=4, max_terms=4))
    far = data.draw(poly_strategy(ring, max_exp=2**12, max_terms=3))
    wide = far.pth_power() * narrow + far
    for a in data.draw(st.permutations([narrow, wide, narrow])):
        assert theta(a, delta) == O.u_oracle(delta * a)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("names", ["xy", "xyz", "xyzw"])
@given(data=st.data())
def test_packed_theta_is_one_map_on_every_codec(p, names, data):
    """`packed_theta` of multi-term a and δ gives one image under a narrow
    codec that holds every field of a·δ and under the ring layout, and that
    image is the public theta's and u(F_*(δ·a)) of the oracle."""
    ring = ring_over(p, tuple(names))
    multi_term = poly_strategy(ring, max_exp=6, max_terms=6).filter(lambda g: len(g) >= 2)
    a, delta = data.draw(multi_term), data.draw(multi_term)
    image = theta(a, delta)
    assert image == O.u_oracle(delta * a)
    for codec in (narrow_codec(ring.nvars, a.max_exponent() + delta.max_exponent()), ring.codec):
        table = residue_table(codec.pack_terms(delta.terms), codec, p)
        out = packed_theta(codec.pack_terms(a.terms), codec, table, p)
        assert all(0 < c < p for c in out.values())
        assert Polynomial(ring, codec.unpack_terms(out)) == image


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("k", [0, 1, 2, 5])
@pytest.mark.parametrize("offset", [-1, 0])
def test_theta_at_packing_boundaries(p, k, offset):
    """max(a) + max(Δ) at a power of two, where the packed field width of the
    residue table steps up.  The widest term of a sits in the variable of
    Δ's widest term and, for one of its p shifts, pairs with it, so the
    widest field of the packed sums is used."""
    ring = ring_over(p, ("x", "y", "z", "w"))
    delta = delta1(ring.parse("x*y + z*w + y^3 + x*z") ** (p - 1))
    top = delta.max_exponent()
    widest = next(e for e in delta.terms if max(e) == top)
    j = widest.index(top)
    reach = 2 ** (top.bit_length() + k) + offset - top
    terms = {}
    for shift in range(p):
        e = [(p - 1 - x) % p for x in widest]
        e[j] = reach - shift
        terms[tuple(e)] = 1
    a = ring.from_terms(terms)
    assert a.max_exponent() + top == 2 ** (top.bit_length() + k) + offset
    image = theta(a, delta)
    assert image == O.u_oracle(delta * a)
    assert not image.is_zero()


@pytest.mark.parametrize("p", [2, 3, 5])
@given(data=st.data())
def test_theta_is_frobenius_semilinear(p, data):
    """θ is p^{−1}-linear: θ(F_*(Σ c_j^p·t_j)) = Σ c_j·θ(F_*t_j), over sums
    of one to three terms."""
    ring = ring_over(p)
    f = data.draw(poly_strategy(ring, max_exp=2, max_terms=3))
    delta = delta1(f ** (p - 1))
    pairs = data.draw(
        st.lists(
            st.tuples(
                poly_strategy(ring, max_exp=2, max_terms=3),
                poly_strategy(ring, max_exp=5, max_terms=4),
            ),
            min_size=1,
            max_size=3,
        )
    )
    combined = ring.zero
    images = ring.zero
    for c, t in pairs:
        combined = combined + c.pth_power() * t
        images = images + c * theta(t, delta)
    assert theta(combined, delta) == images


def test_theta_on_cusp_witness():
    """θ for x³+y²z at p=2 sends F_*f to u(F_*(x³y²z·f))."""
    ring = ring_over(2)
    f = ring.parse("x^3 + y^2*z")
    delta = delta1(f)
    assert delta == ring.parse("x^3*y^2*z")
    assert theta(f, delta) == u_map(delta * f)


def test_bracket_power_on_ideal_and_list():
    ring = ring_over(2)
    f = ring.parse("x + y^2")
    I = Ideal(ring, [f, ring.variable("z")])
    J = O.bracket_power(I, 1)
    assert isinstance(J, Ideal)
    assert list(J.gens) == [ring.parse("x^2 + y^4"), ring.parse("z^2")]
    assert O.bracket_power([f], 2) == [ring.parse("x^4 + y^8")]
    with pytest.raises(RingError):
        O.bracket_power(I, -1)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("n", [1, 2])
@given(data=st.data())
def test_in_bracket_m_matches_oracle(p, n, data):
    ring = ring_over(p)
    h = data.draw(poly_strategy(ring, max_exp=p**n + 2, max_terms=6))
    assert in_max_ideal_frobenius_power(h, n) == O.in_bracket_m_oracle(h, n)


def test_in_bracket_m_zero_and_units():
    ring = ring_over(2)
    assert in_max_ideal_frobenius_power(ring.zero, 1)
    assert not in_max_ideal_frobenius_power(ring.one, 1)
    assert in_max_ideal_frobenius_power(ring.parse("x^2"), 1)
    assert not in_max_ideal_frobenius_power(ring.parse("x^2 + y"), 1)


def test_psi2_additive_decomposition():
    """ψ on (a, b) equals ψ on [a] plus ψ on V[b]."""
    ring = ring_over(2)
    f = ring.parse("x^3 + y^2*z")
    f1 = f  # f^{p-1} at p = 2
    f2 = f * delta1(f)
    a = ring.parse("x*y + z^2")
    b = ring.parse("y^3")
    whole = O.psi2_eval(f1, f2, W2Element(a, b))
    teich = O.psi2_eval(f1, f2, W2Element(a, ring.zero))
    versch = O.psi2_eval(f1, f2, W2Element(ring.zero, b))
    assert whole == teich + versch


def test_psi2_polynomial_shorthand():
    ring = ring_over(2)
    f = ring.parse("x^3 + y^2*z")
    a = ring.parse("x*y*z")
    assert O.psi2_eval(f, f * delta1(f), a) == O.psi2_eval(f, f * delta1(f), W2Element(a, ring.zero))
