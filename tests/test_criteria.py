"""Tests for the height criteria: splitting tests, chain engines, fixed
points, certificates and the orchestrator."""

import itertools
import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from qfsplit import (
    Budget,
    ExponentOverflowError,
    Grading,
    Ideal,
    Polynomial,
    PolynomialRing,
    PrimeField,
    RingError,
    delta1,
    enclosure_closure,
    fedder_fsplit,
    height,
    height_graded_cy,
    height_local,
    non_qfs_quick,
    product_witness,
    qfs_decide,
    result_to_json,
    verify_certificate,
    verify_infinity_certificate,
    verify_witness_chain,
)
from qfsplit.rings import ExponentCodec
from qfsplit.criteria import (
    CHAIN_WITNESS,
    ChainStep,
    Certificate,
    COEFFICIENT_WITNESS,
    FINITE,
    FIXED_POINT_ENCLOSURE,
    I_INFTY_STABILIZED,
    INFINITE,
    LOWER_BOUND,
    NON_QFS,
    UNKNOWN,
    _Chain,
    _integer_root,
    _Splitting,
    _strict_chain_search,
    graded_cy_applicable,
    graded_cy_coefficient,
    verify_witness_levels,
)
from qfsplit import criteria
from qfsplit.cli import rdp_rows
from qfsplit.groebner import colon_ideal, ideal_equal, ideal_membership
from qfsplit.frobenius import in_max_ideal_frobenius_power, packed_theta, theta, u_map
from qfsplit import witt

import oracles as O
from conftest import poly_strategy, ring_over


def ring_named(p, names):
    return PolynomialRing(PrimeField(p), names)


# ---------------------------------------------------------------------------
# F-splitting
# ---------------------------------------------------------------------------


def test_fedder_fsplit_knowns():
    r5 = ring_named(5, ["x1", "x2", "x3", "x4"])
    assert fedder_fsplit(r5.parse("x1^4 + x2^4 + x3^4 + x4^4"))
    r2 = ring_over(2)
    assert not fedder_fsplit(r2.parse("x^3 + y^3 + z^3"))
    r7 = ring_over(7)
    assert not fedder_fsplit(r7.parse("x^3 + y^2*z"))
    assert fedder_fsplit(ring_over(3).variable("x"))


@pytest.mark.parametrize(
    "p,text",
    [
        (2, "x^3 + y^3 + z^3"),
        (2, "x^3 + x*y*z + y^2*z + z^3"),
        (3, "x^3 + y^2*z"),
        (5, "x^3 + y^2*z"),
        (7, "x^2*y + y^2*z + z^2*x"),
    ],
)
def test_fedder_equals_height_one(p, text):
    """fedder_fsplit(f) iff the orchestrator verdict is Finite(1)."""
    ring = ring_over(p)
    f = ring.parse(text)
    res = height(f, n_max=4)
    assert fedder_fsplit(f) == (res.verdict == FINITE and res.n == 1)


# ---------------------------------------------------------------------------
# graded engine
# ---------------------------------------------------------------------------


def test_graded_cy_fermat_quartic_p5():
    ring = ring_named(5, ["x1", "x2", "x3", "x4"])
    f = ring.parse("x1^4 + x2^4 + x3^4 + x4^4")
    res = height_graded_cy([f], Grading.standard(4))
    assert (res.verdict, res.n) == (FINITE, 1)


def test_graded_cy_supersingular_cubic():
    ring = ring_over(2)
    f = ring.parse("x^3 + y^3 + z^3")
    res = height_graded_cy([f], Grading.standard(3))
    assert (res.verdict, res.n) == (FINITE, 2)
    assert res.certificate.kind == COEFFICIENT_WITNESS


@pytest.fixture
def theta_images(monkeypatch):
    """The arguments of every packed θ that `criteria` applies from here on
    (the graded engine's orbit)."""
    images = []

    def counting_theta(a, table, p):
        images.append(a)
        return packed_theta(a, table, p)

    monkeypatch.setattr("qfsplit.criteria.packed_theta", counting_theta)
    return images


LOWER_BOUND_CUBIC = (3, "x^3 + x^2*y + y^3 + x*y*z + y*z^2")


def test_lower_bound_run_forms_no_theta_past_the_cutoff(theta_images):
    """A cubic at p = 3 whose target coefficient vanishes and whose θ orbit
    stays nonzero through level 5: a run to n_max reads n_max coefficients,
    so it forms n_max − 1 θ images."""
    p, text = LOWER_BOUND_CUBIC
    f = ring_over(p).parse(text)
    for n_max in range(1, 6):
        theta_images.clear()
        res = height_graded_cy([f], Grading.standard(3), n_max=n_max)
        assert (res.verdict, res.n, res.steps) == (LOWER_BOUND, n_max, n_max)
        assert res.diagnostics == ()
        assert len(theta_images) == n_max - 1
        assert all(theta_images)


def test_graded_run_stays_packed(monkeypatch, theta_images):
    """The engine reads every level from packed exponents: a LowerBound(5)
    run forms four packed θ images and calls neither the polynomial θ nor
    `Polynomial.__pow__`."""
    p, text = LOWER_BOUND_CUBIC
    f = ring_over(p).parse(text)
    calls = []

    def refuse(name):
        def call(*args):
            calls.append(name)
            raise AssertionError(f"{name} called")
        return call

    monkeypatch.setattr("qfsplit.frobenius.theta", refuse("frobenius.theta"))
    monkeypatch.setattr("qfsplit.criteria.theta", refuse("criteria.theta"))
    monkeypatch.setattr(Polynomial, "__pow__", refuse("Polynomial.__pow__"))
    res = height_graded_cy([f], Grading.standard(3), n_max=5)
    assert (res.verdict, res.n) == (LOWER_BOUND, 5)
    assert calls == []
    assert len(theta_images) == 4


def test_vanishing_orbit_is_reported_at_its_level():
    """The cusp y²z + x³ at p = 2: c_1 = 0 (no xyz term), and θ(F_*f) =
    u(F_*(x³y²z·f)) = 0, so the orbit vanishes at level 2 and the run stops
    there with LowerBound(n_max) and a diagnostic."""
    ring = ring_over(2)
    f = ring.parse("x^3 + y^2*z")
    assert O.u_oracle(delta1(f) * f).is_zero()
    res = height_graded_cy([f], Grading.standard(3), n_max=5)
    assert (res.verdict, res.n, res.steps) == (LOWER_BOUND, 5, 2)
    assert res.diagnostics == (
        "theta orbit vanished at level 2; every later coefficient is zero",
    )


def test_delta_overflow_is_raised_where_the_second_level_needs_it():
    """f = x^{K+1} under the weights (1, K), K = 2^31, at p = 2: c_1 = 0 and
    t_1 = f ≠ 0, so level 2 needs Δ₁(f), whose exponents pass the limit.
    The error comes after the first step and before the second one."""
    ring = ring_named(2, ["x", "y"])
    k = 2**31
    f = ring.from_terms({(k + 1, 0): 1})
    for limit in (1, 2):
        budget = Budget(limit)
        with pytest.raises(ExponentOverflowError):
            height_graded_cy([f], Grading([[1, k]]), budget=budget)
        assert budget.steps == 1


@pytest.mark.parametrize("p", [2, 3, 5])
@given(data=st.data())
def test_packed_pairing_is_the_coefficient_of_the_product(p, data):
    """`_pairing` reads the x^cap coefficient of a·b from packed terms.  The
    exponents run up to twice the cap, so many terms lie over it in some
    field, and their lookup keys cap − e borrow across fields; while the
    packing holds every field of a·b, none of them may pair with a term."""
    nvars = data.draw(st.integers(1, 3))
    ring = ring_over(p, ("x", "y", "z")[:nvars])
    cap = data.draw(st.tuples(*[st.integers(0, 6)] * nvars))
    top = 2 * max(cap) + 1
    a, b = (data.draw(poly_strategy(ring, max_exp=top, max_terms=8)) for _ in range(2))
    codec = ExponentCodec(nvars, top.bit_length() + 1)
    packed = [{codec.pack(e): c for e, c in q.terms.items()} for q in (a, b)]
    expected = (a * b).terms.get(cap, 0)
    assert criteria._pairing(*packed, codec.pack(cap), p) == expected


def test_weighted_orbit_near_its_exponent_bound():
    """Under the weights (1, 1, 1, 2) at p = 5, this f has M = 3, and its θ
    orbit climbs to a z-exponent of 13, near the bound t_n ≤ p·M = 15 that
    sizes the packed fields, and stays nonzero through level 8.  The packed
    orbit equals the polynomial one, whose Δ comes from the ghost route,
    level by level."""
    ring = ring_named(5, ["x", "y", "z", "w"])
    f = ring.parse("3*x^2*y*z^2 + 4*y^2*z^3 + 2*x*z^2*w + 2*z^3*w + 3*z*w^2")
    images = []
    unpack = _Splitting([f]).codec.unpack

    def recording(a, table, p):
        out = packed_theta(a, table, p)
        images.append(ring.from_terms({unpack(e): c for e, c in out.items()}))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("qfsplit.criteria.packed_theta", recording)
        res = height_graded_cy([f], Grading([[1, 1, 1, 2]]), n_max=8)
    assert (res.verdict, res.n, res.diagnostics) == (LOWER_BOUND, 8, ())
    assert f.max_exponent() == 3
    t = f**4
    delta = delta1(t)
    for image in images:
        t = theta(t, delta)
        assert image == t
    assert len(images) == 7
    assert max(image.max_exponent() for image in images) == 13


def test_finite_one_run_forms_no_f_to_the_p_minus_one(monkeypatch, theta_images):
    """Level 1 is read as Σ f^{p−2}[e]·f[(p−1)𝟙 − e], so a Finite(1) run
    raises f to no power but p − 2, and forms no θ image: the splitting
    never multiplies F^{p−2} by F to form F^{p−1}."""
    powers, products = [], []

    def counting_power(f, n, q):
        powers.append(n)
        return witt.packed_power(f, n, q)

    def counting_mul(f, g, q):
        products.append(q)
        return witt.packed_mul(f, g, q)

    monkeypatch.setattr("qfsplit.criteria.packed_power", counting_power)
    monkeypatch.setattr("qfsplit.criteria.packed_mul", counting_mul)
    ordinary = [
        (2, "x^3 + x*y*z + y^2*z + z^3"),
        (3, "x^3 + y^3 + z^3 + x*y*z"),
        (7, "x^3 + y^3 + z^3"),
    ]
    for p, text in ordinary:
        f = ring_over(p).parse(text)
        powers.clear()
        res = height_graded_cy([f], Grading.standard(3))
        assert (res.verdict, res.n) == (FINITE, 1)
        assert powers == [p - 2]
    assert products == []
    assert theta_images == []


def test_graded_cy_rejects_wrong_degree_sum():
    ring = ring_over(2)
    # quadric in three variables: degree 2 != 3
    reason = graded_cy_applicable([ring.parse("x^2 + y*z")], Grading.standard(3))
    assert reason is not None and "degree sum" in reason


def test_graded_cy_rejects_bigraded_conic_bundle():
    """The bidegree of the conic-bundle equation is (1,2), not the variable
    total (3,3) — the coefficient route must turn it down."""
    ring = ring_named(2, ["x0", "x1", "x2", "y0", "y1", "y2"])
    f = ring.parse("x0*y0^2 + x1*y1^2 + x2*y2^2")
    g = Grading([[1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1]])
    assert graded_cy_applicable([f], g) is not None
    with pytest.raises(RingError):
        height_graded_cy([f], g)


def test_graded_cy_weighted_double_cover():
    """Weighted gradings qualify when deg_W(f) equals the weight sum."""
    ring = ring_named(2, ["x", "y", "z", "w"])
    weights = Grading([[1, 1, 1, 3]])
    f = ring.parse("w^2 + x^6 + y^6 + z^6 + x*y*z*w")
    assert graded_cy_applicable([f], weights) is None
    res = height_graded_cy([f], weights, n_max=3)
    assert res.verdict in (FINITE, INFINITE, LOWER_BOUND)


def test_coefficient_against_uncapped_expansion():
    """Level-2 coefficient for a cubic at p=2 equals the raw expansion of
    f·Δ₁(f) at (xyz)³."""
    ring = ring_over(2)
    for text in ("x^3 + y^3 + z^3", "x^3 + x*y*z + y^2*z + z^3", "x^2*y + y^2*z + z^2*x"):
        f = ring.parse(text)
        raw = (f * delta1(f)).terms.get((3, 3, 3), 0)
        assert graded_cy_coefficient([f], 2) == raw


CUBICS = (
    "x^3 + y^3 + z^3",
    "x^3 + x*y*z + y^2*z + z^3",
    "x^2*y + y^2*z + z^2*x",
    "y^2*z + x^3 + x*z^2",
    "y^2*z + x^3 + 2*x*z^2 + z^3",
)


@pytest.mark.parametrize("p,levels", [(2, 3), (3, 3), (5, 2), (2, 4), (3, 4)])
def test_coefficient_matches_whole_capped_product(p, levels):
    """The coefficient read as Σ f^{p−1}[e]·E_n[cap−e] equals the one read off
    the whole product f^{p−1}·Δ₁(f^{p−1})^{p^{n−2}+⋯+1}, truncated at the
    cap after each factor (zero and nonzero values both occur).  At n = 2,
    E_2 is Δ₁(f^{p−1}) itself, uncapped; levels 2–4 take the exponents
    1, 3, 7 at p = 2 and 1, 4, 13 at p = 3."""
    ring = ring_over(p)
    seen = set()
    for text in CUBICS:
        f = ring.parse(text)
        for n in range(1, levels + 1):
            c = graded_cy_coefficient([f], n)
            assert c == O.graded_cy_coefficient_product([f], n)
            seen.add(c != 0)
    assert seen == {False, True}


# K3 quartics at p = 3 by height, found by the θ-orbit route
K3_QUARTICS = {
    3: "2*x^3*y + x^2*y^2 + 2*x^3*z + 2*x*z^3 + 2*y^2*z*w + x*y*w^2 + 2*x*z*w^2 + 2*y*w^3 + w^4",
    4: "x*y^3 + x*y^2*z + 2*x*y*z^2 + z^4 + x*z^2*w + y*z^2*w + x^2*w^2 + y*w^3 + w^4",
    5: "2*x^4 + 2*x^3*y + y^4 + 2*x^2*y*z + 2*y^3*z + 2*y^2*z^2 + 2*x^2*z*w + 2*w^4",
    8: "y^4 + 2*x^3*z + 2*x^2*z^2 + 2*y^2*z^2 + 2*z^4 + 2*x*y^2*w + x*y*z*w + 2*y^2*z*w"
    " + 2*x^2*w^2 + z^2*w^2 + y*w^3",
}


@pytest.mark.parametrize("h", sorted(K3_QUARTICS))
def test_coefficient_route_agrees_with_theta_orbit_on_k3_quartics(h):
    """The capped Δ-power route reads zero below the θ-orbit height and a
    nonzero coefficient at it, and the orbit's certificate re-verifies."""
    ring = ring_named(3, ["x", "y", "z", "w"])
    f = ring.parse(K3_QUARTICS[h])
    res = height_graded_cy([f], Grading.standard(4))
    assert (res.verdict, res.n) == (FINITE, h)
    nonzero = [graded_cy_coefficient([f], n) != 0 for n in range(1, h + 1)]
    assert nonzero == [False] * (h - 1) + [True]
    assert verify_certificate(Ideal(ring, [f]), res.certificate)


@pytest.mark.parametrize(
    "p,names,text,h",
    [
        (2, "xyz", "x^3 + x*y*z + y^2*z + z^3", 1),
        (2, "xyz", "x^3 + y^3 + z^3", 2),
        (3, "xyz", "y^2*z + x^3 + x*z^2", 2),
    ]
    + [(3, "xyzw", text, h) for h, text in sorted(K3_QUARTICS.items())],
)
def test_finite_run_forms_theta_images_only_below_its_height(theta_images, p, names, text, h):
    """A Finite(h) run reads c_h from t_{h−1} as a pairing with Δ, so it
    forms the θ images t_2, …, t_{h−1}: max(h − 2, 0) of them."""
    f = ring_named(p, list(names)).parse(text)
    res = height_graded_cy([f], Grading.standard(len(names)))
    assert (res.verdict, res.n, res.steps) == (FINITE, h, h)
    assert len(theta_images) == max(h - 2, 0)


def test_coefficient_level_one_is_fedder():
    ring = ring_over(2)
    f = ring.parse("x^3 + x*y*z + y^2*z + z^3")
    assert (graded_cy_coefficient([f], 1) != 0) == fedder_fsplit(f)


def test_coefficient_levels_at_the_exponent_limit():
    """At p = 2 the cap 2^n−1 of level 31 is the exponent limit itself, so
    level 31 is read like any other; level 32's cap passes the limit, and
    its witness is refused with a reason, not an exception."""
    ring = ring_over(2)
    f = ring.parse("x^3 + x*y*z + y^2*z + z^3")
    assert graded_cy_coefficient([f], 30) == 0
    assert graded_cy_coefficient([f], 31) == 0
    with pytest.raises(ExponentOverflowError):
        graded_cy_coefficient([f], 32)
    cert = Certificate(COEFFICIENT_WITNESS, {"level": 32, "coefficient": 1, "grading": [[1, 1, 1]]})
    reasons = []
    assert not verify_certificate(Ideal(ring, [f]), cert, reasons=reasons)
    assert "exponent limit" in reasons[0] and "level 32" in reasons[0]


# ---------------------------------------------------------------------------
# local chain engine
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [
        ("z^2 + x^2*y + x*y^2", 2),  # D4, n = 2
        ("z^2 + x^2*y + x*y^4", 3),  # D8, n = 4
        ("z^2 + x^3 + x*y^3", 4),  # E7
    ],
)
def test_height_local_rdp_values(text, expected):
    ring = ring_over(2)
    res = height_local(Ideal(ring, [ring.parse(text)]), 6)
    assert (res.verdict, res.n) == (FINITE, expected)


def test_height_local_chain_is_verifiable():
    """A Finite verdict carries a strict chain the verifier accepts."""
    ring = ring_over(2)
    I = Ideal(ring, [ring.parse("z^2 + x^2*y + x*y^4")])
    res = height_local(I, 6)
    chain = res.certificate.data["chain"]
    assert len(chain) == res.n
    assert verify_witness_chain(I, chain)
    assert verify_certificate(I, res.certificate)


def test_local_chain_ideals_increase():
    ring = ring_over(2)
    I = Ideal(ring, [ring.parse("z^2 + x^2*y + x*y^4")])
    chain = O.local_chain_ideals(I, 4)
    assert len(chain) >= 2
    for small, big in zip(chain, chain[1:]):
        for g in small.gens:
            assert ideal_membership(g, big)


def test_local_route_handles_complete_intersection():
    """Two-generator system: the supersingular x ordinary product block."""
    ring = ring_named(2, ["x0", "x1", "x2", "y0", "y1", "y2"])
    I = Ideal(
        ring,
        [ring.parse("x0^3 + x1^3 + x2^3"), ring.parse("y0^3 + y0*y1*y2 + y1^2*y2 + y2^3")],
    )
    res = height_local(I, 4)
    assert (res.verdict, res.n) == (FINITE, 2)


def test_route_agreement_on_cy_corpus():
    """Graded and local engines must give identical verdicts on graded CY
    inputs."""
    ring = ring_over(2)
    for text in ("x^3 + y^3 + z^3", "x^3 + x*y*z + y^2*z + z^3", "x^2*y + y^2*z + x*z^2"):
        f = ring.parse(text)
        a = height_graded_cy([f], Grading.standard(3), n_max=4)
        b = height_local(Ideal(ring, [f]), 4)
        assert (a.verdict, a.n) == (b.verdict, b.n)


PLANE_CUBIC_MONOMIALS = [e for e in itertools.product(range(4), repeat=3) if sum(e) == 3]


@pytest.mark.parametrize("p", [2, 3])
@given(data=st.data())
def test_graded_and_local_routes_agree_on_plane_cubics(p, data):
    """Both engines find the same height of a random plane cubic.  The graded
    engine cannot prove an infinite height, so where the local chain
    stabilizes inside m^[p] it stops at the cutoff instead."""
    ring = ring_over(p)
    coeffs = data.draw(st.lists(st.integers(0, p - 1), min_size=10, max_size=10))
    f = ring.from_terms(dict(zip(PLANE_CUBIC_MONOMIALS, coeffs)))
    assume(not f.is_zero())
    graded = height_graded_cy([f], Grading.standard(3), n_max=4)
    local = height_local(Ideal(ring, [f]), 4)
    if local.verdict == INFINITE:
        assert (graded.verdict, graded.n) == (LOWER_BOUND, 4)
    else:
        assert (graded.verdict, graded.n) == (local.verdict, local.n)


def _draw_cubic(data, ring, offset):
    """A nonzero random cubic in the three variables from position `offset` on."""
    p = ring.field.p
    coeffs = data.draw(st.lists(st.integers(0, p - 1), min_size=10, max_size=10))
    pad = ring.nvars - offset - 3
    f = ring.from_terms(
        {(0,) * offset + e + (0,) * pad: c for e, c in zip(PLANE_CUBIC_MONOMIALS, coeffs)}
    )
    assume(not f.is_zero())
    return f


def _assert_engine_reads_first_oracle_level(f_list, levels):
    """height_graded_cy's (verdict, n, certificate coefficient) is the first
    level whose whole-product coefficient is nonzero, or LowerBound(levels)."""
    expected = (LOWER_BOUND, levels, None)
    for n in range(1, levels + 1):
        c = O.graded_cy_coefficient_product(f_list, n)
        if c:
            expected = (FINITE, n, c)
            break
    res = height_graded_cy(f_list, Grading.standard(f_list[0].ring.nvars), n_max=levels)
    coefficient = res.certificate.data["coefficient"] if res.certificate else None
    assert (res.verdict, res.n, coefficient) == expected


@pytest.mark.parametrize("p,levels", [(2, 3), (3, 3), (5, 2), (2, 4), (3, 4)])
@given(data=st.data())
def test_graded_engine_matches_whole_product_oracle_on_plane_cubics(p, levels, data):
    _assert_engine_reads_first_oracle_level([_draw_cubic(data, ring_over(p), 0)], levels)


@pytest.mark.parametrize("p,levels", [(2, 3), (2, 4), (3, 2)])
@settings(max_examples=15)
@given(data=st.data())
def test_graded_engine_matches_whole_product_oracle_on_fiber_products(p, levels, data):
    """Two cubics in disjoint blocks of three variables.  In six variables
    the whole-product oracle takes minutes from level 3 on at p = 3 and from
    level 2 on at p = 5, so those pairs are left to the plane cubics."""
    ring = ring_named(p, ["x0", "x1", "x2", "y0", "y1", "y2"])
    f_list = [_draw_cubic(data, ring, 0), _draw_cubic(data, ring, 3)]
    _assert_engine_reads_first_oracle_level(f_list, levels)


# ---------------------------------------------------------------------------
# I-infinity fixed point
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_qfs_decide_cusp_not_qfs(p):
    ring = ring_over(p)
    I = Ideal(ring, [ring.parse("x^3 + y^2*z")])
    verdict, cert = qfs_decide(I)
    assert verdict is False
    assert verify_certificate(I, cert)


def test_qfs_decide_hyperplane_trivially_qfs():
    ring = ring_over(3)
    verdict, cert = qfs_decide(Ideal(ring, [ring.variable("x")]))
    assert verdict is True
    assert cert.data["iterations"] >= 1


def test_qfs_decide_iteration_is_monotone():
    """Each stabilization step only ever adds elements."""
    ring = ring_over(2)
    I = Ideal(ring, [ring.parse("x^3 + y^2*z")])
    _, cert = qfs_decide(I)
    J = Ideal(ring, cert.data["generators"])
    # the seed (f^{p-1}) and all theta images of J sit inside the limit
    f = I.gens[0]
    assert ideal_membership(f, J)
    delta = delta1(f)
    for g in J.gens:
        img = theta(g, delta)
        assert ideal_membership(img, J)


def test_enclosure_closure_empty_seed_matches_qfs_decide():
    ring = ring_over(2)
    I = Ideal(ring, [ring.parse("x^3 + y^2*z")])
    _, cert = qfs_decide(I)
    closure = enclosure_closure(I)
    assert ideal_equal(closure, Ideal(ring, cert.data["generators"]))


def test_enclosure_closure_is_theta_closed():
    ring = ring_named(2, ["x", "y", "z", "w", "u", "s"])
    g = ring.parse("x*y*s^2 + z*w*u^2 + y^3*w + x^3*z")
    I = Ideal(ring, [g])
    seed = [ring.parse("y*s^2 + x^2*z"), ring.parse("z*u^2 + y^3")]
    closure = enclosure_closure(I, seed=seed)
    delta = delta1(g)
    for h in closure.gens:
        if u_map(h).is_zero():
            assert ideal_membership(theta(h, delta), closure)
    for s in seed:
        assert ideal_membership(s, closure)
    assert ideal_membership(g, closure)


def test_closure_carries_its_reduced_basis(monkeypatch):
    """The θ-closure comes back presented by its reduced Groebner basis and
    holding it as its cache, so verifying it as a trap ideal reduces no basis
    again (cusp at p = 2 with trap x^2, as `verify-infty --close` runs it)."""
    from qfsplit import groebner

    ring = ring_over(2)
    I = Ideal(ring, [ring.parse("x^3 + y^2*z")])
    closure = enclosure_closure(I, seed=[ring.parse("x^2")])
    assert list(closure.gens) == groebner.buchberger(list(closure.gens))
    reduced = []
    real = groebner.buchberger

    def recording(gens, budget=None):
        reduced.append(gens)
        return real(gens, budget=budget)

    monkeypatch.setattr(groebner, "buchberger", recording)
    budget = Budget()
    assert verify_infinity_certificate(I, closure, budget)
    assert reduced == []
    assert budget.steps == 9  # 14 when the closure's basis was reduced again


def assert_i1_seed_matches_colon_seed(gens):
    """Fedder: for a regular sequence (I^[p] : I) = I_1, so qfs_decide's I_∞,
    seeded with I_1, is the limit of the chain on the colon's generators,
    level for level."""
    ring = gens[0].ring
    I = Ideal(ring, gens)
    seed = colon_ideal(O.bracket_power(I, 1), I)
    sp = _Splitting(gens)
    assert ideal_equal(seed, Ideal(ring, sp.i1))
    chain = _Chain(sp, Budget(), seed.gens)
    closure = chain.close()
    _, cert = qfs_decide(I)
    assert cert.data["generators"] == list(closure.gens)
    assert cert.data["iterations"] == chain.n


SEXTIC_VARS = ["x", "y", "z", "w", "u", "s"]
CUBIC_PAIR_VARS = ["x0", "x1", "x2", "y0", "y1", "y2"]

# complete intersections at p = 2: the hyperplane sections s = 0 of the two
# sextics, and the fiber product of two ordinary plane cubics
COMPLETE_INTERSECTIONS = {
    "sextic-g1-section": (SEXTIC_VARS, ["x*y*s^2 + z*w*u^2 + y^3*w + x^3*z", "s"]),
    "sextic-g2-section": (
        SEXTIC_VARS, ["x*y*s^2 + z*w*u^2 + z^3*u + y^3*w + x^3*z", "s"],
    ),
    "cubic-fiber-product": (
        CUBIC_PAIR_VARS,
        ["x0^3 + x0*x1*x2 + x1^2*x2 + x2^3", "y0^3 + y0*y1*y2 + y1^2*y2 + y2^3"],
    ),
}


@pytest.mark.parametrize("case", list(COMPLETE_INTERSECTIONS))
def test_qfs_decide_equals_closure_of_colon_seed(case):
    names, texts = COMPLETE_INTERSECTIONS[case]
    ring = ring_named(2, names)
    assert_i1_seed_matches_colon_seed([ring.parse(t) for t in texts])


def quadric_pairs(p, count):
    """``count`` pairs of random quadrics in four variables over F_p that form
    a regular sequence, drawn from a fixed seed."""
    ring = ring_named(p, ["x", "y", "z", "w"])
    monomials = [e for e in itertools.product(range(3), repeat=4) if sum(e) == 2]
    rng = random.Random(p)
    pairs = []
    while len(pairs) < count:
        q = [
            ring.from_terms({m: rng.randrange(p) for m in rng.sample(monomials, 4)})
            for _ in range(2)
        ]
        first = Ideal(ring, q[:1])
        if all(q) and ideal_equal(colon_ideal(first, Ideal(ring, q[1:])), first):
            pairs.append(q)
    return pairs


@pytest.mark.parametrize("p", [2, 3])
def test_qfs_decide_equals_closure_of_colon_seed_on_quadric_pairs(p):
    for gens in quadric_pairs(p, 3):
        assert_i1_seed_matches_colon_seed(gens)


SEXTIC_G1 = "x*y*s^2 + z*w*u^2 + y^3*w + x^3*z"


@pytest.mark.parametrize(
    "kind,p,text,steps",
    [
        ("height", 2, "z^2 + x^3 + y^5", 135),  # E8^0, local chain to n = 4
        ("height", 3, "z^2 + x^3 + y^5", 185),  # E8^0, local chain to n = 3
        ("qfs_decide", 2, "x^3 + y^2*z", 16),  # the cusp's I_infinity
        # sextic g1: I_∞ resumes from the local chain's I_4, not from I_1
        ("height", 2, SEXTIC_G1, 753),
    ],
)
def test_chain_reduces_each_generator_set_once(monkeypatch, kind, p, text, steps):
    """Each level's Groebner basis is computed once and then read from the
    `Ideal` that carries it: no generator set reaches `buchberger` twice
    within one call, not even across the hand-over from the local chain to
    I_∞, and the steps stay as measured."""
    from qfsplit import groebner

    reduced = []
    real = groebner.buchberger

    def recording(gens, budget=None):
        reduced.append(frozenset(gens))
        return real(gens, budget=budget)

    monkeypatch.setattr(groebner, "buchberger", recording)
    ring = ring_named(p, SEXTIC_VARS) if "s" in text else ring_over(p)
    f = ring.parse(text)
    if kind == "height":
        taken = height(f, n_max=4).steps
    else:
        budget = Budget()
        qfs_decide(Ideal(ring, [f]), budget)
        taken = budget.steps
    assert reduced and len(reduced) == len(set(reduced))
    assert taken == steps


# ---------------------------------------------------------------------------
# quick infinite-height tests
# ---------------------------------------------------------------------------


def test_non_qfs_quick_fermat_p3():
    ring = ring_named(3, ["x1", "x2", "x3", "x4"])
    cert = non_qfs_quick([ring.parse("x1^4 + x2^4 + x3^4 + x4^4")])
    assert cert is not None and cert.kind == NON_QFS
    assert cert.data["tag"] == "f^(p-2) in m^[p]"


def test_non_qfs_quick_cusp_p7():
    ring = ring_over(7)
    cert = non_qfs_quick([ring.parse("x^3 + y^2*z")])
    assert cert is not None
    assert cert.data == {"tag": criteria.TAG_PRODUCT}
    assert "m^[p^2]" in cert.data["tag"]


def test_non_qfs_quick_negative_cases():
    assert non_qfs_quick([ring_over(3).variable("x")]) is None
    # at p = 2 the f^{p-2} test can never fire (f^0 = 1)
    ring = ring_over(2)
    assert non_qfs_quick([ring.parse("x^3 + x*y*z + y^3 + z^3")]) is None


def _changed_element(ring, I, cert):
    """The same f^{p−2} certificate over a changed coefficient."""
    element = cert.data["element"]
    lead, _ = element.leading_term()
    return I, dict(cert.data, element=element + ring.from_terms({lead: 1}))


def _height_two_cubic(ring, I, cert):
    """The same certificate presented for y²z = x³ + xz² at p = 7, which is
    supersingular (so f^{p−1} ∈ m^{[p]}) of height 2 (so condition (2)
    fails)."""
    return Ideal(ring, [ring.parse("y^2*z + 6*x^3 + 6*x*z^2")]), cert.data


@pytest.mark.parametrize(
    "p,names,text,forge,reason",
    [
        (3, ["x1", "x2", "x3", "x4"], "x1^4 + x2^4 + x3^4 + x4^4", _changed_element, "recorded"),
        (7, ["x", "y", "z"], "x^3 + y^2*z", _height_two_cubic, "outside m^[p^2]"),
    ],
    ids=["f^(p-2)", "products"],
)
def test_non_qfs_verifier_checks_the_recorded_data(p, names, text, forge, reason):
    """The verifier recomputes what a NonQFS certificate claims.  A changed
    recorded f^{p−2} is rejected; the product certificate records only its
    tag, so presented for an input where condition (2) fails it is rejected
    by the recomputed capped products."""
    ring = ring_named(p, names)
    I = Ideal(ring, [ring.parse(text)])
    cert = non_qfs_quick(list(I.gens))
    assert verify_certificate(I, cert)
    J, data = forge(ring, I, cert)
    reasons = []
    assert not verify_certificate(J, Certificate(NON_QFS, data), reasons=reasons)
    assert reasons and reason in reasons[0]


# ---------------------------------------------------------------------------
# certificate verifiers
# ---------------------------------------------------------------------------


def d8_chain(ring):
    f = ring.parse("z^2 + x^2*y + x*y^4")
    return f, [ring.parse("z") * f, ring.parse("x*y^2*z"), ring.parse("x*y*z")]


def test_verify_witness_chain_accepts_d8():
    ring = ring_over(2)
    f, chain = d8_chain(ring)
    assert verify_witness_chain(Ideal(ring, [f]), chain)


def test_verify_witness_chain_pinpoints_bad_theta():
    ring = ring_over(2)
    f, chain = d8_chain(ring)
    chain[1] = chain[1] + ring.parse("x*y*z")
    reasons = []
    assert not verify_witness_chain(Ideal(ring, [f]), chain, reasons=reasons)
    assert reasons and "step 1" in reasons[0]


def test_verify_witness_chain_rejects_trapped_tail():
    ring = ring_over(2)
    f, chain = d8_chain(ring)
    assert not verify_witness_chain(Ideal(ring, [f]), chain[:-1])


def test_verify_witness_chain_rejects_start_outside_i1():
    ring = ring_over(2)
    f, _ = d8_chain(ring)
    reasons = []
    assert not verify_witness_chain(
        Ideal(ring, [f]), [ring.parse("x*y*z")], reasons=reasons
    )
    assert "I_1" in reasons[0]


def test_verify_witness_chain_rejects_empty():
    ring = ring_over(2)
    f, _ = d8_chain(ring)
    assert not verify_witness_chain(Ideal(ring, [f]), [])


def test_verify_infinity_raw_guess_fails_with_reason():
    """The two-generator trap is not θ-closed; the verifier must name the
    escaping image."""
    ring = ring_named(2, ["x", "y", "z", "w", "u", "s"])
    g = ring.parse("x*y*s^2 + z*w*u^2 + y^3*w + x^3*z")
    I = Ideal(ring, [g])
    J = Ideal(ring, [ring.parse("y*s^2 + x^2*z"), ring.parse("z*u^2 + y^3")])
    reasons = []
    assert not verify_infinity_certificate(I, J, reasons=reasons)
    assert reasons and "theta image" in reasons[0]


def test_verify_infinity_closed_guess_passes():
    ring = ring_named(2, ["x", "y", "z", "w", "u", "s"])
    g = ring.parse("x*y*s^2 + z*w*u^2 + y^3*w + x^3*z")
    I = Ideal(ring, [g])
    seed = [ring.parse("y*s^2 + x^2*z"), ring.parse("z*u^2 + y^3")]
    closure = enclosure_closure(I, seed=seed)
    assert verify_infinity_certificate(I, closure)
    assert in_max_ideal_frobenius_power(closure.gens[0], 1)


def test_verify_infinity_rejects_fsplit_bracket():
    """J = m^[p] can never trap an F-split hypersurface."""
    ring = ring_over(2)
    f = ring.parse("x^3 + x*y*z + y^2*z + z^3")
    bracket = Ideal(ring, [ring.parse("x^2"), ring.parse("y^2"), ring.parse("z^2")])
    reasons = []
    assert not verify_infinity_certificate(Ideal(ring, [f]), bracket, reasons=reasons)
    assert reasons


def test_integer_root_is_exact():
    assert _integer_root(64, 3) == 4  # int(64 ** (1 / 3)) is 3
    assert _integer_root(20000, 3) == 27
    for n in range(200):
        for k in (1, 2, 3, 5):
            r = _integer_root(n, k)
            assert r**k <= n < (r + 1) ** k


def test_strict_chain_search_sizes_exact_powers_exactly():
    """E8^0 at p = 2 has height 4, so no strict chain of length 3 exists and
    the search tries every multiplier: 64 candidates allow [0, 4)^3 for each
    of the two I_1 generators."""
    ring = ring_over(2)
    sp = _Splitting([ring.parse("z^2 + x^3 + y^5")])
    budget = Budget()
    assert _strict_chain_search(sp, 3, budget, max_candidates=64) is None
    assert budget.steps == 4**3 * len(sp.i1)


# ---------------------------------------------------------------------------
# tampered certificates: one change the mathematics forbids, per kind
# ---------------------------------------------------------------------------


def bump_leading_coefficient(poly):
    """poly with the coefficient of its leading term raised by one."""
    lead, _ = poly.leading_term()
    return poly + poly.ring.from_terms({lead: 1})


# local-chain rows of the double-point table at p = 2, 3, 5, whose
# certificates carry a strict chain, and a hyperplane section of a sextic,
# whose certificate carries the levelled records
LEVELLED_CASES = [
    (2, ("x", "y", "z"), ["z^2 + x^2*y + x*y^4 + x*y^3*z"]),  # D8^1
    (3, ("x", "y", "z"), ["z^2 + x^3 + y^5"]),  # E8^0
    (5, ("x", "y", "z"), ["z^2 + x^3 + y^5"]),  # E8^0
    (2, tuple("xyzwus"), ["x*y*s^2 + z*w*u^2 + y^3*w + x^3*z", "s"]),
]


def levelled_certificate(p, names, texts):
    ring = ring_named(p, names)
    I = Ideal(ring, [ring.parse(t) for t in texts])
    res = height(I)
    assert res.route == "local-chain" and res.certificate.kind == CHAIN_WITNESS
    assert verify_certificate(I, res.certificate)
    return I, res.certificate


@pytest.mark.parametrize("p,names,texts", LEVELLED_CASES)
def test_levels_reject_a_tampered_theta_image(p, names, texts, monkeypatch):
    """With the strict-chain search finding nothing, every case carries the
    levelled records, and a changed θ image among them is rejected."""
    monkeypatch.setattr(criteria, "_strict_chain_search", lambda *args, **kwargs: None)
    I, cert = levelled_certificate(p, names, texts)
    assert "chain" not in cert.data
    levels = [list(records) for records in cert.data["levels"]]
    l, k = next((l, k) for l, rs in enumerate(levels) for k, r in enumerate(rs) if r.image)
    levels[l][k] = ChainStep(levels[l][k].element, bump_leading_coefficient(levels[l][k].image))
    tampered = Certificate(CHAIN_WITNESS, dict(cert.data, levels=levels))
    for verify in (verify_witness_levels, verify_certificate):
        reasons = []
        assert not verify(I, tampered, reasons=reasons)
        assert reasons[0].startswith(f"level {l + 1}: theta image")


def test_rdp_chain_witnesses_hold_one_proof():
    """Each local-chain certificate of the double-point table holds either a
    strict chain or the levelled records with their escape, never both."""
    forms = set()
    for row in rdp_rows((2, 3, 5), 8):
        ring = ring_over(row["p"])
        I = Ideal(ring, [ring.parse(row["f"])])
        res = height(I, n_max=max(10, row["expected"] + 2))
        if res.route == "local-chain":
            assert res.certificate.kind == CHAIN_WITNESS
            keys = frozenset(res.certificate.data)
            assert keys in ({"chain"}, {"levels", "escape", "escape_level"}), row
            forms.add(keys)
    assert frozenset({"chain"}) in forms


@pytest.mark.parametrize("p,names,texts", LEVELLED_CASES[:3])
def test_strict_chain_rejects_a_tampered_element(p, names, texts):
    I, cert = levelled_certificate(p, names, texts)
    chain = list(cert.data["chain"])
    assert len(chain) >= 2
    chain[-1] = bump_leading_coefficient(chain[-1])
    reasons = []
    assert not verify_certificate(I, Certificate(CHAIN_WITNESS, dict(cert.data, chain=chain)), reasons=reasons)
    assert "theta image" in reasons[0]


@pytest.mark.parametrize(
    "p,names,text",
    [
        (5, "xyzw", "x^4 + y^4 + z^4 + w^4 + x*y*z*w + x^2*y*z"),
        (7, "xyz", "y^2*z + 6*x^3 + 6*x*z^2"),
        (5, "xyz", "x^3 + y^3 + z^3 + x*y*z"),
    ],
)
def test_coefficient_witness_rejects_a_tampered_coefficient(p, names, text):
    ring = ring_named(p, list(names))
    I = Ideal(ring, [ring.parse(text)])
    cert = height(I).certificate
    assert cert.kind == COEFFICIENT_WITNESS and verify_certificate(I, cert)
    data = dict(cert.data, coefficient=(cert.data["coefficient"] + 1) % p)
    reasons = []
    assert not verify_certificate(I, Certificate(COEFFICIENT_WITNESS, data), reasons=reasons)
    assert "coefficient" in reasons[0]


@pytest.mark.parametrize(
    "kind,p,names,text,options",
    [
        (I_INFTY_STABILIZED, 2, tuple("xyzwus"), "x*y*s^2 + z*w*u^2 + y^3*w + x^3*z",
         {"n_max": 4}),
        (FIXED_POINT_ENCLOSURE, 2, ("x", "y", "z"), "x^3 + y^2*z", {"strategy": "local"}),
    ],
)
def test_enclosures_reject_a_generator_outside_the_bracket_power(kind, p, names, text, options):
    """The first generator gains the term (x_1⋯x_N)^{p−1}, which lies outside
    m^{[p]}."""
    ring = ring_named(p, names)
    I = Ideal(ring, [ring.parse(text)])
    cert = height(I, **options).certificate
    assert cert.kind == kind and verify_certificate(I, cert)
    gens = list(cert.data["generators"])
    gens[0] = gens[0] + ring.monomial((p - 1,) * ring.nvars)
    reasons = []
    assert not verify_certificate(I, Certificate(kind, dict(cert.data, generators=gens)), reasons=reasons)
    assert "escapes m^[p]" in reasons[0]


# ---------------------------------------------------------------------------
# fiber products
# ---------------------------------------------------------------------------


def product_fixture():
    rx = ring_named(2, ["x0", "x1", "x2"])
    ry = ring_named(2, ["y0", "y1", "y2"])
    ss = rx.parse("x0^3 + x1^3 + x2^3")
    ordinary = ry.parse("y0^3 + y0*y1*y2 + y1^2*y2 + y2^3")
    return rx, ry, ss, ordinary


def test_product_witness_exact_chain_verifies():
    rx, ry, ss, ordinary = product_fixture()
    chain = height_local(Ideal(rx, [ss]), 4).certificate.data["chain"]
    ws = product_witness(chain, ordinary, 2, fx=ss, fy=ordinary)
    joint = ws[0].ring
    joint_ideal = Ideal(
        joint,
        [joint.parse("x0^3 + x1^3 + x2^3"), joint.parse("y0^3 + y0*y1*y2 + y1^2*y2 + y2^3")],
    )
    assert verify_witness_chain(joint_ideal, ws)


def test_product_witness_kunneth_level_one():
    rx, ry, _, ordinary = product_fixture()
    g1 = rx.parse("x0^3 + x0*x1*x2 + x1^2*x2 + x2^3")
    ws = product_witness([g1], ordinary, 1, fx=g1, fy=ordinary)
    assert len(ws) == 1
    assert not in_max_ideal_frobenius_power(ws[0], 1)


def test_product_witness_raw_pairing_orientation():
    """Without the factor equations the tensor pairing puts the surviving
    u-iterate on the final chain element."""
    rx, ry, ss, ordinary = product_fixture()
    chain = height_local(Ideal(rx, [ss]), 4).certificate.data["chain"]
    raw = product_witness(chain, ordinary, 2)
    joint = raw[0].ring
    assert raw[1] == joint.parse("x0*x1*x2")  # g_2 * u(F_* h) with u(F_*h) = 1


def test_product_witness_precondition_errors():
    rx, ry, ss, ordinary = product_fixture()
    with pytest.raises(RingError):
        product_witness([ss], ordinary, 2)  # wrong chain length
    with pytest.raises(RingError):
        # middle element must be killed by u
        product_witness([rx.parse("x0*x1*x2"), ss], ordinary, 2)
    with pytest.raises(RingError):
        # supersingular second factor has no surviving iterate
        product_witness(
            height_local(Ideal(rx, [ss]), 4).certificate.data["chain"],
            ry.parse("y0^3 + y1^3 + y2^3"),
            2,
        )


@pytest.mark.parametrize("p", [2, 3, 5])
def test_fiber_product_rule_on_random_smooth_cubic_pairs(p):
    """For smooth plane cubics E, E' (supersingularity by point counting):
    E × E' has height 2 when exactly one is supersingular, found by the
    two-generator graded route; ∞ when both are; 1 when neither is.  Every
    ordered pair of two supersingular and two ordinary random curves."""
    rng = random.Random(p)
    ring = ring_over(p)
    joint = ring_named(p, ["x0", "x1", "x2", "y0", "y1", "y2"])
    curves = {True: [], False: []}
    while min(len(c) for c in curves.values()) < 2:
        coeffs, cubic = O.random_smooth_cubic(rng, ring)
        curves[O.is_supersingular(coeffs, p, cubic)].append(cubic)
    drawn = [(ss, c) for ss in (True, False) for c in curves[ss][:2]]
    expected = {(True, True): (INFINITE, None), (False, False): (FINITE, 1)}
    for (ss_x, fx), (ss_y, fy) in itertools.product(drawn, repeat=2):
        gens = [criteria.embed_left(fx, joint), criteria.embed_right(fy, joint)]
        res = height(gens, n_max=4)
        assert (res.verdict, res.n) == expected.get((ss_x, ss_y), (FINITE, 2))
        if ss_x != ss_y:
            assert res.route == "graded-cy"
        assert verify_certificate(Ideal(joint, gens), res.certificate)


# ---------------------------------------------------------------------------
# orchestrator
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "p,names,texts,verdict",
    [
        (2, CUBIC_PAIR_VARS, ["x0^3 + x1^3 + x2^3", "y0^3 + y1^3 + y2^3"], (INFINITE, None)),
        (3, ["x", "y", "z"], ["y^2*z + 2*x^3 + x*z^2"], (FINITE, 2)),
    ],
    ids=["ss-x-ss-p2", "supersingular-cubic-p3"],
)
def test_height_builds_one_splitting(p, names, texts, verdict):
    """Step (a), the graded engine, the quick tests and the chain stages
    share one `_Splitting`, so f^{p−1} is formed once per `height` call."""
    ring = ring_named(p, names)
    gens = [ring.parse(t) for t in texts]
    built, products = [], []
    real_init = _Splitting.__init__

    def counting_init(self, gens):
        built.append(gens)
        real_init(self, gens)

    def counting_mul(f, g, q):
        products.append(q)
        return witt.packed_mul(f, g, q)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Splitting, "__init__", counting_init)
        mp.setattr("qfsplit.criteria.packed_mul", counting_mul)
        res = height(gens, n_max=4)
    assert (res.verdict, res.n) == verdict
    assert len(built) == 1
    assert len(products) == (p > 2)  # F^{p−1} = F^{p−2}·F, and F itself at p = 2


@pytest.mark.parametrize(
    "p,text,expected",
    [
        (2, "z^2 + x^3 + y^5", 4),
        (3, "z^2 + x^3 + y^4", 2),
        (5, "z^2 + x^3 + y^5 + x*y^4", 1),
    ],
)
def test_height_rdp_table_entries(p, text, expected):
    ring = ring_over(p)
    res = height(ring.parse(text), n_max=6)
    assert (res.verdict, res.n) == (FINITE, expected)


def test_height_routes_consistent():
    ring = ring_over(2)
    f = ring.parse("x^3 + y^3 + z^3")
    auto = height(f, n_max=4)
    graded = height(f, n_max=4, strategy="graded")
    local = height(f, n_max=4, strategy="local")
    assert (auto.verdict, auto.n) == (graded.verdict, graded.n) == (local.verdict, local.n)


def test_height_infinite_goes_through_fixed_point():
    """A CY input with all coefficients zero must be separated from
    LowerBound by the I_infinity decision."""
    ring = ring_over(2)
    res = height(ring.parse("x^3 + y^2*z"), n_max=3)
    assert res.verdict == INFINITE
    assert res.route == "i-infinity"
    assert res.certificate is not None


def test_height_unknown_on_tiny_budget():
    ring = ring_over(2)
    res = height(ring.parse("z^2 + x^2*y + x*y^4"), n_max=6, budget=Budget(3))
    assert res.verdict == UNKNOWN
    assert res.n is None
    assert res.diagnostics


@pytest.mark.parametrize("strategy", ["auto", "graded", "local", "qfs"])
def test_budget_abort_is_unknown_on_every_strategy(strategy):
    """A non-F-split Calabi-Yau cubic reaches the graded engine under auto, so
    every route, graded included, must turn the abort into Unknown."""
    ring = ring_over(5)
    res = height(ring.parse("x^3 + y^3 + z^3"), strategy=strategy, budget=Budget(1))
    assert res.verdict == UNKNOWN
    assert res.n is None
    assert res.diagnostics


def test_height_rejects_empty_system():
    with pytest.raises(RingError):
        height([])


def test_result_json_shape():
    ring = ring_over(2)
    res = height(ring.parse("x^3 + y^3 + z^3"), n_max=4)
    payload = result_to_json(res)
    assert payload["verdict"] == FINITE and payload["n"] == 2
    assert set(payload) == {
        "verdict",
        "n",
        "certificate",
        "steps",
        "wall_time_ms",
        "route",
        "diagnostics",
    }
    assert payload["certificate"]["kind"] in (COEFFICIENT_WITNESS, CHAIN_WITNESS)
    assert isinstance(payload["wall_time_ms"], float)


def test_height_lower_bound_when_qfs_suppressed():
    """Forced local strategy reports LowerBound instead of guessing."""
    ring = ring_over(2)
    res = height(ring.parse("x^3 + y^2*z"), n_max=2, strategy="local")
    assert res.verdict in (LOWER_BOUND, INFINITE)
    if res.verdict == LOWER_BOUND:
        assert res.n == 2


# ---------------------------------------------------------------------------
# invariance under a linear change of coordinates
# ---------------------------------------------------------------------------


def random_invertible_matrix(rng, p, n):
    """P·L·U over F_p, with L unit lower triangular, U upper triangular with
    a nonzero diagonal and P a row permutation: every invertible matrix has
    this form, and every matrix of this form is invertible."""
    L = [[1 if i == j else rng.randrange(p) if j < i else 0 for j in range(n)] for i in range(n)]
    U = [[rng.randrange(1, p) if i == j else rng.randrange(p) if j > i else 0 for j in range(n)]
         for i in range(n)]
    A = [[sum(L[i][k] * U[k][j] for k in range(n)) % p for j in range(n)] for i in range(n)]
    rng.shuffle(A)
    return A


def change_coordinates(f, A):
    """f(A·x): each x_i becomes Σ_j A_ij·x_j."""
    ring = f.ring
    xs = [ring.variable(v) for v in ring.variables]
    images = [sum((x.scale(a) for a, x in zip(row, xs)), ring.zero) for row in A]
    out = ring.zero
    for e, c in f.terms.items():
        term = ring.constant(c)
        for image, k in zip(images, e):
            term = term * image**k
        out = out + term
    return out


@pytest.mark.parametrize(
    "strategy,p,text,expected",
    [
        # plane cubics: supersingular (2) and ordinary (1)
        ("graded", 2, "x^3 + y^3 + z^3", 2),
        ("graded", 2, "x^3 + x*y*z + y^2*z + z^3", 1),
        ("graded", 3, "y^2*z + x^3 + 2*x*z^2", 2),
        ("graded", 3, "x^3 + y^3 + z^3 + x*y*z", 1),
        # double points of height at most 3
        ("local", 2, "z^2 + x^2*y + x*y^2", 2),  # D4^0
        ("local", 2, "z^2 + x^2*y + x*y^4", 3),  # D8^0
        ("local", 2, "z^2 + x^2*y + y^4*z", 3),  # D9^0
        ("local", 2, "z^2 + x^3 + y^2*z + x*y*z", 1),  # E6^1
        ("local", 2, "z^2 + x^3 + x*y^3 + y^3*z", 2),  # E7^2
        ("local", 2, "z^2 + x^3 + y^5 + x*y^2*z", 3),  # E8^2
        ("local", 3, "z^2 + x^3 + y^4", 2),  # E6^0
        ("local", 3, "z^2 + x^3 + y^4 + x^2*y^2", 1),  # E6^1
        ("local", 3, "z^2 + x^3 + x*y^3", 2),  # E7^0
        ("local", 3, "z^2 + x^3 + y^5", 3),  # E8^0
        ("local", 3, "z^2 + x^3 + y^5 + x^2*y^3", 2),  # E8^1
    ],
)
def test_height_is_invariant_under_a_linear_change_of_coordinates(strategy, p, text, expected):
    """A linear change of coordinates fixes the origin and maps m^{[p]} onto
    itself, so the height of the local ring there cannot change."""
    ring = ring_over(p)
    f = ring.parse(text)
    A = random_invertible_matrix(random.Random(f"{p}:{text}"), p, ring.nvars)
    g = change_coordinates(f, A)
    assert g != f
    route = {"graded": "graded-cy", "local": "local-chain"}[strategy]
    for h in (f, g):
        res = height(h, n_max=4, strategy=strategy)
        assert (res.verdict, res.n, res.route) == (FINITE, expected, route)
        assert verify_certificate(Ideal(ring, [h]), res.certificate)


CHAIN_MONOMIALS = [e for e in itertools.product(range(4), repeat=3) if 2 <= sum(e) <= 4]


@pytest.mark.parametrize("p", [2, 3])
@settings(max_examples=20)
@given(data=st.data())
def test_chain_ascends_and_its_limit_matches_the_oracle_chain(p, data):
    """The premise of resuming I_∞ from the local chain: the one chain
    ascends, I_n ⊆ I_{n+1}, so its fixed point is where the I_n chain of the
    public maps stops.  qfs_decide (under a step budget) must return the
    last ideal of `oracles.local_chain_ideals`, stabilized at the same level."""
    ring = ring_over(p)
    terms = data.draw(
        st.dictionaries(
            st.sampled_from(CHAIN_MONOMIALS), st.integers(1, p - 1), min_size=1, max_size=4
        )
    )
    f = ring.from_terms(terms)
    assume(not fedder_fsplit(f))  # an F-split chain stops at I_1
    I = Ideal(ring, [f])
    chain = _Chain(_Splitting([f]), Budget())
    levels = [chain.ideal]
    while chain.n < 4 and chain.advance():
        levels.append(chain.ideal)
    for small, big in zip(levels, levels[1:]):
        assert all(ideal_membership(g, big) for g in small.gens)
    try:
        _, cert = qfs_decide(I, Budget(4000))
    except criteria.BudgetExceededError:
        return
    iterations = cert.data["iterations"]
    oracle = O.local_chain_ideals(I, iterations + 1)
    assert ideal_equal(Ideal(ring, cert.data["generators"]), oracle[-1])
    assert len(oracle) == iterations


@pytest.mark.parametrize(
    "p,names,text,n_max",
    [
        (2, "xyz", "z^2 + x^3 + y^5", 2),  # E8^0: the local chain stops at I_2
        (2, "xyzwus", SEXTIC_G1, 4),  # sextic g1: the local chain stops at I_4
        (2, "xyz", "x^3 + y^2*z", 3),  # the cusp: graded, so I_∞ starts at I_1
    ],
)
def test_height_resumes_i_infinity_from_the_local_chain(p, names, text, n_max):
    """The I_∞ certificate that `height` returns after its local chain equals
    the one a fresh qfs_decide returns from I_1, `iterations` included."""
    ring = ring_named(p, list(names))
    f = ring.parse(text)
    res = height(f, n_max=n_max)
    assert res.route == "i-infinity"
    _, cert = qfs_decide(Ideal(ring, [f]))
    as_json = criteria.certificate_to_json
    assert as_json(res.certificate) == as_json(cert)
    if res.verdict == INFINITE:  # an escaping I_∞ is no trap ideal
        assert verify_certificate(Ideal(ring, [f]), res.certificate)


@pytest.mark.parametrize("steps,route", [(600, "i-infinity"), (500, "local-chain")])
def test_budget_abort_after_the_hand_over_is_unknown(steps, route):
    """sextic g1's local chain to I_4 takes 524 steps: a budget that outlasts
    it but not I_∞ aborts on the i-infinity route, a smaller one on the
    local chain, and both give Unknown."""
    f = ring_named(2, SEXTIC_VARS).parse(SEXTIC_G1)
    res = height(f, n_max=4, budget=Budget(steps))
    assert (res.verdict, res.route) == (UNKNOWN, route)
    assert res.diagnostics == (f"budget exhausted after {steps + 1} steps",)
