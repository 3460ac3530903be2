"""Tests for Groebner bases, ideal arithmetic and the Ker(u) module engine.

sympy over GF(p) is the external referee for basis computation, membership
and colon ideals; the module layer is cross-checked against the literal
rank-p^N reference route in `oracles`.
"""

import itertools
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path
from unittest import mock

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

import qfsplit
from qfsplit import (
    Budget,
    BudgetExceededError,
    ExponentOverflowError,
    FreeModuleVector,
    Ideal,
    Polynomial,
    RingError,
    buchberger,
    colon_ideal,
    frobenius_module_intersect_keru,
    ideal_equal,
    ideal_membership,
    module_buchberger,
    normal_form,
    u_map,
)
from qfsplit import groebner
from qfsplit.groebner import _module_lead, _syzygies, module_normal_form
from qfsplit.rings import EXPONENT_LIMIT, grevlex_key

import oracles as O
from conftest import nonzero_poly_strategy, poly_strategy, ring_over

PRIMES = [2, 3, 5, 7]


def random_ideal(ring, rng, ngens=3, max_exp=3, max_terms=4):
    gens = []
    for _ in range(ngens):
        terms = {
            tuple(rng.randrange(max_exp + 1) for _ in range(ring.nvars)): rng.randrange(
                1, ring.field.p
            )
            for _ in range(rng.randrange(1, max_terms + 1))
        }
        gens.append(ring.from_terms(terms))
    return [g for g in gens if not g.is_zero()]


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("seed", range(8))
def test_buchberger_matches_sympy(p, seed):
    """Reduced grevlex bases coincide with sympy's, term for term."""
    ring = ring_over(p)
    rng = random.Random(1000 * p + seed)
    gens = random_ideal(ring, rng)
    if not gens:
        pytest.skip("empty draw")
    mine = O.mine_canonical(buchberger(gens), ring)
    ref = O.sympy_groebner_canonical(gens, ring)
    assert mine == ref


# leading monomials that steer the pair criteria: pairwise coprime (the
# product criterion), one lcm shared by every pair (F), and lcms that one
# element's leading monomial divides (M and B_k)
LEAD_FAMILIES = {
    "coprime": [(2, 0, 0), (0, 3, 0), (0, 0, 2)],
    "equal-lcm": [(1, 1, 0), (0, 1, 1), (1, 0, 1)],
    "chained": [(2, 1, 0), (0, 2, 1), (1, 1, 1), (0, 0, 3)],
}


def led_ideal(ring, rng, leads):
    """One generator per leading monomial, each with up to three random
    terms below it in grevlex, so that its leading term is the given one."""
    p = ring.field.p
    gens = []
    for lead in leads:
        deg = sum(lead)
        below = [
            e for e in itertools.product(range(deg + 1), repeat=ring.nvars)
            if sum(e) <= deg and grevlex_key(e) < grevlex_key(lead)
        ]
        terms = {e: rng.randrange(1, p) for e in rng.sample(below, min(3, len(below)))}
        gens.append(ring.from_terms({lead: rng.randrange(1, p), **terms}))
    return gens


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("family", sorted(LEAD_FAMILIES))
@pytest.mark.parametrize("seed", range(3))
def test_buchberger_matches_sympy_where_pair_criteria_fire(p, family, seed):
    """Reduced grevlex bases coincide with sympy's on ideals whose leading
    monomials make the product criterion, F, M and B_k prune pairs."""
    ring = ring_over(p)
    gens = led_ideal(ring, random.Random(f"{family}-{p}-{seed}"), LEAD_FAMILIES[family])
    assert O.mine_canonical(buchberger(gens), ring) == O.sympy_groebner_canonical(gens, ring)


def test_buchberger_known_twisted_cubic():
    ring = ring_over(7)
    gens = [ring.parse("y + 6*x^2"), ring.parse("z + 6*x^3")]
    G = buchberger(gens)
    assert O.mine_canonical(G, ring) == O.sympy_groebner_canonical(gens, ring)
    # classic grevlex basis has three elements
    assert len(G) == 3


def test_buchberger_step_count_is_pinned():
    """The pair selection order fixes the step count; a change to the queue
    or the criteria that moves it must say why."""
    ring = ring_over(7)
    budget = Budget(10**6)
    buchberger([ring.parse("y + 6*x^2"), ring.parse("z + 6*x^3")], budget=budget)
    assert budget.steps == 16


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("seed", range(5))
def test_normal_form_postconditions(p, seed):
    ring = ring_over(p)
    rng = random.Random(17 * p + seed)
    gens = random_ideal(ring, rng)
    G = buchberger(gens)
    f = ring.from_terms(
        {tuple(rng.randrange(4) for _ in range(3)): rng.randrange(1, p) for _ in range(4)}
    )
    nf = normal_form(f, G)
    lead = [g.leading_term()[0] for g in G if g]
    for e, _ in nf.terms.items():
        assert not any(all(a >= b for a, b in zip(e, le)) for le in lead)
    # f - nf is in the ideal, per the referee
    assert O.sympy_contains(f - nf, gens, ring)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("seed", range(6))
def test_membership_matches_sympy(p, seed):
    ring = ring_over(p)
    rng = random.Random(31 * p + seed)
    gens = random_ideal(ring, rng, ngens=2)
    if not gens:
        pytest.skip("empty draw")
    I = Ideal(ring, gens)
    probes = [gens[0] * gens[-1], ring.parse("x*y + z"), ring.one] + random_ideal(
        ring, rng, ngens=2
    )
    for f in probes:
        assert ideal_membership(f, I) == O.sympy_contains(f, gens, ring)


def test_ideal_membership_trivial_cases():
    ring = ring_over(3)
    I = Ideal(ring, [ring.parse("x^2 + y")])
    assert ideal_membership(ring.zero, I)
    assert ideal_membership(ring.parse("x^2 + y") * ring.parse("z + 1"), I)
    assert not ideal_membership(ring.one, I)


@pytest.mark.parametrize("p", [2, 5])
def test_ideal_equal_detects_generator_shuffles(p):
    ring = ring_over(p)
    f, g = ring.parse("x^2 + y*z"), ring.parse("z^3 + x")
    I = Ideal(ring, [f, g])
    J = Ideal(ring, [g, f + g, f * g + f])
    K = Ideal(ring, [f])
    assert ideal_equal(I, J)
    assert not ideal_equal(I, K)
    assert O.sympy_ideal_equal(I, J)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("seed", range(4))
def test_intersection_against_principal_lcm(p, seed):
    """(f) ∩ (g) = g·((f) : (g)) = (lcm(f, g)) — referee by sympy."""
    ring = ring_over(p)
    rng = random.Random(7 * p + seed)
    f, g = (h for h in random_ideal(ring, rng, ngens=2, max_exp=2, max_terms=2))
    if f.is_zero() or g.is_zero():
        pytest.skip("zero draw")
    quot = colon_ideal(Ideal(ring, [f]), Ideal(ring, [g]))
    inter = Ideal(ring, [g * q for q in quot.gens])
    syms = O.sympy_symbols(ring)
    ref = sp.lcm(
        sp.Poly(O.to_sympy(f, syms), *syms, modulus=p),
        sp.Poly(O.to_sympy(g, syms), *syms, modulus=p),
    )
    ref_ideal = [ring.parse(str(ref.expr).replace("**", "^").replace(" ", ""))]
    assert O.sympy_ideal_equal(inter, Ideal(ring, ref_ideal))


# (p, generators of I, generators of J): structured inputs, J with one and
# with two generators, (f·g : g) = (f), and a divisor that shares no factor
COLON_CASES = [
    (2, ["x^2 + y*z", "z^2"], ["x*y", "y^2 + z^2"]),
    (3, ["x^2*y", "y*z"], ["x*z", "z^2 + x*y"]),
    (5, ["x + y", "z^2"], ["x*y*z"]),
    (2, ["z^2 + x^2*y + x*y^2"], ["x*y*z"]),
    (5, ["(x^2 + y*z + 3)*(x*z + 4*y)"], ["x*z + 4*y"]),
    (5, ["x^2 + y"], ["x + 1"]),
    (2, ["x^2*y + y^2*z"], ["y"]),
    (2, ["x^6 + y^4*z^2"], ["x^3 + y^2*z"]),
    (3, ["x^3", "y^3", "z^3"], ["x*y", "y*z + x^2"]),
    (2, ["x^2", "y^2", "x*z"], ["x", "y + z"]),
]


@pytest.mark.parametrize("p,gi,gj", COLON_CASES)
def test_colon_matches_sympy_elimination(p, gi, gj):
    """The syzygy colon has the same reduced basis as sympy's lex
    elimination of an auxiliary variable, and every generator h satisfies
    h·J ⊆ I."""
    ring = ring_over(p)
    I = Ideal(ring, [ring.parse(t) for t in gi])
    J = Ideal(ring, [ring.parse(t) for t in gj])
    quot = colon_ideal(I, J)
    assert O.mine_canonical(quot.gens, ring) == O.sympy_colon(I, J)
    for h in quot.gens:
        for g in J.gens:
            assert ideal_membership(h * g, I)


def test_colon_by_the_zero_ideal_is_the_unit_ideal():
    ring = ring_over(3)
    quot = colon_ideal(Ideal(ring, [ring.parse("x^2 + y")]), Ideal(ring, []))
    assert quot.gens == (ring.one,)


def test_colon_across_rings_raises():
    I = Ideal(ring_over(3), [ring_over(3).parse("x^2 + y")])
    with pytest.raises(RingError):
        colon_ideal(I, Ideal(ring_over(5), [ring_over(5).parse("x")]))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_colon_principal_via_gcd(p):
    """(fg : g h̄) behaves like division by the common factor: key special
    case (f·g : g) = (f) for coprime data."""
    ring = ring_over(p)
    f = ring.parse("x^2 + y*z")
    g = ring.parse("z^2 + x")
    quot = colon_ideal(Ideal(ring, [f * g]), Ideal(ring, [g]))
    assert O.sympy_ideal_equal(quot, Ideal(ring, [f]))


def test_colon_contains_check():
    ring = ring_over(2)
    f = ring.parse("x^2*y + y^2*z")
    I = Ideal(ring, [f])
    J = Ideal(ring, [ring.parse("y")])
    quot = colon_ideal(I, J)
    for q in quot.gens:
        assert ideal_membership(q * ring.parse("y"), I)


def test_colon_of_bracket_recovers_fedder_numerator():
    """(f^[p] : f) ⊇ (f^{p−1}) and both sides agree for a reduced f."""
    ring = ring_over(2)
    f = ring.parse("x^3 + y^2*z")
    col = colon_ideal(Ideal(ring, [f.pth_power()]), Ideal(ring, [f]))
    assert ideal_membership(f, col)
    assert O.sympy_ideal_equal(col, Ideal(ring, [f]))


def test_budget_aborts_and_counts():
    ring = ring_over(7)
    gens = [ring.parse("x^3 + y^2*z + 1"), ring.parse("y^3 + x*z^2 + 2"), ring.parse("z^3 + x^2*y + 3")]
    with pytest.raises(BudgetExceededError):
        buchberger(gens, budget=Budget(5))
    b = Budget(10**9)
    buchberger(gens, budget=b)
    assert b.steps > 0


def test_budget_env_override(monkeypatch):
    from qfsplit.groebner import DEFAULT_GB_BUDGET

    monkeypatch.setenv("QFSPLIT_GB_BUDGET", "77")
    assert Budget().limit == 77
    monkeypatch.setenv("QFSPLIT_GB_BUDGET", "")
    assert Budget().limit == DEFAULT_GB_BUDGET
    monkeypatch.delenv("QFSPLIT_GB_BUDGET")
    assert Budget().limit == DEFAULT_GB_BUDGET


@pytest.mark.parametrize("value", ["abc", "0", "-3", "2.5", " "])
def test_budget_env_takes_only_a_positive_step_count(monkeypatch, value):
    """QFSPLIT_GB_BUDGET follows `--budget`'s rule: anything but a positive
    integer is refused by name, never read as an instant abort."""
    monkeypatch.setenv("QFSPLIT_GB_BUDGET", value)
    with pytest.raises(RingError, match="QFSPLIT_GB_BUDGET must be a positive number of steps"):
        Budget()
    assert Budget(5).limit == 5  # an explicit limit does not read it


@pytest.mark.parametrize("limit", [0, -3])
def test_budget_takes_only_a_positive_explicit_limit(limit):
    """An explicit limit follows the same rule as the variable: a budget of
    no steps is refused by name, not read as an abort at the first step."""
    with pytest.raises(RingError, match=rf"^budget must be a positive number of steps, got {limit}$"):
        Budget(limit)


def test_ideal_groebner_is_cached():
    ring = ring_over(3)
    I = Ideal(ring, [ring.parse("x^2 + y"), ring.parse("y^2 + z")])
    g1 = I.groebner()
    assert I.groebner() is g1


# ---------------------------------------------------------------------------
# module layer
# ---------------------------------------------------------------------------


def _vec(ring, comps):
    return FreeModuleVector(ring, {k: v for k, v in comps.items() if not v.is_zero()})


def test_module_normal_form_reduces_to_zero_on_generators():
    ring = ring_over(2)
    v1 = _vec(ring, {0: ring.parse("x + y"), 1: ring.parse("z")})
    v2 = _vec(ring, {1: ring.parse("x*y")})
    G = module_buchberger([v1, v2])
    for g in [v1, v2]:
        assert not module_normal_form(g, G)


def test_module_buchberger_solves_membership():
    ring = ring_over(3)
    e0 = _vec(ring, {0: ring.parse("x")})
    e1 = _vec(ring, {1: ring.parse("y")})
    G = module_buchberger([e0, e1])
    inside = _vec(ring, {0: ring.parse("x*z^2"), 1: ring.parse("2*y^2")})
    outside = _vec(ring, {0: ring.parse("y")})
    assert not module_normal_form(inside, G)
    assert module_normal_form(outside, G)


KERU_IDEALS = [
    (2, ["z^2 + x^2*y + x*y^2"], ("x", "y", "z")),
    (2, ["x^3 + y^3 + z^3"], ("x", "y", "z")),
    (3, ["x^3 + y^2*z"], ("x", "y", "z")),
    (2, ["x*y", "z^2 + x^2"], ("x", "y", "z")),
]


@pytest.mark.parametrize("p,gens_text,vars", KERU_IDEALS)
def test_keru_syzygy_route_matches_direct(p, gens_text, vars):
    """The syzygy-based F_*I ∩ Ker(u) agrees with the literal rank-p^N
    elimination, as ideals of representing elements."""
    from qfsplit import PolynomialRing, PrimeField

    ring = PolynomialRing(PrimeField(p), vars)
    I = Ideal(ring, [ring.parse(t) for t in gens_text])
    fast = frobenius_module_intersect_keru(I)
    slow = O.frobenius_module_intersect_keru_direct(I)
    assert ideal_equal(Ideal(ring, fast), Ideal(ring, slow))


def keru_ideal(p, gens_text, vars):
    from qfsplit import PolynomialRing, PrimeField

    ring = PolynomialRing(PrimeField(p), vars)
    return Ideal(ring, [ring.parse(t) for t in gens_text])


@pytest.mark.parametrize(
    "p,gens_text,vars,steps",
    [case + (steps,) for case, steps in zip(KERU_IDEALS, [35, 35, 13, 37])],
)
def test_keru_step_count_is_pinned(p, gens_text, vars, steps):
    """Steps of the module-engine reference route, ideal basis included, stay
    as they were."""
    budget = Budget(10**6)
    O.frobenius_module_intersect_keru_module(keru_ideal(p, gens_text, vars), budget)
    assert budget.steps == steps


@pytest.mark.parametrize(
    "p,gens_text,vars,steps,count",
    [case + pins for case, pins in zip(KERU_IDEALS, [(12, 8), (12, 8), (6, 26), (16, 21)])],
)
def test_schreyer_keru_steps_and_generators_are_pinned(p, gens_text, vars, steps, count):
    """The Schreyer run takes about a third of the reference route's steps
    (ideal basis included) and returns as many generators."""
    I = keru_ideal(p, gens_text, vars)
    budget = Budget(10**6)
    assert len(frobenius_module_intersect_keru(I, budget)) == count
    assert budget.steps == steps
    assert len(O.frobenius_module_intersect_keru_module(I)) == count


RDP_CHAIN_CASES = [
    (2, "z^2 + x^2*y + x*y^4 + x*y^3*z", 3),  # D8^1
    (2, "z^2 + x^2*y + y^3*z", 3),  # D7^0
    (2, "z^2 + x^3 + x*y^3", 5),  # E7^0
    (3, "z^2 + x^3 + y^5", 4),  # E8^0
    (3, "z^2 + x^3 + x*y^3", 3),  # E7^0
    (5, "z^2 + x^3 + y^5", 3),  # E8^0
    (5, "z^2 + x^3 + y^5 + x*y^4", 2),  # E8^1
]


@pytest.mark.parametrize(
    "p,gens_text,vars,n_max",
    [case + (3,) for case in KERU_IDEALS]
    + [(p, [f], ("x", "y", "z"), n) for p, f, n in RDP_CHAIN_CASES],
)
def test_schreyer_chain_matches_module_route_level_by_level(p, gens_text, vars, n_max):
    """The I_n chain built on the Schreyer run equals, level by level, the
    chain built on the module-engine reference route."""
    I = keru_ideal(p, gens_text, vars)
    fast = O.local_chain_ideals(I, n_max)
    slow = O.local_chain_ideals(I, n_max, keru=O.frobenius_module_intersect_keru_module)
    assert len(fast) == len(slow)
    for a, b in zip(fast, slow):
        assert ideal_equal(a, b)


@pytest.mark.parametrize("tail,raises", [("z", False), ("z^2", True)])
def test_schreyer_cofactor_update_past_exponent_limit_raises(tail, raises):
    """w_1 = x^L + y reduces by w_0 = x to y with cofactor e_1 − x^(L−1)·e_0,
    so reducing y·tail by it shifts that cofactor: past the limit for y·z^2,
    exactly to it for y·z, as the module engine's guard has it."""
    ring = ring_over(2)
    images = [ring.parse("x"), ring.parse(f"x^{EXPONENT_LIMIT} + y"), ring.parse(f"y*{tail}")]
    if raises:
        with pytest.raises(ExponentOverflowError):
            list(_syzygies(ring, images, Budget()))
    else:
        assert list(_syzygies(ring, images, Budget()))


def assert_syzygies(ring, images):
    """Every cofactor vector c that `_syzygies` returns (on packed exponents)
    is nonzero and has Σ c_j·images[j] = 0."""
    syzygies = list(_syzygies(ring, images, Budget()))
    for cof in syzygies:
        assert cof
        total = ring.zero
        for j, t in cof.items():
            total = total + Polynomial(ring, ring.codec.unpack_terms(t)) * images[j]
        assert total.is_zero()
    return syzygies


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("seed", range(4))
def test_schreyer_cofactors_are_syzygies_of_random_images(p, seed):
    ring = ring_over(p)
    rng = random.Random(53 * p + seed)
    images = random_ideal(ring, rng, ngens=4, max_exp=2, max_terms=3)
    images += [images[0] * images[-1], images[0] + images[-1]]
    assert assert_syzygies(ring, images)


@pytest.mark.parametrize("p,gens_text,vars", KERU_IDEALS)
def test_schreyer_cofactors_are_syzygies_of_u_images(p, gens_text, vars):
    """The images of the Ker(u) run: u-images of the translates x^α·g."""
    I = keru_ideal(p, gens_text, vars)
    alphas = itertools.product(range(p), repeat=I.ring.nvars)
    translates = [g.mul_term(alpha) for alpha in alphas for g in I.groebner()]
    images = [w for w in map(u_map, translates) if w]
    assert assert_syzygies(I.ring, images)


def _corrupted_syzygies(ring, images, budget):
    """A "syzygy" e_0 that is none: the first translate whose u-image is
    nonzero, taken alone."""
    return [{0: {0: 1}}]


def test_keru_refuses_an_element_outside_ker_u(monkeypatch):
    """The Ker(u) check is an explicit raise on the packed route, so a
    corrupted syzygy stops the public intersection and every reader of the
    I_n chain alike, once it is read.  E8^0 at p = 2 reads the whole stream
    of I_1, as I_2 ⊆ m^[2].  The chain of D4^0 at p = 2 ends its escaping
    level at the image of the translate z·f, before the stream reaches a
    syzygy, so the corrupted one is never read and the answer still
    verifies."""
    from qfsplit import groebner, height, height_local, qfs_decide, verify_certificate

    monkeypatch.setattr(groebner, "_syzygies", _corrupted_syzygies)
    I = keru_ideal(*KERU_IDEALS[0])
    with pytest.raises(RuntimeError, match="escaped Ker"):
        frobenius_module_intersect_keru(I)
    res = height_local(I)
    assert (res.verdict, res.n) == ("Finite", 2)
    assert verify_certificate(I, res.certificate)
    e8 = keru_ideal(2, ["z^2 + x^3 + y^5"], ("x", "y", "z"))
    for route in (height_local, qfs_decide, height):
        with pytest.raises(RuntimeError, match="escaped Ker"):
            route(e8)


def test_keru_check_holds_under_python_O():
    """`python -O` strips assert statements; the Ker(u) check is not one."""
    code = textwrap.dedent(
        """
        import qfsplit.groebner as groebner
        from qfsplit import Ideal, PolynomialRing, PrimeField, frobenius_module_intersect_keru

        groebner._syzygies = lambda ring, images, budget: [{0: {0: 1}}]
        ring = PolynomialRing(PrimeField(2), ("x", "y", "z"))
        try:
            frobenius_module_intersect_keru(Ideal(ring, [ring.parse("z^2 + x^2*y + x*y^2")]))
        except RuntimeError as exc:
            print(exc)
        """
    )
    env = {**os.environ, "PYTHONPATH": str(Path(qfsplit.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "intersection generator escaped Ker(u)"


def test_module_s_vector_needs_one_position():
    """S-vectors pair leading terms in one position; an explicit raise, not
    an assert, guards it."""
    from qfsplit.groebner import _module_s_vector

    ring = ring_over(2)
    with pytest.raises(RingError, match="positions 0 and 1"):
        _module_s_vector(_vec(ring, {0: ring.parse("x")}), _vec(ring, {1: ring.parse("y")}))


@pytest.mark.parametrize("p", [2, 3])
def test_keru_generators_satisfy_contract(p):
    """Every generator w has w ∈ I and u(F_*w) = 0."""
    ring = ring_over(p)
    f = ring.parse("x^3 + y^2*z") if p == 3 else ring.parse("z^2 + x^2*y + x*y^2")
    I = Ideal(ring, [f])
    for w in frobenius_module_intersect_keru(I):
        assert ideal_membership(w, I)
        assert u_map(w).is_zero()


# ---------------------------------------------------------------------------
# module layer against the definitions (position 0 on top)
# ---------------------------------------------------------------------------


def vector_strategy(ring, rank=2, max_exp=2, max_terms=3):
    comps = st.lists(poly_strategy(ring, max_exp, max_terms), min_size=rank, max_size=rank)
    return comps.map(lambda cs: FreeModuleVector(ring, dict(enumerate(cs))))


def _module_terms(v):
    return [(pos, e) for pos, poly in v.components.items() for e in poly.terms]


def _module_divides(lead, term):
    return lead[0] == term[0] and all(a <= b for a, b in zip(lead[1], term[1]))


@pytest.mark.parametrize("p", [2, 3])
@given(data=st.data())
def test_module_leading_term_is_the_largest_term(p, data):
    """Position over term: the lowest nonzero position comes first, then the
    grevlex-largest exponent within it."""
    ring = ring_over(p)
    v = data.draw(vector_strategy(ring, rank=3).filter(bool))
    pos, e, c = _module_lead(v)
    terms = _module_terms(v)
    assert pos == min(t[0] for t in terms)
    assert grevlex_key(e) == max(grevlex_key(t[1]) for t in terms if t[0] == pos)
    assert c == v.components[pos].terms[e]


@pytest.mark.parametrize("p", [2, 3])
@given(data=st.data())
def test_module_remainder_has_no_divisible_term(p, data):
    ring = ring_over(p)
    G = data.draw(st.lists(vector_strategy(ring), min_size=1, max_size=3))
    v = data.draw(vector_strategy(ring, max_exp=4, max_terms=5))
    leads = [_module_lead(g)[:2] for g in G if g]
    r = module_normal_form(v, G)
    for term in _module_terms(r):
        assert not any(_module_divides(lead, term) for lead in leads)


@pytest.mark.parametrize("p", [2, 3])
@given(data=st.data())
def test_module_basis_combinations_reduce_to_zero(p, data):
    """Σ h_i·g_i lies in the module the basis generates, so its remainder
    by a Groebner basis is zero; the g_i run over generators and basis."""
    ring = ring_over(p)
    gens = data.draw(st.lists(vector_strategy(ring), min_size=1, max_size=3))
    G = module_buchberger(gens)
    members = gens + G
    hs = data.draw(
        st.lists(poly_strategy(ring, 2, 3), min_size=len(members), max_size=len(members))
    )
    w = FreeModuleVector(ring, {})
    for h, g in zip(hs, members):
        w = w + FreeModuleVector(ring, {i: c * h for i, c in g.components.items()})
    assert not module_normal_form(w, G)


@pytest.mark.parametrize(
    "divisor,dividend",
    [
        # the tail component of the divisor carries the overflow
        ({0: "x", 1: f"x^{EXPONENT_LIMIT}"}, (2, 0, 0)),
        # the shift carries it: y^3 leads x^2 under grevlex
        ({0: "y^3 + x^2"}, (EXPONENT_LIMIT - 1, 3, 0)),
    ],
)
def test_module_reduction_past_exponent_limit_raises(divisor, dividend):
    """The dividend is the single term dividend·e_0."""
    ring = ring_over(2)
    g = _vec(ring, {k: ring.parse(t) for k, t in divisor.items()})
    v = _vec(ring, {0: ring.from_terms({dividend: 1})})
    with pytest.raises(ExponentOverflowError):
        module_normal_form(v, [g])
    # at the limit itself the reduction still goes through
    assert not module_normal_form(g, [g])


def test_ideal_reduction_past_exponent_limit_raises():
    """y^3 leads x^2 under grevlex, so dividing x^(L−1)·y^3 by y^3 + x^2
    shifts x^2 past the limit; the module engine's guard holds here too."""
    ring = ring_over(2)
    g = ring.parse("y^3 + x^2")
    with pytest.raises(ExponentOverflowError):
        normal_form(ring.from_terms({(EXPONENT_LIMIT - 1, 3, 0): 1}), [g])
    # the guard bounds the shifted divisor by its largest exponent, 3: at the
    # limit itself the reduction still goes through
    assert normal_form(ring.from_terms({(EXPONENT_LIMIT - 3, 3, 0): 1}), [g]) == ring.from_terms(
        {(EXPONENT_LIMIT - 1, 0, 0): 1}
    )


def _packed(ring, polys):
    return [ring.codec.pack_terms(g.terms) for g in polys]


@pytest.mark.parametrize("p", [2, 3, 5])
@settings(max_examples=30)
@given(data=st.data())
def test_a_run_continued_from_a_reduced_basis_equals_the_run_on_all_generators(p, data):
    """Reduced bases are canonical, so a run that continues from done =
    RB(H) with new generators G ends at RB(H + G), and forms no pair
    between two elements of done.  Half the draws take G inside (H), as
    combinations of H's generators: then no generator survives reduction
    modulo done, and the run returns done as it is, with no pair loop."""
    ring = ring_over(p)
    H = data.draw(st.lists(nonzero_poly_strategy(ring, 3, 4), min_size=1, max_size=3))
    inside = data.draw(st.booleans())
    if inside:
        cofactors = st.lists(poly_strategy(ring, 2, 3), min_size=len(H), max_size=len(H))
        G = [
            sum((m * h for m, h in zip(data.draw(cofactors), H)), ring.zero)
            for _ in range(data.draw(st.integers(0, 3)))
        ]
    else:
        G = data.draw(st.lists(nonzero_poly_strategy(ring, 3, 4), min_size=1, max_size=3))
    done = groebner._reduced_basis(ring, _packed(ring, H))
    loops = []
    real = groebner._pair_loop

    def recording(ring, leads, active, budget, product_criterion, done=0):
        pairs = []
        loops.append((done, pairs))
        for i, j in real(ring, leads, active, budget, product_criterion, done):
            pairs.append((i, j))
            yield i, j

    with mock.patch.object(groebner, "_pair_loop", recording):
        continued = groebner._reduced_basis(ring, _packed(ring, G), done=done)
    assert continued == groebner._reduced_basis(ring, _packed(ring, H + G))
    for start, pairs in loops:
        assert start == len(done)
        assert all(j >= start for _, j in pairs), pairs
    if inside:
        assert continued == done and loops == []


@pytest.mark.parametrize("p", [2, 3, 5])
@given(data=st.data())
def test_the_pair_loop_pairs_no_two_elements_of_a_finished_prefix(p, data):
    """Given a reduced basis as a finished prefix of `done` elements and new
    leading exponents after it, `_pair_loop` yields only pairs (i, j) with
    j ≥ done: a prefix element pairs only with a new one.  Every prefix
    element starts active, and one leaves only when a new leading exponent
    divides its own."""
    ring = ring_over(p)
    codec = ring.codec
    H = data.draw(st.lists(nonzero_poly_strategy(ring, 3, 4), min_size=1, max_size=4))
    prefix = groebner._reduced_basis(ring, _packed(ring, H))
    news = data.draw(st.lists(st.tuples(*[st.integers(0, 4)] * 3), max_size=4))
    leads = [next(iter(g)) for g in prefix]
    for t in map(codec.pack, news):  # as in a run, none divisible by an earlier one
        if not any(codec.divides(s, t) for s in leads):
            leads.append(t)
    active = []
    pairs = list(groebner._pair_loop(ring, leads, active, Budget(), True, len(prefix)))
    assert all(i < j and j >= len(prefix) for i, j in pairs), pairs
    for i in range(len(prefix)):
        assert (i in active) != any(codec.divides(t, leads[i]) for t in leads[len(prefix):])
