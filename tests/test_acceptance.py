"""Acceptance gate: one test per release criterion, each printing a single
PASS/FAIL line (visible with ``pytest -s``) and asserting every sub-check.

All expected values are frozen from independent oracles (ghost-component
Witt arithmetic, sympy Groebner bases, brute-force point counts) or from
closed forms; none were produced by the code under test.
"""

import math
import random
import sys
import time
from itertools import product
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from oracles import (
    W2Element,
    evaluate_coefficients,
    frobenius_compose,
    frobenius_decompose,
    is_supersingular,
    random_smooth_cubic,
    teichmuller,
    w2_add,
    w2_add_ghost,
    w2_mul,
    w2_mul_ghost,
    w2_sub,
    w2_zero,
    weierstrass_cubic,
)

from qfsplit import (
    Grading,
    Ideal,
    PolynomialRing,
    PrimeField,
    delta1,
    enclosure_closure,
    height,
    qfs_decide,
    verify_certificate,
    verify_infinity_certificate,
    verify_witness_chain,
)
from qfsplit.cli import rdp_compute_row, rdp_rows
from qfsplit.criteria import (
    FINITE,
    INFINITE,
    NON_QFS,
    graded_cy_coefficient,
    height_graded_cy,
    height_local,
    product_witness,
)
from qfsplit.frobenius import theta, u_map
from qfsplit.groebner import buchberger, ideal_equal, normal_form
from qfsplit.strata import (
    FamilyContext,
    is_smooth_at_rational_points,
    strata_polynomials,
)


def _check(failures, cond, msg):
    if not cond:
        failures.append(msg)


def _finish(num, name, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {num} ({name}): {status}")
    assert not failures, f"criterion {num} ({name}): " + "; ".join(failures)


def ring3(p):
    return PolynomialRing(PrimeField(p), ("x", "y", "z"))


# ---------------------------------------------------------------------------


def test_criterion_1_rdp_table():
    """Every double-point row (D-families 2<=n<=8, all coindices, plus the
    E-rows at p in {2,3,5}) matches its closed-form height exactly."""
    failures = []
    t0 = time.monotonic()
    rows = [rdp_compute_row(r) for r in rdp_rows((2, 3, 5), 8)]
    elapsed = time.monotonic() - t0
    _check(failures, len(rows) == 90, f"expected 90 rows, got {len(rows)}")
    bad = [r for r in rows if not r["match"]]
    _check(failures, not bad, f"mismatches: {bad}")
    d16 = [r for r in rows if r["type"] == "D16^0"]
    _check(
        failures,
        d16 and d16[0]["expected"] == d16[0]["computed"] == 4,
        f"D16^0 spot check failed: {d16}",
    )
    _check(failures, elapsed < 300, f"table took {elapsed:.1f}s (limit 300s)")
    _finish(1, "rdp-table", failures)


def test_criterion_2_fermat_rule():
    """Fermat N-ic in N variables: height 1 iff p = 1 mod N, otherwise
    Infinite with a re-verifiable certificate."""
    failures = []
    t0 = time.monotonic()
    for p, N in ((5, 4), (13, 4), (7, 6), (3, 4), (2, 4), (2, 6)):
        ring = PolynomialRing(PrimeField(p), tuple(f"x{i}" for i in range(1, N + 1)))
        f = ring.zero
        for v in ring.variables:
            f = f + ring.variable(v) ** N
        res = height(f, n_max=3)
        if p % N == 1:
            _check(
                failures,
                (res.verdict, res.n) == (FINITE, 1),
                f"(p,N)=({p},{N}): got {res.verdict}({res.n}), want Finite(1)",
            )
        else:
            _check(
                failures,
                res.verdict == INFINITE,
                f"(p,N)=({p},{N}): got {res.verdict}, want Infinite",
            )
            _check(
                failures,
                res.certificate is not None and res.certificate.kind == NON_QFS,
                f"(p,N)=({p},{N}): quick certificate missing",
            )
            _check(
                failures,
                verify_certificate(Ideal(ring, [f]), res.certificate),
                f"(p,N)=({p},{N}): certificate failed re-verification",
            )
    elapsed = time.monotonic() - t0
    _check(failures, elapsed < 120, f"took {elapsed:.1f}s (limit 120s)")
    _finish(2, "fermat-rule", failures)


def test_criterion_3_cusp():
    """x^3 + y^2 z is not quasi-F-split at p in {2,3,5,7} and each Infinite
    certificate passes the trap-ideal verifier."""
    failures = []
    t0 = time.monotonic()
    for p in (2, 3, 5, 7):
        ring = ring3(p)
        I = Ideal(ring, [ring.parse("x^3 + y^2*z")])
        is_qfs, cert = qfs_decide(I)
        _check(failures, is_qfs is False, f"p={p}: cusp reported quasi-F-split")
        stab = Ideal(ring, list(cert.data["generators"]))
        reasons = []
        _check(
            failures,
            verify_infinity_certificate(I, stab, reasons=reasons),
            f"p={p}: stabilized ideal failed verification: {reasons}",
        )
    elapsed = time.monotonic() - t0
    _check(failures, elapsed < 60, f"took {elapsed:.1f}s (limit 60s)")
    _finish(3, "cusp", failures)


def test_criterion_4_inversion_counterexample_pair():
    """The two graded sextic examples: heights (Infinite, 2) and (3, 2) for
    the hypersurface and its hyperplane section.

    The natural two-generator trap (y s^2 + x^2 z, z u^2 + y^3) is not closed under
    theta — the verifier pinpoints an escaping image — so the Infinite
    verdict is re-verified against its theta-closure instead, which the
    verifier accepts.
    """
    failures = []
    ring = PolynomialRing(PrimeField(2), ("x", "y", "z", "w", "u", "s"))
    g1 = ring.parse("x*y*s^2 + z*w*u^2 + y^3*w + x^3*z")
    g2 = ring.parse("x*y*s^2 + z*w*u^2 + z^3*u + y^3*w + x^3*z")
    s = ring.variable("s")

    res1 = height(g1, n_max=4)
    _check(failures, res1.verdict == INFINITE, f"g1: {res1.verdict}, want Infinite")
    _check(failures, res1.route == "i-infinity", f"g1 route: {res1.route}")

    I1 = Ideal(ring, [g1])
    raw = [ring.parse("y*s^2 + x^2*z"), ring.parse("z*u^2 + y^3")]
    reasons = []
    raw_ok = verify_infinity_certificate(I1, Ideal(ring, raw), reasons=reasons)
    _check(failures, raw_ok is False, "two-generator trap unexpectedly verified")
    _check(
        failures,
        reasons and "theta image" in reasons[0],
        f"missing escape diagnosis: {reasons}",
    )
    closure = enclosure_closure(I1, seed=raw)
    _check(
        failures,
        verify_infinity_certificate(I1, closure),
        "theta-closure of the two-generator trap failed verification",
    )

    sec1 = height([g1, s], n_max=4)
    _check(
        failures,
        (sec1.verdict, sec1.n) == (FINITE, 2),
        f"section of g1: {sec1.verdict}({sec1.n}), want Finite(2)",
    )

    res2 = height(g2, n_max=5)
    _check(
        failures,
        (res2.verdict, res2.n) == (FINITE, 3),
        f"g2: {res2.verdict}({res2.n}), want Finite(3)",
    )
    _check(
        failures,
        verify_certificate(Ideal(ring, [g2]), res2.certificate),
        "g2 chain certificate failed verification",
    )
    sec2 = height([g2, s], n_max=4)
    _check(
        failures,
        (sec2.verdict, sec2.n) == (FINITE, 2),
        f"section of g2: {sec2.verdict}({sec2.n}), want Finite(2)",
    )
    _finish(4, "inversion-counterexample-pair", failures)


def test_criterion_5_del_pezzo_fixed_point():
    """w^2 + xyz(x+y+z) at p=2: not quasi-F-split, and the stabilized ideal
    matches the expected eight-generator presentation."""
    failures = []
    ring = PolynomialRing(PrimeField(2), ("x", "y", "z", "w"))
    f = ring.parse("w^2 + x^2*y*z + x*y^2*z + x*y*z^2")
    I = Ideal(ring, [f])
    is_qfs, cert = qfs_decide(I)
    _check(failures, is_qfs is False, "reported quasi-F-split")
    stab = Ideal(ring, list(cert.data["generators"]))
    listed = Ideal(
        ring,
        [
            f,
            ring.parse("x^2*y^2*z + x*y^2*z^2"),
            ring.parse("x^2*y^2*z + x^2*y*z^2"),
            ring.parse("x^2*y^2*z + x*w^2"),
            ring.parse("x^2*y^2*z + y*w^2"),
            ring.parse("x^2*y^2*z + z*w^2"),
            ring.parse("x^2*y*z*w + x*y^2*z*w"),
            ring.parse("x^2*y*z*w + x*y*z^2*w"),
        ],
    )
    _check(failures, ideal_equal(stab, listed), "stabilized ideal != expected eight-generator list")
    _check(
        failures,
        verify_infinity_certificate(I, stab),
        "stabilized ideal failed verification",
    )
    _finish(5, "del-pezzo-fixed-point", failures)


def test_criterion_6_wild_conic_bundle():
    """x0 y0^2 + x1 y1^2 + x2 y2^2 at p=2 (bidegree (1,2)): height 2 via the
    local chain route.

    The one-step candidate witness x0 y1 y2 f^2 satisfies u(F_* g) = 0 as
    stated but its theta image is 0, not a unit escape — the verifier
    rejects it, and the accepted strict chain is (y0 y1 y2 f, y0 y1 y2).
    """
    failures = []
    ring = PolynomialRing(PrimeField(2), ("x0", "x1", "x2", "y0", "y1", "y2"))
    f = ring.parse("x0*y0^2 + x1*y1^2 + x2*y2^2")
    grading = Grading([[1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1]])

    res = height(f, grading=grading, n_max=4)
    _check(
        failures,
        (res.verdict, res.n) == (FINITE, 2),
        f"got {res.verdict}({res.n}), want Finite(2)",
    )
    _check(failures, res.route == "local-chain", f"route: {res.route}")

    I = Ideal(ring, [f])
    chain = [ring.parse("y0*y1*y2") * f, ring.parse("y0*y1*y2")]
    _check(failures, verify_witness_chain(I, chain), "two-step chain rejected")

    displayed = ring.parse("x0*y1*y2") * f * f
    _check(failures, u_map(displayed).is_zero(), "u(F_* x0 y1 y2 f^2) != 0")
    _check(
        failures,
        theta(displayed, delta1(f)).is_zero(),
        "theta of the one-step candidate is nonzero after all",
    )
    reasons = []
    _check(
        failures,
        verify_witness_chain(I, [displayed], reasons=reasons) is False
        and reasons
        and "m^[p]" in reasons[0],
        f"candidate witness not rejected as trapped: {reasons}",
    )
    _finish(6, "wild-conic-bundle", failures)


def test_criterion_7_fiber_products():
    """Disjoint cubic blocks over F_2: supersingular x ordinary -> 2,
    supersingular x supersingular -> Infinite, ordinary x ordinary -> 1."""
    failures = []
    t0 = time.monotonic()
    ring = PolynomialRing(PrimeField(2), ("x0", "x1", "x2", "y0", "y1", "y2"))
    ss_x = ring.parse("x0^3 + x1^3 + x2^3")
    ss_y = ring.parse("y0^3 + y1^3 + y2^3")
    ord_x = ring.parse("x0^3 + x0*x1*x2 + x1^2*x2 + x2^3")
    ord_y = ring.parse("y0^3 + y0*y1*y2 + y1^2*y2 + y2^3")

    mixed = height([ss_x, ord_y], n_max=4)
    _check(
        failures,
        (mixed.verdict, mixed.n) == (FINITE, 2),
        f"ss x ord: {mixed.verdict}({mixed.n}), want Finite(2)",
    )
    both_ss = height([ss_x, ss_y], n_max=4)
    _check(
        failures,
        both_ss.verdict == INFINITE,
        f"ss x ss: {both_ss.verdict}, want Infinite",
    )
    _check(
        failures,
        both_ss.certificate is not None
        and both_ss.certificate.kind == NON_QFS
        and "delta1" in both_ss.certificate.data["tag"],
        "ss x ss: expected the carry-product quick certificate",
    )
    both_ord = height([ord_x, ord_y], n_max=4)
    _check(
        failures,
        (both_ord.verdict, both_ord.n) == (FINITE, 1),
        f"ord x ord: {both_ord.verdict}({both_ord.n}), want Finite(1)",
    )

    # the witness construction for the mixed product yields a verified chain
    rx = PolynomialRing(PrimeField(2), ("x0", "x1", "x2"))
    ry = PolynomialRing(PrimeField(2), ("y0", "y1", "y2"))
    fx = rx.parse("x0^3 + x1^3 + x2^3")
    fy = ry.parse("y0^3 + y0*y1*y2 + y1^2*y2 + y2^3")
    gchain = height_local(Ideal(rx, [fx]), 4).certificate.data["chain"]
    ws = product_witness(gchain, fy, 2, fx=fx, fy=fy)
    joint = Ideal(ws[0].ring, [ws[0].ring.parse(str(fx)), ws[0].ring.parse(str(fy))])
    _check(failures, verify_witness_chain(joint, ws), "product chain rejected")

    elapsed = time.monotonic() - t0
    _check(failures, elapsed < 180, f"took {elapsed:.1f}s (limit 180s)")
    _finish(7, "fiber-products", failures)


def test_criterion_8_elliptic_oracle():
    """50 random smooth Weierstrass cubics over F_2 and F_3: height 2 exactly
    for the supersingular ones (by brute-force point counting), 1 otherwise."""
    failures = []
    rng = random.Random(2024)
    disagreements = []
    for p in (2, 3):
        ring = ring3(p)
        for _ in range(25):
            coeffs, cubic = random_smooth_cubic(rng, ring)
            res = height(cubic, n_max=3)
            if res.verdict != FINITE or res.n not in (1, 2):
                disagreements.append((p, coeffs, res.verdict, res.n))
                continue
            if (res.n == 2) != is_supersingular(coeffs, p, cubic):
                disagreements.append((p, coeffs, res.verdict, res.n))
    _check(failures, not disagreements, f"disagreements: {disagreements}")
    _finish(8, "elliptic-oracle", failures)


# supersingular by the classical criteria: y^2 = x^3 + 1 for p ≡ 2 (mod 3),
# y^2 = x^3 + x for p ≡ 3 (mod 4); as (a1, a2, a3, a4, a6)
KNOWN_SUPERSINGULAR = {5: [(0, 0, 0, 0, 1)], 7: [(0, 0, 0, 1, 0)], 11: [(0, 0, 0, 0, 1), (0, 0, 0, 1, 0)]}


def test_criterion_8_elliptic_oracle_at_larger_primes():
    """Ten random smooth Weierstrass cubics per prime p = 5, 7, 11, plus the
    known supersingular curves: height 2 exactly for the supersingular ones
    (by brute-force point counting), 1 otherwise, and every certificate
    re-verifies."""
    failures = []
    rng = random.Random(2026)
    for p, known in KNOWN_SUPERSINGULAR.items():
        ring = ring3(p)
        curves = [random_smooth_cubic(rng, ring) for _ in range(10)]
        curves += [(c, weierstrass_cubic(ring, c)) for c in known]
        for coeffs, cubic in curves:
            supersingular = is_supersingular(coeffs, p, cubic)
            _check(failures, supersingular or coeffs not in known, f"{coeffs} at p={p} is ordinary")
            res = height(cubic, n_max=3)
            _check(
                failures,
                (res.verdict, res.n) == (FINITE, 2 if supersingular else 1),
                f"{coeffs} at p={p}: {res.verdict} {res.n}, supersingular={supersingular}",
            )
            _check(
                failures,
                res.certificate is not None
                and verify_certificate(Ideal(ring, [cubic]), res.certificate),
                f"{coeffs} at p={p}: certificate does not re-verify",
            )
    _finish(8, "elliptic-oracle-larger-primes", failures)


# ---------------------------------------------------------------------------
# criterion 9: property suites
# ---------------------------------------------------------------------------


def _random_poly(rng, ring, max_exp=3, max_terms=4):
    p = ring.field.p
    n = ring.nvars
    terms = {
        tuple(rng.randrange(max_exp + 1) for _ in range(n)): rng.randrange(p)
        for _ in range(rng.randrange(1, max_terms + 1))
    }
    return ring.from_terms({e: c for e, c in terms.items() if c})


def _w2_axiom_suite(failures):
    rng = random.Random(90)
    cases = 0
    while cases < 200:
        p = (2, 3, 5)[cases % 3]
        ring = PolynomialRing(PrimeField(p), ("x", "y"))
        x = W2Element(_random_poly(rng, ring), _random_poly(rng, ring))
        y = W2Element(_random_poly(rng, ring), _random_poly(rng, ring))
        z = W2Element(_random_poly(rng, ring), _random_poly(rng, ring))
        s = w2_add(x, y)
        if (s.w0, s.w1) != w2_add_ghost(x.w0, x.w1, y.w0, y.w1):
            failures.append(f"W2 add vs ghost at p={p}: {x}, {y}")
            return
        m = w2_mul(x, y)
        if (m.w0, m.w1) != w2_mul_ghost(x.w0, x.w1, y.w0, y.w1):
            failures.append(f"W2 mul vs ghost at p={p}: {x}, {y}")
            return
        ok = (
            w2_add(x, y) == w2_add(y, x)
            and w2_add(w2_add(x, y), z) == w2_add(x, w2_add(y, z))
            and w2_mul(x, y) == w2_mul(y, x)
            and w2_mul(w2_mul(x, y), z) == w2_mul(x, w2_mul(y, z))
            and w2_mul(x, w2_add(y, z)) == w2_add(w2_mul(x, y), w2_mul(x, z))
        )
        if not ok:
            failures.append(f"W2 ring axiom failed at p={p}: {x}, {y}, {z}")
            return
        cases += 1


def _delta1_identity_suite(failures):
    rng = random.Random(91)
    cases = 0
    while cases < 300:
        p = (2, 3, 5, 7)[cases % 4]
        ring = ring3(p)
        f = _random_poly(rng, ring, max_exp=3, max_terms=5)
        if f.is_zero():
            continue
        total = w2_zero(ring)
        for e, c in f.sorted_terms():
            total = w2_add(total, teichmuller(ring.from_terms({e: c})))
        diff = w2_sub(teichmuller(f), total)
        if not diff.w0.is_zero() or diff.w1 != delta1(f):
            failures.append(f"delta1 defining identity failed at p={p} for {f}")
            return
        cases += 1


def _frobenius_roundtrip_suite(failures):
    rng = random.Random(92)
    cases = 0
    while cases < 500:
        p = (2, 3, 5)[cases % 3]
        nvars = 2 + cases % 2
        ring = PolynomialRing(PrimeField(p), ("x", "y", "z")[:nvars])
        h = _random_poly(rng, ring, max_exp=2 * p, max_terms=5)
        if frobenius_compose(frobenius_decompose(h)) != h:
            failures.append(f"decompose/compose round trip failed at p={p} for {h}")
            return
        cases += 1


def _capped_product_suite(failures):
    rng = random.Random(93)
    for case in range(100):
        p = (2, 3, 5)[case % 3]
        ring = ring3(p)
        a = _random_poly(rng, ring, max_exp=4, max_terms=4)
        b = _random_poly(rng, ring, max_exp=4, max_terms=4)
        caps = tuple(rng.randrange(2, 8) for _ in range(3))
        full = a * b
        expected = ring.from_terms(
            {
                e: c
                for e, c in full.terms.items()
                if all(x <= cap for x, cap in zip(e, caps))
            }
        )
        if a.capped_mul(b, caps) != expected:
            failures.append(f"capped_mul mismatch at p={p}: {a} * {b} caps {caps}")
            return


def _s_polynomial(f, g):
    """S(f, g) = (m / lt(f))·f − (m / lt(g))·g, m the lcm of the leading monomials."""
    inv = f.ring.field.inv
    (ef, cf), (eg, cg) = f.leading_term(), g.leading_term()
    m = tuple(map(max, ef, eg))
    return f.mul_term([a - b for a, b in zip(m, ef)], inv(cf)) - g.mul_term(
        [a - b for a, b in zip(m, eg)], inv(cg)
    )


def _buchberger_postcondition_suite(failures):
    rng = random.Random(94)
    for case in range(12):
        p = (2, 3, 5)[case % 3]
        ring = ring3(p)
        gens = [_random_poly(rng, ring, max_exp=3, max_terms=3) for _ in range(3)]
        gens = [g for g in gens if g]
        if not gens:
            continue
        G = buchberger(gens)
        for i in range(len(G)):
            for j in range(i + 1, len(G)):
                if normal_form(_s_polynomial(G[i], G[j]), G):
                    failures.append(
                        f"S-polynomial of GB pair did not reduce to zero (p={p})"
                    )
                    return


def _cy_corpus():
    out = []
    rng = random.Random(31)
    monos = [(a, b, 3 - a - b) for a in range(4) for b in range(4 - a)]
    for p, count, max_terms in ((2, 12, None), (3, 12, None), (5, 6, 3)):
        ring = ring3(p)
        made = 0
        while made < count:
            if max_terms is None:
                terms = {m: rng.randrange(p) for m in monos}
            else:
                terms = {
                    m: 1 + rng.randrange(p - 1) for m in rng.sample(monos, max_terms)
                }
            f = ring.from_terms({m: c for m, c in terms.items() if c})
            if f.is_zero() or not is_smooth_at_rational_points(f):
                continue
            out.append(f)
            made += 1
    return out


def _route_agreement_suite(failures, corpus):
    for f in corpus:
        a = height_graded_cy([f], Grading.standard(3), n_max=3)
        b = height_local(Ideal(f.ring, [f]), 3)
        if (a.verdict, a.n) != (b.verdict, b.n):
            failures.append(
                f"routes disagree on {f} (p={f.ring.field.p}): "
                f"graded {a.verdict}({a.n}) vs local {b.verdict}({b.n})"
            )
            return


def _coefficient_shortcut_suite(failures, corpus):
    # the capped escape-test polynomial of a CY hypersurface can only keep
    # the diagonal monomial, so the single-coefficient test is exhaustive
    for f in corpus:
        p = f.ring.field.p
        fp = f ** (p - 1)
        d = None
        for n in (1, 2):
            caps = tuple(p**n - 1 for _ in range(3))
            if n == 1:
                capped = fp.capped_mul(f.ring.one, caps)
            else:
                d = delta1(fp)
                capped = fp.capped_mul(d.capped_mul(f.ring.one, caps), caps)
            coeff = graded_cy_coefficient([f], n)
            target = tuple(p**n - 1 for _ in range(3))
            if capped.is_zero():
                ok = coeff == 0
            else:
                ok = set(capped.terms) == {target} and capped.terms[target] == coeff
            if not ok:
                failures.append(f"coefficient shortcut disagrees on {f} at level {n}")
                return


def _inversion_sampling_suite(failures):
    ring = PolynomialRing(PrimeField(2), ("x", "y", "z", "w"))
    cubics = [e for e in product(range(4), repeat=4) if sum(e) == 3]
    linears = [e for e in product(range(2), repeat=4) if sum(e) == 1]
    rng = random.Random(0)

    def sample(monos):
        while True:
            f = ring.from_terms({e: rng.randrange(2) for e in monos})
            if not f.is_zero():
                return f

    def as_number(res):
        return math.inf if res.verdict == INFINITE else res.n

    for _ in range(20):
        f = sample(cubics)
        L = sample(linears)
        hx = as_number(height([f], n_max=6))
        hy = as_number(height([f, L], n_max=6))
        if not hy >= hx:
            failures.append(f"section height dropped: {f} with {L}: {hy} < {hx}")
            return


def test_criterion_9_property_suites():
    """Bulk randomized invariants: Witt arithmetic vs ghost oracle (200),
    the carry's defining identity (300), Frobenius-coordinate round trips
    (500), capped products (100), S-pair reduction on computed bases,
    graded-vs-local agreement and the coefficient shortcut on a 30-item
    smooth cubic corpus, and section-height monotonicity (20)."""
    failures = []
    _w2_axiom_suite(failures)
    _delta1_identity_suite(failures)
    _frobenius_roundtrip_suite(failures)
    _capped_product_suite(failures)
    _buchberger_postcondition_suite(failures)
    corpus = _cy_corpus()
    _check(failures, len(corpus) == 30, f"corpus size {len(corpus)}")
    _route_agreement_suite(failures, corpus)
    _coefficient_shortcut_suite(failures, corpus)
    _inversion_sampling_suite(failures)
    _finish(9, "property-suites", failures)


def test_criterion_10_strata_consistency():
    """Degree-3 family at p=2: the first stratum polynomial is the middle
    coefficient a111, profiles match direct height computation on 100 random
    members, and deeper tables extend shallower ones."""
    failures = []
    ctx = FamilyContext.create(2, 3)
    strata = strata_polynomials(ctx, 4)
    _check(
        failures,
        strata.polynomials[0] == ctx.ring.variable("a111"),
        "b_1 != a111",
    )
    _check(
        failures,
        strata_polynomials(ctx, 2).polynomials == strata.polynomials[:1]
        and strata_polynomials(ctx, 3).polynomials == strata.polynomials[:2],
        "stratum tables do not nest",
    )
    rng = random.Random(5)
    depth = len(strata.polynomials)
    checked = 0
    while checked < 100:
        values = [rng.randrange(2) for _ in ctx.monomials]
        g = ctx.specialize_generic(values)
        if g.is_zero():
            continue
        checked += 1
        prof = strata.profile(values)
        res = height_graded_cy([g], Grading.standard(3), n_max=depth + 1)
        if res.verdict == FINITE and res.n <= depth:
            ok = prof == res.n
        else:
            ok = prof == depth + 1
        if not ok:
            failures.append(
                f"profile {prof} vs height {res.verdict}({res.n}) for {g}"
            )
            break
        for i, b in enumerate(strata.polynomials[:2], start=1):
            if evaluate_coefficients(ctx.nvars, b, values) != graded_cy_coefficient([g], i):
                failures.append(f"b_{i} specialization mismatch for {g}")
                break
    _finish(10, "strata-consistency", failures)
