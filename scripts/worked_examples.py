#!/usr/bin/env python3
"""Walk through the catalogue of worked examples: each height is computed,
its certificate re-verified, and a one-paragraph summary printed.

    python3 scripts/worked_examples.py            # everything
    python3 scripts/worked_examples.py --only cusp,fermat
"""

import argparse
import sys
import time

from qfsplit import (
    Grading,
    Ideal,
    PolynomialRing,
    PrimeField,
    enclosure_closure,
    height,
    non_qfs_quick,
    qfs_decide,
    verify_certificate,
    verify_infinity_certificate,
)
from qfsplit.criteria import FINITE, INFINITE


def ring(p, names):
    return PolynomialRing(PrimeField(p), tuple(names.split(",")))


def show(res):
    if res.verdict == FINITE:
        return f"Finite({res.n}) via {res.route}"
    return f"{res.verdict} via {res.route}"


def run_fermat():
    print("== Fermat N-ics in N variables ==")
    for p, N in ((5, 4), (13, 4), (7, 6), (3, 4), (2, 4), (2, 6)):
        R = ring(p, ",".join(f"x{i}" for i in range(1, N + 1)))
        f = R.zero
        for v in R.variables:
            f = f + R.variable(v) ** N
        res = height(f, n_max=3)
        rule = "p = 1 mod N" if p % N == 1 else "p != 1 mod N"
        print(f"  p={p:>2} N={N}: {show(res)}   ({rule})")


def run_cusp():
    print("== cuspidal cubic x^3 + y^2 z ==")
    for p in (2, 3, 5, 7):
        R = ring(p, "x,y,z")
        I = Ideal(R, [R.parse("x^3 + y^2*z")])
        is_qfs, cert = qfs_decide(I)
        ok = verify_infinity_certificate(I, Ideal(R, list(cert.data["generators"])))
        quick = non_qfs_quick(list(I.gens))
        print(
            f"  p={p}: quasi-F-split={is_qfs}, fixed point after "
            f"{cert.data['iterations']} iteration(s), re-verified={ok}; "
            f"quick test: {quick.data['tag'] if quick else 'inconclusive'}"
        )


def run_del_pezzo():
    print("== w^2 + xyz(x+y+z) at p=2 ==")
    R = ring(2, "x,y,z,w")
    I = Ideal(R, [R.parse("w^2 + x^2*y*z + x*y^2*z + x*y*z^2")])
    is_qfs, cert = qfs_decide(I)
    gens = cert.data["generators"]
    print(f"  quasi-F-split={is_qfs}; stabilized ideal has {len(gens)} generators:")
    for g in gens:
        print(f"    {g}")


def run_conic_bundle():
    print("== wild conic bundle x0 y0^2 + x1 y1^2 + x2 y2^2 at p=2 ==")
    R = ring(2, "x0,x1,x2,y0,y1,y2")
    f = R.parse("x0*y0^2 + x1*y1^2 + x2*y2^2")
    grading = Grading([[1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1]])
    res = height(f, grading=grading, n_max=4)
    print(f"  height: {show(res)}")
    chain = res.certificate.data.get("chain", [])
    print(f"  strict chain: {[str(c) for c in chain]}")


def run_counterexamples():
    print("== graded sextics where the section is better behaved ==")
    R = ring(2, "x,y,z,w,u,s")
    s = R.variable("s")
    for label, text in (
        ("g1", "x*y*s^2 + z*w*u^2 + y^3*w + x^3*z"),
        ("g2", "x*y*s^2 + z*w*u^2 + z^3*u + y^3*w + x^3*z"),
    ):
        g = R.parse(text)
        res = height(g, n_max=5)
        sec = height([g, s], n_max=4)
        print(f"  {label} = {text}")
        print(f"    hypersurface: {show(res)}; section by s: {show(sec)}")
        if res.verdict == INFINITE:
            closure = enclosure_closure(Ideal(R, [g]))
            print(f"    trap ideal ({len(closure.gens)} generators) re-verified="
                  f"{verify_infinity_certificate(Ideal(R, [g]), closure)}")


def run_products():
    print("== fiber products of plane cubics over F_2 ==")
    R = ring(2, "x0,x1,x2,y0,y1,y2")
    ss_x = R.parse("x0^3 + x1^3 + x2^3")
    ss_y = R.parse("y0^3 + y1^3 + y2^3")
    ord_x = R.parse("x0^3 + x0*x1*x2 + x1^2*x2 + x2^3")
    ord_y = R.parse("y0^3 + y0*y1*y2 + y1^2*y2 + y2^3")
    for label, pair in (
        ("supersingular x ordinary", [ss_x, ord_y]),
        ("supersingular x supersingular", [ss_x, ss_y]),
        ("ordinary x ordinary", [ord_x, ord_y]),
    ):
        res = height(pair, n_max=4)
        ok = (
            verify_certificate(Ideal(R, pair), res.certificate)
            if res.certificate is not None
            else "-"
        )
        print(f"  {label}: {show(res)}, certificate re-verified={ok}")


SECTIONS = {
    "fermat": run_fermat,
    "cusp": run_cusp,
    "delpezzo": run_del_pezzo,
    "conic": run_conic_bundle,
    "counterexamples": run_counterexamples,
    "products": run_products,
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--only",
        help="comma-separated subset of: " + ",".join(SECTIONS),
    )
    args = ap.parse_args()
    wanted = args.only.split(",") if args.only else list(SECTIONS)
    for name in wanted:
        if name not in SECTIONS:
            print(f"unknown section {name!r}", file=sys.stderr)
            return 1
    for name in wanted:
        t0 = time.monotonic()
        SECTIONS[name]()
        print(f"  [{time.monotonic() - t0:.2f}s]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
