#!/usr/bin/env python3
"""Search the degree-N family for hypersurfaces of each prescribed height.

For every target h in 1..h-max, samples the family (optionally restricted to
the sub-family spanned by x_1^N and the monomials prime to x_1, where the
reachable heights are forced upward), confirms each hit with the exact
graded computation, and re-verifies its certificate; a hit that the exact
computation or its certificate does not confirm exits 1:

    python3 scripts/search_heights.py --p 2 --nvars 3 --h-max 3
    python3 scripts/search_heights.py --p 2 --nvars 3 --h-max 2 --restrict
"""

import argparse
import sys
import time

from qfsplit import Grading, Ideal, verify_certificate
from qfsplit.criteria import FINITE, height_graded_cy
from qfsplit.strata import FamilyContext, search_height


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--p", type=int, default=2)
    ap.add_argument("--nvars", type=int, default=3, help="N (= degree)")
    ap.add_argument("--h-max", type=int, default=3)
    ap.add_argument("--samples", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--restrict", action="store_true", help="x1-subfamily only")
    ap.add_argument("--no-smoothness", action="store_true")
    args = ap.parse_args()
    if args.h_max < 1:
        print(f"error: --h-max must be a positive height, got {args.h_max}", file=sys.stderr)
        return 1
    if args.samples < 1:
        print(f"error: --samples must be a positive count, got {args.samples}", file=sys.stderr)
        return 1

    ctx = FamilyContext.create(args.p, args.nvars)
    found_all = True
    for target in range(1, args.h_max + 1):
        t0 = time.monotonic()
        witness = search_height(
            ctx,
            target,
            samples=args.samples,
            smoothness_check=not args.no_smoothness,
            restrict=args.restrict,
            seed=args.seed,
        )
        took = time.monotonic() - t0
        if witness is None:
            print(f"h={target}: no hit in {args.samples} samples  [{took:.1f}s]")
            found_all = False
            continue
        res = height_graded_cy(
            [witness], Grading.standard(args.nvars), n_max=target
        )
        if res.verdict != FINITE or res.n != target:
            print(f"error: h={target}: {witness} has height {res.verdict} {res.n}", file=sys.stderr)
            return 1
        verified = verify_certificate(Ideal(witness.ring, [witness]), res.certificate)
        print(f"h={target}: {witness}   (certificate re-verified={verified})  [{took:.1f}s]")
        if not verified:
            print(f"error: h={target}: the certificate of {witness} fails", file=sys.stderr)
            return 1
    return 0 if found_all else 1


if __name__ == "__main__":
    sys.exit(main())
