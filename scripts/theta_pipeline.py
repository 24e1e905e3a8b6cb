"""Run the full nonamenable-side pipeline and print a certification summary.

Searches for the smallest admissible set system, constructs the alpha
matrices by seeded sampling over a finite-field extension, verifies every
admissible family by exact rank computation, then certifies injectivity of
the induced map Theta on truncations of increasing radius.
"""

import argparse

from gradedsrc.bartholdi import (
    build_theta,
    construct_alphas,
    letter_b,
    search_set_system,
    theta_certify,
    verify_alphas,
)
from gradedsrc.coeff import ff_extend
from gradedsrc.groups import FreeGroup


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--s", type=int, default=2, help="number of labels")
    ap.add_argument("--ymax", type=int, default=10)
    ap.add_argument("--field", type=int, default=2, help="base field characteristic")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--max-radius", type=int, default=1)
    args = ap.parse_args()

    system = search_set_system(args.s, args.ymax)
    print(f"set system: |Y| = {system.size}, X = "
          + ", ".join(f"{s}:{sorted(system.X[s])}" for s in system.labels))
    print(f"missing point: {system.missing_point()}")

    fam = construct_alphas(system, ff_extend(args.field, 1), seed=args.seed)
    print(f"alphas over F_{fam.field.p}^{fam.field.k} "
          f"(attempt {fam.provenance['attempt']})")
    rep = verify_alphas(fam, system)
    print(f"alpha verification: support_ok={rep.row_support_ok}, "
          f"{sum(f['ok'] for f in rep.families)}/{len(rep.families)} families full rank")

    theta = build_theta(fam, letter_b(system.labels), FreeGroup(2))
    for radius in range(args.max_radius + 1):
        cert = theta_certify(theta, radius)
        print(f"radius {radius}: {cert.ncols} columns, rank {cert.rank}, "
              f"{cert.verdict()}, missing row zero: {cert.missing_row_zero}")


if __name__ == "__main__":
    main()
