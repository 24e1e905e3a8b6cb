"""Run the theta pipeline at increasing radius and print a certification summary.

For each radius up to --max-radius this runs ``gradedsrc theta``: the search
for the smallest admissible set system, the seeded construction of the alpha
matrices over a finite-field extension, the exact rank check of every
admissible family, and the injectivity certificate of the induced map Theta on
the truncation of that radius.  The summary is read from the command's JSON
output.
"""

import argparse
import json
import os
import tempfile

from gradedsrc import cli


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--s", type=int, default=2, help="number of labels")
    ap.add_argument("--ymax", type=int, default=10)
    ap.add_argument("--field", type=int, default=2, help="base field characteristic")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--max-radius", type=int, default=1)
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "theta.json")
        for radius in range(args.max_radius + 1):
            code = cli.main(["theta", "--s", str(args.s), "--ymax", str(args.ymax),
                             "--field", str(args.field), "--seed", str(args.seed),
                             "--radius", str(radius), "--out", path])
            if code:
                raise SystemExit(code)
            with open(path) as fh:
                report = json.load(fh)
            if radius == 0:
                system, alpha = report["set_system"], report["alpha"]
                families = report["alpha_families"]
                print(f"set system: |Y| = {system['size']}, X = "
                      + ", ".join(f"{s}:{xs}" for s, xs in system["x"].items()))
                print(f"alphas over F_{alpha['field']['p']}^{alpha['field']['k']} "
                      f"(attempt {alpha['provenance']['attempt']})")
                print(f"alpha verification: verified={report['alpha_verified']}, "
                      f"{sum(f['ok'] for f in families)}/{len(families)} families full rank")
            theta = report["theta"]
            print(f"radius {radius}: {theta['ncols']} columns, rank {theta['rank']}, "
                  f"{theta['verdict']}, missing row zero: {theta['missing_row_zero']}")


if __name__ == "__main__":
    main()
