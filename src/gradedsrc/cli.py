"""Command-line entry point: JSON in, JSON out, reproducible seeds.

Each ``cmd_*`` function returns its report; ``main`` alone stamps the
report's provenance with the command and version, emits it, and maps
exceptions to exit codes: 0 success, 1 malformed input or a usage error
(such as a missing required option or an unknown command), 2 Folner search
exhausted, 3 set-system search exhausted.

A plain line, ``COMMAND --flag value ...`` with each flag spelled out and
given once and no value starting with ``-``, is read straight from the
command table (``read_plain``), so argparse is not even imported.  Every
other line (``--help``, which exits 0, abbreviated flags, ``--flag=value``,
negative values, repeated flags and every usage error) goes through the
argparse parser, with its messages and exit codes unchanged.  ``ideals`` is
imported only by the ``ideal`` command.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import types

from . import __version__
# bartholdi is imported here, not in cmd_theta: perfbench's tracer patches
# only modules already loaded, and a lazy import left its metrics at zero
from .bartholdi import (
    ThetaMap,
    construct_alphas,
    footnote_kernel,
    letter_b,
    search_set_system,
    theta_certify,
    verify_alphas,
)
from .coeff import QQ, ZZ, _is_int, ff_extend
from .errors import FolnerNotFound, GradedSrcError, SetSystemNotFound
from .gring import (
    GroupRing,
    IntConstPolyRing,
    group_ring_witness,
    intconst_witness,
    sign_graded_witness,
)
from .groups import FreeGroup, folner_search, sorted_subset
from .serialize import (
    coeff_from_json,
    group_from_json,
    solution_to_json,
    system_from_json,
)
from .srcsolve import solve_src


def emit(obj: dict, out_path: str | None) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if out_path is None:
        sys.stdout.write(text)
        return
    d = os.path.dirname(os.path.abspath(out_path))
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, out_path)
    except BaseException:  # e.g. --out names a directory: leave no temp file behind
        os.unlink(tmp)
        raise


def load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def cmd_solve(args) -> dict:
    sys_obj = system_from_json(load_json(args.infile))
    sol = solve_src(sys_obj, budget=args.budget)
    provenance = {"budget": args.budget, "row_order": "SF canonical, then equation index",
                  "col_order": "F canonical, then unknown index"}
    return solution_to_json(sys_obj.ring, sol.xs, sol.verified, provenance)


def cmd_theta(args) -> dict:
    b = letter_b(range(args.s))  # before the search, so more than four labels runs nothing
    system = search_set_system(args.s, args.ymax)
    K = ff_extend(args.field, 1)
    fam = construct_alphas(system, K, seed=args.seed)
    verify = verify_alphas(fam)
    G = FreeGroup(2)
    theta = ThetaMap(fam, b, G)
    cert = theta_certify(theta, args.radius)
    return {
        "set_system": system.to_json(),
        "alpha": fam.to_json(),
        "alpha_verified": verify.ok,
        "alpha_families": verify.families,
        "theta": {
            "b": {str(s): G.elem_to_json(g) for s, g in b.items()},
            "radius": cert.radius,
            "ncols": cert.ncols,
            "rank": cert.rank,
            "verdict": cert.verdict(),
            "missing_row_zero": cert.missing_row_zero,
            "witness": None
            if cert.witness is None
            else [theta.ring.elem_to_json(x) for x in cert.witness],
        },
        "provenance": {"seed": args.seed, "ymax": args.ymax, "field": args.field,
                       "radius": args.radius},
    }


def cmd_folner(args) -> dict:
    obj = load_json(args.infile)
    G = group_from_json(obj["group"])
    S = sorted_subset(G, (G.elem_from_json(g) for g in obj["s"]))
    ratio = QQ.from_json(obj["ratio"])
    budget = obj.get("budget", args.budget)
    if not _is_int(budget):
        raise ValueError(f"folner 'budget' must be an int, not {budget!r}")
    F, SF = folner_search(G, S, ratio, budget)
    return {
        "group": G.to_json(),
        "f": [G.elem_to_json(g) for g in F],
        "sizes": {"f": len(F), "sf": len(SF)},
        "ratio_bound": str(ratio),
        "provenance": {"budget": budget},
    }


def cmd_graded_verify(args) -> dict:
    if args.fixture == "group-ring":
        ring = GroupRing(FreeGroup(2), QQ)
        g = ring.group.elem_from_json("a" if args.g is None else args.g)
        rep = group_ring_witness(ring, g)
        witness = [[ring.elem_to_json(u), ring.elem_to_json(v)] for u, v in rep.witness]
        grade = ring.group.elem_to_json(g)
    elif args.fixture == "sign-graded":
        g = int(args.g) if args.g is not None else -1
        rep = sign_graded_witness(g)
        witness = (
            None
            if rep.witness is None
            else [[[list(u.s), list(u.x)], [list(v.s), list(v.x)]] for u, v in rep.witness]
        )
        grade = g
    else:  # "intconst-poly", the last of argparse's choices
        g = int(args.g) if args.g is not None else -1
        rep = intconst_witness(IntConstPolyRing(), g)
        witness = None if rep.witness is None else "[1 * 1]"
        grade = g
    return {
        "fixture": args.fixture,
        "grade": grade,
        "strongly_graded_witness_found": rep.ok,
        "witness": witness,
        "reason": rep.reason,
        "provenance": {},
    }


def cmd_embed_cert(args) -> dict:
    coeff = ZZ if args.coeff == "Z" else QQ
    ring = GroupRing(FreeGroup(2), coeff)
    report = footnote_kernel(ring, args.radius)
    return {
        "coeff": args.coeff,
        "radius": args.radius,
        "columns": report.ncols,
        "rank": report.rank,
        "kernel_dimension": len(report.basis),
        "injective_up_to_radius": not report.basis,
        "provenance": {},
    }


def cmd_ideal(args) -> dict:
    from .ideals import distinguish_subgroups, ideal_membership_IH

    obj = load_json(args.infile)
    G = group_from_json(obj["group"])
    ring = GroupRing(G, coeff_from_json(obj.get("coeff", {"ring": "Q"})))
    H = G.cosets([G.elem_from_json(g) for g in obj["h"]])
    out = {"group": G.to_json(), "provenance": {"seed": args.seed}}
    if "r" in obj:
        r = ring.elem_from_json(obj["r"])
        out["membership"] = ideal_membership_IH(r, H)
    if "k" in obj:
        K = G.cosets([G.elem_from_json(g) for g in obj["k"]])
        rep = distinguish_subgroups(H, K, ring, seed=args.seed)
        out["distinguish"] = {
            "relation": rep.relation,
            "samples_checked": rep.samples_checked,
            "ok": rep.ok,
            "witness": None if rep.witness is None else ring.elem_to_json(rep.witness),
            "witness_in": rep.witness_in,
        }
    return out


# per command: its help line, its function, and its options' flags and keywords
_COMMANDS = {
    "solve": ("solve an underdetermined group-ring system", cmd_solve, [
        (("--in",), {"dest": "infile", "required": True}),
        (("--out",), {"default": None}),
        (("--budget",), {"type": int, "default": 64}),
    ]),
    "theta": ("set-system search, alpha construction, Theta certificate", cmd_theta, [
        (("--s",), {"type": int, "default": 2}),
        (("--ymax",), {"type": int, "default": 10}),
        (("--field",), {"type": int, "default": 2}),
        (("--seed",), {"type": int, "default": 0}),
        (("--radius",), {"type": int, "default": 1}),
        (("--out",), {"default": None}),
    ]),
    "folner": ("search for a set meeting a ratio bound", cmd_folner, [
        (("--in",), {"dest": "infile", "required": True}),
        (("--out",), {"default": None}),
        (("--budget",), {"type": int, "default": 64}),
    ]),
    "graded-verify": ("strong-grading witness for a fixture", cmd_graded_verify, [
        (("--fixture",), {"choices": ["group-ring", "sign-graded", "intconst-poly"],
                          "default": "sign-graded"}),
        (("--g",), {"default": None}),
        (("--out",), {"default": None}),
    ]),
    "embed-cert": ("truncated kernel of the rank-two embedding", cmd_embed_cert, [
        (("--coeff",), {"choices": ["Q", "Z"], "default": "Q"}),
        (("--radius",), {"type": int, "default": 2}),
        (("--out",), {"default": None}),
    ]),
    "ideal": ("coset-sum ideal membership / subgroup distinction", cmd_ideal, [
        (("--in",), {"dest": "infile", "required": True}),
        (("--seed",), {"type": int, "default": 0}),
        (("--out",), {"default": None}),
    ]),
}


def build_parser():
    """The full argparse parser, for the lines ``read_plain`` leaves."""
    import argparse

    p = argparse.ArgumentParser(prog="gradedsrc")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (help_line, fn, options) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_line)
        for flags, keywords in options:
            sp.add_argument(*flags, **keywords)
        sp.set_defaults(fn=fn)
    return p


def read_plain(argv) -> types.SimpleNamespace | None:
    """The namespace ``build_parser`` gives a plain ``COMMAND --flag value ...``
    line, read from ``_COMMANDS`` alone: each flag one of the command's own,
    spelled out and given once, each value a separate token that does not start
    with ``-`` and passes the option's type and choices, no required flag
    missing.  None for any other line."""
    if len(argv) % 2 == 0 or argv[0] not in _COMMANDS:  # an empty line too
        return None
    _, fn, options = _COMMANDS[argv[0]]
    given = dict(zip(argv[1::2], argv[2::2]))
    if len(given) < len(argv) // 2:  # a repeated flag
        return None
    values = {"command": argv[0], "fn": fn}
    for (flag,), keywords in options:
        dest = keywords.get("dest") or flag.lstrip("-").replace("-", "_")
        if flag not in given:
            if keywords.get("required"):
                return None
            values[dest] = keywords.get("default")
            continue
        value = given.pop(flag)
        if value.startswith("-"):
            return None
        try:
            value = keywords.get("type", str)(value)
        except ValueError:
            return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        values[dest] = value
    return None if given else types.SimpleNamespace(**values)  # an unknown flag is left


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # argparse, and its gettext and regexes, only for the lines read_plain leaves
    args = read_plain(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            if exc.code == 2:  # argparse's usage error; exit code 2 means Folner search exhausted
                return 1
            raise
    try:
        report = args.fn(args)
        report["provenance"].update(command=args.command, version=__version__)
        emit(report, args.out)
        return 0
    except FolnerNotFound as exc:
        print(f"folner search failed: {exc}", file=sys.stderr)
        return 2
    except SetSystemNotFound as exc:
        print(f"set-system search failed: {exc}", file=sys.stderr)
        return 3
    except (OSError, json.JSONDecodeError, KeyError, ValueError, TypeError) as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return 1
    except GradedSrcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
