"""Output checks that do not rely on the program under test.

``solve`` outputs are substituted back into their system with exact
arithmetic written here: rationals, integer vectors, permutations.  Theta
witnesses are applied again over F_{p^k} and the free group; the other
certificate fields are checked for consistency.  Separately, every op whose
inputs were seen when the digests were recorded must reproduce the
recorded output bytes.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

DIGESTS = Path(__file__).with_name("digests.json")


def load_digests() -> dict:
    if not DIGESTS.exists():
        return {}
    return json.loads(DIGESTS.read_text())


# --- solve -------------------------------------------------------------------


def _group_mul(group):
    if group["family"] == "abelian":
        return lambda g, h: tuple(a + b for a, b in zip(g, h))
    if group["family"] == "symmetric":
        # 1-based one-line notation; the right factor acts first
        return lambda s, t: tuple(s[i - 1] for i in t)
    raise ValueError(f"no checker for group family {group['family']!r}")


def _element(obj):
    return {tuple(g): Fraction(c) for g, c in obj}


def check_solve(system: dict, output: str) -> str | None:
    """None if the output is a nonzero exact solution of the system."""
    out = json.loads(output)
    if out.get("verified") is not True:
        return "solution not marked verified"
    xs = [_element(x) for x in out["solution"]]
    if len(xs) != system["n"]:
        return f"{len(xs)} unknowns, want {system['n']}"
    if not any(xs):
        return "zero solution"
    mul = _group_mul(system["group"])
    for i, row in enumerate(system["a"]):
        acc = {}
        for a, x in zip(row, xs):
            for g, c in _element(a).items():
                for h, d in x.items():
                    k = mul(g, h)
                    acc[k] = acc.get(k, 0) + c * d
        if any(acc.values()):
            return f"equation {i} is not satisfied"
    return None


# --- theta and embed-cert ----------------------------------------------------


def _ball_size_f2(r: int) -> int:
    return 1 if r == 0 else 2 * 3**r - 1


class _Field:
    """F_p[x]/(poly) on coefficient lists, least significant first."""

    def __init__(self, p, k, poly):
        self.p, self.k, self.poly = p, k, poly

    def mul(self, x, y):
        prod = [0] * (2 * self.k - 1)
        for i, a in enumerate(x):
            if a:
                for j, b in enumerate(y):
                    prod[i + j] = (prod[i + j] + a * b) % self.p
        for d in range(len(prod) - 1, self.k - 1, -1):
            c = prod[d]
            if c:
                for j in range(self.k + 1):
                    prod[d - self.k + j] = (prod[d - self.k + j] - c * self.poly[j]) % self.p
        return tuple(prod[: self.k])

    def add(self, x, y):
        return tuple((a + b) % self.p for a, b in zip(x, y))


def _free_mul(u: str, v: str) -> str:
    out = []
    for tok in u.split() + v.split():
        if out and out[-1] == tok.swapcase():
            out.pop()
        else:
            out.append(tok)
    return " ".join(out)


def _theta_image(report: dict) -> list:
    """Theta applied to the reported witness, as a list of {word: coeff}."""
    f = report["alpha"]["field"]
    field = _Field(f["p"], f["k"], f["poly"])
    size = report["set_system"]["size"]
    witness = report["theta"]["witness"]
    out = [{} for _ in range(size)]
    for s, rows in report["alpha"]["matrices"].items():
        b = report["theta"]["b"][s]
        for yp, u in enumerate(witness):
            for word, c in u:
                moved = _free_mul(b, word)
                for y in range(size):
                    a = tuple(rows[y][yp])
                    if any(a):
                        acc = out[y].get(moved, (0,) * field.k)
                        out[y][moved] = field.add(acc, field.mul(a, tuple(c)))
    return out


def check_theta(radius: int, output: str) -> str | None:
    report = json.loads(output)
    th = report["theta"]
    if report["alpha_verified"] is not True or not all(f["ok"] for f in report["alpha_families"]):
        return "alpha family not verified"
    if th["radius"] != radius:
        return "radius mismatch"
    if th["ncols"] != report["set_system"]["size"] * _ball_size_f2(radius):
        return f"ncols {th['ncols']} does not match |Y| * |ball({radius})|"
    if not th["missing_row_zero"]:
        return "row of the missing point is not zero"
    injective = th["rank"] == th["ncols"]
    if th["verdict"] != (f"VerifiedInjectiveUpTo({radius})" if injective else "KernelWitness"):
        return f"verdict {th['verdict']!r} contradicts rank {th['rank']} of {th['ncols']}"
    if injective != (th["witness"] is None):
        return "witness present iff the map is not injective"
    if th["witness"] is not None:
        if not any(any(any(c) for _, c in u) for u in th["witness"]):
            return "zero witness"
        if any(any(any(c) for c in y.values()) for y in _theta_image(report)):
            return "Theta(witness) is not zero"
    return None


def check_embed(coeff: str, radius: int, output: str) -> str | None:
    report = json.loads(output)
    if (report["coeff"], report["radius"]) != (coeff, radius):
        return "arguments not echoed"
    if report["columns"] != 2 * _ball_size_f2(radius):
        return f"columns {report['columns']} != 2 * |ball({radius})|"
    if report["kernel_dimension"] != report["columns"] - report["rank"]:
        return "kernel dimension is not columns - rank"
    if report["injective_up_to_radius"] != (report["kernel_dimension"] == 0):
        return "injectivity flag contradicts the kernel dimension"
    return None


def _arg(argv, flag, default):
    return argv[argv.index(flag) + 1] if flag in argv else default


def check_output(op, output: str) -> str | None:
    """Semantic check of one op's output; None when it holds."""
    try:
        cmd = op.argv[0]
        if cmd == "solve":
            return check_solve(op.system, output)
        if cmd == "theta":
            return check_theta(int(_arg(op.argv, "--radius", "1")), output)
        if cmd == "embed-cert":
            return check_embed(_arg(op.argv, "--coeff", "Q"), int(_arg(op.argv, "--radius", "2")),
                               output)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
    return f"no checker for {cmd!r}"
