"""The nonamenability-side construction: set systems found by search, the
point-finding induction over finite fields, random-but-verified alpha matrix
families, and the map Theta.  Theta is a |Y| x |Y| matrix over L[F_2], so
it is applied by ``srcsolve.apply_matrix`` and certified injective up to a
radius by the shared ``srcsolve.truncated_kernel``.
"""

from __future__ import annotations

import itertools
import math
import random

from .coeff import ExtField, ff_extend
from .errors import ConstantPolynomial, RetryExhausted, SetSystemNotFound
from .gring import GRElement, GroupRing
from .linalg import kernel_vectors, rank
from .srcsolve import apply_matrix, truncated_kernel


def _log(x: float, base) -> float:
    return math.log(x) if base == "e" else math.log(x, base)


class SetSystem:
    """Finite Y = {1..size}, label set S, and subsets X_s of Y."""

    def __init__(self, size: int, labels: tuple, X: dict):
        self.size = size
        self.labels = labels
        self.X = X  # label -> frozenset of 1-based Y indices

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.size, self.labels, self.X) == (other.size, other.labels, other.X)

    def x_restricted(self, s, T) -> frozenset:
        """X_s minus the union of X_t over t in T other than s."""
        out = set(self.X[s])
        for t in T:
            if t != s:
                out -= self.X[t]
        return frozenset(out)

    def missing_point(self) -> int:
        covered = set()
        for xs in self.X.values():
            covered |= xs
        (y0,) = set(range(1, self.size + 1)) - covered
        return y0

    def validate(self, log_base="e"):
        """Direct enumeration of both defining conditions over all T."""
        failures = []
        covered = set()
        for xs in self.X.values():
            covered |= xs
        if len(covered) != self.size - 1:
            failures.append(f"union covers {len(covered)} points, want {self.size - 1}")
        c = 1 + _log(len(self.labels), log_base)
        for t_size in range(1, len(self.labels) + 1):
            for T in itertools.combinations(self.labels, t_size):
                for s in T:
                    have = len(self.x_restricted(s, T))
                    if have * c * len(T) < self.size:
                        failures.append(
                            f"|X_({s},{set(T)})| = {have} < {self.size}/({c:.4f}*{len(T)})"
                        )
        return (not failures, failures)

    def to_json(self):
        return {
            "size": self.size,
            "labels": list(self.labels),
            "x": {str(s): sorted(self.X[s]) for s in self.labels},
        }


def search_set_system(s_size: int, y_max: int, log_base="e") -> SetSystem:
    """First system (smallest |Y|, then lexicographic membership-pattern counts)
    meeting both conditions, by a depth-first walk over the counts that skips
    only counts with no valid completion; re-verified by direct enumeration."""
    if s_size < 2:
        raise ValueError("need at least two labels")
    labels, patterns, last = tuple(range(s_size)), range(1, 2**s_size), 2**s_size - 2
    c = 1 + _log(s_size, log_base)
    conds = [(1 << s, t) for t in patterns for s in labels if t >> s & 1]  # (s, T) as bitmasks
    feeds = [{i for i, (bit, t) in enumerate(conds) if p & t == bit} for p in patterns]
    later = [set().union(*feeds[j + 1:]) for j in range(len(feeds))]  # fed after pattern j
    for m in range(2, y_max + 1):
        # the least |X_{s,T}| that validate's test accepts (m: out of reach)
        need = [next((v for v in range(m) if not v * c * bin(t).count("1") < m), m)
                for _, t in conds]
        have, counts = [0] * len(conds), [0] * len(patterns)

        def walk(j, left):
            if j > last:
                return True
            # enough for what j feeds last, and what only later patterns feed stays in reach
            lo = max([need[i] - have[i] for i in feeds[j] - later[j]] + [left if j == last else 0])
            hi = min([have[i] + left - need[i] for i in later[j] - feeds[j]] + [left])
            for k in range(lo, hi + 1):
                counts[j] = k
                for i in feeds[j]:
                    have[i] += k
                if walk(j + 1, left - k):
                    return True
                for i in feeds[j]:
                    have[i] -= k
            return False

        if walk(0, m - 1):
            points = [p for p, k in zip(patterns, counts) for _ in range(k)]
            X = {s: frozenset(y for y, p in enumerate(points, 1) if p >> s & 1) for s in labels}
            ok, failures = (sys := SetSystem(m, labels, X)).validate(log_base)
            if not ok:  # the walk's counting and the direct enumeration disagree
                raise AssertionError(f"search built an invalid set system: {failures}")
            return sys
    raise SetSystemNotFound(f"no admissible system with |Y| <= {y_max}")


# ---------------------------------------------------------------------------
# multivariate polynomials over finite fields: dict {exponent tuple: coeff}


def poly_eval(f: dict, point, L: ExtField):
    acc = L.zero
    for exps, c in f.items():
        term = c
        for a, e in zip(point, exps):
            for _ in range(e):
                term = L.mul(term, a)
        acc = L.add(acc, term)
    return acc


def field_embedding(K: ExtField, L: ExtField):
    """Embedding K -> L determined by the least root of K's modulus in L."""
    if K == L:
        return lambda x: x
    if L.k % K.k:
        raise ValueError(f"{K.name} does not embed in {L.name}")
    if K.k == 1:
        return lambda x: L.coerce(x[0])
    root = next(
        r for r in L.elements() if L.is_zero(L.eval_poly([L.coerce(c) for c in K.poly], r))
    )
    def embed(x):
        return L.eval_poly([L.coerce(c) for c in x], root)
    return embed


def find_point(f: dict, b, K: ExtField):
    """Inductive point finding: a finite extension L of K and a point with
    f(point) = b, verified exactly before returning."""
    f = {tuple(e): c for e, c in f.items() if not K.is_zero(c)}
    if all(sum(e) == 0 for e in f):
        raise ConstantPolynomial("no variable occurs")
    nvars = len(next(iter(f)))
    L, point = _find_point_rec(f, nvars, b, K)
    emb = field_embedding(K, L)
    fL = {e: emb(c) for e, c in f.items()}
    assert poly_eval(fL, point, L) == emb(b)
    return L, tuple(point)


def _find_point_rec(f: dict, nvars: int, b, K: ExtField):
    last_occurs = any(e[nvars - 1] > 0 for e in f)
    if not last_occurs:
        g = {e[: nvars - 1]: c for e, c in f.items()}
        L, point = _find_point_rec(g, nvars - 1, b, K)
        return L, point + [L.zero]
    # f as a polynomial in the last variable
    by_degree = {}
    for e, c in f.items():
        d = e[nvars - 1]
        by_degree.setdefault(d, {})[e[: nvars - 1]] = c
    lead_deg = min(d for d in by_degree if d >= 1)
    g = by_degree[lead_deg]
    if all(sum(e) == 0 for e in g):
        L0 = K
        prefix = [K.zero] * (nvars - 1)
    else:
        L0, prefix = _find_point_rec(g, nvars - 1, K.one, K)
    emb0 = field_embedding(K, L0)
    # substitute the prefix: univariate coefficients over L0, ascending degree
    max_deg = max(d for d in by_degree)
    coeffs = []
    for d in range(max_deg + 1):
        acc = L0.zero
        for e, c in by_degree.get(d, {}).items():
            acc = L0.add(acc, poly_eval({e: emb0(c)}, prefix, L0))
        coeffs.append(acc)
    # find a root of f(prefix, x) - b in successive extensions
    for t in range(1, max_deg + 2):
        L = L0 if t == 1 else ff_extend(L0.p, L0.k * t)
        emb = field_embedding(L0, L)
        cs = [emb(c) for c in coeffs]
        cs[0] = L.sub(cs[0], emb(emb0(b)))
        for a in L.elements():
            if L.is_zero(L.eval_poly(cs, a)):
                return L, [emb(x) for x in prefix] + [a]
    raise AssertionError("unreachable: a root exists in a degree <= deg extension")


# ---------------------------------------------------------------------------
# alpha matrices


class AlphaFamily:
    def __init__(self, field: ExtField, set_system: SetSystem, matrices: dict,
                 provenance: dict | None = None):
        self.field = field
        self.set_system = set_system
        self.matrices = matrices  # label -> m x m list-of-rows over the field
        self.provenance = {} if provenance is None else provenance

    def to_json(self):
        return {
            "field": {"p": self.field.p, "k": self.field.k, "poly": list(self.field.poly)},
            "set_system": self.set_system.to_json(),
            "matrices": {
                str(s): [[self.field.to_json(v) for v in row] for row in rows]
                for s, rows in self.matrices.items()
            },
            "provenance": self.provenance,
        }


def admissible_families(sys: SetSystem):
    """Every family {T_s} with sum |X_{s,T_s}| >= |Y|, in deterministic order,
    paired with its stacked rows (s, i), ordered by label then increasing
    index.  X_{s,T} is tabulated once per label and subset T, not per family."""
    subsets = list(itertools.chain.from_iterable(
        itertools.combinations(sys.labels, k) for k in range(len(sys.labels) + 1)))
    table = [[tuple((s, i) for i in sorted(sys.x_restricted(s, T))) for T in subsets]
             for s in sys.labels]
    families = itertools.product(subsets, repeat=len(sys.labels))
    return [(dict(zip(sys.labels, family)), sum(stack, ()))
            for family, stack in zip(families, itertools.product(*table))
            if sum(map(len, stack)) >= sys.size]


MAX_TRIES = 64  # samples construct_alphas draws before giving up


def construct_alphas(sys: SetSystem, K: ExtField, seed: int) -> AlphaFamily:
    """Seeded sampling over a Schwartz-Zippel-sized extension, retrying until
    every admissible family's leading m x m block is nonsingular: the sparse
    engine, on the field's tables below their cap, finds no kernel vector.
    A block is its row tuple, and families share blocks (at s = 4, 147 blocks
    serve 13,808 families), so each distinct block is tested once, in the
    order of the first family that has it."""
    m = sys.size
    families = admissible_families(sys)
    blocks = list(dict.fromkeys(rows[:m] for _, rows in families))
    degree_sum = m * len(families)
    rng = random.Random(seed)
    t = 1
    while K.order**t <= 2 * degree_sum:
        t += 1
    for attempt in range(MAX_TRIES):
        L = K if t == 1 else ff_extend(K.p, K.k * t)
        # drawn by label, then X_s ascending, then column; zero rows outside X_s
        matrices = {s: [[L.from_index(rng.randrange(L.order)) for _ in range(m)]
                        if i in sys.X[s] else [L.zero] * m for i in range(1, m + 1)]
                    for s in sys.labels}
        for rows in blocks:
            block = [matrices[s][i - 1] for s, i in rows]
            columns = [dict(enumerate(col)) for col in zip(*block)]
            if next(kernel_vectors(columns, L), None) is not None:
                break
        else:
            return AlphaFamily(
                L,
                sys,
                matrices,
                provenance={
                    "seed": seed,
                    "attempt": attempt,
                    "extension_degree": L.k,
                    "admissible_families": len(families),
                    "var_order": "labels in order, then X_s ascending, then column",
                    "row_order": "labels in order, then X_{s,T_s} ascending",
                },
            )
        if attempt and attempt % 16 == 0:
            t += 1  # widen the extension if we keep missing
    raise RetryExhausted(f"no nonvanishing point in {MAX_TRIES} samples")


class AlphaReport:
    def __init__(self, row_support_ok: bool, families: list, ok: bool):
        self.row_support_ok = row_support_ok
        self.families = families  # dicts with family, v, rank, ok
        self.ok = ok


def verify_alphas(fam: AlphaFamily) -> AlphaReport:
    """Re-checks row supports and full column rank of every admissible stack
    of ``fam.set_system``."""
    L, sys = fam.field, fam.set_system
    m = sys.size
    support_ok = all(
        all(L.is_zero(v) for v in fam.matrices[s][i - 1])
        for s in sys.labels
        for i in range(1, m + 1)
        if i not in sys.X[s]
    )
    results = []
    for family, rows in admissible_families(sys):
        r = rank([fam.matrices[s][i - 1] for s, i in rows], L, ncols=m)
        results.append({"family": {str(s): sorted(family[s]) for s in sys.labels},
                        "v": len(rows), "rank": r, "ok": r == m})
    ok = support_ok and all(f["ok"] for f in results)
    return AlphaReport(support_ok, results, ok)


# ---------------------------------------------------------------------------
# Theta


class ThetaMap:
    """Theta: L[F_2]^|Y| -> L[F_2]^|Y| as a |Y| x |Y| ``matrix`` over
    ``ring`` = L[group] whose entry (y, y') is sum_s A_s[y][y'] * b_s."""

    def __init__(self, alphas: AlphaFamily, b: dict, group):
        self.alphas = alphas
        self.b = b = dict(b)  # label -> group element, pairwise distinct
        self.ring = ring = GroupRing(group, alphas.field)
        vals = list(b.values())
        if len(set(vals)) != len(vals):
            raise ValueError("the b_s must be pairwise distinct")
        L, A, sys = alphas.field, alphas.matrices, alphas.set_system
        # the b_s are distinct, so each entry's terms are the nonzero A_s[y][y']
        self.matrix = [
            [
                GRElement(ring, {b[s]: A[s][y][yp] for s in sys.labels
                                 if not L.is_zero(A[s][y][yp])})
                for yp in range(sys.size)
            ]
            for y in range(sys.size)
        ]


def letter_b(labels) -> dict:
    """The b_s the CLI uses: the letters a, A, b, B of F_2 in label order.
    A fifth label would need a repeated letter, so it is a ValueError."""
    if len(labels) > 4:
        raise ValueError(f"--s {len(labels)}: theta takes at most 4 labels, "
                         "one per letter a, A, b, B of F_2")
    return dict(zip(labels, [(1,), (-1,), (2,), (-2,)]))


def theta_apply(theta: ThetaMap, u):
    """u is a |Y|-vector of group-ring elements over L; returns Theta(u)."""
    return apply_matrix(theta.matrix, u)


class ThetaReport:
    def __init__(self, radius: int, ncols: int, rank: int, injective: bool,
                 missing_row_zero: bool, witness: list | None):
        self.radius = radius
        self.ncols = ncols
        self.rank = rank
        self.injective = injective
        self.missing_row_zero = missing_row_zero
        self.witness = witness  # kernel vector as |Y| group-ring elements, if any

    def verdict(self) -> str:
        return f"VerifiedInjectiveUpTo({self.radius})" if self.injective else "KernelWitness"


def theta_certify(theta: ThetaMap, radius: int) -> ThetaReport:
    """Exact kernel of Theta restricted to inputs supported in ball(radius),
    the truncated kernel of its matrix.

    A nonempty kernel is returned as a witness and re-checked through
    theta_apply before reporting."""
    rep = truncated_kernel(theta.matrix, radius)
    y0 = theta.alphas.set_system.missing_point()
    witness = None
    if rep.basis:
        witness = list(rep.basis[0])
        image = theta_apply(theta, witness)
        assert all(x.is_zero() for x in image), "kernel witness failed re-application"
    return ThetaReport(
        radius=radius,
        ncols=rep.ncols,
        rank=rep.rank,
        injective=not rep.basis,
        missing_row_zero=all(x.is_zero() for x in theta.matrix[y0 - 1]),
        witness=witness,
    )


# ---------------------------------------------------------------------------
# footnote embedding


def _footnote_row(ring: GroupRing) -> list:
    """[a-1, b-1] over a group ring whose group has free generators a, b as
    its first two standard generators."""
    a, b = ring.group.generators()[:2]
    return [ring.delta(a) - ring.one(), ring.delta(b) - ring.one()]


def footnote_embedding(x1: GRElement, x2: GRElement) -> GRElement:
    """(a-1) x1 + (b-1) x2."""
    (y,) = apply_matrix([_footnote_row(x1.ring)], [x1, x2])
    return y


def footnote_kernel(ring: GroupRing, radius: int):
    """Truncated-kernel certifier for the footnote embedding."""
    return truncated_kernel([_footnote_row(ring)], radius)
