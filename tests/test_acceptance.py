"""End-to-end acceptance checks, one test per criterion.

Each test records a PASS/FAIL line; the collected lines are echoed in the
terminal summary so every run ends with one verdict per criterion.
"""

import itertools
import json
import random
import time
from fractions import Fraction

from gradedsrc.bartholdi import (
    ThetaMap,
    construct_alphas,
    search_set_system,
    theta_apply,
    theta_certify,
    verify_alphas,
)
from gradedsrc.coeff import QQ, ZZ, ff_extend
from gradedsrc.gring import (
    GroupRing,
    IntConstPolyRing,
    SG_ONE,
    SignGradedElement,
    sign_graded_is_unit,
    sign_graded_mul,
    sign_graded_witness,
)
from gradedsrc.groups import (
    FiniteGroup,
    FreeAbelian,
    FreeGroup,
    ball,
    box,
    folner_ratio_ok,
    product_set,
    sorted_subset,
)
from gradedsrc.ideals import (
    distinguish_subgroups,
    ideal_membership_IH,
    random_ideal_element,
)
from gradedsrc.serialize import solution_to_json
from gradedsrc.srcsolve import (
    LinearSystem,
    intconst_truncated_kernel,
    solve_src,
    truncated_kernel,
    verify_solution,
)

Z2 = FreeAbelian(2)
F2 = FreeGroup(2)
S3 = FiniteGroup.symmetric(3)


def report(num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    import conftest

    conftest.ACCEPTANCE_RESULTS.append(line)
    assert ok, f"criterion {num}: {detail}"


# --- criterion 1: Prop A pipeline on random systems --------------------------


def _random_z2_system(rng):
    # supports clustered in a random 2x2 patch of ball(2) so that modest boxes
    # already meet the strict ratio bound for every m < n <= 4
    base = (rng.randrange(-1, 1), rng.randrange(-1, 1))
    pool = [(base[0] + dx, base[1] + dy) for dx in (0, 1) for dy in (0, 1)]
    ring = GroupRing(Z2, QQ)
    m = rng.randint(1, 3)
    n = rng.randint(m + 1, 4)
    while True:
        a = tuple(
            tuple(
                ring.from_terms(
                    (pool[rng.randrange(4)], Fraction(rng.randint(-2, 2)))
                    for _ in range(2)
                )
                for _ in range(n)
            )
            for _ in range(m)
        )
        if any(not x.is_zero() for row in a for x in row):
            return LinearSystem(ring, m, n, a)


def _random_s3_system(rng):
    ring = GroupRing(S3, QQ)
    pool = list(S3.elements)
    m = rng.randint(1, 3)
    n = rng.randint(m + 1, 4)
    while True:
        a = tuple(
            tuple(
                ring.from_terms(
                    (pool[rng.randrange(6)], Fraction(rng.randint(-2, 2)))
                    for _ in range(2)
                )
                for _ in range(n)
            )
            for _ in range(m)
        )
        if any(not x.is_zero() for row in a for x in row):
            return LinearSystem(ring, m, n, a)


def _run_criterion_1():
    rng = random.Random(20260823)
    outputs = []
    start = time.perf_counter()
    for _ in range(50):
        sys_obj = _random_z2_system(rng)
        sol = solve_src(sys_obj, budget=20)
        assert sol.verified and verify_solution(sys_obj, sol.xs)
        outputs.append(solution_to_json(sys_obj.ring, sol.xs, sol.verified, {}))
    for _ in range(20):
        sys_obj = _random_s3_system(rng)
        sol = solve_src(sys_obj, budget=1)
        assert sol.verified and verify_solution(sys_obj, sol.xs)
        outputs.append(solution_to_json(sys_obj.ring, sol.xs, sol.verified, {}))
    elapsed = time.perf_counter() - start
    return elapsed, json.dumps(outputs, sort_keys=True)


def test_criterion_1_pipeline():
    elapsed, _ = _run_criterion_1()
    report(
        1,
        elapsed < 60.0,
        f"50 QQ[Z^2] + 20 QQ[S3] systems solved and verified in {elapsed:.1f}s",
    )


# --- criterion 2: Folner exactness -------------------------------------------


def test_criterion_2_folner_minimal_side():
    S = sorted_subset(Z2, [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)])
    sides = {}
    for side in range(1, 7):
        F = box(Z2, side)
        sides[side] = (len(product_set(Z2, S, F)), 2 * len(F),
                       folner_ratio_ok(Z2, S, F, Fraction(2)))
    ok = (
        min(s for s, (_, _, good) in sides.items() if good) == 5
        and sides[5][:2] == (45, 50)
        and sides[4] == (32, 32, False)
    )
    report(2, ok, f"minimal box side 5 (|SF|=45 < 50); side 4 gives 32 vs 32, rejected")


# --- criterion 3: sign-graded fixture ----------------------------------------


def test_criterion_3_sign_graded_fixture():
    w1 = sign_graded_mul(SignGradedElement((0, 0), (3, 0)), SignGradedElement((0, 0), (2, -1)))
    sq = SignGradedElement((0, 0), (1, 1))
    w2 = sign_graded_mul(sq, sq)
    total = (w1.s[0] + w2.s[0], w1.s[1] + w2.s[1])
    witness_ok = w1.x == (0, 0) and w2.x == (0, 0) and total == (1, 0)
    graded_ok = sign_graded_witness(-1).ok
    # y = 5 - sqrt(-5) lies in I (5 = -1 mod 3) and y*y = (5-sqrt(-5))^2/(2-sqrt(-5))
    # = (20-10sqrt(-5))/(2-sqrt(-5)) = 10, so eps = 3 + y has inverse -3 + y and
    # behaves like 3 + sqrt(10). No unit lies in R_{-1}: multiplication by (0, x)
    # has |det| = N(x)^2/9, and N(x) = a^2 + 5b^2 = 3 has no integer solution.
    y = (5, -1)
    eps = SignGradedElement((3, 0), y)
    eps_inv = SignGradedElement((-3, 0), y)
    trivial = {SG_ONE, SignGradedElement((-1, 0), (0, 0))}
    expected = trivial | {
        SignGradedElement((a, 0), (5 * e, -e)) for a in (3, -3) for e in (1, -1)
    }
    units = set()
    for a1 in range(-10, 11):
        for b1 in range(-10, 11):
            for a2 in range(-10, 11):
                for b2 in range(-10, 11):
                    if (a2 - b2) % 3:
                        continue
                    u = SignGradedElement((a1, b1), (a2, b2))
                    if sign_graded_is_unit(u):
                        units.add(u)
    units_ok = units == expected and all(
        any(sign_graded_mul(u, v) == SG_ONE for v in expected) for u in expected
    )
    homogeneous = {u for u in units if u.s == (0, 0) or u.x == (0, 0)}
    homogeneous_ok = homogeneous == trivial
    inverse_ok = sign_graded_mul(eps, eps_inv) == SG_ONE
    eps2 = sign_graded_mul(eps, eps)
    eps3 = sign_graded_mul(eps2, eps)
    order_ok = eps.s[0] < eps2.s[0] < eps3.s[0]
    detail = (
        "witness sum = 1, strong grading at g=-1, units for |coords|<=10 are exactly "
        "(+-1, 0) and +-3 +- y with y = 5-sqrt(-5), y*y = 10; homogeneous units "
        "(+-1, 0) only, none in R_{-1}; eps = 3 + y has exact inverse -3 + y and "
        f"s-parts {eps.s[0]}, {eps2.s[0]}, {eps3.s[0]} of eps, eps^2, eps^3"
    )
    extra = sorted(units - expected, key=lambda u: (u.s, u.x))
    if extra:
        u = extra[0]
        v = SignGradedElement((-u.s[0], -u.s[1]), u.x)
        inv = "" if sign_graded_mul(u, v) != SG_ONE else f"; exact inverse {v.s}+{v.x}"
        detail += (
            f" -- COUNTEREXAMPLE: {len(extra)} unexpected units, e.g. "
            f"{u.s}+{u.x} (s-part a+b*sqrt(-5), ideal part likewise){inv}"
        )
    missing = sorted(expected - units, key=lambda u: (u.s, u.x))
    if missing:
        u = missing[0]
        detail += f" -- MISSED: {len(missing)} expected units not flagged, e.g. {u.s}+{u.x}"
    ok = witness_ok and graded_ok and units_ok and homogeneous_ok and inverse_ok and order_ok
    report(3, ok, detail)


# --- criterion 4: footnote embedding -----------------------------------------


def test_criterion_4_footnote_kernels():
    ranks = {}
    for name, coeff in (("Q", QQ), ("Z", ZZ)):
        ring = GroupRing(F2, coeff)
        a = ring.delta((1,)) - ring.one()
        b = ring.delta((2,)) - ring.one()
        for r in (1, 2, 3):
            rep = truncated_kernel([[a, b]], r)
            ranks[(name, r)] = (rep.ncols, rep.rank, len(rep.basis))
    free_ok = all(
        ncols == rank and dim == 0 for ncols, rank, dim in ranks.values()
    ) and ranks[("Q", 1)][0] == 10 and ranks[("Q", 2)][0] == 34
    qz2 = GroupRing(Z2, QQ)
    ac = qz2.delta((1, 0)) - qz2.one()
    bc = qz2.delta((0, 1)) - qz2.one()
    control = truncated_kernel([[ac, bc]], 1)
    control_ok = len(control.basis) >= 1 and all(
        (ac * x1 + bc * x2).is_zero() for x1, x2 in control.basis
    )
    report(
        4,
        free_ok and control_ok,
        "zero kernel over QF2 and ZF2 at radii 1-3 (ranks 10/34/...); "
        "commutative control has a verified kernel vector",
    )


# --- criterion 5: set-system search ------------------------------------------


def test_criterion_5_set_system():
    system = search_set_system(2, 10)
    ok_nat, _ = system.validate()
    from gradedsrc.bartholdi import SetSystem

    reference = SetSystem(
        10, (0, 1), {0: frozenset(range(1, 7)), 1: frozenset(range(4, 10))}
    )
    ok_ref, _ = reference.validate()
    report(
        5,
        system.size == 10 and ok_nat and ok_ref,
        "search returns a valid |Y|=10 system; reference instance validates",
    )


# --- criterion 6: point finding and alpha construction -----------------------


def _run_criterion_6():
    system = search_set_system(2, 10)
    fam = construct_alphas(system, ff_extend(2, 1), seed=0)
    rep = verify_alphas(fam)
    return system, fam, rep, json.dumps(fam.to_json(), sort_keys=True)


def test_criterion_6_point_and_alphas():
    F3 = ff_extend(3, 1)
    from gradedsrc.bartholdi import find_point

    L, point = find_point({(2,): F3.one, (0,): F3.one}, F3.zero, F3)
    point_ok = (L.p, L.k) == (3, 2) and L.add(
        L.mul(point[0], point[0]), L.one
    ) == L.zero
    start = time.perf_counter()
    _, _, rep, _ = _run_criterion_6()
    elapsed = time.perf_counter() - start
    alphas_ok = rep.ok and all(f["rank"] == 10 for f in rep.families)
    report(
        6,
        point_ok and alphas_ok and elapsed < 300,
        f"find_point reaches F9 with verified root; alphas verified "
        f"(all families rank 10) in {elapsed:.1f}s",
    )


# --- criterion 7: Theta certificate ------------------------------------------


def _run_criterion_7():
    system, fam, _, _ = _run_criterion_6()
    theta = ThetaMap(fam, {0: (1,), 1: (-1,)}, F2)
    certs = [theta_certify(theta, r) for r in (0, 1)]
    payload = json.dumps(
        [
            {
                "radius": c.radius,
                "ncols": c.ncols,
                "rank": c.rank,
                "verdict": c.verdict(),
                "missing_row_zero": c.missing_row_zero,
            }
            for c in certs
        ],
        sort_keys=True,
    )
    return theta, certs, payload


def test_criterion_7_theta_certificate():
    theta, certs, _ = _run_criterion_7()
    y0 = theta.alphas.set_system.missing_point()
    rng = random.Random(31)
    R = theta.ring
    L = theta.alphas.field
    pool = list(ball(F2, 2))
    missing_ok = all(c.missing_row_zero for c in certs)
    for _ in range(10):
        u = [
            R.from_terms(
                [(pool[rng.randrange(len(pool))], L.from_index(rng.randrange(L.order)))]
            )
            for _ in range(10)
        ]
        missing_ok = missing_ok and theta_apply(theta, u)[y0 - 1].is_zero()
    exact_ok = True
    for c in certs:
        if c.injective:
            exact_ok = exact_ok and c.rank == c.ncols and c.witness is None
        else:
            exact_ok = exact_ok and c.witness is not None and all(
                x.is_zero() for x in theta_apply(theta, c.witness)
            )
    report(
        7,
        missing_ok and exact_ok,
        f"missing-index output identically zero; certificates "
        f"{[c.verdict() for c in certs]} internally exact",
    )


# --- criterion 8: integer-constant-term fixture ------------------------------


def test_criterion_8_intconst_fixture():
    P = IntConstPolyRing()
    base = P.base
    a = base.delta((1,)) - base.one()
    b = base.delta((2,)) - base.one()
    rnk, ncols, basis = intconst_truncated_kernel(P, [[a, b]], 2, 2)
    report(
        8,
        basis == [] and rnk == ncols,
        f"only the trivial solution for degree<=2, radius<=2 ({ncols} columns, full rank)",
    )


# --- criterion 9: coset-sum ideals -------------------------------------------


def test_criterion_9_ideals():
    Zgrp = FreeAbelian(1)
    zring = GroupRing(Zgrp, ZZ)
    rng = random.Random(97)
    closure_ok = True
    pool = list(ball(Zgrp, 3))
    subgroups = {
        k: Zgrp.cosets([(k,)]) for k in (2, 3, 6)
    }
    for H in subgroups.values():
        for _ in range(100):
            r1 = random_ideal_element(zring, H, rng)
            r2 = random_ideal_element(zring, H, rng)
            mult = zring.from_terms(
                (pool[rng.randrange(len(pool))], rng.randint(-2, 2)) for _ in range(3)
            )
            closure_ok = closure_ok and ideal_membership_IH(r1 + r2, H)
            closure_ok = closure_ok and ideal_membership_IH(r1 * mult, H)
    sring = GroupRing(S3, ZZ)
    s3_subs = [
        S3.cosets([(1, 0, 2)]),
        S3.cosets([(1, 2, 0)]),
    ]
    s3_pool = list(S3.elements)
    for H in s3_subs:
        for _ in range(100):
            r1 = random_ideal_element(sring, H, rng, radius=1)
            mult = sring.from_terms(
                (s3_pool[rng.randrange(6)], rng.randint(-2, 2)) for _ in range(2)
            )
            closure_ok = closure_ok and ideal_membership_IH(r1 * mult, H)

    # refinement, exhaustive on ball(3) supports with coefficients in [-2, 2]
    refine_ok = True
    support = list(ball(Zgrp, 3))
    pairs = [(6, 2), (6, 3)]
    for hk, kk in pairs:
        H, K = subgroups[hk], subgroups[kk]
        for coeffs in itertools.product(range(-2, 3), repeat=len(support)):
            r = zring.from_terms(zip(support, coeffs))
            if ideal_membership_IH(r, H):
                refine_ok = refine_ok and ideal_membership_IH(r, K)

    distinguish_ok = True
    for hk, kk in [(2, 3), (2, 6), (3, 6)]:
        rep = distinguish_subgroups(subgroups[hk], subgroups[kk], zring)
        distinguish_ok = distinguish_ok and rep.ok and rep.witness is not None
    report(
        9,
        closure_ok and refine_ok and distinguish_ok,
        "right-ideal closure on 100 samples each; refinement exhaustive on "
        "ball(3) supports; witnesses for every unequal pair",
    )


# --- criterion 10: determinism -----------------------------------------------


def test_criterion_10_determinism():
    _, run1 = _run_criterion_1()
    _, run1b = _run_criterion_1()
    _, _, _, alpha1 = _run_criterion_6()
    _, _, _, alpha2 = _run_criterion_6()
    _, _, theta1 = _run_criterion_7()
    _, _, theta2 = _run_criterion_7()
    ok = run1 == run1b and alpha1 == alpha2 and theta1 == theta2
    report(10, ok, "criteria 1, 6, 7 reruns are byte-identical JSON")
