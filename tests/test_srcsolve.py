import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedsrc import linalg, srcsolve
from gradedsrc.coeff import QQ, ZZ, PrimeField, ff_extend
from gradedsrc.cli import main
from gradedsrc.errors import FolnerNotFound
from gradedsrc.gring import GRElement, GroupRing, IntConstPolyRing
from gradedsrc.groups import (
    FiniteGroup,
    FreeAbelian,
    FreeGroup,
    ball,
    box,
    folner_search,
    product_set,
    sorted_subset,
)
from gradedsrc.linalg import kernel_basis, kernel_vectors, rank
from gradedsrc.serialize import system_from_json
from gradedsrc.srcsolve import (
    LiftedSystem,
    LinearSystem,
    SolutionVector,
    TruncatedKernelReport,
    apply_matrix,
    assemble_solution,
    intconst_truncated_kernel,
    lift_system,
    solve_src,
    truncated_kernel,
    verify_solution,
)

from dense_reference import dense
from dense_reference import lift_system as comprehension_lift

Z = FreeAbelian(1)


def one_pm_t_system(qz):
    t = qz.delta((1,))
    return LinearSystem(qz, 1, 2, ((qz.one() + t, qz.one() - t),))


def lift_on(sys, F):
    """``sys`` lifted to F with f-major columns and rows in SF, as ``solve_src``
    lifts it."""
    col_index = [(j, f) for f in F for j in range(sys.n)]
    return lift_system(sys.a, col_index, product_set(sys.ring.group, sys.union_support(), F))


def test_lift_matrix_frozen(qz):
    sys = one_pm_t_system(qz)
    F = sorted_subset(Z, [(0,), (1,), (2,)])
    lifted = lift_on(sys, F)
    assert [[int(a) for a in row] for row in lifted.matrix] == [
        [1, 1, 0, 0, 0, 0],
        [1, -1, 1, 1, 0, 0],
        [0, 0, 1, -1, 1, 1],
        [0, 0, 0, 0, 1, -1],
    ]
    assert [g for g, _ in lifted.row_index] == [(0,), (1,), (2,), (3,)]
    assert lifted.col_index == [(j, f) for f in F for j in range(2)]


def test_lift_with_singleton_folner_set(qz):
    sys = one_pm_t_system(qz)
    lifted = lift_on(sys, sorted_subset(Z, [(0,)]))
    # constant-term equations indexed by S = {1, t}
    assert [[int(a) for a in row] for row in lifted.matrix] == [[1, 1], [1, -1]]


def test_lift_selector_matrix(qz2):
    one, zero = qz2.one(), qz2.zero()
    sys = LinearSystem(qz2, 1, 2, ((one, zero),))
    F = box(FreeAbelian(2), 2)
    lifted = lift_on(sys, F)
    for ridx, row in enumerate(lifted.matrix):
        assert sum(1 for a in row if a) == 1
        g = lifted.row_index[ridx][0]
        assert row[lifted.col_index.index((0, g))] == 1


def test_lift_kernel_dimension_and_membership(qz):
    sys = one_pm_t_system(qz)
    F = sorted_subset(Z, [(0,), (1,), (2,)])
    lifted = lift_on(sys, F)
    basis = kernel_basis(lifted.matrix, QQ, ncols=6)
    assert len(basis) == 2
    target = [Fraction(c) for c in (1, -1, -1, -1, 0, 0)]
    stacked = [list(v) for v in basis] + [target]
    assert rank(stacked, QQ) == 2  # the target lies in the kernel span
    assert all(sum(a * x for a, x in zip(row, target)) == 0 for row in lifted.matrix)


LIFT_GROUPS = {
    "Z2": FreeAbelian(2),
    "S3": FiniteGroup.symmetric(3),
    "S4": FiniteGroup.symmetric(4),
    "F2": FreeGroup(2),
}


@st.composite
def lift_cases(draw):
    """An m x n grid over Q of Z^2, S_3, S_4 or F_2 elements from ball(1),
    some entries zero; a subset F of ball(2); its columns F-major or j-major;
    and SF, or none, so that rows follow the products as they are met."""
    G = LIFT_GROUPS[draw(st.sampled_from(sorted(LIFT_GROUPS)))]
    R = GroupRing(G, QQ)
    support = list(ball(G, 1))
    term = st.tuples(st.sampled_from(support), st.integers(-2, 3).map(Fraction))
    entry = st.one_of(st.just(R.zero()), st.lists(term, max_size=3).map(R.from_terms))
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    a = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    F = sorted_subset(G, draw(st.lists(st.sampled_from(ball(G, 2)), min_size=1, max_size=8)))
    if draw(st.booleans()):
        col_index = [(j, f) for f in F for j in range(n)]
    else:
        col_index = [(j, f) for j in range(n) for f in F]
    S = sorted_subset(G, (h for row in a for x in row for h in x.terms))
    SF = product_set(G, S, F) if draw(st.booleans()) else ()
    return a, col_index, SF


@given(lift_cases())
@settings(max_examples=150, deadline=None)
def test_lift_equals_the_comprehension_lift(case):
    a, col_index, SF = case
    lifted = lift_system(a, col_index, SF)
    columns, row_index = comprehension_lift(a, col_index, SF)
    # key order too: the kernel engine breaks ties between pivot rows by it
    assert [list(col.items()) for col in lifted.columns] == [list(col.items()) for col in columns]
    assert lifted.row_index == row_index
    assert lifted.col_index == col_index


def test_assemble_examples(qz):
    sys = one_pm_t_system(qz)
    F = sorted_subset(Z, [(0,), (1,), (2,)])
    kv = {c: Fraction(x) for c, x in enumerate((1, -1, -1, -1, 0, 0)) if x}
    xs = assemble_solution(qz, 2, [(j, f) for f in F for j in range(2)], kv)
    x1, x2 = xs
    assert x1 == qz.one() - qz.delta((1,))
    assert x2 == qz.zero() - (qz.one() + qz.delta((1,)))
    assert verify_solution(sys, xs)


def test_solve_one_pm_t(qz):
    sol = solve_src(one_pm_t_system(qz))
    assert sol.verified
    assert verify_solution(one_pm_t_system(qz), sol.xs)


def test_solve_cyclic_identical_coefficients():
    C2 = FiniteGroup.cyclic(2)
    R = GroupRing(C2, QQ)
    a = R.one() + R.delta(1)
    sol = solve_src(LinearSystem(R, 1, 2, ((a, a),)))
    assert sol.verified
    assert sol.xs[0] + sol.xs[1] == R.zero() or verify_solution(
        LinearSystem(R, 1, 2, ((a, a),)), sol.xs
    )


def test_solve_footnote_budget_exhaustion(qf2):
    a = qf2.delta((1,)) - qf2.one()
    b = qf2.delta((2,)) - qf2.one()
    sys = LinearSystem(qf2, 1, 2, ((a, b),))
    with pytest.raises(FolnerNotFound):
        solve_src(sys, budget=3)


def test_solve_zero_system(qz):
    sys = LinearSystem(qz, 1, 2, ((qz.zero(), qz.zero()),))
    sol = solve_src(sys)
    assert sol.verified
    assert sol.xs[0] == qz.one() and sol.xs[1].is_zero()


def test_solve_integer_coefficients(qz):
    R = GroupRing(Z, ZZ)
    t = R.delta((1,))
    sol = solve_src(LinearSystem(R, 1, 2, ((R.one() + t, R.one() - t),)))
    assert sol.verified
    # integer solutions come out primitive: coefficient gcd 1 overall
    from math import gcd

    coeffs = [c for x in sol.xs for c in x.terms.values()]
    g = 0
    for c in coeffs:
        g = gcd(g, c)
    assert g == 1


def test_solve_prime_field():
    R = GroupRing(Z, PrimeField(5))
    t = R.delta((1,))
    sys = LinearSystem(R, 1, 2, ((R.one() + t, R.one() - t),))
    assert solve_src(sys).verified


def test_shape_validation(qz):
    one, z_one = qz.one(), GroupRing(Z, ZZ).one()
    for m, n, a, message in [
        (2, 2, ((one, one), (one, one)), "need 0 < m < n"),
        (1, 2, ((one,),), "shape mismatch"),
        (1, 2, ((one, one), (one, one)), "shape mismatch"),
        (1, 2, ((one, z_one),), "different ring"),
    ]:
        with pytest.raises(ValueError, match=message):
            LinearSystem(qz, m, n, a)


# --- truncated kernels -------------------------------------------------------


def test_truncated_kernel_footnote_free(qf2):
    a = qf2.delta((1,)) - qf2.one()
    b = qf2.delta((2,)) - qf2.one()
    rep1 = truncated_kernel([[a, b]], 1)
    assert (rep1.ncols, rep1.rank, rep1.basis) == (10, 10, [])
    rep2 = truncated_kernel([[a, b]], 2)
    assert (rep2.ncols, rep2.rank, rep2.basis) == (34, 34, [])


def test_truncated_kernel_commutative_control(qz2):
    a = qz2.delta((1, 0)) - qz2.one()
    b = qz2.delta((0, 1)) - qz2.one()
    rep = truncated_kernel([[a, b]], 1)
    assert len(rep.basis) == 1
    (x1, x2) = rep.basis[0]
    assert (a * x1 + b * x2).is_zero()
    # the witness is proportional to (b - 1, -(a - 1))
    c = x1.terms.get((0, 1), 0)
    assert x1 == b * qz2.delta((0, 0), c) and x2 == a * qz2.delta((0, 0), -c)


def test_truncated_kernel_zero_system(qz):
    rep = truncated_kernel([[qz.zero(), qz.zero()]], 1)
    assert rep.rank == 0
    assert len(rep.basis) == rep.ncols


@given(st.integers(0, 2))
@settings(max_examples=3, deadline=None)
def test_truncated_kernel_monotone_in_radius(r):
    qf2 = GroupRing(__import__("gradedsrc.groups", fromlist=["FreeGroup"]).FreeGroup(2), QQ)
    a = qf2.delta((1,)) - qf2.one()
    b = qf2.delta((2,)) - qf2.one()
    rep = truncated_kernel([[a, b]], r)
    rep_next = truncated_kernel([[a, b]], r + 1)
    # injectivity at a larger radius implies injectivity at the smaller one
    if not rep_next.basis:
        assert not rep.basis


F4 = ff_extend(2, 2)
GRID_RINGS = {
    "Q": (QQ, Fraction),
    "Z": (ZZ, int),
    "F4": (F4, lambda n: F4.from_index(n % 4)),
}
GRID_GROUPS = {"F2": FreeGroup(2), "S3": FiniteGroup.symmetric(3)}


@st.composite
def grids(draw):
    """A small m x n grid over Q, Z or F_4 of F_2 or S_3 elements supported
    in ball(1), and a radius up to 2."""
    ring, elem = GRID_RINGS[draw(st.sampled_from(sorted(GRID_RINGS)))]
    R = GroupRing(GRID_GROUPS[draw(st.sampled_from(sorted(GRID_GROUPS)))], ring)
    support = list(ball(R.group, 1))
    term = st.tuples(st.sampled_from(support), st.integers(-2, 3).map(elem))
    entry = st.lists(term, max_size=3).map(R.from_terms)
    m, n = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    a = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    return a, draw(st.integers(0, 2))


@given(grids())
@settings(max_examples=60, deadline=None)
def test_truncated_kernel_is_annihilated_and_counts(case):
    a, radius = case
    R = a[0][0].ring
    rep = truncated_kernel(a, radius)
    assert rep.rank + len(rep.basis) == rep.ncols == len(a[0]) * len(rep.domain)
    for xs in rep.basis:
        assert any(not x.is_zero() for x in xs)
        assert all(set(x.terms) <= set(rep.domain) for x in xs)
        assert all(y.is_zero() for y in apply_matrix(a, xs))
    # the rank of the images of the basis vectors delta_f e_j, computed densely
    images = []
    for j in range(len(a[0])):
        for f in rep.domain:
            e = [R.delta(f) if k == j else R.zero() for k in range(len(a[0]))]
            images.append(apply_matrix(a, e))
    keys = list(dict.fromkeys((i, g) for im in images for i, y in enumerate(im) for g in y.terms))
    field, lift = (QQ, Fraction) if R.coeff == ZZ else (R.coeff, lambda c: c)
    dense = [[lift(im[i].terms.get(g, R.coeff.zero)) for im in images] for i, g in keys]
    assert rep.rank == rank(dense, field, ncols=len(images))


def test_apply_matrix_rejects_short_vectors(qz):
    # (1-t, -(1+t)) kills the first two columns of (1+t, 1-t, 1); read with
    # x_3 missing, it would pass as a solution
    one, t = qz.one(), qz.delta((1,))
    sys = LinearSystem(qz, 1, 3, ((one + t, one - t, one),))
    assert not verify_solution(sys, (one - t, -(one + t), one))
    with pytest.raises(ValueError):
        verify_solution(sys, (one - t, -(one + t)))


def test_intconst_truncated_kernel_example():
    P = IntConstPolyRing()
    base = P.base
    a = base.delta((1,)) - base.one()
    b = base.delta((2,)) - base.one()
    rnk, ncols, basis = intconst_truncated_kernel(P, [[a, b]], 2, 2)
    assert (rnk, ncols, basis) == (70, 70, [])


def reference_intconst_truncated_kernel(poly_ring, a, max_degree, radius):
    """The kernel built as one matrix over every (unknown, degree, ball
    element) column, as ``intconst_truncated_kernel`` once did."""
    base = poly_ring.base
    G = base.group
    m = len(a)
    n = len(a[0])
    D = list(ball(G, radius))
    cols = []
    for j in range(n):
        cols.append((j, 0, G.identity))
        for d in range(1, max_degree + 1):
            for g in D:
                cols.append((j, d, g))
    columns = [
        {
            (i, d + 1, h): c
            for i in range(m)
            for h, c in (a[i][j] * base.delta(g)).terms.items()
        }
        for j, d, g in cols
    ]
    basis = list(kernel_vectors(columns, ZZ))
    out = []
    for v in basis:
        v = dense(v, len(cols), 0)
        polys = []
        for j in range(n):
            coeffs = [base.zero()] * (max_degree + 1)
            for cidx, (jj, d, g) in enumerate(cols):
                if jj == j and v[cidx]:
                    coeffs[d] = coeffs[d] + base.delta(g, v[cidx])
            polys.append(poly_ring.make(coeffs))
        out.append(tuple(polys))
    return len(cols) - len(out), len(cols), out


INTCONST = IntConstPolyRing()


@st.composite
def intconst_cases(draw):
    """A 1 x n or 2 x n grid over ZF_2 supported in ball(1), with a kernel
    planted in some: a zero column, a duplicated column, or a column equal
    to another times a group element."""
    base = INTCONST.base
    support = list(ball(base.group, 1))
    term = st.tuples(st.sampled_from(support), st.integers(-2, 2))
    entry = st.lists(term, max_size=3).map(base.from_terms)
    m, n = draw(st.integers(1, 2)), draw(st.integers(2, 3))
    a = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    plant = draw(st.sampled_from(["none", "zero", "duplicate", "shifted"]))
    g = base.delta(draw(st.sampled_from(support)))
    for row in a:
        if plant == "zero":
            row[-1] = base.zero()
        elif plant == "duplicate":
            row[-1] = row[0]
        elif plant == "shifted":
            row[-1] = row[0] * g
    return a, draw(st.integers(0, 2)), draw(st.integers(0, 1))


@given(intconst_cases())
@settings(max_examples=60, deadline=None)
def test_intconst_truncated_kernel_matches_one_matrix(case):
    a, max_degree, radius = case
    got = intconst_truncated_kernel(INTCONST, a, max_degree, radius)
    assert got == reference_intconst_truncated_kernel(INTCONST, a, max_degree, radius)


# --- randomized lift/assemble consistency ------------------------------------


def random_system(ring, rng, pool):
    def rand_elem():
        return ring.from_terms((pool[rng.randrange(len(pool))], rng.randint(-2, 2)) for _ in range(2))

    while True:
        a = ((rand_elem(), rand_elem(), rand_elem()),)
        if not all(x.is_zero() for x in a[0]):
            return LinearSystem(ring, 1, 3, a)


def test_randomized_consistency_z2(qz2, rng):
    pool = [(0, 0), (1, 0), (0, 1), (1, 1), (-1, 0)]
    for _ in range(10):
        sys = random_system(qz2, rng, pool)
        sol = solve_src(sys, budget=12)
        assert sol.verified
        assert verify_solution(sys, sol.xs)


def test_randomized_consistency_s3(s3, rng):
    R = GroupRing(s3, QQ)
    pool = list(s3.elements)
    for _ in range(10):
        sys = random_system(R, rng, pool)
        sol = solve_src(sys, budget=2)
        assert verify_solution(sys, sol.xs)


def test_all_lifted_kernel_vectors_assemble_to_solutions(qz2, rng):
    pool = [(0, 0), (1, 0), (0, 1)]
    for _ in range(5):
        sys = random_system(qz2, rng, pool)
        S = sys.union_support()
        F, _ = folner_search(qz2.group, S, Fraction(3, 1), 12)
        lifted = lift_on(sys, F)
        for kv in kernel_vectors(lifted.columns, lifted.base_ring):
            xs = assemble_solution(qz2, sys.n, lifted.col_index, kv)
            assert verify_solution(sys, xs)


def test_solve_builds_sf_once(qz2, s3, rng, monkeypatch):
    # the product set folner_ratio_ok builds for the accepted F is the one
    # lift_system uses; no further product_set call
    from gradedsrc import groups

    calls = {"product_set": 0, "folner_ratio_ok": 0}

    def spy(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(groups, "product_set", spy("product_set", groups.product_set))
    monkeypatch.setattr(groups, "folner_ratio_ok", spy("folner_ratio_ok", groups.folner_ratio_ok))
    for ring, pool, budget in ((GroupRing(s3, QQ), list(s3.elements), 2),
                               (qz2, [(0, 0), (1, 0), (0, 1), (1, 1)], 12)):
        for _ in range(3):
            calls.update(product_set=0, folner_ratio_ok=0)
            assert solve_src(random_system(ring, rng, pool), budget=budget).verified
            assert calls["product_set"] == calls["folner_ratio_ok"] >= 1


def test_solve_maps_only_the_columns_it_reaches(monkeypatch):
    # the 1 x 3 Q[S5] system of the solve-s5 benchmark: F = S5 gives 360
    # columns, and x_2's coefficient is zero, so column (x_2, e) is free and
    # the engine stops there, having mapped only column (x_1, e) into F_p
    obj = {"group": {"family": "symmetric", "n": 5}, "coeff": {"ring": "Q"}, "m": 1, "n": 3,
           "a": [[[[[4, 2, 3, 5, 1], "1/1"], [[5, 1, 2, 4, 3], "-1/1"]], [],
                  [[[4, 2, 1, 5, 3], "2/1"]]]]}
    held, mapped = [], [0]
    engine = linalg._kernel_engine

    def spy(columns, ring, entry=None):
        held.append(sum(map(len, columns)))

        def counted(a):
            mapped[0] += 1
            return entry(a)

        return engine(columns, ring, counted if entry else None)

    monkeypatch.setattr(linalg, "_kernel_engine", spy)
    assert solve_src(system_from_json(obj), budget=1).verified
    assert held == [360] and mapped == [2]


def test_solve_lifts_and_assembles_only_the_nonzeros(monkeypatch):
    # the system above: its kernel vector has one nonzero of 360 columns, at
    # (x_2, e), and reconstruction, clearing and assembly read that entry alone
    obj = {"group": {"family": "symmetric", "n": 5}, "coeff": {"ring": "Q"}, "m": 1, "n": 3,
           "a": [[[[[4, 2, 3, 5, 1], "1/1"], [[5, 1, 2, 4, 3], "-1/1"]], [],
                  [[[4, 2, 1, 5, 3], "2/1"]]]]}
    reconstructed, cleared, assembled = [0], [], []
    reconstruct, clear, assemble = (linalg._reconstruct, linalg.clear_denominators,
                                    srcsolve.assemble_solution)

    def reconstruct_spy(u):
        reconstructed[0] += 1
        return reconstruct(u)

    def clear_spy(vec):
        cleared.append(len(vec))
        return clear(vec)

    def assemble_spy(ring, n, col_index, v):
        assembled.append(len(v))
        return assemble(ring, n, col_index, v)

    monkeypatch.setattr(linalg, "_reconstruct", reconstruct_spy)
    monkeypatch.setattr(linalg, "clear_denominators", clear_spy)
    monkeypatch.setattr(srcsolve, "assemble_solution", assemble_spy)
    assert solve_src(system_from_json(obj), budget=1).verified
    assert reconstructed == [1] and cleared == [1] and assembled == [1]


# --- one lift and one assembly for solving and truncated kernels -------------


def reference_lift_system(sys, F, SF=None):
    """``lift_system`` as it was before truncated kernels shared it: f-major
    columns, rows in SF order."""
    S = sys.union_support()
    if not len(S):
        raise ValueError("all coefficients are zero")
    G, m = sys.ring.group, sys.m
    SF = product_set(G, S, F) if SF is None else SF
    row_index = [(g, i) for g in SF for i in range(m)]
    first_row = {g: r * m for r, g in enumerate(SF)}  # of (g, 0); (g, i) is i rows on
    col_index = [(j, f) for f in F for j in range(sys.n)]
    columns = []
    for f in F:
        at = {h: first_row[G.mul(h, f)] for h in S}  # each product h f formed once
        columns += [{at[h] + i: c for i in range(m) for h, c in sys.a[i][j].terms.items()}
                    for j in range(sys.n)]
    return LiftedSystem(columns, row_index, col_index, sys.ring.coeff)


def reference_assemble_solution(sys, kv, F):
    """x_j = sum_f delta_f * x'_{jf} from a lifted kernel vector."""
    R = sys.ring
    terms = [[] for _ in range(sys.n)]
    for idx, (j, f) in enumerate([(j, f) for f in F for j in range(sys.n)]):
        c = kv[idx]
        if not R.coeff.is_zero(c):
            terms[j].append((f, c))
    xs = tuple(R.from_terms(t) for t in terms)
    if all(x.is_zero() for x in xs):
        raise AssertionError("zero assembly from a nonzero kernel vector")
    return SolutionVector(xs, verified=False)


def reference_solve_src(sys, budget):
    """``solve_src`` through the reference lift and assembly."""
    S = sys.union_support()
    if not len(S):
        return (sys.ring.one(),) + tuple(sys.ring.zero() for _ in range(sys.n - 1))
    F, SF = folner_search(sys.ring.group, S, Fraction(sys.n, sys.m), budget)
    lifted = reference_lift_system(sys, F, SF)
    kv = next(kernel_vectors(lifted.columns, lifted.base_ring))
    kv = dense(kv, len(lifted.columns), lifted.base_ring.zero)
    return reference_assemble_solution(sys, kv, F).xs


def reference_truncated_kernel(a, radius):
    """``truncated_kernel`` as it was with its own columns on (equation,
    group element) rows, j-major, and its own slicing of each vector."""
    m = len(a)
    n = len(a[0])
    ring = a[0][0].ring
    G = ring.group
    D = ball(G, radius)
    S = {h for row in a for x in row for h in x.terms}
    shifts = [{h: G.mul(h, f) for h in S} for f in D]  # each product h f formed once
    columns = [
        {(i, hf[h]): c for i in range(m) for h, c in a[i][j].terms.items()}
        for j in range(n) for hf in shifts
    ]
    basis = list(kernel_vectors(columns, ring.coeff))
    zero, size = ring.coeff.zero, len(D)
    basis = [dense(v, len(columns), zero) for v in basis]
    out = [
        tuple(
            GRElement(ring, {g: c for g, c in zip(D, v[j * size : (j + 1) * size]) if c != zero})
            for j in range(n)
        )
        for v in basis
    ]
    return TruncatedKernelReport(
        radius=radius,
        domain=D,
        ncols=len(columns),
        rank=len(columns) - len(out),
        basis=out,
    )


F5, F8 = PrimeField(5), ff_extend(2, 3)
SHARED_RINGS = {
    "Q": (QQ, Fraction),
    "Z": (ZZ, int),
    "F5": (F5, lambda n: n % 5),
    "F8": (F8, lambda n: F8.from_index(n % 8)),
}
SHARED_GROUPS = {
    "F2": FreeGroup(2),
    "Z2": FreeAbelian(2),
    "S3": FiniteGroup.symmetric(3),
    "C4": FiniteGroup.cyclic(4),
}


@st.composite
def shared_cases(draw):
    """An m x n grid, m <= n, over Q, Z, F_5 or F_8 of F_2, Z^2, S_3 or C_4
    elements supported in ball(1), all zero in some, and a radius up to 2."""
    ring, elem = SHARED_RINGS[draw(st.sampled_from(sorted(SHARED_RINGS)))]
    R = GroupRing(SHARED_GROUPS[draw(st.sampled_from(sorted(SHARED_GROUPS)))], ring)
    support = list(ball(R.group, 1))
    term = st.tuples(st.sampled_from(support), st.integers(-2, 3).map(elem))
    entry = st.lists(term, max_size=3).map(R.from_terms)
    m = draw(st.integers(1, 2))
    n = draw(st.integers(m, 3))
    if draw(st.booleans()) and draw(st.booleans()):
        a = [[R.zero()] * n for _ in range(m)]
    else:
        a = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    return a, draw(st.integers(0, 2))


def ordered(xs):
    return [list(x.terms.items()) for x in xs]


@given(shared_cases())
@settings(max_examples=80, deadline=None)
def test_shared_lift_and_assembly_match_the_separate_paths(case):
    a, radius = case
    got, want = truncated_kernel(a, radius), reference_truncated_kernel(a, radius)
    assert (got.ncols, got.rank) == (want.ncols, want.rank)
    assert [ordered(xs) for xs in got.basis] == [ordered(xs) for xs in want.basis]
    if len(a) == len(a[0]):
        return
    sys = LinearSystem(a[0][0].ring, len(a), len(a[0]), tuple(map(tuple, a)))
    try:
        want = ordered(reference_solve_src(sys, budget=6))
    except FolnerNotFound:
        with pytest.raises(FolnerNotFound):
            solve_src(sys, budget=6)
        return
    assert ordered(solve_src(sys, budget=6).xs) == want


# sha256 of `gradedsrc solve --in` stdout, recorded before solving and
# truncated kernels shared one lift and one assembly
SOLVE_STDOUT = {
    "1x2 Q[F_2]": (
        {"group": {"family": "free", "rank": 2}, "coeff": {"ring": "Q"}, "m": 1, "n": 2,
         "a": [[[["", "1"], ["a", "2"]], [["", "3"], ["a", "-1"]]]]},
        "7d66619c16c796496206a0cecef77c979d4d6ae1af7786910c7d0ba3256cdd34",
    ),
    "1x2 Q[C_4]": (
        {"group": {"family": "cyclic", "n": 4}, "coeff": {"ring": "Q"}, "m": 1, "n": 2,
         "a": [[[[0, "1"], [1, "2"]], [[0, "3"], [3, "-1"]]]]},
        "bac1f2f8e149405b4e8eb08669e711ca1875c3a6bfaba93ac65e252bdd44382a",
    ),
    "2x3 F_5[Z^2]": (
        {"group": {"family": "abelian", "rank": 2}, "coeff": {"ring": "Fp", "p": 5},
         "m": 2, "n": 3,
         "a": [[[[[0, 0], [1]], [[1, 0], [2]]], [[[0, 1], [3]]], [[[1, 1], [4]], [[0, 0], [1]]]],
               [[[[0, 0], [2]]], [[[1, 0], [1]], [[0, 1], [1]]], [[[0, 0], [3]]]]]},
        "ce79f66bf284c75bc07576569a97d8396c3a2d9c035c90650caa7c2c16067463",
    ),
}


@pytest.mark.parametrize("case", sorted(SOLVE_STDOUT))
def test_solve_stdout_golden(tmp_path, capsys, case):
    obj, want = SOLVE_STDOUT[case]
    infile = tmp_path / "in.json"
    infile.write_text(json.dumps(obj))
    assert main(["solve", "--in", str(infile)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == want
