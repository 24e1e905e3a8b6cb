import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from gradedsrc import bartholdi
from gradedsrc.coeff import QQ, ZZ, ff_extend
from gradedsrc.errors import ConstantPolynomial, RetryExhausted, SetSystemNotFound
from gradedsrc.gring import GroupRing
from gradedsrc.groups import FreeAbelian, FreeGroup, ball
from gradedsrc.bartholdi import (
    AlphaFamily,
    SetSystem,
    ThetaMap,
    admissible_families,
    construct_alphas,
    find_point,
    footnote_embedding,
    footnote_kernel,
    search_set_system,
    theta_apply,
    theta_certify,
    verify_alphas,
)
from gradedsrc.linalg import kernel_vectors
from gradedsrc.srcsolve import truncated_kernel

from dense_reference import rref

F2 = FreeGroup(2)


@pytest.fixture(scope="module")
def system10():
    return search_set_system(2, 10)


@pytest.fixture(scope="module")
def alphas10(system10):
    return construct_alphas(system10, ff_extend(2, 1), seed=0)


@pytest.fixture(scope="module")
def theta10(alphas10):
    return ThetaMap(alphas10, {0: (1,), 1: (-1,)}, F2)


# --- set systems -------------------------------------------------------------


def test_x_restricted():
    sys = SetSystem(4, (0, 1), {0: frozenset({1, 2}), 1: frozenset({2, 3})})
    assert sys.x_restricted(0, (0, 1)) == {1}
    assert sys.x_restricted(0, (0,)) == {1, 2}
    assert sys.x_restricted(0, ()) == {1, 2}


def test_set_system_compares_by_value():
    X = {0: frozenset({1, 2}), 1: frozenset({2, 3})}
    sys = SetSystem(4, (0, 1), X)
    assert sys == SetSystem(4, (0, 1), dict(X))
    assert sys != SetSystem(5, (0, 1), X)
    assert sys != SetSystem(4, (0, 1), {0: frozenset({1}), 1: frozenset({2, 3})})


def test_search_finds_size_10(system10):
    assert system10.size == 10
    assert system10.X == {
        0: frozenset({1, 2, 3, 7, 8, 9}),
        1: frozenset({4, 5, 6, 7, 8, 9}),
    }
    assert system10.missing_point() == 10
    ok, failures = system10.validate()
    assert ok, failures


def test_reference_instance_validates():
    sys = SetSystem(
        10, (0, 1), {0: frozenset(range(1, 7)), 1: frozenset(range(4, 10))}
    )
    ok, failures = sys.validate()
    assert ok, failures


def test_full_cover_invalid():
    sys = SetSystem(3, (0, 1), {0: frozenset({1, 2, 3}), 1: frozenset({1, 2, 3})})
    ok, failures = sys.validate()
    assert not ok and any("union" in f for f in failures)


def test_search_small_budget_fails():
    with pytest.raises(SetSystemNotFound):
        search_set_system(2, 3)


def test_no_symmetric_profile_at_9():
    # exhaustive: no valid two-label system with |Y| = 9 at all
    with pytest.raises(SetSystemNotFound):
        search_set_system(2, 9)


def test_log_base_2_also_accepts(system10):
    ok, failures = system10.validate(log_base=2)
    assert ok, failures


def reference_search_set_system(s_size, y_max, log_base="e"):
    """Every count vector in lexicographic order, each built and checked by
    ``validate``, as ``search_set_system`` once did; None when exhausted."""

    def count_vectors(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in count_vectors(total - first, parts - 1):
                yield (first,) + rest

    labels = tuple(range(s_size))
    patterns = range(1, 2**s_size)
    for m in range(2, y_max + 1):
        for counts in count_vectors(m - 1, len(patterns)):
            X = {s: set() for s in labels}
            idx = 1
            for pat, cnt in zip(patterns, counts):
                for _ in range(cnt):
                    for s in labels:
                        if pat >> s & 1:
                            X[s].add(idx)
                    idx += 1
            sys = SetSystem(m, labels, {s: frozenset(X[s]) for s in labels})
            if sys.validate(log_base)[0]:
                return sys
    return None


def search_or_none(s_size, y_max, log_base):
    try:
        return search_set_system(s_size, y_max, log_base)
    except SetSystemNotFound:
        return None


@pytest.mark.parametrize("s_size, y_max, log_base", [
    *[(2, y, b) for y in range(2, 15) for b in ("e", 2, 3, 10)],
    (3, 12, "e"),
    (3, 11, "e"),
])
def test_pruned_search_matches_full_enumeration(s_size, y_max, log_base):
    # the same first system, or exhaustion in both
    assert search_or_none(s_size, y_max, log_base) == reference_search_set_system(
        s_size, y_max, log_base)


def test_search_pins_the_s3_and_s4_systems():
    assert search_set_system(3, 20).to_json() == {
        "size": 12, "labels": [0, 1, 2],
        "x": {"0": [1, 2, 5, 8, 10, 11], "1": [3, 4, 5, 9, 10, 11], "2": [6, 7, 8, 9, 10, 11]},
    }
    assert search_set_system(4, 14).to_json() == {
        "size": 14, "labels": [0, 1, 2, 3],
        "x": {"0": [1, 2, 7, 10, 11, 13], "1": [3, 4, 7, 10, 12, 13],
              "2": [5, 6, 7, 11, 12, 13], "3": [8, 9, 10, 11, 12, 13]},
    }


def test_s4_search_is_exhausted_quickly():
    start = time.perf_counter()
    with pytest.raises(SetSystemNotFound):
        search_set_system(4, 13)
    assert time.perf_counter() - start < 2.0


# --- point finding -----------------------------------------------------------


def test_find_point_needs_extension():
    F3 = ff_extend(3, 1)
    L, point = find_point({(2,): F3.one, (0,): F3.one}, F3.zero, F3)
    assert (L.p, L.k) == (3, 2)
    x = point[0]
    assert L.add(L.mul(x, x), L.one) == L.zero


def test_find_point_identity_poly():
    F7 = ff_extend(7, 1)
    L, point = find_point({(1,): F7.one}, F7.coerce(5), F7)
    assert (L.p, L.k) == (7, 1)
    assert point == (L.coerce(5),)


def test_find_point_product():
    F2f = ff_extend(2, 1)
    L, point = find_point({(1, 1): F2f.one}, F2f.one, F2f)
    assert all(not L.is_zero(a) for a in point)


def test_find_point_rejects_constant():
    F3 = ff_extend(3, 1)
    with pytest.raises(ConstantPolynomial):
        find_point({(0, 0): F3.one}, F3.one, F3)


# --- alpha families ----------------------------------------------------------


def test_admissible_families_structure(system10):
    fams = admissible_families(system10)
    assert len(fams) == 4
    for fam, _ in fams:
        v = sum(len(system10.x_restricted(s, fam[s])) for s in system10.labels)
        assert v == 12


def direct_admissible_families(sys):
    """``admissible_families`` by set arithmetic on every family."""
    subsets = list(itertools.chain.from_iterable(
        itertools.combinations(sys.labels, k) for k in range(len(sys.labels) + 1)))
    return [dict(zip(sys.labels, family))
            for family in itertools.product(subsets, repeat=len(sys.labels))
            if sum(len(sys.x_restricted(s, T)) for s, T in zip(sys.labels, family)) >= sys.size]


def family_rows(sys, family):
    """A family's stacked rows (s, i) by set arithmetic on that family alone,
    ordered by label then increasing index."""
    return [(s, i) for s in sys.labels for i in sorted(sys.x_restricted(s, family[s]))]


@pytest.mark.parametrize("s_size, y_max", [(2, 10), (3, 20), (4, 14)])
def test_admissible_families_equal_the_direct_walk(s_size, y_max):
    system = search_set_system(s_size, y_max)
    pairs = admissible_families(system)
    families = [family for family, _ in pairs]
    assert families == direct_admissible_families(system)
    assert [list(f) for f in families] == [list(system.labels)] * len(families)
    assert [list(rows) for _, rows in pairs] == [family_rows(system, f) for f in families]


def test_construct_and_verify_roundtrip(system10, alphas10):
    assert alphas10.field.p == 2 and alphas10.field.k == 7
    assert alphas10.provenance["attempt"] == 0
    rep = verify_alphas(alphas10)
    assert rep.row_support_ok
    assert all(f["ok"] and f["rank"] == 10 for f in rep.families)
    assert rep.ok


def test_singular_first_sample_is_retried(system10):
    # over F_3, seed 29 draws a singular block first; the golden output of
    # ``theta --field 3 --radius 1 --seed 29`` pins the family it retries to
    fam = construct_alphas(system10, ff_extend(3, 1), seed=29)
    assert fam.provenance["attempt"] == 1
    assert verify_alphas(fam).ok


def unmemoised_construct_alphas(sys, K, seed, tested, max_tries=64):
    """``construct_alphas`` testing every family's block, shared or not;
    appends each tested block's columns to ``tested``."""
    m = sys.size
    families = direct_admissible_families(sys)
    degree_sum = m * len(families)
    rng = random.Random(seed)
    var_order = [(s, i, j) for s in sys.labels for i in sorted(sys.X[s]) for j in range(1, m + 1)]
    t = 1
    while K.order**t <= 2 * degree_sum:
        t += 1
    for attempt in range(max_tries):
        L = K if t == 1 else ff_extend(K.p, K.k * t)
        values = {v: L.from_index(rng.randrange(L.order)) for v in var_order}
        ok = True
        for family in families:
            rows = family_rows(sys, family)[:m]
            columns = [{r: values[(s, i, j)] for r, (s, i) in enumerate(rows)}
                       for j in range(1, m + 1)]
            tested.append(tuple(tuple(col.items()) for col in columns))
            if next(kernel_vectors(columns, L), None) is not None:
                ok = False
                break
        if ok:
            return attempt, L, values
        if attempt and attempt % 16 == 0:
            t += 1
    raise AssertionError("no nonvanishing point")


ALPHA_SEEDS = [29] + random.Random(23).sample(range(10**6), 3)


@pytest.mark.parametrize("s_size, y_max", [(2, 10), (3, 20)])
@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("seed", ALPHA_SEEDS)
def test_each_distinct_block_is_tested_once(monkeypatch, s_size, y_max, p, seed):
    # the same family from the same draws, and the blocks tested are the
    # unmemoised run's, each once, in the order it first meets them
    system = search_set_system(s_size, y_max)
    K = ff_extend(p, 1)
    want = []
    attempt, L, values = unmemoised_construct_alphas(system, K, seed, want)
    tested = []

    def spy(columns, ring):
        tested.append(tuple(tuple(col.items()) for col in columns))
        return kernel_vectors(columns, ring)

    monkeypatch.setattr(bartholdi, "kernel_vectors", spy)
    fam = construct_alphas(system, K, seed)
    assert (fam.provenance["attempt"], fam.field) == (attempt, L)
    m = system.size
    assert fam.matrices == {s: [[values[(s, i, j)] if i in system.X[s] else L.zero
                                 for j in range(1, m + 1)] for i in range(1, m + 1)]
                            for s in system.labels}
    assert tested == list(dict.fromkeys(want))


def test_singular_blocks_widen_the_field_then_exhaust(monkeypatch, system10):
    # every block singular: the extension degree grows from 7 at attempts
    # 17, 33 and 49 (counting from 0), and the 64th singular attempt gives up
    degrees = []

    def singular(columns, ring):
        degrees.append(ring.k)
        return iter([[ring.one] * len(columns)])

    monkeypatch.setattr(bartholdi, "kernel_vectors", singular)
    with pytest.raises(RetryExhausted, match="64 samples"):
        construct_alphas(system10, ff_extend(2, 1), seed=0)
    assert degrees == [7] * 17 + [8] * 16 + [9] * 16 + [10] * 15


def test_s4_alpha_family_is_pinned():
    # 147 distinct blocks serve the 13,808 admissible families; a fresh
    # interpreter, so the F_{2^19} tables' build counts against the bound
    code = ("import hashlib, json\n"
            "from gradedsrc.bartholdi import construct_alphas, search_set_system\n"
            "from gradedsrc.coeff import ff_extend\n"
            "fam = construct_alphas(search_set_system(4, 14), ff_extend(2, 1), seed=0)\n"
            "text = json.dumps(fam.to_json(), sort_keys=True)\n"
            "print(fam.provenance['attempt'], fam.field.name,"
            " hashlib.sha256(text.encode()).hexdigest())\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=10, check=True).stdout
    assert out.split() == [
        "0", "F2^19", "f596c6442609e5ec7f19a03f5822b336b8581eba802213f581c6e0d124e323b8"]


def test_zero_matrices_fail_every_family(system10, alphas10):
    L = alphas10.field
    zero = AlphaFamily(
        L, system10, {s: [[L.zero] * 10 for _ in range(10)] for s in system10.labels}
    )
    rep = verify_alphas(zero)
    assert rep.row_support_ok
    assert all(not f["ok"] for f in rep.families)


def test_perturbation_breaks_dependent_families(system10, alphas10):
    L = alphas10.field
    matrices = {s: [row[:] for row in alphas10.matrices[s]] for s in system10.labels}
    for s in system10.labels:  # kill one shared column: every stack loses rank
        for i in range(10):
            matrices[s][i][0] = L.zero
    rep = verify_alphas(AlphaFamily(L, system10, matrices))
    assert rep.row_support_ok
    assert all(not f["ok"] for f in rep.families)


def rref_verify_alphas(fam):
    """(families, ok) of ``verify_alphas``, each stack's rank read off its
    dense reduced row echelon form.  A stack is fixed by its row tuple, so
    each distinct one is reduced once."""
    L, sys = fam.field, fam.set_system
    m = sys.size
    support_ok = all(L.is_zero(v) for s in sys.labels for i in range(1, m + 1)
                     if i not in sys.X[s] for v in fam.matrices[s][i - 1])
    ranks, families = {}, []
    for family, _ in admissible_families(sys):
        rows = tuple(family_rows(sys, family))
        if rows not in ranks:
            ranks[rows] = len(rref([fam.matrices[s][i - 1] for s, i in rows], L, m)[1])
        families.append({"family": {str(s): sorted(family[s]) for s in sys.labels},
                         "v": len(rows), "rank": ranks[rows], "ok": ranks[rows] == m})
    return families, support_ok and all(f["ok"] for f in families)


@pytest.mark.parametrize("s_size, y_max, p, seed", [
    *[(2, 10, p, seed) for p in (2, 3) for seed in ALPHA_SEEDS],
    (3, 20, 2, 0),  # W2's alpha family, over F_{2^13}
    (3, 20, 3, 1),  # over F_{3^8}
])
def test_verify_alphas_matches_the_rref_reference(s_size, y_max, p, seed):
    fam = construct_alphas(search_set_system(s_size, y_max), ff_extend(p, 1), seed)
    rep = verify_alphas(fam)
    assert (rep.families, rep.ok) == rref_verify_alphas(fam)
    assert rep.ok


@pytest.fixture(scope="module")
def alphas12():
    return construct_alphas(search_set_system(3, 20), ff_extend(3, 1), seed=1)


def test_broken_rows_report_their_true_rank(alphas12):
    # every stack of exactly m rows has full rank, so each row broken in it
    # costs one: row 10 of A_0 is zeroed, and row 10 of A_2 becomes the sum
    # of rows 6 and 7 of A_2, which every such stack holds
    L, sys = alphas12.field, alphas12.set_system
    m = sys.size
    zeroed, summed, sources = (0, 10), (2, 10), [(2, 6), (2, 7)]
    matrices = {s: [row[:] for row in alphas12.matrices[s]] for s in sys.labels}
    matrices[0][9] = [L.zero] * m
    matrices[2][9] = [L.add(a, b) for a, b in zip(matrices[2][5], matrices[2][6])]
    broken = AlphaFamily(L, sys, matrices)
    rep = verify_alphas(broken)
    assert (rep.families, rep.ok) == rref_verify_alphas(broken)
    assert rep.row_support_ok and not rep.ok
    seen = set()
    for f, (family, _) in zip(rep.families, admissible_families(sys)):
        rows = family_rows(sys, family)
        if len(rows) == m:
            assert all(r in rows for r in sources)
            broken_rows = (zeroed in rows, summed in rows)
            assert (f["rank"], f["ok"]) == (m - sum(broken_rows), not any(broken_rows))
            seen.add(broken_rows)
    assert {(True, False), (False, True)} <= seen


def test_alpha_families_get_their_own_provenance(system10, alphas10):
    first = AlphaFamily(alphas10.field, system10, alphas10.matrices)
    second = AlphaFamily(alphas10.field, system10, alphas10.matrices)
    first.provenance["seed"] = 1
    assert first.provenance == {"seed": 1} and second.provenance == {}


# --- Theta -------------------------------------------------------------------


def test_theta_rejects_repeated_b(alphas10):
    with pytest.raises(ValueError, match="pairwise distinct"):
        ThetaMap(alphas10, {0: (1,), 1: (1,)}, F2)


def test_theta_zero_input(theta10):
    R = theta10.ring
    out = theta_apply(theta10, [R.zero()] * 10)
    assert all(x.is_zero() for x in out)


def test_theta_missing_component_vanishes(theta10, alphas10):
    rng = random.Random(7)
    R = theta10.ring
    y0 = alphas10.set_system.missing_point()
    pool = [(), (1,), (-2,), (2, 1)]
    L = alphas10.field
    for _ in range(5):
        u = [
            R.from_terms(
                [(pool[rng.randrange(4)], L.from_index(rng.randrange(L.order)))]
            )
            for _ in range(10)
        ]
        out = theta_apply(theta10, u)
        assert out[y0 - 1].is_zero()


def test_theta_single_basis_input(theta10, alphas10):
    R = theta10.ring
    L = alphas10.field
    yp = 3
    u = [R.one() if y == yp else R.zero() for y in range(10)]
    out = theta_apply(theta10, u)
    for y in range(10):
        expected = R.from_terms(
            (theta10.b[s], alphas10.matrices[s][y][yp]) for s in (0, 1)
        )
        assert out[y] == expected


def test_theta_linearity(theta10):
    rng = random.Random(11)
    R = theta10.ring
    L = theta10.alphas.field
    pool = [(), (1,), (2,), (-1, 2)]

    def rand_vec():
        return [
            R.from_terms(
                [(pool[rng.randrange(4)], L.from_index(rng.randrange(L.order)))]
            )
            for _ in range(10)
        ]

    for _ in range(3):
        u, v = rand_vec(), rand_vec()
        r = R.from_terms([(pool[rng.randrange(4)], L.from_index(rng.randrange(L.order)))])
        tu, tv = theta_apply(theta10, u), theta_apply(theta10, v)
        tsum = theta_apply(theta10, [a + b for a, b in zip(u, v)])
        assert all(x == y + z for x, y, z in zip(tsum, tu, tv))
        tscaled = theta_apply(theta10, [a * r for a in u])
        assert all(x == y * r for x, y in zip(tscaled, tu))


def test_theta_certificates(theta10):
    rep0 = theta_certify(theta10, 0)
    assert (rep0.ncols, rep0.rank) == (10, 10)
    assert rep0.injective and rep0.missing_row_zero
    rep1 = theta_certify(theta10, 1)
    assert (rep1.ncols, rep1.rank) == (50, 50)
    assert rep1.verdict() == "VerifiedInjectiveUpTo(1)"


def test_theta_degenerate_family_has_witness(system10, alphas10):
    from gradedsrc.bartholdi import AlphaFamily

    L = alphas10.field
    matrices = {s: [row[:] for row in alphas10.matrices[s]] for s in system10.labels}
    matrices[1] = [[L.zero] * 10 for _ in range(10)]  # zero one alpha entirely
    degenerate = AlphaFamily(L, system10, matrices)
    theta = ThetaMap(degenerate, {0: (1,), 1: (-1,)}, F2)
    rep = theta_certify(theta, 0)
    assert not rep.injective
    assert rep.witness is not None
    assert any(not x.is_zero() for x in rep.witness)
    image = theta_apply(theta, rep.witness)
    assert all(x.is_zero() for x in image)


def test_theta_truncation_mechanism(theta10, alphas10):
    """On inputs supported in F, rows restricted away from the other labels'
    images see exactly one alpha block at each shifted group element."""
    rng = random.Random(23)
    R = theta10.ring
    L = alphas10.field
    sys = alphas10.set_system
    F = list(ball(F2, 1))
    u = [
        R.from_terms((f, L.from_index(rng.randrange(L.order))) for f in F)
        for _ in range(10)
    ]
    out = theta_apply(theta10, u)
    for s0 in sys.labels:
        for f0 in F:
            g = F2.mul(theta10.b[s0], f0)
            T = tuple(
                t
                for t in sys.labels
                if any(g == F2.mul(theta10.b[t], f) for f in F)
            )
            assert s0 in T
            for y in sys.x_restricted(s0, T):
                expected = L.zero
                for yp in range(10):
                    expected = L.add(
                        expected,
                        L.mul(alphas10.matrices[s0][y - 1][yp], u[yp].terms.get(f0, L.zero)),
                    )
                assert out[y - 1].terms.get(g, L.zero) == expected


# --- footnote embedding and scalar extension ---------------------------------


def test_footnote_basis_images(zf2):
    one, zero = zf2.one(), zf2.zero()
    a, b = zf2.delta((1,)), zf2.delta((2,))
    assert footnote_embedding(one, zero) == a - one
    assert footnote_embedding(zero, one) == b - one
    w = footnote_embedding(b - one, zero - (a - one))
    assert w.terms == {(1, 2): 1, (2, 1): -1}


def test_footnote_commutative_analogue_is_zero():
    R = GroupRing(FreeAbelian(2), ZZ)
    a, b = R.delta((1, 0)), R.delta((0, 1))
    one = R.one()
    x = (a - one) * (b - one) - (b - one) * (a - one)
    assert x.is_zero()


def test_footnote_kernel_zero_radii(qf2, zf2):
    for ring in (qf2, zf2):
        for r in (1, 2, 3):
            rep = footnote_kernel(ring, r)
            assert rep.basis == []
            assert rep.rank == rep.ncols


# a scalar matrix acts through its entries c as delta(1, c)


def test_extend_scalars_identity():
    R = GroupRing(FreeAbelian(1), ZZ)
    M = [[R.delta(R.group.identity, c) for c in row] for row in [[1, 0], [0, 1]]]
    assert M[0][0] == R.one() and M[0][1].is_zero()
    rep = truncated_kernel(M, 2)
    assert rep.basis == []


def test_extend_scalars_multiplication_by_two():
    R = GroupRing(FreeAbelian(1), ZZ)
    row = [R.delta(R.group.identity, 2)]
    for r in (0, 1, 2):
        assert truncated_kernel([row], r).basis == []


def test_extend_scalars_injective_pattern():
    R = GroupRing(FreeAbelian(1), ZZ)
    M = [[R.delta(R.group.identity, c) for c in row]
         for row in [[1, 0], [0, 1], [1, 1]]]  # injective on Z^2
    assert truncated_kernel(M, 2).basis == []
