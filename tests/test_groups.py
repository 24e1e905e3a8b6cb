import itertools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedsrc.errors import FolnerNotFound, InfiniteIndex
from gradedsrc.groups import (
    FiniteGroup,
    FreeAbelian,
    FreeGroup,
    _bfs,
    ball,
    box,
    folner_search,
    hermite_normal_form,
    product_set,
    sorted_subset,
)
from gradedsrc.serialize import group_from_json
from symmetric_reference import table_symmetric

F2 = FreeGroup(2)
Z2 = FreeAbelian(2)


def w(*letters):
    out = F2.identity
    for x in letters:
        out = F2.mul(out, (x,))
    return out


def test_free_reduction():
    assert F2.mul(w(1, 2, -2), w(-1)) == ()
    assert F2.mul(w(1, 2), w(-2, -1)) == ()
    assert F2.inv(w(1, 2)) == (-2, -1)


def test_abelian_ops():
    assert Z2.mul((1, 2), (3, -1)) == (4, 1)
    assert Z2.inv((2, -3)) == (-2, 3)


def test_symmetric_composition():
    S3 = FiniteGroup.symmetric(3)
    t12 = (1, 0, 2)
    t23 = (0, 2, 1)
    prod = S3.mul(t12, t23)  # maps 1->2, 2->3, 3->1 (1-based)
    assert prod == (1, 2, 0)
    assert S3.mul(prod, S3.inv(prod)) == S3.identity


def test_bad_table_rejected():
    els = [0, 1]
    with pytest.raises(ValueError):
        FiniteGroup(els, [[0, 0], [0, 0]])


def rows_of(elements, table):
    """Index rows for a dict table; a product outside the elements, or none,
    becomes the out-of-range position n."""
    pos = {g: i for i, g in enumerate(elements)}
    return [[pos.get(table.get((g, h)), len(elements)) for h in elements] for g in elements]


def table_of(G):
    """The product of G as a dict {(g, h): g*h}."""
    return {(g, h): G.mul(g, h) for g in G.elements for h in G.elements}


def old_group_check(elements, table):
    """The triple-loop check that preceded Light's test: the ValueError
    message FiniteGroup should raise for this table, or None."""
    elset = set(elements)
    for g in elements:
        for h in elements:
            if (g, h) not in table or table[(g, h)] not in elset:
                return "multiplication table is not closed"
    for e in elements:
        if all(table[(e, g)] == g and table[(g, e)] == g for g in elements):
            ident = e
            break
    else:
        return "no identity element"
    for g in elements:
        if not any(table[(g, h)] == ident and table[(h, g)] == ident for h in elements):
            return f"no inverse for {g}"
    for a in elements:
        for b in elements:
            for c in elements:
                if table[(table[(a, b)], c)] != table[(a, table[(b, c)])]:
                    return "multiplication table is not associative"
    return None


# an order-5 loop: closed, identity 0, every element its own inverse
LOOP_5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]


def test_non_associative_loop_rejected():
    els = list(range(5))
    table = {(a, b): LOOP_5[a][b] for a in els for b in els}
    assert all(LOOP_5[a][0] == LOOP_5[0][a] == a and LOOP_5[a][a] == 0 for a in els)
    assert old_group_check(els, table) == "multiplication table is not associative"
    with pytest.raises(ValueError, match="not associative"):
        FiniteGroup(els, LOOP_5)


def test_non_associativity_away_from_first_generator_rejected():
    # C2 x LOOP_5, listed so that the first generator found, (1, 0), lies in
    # the C2 factor, where every triple with it in the middle associates
    els = sorted(itertools.product(range(2), range(5)), key=lambda g: g[::-1])
    table = {(g, h): ((g[0] + h[0]) % 2, LOOP_5[g[1]][h[1]]) for g in els for h in els}
    assert els[1] == (1, 0)
    assert all(table[(table[(a, els[1])], c)] == table[(a, table[(els[1], c)])]
               for a in els for c in els)
    assert old_group_check(els, table) == "multiplication table is not associative"
    with pytest.raises(ValueError, match="not associative"):
        FiniteGroup(els, rows_of(els, table))


def test_known_groups_accepted():
    S4 = FiniteGroup.symmetric(4)
    assert len(S4.elements) == 24 and S4.identity == (0, 1, 2, 3)
    assert FiniteGroup.symmetric(0).elements == ((),)  # S_0, the trivial group
    for n in range(1, 13):
        C = FiniteGroup.cyclic(n)
        assert C.identity == 0 and all(C.mul(g, C.inv(g)) == 0 for g in C.elements)


BASE_GROUPS = [FiniteGroup.cyclic(n) for n in range(1, 8)] + [table_symmetric(3)]


@given(st.data())
def test_one_changed_entry_rejected_exactly_when_old_check_rejects(data):
    G = data.draw(st.sampled_from(BASE_GROUPS))
    els = list(G.elements)
    table = table_of(G)
    key = data.draw(st.sampled_from(sorted(table)))
    table[key] = data.draw(st.sampled_from(els + ["x"]))
    expected = old_group_check(els, table)
    if expected is None:
        assert table_of(FiniteGroup(els, rows_of(els, table))) == table
    else:
        with pytest.raises(ValueError) as exc:
            FiniteGroup(els, rows_of(els, table))
        assert str(exc.value) == expected


@given(st.data())
def test_one_changed_entry_through_rows_matches_old_check(data):
    # the same property on the rows path: an entry outside range(n) stands
    # for a product outside the elements
    G = data.draw(st.sampled_from(BASE_GROUPS))
    els, n = list(G.elements), len(G.elements)
    rows = [list(row) for row in G.rows]
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    rows[i][j] = data.draw(st.integers(-2, n + 1))
    table = {(g, h): els[rows[a][b]] if 0 <= rows[a][b] < n else "x"
             for a, g in enumerate(els) for b, h in enumerate(els)}
    expected = old_group_check(els, table)
    if expected is None:
        assert table_of(FiniteGroup(els, rows)) == table
    else:
        with pytest.raises(ValueError) as exc:
            FiniteGroup(els, rows)
        assert str(exc.value) == expected


def test_declared_generators_are_verified_not_trusted():
    # C2 x LOOP_5 declaring only (1, 0), from the C2 factor: a check over the
    # declared generators alone would pass, so the walk must extend them
    els = sorted(itertools.product(range(2), range(5)), key=lambda g: g[::-1])
    table = {(g, h): ((g[0] + h[0]) % 2, LOOP_5[g[1]][h[1]]) for g in els for h in els}
    with pytest.raises(ValueError, match="not associative"):
        FiniteGroup(els, rows_of(els, table), generators=[(1, 0)])


def test_symmetric_is_composition_and_cyclic_is_addition():
    for n in range(1, 6):
        S = FiniteGroup.symmetric(n)
        assert len(S.elements) == math.factorial(n)
        assert all(S.mul(s, t) == tuple(s[k] for k in t) for s in S.elements for t in S.elements)
        assert all(S.mul(s, S.inv(s)) == S.identity for s in S.elements)
    for n in range(1, 13):
        C = FiniteGroup.cyclic(n)
        assert all(C.mul(a, b) == (a + b) % n for a in range(n) for b in range(n))
        assert C == FiniteGroup(range(n), [[(a + b) % n for b in range(n)] for a in range(n)])


@pytest.mark.parametrize("n", range(6))
@given(st.data())
@settings(max_examples=20, deadline=None)
def test_symmetric_composition_matches_the_checked_table(n, data):
    S, T = FiniteGroup.symmetric(n), table_symmetric(n)
    els = T.elements
    assert S.elements == els and S.identity == T.identity
    assert S.generators() == T.generators()
    assert all(S.mul(g, h) == T.mul(g, h) for g in els for h in els)
    assert [S.inv(g) for g in els] == [T.inv(g) for g in els]
    assert sorted(reversed(els), key=S.sort_key) == list(els)
    assert all(ball(S, r) == ball(T, r) for r in range(4))
    gens = data.draw(st.lists(st.sampled_from(els), max_size=3))
    cs, ct = S.cosets(gens), T.cosets(gens)
    assert (cs.subgroup, cs.cosets) == (ct.subgroup, ct.cosets)
    assert [cs.index(g) for g in els] == [ct.index(g) for g in els]
    assert S == FiniteGroup.symmetric(n)
    back = group_from_json(json.loads(json.dumps(S.to_json())))
    assert back == S and hash(back) == hash(S)
    assert all(back.elem_from_json(S.elem_to_json(g)) == g for g in els)


def test_ball_sizes_free():
    assert len(ball(F2, 1)) == 5
    assert len(ball(F2, 2)) == 17
    for r in range(4):
        assert len(ball(F2, r)) == 2 * 3**r - 1


def reference_ball(G, r):
    """The ball each family computed by its own ``ball_elements`` before
    ``ball`` walked ``G.generators()``: the L1 ball of Z^d, and a walk over
    the generators and their inverses for free and finite groups."""
    if isinstance(G, FreeAbelian):  # the L1 ball
        return {v for v in itertools.product(range(-r, r + 1), repeat=G.rank)
                if sum(map(abs, v)) <= r}
    if isinstance(G, FreeGroup):
        gens = G.generators()
        return _bfs(G.mul, [G.identity], gens + [G.inv(g) for g in gens], r)
    gens = list(G.generators())
    return _bfs(G.mul, [G.identity], gens + [G.inv(g) for g in gens], r)


C2_C3 = list(itertools.product(range(2), range(3)))
C2_C3_ROWS = [[C2_C3.index(((g[0] + h[0]) % 2, (g[1] + h[1]) % 3)) for h in C2_C3] for g in C2_C3]
BALL_GROUPS = {
    **{f"F{d}": FreeGroup(d) for d in (1, 2, 3)},
    **{f"Z{d}": FreeAbelian(d) for d in (1, 2, 3)},
    "S3": FiniteGroup.symmetric(3),
    "S4": FiniteGroup.symmetric(4),
    "C5": FiniteGroup.cyclic(5),
    "C2xC3-declared": FiniteGroup(C2_C3, C2_C3_ROWS, generators=[(1, 0), (0, 1)]),
    "C2xC3": FiniteGroup(C2_C3, C2_C3_ROWS),
}


@pytest.mark.parametrize("name", BALL_GROUPS)
def test_ball_is_the_families_own_ball(name):
    G = BALL_GROUPS[name]
    for r in range(4):
        assert ball(G, r) == tuple(sorted(reference_ball(G, r), key=G.sort_key))


def test_box_is_the_sorted_product():
    for d in (1, 2, 3):
        Z = FreeAbelian(d)
        for side in range(5):
            cube = itertools.product(range(side), repeat=d)
            assert box(Z, side) == tuple(sorted(cube, key=Z.sort_key))


def test_ball_abelian_r0():
    assert ball(Z2, 0) == ((0, 0),)


def test_product_set_counts():
    S = sorted_subset(Z2, [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)])
    assert len(product_set(Z2, S, box(Z2, 5))) == 45
    single = sorted_subset(Z2, [(7, -3)])
    assert len(product_set(Z2, S, single)) == len(S)
    assert product_set(F2, ball(F2, 1), ball(F2, 2)) == ball(F2, 3)


# the Klein four-group as an explicit table: elements (a, b) in C2 x C2
KLEIN = FiniteGroup([(a, b) for a in (0, 1) for b in (0, 1)],
                    [[2 * (a ^ c) + (b ^ d) for c in (0, 1) for d in (0, 1)]
                     for a in (0, 1) for b in (0, 1)])
PRODUCT_GROUPS = {"S3": FiniteGroup.symmetric(3), "S4": FiniteGroup.symmetric(4),
                  "C1": FiniteGroup.cyclic(1), "C5": FiniteGroup.cyclic(5),
                  "C12": FiniteGroup.cyclic(12), "Klein": KLEIN}


@st.composite
def finite_product_cases(draw):
    """A finite group, a random S (possibly empty) and an F that is the whole
    group half of the time, else a random subset."""
    G = PRODUCT_GROUPS[draw(st.sampled_from(sorted(PRODUCT_GROUPS)))]
    subset = st.sets(st.sampled_from(G.elements)).map(lambda xs: sorted_subset(G, xs))
    S = draw(subset)
    F = G.elements if draw(st.booleans()) else draw(subset)
    return G, S, F


@settings(max_examples=300, deadline=None)
@given(finite_product_cases())
def test_product_set_equals_the_explicit_products(case):
    # for F = G and S nonempty, product_set returns G without forming a product
    G, S, F = case
    assert product_set(G, S, F) == tuple(sorted({G.mul(s, f) for s in S for f in F},
                                                key=G.sort_key))


def test_folner_z2_cross():
    S = sorted_subset(Z2, [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)])
    F, _ = folner_search(Z2, S, Fraction(2), 20)
    assert len(F) == 25  # box of side 5; side 4 fails the strict bound
    assert len(product_set(Z2, S, F)) == 45


def test_folner_finite_group():
    S3 = FiniteGroup.symmetric(3)
    S = sorted_subset(S3, S3.elements[:3])
    F, _ = folner_search(S3, S, Fraction(101, 100), 1)
    assert set(F) == set(S3.elements)


def test_folner_free_group_exhausts():
    with pytest.raises(FolnerNotFound):
        folner_search(F2, ball(F2, 1), Fraction(2), 4)


def test_folner_recheck_strict():
    S = sorted_subset(Z2, [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)])
    F, _ = folner_search(Z2, S, Fraction(2), 20)
    assert len(product_set(Z2, S, F)) * 1 < 2 * len(F)


def test_hermite_normal_form():
    basis = hermite_normal_form([(2, 0), (0, 2)], 2)
    assert [row for _, row in basis] == [[2, 0], [0, 2]]
    basis = hermite_normal_form([(6, 4), (2, 2)], 2)
    det = basis[0][1][0] * basis[1][1][1]
    assert det == 4  # index of the lattice


def test_cosets_z_mod_2():
    Z = FreeAbelian(1)
    c = Z.cosets([(2,)])
    assert c.num_cosets == 2
    assert c.index((4,)) == c.index((0,))
    assert c.index((3,)) == c.index((1,))
    assert c.index((3,)) != c.index((0,))


def test_cosets_s3():
    S3 = FiniteGroup.symmetric(3)
    c = S3.cosets([(1, 0, 2)])
    assert c.num_cosets == 3
    assert all(len(cs) == 2 for cs in c.cosets)


def test_cosets_z2_mod_2x2():
    c = Z2.cosets([(2, 0), (0, 2)])
    assert c.num_cosets == 4
    assert c.index((3, 5)) == c.index((1, 1))


def test_cached_lookups_agree_with_scans():
    B = box(Z2, 3)
    probe = list(box(Z2, 5))
    assert [g in B for g in probe] == [g in set(B) for g in probe]
    c = Z2.cosets([(2, 1), (0, 3)])
    assert [c.index(g) for g in probe] == [
        c.representatives.index(c.reduce(g)) for g in probe
    ]


def test_cosets_infinite_index():
    with pytest.raises(InfiniteIndex):
        Z2.cosets([(2, 0)])


def leibniz_det(rows):
    d = len(rows)
    total = 0
    for perm in itertools.permutations(range(d)):
        inversions = sum(perm[i] > perm[j] for i in range(d) for j in range(i + 1, d))
        total += (-1) ** inversions * math.prod(rows[i][perm[i]] for i in range(d))
    return total


@st.composite
def full_rank_lattices(draw):
    """(generators, g, integer coefficients) for a full-rank sublattice of Z^2 or Z^3."""
    d = draw(st.sampled_from([2, 3]))
    entry = st.integers(-4, 4)
    gens = draw(st.lists(st.tuples(*[entry] * d), min_size=d, max_size=d)
                .filter(lambda rows: leibniz_det(rows) != 0))
    g = draw(st.tuples(*[st.integers(-20, 20)] * d))
    coeffs = draw(st.lists(st.integers(-5, 5), min_size=d, max_size=d))
    return gens, g, coeffs


@given(full_rank_lattices())
def test_abelian_coset_representatives_are_the_corner_box(case):
    gens, g, coeffs = case
    d = len(g)
    c = FreeAbelian(d).cosets(gens)
    assert all(c.reduce(v) == v for v in c.representatives)
    assert len(c.representatives) == c.num_cosets == abs(leibniz_det(gens))
    lattice_vector = [sum(k * row[i] for k, row in zip(coeffs, gens)) for i in range(d)]
    assert c.contains(tuple(lattice_vector))
    assert c.index(g) == c.index(tuple(a + b for a, b in zip(g, lattice_vector)))


words = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=8)


@given(words, words)
def test_free_canonical_idempotent_and_inverse(u, v):
    g = F2.mul((), tuple(u))  # reduction of u
    h = F2.mul((), tuple(v))
    assert F2.mul(g, ()) == g  # renormalizing changes nothing
    assert F2.mul(g, F2.inv(g)) == ()
    assert F2.inv(F2.mul(g, h)) == F2.mul(F2.inv(h), F2.inv(g))


@given(st.integers(0, 3), st.integers(0, 2))
def test_ball_nesting_and_growth(r, d):
    B_r = ball(F2, r)
    B_next = ball(F2, r + 1)
    assert set(B_r) <= set(B_next)
    assert product_set(F2, ball(F2, 1), B_r) == B_next


@given(st.sets(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=1, max_size=6))
def test_sf_at_least_f(s_els):
    S = sorted_subset(Z2, s_els)
    F = box(Z2, 3)
    assert len(product_set(Z2, S, F)) >= len(F)
