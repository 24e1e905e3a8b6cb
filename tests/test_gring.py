from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedsrc.coeff import QQ, ZSQRT5, ZZ, ExtField, Integers, QuadRing, Rationals, ff_extend
from gradedsrc.errors import InexactDivision, MixedRings
from gradedsrc.gring import (
    GroupRing,
    IntConstPolyRing,
    SG_ONE,
    SignGradedElement,
    group_ring_witness,
    intconst_witness,
    sign_graded_add,
    sign_graded_is_unit,
    sign_graded_mul,
    sign_graded_witness,
)
from gradedsrc.groups import (
    FiniteGroup,
    FreeAbelian,
    FreeGroup,
    ball,
    product_set,
    sorted_subset,
)
from gradedsrc.srcsolve import truncated_kernel


def test_group_ring_expansion(zf2):
    one = zf2.one()
    a, b = zf2.delta((1,)), zf2.delta((2,))
    p = (one + a) * (one + b)
    assert p.terms == {(): 1, (1,): 1, (2,): 1, (1, 2): 1}


def test_delta_multiplication(zf2):
    g, h = (1, 2), (-2, 1)
    assert zf2.delta(g) * zf2.delta(h) == zf2.delta(zf2.group.mul(g, h))


def test_noncommutativity_witness(zf2):
    one = zf2.one()
    a, b = zf2.delta((1,)), zf2.delta((2,))
    c = (a - one) * (b - one) - (b - one) * (a - one)
    assert c.terms == {(1, 2): 1, (2, 1): -1}


def test_component_and_support(zf2):
    a, b = zf2.delta((1,)), zf2.delta((2,))
    x = a * zf2.delta((), 2) + b * zf2.delta((), 3)
    assert x.terms.get((1,), 0) == 2
    assert x.terms.get((2, 2), 0) == 0
    assert zf2.zero().terms.get((), 0) == 0
    one = zf2.one()
    assert set(((one + a) * (one + b)).terms) == {(), (1,), (2,), (1, 2)}


def test_mixed_rings_rejected(zf2, qf2):
    with pytest.raises(MixedRings):
        zf2.one() + qf2.one()


def test_support_of_product_contained(zf2, rng):
    els = [(), (1,), (-1,), (2,), (1, 2)]
    for _ in range(25):
        x = zf2.from_terms((els[rng.randrange(5)], rng.randint(-2, 2)) for _ in range(3))
        y = zf2.from_terms((els[rng.randrange(5)], rng.randint(-2, 2)) for _ in range(3))
        if x.is_zero() or y.is_zero():
            continue
        support = [sorted_subset(zf2.group, z.terms) for z in (x, y)]
        assert set((x * y).terms) <= set(product_set(zf2.group, *support))


def test_grading_law_single_terms(zf2):
    x = zf2.delta((1, 2), 3)
    y = zf2.delta((-2,), 5)
    assert set((x * y).terms) <= {zf2.group.mul((1, 2), (-2,))}


# --- arithmetic against a naive reference -------------------------------------

F4 = ff_extend(2, 2)
# name -> (ring, a structurally equal but distinct copy, coefficient strategy);
# every strategy can draw zero and values that cancel
COEFFS = {
    "Q": (QQ, Rationals(), st.fractions(min_value=-2, max_value=2, max_denominator=3)),
    "Z": (ZZ, Integers(), st.integers(-2, 2)),
    "F4": (F4, ExtField(2, 2, F4.poly), st.sampled_from(list(F4.elements()))),
    "Zsqrt-5": (ZSQRT5, QuadRing(), st.tuples(st.integers(-2, 2), st.integers(-2, 2))),
}
S3 = FiniteGroup.symmetric(3)
# name -> (group, equal copy, element strategy over a few elements, so keys repeat)
GROUPS = {
    "Z^2": (FreeAbelian(2), FreeAbelian(2), st.tuples(st.integers(-1, 1), st.integers(-1, 1))),
    "F_2": (FreeGroup(2), FreeGroup(2), st.sampled_from(sorted(ball(FreeGroup(2), 1)))),
    "S_3": (S3, FiniteGroup.symmetric(3), st.sampled_from(S3.elements)),
}


def naive(ring, pairs):
    """Accumulate every term from zero, then drop zeros."""
    R = ring.coeff
    acc = {}
    for g, c in pairs:
        acc[g] = R.add(acc.get(g, R.zero), c)
    return {g: c for g, c in acc.items() if not R.is_zero(c)}


def naive_product(ring, x, y):
    return naive(ring, [(ring.group.mul(g, h), ring.coeff.mul(c, d))
                        for g, c in x.terms.items() for h, d in y.terms.items()])


def assert_matches(ring, z, reference):
    assert z.terms == reference
    assert not any(ring.coeff.is_zero(c) for c in z.terms.values())


@given(st.data(), st.sampled_from(sorted(COEFFS)), st.sampled_from(sorted(GROUPS)))
@settings(max_examples=300, deadline=None)
def test_arithmetic_matches_naive_reference(data, coeff, group):
    R, R_copy, coeffs = COEFFS[coeff]
    G, G_copy, elems = GROUPS[group]
    ring, twin = GroupRing(G, R), GroupRing(G_copy, R_copy)
    pairs = st.lists(st.tuples(elems, coeffs), max_size=6)
    p, q = data.draw(pairs), data.draw(pairs)
    x, y = ring.from_terms(p), ring.from_terms(q)
    assert_matches(ring, x, naive(ring, p))
    assert_matches(ring, x + y, naive(ring, p + q))
    assert_matches(ring, x * y, naive_product(ring, x, y))
    # forced cancellations: x + (-x), pairs summing to zero
    assert (x + (-x)).terms == {} and (x - x).terms == {}
    assert ring.from_terms(p + [(g, R.neg(c)) for g, c in reversed(p)]).terms == {}
    # (d_g + d_h)(d_k - d_{h^-1 g k}): the terms at gk cancel unless g = h
    g, h, k = data.draw(elems), data.draw(elems), data.draw(elems)
    u = ring.from_terms([(g, R.one), (h, R.one)])
    v = ring.from_terms([(k, R.one), (G.mul(G.inv(h), G.mul(g, k)), R.neg(R.one))])
    uv = u * v
    assert_matches(ring, uv, naive_product(ring, u, v))
    if g != h:
        assert G.mul(g, k) not in uv.terms
    assert_matches(ring, uv + y, naive(ring, list(uv.terms.items()) + q))
    # an equal but distinct ring mixes freely
    y_twin = twin.from_terms(q)
    assert twin == ring and twin is not ring
    assert_matches(ring, x + y_twin, naive(ring, p + q))
    assert_matches(ring, x * y_twin, naive_product(ring, x, y_twin))


@pytest.mark.parametrize("other", [
    GroupRing(FreeAbelian(2), ZZ),
    GroupRing(FreeAbelian(3), QQ),
    GroupRing(FreeGroup(2), QQ),
], ids=["coefficients", "rank", "family"])
def test_different_rings_raise_mixed_rings(other):
    ring = GroupRing(FreeAbelian(2), QQ)
    x, y = ring.one(), other.one()
    for op in (lambda a, b: a + b, lambda a, b: a * b):
        with pytest.raises(MixedRings):
            op(x, y)
        with pytest.raises(MixedRings):
            op(y, x)


def test_fields_with_different_moduli_do_not_mix():
    f8, f8_other = ExtField(2, 3, (1, 1, 0, 1)), ExtField(2, 3, (1, 0, 1, 1))
    x = GroupRing(S3, f8).one()
    with pytest.raises(MixedRings):
        x * GroupRing(S3, f8_other).one()
    with pytest.raises(MixedRings):
        x + GroupRing(FiniteGroup.cyclic(6), f8).one()


# --- sign-graded fixture -----------------------------------------------------


def test_sign_graded_identity():
    u = SignGradedElement((2, -1), (4, 1))
    assert sign_graded_mul(SG_ONE, u) == u


def test_sign_graded_worked_products():
    u = sign_graded_mul(SignGradedElement((0, 0), (3, 0)), SignGradedElement((0, 0), (2, -1)))
    assert u == SignGradedElement((3, 0), (0, 0))
    sq = SignGradedElement((0, 0), (1, 1))
    assert sign_graded_mul(sq, sq) == SignGradedElement((-2, 0), (0, 0))


def test_sign_graded_rejects_non_ideal():
    with pytest.raises(InexactDivision, match="outside the ideal"):
        SignGradedElement((0, 0), (1, 0))


@pytest.mark.parametrize("make, other", [
    (lambda: sorted_subset(FreeGroup(2), [(1,), (), (1,)]),
     sorted_subset(FreeGroup(2), [(1,)])),
    (lambda: SignGradedElement((2, -1), (4, 1)), SignGradedElement((2, -1), (1, 1))),
], ids=["finite-subset", "sign-graded"])
def test_value_objects_compare_and_hash_by_value(make, other):
    u, v = make(), make()
    assert u is not v and u == v and hash(u) == hash(v)
    assert u != other
    assert {u, v, other} == {v, other}


quad_ideal = st.tuples(st.integers(-6, 6), st.integers(-6, 6)).map(
    lambda x: (x[0] + (x[1] - x[0]) % 3, x[1])
)
sg_elements = st.tuples(
    st.tuples(st.integers(-6, 6), st.integers(-6, 6)), quad_ideal
).map(lambda p: SignGradedElement(*p))


@given(sg_elements, sg_elements, sg_elements)
@settings(max_examples=50)
def test_sign_graded_associative(u, v, w):
    assert sign_graded_mul(sign_graded_mul(u, v), w) == sign_graded_mul(u, sign_graded_mul(v, w))


@given(sg_elements, sg_elements)
@settings(max_examples=50)
def test_sign_graded_grading_multiplicative(u, v):
    s_part = SignGradedElement(u.s, (0, 0))
    i_part = SignGradedElement((0, 0), v.x)
    # S * I stays in I; I * I lands in S
    assert sign_graded_mul(s_part, i_part).s == (0, 0)
    assert sign_graded_mul(i_part, SignGradedElement((0, 0), u.x)).x == (0, 0)


def test_sign_graded_units_small_box():
    units = []
    for a1 in range(-3, 4):
        for b1 in range(-3, 4):
            for a2 in range(-3, 4):
                for b2 in range(-3, 4):
                    if (a2 - b2) % 3:
                        continue
                    u = SignGradedElement((a1, b1), (a2, b2))
                    if sign_graded_is_unit(u):
                        units.append(u)
    assert sorted(units, key=lambda u: u.s) == [
        SignGradedElement((-1, 0), (0, 0)),
        SignGradedElement((1, 0), (0, 0)),
    ]


def test_unit_flag_agrees_with_explicit_inverse():
    u = SignGradedElement((1, 0), (0, 0))
    assert sign_graded_is_unit(u)
    v = SignGradedElement((0, 0), (1, 1))
    assert not sign_graded_is_unit(v)
    # norm-square grows under multiplication by a non-unit, no inverse exists
    w = sign_graded_mul(v, v)
    assert w != SG_ONE
    # y = 5 - sqrt(-5) lies in I and y*y = 10, so eps = 3 + y has inverse -3 + y
    y = SignGradedElement((0, 0), (5, -1))
    assert sign_graded_mul(y, y) == SignGradedElement((10, 0), (0, 0))
    eps = SignGradedElement((3, 0), (5, -1))
    assert sign_graded_is_unit(eps)
    assert sign_graded_mul(eps, SignGradedElement((-3, 0), (5, -1))) == SG_ONE


# --- strong grading witnesses ------------------------------------------------


def test_strongly_graded_group_ring(qf2):
    rep = group_ring_witness(qf2, (1,))
    assert rep.ok
    ((u, v),) = rep.witness
    assert u * v == qf2.one()


def test_strongly_graded_sign_fixture():
    rep = sign_graded_witness(-1)
    assert rep.ok
    total = SignGradedElement((0, 0), (0, 0))
    for u, v in rep.witness:
        total = sign_graded_add(total, sign_graded_mul(u, v))
    assert total == SG_ONE


def test_strongly_graded_intconst_fails_negative():
    P = IntConstPolyRing()
    assert not intconst_witness(P, -1).ok
    assert intconst_witness(P, 0).ok


# --- integer-constant-term polynomial ring -----------------------------------


def test_intconst_constant_restriction():
    P = IntConstPolyRing()
    with pytest.raises(ValueError):
        P.make([P.base.delta((1,))])
    f = P.make([P.base.delta((), 2), P.base.delta((1,))])
    assert len(f) == 2


def test_intconst_closure(rng):
    P = IntConstPolyRing()
    base = P.base
    els = [(), (1,), (2,), (-1,)]

    def rand_poly():
        coeffs = [base.delta((), rng.randint(-2, 2))]
        for _ in range(rng.randrange(3)):
            coeffs.append(
                base.from_terms(
                    (els[rng.randrange(4)], rng.randint(-2, 2)) for _ in range(2)
                )
            )
        return P.make(coeffs)

    for _ in range(30):
        f, g = rand_poly(), rand_poly()
        P.make(P.add(f, g))  # no ValueError: closed under +
        P.make(P.mul(f, g))  # and under *


# --- truncated non-zero-divisor checks ---------------------------------------
# left multiplication by r has zero kernel on elements supported in a ball


def test_nzd_group_element(qf2):
    assert truncated_kernel([[qf2.delta((1,))]], 2).basis == []


def test_nzd_one_plus_t(qz):
    assert truncated_kernel([[qz.one() + qz.delta((1,))]], 3).basis == []


def test_nzd_fails_with_torsion():
    C2 = FiniteGroup.cyclic(2)
    qc2 = GroupRing(C2, QQ)
    assert truncated_kernel([[qc2.one() + qc2.delta(1)]], 1).basis != []


def test_json_roundtrip(qf2):
    x = qf2.from_terms([((1, -2), Fraction(3, 2)), ((), Fraction(-1))])
    assert qf2.elem_from_json(qf2.elem_to_json(x)) == x
