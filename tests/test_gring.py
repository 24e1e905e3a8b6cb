from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedsrc.coeff import QQ
from gradedsrc.errors import InexactDivision, MixedRings
from gradedsrc.gring import (
    GroupRing,
    IntConstPolyRing,
    SG_ONE,
    SignGradedElement,
    homog_nzd_check,
    sign_graded_add,
    sign_graded_is_unit,
    sign_graded_mul,
    strongly_graded_check,
)
from gradedsrc.groups import FiniteGroup, FiniteSubset, FreeGroup, product_set


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
    x = a.scale(2) + b.scale(3)
    assert x.component((1,)) == 2
    assert x.component((2, 2)) == 0
    assert zf2.zero().component(()) == 0
    one = zf2.one()
    assert set(((one + a) * (one + b)).support().elements) == {(), (1,), (2,), (1, 2)}


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
        prod_support = set((x * y).support().elements)
        assert prod_support <= set(product_set(x.support(), y.support()).elements)


def test_grading_law_single_terms(zf2):
    x = zf2.delta((1, 2), 3)
    y = zf2.delta((-2,), 5)
    assert set((x * y).support().elements) <= {zf2.group.mul((1, 2), (-2,))}


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
    (lambda: FiniteSubset.of(FreeGroup(2), [(1,), (), (1,)]),
     FiniteSubset.of(FreeGroup(2), [(1,)])),
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
    rep = strongly_graded_check(qf2, (1,))
    assert rep.ok
    ((u, v),) = rep.witness
    assert u * v == qf2.one()


def test_strongly_graded_sign_fixture():
    rep = strongly_graded_check("example-sign-graded", -1)
    assert rep.ok
    total = SignGradedElement((0, 0), (0, 0))
    for u, v in rep.witness:
        total = sign_graded_add(total, sign_graded_mul(u, v))
    assert total == SG_ONE


def test_strongly_graded_intconst_fails_negative():
    P = IntConstPolyRing()
    assert not strongly_graded_check(P, -1).ok
    assert strongly_graded_check(P, 0).ok


# --- integer-constant-term polynomial ring -----------------------------------


def test_intconst_constant_restriction():
    P = IntConstPolyRing()
    with pytest.raises(ValueError):
        P.make([P.base.delta((1,))])
    f = P.make([P.base.from_int(2), P.base.delta((1,))])
    assert len(f) == 2


def test_intconst_closure(rng):
    P = IntConstPolyRing()
    base = P.base
    els = [(), (1,), (2,), (-1,)]

    def rand_poly():
        coeffs = [base.from_int(rng.randint(-2, 2))]
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


def test_nzd_group_element(qf2):
    assert homog_nzd_check(qf2, qf2.delta((1,)), 2)


def test_nzd_one_plus_t(qz):
    assert homog_nzd_check(qz, qz.one() + qz.delta((1,)), 3)


def test_nzd_fails_with_torsion():
    C2 = FiniteGroup.cyclic(2)
    qc2 = GroupRing(C2, QQ)
    assert not homog_nzd_check(qc2, qc2.one() + qc2.delta(1), 1)


def test_json_roundtrip(qf2):
    x = qf2.from_terms([((1, -2), Fraction(3, 2)), ((), Fraction(-1))])
    assert qf2.elem_from_json(qf2.elem_to_json(x)) == x
