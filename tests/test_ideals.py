import itertools
import random

import pytest

from gradedsrc.coeff import QQ, ZZ
from gradedsrc.gring import GroupRing
from gradedsrc.groups import FiniteGroup, FreeAbelian, ball
from gradedsrc.ideals import (
    distinguish_subgroups,
    ideal_membership_IH,
    random_ideal_element,
    separator,
    subgroup_leq,
)

Z = FreeAbelian(1)


@pytest.fixture
def qz_ring():
    return GroupRing(Z, QQ)


def H(group, *gens):
    return group.cosets(gens)


def test_membership_even_difference(qz_ring):
    r = qz_ring.one() - qz_ring.delta((2,))
    assert ideal_membership_IH(r, H(Z, (2,)))


def test_membership_odd_difference_fails(qz_ring):
    r = qz_ring.one() - qz_ring.delta((1,))
    assert not ideal_membership_IH(r, H(Z, (2,)))


def test_membership_full_group_is_augmentation(qz_ring):
    full = H(Z, (1,))
    r = qz_ring.one() - qz_ring.delta((1,))
    assert ideal_membership_IH(r, full)
    assert not ideal_membership_IH(qz_ring.one(), full)


def test_mismatched_group_rejected(qz_ring):
    K = FreeAbelian(2).cosets([(2, 0), (0, 2)])
    with pytest.raises(ValueError):
        ideal_membership_IH(qz_ring.one(), K)


def test_separator_characterizes_membership(qz_ring):
    H2 = H(Z, (2,))
    for k in range(-6, 7):
        assert ideal_membership_IH(separator(qz_ring, (k,)), H2) == (k % 2 == 0)


def test_separator_finite_group():
    S3 = FiniteGroup.symmetric(3)
    R = GroupRing(S3, QQ)
    sub = H(S3, (1, 0, 2))
    for g in S3.elements:
        assert ideal_membership_IH(separator(R, g), sub) == sub.contains(g)


def test_random_ideal_elements_are_members(qz_ring):
    rng = random.Random(3)
    for gens in [((2,),), ((3,),), ((6,),)]:
        sub = H(Z, *gens)
        for _ in range(20):
            r = random_ideal_element(qz_ring, sub, rng)
            assert ideal_membership_IH(r, sub)


def test_right_ideal_closure_sampled(qz_ring):
    rng = random.Random(5)
    sub = H(Z, (2,))
    pool = list(ball(Z, 3))
    for _ in range(20):
        r1 = random_ideal_element(qz_ring, sub, rng)
        r2 = random_ideal_element(qz_ring, sub, rng)
        assert ideal_membership_IH(r1 + r2, sub)
        mult = qz_ring.from_terms(
            (pool[rng.randrange(len(pool))], rng.randint(-2, 2)) for _ in range(3)
        )
        assert ideal_membership_IH(r1 * mult, sub)


def test_refinement_law_exhaustive_small(qz_ring):
    """2Z <= Z gives I_{2Z} <= I_Z on every element supported in ball(1) with
    coefficients in a small box; 6Z <= 2Z likewise on sampled elements."""
    H2, H6, full = H(Z, (2,)), H(Z, (6,)), H(Z, (1,))
    support = list(ball(Z, 1))
    for coeffs in itertools.product((-1, 0, 1), repeat=len(support)):
        r = qz_ring.from_terms(zip(support, map(QQ.coerce, coeffs)))
        if ideal_membership_IH(r, H2):
            assert ideal_membership_IH(r, full)
    rng = random.Random(9)
    for _ in range(30):
        r = random_ideal_element(qz_ring, H6, rng)
        assert ideal_membership_IH(r, H2)


def test_subgroup_leq():
    assert subgroup_leq(H(Z, (6,)), H(Z, (2,)))
    assert not subgroup_leq(H(Z, (2,)), H(Z, (6,)))
    assert not subgroup_leq(H(Z, (2,)), H(Z, (3,)))


def test_distinguish_nested(qz_ring):
    rep = distinguish_subgroups(H(Z, (2,)), H(Z, (6,)), qz_ring)
    assert rep.relation == "K<=H"
    assert rep.ok
    assert rep.witness_in == "I_H"
    assert ideal_membership_IH(rep.witness, H(Z, (2,)))
    assert not ideal_membership_IH(rep.witness, H(Z, (6,)))


def test_distinguish_incomparable(qz_ring):
    rep = distinguish_subgroups(H(Z, (2,)), H(Z, (3,)), qz_ring)
    assert rep.relation == "incomparable"
    assert rep.ok
    # the witness is +-(1 - t^2): in I_{2Z} but not I_{3Z}
    assert set(rep.witness.terms) == {(0,), (2,)}


def test_distinguish_equal(qz_ring):
    rep = distinguish_subgroups(H(Z, (2,)), H(Z, (2,), (4,)), qz_ring)
    assert rep.relation == "equal"
    assert rep.witness is None
    assert rep.ok and rep.samples_checked > 0


def test_distinguish_finite_group():
    S3 = FiniteGroup.symmetric(3)
    R = GroupRing(S3, QQ)
    rep = distinguish_subgroups(H(S3, (1, 0, 2)), H(S3, (1, 2, 0)), R)
    assert rep.relation == "incomparable"
    assert rep.ok


def test_distinguish_integer_coefficients():
    R = GroupRing(Z, ZZ)
    rep = distinguish_subgroups(H(Z, (2,)), H(Z, (6,)), R)
    assert rep.ok
