"""Subgroups mapped to right ideals of the group ring via coset sums.

I_H consists of the elements whose coefficient sum over every right coset of
H vanishes; H <= K refines cosets, so I_H <= I_K, and delta_h - delta_1
separates membership.  A subgroup H is given by its coset classifier
``G.cosets(generators)``, which keeps the generators and classifies cosets.
"""

from __future__ import annotations

import random

from .gring import GRElement, GroupRing
from .groups import ball


def ideal_membership_IH(r: GRElement, H) -> bool:
    """True iff every right-coset coefficient sum of r vanishes."""
    if r.ring.group != H.group:
        raise ValueError("element and subgroup live over different groups")
    R = r.ring.coeff
    sums = {}
    for g, c in r.terms.items():
        idx = H.index(g)
        sums[idx] = R.add(sums.get(idx, R.zero), c)
    return all(R.is_zero(v) for v in sums.values())


def separator(ring: GroupRing, g) -> GRElement:
    """delta_g - delta_1; lies in I_H exactly when g is in H."""
    return ring.delta(g) - ring.one()


SAMPLE_RADIUS = 3  # the ball that random_ideal_element draws group elements from, by default
SAMPLE_TERMS = 4  # the coset differences c (delta_h - delta_g) that one random_ideal_element sums


def random_ideal_element(ring: GroupRing, H, rng: random.Random,
                         radius: int = SAMPLE_RADIUS) -> GRElement:
    """Random member of I_H: a sum of coefficient-weighted differences of
    elements lying in a common coset."""
    G = ring.group
    pool = ball(G, radius)
    gens = H.generators or (G.identity,)
    out = ring.zero()
    for _ in range(SAMPLE_TERMS):
        g = pool[rng.randrange(len(pool))]
        h = G.mul(gens[rng.randrange(len(gens))], g)
        c = ring.coeff.coerce(rng.randint(-3, 3))
        out = out + (ring.delta(h, c) - ring.delta(g, c))
    return out


class DistinguishReport:
    def __init__(self, relation: str, samples_checked: int, witness: GRElement | None,
                 witness_in: str | None, ok: bool):
        self.relation = relation  # "equal", "H<=K", "K<=H", "incomparable"
        self.samples_checked = samples_checked
        self.witness = witness
        self.witness_in = witness_in  # which of the two ideals contains the witness
        self.ok = ok


def subgroup_leq(H, K) -> bool:
    return all(K.contains(g) for g in H.generators)


def _escape_element(H, K):
    """Some member of H outside K (H not contained in K); a finite group's
    classifier lists all of H, otherwise a generator escapes."""
    for g in getattr(H, "subgroup", H.generators):
        if not K.contains(g):
            return g
    raise AssertionError("no escaping element found despite non-containment")


SAMPLE_BUDGET = 50  # samples of I_A checked against I_B when A <= B


def distinguish_subgroups(H, K, ring: GroupRing, seed: int = 0) -> DistinguishReport:
    """Containment verification on samples, or an explicit separating element."""
    rng = random.Random(seed)
    h_in_k = subgroup_leq(H, K)
    k_in_h = subgroup_leq(K, H)
    if h_in_k and k_in_h:
        relation = "equal"
    elif h_in_k:
        relation = "H<=K"
    elif k_in_h:
        relation = "K<=H"
    else:
        relation = "incomparable"
    checked, ok, witness, witness_in = 0, True, None, None
    for A, B, a_in_b, ideal in ((H, K, h_in_k, "I_H"), (K, H, k_in_h, "I_K")):
        if a_in_b:  # samples of I_A must lie in I_B
            for _ in range(SAMPLE_BUDGET):
                r = random_ideal_element(ring, A, rng)
                checked += 1
                if not ideal_membership_IH(r, B):
                    ok = False
                    break
        elif witness is None:  # an element of I_A outside I_B
            witness, witness_in = separator(ring, _escape_element(A, B)), ideal
            ok = ok and ideal_membership_IH(witness, A) and not ideal_membership_IH(witness, B)
    return DistinguishReport(relation, checked, witness, witness_in, ok)
