"""Group-ring elements plus the two graded fixtures.

A GRElement is a finite formal sum over canonical group-element keys with
nonzero coefficients from one of the exact base rings.  The fixtures are the
sign-graded ring Z[sqrt(-5)] (+) its ideal (1+sqrt(-5), 3), and the ring of
polynomials over ZF_2 with integer constant term.
"""

from __future__ import annotations

from . import coeff as cf
from .coeff import QQ, ZSQRT5, ideal_membership_I
from .errors import InexactDivision, MixedRings
from .groups import FreeGroup
from .linalg import determinant


class GroupRing:
    """Descriptor for a group ring: group + coefficient ring."""

    def __init__(self, group, coefficients):
        self.group = group
        self.coeff = coefficients

    def zero(self) -> "GRElement":
        return GRElement(self, {})

    def one(self) -> "GRElement":
        return self.delta(self.group.identity)

    def delta(self, g, c=None) -> "GRElement":
        c = self.coeff.one if c is None else c
        if self.coeff.is_zero(c):
            return self.zero()
        return GRElement(self, {g: c})

    def from_terms(self, pairs) -> "GRElement":
        add, is_zero = self.coeff.add, self.coeff.is_zero
        terms = {}
        for g, c in pairs:
            acc = terms.get(g)
            terms[g] = c if acc is None else add(acc, c)
        return GRElement(self, {g: c for g, c in terms.items() if not is_zero(c)})

    def elem_to_json(self, x: "GRElement"):
        keys = sorted(x.terms, key=self.group.sort_key)
        return [[self.group.elem_to_json(g), self.coeff.to_json(x.terms[g])] for g in keys]

    def elem_from_json(self, obj) -> "GRElement":
        return self.from_terms(
            (self.group.elem_from_json(g), self.coeff.from_json(c)) for g, c in obj
        )

    def __eq__(self, other):
        return (
            type(other) is GroupRing and other.group == self.group and other.coeff == self.coeff
        )

    def __hash__(self):
        return hash(("gring", self.group, self.coeff))

    def __repr__(self):
        return f"GroupRing({self.group!r}, {self.coeff!r})"


class GRElement:
    """Finite formal sum; zero coefficients are never stored.

    Every coefficient ring a GroupRing is built over is a domain (Q, Z, F_p
    with p checked prime, F_q with a modulus checked irreducible, Z[sqrt(-5)]),
    so a product of two nonzero coefficients is nonzero and is stored on a new
    key unchecked; only a sum on a repeated key can cancel, and then the key
    is deleted."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: GroupRing, terms: dict):
        self.ring = ring
        self.terms = terms

    def _same_ring(self, other):
        if not isinstance(other, GRElement) or (
            other.ring is not self.ring and other.ring != self.ring
        ):
            raise MixedRings("group-ring operands from different rings")

    def __add__(self, other):
        self._same_ring(other)
        add, is_zero = self.ring.coeff.add, self.ring.coeff.is_zero
        out = dict(self.terms)
        for g, c in other.terms.items():
            acc = out.get(g)
            if acc is None:
                out[g] = c
            elif is_zero(s := add(acc, c)):
                del out[g]
            else:
                out[g] = s
        return GRElement(self.ring, out)

    def __neg__(self):
        R = self.ring.coeff
        return GRElement(self.ring, {g: R.neg(c) for g, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._same_ring(other)
        gmul, R = self.ring.group.mul, self.ring.coeff
        add, mul, is_zero = R.add, R.mul, R.is_zero
        out = {}
        get = out.get
        for g, c in self.terms.items():
            for h, d in other.terms.items():
                k = gmul(g, h)
                acc = get(k)
                if acc is None:
                    out[k] = mul(c, d)
                elif is_zero(s := add(acc, mul(c, d))):
                    del out[k]
                else:
                    out[k] = s
        return GRElement(self.ring, out)

    def __eq__(self, other):
        return (
            isinstance(other, GRElement)
            and other.ring == self.ring
            and other.terms == self.terms
        )

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=self.ring.group.sort_key)
        return " + ".join(f"{self.terms[g]!r}*d({g})" for g in keys)


# ---------------------------------------------------------------------------
# fixture: Z[sqrt(-5)] (+) I, graded by {+1, -1}

PHI_DIVISOR = (2, -1)  # 2 - sqrt(-5); I^2 is the principal ideal it generates


class SignGradedElement:
    """(s, x) in S (+) I with s, x in Z[sqrt(-5)] and x in the ideal."""

    def __init__(self, s: tuple, x: tuple):
        self.s = s
        self.x = x
        if not ideal_membership_I(x):
            raise InexactDivision(f"{x} lies outside the ideal (1+sqrt(-5), 3)")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.s, self.x) == (other.s, other.x)

    def __hash__(self):
        return hash((self.s, self.x))


SG_ONE = SignGradedElement((1, 0), (0, 0))


def sign_graded_add(u: SignGradedElement, v: SignGradedElement) -> SignGradedElement:
    return SignGradedElement(ZSQRT5.add(u.s, v.s), ZSQRT5.add(u.x, v.x))


def sign_graded_mul(u: SignGradedElement, v: SignGradedElement) -> SignGradedElement:
    """(s,x)(s',x') = (ss' + xx'/(2-sqrt(-5)), xs' + sx'); the division is exact
    because xx' lies in the square of the ideal."""
    phi = ZSQRT5.divexact(ZSQRT5.mul(u.x, v.x), PHI_DIVISOR)
    s = ZSQRT5.add(ZSQRT5.mul(u.s, v.s), phi)
    x = ZSQRT5.add(ZSQRT5.mul(u.x, v.s), ZSQRT5.mul(u.s, v.x))
    return SignGradedElement(s, x)


def sign_graded_is_unit(u: SignGradedElement) -> bool:
    """Unit test via the determinant of multiplication on the rank-4 Z-lattice.

    The ring is commutative, so (s,x) is a unit iff multiplication by it is a
    unimodular map of the underlying lattice Z^2 (+) I.
    """
    lattice = [
        SignGradedElement((1, 0), (0, 0)),
        SignGradedElement((0, 1), (0, 0)),
        SignGradedElement((0, 0), (3, 0)),
        SignGradedElement((0, 0), (1, 1)),
    ]
    # coordinates in the basis {(1,0)}, {(0,1)}, {(3,0)}, {(1,1)} of S (+) I
    images = [sign_graded_mul(u, b) for b in lattice]
    # as Fractions: QQ.inv of an int would be a float
    cols = [list(map(QQ.coerce, (*p.s, (p.x[0] - p.x[1]) // 3, p.x[1]))) for p in images]
    return determinant(cols, QQ) in (1, -1)  # a matrix and its transpose share it


# ---------------------------------------------------------------------------
# fixture: polynomials over ZF_2 with integer constant term


class IntConstPolyRing:
    """Polynomials over S = ZF_2 whose constant term is an integer multiple of 1.

    Graded by Z with degree-0 component Z and every negative component zero.
    """

    def __init__(self):
        self.base = GroupRing(FreeGroup(2), cf.ZZ)

    def make(self, coeffs) -> tuple:
        """Validate and trim a coefficient list (ascending degree)."""
        coeffs = list(coeffs)
        if coeffs:
            const = coeffs[0]
            if any(g != self.base.group.identity for g in const.terms):
                raise ValueError("constant term must be an integer multiple of 1")
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        return tuple(coeffs)

    def zero(self):
        return ()

    def one(self):
        return (self.base.one(),)

    def add(self, f, g):
        n = max(len(f), len(g))
        zero = self.base.zero()
        f = tuple(f) + (zero,) * (n - len(f))
        g = tuple(g) + (zero,) * (n - len(g))
        return self.make(a + b for a, b in zip(f, g))

    def mul(self, f, g):
        if not f or not g:
            return ()
        out = [self.base.zero()] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            for j, b in enumerate(g):
                out[i + j] = out[i + j] + a * b
        return self.make(out)


# ---------------------------------------------------------------------------
# strong-grading witnesses


class WitnessReport:
    def __init__(self, ok: bool, witness: list | None, reason: str):
        self.ok = ok
        self.witness = witness
        self.reason = reason


def group_ring_witness(ring: GroupRing, g) -> WitnessReport:
    """delta(g) * delta(g^-1) = 1: a group ring is strongly graded by its group."""
    u, v = ring.delta(g), ring.delta(ring.group.inv(g))
    return WitnessReport((u * v) == ring.one(), [(u, v)], "delta(g) * delta(g^-1) = 1")


def sign_graded_witness(g) -> WitnessReport:
    """Witness for 1 in R_g R_{g^-1} in the sign-graded fixture, graded by {+1, -1}."""
    if g == 1:
        return WitnessReport(True, [(SG_ONE, SG_ONE)], "1 * 1 = 1")
    if g == -1:
        pairs = [
            (SignGradedElement((0, 0), (3, 0)), SignGradedElement((0, 0), (2, -1))),
            (SignGradedElement((0, 0), (1, 1)), SignGradedElement((0, 0), (1, 1))),
        ]
        total = SignGradedElement((0, 0), (0, 0))
        for u, v in pairs:
            total = sign_graded_add(total, sign_graded_mul(u, v))
        ok = total == SG_ONE
        return WitnessReport(ok, pairs, "3*(2-sqrt(-5)) + (1+sqrt(-5))^2 over 2-sqrt(-5)")
    return WitnessReport(False, None, "grading group is {+1, -1}")


def intconst_witness(P: IntConstPolyRing, g) -> WitnessReport:
    """Witness for 1 in R_g R_{g^-1} in the polynomial fixture, graded by Z."""
    if g == 0:
        one = P.one()
        return WitnessReport(True, [(one, one)], "R_0 = Z contains 1")
    return WitnessReport(False, None, "every negative component is zero")
