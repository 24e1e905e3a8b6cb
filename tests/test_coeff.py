import math
import operator
import time
from array import array
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gradedsrc.coeff import (
    QQ,
    ZSQRT5,
    ExtField,
    Integers,
    PrimeField,
    QuadRing,
    Rationals,
    TableField,
    ff_extend,
    _monic_polys,
    _prime_factors,
    ideal_membership_I,
    is_prime,
    poly_is_irreducible,
    poly_mod,
    poly_trim,
)
from gradedsrc.errors import DivisionByZero, InexactDivision, NotPrime
from gradedsrc.linalg import MODULUS


def test_prime_field_inverse():
    F5 = PrimeField(5)
    assert F5.inv(2) == 3
    assert F5.mul(2, F5.inv(2)) == 1


def test_rational_inverse():
    assert QQ.inv(Fraction(1, 3)) == 3


def test_f9_generator_squares_to_minus_one():
    F9 = ff_extend(3, 2)
    x = F9.from_index(F9.p)
    assert F9.mul(x, x) == F9.coerce(-1)


def test_ff_extend_descriptors():
    assert ff_extend(3, 2).poly == (1, 0, 1)
    assert ff_extend(2, 1).poly == (0, 1)
    assert ff_extend(2, 3).poly == (1, 1, 0, 1)


def test_ff_extend_rejects_composite():
    with pytest.raises(NotPrime):
        ff_extend(6, 2)


def trial_division_is_irreducible(f, p):
    """The reference: f of degree k > 1 is irreducible iff no monic
    polynomial of degree 1..k/2 divides it."""
    f = poly_trim(f)
    deg = len(f) - 1
    if deg <= 1:
        return deg == 1
    return all(poly_mod(f, g, p) for d in range(1, deg // 2 + 1) for g in _monic_polys(d, p))


@pytest.mark.parametrize("p, max_degree", [(2, 8), (3, 5), (5, 4)])
def test_irreducibility_agrees_with_trial_division(p, max_degree):
    polys = [f for k in range(max_degree + 1) for f in _monic_polys(k, p)]
    assert [f for f in polys if poly_is_irreducible(f, p) != trial_division_is_irreducible(f, p)] == []


def test_ff_extend_large_degree_keeps_the_least_modulus():
    # the modulus trial division picks, x^24 + x^4 + x^3 + x + 1
    assert ff_extend(2, 24).poly == (1, 1, 0, 1, 1) + (0,) * 19 + (1,)


def trial_division_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_is_prime_agrees_with_trial_division():
    assert [n for n in range(-3, 20000) if is_prime(n) != trial_division_is_prime(n)] == []


def test_is_prime_rejects_pseudoprimes():
    carmichael = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185]
    assert not any(map(is_prime, carmichael))
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2, 3, 5 and 7
    assert not is_prime(318665857834031151167461)  # ... to the first 12 prime bases
    assert is_prime(2**61 - 1) and is_prime(2**31 - 1) and not is_prime(2**61 + 1)
    assert PrimeField(2**61 - 1).p == 2**61 - 1


def test_is_prime_refuses_past_its_bound():
    assert is_prime(3317044064679887385961981 - 1) is False  # even, just below the bound
    with pytest.raises(ValueError):
        is_prime(3317044064679887385961981)
    with pytest.raises(ValueError):
        PrimeField(2**89 - 1)


def test_quad_mul_examples():
    assert ZSQRT5.mul((1, 1), (1, 1)) == (-4, 2)
    assert ZSQRT5.mul((2, -1), (2, 1)) == (9, 0)
    assert ZSQRT5.mul((3, 0), (2, -1)) == (6, -3)


def test_ideal_membership_examples():
    assert ideal_membership_I((1, 1))
    assert ideal_membership_I((2, -1))
    assert not ideal_membership_I((1, 0))


def test_quad_divexact():
    assert ZSQRT5.divexact((9, 0), (2, 1)) == (2, -1)
    with pytest.raises(InexactDivision):
        ZSQRT5.divexact((1, 0), (2, 1))
    with pytest.raises(DivisionByZero):
        ZSQRT5.divexact((1, 0), (0, 0))


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        QQ.inv(Fraction(0))
    with pytest.raises(DivisionByZero):
        PrimeField(7).inv(0)


# --- descriptors: the same ring exactly when class and parameters agree -----


F8_MODULI = [(1, 1, 0, 1), (1, 0, 1, 1)]  # x^3 + x + 1 and x^3 + x^2 + 1
F9_MODULI = [(1, 0, 1), (2, 1, 1)]  # x^2 + 1 and x^2 + x + 2
DESCRIPTOR_SPECS = (
    [("Q",), ("Z",), ("Zsqrt-5",)]
    + [("Fp", p) for p in (2, 3, 5, MODULUS)]
    + [(kind, p, k, poly) for kind in ("Fq", "tables")
       for p, k, moduli in ((2, 3, F8_MODULI), (3, 2, F9_MODULI)) for poly in moduli]
)


def build_descriptor(spec):
    """A new descriptor for spec, never an instance shared with an equal one."""
    kind, *params = spec
    if kind == "Fp":
        return PrimeField(*params)
    if kind == "Fq":
        return ExtField(*params)
    if kind == "tables":
        return TableField(ExtField(*params))
    return {"Q": Rationals, "Z": Integers, "Zsqrt-5": QuadRing}[kind]()


def spec_name(spec):
    kind, *params = spec
    if kind == "Fp":
        return f"F{params[0]}"
    if kind in ("Fq", "tables"):
        return f"F{params[0]}^{params[1]}"
    return kind


@given(st.sampled_from(DESCRIPTOR_SPECS), st.sampled_from(DESCRIPTOR_SPECS))
def test_descriptors_are_equal_exactly_when_class_and_parameters_agree(s, t):
    a, b = build_descriptor(s), build_descriptor(t)
    assert (a == b) is (s == t) and (a != b) is (s != t)
    if s == t:
        assert hash(a) == hash(b)
    assert repr(a) == a.name == spec_name(s)


rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6)
quads = st.tuples(st.integers(-50, 50), st.integers(-50, 50))


@given(rationals, rationals, rationals)
def test_rational_ring_axioms(a, b, c):
    assert QQ.mul(a, QQ.add(b, c)) == QQ.add(QQ.mul(a, b), QQ.mul(a, c))
    assert QQ.mul(QQ.mul(a, b), c) == QQ.mul(a, QQ.mul(b, c))
    assert QQ.add(a, QQ.neg(a)) == QQ.zero


@given(quads, quads, quads)
def test_quad_ring_axioms(x, y, z):
    assert ZSQRT5.mul(x, y) == ZSQRT5.mul(y, x)
    assert ZSQRT5.mul(ZSQRT5.mul(x, y), z) == ZSQRT5.mul(x, ZSQRT5.mul(y, z))
    assert ZSQRT5.mul(x, ZSQRT5.add(y, z)) == ZSQRT5.add(ZSQRT5.mul(x, y), ZSQRT5.mul(x, z))


@pytest.mark.parametrize("p,k", [(2, 3), (3, 2), (5, 2), (2, 4)])
def test_extension_field_structure(p, k):
    F = ff_extend(p, k)
    # the defining polynomial has a root (the generator)
    assert F.is_zero(F.eval_poly([F.coerce(c) for c in F.poly], F.from_index(F.p)))
    for x in F.elements():
        if not F.is_zero(x):
            assert F.mul(x, F.inv(x)) == F.one


@given(st.integers(0, 3**4 - 1), st.integers(0, 3**4 - 1), st.integers(0, 3**4 - 1))
def test_extension_field_ring_axioms(i, j, k):
    F = ff_extend(3, 4)
    x, y, z = F.from_index(i), F.from_index(j), F.from_index(k)
    assert F.mul(x, y) == F.mul(y, x)
    assert F.mul(F.mul(x, y), z) == F.mul(x, F.mul(y, z))
    assert F.mul(x, F.add(y, z)) == F.add(F.mul(x, y), F.mul(x, z))


@given(quads, quads)
def test_ideal_closed_under_addition_and_multiplication(x, y):
    # force x, y into the ideal by a correction
    x = x if ideal_membership_I(x) else (x[0] + (x[1] - x[0]) % 3, x[1])
    assert ideal_membership_I(x)
    if ideal_membership_I(y):
        assert ideal_membership_I(ZSQRT5.add(x, y))
    assert ideal_membership_I(ZSQRT5.mul(x, y))


def test_json_roundtrip():
    assert QQ.from_json(QQ.to_json(Fraction(-3, 7))) == Fraction(-3, 7)
    assert QQ.from_json(3) == 3 and QQ.from_json("-6/4") == Fraction(-3, 2)
    F9 = ff_extend(3, 2)
    assert F9.from_json(F9.to_json((2, 1))) == (2, 1)
    assert ZSQRT5.from_json(ZSQRT5.to_json((4, -5))) == (4, -5)
    F7 = PrimeField(7)
    assert F7.from_json(F7.to_json(5)) == 5


# --- TableField: the tables against a digit-by-digit build -------------------


def reference_tables(field):
    """(exp, log, zech, zsub, minus_one) of ``TableField``, built with a
    digit-by-digit index sum for odd p: the build the packed sums replaced."""
    p, k, q = field.p, field.k, field.order
    n = q - 1

    def power(a, e):
        acc = field.one
        while e:
            if e & 1:
                acc = field.mul(acc, a)
            a, e = field.mul(a, a), e >> 1
        return acc

    def digit_add(a, b):
        out, unit = 0, 1
        while a or b:
            a, x = divmod(a, p)
            b, y = divmod(b, p)
            out += (x + y) % p * unit
            unit *= p
        return out

    primes = _prime_factors(n)
    g = next(a for a in map(field.from_index, range(1, q))
             if all(power(a, n // r) != field.one for r in primes))
    h = k // 2
    add = operator.xor if p == 2 else digit_add

    def images(lo, hi):
        out = [0]
        for i in range(lo, hi):
            step, row = field.index(field.mul(field.from_index(p**i), g)), [0]
            for _ in range(p - 1):
                row.append(add(row[-1], step))
            out = [add(a, t) for t in row for a in out]
        return out

    low, high = images(0, h), images(h, k)
    split = p**h
    exp = array("i", [1]) * (2 * n)
    u = 1
    for i in range(1, n):
        hi, lo = divmod(u, split)
        u = exp[i] = add(low[lo], high[hi])
    exp[n:] = exp[:n]
    log = array("i", [0]) * q
    for i, u in enumerate(exp[:n]):
        log[u] = i
    zech = array("i", (log[u + 1 - p] if u % p == p - 1 else log[u + 1] for u in exp[:n]))
    minus_one = log[p - 1]
    zech[minus_one] = -1
    return exp, log, zech, zech[minus_one:] + zech[:minus_one], minus_one


@pytest.mark.parametrize("p,k", [(2, 2), (2, 7), (2, 10), (3, 2), (3, 3), (3, 5), (3, 7),
                                 (5, 2), (5, 3), (5, 5), (7, 2), (7, 3), (7, 4),
                                 (11, 2), (13, 3)])
def test_tables_equal_the_digit_by_digit_build(p, k):
    F = ff_extend(p, k)
    T = TableField(F)
    assert (T.exp, T.log, T.zech, T.zsub, T.minus_one) == reference_tables(F)


def test_odd_characteristic_tables_build_about_as_fast_as_binary_ones():
    # F_{3^12} has half the elements of F_{2^20}; per element its packed
    # digit sum costs a few int operations, as XOR does
    def build_time(F):
        start = time.perf_counter()
        TableField(F)
        return time.perf_counter() - start

    binary, ternary = ff_extend(2, 20), ff_extend(3, 12)
    assert build_time(ternary) < 2 * build_time(binary)


# --- axpy: each field's row operation against the generic loop ---------------


def nonzero_rationals():
    return st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 9))


AXPY_FIELDS = {
    "F5": (PrimeField(5), st.integers(1, 4)),
    "F_MODULUS": (PrimeField(MODULUS), st.integers(1, MODULUS - 1)),
    "F2^3 tables": (TableField(ff_extend(2, 3)), st.integers(1, 7)),
    "F2^7 tables": (TableField(ff_extend(2, 7)), st.integers(1, 127)),
    "F3^2 tables": (TableField(ff_extend(3, 2)), st.integers(1, 8)),
    "F3^5 tables": (TableField(ff_extend(3, 5)), st.integers(1, 242)),
    "F2^3": (ff_extend(2, 3), st.integers(1, 7).map(ff_extend(2, 3).from_index)),
    "Q": (QQ, nonzero_rationals()),
}


def generic_axpy(R, acc, f, vec):
    """acc - f * vec by the ring's sub, mul and is_zero, and the keys it gained."""
    out, gained = dict(acc), []
    for k, b in vec.items():
        s = R.sub(out.get(k, R.zero), R.mul(f, b))
        if R.is_zero(s):
            out.pop(k, None)
        else:
            if k not in out:
                gained.append(k)
            out[k] = s
    return out, gained


@st.composite
def axpy_cases(draw):
    """Sparse acc and vec over one field, with some of vec's entries (or
    all of acc's) chosen so that acc - f * vec cancels there."""
    R, nonzero = AXPY_FIELDS[draw(st.sampled_from(sorted(AXPY_FIELDS)))]
    keys = st.integers(0, 9)
    acc = draw(st.dictionaries(keys, nonzero, max_size=6))
    f = draw(nonzero)
    vec = draw(st.dictionaries(keys, nonzero, max_size=6))
    cancel = set()
    if acc:
        cancel = set(acc) if draw(st.booleans()) else draw(st.sets(st.sampled_from(sorted(acc))))
    for k in sorted(cancel):
        vec[k] = R.mul(R.inv(f), acc[k])  # a - f * (a / f) = 0
    return R, acc, f, vec


@given(axpy_cases())
def test_axpy_matches_the_generic_loop(case):
    R, acc, f, vec = case
    want, want_gained = generic_axpy(R, acc, f, vec)
    got = dict(acc)
    assert R.axpy(got, f, vec) == want_gained
    assert list(got.items()) == list(want.items())


def test_axpy_full_cancellation_empties_acc():
    for R, _ in AXPY_FIELDS.values():
        acc = {0: R.one, 3: R.neg(R.one)}
        assert R.axpy(acc, R.one, dict(acc)) == [] and acc == {}
        assert R.axpy(acc, R.one, {2: R.one}) == [2] and acc == {2: R.neg(R.one)}
