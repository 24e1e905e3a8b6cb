"""Exact coefficient rings.

Elements are plain hashable Python values (Fraction, int, tuple); the ring
descriptor objects below supply the arithmetic.  Two descriptors are the same
ring exactly when their class and ``key`` agree, which is what the group-ring
layer uses to detect mixing.
"""

from __future__ import annotations

import functools
import operator
from array import array
from fractions import Fraction

from .errors import DivisionByZero, InexactDivision, NotPrime


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin to the first 13 prime bases, which decides every n below
    3.317e24 (Sorenson and Webster, Math. Comp. 2017); ValueError above."""
    if n >= 3317044064679887385961981:
        raise ValueError(f"{n} is too large to test for primality")
    if n < 2 or n in _MR_BASES:
        return n in _MR_BASES
    r = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^r with d odd
    for a in _MR_BASES:
        x = pow(a, (n - 1) >> r, n)
        if x == 1:
            continue
        for _ in range(r):  # a^(d * 2^i) = -1 for some i < r, or n is composite
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def _prime_factors(n: int) -> list:
    out, r = [], 2
    while r * r <= n:
        if n % r == 0:
            out.append(r)
            while n % r == 0:
                n //= r
        r += 1
    return out + [n] if n > 1 else out


def _is_int(x) -> bool:
    return type(x) is int  # not bool, not float


# ---------------------------------------------------------------------------
# polynomials over F_p, ascending coefficient tuples


def poly_trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def poly_add(a, b, p):
    n = max(len(a), len(b))
    a = tuple(a) + (0,) * (n - len(a))
    b = tuple(b) + (0,) * (n - len(b))
    return poly_trim((x + y) % p for x, y in zip(a, b))


def poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return poly_trim(out)


def poly_divmod(a, b, p):
    b = poly_trim(b)
    if not b:
        raise DivisionByZero("polynomial division by zero")
    a = list(poly_trim(a))
    inv_lead = pow(b[-1], -1, p)
    q = [0] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b):
        c = a[-1] * inv_lead % p
        d = len(a) - len(b)
        q[d] = c
        for i, y in enumerate(b):
            a[d + i] = (a[d + i] - c * y) % p
        while a and a[-1] == 0:
            a.pop()
    return poly_trim(q), poly_trim(a)


def poly_mod(a, b, p):
    return poly_divmod(a, b, p)[1]


def _monic_polys(deg, p):
    for n in range(p**deg):
        cs = []
        m = n
        for _ in range(deg):
            cs.append(m % p)
            m //= p
        yield tuple(cs) + (1,)


def poly_gcd(a, b, p):
    a, b = poly_trim(a), poly_trim(b)
    while b:
        a, b = b, poly_mod(a, b, p)
    return a


def poly_is_irreducible(f, p) -> bool:
    """Rabin's test: f of degree k > 1 is irreducible over F_p iff f divides
    x^(p^k) - x and gcd(x^(p^(k/q)) - x, f) = 1 for every prime q dividing k
    (Rabin, "Probabilistic algorithms in finite fields", SIAM J. Comput.
    9(2), 1980)."""
    f = poly_trim(f)
    deg = len(f) - 1
    if deg <= 0:
        return False
    if deg == 1:
        return True

    def frobenius(g):  # g^p mod f, by the bits of p from the top
        acc = g
        for bit in bin(p)[3:]:
            acc = poly_mod(poly_mul(acc, acc, p), f, p)
            if bit == "1":
                acc = poly_mod(poly_mul(acc, g, p), f, p)
        return acc

    x = (0, 1)
    powers = [x]  # powers[j] = x^(p^j) mod f
    for _ in range(deg):
        powers.append(frobenius(powers[-1]))
    if powers[deg] != x:
        return False
    return all(len(poly_gcd(poly_add(powers[deg // q], (0, p - 1), p), f, p)) == 1
               for q in _prime_factors(deg))


# ---------------------------------------------------------------------------
# ring descriptors


class _Ring:
    """A ring descriptor: equal to another of its class with an equal
    ``key`` (its parameters, () for a ring without any), hashed by its name
    and key, and shown as its name.  ``axpy``, the row operation of the
    sparse kernel engine, comes from the descriptor's own ``sub``, ``mul``
    and ``is_zero``; fields with a cheaper inline form override it."""

    key = ()

    def __eq__(self, other):
        return type(other) is type(self) and other.key == self.key

    def __hash__(self):
        return hash((self.name, self.key))

    def __repr__(self):
        return self.name

    def axpy(self, acc, f, vec):
        """acc -= f * vec in place on sparse dicts, dropping the entries that
        cancel; returns the keys acc gained, in vec's order."""
        zero, sub, mul, is_zero = self.zero, self.sub, self.mul, self.is_zero
        gained = []
        for k, b in vec.items():
            a = acc.get(k)
            s = sub(zero if a is None else a, mul(f, b))
            if is_zero(s):
                acc.pop(k, None)
            else:
                acc[k] = s
                if a is None:
                    gained.append(k)
        return gained


class _Numbers(_Ring):
    """Q or Z: the values are Python numbers, with their own arithmetic."""

    def add(self, x, y):
        return x + y

    def sub(self, x, y):
        return x - y

    def mul(self, x, y):
        return x * y

    def neg(self, x):
        return -x

    def is_zero(self, x):
        return x == 0


class Rationals(_Numbers):
    """The field Q.  Values are Fraction (eagerly normalized)."""

    name = "Q"

    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, n):
        return Fraction(n)

    def inv(self, x):
        if x == 0:
            raise DivisionByZero("1/0 in Q")
        return 1 / x

    def to_json(self, x):
        return f"{x.numerator}/{x.denominator}"

    def from_json(self, obj):
        if _is_int(obj):
            return Fraction(obj)
        if not isinstance(obj, str):
            raise ValueError(f"{obj!r} is not an int or a \"num/den\" string")
        num, sep, den = obj.partition("/")
        den = int(den) if sep else 1
        if den == 0:
            raise ValueError(f"{obj!r} has a zero denominator")
        return Fraction(int(num), den)


class Integers(_Numbers):
    """The ring Z.  Values are int."""

    name = "Z"

    zero = 0
    one = 1

    def coerce(self, n):
        return int(n)

    def inv(self, x):
        if x in (1, -1):
            return x
        if x == 0:
            raise DivisionByZero("1/0 in Z")
        raise InexactDivision(f"{x} is not a unit of Z")

    def to_json(self, x):
        return x

    def from_json(self, obj):
        if not _is_int(obj):
            raise ValueError(f"{obj!r} is not an int")
        return obj


class PrimeField(_Ring):
    """F_p.  Values are int in [0, p)."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        self.p = p
        self.key = (p,)
        self.name = f"F{p}"
        self.zero = 0
        self.one = 1

    def coerce(self, n):
        return int(n) % self.p

    def add(self, x, y):
        return (x + y) % self.p

    def sub(self, x, y):
        return (x - y) % self.p

    def mul(self, x, y):
        return (x * y) % self.p

    def neg(self, x):
        return -x % self.p

    def inv(self, x):
        if x % self.p == 0:
            raise DivisionByZero(f"1/0 in F_{self.p}")
        return pow(x, -1, self.p)

    def is_zero(self, x):
        return x % self.p == 0

    def axpy(self, acc, f, vec):
        """``_Ring.axpy`` with the arithmetic inline."""
        p, gained = self.p, []
        for k, b in vec.items():
            a = acc.get(k)
            if a is None:
                if s := -f * b % p:
                    acc[k] = s
                    gained.append(k)
            elif s := (a - f * b) % p:
                acc[k] = s
            else:
                del acc[k]
        return gained

    def to_json(self, x):
        return [x]

    def from_json(self, obj):
        if isinstance(obj, list) and len(obj) == 1:
            obj = obj[0]
        if not _is_int(obj):
            raise ValueError(f"{obj!r} is not an int or an array of one int")
        return obj % self.p


class ExtField(_Ring):
    """F_{p^k} as F_p[x]/(poly).  Values are coefficient tuples of length k."""

    def __init__(self, p: int, k: int, poly):
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        poly = poly_trim(poly)
        if len(poly) != k + 1 or poly[-1] != 1:
            raise ValueError("modulus must be monic of degree k")
        if not poly_is_irreducible(poly, p):
            raise ValueError(f"{poly} is reducible over F_{p}")
        self.p = p
        self.k = k
        self.poly = poly
        self.key = (p, k, poly)
        self.order = p**k
        self.name = f"F{p}^{k}"
        self.zero = (0,) * k
        self.one = (1,) + (0,) * (k - 1)

    def coerce(self, n):
        return ((int(n) % self.p),) + (0,) * (self.k - 1)

    def _pad(self, cs):
        return tuple(cs) + (0,) * (self.k - len(cs))

    def add(self, x, y):
        return tuple((a + b) % self.p for a, b in zip(x, y))

    def sub(self, x, y):
        return tuple((a - b) % self.p for a, b in zip(x, y))

    def neg(self, x):
        return tuple(-a % self.p for a in x)

    def mul(self, x, y):
        return self._pad(poly_mod(poly_mul(x, y, self.p), self.poly, self.p))

    def inv(self, x):
        if self.is_zero(x):
            raise DivisionByZero(f"1/0 in {self.name}")
        # extended Euclid in F_p[x]
        r0, r1 = self.poly, poly_trim(x)
        s0, s1 = (), (1,)
        while r1:
            q, r = poly_divmod(r0, r1, self.p)
            r0, r1 = r1, r
            s0, s1 = s1, poly_add(s0, poly_mul(tuple(-c % self.p for c in q), s1, self.p), self.p)
        lead_inv = pow(r0[-1], -1, self.p)
        return self._pad(tuple(c * lead_inv % self.p for c in s0))

    def is_zero(self, x):
        return all(c == 0 for c in x)

    def from_index(self, n: int):
        """Element with coefficient digits of n in base p, least significant first."""
        cs = []
        for _ in range(self.k):
            cs.append(n % self.p)
            n //= self.p
        return tuple(cs)

    def index(self, x) -> int:
        """The n with ``from_index(n) == x``."""
        return sum(c * self.p**i for i, c in enumerate(x))

    def elements(self):
        return (self.from_index(n) for n in range(self.order))

    def eval_poly(self, cs, x):
        """Evaluate a polynomial with coefficients in this field at x (Horner)."""
        acc = self.zero
        for c in reversed(cs):
            acc = self.add(self.mul(acc, x), c)
        return acc

    def index_field(self):
        """This field on its element indices, ints in [0, q), or None above
        ``TABLE_ORDER_CAP``.  For k = 1 that is ``PrimeField(p)``; otherwise
        it is the ``TableField``, built once per process and shared by equal
        fields."""
        if self.order > TABLE_ORDER_CAP:
            return None
        return PrimeField(self.p) if self.k == 1 else _tables(self)

    def to_json(self, x):
        return list(x)

    def from_json(self, obj):
        if not isinstance(obj, list) or len(obj) > self.k or not all(map(_is_int, obj)):
            raise ValueError(f"{obj!r} is not an array of at most {self.k} ints")
        return self._pad(tuple(c % self.p for c in obj))


TABLE_ORDER_CAP = 1 << 20  # larger fields keep the polynomial arithmetic
# an "Fq" input with k > 1 and more elements than this is bad input: the modulus
# search takes seconds for F_{2^128} and more than a minute for F_{2^256}
FIELD_ORDER_CAP = 1 << 64


class TableField(_Ring):
    """F_{p^k} on the element indices of ``ExtField.from_index``, ints in [0, q).

    With g a primitive element, ``exp[i]`` is the index of g^i (the table
    runs twice round, so sums of two logs need no reduction) and ``log``
    inverts it: a product or an inverse is one lookup.  Sums use Zech
    logarithms, ``zech[d]`` = log(1 + g^d) (-1 where 1 + g^d = 0), since
    g^i + g^j = g^(i + zech[j - i]); ``zsub`` is the same table for
    1 - g^d, and ``minus_one`` is log(-1).  The arithmetic needs no XOR, so
    every characteristic works (Huber, "Some comments on Zech's logarithms",
    IEEE Trans. Inf. Theory 36(4), 1990); only ``axpy`` takes the XOR
    shortcut in characteristic 2.  The tables are int32 arrays, 4 q bytes
    each for ``log``, ``zech`` and ``zsub`` and 8 q for ``exp``; build them
    through ``ExtField.index_field``, which keeps one per field.
    """

    zero = 0
    one = 1
    is_zero = staticmethod(operator.not_)

    def __init__(self, field: ExtField):
        p, k, q = field.p, field.k, field.order
        n = q - 1
        self.p, self.order, self.name, self.key = p, q, field.name, field.key

        def power(a, e):
            acc = field.one
            while e:
                if e & 1:
                    acc = field.mul(acc, a)
                a, e = field.mul(a, a), e >> 1
            return acc

        # the first element of index order with multiplicative order n
        primes = _prime_factors(n)
        g = next(a for a in map(field.from_index, range(1, q))
                 if all(power(a, n // r) != field.one for r in primes))
        # times g as a linear map on digit vectors packed w bits a digit, so
        # that a digitwise sum is a few int operations: XOR for p = 2, else
        # a sum that takes p off each digit that reached p (2^(w-1) > p, and
        # adding 2^(w-1) - p to a digit below 2p sets its top bit exactly
        # then).  The low h and the high k - h packed digits of g^i go
        # through one table each, to their image under times g and their
        # share of the index of g^i.
        h = k // 2
        if p == 2:
            w, add = 1, operator.xor
        else:
            w = p.bit_length() + 1
            ones = sum(1 << w * j for j in range(k))
            bias, top = ((1 << w - 1) - p) * ones, (1 << w - 1) * ones

            def add(a, b):
                s = a + b
                return s - ((s + bias & top) >> w - 1) * p

        def images(lo, hi):
            out = {0: (0, 0)}  # packed digits lo..hi-1, shifted to 0 -> (image, index)
            for i in range(lo, hi):
                x = field.mul(field.from_index(p**i), g)
                step, t, row = sum(c << w * j for j, c in enumerate(x)), 0, []
                for d in range(p):
                    row.append((d << w * (i - lo), t, d * p**i))
                    t = add(t, step)
                out = {key | dkey: (add(a, t), ix + dix)
                       for dkey, t, dix in row for key, (a, ix) in out.items()}
            return out

        low, high = images(0, h), images(h, k)
        mask, shift = (1 << w * h) - 1, w * h
        exp = array("i", [1]) * (2 * n)
        u = 1  # g^i, packed
        for i in range(n):
            (a, x), (b, y) = low[u & mask], high[u >> shift]
            exp[i] = x + y
            u = add(a, b)
        exp[n:] = exp[:n]
        log = array("i", [0]) * q
        for i, u in enumerate(exp[:n]):
            log[u] = i
        # 1 + g^d changes digit 0 of g^d only
        zech = array("i", (log[u + 1 - p] if u % p == p - 1 else log[u + 1] for u in exp[:n]))
        minus_one = log[p - 1]  # n // 2 for odd p, 0 for p = 2
        zech[minus_one] = -1
        self.exp, self.log, self.zech = exp, log, zech
        self.zsub = zech[minus_one:] + zech[:minus_one]
        self.minus_one = minus_one

    def mul(self, x, y):
        return self.exp[self.log[x] + self.log[y]] if x and y else 0

    def inv(self, x):
        if not x:
            raise DivisionByZero(f"1/0 in {self.name}")
        return self.exp[self.order - 1 - self.log[x]]

    def neg(self, x):
        return self.exp[self.log[x] + self.minus_one] if x else 0

    def add(self, x, y):
        if not (x and y):
            return x or y
        i = self.log[x]
        z = self.zech[self.log[y] - i]
        return self.exp[i + z] if z >= 0 else 0

    def sub(self, x, y):
        if not y:
            return x
        if not x:
            return self.exp[self.log[y] + self.minus_one]
        i = self.log[x]
        z = self.zsub[self.log[y] - i]
        return self.exp[i + z] if z >= 0 else 0

    def axpy(self, acc, f, vec):
        """``_Ring.axpy``; in characteristic 2 a - f b is a XOR f b, one
        lookup, for the nonzero entries of a sparse vec."""
        if self.p != 2 or not f:
            return super().axpy(acc, f, vec)
        exp, log, gained = self.exp, self.log, []
        lf = log[f]
        for k, b in vec.items():
            t = exp[lf + log[b]]
            a = acc.get(k)
            if a is None:
                acc[k] = t
                gained.append(k)
            elif a == t:
                del acc[k]
            else:
                acc[k] = a ^ t
        return gained


_tables = functools.cache(TableField)  # keyed on the field's key, (p, k, poly)


def ff_extend(p: int, k: int) -> ExtField:
    """F_{p^k} with the lexicographically least monic irreducible modulus.

    Candidates are ordered by the integer whose base-p digits (least
    significant first) are the coefficients below the leading term.
    """
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if k < 1:
        raise ValueError("degree must be >= 1")
    for f in _monic_polys(k, p):
        if poly_is_irreducible(f, p):
            return ExtField(p, k, f)
    raise AssertionError("unreachable: irreducible polynomials exist in every degree")


class QuadRing(_Ring):
    """Z[sqrt(-5)].  Values are (a, b) meaning a + b*sqrt(-5)."""

    name = "Zsqrt-5"

    zero = (0, 0)
    one = (1, 0)

    def coerce(self, n):
        return (int(n), 0)

    def add(self, x, y):
        return (x[0] + y[0], x[1] + y[1])

    def sub(self, x, y):
        return (x[0] - y[0], x[1] - y[1])

    def neg(self, x):
        return (-x[0], -x[1])

    def mul(self, x, y):
        a, b = x
        c, d = y
        return (a * c - 5 * b * d, a * d + b * c)

    def is_zero(self, x):
        return x == (0, 0)

    def norm(self, x):
        return x[0] * x[0] + 5 * x[1] * x[1]

    def inv(self, x):
        if x == (1, 0) or x == (-1, 0):
            return x
        if self.is_zero(x):
            raise DivisionByZero("1/0 in Z[sqrt(-5)]")
        raise InexactDivision(f"{x} is not a unit of Z[sqrt(-5)]")

    def divexact(self, x, y):
        """x / y, raising InexactDivision unless y divides x in the ring."""
        n = self.norm(y)
        if n == 0:
            raise DivisionByZero("division by zero in Z[sqrt(-5)]")
        # multiply by the conjugate, then divide by the (rational) norm
        num = self.mul(x, (y[0], -y[1]))
        if num[0] % n or num[1] % n:
            raise InexactDivision(f"{y} does not divide {x}")
        return (num[0] // n, num[1] // n)

    def to_json(self, x):
        return [x[0], x[1]]

    def from_json(self, obj):
        if not isinstance(obj, list) or len(obj) != 2 or not all(map(_is_int, obj)):
            raise ValueError(f"{obj!r} is not an array of two ints")
        return tuple(obj)


QQ = Rationals()
ZZ = Integers()
ZSQRT5 = QuadRing()


def ideal_membership_I(x) -> bool:
    """Membership in (1+sqrt(-5), 3).

    The ideal is the Z-lattice with Hermite basis {(3, 0), (1, 1)}; reducing
    (a, b) against it leaves a - b mod 3.
    """
    a, b = x
    return (a - b) % 3 == 0
