"""Exact linear algebra over the coefficient rings.

Kernels go through one sparse engine, ``kernel_vectors``, which takes one
``{row: entry}`` dict per column and yields one ``{column: entry}`` dict per
kernel vector, holding its nonzero entries in column order, so every stage
after the engine costs in proportion to a vector's support;
``kernel_basis`` is its dense front end.
``rank`` and ``determinant`` work on small dense matrices, lists of row
lists.  Everything runs through the ring descriptor protocol.  Q and Z
kernels run mod a prime first and are checked exactly; integer kernels are
cleared to primitive vectors.  F_q kernels run on element indices, with
the field's log/Zech tables, below the size cap of ``ExtField.index_field``.
Each front hands the engine an entry map, which it applies to a column when
it reaches that column, so a caller that takes only the first kernel vector
converts only the columns up to it; over Q and Z that map also meets any
denominator the prime divides when the engine reaches it.
"""

from __future__ import annotations

from bisect import insort
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import islice
from math import gcd, lcm

from .coeff import QQ, ExtField, Integers, PrimeField, Rationals

MODULUS = (1 << 61) - 1  # Q and Z kernels run mod this prime first
_MODULAR = PrimeField(MODULUS)
_LIFT_BOUND = 1 << 30  # 2 * _LIFT_BOUND**2 < MODULUS: reconstruction is unique


def rank(matrix, ring, ncols=None) -> int:
    """Rank of a dense matrix, read one row at a time.

    Each row is reduced by the echelon rows kept so far, one per pivot
    column, each with entry one at its pivot and zero before it, so a
    reduction changes only the columns after the pivot.  A row with an entry
    left is kept, with its pivot at its first nonzero column.  The walk
    stops once every one of the ``ncols`` columns holds a pivot: a matrix
    whose leading rows have full column rank is read only that far."""
    nc = ncols if ncols is not None else (len(matrix[0]) if matrix else 0)
    is_zero, mul, sub = ring.is_zero, ring.mul, ring.sub
    echelon = {}  # pivot column -> [(column, entry)] of its row's nonzero tail
    for row in matrix:
        if len(echelon) == nc:
            break
        row = list(row)
        for c in range(nc):
            a = row[c]
            if is_zero(a):
                continue
            tail = echelon.get(c)
            if tail is None:
                inv = ring.inv(a)
                echelon[c] = [(j, mul(inv, row[j])) for j in range(c + 1, nc)
                              if not is_zero(row[j])]
                break
            for j, b in tail:
                row[j] = sub(row[j], mul(a, b))
    return len(echelon)


def determinant(matrix, ring):
    """Determinant over a field by elimination."""
    rows = [list(r) for r in matrix]
    n = len(rows)
    det = ring.one
    for c in range(n):
        pr = next((i for i in range(c, n) if not ring.is_zero(rows[i][c])), None)
        if pr is None:
            return ring.zero
        if pr != c:
            rows[c], rows[pr] = rows[pr], rows[c]
            det = ring.neg(det)
        det = ring.mul(det, rows[c][c])
        inv = ring.inv(rows[c][c])
        for i in range(c + 1, n):
            if not ring.is_zero(rows[i][c]):
                f = ring.mul(inv, rows[i][c])
                rows[i] = [ring.sub(a, ring.mul(f, b)) for a, b in zip(rows[i], rows[c])]
    return det


def kernel_vectors(columns, ring):
    """Kernel vectors of a sparse matrix, yielded lazily in free-column order.

    ``columns`` holds one ``{row: entry}`` dict per column; row keys may be
    any hashable values.  Columns are reduced one at a time, in pivot order,
    by the earlier pivot columns whose pivot rows they hold or gain on the
    way, found through an index of pivot rows, so the cost follows the
    arithmetic done, not the number of pivots.  A column that reduces to
    zero is free, and its kernel vector is rebuilt by back-substitution
    through the multipliers that reduced it.  That vector has entry one at
    its free column and is supported on that column and the pivot columns
    before it, so it is the unique such kernel vector: the one reduced row
    echelon form gives.  Each vector is a ``{column: entry}`` dict of its
    nonzero entries, keys ascending; back-substitution visits only the
    pivots it reaches, so a vector costs in proportion to its support, not
    to the number of columns or pivots.  Entries are converted and zero
    entries dropped one column at a time, as the engine reaches it: a caller
    that stops early pays for no more.

    Over Q and Z the engine runs mod p = ``MODULUS`` first, reading a/b as
    a * b^-1 mod p; a denominator divisible by p sends the system to exact
    elimination when the engine reaches it, so only the entries mapped are
    tested.  Columns independent mod p are independent over Q, so each lifted
    vector that passes the exact check is the one exact elimination yields,
    and exact elimination takes over at the first failure, skipping the
    vectors already yielded.  Over Z each vector is cleared to a primitive
    integer vector with positive leading entry.

    Over an ``ExtField`` of order up to the cap the engine runs on the
    element indices of ``from_index``, through ``index_field()``: its
    log/Zech ``TableField``, or ``PrimeField(p)`` when k = 1.  That
    arithmetic is exact, so the vectors are the ones the polynomial
    arithmetic gives; they are decoded back to coefficient tuples.
    """
    if isinstance(ring, ExtField) and (field := ring.index_field()) is not None:
        decode = ring.from_index
        # each distinct entry is encoded once
        for u in _kernel_engine(columns, field, cache(ring.index)):
            yield {c: decode(x) for c, x in u.items()}
        return
    if not isinstance(ring, (Rationals, Integers)):
        yield from _kernel_engine(columns, ring)
        return
    done = 0
    try:
        for u in _kernel_engine(columns, _MODULAR, _mod_p):
            yield _lift(u, columns, ring)
            done += 1
        return
    except ValueError:  # a denominator divisible by p, or a vector that did not lift
        pass
    for v in islice(_kernel_engine(columns, QQ, Fraction), done, None):
        yield clear_denominators(v) if isinstance(ring, Integers) else v


def _mod_p(a):
    """a/b as a * b^-1 mod p; ValueError when p divides b."""
    num, den = a.numerator, a.denominator
    return (num if den == 1 else num * pow(den, -1, MODULUS)) % MODULUS


def _reconstruct(u):
    """a/b = u mod p with |a|, b < ``_LIFT_BOUND``, by Wang's half extended
    Euclid on p and u; ValueError if there is none."""
    r0, r1, s0, s1 = MODULUS, u, 0, 1
    while r1 >= _LIFT_BOUND:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if abs(s1) >= _LIFT_BOUND:
        raise ValueError(f"{u} has no rational reconstruction")
    return Fraction(r1, s1)


def _lift(u, columns, ring):
    """The exact kernel vector a mod-p one reconstructs to; ValueError if an
    entry does not reconstruct or sum_c v_c * col_c = 0 fails over Q."""
    v = {c: _reconstruct(x) for c, x in u.items()}
    w = clear_denominators(v)
    acc = {}
    for c, k in w.items():
        for r, a in columns[c].items():
            num, den = a.as_integer_ratio()  # integer entries keep the sums in int
            acc[r] = acc.get(r, 0) + (k * num if den == 1 else k * a)
    if any(acc.values()):
        raise ValueError("the lifted vector is not in the kernel")
    return w if isinstance(ring, Integers) else v


def _kernel_engine(columns, ring, entry=None):
    """The column engine of ``kernel_vectors`` over a field; the field's
    ``axpy`` does every row operation.  ``entry``, if given, maps a column's
    entries into the field when the engine reaches that column, so a caller
    that stops at the first kernel vector converts only the columns up to
    it."""
    one, is_zero, mul, axpy = ring.one, ring.is_zero, ring.mul, ring.axpy
    # how many columns not yet reduced have an entry in each row, read from
    # the raw columns: an entry that maps to zero still counts
    later = Counter(r for col in columns for r in col)
    # per pivot, in input order: (pivot row, reduced column with entry one
    # there and zero at every earlier pivot row, input column, inverse of the
    # normalising entry, {earlier pivot: multiplier} that reduced it)
    pivots = []
    pivot_of = {}  # pivot row -> its index in pivots
    for c, col in enumerate(columns):
        for r in col:
            later[r] -= 1
        if entry is None:
            vec = {r: a for r, a in col.items() if not is_zero(a)}
        else:
            vec = {r: b for r, a in col.items() if not is_zero(b := entry(a))}
        mults = {}
        # The pivots met, in pivot order.  Reducing by pivot k only adds
        # entries at rows of later pivots (pcol_k is zero at earlier ones),
        # so each fill-in row that is a pivot row is queued, in order, after k.
        queue = sorted(k for r in vec if (k := pivot_of.get(r)) is not None)
        for k in queue:  # the loop also visits the pivots inserted below
            prow, pcol = pivots[k][:2]
            f = vec.get(prow)
            if f is None:  # cancelled, or a duplicate queued after it
                continue
            mults[k] = f
            for r in axpy(vec, f, pcol):
                if (j := pivot_of.get(r)) is not None:
                    insort(queue, j)
        if vec:
            # a pivot row few later columns touch keeps later reductions short
            prow = min(vec, key=later.__getitem__)
            inv = ring.inv(vec[prow])
            pcol = {r: mul(inv, a) for r, a in vec.items()}
            pivot_of[prow] = len(pivots)
            pivots.append((prow, pcol, c, inv, mults))
            continue
        # column c = sum_k mults[k] * pcol_k; expand each pcol_k, last first.
        # Only the pivots still pending in coef are visited: like queue above,
        # pending is kept sorted and gains each key axpy adds to coef.
        v = [(c, one)]  # (column, entry), columns descending
        coef = {k: ring.neg(f) for k, f in mults.items()}  # of pcol_k in v
        pending = sorted(coef)
        while pending:
            t = coef.pop(k := pending.pop(), None)
            if t is None:  # cancelled, or a duplicate already expanded
                continue
            _, _, ck, inv, kmults = pivots[k]
            t = mul(t, inv)
            v.append((ck, t))
            for j in axpy(coef, t, kmults):
                insort(pending, j)
        yield dict(reversed(v))


def kernel_basis(matrix, ring, ncols=None):
    """Exact basis of the right null space of a dense matrix, as dense lists;
    empty list iff the map is injective.  Over Z the vectors are primitive
    integer vectors."""
    nc = ncols if ncols is not None else (len(matrix[0]) if matrix else 0)
    columns = [{i: row[c] for i, row in enumerate(matrix)} for c in range(nc)]
    zero = ring.zero
    return [[v.get(c, zero) for c in range(nc)] for v in kernel_vectors(columns, ring)]


def clear_denominators(vec):
    """Primitive integer vector proportional to a rational ``{column: entry}``
    one, in the same key order; its first entry, the leading one, is > 0."""
    ratios = {c: f.as_integer_ratio() for c, f in vec.items()}
    mult = lcm(*(d for _, d in ratios.values()))
    ints = {c: n * (mult // d) for c, (n, d) in ratios.items()}
    g = gcd(*ints.values())
    if next(iter(ints.values()), 0) < 0:
        g = -g
    return {c: a // g for c, a in ints.items()}
