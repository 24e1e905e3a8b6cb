from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gradedsrc import coeff, linalg
from gradedsrc.coeff import QQ, ZZ, ExtField, PrimeField, ff_extend
from gradedsrc.errors import DivisionByZero
from gradedsrc.linalg import (
    clear_denominators,
    determinant,
    kernel_basis,
    kernel_vectors,
    rank,
)

from dense_reference import rref


def frac(m):
    return [[Fraction(a) for a in row] for row in m]


def test_kernel_of_identity_empty():
    assert kernel_basis(frac([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), QQ) == []


def test_kernel_of_row():
    (v,) = kernel_basis(frac([[1, 1]]), QQ)
    assert v == [Fraction(-1), Fraction(1)] or v == [Fraction(1), Fraction(-1)]


def test_rank():
    assert rank(frac([[1, 2], [2, 4]]), QQ) == 1
    assert rank(frac([[1, 0], [0, 1]]), QQ) == 2
    assert rank([[1, 2, 4], [2, 4, 3], [0, 0, 1]], PrimeField(5), ncols=2) == 1


def test_determinant_field():
    F = ff_extend(2, 3)
    one, zero = F.one, F.zero
    assert determinant([[one, zero], [zero, one]], F) == one
    assert determinant([[one, one], [one, one]], F) == zero


def test_integer_kernel_primitive():
    basis = kernel_basis([[2, 4]], ZZ)
    assert basis == [[-2, 1]] or basis == [[2, -1]]
    (v,) = basis
    assert gcd(*[abs(a) for a in v]) == 1
    assert v[0] > 0 or (v[0] == 0 and v[1] > 0)


def test_clear_denominators():
    v = [Fraction(1, 2), Fraction(-1, 3), Fraction(0)]
    assert clear_denominators(v) == [3, -2, 0]
    assert clear_denominators([Fraction(-2, 4)]) == [1]


matrices = st.lists(
    st.lists(st.integers(-5, 5), min_size=4, max_size=4), min_size=2, max_size=5
)


@given(matrices)
def test_kernel_vectors_annihilate_and_count(m):
    mat = frac(m)
    basis = kernel_basis(mat, QQ)
    assert len(basis) == 4 - rank(mat, QQ)
    for v in basis:
        for row in mat:
            assert sum(a * x for a, x in zip(row, v)) == 0


@given(matrices)
def test_integer_kernel_annihilates(m):
    for v in kernel_basis(m, ZZ):
        for row in m:
            assert sum(a * x for a, x in zip(row, v)) == 0


F8 = ff_extend(2, 3)
ENGINE_RINGS = {
    "Q": (QQ, Fraction),
    "Z": (ZZ, int),
    "F5": (PrimeField(5), lambda n: n % 5),
    "F8": (F8, lambda n: F8.from_index(n % 8)),
}


@st.composite
def ring_matrices(draw):
    ring, elem = ENGINE_RINGS[draw(st.sampled_from(sorted(ENGINE_RINGS)))]
    nrows = draw(st.integers(1, 5))
    ncols = draw(st.integers(1, 6))
    entry = st.one_of(st.just(0), st.just(0), st.integers(-3, 7))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    return ring, [[elem(a) for a in row] for row in rows], ncols


F9 = ff_extend(3, 2)  # polynomial arithmetic in odd characteristic
RANK_RINGS = {**{name: ENGINE_RINGS[name] for name in ("Q", "F5", "F8")},
              "F9": (F9, lambda n: F9.from_index(n % 9))}


@st.composite
def rank_matrices(draw):
    """Up to 14 rows of up to 10 entries: random rows, zero rows and sums of
    multiples of earlier rows, with ncols the full width, None or smaller."""
    ring, elem = RANK_RINGS[draw(st.sampled_from(sorted(RANK_RINGS)))]
    width = draw(st.integers(1, 10))
    entry = st.one_of(st.just(0), st.integers(1, 8)).map(elem)
    rows = []
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(["random", "zero", "dependent"]))
        if kind == "zero":
            rows.append([ring.zero] * width)
        elif kind == "dependent" and rows:
            row = [ring.zero] * width
            for src in draw(st.lists(st.sampled_from(rows), min_size=1, max_size=3)):
                f = draw(entry)
                row = [ring.add(a, ring.mul(f, b)) for a, b in zip(row, src)]
            rows.append(row)
        else:
            rows.append(draw(st.lists(entry, min_size=width, max_size=width)))
    ncols = draw(st.one_of(st.none(), st.just(width), st.integers(0, width)))
    return ring, rows, ncols


@given(rank_matrices())
def test_rank_equals_the_rref_pivot_count(case):
    ring, matrix, ncols = case
    assert rank(matrix, ring, ncols) == len(rref(matrix, ring, ncols)[1])


def test_rank_stops_at_full_column_rank():
    class Unread:
        def __iter__(self):
            raise AssertionError("a row after full column rank was read")

    F5 = PrimeField(5)
    assert rank([[1, 2], [1, 3], Unread()], F5) == 2
    assert rank([[1, 2], [2, 4], [0, 3], Unread()], F5) == 2


def rref_vectors(matrix, ring, ncols):
    """Reference kernel vectors from the dense reduced row echelon form over
    the fraction field, one per free column; over Z cleared to primitive."""
    field = QQ if ring == ZZ else ring
    fmatrix = [[Fraction(a) for a in row] for row in matrix] if ring == ZZ else matrix
    rows, pivots = rref(fmatrix, field, ncols)
    assert len(pivots) == rank(fmatrix, field, ncols)
    expected = []
    for free in (c for c in range(ncols) if c not in pivots):
        w = [field.zero] * ncols
        w[free] = field.one
        for i, c in enumerate(pivots):
            w[c] = field.neg(rows[i][free])
        expected.append(clear_denominators(w) if ring == ZZ else w)
    return expected


@given(ring_matrices())
def test_kernel_vectors_match_rref(case):
    ring, matrix, ncols = case
    columns = [{i: row[c] for i, row in enumerate(matrix)} for c in range(ncols)]
    vectors = list(kernel_vectors(columns, ring))
    for v in vectors:
        for row in matrix:
            acc = ring.zero
            for a, x in zip(row, v):
                acc = ring.add(acc, ring.mul(a, x))
            assert ring.is_zero(acc)
        free = max(c for c, x in enumerate(v) if not ring.is_zero(x))
        assert v[free] == ring.one or (ring == ZZ and v[free] != 0)
    assert vectors == rref_vectors(matrix, ring, ncols)


@st.composite
def fill_in_columns(draw):
    """Sparse columns in independent blocks on disjoint rows, interleaved in a
    drawn order.  A block is a chain {r_i: *, r_i+1: *}, i < length, then
    {r_0: *}, then sums of multiples of its earlier columns, whose entries
    cancel.  Reducing {r_0: *} by the pivot at r_0 fills in r_1, the row of
    the next pivot, and so on down the chain."""
    ring, elem = ENGINE_RINGS[draw(st.sampled_from(["Q", "F5", "F8"]))]
    nonzero = st.sampled_from([1, 2, 3, 4, 6, 7]).map(elem)
    blocks = []
    for b in range(draw(st.integers(1, 3))):
        rows = [(b, i) for i in range(draw(st.integers(2, 5)))]
        cols = [{r: draw(nonzero), s: draw(nonzero)} for r, s in zip(rows, rows[1:])]
        cols.append({rows[0]: draw(nonzero)})
        for _ in range(draw(st.integers(0, 3))):
            col = {}
            for src in draw(st.lists(st.sampled_from(cols), min_size=1, max_size=3)):
                f = draw(nonzero)
                for r, a in src.items():
                    col[r] = ring.add(col.get(r, ring.zero), ring.mul(f, a))
            cols.append(col)
        blocks.append(cols)
    columns = []
    while any(blocks):
        cols = draw(st.sampled_from([cols for cols in blocks if cols]))
        columns.append(cols.pop(0))
    return ring, columns


@given(fill_in_columns())
def test_kernel_vectors_match_rref_through_fill_in(case):
    ring, columns = case
    keys = sorted({r for col in columns for r in col})
    matrix = [[col.get(r, ring.zero) for col in columns] for r in keys]
    assert list(kernel_vectors(columns, ring)) == rref_vectors(matrix, ring, len(columns))


class CountedKey:
    """A row key that counts the hashes taken of it in a shared counter."""

    def __init__(self, n, hashes):
        self.n, self.hashes = n, hashes

    def __hash__(self):
        self.hashes[0] += 1
        return hash(self.n)


def test_reduction_looks_up_only_the_pivots_a_column_meets():
    # 400 independent columns meet no pivot, so the work per column is fixed
    # (10 hashes each); testing each column at every earlier pivot row took
    # 83,000 hashes
    hashes = [0]
    columns = [{CountedKey(n, hashes): 1} for n in range(400)]
    assert list(kernel_vectors(columns, PrimeField(5))) == []
    assert hashes[0] < 20 * len(columns)


# --- the mod-p pass over Q and Z, and its fallback to exact elimination -------

P = linalg.MODULUS


def exact_vectors(columns, ring):
    """Kernel vectors from the private Fraction engine alone, no mod-p pass."""
    rational = [{r: Fraction(a) for r, a in col.items()} for col in columns]
    vectors = linalg._kernel_engine(rational, QQ)
    return [clear_denominators(v) if ring == ZZ else v for v in vectors]


small = st.integers(-3, 7)
large = st.sampled_from([P, -P, 3 * P, P - 1, P + 1, 2**40 + 1, -(2**40), 2**40 - 1])
numerators = st.one_of(st.just(0), small, small, small, large)
denominators = st.one_of(st.just(1), st.just(1), st.integers(2, 6), st.sampled_from([P, 2 * P]))


@st.composite
def rational_columns(draw):
    ring = draw(st.sampled_from([QQ, ZZ]))
    nrows = draw(st.integers(1, 5))
    ncols = draw(st.integers(1, 6))
    entry = numerators if ring == ZZ else st.builds(Fraction, numerators, denominators)
    columns = [{r: a for r in range(nrows) if (a := draw(entry))} for _ in range(ncols)]
    return ring, columns


@given(rational_columns())
def test_kernel_vectors_equal_exact_engine(case):
    ring, columns = case
    vectors = list(kernel_vectors(columns, ring))
    assert vectors == exact_vectors(columns, ring)
    kind = int if ring == ZZ else Fraction
    assert all(type(x) is kind for v in vectors for x in v)


@pytest.fixture
def engine_rings(monkeypatch):
    """The ring of every engine run; QQ marks the exact fallback."""
    seen = []
    engine = linalg._kernel_engine

    def spy(columns, ring, entry=None):
        seen.append(ring)
        return engine(columns, ring, entry)

    monkeypatch.setattr(linalg, "_kernel_engine", spy)
    return seen


def test_mod_p_pass_alone_on_small_entries(engine_rings):
    assert kernel_basis(frac([[1, 1], [2, 2]]), QQ) == [[-1, 1]]
    assert engine_rings and QQ not in engine_rings


@pytest.mark.parametrize("ring", [QQ, ZZ])
def test_singular_only_mod_p_falls_back(engine_rings, ring):
    matrix = [[1, 0], [0, P]]
    if ring == QQ:
        matrix = frac(matrix)
    assert kernel_basis(matrix, ring) == []
    assert engine_rings[-1] == QQ


@pytest.mark.parametrize("ring", [QQ, ZZ])
def test_unreconstructible_vector_falls_back(engine_rings, ring):
    # -b/a is past the reconstruction bound; mod 2^61 - 1 its residue
    # reconstructs to the wrong 2097151/2097153, which the exact check rejects
    a, b = 2**40 + 1, 2**40 - 1
    matrix = [[a, b]] if ring == ZZ else frac([[a, b]])
    expected = [[b, -a]] if ring == ZZ else [[Fraction(-b, a), Fraction(1)]]
    assert kernel_basis(matrix, ring) == expected
    assert engine_rings[-1] == QQ


@pytest.mark.parametrize("ring", [QQ, ZZ])
def test_entry_without_reconstruction_falls_back(engine_rings, ring):
    a = 3**30
    with pytest.raises(ValueError):
        linalg._reconstruct(-pow(a, -1, P) % P)
    matrix = [[a, 1]] if ring == ZZ else frac([[a, 1]])
    expected = [[1, -a]] if ring == ZZ else [[Fraction(-1, a), Fraction(1)]]
    assert kernel_basis(matrix, ring) == expected
    assert engine_rings[-1] == QQ


@pytest.mark.parametrize("ring", [QQ, ZZ])
def test_fallback_skips_the_vectors_already_lifted(engine_rings, ring):
    # columns 3 and 5 depend on earlier ones with small coefficients, column 4
    # with 3^31: its vector does not lift, so exact elimination yields 4 and 5
    c0, c1, c2 = (1, 2, 0), (0, 1, 5), (3, 0, 1)
    matrix_columns = [c0, c1, c2, [a + b for a, b in zip(c0, c1)],
                      [3**31 * a + 7 * b for a, b in zip(c0, c1)],
                      [a - b for a, b in zip(c2, c0)]]
    elem = int if ring == ZZ else Fraction
    columns = [{r: elem(a) for r, a in enumerate(col) if a} for col in matrix_columns]
    vectors = list(kernel_vectors(columns, ring))
    assert vectors == exact_vectors(columns, ring)
    assert [max(c for c, x in enumerate(v) if x) for v in vectors] == [3, 4, 5]
    assert engine_rings[-1] == QQ


def test_denominator_divisible_by_p_falls_back(engine_rings):
    matrix = [[Fraction(1, P), Fraction(1)]]
    assert kernel_basis(matrix, QQ) == [[Fraction(-P), Fraction(1)]]
    assert engine_rings == [QQ]


# --- F_q kernels on log/Zech tables ------------------------------------------


def assert_table_ops_agree(F, a, b):
    """The index-field ops on indices a, b decode to the polynomial ops."""
    T, x, y = F.index_field(), F.from_index(a), F.from_index(b)
    for op in ("add", "sub", "mul"):
        assert F.from_index(getattr(T, op)(a, b)) == getattr(F, op)(x, y), (F, op, a, b)
    assert F.from_index(T.neg(a)) == F.neg(x)
    assert T.is_zero(a) == F.is_zero(x)
    if a:
        assert F.from_index(T.inv(a)) == F.inv(x)
    else:
        with pytest.raises(DivisionByZero):
            T.inv(a)


# every field of order at most 27, as ff_extend builds it
SMALL_FIELDS = [ff_extend(p, k) for p, k in
                [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (2, 3), (2, 4), (5, 2), (3, 3)]]


@pytest.mark.parametrize("F", SMALL_FIELDS, ids=repr)
def test_table_ops_equal_polynomial_ops_on_all_pairs(F):
    for a in range(F.order):
        assert F.index(F.from_index(a)) == a
        for b in range(F.order):
            assert_table_ops_agree(F, a, b)


SAMPLED_FIELDS = {"F2^7": ff_extend(2, 7), "F3^5": ff_extend(3, 5)}


@given(st.sampled_from(sorted(SAMPLED_FIELDS)).flatmap(lambda name: st.tuples(
    st.just(SAMPLED_FIELDS[name]),
    st.integers(0, SAMPLED_FIELDS[name].order - 1),
    st.integers(0, SAMPLED_FIELDS[name].order - 1),
)))
def test_table_ops_equal_polynomial_ops_sampled(case):
    assert_table_ops_agree(*case)


KERNEL_FIELDS = {F.name: F for F in (ff_extend(2, 2), ff_extend(2, 3), ff_extend(3, 2),
                                     ff_extend(5, 2), ff_extend(2, 7), ff_extend(7, 1))}


@st.composite
def field_columns(draw):
    """Sparse columns over a table field, some of them sums of multiples of
    earlier ones, so that kernels are not empty and entries cancel."""
    F = KERNEL_FIELDS[draw(st.sampled_from(sorted(KERNEL_FIELDS)))]
    nrows = draw(st.integers(1, 6))
    scalar = st.integers(1, F.order - 1).map(F.from_index)
    entry = st.one_of(st.just(None), scalar)
    columns = []
    for _ in range(draw(st.integers(1, 8))):
        if columns and draw(st.booleans()):
            col = {}
            for src in draw(st.lists(st.sampled_from(columns), min_size=1, max_size=3)):
                f = draw(scalar)
                for r, a in src.items():
                    col[r] = F.add(col.get(r, F.zero), F.mul(f, a))
        else:
            col = {r: a for r in range(nrows) if (a := draw(entry)) is not None}
        columns.append(col)
    return F, columns


@given(field_columns())
def test_kernel_vectors_over_fq_equal_the_polynomial_engine(case):
    F, columns = case
    assert isinstance(F.index_field(), coeff.TableField if F.k > 1 else PrimeField)
    vectors = list(kernel_vectors(columns, F))
    assert vectors == list(linalg._kernel_engine(columns, F))
    assert all(type(x) is tuple and len(x) == F.k for v in vectors for x in v)


def test_field_above_the_cap_skips_the_tables(monkeypatch):
    built = []
    monkeypatch.setattr(coeff, "_tables", built.append)  # and index_field() gives None
    big = ExtField(2, 21, (1, 0, 1) + (0,) * 18 + (1,))  # x^21 + x^2 + 1
    assert big.order > coeff.TABLE_ORDER_CAP
    one, x = big.one, big.from_index(big.p)
    # column 1 is x times column 0
    columns = [{0: one, 1: x}, {0: x, 1: big.mul(x, x)}, {1: big.add(one, x)}]
    assert list(kernel_vectors(columns, big)) == [[x, one, big.zero]]
    assert built == []
    small = ff_extend(2, 3)
    assert kernel_basis([[small.one, small.one]], small) == [[small.one, small.one]]
    assert built == [small]


# --- nonsingularity: a kernel vector exactly when the determinant is zero ---

NONSINGULARITY_FIELDS = {F.name: F for F in (
    ff_extend(2, 2), ff_extend(2, 3), ff_extend(3, 2), ff_extend(2, 7), ff_extend(3, 4),
    ExtField(2, 21, (1, 0, 1) + (0,) * 18 + (1,)),  # x^21 + x^2 + 1, above the table cap
)}


@st.composite
def square_blocks(draw):
    """A random square matrix over a field, or one with a planted singularity:
    a zero column, a column that combines the others, or a repeated row."""
    F = NONSINGULARITY_FIELDS[draw(st.sampled_from(sorted(NONSINGULARITY_FIELDS)))]
    n = draw(st.integers(1, 5))
    entry = st.one_of(st.just(0), st.integers(0, F.order - 1)).map(F.from_index)
    mat = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    plant = draw(st.sampled_from(["none", "zero column", "combination", "repeated row"]))
    if plant == "repeated row" and n == 1:
        plant = "none"
    if plant == "zero column":
        c = draw(st.integers(0, n - 1))
        for row in mat:
            row[c] = F.zero
    elif plant == "combination":
        c = draw(st.integers(0, n - 1))
        fs = draw(st.lists(entry, min_size=n, max_size=n))
        for row in mat:
            acc = F.zero
            for j, (a, f) in enumerate(zip(row, fs)):
                if j != c:
                    acc = F.add(acc, F.mul(f, a))
            row[c] = acc
    elif plant == "repeated row":
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        mat[j] = list(mat[i])
    return F, mat, plant


@given(square_blocks())
def test_kernel_vector_exactly_when_determinant_vanishes(case):
    F, mat, plant = case
    n = len(mat)
    columns = [{i: row[c] for i, row in enumerate(mat)} for c in range(n)]
    nonsingular = next(kernel_vectors(columns, F), None) is None
    assert nonsingular == (not F.is_zero(determinant(mat, F)))
    if plant != "none":
        assert not nonsingular
