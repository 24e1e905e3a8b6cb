from fractions import Fraction
from math import gcd

from hypothesis import given
from hypothesis import strategies as st

from gradedsrc.coeff import QQ, ZZ, PrimeField, ff_extend
from gradedsrc.linalg import (
    clear_denominators,
    determinant,
    kernel_basis,
    kernel_vectors,
    rank,
    rref,
)


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
    # reference vectors from the reduced row echelon form over the fraction field
    field = QQ if ring == ZZ else ring
    fmatrix = [[Fraction(a) for a in row] for row in matrix] if ring == ZZ else matrix
    rows, pivots = rref(fmatrix, field, ncols)
    assert len(vectors) == ncols - rank(fmatrix, field, ncols)
    free_columns = [c for c in range(ncols) if c not in pivots]
    expected = []
    for free, v in zip(free_columns, vectors):
        assert v[free] == ring.one or (ring == ZZ and v[free] != 0)
        assert all(ring.is_zero(x) for x in v[free + 1 :])
        w = [field.zero] * ncols
        w[free] = field.one
        for i, c in enumerate(pivots):
            w[c] = field.neg(rows[i][free])
        expected.append(clear_denominators(w) if ring == ZZ else w)
    assert vectors == expected
