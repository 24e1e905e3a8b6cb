"""Underdetermined linear systems over group rings: Folner lifting, exact
base-ring solving, assembly, verification, and truncated-kernel certificates.

A grid of group-ring elements acts on a vector of them through
``apply_matrix``; ``verify_solution`` substitutes through it, and
``truncated_kernel`` certifies any such grid, Theta's included.

Restricted to ordinary group rings, so every lifted entry is the bare
coefficient (a_ij)_{g f^-1}; the homogeneous units used in the general graded
argument are just the group elements themselves.
"""

from __future__ import annotations

from fractions import Fraction

from .coeff import ExtField, Integers, PrimeField, Rationals
from .errors import UnexpectedEmptyKernel
from .gring import GroupRing
from .groups import ball, folner_search, sorted_subset
# kernel_basis stays importable from this module: perfbench's self-tests reach it here
from .linalg import kernel_basis, kernel_vectors  # noqa: F401


class LinearSystem:
    """m x n coefficient grid over one group ring, m < n."""

    def __init__(self, ring: GroupRing, m: int, n: int, a: tuple):
        self.ring = ring
        self.m = m
        self.n = n
        self.a = a  # tuple of m tuples of n GRElements
        if not (0 < m < n):
            raise ValueError("need 0 < m < n")
        if len(a) != m or any(len(row) != n for row in a):
            raise ValueError("coefficient grid shape mismatch")
        for row in a:
            for x in row:
                if x.ring != ring:
                    raise ValueError("coefficient from a different ring")

    def union_support(self) -> tuple:
        return sorted_subset(self.ring.group, (g for row in self.a for x in row for g in x.terms))


class LiftedSystem:
    """The base-ring system of a grid lifted to columns (j, f), rows (g, i).

    ``columns`` holds one ``{row position: nonzero entry}`` dict per column,
    positions into ``row_index``."""

    def __init__(self, columns: list, row_index: list, col_index: list, base_ring):
        self.columns = columns
        self.row_index = row_index  # (g, i) pairs, g-major
        self.col_index = col_index  # (j, f) pairs, in the caller's order
        self.base_ring = base_ring

    @property
    def matrix(self) -> list:
        """The dense matrix, rows by columns."""
        rows = [[self.base_ring.zero] * len(self.columns) for _ in self.row_index]
        for c, col in enumerate(self.columns):
            for r, a in col.items():
                rows[r][c] = a
        return rows


class SolutionVector:
    def __init__(self, xs: tuple, verified: bool):
        self.xs = xs  # n GRElements
        self.verified = verified


def lift_system(a, col_index: list, SF=()) -> LiftedSystem:
    """Entry at row (g, i), column (j, f) is the coefficient of g f^-1 in a_ij,
    so column (j, f) holds each term c*h of a_ij at row (h f, i).  Rows follow
    ``SF`` when the caller gives it, else the order the products are met.
    One pass: each unknown's terms (i, h, c) are taken once, h by its position
    in the support S; each f's products h f are formed once, into its list of
    first rows; each column is filled from its f's list."""
    ring, m = a[0][0].ring, len(a)
    mul = ring.group.mul
    S = dict.fromkeys(h for row in a for x in row for h in x.terms)
    pos = {h: k for k, h in enumerate(S)}
    terms = [[(i, pos[h], c) for i, row in enumerate(a) for h, c in row[j].terms.items()]
             for j in range(len(a[0]))]
    first_row = {g: r * m for r, g in enumerate(SF)}  # of (g, 0); (g, i) is i rows on
    at = {}  # f -> [first row of h f for h in S]
    columns = []
    for j, f in col_index:
        rows = at.get(f)
        if rows is None:
            rows = at[f] = []
            for h in S:
                rows.append(first_row.setdefault(mul(h, f), len(first_row) * m))
        columns.append({rows[k] + i: c for i, k, c in terms[j]})
    row_index = [(g, i) for g in first_row for i in range(m)]
    return LiftedSystem(columns, row_index, col_index, ring.coeff)


def assemble_solution(ring: GroupRing, n: int, col_index: list, v) -> tuple:
    """x_j = sum_f delta_f * v_(j, f), the n group-ring elements of a lifted
    kernel vector ``v``, a ``{column: nonzero entry}`` dict as
    ``kernel_vectors`` yields it; only its entries are read."""
    terms = [[] for _ in range(n)]
    for c, x in v.items():
        j, f = col_index[c]
        terms[j].append((f, x))
    xs = tuple(ring.from_terms(t) for t in terms)
    if all(x.is_zero() for x in xs):
        raise AssertionError("zero assembly from a nonzero kernel vector")
    return xs


def apply_matrix(a, xs) -> list:
    """(sum_j a_ij x_j)_i for a grid ``a`` of group-ring elements; ValueError
    unless every row has one entry per x_j."""
    zero = a[0][0].ring.zero()
    return [sum((aij * x for aij, x in zip(row, xs, strict=True)), zero) for row in a]


def verify_solution(sys: LinearSystem, xs) -> bool:
    if all(x.is_zero() for x in xs):
        return False
    return all(y.is_zero() for y in apply_matrix(sys.a, xs))


def solve_src(sys: LinearSystem, budget: int = 64) -> SolutionVector:
    """Full Folner pipeline; the returned solution is verified by substitution."""
    if not isinstance(sys.ring.coeff, (Rationals, Integers, PrimeField, ExtField)):
        raise TypeError(f"unsupported coefficient ring {sys.ring.coeff!r}")
    S = sys.union_support()
    if not S:
        xs = (sys.ring.one(),) + tuple(sys.ring.zero() for _ in range(sys.n - 1))
        return SolutionVector(xs, verified=True)
    ratio = Fraction(sys.n, sys.m)
    F, SF = folner_search(sys.ring.group, S, ratio, budget)
    col_index = [(j, f) for f in F for j in range(sys.n)]
    lifted = lift_system(sys.a, col_index, SF)
    assert len(lifted.row_index) < len(col_index)
    kv = next(kernel_vectors(lifted.columns, lifted.base_ring), None)
    if kv is None:
        raise UnexpectedEmptyKernel("rank bound violated; logic fault")
    xs = assemble_solution(sys.ring, sys.n, col_index, kv)
    if not verify_solution(sys, xs):
        raise AssertionError("assembled solution failed exact substitution")
    return SolutionVector(xs, verified=True)


class TruncatedKernelReport:
    def __init__(self, radius: int, domain: tuple, ncols: int, rank: int, basis: list):
        self.radius = radius
        self.domain = domain
        self.ncols = ncols
        self.rank = rank
        self.basis = basis  # list of n-tuples of GRElements


def truncated_kernel(a, radius: int) -> TruncatedKernelReport:
    """Kernel of ``apply_matrix(a, .)`` restricted to x_j supported in
    ball(radius).  An empty basis certifies injectivity up to the truncation.
    Theta's certificate is this kernel for its matrix over L[F_2]."""
    ring, n = a[0][0].ring, len(a[0])
    D = ball(ring.group, radius)
    col_index = [(j, f) for j in range(n) for f in D]
    lifted = lift_system(a, col_index)
    basis = [assemble_solution(ring, n, col_index, v)
             for v in kernel_vectors(lifted.columns, lifted.base_ring)]
    return TruncatedKernelReport(radius=radius, domain=D, ncols=len(col_index),
                                 rank=len(col_index) - len(basis), basis=basis)


def intconst_truncated_kernel(poly_ring, a, max_degree: int, radius: int):
    """Truncated kernel for systems over the integer-constant-term polynomial
    ring, with coefficients taken from its degree-1 component S = ZF_2.

    Unknowns are polynomials of degree <= max_degree whose higher coefficients
    are supported in ball(radius); the constant term is an integer.  Returns
    (rank, ncols, basis) with basis entries as tuples of polynomial values.

    Multiplying by a raises every degree by one, so the kernel splits by
    degree: ``truncated_kernel(a, 0)`` for the constant term (ball(0) = {1})
    and ``truncated_kernel(a, radius)`` for each degree 1..max_degree.  The
    basis keeps the order of one kernel over all columns, laid out by unknown,
    degree and ball position: by each vector's last nonzero column.
    """
    zero = poly_ring.base.zero()
    blocks = [(0, truncated_kernel(a, 0))]
    if max_degree:
        high = truncated_kernel(a, radius)
        blocks += [(d, high) for d in range(1, max_degree + 1)]
    found = []
    for d, report in blocks:
        pos = {g: p for p, g in enumerate(report.domain)}
        for xs in report.basis:
            j = max(j for j, x in enumerate(xs) if not x.is_zero())
            last = (j, d, max(map(pos.__getitem__, xs[j].terms)))
            found.append((last, tuple(poly_ring.make([zero] * d + [x]) for x in xs)))
    found.sort(key=lambda item: item[0])
    ncols = sum(report.ncols for _, report in blocks)
    return ncols - len(found), ncols, [polys for _, polys in found]
