"""Supported groups, canonical forms, balls, product sets, Folner search, cosets.

Three families: free groups (reduced words), free abelian groups (integer
vectors), and finite groups (element list + multiplication table; S_n
multiplies by composition and stores no table).
Elements are plain hashable values; the descriptor supplies the operations.
Every descriptor is a ``_Group``: equal to another of its class with an equal
``key``.  Each family also supplies its generators (``generators``), from
which balls are derived, its Folner schedule (``folner_schedule``), its JSON
form (``to_json``, ``elem_to_json``, ``elem_from_json``) and its coset
classifier (``cosets``).  A finite subset is a tuple of distinct elements in
the group's canonical order (``sorted_subset``).

Canonical orderings: shortlex on words (a < a^-1 < b < b^-1 ...), plain
lexicographic on integer vectors, list position for finite groups.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import add, itemgetter, neg

from .coeff import _is_int
from .errors import FolnerNotFound, InfiniteIndex

_LETTERS = "abcdefghijklmnopqrstuvwxyz"
# Largest order the symmetric and cyclic families build.  A solve over S_n
# lifts over F = S_n, and C_n's table holds n^2 entries, so S_7 (5040
# elements) and C_1001 are bad input.
ORDER_CAP = 1000
# Most elements an infinite group's Folner schedule lists, in one set and in
# all its sets together.  F_2's ball of radius r has 2*3^r - 1 elements, so
# radius 9 (39,365; 59,038 with the smaller balls) is the last it tries; Z^d's
# box of side L has L^d, so Z^6 stops at side 6 (117,649 at side 7) and Z^3 at
# side 24 (boxes of side 1..24 hold 90,000 elements, 105,625 with side 25).
SCHEDULE_CAP = 100_000


def _json_type(x):
    """The type of a stored element, through its tuples: bool, int and float differ."""
    return tuple(map(_json_type, x)) if type(x) is tuple else type(x)


def _bfs(mul, start, gens, radius=math.inf):
    """Set of elements reached from `start` by at most `radius` right
    multiplications by elements of `gens`."""
    seen = set(start)
    frontier = list(seen)
    while frontier and radius > 0:
        radius -= 1
        new = []
        for w in frontier:
            for s in gens:
                v = mul(w, s)
                if v not in seen:
                    seen.add(v)
                    new.append(v)
        frontier = new
    return seen


def _walk_cap(sizes, count: int) -> tuple:
    """(taken, why): how many of the first ``count`` candidate sizes a Folner
    walk tries, stopping before a set of more than ``SCHEDULE_CAP`` elements
    or one that would bring the sets tried past ``SCHEDULE_CAP`` in all;
    ``why`` says which, or is empty if the walk takes all ``count``."""
    total = 0
    for taken, size in enumerate(itertools.islice(sizes, count)):
        if size > SCHEDULE_CAP:
            return taken, f"has more than {SCHEDULE_CAP} elements"
        total += size
        if total > SCHEDULE_CAP:
            return taken, f"would bring the sets tried past {SCHEDULE_CAP} elements in all"
    return count, ""


class _Group:
    """A group descriptor: equal to another of its class with an equal
    ``key`` (the parameters that fix its product), and hashed by its class
    and key."""

    def __eq__(self, other):
        return type(other) is type(self) and other.key == self.key

    def __hash__(self):
        return hash((type(self), self.key))


class FreeGroup(_Group):
    """Free group of given rank; elements are reduced tuples of nonzero ints,
    letter +i meaning the i-th generator and -i its inverse (1-based).  The
    rank is at most 26, one JSON letter a..z per generator."""

    def __init__(self, rank: int):
        if rank < 1:
            raise ValueError("rank must be >= 1")
        if rank > len(_LETTERS):
            raise ValueError(f"free-group rank {rank} exceeds the {len(_LETTERS)} letters a..z")
        self.rank, self.key, self.identity = rank, (rank,), ()

    def mul(self, g, h):
        out = list(g)
        for x in h:
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
        return tuple(out)

    def inv(self, g):
        return tuple(-x for x in reversed(g))

    def generators(self):
        return [(i,) for i in range(1, self.rank + 1)]

    @staticmethod
    def _letter_key(x):
        return (abs(x), 0 if x > 0 else 1)

    def sort_key(self, g):
        return (len(g), tuple(self._letter_key(x) for x in g))

    def folner_schedule(self, budget: int) -> tuple:
        """(candidate sets, exhaustion message): balls of radius 0..budget,
        walked within ``SCHEDULE_CAP`` (``_walk_cap``).  For rank >= 2 no
        sets are Folner sets, so a bound near 1 exhausts it."""
        def sizes():  # |ball(r)|, r = 0, 1, ...
            size, sphere = 1, 2 * self.rank
            while True:
                yield size
                size, sphere = size + sphere, sphere * (2 * self.rank - 1)

        taken, why = _walk_cap(sizes(), budget + 1)
        failure = f"no ball of radius <= {taken - 1} meets the bound"
        if why:
            failure += f"; the ball of radius {taken} {why}"
        return (ball(self, r) for r in range(taken)), failure

    def to_json(self) -> dict:
        return {"family": "free", "rank": self.rank}

    def cosets(self, generators):
        raise InfiniteIndex(f"coset classification unsupported for {self!r}")

    def elem_to_json(self, g):
        return " ".join(
            _LETTERS[abs(x) - 1] if x > 0 else _LETTERS[abs(x) - 1].upper() for x in g
        )

    def elem_from_json(self, obj):
        if not isinstance(obj, str):
            raise ValueError(f"free-group element {obj!r} must be a string of letters")
        out = self.identity
        for tok in obj.split():
            if len(tok) != 1 or tok.lower() not in _LETTERS:
                raise ValueError(f"bad letter {tok!r}")
            i = _LETTERS.index(tok.lower()) + 1
            if i > self.rank:
                raise ValueError(f"letter {tok!r} out of rank {self.rank}")
            out = self.mul(out, (i,) if tok.islower() else (-i,))
        return out

    def __repr__(self):
        return f"FreeGroup({self.rank})"


class FreeAbelian(_Group):
    """Z^d; elements are integer tuples of length d, written additively."""

    def __init__(self, rank: int):
        if rank < 1:
            raise ValueError("rank must be >= 1")
        self.rank, self.key, self.identity = rank, (rank,), (0,) * rank

    def mul(self, g, h):
        return tuple(map(add, g, h))

    def inv(self, g):
        return tuple(map(neg, g))

    def generators(self):
        return [tuple(int(i == k) for i in range(self.rank)) for k in range(self.rank)]

    def sort_key(self, g):
        return g

    def folner_schedule(self, budget: int) -> tuple:
        """(candidate sets, exhaustion message): boxes [0, L)^d, L = 1..budget,
        walked within ``SCHEDULE_CAP`` (``_walk_cap``)."""
        taken, why = _walk_cap((side**self.rank for side in itertools.count(1)), budget)
        failure = f"no box of side <= {taken} meets the bound"
        if why:
            failure += f"; the box of side {taken + 1} {why}"
        return (box(self, side) for side in range(1, taken + 1)), failure

    def to_json(self) -> dict:
        return {"family": "abelian", "rank": self.rank}

    def cosets(self, generators) -> "AbelianCosets":
        return AbelianCosets(self, generators)

    def elem_to_json(self, g):
        return list(g)

    def elem_from_json(self, obj):
        v = tuple(obj)
        if not all(map(_is_int, v)):
            raise ValueError(f"Z^{self.rank} element {obj!r} must hold ints only")
        if len(v) != self.rank:
            raise ValueError(f"vector length {len(v)} != rank {self.rank}")
        return v

    def __repr__(self):
        return f"FreeAbelian({self.rank})"


class FiniteGroup(_Group):
    """Explicit finite group.  The product is one table of index rows:
    ``rows[i][j]`` is the position of ``elements[i] * elements[j]``.  The table
    is checked once on construction (closure, identity, inverses, associativity
    by Light's test), and the key is ``(elements, rows)``.  ``symmetric``
    returns a ``SymmetricGroup``, whose product is composition and which
    stores no table."""

    def __init__(self, elements, rows, generators=None):
        """The group on ``elements`` in which ``elements[i] * elements[j]`` is
        ``elements[rows[i][j]]``; each entry must lie in range(n).  The table
        is checked for distinct elements, closure, identity, inverses and
        associativity, in this order."""
        els = tuple(elements)
        self.elements, n, generators = els, len(els), tuple(generators or ())
        self._index = {g: i for i, g in enumerate(els)}
        if len(self._index) != n:
            raise ValueError("duplicate elements")
        self.rows = rows = tuple(map(tuple, rows))
        self.key = (els, rows)
        valid = set(range(n))
        if len(rows) != n or not all(len(row) == n and valid.issuperset(row) for row in rows):
            raise ValueError("multiplication table is not closed")
        ids = tuple(range(n))
        e = next((e for e, row in enumerate(rows)
                  if row == ids and all(r[e] == g for g, r in enumerate(rows))), None)
        if e is None:
            raise ValueError("no identity element")
        self.identity = els[e]
        self._inv = {}
        for g, row in enumerate(rows):
            try:  # the first h with g*h = e and h*g = e
                h = row.index(e)
                while rows[h][g] != e:
                    h = row.index(e, h + 1)
            except ValueError:
                raise ValueError(f"no inverse for {els[g]}") from None
            self._inv[els[g]] = els[h]
        # Light's test: the s with (as)c = a(sc) for all a, c contain the
        # identity and are closed under the table's product (no associativity
        # needed to show it), so checking s over a generating set suffices.
        # The walk starts from the declared generators and adds each element
        # not yet reached, so the set it checks is verified to generate.
        gens, reached = [], {e}
        for s in itertools.chain(map(self._index.__getitem__, generators), ids):
            if s not in reached:
                gens.append(s)
                reached = _bfs(lambda a, t: rows[a][t], reached, gens)
        for s in gens:
            a_sc = itemgetter(*rows[s])  # row of a -> (a(sc))_c; s != e, so n > 1
            for row in rows:
                if rows[row[s]] != a_sc(row):
                    raise ValueError("multiplication table is not associative")
        self._generators = generators or tuple(g for g in els if g != self.identity)

    @classmethod
    def symmetric(cls, n: int) -> "SymmetricGroup":
        """S_n acting on {0..n-1}; composition applies the right factor first."""
        if n < 0:
            raise ValueError(f"S_n needs n >= 0, not {n}")
        if n > ORDER_CAP or math.factorial(n) > ORDER_CAP:
            raise ValueError(f"S_{n} has more than {ORDER_CAP} elements")
        return SymmetricGroup(n)

    @classmethod
    def cyclic(cls, n: int) -> "FiniteGroup":
        """C_n with elements 0..n-1 under addition mod n."""
        if n < 1:
            raise ValueError(f"C_n needs n >= 1, not {n}")
        if n > ORDER_CAP:
            raise ValueError(f"C_{n} has more than {ORDER_CAP} elements")
        els = tuple(range(n))
        return cls(els, [els[a:] + els[:a] for a in els], generators=[1 % n])

    def mul(self, g, h):
        return self.elements[self.rows[self._index[g]][self._index[h]]]

    def inv(self, g):
        return self._inv[g]

    def sort_key(self, g):
        return self._index[g]

    def generators(self):
        return self._generators

    def folner_schedule(self, budget: int) -> tuple:
        """(candidate sets, exhaustion message): the whole group, whatever the budget."""
        return [self.elements], "whole finite group does not meet the bound"

    def to_json(self) -> dict:
        return {"family": "finite", "elements": list(self.elements),
                "table": list(map(list, self.rows))}

    def cosets(self, generators) -> "FiniteCosets":
        return FiniteCosets(self, generators)

    def elem_to_json(self, g):
        return g

    def elem_from_json(self, obj):
        g = obj if not isinstance(obj, list) else tuple(obj)
        i = self._index.get(g)
        # equal is not enough: true == 1 == 1.0, and JSON tells them apart
        if i is None or _json_type(g) != _json_type(self.elements[i]):
            raise ValueError(f"{obj!r} is not an element of this group")
        return g

    def __repr__(self):
        return f"FiniteGroup(order={len(self.elements)})"


class SymmetricGroup(FiniteGroup):
    """S_n on {0..n-1}, its elements in sorted order, keyed by ``(n,)``.  The
    product is composition, right factor first, formed in C as
    ``itemgetter(*h)(g)``, so no table is built or checked.  For n <= 1 the
    group is trivial and g h is g: itemgetter of one index or none would not
    return a tuple.  In JSON the group is ``{"family": "symmetric", "n": n}``
    and a permutation is its 1-based one-line list."""

    def __init__(self, n: int):
        self.n, self.key = n, (n,)
        # permutations of a sorted range come in sorted order
        self.elements = els = tuple(itertools.permutations(range(n)))
        self.identity = els[0]
        self._index = {g: i for i, g in enumerate(els)}
        # a transposition and an n-cycle, which coincide for n = 2
        self._generators = ((1, 0, *range(2, n)), (*range(1, n), 0))[: max(0, min(2, n - 1))]

    def mul(self, g, h):
        return itemgetter(*h)(g) if self.n > 1 else g

    def inv(self, g):
        return tuple(sorted(range(len(g)), key=g.__getitem__))

    def to_json(self) -> dict:
        return {"family": "symmetric", "n": self.n}

    def elem_to_json(self, g):
        return [i + 1 for i in g]

    def elem_from_json(self, obj):
        if not all(map(_is_int, obj)):
            raise ValueError(f"permutation {obj!r} must hold ints only")
        g = tuple(i - 1 for i in obj)
        if g not in self._index:
            raise ValueError(f"{obj!r} is not an element of this group")
        return g


# ---------------------------------------------------------------------------


def sorted_subset(G, elements) -> tuple:
    """The distinct ``elements`` in ``G.sort_key`` order: a finite subset of G."""
    return tuple(sorted(set(elements), key=G.sort_key))


def ball(G, r: int) -> tuple:
    """Elements of word length <= r in ``G.generators()`` and their inverses."""
    if r < 0:
        raise ValueError("radius must be >= 0")
    gens = G.generators()
    return sorted_subset(G, _bfs(G.mul, [G.identity], [*gens, *map(G.inv, gens)], r))


def box(G: FreeAbelian, side: int) -> tuple:
    """[0, side)^d in Z^d, in lexicographic (canonical) order."""
    return tuple(itertools.product(range(side), repeat=G.rank))


def product_set(G, S: tuple, F: tuple) -> tuple:
    """SF as a finite subset.  For a finite G, a nonempty S and |F| = |G|,
    SF = G: its elements, already in canonical order, with no product formed."""
    if S and isinstance(G, FiniteGroup) and len(F) == len(G.elements):
        return G.elements
    return sorted_subset(G, {G.mul(s, f) for s in S for f in F})


def folner_ratio_ok(G, S: tuple, F: tuple, ratio_bound: Fraction):
    """SF if |SF| < ratio_bound * |F| (strict, exact), else False."""
    sf = product_set(G, S, F)
    return sf if len(sf) * ratio_bound.denominator < ratio_bound.numerator * len(F) else False


def folner_search(G, S: tuple, ratio_bound, budget: int) -> tuple:
    """(F, SF) for the first F of ``G.folner_schedule(budget)`` with
    |SF| < ratio_bound * |F|; FolnerNotFound with the schedule's message if
    none meets the bound."""
    ratio_bound = Fraction(ratio_bound)
    if ratio_bound <= 1:
        raise ValueError("ratio_bound must exceed 1")
    if budget < 0:
        raise ValueError(f"budget must be >= 0, not {budget}")
    schedule, failure = G.folner_schedule(budget)
    for F in schedule:
        SF = folner_ratio_ok(G, S, F, ratio_bound)
        if SF is not False:  # an empty S gives an empty, falsy SF
            return F, SF
    raise FolnerNotFound(failure)


# ---------------------------------------------------------------------------
# integer lattices and cosets


def hermite_normal_form(rows, width: int):
    """Row-style HNF of the lattice spanned by `rows` in Z^width.

    Returns a list of (pivot_column, row) pairs with positive pivots and
    entries above each pivot reduced into [0, pivot).
    """
    rows = [list(r) for r in rows if any(r)]
    basis = []
    col = 0
    while col < width and rows:
        active = [r for r in rows if r[col] != 0]
        rest = [r for r in rows if r[col] == 0]
        if not active:
            rows = rest
            col += 1
            continue
        while len(active) > 1:
            active.sort(key=lambda r: abs(r[col]))
            p = active[0]
            new_active = [p]
            for r in active[1:]:
                q = r[col] // p[col]
                rr = [a - q * b for a, b in zip(r, p)]
                if rr[col] != 0:
                    new_active.append(rr)
                elif any(rr):
                    rest.append(rr)
            active = new_active
        p = active[0]
        if p[col] < 0:
            p = [-a for a in p]
        basis.append((col, p))
        rows = rest
        col += 1
    for i in range(len(basis) - 1, -1, -1):
        ci, pi = basis[i]
        for j in range(i):
            cj, pj = basis[j]
            f = pj[ci] // pi[ci]
            if f:
                basis[j] = (cj, [a - f * b for a, b in zip(pj, pi)])
    return basis


class AbelianCosets:
    """Residue classification of Z^d modulo a finite-index sublattice."""

    def __init__(self, G: FreeAbelian, generators):
        self.group = G
        self.generators = tuple(generators)
        d = G.rank
        basis = hermite_normal_form(self.generators, d)
        if len(basis) != d:
            raise InfiniteIndex("subgroup generators do not have full rank")
        self.basis = [row for _, row in basis]
        diagonal = [row[i] for i, row in enumerate(self.basis)]
        self.num_cosets = math.prod(diagonal)
        # the basis is upper triangular with a positive diagonal, so reduce
        # fixes each vector of the corner box, which product lists sorted
        self.representatives = list(itertools.product(*map(range, diagonal)))
        self._index = {rep: i for i, rep in enumerate(self.representatives)}

    def reduce(self, v):
        v = list(v)
        for i, row in enumerate(self.basis):
            q = v[i] // row[i]
            if q:
                v = [a - q * b for a, b in zip(v, row)]
        return tuple(v)

    def index(self, g) -> int:
        return self._index[self.reduce(g)]

    def contains(self, g) -> bool:
        return self.reduce(g) == self.group.identity


class FiniteCosets:
    """Right cosets Hx of the subgroup generated by `generators`."""

    def __init__(self, G: FiniteGroup, generators):
        self.group = G
        self.generators = tuple(generators)
        gens = self.generators + tuple(map(G.inv, self.generators))
        sub = _bfs(G.mul, [G.identity], gens)
        self.subgroup = sorted_subset(G, sub)
        self.cosets = []
        self._coset_of = {}
        for g in G.elements:  # in canonical order
            if g in self._coset_of:
                continue
            idx = len(self.cosets)
            coset = sorted((G.mul(h, g) for h in sub), key=G.sort_key)
            self.cosets.append(tuple(coset))
            for x in coset:
                self._coset_of[x] = idx
        self.num_cosets = len(self.cosets)

    def index(self, g) -> int:
        return self._coset_of[g]

    def contains(self, g) -> bool:
        return self.index(g) == self.index(self.group.identity)
