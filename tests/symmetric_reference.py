"""S_n as a checked multiplication table: the tests' reference for
``FiniteGroup.symmetric``, whose product is composition, kept apart from the
code it checks."""

import itertools
from operator import itemgetter

from gradedsrc.groups import FiniteGroup


def table_symmetric(n):
    """S_n on {0..n-1} with the same elements and generators as
    ``FiniteGroup.symmetric(n)``, built as an explicit table, so that the
    FiniteGroup constructor checks it (closure, identity, inverses, Light's
    associativity test)."""
    els = sorted(itertools.permutations(range(n)))
    # a transposition and an n-cycle, which coincide for n = 2
    gens = [(1, 0, *range(2, n)), (*range(1, n), 0)][: max(0, min(2, n - 1))]
    # Only the generators' rows are looked up.  Since (a*s)*c = a*(s*c), the
    # row of a*s is the row of a read at the positions in the row of s, so
    # the others follow in BFS order from the identity's row.
    pos = {g: i for i, g in enumerate(els)}
    steps = [(pos[s], itemgetter(*[pos[tuple(map(s.__getitem__, c))] for c in els]))
             for s in gens]
    rows = [tuple(range(len(els)))] + [None] * (len(els) - 1)
    queue = [0]
    for a in queue:  # the loop also visits the positions appended below
        for s, step in steps:
            a_s = rows[a][s]
            if rows[a_s] is None:
                rows[a_s] = step(rows[a])
                queue.append(a_s)
    return FiniteGroup(els, rows, generators=gens or None)
