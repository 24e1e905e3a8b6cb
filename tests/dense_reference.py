"""Dense reduced row echelon form: the tests' reference for the library's
rank and kernel routines, kept apart from the code it checks; the dense
reading of the library's sparse kernel vectors; and the lift of a group-ring
grid as it was built with one comprehension per f and per column."""


def rref(matrix, ring, ncols=None):
    """Reduced row echelon form.  Returns (rows, pivot_columns)."""
    rows = [list(r) for r in matrix]
    nr = len(rows)
    nc = ncols if ncols is not None else (len(rows[0]) if rows else 0)
    zero = ring.zero
    pivots = []
    r = 0
    for c in range(nc):
        pr = next((i for i in range(r, nr) if not ring.is_zero(rows[i][c])), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = ring.inv(rows[r][c])
        rows[r] = [a if a == zero else ring.mul(inv, a) for a in rows[r]]
        piv = rows[r]
        for i in range(nr):
            if i != r and not ring.is_zero(rows[i][c]):
                f = rows[i][c]
                rows[i] = [
                    a if b == zero else ring.sub(a, ring.mul(f, b))
                    for a, b in zip(rows[i], piv)
                ]
        pivots.append(c)
        r += 1
    return rows, pivots


def dense(v, ncols, zero):
    """A ``{column: entry}`` kernel vector as the list of its ``ncols``
    entries, ``zero`` where it holds none."""
    out = [zero] * ncols
    for c, x in v.items():
        out[c] = x
    return out


def lift_system(a, col_index, SF=()):
    """``srcsolve.lift_system``'s ``(columns, row_index)``, built with a dict
    comprehension of first rows per f and one per column over each a_ij's
    terms."""
    ring, m = a[0][0].ring, len(a)
    G = ring.group
    S = dict.fromkeys(h for row in a for x in row for h in x.terms)
    first_row = {g: r * m for r, g in enumerate(SF)}  # of (g, 0); (g, i) is i rows on
    at = {}
    for _, f in col_index:
        if f not in at:  # each product h f formed once
            at[f] = {h: first_row.setdefault(G.mul(h, f), len(first_row) * m) for h in S}
    columns = [{at[f][h] + i: c for i in range(m) for h, c in a[i][j].terms.items()}
               for j, f in col_index]
    return columns, [(g, i) for g in first_row for i in range(m)]
