"""Dense reduced row echelon form: the tests' reference for the library's
rank and kernel routines, kept apart from the code it checks; and the dense
reading of the library's sparse kernel vectors."""


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
