"""JSON encodings for groups, coefficient rings, elements, and systems.

Conventions: free-group words as letter strings ("a B a", capitals inverse),
integer vectors as arrays, permutations in 1-based one-line notation;
rationals as "num/den" strings, finite-field elements as coefficient arrays,
quadratic integers as [a, b]; ring elements as sorted [group, coeff] pairs.
Each group class writes its own form (``to_json``); ``group_from_json`` reads it.
"""

from __future__ import annotations

from .coeff import FIELD_ORDER_CAP, QQ, ZSQRT5, ZZ, ExtField, PrimeField, _is_int, ff_extend
from .gring import GroupRing
from .groups import FiniteGroup, FreeAbelian, FreeGroup
from .srcsolve import LinearSystem


def _int_field(obj, key, kind="group") -> int:
    v = obj[key]
    if not _is_int(v):
        raise ValueError(f"{kind} {key!r} must be an int, not {v!r}")
    return v


def group_from_json(obj) -> object:
    family = obj["family"]
    if family == "free":
        return FreeGroup(_int_field(obj, "rank"))
    if family == "abelian":
        return FreeAbelian(_int_field(obj, "rank"))
    if family == "symmetric":
        return FiniteGroup.symmetric(_int_field(obj, "n"))
    if family == "cyclic":
        return FiniteGroup.cyclic(_int_field(obj, "n"))
    if family == "finite":
        els = [tuple(e) if isinstance(e, list) else e for e in obj["elements"]]
        if any(type(k) is not int for row in obj["table"] for k in row):
            raise ValueError("finite group table entries must be element positions")
        return FiniteGroup(els, obj["table"])
    raise ValueError(f"unknown group family {family!r}")


def coeff_to_json(ring) -> dict:
    if ring == QQ:
        return {"ring": "Q"}
    if ring == ZZ:
        return {"ring": "Z"}
    if isinstance(ring, PrimeField):
        return {"ring": "Fp", "p": ring.p}
    if isinstance(ring, ExtField):
        return {"ring": "Fq", "p": ring.p, "k": ring.k, "poly": list(ring.poly)}
    if ring == ZSQRT5:
        return {"ring": "Zsqrt-5"}
    raise TypeError(f"unsupported coefficient ring {ring!r}")


def coeff_from_json(obj):
    name = obj["ring"]
    if name == "Q":
        return QQ
    if name == "Z":
        return ZZ
    if name == "Fp":
        return PrimeField(_int_field(obj, "p", "coeff"))
    if name == "Fq":
        p, k = _int_field(obj, "p", "coeff"), _int_field(obj, "k", "coeff")
        # before the modulus search; for p >= 2 a k past 64 is over the cap without computing p**k
        if k > 1 and p > 1 and (k >= FIELD_ORDER_CAP.bit_length() or p**k > FIELD_ORDER_CAP):
            raise ValueError(f"F_{p}^{k} has more than {FIELD_ORDER_CAP} elements")
        if "poly" in obj:
            poly = obj["poly"]
            if not isinstance(poly, list) or not all(map(_is_int, poly)):
                raise ValueError(f"coeff 'poly' must be an array of ints, not {poly!r}")
            if not all(0 <= c < p for c in poly):
                raise ValueError(f"coeff 'poly' entries must lie in [0, {p}), not {poly!r}")
            return ExtField(p, k, tuple(poly))
        return ff_extend(p, k)
    if name == "Zsqrt-5":
        return ZSQRT5
    raise ValueError(f"unknown coefficient ring {name!r}")


def system_to_json(sys: LinearSystem) -> dict:
    return {
        "group": sys.ring.group.to_json(),
        "coeff": coeff_to_json(sys.ring.coeff),
        "m": sys.m,
        "n": sys.n,
        "a": [[sys.ring.elem_to_json(x) for x in row] for row in sys.a],
    }


def system_from_json(obj) -> LinearSystem:
    ring = GroupRing(group_from_json(obj["group"]), coeff_from_json(obj["coeff"]))
    a = tuple(tuple(ring.elem_from_json(x) for x in row) for row in obj["a"])
    m, n = obj["m"], obj["n"]
    if not (_is_int(m) and _is_int(n)):
        raise ValueError(f"m and n must be ints, not {m!r} and {n!r}")
    return LinearSystem(ring, m, n, a)


def solution_to_json(ring: GroupRing, xs, verified: bool, provenance: dict) -> dict:
    return {
        "solution": [ring.elem_to_json(x) for x in xs],
        "verified": verified,
        "provenance": provenance,
    }
