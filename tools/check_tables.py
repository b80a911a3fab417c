"""Re-prove the algebra laws from ``okuboplane dump-tables`` JSON, outside the package.

    okuboplane dump-tables --output tables.json
    python tools/check_tables.py tables.json

The checker imports nothing from ``okuboplane``: it parses the exact scalar
text itself and computes in Q(sqrt 3) as pairs of ``fractions.Fraction``.
Every law below is multilinear (the quadratic ones linearised), so its
verdict on all basis tuples is its verdict on all elements:

* composition, <xy, zw> + <xw, zy> = <x, z><y, w>, on 4,096 quadruples;
* symmetric composition, (xy)z + (zy)x = <x, z> y, on 512 triples;
* norm-associativity, <xy, z> = <x, yz>, on 512 triples;
* flexibility, (xy)z + (zy)x = x(yz) + z(yx), on 512 triples;
* left alternativity, x(zy) + z(xy) = (xz + zx)y, on 512 triples;
* tau an automorphism of the Okubo product, on 64 pairs, of order three.

Each verdict is compared with the expected one: composition and flexibility
hold for every kind, symmetric composition and norm-associativity for the
para-octonions and the Okubo algebra only, left alternativity for the
octonions only, and both tau laws hold.  Exit status 0 when every verdict
is the expected one, 1 otherwise.
"""

import json
import re
import sys
from fractions import Fraction
from itertools import product

KINDS = ("okubo", "para", "octonion")
EXPECTED_HOLDS = {
    "composition": set(KINDS),
    "symmetric-composition": {"okubo", "para"},
    "norm-associativity": {"okubo", "para"},
    "flexibility": set(KINDS),
    "left-alternativity": {"octonion"},
    "tau-automorphism": {"okubo"},
    "tau-order-three": {"okubo"},
}
ZERO = (Fraction(0), Fraction(0))
_SCALAR = re.compile(r"(-?\d+(?:/\d+)?)?(?:( [+-] |^-?)(\d+(?:/\d+)?\*)?sqrt3)?")


def scalar(text):
    """a + b*sqrt3 as the pair (a, b) of Fractions, from the text dump-tables writes."""
    m = _SCALAR.fullmatch(text)
    if m is None or not text:
        raise ValueError(f"not a scalar: {text!r}")
    a, sign, b = m.groups()
    if sign is None:
        return Fraction(a), Fraction(0)
    return Fraction(a or 0), Fraction((b or "1*")[:-1]) * (-1 if "-" in sign else 1)


def smul(u, v):
    return u[0] * v[0] + 3 * u[1] * v[1], u[0] * v[1] + u[1] * v[0]


def sadd(u, v):
    return u[0] + v[0], u[1] + v[1]


def vector(texts):
    """A sparse vector: basis index -> non-zero scalar."""
    return {k: s for k, s in enumerate(map(scalar, texts)) if any(s)}


def add(*vectors):
    out = {}
    for v in vectors:
        for k, (a, b) in v.items():
            c, d = out.get(k, (0, 0))
            out[k] = c + a, d + b
    return {k: s for k, s in out.items() if any(s)}


def scale(s, v):
    return add({k: smul(s, c) for k, c in v.items()})


def mul(table, x, y):
    """The bilinear product sum_ij x_i y_j table[i][j]."""
    return add(*(scale(smul(a, b), table[i][j]) for i, a in x.items() for j, b in y.items()))


def lower(g, x):
    """The covector <x, .> as a sparse vector over the basis."""
    return add(*(scale(a, g[i]) for i, a in x.items()))


def dot(u, v):
    terms = [smul(a, v[k]) for k, a in u.items() if k in v]
    return sum(t[0] for t in terms), sum(t[1] for t in terms)  # (0, 0) when empty


def failures(tables, g, tau):
    """law -> kind -> the number of basis tuples at which the law fails."""
    e = [{k: (Fraction(1), Fraction(0))} for k in range(8)]
    n8 = range(8)
    quads, triples = list(product(n8, repeat=4)), list(product(n8, repeat=3))
    out = {law: {} for law in EXPECTED_HOLDS}
    for kind in KINDS:
        t = tables[kind]  # t[i][j] = e_i e_j
        left = [[[mul(t, t[i][j], e[k]) for k in n8] for j in n8] for i in n8]  # (e_i e_j) e_k
        right = [[[mul(t, e[i], t[j][k]) for k in n8] for j in n8] for i in n8]  # e_i (e_j e_k)
        low = [[lower(g, t[i][j]) for j in n8] for i in n8]  # <e_i e_j, .>
        out["composition"][kind] = sum(
            sadd(dot(low[i][j], t[k][l]), dot(low[i][l], t[k][j])) != smul(g[i].get(k, ZERO), g[j].get(l, ZERO))
            for i, j, k, l in quads)
        out["symmetric-composition"][kind] = sum(
            add(left[i][j][k], left[k][j][i]) != scale(g[i].get(k, ZERO), e[j]) for i, j, k in triples)
        out["norm-associativity"][kind] = sum(
            dot(low[i][j], e[k]) != dot(g[i], t[j][k]) for i, j, k in triples)
        out["flexibility"][kind] = sum(
            add(left[i][j][k], left[k][j][i]) != add(right[i][j][k], right[k][j][i])
            for i, j, k in triples)
        out["left-alternativity"][kind] = sum(
            add(right[i][k][j], right[k][i][j]) != mul(t, add(t[i][k], t[k][i]), e[j])
            for i, j, k in triples)

    def apply(v):
        return add(*(scale(c, tau[j]) for j, c in v.items()))

    ok = tables["okubo"]
    out["tau-automorphism"]["okubo"] = sum(
        apply(ok[i][j]) != mul(ok, apply(e[i]), apply(e[j])) for i, j in product(n8, repeat=2))
    out["tau-order-three"]["okubo"] = sum(apply(apply(apply(x))) != x for x in e)
    return out


def main(argv):
    with open(argv[1], encoding="utf-8") as fh:
        data = json.load(fh)
    tables = {kind: [[vector(v) for v in row] for row in data["structure_tables"][kind]["products"]]
              for kind in KINDS}
    g = [vector(row) for row in data["gram"]["g"]]
    tau = [vector(v) for v in data["trivolution"]["basis_images"]]
    wrong = 0
    for law, kinds in failures(tables, g, tau).items():
        for kind, failed in kinds.items():
            expected = kind in EXPECTED_HOLDS[law]
            wrong += expected != (failed == 0)
            print(f"{law:22s} {kind:9s} {'holds' if not failed else f'fails on {failed}':14s}"
                  f" expected {'holds' if expected else 'fails'}")
    print(f"{wrong} verdict(s) differ from the expected ones")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
