"""The three 8-dimensional real division composition algebras on one vector space.

The ground truth is the matrix model: traceless Hermitian 3x3 matrices over
the complexification of Q(sqrt 3), multiplied by

    x * y = mu * xy + conj(mu) * yx - (1/3) Tr(xy) * I,   mu = (3 + i sqrt3)/6.

A matrix is computed as integer entries over Z[sqrt3, i] and one denominator;
the product clears mu by 6.

Everything else is derived from it:

* the distinguished idempotent ``e`` and the basis ``e, i1..i7``,
* the norm ``n(x) = Tr(x^2)/6`` and its polarisation (the Gram matrix),
* the unital product ``x . y = (e*x)*(y*e)`` (octonions, unit ``e``),
* the para product ``x . y = conj(x) . conj(y)``,
* conjugation ``conj(x) = <x,e> e - x`` and the order-three map
  ``tau(x) = <x,e> e - x*e``, as exact ``LinMap8`` matrices.

Structure tables for the three products are computed once from the matrix
model and cached; coordinate-level multiplication expands bilinearly over the
cached table.  The 64 Okubo basis products are derived once, and read by the
table and by its oracle row.  A mandatory test re-multiplies every table
entry through the matrix model, so the tables can never drift from the oracle.

Every product, polarisation and linear map is one bilinear contraction,
sum_ij x_i y_j maps[i](basis_j), computed by one kernel, :func:`_contract`.
Each ``LinMap8`` it reads (a linear map, a structure table row, a Gram row)
keeps only its non-empty columns, as ``(j, column)`` pairs, and each non-zero
coefficient of a column as ``(k, a, b)``, meaning ``(a + b*sqrt3)/D`` times
``basis_k`` over one integer denominator ``D`` per map (built by
:func:`_integer_columns`).  The kernel reads those columns only, so a Gram
contraction visits the 10 non-zero cells of the Gram matrix, not 64.  A term
``x_i * y_j * c_ijk`` is then one integer triple and one normalisation.

A ``Vec8`` stores its coordinates as those canonical integer triples, so the
kernel reads its operands' triples and hands its result triples to a new
vector as they are; ``+``, ``-``, negation and ``scale`` work on triples too.
A ``QSqrt3`` is built only where a coordinate is read: ``v.c``, ``v[k]``,
iteration, text and JSON, and the one scalar ``polar`` returns.
"""

from __future__ import annotations

import math
import random
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import starmap
from typing import Callable, Iterator, Sequence, TypeVar

from .scalar import (QS_HALF, QS_ONE, Frozen, QSqrt3, _add, _canonical, _normal, _raw,
                     parse_list, render)

_gcd, _lcm, _new = math.gcd, math.lcm, object.__new__


class RepresentationViolation(ArithmeticError):
    """A matrix product left the traceless Hermitian space (scalar bug)."""


class BasisDecompositionFailure(ArithmeticError):
    """A matrix does not decompose over the basis (internal invariant)."""


class DivisionByZeroElement(ZeroDivisionError):
    """Division equation with a zero coefficient element."""


class AlgebraKind(Enum):
    """Selects which of the three products lives on the shared 8-space."""

    OCTONION = "octonion"
    PARA_OCTONION = "para"
    OKUBO = "okubo"


BASIS_NAMES = ("e", "i1", "i2", "i3", "i4", "i5", "i6", "i7")


# A coordinate as the canonical integer triple (p, q, d) of (p + q*sqrt3)/d.
_Triple = tuple[int, int, int]
_ZERO_TRIPLE: _Triple = (0, 0, 1)


class Vec8(Frozen):
    """An algebra element as 8 exact coordinates in the basis e, i1..i7.

    The constructor takes 8 ``QSqrt3`` values (``ValueError`` for another
    count, ``TypeError`` for another type).  A vector keeps them as canonical
    integer triples, the form the product kernel reads and writes, and the
    package's own arithmetic builds through :func:`_vec` from such triples;
    a ``QSqrt3`` is built only where a coordinate is read (``c``, ``v[k]``,
    iteration, text and JSON).  ``+`` and ``-`` take another ``Vec8`` only,
    ``scale`` a ``QSqrt3`` only."""

    __slots__ = ("_triples",)
    _fields = ("c",)  # pickle, copy and repr go through the coordinates

    def __init__(self, coords: Sequence[QSqrt3]) -> None:
        cs = tuple(coords)
        if len(cs) != 8:
            raise ValueError("Vec8 needs exactly 8 coordinates")
        if not all(isinstance(c, QSqrt3) for c in cs):
            raise TypeError("Vec8 coordinates must be QSqrt3")
        _set_triples(self, tuple([(c.p, c.q, c.d) for c in cs]))

    @property
    def c(self) -> tuple[QSqrt3, ...]:
        """The 8 coordinates."""
        return tuple(starmap(_raw, self._triples))

    @staticmethod
    def zero() -> Vec8:
        return _VEC_ZERO

    @staticmethod
    def basis(k: int) -> Vec8:
        return _VEC_BASIS[k]

    def __getitem__(self, k: int | slice) -> QSqrt3 | tuple[QSqrt3, ...]:
        if isinstance(k, slice):
            return tuple(starmap(_raw, self._triples[k]))
        return _raw(*self._triples[k])

    def __iter__(self) -> Iterator[QSqrt3]:
        return starmap(_raw, self._triples)

    def __add__(self, other: Vec8) -> Vec8:
        if other.__class__ is not Vec8:
            return NotImplemented
        return _vec(tuple([_add(p1, q1, d1, p2, q2, d2)
                           for (p1, q1, d1), (p2, q2, d2) in zip(self._triples, other._triples)]))

    def __sub__(self, other: Vec8) -> Vec8:
        if other.__class__ is not Vec8:
            return NotImplemented
        return _vec(tuple([_add(p1, q1, d1, -p2, -q2, d2)
                           for (p1, q1, d1), (p2, q2, d2) in zip(self._triples, other._triples)]))

    def __neg__(self) -> Vec8:
        return _vec(tuple([(-p, -q, d) for p, q, d in self._triples]))

    def scale(self, s: QSqrt3) -> Vec8:
        """Every coordinate times ``s``, by the product formula of ``QSqrt3``."""
        if s.__class__ is not QSqrt3:
            raise TypeError(f"Vec8.scale takes a QSqrt3, not {type(s).__name__}")
        sp, sq, sd = s.p, s.q, s.d
        return _vec(tuple([_normal(p * sp + 3 * q * sq, p * sq + q * sp, d * sd)
                           for p, q, d in self._triples]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Vec8):
            return NotImplemented
        return self._triples == other._triples

    def __hash__(self) -> int:
        # equal to the hash of the coordinate tuple, as each QSqrt3 hashes its triple
        return hash(self._triples)

    def __bool__(self) -> bool:
        return self._triples != _ZERO_TRIPLES

    def __str__(self) -> str:
        terms = [f"({render(v)})*{name}" for v, name in zip(self.c, BASIS_NAMES) if v]
        return " + ".join(terms) if terms else "0"

    def __repr__(self) -> str:
        return f"Vec8({self})"

    def to_json(self) -> list[str]:
        return [render(v) for v in self.c]

    @staticmethod
    def from_json(data: list[str]) -> Vec8:
        return Vec8(parse_list(data, 8))


_set_triples = Vec8.__dict__["_triples"].__set__
_ZERO_TRIPLES = (_ZERO_TRIPLE,) * 8


def _vec(triples: tuple[_Triple, ...]) -> Vec8:
    """The vector of a tuple of 8 canonical coordinate triples."""
    v = _new(Vec8)
    _set_triples(v, triples)
    return v


_VEC_ZERO = _vec(_ZERO_TRIPLES)
_VEC_BASIS = tuple(
    _vec(tuple((1, 0, 1) if i == k else _ZERO_TRIPLE for i in range(8))) for k in range(8)
)

E = _VEC_BASIS[0]
BASIS = _VEC_BASIS  # e, i1..i7


# An integer column: each entry (k, a, b) is (a + b*sqrt3)/D * basis_k.
_IntColumn = tuple[tuple[int, int, int], ...]


def _integer_columns(vectors: Sequence[Vec8]) -> tuple[int, tuple[tuple[int, _IntColumn], ...]]:
    """``(D, columns)`` with a pair ``(j, column)`` in ``columns`` for each
    non-zero ``vectors[j]``, its non-zero coordinates as ``(k, a, b)`` over
    ``D``, the lcm of their denominators."""
    den = _lcm(*(d for v in vectors for _, _, d in v._triples))
    return den, tuple(
        (j, tuple((k, p * (den // d), q * (den // d))
                  for k, (p, q, d) in enumerate(v._triples) if p or q))
        for j, v in enumerate(vectors) if v
    )


class LinMap8(Frozen):
    """An exact linear map of the 8-space, given by the images of the basis
    vectors; the non-zero images are also kept as integer columns, a pair
    ``(j, column)`` in ``columns`` for the image of ``basis_j`` as
    ``(k, a, b)`` over the one denominator ``den`` (a zero image has no
    pair).  ``a @ b`` is the composite x -> a(b(x))."""

    __slots__ = ("images", "den", "columns")
    _fields = ("images",)  # den and columns are derived from the images

    def __init__(self, images: Sequence[Vec8]) -> None:
        images = tuple(images)
        if len(images) != 8:
            raise ValueError("LinMap8 needs the images of the 8 basis vectors")
        if not all(isinstance(v, Vec8) for v in images):
            raise TypeError("LinMap8 images must be Vec8")
        Frozen.__init__(self, images)
        den, columns = _integer_columns(images)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "columns", columns)

    @staticmethod
    def of(f: Callable[[Vec8], Vec8]) -> LinMap8:
        """The linear map that agrees with ``f`` on the basis."""
        return LinMap8(tuple(map(f, BASIS)))

    def apply(self, v: Vec8) -> Vec8:
        return _vec(_contract(_ONE, (self,), v._triples))

    def __matmul__(self, other: LinMap8) -> LinMap8:
        if other.__class__ is not LinMap8:
            return NotImplemented
        return LinMap8(tuple(map(self.apply, other.images)))


_ONE = ((1, 0, 1),)  # the coefficients of a single map


def _contract(xs: Sequence[_Triple], maps: Sequence[LinMap8],
              ys: Sequence[_Triple]) -> tuple[_Triple, ...]:
    """The coordinates of sum_ij x_i y_j maps[i](basis_j) as canonical triples, for
    coordinate triples ``xs`` and ``ys``: each term, one integer triple over
    ``d_x d_y D`` from the non-empty integer columns, is added to its coordinate by
    ``scalar._add``.  A ``Vec8`` keeps the result as it is."""
    out = [_ZERO_TRIPLE] * 8
    for (xp, xq, xd), f in zip(xs, maps):
        if not (xp or xq):
            continue
        xd *= f.den
        for j, column in f.columns:
            yp, yq, yd = ys[j]
            if not (yp or yq):
                continue
            sp, sq, sd = xp * yp + 3 * xq * yq, xp * yq + xq * yp, xd * yd
            for k, a, b in column:
                op, oq, od = out[k]
                out[k] = _add(op, oq, od, a * sp + 3 * b * sq, a * sq + b * sp, sd)
    return tuple(out)


# -- the matrix model over Z[sqrt3, i] ------------------------------------------

# An entry (a, b, c, d) means a + b*sqrt3 + i*(c + d*sqrt3).
Entry = tuple[int, int, int, int]

_Z4: Entry = (0, 0, 0, 0)
SIX_MU: Entry = (3, 0, 0, 1)  # 6*mu = 3 + i*sqrt3, mu = (3 + i*sqrt3)/6
_DIAGONAL = (0, 4, 8)
_TRANSPOSE = (0, 3, 6, 1, 4, 7, 2, 5, 8)  # flat row-major index of (j, i)


def entry_mul(u: Entry, v: Entry) -> Entry:
    """The product of two entries, in Z[sqrt3, i]."""
    a1, b1, c1, d1 = u
    a2, b2, c2, d2 = v
    return (
        a1 * a2 + 3 * b1 * b2 - c1 * c2 - 3 * d1 * d2,
        a1 * b2 + b1 * a2 - c1 * d2 - d1 * c2,
        a1 * c2 + 3 * b1 * d2 + c1 * a2 + 3 * d1 * b2,
        a1 * d2 + b1 * c2 + c1 * b2 + d1 * a2,
    )


def entry_conj(u: Entry) -> Entry:
    a, b, c, d = u
    return (a, b, -c, -d)


SIX_MU_BAR = entry_conj(SIX_MU)


class HermMat3(Frozen):
    """A 3x3 matrix over Q(sqrt3, i): one integer denominator ``den`` and nine
    row-major integer entries, entry ``(a, b, c, d)`` meaning
    ``(a + b*sqrt3 + i*(c + d*sqrt3)) / den``.

    Canonical (``den > 0``, and 1 is the gcd of ``den`` with the 36 entry
    components), so ``==`` is exact.  The constructor takes ints only
    (``TypeError`` otherwise, ``bool`` included) and a non-zero ``den``
    (``ZeroDivisionError``).
    """

    __slots__ = ("den", "entries")

    def __init__(self, den: int, entries: Sequence[Entry]) -> None:
        entries = tuple(tuple(u) for u in entries)
        if len(entries) != 9 or any(len(u) != 4 for u in entries):
            raise TypeError("HermMat3 takes nine entries of four ints each")
        if any(type(n) is not int for n in (den, *(n for u in entries for n in u))):
            raise TypeError("HermMat3 components must be int")
        if den == 0:
            raise ZeroDivisionError("HermMat3 with zero denominator")
        _fill(self, den, entries)


_set_den, _set_entries = HermMat3._setters


def _fill(m: HermMat3, den: int, entries) -> HermMat3:
    """Writes ``entries / den`` (``den != 0``) into ``m`` in canonical form."""
    g = _gcd(den, *(n for u in entries for n in u))
    if den < 0:
        g = -g
    if g != 1:
        den //= g
        entries = [(a // g, b // g, c // g, d // g) for a, b, c, d in entries]
    _set_den(m, den)
    _set_entries(m, tuple(entries))
    return m


def _matrix(den: int, entries: Sequence[Entry]) -> HermMat3:
    """The matrix ``entries / den`` from integer entries known to be well formed."""
    return _fill(_new(HermMat3), den, entries)


def _matmul(x: Sequence[Entry], y: Sequence[Entry]) -> list[Entry]:
    """Row-by-column product of two integer entry grids, summing only the
    terms whose two factors are both non-zero."""
    out = []
    for i in (0, 3, 6):
        row = [(u, k) for k, u in enumerate(x[i:i + 3]) if u != _Z4]
        for j in range(3):
            terms = [entry_mul(u, y[3 * k + j]) for u, k in row if y[3 * k + j] != _Z4]
            out.append(tuple(map(sum, zip(*terms))) if terms else _Z4)
    return out


@lru_cache(maxsize=1)
def basis_matrices() -> tuple[HermMat3, ...]:
    """The idempotent e = diag(2,-1,-1) and the seven sqrt3-scaled units."""
    z, r, i, ni = _Z4, (0, 1, 0, 0), (0, 0, 0, 1), (0, 0, 0, -1)  # 0, sqrt3, +-i*sqrt3
    grids = (
        ((2, 0, 0, 0), z, z, z, (-1, 0, 0, 0), z, z, z, (-1, 0, 0, 0)),  # e
        (z, r, z, r, z, z, z, z, z),  # i1
        (z, z, r, z, z, z, r, z, z),  # i2
        (z, z, z, z, z, r, z, r, z),  # i3
        (r, z, z, z, (0, -1, 0, 0), z, z, z, z),  # i4
        (z, ni, z, i, z, z, z, z, z),  # i5
        (z, z, ni, z, z, z, i, z, z),  # i6
        (z, z, z, z, z, ni, z, i, z),  # i7
    )
    return tuple(HermMat3(1, grid) for grid in grids)


def okubo_matrix_mul(x: HermMat3, y: HermMat3) -> HermMat3:
    """mu*xy + conj(mu)*yx - (1/3)Tr(xy)*I on traceless Hermitian matrices.

    Over the integer entries X, Y this is
    (6mu*XY + conj(6mu)*YX - 2Tr(XY)*I) / (6 den_x den_y).
    """
    xy, yx = _matmul(x.entries, y.entries), _matmul(y.entries, x.entries)
    out = [
        _Z4 if p == q == _Z4 else
        tuple(map(int.__add__, entry_mul(SIX_MU, p), entry_mul(SIX_MU_BAR, q)))
        for p, q in zip(xy, yx)
    ]
    t = tuple(2 * (a + b + c) for a, b, c in zip(*(xy[k] for k in _DIAGONAL)))
    for k in _DIAGONAL:
        out[k] = tuple(map(int.__sub__, out[k], t))
    if any(map(sum, zip(*(out[k] for k in _DIAGONAL)))) or any(
        out[_TRANSPOSE[k]] != entry_conj(u) for k, u in enumerate(out)
    ):
        raise RepresentationViolation("product left the traceless Hermitian space")
    return _matrix(6 * x.den * y.den, out)


def _real_trace(x: HermMat3, y: HermMat3) -> tuple[int, int]:
    """(a, b) with Tr(XY) = a + b*sqrt3 for the integer entries X, Y."""
    ye = y.entries
    terms = [
        entry_mul(u, ye[_TRANSPOSE[k]])
        for k, u in enumerate(x.entries)
        if u != _Z4 and ye[_TRANSPOSE[k]] != _Z4
    ]
    a, b, c, d = map(sum, zip(*terms)) if terms else _Z4
    if c or d:
        raise RepresentationViolation("trace of the product is not real")
    return a, b


def matrix_norm(x: HermMat3) -> QSqrt3:
    """n(x) = Tr(x^2)/6; real for Hermitian input."""
    a, b = _real_trace(x, x)
    return _canonical(a, b, 6 * x.den * x.den)


def matrix_polar(x: HermMat3, y: HermMat3) -> QSqrt3:
    """<x,y> = Tr(xy)/3, the polarisation of the norm in the matrix model."""
    a, b = _real_trace(x, y)
    return _canonical(a, b, 3 * x.den * y.den)


def vec_to_matrix(v: Vec8) -> HermMat3:
    """sum_k v_k basis_k over the least common denominator."""
    terms = [(p, q, d, m) for (p, q, d), m in zip(v._triples, basis_matrices()) if p or q]
    den = _lcm(*(d * m.den for _, _, d, m in terms))
    out = [_Z4] * 9
    for p, q, d, m in terms:
        f = den // (d * m.den)
        s = (p * f, q * f, 0, 0)
        for k, u in enumerate(m.entries):
            if u != _Z4:
                out[k] = tuple(map(int.__add__, out[k], entry_mul(s, u)))
    return _matrix(den, out)


def matrix_to_vec(m: HermMat3) -> Vec8:
    """Exact closed-form decomposition over the basis, with round-trip check.

    An entry part (r + s*sqrt3)/den divided by sqrt3 is (3s + r*sqrt3)/(3 den).
    """
    e, den = m.entries, m.den
    (a11, b11, _, _), (a22, b22, _, _) = e[0], e[4]
    (a12, b12, c12, d12), (a13, b13, c13, d13), (a23, b23, c23, d23) = e[1], e[2], e[5]
    den3 = 3 * den
    v = _vec((
        _normal(a11 + a22, b11 + b22, den),
        _normal(3 * b12, a12, den3),
        _normal(3 * b13, a13, den3),
        _normal(3 * b23, a23, den3),
        _normal(-3 * (b11 + 2 * b22), -(a11 + 2 * a22), den3),
        _normal(-3 * d12, -c12, den3),
        _normal(-3 * d13, -c13, den3),
        _normal(-3 * d23, -c23, den3),
    ))
    if vec_to_matrix(v) != m:
        raise BasisDecompositionFailure("matrix is outside the basis span")
    return v


def algebra_kind(kind: object) -> AlgebraKind:
    """``kind`` itself, if it is an ``AlgebraKind``; ``TypeError`` otherwise."""
    if not isinstance(kind, AlgebraKind):
        raise TypeError(f"an algebra kind is an AlgebraKind, not {kind!r}")
    return kind


def _square(rows: Sequence[Sequence[object]], what: str) -> Sequence[Sequence[object]]:
    """``rows`` itself, if it is 8 rows of 8 entries; ``ValueError`` otherwise."""
    if len(rows) != 8 or any(len(row) != 8 for row in rows):
        raise ValueError(f"{what} needs 8 rows of 8 entries")
    return rows


class StructureTable(Frozen):
    """Structure constants of one product, derived from the matrix model:
    ``products[i][j] = basis_i o basis_j``, 8 rows of 8 (``ValueError``
    otherwise) for an ``AlgebraKind`` (``TypeError``).  The constructor derives
    ``rows[i] = LinMap8(products[i])``, left multiplication by ``basis_i``,
    whose integer columns :func:`_contract` reads; every table here has
    ``den <= 2`` in each row."""

    __slots__ = ("kind", "products", "rows")
    _fields = ("kind", "products")  # the rows are derived from the products

    def __init__(self, kind: AlgebraKind, products: Sequence[Sequence[Vec8]]) -> None:
        Frozen.__init__(self, algebra_kind(kind), _square(products, "a structure table"))
        object.__setattr__(self, "rows", tuple(map(LinMap8, products)))

    def to_json(self) -> dict:
        return {
            "kind": self.kind.value,
            "basis": list(BASIS_NAMES),
            "products": [[v.to_json() for v in row] for row in self.products],
        }


@lru_cache(maxsize=1)
def okubo_basis_products() -> tuple[tuple[Vec8, ...], ...]:
    """The Okubo products ``basis_i * basis_j`` through the matrix model, 8 by 8."""
    mats = basis_matrices()
    return tuple(tuple(matrix_to_vec(okubo_matrix_mul(x, y)) for y in mats) for x in mats)


@lru_cache(maxsize=None)
def structure_table(kind: AlgebraKind) -> StructureTable:
    if algebra_kind(kind) is AlgebraKind.OKUBO:
        products = okubo_basis_products()
    elif kind is AlgebraKind.OCTONION:
        # Kaplansky product x.y = (e*x)*(y*e), bilinear, so basis level suffices
        ok = structure_table(AlgebraKind.OKUBO).rows
        left = [_contract(E._triples, ok, b._triples) for b in BASIS]
        right = [_contract(b._triples, ok, E._triples) for b in BASIS]
        products = [[_vec(_contract(x, ok, y)) for y in right] for x in left]
    else:
        oct_rows = structure_table(AlgebraKind.OCTONION).rows
        cb = [v._triples for v in CONJ.images]
        products = [[_vec(_contract(x, oct_rows, y)) for y in cb] for x in cb]
    return StructureTable(kind, tuple(tuple(row) for row in products))


def mul(kind: AlgebraKind, x: Vec8, y: Vec8) -> Vec8:
    """Bilinear product of the selected algebra, exact."""
    return _vec(_contract(x._triples, structure_table(kind).rows, y._triples))


class GramMatrix(Frozen):
    """g[i][j] = <basis_i, basis_j>, derived from matrix traces: 8 rows of 8
    ``QSqrt3`` entries (``ValueError`` for another shape, ``TypeError`` for
    another type).  The constructor derives ``rows[i]``, the map
    basis_j -> g_ij e, so that ``polar`` is the product kernel's contraction
    read off coordinate ``e`` (the way a structure table derives its rows
    from its products)."""

    __slots__ = ("g", "rows")
    _fields = ("g",)  # the rows are derived from g

    def __init__(self, g: Sequence[Sequence[QSqrt3]]) -> None:
        if not all(isinstance(gij, QSqrt3) for row in _square(g, "a Gram matrix") for gij in row):
            raise TypeError("GramMatrix entries must be QSqrt3")
        Frozen.__init__(self, g)
        zeros = _ZERO_TRIPLES[1:]
        object.__setattr__(self, "rows", tuple(
            LinMap8(tuple(_vec(((gij.p, gij.q, gij.d), *zeros)) for gij in row)) for row in g
        ))

    def leading_minors(self) -> list[QSqrt3]:
        """Exact determinants of the leading principal submatrices, read as
        the pivots of one fraction-free (Bareiss) elimination of ``g``.  No
        row swap keeps a leading minor, so a zero pivot ends the list."""
        rows, minors, previous = [list(row) for row in self.g], [], QS_ONE
        for k, top in enumerate(rows):
            pivot = top[k]
            minors.append(pivot)
            if not pivot:
                break
            for row in rows[k + 1:]:
                row[k + 1:] = [(pivot * x - row[k] * y) / previous
                               for x, y in zip(row[k + 1:], top[k + 1:])]
            previous = pivot
        return minors

    def is_positive_definite(self) -> bool:
        return all(m.sign() > 0 for m in self.leading_minors())

    def to_json(self) -> dict:
        return {"basis": list(BASIS_NAMES), "g": [[render(v) for v in row] for row in self.g]}


@lru_cache(maxsize=1)
def gram() -> GramMatrix:
    mats = basis_matrices()
    return GramMatrix(
        tuple(tuple(matrix_polar(mats[i], mats[j]) for j in range(8)) for i in range(8))
    )


def norm(x: Vec8) -> QSqrt3:
    """n(x) = <x,x>/2; agrees exactly with Tr(X^2)/6."""
    return polar(x, x) * QS_HALF


def polar(x: Vec8, y: Vec8) -> QSqrt3:
    """<x,y> = n(x+y) - n(x) - n(y) = sum_ij g_ij x_i y_j."""
    return _raw(*_contract(x._triples, gram().rows, y._triples)[0])


IDENTITY = LinMap8(BASIS)
CONJ = LinMap8.of(lambda x: E.scale(polar(x, E)) - x)
"""Conjugation of the derived unital product: <x,e> e - x."""
TAU = LinMap8.of(lambda x: E.scale(polar(x, E)) - mul(AlgebraKind.OKUBO, x, E))
"""The order-three automorphism <x,e> e - x*e (both products respect it)."""
TAU2 = LinMap8.of(lambda x: mul(AlgebraKind.OKUBO, mul(AlgebraKind.OKUBO, x, E), E))
"""tau^2(x) = (x*e)*e, the inverse of the trivolution.  Derived from its own
formula, not as TAU @ TAU, so that tau^2 = tau o tau remains a check."""

conjugate_oct = CONJ.apply
trivolution = TAU.apply
trivolution_sq = TAU2.apply


def trivolution_basis_images() -> tuple[Vec8, ...]:
    return TAU.images


def conventional_trivolution_images() -> tuple[Vec8, ...]:
    """The tau action table in the form conventional for an orthonormal basis:
    e, i1, i3, i7 fixed, the (i2, i5) and (i4, i6) planes rotated by 120
    degrees.  Kept only for comparison reports: the matrix-derived map
    differs (it fixes e, i3, i4, i7), see :func:`trivolution_table_report`.
    """
    cos, sin = -QS_HALF, QSqrt3(0, Fraction(1, 2))
    images = [list(v) for v in BASIS]
    for a, b in ((2, 5), (4, 6)):
        images[a][a], images[a][b], images[b][b], images[b][a] = cos, sin, cos, -sin
    return tuple(map(Vec8, images))


def trivolution_table_report() -> dict:
    """Compare the derived tau action on the basis with the conventional
    orthonormal-basis table.

    Returned as data, not asserted: the two disagree because the basis here
    is not orthogonal (<e, i4> = sqrt3), and the matrix model is canonical.
    """
    derived = trivolution_basis_images()
    conventional = conventional_trivolution_images()
    mismatches = [
        {
            "basis": BASIS_NAMES[k],
            "derived": derived[k].to_json(),
            "conventional": conventional[k].to_json(),
        }
        for k in range(8)
        if derived[k] != conventional[k]
    ]
    return {
        "agrees": not mismatches,
        "mismatches": mismatches,
        "gram_off_diagonal": [
            {"pair": [BASIS_NAMES[i], BASIS_NAMES[j]], "value": render(gram().g[i][j])}
            for i in range(8)
            for j in range(i + 1, 8)
            if gram().g[i][j]
        ],
    }


def left_quotient(kind: AlgebraKind, a: Vec8, b: Vec8) -> Vec8:
    """L(a, b) with a o L(a, b) = n(a) b: conj(a).b in the unital octonions,
    b*a in the symmetric products, where (a*b)*a = a*(b*a) = n(a) b."""
    if kind is AlgebraKind.OCTONION:
        return mul(kind, conjugate_oct(a), b)
    return mul(kind, b, a)


def right_quotient(kind: AlgebraKind, a: Vec8, b: Vec8) -> Vec8:
    """R(a, b) with R(a, b) o a = n(a) b: b.conj(a) in the unital octonions,
    a*b in the symmetric products."""
    if kind is AlgebraKind.OCTONION:
        return mul(kind, b, conjugate_oct(a))
    return mul(kind, a, b)


def solve_left(kind: AlgebraKind, a: Vec8, b: Vec8) -> Vec8:
    """The unique x with a o x = b (a != 0)."""
    if not a:
        raise DivisionByZeroElement("a o x = b needs a != 0")
    return left_quotient(kind, a, b).scale(norm(a).inv())


def solve_right(kind: AlgebraKind, a: Vec8, b: Vec8) -> Vec8:
    """The unique x with x o a = b (a != 0)."""
    if not a:
        raise DivisionByZeroElement("x o a = b needs a != 0")
    return right_quotient(kind, a, b).scale(norm(a).inv())


def quotient_identity_failures(kind: AlgebraKind) -> Iterator[tuple[str, int, int, int]]:
    """``(side, i, k, j)`` for each basis triple (a, c, b) = (basis_i, basis_k,
    basis_j) at which a polarised quotient identity fails, ``side`` naming it:

        "left":  a o L(c, b) + c o L(a, b) = <a, c> b,
        "right": R(a, b) o c + R(c, b) o a = <a, c> b.

    Both sides are trilinear in (a, c, b), so an empty result proves each for
    all elements; at c = a they read a o L(a, b) = n(a) b = R(a, b) o a, so
    ``solve_left`` and ``solve_right`` are then exact for every a != 0."""
    kind = algebra_kind(kind)
    lq = [[left_quotient(kind, a, b) for b in BASIS] for a in BASIS]
    rq = [[right_quotient(kind, a, b) for b in BASIS] for a in BASIS]
    g = gram().g
    for i, a in enumerate(BASIS):
        for k, c in enumerate(BASIS):
            for j, b in enumerate(BASIS):
                want = b.scale(g[i][k])
                if mul(kind, a, lq[k][j]) + mul(kind, c, lq[i][j]) != want:
                    yield "left", i, k, j
                if mul(kind, rq[i][j], c) + mul(kind, rq[k][j], a) != want:
                    yield "right", i, k, j


# name -> law(m, x, y, z), with m the product of the kind under test
_IDENTITIES = {
    "Moufang1": lambda m, x, y, z: m(m(m(x, y), x), z) == m(x, m(y, m(x, z))),
    "Moufang2": lambda m, x, y, z: m(m(m(z, x), y), x) == m(z, m(x, m(y, x))),
    "Moufang3": lambda m, x, y, z: m(m(x, y), m(z, x)) == m(x, m(m(y, z), x)),
    "Flexible": lambda m, x, y, z: m(x, m(y, x)) == m(m(x, y), x),
    "AlternativeLeft": lambda m, x, y, z: m(x, m(x, y)) == m(m(x, x), y),
    "AlternativeRight": lambda m, x, y, z: m(m(y, x), x) == m(y, m(x, x)),
    "Composition": lambda m, x, y, z: norm(m(x, y)) == norm(x) * norm(y),
    "SymmetricComposition": lambda m, x, y, z: m(m(x, y), x) == y.scale(norm(x)),
    "NormAssociative": lambda m, x, y, z: polar(m(x, y), z) == polar(x, m(y, z)),
}


def check_identity(kind: AlgebraKind, name: str, x: Vec8, y: Vec8, z: Vec8) -> bool:
    """Evaluate both sides of the named identity exactly and compare."""
    if name not in _IDENTITIES:
        raise ValueError(f"unknown identity {name!r}")
    return _IDENTITIES[name](lambda a, b: mul(kind, a, b), x, y, z)


def product_conversion_crosscheck(x: Vec8, y: Vec8) -> bool:
    """All six product conversions between the three algebras, at (x, y)."""
    ok = lambda a, b: mul(AlgebraKind.OKUBO, a, b)
    oc = lambda a, b: mul(AlgebraKind.OCTONION, a, b)
    pa = lambda a, b: mul(AlgebraKind.PARA_OCTONION, a, b)
    cj = conjugate_oct
    t, t2 = trivolution, trivolution_sq
    return (
        ok(x, y) == oc(t(cj(x)), t2(cj(y)))
        and pa(x, y) == oc(cj(x), cj(y))
        and oc(x, y) == ok(ok(E, x), ok(y, E))
        and pa(x, y) == ok(t2(x), t(y))
        and ok(x, y) == pa(t(x), t2(y))
        and oc(x, y) == pa(pa(E, x), pa(y, E))
    )


# The triples random_scalar draws: _DRAWS[num + 3][den - 1] = (num/den, num/den*sqrt3).
_DRAWS = tuple(
    tuple((_normal(num, 0, den), _normal(0, num, den)) for den in (1, 2))
    for num in range(-3, 4)
)
_SEVEN_OR_MORE, _TWO_OR_MORE = (7).__le__, (2).__le__


def _scalars(rng: random.Random, count: int) -> list[_Triple]:
    """``count`` scalar triples, each drawn with the rng calls of
    ``rng.choice(rng.choice(_DRAWS))`` and then ``rng.random() < 0.25``.  A
    ``choice`` of 7 or 2 items is CPython's ``_randbelow``: ``getrandbits(3)``
    drawn again while it reads 7, ``getrandbits(2)`` while it reads 2 or 3.
    The redraws go through ``draw`` with the bit count ``k`` in place of the
    rng, so ``make(k)`` is ``getrandbits(k)`` and ``_RETRIES`` bounds them."""
    bits, uniform = rng.getrandbits, rng.random
    out = []
    for _ in range(count):
        num = bits(3)
        if num > 6:
            num = draw(3, bits, _SEVEN_OR_MORE)
        den = bits(2)
        if den > 1:
            den = draw(2, bits, _TWO_OR_MORE)
        out.append(_DRAWS[num][den][uniform() < 0.25])
    return out


def random_scalar(rng: random.Random) -> QSqrt3:
    """Bounded generator: numerator in [-3, 3], denominator in {1, 2},
    optionally carried by sqrt3; keeps exact growth small in deep chains.
    Makes the rng calls of ``randint(-3, 3)``, ``choice((1, 2))`` and
    ``random() < 0.25``, so the stream is that of drawing ``num``, ``den``
    and the sqrt3 flag."""
    return _raw(*_scalars(rng, 1)[0])


def random_vec(rng: random.Random) -> Vec8:
    """Eight ``random_scalar`` draws in one loop, kept as triples."""
    return _vec(tuple(_scalars(rng, 8)))


class DegenerateAfterRetries(RuntimeError):
    """Random draws stayed degenerate past the retry budget."""


_RETRIES = 64
_T = TypeVar("_T")


def draw(rng: random.Random, make: Callable[[random.Random], _T],
         reject: Callable[[_T], bool]) -> _T:
    """The first of at most ``_RETRIES`` values ``make(rng)`` that ``reject``
    lets through; ``DegenerateAfterRetries`` when it rejects every one."""
    for _ in range(_RETRIES):
        value = make(rng)
        if not reject(value):
            return value
    raise DegenerateAfterRetries(f"{_RETRIES} draws stayed degenerate; widen the generator range")


def random_nonzero_vec(rng: random.Random) -> Vec8:
    return draw(rng, random_vec, lambda v: not v)


def trial_rng(seed: int, index: int) -> random.Random:
    """Per-trial generator derived from (seed, index): reproducible regardless
    of scheduling or trial order (string seeding hashes via sha512)."""
    return random.Random(f"{seed}:{index}")
