"""Exact arithmetic in the real quadratic field Q(sqrt 3).

Every coordinate in this package is a ``QSqrt3`` value ``a + b*sqrt(3)`` with
rational ``a, b``.  Equality is structural: because sqrt(3) is irrational,
``a + b*sqrt(3) = 0`` forces ``a = b = 0``, so component-wise comparison of
canonical representations decides equality exactly.  ``__float__`` is a
convenience for interactive use: no report and no decision goes through it.

Internally a value is stored as one integer triple ``(p + q*sqrt3)/d`` with
``d > 0`` and ``gcd(p, q, d) = 1``; join/meet/Veronese chains square and
divide coordinates, so arbitrary-precision integers are mandatory and the
single shared denominator keeps the gcd work per operation minimal (none
at all when the denominator is 1).  Every value, ``QSqrt3(a, b)`` included,
is brought to canonical form by one normaliser, ``_normal``, which returns
the integer triple; ``_canonical`` writes that triple into a value through
``_raw``.  Every sum is made by one adder, ``_add``, which sums two integer
triples to a reduced one: ``+``, ``-``, every product-kernel term and every
vector coordinate sum go through it.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from operator import attrgetter


class ZeroInverse(ZeroDivisionError):
    """Raised when inverting the zero element of Q(sqrt 3)."""


class Frozen:
    """Immutable value type, with no generated code.  The fields are the
    ``__slots__`` (or a ``_fields`` prefix, when later slots are derived),
    given by position or name; ``_optional`` ones default to ``None``.  A type
    that takes input declares ``_field_types``, one type or tuple of types per
    field, and a field of another type raises ``TypeError`` once all are set.
    Equal means the same type with equal fields; the hash is the field tuple's."""

    __slots__ = ()
    _optional: tuple[str, ...] = ()
    _field_types: tuple[type | tuple[type, ...], ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields = fields = cls.__dict__.get("_fields", cls.__slots__)
        cls._setters = tuple(getattr(cls, name).__set__ for name in fields)
        get = attrgetter(*fields) if fields else lambda v: ()
        cls._values = staticmethod(get if len(fields) != 1 else lambda v: (get(v),))

    def __init__(self, *args: object, **kwargs: object) -> None:
        setters = self._setters
        if kwargs or len(args) != len(setters):
            args = self._bind(args, kwargs)
        for setter, value in zip(setters, args):
            setter(self, value)
        for field, types, value in zip(self._fields, self._field_types, args):
            if not isinstance(value, types):
                wanted = [t.__name__ for t in (types if isinstance(types, tuple) else (types,))]
                raise TypeError(f"{getattr(self, 'name', type(self).__name__)}.{field} must be"
                                f" {' or '.join(wanted)}, not {value!r}")

    def _bind(self, args: tuple, kwargs: dict) -> list:
        fields = self._fields
        values = {**dict.fromkeys(self._optional), **dict(zip(fields, args)), **kwargs}
        if len(args) > len(fields) or values.keys() != set(fields) or any(
                key in fields[:len(args)] for key in kwargs):
            raise TypeError(f"{type(self).__name__} takes the fields {fields}, optional"
                            f" {self._optional}, not {len(args)} values and {sorted(kwargs)}")
        return [values[f] for f in fields]

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self) -> tuple:
        # pickle and deepcopy rebuild through the constructor, never __setattr__
        return type(self), self._values(self)

    def __repr__(self) -> str:
        pairs = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({pairs})"


_SQRT3_FLOAT = math.sqrt(3.0)
_gcd = math.gcd


def _rational(x: int | Fraction) -> tuple[int, int]:
    """(numerator, denominator) of an exact rational component."""
    if type(x) is int:
        return x, 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise TypeError(f"Q(sqrt 3) components must be int or Fraction, not {type(x).__name__}")


class QSqrt3:
    """An element ``a + b*sqrt(3)`` of Q(sqrt 3).

    Construct from ints or Fractions only (``TypeError`` otherwise, ``bool``
    and ``float`` included); instances are immutable and canonical, so ``==``
    is exact component comparison.  ``+``, ``-``, ``*`` and ``/`` take another
    ``QSqrt3`` only, so a plain number as operand raises ``TypeError``.
    """

    __slots__ = ("p", "q", "d")

    def __new__(cls, a: int | Fraction = 0, b: int | Fraction = 0) -> QSqrt3:
        pa, da = _rational(a)
        qb, db = _rational(b)
        return _canonical(pa * db, qb * da, da * db)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("QSqrt3 is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("QSqrt3 is immutable")

    def __reduce__(self) -> tuple:
        return _raw, (self.p, self.q, self.d)

    @classmethod
    def of(cls, num: int, den: int = 1, *, sqrt3: bool = False) -> QSqrt3:
        """Shorthand for ``num/den`` or ``(num/den)*sqrt(3)``.

        ``num`` and ``den`` must be ``int`` (``TypeError`` otherwise, ``bool``
        included) and ``den`` non-zero (``ZeroDivisionError``).
        """
        if type(num) is not int or type(den) is not int:
            raise TypeError(
                f"QSqrt3.of takes int arguments, not {type(num).__name__}, {type(den).__name__}"
            )
        if den == 0:
            raise ZeroDivisionError("QSqrt3.of with zero denominator")
        return _canonical(0, num, den) if sqrt3 else _canonical(num, 0, den)

    @property
    def a(self) -> Fraction:
        """Rational part, as a canonical Fraction."""
        return Fraction(self.p, self.d)

    @property
    def b(self) -> Fraction:
        """Coefficient of sqrt(3), as a canonical Fraction."""
        return Fraction(self.q, self.d)

    def __add__(self, other: QSqrt3) -> QSqrt3:
        if other.__class__ is not QSqrt3:
            return NotImplemented
        return _raw(*_add(self.p, self.q, self.d, other.p, other.q, other.d))

    def __sub__(self, other: QSqrt3) -> QSqrt3:
        if other.__class__ is not QSqrt3:
            return NotImplemented
        return _raw(*_add(self.p, self.q, self.d, -other.p, -other.q, other.d))

    def __neg__(self) -> QSqrt3:
        return _raw(-self.p, -self.q, self.d)

    def __mul__(self, other: QSqrt3) -> QSqrt3:
        if other.__class__ is not QSqrt3:
            return NotImplemented
        # (p1 + q1 s)(p2 + q2 s) = (p1 p2 + 3 q1 q2) + (p1 q2 + q1 p2) s
        p1, q1, p2, q2 = self.p, self.q, other.p, other.q
        return _canonical(p1 * p2 + 3 * q1 * q2, p1 * q2 + q1 * p2, self.d * other.d)

    def inv(self) -> QSqrt3:
        """Exact inverse: (a - b*sqrt3) / (a^2 - 3*b^2)."""
        p, q, d = self.p, self.q, self.d
        if p == 0 and q == 0:
            raise ZeroInverse("zero element of Q(sqrt 3) has no inverse")
        return _canonical(d * p, -d * q, p * p - 3 * q * q)

    def __truediv__(self, other: QSqrt3) -> QSqrt3:
        if other.__class__ is not QSqrt3:
            return NotImplemented
        return self * other.inv()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QSqrt3):
            return NotImplemented
        return self.p == other.p and self.q == other.q and self.d == other.d

    def __hash__(self) -> int:
        return hash((self.p, self.q, self.d))

    def __bool__(self) -> bool:
        return self.p != 0 or self.q != 0

    def sign(self) -> int:
        """Exact sign of the real embedding a + b*1.732..., in {-1, 0, 1}.

        Decided from the component signs and, in the mixed case, comparison
        of a^2 with 3*b^2; no floating point involved.
        """
        p, q = self.p, self.q
        if p == 0 and q == 0:
            return 0
        if p >= 0 and q >= 0:
            return 1
        if p <= 0 and q <= 0:
            return -1
        if p > 0:  # q < 0: positive iff p^2 > 3 q^2
            return 1 if p * p > 3 * q * q else -1
        return 1 if 3 * q * q > p * p else -1

    def __float__(self) -> float:
        return (self.p + self.q * _SQRT3_FLOAT) / self.d

    def __str__(self) -> str:
        return render(self)

    def __repr__(self) -> str:
        return f"QSqrt3({self.a!r}, {self.b!r})"


_new = object.__new__
_set_p = QSqrt3.p.__set__
_set_q = QSqrt3.q.__set__
_set_d = QSqrt3.d.__set__


def _normal(p: int, q: int, d: int) -> tuple[int, int, int]:
    """The canonical triple of ``(p + q*sqrt3)/d`` for ``d != 0``: ``d > 0``
    and ``gcd(p, q, d) == 1``; a ``d == 1`` triple already is canonical.  The
    one normaliser."""
    if d != 1:
        if d < 0:
            p, q, d = -p, -q, -d
        g = _gcd(p, q, d)
        if g > 1:
            return p // g, q // g, d // g
    return p, q, d


def _canonical(p: int, q: int, d: int) -> QSqrt3:
    """The value ``(p + q*sqrt3)/d`` for ``d != 0``, in canonical form."""
    return _raw(*_normal(p, q, d))


def _add(p1: int, q1: int, d1: int, p2: int, q2: int, d2: int) -> tuple[int, int, int]:
    """The triple ``(p1 + q1*sqrt3)/d1 + (p2 + q2*sqrt3)/d2`` over its gcd, the
    one sum; canonical when ``d1, d2 > 0``, as only ``_normal`` fixes a sign."""
    if d1 == d2:
        p, q, d = p1 + p2, q1 + q2, d1
    else:
        p, q, d = p1 * d2 + p2 * d1, q1 * d2 + q2 * d1, d1 * d2
    if d != 1:
        g = _gcd(p, q, d)
        if g > 1:
            return p // g, q // g, d // g
    return p, q, d


def _raw(p: int, q: int, d: int) -> QSqrt3:
    """The value ``(p + q*sqrt3)/d`` of a canonical triple; the one slot writer."""
    out = _new(QSqrt3)
    _set_p(out, p)
    _set_q(out, q)
    _set_d(out, d)
    return out


QS_ZERO = _raw(0, 0, 1)
QS_ONE = _raw(1, 0, 1)
QS_HALF = _raw(1, 0, 2)
SQRT3 = _raw(0, 1, 1)


def render(x: QSqrt3) -> str:
    """Canonical text form ``p/q + r/s*sqrt3`` (terms dropped when zero)."""
    a, b = x.a, x.b
    if not b:
        return str(a)
    bs = "sqrt3" if b == 1 else ("-sqrt3" if b == -1 else f"{b}*sqrt3")
    if not a:
        return bs
    if b < 0:
        return f"{a} - {bs.lstrip('-')}"
    return f"{a} + {bs}"


_SCALAR_RE = re.compile(
    r"(?P<a>-?\d+(?:/\d+)?)?(?P<root>(?P<sign> [+-] |^-?)(?:(?P<b>\d+(?:/\d+)?)\*)?sqrt3)?"
)


def parse(text: str) -> QSqrt3:
    """Parse exactly the text form that :func:`render` writes, e.g. ``"2"``,
    ``"-1/2"``, ``"sqrt3"``, ``"3/2*sqrt3"`` and ``"1/2 - 5*sqrt3"``.

    ``ValueError`` unless ``render`` gives ``text`` back, so ``"2/4"``,
    ``" 2"``, ``"+1"``, ``"007"``, ``"1*sqrt3"`` and ``"sqrt3 + 1"`` fail.
    """
    m = _SCALAR_RE.fullmatch(text)
    if m is None:
        raise ValueError(f"cannot parse Q(sqrt 3) scalar: {text!r}")
    a, root, sign, b = m.group("a", "root", "sign", "b")
    try:
        rational = Fraction(a or 0)
        surd = Fraction(b or 1) * (-1 if "-" in sign else 1) if root else 0
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
    value = QSqrt3(rational, surd)
    if render(value) != text:
        raise ValueError(f"{text!r} is not the canonical form {render(value)!r}")
    return value


def parse_list(data: object, n: int) -> tuple[QSqrt3, ...]:
    """Parse replayed JSON that must be a list of exactly ``n`` scalar
    strings; ``ValueError`` on anything else."""
    if not (isinstance(data, list) and len(data) == n and all(isinstance(s, str) for s in data)):
        raise ValueError(f"expected a list of {n} scalar strings, not {data!r}")
    return tuple(map(parse, data))

