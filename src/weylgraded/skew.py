"""Exact arithmetic in D = k(z)[x, x^{-1}; sigma] with sigma(z) = z + 1.

Normal form: coefficients from k(z) on the left, x-powers on the right, so the
single transport rule is x^m f(z) = f(z+m) x^m.  The Weyl algebra sits inside D
via x and y = (z-1) x^{-1}; then x*y = z and x*y - y*x = 1.

The ground field is Q: every computation in this library is integrally
supported, so exact rational coefficients suffice and nothing is ever floated.
A coefficient is stored as an int when it is integral and as a Fraction only
when it is not, never as a float: every division goes through _div, which
divides ints exactly and everything else through Fraction, and every other
stored result of Fraction arithmetic goes through _coeffs, which stores
integral values as ints.  Since 2 == Fraction(2) with equal hashes, the two forms
compare alike.

A RationalPoly is a reduced fraction with a monic denominator, and it has one
reducer: RationalPoly(num, den) divides out the gcd of num and den and makes
den monic, and +, -, * and / build their plain results through it.  Taylor
shifts and products of distinct linear factors are reduced by construction,
so shift, from_roots and linear_product build theirs as given.  The last two,
and rising and falling, take every product of linear factors in
_linear_coeffs, one factor at a time into a single coefficient list, with no
intermediate RationalPoly.

from_roots builds prod (z+t)^e from a root map {t: e} and is the one place
that refuses output too long to print (MAX_PRINTED_DIGITS), when it builds;
the arithmetic itself, SkewElement included, is unbounded.  Such a value keeps
its map and no coefficients: the first read of num, den, arithmetic, shift,
str, to_json or hash multiplies them out once, through _parts, and keeps them,
while == of two such values compares their maps and multiplies nothing.  Its
inverse root_map is the one place a polynomial is factored, and it factors the
coefficients, never the kept map.

SkewElement arithmetic and == read an int, Fraction or RationalPoly operand as
the degree-0 element of D, and a degree-0 element hashes as its coefficient.

Every integer argument (degree, shift, exponent, root) goes through _check_int,
which refuses a bool or a float; the JSON readers parse their string keys.
"""
from __future__ import annotations

from fractions import Fraction
from functools import wraps
from math import isqrt, log10
from typing import Iterable, Mapping, Union

from .zfin import _check_int, _check_root_map

Scalar = Union[int, Fraction, str]

# Dense polynomial coefficients, ascending degree, no trailing zeros.
_Coeffs = tuple

_ZERO: _Coeffs = ()
_ONE: _Coeffs = (1,)

# Python converts an int of at most this many decimal digits to text
# (sys.get_int_max_str_digits() by default).
MAX_PRINTED_DIGITS = 4300


def _exact(v: Scalar) -> Union[int, Fraction]:
    """v as an int when integral, else as a Fraction."""
    if type(v) is int:
        return v
    v = Fraction(v)
    return v.numerator if v.denominator == 1 else v


def _div(a, b) -> Union[int, Fraction]:
    """The exact quotient a / b of two coefficients."""
    if type(a) is int and type(b) is int and not a % b:
        return a // b
    q = Fraction(a, b)
    return q.numerator if q.denominator == 1 else q


def _coeffs(values: Iterable[Scalar]) -> _Coeffs:
    cs = [_exact(v) for v in values]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _padd(a: _Coeffs, b: _Coeffs) -> _Coeffs:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _pneg(a: _Coeffs) -> _Coeffs:
    return tuple(-c for c in a)


def _pmul(a: _Coeffs, b: _Coeffs) -> _Coeffs:
    if not a or not b:
        return _ZERO
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _linear_coeffs(js: Iterable[int]) -> _Coeffs:
    """Coefficients of prod over js of (z + j), multiplied into one list in place.

    Each factor raises the degree by one: the new top coefficient is 1, and
    from the top down c_i becomes j c_i + c_{i-1}, so every c_{i-1} is read
    before it is overwritten.  The leading coefficient stays 1, so the result
    has no trailing zero.
    """
    cs = [1]
    for j in js:
        cs.append(1)
        for i in range(len(cs) - 2, 0, -1):
            cs[i] = j * cs[i] + cs[i - 1]
        cs[0] *= j
    return tuple(cs)


def _pdivmod(a: _Coeffs, b: _Coeffs) -> tuple[_Coeffs, _Coeffs]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [0] * max(0, len(a) - len(b) + 1)
    r = list(a)
    while len(r) >= len(b):
        c = _div(r[-1], b[-1])
        d = len(r) - len(b)
        q[d] = c
        for i, y in enumerate(b):
            r[i + d] -= c * y
        while r and r[-1] == 0:
            r.pop()
    return tuple(q), tuple(r)


def _pgcd(a: _Coeffs, b: _Coeffs) -> _Coeffs:
    while b:
        a, b = b, _pdivmod(a, b)[1]
    if not a:
        return _ZERO
    lc = a[-1]
    return tuple(_div(c, lc) for c in a)


def _pshift(a: _Coeffs, m: int) -> _Coeffs:
    """Taylor shift: coefficients of f(z + m), by repeated synthetic division.

    Dividing by (z - (-m)) d times in place leaves the coefficients of f in
    powers of (z + m) (Knuth, TAOCP vol. 2, 4.6.4): d(d+1)/2 multiply-adds
    and no intermediate tuples.  The leading coefficient is unchanged, so
    the result has no trailing zero.
    """
    if not m:
        return a
    c = list(a)
    for i in range(len(c) - 1):
        for j in range(len(c) - 2, i - 1, -1):
            c[j] += m * c[j + 1]
    return tuple(c)


def _root_squares(cs: list[int]) -> int:
    """e1^2 - 2 e2 of monic cs: the sum of the squares of its roots."""
    *_, e2, e1, _ = [0, 0, *cs]
    return e1 * e1 - 2 * e2


class RationalPoly:
    """A rational function num/den over Q, reduced, with monic denominator.

    Most values in practice are plain polynomials (den == 1); genuinely
    fractional values arise from inverse involutions, which scale by
    1/prod(z+j).

    A value built by from_roots holds its root map in _roots, zero exponents
    dropped, and None in _num and _den until _parts multiplies them out; every
    other value holds None in _roots.  _parts is the one reader of _num and _den.
    """

    __slots__ = ("_num", "_den", "_roots")

    def __init__(
        self,
        num: Iterable[Scalar] = (),
        den: Iterable[Scalar] = (1,),
    ) -> None:
        n, d = _coeffs(num), _coeffs(den)
        if not d:
            raise ZeroDivisionError("zero denominator")
        self._roots = None
        if not n or d == _ONE:
            self._num, self._den = n, _ONE
            return
        if len(n) > 1 and len(d) > 1:
            g = _pgcd(n, d)
            if len(g) > 1:
                n, d = _pdivmod(n, g)[0], _pdivmod(d, g)[0]
        lc = d[-1]
        if lc != 1:
            n = tuple(_div(c, lc) for c in n)
            d = tuple(_div(c, lc) for c in d)
        self._num, self._den = n, d

    # construction helpers -------------------------------------------------

    @classmethod
    def zero(cls) -> "RationalPoly":
        return _ratio(_ZERO, _ONE)

    @classmethod
    def one(cls) -> "RationalPoly":
        return _ratio(_ONE, _ONE)

    @classmethod
    def constant(cls, c: Scalar) -> "RationalPoly":
        return _ratio(_coeffs((c,)), _ONE)

    @classmethod
    def z(cls) -> "RationalPoly":
        return _ratio((0, 1), _ONE)

    @classmethod
    def linear(cls, j: Scalar) -> "RationalPoly":
        """z + j."""
        return _ratio(_coeffs((j, 1)), _ONE)

    @classmethod
    def linear_product(cls, js: Iterable[int]) -> "RationalPoly":
        """prod over js of (z + j); empty product is 1.  Integer arithmetic throughout."""
        js = tuple(js)
        for j in js:
            _check_int(j, "linear_product's roots must be integers")
        return _ratio(_linear_coeffs(js), _ONE)

    @classmethod
    def from_roots(cls, exps: Mapping[int, int]) -> "RationalPoly":
        """prod of (z + t)^e over the items (t, e) of exps; e < 0 puts (z + t) in the denominator.

        TypeError unless each t and e is an int.  A coefficient of prod (z+t)
        is at most prod (1+|t|), so past MAX_PRINTED_DIGITS digits it raises
        ValueError here, when the value is built.  The bound sum |e| log10(1 + |t|)
        is summed root by root only when the cheaper sum |e| log10(1 + max |t|)
        passes the limit.  The value keeps the map, zero exponents dropped, and
        multiplies it out on the first read of its coefficients.  The roots are
        distinct, so num and den are coprime and no gcd is taken.
        """
        _check_root_map(exps)
        return cls._of_roots(exps)

    @classmethod
    def _of_roots(cls, exps: Mapping[int, int]) -> "RationalPoly":
        """from_roots of a root map that must already hold only ints: no check."""
        factors = sum(map(abs, exps.values()))
        if exps and factors * log10(1 + max(map(abs, exps))) > MAX_PRINTED_DIGITS:
            digits = sum(abs(e) * log10(1 + abs(t)) for t, e in exps.items())
            if digits > MAX_PRINTED_DIGITS:
                raise ValueError(
                    f"a product of {factors} linear factors could have coefficients of up to "
                    f"{digits:.0f} digits, over the limit MAX_PRINTED_DIGITS = {MAX_PRINTED_DIGITS}"
                )
        out = cls.__new__(cls)
        out._num = out._den = None
        out._roots = {t: e for t, e in exps.items() if e} if 0 in exps.values() else dict(exps)
        return out

    def _parts(self) -> tuple[_Coeffs, _Coeffs]:
        """(num, den), multiplied out of the root map on the first read and kept."""
        if self._num is None:
            num, den = [], []
            for t, e in self._roots.items():
                (num if e > 0 else den).extend([t] * abs(e))
            self._num = _linear_coeffs(num) if num else _ONE
            self._den = _linear_coeffs(den) if den else _ONE
        return self._num, self._den

    def root_map(self) -> dict[int, int]:
        """The root map {t: e} with self = c prod (z+t)^e, the inverse of from_roots.

        The leading constant c is dropped.  ValueError for zero and for a value
        that does not split over integer roots.  num and den are each factored
        by trial division; they are coprime, so their roots are distinct.  The
        candidates t run outward from 0 (0, 1, -1, 2, ...) while the remainder
        has degree k >= 3, t^2 is at most e1^2 - 2 e2, the sum of the squares of
        the roots left, and |t|^k is at most |e_k|, the product of their sizes,
        each recomputed after a root is divided out.  The last two roots are
        read off a quadratic remainder z^2 + bz + c by its discriminant
        b^2 - 4c, and the last one off a linear remainder.  So a value that
        splits costs time linear in its third-largest |t|, and one that does
        not costs at most the cube root of its constant term.
        """
        num, den = self._parts()
        if not num:
            raise ValueError("zero has no root map")
        roots: dict[int, int] = {}
        parts = ((num, 1),) if den == _ONE else ((num, 1), (den, -1))
        for coeffs, sign in parts:
            cs = list(coeffs) if coeffs[-1] == 1 else [_div(c, coeffs[-1]) for c in coeffs]
            if any(type(c) is not int for c in cs):
                raise ValueError(f"{self} does not split over integer roots")
            j, squares = 0, _root_squares(cs)
            while len(cs) > 3 and j * j <= squares and abs(j) ** (len(cs) - 1) <= abs(cs[0]):
                if cs[0] % j == 0 if j else cs[0] == 0:
                    # cs / (z+j) by synthetic division, from the top down
                    q, acc = cs[1:], 0
                    for i in range(len(q) - 1, -1, -1):
                        acc = q[i] = q[i] - j * acc
                    if cs[0] == j * acc:
                        cs, squares = q, _root_squares(q)
                        roots[j] = roots.get(j, 0) + sign
                        continue
                j = -j if j > 0 else 1 - j
            if len(cs) == 3:  # (z+t)(z+u) = z^2 + bz + c with t, u = (b -+ sqrt(b^2 - 4c)) / 2
                c, b, _ = cs
                disc = b * b - 4 * c
                s = isqrt(disc) if disc >= 0 else -1
                if s * s != disc:
                    raise ValueError(f"{self} does not split over integer roots")
                # the root the outward scan would reach first goes first, then the linear rest
                t, u = sorted(((b - s) // 2, (b + s) // 2), key=lambda t: (abs(t), t < 0))
                roots[t] = roots.get(t, 0) + sign
                cs = [u, 1]
            if len(cs) == 2:  # the last root is read off z + j
                roots[cs[0]] = roots.get(cs[0], 0) + sign
            elif len(cs) > 2:
                raise ValueError(f"{self} does not split over integer roots")
        return roots

    @classmethod
    def rising(cls, d: int) -> "RationalPoly":
        """z (z+1) ... (z+d-1)."""
        _check_int(d, "rising's degree must be an integer")
        return _ratio(_linear_coeffs(range(d)), _ONE)

    @classmethod
    def falling(cls, r: int) -> "RationalPoly":
        """(z-1) (z-2) ... (z-r)."""
        _check_int(r, "falling's degree must be an integer")
        return _ratio(_linear_coeffs(range(-1, -r - 1, -1)), _ONE)

    # structure -------------------------------------------------------------

    @property
    def num(self) -> _Coeffs:
        return self._parts()[0]

    @property
    def den(self) -> _Coeffs:
        return self._parts()[1]

    def is_zero(self) -> bool:
        return not self._parts()[0]

    def is_polynomial(self) -> bool:
        return self._parts()[1] == _ONE

    def is_one(self) -> bool:
        return self._parts() == (_ONE, _ONE)

    def monic(self) -> "RationalPoly":
        num, den = self._parts()
        if not num or num[-1] == 1:
            return self
        lc = num[-1]
        return _ratio(tuple(_div(c, lc) for c in num), den)

    # arithmetic ------------------------------------------------------------

    def _wrap(self, other) -> "RationalPoly":
        if isinstance(other, RationalPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return RationalPoly.constant(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        o = self._wrap(other)
        if o is NotImplemented:
            return NotImplemented
        (a, b), (c, d) = self._parts(), o._parts()
        return RationalPoly(_padd(_pmul(a, d), _pmul(c, b)), _pmul(b, d))

    __radd__ = __add__

    def __neg__(self) -> "RationalPoly":
        num, den = self._parts()
        return _ratio(_pneg(num), den)

    def __sub__(self, other):
        o = self._wrap(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._wrap(other)
        if o is NotImplemented:
            return NotImplemented
        (a, b), (c, d) = self._parts(), o._parts()
        return RationalPoly(_pmul(a, c), _pmul(b, d))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._wrap(other)
        if o is NotImplemented:
            return NotImplemented
        (a, b), (c, d) = self._parts(), o._parts()
        return RationalPoly(_pmul(a, d), _pmul(b, c))

    def __rtruediv__(self, other):
        o = self._wrap(other)
        return NotImplemented if o is NotImplemented else o / self

    def shift(self, m: int) -> "RationalPoly":
        """The conjugate f(z + m) = x^m f x^{-m}; num and den stay coprime, den monic."""
        _check_int(m, "shift must be an integer")
        if not m:
            return self
        num, den = self._parts()
        return _ratio(_coeffs(_pshift(num, m)), den if den == _ONE else _coeffs(_pshift(den, m)))

    # comparison / presentation ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        """Equal reduced forms.  Two values built by from_roots compare their root maps.

        That gives the same answer: such a value is prod (z+t)^e over distinct
        integers t, so its num and den are monic, split over Z and share no
        root, and its reduced form is theirs.  Q[z] factors uniquely, so two
        such values have the same num and den exactly when every t carries the
        same exponent, zero exponents being dropped from both maps.
        """
        o = self._wrap(other)
        if o is NotImplemented:
            return NotImplemented
        if self._roots is not None and o._roots is not None:
            return self._roots == o._roots
        return self._parts() == o._parts()

    def __hash__(self) -> int:
        # a constant hashes as its value, since it compares equal to it
        num, den = self._parts()
        if den == _ONE and len(num) <= 1:
            return hash(num[0] if num else 0)
        return hash((num, den))

    def __repr__(self) -> str:
        return f"RationalPoly({self})"

    def __str__(self) -> str:
        num, den = self._parts()
        if den == _ONE:
            return _poly_str(num)
        return f"({_poly_str(num)})/({_poly_str(den)})"

    def to_json(self) -> dict:
        num, den = self._parts()
        return {"num": [str(c) for c in num], "den": [str(c) for c in den]}

    @classmethod
    def from_json(cls, data: dict) -> "RationalPoly":
        return cls(data.get("num", ()), data.get("den", (1,)))


def _ratio(num: _Coeffs, den: _Coeffs) -> RationalPoly:
    """num/den as given: it must already be reduced, with den monic and both tidy."""
    out = RationalPoly.__new__(RationalPoly)
    out._num, out._den, out._roots = num, den, None
    return out


def _poly_str(cs: _Coeffs) -> str:
    if not cs:
        return "0"
    parts = []
    for k in range(len(cs) - 1, -1, -1):
        c = cs[k]
        if c == 0:
            continue
        if k == 0:
            body = str(abs(c))
        else:
            zk = "z" if k == 1 else f"z^{k}"
            body = zk if abs(c) == 1 else f"{abs(c)} {zk}"
        sign = "-" if c < 0 else "+"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def _element_operand(op):
    """op with an int, Fraction or RationalPoly operand read as the degree-0 element of D.

    Any other operand that is not a SkewElement is NotImplemented.
    """

    @wraps(op)
    def coerced(self, other):
        if isinstance(other, (int, Fraction, RationalPoly)):
            other = SkewElement({0: other})
        elif not isinstance(other, SkewElement):
            return NotImplemented
        return op(self, other)

    return coerced


class SkewElement:
    """Finite sum of terms c_m(z) x^m with c_m in k(z)."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, RationalPoly] | None = None) -> None:
        clean: dict[int, RationalPoly] = {}
        if terms:
            for m, c in terms.items():
                _check_int(m, "SkewElement degrees must be integers")
                if not isinstance(c, RationalPoly):
                    c = RationalPoly.constant(c)
                if not c.is_zero():
                    clean[m] = c
        object.__setattr__(self, "_terms", clean)

    # constructors ----------------------------------------------------------

    @classmethod
    def zero(cls) -> "SkewElement":
        return cls()

    @classmethod
    def one(cls) -> "SkewElement":
        return cls({0: RationalPoly.one()})

    @classmethod
    def from_poly(cls, f: RationalPoly) -> "SkewElement":
        return cls({0: f})

    @classmethod
    def monomial(cls, c: RationalPoly, m: int) -> "SkewElement":
        return cls({m: c})

    @classmethod
    def x_power(cls, m: int) -> "SkewElement":
        return cls({m: RationalPoly.one()})

    @classmethod
    def y_power(cls, r: int) -> "SkewElement":
        """y^r for any integer r, where y = (z-1) x^{-1}.

        y^r = (z-1)...(z-r) x^{-r} for r >= 0, and
        y^{-n} = (z (z+1) ... (z+n-1))^{-1} x^n for n > 0.
        """
        _check_int(r, "y_power's exponent must be an integer")
        if r >= 0:
            return cls({-r: _ratio(_linear_coeffs(range(-1, -r - 1, -1)), _ONE)})
        return cls({-r: _ratio(_ONE, _linear_coeffs(range(-r)))})

    # structure -------------------------------------------------------------

    def coefficient(self, m: int) -> RationalPoly:
        return self._terms.get(m, RationalPoly.zero())

    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted(self._terms))

    def is_zero(self) -> bool:
        return not self._terms

    # arithmetic ------------------------------------------------------------

    @_element_operand
    def __add__(self, other: "SkewElement") -> "SkewElement":
        out = dict(self._terms)
        for m, c in other._terms.items():
            out[m] = out[m] + c if m in out else c
        return SkewElement(out)

    __radd__ = __add__

    def __neg__(self) -> "SkewElement":
        return SkewElement({m: -c for m, c in self._terms.items()})

    @_element_operand
    def __sub__(self, other: "SkewElement") -> "SkewElement":
        return self + (-other)

    @_element_operand
    def __rsub__(self, other: "SkewElement") -> "SkewElement":
        return other + (-self)

    @_element_operand
    def __mul__(self, other: "SkewElement") -> "SkewElement":
        out: dict[int, RationalPoly] = {}
        for m, f in self._terms.items():
            for n, g in other._terms.items():
                # (f x^m)(g x^n) = f * g(z+m) x^{m+n}
                c = f * g.shift(m)
                d = m + n
                out[d] = out[d] + c if d in out else c
        return SkewElement(out)

    @_element_operand
    def __rmul__(self, other: "SkewElement") -> "SkewElement":
        return other * self

    def __pow__(self, k: int) -> "SkewElement":
        _check_int(k, "a power's exponent must be an integer")
        if k < 0:
            raise ValueError("negative powers of general skew elements are not defined")
        out = SkewElement.one()
        for _ in range(k):
            out = out * self
        return out

    @_element_operand
    def __eq__(self, other: "SkewElement") -> bool:
        return self._terms == other._terms

    def __hash__(self) -> int:
        # a degree-0 element hashes as its coefficient, since it compares equal to it
        if self._terms.keys() <= {0}:
            return hash(self.coefficient(0))
        return hash(tuple(sorted(self._terms.items())))

    def __repr__(self) -> str:
        return f"SkewElement({self})"

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for m in sorted(self._terms, reverse=True):
            c = self._terms[m]
            cs = str(c)
            if m == 0:
                parts.append(cs)
            else:
                xp = "x" if m == 1 else f"x^{m}"
                parts.append(xp if c.is_one() else f"({cs}) {xp}")
        return " + ".join(parts)

    def to_json(self) -> dict:
        return {str(m): c.to_json() for m, c in sorted(self._terms.items())}

    @classmethod
    def from_json(cls, data: Mapping[str, dict]) -> "SkewElement":
        return cls({int(m): RationalPoly.from_json(c) for m, c in data.items()})


def x() -> SkewElement:
    return SkewElement.x_power(1)


def y() -> SkewElement:
    return SkewElement.y_power(1)


def weyl_membership(u: SkewElement) -> bool:
    """True when u lies in the Weyl algebra A inside D.

    Degree m >= 0 needs a polynomial coefficient; degree -r < 0 needs the
    coefficient divisible by (z-1)...(z-r), since y^r = (z-1)...(z-r) x^{-r}.
    """
    for m, c in u._terms.items():
        if m >= 0:
            if not c.is_polynomial():
                return False
        else:
            if not (c / RationalPoly.falling(-m)).is_polynomial():
                return False
    return True
