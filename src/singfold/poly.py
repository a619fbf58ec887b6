"""Sparse multivariate polynomials over an exact scalar field.

Coefficients are either :class:`fractions.Fraction` or
:class:`singfold.exact.AlgebraicScalar` (one extension ring per polynomial).
A polynomial is one dict from packed monomials to nonzero coefficients: each
variable owns a fixed 16-bit field of one integer (the ``_VAR_ORDER`` names
first, any other name on first use), so a monomial product is one integer
addition (Monagan-Pearce, CASC 2007).  Exponents stay below 2^15; the top
bit of each field is a guard, and a product that sets it raises
OverflowError rather than carry into the next field.  Packed keys never
leave this module: callers use exponent tuples over names of their choice,
and every observable order is the ``_var_key`` order.  Polynomials are
immutable by convention.

Products, powers and substitutions run on integer numerators, fraction-free
as in :class:`singfold.exact.Echelon`: each operand is split once into
numerators over one denominator (Python ints over the lcm of its
denominators; ring coefficients as they are, over 1), one loop multiplies
and adds numerators only, and each coefficient of the result is divided
once by the product of the denominators.  :func:`parse` builds every node
on numerators over one denominator too, and divides once, at the end.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction
from typing import Dict, List, Mapping, Sequence, Tuple, Union

from .exact import (AlgebraicScalar, Scalar, _frac, _zt_mul, _zt_sub,
                    clear_denominators, invert, upoly_gcd)

# fixed precedence for the variable universe; unknown names sort after, alphabetically
_VAR_ORDER = [
    "x", "y", "z", "X", "Y", "Z", "W", "u", "v", "w",
    "t2", "t4", "t6", "t8", "t10", "t12",
    "x1", "x2", "x3", "x4", "x5", "x6", "x7", "x8",
    "p2", "p4", "p5", "p6", "p8", "p9", "p10", "p12", "p14", "p18", "p0",
]
_VAR_RANK = {v: i for i, v in enumerate(_VAR_ORDER)}


def _var_key(name: str):
    return (0, _VAR_RANK[name]) if name in _VAR_RANK else (1, name)


_BITS = 16                        # bits per variable field
_LIMIT = 1 << (_BITS - 1)         # exponents stay below the field's guard bit
_MASK = (1 << _BITS) - 1
_NAMES: List[str] = []            # field index -> variable name
_SHIFT: Dict[str, int] = {}       # variable name -> bit offset of its field
_GUARD = 0                        # the guard bits of every allocated field


def _shift(name: str) -> int:
    """Bit offset of a variable's field, allocated on first use."""
    sh = _SHIFT.get(name)
    if sh is None:
        global _GUARD
        sh = _SHIFT[name] = _BITS * len(_NAMES)
        _NAMES.append(name)
        _GUARD |= _LIMIT << sh
    return sh


for _name in _VAR_ORDER:
    _shift(_name)

Terms = Dict[int, Scalar]


def _fields(e: int):
    """(field index, exponent) of each nonzero field of a packed monomial."""
    i = 0
    while e:
        if e & _MASK:
            yield i, e & _MASK
        e >>= _BITS
        i += 1


def _degree(e: int) -> int:
    return sum(k for _, k in _fields(e))


_TOO_LARGE = f"exponent too large: the limit is {_LIMIT - 1}"


def _accumulate(out: Terms, terms: Terms) -> None:
    """out += terms, in place, dropping the coefficients that cancel."""
    for e, c in terms.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)


def _cleared(terms: Terms) -> Tuple[dict, int]:
    """(numerators, d): the terms times d, Python ints over the lcm d of the
    denominators of a rational polynomial, the coefficients themselves over
    d = 1 in an extension ring."""
    nums, d = clear_denominators(terms.values())
    return dict(zip(terms, nums)), d


def _over(nums: dict, d: int) -> Terms:
    """The terms of numerators over d, each divided once, in place."""
    if d == 1:
        for e, n in nums.items():
            if type(n) is int:
                nums[e] = Fraction(n)
    else:
        inv = Fraction(1, d)
        for e, n in nums.items():
            nums[e] = Fraction(n, d) if type(n) is int else n * inv
    return nums


def _product(a: dict, b: dict) -> dict:
    """The product of numerator terms, this module's one product loop, for
    operands whose exponents are below the limit: then no field carries,
    and a guard bit set in a product term means overflow."""
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    if any(e & _GUARD for e in out):
        raise OverflowError(_TOO_LARGE)
    return out


def _power(base: dict, n: int) -> dict:
    """base ** n on numerator terms, this module's one power loop."""
    out = {0: 1}
    while n:
        if n & 1:
            out = _product(out, base)
        n >>= 1
        if n:
            base = _product(base, base)
    return out


def _scale(nums: dict, k: int) -> dict:
    """Numerator terms times a nonzero int k, in place."""
    if k != 1:
        for e in nums:
            nums[e] *= k
    return nums


def _mul_terms(a: Terms, b: Terms) -> Terms:
    """a * b on numerators, divided once by the product of the denominators."""
    (a, da), (b, db) = _cleared(a), _cleared(b)
    return _over(_product(a, b), da * db)


def _terms_of(x) -> Terms:
    """The terms of a polynomial, or of a scalar as a constant."""
    if isinstance(x, Polynomial):
        return x._terms
    return {0: Fraction(x) if isinstance(x, int) else x} if x else {}


class Polynomial:
    """A sparse multivariate polynomial in canonical form.

    ``Polynomial(names, {exponent tuple: c})`` builds one from exponent
    tuples over ``names``; :meth:`exponents` reads it back the same way.
    """

    __slots__ = ("_terms",)

    def __init__(self, names: Sequence[str],
                 terms: Mapping[Tuple[int, ...], Scalar]):
        shifts = [_shift(n) for n in names]
        self._terms: Terms = {}
        for exps, c in terms.items():
            e = 0
            for sh, k in zip(shifts, exps, strict=True):
                if not 0 <= k < _LIMIT:
                    raise OverflowError(f"exponent {k} outside 0..{_LIMIT - 1}")
                e |= k << sh
            if c:
                self._terms[e] = c

    @staticmethod
    def _of(terms: Terms) -> "Polynomial":
        p = object.__new__(Polynomial)
        p._terms = terms
        return p

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(c) -> "Polynomial":
        return Polynomial._of(_terms_of(c))

    @staticmethod
    def var(name: str) -> "Polynomial":
        return Polynomial._of({1 << _shift(name): Fraction(1)})

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial._of({})

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return not any(self._terms)

    def constant_value(self) -> Scalar:
        if not self.is_constant():
            raise ValueError(f"not a constant: {self}")
        return self.constant_term()

    def constant_term(self) -> Scalar:
        return self._terms.get(0, Fraction(0))

    def total_degree(self) -> int:
        return max((_degree(e) for e in self._terms), default=-1)

    def degree_in(self, name: str) -> int:
        sh = _shift(name)
        return max(((e >> sh) & _MASK for e in self._terms), default=0)

    def used_variables(self) -> Tuple[str, ...]:
        used = 0
        for e in self._terms:
            used |= e
        return tuple(sorted((_NAMES[i] for i, _ in _fields(used)), key=_var_key))

    def exponents(self, names: Sequence[str]) -> Dict[Tuple[int, ...], Scalar]:
        """The terms as {exponent tuple over names: coefficient}; raises
        ValueError if a term uses a variable outside names."""
        shifts = [_shift(n) for n in names]
        inside = sum(_MASK << sh for sh in shifts)
        out = {}
        for e, c in self._terms.items():
            if e & ~inside:
                raise ValueError(f"{self} uses a variable outside {tuple(names)}")
            out[tuple((e >> sh) & _MASK for sh in shifts)] = c
        return out

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        out = dict(self._terms)
        _accumulate(out, _terms_of(other))
        return Polynomial._of(out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._of({e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-Polynomial._of(_terms_of(other)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        return Polynomial._of(_mul_terms(self._terms, _terms_of(other)))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        base, d = _cleared(self._terms)
        return Polynomial._of(_over(_power(base, n), d ** n))

    def __truediv__(self, c):
        if isinstance(c, Polynomial):
            raise TypeError("use div_exact for polynomial division")
        return self * invert(_frac(c) if isinstance(c, int) else c)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, AlgebraicScalar)):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __repr__(self):
        return to_text(self)

    # -- calculus & evaluation ---------------------------------------------

    def diff(self, name: str) -> "Polynomial":
        sh = _shift(name)
        out: Terms = {}
        for e, c in self._terms.items():
            k = (e >> sh) & _MASK
            if k:
                out[e - (1 << sh)] = c * k
        return Polynomial._of(out)

    def subs(self, bindings: Mapping[str, Union["Polynomial", Scalar, int]]) -> "Polynomial":
        """Simultaneous substitution, fully expanded, on numerators over one
        denominator: a bound value V/v whose variable has top power t in
        self turns c * x^k into c * V^k * v^(t - k) over v^t.  The powers
        of each V are computed once per call."""
        terms, d = _cleared(self._terms)
        bound = []                     # (shift, powers of V)
        scaled = []                    # (shift, v, t) where v != 1
        keep = -1                      # the fields left alone
        for name, value in bindings.items():
            sh = _shift(name)
            keep &= ~(_MASK << sh)
            num, v = _cleared(_terms_of(value))
            bound.append((sh, [{0: 1}, num]))
            if v != 1:
                top = max(((e >> sh) & _MASK for e in terms), default=0)
                scaled.append((sh, v, top))
                d *= v ** top
        out: dict = {}
        for e, c in terms.items():
            for sh, v, top in scaled:
                c *= v ** (top - ((e >> sh) & _MASK))
            term = {e & keep: c}
            for sh, powers in bound:
                k = (e >> sh) & _MASK
                if k:
                    while len(powers) <= k:
                        powers.append(_product(powers[-1], powers[1]))
                    term = _product(term, powers[k])
            _accumulate(out, term)
        return Polynomial._of(_over(out, d))

    def evaluate(self, values: Mapping[str, Scalar]) -> Scalar:
        """The value at ``values``, on numerators over one denominator: a
        value n/m (a ring value over m = 1) of a variable with top power t
        turns c * x^k into c * n^k * m^(t - k) over m^t, so each term is
        a product of table entries and the one division comes last."""
        terms = self._terms
        nums, d = clear_denominators(terms.values())
        used = 0
        for e in terms:
            used |= e
        tables = []                    # (shift, [n^k * m^(t - k)])
        for i, _ in _fields(used):
            sh = _BITS * i
            x = values[_NAMES[i]]
            n, m = (x, 1) if type(x) is AlgebraicScalar else \
                (x.numerator, x.denominator)
            top = max((e >> sh) & _MASK for e in terms)
            table = [1, n]
            for _ in range(top - 1):
                table.append(table[-1] * n)
            if m != 1:
                table = [a * m ** (top - k) for k, a in enumerate(table)]
                d *= m ** top
            tables.append((sh, table))
        acc = 0
        for e, c in zip(terms, nums):
            for sh, table in tables:
                c *= table[(e >> sh) & _MASK]
            acc += c
        if type(acc) is int:
            return Fraction(acc, d)
        return acc / d if d != 1 else acc

    def coefficients_in(self, name: str) -> List["Polynomial"]:
        """Coefficients of powers of ``name``, low to high, over the other
        variables; [self] if ``name`` does not occur."""
        sh = _shift(name)
        parts: Dict[int, Terms] = {}
        for e, c in self._terms.items():
            k = (e >> sh) & _MASK
            parts.setdefault(k, {})[e - (k << sh)] = c
        if not parts:
            return [self]
        return [Polynomial._of(parts.get(k, {})) for k in range(max(parts) + 1)]

    def homogeneous_part(self, d: int) -> "Polynomial":
        return Polynomial._of({e: c for e, c in self._terms.items()
                               if _degree(e) == d})


@functools.cache
def monomials(weights: Tuple[int, ...], d: int) -> Tuple[Tuple[int, ...], ...]:
    """Exponent tuples of weighted degree d for positive ``weights``, in
    ascending lex order; ``(1,) * n`` gives total degree d.  Cached."""
    if not weights:
        return ((),) if d == 0 else ()
    w, tail = weights[0], weights[1:]
    return tuple((k,) + e for k in range(d // w + 1)
                 for e in monomials(tail, d - k * w))


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

def to_text(p: Polynomial) -> str:
    """Canonical human syntax, graded-lex term order, e.g. ``-1/64*X^5 + X*Y^2``."""
    if p.is_zero():
        return "0"
    names = p.used_variables()
    terms = p.exponents(names)

    def order(e):
        return (-sum(e), tuple(-k for k in e))

    parts = []
    for e in sorted(terms, key=order):
        c = terms[e]
        mon = "*".join(
            (v if k == 1 else f"{v}^{k}")
            for v, k in zip(names, e) if k)
        if isinstance(c, AlgebraicScalar):
            parts.append(f"+ ({c!r})*{mon}" if mon else f"+ ({c!r})")
            continue
        neg = c < 0
        ac = -c if neg else c
        if mon:
            body = mon if ac == 1 else f"{ac}*{mon}"
        else:
            body = str(ac)
        parts.append(("- " if neg else "+ ") + body)
    text = " ".join(parts)
    if text.startswith("+ "):
        text = text[2:]
    elif text.startswith("- "):
        text = "-" + text[2:]
    return text


class ParseError(ValueError):
    pass


def parse(text: str) -> Polynomial:
    """Parse exact polynomial text: rationals, + - * / ^ ( ), and variables.
    ``^`` and ``**`` are right-associative, as in Python, and exponents stay
    below 2^15.  Parsing runs on numerators: each node is a pair
    (numerators, d), Python ints over one positive int d as
    :func:`_product` takes them; a sum raises its accumulator in place to
    the lcm of the denominators, and the terms are divided once, at the
    end."""
    tokens = _tokenize(text)
    pos = [0]

    def peek():
        return tokens[pos[0]] if pos[0] < len(tokens) else None

    def take():
        if pos[0] == len(tokens):
            raise ParseError("unexpected end of input")
        t = tokens[pos[0]]
        pos[0] += 1
        return t

    def parse_expr() -> Tuple[dict, int]:
        nums, d = parse_term()
        while peek() in ("+", "-"):
            sign = -1 if take() == "-" else 1
            term, dt = parse_term()
            lcm = math.lcm(d, dt)
            _scale(nums, lcm // d)
            d = lcm
            _accumulate(nums, _scale(term, sign * (d // dt)))
        return nums, d

    def parse_term() -> Tuple[dict, int]:
        nums, d = parse_factor()
        while True:
            t = peek()
            if t == "/":
                take()
                c, dc = parse_factor()
                if any(c):
                    raise ParseError("division only by constants")
                if not c:
                    raise ParseError("division by zero")
                # nums/d over c/dc is nums*dc / (d*c), with d kept positive
                c = c[0]
                _scale(nums, dc if c > 0 else -dc)
                d *= abs(c)
                continue
            if t == "*":
                take()
            elif t is None or not (t == "(" or _is_name(t) or _is_num(t)):
                return nums, d
            # a product, or juxtaposition
            b, db = parse_factor()
            nums, d = _product(nums, b), d * db

    def parse_factor() -> Tuple[dict, int]:
        """A signed power: the signs bind looser than ``^``, as in Python."""
        sign = 1
        while peek() in ("+", "-"):
            sign = -sign if take() == "-" else sign
        nums, d = parse_atom()
        if peek() in ("^", "**"):
            take()
            k = parse_exponent()
            nums, d = _power(nums, k), d ** k
        return _scale(nums, sign), d

    def parse_exponent() -> int:
        """A natural number, raised to the exponent that follows it."""
        neg = peek() == "-"
        if neg:
            take()
        e = take()
        if not _is_num(e):
            raise ParseError(f"bad exponent {e!r}")
        if neg:
            raise ParseError("negative exponents unsupported")
        k = int(e)
        if k < _LIMIT and peek() in ("^", "**"):
            take()
            j = parse_exponent()
            # k^j < 2^15 needs k < 2 or j < 15, which keeps k ** j small
            k = k ** j if k < 2 or j < _BITS - 1 else _LIMIT
        if k >= _LIMIT:
            raise ParseError(_TOO_LARGE)
        return k

    def parse_atom() -> Tuple[dict, int]:
        t = peek()
        if t is None:
            raise ParseError("unexpected end of input")
        if t == "(":
            take()
            node = parse_expr()
            if peek() != ")":
                raise ParseError("missing ')'")
            take()
            return node
        take()
        if _is_num(t):
            n = int(t)
            return ({0: n} if n else {}), 1
        if _is_name(t):
            return {1 << _shift(t): 1}, 1
        raise ParseError(f"unexpected token {t!r}")

    try:
        nums, d = parse_expr()
    except OverflowError as exc:
        raise ParseError(str(exc)) from None
    if pos[0] != len(tokens):
        raise ParseError(f"trailing input at token {tokens[pos[0]]!r}")
    return Polynomial._of(_over(nums, d))


def _is_name(t: str) -> bool:
    return t[0].isalpha() or t[0] == "_"


def _is_num(t: str) -> bool:
    # isdecimal, not isdigit: a superscript digit is no number
    return t[0].isdecimal()


_TOKEN = re.compile(r"\s*(?:(\*\*|[-+*/^()]|\d+|[^\W\d]\w*)|(\S))")


def _tokenize(text: str) -> List[str]:
    out = []
    for token, bad in _TOKEN.findall(text):
        if bad:
            raise ParseError(f"bad character {bad!r}")
        out.append(token)
    return out


# ---------------------------------------------------------------------------
# division, resultants, gcd
# ---------------------------------------------------------------------------

def div_exact(p: Polynomial, q: Polynomial) -> Polynomial:
    """Exact division p / q; raises ValueError if q does not divide p."""
    if q.is_zero():
        raise ZeroDivisionError("division by zero polynomial")

    def lead(terms: Terms) -> int:
        # graded, then by packed value: a monomial order
        return max(terms, key=lambda e: (_degree(e), e))

    qe = lead(q._terms)
    qinv = invert(q._terms[qe])
    out: Terms = {}
    rem = dict(p._terms)
    while rem:
        re = lead(rem)
        # with every guard bit set, subtracting qe clears the guard of each
        # field where re's exponent is below qe's
        if ((re | _GUARD) - qe) & _GUARD != _GUARD:
            raise ValueError("inexact polynomial division")
        c = rem[re] * qinv
        out[re - qe] = c
        _accumulate(rem, _mul_terms({re - qe: -c}, q._terms))
    return Polynomial._of(out)


# Resultants run on polynomials in x over Z[t]: lists of x-coefficients, low
# to high, each a dense list of Python ints in t, low to high, trimmed, [] for
# zero.  The subresultant PRS divides only by factors that Collins' theorem
# shows divide, so each division below is exact.

def _zt_div_exact(a: List[int], b: List[int]) -> List[int]:
    """a / b in Z[t] for a nonzero b that divides a."""
    if not a or b == [1]:
        return a
    db, lead = len(b) - 1, b[-1]
    rem = a[:]
    quo = [0] * max(len(a) - db, 0)
    for k in range(len(quo) - 1, -1, -1):
        c, r = divmod(rem[k + db], lead)
        if r:
            raise ArithmeticError("inexact division in Z[t]")
        if c:
            quo[k] = c
            for i, y in enumerate(b):
                rem[k + i] -= c * y
    if any(rem[:db]) or not quo:
        raise ArithmeticError("inexact division in Z[t]")
    return quo


def _zt_pow(a: List[int], e: int) -> List[int]:
    out = [1]
    for _ in range(e):
        out = _zt_mul(out, a)
    return out


def _zt_prem(a: List[List[int]], b: List[List[int]]) -> List[List[int]]:
    """The pseudo-remainder lc(b)^(deg a - deg b + 1) a mod b in Z[t][x]."""
    lead, db = b[-1], len(b) - 1
    r = a[:]
    e = len(a) - db
    while len(r) > db:
        c, k = r.pop(), len(r) - db
        r = [_zt_mul(lead, x) for x in r]
        for i, y in enumerate(b[:-1]):
            r[k + i] = _zt_sub(r[k + i], _zt_mul(c, y))
        while r and not r[-1]:
            r.pop()
        e -= 1
    pad = _zt_pow(lead, e)
    return [_zt_mul(pad, x) for x in r]


def _zt_resultant(a: List[List[int]], b: List[List[int]]) -> List[int]:
    """The Sylvester determinant of a and b, both of positive degree in x,
    by the subresultant PRS (Collins 1967; Cohen, GTM 138, Alg. 3.3.7)."""
    # Res(a, b) = (-1)^(deg a deg b) Res(b, a), at the swap and at each step
    sign = 1
    if len(a) < len(b):
        a, b = b, a
        if (len(a) - 1) * (len(b) - 1) % 2:
            sign = -1
    g = h = [1]
    while len(b) > 1:
        delta = len(a) - len(b)
        if (len(a) - 1) * (len(b) - 1) % 2:
            sign = -sign
        r = _zt_prem(a, b)
        if not r:
            return []
        div = _zt_mul(g, _zt_pow(h, delta))
        a, b = b, [_zt_div_exact(c, div) for c in r]
        g = a[-1]
        if delta:
            h = _zt_div_exact(_zt_pow(g, delta), _zt_pow(h, delta - 1))
    da = len(a) - 1
    res = _zt_div_exact(_zt_pow(b[0], da), _zt_pow(h, da - 1))
    return [-c for c in res] if sign < 0 else res


def _integer_coefficients(p: Polynomial, name: str, t) -> Tuple[List[List[int]], int]:
    """Coefficients of p in ``name``, low to high, as dense Z[t] lists after
    clearing denominators, and the multiplier d that cleared them."""
    i = _shift(name)
    j = _shift(t) if t is not None else None
    nums, d = _cleared(p._terms)
    if any(type(c) is not int for c in nums.values()):
        raise ValueError("resultant needs rational coefficients")
    coeffs: Dict[int, Dict[int, int]] = {}
    for e, c in nums.items():
        coeffs.setdefault((e >> i) & _MASK, {})[
            (e >> j) & _MASK if j is not None else 0] = c
    out = []
    for k in range(max(coeffs) + 1):
        dense = coeffs.get(k, {})
        out.append([dense.get(s, 0) for s in range(max(dense, default=-1) + 1)])
    return out, d


def resultant(p: Polynomial, q: Polynomial, name: str) -> Polynomial:
    """Sylvester resultant of p and q with respect to ``name``.

    Vanishes exactly on parameter values where p and q share a root.  The
    coefficients must be rational, in at most one variable t besides
    ``name``; after clearing denominators the determinant comes from the
    subresultant PRS over Z[t].
    """
    if p.is_zero() or q.is_zero():
        raise ValueError("resultant of the zero polynomial")
    free = sorted((set(p.used_variables()) | set(q.used_variables())) - {name},
                  key=_var_key)
    if len(free) > 1:
        raise ValueError(f"resultant needs at most one variable besides "
                         f"{name!r}, got {', '.join(free)}")
    t = free[0] if free else None
    pc, dp = _integer_coefficients(p, name, t)
    qc, dq = _integer_coefficients(q, name, t)
    m, n = len(pc) - 1, len(qc) - 1
    if m == 0 and n == 0:
        return Polynomial.constant(1)
    if m == 0:
        return p ** n
    if n == 0:
        return q ** m
    det = _zt_resultant(pc, qc)
    # p was scaled by dp and q by dq; the determinant has n rows of p, m of q
    scale = dp ** n * dq ** m
    # sign normalized so that Res_v(p, v) = -p(0) and Res_v(p-v, p+v) = 2p
    if n % 2 == 1:
        scale = -scale
    names = (t,) if t is not None else ()
    return Polynomial(names, {(k,)[:len(names)]: Fraction(c, scale)
                              for k, c in enumerate(det) if c})


def univariate_coefficients(p: Polynomial, name: str) -> tuple:
    """Scalar coefficients of a polynomial in ``name`` alone, low to high."""
    terms = p.exponents((name,))
    out: List[Scalar] = [Fraction(0)] * (max(terms, default=(-1,))[0] + 1)
    for (k,), c in terms.items():
        out[k] = c
    return tuple(out)


def gcd_univariate(p: Polynomial, q: Polynomial) -> Polynomial:
    """Monic gcd of univariate polynomials over one scalar ring.

    The coefficients go through :func:`singfold.exact.upoly_gcd`.
    """
    if p.is_zero() and q.is_zero():
        raise ValueError("gcd of two zero polynomials")
    names = set(p.used_variables()) | set(q.used_variables())
    if len(names) > 1:
        raise ValueError("gcd_univariate needs univariate input")
    name = names.pop() if names else "x"
    g = upoly_gcd(univariate_coefficients(p, name),
                  univariate_coefficients(q, name))
    return Polynomial((name,), {(i,): c for i, c in enumerate(g)})


# ---------------------------------------------------------------------------
# binary cubic shapes
# ---------------------------------------------------------------------------

def binary_cubic_shape(c: Polynomial) -> str:
    """Root-multiplicity shape of a homogeneous binary cubic (or zero).

    c = a*u^3 + b*u^2*v + e*u*v^2 + d*v^3 has three distinct roots iff its
    discriminant is nonzero, and a triple root iff its Hessian covariant
    (3ae - b^2) u^2 + (9ad - be) uv + (3bd - e^2) v^2 vanishes (Olver,
    *Classical Invariant Theory*, chapter 2).
    """
    if c.is_zero():
        return "zero"
    used = c.used_variables()
    if len(used) > 2:
        raise ValueError("binary form needed")
    if any(_degree(e) != 3 for e in c._terms):
        raise ValueError("homogeneous cubic needed")
    terms = c.exponents((used + ("_aux1",))[:2])
    a, b, e, d = (terms.get((3 - i, i), 0) for i in range(4))
    if (b * b * e * e - 4 * a * e ** 3 - 4 * b ** 3 * d - 27 * a * a * d * d
            + 18 * a * b * e * d):
        return "three-distinct"
    if 3 * a * e - b * b or 9 * a * d - b * e or 3 * b * d - e * e:
        return "one-double"
    return "triple"
