"""Sparse multivariate polynomials over an exact scalar field.

Coefficients are either :class:`fractions.Fraction` or
:class:`singfold.exact.AlgebraicScalar` (one extension ring per polynomial).
Terms are a dict from exponent tuples to nonzero coefficients; the variable
tuple is ordered by a fixed global precedence so the canonical form is
unique.  Polynomials are immutable by convention.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import lcm
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple, Union

from .exact import AlgebraicScalar, Scalar, invert, upoly_gcd, _frac

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


def _sort_vars(names: Iterable[str]) -> Tuple[str, ...]:
    return tuple(sorted(set(names), key=_var_key))


def _is_zero(c) -> bool:
    return not c


class Polynomial:
    """A sparse multivariate polynomial in canonical form."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[Tuple[int, ...], Scalar]):
        self.variables = tuple(variables)
        self.terms: Dict[Tuple[int, ...], Scalar] = {
            e: c for e, c in terms.items() if not _is_zero(c)}

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(c, variables: Sequence[str] = ()) -> "Polynomial":
        if isinstance(c, int):
            c = Fraction(c)
        n = len(variables)
        return Polynomial(variables, {(0,) * n: c} if not _is_zero(c) else {})

    @staticmethod
    def var(name: str) -> "Polynomial":
        return Polynomial((name,), {(1,): Fraction(1)})

    @staticmethod
    def zero(variables: Sequence[str] = ()) -> "Polynomial":
        return Polynomial(variables, {})

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exp) for exp in self.terms)

    def constant_value(self) -> Scalar:
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise ValueError(f"not a constant: {self}")
        return next(iter(self.terms.values()))

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=-1)

    def degree_in(self, name: str) -> int:
        if name not in self.variables:
            return 0
        i = self.variables.index(name)
        return max((e[i] for e in self.terms), default=-1)

    def used_variables(self) -> Tuple[str, ...]:
        used = set()
        for e in self.terms:
            for i, k in enumerate(e):
                if k:
                    used.add(self.variables[i])
        return _sort_vars(used)

    def drop_unused(self) -> "Polynomial":
        used = self.used_variables()
        if used == self.variables:
            return self
        return align(self, used)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        p, q = _pair(self, other)
        out = dict(p.terms)
        for e, c in q.terms.items():
            s = out.get(e, 0) + c
            if _is_zero(s):
                out.pop(e, None)
            else:
                out[e] = s
        return Polynomial(p.variables, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-_lift(other, self.variables))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        p, q = _pair(self, other)
        out: Dict[Tuple[int, ...], Scalar] = {}
        for e1, c1 in p.terms.items():
            for e2, c2 in q.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, 0) + c1 * c2
                if _is_zero(s):
                    out.pop(e, None)
                else:
                    out[e] = s
        return Polynomial(p.variables, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        out = Polynomial.constant(1, self.variables)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __truediv__(self, c):
        if isinstance(c, Polynomial):
            raise TypeError("use div_exact for polynomial division")
        return self * invert(_frac(c) if isinstance(c, int) else c)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, AlgebraicScalar)):
            other = Polynomial.constant(other, self.variables)
        if not isinstance(other, Polynomial):
            return NotImplemented
        p, q = _pair(self, other)
        return p.terms == q.terms

    def __hash__(self):
        p = self.drop_unused()
        return hash((p.variables, frozenset(p.terms.items())))

    def __repr__(self):
        return to_text(self)

    # -- calculus & evaluation ---------------------------------------------

    def diff(self, name: str) -> "Polynomial":
        if name not in self.variables:
            raise ValueError(f"unknown variable {name!r}")
        i = self.variables.index(name)
        out: Dict[Tuple[int, ...], Scalar] = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            ne = e[:i] + (e[i] - 1,) + e[i + 1:]
            nc = c * e[i]
            s = out.get(ne, 0) + nc
            if _is_zero(s):
                out.pop(ne, None)
            else:
                out[ne] = s
        return Polynomial(self.variables, out)

    def subs(self, bindings: Mapping[str, Union["Polynomial", Scalar, int]]) -> "Polynomial":
        """Simultaneous substitution, fully expanded."""
        nvars = [v for v in self.variables if v not in bindings]
        extra = set()
        bound: Dict[str, Polynomial] = {}
        for k, v in bindings.items():
            if not isinstance(v, Polynomial):
                v = Polynomial.constant(v if not isinstance(v, int) else Fraction(v))
            bound[k] = v
            extra.update(v.used_variables())
        allvars = _sort_vars(set(nvars) | extra)
        result = Polynomial.zero(allvars)
        for e, c in self.terms.items():
            term = Polynomial.constant(c, allvars)
            for i, k in enumerate(e):
                if k == 0:
                    continue
                name = self.variables[i]
                base = bound.get(name, None)
                if base is None:
                    base = align(Polynomial.var(name), allvars)
                else:
                    base = align(base, allvars)
                term = term * base ** k
            result = result + term
        return result

    def evaluate(self, values: Mapping[str, Scalar]) -> Scalar:
        acc = None
        for e, c in self.terms.items():
            t = c
            for i, k in enumerate(e):
                if k:
                    t = t * values[self.variables[i]] ** k
            acc = t if acc is None else acc + t
        return acc if acc is not None else Fraction(0)

    def coefficients_in(self, name: str) -> List["Polynomial"]:
        """Coefficients of powers of ``name``, low to high, over the other vars."""
        if name not in self.variables:
            return [self]
        i = self.variables.index(name)
        rest = self.variables[:i] + self.variables[i + 1:]
        d = self.degree_in(name)
        coeffs = [dict() for _ in range(d + 1)]
        for e, c in self.terms.items():
            re = e[:i] + e[i + 1:]
            coeffs[e[i]][re] = c
        return [Polynomial(rest, t) for t in coeffs]

    def homogeneous_part(self, d: int) -> "Polynomial":
        return Polynomial(self.variables,
                          {e: c for e, c in self.terms.items() if sum(e) == d})

    def lowest_degree(self) -> int:
        return min((sum(e) for e in self.terms), default=-1)


def _lift(x, variables) -> Polynomial:
    if isinstance(x, Polynomial):
        return x
    if isinstance(x, int):
        x = Fraction(x)
    return Polynomial.constant(x, variables)


def align(p: Polynomial, variables: Sequence[str]) -> Polynomial:
    """Re-express p on a variable tuple that must contain its used variables."""
    variables = tuple(variables)
    if p.variables == variables:
        return p
    idx = []
    for v in p.variables:
        idx.append(variables.index(v) if v in variables else -1)
    out: Dict[Tuple[int, ...], Scalar] = {}
    n = len(variables)
    for e, c in p.terms.items():
        ne = [0] * n
        for i, k in enumerate(e):
            if k:
                if idx[i] < 0:
                    raise ValueError(f"variable {p.variables[i]!r} not in target")
                ne[idx[i]] = k
        key = tuple(ne)
        s = out.get(key, 0) + c
        if _is_zero(s):
            out.pop(key, None)
        else:
            out[key] = s
    return Polynomial(variables, out)


def _pair(p: Polynomial, other) -> Tuple[Polynomial, Polynomial]:
    q = _lift(other, p.variables)
    if p.variables == q.variables:
        return p, q
    union = _sort_vars(set(p.variables) | set(q.variables))
    return align(p, union), align(q, union)


def exponent_tuples(n_vars: int, d: int) -> List[Tuple[int, ...]]:
    """All exponent tuples in n_vars >= 1 variables of total degree d, in
    lexicographic order."""
    out = []

    def rec(prefix, remaining, left):
        if remaining == 1:
            out.append(prefix + (left,))
            return
        for k in range(left + 1):
            rec(prefix + (k,), remaining - 1, left - k)

    rec((), n_vars, d)
    return out


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

def to_text(p: Polynomial) -> str:
    """Canonical human syntax, graded-lex term order, e.g. ``-1/64*X^5 + X*Y^2``."""
    if p.is_zero():
        return "0"
    q = p.drop_unused()

    def order(e):
        return (-sum(e), tuple(-k for k in e))

    parts = []
    for e in sorted(q.terms, key=order):
        c = q.terms[e]
        mon = "*".join(
            (v if k == 1 else f"{v}^{k}")
            for v, k in zip(q.variables, e) if k)
        if isinstance(c, AlgebraicScalar):
            cs = f"({c!r})"
            parts.append(f"{cs}*{mon}" if mon else cs)
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
    """Parse exact polynomial text: rationals, + - * / ^ ( ), and variables."""
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

    def parse_expr() -> Polynomial:
        t = peek()
        sign = 1
        while t in ("+", "-"):
            take()
            if t == "-":
                sign = -sign
            t = peek()
        node = parse_term()
        node = node if sign > 0 else -node
        while peek() in ("+", "-"):
            op = take()
            rhs = parse_term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def parse_term() -> Polynomial:
        node = parse_factor()
        while True:
            t = peek()
            if t == "*":
                take()
                node = node * parse_factor()
            elif t == "/":
                take()
                d = parse_factor()
                if not d.is_constant():
                    raise ParseError("division only by constants")
                node = node * Fraction(1) / d.constant_value()
            elif t is not None and (t == "(" or _is_name(t) or _is_num(t)):
                # juxtaposition
                node = node * parse_factor()
            else:
                return node

    def parse_factor() -> Polynomial:
        node = parse_atom()
        while peek() in ("^", "**"):
            take()
            neg = False
            if peek() == "-":
                take()
                neg = True
            e = take()
            if not _is_num(e) or "/" in e:
                raise ParseError(f"bad exponent {e!r}")
            if neg:
                raise ParseError("negative exponents unsupported")
            node = node ** int(e)
        return node

    def parse_atom() -> Polynomial:
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
        if t == "-":
            take()
            return -parse_atom()
        take()
        if _is_num(t):
            return Polynomial.constant(Fraction(t))
        if _is_name(t):
            return Polynomial.var(t)
        raise ParseError(f"unexpected token {t!r}")

    node = parse_expr()
    if pos[0] != len(tokens):
        raise ParseError(f"trailing input at token {tokens[pos[0]]!r}")
    return node.drop_unused()


def _is_name(t: str) -> bool:
    return t[0].isalpha() or t[0] == "_"


def _is_num(t: str) -> bool:
    return t[0].isdigit()


def _tokenize(text: str) -> List[str]:
    out = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*/^()":
            if ch == "*" and i + 1 < n and text[i + 1] == "*":
                out.append("**")
                i += 2
            else:
                out.append(ch)
                i += 1
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            out.append(text[i:j])
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(text[i:j])
            i = j
        else:
            raise ParseError(f"bad character {ch!r}")
    return out


# ---------------------------------------------------------------------------
# division, resultants, gcd
# ---------------------------------------------------------------------------

def div_exact(p: Polynomial, q: Polynomial) -> Polynomial:
    """Exact division p / q; raises ValueError if q does not divide p."""
    if q.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    union = _sort_vars(set(p.variables) | set(q.variables))
    p = align(p, union)
    q = align(q, union)

    def lead(f: Polynomial):
        e = max(f.terms, key=lambda e: (sum(e), e))
        return e, f.terms[e]

    qe, qc = lead(q)
    qinv = invert(qc)
    out: Dict[Tuple[int, ...], Scalar] = {}
    rem = p
    while not rem.is_zero():
        re, rc = lead(rem)
        de = tuple(a - b for a, b in zip(re, qe))
        if any(k < 0 for k in de):
            raise ValueError("inexact polynomial division")
        c = rc * qinv
        out[de] = c
        rem = rem - Polynomial(union, {de: c}) * q
    return Polynomial(union, out)


# Sylvester resultants run on dense coefficient lists over Z[t]: Python ints,
# low to high, trimmed, [] for zero.  Bareiss elimination keeps every entry
# integral, so each division below is exact.

def _zt_mul(a: List[int], b: List[int]) -> List[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _zt_sub(a: List[int], b: List[int]) -> List[int]:
    out = [x - y for x, y in zip_longest(a, b, fillvalue=0)]
    while out and not out[-1]:
        out.pop()
    return out


def _zt_div_exact(a: List[int], b: List[int]) -> List[int]:
    """a / b in Z[t] for a nonzero b that divides a."""
    if not a:
        return []
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


def _zt_det(m: List[List[List[int]]]) -> List[int]:
    """Determinant over Z[t] by fraction-free Bareiss elimination."""
    n = len(m)
    sign = 1
    prev = [1]
    for k in range(n - 1):
        if not m[k][k]:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return []
        pivot, row_k = m[k][k], m[k]
        for i in range(k + 1, n):
            row_i = m[i]
            a = row_i[k]
            for j in range(k + 1, n):
                num = _zt_sub(_zt_mul(pivot, row_i[j]), _zt_mul(a, row_k[j]))
                row_i[j] = num if prev == [1] else _zt_div_exact(num, prev)
        prev = pivot
    d = m[n - 1][n - 1]
    return [-c for c in d] if sign < 0 else d


def _integer_coefficients(p: Polynomial, name: str, t) -> Tuple[List[List[int]], int]:
    """Coefficients of p in ``name``, low to high, as dense Z[t] lists after
    clearing denominators, and the multiplier d that cleared them."""
    i = p.variables.index(name) if name in p.variables else None
    j = p.variables.index(t) if t in p.variables else None
    d = 1
    for c in p.terms.values():
        if not isinstance(c, (int, Fraction)):
            raise ValueError("resultant needs rational coefficients")
        d = lcm(d, Fraction(c).denominator)
    coeffs: Dict[int, Dict[int, int]] = {}
    for e, c in p.terms.items():
        c = Fraction(c) * d
        coeffs.setdefault(e[i] if i is not None else 0, {})[
            e[j] if j is not None else 0] = c.numerator
    out = []
    for k in range(max(coeffs) + 1):
        dense = coeffs.get(k, {})
        out.append([dense.get(s, 0) for s in range(max(dense, default=-1) + 1)])
    return out, d


def resultant(p: Polynomial, q: Polynomial, name: str) -> Polynomial:
    """Sylvester resultant of p and q with respect to ``name``.

    Vanishes exactly on parameter values where p and q share a root.  The
    coefficients must be rational, in at most one variable t besides
    ``name``; the determinant runs fraction-free over Z[t].
    """
    if p.is_zero() or q.is_zero():
        raise ValueError("resultant of the zero polynomial")
    rest = _sort_vars((set(p.variables) | set(q.variables)) - {name})
    free = _sort_vars((set(p.used_variables()) | set(q.used_variables())) - {name})
    if len(free) > 1:
        raise ValueError(f"resultant needs at most one variable besides "
                         f"{name!r}, got {', '.join(free)}")
    t = free[0] if free else None
    pc, dp = _integer_coefficients(p, name, t)
    qc, dq = _integer_coefficients(q, name, t)
    m, n = len(pc) - 1, len(qc) - 1
    if m == 0 and n == 0:
        return Polynomial.constant(1, rest)
    if m == 0:
        return align(p.drop_unused(), rest) ** n
    if n == 0:
        return align(q.drop_unused(), rest) ** m
    rows = [[[]] * i + pc[::-1] + [[]] * (n - 1 - i) for i in range(n)]
    rows += [[[]] * i + qc[::-1] + [[]] * (m - 1 - i) for i in range(m)]
    det = _zt_det(rows)
    # the rows of p were scaled by dp, those of q by dq
    scale = dp ** n * dq ** m
    # sign normalized so that Res_v(p, v) = -p(0) and Res_v(p-v, p+v) = 2p
    if n % 2 == 1:
        scale = -scale
    variables = (t,) if t is not None else ()
    terms = {(k,) if t is not None else (): Fraction(c, scale)
             for k, c in enumerate(det) if c}
    return Polynomial(variables, terms).drop_unused()


def univariate_coefficients(p: Polynomial, name: str) -> tuple:
    """Scalar coefficients of a polynomial in ``name`` alone, low to high."""
    if set(p.used_variables()) - {name}:
        raise ValueError(f"not univariate in {name!r}: {p}")
    q = align(p, (name,))
    out: List[Scalar] = [Fraction(0)] * (q.degree_in(name) + 1)
    for e, c in q.terms.items():
        out[e[0]] = c
    return tuple(out)


def gcd_univariate(p: Polynomial, q: Polynomial) -> Polynomial:
    """Monic gcd of univariate polynomials over one scalar ring.

    The coefficients go through :func:`singfold.exact.upoly_gcd`; over an
    extension ring it may raise SplitEvent.
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

BINARY_CUBIC_SHAPES = ("three-distinct", "one-double", "triple", "zero")


def binary_cubic_shape(c: Polynomial) -> str:
    """Root-multiplicity shape of a homogeneous binary cubic (or zero).

    Distinguishes three distinct roots, one double root, a triple root,
    and the zero form, from the degree of gcd(c, c_u, c_v).
    """
    if c.is_zero():
        return "zero"
    used = c.used_variables()
    if len(used) > 2:
        raise ValueError("binary form needed")
    if not all(sum(e) == 3 for e in c.terms):
        raise ValueError("homogeneous cubic needed")
    u, v = (used + ("_aux1", "_aux2"))[:2]
    d = _binary_form_gcd_degree(
        [c, c.diff(u)] + ([c.diff(v)] if v in c.variables else []), u, v)
    if d == 0:
        return "three-distinct"
    if d == 1:
        return "one-double"
    if d == 2:
        return "triple"
    raise ValueError("impossible gcd degree for a nonzero cubic")


def _binary_form_gcd_degree(forms: List[Polynomial], u: str, v: str) -> int:
    """Degree of the gcd of homogeneous binary forms in (u, v)."""
    # dehomogenize at v = 1; a common factor v^k shows up as degree drop
    infinity_mult = None
    dehoms = []
    for f in forms:
        if f.is_zero():
            continue
        deg = f.total_degree()
        fe = f.subs({v: Polynomial.constant(Fraction(1))}) if v in f.variables else f
        fe = fe.drop_unused()
        dv = fe.total_degree()
        k = deg - dv  # multiplicity of v in f
        infinity_mult = k if infinity_mult is None else min(infinity_mult, k)
        dehoms.append(fe)
    g = None
    for fe in dehoms:
        g = fe if g is None else gcd_univariate(g, fe)
        if g.total_degree() == 0 and (infinity_mult or 0) == 0:
            return 0
    return (g.total_degree() if g is not None else 0) + (infinity_mult or 0)
