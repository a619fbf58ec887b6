"""Exact scalars: big rationals, algebraic number fields, exact linear algebra.

:func:`clear_denominators` turns rationals into Python ints over the lcm
of their denominators; the elimination loop, the factorizer, the ring
moduli and the integer-numerator products of :mod:`singfold.poly` all
start from it.

:func:`upoly_factor` factors a rational univariate polynomial into monic
irreducibles over Q (Zassenhaus: factors modulo a small prime, Hensel
lifting, exhaustive recombination), so every ring ``Q[a]/(m)`` that the
singular-point solver builds has an irreducible modulus and is a field.
The factors of each squarefree part are cached per process, keyed by its
primitive integer form.  An :class:`ExtensionRing` built by hand on a
reducible modulus still works; there :func:`invert` of a zero divisor
raises ZeroDivisionError.

Univariate polynomials are tuples of coefficients in increasing degree,
with no trailing zeros, over one scalar ring: :class:`fractions.Fraction`
or the :class:`AlgebraicScalar` elements of one extension ring.  The
``upoly_*`` functions below are the package's only univariate polynomial
code over a field.  Trimming, division, the monic gcd, the derivative and
the squarefree part work over either ring and invert leads with
:func:`invert`; the product and the factorization work on Fraction tuples.

An :class:`AlgebraicScalar` is held on Python ints: a numerator tuple over
one positive denominator, in lowest terms.  Its ring keeps the modulus as
an integer tuple over one denominator, and products are reduced modulo it
without a Fraction; only :func:`invert` runs Euclid on Fraction tuples.

Linear algebra has one elimination loop, :class:`Echelon`: sparse vectors
are top-reduced against pivot rows, fraction-free.  Over Q a pivot row is a
primitive row of Python ints, and a vector of ints goes in as it is; only a
lead in an extension ring is inverted with :func:`invert`.  A vector added
with an index carries its combination of the added vectors, and the
relations and solutions come out as Fractions.  The Milnor numbers (on
packed integer keys) and the Reynolds re-derivation use it directly;
:func:`row_reduce`, :func:`nullspace` and :func:`solve_linear` are queries
on the echelon of a matrix's columns.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from typing import (Collection, Dict, Hashable, Iterable, List, Optional,
                    Sequence, Tuple, Union)

UPoly = Tuple[Fraction, ...]  # univariate over Q, low -> high, trimmed


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"not a rational scalar: {x!r}")


def clear_denominators(values: Collection) -> Tuple[list, int]:
    """(nums, d) with nums[i] = d * values[i]: for rationals, Python ints
    over the lcm d of their denominators (primitive if some value is 1);
    with an extension-ring element among them, the values as they are,
    over d = 1."""
    kinds = set(map(type, values))
    if AlgebraicScalar in kinds or Fraction not in kinds:
        return list(values), 1
    d = math.lcm(*{c.denominator for c in values})
    if d == 1:
        return [c.numerator for c in values], 1
    return [c.numerator * (d // c.denominator) for c in values], d


# ---------------------------------------------------------------------------
# univariate polynomials
# ---------------------------------------------------------------------------

def upoly(coeffs: Iterable) -> UPoly:
    """Build a trimmed univariate polynomial from low-to-high coefficients."""
    cs = [_frac(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def upoly_deg(p: UPoly) -> int:
    """Degree, with deg 0 = -1 by convention."""
    return len(p) - 1


def _zt_mul(a: Sequence, b: Sequence) -> list:
    """The product of dense polynomials over Z or Q, low to high."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _zt_sub(a: Sequence, b: Sequence) -> list:
    """a - b for dense polynomials over Z or Q, trimmed."""
    out = [x - y for x, y in zip_longest(a, b, fillvalue=0)]
    while out and not out[-1]:
        out.pop()
    return out


def upoly_mul(p: UPoly, q: UPoly) -> UPoly:
    return upoly(_zt_mul(p, q))


def upoly_trim(p: Sequence) -> tuple:
    """The coefficients of p without trailing zeros, as a tuple."""
    n = len(p)
    while n and not p[n - 1]:
        n -= 1
    return tuple(p[:n])


def upoly_divmod(p: Sequence, q: Sequence) -> Tuple[tuple, tuple]:
    """Quotient and remainder of p by a trimmed q over one scalar ring.

    A lead of q other than 1 is inverted with :func:`invert`.
    """
    if not q:
        raise ZeroDivisionError("division by zero polynomial")
    dq = len(q) - 1
    if len(p) <= dq:
        return (), upoly_trim(p)
    inv = None if q[-1] == 1 else invert(q[-1])
    low = [(i, b) for i, b in enumerate(q[:dq]) if b]
    r = list(p)
    quot = r[dq:]
    for k in range(len(quot) - 1, -1, -1):
        c = r[k + dq]
        if c:
            if inv is not None:
                c = c * inv
            for i, b in low:
                r[k + i] = r[k + i] - c * b
        quot[k] = c
    return upoly_trim(quot), upoly_trim(r[:dq])


def upoly_monic(p: Sequence) -> tuple:
    """p divided by its lead, which is inverted unless it is 1."""
    if not p or p[-1] == 1:
        return tuple(p)
    inv = invert(p[-1])
    return tuple(c * inv for c in p)


def upoly_gcd(*polys: Sequence) -> tuple:
    """Monic gcd of polynomials over one scalar ring; () if all vanish.

    Each Euclid step makes its divisor monic before dividing by it.  The
    fold stops once the gcd is 1.
    """
    g: tuple = ()
    for p in polys:
        b = upoly_trim(p)
        if not b:
            continue
        if not g:
            g = b
            continue
        a = g
        while b:
            bm = upoly_monic(b)
            a, b = bm, upoly_divmod(a, bm)[1]
        g = a
        if len(g) == 1:
            break
    return upoly_monic(g)


def upoly_deriv(p: Sequence) -> tuple:
    return upoly_trim([i * c for i, c in enumerate(p) if i])


def upoly_squarefree_part(p: Sequence) -> tuple:
    """Monic squarefree part p / gcd(p, p')."""
    if len(p) > 2:
        g = upoly_gcd(p, upoly_deriv(p))
        if len(g) > 1:
            p, r = upoly_divmod(p, g)
            assert not r
    return upoly_monic(p)


def upoly_str(p: UPoly, var: str = "x") -> str:
    if not p:
        return "0"
    parts = []
    for i in range(len(p) - 1, -1, -1):
        c = p[i]
        if c == 0:
            continue
        # a coefficient of +-1 prints as its sign, as in poly.to_text
        mon = var if i == 1 else f"{var}^{i}"
        parts.append(str(c) if i == 0 else mon if c == 1
                     else f"-{mon}" if c == -1 else f"{c}*{mon}")
    return " + ".join(parts).replace("+ -", "- ")


# ---------------------------------------------------------------------------
# factoring over Q: Zassenhaus (Cohen, GTM 138, section 3.5; von zur
# Gathen-Gerhard, Modern Computer Algebra, chapters 14 and 15).  A
# polynomial mod m is a trimmed list of ints in [0, m), low to high.
# ---------------------------------------------------------------------------

def _zm(f, m: int) -> list:
    f = [c % m for c in f]
    while f and not f[-1]:
        f.pop()
    return f


def _zm_add(f, g, m: int, k: int = 1) -> list:
    """f + k*g mod m."""
    return _zm([a + k * b for a, b in zip_longest(f, g, fillvalue=0)], m)


def _zm_mul(f, g, m: int) -> list:
    return _zm(_zt_mul(f, g), m)


def _zm_divmod(f, g, m: int) -> Tuple[list, list]:
    """Quotient and remainder mod m by g, whose lead is a unit mod m."""
    r, dg, inv = list(f), len(g) - 1, pow(g[-1], -1, m)
    q = [0] * max(len(r) - dg, 0)
    for k in range(len(q) - 1, -1, -1):
        q[k] = c = r[k + dg] * inv % m
        for i, b in enumerate(g[:dg], k):
            r[i] -= c * b
    return _zm(q, m), _zm(r[:dg], m)


def _zp_xgcd(f, g, p: int) -> List[list]:
    """[d, s, t]: d the monic gcd of f and g mod a prime p, s*f + t*g = d."""
    r0, r1 = (f, [1], []), (g, [], [1])
    while r1[0]:
        q = _zm_divmod(r0[0], r1[0], p)[0]
        r0, r1 = r1, [_zm_add(x, _zm_mul(q, y, p), p, -1) for x, y in zip(r0, r1)]
    return [_zm_mul(x, [pow(r0[0][-1], -1, p)], p) for x in r0]


def _zp_powmod(a, e: int, f, p: int) -> list:
    """a^e modulo f and p, e >= 1, by left-to-right binary powering."""
    out = a
    for bit in bin(e)[3:]:
        out = _zm_divmod(_zm_mul(out, out, p), f, p)[1]
        if bit == "1":
            out = _zm_mul(out, a, p)
    return _zm_divmod(out, f, p)[1]


def _zp_factor(f, p: int) -> List[list]:
    """The monic irreducible factors of a monic squarefree f mod an odd
    prime p.  Distinct-degree factorization gives the product of the
    factors of each degree d; Cantor-Zassenhaus splits each part u of it
    by gcd(a^((p^d - 1)/2) - 1, u), a = k read in base p, k = p, p + 1, ..."""
    out, h, d = [], [0, 1], 0
    while len(f) > 2 * d + 2:
        d, h, k = d + 1, _zp_powmod(h, p, f, p), p
        parts = [_zp_xgcd(f, _zm_add(h, [0, 1], p, -1), p)[0]]
        f = _zm_divmod(f, parts[0], p)[0]
        h = _zm_divmod(h, f, p)[1]
        while any(len(u) > d + 1 for u in parts):
            split = []
            for u in parts:
                a = _zm([k // p ** i for i in range(len(u) - 1)], p)
                w = _zp_xgcd(u, _zm_add(_zp_powmod(a, (p ** d - 1) // 2, u, p),
                                        [1], p, -1), p)[0]
                split += [w, _zm_divmod(u, w, p)[0]] if 1 < len(w) < len(u) \
                    else [u]
            parts, k = split, k + 1
        out += [u for u in parts if len(u) > 1]
    return out + [f] * (len(f) > 1)


def _factor_z(f: list) -> List[list]:
    """The irreducible factors, up to integer multiples, of a primitive
    squarefree f in Z[x] of degree n and lead b.  A root 0 and a quadratic
    split at once.  Otherwise the monic factors g_i of f mod the first prime
    p > 100 dividing neither b nor the discriminant are lifted one power m
    of p at a time, g_i += m * (e * a_i mod g_i), e = (f/b - prod g_j)/m and
    sum a_i * prod_(j != i) g_j = 1 mod p, up to M > 2B, B = (n+1)^(1/2) 2^n
    |f|_inf |b| bounding the factors of b*f.  A set S of them gives a factor
    g when g = b * prod(S) and h = b * prod(rest), symmetric mod M, have
    |g|_1 |h|_1 <= B; then f = h / content(h) (exhaustive recombination)."""
    n, b = len(f) - 1, f[-1]
    if n < 2:
        return [f]
    if not f[0]:
        return [[0, 1]] + _factor_z(f[1:])
    if n == 2:
        disc = f[1] ** 2 - 4 * f[0] * b
        r = math.isqrt(max(disc, 0))
        return [[f[1] - r, 2 * b], [f[1] + r, 2 * b]] if r * r == disc else [f]
    p = next(p for p in itertools.count(101, 2)
             if all(p % q for q in range(3, math.isqrt(p) + 1, 2)) and b % p
             and len(_zp_xgcd(_zm(f, p), _zm(upoly_deriv(f), p), p)[0]) == 1)
    fp = _zm_mul(f, [pow(b, -1, p)], p)
    mods = lifted = _zp_factor(fp, p)
    if len(mods) == 1:
        return [f]
    B = (math.isqrt(n + 1) + 1) * 2 ** n * max(map(abs, f)) * abs(b)
    M, m = p ** (1 + (2 * B).bit_length() // (p.bit_length() - 1)), p

    def product(fs, lead=1):
        g = functools.reduce(lambda x, y: _zm_mul(x, y, M), fs, [lead % M])
        return [c - M if 2 * c > M else c for c in g]

    a = [_zp_xgcd(g, _zm_divmod(fp, g, p)[0], p)[2] for g in mods]
    fM = _zm_mul(f, [pow(b, -1, M)], M)
    while m < M:
        e = [c // m for c in _zm_add(fM, product(lifted), M, -1)]
        lifted = [_zm_add(g, _zm_divmod(_zm_mul(e, ai, p), gp, p)[1], M, m)
                  for g, ai, gp in zip(lifted, a, mods)]
        m *= p
    out, s = [], 1
    while 2 * s <= len(lifted):
        for S in itertools.combinations(range(len(lifted)), s):
            rest = [x for i, x in enumerate(lifted) if i not in S]
            g, h = product((lifted[i] for i in S), b), product(rest, b)
            if sum(map(abs, g)) * sum(map(abs, h)) <= B:
                out.append(g)
                lifted, content = rest, math.gcd(*h)
                f = [c // content for c in h]
                b = f[-1]
                break
        else:
            s += 1
    return out + [f]


def upoly_factor(p: Iterable) -> Tuple[UPoly, ...]:
    """The distinct monic irreducible factors over Q of a rational p,
    sorted by degree, then by coefficients; () if p is constant."""
    f = upoly_squarefree_part(upoly(p))
    if len(f) < 3:
        return (f,) if len(f) == 2 else ()
    return _factor_q(tuple(clear_denominators(f)[0]))


@functools.cache
def _factor_q(f: Tuple[int, ...]) -> Tuple[UPoly, ...]:
    """upoly_factor of a squarefree f of degree >= 2 in its primitive
    integer form, cached per process."""
    return tuple(sorted((tuple(Fraction(c, g[-1]) for c in g)
                         for g in _factor_z(list(f))),
                        key=lambda g: (len(g), g)))


# ---------------------------------------------------------------------------
# extension rings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtensionRing:
    """Q[a]/(modulus) with modulus monic and squarefree.

    The modulus is also held once over the integers as M/D: D > 0 is the
    lcm of its denominators and M = D * modulus, so the lead of M is D.
    ``_lead`` is D and ``_low`` the coefficients of M below its lead.
    """

    modulus: UPoly

    def __post_init__(self):
        nums, d = clear_denominators(self.modulus)
        object.__setattr__(self, "_lead", d)
        object.__setattr__(self, "_low", tuple(nums[:-1]))

    @property
    def degree(self) -> int:
        return upoly_deg(self.modulus)

    def __repr__(self):
        return f"ExtensionRing({upoly_str(self.modulus, 'a')})"

    def _reduced(self, num: List[int], den: int) -> "AlgebraicScalar":
        """The element num/den of Q[a] (num a list of ints, consumed) modulo
        M/D.  Each top coefficient c, at degree k >= deg M, is cleared by
        num <- D * num - c * a^(k - deg M) * M, which multiplies the
        denominator by D; with D = 1 this is division by a monic M."""
        low, d = self._low, self._lead
        n = len(low)
        for k in range(len(num) - 1, n - 1, -1):
            c = num[k]
            if c:
                if d != 1:
                    for i in range(k):
                        num[i] *= d
                    den *= d
                for i, m in enumerate(low, k - n):
                    num[i] -= c * m
        del num[n:]
        return _lowest(self, num, den)

    def element(self, coeffs) -> "AlgebraicScalar":
        if isinstance(coeffs, (int, Fraction)):
            coeffs = (coeffs,)
        return self._reduced(*clear_denominators([_frac(c) for c in coeffs]))

    def generator(self) -> "AlgebraicScalar":
        return self.element((0, 1))

    def one(self) -> "AlgebraicScalar":
        return AlgebraicScalar(self, (1,), 1)


def _lowest(ring: ExtensionRing, num: List[int], den: int) -> "AlgebraicScalar":
    """num/den, num of degree below that of the modulus, in lowest terms."""
    num = upoly_trim(num)
    if den != 1:
        g = math.gcd(den, *num)
        if g != 1:
            num, den = tuple(c // g for c in num), den // g
    return AlgebraicScalar(ring, num, den)


class AlgebraicScalar:
    """An element num/den of an ExtensionRing, reduced modulo the modulus.

    num is a tuple of Python ints, low to high with no trailing zeros, and
    den > 0 with gcd(den, *num) = 1 (Cohen, GTM 138, section 4.2), so each
    element has one representation and == and hash compare (modulus, num,
    den).  Products reduce modulo the integer modulus M/D of the ring.  Build
    elements through the ring, not with this constructor.
    """

    __slots__ = ("ring", "num", "den")

    def __init__(self, ring: ExtensionRing, num: Tuple[int, ...], den: int):
        self.ring = ring
        self.num = num
        self.den = den

    @property
    def value(self) -> UPoly:
        """The coefficients as Fractions, low to high."""
        return tuple(Fraction(c, self.den) for c in self.num)

    def _parts(self, other) -> Optional[Tuple[tuple, int]]:
        """(num, den) of an operand in this ring; None for another type."""
        if type(other) is AlgebraicScalar:
            if other.ring is not self.ring and other.ring != self.ring:
                raise ValueError("arithmetic on mismatched rings")
            return other.num, other.den
        if isinstance(other, (int, Fraction)):
            return (other.numerator,) if other else (), other.denominator
        return None

    def __bool__(self):
        return bool(self.num)

    def __add__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        (b, db), a, da = o, self.num, self.den
        if not b:
            return self
        if da != db:
            g = math.gcd(da, db)
            a, b = [x * (db // g) for x in a], [y * (da // g) for y in b]
            da *= db // g
        return _lowest(self.ring, [x + y for x, y in
                                   zip_longest(a, b, fillvalue=0)], da)

    __radd__ = __add__

    def __neg__(self):
        return AlgebraicScalar(self.ring, tuple(-c for c in self.num), self.den)

    def __sub__(self, other):
        if self._parts(other) is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        (b, db), a = o, self.num
        if not a or not b:
            return AlgebraicScalar(self.ring, (), 1)
        if len(a) == 1:
            a, b = b, a
        if len(b) == 1:
            c = b[0]
            return _lowest(self.ring, [x * c for x in a], self.den * db)
        return self.ring._reduced(_zt_mul(a, b), self.den * db)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if self._parts(other) is None:
            return NotImplemented
        return self * invert(other)

    def __rtruediv__(self, other):
        return invert(self) * other

    def __pow__(self, n: int):
        if n < 0:
            return invert(self) ** (-n)
        out, base = None, self
        while n:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if n:
                base = base * base
        return self.ring.one() if out is None else out

    def __eq__(self, other):
        if type(other) is AlgebraicScalar:
            return (self.num == other.num and self.den == other.den
                    and (self.ring is other.ring or self.ring == other.ring))
        if isinstance(other, (int, Fraction)):
            return (self.den == other.denominator
                    and self.num == ((other.numerator,) if other else ()))
        return NotImplemented

    def __hash__(self):
        return hash((self.ring.modulus, self.num, self.den))

    def __repr__(self):
        return upoly_str(self.value, "a") if self.num else "0"


Scalar = Union[Fraction, AlgebraicScalar]
RATIONAL_RING = ExtensionRing(upoly((0, 1)))  # Q itself: generator == 0


def invert(a: Scalar) -> Scalar:
    """Multiplicative inverse; raises ZeroDivisionError on zero and, in a
    ring whose modulus is reducible, on a zero divisor."""
    if isinstance(a, (int, Fraction)):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / _frac(a)
    if not a.num:
        raise ZeroDivisionError("inverse of zero")
    if len(a.num) == 1:
        c = a.num[0]
        return AlgebraicScalar(a.ring, (a.den if c > 0 else -a.den,), abs(c))
    # half-extended Euclid over Q: s1 * a = r1 modulo the ring's modulus
    r0, r1, s0, s1 = a.ring.modulus, a.value, (), (Fraction(1),)
    while r1:
        q, r = upoly_divmod(r0, r1)
        r0, r1, s0, s1 = r1, r, s1, tuple(_zt_sub(s0, upoly_mul(q, s1)))
    if len(r0) == 1:
        return a.ring.element(tuple(c / r0[0] for c in s0))
    raise ZeroDivisionError(f"{a!r} is a zero divisor modulo "
                            f"{upoly_str(a.ring.modulus, 'a')}")


# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------

_TARGET = object()  # the combination key of the vector that `solve` reduces


def _combine(target: Dict, b: int, a, row: Dict) -> None:
    """target <- b * target - a * row for sparse vectors, dropping the zeros."""
    if b != 1:
        for k in target:
            target[k] *= b
    for k, c in row.items():
        s = target.get(k, 0) - a * c
        if s:
            target[k] = s
        else:
            target.pop(k, None)


def _divided(combo: Dict, m: int) -> Dict:
    return {j: Fraction(c, m) if type(c) is int else c * Fraction(1, m)
            for j, c in combo.items()}


class Echelon:
    """Sparse echelon form over one scalar ring: the package's only
    elimination loop.

    A vector is a dict from keys to nonzero scalars; its lead is its largest
    key, so callers choose the pivot order through their keys.  An added
    vector is copied, as it is if all its entries are Python ints, else
    cleared of denominators if it is rational, and top-reduced: while
    its lead a is the lead of a pivot row with lead b, it becomes
    b * vec - a * row, with a and b divided by their gcd if both are ints
    (fraction-free elimination: Bareiss, Math. Comp. 1968; Cohen, GTM 138,
    section 2.2).  A remainder of Python ints becomes a primitive integer
    pivot row.  Any other remainder is scaled to 1 at its lead by
    :func:`invert`, and then b = 1.

    A vector added with an ``index`` carries its combination of the added
    vectors (index -> coefficient) through the same steps; the relations and
    solutions read from these combinations, as Fractions, depend on the
    order of addition only, not on the keys.  ``solve`` and an indexed
    ``add`` need every pivot row they meet to carry its combination, and
    raise ValueError on a row added without an index.
    """

    def __init__(self) -> None:
        self.pivots: Dict[Hashable, Tuple[Dict, Optional[Dict]]] = {}

    def _reduce(self, vec: Dict, index) -> Tuple[Optional[Hashable], Dict,
                                                  Optional[Dict]]:
        """Top-reduce a copy of vec, with its combination (None without an
        index) in step: the lead left over (None if vec vanishes), the
        remainder and the combination."""
        if {int}.issuperset(map(type, vec.values())):
            vec, d = dict(vec), 1           # ints go in as they are
        else:
            nums, d = clear_denominators(vec.values())
            vec = dict(zip(vec, nums))
        combo = None if index is None else {index: d}
        while vec:
            lead = max(vec)
            piv = self.pivots.get(lead)
            if piv is None:
                return lead, vec, combo
            row, rcombo = piv
            a, b = vec[lead], row[lead]
            if type(a) is int:
                g = math.gcd(a, b)
                a, b = a // g, b // g
            _combine(vec, b, a, row)
            if combo is not None:
                if rcombo is None:
                    raise ValueError("echelon row added without an index "
                                     "has no combination")
                _combine(combo, b, a, rcombo)
        return None, vec, combo

    def add(self, vec: Dict, index: Optional[int] = None) -> Optional[Dict]:
        """Add a copy of vec.  Returns None if it is independent of the
        vectors added before and became a pivot row; otherwise the vanishing
        combination of added vectors it completes, 1 at ``index`` ({}
        without an index)."""
        lead, vec, combo = self._reduce(vec, index)
        if lead is None:
            return {} if combo is None else _divided(combo, combo[index])
        entries = [*vec.values(), *(combo.values() if combo else ())]
        if all(type(c) is int for c in entries):
            g = math.gcd(*entries)
            vec = {k: c // g for k, c in vec.items()}
            combo = combo and {j: c // g for j, c in combo.items()}
        else:
            inv = invert(vec[lead])
            vec = {k: c * inv for k, c in vec.items()}
            vec[lead] = 1
            combo = combo and {j: c * inv for j, c in combo.items()}
        self.pivots[lead] = (vec, combo)
        return None

    def solve(self, target: Dict) -> Optional[Dict]:
        """Coefficients of the added vectors that sum to target, zero on each
        dependent one, or None if target is not in their span."""
        lead, _, combo = self._reduce(target, _TARGET)
        if lead is not None:
            return None
        return _divided(combo, -combo.pop(_TARGET))


def _column_echelon(matrix: Sequence[Sequence[Scalar]]):
    """An Echelon of the columns of a matrix, row i keyed by -i so that the
    first nonzero row is the lead, and per column None (a pivot column) or
    the relation that makes it dependent on the earlier ones."""
    ncols = len(matrix[0]) if matrix else 0
    if any(len(r) != ncols for r in matrix):
        raise ValueError("ragged matrix")
    ech = Echelon()
    return ech, [ech.add({-i: r[c] for i, r in enumerate(matrix) if r[c]}, c)
                 for c in range(ncols)]


def row_reduce(matrix: Sequence[Sequence[Scalar]]):
    """Reduced row echelon form over one scalar ring.

    Returns (rank, rows, pivot_columns); the rows below the rank are zero.
    Raises ValueError on a ragged matrix.
    """
    _, relations = _column_echelon(matrix)
    pivots = [c for c, rel in enumerate(relations) if rel is None]
    zero = Fraction(0)
    rows = [[Fraction(c == pc) if rel is None else -rel.get(pc, zero)
             for c, rel in enumerate(relations)] for pc in pivots]
    rows += [[zero] * len(relations) for _ in range(len(matrix) - len(pivots))]
    return len(pivots), rows, pivots


def nullspace(matrix: Sequence[Sequence[Scalar]]) -> List[Tuple[Scalar, ...]]:
    """Kernel basis of a matrix over one scalar ring, one vector per free
    column of `row_reduce`."""
    _, relations = _column_echelon(matrix)
    return [tuple(rel.get(j, Fraction(0)) for j in range(len(relations)))
            for rel in relations if rel is not None]


def solve_linear(matrix: Sequence[Sequence[Fraction]],
                 rhs: Sequence[Fraction]):
    """One rational solution of M x = b, zero on the free columns of
    `row_reduce`, or None if inconsistent."""
    ech, relations = _column_echelon(matrix)
    x = ech.solve({-i: b for i, b in enumerate(rhs) if b})
    return None if x is None else tuple(x.get(j, Fraction(0))
                                        for j in range(len(relations)))
