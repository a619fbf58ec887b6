import math
import random
import time
from fractions import Fraction
from typing import List

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

try:
    import sympy
except ImportError:  # the differential test against sympy is optional
    sympy = None

import singfold.poly as packed
from singfold.exact import (AlgebraicScalar, ExtensionRing, upoly,
                            upoly_deriv, upoly_factor, upoly_mul,
                            upoly_squarefree_part)
from singfold.poly import (ParseError, Polynomial, _integer_coefficients,
                           _zt_div_exact, _zt_mul, _zt_resultant, _zt_sub,
                           binary_cubic_shape, div_exact, gcd_univariate,
                           parse, resultant, to_text, univariate_coefficients)
from test_exact import as_rational, make_extension


def _rand_poly(rng, names, deg=2, terms=4):
    p = Polynomial.zero()
    for _ in range(terms):
        e = tuple(rng.randint(0, deg) for _ in names)
        p = p + Polynomial(names, {e: Fraction(rng.randint(-4, 4))})
    return p


def test_parse_print_roundtrip():
    for text in ("-1/64*X^5 + X*Y^2 - W^2",
                 "z^4 + z^2*t2 - x*y + 1/8*t2^2 + t4",
                 "11664*X^4 - Y^3 - Z^2"):
        p = parse(text)
        assert parse(to_text(p)) == p


def test_parse_errors():
    with pytest.raises(ParseError):
        parse("x +")
    with pytest.raises(ParseError):
        parse("x ^ y")
    with pytest.raises(ParseError):
        parse("(x")
    for truncated in ("x^", "x*", "2/"):
        with pytest.raises(ParseError, match="unexpected end of input"):
            parse(truncated)
    for zero in ("x/0", "x/(1 - 1)", "1/0^2"):
        with pytest.raises(ParseError, match="division by zero"):
            parse(zero)
    # a superscript digit is a word character, not a decimal digit
    with pytest.raises(ParseError, match="bad exponent '²'"):
        parse("x^²")
    for text in ("²", "2²", "x*²"):
        with pytest.raises(ParseError):
            parse(text)


@pytest.mark.skipif(sympy is None, reason="sympy is not installed")
@pytest.mark.parametrize("text", ["x**2**3", "x^2^3", "2^3^2*x", "(x^2)^3",
                                  "x^1^5 + y**0**2", "x^2^0*z^2^2",
                                  "y^2 + z^2 + x**2**3"])
def test_chained_exponents_are_right_associative(text):
    got = sympy.sympify(to_text(parse(text)).replace("^", "**"))
    assert sympy.expand(got - sympy.sympify(text.replace("^", "**"))) == 0


@pytest.mark.skipif(sympy is None, reason="sympy is not installed")
@pytest.mark.parametrize("text", ["2*-x^2", "x - -x^2", "2*+x", "x*-y^3*-z",
                                  "- -x^2", "+-+x**2", "3/-2*x", "-2^2*y",
                                  "x^2*-2*-z", "x - +y^2^2", "-(x + 1)^2"])
def test_signs_inside_a_term_bind_looser_than_powers(text):
    got = sympy.sympify(to_text(parse(text)).replace("^", "**"))
    assert sympy.expand(got - sympy.sympify(text.replace("^", "**"))) == 0


def test_exponent_field_limit():
    top = 2 ** 15 - 1
    x, y, z, a = (Polynomial.var(n) for n in ("x", "y", "z", "a_outside"))
    assert parse(f"x^{top}").degree_in("x") == top
    for text in (f"x^{top + 1}", "x^70000", "x^2^15", "x^16384*x^16384",
                 "(x^200)^200", "a_outside^20000*a_outside^20000"):
        with pytest.raises(ParseError, match="exponent too large"):
            parse(text)
    with pytest.raises(OverflowError):
        Polynomial(("x",), {(top + 1,): Fraction(1)})
    # x's field sits next to y's, a_outside's after the known names: a carry
    # would raise the neighbour's exponent instead of failing
    for var, other in ((x, y), (z, parse("X")), (a, z)):
        high = var ** top * other
        with pytest.raises(OverflowError):
            high * var
        with pytest.raises(OverflowError):
            (var * other) ** (top + 1)
        with pytest.raises(OverflowError):
            (var ** 2).subs({"x": x ** 20000, "z": z ** 20000,
                             "a_outside": a ** 20000})
        assert high * other == var ** top * other ** 2
        assert high.used_variables() == (var * other).used_variables()


def test_basic_arithmetic():
    x, y = parse("x"), parse("y")
    assert (x + y) * (x - y) == parse("x^2 - y^2")
    assert parse("z^2") ** 2 == parse("z^4")
    p = parse("-1/4*x^4 + y^3 + z^2")
    assert (p - p).is_zero()


def test_ring_axioms_random():
    rng = random.Random(5)
    for _ in range(20):
        p = _rand_poly(rng, ("x", "y"))
        q = _rand_poly(rng, ("y", "z"))
        r = _rand_poly(rng, ("x", "z"))
        assert (p + q) * r == p * r + q * r
        assert p * q == q * p


def test_differentiate():
    p = parse("z^4 - x*y")
    assert p.diff("z") == parse("4*z^3")
    assert p.diff("x") == parse("-y")
    assert p.diff("w").is_zero()


def test_diff_linear_and_leibniz():
    rng = random.Random(9)
    for _ in range(15):
        p = _rand_poly(rng, ("x", "y"))
        q = _rand_poly(rng, ("x", "y"))
        assert (p + q).diff("x") == p.diff("x") + q.diff("x")
        assert (p * q).diff("x") == p.diff("x") * q + p * q.diff("x")


def test_substitute():
    p = parse("z^4 + t2*z^2 + t4 + t2^2/8 - x*y")
    swapped = p.subs({"x": parse("y"), "y": parse("x"), "z": parse("-z")})
    assert swapped == p
    assert p.subs({"x": 0, "y": 0, "z": 0}) == parse("t4 + t2^2/8")
    assert parse("x^2").subs({"x": parse("x+1")}) == parse("x^2 + 2*x + 1")


def test_resultant_examples():
    assert resultant(parse("x - y"), parse("x + y"), "y") == parse("2*x")
    assert resultant(parse("z^2 - t2"), parse("z"), "z") == parse("t2")
    assert resultant(parse("y^2 - x"), parse("y^2 - 2*x"), "y") == parse("x^2")


def test_gcd_univariate_examples():
    assert gcd_univariate(parse("x^2 - 1"), parse("x - 1")) == parse("x - 1")
    assert gcd_univariate(parse("x^3"), parse("x^2")) == parse("x^2")
    g = gcd_univariate(parse("(x^2 - 2)*(x + 1)"), parse("(x^2 - 2)*(x + 3)"))
    assert g == parse("x^2 - 2")
    with pytest.raises(ValueError):
        gcd_univariate(Polynomial.zero(), Polynomial.zero())


def test_gcd_over_extension_ring_splits():
    # the modulus (a - 1)(a^2 - 2) factors into the fields Q, with a = 1, and
    # Q(sqrt 2); over each, gcd((y - a)(y + a), y - a) = y - a
    y = Polynomial.var("y")
    factors = upoly_factor((2, -2, -1, 1))
    assert factors == (upoly((-1, 1)), upoly((-2, 0, 1)))
    for f in factors:
        a = Polynomial.constant(ExtensionRing(f).generator())
        assert gcd_univariate((y - a) * (y + a), y - a) == y - a


def test_resultant_vanishes_iff_common_root():
    rng = random.Random(21)
    x = Polynomial.var("x")
    for _ in range(40):
        dp, dq = rng.randint(1, 3), rng.randint(1, 3)
        p = Polynomial.constant(Fraction(1))
        for _ in range(dp):
            p = p * (x - rng.randint(-3, 3))
        q = Polynomial.constant(Fraction(1))
        for _ in range(dq):
            q = q * (x - rng.randint(-3, 3))
        res = resultant(p, q, "x")
        common = gcd_univariate(p, q).total_degree() > 0
        assert res.is_zero() == common


def test_div_exact():
    p = parse("x^2 - y^2")
    assert div_exact(p, parse("x - y")) == parse("x + y")
    with pytest.raises(ValueError):
        div_exact(parse("x^2 + 1"), parse("x - y"))


def test_binary_cubic_shapes():
    assert binary_cubic_shape(parse("x^2*y + y^3")) == "three-distinct"
    assert binary_cubic_shape(parse("x^2*y")) == "one-double"
    assert binary_cubic_shape(parse("x^3")) == "triple"
    assert binary_cubic_shape(Polynomial.zero()) == "zero"
    with pytest.raises(ValueError):
        binary_cubic_shape(parse("x^2 + y^2"))


def _gcd_cubic_shape(c: Polynomial) -> str:
    """The shape of a binary cubic from the degree of gcd(c, c_u, c_v), as
    it was once taken (reference): dehomogenized at v = 1, where a common
    factor v^k shows as a drop in degree."""
    if c.is_zero():
        return "zero"
    u, v = (c.used_variables() + ("_aux1", "_aux2"))[:2]
    forms = [f for f in (c, c.diff(u), c.diff(v)) if not f.is_zero()]
    dehoms = [f.subs({v: Fraction(1)}) for f in forms]
    k = min(f.total_degree() - fe.total_degree() for f, fe in zip(forms, dehoms))
    g = dehoms[0]
    for fe in dehoms[1:]:
        g = gcd_univariate(g, fe)
    return ("three-distinct", "one-double", "triple")[g.total_degree() + k]


def _random_linear_form(rng, ring):
    """(p, q), not both zero, for p*x + q*y over Q, or over Q(sqrt 2)."""
    def scalar():
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        return c if ring is None else c + rng.randint(-2, 2) * ring.generator()
    while True:
        p, q = scalar(), scalar()
        if p or q:
            return p, q


def test_cubic_shape_invariant_under_unimodular_change():
    rng = random.Random(3)
    cubics = [parse("x^2*y + y^3"), parse("x^2*y"), parse("x^3"),
              parse("x^3 - x*y^2"), parse("x^2*y + x*y^2")]
    # products of three random linear forms, with repeated factors, over Q
    # and Q(sqrt 2); the shape counts the forms up to proportionality
    x, y = parse("x"), parse("y")
    for ring in (None, make_extension((-2, 0, 1))):
        for pattern in ((0, 1, 2), (0, 0, 1), (0, 0, 0)) * 4:
            forms = [_random_linear_form(rng, ring) for _ in range(3)]
            factors = [forms[i] for i in pattern]
            c = Polynomial.constant(1)
            for p, q in factors:
                c = c * (Polynomial.constant(p) * x + Polynomial.constant(q) * y)
            classes = []
            for p, q in factors:
                if not any(p * q2 - p2 * q == 0 for p2, q2 in classes):
                    classes.append((p, q))
            expected = ("triple", "one-double", "three-distinct")[len(classes) - 1]
            assert binary_cubic_shape(c) == _gcd_cubic_shape(c) == expected
    for c in cubics:
        base = binary_cubic_shape(c)
        assert _gcd_cubic_shape(c) == base
        for _ in range(6):
            while True:
                a, b = rng.randint(-3, 3), rng.randint(-3, 3)
                cc, d = rng.randint(-3, 3), rng.randint(-3, 3)
                if a * d - b * cc in (1, -1):
                    break
            nx = Polynomial.constant(Fraction(a)) * parse("x") + b * parse("y")
            ny = Polynomial.constant(Fraction(cc)) * parse("x") + d * parse("y")
            moved = c.subs({"x": nx, "y": ny})
            assert binary_cubic_shape(moved) == _gcd_cubic_shape(moved) == base


def test_homogeneous_part():
    p = parse("x^3 + x*y + 2*x + 5")
    assert p.homogeneous_part(3) == parse("x^3")
    assert p.homogeneous_part(2) == parse("x*y")
    assert p.homogeneous_part(0) == parse("5")


# ---------------------------------------------------------------------------
# the univariate core over Q and over extension rings
# ---------------------------------------------------------------------------

# Q itself, Q(sqrt 2) and the cubic field Q(a)/(a^3 - 3a + 1); both moduli
# are irreducible, so a gcd computed over them never meets a zero divisor.
_RINGS = (None, make_extension((-2, 0, 1)), make_extension((1, -3, 0, 1)))

_small = st.fractions(-4, 4, max_denominator=3)


@st.composite
def _rational_pairs(draw):
    """(p, q) over Q sharing a random factor; q is sometimes p'."""
    common = upoly(draw(st.lists(_small, max_size=4)))
    p = upoly_mul(upoly(draw(st.lists(_small, max_size=4))), common)
    if draw(st.booleans()):
        return p, upoly_deriv(p)
    return p, upoly_mul(upoly(draw(st.lists(_small, max_size=4))), common)


def _embed(p, ring):
    return p if ring is None else tuple(ring.element(c) for c in p)


def _as_poly(coeffs):
    return Polynomial(("x",), {(i,): c for i, c in enumerate(coeffs)})


def _rational_coeffs(coeffs):
    return tuple(c if isinstance(c, Fraction) else as_rational(c)
                 for c in coeffs)


def _gcd_and_squarefree(p, q, ring):
    """gcd_univariate(p, q) and the core squarefree part of p over a ring,
    mapped back to rational coefficients."""
    g = gcd_univariate(_as_poly(_embed(p, ring)), _as_poly(_embed(q, ring)))
    sq = upoly_squarefree_part(_embed(p, ring))
    return (_rational_coeffs(univariate_coefficients(g, "x")),
            _rational_coeffs(sq))


# x^4 - 129 x^2 and its derivative: the remainder drops two degrees
_DEGREE_DROP = (upoly((0, 0, -129, 0, 1)), upoly((0, -258, 0, 4)))


@settings(max_examples=150, deadline=None)
@given(_rational_pairs())
@example(_DEGREE_DROP)
def test_gcd_and_squarefree_agree_over_every_ring(pq):
    p, q = pq
    assume(p or q)
    over_q = _gcd_and_squarefree(p, q, None)
    g, sq = over_q
    assert g[-1] == 1 and (not sq or sq[-1] == 1)
    for ring in _RINGS[1:]:
        assert _gcd_and_squarefree(p, q, ring) == over_q


@pytest.mark.skipif(sympy is None, reason="sympy is not installed")
@settings(max_examples=100, deadline=None)
@given(_rational_pairs())
@example(_DEGREE_DROP)
def test_gcd_and_squarefree_match_sympy(pq):
    p, q = pq
    assume(p or q)
    x = sympy.Symbol("x")

    def to_sympy(c):
        return sympy.Poly([sympy.Rational(a.numerator, a.denominator)
                           for a in reversed(c)] or [0], x, domain="QQ")

    def from_sympy(f):
        if f.is_zero:
            return ()
        f = f.monic()
        return tuple(Fraction(int(a.p), int(a.q)) for a in reversed(f.all_coeffs()))

    want = (from_sympy(to_sympy(p).gcd(to_sympy(q))),
            from_sympy(to_sympy(p).sqf_part()) if p else ())
    for ring in _RINGS:
        assert _gcd_and_squarefree(p, q, ring) == want


def test_binary_cubic_shape_over_extension_rings():
    for ring in _RINGS[1:]:
        a = Polynomial.constant(ring.generator())
        u, v = parse("u"), parse("v")
        rational = (u + v) ** 2 * (u - 2 * v)
        names = rational.used_variables()
        lifted = Polynomial(names, {e: ring.element(c) for e, c in
                                    rational.exponents(names).items()})
        assert binary_cubic_shape(lifted) == "one-double"
        assert binary_cubic_shape((u - a * v) ** 2 * (u + 2 * a * v)) == "one-double"


# ---------------------------------------------------------------------------
# resultants over Q[x] and Q[t][x]
# ---------------------------------------------------------------------------

def _oracle_resultant(p, q, name):
    """The Sylvester determinant over Z[t] by `_zt_det`, same sign rule;
    the rows are cleared of denominators here."""
    def integer_coefficients(f):
        cs = [univariate_coefficients(c, "t") for c in f.coefficients_in(name)]
        d = math.lcm(*(c.denominator for cc in cs for c in cc))
        return [[int(c * d) for c in cc] for cc in cs], d

    (pc, dp), (qc, dq) = integer_coefficients(p), integer_coefficients(q)
    m, n = len(pc) - 1, len(qc) - 1
    if m == 0 and n == 0:
        return Polynomial.constant(1)
    if m == 0:
        return p ** n
    if n == 0:
        return q ** m
    rows = [[[]] * i + pc[::-1] + [[]] * (n - 1 - i) for i in range(n)]
    rows += [[[]] * i + qc[::-1] + [[]] * (m - 1 - i) for i in range(m)]
    scale = (-1) ** n * dp ** n * dq ** m
    return Polynomial(("t",), {(k,): Fraction(c, scale)
                               for k, c in enumerate(_zt_det(rows)) if c})


_T = parse("t")
_X = parse("x")


@st.composite
def _t_coefficient(draw, with_t):
    """A rational, or a polynomial of degree <= 2 in t, sometimes with a
    rational root so that a lead coefficient vanishes at some t."""
    c = Polynomial.constant(draw(_small))
    if not with_t:
        return c
    c = c + draw(_small) * _T + draw(_small) * _T ** 2
    if draw(st.booleans()):
        c = c * (_T - draw(_small))
    return c


@st.composite
def _operand(draw, with_t, max_deg):
    """A polynomial in x of degree <= max_deg; the coefficients at a drawn
    set of middle degrees are zero, so that remainders can drop in degree
    by two or more."""
    deg = draw(st.integers(0, max_deg))
    gaps = draw(st.sets(st.integers(1, deg - 1))) if deg > 1 else set()
    coeffs = [Polynomial.zero() if i in gaps else draw(_t_coefficient(with_t))
              for i in range(deg + 1)]
    p = sum((c * _X ** i for i, c in enumerate(coeffs)), Polynomial.zero())
    assume(not p.is_zero())
    return p


@st.composite
def _resultant_pairs(draw):
    """(p, q, shared) over Q[x] of x-degree <= 7 or over Q[t][x] of
    x-degree <= 5; shared says that p and q were given a common factor of
    positive degree in x, so the resultant is 0."""
    with_t, shared = draw(st.booleans()), draw(st.booleans())
    top = (5 if with_t else 7) - shared
    p, q = draw(_operand(with_t, top)), draw(_operand(with_t, top))
    if not shared:
        return p, q, False
    common = draw(_operand(with_t, max_deg=1))
    return p * common, q * common, common.degree_in("x") > 0


_RESULTANT_EXAMPLES = [
    # a lead coefficient that vanishes at t = 1
    (parse("(t - 1)*x^2 + x + t"), parse("x^3/2 - t*x + 1/3"), False),
    # degree-0 operands
    (parse("3/2"), parse("t*x^2 - 1"), False),
    (parse("t*x^2 + 1/5"), parse("7"), False),
    (parse("(x - t)*(x + 2)"), parse("(x - t)*(3*x - 1/2)"), True),
    (parse("x^3 - 2"), parse("x^2/3 + x - 5/7"), False),
    # the second remainder step drops two degrees, with h = t before it
    (parse("t*x^5 + x^2 + x + 1"), parse("t*x^4 + 1"), False),
    # a power of x, and m < n with m*n odd
    (parse("x^3"), parse("t*x^5 + x^2/2 - t"), False),
    (parse("x*t^2 + t^2"), parse("x^3*t^2"), False),
]


@settings(max_examples=60, deadline=None)
@given(_resultant_pairs())
@example(_RESULTANT_EXAMPLES[0])
@example(_RESULTANT_EXAMPLES[1])
@example(_RESULTANT_EXAMPLES[2])
@example(_RESULTANT_EXAMPLES[3])
@example(_RESULTANT_EXAMPLES[5])
@example(_RESULTANT_EXAMPLES[6])
@example(_RESULTANT_EXAMPLES[7])
def test_resultant_matches_dict_bareiss(pqs):
    p, q, shared = pqs
    res = resultant(p, q, "x")
    assert res == _oracle_resultant(p, q, "x")
    if shared:
        assert res.is_zero()


@pytest.mark.skipif(sympy is None, reason="sympy is not installed")
@settings(max_examples=60, deadline=None)
@given(_resultant_pairs())
@example(_RESULTANT_EXAMPLES[0])
@example(_RESULTANT_EXAMPLES[4])
@example(_RESULTANT_EXAMPLES[5])
@example(_RESULTANT_EXAMPLES[6])
@example(_RESULTANT_EXAMPLES[7])  # m < n, m*n odd
def test_resultant_matches_sympy_up_to_sign(pqs):
    p, q, _ = pqs
    x = sympy.Symbol("x")

    def to_sympy(f):
        return sympy.sympify(to_text(f).replace("^", "**"))

    m, n = p.degree_in("x"), q.degree_in("x")
    # ours is (-1)^n times the Sylvester determinant, and a degree-0 operand
    # gives its power unsigned.  sympy.resultant returns the determinant,
    # except that for m < n it returns (-1)^(m*n) times it.
    sign = 1
    if m > 0 and n > 0:
        sign = (-1) ** n * ((-1) ** (m * n) if m < n else 1)
    want = sign * sympy.resultant(to_sympy(p), to_sympy(q), x)
    got = to_sympy(resultant(p, q, "x"))
    assert sympy.expand(got - want) == 0


# A Z[t] oracle: the Sylvester determinant by fraction-free Bareiss
# elimination on the kernel's own coefficient lists.
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


# The largest pair the `surfaces` benchmark workload eliminates at seed 0
# (17 Sylvester rows): A8 in general position, eliminated in z over Q[y].
_A8_P = parse(
    "8/3*y^9 - 48*y^8*z + 384*y^7*z^2 - 1792*y^6*z^3 + 5376*y^5*z^4 - "
    "10752*y^4*z^5 + 14336*y^3*z^6 - 12288*y^2*z^7 + 6144*y*z^8 - "
    "4096/3*z^9 + 72*y^8 - 1152*y^7*z + 8064*y^6*z^2 - 32256*y^5*z^3 + "
    "80640*y^4*z^4 - 129024*y^3*z^5 + 129024*y^2*z^6 - 73728*y*z^7 + "
    "18432*z^8 + 864*y^7 - 12096*y^6*z + 72576*y^5*z^2 - 241920*y^4*z^3 + "
    "483840*y^3*z^4 - 580608*y^2*z^5 + 387072*y*z^6 - 110592*z^7 + "
    "6048*y^6 - 72576*y^5*z + 362880*y^4*z^2 - 967680*y^3*z^3 + "
    "1451520*y^2*z^4 - 1161216*y*z^5 + 387072*z^6 + 27216*y^5 - "
    "272160*y^4*z + 1088640*y^3*z^2 - 2177280*y^2*z^3 + 2177280*y*z^4 - "
    "870912*z^5 + 81648*y^4 - 653184*y^3*z + 1959552*y^2*z^2 - "
    "2612736*y*z^3 + 1306368*z^4 + 163296*y^3 - 979776*y^2*z + "
    "1959552*y*z^2 - 1306368*z^3 + 2309476/11*y^2 - 9237896/11*y*z + "
    "9237892/11*z^2 + 1732048/11*y - 3464152/11*z + 577564/11")
_A8_Q = parse(
    "24*y^8 - 384*y^7*z + 2688*y^6*z^2 - 10752*y^5*z^3 + 26880*y^4*z^4 - "
    "43008*y^3*z^5 + 43008*y^2*z^6 - 24576*y*z^7 + 6144*z^8 + 576*y^7 - "
    "8064*y^6*z + 48384*y^5*z^2 - 161280*y^4*z^3 + 322560*y^3*z^4 - "
    "387072*y^2*z^5 + 258048*y*z^6 - 73728*z^7 + 6048*y^6 - 72576*y^5*z + "
    "362880*y^4*z^2 - 967680*y^3*z^3 + 1451520*y^2*z^4 - 1161216*y*z^5 + "
    "387072*z^6 + 36288*y^5 - 362880*y^4*z + 1451520*y^3*z^2 - "
    "2903040*y^2*z^3 + 2903040*y*z^4 - 1161216*z^5 + 136080*y^4 - "
    "1088640*y^3*z + 3265920*y^2*z^2 - 4354560*y*z^3 + 2177280*z^4 + "
    "326592*y^3 - 1959552*y^2*z + 3919104*y*z^2 - 2612736*z^3 + 489888*y^2 "
    "- 1959552*y*z + 1959552*z^2 + 4618952/11*y - 9237896/11*z + 1732048/11")


def test_resultant_matches_sylvester_determinant_on_a8():
    pc, dp = _integer_coefficients(_A8_P, "z", "y")
    qc, dq = _integer_coefficients(_A8_Q, "z", "y")
    m, n = len(pc) - 1, len(qc) - 1
    assert (m, n) == (9, 8)
    rows = [[[]] * i + pc[::-1] + [[]] * (n - 1 - i) for i in range(n)]
    rows += [[[]] * i + qc[::-1] + [[]] * (m - 1 - i) for i in range(m)]
    det = _zt_det(rows)
    assert _zt_resultant(pc, qc) == det
    scale = (-1) ** n * dp ** n * dq ** m
    assert resultant(_A8_P, _A8_Q, "z") == Polynomial(
        ("y",), {(k,): Fraction(c, scale) for k, c in enumerate(det) if c})


def test_resultant_domain_is_checked():
    with pytest.raises(ValueError, match="at most one variable"):
        resultant(parse("x*y + z"), parse("x - 1"), "x")
    a = make_extension((-2, 0, 1)).generator()
    with pytest.raises(ValueError, match="rational coefficients"):
        resultant(_X - Polynomial.constant(a), _X + 1, "x")


# ---------------------------------------------------------------------------
# the packed kernel against dict-of-tuples arithmetic (the oracle)
# ---------------------------------------------------------------------------

# exponent tuples over one fixed name tuple in _var_key order, two of the
# names outside _VAR_ORDER
_NAMES = ("x", "z", "t2", "_q", "a")
_SQRT2 = make_extension((-2, 0, 1))


def _o_add(p, q):
    out = dict(p)
    for e, c in q.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _o_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def _o_pow(p, n):
    out = {(0,) * len(_NAMES): Fraction(1)}
    for _ in range(n):
        out = _o_mul(out, p)
    return out


def _o_diff(p, i):
    return {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i]
            for e, c in p.items() if e[i]}


def _o_subs(p, bindings):
    """Simultaneous substitution, index -> oracle polynomial."""
    out = {}
    for e, c in p.items():
        term = {tuple(0 if i in bindings else k for i, k in enumerate(e)): c}
        for i, value in bindings.items():
            term = _o_mul(term, _o_pow(value, e[i]))
        out = _o_add(out, term)
    return out


def _o_coefficients(p, i):
    out = [{} for _ in range(max((e[i] for e in p), default=0) + 1)]
    for e, c in p.items():
        out[e[i]][e[:i] + (0,) + e[i + 1:]] = c
    return out


def _o_evaluate(p, values):
    acc = Fraction(0)
    for e, c in p.items():
        for v, k in zip(values, e):
            c = c * v ** k
        acc = acc + c
    return acc


def _o_text(p):
    """The printer on exponent tuples: graded, then by descending exponents
    in name order; an algebraic coefficient prints in parentheses after a
    plus sign."""
    if not p:
        return "0"
    parts = []
    for e in sorted(p, key=lambda e: (-sum(e), tuple(-k for k in e))):
        c = p[e]
        mon = "*".join(n if k == 1 else f"{n}^{k}" for n, k in zip(_NAMES, e) if k)
        if isinstance(c, AlgebraicScalar):
            parts.append(f"+ ({c!r})*{mon}" if mon else f"+ ({c!r})")
        elif mon:
            parts.append(("- " if c < 0 else "+ ")
                         + (mon if abs(c) == 1 else f"{abs(c)}*{mon}"))
        else:
            parts.append(("- " if c < 0 else "+ ") + str(abs(c)))
    text = " ".join(parts)
    if text.startswith(("+ ", "- ")):
        text = text[2:] if text[0] == "+" else "-" + text[2:]
    return text


@st.composite
def _oracle_terms(draw, algebraic):
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        e = tuple(draw(st.integers(0, 3)) for _ in _NAMES)
        c = draw(_small)
        if algebraic:
            c = _SQRT2.element((c, draw(_small)))
        if c:
            terms[e] = c
    return terms


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.data())
def test_packed_kernel_matches_tuple_oracle(data):
    algebraic = data.draw(st.booleans())
    p, q, r = (data.draw(_oracle_terms(algebraic)) for _ in range(3))
    P, Q, R = (Polynomial(_NAMES, t) for t in (p, q, r))
    assert P.exponents(_NAMES) == p
    assert (P + Q).exponents(_NAMES) == _o_add(p, q)
    assert (P - Q).exponents(_NAMES) == _o_add(p, {e: -c for e, c in q.items()})
    assert (P * Q).exponents(_NAMES) == _o_mul(p, q)
    k = data.draw(st.integers(0, 3))
    assert (P ** k).exponents(_NAMES) == _o_pow(p, k)
    for i, name in enumerate(_NAMES):
        assert P.diff(name).exponents(_NAMES) == _o_diff(p, i)
        assert [c.exponents(_NAMES) for c in P.coefficients_in(name)] == \
            _o_coefficients(p, i)
        assert P.degree_in(name) == max((e[i] for e in p), default=0)
    i, j = data.draw(st.lists(st.integers(0, len(_NAMES) - 1), min_size=2,
                              max_size=2, unique=True))
    assert P.subs({_NAMES[i]: Q, _NAMES[j]: R}).exponents(_NAMES) == \
        _o_subs(p, {i: q, j: r})
    values = [data.draw(_small) for _ in _NAMES]
    assert P.evaluate(dict(zip(_NAMES, values))) == _o_evaluate(p, values)
    assert to_text(P) == _o_text(p)
    assert P.used_variables() == tuple(
        n for i, n in enumerate(_NAMES) if any(e[i] for e in p))


def test_absent_variables_and_the_zero_polynomial():
    p = parse("x^2*y + 3")
    assert p.diff("t8").is_zero() and p.diff("never_used").is_zero()
    assert p.coefficients_in("z") == [p]
    assert p.degree_in("z") == 0
    zero = Polynomial.zero()
    assert zero.degree_in("x") == 0 and zero.coefficients_in("x") == [zero]
    with pytest.raises(ValueError, match="outside"):
        p.exponents(("x",))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_algebraic_text_reads_back(data):
    # the printed coefficients name the ring generator a; binding it again
    # gives the polynomial back, so terms are not run together
    names = ("x", "z", "t2")
    terms = {}
    for _ in range(data.draw(st.integers(0, 4))):
        e = tuple(data.draw(st.integers(0, 3)) for _ in names)
        terms[e] = _SQRT2.element((data.draw(_small), data.draw(_small)))
    p = Polynomial(names, terms)
    assert parse(to_text(p)).subs({"a": _SQRT2.generator()}) == p


def test_algebraic_terms_are_joined_by_plus():
    a = _SQRT2.generator()
    p = Polynomial(("x", "y"), {(1, 0): a, (0, 1): a + 1})
    assert to_text(p) == "(a)*x + (a + 1)*y"
    assert parse(to_text(p)).subs({"a": a}) == p


# ---------------------------------------------------------------------------
# the numerator kernel against the Fraction loops it replaced (the oracle):
# one Fraction multiply and one Fraction add per term product
# ---------------------------------------------------------------------------

def _fraction_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    if any(e & packed._GUARD for e in out):
        raise OverflowError("exponent too large")
    return out


def _fraction_pow(terms, n):
    out, base = {0: Fraction(1)}, terms
    while n:
        if n & 1:
            out = _fraction_mul(out, base)
        n >>= 1
        if n:
            base = _fraction_mul(base, base)
    return out


def _fraction_subs(terms, bindings):
    bound, keep = [], -1
    for name, value in bindings.items():
        sh = packed._shift(name)
        keep &= ~(packed._MASK << sh)
        bound.append((sh, [{0: Fraction(1)}, packed._terms_of(value)]))
    out = {}
    for e, c in terms.items():
        term = {e & keep: c}
        for sh, powers in bound:
            k = (e >> sh) & packed._MASK
            if k:
                while len(powers) <= k:
                    powers.append(_fraction_mul(powers[-1], powers[1]))
                term = _fraction_mul(term, powers[k])
        for e2, c2 in term.items():
            s = out.get(e2, 0) + c2
            if s:
                out[e2] = s
            else:
                out.pop(e2, None)
    return out


# pairwise coprime denominators, up to 2^61 - 1
_PRIMES = (3, 7, 10 ** 9 + 7, 998244353, 2 ** 31 - 1, 2 ** 61 - 1)
_KINDS = ("int", "big", "sqrt2")


@st.composite
def _kernel_scalar(draw, kind):
    """A Python int (kept as it is by the constructor), a Fraction over a
    large prime, or an element of Q(sqrt 2) with such a coefficient."""
    n = draw(st.integers(-10 ** 12, 10 ** 12))
    if kind == "int":
        return n
    c = Fraction(n, draw(st.sampled_from(_PRIMES)))
    return c if kind == "big" else _SQRT2.element((c, draw(_small)))


@st.composite
def _kernel_poly(draw, kind):
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        e = tuple(draw(st.integers(0, 3)) for _ in _NAMES)
        terms[e] = draw(_kernel_scalar(kind))
    return Polynomial(_NAMES, terms)


def _same(got, want):
    """Equal terms, inserted in the same order."""
    assert list(got._terms.items()) == list(want.items())


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.data())
def test_numerator_kernel_matches_fraction_loops(data):
    P, Q, R = (data.draw(_kernel_poly(data.draw(st.sampled_from(_KINDS))))
               for _ in range(3))
    c = data.draw(_kernel_scalar(data.draw(st.sampled_from(_KINDS))))
    _same(P * Q, _fraction_mul(P._terms, Q._terms))
    _same(P * c, _fraction_mul(P._terms, Polynomial.constant(c)._terms))
    # every cross term cancels
    _same((P + Q) * (P - Q), _fraction_mul((P + Q)._terms, (P - Q)._terms))
    assert (P * Q - Q * P).is_zero()
    k = data.draw(st.integers(0, 3))
    _same(P ** k, _fraction_pow(P._terms, k))
    if not Q.is_zero():
        assert div_exact(P * Q, Q) == P
    # simultaneous: each value contains the other bound name, and u -> -v,
    # v -> u cancels the terms of u + v
    i, j = data.draw(st.lists(st.integers(0, len(_NAMES) - 1), min_size=2,
                              max_size=2, unique=True))
    u, v = (Polynomial.var(_NAMES[n]) for n in (i, j))
    for bindings in ({_NAMES[i]: Q + v, _NAMES[j]: R - u},
                     {_NAMES[i]: -v, _NAMES[j]: u},
                     {_NAMES[i]: c, _NAMES[j]: R}):
        _same(P.subs(bindings), _fraction_subs(P._terms, bindings))
    assert (P * (u + v)).subs({_NAMES[i]: -v}).is_zero()
    if all(type(x) is not AlgebraicScalar for x in (*P._terms.values(),
                                                    *Q._terms.values())):
        # the printed rationals read back through the products of parse
        p, q = parse(to_text(P)), parse(to_text(Q))
        assert (p, q) == (P, Q)
        _same(parse(f"({to_text(P)}) * ({to_text(Q)})^{k}"),
              _fraction_mul(p._terms, _fraction_pow(q._terms, k)))


# ---------------------------------------------------------------------------
# evaluate on numerators against the per-term Fraction loop (_o_evaluate)
# ---------------------------------------------------------------------------

@st.composite
def _eval_value(draw, ring):
    """0, a small or large int, a small fraction, a Fraction over a large
    prime, or (ring) an element of Q(sqrt 2) with such coefficients."""
    kind = draw(st.sampled_from(("zero", "small", "int", "big")
                                + ("sqrt2",) * ring))
    if kind == "zero":
        return draw(st.sampled_from((0, Fraction(0))))
    if kind == "small":
        return draw(st.one_of(_small, st.integers(-3, 3)))
    return draw(_kernel_scalar(kind))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.data())
def test_evaluate_matches_fraction_loop(data):
    # rational polynomials at rational or Q(sqrt 2) values, ring
    # coefficients at rational values; names outside the polynomial bound too
    ring_coefficients = data.draw(st.booleans())
    ring_values = not ring_coefficients and data.draw(st.booleans())
    P = data.draw(_kernel_poly("sqrt2" if ring_coefficients else
                               data.draw(st.sampled_from(("int", "big")))))
    values = [data.draw(_eval_value(ring_values)) for _ in _NAMES]
    bound = dict(zip(_NAMES, values), y=data.draw(_eval_value(ring_values)),
                 t12=_SQRT2.generator())
    for p in (P.exponents(_NAMES), {(0,) * len(_NAMES): Fraction(7, 3)}, {}):
        got = Polynomial(_NAMES, p).evaluate(bound)
        assert got == _o_evaluate(p, values)
        if all(type(x) is not AlgebraicScalar for x in (*p.values(), *values)):
            assert type(got) is Fraction


# ---------------------------------------------------------------------------
# parse on numerators against the parser it replaced (the oracle), which
# builds every node with Polynomial + - * / **
# ---------------------------------------------------------------------------

def _fraction_parse(text):
    tokens = packed._tokenize(text)
    pos = [0]

    def peek():
        return tokens[pos[0]] if pos[0] < len(tokens) else None

    def take():
        if pos[0] == len(tokens):
            raise ParseError("unexpected end of input")
        t = tokens[pos[0]]
        pos[0] += 1
        return t

    def parse_expr():
        node = parse_term()
        while peek() in ("+", "-"):
            op = take()
            rhs = parse_term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def parse_term():
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
                if d.is_zero():
                    raise ParseError("division by zero")
                node = node / d.constant_value()
            elif t is not None and (t == "(" or packed._is_name(t)
                                    or packed._is_num(t)):
                node = node * parse_factor()
            else:
                return node

    def parse_factor():
        sign = 1
        while peek() in ("+", "-"):
            sign = -sign if take() == "-" else sign
        node = parse_atom()
        if peek() in ("^", "**"):
            take()
            node = node ** parse_exponent()
        return node if sign > 0 else -node

    def parse_exponent():
        neg = peek() == "-"
        if neg:
            take()
        e = take()
        if not packed._is_num(e):
            raise ParseError(f"bad exponent {e!r}")
        if neg:
            raise ParseError("negative exponents unsupported")
        k = int(e)
        if k < packed._LIMIT and peek() in ("^", "**"):
            take()
            j = parse_exponent()
            k = k ** j if k < 2 or j < packed._BITS - 1 else packed._LIMIT
        if k >= packed._LIMIT:
            raise ParseError(packed._TOO_LARGE)
        return k

    def parse_atom():
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
        if packed._is_num(t):
            return Polynomial.constant(Fraction(t))
        if packed._is_name(t):
            return Polynomial.var(t)
        raise ParseError(f"unexpected token {t!r}")

    try:
        node = parse_expr()
    except OverflowError as exc:
        raise ParseError(str(exc)) from None
    if pos[0] != len(tokens):
        raise ParseError(f"trailing input at token {tokens[pos[0]]!r}")
    return node


def _chain(values):
    """The value of a right-associative exponent chain."""
    k = 1
    for v in reversed(values):
        k = v ** k
    return k


@st.composite
def _parse_factor(draw, depth, signs=True, divisor=False):
    """(text, the same in Python syntax) of a signed power.  After ``/`` it
    is one of the divisors a parse must tell apart: positive, negative,
    zero, a constant that needs expanding, or a polynomial."""
    if divisor and draw(st.booleans()):
        text = draw(st.sampled_from(("3", "-2", "0", "-0", "(1 - 1)",
                                     "(2 - 5)", "(x - x + 4)", "y", "-(x)",
                                     "(x^2 - x*x)", "(z + 1)")))
        return text, text.replace("^", "**")
    sign = draw(st.sampled_from(("", "-", "+", "- -", "+-"))) if signs else ""
    kind = draw(st.sampled_from(("num", "name", "paren") if depth else
                                ("num", "name")))
    if kind == "paren":
        inner, py = draw(_parse_expr(depth - 1))
        atom, py_atom, top = f"({inner})", f"({py})", 2
    else:
        atom = (str(draw(st.integers(0, 12))) if kind == "num" else
                draw(st.sampled_from(("x", "y", "z", "t2"))))
        py_atom, top = atom, 4
    chain = draw(st.lists(st.integers(0, 3), max_size=3).filter(
        lambda c: _chain(c) <= top))
    ops = [draw(st.sampled_from(("^", "**"))) for _ in chain]
    text = sign + atom + "".join(f"{op}{k}" for op, k in zip(ops, chain))
    py = sign + py_atom + "".join(f"**{k}" for k in chain)
    return text, py


@st.composite
def _parse_term(draw, depth):
    text, py = draw(_parse_factor(depth))
    for _ in range(draw(st.integers(0, 2))):
        op = draw(st.sampled_from(("*", "/", " ")))
        # a juxtaposed factor starts with no sign: that would be a sum
        f, f_py = draw(_parse_factor(depth, signs=op != " ",
                                     divisor=op == "/"))
        text, py = text + op + f, f"{py}{'*' if op == ' ' else op}{f_py}"
    return text, py


@st.composite
def _parse_expr(draw, depth=2):
    text, py = draw(_parse_term(depth))
    for _ in range(draw(st.integers(0, 2))):
        op = draw(st.sampled_from((" + ", " - ")))
        t, t_py = draw(_parse_term(depth))
        text, py = text + op + t, py + op + t_py
    return text, py


# token soup: mostly malformed texts, for the error messages
_SOUP = st.lists(st.sampled_from(("x", "y", "t2", "0", "2", "3", "(", ")",
                                  "+", "-", "*", "/", "^", "**", "²")),
                 max_size=10).map(lambda ts: (" ".join(ts), None))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(_parse_expr(), _SOUP))
@example(("3/-2*x - x/-4", "3/-2*x - x/-4"))
@example(("x/(1 - 1)", None))
@example(("x/(y - y + 3)*y^2^1", None))
@example(("-(1/2 x + 1/3)^2 + 1/4 x^2", None))
@example(("x - x + 0", None))
@example(("x^7^2", None))
def test_parse_matches_the_polynomial_parser(case):
    text, py = case
    divisors = []
    over = packed._over

    def spy(nums, d):
        divisors.append(d)
        assert d > 0 and all(type(n) is int for n in nums.values())
        return over(nums, d)

    try:
        want = _fraction_parse(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            parse(text)
        assert str(got.value) == str(exc)
        return
    packed._over = spy
    try:
        got = parse(text)
    finally:
        packed._over = over
    # the same terms in the same order, divided once, as Fractions
    _same(got, want._terms)
    assert all(type(c) is Fraction for c in got._terms.values())
    assert len(divisors) == 1
    if sympy is not None and py is not None:
        value = sympy.sympify(to_text(got).replace("^", "**"))
        assert sympy.expand(value - sympy.sympify(py)) == 0


def test_long_sum_parses_over_the_lcm_no_slower_than_the_polynomial_parser(
        monkeypatch):
    # 3000 terms over 2..8: the accumulator is raised to the lcm, 840, in
    # place; a product of the denominators or a copy per + is far slower
    text = " + ".join(f"{i}/{i % 7 + 2}*x^{i}*y" for i in range(1, 3001))
    divisors = []
    over = packed._over
    monkeypatch.setattr(packed, "_over",
                        lambda nums, d: divisors.append(d) or over(nums, d))
    got = parse(text)
    monkeypatch.undo()
    assert divisors == [math.lcm(*range(2, 9))]
    _same(got, _fraction_parse(text)._terms)

    def best(parser):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            parser(text)
            times.append(time.perf_counter() - start)
        return min(times)

    assert best(parse) <= best(_fraction_parse)
