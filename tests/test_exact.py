import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

try:
    import sympy
except ImportError:  # the factorizer's oracle test is optional
    sympy = None

from singfold.exact import (AlgebraicScalar, Echelon, ExtensionRing, invert,
                            nullspace, row_reduce, solve_linear, upoly,
                            upoly_deg, upoly_factor, upoly_gcd, upoly_mul,
                            upoly_squarefree_part, upoly_str)
from singfold.poly import Polynomial, parse


def make_extension(modulus) -> ExtensionRing:
    """Ring Q[a]/(squarefree part of a monic modulus of degree >= 1); at
    degree 1 it is Q, with the generator pinned to a rational value."""
    m = upoly(modulus)
    if upoly_deg(m) < 1:
        raise ValueError("modulus must have degree >= 1")
    if m[-1] != 1:
        raise ValueError("modulus must be monic")
    return ExtensionRing(upoly_squarefree_part(m))


def as_rational(a: AlgebraicScalar) -> Fraction:
    """The value of a as a plain rational; requires degree < 1 in the
    generator."""
    if len(a.num) > 1:
        raise ValueError(f"{a!r} is not rational")
    return Fraction(a.num[0], a.den) if a.num else Fraction(0)


def test_make_extension_linear_is_rational():
    ring = make_extension([-3, 1])  # x - 3
    assert ring.degree == 1
    a = ring.generator()
    assert as_rational(a) == 3


def test_make_extension_squarefree_reduction():
    # (x-1)^2 (x+2) reduces to (x-1)(x+2)
    m = upoly_mul(upoly_mul(upoly((-1, 1)), upoly((-1, 1))), upoly((2, 1)))
    ring = make_extension(m)
    assert ring.degree == 2
    assert ring.modulus == upoly((-2, 1, 1))


def test_make_extension_rejects_bad_moduli():
    with pytest.raises(ValueError):
        make_extension([5])
    with pytest.raises(ValueError):
        make_extension([])
    with pytest.raises(ValueError):
        make_extension([1, 2])  # not monic


def test_invert_sqrt2():
    ring = make_extension([-2, 0, 1])
    a = ring.generator()
    b = invert(a)
    assert a * b == 1
    assert b == ring.element((0, Fraction(1, 2)))


def test_invert_zero_divisor_splits():
    # a hand-built ring on (a - 1)(a + 2): a - 1 is a zero divisor, and the
    # factorizer splits the modulus into the two fields Q
    ring = make_extension(upoly_mul(upoly((-1, 1)), upoly((2, 1))))
    with pytest.raises(ZeroDivisionError,
                       match=r"a - 1 is a zero divisor modulo a\^2 \+ a - 2"):
        invert(ring.generator() - 1)
    assert upoly_factor(ring.modulus) == (upoly((-1, 1)), upoly((2, 1)))
    assert invert(ring.generator() + 3) * (ring.generator() + 3) == 1


def test_invert_rational():
    assert invert(Fraction(5)) == Fraction(1, 5)
    with pytest.raises(ZeroDivisionError):
        invert(Fraction(0))
    # inversion in a degree-1 ring stays rational
    ring = make_extension([-3, 1])
    five = ring.element(5)
    assert (invert(five) * five) == ring.one()
    assert as_rational(invert(five)) == Fraction(1, 5)


def test_inverse_roundtrip_random():
    rng = random.Random(7)
    ring = make_extension([1, 0, -3, 1])  # x^3 - 3x + 1, squarefree
    for _ in range(25):
        a = ring.element(tuple(Fraction(rng.randint(-5, 5)) for _ in range(3)))
        if not a:
            continue
        assert a * invert(a) == ring.one()


def test_arithmetic_mismatched_rings_raises():
    r1 = make_extension([-2, 0, 1])
    r2 = make_extension([-3, 0, 1])
    with pytest.raises(ValueError):
        r1.generator() + r2.generator()


def test_row_reduce_identity_and_rank():
    eye = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    rank, rows, pivots = row_reduce(eye)
    assert rank == 3 and pivots == [0, 1, 2]
    rank, _, _ = row_reduce([[Fraction(1), Fraction(2)],
                             [Fraction(2), Fraction(4)]])
    assert rank == 1


def test_row_reduce_extension_entries():
    ring = make_extension([-2, 0, 1])
    a = ring.generator()
    rank, _, _ = row_reduce([[a, ring.one()], [ring.one(), a]])
    assert rank == 2  # determinant a^2 - 1 = 1


def test_row_reduce_ragged():
    with pytest.raises(ValueError):
        row_reduce([[Fraction(1)], [Fraction(1), Fraction(2)]])


def _bareiss_rank(mat):
    # independent fraction-free elimination over the integers
    m = [row[:] for row in mat]
    n_rows, n_cols = len(m), len(m[0])
    prev = 1
    rank = 0
    pr = 0
    for pc in range(n_cols):
        piv = None
        for i in range(pr, n_rows):
            if m[i][pc] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[pr], m[piv] = m[piv], m[pr]
        for i in range(pr + 1, n_rows):
            for j in range(pc + 1, n_cols):
                m[i][j] = (m[pr][pc] * m[i][j] - m[i][pc] * m[pr][j]) // prev
            m[i][pc] = 0
        prev = m[pr][pc]
        rank += 1
        pr += 1
        if pr == n_rows:
            break
    return rank


def test_rank_agrees_with_bareiss_oracle():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 8)
        mat = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        got = row_reduce([[Fraction(x) for x in row] for row in mat])[0]
        assert got == _bareiss_rank(mat)


def test_rank_invariant_under_row_permutation():
    rng = random.Random(13)
    for _ in range(20):
        mat = [[Fraction(rng.randint(-3, 3)) for _ in range(5)]
               for _ in range(4)]
        base = row_reduce(mat)[0]
        perm = mat[:]
        rng.shuffle(perm)
        assert row_reduce(perm)[0] == base


def test_nullspace_and_solve():
    mat = [[Fraction(1), Fraction(2), Fraction(3)],
           [Fraction(2), Fraction(4), Fraction(6)]]
    basis = nullspace(mat)
    assert len(basis) == 2
    for vec in basis:
        assert all(sum(r * v for r, v in zip(row, vec)) == 0 for row in mat)
    sol = solve_linear([[Fraction(2)]], [Fraction(5)])
    assert sol == (Fraction(5, 2),)
    assert solve_linear([[Fraction(0)]], [Fraction(1)]) is None


def dense_rref(matrix):
    """Reduced row echelon form by the dense column-by-column loop, kept as
    the oracle for the sparse engine: (rows, pivot columns)."""
    rows = [list(r) for r in matrix]
    pivots = []
    pr = 0
    for pc in range(len(rows[0]) if rows else 0):
        pivot_row = next((i for i in range(pr, len(rows)) if rows[i][pc]), None)
        if pivot_row is None:
            continue
        rows[pr], rows[pivot_row] = rows[pivot_row], rows[pr]
        inv = invert(rows[pr][pc])
        rows[pr] = [x * inv for x in rows[pr]]
        for i in range(len(rows)):
            if i != pr and rows[i][pc]:
                f = rows[i][pc]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[pr])]
        pivots.append(pc)
        pr += 1
        if pr == len(rows):
            break
    return rows, pivots


def dense_kernel(matrix, ncols):
    """Kernel basis from the oracle: per free column, 1 there and minus its
    reduced entries on the pivot columns."""
    rows, pivots = dense_rref(matrix)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][fc]
        basis.append(tuple(vec))
    return basis


def dense_solution(matrix, rhs, ncols):
    """Solution of M x = b from the oracle, zero on the free columns, or
    None if inconsistent."""
    rows, pivots = dense_rref([list(r) + [b] for r, b in zip(matrix, rhs)])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = rows[r][-1]
    return tuple(x)


SQRT2 = make_extension([-2, 0, 1])
_small = st.fractions(-3, 3, max_denominator=3)
# rationals with large coprime denominators, so that the integer rows of the
# engine carry big contents and their gcd reduction runs
_big = st.builds(lambda n, p, k: Fraction(n, p * k),
                 st.integers(1, 10**6) | st.integers(-10**6, -1),
                 st.sampled_from((999983, 1000003, 2147483647)),
                 st.integers(1, 6))
_nonzero = st.builds(Fraction, st.sampled_from((-3, -2, -1, 1, 2, 3)),
                     st.integers(1, 3))
_ring = st.tuples(_small, _nonzero).map(SQRT2.element)


@st.composite
def _systems(draw):
    """A matrix over Q, with small entries or with large coprime
    denominators, or over Q(sqrt 2) with some all-rational columns and now
    and then an empty first column; sparse, with dependent rows and columns
    now and then, and a right-hand side in or out of its column span."""
    kind = draw(st.sampled_from(("small", "big", "sqrt2")))
    rational = st.one_of(st.just(Fraction(0)), _big if kind == "big" else _small)
    ring = st.one_of(st.just(AlgebraicScalar(SQRT2, (), 1)), _ring)
    entry = ring if kind == "sqrt2" else rational
    nrows, ncols = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    columns = [rational if kind != "sqrt2" or draw(st.booleans()) else ring
               for _ in range(ncols)]
    matrix = [[draw(col) for col in columns] for _ in range(nrows)]
    if kind == "sqrt2" and draw(st.booleans()):  # an empty first column
        for row in matrix:
            row[0] = Fraction(0)
    if nrows > 1 and draw(st.booleans()):       # a row combination
        c = draw(entry)
        matrix[-1] = [x + c * y for x, y in zip(matrix[0], matrix[1])]
    if ncols > 1 and draw(st.booleans()):       # a column combination
        c = draw(entry)
        for row in matrix:
            row[-1] = row[0] + c * row[1]
    if draw(st.booleans()):
        x = [draw(entry) for _ in range(ncols)]
        rhs = [sum((a * b for a, b in zip(row, x)), Fraction(0))
               for row in matrix]
    else:
        rhs = [draw(entry) for _ in range(nrows)]
    return matrix, rhs


@settings(max_examples=200, deadline=None)
@given(_systems())
def test_engine_matches_dense_oracle(system):
    matrix, rhs = system
    ncols = len(matrix[0])
    rows, pivots = dense_rref(matrix)
    assert row_reduce(matrix) == (len(pivots), rows, pivots)
    assert nullspace(matrix) == dense_kernel(matrix, ncols)
    assert solve_linear(matrix, rhs) == dense_solution(matrix, rhs, ncols)


class _NormalizedEchelon:
    """The echelon loop with each pivot row scaled to 1 at its lead by
    `invert` and every entry a field element, kept as the oracle for the
    fraction-free integer rows of `Echelon`."""

    def __init__(self):
        self.pivots = {}

    @staticmethod
    def _subtract(target, f, row):
        for k, a in row.items():
            s = target.get(k, 0) - f * a
            if s:
                target[k] = s
            else:
                target.pop(k, None)

    def _reduce(self, vec, combo):
        while vec:
            lead = max(vec)
            piv = self.pivots.get(lead)
            if piv is None:
                return lead
            f = vec[lead]
            self._subtract(vec, f, piv[0])
            if combo is not None:
                self._subtract(combo, f, piv[1])
        return None

    def add(self, vec, index=None):
        vec = dict(vec)
        combo = None if index is None else {index: Fraction(1)}
        lead = self._reduce(vec, combo)
        if lead is None:
            return {} if combo is None else combo
        inv = invert(vec[lead])
        self.pivots[lead] = ({k: c * inv for k, c in vec.items()},
                             combo and {j: c * inv for j, c in combo.items()})
        return None

    def solve(self, target):
        combo = {}
        if self._reduce(dict(target), combo) is not None:
            return None
        return {j: -c for j, c in combo.items()}


@st.composite
def _vector_runs(draw):
    """Sparse vectors over Q (small or large-denominator entries) or over
    Q(sqrt 2) mixed with all-rational vectors, a dependent one now and then,
    and targets in or out of their span."""
    kind = draw(st.sampled_from(("small", "big", "sqrt2")))
    scalar = _big if kind == "big" else _nonzero
    if kind == "sqrt2":
        scalar = st.one_of(scalar, _ring)
    vec = st.dictionaries(st.integers(0, 5), scalar, max_size=5)
    vectors = draw(st.lists(vec, min_size=1, max_size=8))

    def combination(cs, vs):
        out = {}
        for c, v in zip(cs, vs):
            for k, x in v.items():
                out[k] = out.get(k, 0) + c * x
        return {k: x for k, x in out.items() if x}

    if len(vectors) > 1 and draw(st.booleans()):
        cs = draw(st.lists(scalar, min_size=2, max_size=2))
        vectors.append(combination(cs, [vectors[0], vectors[-1]]))
    targets = draw(st.lists(vec, max_size=2))
    cs = draw(st.lists(scalar, min_size=len(vectors), max_size=len(vectors)))
    targets.append(combination(cs, vectors))
    return vectors, targets, draw(st.booleans())


@settings(max_examples=200, deadline=None)
@given(_vector_runs())
def test_echelon_matches_normalized_fraction_loop(run):
    vectors, targets, indexed = run
    ech, oracle = Echelon(), _NormalizedEchelon()
    for i, vec in enumerate(vectors):
        index = i if indexed else None
        assert ech.add(vec, index) == oracle.add(vec, index)
    assert set(ech.pivots) == set(oracle.pivots)
    if indexed:
        for target in targets:
            assert ech.solve(target) == oracle.solve(target)


def test_zero_divisor_pivot_splits():
    # The lead of a column is its first nonzero row, whatever that entry is:
    # column 1 of the second matrix pivots on a - 1 in row 0, which a
    # hand-built ring on a^2 - 1 cannot invert, although a row swap to the
    # unit in row 1 would give rank 2.  On the factors of a^2 - 1, the
    # fields Q with a = 1 and a = -1, every call answers.
    def calls(a, one, zero):
        out = []
        for m in ([[a - 1, one], [zero, a + 1]],
                  [[zero, a - 1], [zero, one], [one, zero]]):
            rhs = [one] + [zero] * (len(m) - 1)
            out += [lambda m=m: row_reduce(m), lambda m=m: nullspace(m),
                    lambda m=m, rhs=rhs: solve_linear(m, rhs)]
        return out

    ring = make_extension([-1, 0, 1])
    a = ring.generator()
    zero = AlgebraicScalar(ring, (), 1)
    for call in [lambda: Echelon().add({0: a - 1})] + calls(a, ring.one(), zero):
        with pytest.raises(ZeroDivisionError, match=r"modulo a\^2 - 1"):
            call()
    assert upoly_factor(ring.modulus) == (upoly((-1, 1)), upoly((1, 1)))
    for root in (Fraction(1), Fraction(-1)):
        answers = [call() for call in calls(root, Fraction(1), Fraction(0))]
        assert [answers[0][0], answers[3][0]] == [1, 2]


def test_echelon_combinations_need_indices():
    ech = Echelon()
    ech.add({0: Fraction(1)})                 # a pivot row with no combination
    assert ech.add({1: Fraction(1)}) is None  # index-less adds are fine
    assert ech.add({0: Fraction(2)}) == {}
    for misuse in (lambda: ech.solve({0: Fraction(1)}),
                   lambda: ech.add({0: Fraction(3)}, 7)):
        with pytest.raises(ValueError, match="without an index"):
            misuse()
    assert ech.solve({2: Fraction(1)}) is None  # meets no pivot row


def test_upoly_helpers():
    p = upoly((6, -5, 1))  # (x-2)(x-3)
    sq = upoly_mul(p, p)
    assert upoly_squarefree_part(sq) == p
    assert upoly_gcd(upoly_mul(p, upoly((1, 1))), p) == p


# -- the factorizer against sympy ------------------------------------------

def _sympy_factors(p):
    """sympy's monic irreducible factors of p over Q, sorted as
    upoly_factor sorts them."""
    x = sympy.Symbol("x")
    poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(p)], x, domain="QQ")
    return tuple(sorted((tuple(Fraction(int(c.p), int(c.q))
                               for c in reversed(f.monic().all_coeffs()))
                         for f, _ in poly.factor_list()[1]),
                        key=lambda f: (len(f), f)))


_factor_coeffs = st.builds(Fraction, st.integers(-12, 12),
                           st.sampled_from((1, 1, 1, 2, 3, 5)))


@st.composite
def _factor_products(draw):
    """A product of one to four factors of total degree <= 12, each with a
    nonzero, often non-unit lead and integer or rational coefficients."""
    p = upoly((draw(_factor_coeffs.filter(bool)),))
    for d in draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)):
        if upoly_deg(p) + d <= 12:
            p = upoly_mul(p, upoly(draw(st.lists(_factor_coeffs, min_size=d,
                                                 max_size=d))
                                   + [draw(_factor_coeffs.filter(bool))]))
    return p


@pytest.mark.skipif(sympy is None, reason="sympy is not installed")
@settings(max_examples=100, deadline=None)
@example(upoly((1, 0, -10, 0, 1)))        # irreducible, splits mod every p
@example(upoly((-8, -16, -4, 4, 1)))      # the same, at x + 1
@example(upoly((-2,) + (0,) * 11 + (1,)))  # x^12 - 2
@example(upoly((1, 0, -6, 0, 1)))         # (x^2 - 2x - 1)(x^2 + 2x - 1)
@given(_factor_products())
def test_factor_matches_sympy(p):
    factors = upoly_factor(p)
    assert factors == _sympy_factors(p)
    # the factors are the distinct monic irreducible factors of p
    assert all(f[-1] == 1 and upoly_deg(f) >= 1 for f in factors)
    prod = upoly((1,))
    for f in factors:
        prod = upoly_mul(prod, f)
    assert prod == upoly_squarefree_part(p)


# -- extension-ring arithmetic against the Fraction-tuple ring -------------

def _old_trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def _old_mul(p, q):
    """The Fraction-tuple product the ring elements were once built on."""
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _old_trim(out)


def _old_mod(p, m):
    """Remainder of a Fraction tuple by a monic Fraction tuple."""
    r, dm = list(p), len(m) - 1
    for k in range(len(r) - 1, dm - 1, -1):
        c = r[k]
        for i in range(dm + 1):
            r[k - dm + i] -= c * m[i]
    return _old_trim(r[:dm])


def _old_add(p, q, sign=1):
    n = max(len(p), len(q))
    return _old_trim((p[i] if i < len(p) else 0)
                     + sign * (q[i] if i < len(q) else 0) for i in range(n))


_ring_fracs = st.builds(Fraction, st.integers(-9, 9),
                        st.sampled_from((1, 1, 2, 3, 4, 7, 12)))


@st.composite
def _ring_cases(draw):
    """A ring of degree 1-6 (its modulus often with non-integral
    coefficients), two elements and an int and a Fraction operand."""
    deg = draw(st.integers(1, 6))
    ring = make_extension(draw(st.lists(_ring_fracs, min_size=deg,
                                        max_size=deg)) + [Fraction(1)])
    elems = [ring.element(draw(st.lists(_ring_fracs, max_size=ring.degree + 3)))
             for _ in range(2)]
    return (ring, *elems, draw(st.integers(-20, 20)), draw(_ring_fracs))


def _oracle(x):
    """The Fraction tuple of a ring element or of a rational operand."""
    if isinstance(x, (int, Fraction)):
        return _old_trim((Fraction(x),))
    return x.value


def _canonical(x):
    assert x.den > 0 and (not x.num or x.num[-1] != 0)
    assert len(x.num) <= x.ring.degree
    assert math.gcd(x.den, *x.num) == 1


@settings(max_examples=300, deadline=None)
@given(_ring_cases())
def test_ring_arithmetic_matches_fraction_tuples(case):
    ring, x, y, k, q = case
    m = ring.modulus
    assert x.value == _old_mod(x.value, m)
    for u in (y, k, q):
        ov = _oracle(u)
        results = [(x + u, _old_add(x.value, ov)),
                   (u + x, _old_add(x.value, ov)),
                   (x - u, _old_add(x.value, ov, -1)),
                   (u - x, _old_add(ov, x.value, -1)),
                   (x * u, _old_mod(_old_mul(x.value, ov), m)),
                   (u * x, _old_mod(_old_mul(x.value, ov), m))]
        for got, want in results:
            _canonical(got)
            assert got.value == want
            # one element, one representation: the hash follows ==
            again = ring.element(want)
            assert got == again and hash(got) == hash(again)
            assert (got == 0) == (not want)
    power = ring.one()
    for n in range(5):
        got = x ** n
        _canonical(got)
        assert got == power and hash(got) == hash(power)
        power = ring.element(_old_mod(_old_mul(power.value, x.value), m))
    for num, den in ((x, y), (x, k), (x, q), (k, x), (q, x)):
        try:
            got = num / den
        except ZeroDivisionError:
            # zero, or a zero divisor of a reducible modulus
            assert upoly_deg(upoly_gcd(_oracle(den), m)) >= 1
            continue
        _canonical(got)
        assert _old_mod(_old_mul(got.value, _oracle(den)), m) == _oracle(num)


@st.composite
def _zero_divisors(draw):
    """A squarefree modulus f*g with coprime factors and a nonzero
    multiple of f modulo it."""
    f, g = [upoly(draw(st.lists(_ring_fracs, min_size=d, max_size=d))
                  + [Fraction(1)]) for d in draw(st.lists(
                      st.integers(1, 3), min_size=2, max_size=2))]
    m = upoly_mul(f, g)
    assume(upoly_squarefree_part(m) == m and upoly_gcd(f, g) == (1,))
    h = upoly(draw(st.lists(_ring_fracs, min_size=1, max_size=4)))
    ring = make_extension(m)
    x = ring.element(upoly_mul(f, h))
    assume(x)
    return ring, x


@settings(max_examples=150, deadline=None)
@given(_zero_divisors())
def test_invert_zero_divisor_raises_split(case):
    ring, x = case
    with pytest.raises(ZeroDivisionError) as exc:
        invert(x)
    assert str(exc.value) == (f"{x!r} is a zero divisor modulo "
                              f"{upoly_str(ring.modulus, 'a')}")


def test_upoly_str_prints_unit_coefficients_as_signs():
    assert upoly_str([0, -1], "a") == "-a"
    assert repr(-make_extension([-2, 0, 1]).generator()) == "-a"
    assert upoly_str([-1, -1, 1], "a") == "a^2 - a - 1"
    assert upoly_str([Fraction(1, 2), 0, -1, 3], "a") == "3*a^3 - a^2 + 1/2"
    assert repr(make_extension([-1, -1, 1])) == "ExtensionRing(a^2 - a - 1)"


@settings(max_examples=200, deadline=None)
@given(st.lists(st.builds(Fraction, st.integers(-40, 40), st.integers(1, 6)),
                max_size=6))
def test_upoly_str_round_trips_through_parse(coeffs):
    p = upoly(coeffs)
    want = Polynomial(("a",), {(i,): c for i, c in enumerate(p)})
    assert parse(upoly_str(p, "a")) == want
