import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

try:
    import sympy
except ImportError:  # the irreducibility check against sympy is optional
    sympy = None

from singfold import families, singclass
from singfold.exact import AlgebraicScalar, Echelon, upoly
from singfold.poly import Polynomial, monomials, parse
from singfold.rootsys import CASE_IDS
from singfold.singclass import (ClassificationError, classify_point,
                                fiber_configuration, singular_points)
from test_exact import make_extension

KLEIN_FORMS = [
    ("X^4 + Y*Z", "A3"),
    ("X*(Y^2 - X^4) + Z^2", "D6"),
    ("X^4 + Y^3 + Z^2", "E6"),
    ("X^3 + X*Y^3 + Z^2", "E7"),
    ("X^5 + Y^3 + Z^2", "E8"),
]


@pytest.mark.parametrize("text,label", KLEIN_FORMS)
def test_klein_forms(text, label):
    conf = fiber_configuration(parse(text))
    assert conf.type_string() == label
    assert len(conf.points) == 1
    assert conf.points[0].mu == int(label[1:])


@pytest.mark.parametrize("k", range(1, 9))
def test_arnold_a_family(k):
    conf = fiber_configuration(parse(f"x^{k+1} + y^2 + z^2"))
    assert conf.type_string() == f"A{k}"
    rec = conf.points[0]
    assert rec.corank == (0 if k == 1 else 1)


@pytest.mark.parametrize("k", range(4, 9))
def test_arnold_d_family(k):
    conf = fiber_configuration(parse(f"x^2*y + y^{k-1} + z^2"))
    assert conf.type_string() == f"D{k}"
    rec = conf.points[0]
    assert rec.corank == 2
    assert rec.cubic_shape == ("three-distinct" if k == 4 else "one-double")


def milnor_number(F, point):
    """The Milnor number of F at a point, by the classifier's engine."""
    names = F.used_variables()
    return singclass._milnor_translated(singclass._translate(F, names, point),
                                        names)


def test_milnor_examples():
    assert milnor_number(parse("x^2 + y^2 + z^2"), (0, 0, 0)) == 1
    assert milnor_number(parse("X^3 + X*Y^3 + Z^2"), (0, 0, 0)) == 7
    assert milnor_number(parse("x^2*y + y^5 + z^2"), (0, 0, 0)) == 6


def test_milnor_stabilization_is_cap_independent(monkeypatch):
    # the cap is the engine's truncation order _ORDER: a stable mu does not
    # move when the rows are kept to a higher degree
    for text, mu in (("x^4 + y^2 + z^2", 3), ("X^5 + Y^3 + Z^2", 8)):
        for cap in (12, 14, 16):
            monkeypatch.setattr(singclass, "_ORDER", cap)
            assert milnor_number(parse(text), (0, 0, 0)) == mu


def test_hessian_corank_examples():
    for text, corank in (("x^2 + y^2 + z^2", 0), ("z^4 - x*y", 1),
                         ("X^4 + Y^3 + Z^2", 2)):
        assert classify_point(parse(text), (0, 0, 0)).corank == corank


def test_singular_points_examples():
    (coords,) = singular_points(parse("z^4 - x*y"))
    assert all(isinstance(c, Fraction) and c == 0 for c in coords)
    assert singular_points(parse("x^2 + y^2 + z^2 - 1")) == []


def test_b2_quotient_fiber_example():
    # covering fiber parameters (8, 0, 8): three rational A1 points
    F = parse("Z*(X^2 - 4*Z^2) + W^2 - 32*Z^2 - 64*Z")
    conf = fiber_configuration(F)
    assert conf.type_string() == "A1+A1+A1"
    assert sum(r.orbit_size for r in conf.points) == 3


def test_non_isolated_locus_fails_loudly():
    with pytest.raises(ClassificationError):
        fiber_configuration(parse("x^2"))
    with pytest.raises(ClassificationError):
        # a whole singular line: z^2 - x^2*y^2 has singular locus x*y = z = 0
        fiber_configuration(parse("z^2 - x^2*y^2"))


def test_more_than_three_variables():
    with pytest.raises(ClassificationError):
        fiber_configuration(parse("x^2 + y^2 + z^2 + X^2"))


def test_classify_point_requires_singular_point():
    with pytest.raises(ClassificationError):
        classify_point(parse("x^2 + y^2 + z^2 - 1"), (0, 0, 0))
    with pytest.raises(ClassificationError):
        classify_point(parse("x^2 + y^2 + z^2"),
                       (Fraction(1), Fraction(0), Fraction(0)))


def _moved(F, matrix, q, shear=(0, 0)):
    """F after z -> z + s0*x^2 + s1*x*y, which makes the partials
    inhomogeneous, and then x_i -> sum_j A_ij (x_j - q_j), which moves the
    origin to q."""
    names = ("x", "y", "z")
    x, y, z = (parse(n) for n in names)
    F = F.subs({"z": z + Fraction(shear[0]) * x ** 2 + Fraction(shear[1]) * x * y})
    sub = {}
    for i, n in enumerate(names):
        expr = Polynomial.zero()
        for j in range(3):
            expr = expr + Fraction(matrix[i][j]) * (parse(names[j]) - q[j])
        sub[n] = expr
    return F.subs(sub)


def _det3(A):
    return (A[0][0] * (A[1][1] * A[2][2] - A[1][2] * A[2][1])
            - A[0][1] * (A[1][0] * A[2][2] - A[1][2] * A[2][0])
            + A[0][2] * (A[1][0] * A[2][1] - A[1][1] * A[2][0]))


def test_affine_invariance_of_classify_point():
    rng = random.Random(31)
    forms = ["x^3 + y^4 + z^2", "x^2*y + y^4 + z^2", "x^5 + y^2 + z^2"]
    for text in forms:
        F = parse(text)
        base = classify_point(F, (Fraction(0),) * 3)
        for _ in range(4):
            while True:
                A = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
                if _det3(A) != 0:
                    break
            q = [Fraction(rng.randint(-2, 2)) for _ in range(3)]
            rec = classify_point(_moved(F, A, q), tuple(q))
            assert (rec.ade_type, rec.mu, rec.corank, rec.cubic_shape) == \
                (base.ade_type, base.mu, base.corank, base.cubic_shape)


def test_conjugate_points_share_type_on_quadratic_branches():
    # singular pair at z^2 = 2, x = y = 0 on a deformed covering fiber
    F = parse("z^4 - 4*z^2 - x*y + 4")  # (z^2 - 2)^2 = x*y
    (coords,) = singular_points(F)
    rec = classify_point(F, coords)
    ring = rec.ring
    assert ring.degree == 2
    # conjugation sends the generator a to -b - a for x^2 + b x + c
    gen_conj = ring.element((-ring.modulus[1], -1))

    def conj(c):
        if not isinstance(c, AlgebraicScalar):
            return c
        out = AlgebraicScalar(ring, (), 1)
        for i, coef in enumerate(c.value):
            out = out + coef * gen_conj ** i
        return out

    rec2 = classify_point(F, tuple(conj(c) for c in coords))
    assert (rec.ade_type, rec.mu, rec.corank) == \
        (rec2.ade_type, rec2.mu, rec2.corank)


def test_mu_orbit_sum_invariant_under_variable_permutation():
    # permuting the elimination roles must not change the total
    base = parse("Z*(X^2 + 4*Z^3) + W^2 + 8*Z^3 + 20*Z^2 + 16*Z")
    perms = [
        {"X": parse("X"), "Z": parse("Z"), "W": parse("W")},
        {"X": parse("Z"), "Z": parse("X"), "W": parse("W")},
    ]
    totals = []
    for sub in perms:
        conf = fiber_configuration(base.subs(sub))
        totals.append(sum(r.mu * r.orbit_size for r in conf.points))
    assert len(set(totals)) == 1


# ---------------------------------------------------------------------------
# surfaces linear in one variable: F = A*w + B
# ---------------------------------------------------------------------------

# General-position ADE forms whose square coefficient cancels, leaving one
# variable of degree 1 (the benchmark's seeded surface inputs 3/130, 4/35,
# 5/33, 7/130 and 18/131).
LINEAR_VARIABLE_FORMS = [
    ("(-1/4)*((-1)*x+(1)*y+(2)*z+(1))^2 + (1)*((2)*x+(2)*y+(-1)*z+(1))^2"
     " + (3/2)*((-2)*x+(-1)*y+(0)*z+(1/3))^4", "A3"),
    ("(-1)*((-1)*x+(1)*y+(1)*z+(-4))^2 + (1)*((1)*x+(1)*y+(-1)*z+(1))^2"
     " + (-5/4)*((-2)*x+(1)*y+(0)*z+(-1))^5", "A4"),
    ("(2)*((1)*x+(2)*y+(-1)*z+(-1/2))^2 + (-2)*((1)*x+(0)*y+(1)*z+(1/4))^2"
     " + (-8/3)*((0)*x+(1)*y+(1)*z+(-1))^3", "A2"),
    ("(-1)*((-1)*x+(1)*y+(2)*z+(9/2))^2 + (4)*((2)*x+(2)*y+(-1)*z+(-3/2))^2"
     " + (4)*((-2)*x+(-1)*y+(0)*z+(-3/4))^4", "A3"),
    ("(1/4)*((2)*x+(2)*y+(-2)*z+(8))^2 + (-1)*((1)*x+(0)*y+(-2)*z+(-6))^2"
     " + (4)*((0)*x+(-2)*y+(2)*z+(-5))^5", "A4"),
]


@pytest.mark.parametrize("text,label", LINEAR_VARIABLE_FORMS)
def test_general_position_forms_linear_in_one_variable(text, label):
    F = parse(text)
    assert 1 in (F.degree_in(n) for n in F.used_variables())
    assert fiber_configuration(F).type_string() == label


def test_linear_variable_points_over_an_extension(monkeypatch):
    # no equation of the system is linear in a variable with a constant
    # coefficient, so F = A*z + B goes to the linear-variable fallback
    calls = []
    solve = singclass._solve_linear_var

    def spy(names, w, A, B):
        calls.append((w, A, B))
        return solve(names, w, A, B)

    monkeypatch.setattr(singclass, "_solve_linear_var", spy)
    # A = x^2 - 2 vanishes at x = +-sqrt(2); there y = 0 and z = -x
    conf = fiber_configuration(parse("(x^2 - 2)*z + y^3 + x^3 - 2*x"))
    assert calls == [("z", parse("x^2 - 2"), parse("y^3 + x^3 - 2*x"))]
    assert conf.type_string() == "A2+A2"
    (rec,) = conf.points
    assert rec.orbit_size == 2 and rec.ring.degree == 2
    a = rec.coords[0]
    assert rec.coords[1] == 0 and rec.coords[2] == -a


def test_linear_variable_lift_splits_a_composite_branch(monkeypatch):
    # the roots of (x - 1)(x^2 - 2) come as one branch per factor.  The
    # lift's divisor A_x vanishes on the rational one, x = 1, where
    # w = -B_y/A_y instead, and is a unit of the field Q(sqrt 2)
    A = parse("y + (x - 1)^2*(x^2 - 2)")
    B = parse("y^3") + parse("x") * A
    roots = singclass.split_branch(upoly((2, -2, -1, 1)))
    assert roots[0] == 1 and roots[1].ring.modulus == (-2, 0, 1)
    monkeypatch.setattr(singclass, "_common_zeros",
                        lambda polys, u, v: [(a, Fraction(0)) for a in roots])
    points = singclass._solve_linear_var(("x", "y", "z"), "z", A, B)
    assert points[0] == (1, 0, -1)
    x0, y0, z0 = points[1]
    assert x0 == roots[1] and y0 == 0 and z0 == -x0
    # the whole surface is solved through pivots, with the real _common_zeros
    monkeypatch.undo()
    assert fiber_configuration(A * parse("z") + B).type_string() == "A5+A2+A2"


def test_linear_variable_non_isolated_locus_is_refused():
    # x*y + x^2*z is singular along the line x = y = 0
    with pytest.raises(ClassificationError, match="non-isolated"):
        fiber_configuration(parse("x*y + x^2*z"))


def test_linear_variable_lift_drops_a_point_where_one_b_derivative_is_left(
        monkeypatch):
    # F = A*z + B with A = x^2 + y^2, B = x + y^2: the only common zero is
    # (0, 0), where A_x = A_y = 0 and B_x = 1, B_y = 0.  No z solves
    # A_x*z + B_x = 0, so F is smooth there; a lift that asked for both
    # B-derivatives would call the point's line non-isolated
    calls = []
    solve = singclass._solve_linear_var

    def spy(names, w, A, B):
        calls.append((w, A, B))
        return solve(names, w, A, B)

    monkeypatch.setattr(singclass, "_solve_linear_var", spy)
    conf = fiber_configuration(parse("(x^2 + y^2)*z + x + y^2"))
    assert calls == [("z", parse("x^2 + y^2"), parse("x + y^2"))]
    assert conf.type_string() == "smooth" and conf.points == []


def test_milnor_cap_reports_no_stabilization(monkeypatch):
    # a non-isolated singularity: mu grows with every truncation order
    monkeypatch.setattr(singclass, "_ORDER", 8)
    with pytest.raises(ClassificationError,
                       match="mu >= 8: outside the ADE range"):
        milnor_number(parse("x^2*y^2 + z^2"), (0, 0, 0))


# ---------------------------------------------------------------------------
# two-name systems whose projection on u does not separate the points
# ---------------------------------------------------------------------------

def assert_points_are_singular(F, conf):
    """F and its gradient vanish at every point, evaluated in its ring."""
    names = F.used_variables()
    for rec in conf.points:
        at = dict(zip(names, rec.coords))
        for G in [F] + [F.diff(n) for n in names]:
            assert G.evaluate(at) == 0, (G, rec.coords)


@pytest.mark.parametrize("text,label,ring,shears", [
    # over x = +-sqrt(2) two values y^2 = x remain: the points are
    # (a^2, a, 0) with a^4 = 2, one orbit of four; s = y separates them
    ("(x^2-2)^2 + (y^2-x)^2 + z^2", "A1+A1+A1+A1", "a^4 - 2", 1),
    ("(x^2-2)^2 + (y^3-x)^2 + z^2", "A1+A1+A1+A1+A1+A1", "a^6 - 2", 1),
    # y = +-1 over every x: s = y gives the rational roots y = 1 and
    # y = -1, each with the conjugate pair x = +-sqrt(2)
    ("(x^2-2)^2 + (y^2-1)^2 + z^2", "A1+A1+A1+A1", "a^2 - 2, a^2 - 2", 1),
])
def test_tower_points_are_solved_in_a_sheared_coordinate(monkeypatch, text,
                                                         label, ring, shears):
    calls = []                   # (names, rejected) for every projection
    project = singclass._projected_zeros

    def spy(polys, u, v):
        try:
            out = project(polys, u, v)
        except singclass._NotSeparating:
            calls.append(((u, v), True))
            raise
        calls.append(((u, v), False))
        return out

    monkeypatch.setattr(singclass, "_projected_zeros", spy)
    F = parse(text)
    conf = fiber_configuration(F)
    assert conf.type_string() == label
    assert ", ".join(rec.to_json()["ring_modulus"] for rec in conf.points) == ring
    assert_points_are_singular(F, conf)
    # the u-projection is rejected, then the shears k < shears - 1; the
    # next shear separates the points
    assert calls == ([(("x", "y"), True)] + [(("_s", "x"), True)] * (shears - 1)
                     + [(("_s", "x"), False)])


@pytest.mark.skipif(sympy is None, reason="sympy is not installed")
def test_every_ring_modulus_is_irreducible(monkeypatch):
    built = []                   # every ring that split_branch builds
    split = singclass.split_branch

    def spy(coeffs):
        out = split(coeffs)
        built.extend(a.ring for a in out if isinstance(a, AlgebraicScalar))
        return out

    monkeypatch.setattr(singclass, "split_branch", spy)
    surfaces = ["(x^2-2)^2 + (y^2-x)^2 + z^2", "(x^2-2)^2 + (y^3-x)^2 + z^2",
                "(x^2-2)^2 + (y^2-1)^2 + z^2", "(x^2 - 2)*z + y^3 + x^3 - 2*x"]
    records = [rec for text in surfaces
               for rec in fiber_configuration(parse(text)).points]
    t = {"t2": Fraction(1), "t4": Fraction(0), "t6": Fraction(-1, 108)}
    records += [rec for rec, _ in
                families.fiber_orbit_configuration("D4C3D6", t)[2]]
    moduli = {r.modulus for r in built} | {rec.ring.modulus for rec in records}
    assert len(moduli) >= 4
    x = sympy.Symbol("x")
    for m in moduli:
        assert sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                           for c in reversed(m)], x, domain="QQ").is_irreducible


def test_exhausted_shears_name_the_bound(monkeypatch):
    calls = []

    def reject(polys, u, v):
        calls.append((u, v))
        raise singclass._NotSeparating

    monkeypatch.setattr(singclass, "_projected_zeros", reject)
    with pytest.raises(ClassificationError,
                       match=r"no separating coordinate v \+ k\*u for k = 0 \.\.\. 11"):
        fiber_configuration(parse("(x^2-2)^2 + (y^2-x)^2 + z^2"))
    assert calls == [("x", "y")] + [("_s", "x")] * 12


@settings(max_examples=15, deadline=None, derandomize=True)
@example(a=Fraction(-4))
@example(a=Fraction(4))
@example(a=Fraction(3, 2))
@example(a=Fraction(1, 4))
@given(a=st.builds(lambda n, d, square: Fraction(n, d) ** (2 if square else 1),
                   st.integers(-6, 6).filter(bool), st.integers(1, 3),
                   st.booleans()))
def test_tower_surfaces_over_any_rational(a):
    # the points x^2 = a, y^n = x; off y^n = x, F_y = 0 forces y = 0, and
    # then F = F_x = 0 forces x^2 = a - 1/2 and a = 1/4: two more points,
    # A1 for n = 2 and A2 for n = 3
    extra = a == Fraction(1, 4)
    for text, label in (("(x^2 - a)^2 + (y^2 - x)^2 + z^2",
                         "+".join(["A1"] * (6 if extra else 4))),
                        ("(x^2 - a)^2 + (y^3 - x)^2 + z^2",
                         "A2+A2+" * extra + "+".join(["A1"] * 6))):
        F = parse(text.replace("a", f"({a})"))
        conf = fiber_configuration(F)
        assert conf.type_string() == label
        assert_points_are_singular(F, conf)


# ---------------------------------------------------------------------------
# Milnor number: Morse shortcut, local-ordering echelon against the N-loop
# ---------------------------------------------------------------------------

def truncated_milnor_oracle(G, names, cap=16):
    """The Milnor number of G at the origin by one echelon per truncation
    order N = 4 ... cap, graded lead, each rebuilt from scratch."""
    parts = [p for p in (G.diff(n) for n in names) if not p.is_zero()]
    nv = len(names)
    prev = None
    for N in range(4, cap + 1):
        ech = Echelon()
        for g in parts:
            low = min(map(sum, g.exponents(names)))
            for dm in range(max(N - low, 1)):
                for m in monomials((1,) * nv, dm):
                    row = {}
                    for e, c in g.exponents(names).items():
                        ee = tuple(a + b for a, b in zip(e, m))
                        d = sum(ee)
                        if d < N:
                            row[d, ee] = c
                    ech.add(row)
        count = sum(len(monomials((1,) * nv, d)) for d in range(N))
        mu = count - len(ech.pivots)
        if prev is not None and mu == prev:
            return mu
        prev = mu
    raise ClassificationError(f"Milnor truncation did not stabilize by N = {cap}")


def _refuse_milnor(G, names):
    raise AssertionError("corank-0 point entered the Milnor engine")


def test_corank_zero_points_skip_milnor(monkeypatch):
    monkeypatch.setattr(singclass, "_milnor_translated", _refuse_milnor)
    for text, point in (("x*y + z^2 + x^3", ("0", "0", "0")),
                        ("(x-1)*(y+2) + (z-1/2)^2 + (x-1)^3", ("1", "-2", "1/2"))):
        rec = classify_point(parse(text), tuple(Fraction(c) for c in point))
        assert (rec.ade_type, rec.mu, rec.corank) == ("A1", 1, 0)
    # A3B2D4 at t2 = t4 = 1: a conjugate pair of A1 points over Q[a]/(a^2 - 9/2)
    F = families.quotient_fiber("A3B2D4", {"t2": 1, "t4": 1})
    records = [classify_point(F, c) for c in singular_points(F)]
    pairs = [rec for rec in records if rec.ring.degree == 2]
    assert pairs
    for rec in pairs:
        assert (rec.ade_type, rec.mu, rec.corank, rec.orbit_size) == ("A1", 1, 0, 2)


NORMAL_FORMS = ([(f"x^{k + 1} + y^2 + z^2", k) for k in range(1, 9)]
                + [(f"x^2*y + y^{k - 1} + z^2", k) for k in range(4, 9)]
                + [("x^3 + y^4 + z^2", 6), ("x^3 + x*y^3 + z^2", 7),
                   ("x^3 + y^5 + z^2", 8)])


_small = st.fractions(min_value=-2, max_value=2, max_denominator=3)


@settings(max_examples=12, deadline=None, derandomize=True)
@example(form=("x^7 + y^2 + z^2", 6), matrix=[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
         q=(Fraction(0),) * 3, shear=(1, 0))  # a graded lead counts mu = 5
@given(form=st.sampled_from(NORMAL_FORMS),
       matrix=st.lists(st.lists(st.integers(-1, 1), min_size=3, max_size=3),
                       min_size=3, max_size=3),
       q=st.tuples(_small, _small, _small),
       shear=st.tuples(st.integers(-1, 1), st.integers(-1, 1)))
def test_milnor_matches_truncation_oracle(form, matrix, q, shear):
    assume(_det3(matrix) != 0)
    text, mu = form
    moved = _moved(parse(text), matrix, q, shear)
    names = moved.used_variables()
    G = singclass._translate(moved, names, q)
    assert milnor_number(moved, q) == truncated_milnor_oracle(G, names) == mu


def test_milnor_matches_oracle_over_an_extension():
    # D5 and A4 points at y = +-sqrt(2), where y^2 - 2 is a local coordinate
    ring = make_extension((-2, 0, 1))
    a = ring.generator()
    for text, label in (("x^2*(y^2 - 2) + (y^2 - 2)^4 + z^2", "D5"),
                        ("x^2 + (y^2 - 2)^5 + z^2", "A4")):
        F = parse(text)
        point = (ring.element(0), a, ring.element(0))
        names = F.used_variables()
        G = singclass._translate(F, names, point)
        mu = int(label[1:])
        assert milnor_number(F, point) == truncated_milnor_oracle(G, names) == mu
        assert classify_point(F, point).ade_type == label


_SCALES = st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                       max_denominator=10 ** 12).filter(bool)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(form=st.sampled_from(NORMAL_FORMS), c=_SCALES,
       weights=st.lists(_SCALES, min_size=3, max_size=3),
       q=st.tuples(_small, _small, _small),
       shear=st.tuples(st.integers(-1, 1), st.integers(-1, 1)))
def test_milnor_is_blind_to_a_rescaled_equation(form, c, weights, q, shear):
    # each partial is cleared of its denominators once: c*G spans the rows
    # of G, with other integers in them.  Nonzero weights on the monomials
    # of a normal form keep its type and give each term its own denominator
    text, mu = form
    names = ("x", "y", "z")
    F = parse(" + ".join(f"({w})*{m}" for w, m in zip(weights,
                                                         text.split(" + "))))
    moved = _moved(F, [[1, 1, 0], [0, 1, 0], [0, 0, 1]], q, shear)
    G = singclass._translate(moved, names, q)
    assert singclass._milnor_translated(G, names) == mu
    assert singclass._milnor_translated(G * c, names) == mu


def test_milnor_is_blind_to_a_rescaling_over_an_extension():
    ring = make_extension((-2, 0, 1))
    a = ring.generator()
    F = parse("x^2*(y^2 - 2) + (y^2 - 2)^4 + z^2")
    names = F.used_variables()
    G = singclass._translate(F, names, (ring.element(0), a, ring.element(0)))
    for c in (Fraction(1), Fraction(-7, 10 ** 9 + 7), a + Fraction(1, 3)):
        assert singclass._milnor_translated(G * c, names) == 5


def _record_degrees(monkeypatch):
    """One list per Milnor echelon built: the lowest and highest degree of
    each row added, read off its packed keys over the three names."""
    echelons = []
    top = 3 * singclass._WIDTH

    class Recording(Echelon):
        def __init__(self):
            super().__init__()
            echelons.append([])

        def add(self, vec, index=None):
            degrees = [-(k >> top) for k in vec]
            echelons[-1].append((min(degrees), max(degrees)))
            return super().add(vec, index)

    monkeypatch.setattr(singclass, "Echelon", Recording)
    return echelons


@pytest.mark.parametrize("cap", [6, 8, 9])
def test_milnor_rebuilds_stop_at_the_cap(monkeypatch, cap):
    # x^2*y^2 + z^2 is singular along two lines: mu_N rises with every
    # order, so the engine refuses at its truncation order _ORDER (9 by
    # default), from one echelon whose rows stay below that degree
    monkeypatch.setattr(singclass, "_ORDER", cap)
    echelons = _record_degrees(monkeypatch)
    with pytest.raises(ClassificationError,
                       match=f"mu >= {cap}: outside the ADE range"):
        milnor_number(parse("x^2*y^2 + z^2"), (0, 0, 0))
    assert len(echelons) == 1
    assert max(lo for lo, _ in echelons[0]) == cap - 1
    assert max(hi for _, hi in echelons[0]) == cap - 1


def test_milnor_builds_one_echelon(monkeypatch):
    # mu_4 = 7 and mu_5 = mu_6 = 8 at the E8 point: one echelon takes
    # every order, and no row of lowest degree 6 or more is added
    echelons = _record_degrees(monkeypatch)
    assert milnor_number(parse("x^3 + y^5 + z^2"), (0, 0, 0)) == 8
    assert len(echelons) == 1
    assert max(lo for lo, _ in echelons[0]) == 5
    assert max(hi for _, hi in echelons[0]) < 9


def test_milnor_one_echelon_reaches_the_ninth_order_in_general_position(
        monkeypatch):
    # an A8 point after a GL3 change with entries in -2..2 and a translation
    # stabilizes only at N = 9, in one echelon
    echelons = _record_degrees(monkeypatch)
    q = (Fraction(1, 2), Fraction(-1), Fraction(2, 3))
    F = _moved(parse("x^9 + y^2 + z^2"), [[1, 2, -1], [0, 1, 2], [-2, 1, 1]], q)
    assert milnor_number(F, q) == 8
    assert len(echelons) == 1
    assert max(lo for lo, _ in echelons[0]) == 8
    assert max(hi for _, hi in echelons[0]) == 8
    names = F.used_variables()
    assert truncated_milnor_oracle(singclass._translate(F, names, q), names) == 8


@pytest.mark.parametrize("text,mu,outcome", [
    ("x^9 + y^2 + z^2", 8, "A8"),
    *((f"x^{k + 1} + y^2 + z^2", k, "mu >= 9") for k in range(9, 13)),
    ("x^2*y + y^7 + z^2", 8, "D8"),
    ("x^2*y + y^8 + z^2", 9, "mu = 9 > 8"),
    ("x^3 + y^5 + z^2", 8, "E8"),
    ("x^2 + y^3 + z^6", 10, "mu = 10 > 8")])
def test_milnor_refusal_boundary_against_the_oracle(text, mu, outcome):
    # every mu <= 8 is stable by N = 9; A9-A12 are not, and the engine
    # refuses them.  D9 and J10 are stable by then: the engine counts them,
    # and classify_point refuses them as outside the ADE range
    F, origin = parse(text), (Fraction(0),) * 3
    names = F.used_variables()
    assert truncated_milnor_oracle(
        singclass._translate(F, names, origin), names) == mu
    if outcome == "mu >= 9":
        with pytest.raises(ClassificationError,
                           match="mu >= 9: outside the ADE range"):
            milnor_number(F, origin)
        return
    assert milnor_number(F, origin) == mu
    if outcome.startswith("mu"):
        with pytest.raises(ClassificationError,
                           match=f"{outcome}: outside the ADE range"):
            classify_point(F, origin)
    else:
        assert classify_point(F, origin).ade_type == outcome


_TRIPLES = [e for d in range(16) for e in monomials((1, 1, 1), d)]


def _tuple_key(e):
    return (-sum(e), e)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(a=st.sampled_from(_TRIPLES), b=st.sampled_from(_TRIPLES))
def test_milnor_key_orders_as_the_degree_tuple(a, b):
    ka, kb = singclass._key(a), singclass._key(b)
    assert (ka < kb) == (_tuple_key(a) < _tuple_key(b))
    assert (ka == kb) == (a == b)
    assert -(ka >> 3 * singclass._WIDTH) == sum(a)
    assert ka + kb == singclass._key(tuple(x + y for x, y in zip(a, b)))


def test_milnor_key_sorts_every_triple_below_degree_16():
    assert (sorted(_TRIPLES, key=singclass._key)
            == sorted(_TRIPLES, key=_tuple_key))


# ---------------------------------------------------------------------------
# singular points by substitution, against the shape matchers it replaced
# ---------------------------------------------------------------------------

def reference_split_form(F, names):
    """F = c*u*v + P(w) exactly: (index of w, P) or None."""
    terms = F.exponents(names)
    cross = None
    iw = None
    for e in terms:
        active = [i for i, k in enumerate(e) if k]
        if len(active) == 1:
            if iw is None:
                iw = active[0]
            elif iw != active[0]:
                return None
        elif len(active) == 2:
            a, b = active
            if e[a] == 1 and e[b] == 1 and cross is None:
                cross = (a, b)
            else:
                return None
        elif active:
            return None
    if cross is None or iw is None or iw in cross:
        return None
    return iw, Polynomial(names, {e: c for e, c in terms.items()
                                  if not e[cross[0]] and not e[cross[1]]})


def reference_quadratic_var(F, names):
    """First variable w with deg_w F = 2 and constant w^2 coefficient."""
    for w in names:
        if F.degree_in(w) != 2:
            continue
        C, B, A = F.coefficients_in(w)
        if A.is_constant():
            return w, A, B, C
    return None


def reference_linear_var(F, names):
    """First variable w with deg_w F = 1: (w, A, B) with F = A*w + B."""
    for w in names:
        if F.degree_in(w) == 1:
            B, A = F.coefficients_in(w)
            return w, A, B
    return None


ADE_LABELS = ([f"A{k}" for k in range(1, 9)] + [f"D{k}" for k in range(4, 9)]
              + ["E6", "E7", "E8"])


def _placements(rng):
    """(label, F) for each normal form as written, translated, and after
    two random invertible integer matrices with a translation."""
    identity = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for label, (text, _) in zip(ADE_LABELS, NORMAL_FORMS):
        F = parse(text)
        yield label, F
        shift = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3)]
        yield label, _moved(F, identity, shift)
        for _ in range(2):
            while True:
                A = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
                if _det3(A) != 0:
                    break
            shift = [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                     for _ in range(3)]
            yield label, _moved(F, A, shift)


def test_substitution_answers_every_surface_a_shape_matcher_accepted():
    rng = random.Random(15)
    accepted = answered = 0
    for label, F in _placements(rng):
        names = F.used_variables()
        old = any(match(F, names) is not None for match in
                  (reference_split_form, reference_quadratic_var,
                   reference_linear_var))
        accepted += old
        try:
            conf = fiber_configuration(F)
        except ClassificationError as exc:
            assert not old, (label, F, exc)
            assert "unsupported equation shape" in str(exc)
            continue
        answered += 1
        assert conf.type_string() == label, (label, F)
    assert accepted >= 40 and answered >= accepted


def test_pivot_takes_the_lowest_degree_substitution():
    names = ("x", "y", "z")
    # y = -x^3 comes first in system order; y = -2*z has degree 1
    assert singclass._pivot([parse("y + x^3"), parse("2*z + y")], names) == \
        (1, "y", parse("-2*z"))
    # a tie goes to the first polynomial, then to the first name
    assert singclass._pivot([parse("x*z + y^2"), parse("x + y"),
                             parse("z - y")], names) == (1, "x", parse("-y"))
    # a coefficient that is not constant is no pivot
    assert singclass._pivot([parse("x*y + 1"), parse("z^2")], names) is None


def test_pivot_solves_a_surface_no_shape_matcher_accepted():
    F = parse("x*y + x^3 + y^3 + z^3")
    assert all(match(F, ("x", "y", "z")) is None for match in
               (reference_split_form, reference_quadratic_var,
                reference_linear_var))
    conf = fiber_configuration(F)
    assert conf.type_string() == "A2"
    assert conf.points[0].coords == (0, 0, 0)
    with pytest.raises(ClassificationError, match="^unsupported equation shape "
                       "for singular-point elimination$"):
        fiber_configuration(parse("x^3 + y^3 + z^3"))


def _hessian_by_diffs(G, names):
    """The Hessian as it was once taken: two derivatives per entry."""
    return [[G.diff(a).diff(b).constant_term() for b in names] for a in names]


_hess_terms = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * 3),
    st.fractions(min_value=-5, max_value=5, max_denominator=4), max_size=8)


@settings(max_examples=100, deadline=None)
@given(terms=_hess_terms, over_sqrt2=st.booleans(),
       shift=st.lists(st.tuples(_small, _small), min_size=3, max_size=3))
def test_hessian_matches_second_derivatives(terms, over_sqrt2, shift):
    names = ("x", "y", "z")
    F = Polynomial(names, terms)
    if over_sqrt2:
        ring = make_extension((-2, 0, 1))
        point = tuple(ring.element(c) for c in shift)
    else:
        point = tuple(c for c, _ in shift)
    G = singclass._translate(F, names, point)
    assert singclass._hessian(G, names) == _hessian_by_diffs(G, names)


@pytest.mark.skipif(sympy is None, reason="sympy is not installed")
@pytest.mark.parametrize("text,tau", [
    ("x^2 + y^2 + z^4", 3), ("x^4 + y^3 + z^2", 6),
    ("x^2 + y^2 + z^2 - 1", 0),                  # smooth
    ("(x^2 - 2)^2 + y^2 + z^2", 2),              # two conjugate A1 points
    ("x^4 + y^5 + x^2*y^3 + z^2", 11),           # not quasi-homogeneous:
])                                               # tau = 11 < mu = 12
def test_tjurina_dimension_of_known_surfaces(text, tau):
    from oracles import tjurina_dimension
    assert tjurina_dimension(parse(text), ("x", "y", "z")) == tau
    with pytest.raises(ValueError, match="infinite quotient"):
        tjurina_dimension(parse("x^2 + y^2"), ("x", "y", "z"))


# The ADE normal forms of the `surfaces` benchmark as monomial lists; each
# monomial gets a random nonzero rational coefficient
SURFACE_FORMS = (
    [(f"A{k}", ("x^2", "y^2", f"z^{k + 1}")) for k in range(1, 9)]
    + [(f"D{k}", ("x^2", "y^2*z", f"z^{k - 1}")) for k in range(4, 9)]
    + [("E6", ("x^2", "y^3", "z^4")), ("E7", ("x^2", "y^3", "y*z^3")),
       ("E8", ("x^2", "y^3", "z^5"))])


def _surface_round():
    """(label, text) of each form as written, translated, and after an
    integer matrix and a translation: one round of the benchmark's seed-0
    inputs, drawn the same way."""
    def rational(rng):
        while True:
            v = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            if v:
                return v

    matrix_rng = random.Random("surfaces:matrices")
    matrices = []
    for _ in SURFACE_FORMS:
        while True:
            m = [[matrix_rng.randint(-2, 2) for _ in range(3)]
                 for _ in range(3)]
            if _det3(m):
                matrices.append(m)
                break
    rng = random.Random("surfaces:0")
    names = ("x", "y", "z")
    for placement in ("as-written", "translated", "general-position"):
        for (label, monomials), m in zip(SURFACE_FORMS, matrices):
            coeffs = [rational(rng) for _ in monomials]
            if placement == "as-written":
                sub = {}
            elif placement == "translated":
                sub = {v: f"({v}+({rational(rng)}))" for v in names}
            else:
                sub = {v: "(" + "+".join(f"({m[i][j]})*{w}"
                                         for j, w in enumerate(names))
                          + f"+({rational(rng)}))"
                       for i, v in enumerate(names)}
            yield label, " + ".join(
                f"({c})*" + "".join(sub.get(ch, ch) for ch in mono)
                for c, mono in zip(coeffs, monomials))


@pytest.mark.skipif(sympy is None, reason="sympy is not installed")
def test_tjurina_dimension_matches_the_surface_configurations():
    # the classifier's answers on the benchmark's surfaces: each has one
    # ADE point, so the Tjurina algebra has the dimension of its type
    from oracles import rank_sum, tjurina_dimension
    answered = 0
    for label, text in _surface_round():
        F = parse(text)
        try:
            conf = fiber_configuration(F).type_string()
        except ClassificationError as exc:
            assert "unsupported equation shape" in str(exc), (label, text)
            continue
        assert tjurina_dimension(F, ("x", "y", "z")) == rank_sum(conf), \
            (label, text, conf)
        assert conf == label, (label, text)
        answered += 1
    # 9 of the 48 are general-position forms with no pivot, refused until
    # the classifier learns them
    assert answered >= 39


@pytest.mark.skipif(sympy is None, reason="sympy is not installed")
def test_tjurina_dimension_matches_the_table_configurations():
    # at every point the tables section of a bundle samples (three per
    # row, one at an origin), the Tjurina algebra of the quotient fiber has
    # the dimension of the reported configuration: ADE points are
    # quasi-homogeneous, so tau = mu there, the rank of the type
    from oracles import rank_sum, tjurina_dimension
    points = 0
    for cid in CASE_IDS:
        names = families.descriptor(cid).quotient_vars
        for strat in families.descriptor(cid).strata:
            for t in families.sample_stratum(cid, strat.stratum_id, 3):
                conf = families.classify_quotient_fiber(cid, t).type_string()
                assert tjurina_dimension(families.quotient_fiber(cid, t),
                                         names) == rank_sum(conf), \
                    (cid, strat.stratum_id, t, conf)
                points += 1
    assert points == 102
