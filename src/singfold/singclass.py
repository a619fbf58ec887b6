"""Exact location and ADE classification of surface singularities.

Given F(u,v,w) = 0 with rational coefficients, the singular points are the
common zeros of (F, F_u, F_v, F_w), with coordinates in Q or in number
fields Q[a]/(m), one per irreducible factor m of an eliminant
(:func:`split_branch`), so each record is one Galois orbit.  They are found
by one substitution rule:
an equation linear in a variable with a constant coefficient is solved for
that variable, the lowest-degree solution first, and substituted into the
rest.  A system left in one variable takes a gcd, one in two variables
takes resultants, projected on one variable or, where that projection does
not separate the points, on a sheared coordinate v + k*u; in three, F must
be linear in one variable, F = A*w + B.
Each point is classified by Hessian corank, Milnor number and the shape of the
kernel-restricted cubic.  At Hessian corank 0 the point is A1 (Morse
lemma) and no Milnor number is computed; otherwise mu comes from one echelon
of the truncated Jacobian rows in a local degree ordering.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .exact import (RATIONAL_RING, AlgebraicScalar, Echelon, ExtensionRing,
                    Scalar, clear_denominators, invert, nullspace,
                    upoly_factor, upoly_gcd, upoly_squarefree_part, upoly_str)
from .poly import (Polynomial, binary_cubic_shape, monomials, resultant,
                   univariate_coefficients)
from .subsys import TypeMultiset, canonical_type, format_type

Point = Tuple[Scalar, ...]


class ClassificationError(ValueError):
    pass


@dataclass
class SingularPointRecord:
    """Singular points over one field Q[a]/(m), one per root of m.

    ``coords`` is one point; ``ring`` is the field of its algebraic
    coordinates, Q if it has none.  m is irreducible over Q, so the points
    are one Galois orbit of size ``orbit_size`` = deg m:
    ``(x^2-2)^2 + (y^2-1)^2 + z^2`` gives two A1 records on ``a^2 - 2``,
    the pairs (+-sqrt 2, 1, 0) and (+-sqrt 2, -1, 0).
    """

    ring: ExtensionRing
    coords: Point
    mu: int
    corank: int
    cubic_shape: Optional[str]
    ade_type: str
    orbit_size: int

    def to_json(self) -> dict:
        def ser(c):
            return str(c) if isinstance(c, Fraction) else repr(c)

        return {
            "ring_modulus": (upoly_str(self.ring.modulus, "a")
                             if self.ring.degree > 1 else None),
            "coordinates": [ser(c) for c in self.coords],
            "mu": self.mu,
            "corank": self.corank,
            "cubic_shape": self.cubic_shape,
            "type": self.ade_type,
            "orbit_size": self.orbit_size,
        }


@dataclass
class FiberConfiguration:
    points: List[SingularPointRecord]
    type_multiset: TypeMultiset

    def type_string(self) -> str:
        return format_type(self.type_multiset) if self.type_multiset else "smooth"

    def to_json(self) -> dict:
        return {"configuration": self.type_string(),
                "points": [p.to_json() for p in self.points]}


# ---------------------------------------------------------------------------
# univariate roots over Q
# ---------------------------------------------------------------------------

def split_branch(coeffs) -> List[Scalar]:
    """The roots of a univariate polynomial over Q, one per irreducible
    factor: a rational root, else the generator of the field Q[a]/(factor)."""
    return [-f[0] if len(f) == 2 else ExtensionRing(f).generator()
            for f in upoly_factor(coeffs)]


# ---------------------------------------------------------------------------
# bivariate singular-point solver
# ---------------------------------------------------------------------------

def _eval_coeffs(p: Polynomial, u: str, v: str, alpha: Scalar) -> List[Scalar]:
    """Coefficients in v of p(u=alpha, v), low to high."""
    return [c.constant_value() if c.is_constant() else c.evaluate({u: alpha})
            for c in p.coefficients_in(v)]


class _NotSeparating(Exception):
    """A root of the eliminant over a proper extension leaves more than one
    value of the other name: the projection does not separate the zeros."""


def _common_zeros(polys: List[Polynomial], u: str,
                  v: str) -> List[Tuple[Scalar, Scalar]]:
    """Common zeros (u, v) of rational polynomials in u and v.

    They are projected on u first.  If that projection does not separate
    them, the system is solved again projected on s = v + k*u for
    k = 0 ... 11 (k = 0 swaps u and v), with v = s - k*u (Cox-Little-O'Shea,
    *Using Algebraic Geometry*, ch. 2 section 4)."""
    try:
        return _projected_zeros(polys, u, v)
    except _NotSeparating:
        pass
    s = Polynomial.var("_s")
    for k in range(12):
        sheared = [p.subs({v: s - k * Polynomial.var(u)}) for p in polys]
        try:
            zeros = _projected_zeros(sheared, "_s", u)
        except _NotSeparating:
            continue
        return [(uval, sval - k * uval) for sval, uval in zeros]
    raise ClassificationError(
        "no separating coordinate v + k*u for k = 0 ... 11")


def _projected_zeros(polys: List[Polynomial], u: str,
                     v: str) -> List[Tuple[Scalar, Scalar]]:
    """Common zeros (u, v) by resultants in v, a gcd of the eliminants in u,
    and a gcd in v over each root; raises _NotSeparating where a root over a
    proper extension leaves more than one v."""
    pure_u = [p for p in polys if not p.is_zero() and v not in p.used_variables()]
    with_v = [p for p in polys if not p.is_zero() and v in p.used_variables()]
    if not with_v:
        raise ClassificationError("system does not constrain the second variable")
    elim: List[Polynomial] = list(pure_u)
    for i in range(len(with_v)):
        for j in range(i + 1, len(with_v)):
            r = resultant(with_v[i], with_v[j], v)
            # a vanishing pairwise eliminant carries no information (the pair
            # shares a factor); the remaining eliminants still cut out the
            # candidate values
            if not r.is_zero():
                elim.append(r)
    if not elim:
        raise ClassificationError("every eliminant vanishes: non-isolated locus")

    def over_root(alpha: Scalar):
        g = upoly_gcd(*(_eval_coeffs(p, u, v, alpha) for p in with_v))
        if not g:
            raise ClassificationError(
                "all polynomials vanish identically: non-isolated locus")
        if isinstance(alpha, Fraction):  # over Q, one root per factor of g
            return [(alpha, beta) for beta in split_branch(g)]
        g = upoly_squarefree_part(g)
        if len(g) > 2:
            raise _NotSeparating
        # a constant g is a spurious eliminant root: no common v here
        return [(alpha, -g[0])] if len(g) == 2 else []

    return [z for alpha in split_branch(
        upoly_gcd(*(univariate_coefficients(p, u) for p in elim)))
            for z in over_root(alpha)]


# ---------------------------------------------------------------------------
# top-level singular point location
# ---------------------------------------------------------------------------

def singular_points(F: Polynomial) -> List[Point]:
    """All common zeros of (F, dF), one point per Galois orbit, with
    coordinates in Q or in one field Q[a]/(m), in the order of
    ``F.used_variables()``."""
    names = F.used_variables()
    if len(names) > 3:
        raise ClassificationError("more than 3 variables")
    if F.is_zero():
        raise ClassificationError("zero polynomial")
    return _eliminate([F] + [F.diff(n) for n in names], names)


def _pivot(polys: Sequence[Polynomial], names: Sequence[str]):
    """The substitution w = -r/a of a polynomial a*w + r of the system, a a
    nonzero rational and r free of w, with the lowest total degree; ties go
    to the first polynomial, then the first name.  Returns (index of the
    polynomial, w, -r/a) or None."""
    best = None
    for i, p in enumerate(polys):
        for w in names:
            if p.degree_in(w) != 1:
                continue
            r, a = p.coefficients_in(w)
            if a.is_constant() and (best is None or r.total_degree() < best[0]):
                best = (r.total_degree(), i, w, r, a.constant_value())
    if best is None:
        return None
    _, i, w, r, a = best
    return i, w, -r / a


def _eliminate(polys: Sequence[Polynomial], names: Tuple[str, ...]) -> List[Point]:
    """Common zeros of rational polynomials in ``names``, coordinates in the
    order of ``names``.

    A polynomial linear in w with a constant coefficient is solved for w and
    substituted into the rest (Cox-Little-O'Shea, ch. 3); w is lifted on
    each point of the smaller system by evaluation, which inverts nothing.
    Without such a pivot, one name takes a gcd, two take resultants in
    :func:`_common_zeros`, and three, reached only by the system
    [F, F_x, F_y, F_z] itself, need F = polys[0] linear in one variable."""
    polys = [p for p in polys if not p.is_zero()]
    if any(p.is_constant() for p in polys):
        return []
    if not polys:
        if names:
            raise ClassificationError("non-isolated singular locus")
        return [()]
    pivot = _pivot(polys, names)
    if pivot is not None:
        i, w, expr = pivot
        k = names.index(w)
        rest = names[:k] + names[k + 1:]
        sub = _eliminate([p.subs({w: expr}) for j, p in enumerate(polys)
                          if j != i], rest)
        return [coords[:k] + (expr.evaluate(dict(zip(rest, coords))),)
                + coords[k:] for coords in sub]
    if len(names) == 1:
        (u,) = names
        return [(val,) for val in split_branch(
            upoly_gcd(*(univariate_coefficients(p, u) for p in polys)))]
    if len(names) == 2:
        return _common_zeros(polys, *names)
    w = next((w for w in names if polys[0].degree_in(w) == 1), None)
    if w is None:
        raise ClassificationError(
            "unsupported equation shape for singular-point elimination")
    B, A = polys[0].coefficients_in(w)
    return _solve_linear_var(names, w, A, B)


def _solve_linear_var(names, w: str, A: Polynomial, B: Polynomial) -> List[Point]:
    """Singular points of F = A*w + B with A and B free of w.

    They lie over the common zeros of A, B and A_u*B_v - A_v*B_u, where
    w = -B_u/A_u or -B_v/A_v solves A_u*w + B_u = A_v*w + B_v = 0.
    """
    u, v = (n for n in names if n != w)
    Au, Av, Bu, Bv = A.diff(u), A.diff(v), B.diff(u), B.diff(v)

    def lift(a: Scalar, b: Scalar) -> List[Point]:
        at = {u: a, v: b}
        for dA, dB in ((Au, Bu), (Av, Bv)):
            da = dA.evaluate(at)
            if da:
                at[w] = -dB.evaluate(at) * invert(da)
                return [tuple(at[n] for n in names)]
        if Bu.evaluate(at) or Bv.evaluate(at):
            return []  # no w solves both equations: not singular
        raise ClassificationError(
            "non-isolated singular locus: w is free over a point")

    return [pt for zero in _common_zeros([A, B, Au * Bv - Av * Bu], u, v)
            for pt in lift(*zero)]


# ---------------------------------------------------------------------------
# Milnor number, Hessian corank, classification
# ---------------------------------------------------------------------------

def _translate(F: Polynomial, names: Sequence[str], point: Point) -> Polynomial:
    subs = {}
    for n, p in zip(names, point):
        subs[n] = Polynomial.var(n) + Polynomial.constant(p)
    return F.subs(subs)


_WIDTH = 8  # bits per name in a Milnor echelon key
_ORDER = 9  # every row is truncated below this degree


def _key(e: Tuple[int, ...]) -> int:
    """The Milnor echelon key of an exponent tuple e of degree below
    2^_WIDTH: pack(e) - (deg(e) << S), where pack(e) < 2^S = 2^(_WIDTH * n)
    holds e in one _WIDTH-bit field per name, the first name highest.  It
    sorts as (-deg(e), e) does, key(e + m) = key(e) + key(m), and the
    degree is -(key >> S)."""
    top = _WIDTH * len(e)
    return (sum(x << (top - _WIDTH * i) for i, x in enumerate(e, 1))
            - (sum(e) << top))


@functools.cache
def _monomial_keys(n: int, d: int) -> Tuple[int, ...]:
    """The keys of the monomials of degree d in n names."""
    return tuple(map(_key, monomials((1,) * n, d)))


def _milnor_translated(G: Polynomial, names) -> int:
    """Milnor number of G at the origin from one echelon in a local degree
    ordering (Greuel-Pfister, sections 1.5-1.7).

    The rows g*m of the partials g, truncated below degree _ORDER, are
    keyed by :func:`_key`, so each pivot's lead is its lowest-degree term
    and a row term is one int addition.  They go in by lowest degree
    low(g) + deg m; once those below N are in, mu_N = #monomials of degree
    < N - #pivots whose lead has degree < N, as no later row has a term
    below N.  The first N with mu_N = mu_(N-1) puts m^(N-1) in the Jacobian
    ideal (Nakayama), and mu = mu_N.  Until then mu_N rises by at least 1
    per order from mu_1 = 1, so every mu <= 8 is stable by N = _ORDER."""
    parts = [p for p in (G.diff(n) for n in names) if not p.is_zero()]
    if not parts:
        raise ClassificationError("zero gradient: not an isolated singularity")
    n, top = len(names), _WIDTH * len(names)
    graded = []
    for g in parts:
        # a scalar multiple spans the same rows: clear each partial once;
        # no row keeps a term of degree _ORDER or more, so every field of a
        # key stays below 2^_WIDTH
        terms = g.exponents(names)
        nums, _ = clear_denominators(terms.values())
        packed = sorted((sum(e), _key(e), c) for e, c in zip(terms, nums)
                        if sum(e) < _ORDER)
        if packed:
            graded.append(([d for d, _, _ in packed],
                           [(k, c) for _, k, c in packed]))
    ech, mu, prev = Echelon(), 0, None
    for low in range(_ORDER):           # add the rows of lowest degree low
        for degrees, terms in graded:
            dm = low - degrees[0]           # no monomial has degree < 0
            head = terms[:bisect.bisect_left(degrees, _ORDER - dm)]
            for km in _monomial_keys(n, dm):
                ech.add({k + km: c for k, c in head})
        leads = sum(key >> top == -low for key in ech.pivots)
        mu += len(_monomial_keys(n, low)) - leads
        if mu == prev:
            if mu < 1:
                raise ClassificationError(
                    "vanishing local algebra: smooth point?")
            return mu
        prev = mu
    raise ClassificationError(f"mu >= {_ORDER}: outside the ADE range")


def _hessian(G: Polynomial, names) -> List[List[Scalar]]:
    """The Hessian matrix of G at the origin, read off its quadratic part."""
    H: List[List[Scalar]] = [[Fraction(0)] * len(names) for _ in names]
    for e, c in G.homogeneous_part(2).exponents(names).items():
        i, j = (k for k, d in enumerate(e) for _ in range(d))
        H[i][j] = H[j][i] = c if i != j else 2 * c
    return H


def classify_point(F: Polynomial, point: Point) -> SingularPointRecord:
    """ADE label of an isolated singular point from (corank, mu, cubic
    shape), over the field of its algebraic coordinates, or Q.  The Hessian
    comes first; at corank 0 it is nondegenerate and mu = 1."""
    names = F.used_variables()
    if len(names) != 3:
        raise ClassificationError("classification needs a 3-variable equation")
    G = _translate(F, names, point)
    if G.constant_term():
        raise ClassificationError("point is not on the surface")
    if any(G.diff(n).constant_term() for n in names):
        raise ClassificationError("point is not singular")
    kern = nullspace(_hessian(G, names))
    corank = len(kern)
    # Morse lemma: a nondegenerate Hessian makes an ordinary double point
    mu = 1 if corank == 0 else _milnor_translated(G, names)
    if mu > 8:
        raise ClassificationError(f"mu = {mu} > 8: outside the ADE range")
    shape = None
    if corank <= 1:
        ade = f"A{mu}"
    elif corank == 2:
        cubic = G.homogeneous_part(3)
        s, t = Polynomial.var("_s"), Polynomial.var("_t")
        subs = {}
        for i, nvar in enumerate(names):
            subs[nvar] = s * Polynomial.constant(kern[0][i]) + t * Polynomial.constant(kern[1][i])
        restricted = cubic.subs(subs)
        shape = binary_cubic_shape(restricted)
        if shape == "three-distinct":
            if mu != 4:
                raise ClassificationError("three distinct tangent lines force mu = 4")
            ade = "D4"
        elif shape == "one-double":
            if mu < 5:
                raise ClassificationError("double tangent line forces mu >= 5")
            ade = f"D{mu}"
        elif shape == "triple":
            if mu not in (6, 7, 8):
                raise ClassificationError(f"triple line with mu = {mu} is not ADE")
            ade = f"E{mu}"
        else:
            raise ClassificationError("zero cubic on the kernel plane: not ADE")
    else:
        raise ClassificationError("corank 3: not ADE")
    ring = next((c.ring for c in point if isinstance(c, AlgebraicScalar)),
                RATIONAL_RING)
    return SingularPointRecord(ring, tuple(point), mu, corank, shape, ade,
                               ring.degree)


def fiber_configuration(F: Polynomial) -> FiberConfiguration:
    """Locate and classify every singular point of F = 0."""
    records = [classify_point(F, coords) for coords in singular_points(F)]
    labels = [rec.ade_type for rec in records for _ in range(rec.orbit_size)]
    records.sort(key=lambda r: (r.ade_type, -r.orbit_size))
    return FiberConfiguration(records, canonical_type(labels))
