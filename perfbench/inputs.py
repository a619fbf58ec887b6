"""Seeded input streams for the `fibers` and `surfaces` workloads.

Both generators depend only on the workload seed: every pass of a run, the
traced one included, classifies the same inputs.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List, Tuple

# Sampler indices are drawn from a fixed window so that every seed sees
# parameter points of similar height, hence similar cost.
SAMPLER_WINDOW = 400
SAMPLER_TRIES = 200
POINTS_PER_STRATUM = 2
GENERIC_PER_CASE = 2
SURFACE_ROUNDS = 3

# ADE normal forms as monomial lists; each monomial gets a random nonzero
# rational coefficient, which keeps the type of the point at the origin.
NORMAL_FORMS = (
    [(f"A{k}", ("x^2", "y^2", f"z^{k + 1}")) for k in range(1, 9)]
    + [(f"D{k}", ("x^2", "y^2*z", f"z^{k - 1}")) for k in range(4, 9)]
    + [("E6", ("x^2", "y^3", "z^4")), ("E7", ("x^2", "y^3", "y*z^3")),
       ("E8", ("x^2", "y^3", "z^5"))])
PLACEMENTS = ("as-written", "translated", "general-position")


def _rational(rng: random.Random) -> Fraction:
    """A random nonzero rational of small height."""
    while True:
        v = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        if v:
            return v


def fiber_inputs(seed: int, descriptors, membership
                 ) -> List[Tuple[str, str, dict]]:
    """(case, stratum, parameter point) triples.

    Every non-generic stratum contributes points from its own sampler at
    seeded indices (a single-point stratum contributes its point once);
    each case adds random rational points that `membership` puts on the
    generic stratum.
    """
    rng = random.Random(f"fibers:{seed}")
    items = []
    for case in descriptors:
        cid = case.case_id
        for strat in case.strata:
            if strat.stratum_id == "generic":
                continue
            wanted = 1 if strat.max_samples == 1 else POINTS_PER_STRATUM
            for _ in range(wanted):
                for _ in range(SAMPLER_TRIES):
                    t = strat.sampler(rng.randrange(SAMPLER_WINDOW))
                    if t is not None and membership(cid, t) == strat.stratum_id:
                        break
                else:
                    raise RuntimeError(f"{cid}/{strat.stratum_id}: sampler "
                                       f"found no point in {SAMPLER_TRIES} tries")
                items.append((cid, strat.stratum_id, t))
        for _ in range(GENERIC_PER_CASE):
            while True:
                t = {p: Fraction(rng.randint(-24, 24), rng.choice((1, 2, 3)))
                     for p in case.params}
                if membership(cid, t) == "generic":
                    break
            items.append((cid, "generic", t))
    return items


def _matrix(rng: random.Random) -> list:
    """A random invertible 3x3 integer matrix with entries in [-2, 2]."""
    while True:
        m = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
        det = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
               - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
               + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
        if det:
            return m


# The general-position changes of variables: one matrix per round and normal
# form, drawn once from a generator of their own and shared by every seed.
# Whether the shape fast paths accept a transformed form, and what it then
# costs (up to 2 s for A8), depends on the matrix, mostly on where its zero
# entries sit; matrices drawn per seed made a pass swing between 1.3 and
# 4.4 s.  The seed still draws the coefficients and the translations.
_MATRIX_RNG = random.Random("surfaces:matrices")
GENERAL_MATRICES = [[_matrix(_MATRIX_RNG) for _ in NORMAL_FORMS]
                    for _ in range(SURFACE_ROUNDS)]


def _affine_form(rng: random.Random, matrix=None) -> dict:
    """Text of x, y, z after a translation, or after `matrix` and one.

    Every variable is shifted by a nonzero rational: a zero shift keeps a
    high power unexpanded, which halves the cost of an A8 form and made the
    cost of a pass swing with the seed."""
    names = ("x", "y", "z")
    if matrix is None:
        return {v: f"({v}+({_rational(rng)}))" for v in names}
    return {v: "(" + "+".join(f"({matrix[i][j]})*{w}"
                              for j, w in enumerate(names))
               + f"+({_rational(rng)}))" for i, v in enumerate(names)}


def _substitute(monomial: str, sub: dict) -> str:
    return "".join(sub.get(ch, ch) for ch in monomial)


def surface_inputs(seed: int) -> List[Tuple[str, str, str]]:
    """(expected ADE label, placement, equation text) triples: every normal
    form in each of the three placements, SURFACE_ROUNDS times."""
    rng = random.Random(f"surfaces:{seed}")
    items = []
    for rnd in range(SURFACE_ROUNDS):
        for placement in PLACEMENTS:
            for k, (label, monomials) in enumerate(NORMAL_FORMS):
                coeffs = [_rational(rng) for _ in monomials]
                if placement == "as-written":
                    sub = {}
                elif placement == "translated":
                    sub = _affine_form(rng)
                else:
                    sub = _affine_form(rng, GENERAL_MATRICES[rnd][k])
                text = " + ".join(f"({c})*{_substitute(m, sub)}"
                                  for c, m in zip(coeffs, monomials))
                items.append((label, placement, text))
    return items
