"""The six quotient deformation cases: fiber equations, symmetry actions,
quotient equations, discriminant strata with rational samplers, invariant
charts, and the fixed-point/regularity spot checks.

Stratum membership uses a finest-first ordered list: a parameter point
belongs to the first stratum whose equations vanish and whose inequations
do not.  Samplers emit exact rational points on each stratum.
"""

from __future__ import annotations

import functools
import importlib.resources
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from .exact import Echelon, Scalar
from .poly import Polynomial, div_exact, gcd_univariate, monomials, parse
from .rootsys import CASE_IDS, CaseMeta, case_meta, closure
from .singclass import (FiberConfiguration, classify_point,
                        fiber_configuration, singular_points)
from .subsys import format_type

Subst = Dict[str, Polynomial]


@dataclass(frozen=True)
class Stratum:
    stratum_id: str
    description: str
    equations: Tuple[Polynomial, ...]
    inequations: Tuple[Polynomial, ...]
    quotient_config: str
    fiber_sing: Optional[Tuple[Tuple[str, int], ...]]  # (type, orbit size)
    fiber_fixed_smooth: Optional[int]
    sampler: Callable[[int], Optional[Dict[str, Fraction]]]
    max_samples: Optional[int] = None


@dataclass(frozen=True)
class CaseDescriptor:
    case_id: str
    meta: CaseMeta
    params: Tuple[str, ...]              # surviving flat coordinates t_i
    param_slots: Tuple[str, ...]         # display slots incl. frozen zeros
    weights: Dict[str, int]              # quasi-homogeneous weights
    fiber_vars: Tuple[str, str, str]
    fiber: Polynomial
    quotient_vars: Tuple[str, str, str]
    quotient: Polynomial
    omega_gens: Dict[str, Subst]         # generator name -> substitution map
    omega_order: int
    embedding: Dict[str, Polynomial]     # quotient var (or var+"^2") -> invariant
    strata: Tuple[Stratum, ...]          # finest first; last is "generic"
    fixed_locus: Subst                   # printed fixed locus, free symbol "s"
    fixed_square: Optional[Polynomial] = None  # B types: const(t) - sign*s^2

    def stratum(self, stratum_id: str) -> Stratum:
        for s in self.strata:
            if s.stratum_id == stratum_id:
                return s
        raise ValueError(f"unknown stratum {stratum_id!r} in {self.case_id}")

    def group_elements(self) -> List[Subst]:
        """The symmetry group as substitution maps, identity first."""
        return list(_group(self.case_id))


@functools.cache
def _group(case_id: str) -> Tuple[Subst, ...]:
    """The symmetry group of a case: the orbit of the identity under the
    generators, keyed by the images of the fiber variables."""
    case = descriptor(case_id)
    fv = case.fiber_vars

    def products(images):
        e = dict(zip(fv, images))
        return [tuple(compose_subst(g, e, fv).values())
                for g in case.omega_gens.values()]

    elems = closure([tuple(map(Polynomial.var, fv))], products)
    if len(elems) != case.omega_order:
        raise AssertionError(f"{case_id}: generated group of order "
                             f"{len(elems)}, expected {case.omega_order}")
    return tuple(dict(zip(fv, e)) for e in elems)


def compose_subst(g: Subst, h: Subst, variables: Sequence[str]) -> Subst:
    """(g*h)(p) = g(h(p)): substitute h's expressions into g's."""
    return {v: g[v].subs(h) for v in variables}


# ---------------------------------------------------------------------------
# samplers: deterministic sweeps, weighted orbits and F4's fiber points
# ---------------------------------------------------------------------------

def _sval(k: int) -> Fraction:
    """1, -1, 2, -2, 3, -3, ..."""
    n = k // 2 + 1
    return Fraction(n if k % 2 == 0 else -n)


def _pair(k: int) -> Tuple[Fraction, Fraction]:
    # Cantor-style diagonal over the sweep sequence
    d = 0
    while (d + 1) * (d + 2) // 2 <= k:
        d += 1
    i = k - d * (d + 1) // 2
    return _sval(i), _sval(d - i)


def _triple(k: int) -> Tuple[Fraction, Fraction, Fraction]:
    a, rest = _sval(k % 5), k // 5
    b, c = _pair(rest)
    return b, c, a


def _quad(k: int) -> Tuple[Fraction, Fraction, Fraction, Fraction]:
    a, b = _pair(k % 21)
    c, d = _pair(k // 21)
    return a, b, c, d


def _swept(names: Sequence[str], k: int) -> Dict[str, Fraction]:
    return dict(zip(names, {2: _pair, 3: _triple, 4: _quad}[len(names)](k)))


def _on_orbit(params: Tuple[str, ...], weights: Dict[str, int],
              base: Tuple[Fraction, ...], k: int) -> Dict[str, Fraction]:
    """The weighted orbit of the base point: t_d = s^(d/2) * c_d at
    s = _sval(k).  Every parameter weight is even, so the point is rational,
    and the fiber at it is isomorphic to the fiber at the base point."""
    s = _sval(k)
    return {p: s ** (weights[p] // 2) * c for p, c in zip(params, base)}


def _solved(params: Tuple[str, ...], name: str, coefficients,
            k: int) -> Dict[str, Fraction]:
    """A sweep of the other parameters, `name` solved from an equation
    linear in it, given by its coefficients in `name`."""
    t = _swept([p for p in params if p != name], k)
    t[name] = _root(coefficients, t)
    return {p: t[p] for p in params}


def _root(coefficients: Sequence[Polynomial], values) -> Fraction:
    """The root in v of c0 + c1*v, for the coefficients (c0, c1) in v of a
    polynomial linear in v, evaluated at `values`."""
    c0, c1 = coefficients
    return -c0.evaluate(values) / c1.evaluate(values)


def _f4_point(fiber: Polynomial):
    """point(x0, y0, t2, t6): the parameter point whose catalogued fiber F
    has F = F_y = 0 at (x0, y0, 0), t8 solved from F_y and t12 from F."""
    on_z0 = fiber.subs({"z": Fraction(0)})
    t8, t12 = on_z0.diff("y").coefficients_in("t8"), \
        on_z0.coefficients_in("t12")

    def point(x0, y0, t2, t6) -> Dict[str, Fraction]:
        t = {"x": x0, "y": y0, "t2": t2, "t6": t6}
        t["t8"] = _root(t8, t)
        t["t12"] = _root(t12, t)
        return {p: t[p] for p in ("t2", "t6", "t8", "t12")}
    return point


# the six F4 rows sampled off an orbit: each picks (x0, y0, t2, t6) so
# that F_x vanishes at (x0, y0, 0) as well, a singular point of the fiber
def _f4_h1(point, k: int) -> Optional[Dict[str, Fraction]]:
    return point(Fraction(0), *_triple(k))


def _f4_h2(point, k: int) -> Optional[Dict[str, Fraction]]:
    x0, t2, t6 = _triple(k)
    if t2 == 0 or x0 == 0:
        return None
    return point(x0, 2 * (-x0 ** 2 + (t6 - t2 ** 3 / 8) / 24) / t2, t2, t6)


def _f4_d4a1(point, k: int) -> Optional[Dict[str, Fraction]]:
    t2, t6 = _pair(k)
    if t2 == 0:
        return None
    return point(Fraction(0), (t6 - t2 ** 3 / 8) / (12 * t2), t2, t6)


def _f4_a5(point, k: int) -> Optional[Dict[str, Fraction]]:
    return point(Fraction(0), Fraction(0), *_pair(k))


def _f4_a2a1(point, k: int) -> Optional[Dict[str, Fraction]]:
    x0, t2 = _pair(k)
    if t2 == 0 or x0 == 0:
        return None
    return point(x0, -t2 ** 2 / 48, t2, 24 * x0 ** 2 - t2 ** 3 / 8)


def _f4_h1h2(point, k: int) -> Optional[Dict[str, Fraction]]:
    x0, d = _pair(k)
    if x0 == 0 or d == 0:
        return None
    y1 = (d - x0 ** 4 / (4 * d ** 2)) / 3
    y0 = y1 - d
    t2 = 12 * (y0 ** 2 - y1 ** 2) / x0 ** 2
    if t2 == 0:
        return None
    t6 = t2 ** 3 / 8 + 24 * (x0 ** 2 + t2 * y0 / 2)
    return point(Fraction(0), y1, t2, t6)


# ---------------------------------------------------------------------------
# case construction
# ---------------------------------------------------------------------------

# group order and generator names of each symmetry group
_OMEGA = {"Z/2": (2, ("sigma",)), "Z/3": (3, ("rho",)),
          "S3": (6, ("rho", "sigma"))}

_FIBER_VARS = ("x", "y", "z")

_WEIGHTS = {
    "A3B2D4": {"x": 2, "y": 2, "z": 1, "t2": 2, "t4": 4,
               "X": 2, "W": 3, "Z": 2},
    "A5B3D5": {"x": 3, "y": 3, "z": 1, "t2": 2, "t4": 4, "t6": 6,
               "X": 3, "W": 4, "Z": 2},
    "D4C3D6": {"x": 2, "y": 2, "z": 3, "t2": 2, "t4": 4, "t6": 6,
               "X": 2, "Y": 4, "W": 5},
    "D4G2E6": {"x": 2, "y": 2, "z": 3, "t2": 2, "t6": 6,
               "X": 3, "Y": 4, "Z": 6},
    "D4G2E7": {"x": 2, "y": 2, "z": 3, "t2": 2, "t6": 6,
               "X": 4, "Y": 6, "Z": 9},
    "E6F4E7": {"x": 3, "y": 4, "z": 6, "t2": 2, "t6": 6, "t8": 8, "t12": 12,
               "X": 6, "Y": 4, "Z": 9},
}

_PARAMS = {
    "A3B2D4": (("t2", "t4"), ("t2", "0", "t4")),
    "A5B3D5": (("t2", "t4", "t6"), ("t2", "0", "t4", "0", "t6")),
    "D4C3D6": (("t2", "t4", "t6"), ("t2", "t4", "t6", "0")),
    "D4G2E6": (("t2", "t6"), ("t2", "0", "t6", "0")),
    "D4G2E7": (("t2", "t6"), ("t2", "0", "t6", "0")),
    "E6F4E7": (("t2", "t6", "t8", "t12"), ("t2", "0", "t6", "t8", "0", "t12")),
}

QUOT_VARS = {
    "A3B2D4": ("X", "W", "Z"), "A5B3D5": ("X", "W", "Z"),
    "D4C3D6": ("X", "Y", "W"), "D4G2E6": ("X", "Y", "Z"),
    "D4G2E7": ("X", "Y", "Z"), "E6F4E7": ("X", "Y", "Z"),
}

# the named polynomials of the strata; a pair is a named one under a
# substitution.  B3 and C3 share a Weyl group, so A5B3D5 and D4C3D6 share
# their discriminant: the zeros of c3 (H1, or L) and of h (H2, or H)
_NAMED = {
    "c3": "t6 + t2*t4/6 + t2^3/108",
    "h": ("-t2^6/432 + t2^4*t4/12 - t2^2*t4^2/4 - 9*t2*t4*t6 + 4*t4^3"
          " + 27*t6^2"),
    "H1": ("t2^12 - 144*t2^9*t6 + 576*t2^8*t8 + 5184*t2^6*t6^2"
           " - 13824*t2^5*t6*t8 - 138240*t2^4*t8^2 - 69120*t2^3*t6^3"
           " - 331776*t12*t2^3*t6 + 829440*t2^2*t6^2*t8"
           " + 3981312*t12*t2^2*t8 - 5308416*t2*t6*t8^2 - 248832*t6^4"
           " + 3981312*t12*t6^2 + 7077888*t8^3 - 15925248*t12^2"),
    "H2": ("H1", {"t6": "-t6", "t12": "-t12"}),     # F4's H2
    "pinch": "96*t2^2*t8 - t2^6 - 96*t6^2",
    "t8+": "192*t8 + t2^4 - 48*t2*t6",     # t8 = -t2^4/192 + t2*t6/4
    "t8-": "192*t8 + t2^4 + 48*t2*t6",     # t8 = -t2^4/192 - t2*t6/4
}

# each row's geometry by name: its equations and inequations, "; "-separated
# names in _NAMED or polynomial texts, and its sampler: a base point c in
# parameter order, sampled on its weighted orbit; a parameter, solved from
# the first equation over a sweep of the others; None, a sweep of every
# parameter; or an F4 function of the point helper and k
_GEOMETRY = {
    "t4=-t2^2/8": ("t4 + t2^2/8", "t2", "1, -1/8"),
    "t4=t2^2/8": ("t4 - t2^2/8", "t2", "1, 1/8"),
    "c3,t4=-t2^2/4": ("c3; t4 + t2^2/4", "t2", "1, -1/4, 7/216"),
    "c3,t4=0": ("c3; t4", "t2", "1, 0, -1/108"),
    "h,t4=t2^2/12": ("h; t4 - t2^2/12; t6 - t2^3/72", "t2", "1, 1/12, 1/72"),
    "c3": ("c3", "t4; t4 + t2^2/4", "t6"),
    "h": ("h", "c3; t4 - t2^2/12", "1, 0, 1/108"),
    "t6=t2^3/108": ("108*t6 - t2^3", "t2", "1, 1/108"),
    "t6=-t2^3/108": ("108*t6 + t2^3", "t2", "1, -1/108"),
    "D6": ("H1; pinch; t2^3 - 8*t6", "t2", "1, 1/8, 5/192, 1/256"),
    "D5+A1": ("H1; pinch; t2^3 + 8*t6", "t2", "1, -1/8, 5/192, -1/256"),
    "A5+A1": ("H1; H2; t8+", "t2; t2^3 - 8*t6", "1, 1/72, -1/576, -7/20736"),
    "A3+A2+A1": ("H1; H2; t8-", "t2; t2^3 + 8*t6",
                 "1, -1/72, -1/576, 7/20736"),
    "D4+A1": ("H1; pinch", "t2; t2^3 - 8*t6; t2^3 + 8*t6", _f4_d4a1),
    "H1&H2": ("H1; H2", "t2; t8+; t8-; pinch", _f4_h1h2),
    "A5": ("H1; t8+", "t2^3 - 8*t6; H2", _f4_a5),
    "H1": ("H1", "", _f4_h1),
    "A2+A1+A1+A1": ("H2; t8-", "t2; t2^3 + 8*t6", _f4_a2a1),
    "H2": ("H2", "t2", _f4_h2),
}

# per case, its rows finest first: (geometry, id, description,
# configuration, and where the covering fiber is catalogued its singular
# orbits as (type, orbit size) and smooth fixed count).  The origin is the
# zero orbit; the generic row is off the rows of one equation
_STRATA = {
    "A3B2D4": (
        ("origin", "origin", "t2 = t4 = 0", "D4", (("A3", 1),), 0),
        ("t4=-t2^2/8", "t4=-t2^2/8", "t4 = -t2^2/8, t2 != 0", "A3",
         (("A1", 1),), 0),
        ("t4=t2^2/8", "t4=t2^2/8", "t4 = t2^2/8, t2 != 0", "A1+A1+A1",
         (("A1", 2),), 2),
        ("generic", "generic", "off the discriminant", "A1+A1", (), 2),
    ),
    "A5B3D5": (
        ("origin", "origin", "t2 = t4 = t6 = 0", "D5", (("A5", 1),), 0),
        ("c3,t4=-t2^2/4", "H1,t4=-t2^2/4", "H1 with t4 = -t2^2/4 != 0", "D4",
         (("A3", 1),), 0),
        ("c3,t4=0", "H1,t4=0", "H1 with t4 = 0, t2 != 0", "A3+A1",
         (("A1", 1), ("A1", 2)), 0),
        ("h,t4=t2^2/12", "H2,t4=t2^2/12", "H2 with t4 = t2^2/12 != 0",
         "A2+A1+A1", (("A2", 2),), 2),
        ("c3", "H1", "H1, generic", "A3", (("A1", 1),), 0),
        ("h", "H2", "H2 away from H1, generic", "A1+A1+A1", (("A1", 2),), 2),
        ("generic", "generic", "off the discriminant", "A1+A1", (), 2),
    ),
    "D4C3D6": (
        ("origin", "origin", "t2 = t4 = t6 = 0", "D6", (("D4", 1),), 0),
        ("c3,t4=-t2^2/4", "L,t4=-t2^2/4", "L with t4 = -t2^2/4 != 0", "D4+A1",
         (("A3", 1),), 1),
        ("h,t4=t2^2/12", "H,t4=t2^2/12", "H with t4 = t2^2/12 != 0", "A5",
         (("A2", 1),), 0),
        ("c3,t4=0", "L&H", "L and H, t4 = 0, t2 != 0", "A3+A1+A1",
         (("A1", 2), ("A1", 1)), 1),
        ("c3", "L", "L, generic", "A1+A1+A1+A1", (("A1", 2),), 3),
        ("h", "H", "H away from L, generic", "A3+A1", (("A1", 1),), 1),
        ("generic", "generic", "off the discriminant", "A1+A1+A1", (), 3),
    ),
    "D4G2E6": (
        ("origin", "origin", "t2 = t6 = 0", "E6", (("D4", 1),), 0),
        ("t6=t2^3/108", "t6=t2^3/108", "t6 = t2^3/108 != 0", "A5",
         (("A1", 1),), 0),
        ("t6=-t2^3/108", "t6=-t2^3/108", "t6 = -t2^3/108 != 0", "A2+A2+A1",
         (("A1", 3),), 2),
        ("generic", "generic", "off the discriminant", "A2+A2", (), 2),
    ),
    "D4G2E7": (
        ("origin", "origin", "t2 = t6 = 0", "E7", (("D4", 1),), 0),
        ("t6=t2^3/108", "t6=t2^3/108", "t6 = t2^3/108 != 0", "D5+A1",
         (("A1", 1),), 0),
        ("t6=-t2^3/108", "t6=-t2^3/108", "t6 = -t2^3/108 != 0", "A3+A2+A1",
         (("A1", 3),), 0),
        ("generic", "generic", "off the discriminant", "A2+A1+A1+A1", (), 0),
    ),
    "E6F4E7": (
        ("origin", "origin", "t = 0", "E7"),
        ("D6", "D6", "H1, t8-pinch, t2^3 = 8 t6", "D6"),
        ("D5+A1", "D5+A1", "H1, t8-pinch, t2^3 = -8 t6", "D5+A1"),
        ("A5+A1", "A5+A1", "H1 & H2, t8 = -t2^4/192 + t2 t6/4", "A5+A1"),
        ("A3+A2+A1", "A3+A2+A1", "H1 & H2, t8 = -t2^4/192 - t2 t6/4",
         "A3+A2+A1"),
        # the t8-pinch component of H1 lies inside H1 & H2 as a set, so it
        # must precede the transverse H1 & H2 row
        ("D4+A1", "D4+A1", "H1, t8 = (t2^6 + 96 t6^2)/(96 t2^2)", "D4+A1"),
        ("H1&H2", "H1&H2", "H1 & H2, generic", "A3+A1+A1"),
        ("A5", "A5", "H1, t8 = -t2^4/192 + t2 t6/4", "A5"),
        ("H1", "H1", "H1, generic", "A3+A1"),
        ("A2+A1+A1+A1", "A2+A1+A1+A1", "H2, t8 = -t2^4/192 - t2 t6/4",
         "A2+A1+A1+A1"),
        ("H2", "H2", "H2, generic (t2 != 0)", "A1+A1+A1+A1"),
        ("generic", "generic", "off the discriminant", "A1+A1+A1"),
    ),
}


def _build_strata(case_id: str, params: Tuple[str, ...],
                  fiber: Polynomial) -> Tuple[Stratum, ...]:
    """The rows of a case from its table, each polynomial parsed once."""
    parsed: Dict[str, Polynomial] = {}

    def poly(name: str) -> Polynomial:
        if name not in parsed:
            text = _NAMED.get(name, name)
            parsed[name] = parse(text) if isinstance(text, str) else \
                poly(text[0]).subs({v: parse(e) for v, e in text[1].items()})
        return parsed[name]

    def polys(names: str) -> Tuple[Polynomial, ...]:
        return tuple(map(poly, names.split("; "))) if names else ()

    rows = _STRATA[case_id]
    zero = ", ".join("0" * len(params))
    geometry = {"origin": ("; ".join(params), "", zero), **_GEOMETRY}
    walls = (geometry[row[0]][0] for row in rows[:-1])
    geometry["generic"] = ("", "; ".join(w for w in walls if ";" not in w),
                           None)
    strata = []
    for name, sid, text, conf, *fiber_facts in rows:
        equations, inequations, spec = geometry[name]
        equations = polys(equations)
        if spec is None:
            sampler = functools.partial(_swept, params)
        elif callable(spec):
            sampler = functools.partial(spec, _f4_point(fiber))
        elif spec in params:
            sampler = functools.partial(
                _solved, params, spec, equations[0].coefficients_in(spec))
        else:
            sampler = functools.partial(_on_orbit, params, _WEIGHTS[case_id],
                                        tuple(map(Fraction, spec.split(","))))
        strata.append(Stratum(sid, text, equations, polys(inequations), conf,
                              *(fiber_facts or (None, None)), sampler,
                              max_samples=1 if sid == "origin" else None))
    return tuple(strata)


# ---------------------------------------------------------------------------
# catalogue files: the one copy of every per-case polynomial not bound to a
# sampler
# ---------------------------------------------------------------------------

CATALOGUE = importlib.resources.files(__package__) / "data"


class CatalogueError(ValueError):
    """A malformed catalogue file; each problem starts with its key."""

    def __init__(self, name: str, problems: List[str]):
        super().__init__(f"case catalogue {name}: " + "; ".join(problems))
        self.problems = problems


def read_catalogue(name: str, allowed: Dict[str, Set[str]],
                   optional: Tuple[str, ...] = (),
                   rule: Callable[[Dict[str, Optional[Polynomial]]],
                                  List[str]] = lambda entries: []
                   ) -> Dict[str, Polynomial]:
    """Parse and validate `data/<name>.txt`: key -> polynomial, in file order.

    Every non-comment line is `key = expr`, with a key of `allowed` whose
    expression uses only the variables allowed for that key.  Every key is
    required but those that start with a prefix in `optional`; `rule` lists
    the further problems of the keys given, an expression that does not
    parse mapping to None.  All problems are raised as one CatalogueError.
    """
    entries: Dict[str, Optional[Polynomial]] = {}
    problems = []
    text = (CATALOGUE / f"{name}.txt").read_text()
    for n, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, expr = (part.strip() for part in line.partition("="))
        if not (key and eq and expr):
            problems.append(f"line {n}: {line!r} is not 'key = expr'")
        elif key not in allowed:
            problems.append(f"{key}: unknown key")
        elif key in entries:
            problems.append(f"{key}: given twice")
        else:
            try:
                entries[key] = parse(expr)
            except (ValueError, ZeroDivisionError) as exc:
                entries[key] = None
                problems.append(f"{key}: {exc}")
                continue
            stray = set(entries[key].used_variables()) - allowed[key]
            if stray:
                problems.append(f"{key}: variables {sorted(stray)} "
                                "not allowed")
    problems += [f"{key}: missing" for key in allowed
                 if not key.startswith(optional) and key not in entries]
    problems += rule(entries)
    if problems:
        raise CatalogueError(name, problems)
    return entries


def _read_cover(case_id: str, params: Sequence[str], quot_vars: Sequence[str],
                generators: Sequence[str]) -> Dict[str, Polynomial]:
    """The entries of `data/<case>.txt`: `fiber`, `quotient`,
    `action.<gen>.<x|y|z>` for each generator, one of `chart.V` or
    `chart.V^2` for each quotient variable V, the fixed locus
    `fixed.<x|y|z>`, and optionally `fixed.square`, linear in the last
    parameter."""
    cover = {*_FIBER_VARS, *params}
    allowed = {"fiber": cover, "quotient": {*quot_vars, *params}}
    allowed.update((f"action.{g}.{v}", cover)
                   for g in generators for v in _FIBER_VARS)
    allowed.update((f"chart.{v}{sq}", cover)
                   for v in quot_vars for sq in ("", "^2"))
    allowed.update((f"fixed.{v}", {"s", *params})
                   for v in (*_FIBER_VARS, "square"))

    def rule(entries) -> List[str]:
        problems = []
        for v in quot_vars:
            given = [k for k in (f"chart.{v}", f"chart.{v}^2")
                     if k in entries]
            if len(given) != 1:
                problems.append(f"chart.{v}: " + (
                    "missing" if not given else "given both plain and squared"))
        square = entries.get("fixed.square")
        if square is not None and square.degree_in(params[-1]) != 1:
            problems.append(f"fixed.square: not linear in {params[-1]}")
        return problems

    return read_catalogue(case_id, allowed, ("chart.", "fixed.square"), rule)


def _build_case(case_id: str) -> CaseDescriptor:
    meta = case_meta(case_id)
    params, slots = _PARAMS[case_id]
    order, generators = _OMEGA[meta.omega]
    entries = _read_cover(case_id, params, QUOT_VARS[case_id], generators)
    gens = {g: {v: entries[f"action.{g}.{v}"] for v in _FIBER_VARS}
            for g in generators}
    emb = {k[len("chart."):]: p for k, p in entries.items()
           if k.startswith("chart.")}
    strata = _build_strata(case_id, params, entries["fiber"])
    for s in strata:
        if format_type(s.quotient_config.split("+")) != s.quotient_config:
            raise ValueError(f"{case_id}/{s.stratum_id}: configuration "
                             f"{s.quotient_config!r} is not a canonical type")
    return CaseDescriptor(
        case_id=case_id, meta=meta, params=params, param_slots=slots,
        weights=_WEIGHTS[case_id], fiber_vars=_FIBER_VARS,
        fiber=entries["fiber"], quotient_vars=QUOT_VARS[case_id],
        quotient=entries["quotient"], omega_gens=gens, omega_order=order,
        embedding=emb, strata=strata,
        fixed_locus={v: entries[f"fixed.{v}"] for v in _FIBER_VARS},
        fixed_square=entries.get("fixed.square"))


@functools.cache
def descriptor(case_id: str) -> CaseDescriptor:
    if case_id not in CASE_IDS:
        raise ValueError(f"unknown case {case_id!r}")
    return _build_case(case_id)


def all_descriptors() -> List[CaseDescriptor]:
    return [descriptor(cid) for cid in CASE_IDS]


def verify_catalogue() -> dict:
    """Build every case through its catalogue file; the problems of each
    case are listed by key (an empty list for a sound file)."""
    report = {"ok": True, "cases": {}}
    for cid in CASE_IDS:
        try:
            descriptor(cid)
            report["cases"][cid] = []
        except CatalogueError as exc:
            report["cases"][cid] = exc.problems
            report["ok"] = False
    return report


# ---------------------------------------------------------------------------
# equivariance
# ---------------------------------------------------------------------------

def verify_equivariance(case_id: str) -> dict:
    """Check F(g(x,y,z)) = +-F for each generator, plus the group relations."""
    case = descriptor(case_id)
    report = {"case": case_id, "generators": {}, "relations": {}, "ok": True}
    for name, g in case.omega_gens.items():
        transformed = case.fiber.subs(g)
        if transformed == case.fiber:
            report["generators"][name] = "+1"
        elif transformed == -case.fiber:
            report["generators"][name] = "-1"
        else:
            report["generators"][name] = "broken"
            report["ok"] = False
    fv = case.fiber_vars
    idmap = {v: Polynomial.var(v) for v in fv}
    relations = report["relations"]
    for name, g in case.omega_gens.items():
        n = 3 if name == "rho" else 2   # rho is a rotation, sigma a reflection
        power = idmap
        for _ in range(n):
            power = compose_subst(g, power, fv)
        relations[f"{name}^{n}"] = power == idmap
    if len(case.omega_gens) == 2:
        r, s = case.omega_gens["rho"], case.omega_gens["sigma"]
        relations["sigma*rho*sigma=rho^2"] = (
            compose_subst(s, compose_subst(r, s, fv), fv)
            == compose_subst(r, r, fv))
        # the full group must close with the right order
        case.group_elements()
    if not all(report["relations"].values()):
        report["ok"] = False
    return report


# ---------------------------------------------------------------------------
# strata: membership and sampling
# ---------------------------------------------------------------------------

def stratum_membership(case_id: str, t: Dict[str, Fraction]) -> Optional[str]:
    """Finest stratum containing the parameter point; None for a point that
    no row takes, the generic row included."""
    case = descriptor(case_id)
    vals = {p: Fraction(t[p]) for p in case.params}
    for s in case.strata:
        if all(eq.evaluate(vals) == 0 for eq in s.equations) and \
           all(iq.evaluate(vals) != 0 for iq in s.inequations):
            return s.stratum_id
    return None


SAMPLE_BUDGET = 4000      # the sampler indices that sample_stratum tries


def sample_stratum(case_id: str, stratum_id: str,
                   count: int) -> List[Dict[str, Fraction]]:
    """Distinct rational points on the stratum and on no finer one."""
    case = descriptor(case_id)
    strat = case.stratum(stratum_id)
    if strat.max_samples is not None:
        count = min(count, strat.max_samples)
    out: List[Dict[str, Fraction]] = []
    seen = set()
    for k in range(SAMPLE_BUDGET):
        if len(out) >= count:
            break
        t = strat.sampler(k)
        if t is None:
            continue
        key = tuple(t[p] for p in case.params)
        if key in seen:
            continue
        seen.add(key)
        if stratum_membership(case_id, t) != stratum_id:
            continue
        out.append(t)
    if len(out) < count:
        raise ValueError(
            f"{case_id}/{stratum_id}: found {len(out)} of {count} samples "
            f"in a budget of {SAMPLE_BUDGET} candidates")
    return out


def quotient_fiber(case_id: str, t: Dict[str, Fraction]) -> Polynomial:
    case = descriptor(case_id)
    return case.quotient.subs({p: Fraction(v) for p, v in t.items()})


def fiber_at(case_id: str, t: Dict[str, Fraction]) -> Polynomial:
    case = descriptor(case_id)
    return case.fiber.subs({p: Fraction(v) for p, v in t.items()})


def classify_quotient_fiber(case_id: str, t: Dict[str, Fraction]) -> FiberConfiguration:
    """The classified quotient fiber at t, computed once per process for each
    case and point; the configuration returned is shared, so it is read-only."""
    return _classified(case_id,
                       tuple(sorted((p, Fraction(v)) for p, v in t.items())))


@functools.cache
def _classified(case_id: str, point: Tuple) -> FiberConfiguration:
    return fiber_configuration(quotient_fiber(case_id, dict(point)))


# ---------------------------------------------------------------------------
# the fiber side: orbits and fixed points
# ---------------------------------------------------------------------------

def _instantiate(sub: Subst, t: Dict[str, Fraction], variables) -> Subst:
    vals = {p: Fraction(v) for p, v in t.items()}
    return {v: sub[v].subs(vals) for v in variables}


def _apply_map(sub: Subst, variables, coords) -> Tuple[Scalar, ...]:
    binding = dict(zip(variables, coords))
    return tuple(sub[v].evaluate(binding) for v in variables)


def fiber_orbit_configuration(case_id: str, t: Dict[str, Fraction]):
    """Classified singular points of the covering fiber with their orbit
    sizes under the symmetry group, plus the smooth fixed-point count."""
    case = descriptor(case_id)
    F = fiber_at(case_id, t)
    nontrivial = [_instantiate(sub, t, case.fiber_vars)
                  for sub in case.group_elements()[1:]]
    order = case.omega_order

    records = []
    for coords in singular_points(F):
        # the ring is a field, so a group element fixes all the conjugate
        # points of a record or none of them
        stab = 1 + sum(_apply_map(sub, case.fiber_vars, coords) == coords
                       for sub in nontrivial)
        if order % stab != 0:
            raise AssertionError("stabilizer order does not divide the group order")
        records.append((classify_point(F, coords), order // stab))

    # group points into orbits: #orbits with a given (type, orbit size)
    counts: Dict[Tuple[str, int], int] = {}
    for rec, orb in records:
        counts[(rec.ade_type, orb)] = counts.get((rec.ade_type, orb), 0) + rec.orbit_size
    orbits: Dict[Tuple[str, int], int] = {}
    for (typ, orb), npts in counts.items():
        if npts % orb != 0:
            raise AssertionError(f"{npts} points of type {typ} do not fill "
                                 f"orbits of size {orb}")
        orbits[(typ, orb)] = npts // orb

    smooth_fixed = _smooth_fixed_count(case, F, t, records)
    return orbits, smooth_fixed, records


def _smooth_fixed_count(case: CaseDescriptor, F: Polynomial,
                        t: Dict[str, Fraction], records) -> int:
    vals = {p: Fraction(v) for p, v in t.items()}
    locus = {v: case.fixed_locus[v].subs(vals) for v in case.fiber_vars}
    on_locus = F.subs(locus)
    curve = any("s" in p.used_variables() for p in locus.values())
    if curve and on_locus.is_zero():
        raise AssertionError("fixed locus lies inside the fiber")
    if on_locus.is_constant():     # a fixed point on the fiber, or none
        total = 1 if on_locus.is_zero() else 0
    else:
        g = gcd_univariate(on_locus, on_locus.diff(on_locus.used_variables()[0]))
        total = on_locus.total_degree() - g.total_degree()
    # subtract the singular points fixed by the whole group
    return total - sum(rec.orbit_size for rec, orb in records if orb == 1)


def check_stratum_point(case_id: str, stratum_id: str,
                        t: Dict[str, Fraction]) -> dict:
    """Classify the quotient fiber (and, where catalogued, the covering
    fiber with orbits) at one parameter point and compare with the stratum."""
    case = descriptor(case_id)
    strat = case.stratum(stratum_id)
    result = {"case": case_id, "stratum": stratum_id,
              "t": {k: str(v) for k, v in t.items()}, "ok": True}
    conf = classify_quotient_fiber(case_id, t)
    result["quotient_config"] = conf.type_string()
    result["quotient_expected"] = strat.quotient_config
    if conf.type_string() != strat.quotient_config:
        result["ok"] = False
    if strat.fiber_sing is not None:
        orbits, smooth_fixed, _ = fiber_orbit_configuration(case_id, t)
        expected: Dict[Tuple[str, int], int] = {}
        for typ, orb in strat.fiber_sing:
            expected[(typ, orb)] = expected.get((typ, orb), 0) + 1
        result["fiber_orbits"] = sorted(
            [f"{typ}(orbit {orb})x{n}" for (typ, orb), n in orbits.items()])
        result["fiber_fixed_smooth"] = smooth_fixed
        if orbits != expected or smooth_fixed != strat.fiber_fixed_smooth:
            result["ok"] = False
    return result


# ---------------------------------------------------------------------------
# fiber regularity spot check
# ---------------------------------------------------------------------------

def theorem_singular_spotcheck(case_id: str, count: int = 10,
                               seed: int = 0) -> dict:
    """Random rational parameter points: the quotient fiber is always
    singular; for the B-type cases the symmetric fixed point is verified
    on the covering fiber whenever its square is rational."""
    case = descriptor(case_id)
    rng = random.Random((seed, case_id).__repr__())
    report = {"case": case_id, "count": count, "ok": True, "failures": []}
    for i in range(count):
        t = {p: Fraction(rng.randint(-24, 24), rng.choice((1, 1, 2, 3)))
             for p in case.params}
        pts = singular_points(quotient_fiber(case_id, t))
        if not pts:
            report["ok"] = False
            report["failures"].append({k: str(v) for k, v in t.items()})
    if case.fixed_square is not None:
        for i in range(count):
            s = Fraction(rng.randint(1, 12), rng.choice((1, 2)))
            t = {p: Fraction(rng.randint(-12, 12)) for p in case.params}
            # adjust the last parameter so that the fixed point is rational:
            # the fixed square vanishes at (s, t)
            last = case.params[-1]
            t[last] = _root(case.fixed_square.coefficients_in(last),
                           {**t, "s": s})
            point = {v: p.evaluate({"s": s})     # the fixed locus at s
                     for v, p in case.fixed_locus.items()}
            val = fiber_at(case_id, t).evaluate(point)
            if val != 0:
                report["ok"] = False
                report["failures"].append(
                    {"fixed_point": str(s), **{k: str(v) for k, v in t.items()}})
        report["fixed_point_checked"] = count
    return report


# ---------------------------------------------------------------------------
# invariant-theoretic re-derivation of the quotient charts
# ---------------------------------------------------------------------------

def _qdeg(case: CaseDescriptor, p: Polynomial) -> int:
    """Quasi-degree of a quasi-homogeneous polynomial; -1 for the zero one."""
    w, names = case.weights, p.used_variables()
    degs = {sum(w[v] * k for v, k in zip(names, e)) for e in p.exponents(names)}
    if not degs:
        return -1
    if len(degs) > 1:
        raise ValueError(f"not quasi-homogeneous: {p}")
    return degs.pop()


class _Tables:
    """The tables of one derivation.  `admitted` maps the index of each
    admitted invariant to it; a generator-power product is keyed by its
    exponents over the admitted generators, as (index, exponent) pairs; a
    candidate vector by that key (None for the fiber) and a monomial.  One
    echelon is kept per quasi-degree, and it grows with the generators."""

    def __init__(self, case: CaseDescriptor):
        self.case = case
        self.names = tuple(case.fiber_vars) + tuple(case.params)
        self.weights = tuple(case.weights[v] for v in self.names)
        self.fdeg = _qdeg(case, case.fiber)
        self.admitted: Dict[int, Polynomial] = {}
        self.degrees: Dict[int, int] = {}       # of the admitted generators
        self.products: Dict = {(): Polynomial.constant(Fraction(1))}
        self.vectors: Dict = {}
        self.echelons: Dict[int, Tuple[Echelon, List]] = {}
        self.relations: Dict[int, Dict] = {}

    def product(self, gvec: Tuple) -> Polynomial:
        if gvec not in self.products:
            *rest, (i, k) = gvec
            prev = tuple(rest) + (((i, k - 1),) if k > 1 else ())
            self.products[gvec] = self.product(prev) * self.admitted[i]
        return self.products[gvec]

    def vector(self, gvec: Optional[Tuple], mono: Tuple[int, ...]) -> Dict:
        """Exponent vector of a product (the fiber if gvec is None) times
        mono, a monomial over the trailing names: the bare vector, shifted."""
        if (gvec, mono) not in self.vectors:
            if any(mono):
                shift = (0,) * (len(self.names) - len(mono)) + mono
                vec = {tuple(map(add, e, shift)): c for e, c in
                       self.vector(gvec, (0,) * len(mono)).items()}
            else:
                p = self.case.fiber if gvec is None else self.product(gvec)
                vec = p.exponents(self.names)
            self.vectors[gvec, mono] = vec
        return self.vectors[gvec, mono]

    def candidates(self, d: int):
        """Spanning set of the quasi-degree-d part of the algebra generated
        by the admitted generators over the parameters, plus that of the
        fiber ideal.

        Yields (vector, symbol): a generator monomial times a parameter
        monomial comes with its product key and parameter exponents; a
        fiber-ideal element (fiber times a monomial) comes with None.
        """
        gens = sorted(self.admitted)
        n = len(gens)
        weights = tuple(self.degrees[g] for g in gens) + self.weights[3:]
        for e in monomials(weights, d):
            gvec = tuple((g, k) for g, k in zip(gens, e) if k)
            yield self.vector(gvec, e[n:]), (gvec, e[n:])
        for mono in monomials(self.weights, d - self.fdeg):
            yield self.vector(None, mono), None

    def span(self, d: int) -> Tuple[Echelon, List]:
        """The echelon of the degree-d candidates, each added with its
        index, and their symbols; built on first use.  The first relation
        the candidates complete with a nonzero generator part is kept in
        ``relations[d]``."""
        if d not in self.echelons:
            ech, symbols = Echelon(), []
            for vec, s in self.candidates(d):
                rel = ech.add(vec, len(symbols))
                symbols.append(s)
                if rel and d not in self.relations and any(
                        symbols[j] is not None for j in rel):
                    self.relations[d] = rel
            self.echelons[d] = ech, symbols
        return self.echelons[d]

    def admit(self, i: int, v: Polynomial) -> None:
        """Admit invariant i, v: its one candidate of its own degree, v
        itself, joins that degree's echelon; those of higher degrees are
        built later, with v in."""
        d = _qdeg(self.case, v)
        ech, symbols = self.span(d)
        self.admitted[i], self.degrees[i] = v, d
        key = (((i, 1),), (0,) * len(self.case.params))
        ech.add(self.vector(*key), len(symbols))
        symbols.append(key)


def _algebra_certificate(tables: _Tables,
                         target: Polynomial) -> Optional[Polynomial]:
    """Expression of target in the admitted generators (modulo the fiber
    ideal), as a polynomial in the abstract symbols g1, g2, ... with
    parameter coefficients; None if target is not in their algebra."""
    d = _qdeg(tables.case, target)
    if d < 0:
        return Polynomial.zero()
    ech, symbols = tables.span(d)
    sol = ech.solve(target.exponents(tables.names))
    return None if sol is None else _symbolic(tables, symbols, sol)


def _symbolic(tables: _Tables, symbols: List[Optional[tuple]],
              coeffs: Dict[int, Fraction]) -> Polynomial:
    """The generator-monomial part of a column combination, in the symbols
    g1..gn (the admitted generators in invariant order) and the
    parameters."""
    gens = sorted(tables.admitted)
    names = [f"g{k + 1}" for k in range(len(gens))] + list(tables.case.params)
    return Polynomial(names, {
        tuple(dict(symbols[j][0]).get(g, 0) for g in gens) + symbols[j][1]: c
        for j, c in coeffs.items() if symbols[j] is not None})


@functools.cache
def _image(case_id: str, k: int, mono: Tuple[int, ...]) -> Polynomial:
    """The image of a fiber monomial under the case's k-th group element:
    the image of mono / x_i times that of x_i, x_i its first variable."""
    if not any(mono):
        return Polynomial.constant(Fraction(1))
    i = next(j for j, e in enumerate(mono) if e)
    rest = mono[:i] + (mono[i] - 1,) + mono[i + 1:]
    return _image(case_id, k, rest) * _group(case_id)[k][_FIBER_VARS[i]]


def reynolds_average(case: CaseDescriptor, p: Polynomial) -> Polynomial:
    """The average of p, a polynomial in the fiber variables, over the
    symmetry group, each term's images read from the image tables."""
    n, acc = case.omega_order, Polynomial.zero()
    for mono, c in p.exponents(case.fiber_vars).items():
        images = (_image(case.case_id, k, mono) for k in range(n))
        acc = acc + sum(images, Polynomial.zero()) * (c / n)
    return acc


def derive_quotient_chart(case_id: str) -> dict:
    """Re-derive the quotient chart by Reynolds averaging.

    Averages all coordinate monomials of degree at most 6 over the group G:
    |G| is 2, 2, 2, 3, 6 and 2, so 6 is Noether's bound and the averages
    generate the invariants over the parameters.  They are admitted in
    order of quasi-degree, each one not in the algebra of those before it
    (modulo the fiber ideal) as a generator; the parameters have positive
    weight, so the admitted set is minimal (graded Nakayama), and each
    invariant left out is certified in the algebra of a subset of it.
    Reports the generators in invariant order, derives the unique
    quasi-homogeneous relation among them, and checks that the catalogued
    chart generates the same algebra and satisfies the catalogued quotient
    equation modulo the fiber ideal.

    The linear algebra is exact and sparse: one `exact.Echelon` per
    quasi-degree, built on first use from the shared tables of monomials
    (`poly.monomials`), generator-power products and vectors; a generator
    joins the echelon of its own degree, and the chart certificates are
    read from the same echelons.
    """
    case = descriptor(case_id)
    fv = case.fiber_vars
    averages = (reynolds_average(case, Polynomial(fv, {m: Fraction(1)}))
                for d in range(1, 7) for m in monomials((1, 1, 1), d))
    invariants = list(dict.fromkeys(   # distinct, in order of first monomial
        a for a in averages if set(a.used_variables()) & set(fv)))
    tables = _Tables(case)
    for i in sorted(range(len(invariants)),
                    key=lambda i: _qdeg(case, invariants[i])):
        if _algebra_certificate(tables, invariants[i]) is None:
            tables.admit(i, invariants[i])
    gens = sorted(tables.admitted)
    report = {"case": case_id, "ok": True,
              "generators": [repr(tables.admitted[g]) for g in gens]}
    if len(gens) != 3:
        report["ok"] = False
        report["error"] = f"{len(gens)} generators, expected a triple"
        return report
    # every averaged invariant was admitted, or certified by the loop above
    report["invariants_generated"] = True
    # the unique relation among the generators
    rel = _derive_relation(tables)
    report["relation"] = repr(rel) if rel is not None else None
    report["relation_found"] = rel is not None
    # certificates: the catalogued chart inside the derived algebra
    certs = {key: _algebra_certificate(tables, p)
             for key, p in case.embedding.items()}
    emb_ok = None not in certs.values()
    report["chart_in_derived_algebra"] = emb_ok
    # the catalogued equation, rewritten through the certificates, must be
    # an exact scalar multiple of the derived relation
    match = None
    if emb_ok and rel is not None:
        match = _match_relation(case, certs, rel)
    report["relation_scalar"] = str(match) if match is not None else None
    report["relation_matches_quotient"] = match is not None
    # ... and the chart satisfies the quotient equation modulo the fiber ideal
    report["quotient_identity"] = _quotient_identity_holds(case)
    report["ok"] = all((rel is not None, emb_ok, match is not None,
                        report["quotient_identity"]))
    return report


def _chart_substitute(q: Polynomial,
                      chart: Dict[str, Polynomial]) -> Optional[Polynomial]:
    """Substitute a chart into q.  A key "V^2" replaces V^(2k) by the k-th
    power of its image (None if q has an odd power of V); the plain keys
    then replace their variables."""
    plain = {}
    for key, image in chart.items():
        if not key.endswith("^2"):
            plain[key] = image
            continue
        cs = q.coefficients_in(key[:-2])
        if any(i % 2 == 1 and not c.is_zero() for i, c in enumerate(cs)):
            return None
        acc = Polynomial.zero()
        for i, c in enumerate(cs):
            if not c.is_zero():
                acc = acc + c * image ** (i // 2)
        q = acc
    return q.subs(plain)


def _match_relation(case: CaseDescriptor, certs: Dict[str, Polynomial],
                    rel: Polynomial) -> Optional[Fraction]:
    """Substitute the chart certificates into the catalogued quotient
    equation; the result must equal lambda * (derived relation) exactly.

    Certificates are only unique modulo the relation ideal; if a particular
    choice telescopes the equation to zero, the squared-generator
    certificate is shifted by the relation itself to expose the scalar.
    """
    if rel.is_zero():
        return None
    names = rel.used_variables()
    terms = rel.exponents(names)
    lead = max(terms, key=lambda e: (sum(e), e))
    for shift in (False, True):
        q = _chart_substitute(case.quotient, {
            k: v + rel if shift and k.endswith("^2") else v
            for k, v in certs.items()})
        if q is None:
            return None
        if q.is_zero():
            continue
        if set(q.used_variables()) - set(names):
            return None
        c = q.exponents(names).get(lead)
        if c is None:
            return None
        lam = c * (1 / terms[lead])
        return lam if rel * lam == q else None
    return None


def _derive_relation(tables: _Tables):
    """The quasi-homogeneous relation among the generator triple: the first
    relation among the candidates of the quotient equation's quasi-degree
    with a nonzero generator part, kept when that degree's echelon was built.

    Each quotient variable occurs to a power of at least 2 in some term of
    the quotient equation, so every generator has a lower quasi-degree than
    the relation.  Admission runs in quasi-degree order, so that echelon is
    built after the last generator is admitted, from all the candidates."""
    target = _qdeg(tables.case, tables.case.quotient)
    _, symbols = tables.span(target)
    kernel = tables.relations.get(target)
    return None if kernel is None else _symbolic(tables, symbols, kernel)


def _quotient_identity_holds(case: CaseDescriptor) -> bool:
    """The catalogued quotient equation vanishes on the catalogued chart
    modulo the fiber ideal (exact divisibility by the fiber equation)."""
    q = _chart_substitute(case.quotient, case.embedding)
    if q is None:
        return False
    try:
        div_exact(q, case.fiber)
        return True
    except ValueError:
        return False
