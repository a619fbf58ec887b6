"""ADE root systems in the coordinate conventions of the six quotient cases.

D-types and E7 live in an orthonormal epsilon-basis (E7 inside the ξ7+ξ8=0
hyperplane of C^8); E6 is carried in fundamental-coweight pairing: roots are
stored by their simple-root coordinates and evaluate on a Cartan point by a
plain dot product.  Numbering follows Bourbaki throughout.  A root system
is built once, on first use, together with its integer root tables.  The
reflection table is filled on packed keys: each root's simple-root
coefficients (|c_i| <= 4 here) packed into one int, a signed 8-bit field
per coordinate, so s_b(a) = a - <a, b^v> b, integral on these coordinates
(Bourbaki, VI §1.1), is one int operation and one dict lookup.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from .exact import clear_denominators

Vector = Tuple[Fraction, ...]

CASE_IDS = ("A3B2D4", "A5B3D5", "D4C3D6", "D4G2E6", "D4G2E7", "E6F4E7")

# the quotient types X of the six cases: the types build_root_system builds
ROOT_TYPES = ("D4", "D5", "D6", "E6", "E7")

_FIELD = 8   # bits per simple-root coefficient in a packed root key (signed)


def _vec(xs) -> Vector:
    return tuple(Fraction(x) for x in xs)


def vneg(a: Vector) -> Vector:
    return tuple(-x for x in a)


def closure(seeds: Iterable, step: Callable[..., Iterable]) -> list:
    """Everything reachable from ``seeds``, where ``step`` gives the images
    of one element, in order of discovery: the seeds, then layer by layer."""
    found = dict.fromkeys(seeds)
    frontier = list(found)
    while frontier:
        new = dict.fromkeys(y for x in frontier for y in step(x)
                            if y not in found)
        found.update(new)
        frontier = list(new)
    return list(found)


def positive_root_count(label: str) -> int:
    """Number of positive roots of the simply-laced type ``label``."""
    n = int(label[1:])
    if label[0] == "A":
        return n * (n + 1) // 2
    if label[0] == "D":
        return n * (n - 1)
    return {"E6": 36, "E7": 63}[label]


def basic_invariants(label: str) -> Tuple[str, ...]:
    """Names of the basic invariants of the Weyl group of ``label``: p<d> for
    each degree d, and pf for the degree-n Pfaffian of D_n, last (Humphreys,
    Reflection Groups and Coxeter Groups, §3.7)."""
    if label[0] == "D":
        n = int(label[1:])
        return tuple(f"p{d}" for d in range(2, 2 * n - 1, 2)) + ("pf",)
    degrees = {"E6": (2, 5, 6, 8, 9, 12), "E7": (2, 6, 8, 10, 12, 14, 18)}
    return tuple(f"p{d}" for d in degrees[label])


@dataclass(frozen=True)
class RootSystem:
    """A simply-laced root system with its case coordinate convention.

    Root i < npos is ``positive_roots[i]`` and i + npos its negative, as
    listed in ``by_index``; ``ambient`` is each root times the common
    denominator, so a root pairs with a Cartan point in integers.
    """

    label: str
    dim: int
    simple_roots: Tuple[Vector, ...]
    positive_roots: Tuple[Vector, ...]
    roots: frozenset
    expansions: Dict[Vector, Tuple[int, ...]]   # root -> simple-root coefficients
    hyperplanes: Tuple[Vector, ...]             # equations of Cartan points
    by_index: Tuple[Vector, ...]
    index: Dict[Vector, int]
    npos: int
    ambient: Tuple[Tuple[int, ...], ...]
    pair: Tuple[Tuple[int, ...], ...]   # pair[i][j] = (root i, root j)
    refl: Tuple[Tuple[int, ...], ...]   # refl[i][j] = index of s_j(root i)


def _inner(form, a: Vector, b: Vector) -> Fraction:
    return sum((ai * sum((row[j] * bj for j, bj in enumerate(b) if bj), Fraction(0))
                for ai, row in zip(a, form) if ai), Fraction(0))


def _identity_form(dim: int):
    return tuple(tuple(Fraction(1 if i == j else 0) for j in range(dim))
                 for i in range(dim))


def _bourbaki_edges(label: str) -> List[Tuple[int, int]]:
    """1-based Dynkin diagram edges in Bourbaki numbering."""
    rank = int(label[1:])
    if label.startswith("D"):
        return [(i, i + 1) for i in range(1, rank - 1)] + [(rank - 2, rank)]
    if label == "E6":
        return [(1, 3), (3, 4), (4, 5), (5, 6), (2, 4)]
    if label == "E7":
        return [(1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (2, 4)]
    raise ValueError(f"unsupported type {label!r}")


def expected_cartan(label: str) -> List[List[int]]:
    rank = int(label[1:])
    cartan = [[2 * (i == j) for j in range(rank)] for i in range(rank)]
    for i, j in _bourbaki_edges(label):
        cartan[i - 1][j - 1] = cartan[j - 1][i - 1] = -1
    return cartan


def _simple_roots(label: str) -> Tuple[Tuple[Vector, ...], int, Tuple, Tuple]:
    """Simple roots, ambient dimension, the bilinear form of the rep, and
    the hyperplanes that hold the Cartan points."""
    if label.startswith("D"):
        r = int(label[1:])
        simples = [_vec([(j == i) - (j == i + 1) for j in range(r)])
                   for i in range(r - 1)]
        simples.append(_vec([int(j >= r - 2) for j in range(r)]))
        return tuple(simples), r, _identity_form(r), ()
    if label == "E7":
        half = Fraction(1, 2)
        a1 = (half, -half, -half, -half, -half, -half, -half, half)
        a2 = _vec((1, 1, 0, 0, 0, 0, 0, 0))
        a3 = _vec((-1, 1, 0, 0, 0, 0, 0, 0))
        a4 = _vec((0, -1, 1, 0, 0, 0, 0, 0))
        a5 = _vec((0, 0, -1, 1, 0, 0, 0, 0))
        a6 = _vec((0, 0, 0, -1, 1, 0, 0, 0))
        a7 = _vec((0, 0, 0, 0, -1, 1, 0, 0))
        x7_plus_x8 = _vec((0, 0, 0, 0, 0, 0, 1, 1))
        return (a1, a2, a3, a4, a5, a6, a7), 8, _identity_form(8), (x7_plus_x8,)
    if label == "E6":
        # fundamental-coweight pairing: a root is its simple-root coefficient
        # vector and the form is the Cartan matrix
        simples = tuple(_vec([1 if j == i else 0 for j in range(6)])
                        for i in range(6))
        form = tuple(tuple(Fraction(c) for c in row)
                     for row in expected_cartan("E6"))
        return simples, 6, form, ()
    raise ValueError(f"unsupported type {label!r}")


@functools.cache
def build_root_system(label: str) -> RootSystem:
    """The root system of type ``label``, built once: the simple-root
    coordinates closed under s_i(c) = c - <c, a_i> e_i with the Cartan
    matrix (Bourbaki, Lie Groups and Lie Algebras, VI §1), each root's
    vector sum c_i a_i, and the integer tables by root index."""
    if label not in ROOT_TYPES:
        raise ValueError(f"unsupported type {label!r}")
    simples, dim, form, hyperplanes = _simple_roots(label)
    rank = len(simples)
    cartan = expected_cartan(label)
    if [[_inner(form, a, b) for b in simples] for a in simples] != cartan:
        raise AssertionError(f"{label}: Cartan matrix mismatch")
    cols = list(zip(*cartan))

    def reflections(c):
        pairings = (sum(map(mul, c, col)) for col in cols)
        return [c[:i] + (c[i] - k,) + c[i + 1:] for i, k in enumerate(pairings)]

    coeffs = closure((tuple(int(i == j) for j in range(rank))
                      for i in range(rank)), reflections)
    count = 2 * positive_root_count(label)
    if len(coeffs) != count:
        raise AssertionError(
            f"{label}: generated {len(coeffs)} roots, expected {count}")

    den = math.lcm(*(x.denominator for a in simples for x in a))
    scaled = list(zip(*([int(x * den) for x in a] for a in simples)))
    amb = {c: tuple(sum(map(mul, c, row)) for row in scaled)
           for c in coeffs}
    # integer ambient vectors sort as the roots do
    positive = sorted((c for c in coeffs if min(c) >= 0),
                      key=lambda c: (sum(c), amb[c]))
    if 2 * len(positive) != len(coeffs):
        raise AssertionError("positive roots are not half of all roots")

    order = positive + [vneg(c) for c in positive]
    rows = [[sum(map(mul, c, col)) for col in cols] for c in order]
    pair = [[sum(map(mul, row, c)) for c in order] for row in rows]
    # packing is linear, so s_j(root i) = root i - pair[i][j] root j is one
    # int operation on the keys; injective on the roots, it finds the index
    keys = [sum(x << _FIELD * k for k, x in enumerate(c)) for c in order]
    at = {p: i for i, p in enumerate(keys)}
    if len(at) != len(order):
        raise AssertionError(f"{label}: packed root keys collide")
    refl = [[at[pi - p * pj] for pj, p in zip(keys, prow)]
            for pi, prow in zip(keys, pair)]
    ambient = tuple(amb[c] for c in order)
    by_index = tuple(tuple(Fraction(x, den) for x in a) for a in ambient)
    npos = len(positive)
    return RootSystem(label, dim, simples, by_index[:npos], frozenset(by_index),
                      dict(zip(by_index, order)), hyperplanes, by_index,
                      {r: i for i, r in enumerate(by_index)}, npos, ambient,
                      tuple(map(tuple, pair)), tuple(map(tuple, refl)))


def cartan_point(rs: RootSystem, coords: Sequence) -> Vector:
    """Validate and normalize a Cartan point for the case convention."""
    h = _vec(coords)
    if len(h) != rs.dim:
        raise ValueError(f"expected {rs.dim} coordinates")
    if any(sum(a * b for a, b in zip(row, h)) for row in rs.hyperplanes):
        raise ValueError(f"Cartan point off a hyperplane of the {rs.label} "
                         "convention")
    return h


def vanishing_set(rs: RootSystem, h: Sequence) -> frozenset:
    """All roots vanishing on h: a reflection-closed sub-root system."""
    hv = cartan_point(rs, h)
    hi, _ = clear_denominators(hv)
    return frozenset(r for r, a in zip(rs.by_index, rs.ambient)
                     if not sum(x * y for x, y in zip(a, hi)))


def root_from_coefficients(rs: RootSystem, coeffs: Sequence[int]) -> Vector:
    """The root with the given simple-root coefficients."""
    for v, c in rs.expansions.items():
        if c == tuple(coeffs):
            return v
    raise ValueError(f"coefficients {tuple(coeffs)} do not give a root")


@dataclass(frozen=True)
class CaseMeta:
    """Group data and root-system data of one quotient case."""

    case_id: str
    gamma: str            # finite subgroup of SU(2): C = cyclic, D = binary
    gamma_prime: str      # dihedral, T/O = binary tetra/octahedral
    omega: str            # Z/2, Z/3 or S3
    inhomogeneous_type: str
    quotient_type: str
    rank: int
    theta: Tuple[int, ...]  # 1-based Bourbaki indices of the pinned simple roots


_CASE_META = {
    "A3B2D4": CaseMeta("A3B2D4", "C4", "D2", "Z/2", "B2", "D4", 2, (3, 4)),
    "A5B3D5": CaseMeta("A5B3D5", "C6", "D3", "Z/2", "B3", "D5", 3, (4, 5)),
    "D4C3D6": CaseMeta("D4C3D6", "D2", "D4", "Z/2", "C3", "D6", 3, (1, 3, 5)),
    "D4G2E6": CaseMeta("D4G2E6", "D2", "T", "Z/3", "G2", "E6", 2, (1, 3, 5, 6)),
    "D4G2E7": CaseMeta("D4G2E7", "D2", "O", "S3", "G2", "E7", 2, (1, 2, 3, 5, 7)),
    "E6F4E7": CaseMeta("E6F4E7", "T", "O", "Z/2", "F4", "E7", 4, (2, 5, 7)),
}


def case_meta(case_id: str) -> CaseMeta:
    try:
        return _CASE_META[case_id]
    except KeyError:
        raise ValueError(f"unknown case {case_id!r}") from None


def theta_roots(case_id: str) -> Tuple[Vector, ...]:
    meta = case_meta(case_id)
    rs = build_root_system(meta.quotient_type)
    return tuple(rs.simple_roots[i - 1] for i in meta.theta)


def to_json(rs: RootSystem) -> dict:
    def ser(v: Vector):
        return [str(c) for c in v]
    return {
        "type": rs.label,
        "dimension": rs.dim,
        "simple_roots": [ser(v) for v in rs.simple_roots],
        "positive_roots": [ser(v) for v in rs.positive_roots],
        "roots": [ser(v) for v in sorted(rs.roots)],
    }
