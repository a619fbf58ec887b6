"""ADE root systems in the coordinate conventions of the six quotient cases.

D-types and E7 live in an orthonormal epsilon-basis (E7 inside the ξ7+ξ8=0
hyperplane of C^8); E6 is carried in fundamental-coweight pairing: roots are
stored by their simple-root coordinates and evaluate on a Cartan point by a
plain dot product.  Numbering follows Bourbaki throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

Vector = Tuple[Fraction, ...]

CASE_IDS = ("A3B2D4", "A5B3D5", "D4C3D6", "D4G2E6", "D4G2E7", "E6F4E7")


def _vec(xs) -> Vector:
    return tuple(Fraction(x) for x in xs)


def vadd(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b))


def vsub(a: Vector, b: Vector) -> Vector:
    return tuple(x - y for x, y in zip(a, b))


def vneg(a: Vector) -> Vector:
    return tuple(-x for x in a)


def vscale(a: Vector, c: Fraction) -> Vector:
    return tuple(c * x for x in a)


@dataclass(frozen=True)
class RootSystem:
    """A simply-laced root system with its case coordinate convention."""

    label: str
    dim: int
    simple_roots: Tuple[Vector, ...]
    positive_roots: Tuple[Vector, ...]
    roots: frozenset
    form: Tuple[Tuple[Fraction, ...], ...]      # bilinear form on root coords
    expansions: Dict[Vector, Tuple[int, ...]]   # root -> simple-root coefficients

    @property
    def rank(self) -> int:
        return len(self.simple_roots)

    def inner(self, a: Vector, b: Vector) -> Fraction:
        return _inner(self.form, a, b)

    def cartan_matrix(self) -> List[List[int]]:
        n = self.rank
        return [[int(self.inner(self.simple_roots[i], self.simple_roots[j]))
                 for j in range(n)] for i in range(n)]


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
        edges = [(i, i + 1) for i in range(1, rank - 1)]
        edges.append((rank - 2, rank))
        return edges
    if label == "E6":
        return [(1, 3), (3, 4), (4, 5), (5, 6), (2, 4)]
    if label == "E7":
        return [(1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (2, 4)]
    raise ValueError(f"unsupported type {label!r}")


def expected_cartan(label: str) -> List[List[int]]:
    rank = int(label[1:])
    edges = set()
    for i, j in _bourbaki_edges(label):
        edges.add((i, j))
        edges.add((j, i))
    return [[2 if i == j else (-1 if (i + 1, j + 1) in edges else 0)
             for j in range(rank)] for i in range(rank)]


def _simple_roots(label: str) -> Tuple[Tuple[Vector, ...], int, Tuple]:
    """Simple roots, ambient dimension, and the bilinear form of the rep."""
    if label.startswith("D"):
        r = int(label[1:])
        if r < 3:
            raise ValueError("D-type needs rank >= 3")
        simples = []
        for i in range(r - 1):
            v = [0] * r
            v[i], v[i + 1] = 1, -1
            simples.append(_vec(v))
        v = [0] * r
        v[r - 2], v[r - 1] = 1, 1
        simples.append(_vec(v))
        return tuple(simples), r, _identity_form(r)
    if label == "E7":
        half = Fraction(1, 2)
        a1 = (half, -half, -half, -half, -half, -half, -half, half)
        a2 = _vec((1, 1, 0, 0, 0, 0, 0, 0))
        a3 = _vec((-1, 1, 0, 0, 0, 0, 0, 0))
        a4 = _vec((0, -1, 1, 0, 0, 0, 0, 0))
        a5 = _vec((0, 0, -1, 1, 0, 0, 0, 0))
        a6 = _vec((0, 0, 0, -1, 1, 0, 0, 0))
        a7 = _vec((0, 0, 0, 0, -1, 1, 0, 0))
        return (a1, a2, a3, a4, a5, a6, a7), 8, _identity_form(8)
    if label == "E6":
        # fundamental-coweight pairing: a root is its simple-root coefficient
        # vector and the form is the Cartan matrix
        simples = tuple(_vec([1 if j == i else 0 for j in range(6)])
                        for i in range(6))
        form = tuple(tuple(Fraction(c) for c in row)
                     for row in expected_cartan("E6"))
        return simples, 6, form
    raise ValueError(f"unsupported type {label!r}")


_ROOT_COUNTS = {"D4": 24, "D5": 40, "D6": 60, "E6": 72, "E7": 126}

_cache: Dict[str, RootSystem] = {}


def build_root_system(label: str) -> RootSystem:
    """Construct the full root system by closing the simple roots under
    the simple reflections, carrying each root's simple-root coordinates."""
    if label in _cache:
        return _cache[label]
    if label not in _ROOT_COUNTS:
        raise ValueError(f"unsupported type {label!r}")
    simples, dim, form = _simple_roots(label)
    rank = len(simples)
    cartan = expected_cartan(label)
    if [[_inner(form, a, b) for b in simples] for a in simples] != cartan:
        raise AssertionError(f"{label}: Cartan matrix mismatch")
    expansions = {a: tuple(int(i == j) for j in range(rank))
                  for i, a in enumerate(simples)}
    frontier = list(simples)
    while frontier:
        nxt = []
        for beta in frontier:
            c = expansions[beta]
            for i, alpha in enumerate(simples):
                k = sum(cj * cartan[j][i] for j, cj in enumerate(c))
                r = vsub(beta, vscale(alpha, k))
                if r not in expansions:
                    expansions[r] = c[:i] + (c[i] - k,) + c[i + 1:]
                    nxt.append(r)
        frontier = nxt
    if len(expansions) != _ROOT_COUNTS[label]:
        raise AssertionError(
            f"{label}: generated {len(expansions)} roots, expected {_ROOT_COUNTS[label]}")

    positive = tuple(sorted(
        (rt for rt, c in expansions.items() if min(c) >= 0),
        key=lambda v: (sum(expansions[v]), v)))
    if 2 * len(positive) != len(expansions):
        raise AssertionError("positive roots are not half of all roots")

    rs = RootSystem(label, dim, simples, positive, frozenset(expansions), form,
                    expansions)
    _cache[label] = rs
    return rs


@dataclass(frozen=True)
class RootKernel:
    """Integer tables of a root system, by root index.

    Index i < npos is ``positive_roots[i]`` and i + npos is its negative.
    ``ambient`` holds each root times ``den``, the least common denominator
    of the coordinates, so a root pairs with a Cartan point in integers.
    """

    roots: Tuple[Vector, ...]
    index: Dict[Vector, int]
    npos: int
    ambient: Tuple[Tuple[int, ...], ...]
    pair: Tuple[Tuple[int, ...], ...]   # pair[i][j] = (root i, root j)
    refl: Tuple[Tuple[int, ...], ...]   # refl[i][j] = index of s_j(root i)


_kernels: Dict[str, RootKernel] = {}


def root_kernel(rs: RootSystem) -> RootKernel:
    """The integer tables of ``rs``, built on first use."""
    if rs.label not in _kernels:
        roots = rs.positive_roots + tuple(vneg(r) for r in rs.positive_roots)
        coeffs = [rs.expansions[r] for r in roots]
        cartan = expected_cartan(rs.label)
        rows = [[sum(ci * ca for ci, ca in zip(c, col)) for col in zip(*cartan)]
                for c in coeffs]
        pair = [[sum(x * y for x, y in zip(row, c)) for c in coeffs]
                for row in rows]
        at = {c: i for i, c in enumerate(coeffs)}
        refl = [[at[tuple(x - p * y for x, y in zip(ci, cj))]
                 for cj, p in zip(coeffs, prow)]
                for ci, prow in zip(coeffs, pair)]
        den = math.lcm(*(x.denominator for r in roots for x in r))
        _kernels[rs.label] = RootKernel(
            roots, {r: i for i, r in enumerate(roots)}, len(rs.positive_roots),
            tuple(tuple(int(x * den) for x in r) for r in roots),
            tuple(map(tuple, pair)), tuple(map(tuple, refl)))
    return _kernels[rs.label]


def reflect(rs: RootSystem, beta: Vector, alpha: Vector) -> Vector:
    """Reflection of beta in the hyperplane of alpha; both must be roots."""
    if beta not in rs.roots or alpha not in rs.roots:
        raise ValueError("reflect needs members of the root system")
    out = vsub(beta, vscale(alpha, rs.inner(beta, alpha)))
    if out not in rs.roots:
        raise AssertionError("reflection left the root system")
    return out


def cartan_point(rs: RootSystem, coords: Sequence) -> Vector:
    """Validate and normalize a Cartan point for the case convention."""
    h = _vec(coords)
    if rs.label == "E7":
        if len(h) == 7:
            h = h + (-h[6],)
        if len(h) != 8 or h[6] + h[7] != 0:
            raise ValueError("E7 Cartan points satisfy x7 + x8 = 0")
        return h
    if len(h) != rs.dim:
        raise ValueError(f"expected {rs.dim} coordinates")
    return h


def vanishing_set(rs: RootSystem, h: Sequence) -> frozenset:
    """All roots vanishing on h: a reflection-closed sub-root system."""
    hv = cartan_point(rs, h)
    den = math.lcm(*(x.denominator for x in hv))
    hi = [int(x * den) for x in hv]
    k = root_kernel(rs)
    return frozenset(r for r, a in zip(k.roots, k.ambient)
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
