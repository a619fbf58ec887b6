"""Vanishing-set sub-root systems containing a pinned set of simple roots.

A subsystem here is the full set of roots vanishing on some Cartan point
whose vanishing set contains the pinned roots; enumeration walks the lattice
of subspaces spanned by roots, and every subsystem carries an explicit
rational witness point that realizes it maximally (no other root vanishes):
the first integer point of a growing box that avoids every hyperplane of the
restricted arrangement, one root of each cover of the flat standing for all
the roots that span that cover.  A counting bound guarantees the point by
radius N//2 + 1 for N covers (restricted hyperplanes).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Dict, FrozenSet, List, Sequence, Tuple

from .exact import clear_denominators
from .rootsys import (RootSystem, Vector, build_root_system, case_meta, closure,
                      positive_root_count, root_from_coefficients, theta_roots)

TypeMultiset = Tuple[str, ...]


def canonical_type(labels: Sequence[str]) -> TypeMultiset:
    """Multiset of simple type labels, largest rank first."""
    def key(lab: str):
        return (-int(lab[1:]), lab[0])
    return tuple(sorted(labels, key=key))


def format_type(labels: Sequence[str]) -> str:
    return "+".join(canonical_type(labels))


def parse_type(text: str) -> TypeMultiset:
    return canonical_type(text.split("+"))


@dataclass(frozen=True)
class SubRootSystem:
    """A vanishing-set subsystem of the root system of type ``ambient``,
    held by the indices of its roots there (``members``: the positive
    roots ascending, then their negatives)."""

    ambient: str
    members: Tuple[int, ...]
    witness: Vector
    type_label: TypeMultiset
    simple_system: Tuple[Vector, ...]

    def type_string(self) -> str:
        return format_type(self.type_label)


# ---------------------------------------------------------------------------
# classification of a reflection-closed root set, on root indices
# ---------------------------------------------------------------------------

def _component_label(adj: Dict[int, List[int]], comp: List[int]) -> str:
    n = len(comp)
    if sum(len(adj[a]) for a in comp) != 2 * (n - 1):
        raise ValueError("simple system is not a tree: not simply-laced ADE")
    if any(len(adj[a]) > 3 for a in comp):
        raise ValueError("diagram has a node of degree > 3")
    branch_nodes = [a for a in comp if len(adj[a]) == 3]
    if not branch_nodes:
        return f"A{n}"
    if len(branch_nodes) > 1:
        raise ValueError("diagram has two branch nodes")
    b = branch_nodes[0]
    lengths = []
    for start in adj[b]:
        ln = 1
        prev, cur = b, start
        while len(adj[cur]) == 2:
            prev, cur = cur, next(x for x in adj[cur] if x != prev)
            ln += 1
        lengths.append(ln)
    lengths.sort()
    if lengths[:2] == [1, 1]:
        return f"D{n}"
    if lengths == [1, 2, 2]:
        return "E6"
    if lengths == [1, 2, 3]:
        return "E7"
    raise ValueError(f"diagram shape {lengths} matches no ADE type")


def classify_subsystem(rs: RootSystem, roots: FrozenSet[Vector]) -> Tuple[TypeMultiset, Tuple[Vector, ...]]:
    """ADE type multiset of a reflection-closed root set, plus its simple system."""
    return _classify(rs, {rs.index[r] for r in roots})


def _classify(rs: RootSystem, members) -> Tuple[TypeMultiset, Tuple[Vector, ...]]:
    """`classify_subsystem` of the roots with the given indices.  The simple
    system is the indecomposable positive roots, sorted: in a simply-laced
    system a - b is a root exactly when (a, b) = 1, and then it is s_b(a)."""
    pos = [i for i in members if i < rs.npos]
    inside = set(pos)
    # integer ambient vectors sort as the roots do
    simple = sorted((a for a in pos if not any(
        rs.pair[a][b] == 1 and rs.refl[a][b] in inside for b in pos)),
        key=rs.ambient.__getitem__)
    adj = {a: [b for b in simple if b != a and rs.pair[a][b]] for a in simple}
    # connected components of the Dynkin graph
    labels, left = [], simple
    while left:
        comp = left[:1]
        for c in comp:
            comp.extend(b for b in adj[c] if b not in comp)
        left = [a for a in left if a not in comp]
        labels.append(_component_label(adj, comp))
    if 2 * sum(positive_root_count(lab) for lab in labels) != len(members):
        raise ValueError("root count disagrees with the identified type")
    return canonical_type(labels), tuple(rs.by_index[a] for a in simple)


def reflection_closure(rs: RootSystem, gens: Sequence[Vector]) -> FrozenSet[Vector]:
    """Smallest reflection-closed root set containing the generators: their
    orbit under the group W' their reflections generate (Dyer, J. Algebra
    1990), as the reflection in w(b) is w s_b w^-1 and -b = s_b(b)."""
    for g in gens:
        if g not in rs.roots:
            raise ValueError(f"{g} is not a root")
    gi = [rs.index[g] for g in gens]
    orbit = closure(gi, lambda i: [rs.refl[i][j] for j in gi])
    return frozenset(rs.by_index[i] for i in orbit)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def _extend(basis: List[List[int]], k: int) -> List[List[int]]:
    """The basis of the points of a flat on which row k vanishes too.

    A flat's points are held by the ``exact.nullspace`` basis, each vector
    cleared of denominators: per free coordinate c, in order, the vector
    that is 0 at the other free coordinates, so c is its last nonzero one.
    A vector is its values on the rows, then its coordinates.  Row k makes
    the first vector V_c0 with a value a_c0 != 0 dependent; it is dropped,
    and each other V_c with a_c != 0 becomes a_c0 V_c - a_c V_c0 over its
    gcd times the sign of a_c0 (Bareiss, Math. Comp. 1968): the primitive
    positive multiple of V_c - (a_c/a_c0) V_c0, which is again 0 at the
    other free coordinates.  So the basis depends only on the flat."""
    piv = next(v for v in basis if v[k])
    sign = 1 if piv[k] > 0 else -1
    out = []
    for v in basis:
        if v is not piv:
            if v[k]:
                v = [piv[k] * a - v[k] * b for a, b in zip(v, piv)]
                g = sign * math.gcd(*v)
                v = [a // g for a in v]
            out.append(v)
    return out


def _vanishing(basis: List[List[int]], npos: int) -> int:
    """Mask of the positive roots (the first ``npos`` rows) zero on the flat."""
    mask = (1 << npos) - 1
    for v in basis:
        mask &= sum(1 << i for i, x in enumerate(v[:npos]) if not x)
    return mask


def enumerate_subsystems(rs: RootSystem, theta: Sequence[Vector]) -> List[SubRootSystem]:
    """All vanishing-set subsystems containing theta, with rational witnesses.

    Walks the flats (root-spanned subspaces) containing theta upward, one
    root at a time, keyed by the mask of their positive roots.  Each flat
    carries the `_extend` basis of its points, with their values on the
    positive roots and the hyperplane rows, from the identity basis on; the
    hyperplanes and theta go in by the same step as every later root.  The
    roots of a flat form a subsystem, with a witness on which exactly they
    vanish.
    """
    for t in theta:
        if t not in rs.roots:
            raise ValueError("theta must consist of roots")
    npos = rs.npos
    rows = [*rs.ambient[:npos],
            *(clear_denominators(h)[0] for h in rs.hyperplanes)]
    basis = [[*col, *(int(i == c) for i in range(rs.dim))]
             for c, col in enumerate(zip(*rows))]
    for k in [*range(npos, len(rows)), *(rs.index[t] % npos for t in theta)]:
        if any(v[k] for v in basis):
            basis = _extend(basis, k)
    mask = _vanishing(basis, npos)
    flats = {mask: basis}
    covers = {}  # per flat, the first positive root of each of its covers
    frontier = [(basis, mask)]
    while frontier:
        nxt = []
        for basis, covered in frontier:
            reps = covers[covered] = []
            for r in range(npos):
                if not covered >> r & 1:
                    reps.append(r)
                    new = _extend(basis, r)
                    mask = _vanishing(new, npos)
                    covered |= mask
                    if mask not in flats:
                        flats[mask] = new
                        nxt.append((new, mask))
        frontier = nxt

    out = []
    for mask, basis in flats.items():
        w = _find_witness(rs, basis, covers[mask])
        if len(w) != rs.dim or any(
                sum(map(mul, row, w)) for row in rs.hyperplanes):
            raise AssertionError(f"witness is not a Cartan point of {rs.label}")
        if sum(1 << i for i, a in enumerate(rs.ambient[:npos])
               if not sum(map(mul, a, w))) != mask:
            raise AssertionError("witness does not realize its subsystem maximally")
        members = tuple(i + s for s in (0, npos) for i in range(npos)
                        if mask >> i & 1)
        label, simple = _classify(rs, members)
        # integer ambient vectors sort as the roots do: as sorted(roots)
        key = (len(simple), label, sorted(rs.ambient[i] for i in members))
        out.append((key, SubRootSystem(rs.label, members,
                                       tuple(map(Fraction, w)), label, simple)))
    out.sort(key=lambda e: e[0])
    return [s for _, s in out]


def _point(rs: RootSystem, basis, combo: Sequence[int]) -> Tuple[int, ...]:
    return tuple(sum(c * b[i] for c, b in zip(combo, basis))
                 for i in range(rs.dim))


def _find_witness(rs: RootSystem, basis: Sequence[Sequence[int]],
                  reps: Sequence[int]) -> Tuple[int, ...]:
    """An integer Cartan point on which exactly the roots of a flat vanish:
    the first combination of its `_extend` basis that `_first_avoiding`
    finds for the rows of ``reps``, one root of each cover of the flat.
    Two roots outside the flat pair to proportional rows exactly when they
    span the same cover, so these rows ban the points that all do."""
    points = [v[-rs.dim:] for v in basis]
    pairs = [[v[r] for v in basis] for r in reps]
    return _point(rs, points, _first_avoiding(pairs, len(basis)))


def _first_avoiding(pairs: List[List[int]], k: int) -> Tuple[int, ...]:
    """The first c in Z^k on which no row of ``pairs`` vanishes: () if
    k = 0, else radius r = 1, 2, ... in turn, and within a radius the
    vectors of max-norm r in ``itertools.product`` order.

    A nonzero row vanishes on at most (2r+1)^(k-1) points of the box of
    radius r, so the N rows leave a point of it once 2r + 1 > N: the
    search ends by r = N//2 + 1, N being the number of covers (restricted
    hyperplanes) when the rows are a flat's cover rows.  A zero row raises
    ValueError.  Scaling, repeating or reordering the rows changes nothing:
    a row bans the last coordinate -s/last, or ends the prefix when s = 0.

    A prefix c_1 .. c_(k-1) fixes, for each row, the one last coordinate on
    which it vanishes (none, or all of them, if the row ends in 0); the
    prefix takes the first last coordinate, in order, that no row bans:
    any in -r .. r once the prefix reaches radius r, else -r or r.
    """
    if not k:
        return ()
    if not all(map(any, pairs)):
        raise ValueError("a zero row vanishes on every point")
    rows = [(row[:-1], row[-1]) for row in pairs]
    for radius in range(1, len(pairs) // 2 + 2):
        span = range(-radius, radius + 1)
        for prefix in itertools.product(span, repeat=k - 1):
            banned = set()
            for head, last in rows:
                s = sum(c * p for c, p in zip(prefix, head))
                if last:
                    q, rem = divmod(-s, last)
                    if not rem:
                        banned.add(q)
                elif not s:
                    break
            else:
                edge = max(map(abs, prefix), default=0) == radius
                for c in span if edge else (-radius, radius):
                    if c not in banned:
                        return prefix + (c,)
    raise AssertionError("the counting bound left no point")


# ---------------------------------------------------------------------------
# catalogued realizations (generating sets, by simple-root coefficients)
# ---------------------------------------------------------------------------

def _e(n: int, i: int) -> Tuple[int, ...]:
    return tuple(1 if j == i - 1 else 0 for j in range(n))


def _realization_table() -> Dict[str, List[Tuple[str, List[Tuple[Tuple[int, ...], ...]]]]]:
    e4 = lambda i: _e(4, i)
    e5 = lambda i: _e(5, i)
    e6 = lambda i: _e(6, i)
    e7 = lambda i: _e(7, i)
    d4 = [
        ("A1+A1", [(e4(3), e4(4))]),
        ("A1+A1+A1", [(e4(1), e4(3), e4(4)),
                      ((1, 2, 1, 1), e4(3), e4(4))]),
        ("A3", [(e4(2), e4(3), e4(4)),
                ((1, 1, 0, 0), e4(3), e4(4))]),
        ("D4", [(e4(1), e4(2), e4(3), e4(4))]),
    ]
    th5 = (e5(4), e5(5))
    d5 = [
        ("A1+A1", [th5]),
        ("A1+A1+A1", [
            (e5(1),) + th5,
            (e5(2),) + th5,
            ((1, 1, 0, 0, 0),) + th5,
            ((1, 2, 2, 1, 1),) + th5,
            ((1, 1, 2, 1, 1),) + th5,
            ((0, 1, 2, 1, 1),) + th5,
        ]),
        ("A3", [
            (e5(3),) + th5,
            ((0, 1, 1, 0, 0),) + th5,
            ((1, 1, 1, 0, 0),) + th5,
        ]),
        ("A2+A1+A1", [
            (e5(1), e5(2)) + th5,
            (e5(1), (0, 1, 2, 1, 1)) + th5,
            (e5(2), (1, 1, 2, 1, 1)) + th5,
            ((1, 1, 0, 0, 0), (0, 1, 2, 1, 1)) + th5,
        ]),
        ("A3+A1", [
            (e5(1), e5(3)) + th5,
            ((1, 1, 0, 0, 0), (0, 1, 1, 0, 0)) + th5,
            ((1, 2, 2, 1, 1), e5(3)) + th5,
            ((1, 1, 2, 1, 1), (0, 1, 1, 0, 0)) + th5,
            ((1, 1, 1, 0, 0), e5(2)) + th5,
            ((1, 1, 1, 0, 0), (0, 1, 2, 1, 1)) + th5,
        ]),
        ("D4", [
            (e5(2), e5(3)) + th5,
            ((1, 1, 0, 0, 0), e5(3)) + th5,
            (e5(1), (0, 1, 1, 0, 0)) + th5,
        ]),
        ("D5", [(e5(1), e5(2), e5(3), e5(4), e5(5))]),
    ]
    th6 = (e6(1), e6(3), e6(5))
    d6 = [
        ("A1+A1+A1", [th6]),
        ("A1+A1+A1+A1", [
            th6 + (e6(6),),
            th6 + ((1, 2, 2, 2, 1, 1),),
            th6 + ((0, 0, 1, 2, 1, 1),),
        ]),
        ("A3+A1", [
            th6 + (e6(2),),
            th6 + (e6(4),),
            th6 + ((0, 1, 1, 1, 0, 0),),
            th6 + ((0, 1, 1, 1, 0, 1),),
            th6 + ((0, 0, 0, 1, 0, 1),),
            th6 + ((0, 1, 1, 2, 1, 1),),
        ]),
        ("A3+A1+A1", [
            th6 + (e6(2), e6(6)),
            th6 + (e6(4), (1, 2, 2, 2, 1, 1)),
            th6 + ((0, 1, 1, 1, 0, 0), (0, 0, 1, 2, 1, 1)),
            th6 + ((0, 1, 1, 1, 0, 1), (0, 0, 1, 2, 1, 1)),
            th6 + ((0, 0, 0, 1, 0, 1), (1, 2, 2, 2, 1, 1)),
            th6 + ((0, 1, 1, 2, 1, 1), e6(6)),
        ]),
        ("D4+A1", [
            th6 + (e6(2), (0, 0, 1, 2, 1, 1)),
            th6 + (e6(4), e6(6)),
            th6 + ((0, 1, 1, 1, 0, 0), e6(6)),
        ]),
        ("A5", [
            th6 + (e6(2), e6(4)),
            th6 + ((0, 1, 1, 1, 0, 1), e6(4)),
            th6 + (e6(2), (0, 0, 0, 1, 0, 1)),
            th6 + ((0, 0, 0, 1, 0, 1), (0, 1, 1, 1, 0, 0)),
        ]),
        ("D6", [tuple(e6(i) for i in range(1, 7))]),
    ]
    thE6 = (e6(1), e6(3), e6(5), e6(6))
    e6tab = [
        ("A2+A2", [thE6]),
        ("A2+A2+A1", [
            thE6 + (e6(2),),
            thE6 + ((1, 1, 2, 3, 2, 1),),
            thE6 + ((1, 2, 2, 3, 2, 1),),
        ]),
        ("A5", [
            thE6 + (e6(4),),
            thE6 + ((0, 1, 0, 1, 0, 0),),
            thE6 + ((0, 1, 1, 2, 1, 0),),
        ]),
        ("E6", [tuple(e6(i) for i in range(1, 7))]),
    ]
    thE7 = (e7(1), e7(2), e7(3), e7(5), e7(7))
    e7tab = [
        ("A2+A1+A1+A1", [thE7]),
        ("A3+A2+A1", [
            thE7 + (e7(6),),
            thE7 + ((1, 1, 2, 3, 2, 2, 1),),
        ]),
        ("D5+A1", [
            thE7 + (e7(4),),
            thE7 + ((0, 0, 0, 1, 1, 1, 0),),
            thE7 + ((0, 1, 1, 2, 1, 1, 0),),
        ]),
        ("E7", [tuple(e7(i) for i in range(1, 8))]),
    ]
    return {"A3B2D4": d4, "A5B3D5": d5, "D4C3D6": d6,
            "D4G2E6": e6tab, "D4G2E7": e7tab, "E6F4E7": []}


REALIZATIONS = _realization_table()

# total number of vanishing-set subsystems containing theta, per case
EXPECTED_SUBSYSTEM_COUNTS = {
    "A3B2D4": 6, "A5B3D5": 24, "D4C3D6": 24,
    "D4G2E6": 8, "D4G2E7": 8, "E6F4E7": 268,
}


@dataclass
class MatchReport:
    case_id: str
    ok: bool
    enumerated: List[SubRootSystem]
    counts: Dict[str, int]
    matches: List[dict]
    errors: List[str]

    def to_json(self) -> dict:
        return {
            "case": self.case_id,
            "ok": self.ok,
            "subsystem_count": len(self.enumerated),
            "counts_by_type": dict(sorted(self.counts.items())),
            "matches": self.matches,
            "errors": self.errors,
        }


@functools.cache
def subsystems_for_case(case_id: str) -> List[SubRootSystem]:
    rs = build_root_system(case_meta(case_id).quotient_type)
    return enumerate_subsystems(rs, theta_roots(case_id))


def match_realizations(case_id: str) -> MatchReport:
    """Close each catalogued generating set and locate it in the enumeration.

    For E6F4E7 no generating sets are catalogued; its enumeration is
    checked against the expected total only.
    """
    meta = case_meta(case_id)
    rs = build_root_system(meta.quotient_type)
    subs = subsystems_for_case(case_id)
    counts: Dict[str, int] = {}
    for s in subs:
        counts[s.type_string()] = counts.get(s.type_string(), 0) + 1
    matches = []
    errors = []
    used = set()
    for type_str, gen_sets in REALIZATIONS[case_id]:
        for gens in gen_sets:
            closed = {rs.index[r] for r in reflection_closure(
                rs, [root_from_coefficients(rs, g) for g in gens])}
            hits = [i for i, s in enumerate(subs) if set(s.members) == closed]
            entry = {"type": type_str, "generators": [list(g) for g in gens]}
            if len(hits) != 1:
                errors.append(f"{type_str} realization {gens} matched {len(hits)} subsystems")
                entry["match"] = None
            else:
                i = hits[0]
                if i in used:
                    errors.append(f"duplicate match for {gens}")
                used.add(i)
                entry["match"] = i
                if subs[i].type_string() != format_type(parse_type(type_str)):
                    errors.append(
                        f"type mismatch: catalogued {type_str}, enumerated {subs[i].type_string()}")
            matches.append(entry)
    expected = EXPECTED_SUBSYSTEM_COUNTS[case_id]
    if len(subs) != expected:
        errors.append(f"enumerated {len(subs)} subsystems, expected {expected}")
    return MatchReport(case_id, not errors, subs, counts, matches, errors)
