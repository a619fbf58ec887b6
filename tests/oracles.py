"""Independent oracles for the classifier, computed with sympy alone.

`tjurina_dimension(p, names)` is dim_Q Q[names]/(p, dp/dn for each name),
from the standard monomials of a grevlex Groebner basis (Cox-Little-O'Shea,
Ideals, Varieties, and Algorithms, ch. 5 §3).  For a surface p = 0 with
finitely many singular points it is the sum of their Tjurina numbers over
the algebraic closure; at a quasi-homogeneous point, an ADE point among
them, the Tjurina number is the Milnor number (K. Saito, Invent. Math. 14,
1971), the rank of its type.

Callers skip without sympy: ``pytest.importorskip("sympy")`` before the
import of this module.
"""

import itertools

import sympy
from sympy.polys.orderings import grevlex


def to_sympy(p, names):
    """The polynomial p over the given names as a sympy expression."""
    symbols = sympy.symbols(names)
    return sympy.Add(*(sympy.Rational(c.numerator, c.denominator)
                       * sympy.Mul(*(s ** k for s, k in zip(symbols, e)))
                       for e, c in p.exponents(names).items()))


def tjurina_dimension(p, names) -> int:
    """dim_Q Q[names]/(p, its partial derivatives); ValueError where the
    quotient is infinite, a non-isolated singular locus."""
    symbols = sympy.symbols(names)
    f = to_sympy(p, names)
    basis = sympy.groebner([f, *(f.diff(s) for s in symbols)], *symbols,
                           order="grevlex", domain="QQ")
    leads = [max(g.monoms(), key=grevlex) for g in basis.polys]
    # the quotient is finite iff every variable has a pure power among the
    # leading monomials; its exponent bounds the standard monomials
    bounds = []
    for i in range(len(names)):
        pure = [m[i] for m in leads
                if all(k == 0 for j, k in enumerate(m) if j != i)]
        if not pure:
            raise ValueError(f"infinite quotient: no pure power of {names[i]}")
        bounds.append(min(pure))
    return sum(1 for e in itertools.product(*map(range, bounds))
               if not any(all(a >= b for a, b in zip(e, m)) for m in leads))


def rank_sum(configuration: str) -> int:
    """The sum of the ranks of an ADE configuration such as "A3+A1+A1"."""
    return sum(int(label[1:]) for label in configuration.split("+"))
