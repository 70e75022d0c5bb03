"""Hypothesis strategies: small O-sequences, O-sequence families below a prefix, monomial ideals.

Also monomials_of_degree, a brute-force enumerator that shares no code with
the package's own, and walk_state, the scan walk's state of one function.
"""

from functools import cache
from itertools import product

from hypothesis import strategies as st

from multbound import Monomial, MonomialIdeal


@cache
def monomials_of_degree(d, n):
    """All degree-d monomials in n variables, descending lex: exponent tuples sorted descending."""
    exps = sorted((e for e in product(range(d + 1), repeat=n) if sum(e) == d), reverse=True)
    return tuple(Monomial(e) for e in exps)
from multbound.hilbert import _growth_bound
from multbound.verdict import _greedy_step


def walk_state(n, vals):
    """verdict._greedy_step's step for vals, stepped down from the root along vals's prefixes.

    That is (outgoing blocks, extension maxima, greedy max shifts, largest next value).
    """
    step, _ = _greedy_step(n)
    zero = (0,) * n
    node = ((1,), (zero,) * (n - 1), zero)
    for v in vals[1:]:
        blocks, maxima, _, _ = step(*node)
        node = (node[0] + (v,), blocks, maxima)
    return step(*node)


@st.composite
def families(draw, depths, max_prefix=5):
    """(n, socle_max, prefix) with n a key of depths and socle_max at most depths[n] past the prefix."""
    n = draw(st.sampled_from(sorted(depths)))
    prefix = [1]
    for d in range(1, draw(st.integers(1, max_prefix))):
        prefix.append(draw(st.integers(1, _growth_bound(n, d, prefix[-1]))))
    socle_max = len(prefix) - 1 + draw(st.integers(0, depths[n]))
    return n, socle_max, tuple(prefix)


@st.composite
def families_around(draw, hfs):
    """(n, socle_max, prefix) whose family holds a drawn (n, vals) of hfs, below a prefix of vals."""
    n, vals = draw(st.sampled_from(hfs))
    prefix = vals[:draw(st.integers(len(vals) - 1, len(vals)))]
    return n, len(vals) - 1 + draw(st.integers(0, 1)), prefix


@st.composite
def o_sequences(draw, ns, max_socle):
    """(n, vals) with n drawn from ns and vals an O-sequence in n variables of socle <= max_socle.

    Each value is drawn up to its growth bound; vals may end in zeros.
    """
    n = draw(st.sampled_from(ns))
    vals = [1]
    for d in range(1, draw(st.integers(1, max_socle + 1))):
        vals.append(draw(st.integers(0, _growth_bound(n, d, vals[-1]))))
    return n, tuple(vals)


@st.composite
def monomial_ideals(draw):
    """Up to five nonconstant generators, and with them x_k^a_k for every k half of the time."""
    n = draw(st.integers(1, 4))
    gens = draw(st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any), max_size=5))
    if draw(st.booleans()):
        for k, a in enumerate(draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))):
            gens.append([a if j == k else 0 for j in range(n)])
    return MonomialIdeal(n, gens)
