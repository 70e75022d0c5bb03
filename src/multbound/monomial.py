"""Monomial ideals: lex ideals for a Hilbert function, truncation, stability."""

from __future__ import annotations

import re
from functools import cache
from itertools import accumulate, combinations_with_replacement, groupby, islice
from math import comb, inf
from operator import le, mul

from .errors import IdealParseError, NeedsCapError, NotAdmissibleError, _check_int, _check_ints, _check_vars
from .hilbert import HilbertFunction, _growth_bound, _value_type, _values

__all__ = [
    "Monomial",
    "MonomialIdeal",
    "lex_ideal",
    "lex_generator_profile",
    "lex_columns",
    "truncate",
    "quotient_hilbert_function",
    "is_stable",
    "parse_monomial",
    "parse_ideal",
]

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


@_value_type
class Monomial:
    """Monomial in n variables, stored as an exponent tuple."""

    exponents: tuple

    def __init__(self, exponents):
        exps = _check_ints("exponent", exponents)
        if any(e < 0 for e in exps):
            raise ValueError(f"negative exponent in {exps}")
        object.__setattr__(self, "exponents", exps)

    @property
    def n(self):
        return len(self.exponents)

    @property
    def degree(self):
        return sum(self.exponents)

    @property
    def max_var(self):
        """One-based index of the last variable dividing this monomial, 0 for 1."""
        mv = len(self.exponents)
        while mv > 0 and self.exponents[mv - 1] == 0:
            mv -= 1
        return mv

    def divides(self, other):
        if len(self.exponents) != len(other.exponents):
            raise ValueError("monomials live in different variable counts")
        return all(a <= b for a, b in zip(self.exponents, other.exponents))

    def __mul__(self, other):
        if len(self.exponents) != len(other.exponents):
            raise ValueError("monomials live in different variable counts")
        return Monomial(tuple(a + b for a, b in zip(self.exponents, other.exponents)))

    def __repr__(self):
        return f"Monomial({self.exponents})"

    def __str__(self):
        if all(e == 0 for e in self.exponents):
            return "1"
        if len(self.exponents) > len(_LETTERS):
            return "(" + ",".join(str(e) for e in self.exponents) + ")"
        parts = []
        for i, e in enumerate(self.exponents):
            if e == 1:
                parts.append(_LETTERS[i])
            elif e > 1:
                parts.append(f"{_LETTERS[i]}^{e}")
        return "*".join(parts)


def _exponents_of_degree(d, n):
    """Yield degree-d exponent tuples in n variables in descending lex order."""
    for idx in combinations_with_replacement(range(n), d):
        yield tuple(map(idx.count, range(n)))


def _minimalize(monomials):
    """Minimal generating set: drop duplicates and multiples of other generators.

    Only a kept generator of lower degree can divide a monomial: a distinct
    one of equal degree never does, so each degree is tested against the
    exponents kept below it.
    """
    unique = sorted(set(monomials), key=lambda m: (m.degree,) + tuple(-e for e in m.exponents))
    kept = []
    lower = []
    for _, same_degree in groupby(unique, key=lambda m: m.degree):
        new = [m for m in same_degree if not any(all(map(le, g, m.exponents)) for g in lower)]
        kept += new
        lower += [m.exponents for m in new]
    return kept


@_value_type
class MonomialIdeal:
    """Monomial ideal given by minimal generators, canonically ordered.

    Generators are minimalized on construction and sorted by ascending degree,
    descending lex within a degree.
    """

    n: int
    generators: tuple

    def __init__(self, n, generators):
        _check_vars(n)
        gens = []
        for g in generators:
            m = g if isinstance(g, Monomial) else Monomial(g)
            if m.n != n:
                raise ValueError(f"generator {m} has {m.n} variables, expected {n}")
            gens.append(m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "generators", tuple(_minimalize(gens)))

    def __repr__(self):
        return f"MonomialIdeal(n={self.n}, generators={list(map(str, self.generators))})"

    def __str__(self):
        return "; ".join(str(g) for g in self.generators)

    def __len__(self):
        return len(self.generators)

    def contains(self, monomial):
        """Membership test: some generator divides the monomial."""
        m = monomial if isinstance(monomial, Monomial) else Monomial(monomial)
        return any(g.divides(m) for g in self.generators)

    def is_artinian(self):
        """True iff the quotient has finite length.

        That is, every variable appears in some pure-power generator, or the
        ideal is the unit ideal, whose quotient is zero.
        """
        powered = set()
        for g in self.generators:
            nz = [i for i, e in enumerate(g.exponents) if e > 0]
            if not nz:
                return True
            if len(nz) == 1:
                powered.add(nz[0])
        return len(powered) == self.n

    @property
    def max_gen_degree(self):
        return max((g.degree for g in self.generators), default=0)


def _lex_degrees(H, n):
    """(d, H(d-1), H(d)) for d = 1..socle+1 of H with trailing zeros dropped.

    These triples, with n, are the keys of the per-degree lex helpers, which
    check each H(d) against its growth bound. Raises ValueError unless n is
    an int (not a bool) of at least 1, and NotAdmissibleError when H does
    not start with 1.
    """
    _check_vars(n)
    hvals = _values(H)
    while hvals and hvals[-1] == 0:
        hvals = hvals[:-1]
    if not hvals or hvals[0] != 1:
        raise NotAdmissibleError(f"Hilbert function must start with 1, got {hvals}")
    padded = hvals + (0,)
    return zip(range(1, len(padded)), padded, padded[1:])


def _lex_segment(n, d, prev_h, h):
    """(shadow_count, segment_count) of the degree-d lex segment in n variables.

    segment_count is how many lex-first degree-d monomials lie in the ideal
    and shadow_count how many are forced by the H(d-1) = prev_h standard
    monomials of degree d-1, so the minimal generators of degree d are the
    ranks shadow_count..segment_count-1. By Macaulay's theorem the lex
    segment's shadow leaves exactly the growth bound outside it. Raises
    NotAdmissibleError when H(d) = h is negative or above that bound. Callers
    go through degrees in order, so prev_h has already passed degree d-1.
    """
    bound = _growth_bound(n, d, prev_h)
    if not 0 <= h <= bound:
        raise NotAdmissibleError(
            f"H({d}) = {h} is outside 0..{bound}, the range allowed after H({d - 1}) = {prev_h}"
        )
    total = comb(n - 1 + d, d)
    return total - bound, total - h


def _lex_generators(n, d, prev_h, h):
    """The lex ideal's degree-d minimal generators x_{i1}...x_{id} as index tuples i1 <= ... <= id.

    combinations_with_replacement lists all degree-d monomials this way, in descending lex order.
    """
    return islice(combinations_with_replacement(range(n), d), *_lex_segment(n, d, prev_h, h))


def lex_ideal(H, n):
    """Lex ideal attaining the Hilbert function H in n variables.

    Raises NotAdmissibleError when no such ideal exists.
    """
    gens = [Monomial(tuple(map(g.count, range(n)))) for key in _lex_degrees(H, n) for g in _lex_generators(n, *key)]
    ideal = MonomialIdeal(n, gens)
    assert len(ideal.generators) == len(gens)
    return ideal


def lex_generator_profile(H, n):
    """Degrees and last variables of the lex ideal's minimal generators.

    Returns a tuple of (degree, max_var) pairs in generator order. This is all
    the resolution of a lex ideal depends on; lex_columns turns it into Betti
    columns without listing generators. No scan calls it; it stays because
    perfbench's scan-n3 replay imports it as its lex layer, until that replay
    moves to the scan walk (ROADMAP item 5).
    """
    return tuple((d, g[-1] + 1) for d, *key in _lex_degrees(H, n) for g in _lex_generators(n, d, *key))


@cache
def _lex_column_block(n, d, prev_h, h):
    """(beta_{1,d}, beta_{2,d+1}, ..., beta_{n,d+n-1}) of the degree-d lex generators.

    A generator whose largest variable is m, its last index + 1, contributes
    C(m-1, i-1) to beta_{i,d+i-1} (the Eliahou-Kervaire formula).
    """
    last = [g[-1] for g in _lex_generators(n, d, prev_h, h)]
    return tuple(sum(comb(j, i) for j in last) for i in range(n))


def lex_columns(H, n):
    """Betti column maps of the lex ideal of H in n variables.

    Equals betti.columns_from_profile(lex_generator_profile(H, n), n): cols[0]
    is {0: 1} and cols[i] maps shifts to beta_{i,j}. Degree d contributes only
    to shift d+i-1 of column i, so each degree's block is computed once per
    (n, d, H(d-1), H(d)) and placed. Raises NotAdmissibleError when H is not
    an O-sequence in n variables.
    """
    degrees = _lex_degrees(H, n)
    cols = [{0: 1}] + [{} for _ in range(n)]
    for d, prev_h, h in degrees:
        for i, count in enumerate(_lex_column_block(n, d, prev_h, h), 1):
            if count:
                cols[i][d + i - 1] = count
    return cols


def truncate(I, d):
    """Ideal generated by the degree >= d part of I; d must be an int (not a bool) of at least 0."""
    _check_int("d", d)
    return _truncate(I, d, _staircase(I, d))


def _truncate(I, d, z):
    """truncate(I, d) read off a staircase z of I that holds its standard monomials of degree d."""
    if d < 0:
        raise ValueError(f"truncation degree must be nonnegative, got {d}")
    gens = [g for g in I.generators if g.degree >= d]
    # A prefix with an exponent of B or more keys no column of z: its key,
    # carried into base-B digits below B^(n-1), would need a smaller |p|.
    gens += [e for e in _exponents_of_degree(d, I.n) if e[-1] >= z.get(sum(map(mul, e, z.weights)), 0)]
    return MonomialIdeal(I.n, gens)


class _Staircase(dict):
    """Column heights {key: h} of a staircase, with the top and weights of its prefix keys."""

    __slots__ = ("top", "weights")


def _staircase(I, d_max=None):
    """Column heights {key: h} of the monomials outside I.

    A prefix p is an exponent tuple of x_1..x_{n-1}, and the standard monomials
    with prefix p are p * x_n^j for j = 0..h(p)-1, where
    h(p) = min(own(p), h(p - e_k) for p_k > 0) and own(p) is the x_n-exponent
    of the minimal generator with prefix p, if there is one. Under d_max a
    height is cut to d_max - |p| + 1, leaving the standard monomials of degree
    <= d_max. The prefixes with h > 0 form a down-set, walked layer by layer;
    each is reached once, from p / x_m with m its last nonzero variable.
    Without d_max the walk ends only for Artinian ideals.

    p is keyed by the int |p| * B^(n-1) + sum_k p_k * B^k, its dot product
    with z.weights; z.top is B^(n-1), so |p| = key // z.top. B is 2 + the
    largest prefix exponent of a generator, and of d_max under a cap, so it
    exceeds every exponent of p + S' for p in z and S' a subset of
    x_1..x_{n-1}: those keys are distinct, and the key of p + S' is that of p
    plus that of S'. Each layer entry carries the weights of its support, so
    a child is key + w[m] and its down-neighbours are key - w[k], found
    without reading digits.
    """
    n = I.n
    base = 2 + max([e for g in I.generators for e in g.exponents[:-1]] + [-1 if d_max is None else d_max])
    top = base ** (n - 1)
    w = [top + base**k for k in range(n - 1)]
    own = {sum(map(mul, g.exponents, w)): g.exponents[-1] for g in I.generators}
    cap = inf if d_max is None else d_max + 1
    h = min(own.get(0, cap), cap)
    z = _Staircase({0: h} if h > 0 else {})
    z.top, z.weights = top, w
    get = z.get
    # (key, height, last support variable, weights of the support); the root's last is 0.
    layer = [(0, h, 0, ())] if h > 0 else []
    while layer:
        cap -= 1
        nxt = []
        for t, ht, last, support in layer:
            ht = min(ht, cap)
            for m in range(last, n - 1):
                s = t + w[m]
                downs = support[:-1] if m == last else support
                h = own.get(s, ht)
                if h > ht:
                    h = ht
                for down in downs:
                    below = get(s - down, 0)
                    if below < h:
                        h = below
                if h:
                    z[s] = h
                    nxt.append((s, h, m, downs + (w[m],)))
        layer = nxt
    return z


def _hilbert_values(z):
    """H(0), H(1), ... of a staircase: column p adds 1 to degrees |p|..|p|+h-1."""
    top = z.top
    diff = [0] * (max((p // top + h for p, h in z.items()), default=0) + 1)
    for p, h in z.items():
        diff[p // top] += 1
        diff[p // top + h] -= 1
    return list(accumulate(diff[:-1]))


def quotient_hilbert_function(I, d_max=None):
    """Hilbert function of the quotient by I.

    Artinian ideals give the complete HilbertFunction. Otherwise a d_max cap is
    required and the raw value tuple through degree d_max is returned instead.
    A d_max that is not an int (or is a bool), or is negative, raises ValueError.
    """
    if d_max is not None:
        _check_int("d_max", d_max)
    artinian = I.is_artinian()
    if not artinian and d_max is None:
        raise NeedsCapError(f"ideal ({I}) is not Artinian; pass d_max to cap the computation")
    if d_max is not None and d_max < 0:
        raise ValueError(f"degree cap must be nonnegative, got {d_max}")
    vals = _hilbert_values(_staircase(I, None if artinian else d_max))
    return HilbertFunction(vals) if artinian else tuple(vals)


def is_stable(I):
    """True iff for each generator u and s < max_var(u), x_s * u / x_max stays in I."""
    for u in I.generators:
        mv = u.max_var
        for s in range(1, mv):
            exps = list(u.exponents)
            exps[mv - 1] -= 1
            exps[s - 1] += 1
            if not I.contains(Monomial(exps)):
                return False
    return True


_SYMBOL_RE = re.compile(r"([a-z])(?:\^(\d+))?$")


def parse_monomial(text, n=None):
    """Parse ``a^2*b*c^3`` or ``(2,1,3)`` into a Monomial.

    With n omitted, symbolic form sizes by the last letter used and tuple form
    by its length. A given n that is not an int of at least 1 (a bool is
    not) raises ValueError.
    """
    if n is not None:
        _check_vars(n)
    text = text.strip()
    if not text:
        raise IdealParseError("empty monomial")
    if text.startswith("("):
        if not text.endswith(")"):
            raise IdealParseError(f"unterminated exponent tuple {text!r}")
        body = text[1:-1].strip()
        try:
            exps = [int(tok) for tok in body.split(",")] if body else []
        except ValueError:
            raise IdealParseError(f"non-integer exponent in {text!r}") from None
        if n is not None:
            if len(exps) > n:
                raise IdealParseError(f"{text!r} has {len(exps)} exponents, expected {n}")
            exps.extend([0] * (n - len(exps)))
        return Monomial(exps)
    if text == "1":
        if n is None:
            raise IdealParseError("monomial 1 needs an explicit variable count")
        return Monomial((0,) * n)
    exps = {}
    for factor in text.split("*"):
        factor = factor.strip()
        match = _SYMBOL_RE.match(factor)
        if not match:
            raise IdealParseError(f"bad factor {factor!r} in monomial {text!r}")
        var = _LETTERS.index(match.group(1))
        power = int(match.group(2)) if match.group(2) else 1
        exps[var] = exps.get(var, 0) + power
    width = n if n is not None else max(exps) + 1
    if max(exps) + 1 > width:
        raise IdealParseError(f"monomial {text!r} uses more than {width} variables")
    return Monomial(tuple(exps.get(i, 0) for i in range(width)))


def parse_ideal(text, n=None):
    """Parse a semicolon- or newline-separated generator list into a MonomialIdeal.

    With n omitted the variable count is the largest letter used across all
    generators, or the tuple width in exponent-tuple form. Parse errors carry
    the offending generator's character position in the input. A given n
    that is not an int of at least 1 (a bool is not) raises ValueError.
    """
    if n is not None:
        _check_vars(n)
    tokens = []
    offset = 0
    for part in text.replace("\n", ";").split(";"):
        stripped = part.strip()
        if stripped:
            tokens.append((offset + part.index(stripped), stripped))
        offset += len(part) + 1
    if not tokens:
        raise IdealParseError("ideal text has no generators")
    gens = []
    for pos, tok in tokens:
        try:
            # With n omitted, each token is parsed at its own width and padded below.
            gens.append(Monomial(()) if n is None and tok == "1" else parse_monomial(tok, n))
        except IdealParseError as err:
            raise IdealParseError(err.args[0], position=pos) from None
    if n is None:
        n = max(m.n for m in gens)
        if n == 0:
            raise IdealParseError(f"cannot infer variable count from {text!r}")
        gens = [m if m.n == n else Monomial(m.exponents + (0,) * (n - m.n)) for m in gens]
    return MonomialIdeal(n, gens)
