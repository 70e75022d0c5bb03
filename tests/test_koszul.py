"""Tests for the exact Koszul-homology Betti engine and truncation certificates."""

import itertools
import random
import re
import time
from math import comb, inf
from operator import le, mul

import pytest
from hypothesis import given, settings, strategies as st

from multbound import (
    BettiDiagram,
    Monomial,
    MonomialIdeal,
    NeedsCapError,
    check_ideal,
    ek_betti,
    enumerate_o_sequences,
    hilbert_from_diagram,
    koszul_betti,
    lex_ideal,
    max_shifts,
    multiplicity,
    parse_ideal,
    quotient_hilbert_function,
    truncate,
    truncation_analysis,
    verify_truncation_rows,
)
from multbound.koszul import _block_betti, rank_mod_p
from multbound.monomial import _staircase

from families import monomial_ideals, monomials_of_degree, o_sequences, wide_monomial_ideals

from goldens import (
    DIAG_ROWS_DEMO,
    DIAG_ROWS_DEMO_AT_3,
    DIAG_STABLE_NONCM,
    DIAG_TRUNC_CERT,
    DIAG_TRUNC_CERT_AT_6,
    IDEAL_ROWS_DEMO,
    IDEAL_STABLE_NONCM,
    IDEAL_TRUNC_CERT,
    IDEAL_TRUNC_MULT,
    diagram,
)


def test_koszul_betti_reference_diagrams():
    I = parse_ideal(IDEAL_ROWS_DEMO)
    assert koszul_betti(I) == diagram(DIAG_ROWS_DEMO)
    assert koszul_betti(truncate(I, 3)) == diagram(DIAG_ROWS_DEMO_AT_3)
    J = parse_ideal(IDEAL_TRUNC_CERT)
    assert koszul_betti(J) == diagram(DIAG_TRUNC_CERT)
    assert koszul_betti(truncate(J, 6)) == diagram(DIAG_TRUNC_CERT_AT_6)
    assert koszul_betti(parse_ideal("a^2; b^2", 2)) == \
        BettiDiagram(2, {(0, 0): 1, (1, 2): 2, (2, 4): 1})


def test_koszul_betti_on_non_artinian_ideal():
    K = parse_ideal(IDEAL_STABLE_NONCM)
    with pytest.raises(NeedsCapError):
        koszul_betti(K)
    D = koszul_betti(K, degree_cap=8)
    assert D == diagram(DIAG_STABLE_NONCM)
    assert D == ek_betti(K)
    principal = koszul_betti(parse_ideal("a*b", 2), degree_cap=4)
    assert principal.entries() == {(0, 0): 1, (1, 2): 1}


def test_koszul_betti_input_validation():
    I = parse_ideal(IDEAL_ROWS_DEMO)
    with pytest.raises(ValueError):
        koszul_betti(I, field_char=10)
    with pytest.raises(ValueError):
        koszul_betti(parse_ideal("1", 2))
    for ideal in (parse_ideal("a^2; b^2"), parse_ideal("a*b", 2)):
        with pytest.raises(ValueError, match="degree cap must be nonnegative"):
            koszul_betti(ideal, degree_cap=-1)
        with pytest.raises(ValueError, match="degree cap must be nonnegative"):
            quotient_hilbert_function(ideal, -1)
    assert koszul_betti(parse_ideal("a*b", 2), degree_cap=0).entries() == {(0, 0): 1}
    assert quotient_hilbert_function(parse_ideal("a*b", 2), 0) == (1,)


_A3, _A3B3 = parse_ideal("a^3", 2), parse_ideal("a^3; b^3")


@pytest.mark.parametrize("call, args, kwargs, name, value", [
    # A float degree cap once hung the staircase walk: its heights never reached 0.
    (koszul_betti, (_A3B3,), {"degree_cap": 1.5}, "degree_cap", 1.5),
    (quotient_hilbert_function, (_A3, 1.5), {}, "d_max", 1.5),
    (verify_truncation_rows, (_A3, 2), {"degree_cap": 1.5}, "degree_cap", 1.5),
    (check_ideal, ("a^3", 2), {"degree_cap": 1.5}, "degree_cap", 1.5),
    (truncate, (_A3B3, 1.5), {}, "d", 1.5),
    # These were once a bare TypeError.
    (check_ideal, ("a^3", 2), {"truncate_at": 2.5, "degree_cap": 4}, "truncate_at", 2.5),
    (check_ideal, ("a^3; b^3",), {"field_char": 2.0}, "field_char", 2.0),
    (check_ideal, ("a^3", 2.0), {}, "n", 2.0),
    (parse_ideal, ("a^3", 2.0), {}, "n", 2.0),
    (verify_truncation_rows, (_A3B3, 2.5), {}, "d", 2.5),
    # These once ran as 1.
    (check_ideal, ("a^3", 2), {"degree_cap": True}, "degree_cap", True),
    (check_ideal, ("a^3; b^3",), {"truncate_at": True}, "truncate_at", True),
    (check_ideal, ("a^3", True), {}, "n", True),
    (quotient_hilbert_function, (_A3B3, True), {}, "d_max", True),
    (koszul_betti, (_A3B3,), {"field_char": True}, "field_char", True),
    # A bare TypeError from isqrt.
    (rank_mod_p, ([[1]], 3.0), {}, "p", 3.0),
])
def test_cross_check_entry_points_reject_non_int_degrees_and_sizes(call, args, kwargs, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be an int, got {re.escape(repr(value))}$"):
        call(*args, **kwargs)


def _multidegrees(I, degree_cap):
    """Every mu with |mu| <= degree_cap or, with no cap, every mu with mu_k <= a_k
    for the pure powers x_k^a_k of the Artinian ideal I."""
    bounds = [
        degree_cap if degree_cap is not None
        else min(g.exponents[k] for g in I.generators if g.degree == g.exponents[k])
        for k in range(I.n)
    ]
    for mu in itertools.product(*(range(b + 1) for b in bounds)):
        if degree_cap is None or sum(mu) <= degree_cap:
            yield mu


def _brute_force_betti(I, p, degree_cap):
    """Betti entries of S/I from each block {S in supp mu : x^(mu - 1_S) not in I}.

    Ranges over _multidegrees(I, degree_cap); the boundary sends e_S to the
    signed sum of e_(S - k) over k in S.
    """
    n = I.n
    entries = {}
    for mu in _multidegrees(I, degree_cap):
        support = [k for k in range(n) if mu[k]]
        blocks = {}
        for r in range(len(support) + 1):
            blocks[r] = [
                S for S in itertools.combinations(support, r)
                if not I.contains(Monomial([m - (k in S) for k, m in enumerate(mu)]))
            ]
        ranks = {}
        for r in range(1, len(support) + 1):
            rows = {T: row for row, T in enumerate(blocks[r - 1])}
            mat = [[0] * len(blocks[r]) for _ in rows]
            for col, S in enumerate(blocks[r]):
                for pos, k in enumerate(S):
                    T = S[:pos] + S[pos + 1:]
                    if T in rows:
                        mat[rows[T]][col] = (-1) ** pos
            ranks[r] = rank_mod_p(mat, p) if blocks[r] and rows else 0
        for r, basis in blocks.items():
            beta = len(basis) - ranks.get(r, 0) - ranks.get(r + 1, 0)
            if beta:
                key = (r, sum(mu))
                entries[key] = entries.get(key, 0) + beta
    return entries


def _random_ideal(rng, n, artinian):
    """Pure powers of all variables (all but the last when not Artinian) and mixed monomials."""
    powers = range(n) if artinian else range(n - 1)
    gens = [Monomial([rng.randint(1, 3) if j == k else 0 for j in range(n)]) for k in powers]
    size = n + rng.randint(0, 2) if n > 1 else n
    while len(gens) < size:
        exps = [rng.randint(0, 2) for _ in range(n)]
        if sum(1 for e in exps if e) >= 2:
            gens.append(Monomial(exps))
    return MonomialIdeal(n, gens)


def test_koszul_betti_equals_the_block_basis_brute_force():
    rng = random.Random(2005)
    cases = []
    for n in range(1, 5):
        for _ in range(6):
            cases.append((_random_ideal(rng, n, True), None))
            cases.append((_random_ideal(rng, n, True), rng.randint(0, 8)))
            if n > 1:
                cases.append((_random_ideal(rng, n, False), rng.randint(0, 8)))
    for _ in range(2):
        cases.append((_random_ideal(rng, 5, True), None))
        cases.append((_random_ideal(rng, 5, False), rng.randint(0, 6)))
    for I, cap in cases:
        for p in (2, 3, 32003):
            assert koszul_betti(I, p, cap).entries() == _brute_force_betti(I, p, cap), (I, cap, p)
    # Six variables fill 64-bit lanes; seven take the lane-by-lane path (capped
    # only, to keep the brute force short). Caps 3 and 5 keep only the lower
    # lanes of the columns that reach past them; caps 6 and 7 cut the column
    # of c^8 within and just above its standard monomials.
    wide = [
        (MonomialIdeal(n, [[2 * (j == k) for j in range(n)] for k in range(n)] + [
            [1, 1] + [0] * (n - 3) + [1], [0, 1, 1] + [0] * (n - 3),
        ]), cap)
        for n, caps in ((6, (None, 3, 5)), (7, (3, 5))) for cap in caps
    ]
    wide += [(parse_ideal("a^2; b^2; c^8; a*b*c^3; b*c^5"), cap) for cap in (None, 6, 7)]
    for I, cap in wide:
        for p in (2, 32003):
            assert koszul_betti(I, p, cap).entries() == _brute_force_betti(I, p, cap), (I, cap, p)


@settings(max_examples=60, deadline=None)
@given(monomial_ideals(), st.one_of(st.none(), st.integers(0, 8)), st.sampled_from((2, 32003)))
def test_koszul_betti_equals_the_brute_force_on_drawn_ideals(I, cap, p):
    if cap is None and not I.is_artinian():
        cap = 8
    D = koszul_betti(I, p, cap)
    assert D.entries() == _brute_force_betti(I, p, cap)
    # The engine builds D unchecked; the validating constructor must accept it.
    assert BettiDiagram(D.n, D.entries()) == D


def _tuple_staircase(I, cap):
    """{prefix: h} with h the least j, or cap - |prefix| + 1, at which prefix * x_n^j lies in I.

    Each h is a minimum over the generators that divide prefix * x_n^h,
    ranging over every prefix whose exponents stay below the cap, or below
    the pure powers of an Artinian I.
    """
    n = I.n
    bounds = [cap + 1 if cap is not None else min(
        g.exponents[k] for g in I.generators if g.exponents[k] == g.degree > 0
    ) for k in range(n - 1)]
    z = {}
    for p in itertools.product(*map(range, bounds)):
        h = min([g.exponents[-1] for g in I.generators if all(map(le, g.exponents[:-1], p))]
                + [inf if cap is None else cap - sum(p) + 1])
        if h > 0:
            z[p] = h
    return z


def _decode(z, key):
    """The prefix of a staircase key: |p| = key // z.top, and B^k = z.weights[k] - z.top."""
    rest, p = key % z.top, []
    for w in reversed(z.weights):
        p.append(rest // (w - z.top))
        rest %= w - z.top
    return tuple(reversed(p))


@settings(max_examples=80, deadline=None)
@given(wide_monomial_ideals())
def test_staircase_keys_do_not_carry_for_large_exponents(case):
    """The int-keyed staircase and the engine on exponents up to 12, where a too-small key base would carry."""
    I, cap = case
    z = _staircase(I, cap)
    decoded = {}
    for key, h in z.items():
        p = _decode(z, key)
        # A carried digit would decode to a prefix of another degree.
        assert key // z.top == sum(p) and sum(map(mul, p, z.weights)) == key, (I, cap, key)
        decoded[p] = h
    assert decoded == _tuple_staircase(I, cap)
    D = koszul_betti(I, degree_cap=cap)
    assert BettiDiagram(D.n, D.entries()) == D
    if cap is None:
        assert hilbert_from_diagram(D) == quotient_hilbert_function(I)
    else:
        # The numerator sum_{i,j} (-1)^i beta_{i,j} t^j over (1 - t)^n, through the cap.
        series = [
            sum((-1) ** i * c * comb(d - j + I.n - 1, I.n - 1) for (i, j), c in D.entries().items() if j <= d)
            for d in range(cap + 1)
        ]
        H = quotient_hilbert_function(I, cap)
        assert series == [H[d] for d in range(cap + 1)]


@settings(max_examples=60, deadline=None)
@given(monomial_ideals(), st.one_of(st.none(), st.integers(0, 8)))
def test_standard_blocks_are_acyclic_full_simplices(I, cap):
    """The lemma the engine's skip of standard blocks rests on.

    For a standard mu != 0 (of degree <= cap), every x^(mu - 1_S) with S in
    supp(mu) divides x^mu and so is standard too: the block holds e_S for
    every such S, and its complex has no homology.
    """
    if cap is None and not I.is_artinian():
        cap = 8
    n = I.n
    for mu in _multidegrees(I, cap):
        if not any(mu) or I.contains(Monomial(mu)):
            continue
        support = sum(1 << k for k in range(n) if mu[k])
        subsets = [S for S in range(1 << n) if not S & ~support]
        pattern = sum(
            1 << S for S in subsets
            if not I.contains(Monomial([m - (S >> k & 1) for k, m in enumerate(mu)]))
        )
        assert pattern == sum(1 << S for S in subsets), (I, mu)
        for p in (2, 32003):
            assert _block_betti(n, pattern, p) == (), (I, mu, p)


# Stanley-Reisner ideal of the six-vertex real projective plane: the triples
# that are not facets (every edge is a face). By Hochster's formula
# beta_{i,6} is the reduced homology of RP^2 in degree 5 - i, which is F_2 in
# degrees 1 and 2 over F_2 and zero over fields of odd characteristic.
RP2_FACETS = ("123", "134", "145", "156", "126", "235", "245", "246", "346", "356")
RP2_BETTI = {(0, 0): 1, (1, 3): 10, (2, 4): 15, (3, 5): 6}


def test_koszul_betti_depends_on_the_characteristic_for_rp2():
    facets = {frozenset(int(v) - 1 for v in f) for f in RP2_FACETS}
    I = MonomialIdeal(6, [
        [int(k in S) for k in range(6)]
        for S in map(frozenset, itertools.combinations(range(6), 3)) if S not in facets
    ])
    expected = {2: {**RP2_BETTI, (3, 6): 1, (4, 6): 1}, 32003: RP2_BETTI}
    # Blocks are cached process-wide; each order starts cold, so a cache that
    # ignored the characteristic would hand the second call the first's homology.
    for order in ((2, 32003), (32003, 2)):
        _block_betti.cache_clear()
        for p in order:
            assert koszul_betti(I, p, degree_cap=6).entries() == expected[p], (order, p)


def test_koszul_betti_is_characteristic_independent_here():
    for text in [IDEAL_ROWS_DEMO, IDEAL_TRUNC_CERT]:
        I = parse_ideal(text)
        reference = koszul_betti(I)
        for p in (2, 3, 32003):
            assert koszul_betti(I, field_char=p) == reference


def test_koszul_betti_matches_closed_form_on_lex_ideals():
    for H in enumerate_o_sequences(3, 3):
        I = lex_ideal(H, 3)
        assert koszul_betti(I) == ek_betti(I)


@settings(max_examples=40, deadline=None)
@given(o_sequences((2, 3, 4), max_socle=5))
def test_koszul_betti_of_a_lex_ideal_is_its_eliahou_kervaire_diagram(case):
    n, vals = case
    I = lex_ideal(vals, n)
    assert koszul_betti(I) == ek_betti(I)


def test_koszul_betti_encodes_the_hilbert_function():
    for H in enumerate_o_sequences(3, 4):
        assert hilbert_from_diagram(koszul_betti(lex_ideal(H, 3))) == H


def test_rank_mod_p():
    assert rank_mod_p([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 5) == 3
    assert rank_mod_p([[0, 0], [0, 0]], 5) == 0
    assert rank_mod_p([[2, 4], [1, 2]], 3) == 1
    assert rank_mod_p([[1, 2], [3, 4]], 5) == 2
    assert rank_mod_p([[1, 2], [3, 4]], 2) == 1
    assert rank_mod_p([], 5) == 0
    assert rank_mod_p([[0]], 7) == 0
    assert rank_mod_p([[-1, 1], [1, -1]], 3) == 1
    # Ragged rows and non-int entries were once read as far as the first row
    # went ([[1], [2, 3]] had rank 1), or raised IndexError or TypeError.
    for rows in ([[1], [2, 3]], [[1, 2], [3]], [[1, 2], []]):
        with pytest.raises(ValueError, match="^rows must have one length"):
            rank_mod_p(rows, 5)
    for rows, bad in (([[1.5, 2]], "1.5"), ([[True, 0]], "True"), ([[1, 0], [0, "1"]], "'1'")):
        with pytest.raises(ValueError, match=f"^entry must be an int, got {bad}$"):
            rank_mod_p(rows, 5)
    for p in (1, 0, -3, 4, 32001):
        with pytest.raises(ValueError, match="must be prime"):
            rank_mod_p([[1]], p)
    with pytest.raises(ValueError, match="must be prime"):
        rank_mod_p([], 4)
    # Exact below 2**64 in milliseconds, where trial division up to sqrt(p) would take minutes.
    start = time.perf_counter()
    assert rank_mod_p([[1, 2], [3, 4]], 2**61 - 1) == 2
    assert time.perf_counter() - start < 1.0
    # 2047 is a strong pseudoprime to base 2, 561 a Carmichael number, and the
    # last two strong pseudoprimes to the bases 2..7 and 2..23.
    for p in (2047, 561, 3215031751, 3825123056546413051):
        with pytest.raises(ValueError, match=f"^field characteristic must be prime, got {p}$"):
            rank_mod_p([[1]], p)
    with pytest.raises(ValueError, match=r"must be prime and below 2\*\*64"):
        rank_mod_p([[1]], 2**64 + 13)


def test_truncation_rows_preserved_for_demo_ideal():
    report = verify_truncation_rows(parse_ideal(IDEAL_ROWS_DEMO), 3)
    assert report.ok and bool(report)
    assert report.degree == 3
    assert report.rows == ((3, True), (4, True))
    assert report.mismatches == {}
    assert report.diagram == diagram(DIAG_ROWS_DEMO)
    assert report.truncated_diagram == diagram(DIAG_ROWS_DEMO_AT_3)


def test_truncation_rows_preserved_for_certificate_ideal():
    report = verify_truncation_rows(parse_ideal(IDEAL_TRUNC_CERT), 6)
    assert report.ok
    assert report.rows == ((6, True),)
    for D in (report.diagram, report.truncated_diagram):
        assert D.entry(2, 8) == 1
        assert D.entry(3, 9) == 1


def test_truncation_rows_below_generators_is_trivially_ok():
    report = verify_truncation_rows(parse_ideal(IDEAL_ROWS_DEMO), 1)
    assert report.ok
    assert report.diagram == report.truncated_diagram


def test_truncation_rows_with_degree_cap():
    report = verify_truncation_rows(parse_ideal(IDEAL_STABLE_NONCM), 3, degree_cap=9)
    assert report.ok
    assert report.rows == ((3, True),)


def test_truncation_analysis_certifies_through_truncation():
    result = truncation_analysis(parse_ideal(IDEAL_TRUNC_CERT))
    assert result.status == "CERTIFIED" and result.certified
    assert result.reason == "truncation at degree 6 is quasipure with the same max shifts"
    assert not result.quasipure_direct
    assert (result.regularity, result.max_gen_degree) == (6, 6)
    assert result.e == 31
    assert result.e_truncation == 57
    assert result.e <= result.e_truncation
    assert result.diagram == diagram(DIAG_TRUNC_CERT)
    assert result.truncation == truncate(parse_ideal(IDEAL_TRUNC_CERT), 6)
    assert result.truncation_diagram == diagram(DIAG_TRUNC_CERT_AT_6)
    assert max_shifts(result.diagram) == max_shifts(result.truncation_diagram) == (6, 8, 9)
    assert result.verdict.holds
    assert (result.verdict.lhs, result.verdict.rhs) == (342, 432)


def test_truncation_analysis_certifies_quasipure_directly():
    result = truncation_analysis(parse_ideal("a^2; b^2; c^2"))
    assert result.certified
    assert result.reason == "diagram is quasipure"
    assert result.quasipure_direct
    assert result.truncation is None
    assert result.e == 8
    assert (result.verdict.lhs, result.verdict.rhs) == (48, 48)


def test_truncation_analysis_not_applicable_without_high_degree_generator():
    result = truncation_analysis(parse_ideal(IDEAL_TRUNC_MULT))
    assert result.status == "NOT_APPLICABLE" and not result.certified
    assert result.reason == "no minimal generator of degree 4 or 5"
    assert (result.regularity, result.max_gen_degree) == (4, 3)
    assert result.e == 11
    assert result.truncation is None and result.verdict is None


def test_truncation_analysis_requires_artinian_input():
    with pytest.raises(NeedsCapError):
        truncation_analysis(parse_ideal(IDEAL_STABLE_NONCM))


def test_truncation_keeps_artinian_and_never_loses_multiplicity():
    rng = random.Random(7)
    mons = [m for d in range(2, 6) for m in monomials_of_degree(d, 3)]
    for _ in range(25):
        gens = [
            (rng.randrange(2, 5), 0, 0),
            (0, rng.randrange(2, 5), 0),
            (0, 0, rng.randrange(2, 5)),
        ]
        I = parse_ideal("; ".join(
            ["(%d,%d,%d)" % g for g in gens]
            + [str(m) for m in rng.sample(mons, rng.randrange(0, 4))]
        ))
        assert I.is_artinian()
        e = multiplicity(quotient_hilbert_function(I))
        reg = koszul_betti(I).regularity
        for d in range(0, reg + 2):
            T = truncate(I, d)
            assert T.is_artinian()
            assert multiplicity(quotient_hilbert_function(T)) >= e
