"""Tests for monomial arithmetic, lex ideals, truncation, and parsing."""

import itertools
from math import comb
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from multbound import (
    HilbertFunction,
    IdealParseError,
    Monomial,
    MonomialIdeal,
    NeedsCapError,
    NotAdmissibleError,
    classify,
    enumerate_o_sequences,
    is_o_sequence,
    is_stable,
    lex_columns,
    lex_generator_profile,
    lex_ideal,
    multiplicity,
    parse_ideal,
    parse_monomial,
    quotient_hilbert_function,
    truncate,
)
from multbound.betti import columns_from_profile
from multbound.koszul import DEFAULT_CHAR, _truncation
from multbound.monomial import _exponents_of_degree, _lex_column_block, _lex_segment, _staircase

from families import monomial_ideals, monomials_of_degree, o_sequences

from goldens import (
    IDEAL_ROWS_DEMO,
    IDEAL_STABLE_NONCM,
    IDEAL_TRUNC_MULT,
    IDEAL_TRUNC_MULT_AT_3,
)


def degree_piece(I, d):
    """All degree-d monomials contained in I, descending lex."""
    return [m for m in monomials_of_degree(d, I.n) if I.contains(m)]


def standard_monomials(I, d):
    """All degree-d monomials outside I, descending lex."""
    return [m for m in monomials_of_degree(d, I.n) if not I.contains(m)]


def reference_truncate(I, d):
    """The generators of I of degree >= d and the degree-d piece of I."""
    return MonomialIdeal(I.n, [g for g in I.generators if g.degree >= d] + degree_piece(I, d))


def test_monomial_basics():
    m = Monomial((2, 1, 3))
    assert m.degree == 6
    assert m.n == 3
    assert m.max_var == 3
    assert str(m) == "a^2*b*c^3"
    assert Monomial((0, 0)).max_var == 0
    assert str(Monomial((0, 0))) == "1"
    assert Monomial((1, 0)).divides(Monomial((2, 1)))
    assert not Monomial((1, 2)).divides(Monomial((2, 1)))
    assert Monomial((1, 0)) * Monomial((1, 2)) == Monomial((2, 2))
    with pytest.raises(ValueError):
        Monomial((1, -1))
    with pytest.raises(ValueError):
        Monomial((1,)).divides(Monomial((1, 0)))
    with pytest.raises(ValueError):
        Monomial((1,)) * Monomial((1, 0))
    with pytest.raises(AttributeError):
        m.exponents = (0, 0, 0)


def test_monomial_and_ideal_constructors_reject_non_int_values():
    # Each was once truncated: Monomial((1.7, 0)) was a and n = 3.5 made a 3-variable ideal.
    for make, message in (
        (lambda: Monomial((1.7, 0)), "exponent must be an int, got 1.7"),
        (lambda: Monomial((True, 0)), "exponent must be an int, got True"),
        (lambda: MonomialIdeal(3.5, [(1, 0, 0)]), "n must be an int, got 3.5"),
        (lambda: MonomialIdeal(True, [(1,)]), "n must be an int, got True"),
        # These were once a bare TypeError.
        (lambda: parse_monomial("a*b", 2.5), "n must be an int, got 2.5"),
        (lambda: lex_columns((1, 2), 2.5), "n must be an int, got 2.5"),
        (lambda: lex_ideal((1, 2), 2.5), "n must be an int, got 2.5"),
        (lambda: lex_generator_profile((1, 2), 2.5), "n must be an int, got 2.5"),
        # These once ran as 1.
        (lambda: parse_monomial("a", True), "n must be an int, got True"),
        (lambda: lex_columns((1, 1), True), "n must be an int, got True"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            make()
    with pytest.raises(ValueError, match=r"^negative exponent in \(1, -1\)$"):
        Monomial((1, -1))
    with pytest.raises(ValueError, match="^need at least one variable, got n=0$"):
        MonomialIdeal(0, [])


def test_monomials_of_degree_descending_lex():
    names = [str(m) for m in monomials_of_degree(2, 3)]
    assert names == ["a^2", "a*b", "a*c", "b^2", "b*c", "c^2"]
    assert [str(m) for m in monomials_of_degree(0, 3)] == ["1"]
    for n in range(1, 5):
        for d in range(0, 7):
            mons = [m.exponents for m in monomials_of_degree(d, n)]
            assert len(mons) == comb(n - 1 + d, d)
            assert all(u > v for u, v in zip(mons, mons[1:]))
            # truncate's own enumerator lists the same monomials in the same order.
            assert list(_exponents_of_degree(d, n)) == mons


def test_lex_segment_shadow_matches_brute_force():
    # Macaulay: the shadow x*L of the lex-first segment L of degree d-1 is the
    # lex-first segment of degree d that leaves the growth bound outside.
    cases = 0
    for n in range(1, 5):
        for d in range(2, 7):
            prev_mons = [m.exponents for m in monomials_of_degree(d - 1, n)]
            for prev_h in range(len(prev_mons) + 1):
                segment = prev_mons[: len(prev_mons) - prev_h]
                shadow = {
                    tuple(e + (k == i) for k, e in enumerate(exps))
                    for exps in segment
                    for i in range(n)
                }
                assert _lex_segment(n, d, prev_h, 0)[0] == len(shadow)
                cases += 1
    assert cases == 225


def test_lex_ideal_reference_cases():
    I = lex_ideal((1, 3, 6, 9, 9, 6, 2), 3)
    assert len(I.generators) == 16
    assert str(I.generators[0]) == "a^3"
    assert len(lex_ideal((1, 3, 6, 7, 3, 1), 3).generators) == 12
    assert str(lex_ideal((1,), 3)) == "a; b; c"


def test_lex_ideal_rejects_non_o_sequences():
    for bad in [(1, 3, 7), (1, 4), (2,), (1, 2, 1, 0, 0, 1), ()]:
        with pytest.raises(NotAdmissibleError):
            lex_ideal(bad, 3)


def test_lex_ideal_agrees_with_o_sequence_test():
    # The lex constructions and classify succeed exactly on O-sequences, over a
    # brute-force grid that includes negative values.
    grid = range(-1, 12)
    for n in range(1, 5):
        for vals in itertools.product((1,), grid, grid, grid):
            if is_o_sequence(vals, n):
                I = lex_ideal(vals, n)
                assert quotient_hilbert_function(I) == HilbertFunction(vals)
                lex_columns(vals, n)
                classify(vals, n)
            else:
                for f in (lex_columns, lex_ideal, classify):
                    with pytest.raises(NotAdmissibleError):
                        f(vals, n)


def test_lex_ideal_round_trips_every_small_hilbert_function():
    for H in enumerate_o_sequences(3, 5):
        assert quotient_hilbert_function(lex_ideal(H, 3)) == H


def test_lex_ideal_degree_pieces_are_initial_segments():
    for H in enumerate_o_sequences(3, 4):
        I = lex_ideal(H, 3)
        for d in range(0, H.socle_degree + 2):
            piece = degree_piece(I, d)
            mons = list(monomials_of_degree(d, 3))
            assert piece == mons[: len(piece)]


def test_lex_generator_profile_matches_materialized_generators():
    for H in enumerate_o_sequences(3, 4):
        I = lex_ideal(H, 3)
        assert lex_generator_profile(H, 3) == tuple(
            (g.degree, g.max_var) for g in I.generators
        )


def test_lex_columns_match_the_generator_profile_on_whole_families():
    for n, socle_max, prefix in [(2, 10, (1,)), (3, 6, (1, 3)), (4, 4, (1,))]:
        for H in enumerate_o_sequences(n, socle_max, prefix):
            assert lex_columns(H, n) == columns_from_profile(lex_generator_profile(H, n), n)


def brute_lex_generators(n, d, prev_h, h):
    """Exponents of the degree-d lex generators, by brute force, or None when H(d) = h is too large.

    They are the lex-first degree-d segment that leaves h monomials out,
    minus the shadow of the degree d-1 segment that leaves prev_h out; h is
    too large when that segment misses part of the shadow.
    """
    prev = monomials_of_degree(d - 1, n)
    shadow = {
        tuple(e + (k == i) for k, e in enumerate(m.exponents))
        for m in prev[: len(prev) - prev_h]
        for i in range(n)
    }
    mons = [m.exponents for m in monomials_of_degree(d, n)]
    segment = mons[: len(mons) - h]
    if not shadow <= set(segment):
        return None
    return [e for e in segment if e not in shadow]


def last_variable(exps):
    return max(k for k, e in enumerate(exps) if e) + 1


def test_lex_blocks_and_profiles_match_brute_force_eliahou_kervaire_counts():
    # An oracle that shares no code with the package's lex enumeration.
    blocks = 0
    for n, d_max in ((1, 8), (2, 7), (3, 6), (4, 5), (5, 4), (6, 3), (7, 3)):
        for d in range(1, d_max + 1):
            # H(0) = 1: the degree-1 block always follows the constant 1.
            for prev_h in range(d == 1, len(monomials_of_degree(d - 1, n)) + 1):
                for h in range(len(monomials_of_degree(d, n)) + 1):
                    gens = brute_lex_generators(n, d, prev_h, h)
                    if gens is None:
                        with pytest.raises(NotAdmissibleError):
                            _lex_column_block(n, d, prev_h, h)
                        break
                    expected = tuple(
                        sum(comb(last_variable(g) - 1, i - 1) for g in gens) for i in range(1, n + 1)
                    )
                    assert _lex_column_block(n, d, prev_h, h) == expected, (n, d, prev_h, h)
                    blocks += 1
    assert blocks == 5_169
    for n, socle_max, prefix in ((1, 6, (1,)), (2, 6, (1,)), (3, 5, (1, 3)), (4, 4, (1, 4)), (7, 3, (1, 7))):
        for H in enumerate_o_sequences(n, socle_max, prefix):
            padded = H.values + (0,)
            expected = tuple(
                (d, last_variable(g))
                for d in range(1, len(padded))
                for g in brute_lex_generators(n, d, padded[d - 1], padded[d])
            )
            assert lex_generator_profile(H, n) == expected, (n, H)


def test_lex_columns_reject_non_o_sequences_on_every_call():
    for bad in [(1, 3, 7), (1, 3, 6, 11), (1, 2, 4), (2,), ()]:
        with pytest.raises(NotAdmissibleError):
            lex_ideal(bad, 3)
        # A second call raises again: failed per-degree steps are not cached.
        for _ in range(2):
            with pytest.raises(NotAdmissibleError):
                lex_columns(bad, 3)
    for f in (lex_ideal, lex_generator_profile, lex_columns):
        with pytest.raises(ValueError, match="need at least one variable"):
            f((1,), 0)


def test_truncate_reference_case():
    I = parse_ideal(IDEAL_TRUNC_MULT)
    T = truncate(I, 3)
    assert T == parse_ideal(IDEAL_TRUNC_MULT_AT_3)
    assert truncate(T, 3) == T
    assert truncate(I, 2) == I
    assert truncate(I, 0) == I
    assert len(truncate(parse_ideal(IDEAL_ROWS_DEMO), 3).generators) == 10
    with pytest.raises(ValueError):
        truncate(I, -1)


def test_truncate_preserves_high_degree_pieces():
    I = parse_ideal(IDEAL_TRUNC_MULT)
    T = truncate(I, 3)
    for d in range(3, 7):
        assert degree_piece(T, d) == degree_piece(I, d)
    assert degree_piece(T, 2) == []


def test_quotient_hilbert_function_reference_cases():
    I = parse_ideal(IDEAL_TRUNC_MULT)
    H = quotient_hilbert_function(I)
    assert H == HilbertFunction((1, 3, 4, 2, 1))
    assert multiplicity(H) == 11
    assert multiplicity(quotient_hilbert_function(truncate(I, 3))) == 13
    assert quotient_hilbert_function(parse_ideal("a; b; c")) == HilbertFunction((1,))


def test_quotient_hilbert_function_needs_cap_for_non_artinian():
    J = parse_ideal(IDEAL_STABLE_NONCM)
    assert not J.is_artinian()
    with pytest.raises(NeedsCapError):
        quotient_hilbert_function(J)
    vals = quotient_hilbert_function(J, d_max=8)
    assert isinstance(vals, tuple)
    assert vals == (1, 3, 6, 4, 4, 4, 4, 4, 4)


@settings(max_examples=60, deadline=None)
@given(o_sequences((2, 3, 4), max_socle=6))
def test_quotient_hilbert_function_of_a_lex_ideal_is_its_hilbert_function(case):
    n, vals = case
    assert quotient_hilbert_function(lex_ideal(vals, n)) == HilbertFunction(vals)


def _counts_outside(I, d_max):
    """Number of degree-d monomials that I does not contain, for d = 0..d_max."""
    return tuple(len(standard_monomials(I, d)) for d in range(d_max + 1))


@settings(max_examples=80, deadline=None)
@given(monomial_ideals(), st.integers(0, 6))
def test_quotient_hilbert_function_counts_the_monomials_outside_the_ideal(I, d_max):
    if I.is_artinian():
        # Each x_k^a in I has a <= 4, so I holds every monomial of degree 3n + 1.
        H = quotient_hilbert_function(I)
        assert H == quotient_hilbert_function(I, d_max)
        assert H == HilbertFunction(_counts_outside(I, 3 * I.n + 1))
    else:
        assert quotient_hilbert_function(I, d_max) == _counts_outside(I, d_max)


@settings(max_examples=80, deadline=None)
@given(monomial_ideals(), st.one_of(st.none(), st.integers(0, 8)))
def test_staircase_columns_are_the_monomials_outside_the_ideal(I, cap):
    if cap is None and not I.is_artinian():
        cap = 8
    # Each x_k^a in I has a <= 4, so an Artinian I holds every monomial of degree 3n + 1.
    top = 3 * I.n + 1 if cap is None else cap
    z = _staircase(I, cap)
    # A prefix p is keyed by its dot product with z.weights, and |p| = key // z.top.
    assert all(h > 0 and key // z.top + h - 1 <= top for key, h in z.items())
    standard = 0
    for d in range(top + 1):
        for m in monomials_of_degree(d, I.n):
            key = sum(map(mul, m.exponents[:-1], z.weights))
            assert (m.exponents[-1] < z.get(key, 0)) == (not I.contains(m)), (I, cap, m)
            standard += not I.contains(m)
    # So no key of z is left unread: its columns hold exactly the standard monomials.
    assert sum(z.values()) == standard


@settings(max_examples=80, deadline=None)
@given(monomial_ideals(), st.integers(0, 8), st.integers(0, 10))
def test_truncate_equals_the_reference_definition(I, d, cap):
    assert truncate(I, d) == reference_truncate(I, d)
    # The cross-check's truncation, off a staircase capped above or below d.
    cap = None if I.is_artinian() else cap
    assert _truncation(I, d, _staircase(I, cap), DEFAULT_CHAR, cap)[0] == reference_truncate(I, d)


def test_is_stable():
    assert is_stable(parse_ideal(IDEAL_STABLE_NONCM))
    assert not is_stable(parse_ideal("a^2; b^2", 2))
    assert is_stable(parse_ideal("a^2", 2))
    for H in enumerate_o_sequences(3, 4):
        assert is_stable(lex_ideal(H, 3))


def test_parse_monomial_forms():
    assert parse_monomial("a^2*b*c^3").exponents == (2, 1, 3)
    assert parse_monomial("(2,1,3)").exponents == (2, 1, 3)
    assert parse_monomial("(2,1,3)", 4).exponents == (2, 1, 3, 0)
    assert parse_monomial("1", 3).exponents == (0, 0, 0)
    assert parse_monomial("a*a^2").exponents == (3,)
    assert parse_monomial("b", 3).exponents == (0, 1, 0)
    assert str(parse_monomial("a^2*b*c^3")) == "a^2*b*c^3"


def test_parse_monomial_errors():
    for bad in ["", "q2", "a^2*", "(2,x)", "(2,1", "a^"]:
        with pytest.raises(IdealParseError):
            parse_monomial(bad, 3)
    with pytest.raises(IdealParseError):
        parse_monomial("1")
    with pytest.raises(IdealParseError):
        parse_monomial("c", 2)
    with pytest.raises(IdealParseError):
        parse_monomial("(1,2,3)", 2)


def test_parse_ideal_round_trip_and_inference():
    I = parse_ideal(IDEAL_ROWS_DEMO)
    assert I.n == 3
    assert parse_ideal(str(I)) == I
    assert parse_ideal("a; c").n == 3
    assert parse_ideal("(2,0); (0,3)").n == 2
    assert parse_ideal("a^2;; b") == parse_ideal("a^2; b")


def test_parse_ideal_newlines_match_semicolons():
    assert parse_ideal(IDEAL_TRUNC_MULT) == parse_ideal(
        IDEAL_TRUNC_MULT.replace("; ", "\n")
    )


def test_parse_ideal_error_positions():
    with pytest.raises(IdealParseError) as exc:
        parse_ideal("a^3; q2*w; b")
    assert exc.value.position == 5
    assert str(exc.value).endswith("(at position 5)")
    for empty in ["", " ; ; "]:
        with pytest.raises(IdealParseError):
            parse_ideal(empty)
    with pytest.raises(IdealParseError):
        parse_ideal("1")


def test_monomial_ideal_canonical_form():
    I = MonomialIdeal(3, [Monomial((0, 0, 2)), Monomial((1, 1, 0)), Monomial((2, 0, 0))])
    assert str(I) == "a^2; a*b; c^2"
    assert MonomialIdeal(2, [Monomial((1, 0)), Monomial((2, 0)), Monomial((1, 1))]) == \
        MonomialIdeal(2, [Monomial((1, 0))])
    assert len(parse_ideal("a; a; b")) == 2


def test_monomial_ideal_contains_and_artinian():
    I = parse_ideal("a^2; b", 2)
    assert I.contains(Monomial((3, 0)))
    assert I.contains(Monomial((2, 1)))
    assert I.contains(Monomial((0, 1)))
    assert not I.contains(Monomial((1, 0)))
    assert I.is_artinian()
    assert parse_ideal(IDEAL_ROWS_DEMO).is_artinian()
    assert not parse_ideal("a; b", 3).is_artinian()
    assert not parse_ideal(IDEAL_STABLE_NONCM).is_artinian()
    # S/(1) = 0 has finite length.
    assert parse_ideal("1", 2).is_artinian()
    assert parse_ideal("a; 1", 2).is_artinian()


def test_monomial_ideal_validation():
    with pytest.raises(ValueError):
        MonomialIdeal(0, [])
    with pytest.raises(ValueError):
        MonomialIdeal(2, [Monomial((1,))])
    with pytest.raises(AttributeError):
        parse_ideal("a", 1).generators = ()


def test_standard_monomials_complement_degree_pieces():
    I = parse_ideal(IDEAL_TRUNC_MULT)
    H = quotient_hilbert_function(I)
    for d in range(0, 6):
        inside = degree_piece(I, d)
        outside = standard_monomials(I, d)
        assert len(inside) + len(outside) == comb(2 + d, d)
        assert not set(inside) & set(outside)
        assert len(outside) == H[d]
