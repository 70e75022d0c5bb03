"""Tests for Hilbert functions, growth bounds, enumeration, and the ACI obstruction."""

import itertools
from math import comb

import pytest

from multbound import (
    HilbertFunction,
    NotAdmissibleError,
    aci_obstruction,
    ci_hilbert_function,
    enumerate_o_sequences,
    is_o_sequence,
    macaulay_bound,
    macaulay_expansion,
    multiplicity,
)


def test_hilbert_function_trims_and_parses():
    H = HilbertFunction((1, 3, 6, 7, 3, 1, 0, 0))
    assert H.values == (1, 3, 6, 7, 3, 1)
    assert H.socle_degree == 5
    assert str(H) == "1,3,6,7,3,1"
    assert HilbertFunction.parse("1,3,6,7,3,1") == H
    assert HilbertFunction.parse("1 3 6 7 3 1") == H
    assert HilbertFunction.parse("1, 3, 6, 7, 3, 1") == H
    assert H[2] == 6
    assert H[99] == 0
    assert len(H) == 6
    assert hash(H) == hash(HilbertFunction((1, 3, 6, 7, 3, 1)))


@pytest.mark.parametrize("text", ["1,,3", ",1,3", "1,3,", "1, ,3", "1,3 , ", ",", " , "])
def test_parse_rejects_empty_fields(text):
    # A leading, trailing or doubled comma once dropped the field it left empty.
    with pytest.raises(ValueError, match=r"^empty field in Hilbert function text "):
        HilbertFunction.parse(text)


def test_hilbert_function_rejects_bad_values():
    with pytest.raises(ValueError):
        HilbertFunction((1, -2))
    with pytest.raises(ValueError):
        HilbertFunction.parse("1,x,3")
    with pytest.raises(ValueError):
        HilbertFunction.parse("")
    with pytest.raises(IndexError):
        HilbertFunction((1, 2))[-1]
    with pytest.raises(AttributeError):
        HilbertFunction((1,)).values = ()


def test_macaulay_expansion_reference_values():
    assert macaulay_expansion(9, 3) == (4, 3, 2)
    assert macaulay_expansion(1, 5) == (5,)
    assert macaulay_expansion(6, 2) == (4,)
    with pytest.raises(ValueError):
        macaulay_expansion(0, 3)
    with pytest.raises(ValueError):
        macaulay_expansion(4, 0)


def test_macaulay_expansion_is_the_unique_greedy_one():
    # The tops strictly decrease, stay at or above their binomial's lower
    # index, and the binomials sum back to h.
    for d in range(1, 11):
        for h in range(1, 501):
            tops = macaulay_expansion(h, d)
            lows = range(d, d - len(tops), -1)
            assert all(j >= 1 for j in lows)
            assert all(a >= j for a, j in zip(tops, lows))
            assert all(a > b for a, b in zip(tops, tops[1:]))
            assert sum(comb(a, j) for a, j in zip(tops, lows)) == h


def test_macaulay_bound_reference_values():
    assert macaulay_bound(6, 2) == 10
    assert macaulay_bound(0, 4) == 0
    assert macaulay_bound(9, 3) == 12


def test_macaulay_bound_is_monotone_in_h():
    for d in range(1, 11):
        prev = 0
        for h in range(0, 501):
            cur = macaulay_bound(h, d)
            assert cur >= prev
            prev = cur


def test_o_sequence_membership():
    assert is_o_sequence((1, 3, 6, 9, 9, 6, 2), 3)
    assert is_o_sequence((1,), 1)
    assert is_o_sequence((1, 3, 6, 10, 15, 17, 17, 17, 15, 10), 3)
    assert not is_o_sequence((1, 2, 1, 0, 0, 6, 3, 1), 3)
    assert not is_o_sequence((1, 4, 2), 3)
    assert not is_o_sequence((1, 3, 7), 3)
    assert not is_o_sequence((1, 1, 2), 3)
    assert not is_o_sequence((2, 1), 3)
    assert not is_o_sequence((), 3)
    assert is_o_sequence(HilbertFunction((1, 3, 6)), 3)


def test_enumeration_order_and_membership():
    found = [tuple(H) for H in enumerate_o_sequences(3, 2, (1, 3))]
    assert found == [
        (1, 3),
        (1, 3, 1),
        (1, 3, 2),
        (1, 3, 3),
        (1, 3, 4),
        (1, 3, 5),
        (1, 3, 6),
    ]
    # Tuple order: each sequence precedes its extensions and the stream is
    # strictly increasing, so a rerun reproduces it exactly.
    bigger = [tuple(H) for H in enumerate_o_sequences(3, 4, (1, 3))]
    assert all(a < b for a, b in zip(bigger, bigger[1:]))
    assert bigger == [tuple(H) for H in enumerate_o_sequences(3, 4, (1, 3))]
    assert all(v[:2] == (1, 3) for v in bigger)
    assert all(is_o_sequence(v, 3) for v in bigger)
    assert set(found) <= set(bigger)


def test_enumeration_one_variable():
    assert [tuple(H) for H in enumerate_o_sequences(1, 0)] == [(1,)]
    assert [tuple(H) for H in enumerate_o_sequences(1, 3)] == [
        (1,), (1, 1), (1, 1, 1), (1, 1, 1, 1),
    ]


def test_enumeration_rejects_bad_prefix():
    # When called, before the first function is asked for.
    with pytest.raises(NotAdmissibleError):
        enumerate_o_sequences(3, 4, (1, 0))
    with pytest.raises(NotAdmissibleError):
        enumerate_o_sequences(3, 4, (1, 4))
    with pytest.raises(NotAdmissibleError):
        enumerate_o_sequences(3, 4, (2,))


def test_enumeration_counts_frozen():
    assert sum(1 for _ in enumerate_o_sequences(3, 5, (1, 3))) == 813
    assert sum(1 for _ in enumerate_o_sequences(3, 5, (1,))) == 876
    assert sum(1 for _ in enumerate_o_sequences(3, 4, (1,))) == 202


def test_multiplicity_reference_values():
    assert multiplicity((1, 3, 6, 7, 3, 1)) == 21
    assert multiplicity((1, 3, 6, 10, 15, 17, 17, 17, 15, 10)) == 111
    assert multiplicity(HilbertFunction((1,))) == 1


def test_ci_hilbert_function_reference_values():
    assert ci_hilbert_function((5, 5, 5)).values == (
        1, 3, 6, 10, 15, 18, 19, 18, 15, 10, 6, 3, 1,
    )
    assert ci_hilbert_function((1, 1, 1)).values == (1,)
    assert ci_hilbert_function((2, 2)).values == (1, 2, 1)
    with pytest.raises(ValueError):
        ci_hilbert_function(())
    with pytest.raises(ValueError):
        ci_hilbert_function((2, 0))
    with pytest.raises(ValueError, match="^degree must be an int, got 2.5$"):
        ci_hilbert_function((2.5, 3))  # once the complete intersection of degrees 2 and 3


def test_ci_hilbert_function_is_symmetric_with_product_multiplicity():
    for n in range(1, 5):
        for degs in itertools.combinations_with_replacement(range(1, 7), n):
            H = ci_hilbert_function(degs)
            sigma = sum(d - 1 for d in degs)
            assert H.socle_degree == sigma
            assert all(H[i] == H[sigma - i] for i in range(sigma + 1))
            prod = 1
            for d in degs:
                prod *= d
            assert multiplicity(H) == prod


def test_aci_obstruction_for_the_hard_degree_five_case():
    H = (1, 3, 6, 10, 15, 17, 17, 17, 15, 10)
    res = aci_obstruction(H, 5)
    assert res.obstructed
    assert res.status == "OBSTRUCTED"
    assert res.difference == (0, 0, 0, 0, 0, 1, 2, 1, 0, 0, 6, 3, 1)
    assert res.difference[5:] == (1, 2, 1, 0, 0, 6, 3, 1)
    assert not is_o_sequence(res.difference[5:], 3)
    assert res.reason == "shifted difference is not an O-sequence"


def test_aci_obstruction_on_a_complete_intersection_is_inconclusive():
    res = aci_obstruction(ci_hilbert_function((3, 3, 3)), 3)
    assert not res.obstructed
    assert res.status == "INCONCLUSIVE"
    assert res.reason == "difference is zero"


def test_aci_obstruction_frozen_small_cases():
    # (1,3,6,7,3,1) is obstructed at both plausible generator degrees.
    res3 = aci_obstruction((1, 3, 6, 7, 3, 1), 3)
    assert res3.obstructed
    assert res3.difference == (0, 0, 0, 0, 3, 2, 1)
    assert res3.reason == "shifted difference is not an O-sequence"
    res4 = aci_obstruction((1, 3, 6, 7, 3, 1), 4)
    assert res4.obstructed
    assert res4.witness_degree == 3
    assert res4.reason == "difference is nonzero in degree 3 < 4"
    # H exceeding the complete intersection is caught degree-first.
    over = aci_obstruction((1, 3, 7), 1)
    assert over.obstructed
    with pytest.raises(ValueError):
        aci_obstruction((1,), 0)
