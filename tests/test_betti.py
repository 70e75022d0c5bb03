"""Tests for Betti diagrams: closed-form resolutions, greedy cancellation, shifts, layouts."""

import pytest
from hypothesis import example, given, settings

from multbound import (
    BettiDiagram,
    HilbertFunction,
    InconsistentDiagramError,
    MalformedDiagramError,
    NotStableError,
    ek_betti,
    enumerate_o_sequences,
    greedy_minimize,
    greedy_stages,
    hilbert_from_diagram,
    is_pure,
    is_quasipure,
    lex_ideal,
    max_shifts,
    min_shifts,
    parse_ideal,
)

from goldens import (
    DIAG_STABLE_NONCM,
    DIAG_TRUNC_CERT,
    IDEAL_STABLE_NONCM,
    LEX_1_3_6_10_15_15_11,
    LEX_1_3_6_10_15_17_17_17_15_10,
    LEX_1_3_6_7_3_1,
    LEX_1_3_6_9_9_6_2,
    MID_1_3_6_10_15_17_17_17_15_10,
    MID_1_3_6_7_3_1,
    MIN_1_3_6_10_15_15_11,
    MIN_1_3_6_7_3_1,
    MIN_1_3_6_9_9_6_2,
    diagram,
)
from families import betti_diagrams
from leaves import _growth_ok, reference_to_text

CI_5_5_5 = BettiDiagram(3, {(0, 0): 1, (1, 5): 3, (2, 10): 3, (3, 15): 1})


def test_constructor_validation():
    with pytest.raises(ValueError):
        BettiDiagram(0, {})
    with pytest.raises(ValueError):
        BettiDiagram(2, {(0, 0): 1, (1, 2): -1})
    with pytest.raises(ValueError):
        BettiDiagram(2, {(0, 0): 1, (3, 3): 1})
    with pytest.raises(ValueError):
        BettiDiagram(2, {(0, 0): 1, (1, -1): 1})
    with pytest.raises(ValueError):
        BettiDiagram(2, {(1, 2): 1})
    with pytest.raises(ValueError):
        BettiDiagram(2, {(0, 0): 2})
    with pytest.raises(ValueError):
        BettiDiagram(2, {(0, 0): 1, (0, 1): 1})
    with pytest.raises(AttributeError):
        BettiDiagram(2, {(0, 0): 1}).n = 3


def test_constructor_rejects_non_int_values():
    # BettiDiagram(3, {(0, 0): 1, (1, 2): 2.5}) once stored beta_{1,2} = 2.
    for n, entries, message in (
        (3, {(0, 0): 1, (1, 2): 2.5}, r"beta_\{1,2\} must be an int, got 2.5"),
        (3, {(0, 0): 1, (1, 2): True}, r"beta_\{1,2\} must be an int, got True"),
        (3, {(0, 0): 1, (1.0, 2): 2}, "column must be an int, got 1.0"),
        (3, {(0, 0): 1, (1, 2.0): 2}, "degree must be an int, got 2.0"),
        (3.0, {(0, 0): 1}, "n must be an int, got 3.0"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            BettiDiagram(n, entries)
    with pytest.raises(ValueError, match=r"^negative entry beta_\{1,2\} = -1$"):
        BettiDiagram(2, {(0, 0): 1, (1, 2): -1})
    with pytest.raises(ValueError, match="^need at least one variable, got n=0$"):
        BettiDiagram(0, {})


def test_zero_counts_are_dropped():
    D = BettiDiagram(2, {(0, 0): 1, (1, 1): 0})
    assert D.entry(1, 1) == 0
    assert D.projective_dimension == 0
    assert D.column_totals() == (1,)
    assert D == BettiDiagram(2, {(0, 0): 1})


def test_accessors_on_reference_diagram():
    D = diagram(MIN_1_3_6_9_9_6_2)
    assert D.n == 3
    assert D.entry(1, 3) == 1
    assert D.entry(1, 4) == 3
    assert D.entry(2, 6) == 2
    assert D.entry(2, 7) == 3
    assert D.entry(3, 9) == 2
    assert D.entry(2, 9) == 0
    assert D.entries() == {
        (0, 0): 1, (1, 3): 1, (1, 4): 3, (2, 6): 2, (2, 7): 3, (3, 9): 2,
    }
    assert D.columns() == [{0: 1}, {3: 1, 4: 3}, {6: 2, 7: 3}, {9: 2}]
    assert D.column_totals() == (1, 4, 5, 2)
    assert D.projective_dimension == 3
    assert D.regularity == 6
    assert D == BettiDiagram.from_columns(3, [{0: 1}, {3: 1, 4: 3}, {6: 2, 7: 3}, {9: 2}])
    assert hash(D) == hash(diagram(MIN_1_3_6_9_9_6_2))


def test_to_text_layout_is_exact():
    D = BettiDiagram(2, {(0, 0): 1, (1, 2): 2, (2, 4): 1})
    assert D.to_text() == "\n".join([
        "total: 1 2 1",
        "0:     1 . .",
        "1:     . 2 .",
        "2:     . . 1",
    ])
    assert str(D) == D.to_text()


@settings(max_examples=200, deadline=None)
@given(betti_diagrams())
# An empty inner row, projective dimension 2 < n = 4, and a five-digit total.
@example(BettiDiagram(4, {(0, 0): 1, (1, 3): 7, (2, 5): 9999, (2, 6): 12}))
def test_to_text_equals_the_per_cell_reference(D):
    assert D.to_text() == reference_to_text(D)


def test_constructor_rejects_entries_below_row_0():
    # No cyclic quotient has beta_{i,j} with 1 <= i and j < i. This diagram
    # once built, and to_text counted its beta_{1,0} in the total: row but
    # drew it nowhere, so from_text(to_text()) raised on it.
    with pytest.raises(ValueError, match=r"^degree 0 at column 1 is below row 0$"):
        BettiDiagram(3, {(0, 0): 1, (1, 0): 2, (3, 9): 1})
    with pytest.raises(ValueError, match=r"^degree 2 at column 3 is below row 0$"):
        BettiDiagram(3, {(0, 0): 1, (1, 2): 3, (3, 2): 1})
    with pytest.raises(ValueError):
        BettiDiagram.from_machine("0 0 1\n2 1 1")
    assert BettiDiagram(3, {(0, 0): 1, (1, 1): 3, (2, 2): 3, (3, 3): 1}).regularity == 0


@settings(max_examples=200, deadline=None)
@given(betti_diagrams())
def test_text_and_machine_forms_round_trip(D):
    # Without n, the parsers read n as the projective dimension.
    assert BettiDiagram.from_text(D.to_text(), n=D.n) == D
    assert BettiDiagram.from_machine(D.to_machine(), n=D.n) == D
    if D.projective_dimension == D.n:
        assert BettiDiagram.from_text(D.to_text()) == D
        assert BettiDiagram.from_machine(D.to_machine()) == D


def test_text_round_trips():
    for text in [
        LEX_1_3_6_9_9_6_2, MIN_1_3_6_9_9_6_2, LEX_1_3_6_7_3_1, MID_1_3_6_7_3_1,
        MIN_1_3_6_7_3_1, LEX_1_3_6_10_15_15_11, MIN_1_3_6_10_15_15_11,
        LEX_1_3_6_10_15_17_17_17_15_10, MID_1_3_6_10_15_17_17_17_15_10,
        DIAG_STABLE_NONCM,
    ]:
        D = diagram(text)
        assert BettiDiagram.from_text(D.to_text()) == D
        assert BettiDiagram.from_machine(D.to_machine()) == D
        assert BettiDiagram.from_machine(D.to_machine(), n=D.n) == D


def test_machine_form_is_sorted_triples():
    D = BettiDiagram(2, {(1, 2): 2, (0, 0): 1, (2, 4): 1})
    assert D.to_machine() == "0 0 1\n1 2 2\n2 4 1"
    with pytest.raises(ValueError):
        BettiDiagram.from_machine("")
    # A repeated entry once kept its last count and dropped the others.
    with pytest.raises(ValueError, match=r"^entry \(1, 2\) appears twice$"):
        BettiDiagram.from_machine("0 0 1\n1 2 3\n1 2 4\n2 3 2")
    with pytest.raises(ValueError, match=r"^entry \(0, 0\) appears twice$"):
        BettiDiagram.from_machine("0 0 1\n1 1 1\n0 0 1")


def test_from_text_rejects_malformed_input():
    with pytest.raises(ValueError):
        BettiDiagram.from_text("0: 1 . .")
    with pytest.raises(ValueError):
        BettiDiagram.from_text("total: 1 2 1\nrow 1 . .")
    with pytest.raises(ValueError):
        BettiDiagram.from_text("total: 1 2 1\n0: 1 .")
    with pytest.raises(ValueError):
        BettiDiagram.from_text("total: 1 9 1\n0: 1 . .\n1: . 2 .\n2: . . 1")
    # A repeated row once overwrote the first one's cells, totals and all.
    with pytest.raises(ValueError, match=r"^row 1 appears twice$"):
        BettiDiagram.from_text("total: 1 2 1\n0: 1 . .\n1: . 2 .\n1: . 2 .\n2: . . 1")
    with pytest.raises(ValueError, match=r"^row 1 appears twice$"):
        BettiDiagram.from_text("total: 1 2 1\n0: 1 . .\n1: . 1 .\n1: . 2 .\n2: . . 1")


def test_ek_betti_matches_reference_lex_resolutions():
    cases = [
        ((1, 3, 6, 9, 9, 6, 2), LEX_1_3_6_9_9_6_2),
        ((1, 3, 6, 7, 3, 1), LEX_1_3_6_7_3_1),
        ((1, 3, 6, 10, 15, 15, 11), LEX_1_3_6_10_15_15_11),
        ((1, 3, 6, 10, 15, 17, 17, 17, 15, 10), LEX_1_3_6_10_15_17_17_17_15_10),
    ]
    for H, text in cases:
        assert ek_betti(lex_ideal(H, 3)) == diagram(text)


def test_ek_betti_on_stable_non_lex_ideal():
    assert ek_betti(parse_ideal(IDEAL_STABLE_NONCM)) == diagram(DIAG_STABLE_NONCM)
    principal = ek_betti(parse_ideal("a^3", 2))
    assert principal.entries() == {(0, 0): 1, (1, 3): 1}


def test_ek_betti_rejects_unstable_ideals():
    I = parse_ideal("a^2; b^2", 2)
    with pytest.raises(NotStableError):
        ek_betti(I)


def test_greedy_stages_reference_pipeline():
    stages = greedy_stages(diagram(LEX_1_3_6_7_3_1))
    assert len(stages) == 2
    assert stages[0] == diagram(MID_1_3_6_7_3_1)
    assert stages[1] == diagram(MIN_1_3_6_7_3_1)
    assert greedy_minimize(diagram(LEX_1_3_6_7_3_1)) == stages[1]


def test_greedy_minimize_reference_cases():
    assert greedy_minimize(diagram(LEX_1_3_6_9_9_6_2)) == diagram(MIN_1_3_6_9_9_6_2)
    assert greedy_minimize(diagram(LEX_1_3_6_10_15_15_11)) == diagram(MIN_1_3_6_10_15_15_11)
    M = diagram(MIN_1_3_6_7_3_1)
    assert greedy_minimize(M) == M


def test_greedy_on_hard_degree_nine_case():
    D = diagram(LEX_1_3_6_10_15_17_17_17_15_10)
    stages = greedy_stages(D)
    assert stages[0] == diagram(MID_1_3_6_10_15_17_17_17_15_10)
    final = greedy_minimize(D)
    assert max_shifts(final) == (5, 11, 12)
    assert hilbert_from_diagram(final) == hilbert_from_diagram(D)


def test_greedy_preserves_hilbert_function_and_column_alternation():
    for H in enumerate_o_sequences(3, 4):
        D = ek_betti(lex_ideal(H, 3))
        M = greedy_minimize(D)
        assert hilbert_from_diagram(M) == H
        for i in range(1, 3):
            cols = M.columns()
            assert not set(cols[i]) & set(cols[i + 1])


def test_greedy_with_single_variable_is_noop():
    D = BettiDiagram(1, {(0, 0): 1, (1, 2): 1})
    assert greedy_stages(D) == []
    assert greedy_minimize(D) == D


def test_shift_extraction():
    assert max_shifts(diagram(MIN_1_3_6_9_9_6_2)) == (4, 7, 9)
    assert min_shifts(diagram(MIN_1_3_6_9_9_6_2)) == (3, 6, 9)
    assert max_shifts(diagram(MIN_1_3_6_7_3_1)) == (4, 5, 8)
    assert min_shifts(diagram(MIN_1_3_6_7_3_1)) == (3, 5, 6)
    assert max_shifts(diagram(MIN_1_3_6_10_15_15_11)) == (5, 8, 9)
    assert min_shifts(diagram(MIN_1_3_6_10_15_15_11)) == (5, 6, 7)
    assert max_shifts(BettiDiagram(1, {(0, 0): 1})) == ()
    with pytest.raises(MalformedDiagramError):
        max_shifts(BettiDiagram(3, {(0, 0): 1, (2, 3): 1}))


def test_purity_predicates():
    M = diagram(MIN_1_3_6_9_9_6_2)
    assert not is_pure(M)
    assert is_quasipure(M)
    assert is_pure(CI_5_5_5)
    assert is_quasipure(CI_5_5_5)
    assert is_quasipure(diagram(MIN_1_3_6_7_3_1))
    assert not is_quasipure(diagram(DIAG_TRUNC_CERT))
    assert not is_quasipure(BettiDiagram(3, {(0, 0): 1, (2, 3): 1}))


def test_hilbert_from_diagram_reference_cases():
    assert hilbert_from_diagram(diagram(LEX_1_3_6_9_9_6_2)) == \
        HilbertFunction((1, 3, 6, 9, 9, 6, 2))
    assert hilbert_from_diagram(diagram(MIN_1_3_6_9_9_6_2)) == \
        HilbertFunction((1, 3, 6, 9, 9, 6, 2))
    assert hilbert_from_diagram(diagram(LEX_1_3_6_10_15_17_17_17_15_10)) == \
        HilbertFunction((1, 3, 6, 10, 15, 17, 17, 17, 15, 10))
    assert hilbert_from_diagram(BettiDiagram(1, {(0, 0): 1, (1, 1): 1})) == \
        HilbertFunction((1,))


def test_hilbert_from_diagram_rejects_inconsistent_diagrams():
    with pytest.raises(InconsistentDiagramError):
        hilbert_from_diagram(BettiDiagram(2, {(0, 0): 1, (1, 3): 1}))
    with pytest.raises(InconsistentDiagramError):
        hilbert_from_diagram(BettiDiagram(2, {(0, 0): 1, (1, 1): 2}))
    gap = BettiDiagram(2, {(0, 0): 1, (1, 1): 2, (2, 2): 2, (1, 3): 2, (2, 4): 1})
    with pytest.raises(InconsistentDiagramError):
        hilbert_from_diagram(gap)
    negative = BettiDiagram(
        2, {(0, 0): 1, (1, 1): 1, (1, 2): 2, (2, 3): 4, (1, 4): 3, (2, 5): 1}
    )
    with pytest.raises(InconsistentDiagramError):
        hilbert_from_diagram(negative)


def test_growth_filter_reference_cases():
    assert not _growth_ok(diagram(DIAG_STABLE_NONCM).columns())
    assert _growth_ok(BettiDiagram(1, {(0, 0): 1}).columns())
    assert _growth_ok(BettiDiagram(3, {(0, 0): 1, (2, 3): 1}).columns())
    for H in enumerate_o_sequences(3, 4):
        assert _growth_ok(ek_betti(lex_ideal(H, 3)).columns())
