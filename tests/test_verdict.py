"""Tests for bound verdicts, realizability filters, and the classification pipeline."""

import gc
from collections import Counter
from itertools import product
from math import factorial, inf, prod

import pytest
from hypothesis import example, given, settings, strategies as st

from multbound import (
    BettiDiagram,
    ClassifyOptions,
    NotAdmissibleError,
    classify,
    enumerate_o_sequences,
    greedy_minimize,
    ek_betti,
    hilbert_from_diagram,
    lex_columns,
    lex_ideal,
    lower_bound_holds,
    max_shifts,
    upper_bound_holds,
)
from multbound import scanner, verdict
from multbound.hilbert import _enumerate_value_tuples
from multbound.scanner import _greedy_step
from multbound.verdict import (
    DEFAULT_DFS_CAP,
    DEFAULT_FILTERS,
    _best_row,
    _classify_values,
    _degree_options,
    _entry_caps,
    _filter_state_failures,
    _greedy,
    _level_classes,
    _move,
    _path_diagram,
    _violating_search,
)

from families import block_row, families, families_around, o_sequences, walk_state
from goldens import (
    MIN_1_3_6_10_15_15_11,
    MIN_1_3_6_7_3_1,
    MIN_1_3_6_9_9_6_2,
    diagram,
)
from leaves import (
    _evans_richert_witness,
    _generator_count_ok,
    _violating_diagrams,
    diagram_filter_failures,
    option_best,
    path_columns,
    reference_child_state,
    reference_evidence,
)

H_HARD = (1, 3, 6, 10, 15, 17, 17, 17, 15, 10)


def test_upper_bound_reference_verdicts():
    v = upper_bound_holds(21, (4, 5, 8), 3)
    assert v.holds and (v.lhs, v.rhs) == (126, 160)
    assert str(v) == "upper bound HOLDS (126 <= 160)"
    v = upper_bound_holds(61, (5, 8, 9), 3)
    assert not v.holds and (v.lhs, v.rhs) == (366, 360)
    assert str(v) == "upper bound FAILS (366 > 360)"
    v = upper_bound_holds(111, (5, 11, 12), 3)
    assert not v.holds and (v.lhs, v.rhs) == (666, 660)
    v = upper_bound_holds(36, (4, 7, 9), 3)
    assert v.holds and (v.lhs, v.rhs) == (216, 252)
    assert (v.e, v.shifts, v.codim, v.kind) == (36, (4, 7, 9), 3, "upper")


def test_lower_bound_reference_verdicts():
    v = lower_bound_holds(36, (3, 6, 9), 3)
    assert v.holds and (v.lhs, v.rhs) == (162, 216)
    assert str(v) == "lower bound HOLDS (162 <= 216)"
    v = lower_bound_holds(21, (3, 5, 6), 3)
    assert v.holds and (v.lhs, v.rhs) == (90, 126)
    assert v.kind == "lower"


def test_bound_input_validation():
    with pytest.raises(ValueError):
        upper_bound_holds(21, (4, 5), 3)
    with pytest.raises(ValueError):
        upper_bound_holds(21, (4, 5, 0), 3)
    with pytest.raises(ValueError):
        lower_bound_holds(21, (3, 5, 6, 7), 3)


def test_evans_richert_reference_cases():
    assert _evans_richert_witness(diagram(MIN_1_3_6_10_15_15_11).columns()) == (3, 7)
    assert _evans_richert_witness(diagram(MIN_1_3_6_7_3_1).columns()) is None
    assert _evans_richert_witness(diagram(MIN_1_3_6_9_9_6_2).columns()) is None
    assert _evans_richert_witness(BettiDiagram(1, {(0, 0): 1, (1, 1): 1}).columns()) is None


def test_generator_count_filter():
    def gen_ok(D, n):
        return _generator_count_ok(D.columns(), n)

    assert gen_ok(diagram(MIN_1_3_6_9_9_6_2), 3)
    ci = BettiDiagram(3, {(0, 0): 1, (1, 5): 3, (2, 10): 3, (3, 15): 1})
    assert gen_ok(ci, 3)
    mixed = BettiDiagram(
        3, {(0, 0): 1, (1, 2): 2, (1, 3): 1, (2, 4): 2, (2, 5): 1, (3, 7): 1}
    )
    assert not gen_ok(mixed, 3)
    bad_top = BettiDiagram(
        3, {(0, 0): 1, (1, 2): 2, (1, 3): 1, (2, 4): 1, (2, 5): 2, (3, 8): 1}
    )
    assert not gen_ok(bad_top, 3)
    assert not gen_ok(BettiDiagram(3, {(0, 0): 1, (1, 2): 2, (2, 3): 1}), 3)
    assert gen_ok(BettiDiagram(2, {(0, 0): 1, (1, 2): 2, (2, 4): 1}), 2)
    assert not gen_ok(BettiDiagram(2, {(0, 0): 1, (1, 2): 1}), 2)
    assert not gen_ok(ci, 4)


def test_classify_bound_holds_case():
    res = classify((1, 3, 6, 7, 3, 1), 3)
    assert res.status == "BOUND_HOLDS"
    assert res.reason == ""
    assert (res.e, res.shifts, res.lhs, res.rhs) == (21, (4, 5, 8), 126, 160)
    assert res.greedy == diagram(MIN_1_3_6_7_3_1)
    assert res.violating == 0 and res.nodes == 0
    assert res.survivors == [] and res.filter_histogram == {}


def test_classify_eliminated_by_syzygy_filter():
    res = classify((1, 3, 6, 10, 15, 15, 11), 3)
    assert res.status == "ELIMINATED"
    assert res.reason == "er"
    assert (res.e, res.shifts, res.lhs, res.rhs) == (61, (5, 8, 9), 366, 360)
    assert res.greedy == diagram(MIN_1_3_6_10_15_15_11)
    assert res.violating >= 1
    assert not res.cap_exceeded
    assert sum(res.filter_histogram.values()) == res.violating


def test_classify_hard_case_needs_four_generator_obstruction():
    res = classify(H_HARD, 3)
    assert res.status == "ELIMINATED"
    assert res.reason == "aci,er"
    assert (res.e, res.shifts, res.lhs, res.rhs) == (111, (5, 11, 12), 666, 660)
    assert res.violating == 56
    assert res.filter_histogram == {"aci": 28, "er+aci": 28}
    assert res.survivors == []


def test_classify_hard_case_unresolved_without_aci():
    res = classify(H_HARD, 3, ClassifyOptions(filters=("er", "gen")))
    assert res.status == "UNRESOLVED"
    assert res.reason == "28 diagrams pass all filters"
    assert len(res.survivors) == 28
    lhs = res.lhs
    for D in res.survivors:
        assert hilbert_from_diagram(D).values == H_HARD
        prod = 1
        for s in max_shifts(D):
            prod *= s
        assert prod < lhs


def test_classify_with_no_filters_keeps_every_violating_diagram():
    res = classify(H_HARD, 3, ClassifyOptions(filters=()))
    assert res.status == "UNRESOLVED"
    assert res.reason == "56 diagrams pass all filters"
    assert res.filter_histogram == {}


def test_classify_respects_dfs_cap():
    res = classify(H_HARD, 3, ClassifyOptions(dfs_cap=10))
    assert res.status == "UNRESOLVED"
    assert res.reason == "CAP_EXCEEDED"
    assert res.cap_exceeded
    assert res.nodes == 11


def test_classify_finishes_a_hard_n4_function_below_the_default_cap():
    # A search that prunes only on already-final max shifts needs more than
    # DEFAULT_DFS_CAP nodes here; the exact bound enters only violating branches.
    res = classify((1, 4, 10, 10, 8, 4), 4)
    assert not res.cap_exceeded
    assert res.violating == 30
    assert res.nodes < 1_000
    assert res.status == "UNRESOLVED"
    assert res.reason == "30 diagrams pass all filters"


def _reachable_vectors(vec, i=0):
    """Vectors reachable from vec by cancelling pairs (i, i+1) in ascending order, counts from 0 up."""
    if i >= len(vec) - 1:
        yield vec
        return
    for c in range(min(vec[i], vec[i + 1]) + 1):
        yield from _reachable_vectors(vec[:i] + (vec[i] - c, vec[i + 1] - c) + vec[i + 2:], i + 1)


def _brute_force_violating(cols, lhs):
    """Every per-degree choice with no empty column and max-shift product below lhs, unpruned."""
    n = len(cols) - 1
    degrees = sorted({j for col in cols[1:] for j in col}, reverse=True)
    per_degree = [
        list(_reachable_vectors(tuple(col.get(j, 0) for col in cols[1:]))) for j in degrees
    ]
    found = []
    for choice in product(*per_degree):
        # Degrees descend, so a column's max shift is the first degree where it is nonzero.
        maxima = [next((j for j, vec in zip(degrees, choice) if vec[i]), None) for i in range(n)]
        if None not in maxima and prod(maxima) < lhs:
            found.append([dict(cols[0])] + [
                {j: vec[i] for j, vec in zip(degrees, choice) if vec[i]} for i in range(n)
            ])
    return found


# Exceptions of the example families. Random families rarely hold one (none
# of 30 did), so families around a few with small products are drawn too.
BRUTE_FORCE_EXCEPTIONS = {(3, 6, (1, 3)): 5, (4, 4, (1,)): 3}
SMALL_EXCEPTIONS = [
    (3, (1, 3, 4, 4, 3)), (3, (1, 3, 6, 7, 6, 2)), (3, (1, 3, 6, 10, 11, 9, 3)), (4, (1, 4, 7, 9, 8)),
]


@pytest.mark.parametrize("n, socle_max, prefix", [(3, 6, (1, 3)), (4, 4, (1,))])
def test_violating_search_equals_unpruned_brute_force(n, socle_max, prefix):
    _assert_violating_search_equals_brute_force((n, socle_max, prefix))


@settings(max_examples=30, deadline=None)
@given(st.one_of(families({2: 6, 3: 3, 4: 1}, max_prefix=4), families_around(SMALL_EXCEPTIONS)))
def test_violating_search_equals_unpruned_brute_force_on_random_families(family):
    _assert_violating_search_equals_brute_force(family)


def _assert_violating_search_equals_brute_force(family):
    n, socle_max, prefix = family
    exceptions = 0
    for H in enumerate_o_sequences(n, socle_max, prefix):
        res = classify(H, n)
        if res.status == "BOUND_HOLDS":
            continue
        exceptions += 1
        cols = lex_columns(H, n)
        found = []
        stats = _violating_diagrams(
            cols, res.lhs, DEFAULT_DFS_CAP, lambda state, path: found.append(path_columns(path, n)),
        )
        assert not stats["cap_exceeded"]
        assert found == _brute_force_violating(cols, res.lhs)
        assert len(found) == res.violating
        # One cancellation profile per diagram: no diagram is reached twice.
        assert len({tuple(tuple(sorted(col.items())) for col in d) for d in found}) == len(found)
    assert exceptions == BRUTE_FORCE_EXCEPTIONS.get(family, exceptions)


FILTER_SUBSETS = [(), *((name,) for name in DEFAULT_FILTERS), DEFAULT_FILTERS]


def _evidence(res):
    return {
        "status": res.status,
        "reason": res.reason,
        "filter_histogram": res.filter_histogram,
        "survivors": res.survivors,
        "violating": res.violating,
        "nodes": res.nodes,
        "degenerate": res.degenerate,
        "cap_exceeded": res.cap_exceeded,
    }


# Exceptions of n=3 prefix 1,3 socle <= 9 and of n=4 prefix 1,4 socle <= 5, some with leaves
# that pass er or sit one below its threshold: random families rarely hold one.
EXCEPTIONS = [(3, vals) for vals in [
    (1, 3, 4, 4, 3), (1, 3, 6, 7, 6, 2), (1, 3, 6, 8, 9, 9, 7, 2), (1, 3, 6, 10, 11, 9, 3),
    (1, 3, 6, 10, 12, 12, 9, 1), (1, 3, 6, 10, 15, 15, 11), (1, 3, 6, 10, 15, 16, 15, 10),
    (1, 3, 6, 10, 15, 21, 21, 15), (1, 3, 6, 10, 15, 21, 22, 21, 15), H_HARD,
]] + [(4, vals) for vals in [
    (1, 4, 7, 8, 4), (1, 4, 7, 9, 8), (1, 4, 10, 9, 5), (1, 4, 10, 10, 8, 4), (1, 4, 10, 20, 17, 9),
]]


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(families({2: 5, 3: 3, 4: 2}), families_around(EXCEPTIONS)),
    st.sampled_from([DEFAULT_DFS_CAP, 1, 9, 60]),
)
@example((3, 6, (1, 3)), DEFAULT_DFS_CAP)
@example((4, 4, (1,)), DEFAULT_DFS_CAP)
def test_filter_state_gives_the_filter_verdicts_of_the_leaf_maps(family, cap):
    n, socle_max, prefix = family
    for vals in _enumerate_value_tuples(n, socle_max, prefix):
        if factorial(n) * sum(vals) <= prod(_greedy(vals, n)[2]):
            continue
        for filters in FILTER_SUBSETS:
            res = _classify_values(vals, n, ClassifyOptions(filters, cap))
            expected = reference_evidence(vals, n, filters, cap)
            assert _evidence(res) == expected, (vals, filters)
            assert res.nodes == cap + 1 if res.cap_exceeded else res.nodes <= cap


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(families({2: 5, 3: 3, 4: 2}), families_around(EXCEPTIONS)),
    st.sampled_from(FILTER_SUBSETS),
    st.data(),
)
def test_memoized_search_gives_the_tree_walks_evidence_at_every_cap(family, filters, data):
    # Caps next to the tree's node total T, and inside the tree, where the
    # search has to split memoized subtrees to stop at the same node.
    n, socle_max, prefix = family
    for vals in _enumerate_value_tuples(n, socle_max, prefix):
        if factorial(n) * sum(vals) <= prod(_greedy(vals, n)[2]):
            continue
        total = reference_evidence(vals, n, filters, DEFAULT_DFS_CAP)["nodes"]
        cap = data.draw(
            st.one_of(st.sampled_from([1, max(total - 1, 1), total, total + 1]), st.integers(1, total)),
            label=f"cap for {vals}",
        )
        res = _classify_values(vals, n, ClassifyOptions(filters, cap))
        assert _evidence(res) == reference_evidence(vals, n, filters, cap), (vals, filters, cap)


@st.composite
def search_inputs(draw):
    """(cols, lhs, cap): a lex diagram's column maps or random ones, an lhs up to above every product, a cap."""
    if draw(st.booleans()):
        n, vals = draw(o_sequences([2, 3, 4], 5))
        cols = lex_columns(vals, n)
    else:
        # Columns whose entries can all cancel: children that leave one empty are cut (degenerate).
        degrees = st.dictionaries(st.integers(1, 7), st.integers(1, 2), min_size=1, max_size=3)
        cols = [{0: 1}] + draw(st.lists(degrees, min_size=1, max_size=3))
    lhs = draw(st.integers(1, prod(max(col) for col in cols[1:]) + 1))
    return cols, lhs, draw(st.integers(1, 2_000))


def _state_failures(state):
    """A leaf verdict read off the filter state alone, as er's and growth's are."""
    er, _, late = state
    return ("er",) * any(count < i for i, count in enumerate(er, 2)) + ("growth",) * late


@settings(max_examples=100, deadline=None)
@given(search_inputs())
@example((lex_columns((1, 3, 4, 4, 3, 1), 3), 200, 2_000))  # one (level, U, state) under several q
@example(([{0: 1}, {2: 1}, {1: 2, 2: 2, 7: 2}, {3: 1, 7: 2}], 99, 2_000))  # a subtree with a degenerate cut, twice
# At degree 2 the options (7, 8, 5) and (6, 7, 5) share the class (5, 3, 2), which fails er,
# and (7, 3, 0) of the class (5, 3, 0) between them passes: the cap stops between the two,
# on that surviving leaf, node 15, which is read and built.
@example(([{0: 1}, {1: 3, 2: 7}, {2: 8, 3: 1}, {2: 5, 4: 1}], 99, 15))
# The same surviving leaf as node cap + 1: counted, not read, so not built.
@example(([{0: 1}, {1: 3, 2: 7}, {2: 8, 3: 1}, {2: 5, 4: 1}], 99, 14))
@example(([{0: 1}, {1: 1, 3: 7}, {3: 8}, {3: 1}], 99, 2_000))  # cut classes of several options each
def test_memoized_search_equals_the_tree_walk_for_any_columns_lhs_and_cap(inputs):
    # An lhs above n! * e lets more children fit, so that one (level, U,
    # state) is reached under several q = (lhs - 1) // pinned.
    cols, lhs, cap = inputs
    n = len(cols) - 1
    histogram, survivors = Counter(), []

    def visit(state, path):
        failed = _state_failures(state)
        if failed:
            histogram[failed] += 1
        else:
            survivors.append(BettiDiagram.from_columns(n, path_columns(path, n)))

    walk = _violating_diagrams(cols, lhs, cap, visit)
    expected = {**walk, "histogram": histogram, "survivors": survivors}
    assert _violating_search(cols, lhs, cap, _state_failures) == expected


@st.composite
def move_inputs(draw):
    """(n, state, U, token, mask) for a move in n = 1..7 variables.

    er[i-1] runs up to its cap i + 1 and gen up to n; for n = 3 gen is
    (column 1's degrees, up to four of them, or None; column 3's total up to
    2). Each vector entry runs up to its _entry_caps(n) cap plus 2, and the
    mask is the vector's support.
    """
    n = draw(st.integers(1, 7))
    er = tuple(draw(st.integers(0, i + 1)) for i in range(1, n))
    if n == 3:
        degrees = st.lists(st.integers(1, 12), max_size=4).map(tuple)
        gen, j = (draw(st.none() | degrees), draw(st.integers(0, 2))), draw(st.integers(1, 12))
    else:
        gen, j = draw(st.integers(0, n)), None
    vec = tuple(draw(st.integers(0, cap + 2)) for cap in _entry_caps(n))
    mask = sum(1 << i for i, count in enumerate(vec) if count)
    return n, (er, gen, draw(st.booleans())), draw(st.integers(0, (1 << n) - 1)), (j, vec), mask


@settings(max_examples=300, deadline=None)
@given(move_inputs())
@example((1, ((), 0, False), 1, (None, (3,)), 1))  # n = 1: er is empty
@example((1, ((), 1, True), 0, (None, (0,)), 0))
@example((2, ((1,), 1, False), 1, (None, (2, 0)), 1))  # column 2 stays empty: er[0] grows to its cap
@example((2, ((2,), 0, False), 3, (None, (1, 1)), 3))
@example((3, ((1, 2), ((4, 4, 3), 1), False), 2, (3, (1, 0, 2)), 5))  # a fourth degree; column 3's total at its cap
@example((3, ((0, 0), ((4, 4, 3), 0), False), 6, (3, (2, 0, 0)), 1))  # a fifth degree: gen's degrees become None
def test_generated_move_equals_the_loop_form_move(inputs):
    n, state, U, token, mask = inputs
    child = _move(n)(state, U, *token, mask)
    expected = reference_child_state(n, state, U, token, mask)
    # repr tells a bool late from an int one, and a tuple from a list.
    assert child == expected and repr(child) == repr(expected)


@pytest.mark.parametrize("n, H, survivors", [
    (3, (1, 3, 6, 10, 15, 21, 22, 21, 15), 8),
    (3, (1, 3, 6, 10, 15, 15, 11), 0),
    (4, (1, 4, 10, 10, 8, 4), 30),
])
def test_a_search_leaves_no_cyclic_garbage(n, H, survivors):
    # The search's memo tables and survivor list are freed when it returns,
    # not left in reference cycles for the cyclic collector.
    classify(H, n)  # fill the process-wide setup caches and the generated move first
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        res = classify(H, n)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
    assert len(res.survivors) == survivors


@settings(max_examples=100, deadline=None)
@given(o_sequences([1, 2, 3], 10, least=1))
@example((3, H_HARD))  # 4,164,624 tree nodes at this lhs
@example((3, (1, 3, 6, 10, 15, 21, 28, 36, 45, 41, 29)))
@example((2, (1, 2, 3, 3, 2, 1, 0)))
def test_lex_searches_in_at_most_three_variables_cut_no_degenerate_child(family):
    # A child is cut as degenerate only when every diagram below it has an
    # empty column, so it is enough that no reachable diagram has one. Column
    # 1's lowest entry never cancels: column 2 starts at least one degree
    # higher. Column n's entry at s + n, s the socle degree, comes from the
    # minimal generator x_n^(s+1) and column n - 1 ends at or below s + n - 1,
    # so it never cancels either. For n = 3 an empty column 2 would make the
    # Euler characteristic 1 - beta_1 - beta_3 < 0, but cancelling keeps the
    # numerator H(t)(1 - t)^3, which is 0 at t = 1. An lhs above every product
    # enters every child that is not cut, and failing every leaf builds no
    # survivors.
    n, vals = family
    cols = lex_columns(vals, n)
    res = _violating_search(cols, 10 ** 30, 10 ** 30, lambda state: ("er",))
    assert res["degenerate"] == 0 and not res["cap_exceeded"], (n, vals)


@pytest.mark.parametrize("n, H, leaves", [
    (4, (1, 4, 10, 20, 35, 56, 84, 120, 165, 220, 200, 150, 90, 30), 227_539_750_112_880_605_769_600),
    (5, (1, 5, 15, 35, 70, 126, 150, 100, 40), 8_867_037_024_882_207_518_911_200),
    (6, (1, 6, 21, 56, 126, 100, 40), 138_770_840_281_090_425_408_000),
])
def test_summary_lanes_hold_counts_past_2_to_the_64(n, H, leaves):
    # An lhs above every product enters every child, so the tree is the
    # full product of the levels' options: sum over d of prod_{L < d} K_L
    # nodes and prod_L K_L leaves, K_L the number of options at level L.
    # Splitting the leaves on late fills two failed-filter lanes, each at
    # far more than 64 bits.
    cols = lex_columns(H, n)
    degrees = sorted({j for col in cols[1:] for j in col}, reverse=True)
    K = [sum(count for count, _, _ in _level_classes(tuple(col.get(j, 0) for col in cols[1:]), n)[0]) for j in degrees]
    res = _violating_search(cols, 10 ** 60, 10 ** 60, lambda state: ("growth",) if state[2] else ("er",))
    assert prod(K) == leaves > 2 ** 64
    assert res["nodes"] == sum(prod(K[:d]) for d in range(len(K) + 1))
    assert res["histogram"].total() == prod(K)
    assert set(res["histogram"]) == {("er",), ("growth",)}
    assert min(res["histogram"].values()) > 2 ** 64
    assert res["degenerate"] == 0 and not res["cap_exceeded"] and res["survivors"] == []


def test_a_seven_variable_lex_search_cuts_degenerate_children_as_the_tree_walk():
    # 1,7,8,4 is the first lex search seen with degenerate children; the
    # four-variable ones below have them too. The cut must count as the tree
    # walk does, also when the cap stops the search inside the tree.
    H = (1, 7, 8, 4)
    for cap, nodes, degenerate in ((DEFAULT_DFS_CAP, 10_148, 3_120), (1_000, 1_001, 308), (5_000, 5_001, 1_538)):
        res = _classify_values(H, 7, ClassifyOptions(DEFAULT_FILTERS, cap))
        assert (res.nodes, res.degenerate, res.cap_exceeded) == (nodes, degenerate, cap != DEFAULT_DFS_CAP)
        assert _evidence(res) == reference_evidence(H, 7, DEFAULT_FILTERS, cap), cap


@pytest.mark.parametrize("H, degenerate", [
    ((1, 4, 8, 12, 15, 16, 14, 9, 3), 294),
    ((1, 4, 8, 12, 15, 16, 14, 10, 4), 126),
    ((1, 4, 8, 12, 15, 16, 14, 10, 5), 180),
    ((1, 4, 10, 17, 23, 26, 24, 16, 5), 132),
    ((1, 4, 10, 18, 26, 32, 33, 27, 14), 60),
])
def test_a_greedy_diagram_with_an_empty_column_goes_to_the_search(H, degenerate):
    # The greedy diagram leaves a column empty, so no module has it: its shift
    # reads 0, as in the scan walk, and the search over the diagrams with
    # every column nonzero decides H. These are also four-variable searches
    # with degenerate children.
    res = classify(H, 4)
    assert 0 in res.shifts and res.rhs == 0 and res.lhs == factorial(4) * sum(H)
    assert (res.status, res.reason, res.degenerate) == ("ELIMINATED", "er,gen,growth", degenerate)
    assert _evidence(res) == reference_evidence(H, 4, DEFAULT_FILTERS, DEFAULT_DFS_CAP)


def _assert_greedy_is_the_validated_diagram(vals, n):
    # The classification builds its greedy diagram unchecked; it must be the
    # diagram BettiDiagram's validating constructor builds from the same columns.
    res = classify(vals, n)
    expected = BettiDiagram.from_columns(n, _greedy(vals, n)[1])
    assert res.greedy == expected and hash(res.greedy) == hash(expected), vals
    assert res.greedy.entries() == expected.entries() and res.greedy.to_text() == expected.to_text()
    assert res.to_record()["diagram"] == expected.to_machine()


@settings(max_examples=30, deadline=None)
@given(families({2: 6, 3: 4, 4: 2}, max_prefix=4))
def test_the_greedy_diagram_equals_the_validated_one_on_drawn_families(family):
    n, socle_max, prefix = family
    for vals in _enumerate_value_tuples(n, socle_max, prefix):
        _assert_greedy_is_the_validated_diagram(vals, n)


def test_the_greedy_diagram_equals_the_validated_one_on_empty_columns_and_the_flagship():
    empty_columns = [
        (1, 4, 8, 12, 15, 16, 14, 9, 3),
        (1, 4, 8, 12, 15, 16, 14, 10, 4),
        (1, 4, 8, 12, 15, 16, 14, 10, 5),
        (1, 4, 10, 17, 23, 26, 24, 16, 5),
        (1, 4, 10, 18, 26, 32, 33, 27, 14),
    ]
    for vals in empty_columns:
        assert 0 in classify(vals, 4).shifts
        _assert_greedy_is_the_validated_diagram(vals, 4)
    flagship = _family_exceptions(3, 9, (1, 3))
    assert len(flagship) == 197
    for vals in flagship:
        _assert_greedy_is_the_validated_diagram(vals, 3)


def test_entry_caps():
    assert [_entry_caps(n) for n in range(1, 6)] == [(1,), (2, 1), (5, 3, 2), (4, 3, 4, 1), (5, 3, 4, 5, 1)]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(st.integers(0, 12), min_size=n, max_size=n)))
@example([7])  # n = 1: no pairs
@example([0, 0, 0, 0])
@example([9, 8, 7, 9, 6])  # every entry above its cap
# Degree vectors of scan(4, 5, (1, 4, 10, 16, 20)), whose leading runs of
# cancellations at both caps are long: 16 values at the first pair; none at
# the first pair and 19 at the second; 7 at the third.
@example([19, 28, 8, 1])
@example([0, 54, 24, 2])
@example([0, 0, 51, 7])
@example([40, 31, 27, 35, 12])  # n = 5, every entry far above its cap
def test_option_classes_count_the_options_by_support_and_capped_entries(start):
    n, start = len(start), tuple(start)
    assert _class_counter(start, n) == _option_counter(start, n)


def _class_counter(start, n):
    """_level_classes's classes at one degree as a Counter by (support mask, capped vector)."""
    return Counter({(mask, capped): count for count, capped, mask in _level_classes(start, n)[0]})


def _option_counter(start, n):
    """_degree_options's vectors at one degree, counted by brute force by (support mask, capped vector)."""
    caps = _entry_caps(n)
    cols = [{0: 1}] + [{5: count} for count in start]
    return Counter((mask, tuple(map(min, vec, caps))) for vec, mask in _degree_options(cols, 5))



@pytest.mark.parametrize("n, socle_max, prefix", [(4, 5, (1, 4)), (5, 3, (1, 5))])
def test_option_classes_on_the_degree_vectors_of_real_exceptions(n, socle_max, prefix):
    # Real lex columns have entries far above the drawn ones, so long runs
    # fold at every pair, and n = 5 reaches every one of its caps.
    exceptions = [vals for chunk in scanner._chunks(n, socle_max, prefix, 4096) for vals in chunk[2]]
    assert len(exceptions) == {4: 20, 5: 2}[n]
    for vals in exceptions:
        cols = lex_columns(vals, n)
        for j in sorted({j for col in cols[1:] for j in col}):
            start = tuple(col.get(j, 0) for col in cols[1:])
            assert _class_counter(start, n) == _option_counter(start, n), (vals, j)


SETUP_FAMILIES = [(3, 7, (1, 3)), (4, 5, (1, 4)), (5, 3, (1, 5))]


def _family_exceptions(n, socle_max, prefix):
    return [vals for chunk in scanner._chunks(n, socle_max, prefix, 4096) for vals in chunk[2]]


def _cached_setup(cols):
    # The search's per-level setup from the process-wide helpers: the class
    # triples and masks, and the best rows down to the base row.
    n = len(cols) - 1
    degrees = sorted({j for col in cols[1:] for j in col}, reverse=True)
    levels = [_level_classes(tuple(col.get(j, 0) for col in cols[1:]), n) for j in degrees]
    best = [(1,) + (inf,) * ((1 << n) - 1)]
    for j, (_, masks, _) in zip(reversed(degrees), reversed(levels)):
        best.insert(0, _best_row(n, j, masks, best[0]))
    return degrees, levels, best


@pytest.mark.parametrize("n, socle_max, prefix", SETUP_FAMILIES)
def test_the_setup_caches_never_change_a_classification(n, socle_max, prefix):
    # The classes and best rows are shared across searches: classifying a
    # family's exceptions in reverse, or after emptying both caches, must
    # give the records of the forward pass.
    exceptions = _family_exceptions(n, socle_max, prefix)
    assert len(exceptions) == {3: 21, 4: 20, 5: 2}[n]
    forward = [classify(vals, n).to_record() for vals in exceptions]
    hits = _level_classes.cache_info().hits, _best_row.cache_info().hits
    backward = [classify(vals, n).to_record() for vals in reversed(exceptions)]
    assert backward[::-1] == forward
    # The reverse pass found its setup in the caches.
    assert _level_classes.cache_info().hits > hits[0] and _best_row.cache_info().hits > hits[1]
    _level_classes.cache_clear()
    _best_row.cache_clear()
    assert [classify(vals, n).to_record() for vals in exceptions] == forward
    # A degree's classes depend on its column vector and n only: one entry per vector.
    vectors = {
        tuple(col.get(j, 0) for col in cols[1:])
        for cols in map(lex_columns, exceptions, [n] * len(exceptions))
        for j in {j for col in cols[1:] for j in col}
    }
    assert _level_classes.cache_info().currsize == len(vectors) == {3: 79, 4: 112, 5: 14}[n]
    # The shared values are immutable, so no search can change another's.
    for vals in exceptions:
        _, levels, best = _cached_setup(lex_columns(vals, n))
        for classes, masks, _ in levels:
            assert type(classes) is tuple and type(masks) is frozenset
            assert all(type(triple) is tuple and type(triple[1]) is tuple for triple in classes)
        assert all(type(row) is tuple for row in best)


@pytest.mark.parametrize("n, socle_max, prefix", SETUP_FAMILIES)
def test_cached_best_rows_equal_the_rows_built_from_the_options(n, socle_max, prefix):
    for vals in _family_exceptions(n, socle_max, prefix):
        cols = lex_columns(vals, n)
        degrees, levels, best = _cached_setup(cols)
        reference = option_best(n, degrees, [_degree_options(cols, j) for j in degrees])
        assert best == [tuple(row) for row in reference], vals
        # Each level's classes are its options, counted by support and capped entries.
        for j, (classes, masks, total) in zip(degrees, levels):
            start = tuple(col.get(j, 0) for col in cols[1:])
            assert Counter({(mask, capped): count for count, capped, mask in classes}) == _option_counter(start, n)
            assert masks == {mask for _, mask in _degree_options(cols, j)}
            assert total == len(_degree_options(cols, j))


def test_a_search_without_survivors_or_cap_hit_never_lists_the_options(monkeypatch):
    # The classes carry the whole search: the options, in order, are listed
    # only to build survivors or to stop at the cap.
    listed = []

    def degree_options(cols, j):
        listed.append(j)
        return _degree_options(cols, j)

    monkeypatch.setattr(verdict, "_degree_options", degree_options)
    H = (1, 4, 10, 16, 20, 16)
    res = classify(H, 4)
    assert (res.status, res.reason, res.nodes, res.violating) == ("ELIMINATED", "er", 39_754, 9_792)
    assert listed == []
    assert _evidence(res) == reference_evidence(H, 4, DEFAULT_FILTERS, DEFAULT_DFS_CAP)
    res = classify(H, 4, ClassifyOptions(dfs_cap=20_000))
    assert res.cap_exceeded and listed
    assert _evidence(res) == reference_evidence(H, 4, DEFAULT_FILTERS, 20_000)


@pytest.mark.parametrize("n, vals", EXCEPTIONS)
def test_memoized_search_builds_every_violating_diagram_in_tree_order(n, vals):
    # With no filters every violating diagram survives, so the survivors are
    # the tree walk's leaves in order, also when the cap stops both halfway.
    lex_cols, _, _ = _greedy(vals, n)
    lhs = factorial(n) * sum(vals)
    total = _violating_diagrams(lex_cols, lhs, DEFAULT_DFS_CAP, lambda state, path: None)["nodes"]
    for cap in (total, total - 1, total // 2):
        leaves = []
        _violating_diagrams(
            lex_cols, lhs, cap,
            lambda state, path: leaves.append(BettiDiagram.from_columns(n, path_columns(path, n))),
        )
        res = classify(vals, n, ClassifyOptions(filters=(), dfs_cap=cap))
        assert res.survivors == leaves and res.violating == len(leaves), (vals, cap)
        assert res.filter_histogram == {}


def test_memoized_search_counts_a_three_million_node_tree_exactly():
    # The tree has 3,006,130 nodes but 29 distinct subtrees, so the search
    # adds memoized subtrees up where the tree walk visits every node.
    H = (1, 4, 10, 16, 21, 22, 17)
    res = classify(H, 4, ClassifyOptions(dfs_cap=3_006_130))
    assert (res.status, res.reason) == ("ELIMINATED", "er")
    assert (res.nodes, res.violating, res.cap_exceeded) == (3_006_130, 893_376, False)
    assert res.filter_histogram == {"er": 893_376} and res.degenerate == 0
    res = classify(H, 4, ClassifyOptions(dfs_cap=3_006_129))
    assert (res.status, res.reason) == ("UNRESOLVED", "CAP_EXCEEDED")
    assert (res.nodes, res.violating, res.cap_exceeded) == (3_006_130, 893_375, True)
    assert res.filter_histogram == {"er": 893_375} and res.degenerate == 0
    # The smallest caps stop the descent at the root and just below it.
    for cap in (1, 2, 1_000):
        res = classify(H, 4, ClassifyOptions(dfs_cap=cap))
        assert res.nodes == cap + 1 and res.cap_exceeded
        assert _evidence(res) == reference_evidence(H, 4, DEFAULT_FILTERS, cap), cap


@settings(max_examples=100, deadline=None)
@given(families({1: 4, 2: 4, 3: 2, 4: 1}, max_prefix=4))
@example((3, 4, (1, 3)))  # holds the complete intersections 1,3,3,1 and 1,3,4,3,1
@example((3, 5, (1, 3, 4, 4, 3, 1)))  # one (state, U, vec) move at two degrees: n = 3 keys on the degree
def test_filter_state_decides_every_reachable_diagram_as_its_maps(family):
    # lhs far above every product: reachable diagrams that fail growth too, 5,000 nodes per function.
    n, socle_max, prefix = family
    for vals in _enumerate_value_tuples(n, socle_max, prefix):
        def visit(state, path):
            cols = path_columns(path, n)
            expected = diagram_filter_failures(cols, vals, n, DEFAULT_FILTERS, {})
            assert _filter_state_failures(state, vals, n, DEFAULT_FILTERS) == expected, (vals, path)
            # Cancellation keeps the numerator, which the three-generator gen verdict relies on.
            assert hilbert_from_diagram(_path_diagram(n, path)).values == vals

        _violating_diagrams(lex_columns(vals, n), 10**30, 5_000, visit)


def _count_built_diagrams(monkeypatch):
    calls = []
    real = verdict._path_diagram

    def counted(n, path):
        calls.append(path)
        return real(n, path)

    monkeypatch.setattr(verdict, "_path_diagram", counted)
    return calls


def test_four_generator_leaves_take_the_aci_verdict_from_the_state(monkeypatch):
    # Every violating diagram of H_HARD has four generators in one degree.
    calls = _count_built_diagrams(monkeypatch)
    res = classify(H_HARD, 3)
    assert (res.status, res.reason) == ("ELIMINATED", "aci,er")
    assert res.filter_histogram == {"aci": 28, "er+aci": 28}
    assert calls == []
    assert _evidence(res) == reference_evidence(H_HARD, 3, DEFAULT_FILTERS, DEFAULT_DFS_CAP)
    # Without aci half of them survive, and only those are built.
    res = classify(H_HARD, 3, ClassifyOptions(filters=("er", "gen")))
    assert len(res.survivors) == len(calls) == 28
    assert _evidence(res) == reference_evidence(H_HARD, 3, ("er", "gen"), DEFAULT_DFS_CAP)


def test_three_generator_leaves_take_the_gen_verdict_from_the_state(monkeypatch):
    # Three generators pass gen only in the complete-intersection shape.
    calls = _count_built_diagrams(monkeypatch)
    H = (1, 3, 6, 7, 6, 2)
    res = classify(H, 3)
    assert (res.status, res.reason) == ("ELIMINATED", "er,gen")
    assert res.filter_histogram == {"er+gen": 3}
    assert calls == []
    assert _evidence(res) == reference_evidence(H, 3, DEFAULT_FILTERS, DEFAULT_DFS_CAP)
    res = classify(H, 3, ClassifyOptions(filters=("aci", "growth")))
    assert len(res.survivors) == len(calls) == 3


# Each n has its own generated kernels, so each n is drawn; n = 5 stays shallow.
WALK_FAMILIES = st.one_of(families({1: 6, 2: 4, 3: 2, 4: 2}), families({5: 1}, max_prefix=3))


def test_greedy_step_is_generated_once_per_n():
    # Generating the kernels costs about as much as a whole four-variable scan.
    assert _greedy_step(4) is _greedy_step(4)


@settings(max_examples=40, deadline=None)
@given(WALK_FAMILIES)
@example((5, 4, (1, 5, 15)))  # drawn n = 5 families are small; this one has 1,094 functions
def test_greedy_step_and_leaf_family_loop_give_the_greedy_max_shifts(family):
    # Each function's state is stepped down from the root along its prefixes
    # (walk_state), independent of the scan walk's stack and family cache.
    n, socle_max, prefix = family
    _, leaves, _ = _greedy_step(n)
    for vals in _enumerate_value_tuples(n, socle_max, prefix):
        blocks, maxima, shifts, bound = walk_state(n, vals)
        assert shifts == _greedy(vals, n)[2], vals
        if len(vals) > socle_max:
            continue
        runs, *lo = leaves(vals, blocks, block_row(n, vals, bound), {})
        # lo is the runs' componentwise least vector.
        assert lo == [min(column) for column in zip(*(new for _, _, new in runs))], (vals, runs)
        # Maximal runs that cover 1..bound in order.
        assert [run[0] for run in runs] == [1] + [run[1] + 1 for run in runs[:-1]], (vals, runs)
        assert runs[-1][1] == bound and all(a[2] != b[2] for a, b in zip(runs, runs[1:])), (vals, runs)
        for first, last, new in runs:
            for v in range(first, last + 1):
                assert tuple(map(max, new, maxima)) == _greedy(vals + (v,), n)[2], vals + (v,)


def test_classify_rejects_non_o_sequences():
    with pytest.raises(NotAdmissibleError):
        classify((1, 3, 7), 3)
    with pytest.raises(NotAdmissibleError):
        classify((1, 4), 3)
    assert classify((1, 3, 0), 3).hf == (1, 3)


def test_classify_matches_direct_pipeline_on_small_sweep():
    for H in enumerate_o_sequences(3, 4):
        res = classify(H, 3)
        assert res.greedy == greedy_minimize(ek_betti(lex_ideal(H, 3)))
        assert res.shifts == max_shifts(res.greedy)
        assert res.lhs == 6 * res.e
        verdict = upper_bound_holds(res.e, res.shifts, 3)
        assert verdict.holds == (res.status == "BOUND_HOLDS")
        assert (verdict.lhs, verdict.rhs) == (res.lhs, res.rhs)


def test_classification_record_shape():
    rec = classify(H_HARD, 3).to_record()
    assert rec["hf"] == "1,3,6,10,15,17,17,17,15,10"
    assert rec["status"] == "ELIMINATED"
    assert rec["reason"] == "aci,er"
    assert rec["shifts"] == [5, 11, 12]
    assert (rec["lhs"], rec["rhs"]) == (666, 660)
    assert rec["diagram"] == classify(H_HARD, 3).greedy.to_machine()
    w = rec["witnesses"]
    assert w["violating_diagrams"] == 56
    assert w["filter_histogram"] == {"aci": 28, "er+aci": 28}
    assert w["survivors"] == []
    assert not w["cap_exceeded"]
    assert w["dfs_nodes"] > 0


def test_classify_rejects_unknown_filters():
    with pytest.raises(ValueError, match="unknown filters"):
        classify(H_HARD, 3, ClassifyOptions(filters=("er", "bogus")))


def test_classify_rejects_dfs_cap_below_one():
    for cap in (0, -5):
        with pytest.raises(ValueError, match="dfs_cap must be at least 1"):
            classify(H_HARD, 3, ClassifyOptions(dfs_cap=cap))


def test_default_options():
    opts = ClassifyOptions()
    assert opts.filters == DEFAULT_FILTERS == ("er", "gen", "aci", "growth")
    assert opts.dfs_cap == DEFAULT_DFS_CAP == 1_000_000
