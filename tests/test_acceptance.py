"""End-to-end acceptance checks, one test per guaranteed behavior."""

import ast
import copy
import pickle
import random
import time
from dataclasses import FrozenInstanceError, fields
from fractions import Fraction
from math import comb, factorial, prod
from pathlib import Path

import pytest

from multbound import (
    BettiDiagram,
    ClassifyOptions,
    HilbertFunction,
    Monomial,
    aci_obstruction,
    check_hf,
    ci_hilbert_function,
    classify,
    ek_betti,
    enumerate_o_sequences,
    greedy_minimize,
    greedy_stages,
    hilbert_from_diagram,
    is_pure,
    koszul_betti,
    lex_ideal,
    max_shifts,
    min_shifts,
    multiplicity,
    parse_ideal,
    quotient_hilbert_function,
    scan,
    truncate,
    truncation_analysis,
    upper_bound_holds,
    verify_truncation_rows,
)
from multbound.betti import columns_from_profile, greedy_columns
from multbound.monomial import lex_generator_profile

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
    LEX_1_3_6_10_15_15_11,
    LEX_1_3_6_10_15_17_17_17_15_10,
    LEX_1_3_6_7_3_1,
    LEX_1_3_6_9_9_6_2,
    MID_1_3_6_7_3_1,
    MIN_1_3_6_10_15_15_11,
    MIN_1_3_6_7_3_1,
    MIN_1_3_6_9_9_6_2,
    diagram,
)
from leaves import _evans_richert_witness, _growth_ok, _violating_diagrams, path_columns

H_HARD = (1, 3, 6, 10, 15, 17, 17, 17, 15, 10)

UNRESOLVED_HFS = {
    "1,3,6,10,15,21,22,21,15",
    "1,3,6,10,15,21,22,22,20,13",
    "1,3,6,10,15,21,22,22,20,14",
    "1,3,6,10,15,21,22,23,21,14",
    "1,3,6,10,15,21,23,22,20,13",
    "1,3,6,10,15,21,23,22,20,14",
    "1,3,6,10,15,21,23,24,22,15",
    "1,3,6,10,15,21,28,28,26,18",
    "1,3,6,10,15,21,28,29,27,19",
}


def test_lex_diagram_cancellation_and_bounds_for_1_3_6_9_9_6_2():
    start = time.monotonic()
    D = ek_betti(lex_ideal((1, 3, 6, 9, 9, 6, 2), 3))
    assert D == diagram(LEX_1_3_6_9_9_6_2)
    assert D.to_text() == diagram(LEX_1_3_6_9_9_6_2).to_text()
    M = greedy_minimize(D)
    assert M == diagram(MIN_1_3_6_9_9_6_2)
    e = multiplicity((1, 3, 6, 9, 9, 6, 2))
    assert e == 36
    assert Fraction(prod(min_shifts(M)), 6) == 27
    assert Fraction(prod(max_shifts(M)), 6) == 42
    _, text, code = check_hf("1,3,6,9,9,6,2")
    assert code == 0
    assert "bounds: 27 <= 36 <= 42" in text
    assert time.monotonic() - start < 1.0


def test_greedy_minimization_pipeline_for_1_3_6_7_3_1():
    start = time.monotonic()
    stages = greedy_stages(diagram(LEX_1_3_6_7_3_1))
    assert stages[0] == diagram(MID_1_3_6_7_3_1)
    assert stages[1] == diagram(MIN_1_3_6_7_3_1)
    assert max_shifts(stages[1]) == (4, 5, 8)
    verdict = upper_bound_holds(21, (4, 5, 8), 3)
    assert verdict.holds
    assert (verdict.lhs, verdict.rhs) == (126, 160)
    assert time.monotonic() - start < 1.0


def test_greedy_violation_and_syzygy_filter_for_1_3_6_10_15_15_11():
    start = time.monotonic()
    M = greedy_minimize(diagram(LEX_1_3_6_10_15_15_11))
    assert M == diagram(MIN_1_3_6_10_15_15_11)
    assert M.entry(1, 5) == 6 and M.entry(2, 6) == 1 and M.entry(3, 7) == 3
    assert M.entry(2, 8) == 18 and M.entry(3, 9) == 11
    verdict = upper_bound_holds(61, max_shifts(M), 3)
    assert not verdict.holds
    assert (verdict.lhs, verdict.rhs) == (366, 360)
    assert _evans_richert_witness(M.columns()) == (3, 7)
    assert time.monotonic() - start < 1.0


def test_four_generator_obstruction_for_1_3_6_10_15_17_17_17_15_10():
    start = time.monotonic()
    res = classify(H_HARD, 3)
    assert res.shifts == (5, 11, 12)
    assert (res.lhs, res.rhs) == (666, 660)
    assert ci_hilbert_function((5, 5, 5)).values == (
        1, 3, 6, 10, 15, 18, 19, 18, 15, 10, 6, 3, 1,
    )
    obs = aci_obstruction(H_HARD, 5)
    assert obs.status == "OBSTRUCTED"
    assert obs.difference[5:] == (1, 2, 1, 0, 0, 6, 3, 1)
    assert res.status == "ELIMINATED"
    assert "aci" in res.reason.split(",")
    assert time.monotonic() - start < 1.0


def test_full_family_scan_reproduces_exception_classification():
    start = time.monotonic()
    report = scan(3, 9, (1, 3), jobs=1, chunk_size=2048)
    assert report.status == "COMPLETE"
    assert report.counts["scanned"] > 677_000
    assert report.counts["scanned"] == 677_546
    assert len(report.exceptions) == 197
    assert report.counts["bound_holds"] == 677_349
    assert report.counts["eliminated"] == 188
    assert report.counts["unresolved"] <= 9
    assert report.counts["unresolved"] == 9
    assert report.counts["eliminated_by"] == {"er": 44, "er,gen": 109, "aci,er": 35}
    assert report.counts["violating_diagrams"] == 15_888
    assert report.counts["surviving_diagrams"] == 292
    by_hf = {rec["hf"]: rec for rec in report.exceptions}
    hard = by_hf["1,3,6,10,15,17,17,17,15,10"]
    assert hard["status"] == "ELIMINATED"
    assert "aci" in hard["reason"].split(",")
    unresolved = {r["hf"] for r in report.exceptions if r["status"] == "UNRESOLVED"}
    assert unresolved == UNRESOLVED_HFS
    # Without the four-generator obstruction the syzygy and generator-count
    # filters settle all but ten; the tenth is exactly the case above.
    plain = ClassifyOptions(filters=("er", "gen"))
    leftovers = set()
    for rec in report.exceptions:
        H = tuple(int(v) for v in rec["hf"].split(","))
        if classify(H, 3, plain).status == "UNRESOLVED":
            leftovers.add(rec["hf"])
    assert len(leftovers) == 10
    assert leftovers - unresolved == {"1,3,6,10,15,17,17,17,15,10"}
    assert time.monotonic() - start < 1800.0


def test_readme_library_example():
    # Runs the python block under README's "## Library"; each commented value
    # must be what the expression on its line, or the line before, gives.
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace, value, checked = {}, None, []
    for line in block.splitlines():
        code, _, comment = (part.strip() for part in line.partition("#"))
        if code:
            try:
                value = eval(code, namespace)
            except SyntaxError:
                exec(code, namespace)
        if comment:
            assert value == ast.literal_eval(comment), line
            checked.append(value)
    assert checked == [("ELIMINATED", "aci,er"), (111, (5, 11, 12)), 677546, (1, 6, 8, 3)]


def test_koszul_engine_reproduces_reference_diagrams():
    start = time.monotonic()
    I = parse_ideal(IDEAL_ROWS_DEMO)
    assert koszul_betti(I) == diagram(DIAG_ROWS_DEMO)
    assert koszul_betti(truncate(I, 3)) == diagram(DIAG_ROWS_DEMO_AT_3)
    J = parse_ideal(IDEAL_TRUNC_CERT)
    assert koszul_betti(J) == diagram(DIAG_TRUNC_CERT)
    assert koszul_betti(truncate(J, 6)) == diagram(DIAG_TRUNC_CERT_AT_6)
    K = parse_ideal(IDEAL_STABLE_NONCM)
    D = koszul_betti(K, degree_cap=8)
    assert D == diagram(DIAG_STABLE_NONCM)
    assert D.column_totals() == (1, 7, 9, 3)
    assert not _growth_ok(D.columns())
    assert time.monotonic() - start < 5.0


def test_truncation_preserves_rows_and_certifies_bound():
    assert verify_truncation_rows(parse_ideal(IDEAL_ROWS_DEMO), 3).ok
    assert verify_truncation_rows(parse_ideal(IDEAL_TRUNC_CERT), 6).ok
    I = parse_ideal(IDEAL_TRUNC_MULT)
    e = multiplicity(quotient_hilbert_function(I))
    eT = multiplicity(quotient_hilbert_function(truncate(I, 3)))
    assert e == 11
    assert eT == e + 2 == 13
    result = truncation_analysis(parse_ideal(IDEAL_TRUNC_CERT))
    assert result.certified
    assert result.e == 31
    assert result.e_truncation == 57
    assert result.e <= result.e_truncation


def test_values_and_results_pickle_and_deepcopy():
    # Values and results must survive pickle and copy.deepcopy intact.
    unresolved = classify((1, 3, 6, 10, 15, 21, 22, 21, 15), 3)
    assert unresolved.status == "UNRESOLVED" and len(unresolved.survivors) == 8
    certified = truncation_analysis(parse_ideal(IDEAL_TRUNC_CERT))
    assert certified.status == "CERTIFIED"
    objects = [
        HilbertFunction(H_HARD),
        Monomial((2, 0, 1)),
        parse_ideal(IDEAL_TRUNC_CERT),
        diagram(MIN_1_3_6_9_9_6_2),
        classify(H_HARD, 3),
        unresolved,
        certified,
    ]
    for obj in objects:
        for clone in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
            assert type(clone) is type(obj)
            assert clone == obj
            assert repr(clone) == repr(obj)
    for value in objects[:4]:
        clone = copy.deepcopy(value)
        assert hash(clone) == hash(value)
        with pytest.raises(AttributeError):
            setattr(clone, fields(clone)[0].name, None)


@pytest.mark.parametrize("value", [
    HilbertFunction(H_HARD), Monomial((2, 0, 1)), parse_ideal(IDEAL_TRUNC_CERT), diagram(MIN_1_3_6_9_9_6_2),
], ids=lambda value: type(value).__name__)
def test_value_types_refuse_every_assignment_and_deletion(value):
    # A name that is not a field too: the dataclass-generated methods raised
    # TypeError for it on Python 3.10 and 3.11.
    before = copy.deepcopy(value)
    for name in (fields(value)[0].name, "foo"):
        with pytest.raises(FrozenInstanceError, match="is immutable"):
            setattr(value, name, None)
        with pytest.raises(FrozenInstanceError, match="is immutable"):
            delattr(value, name)
    assert value == before and not hasattr(value, "foo")


def test_cross_engine_and_property_checks():
    start = time.monotonic()

    # Closed-form and Koszul-homology engines agree on every small lex ideal.
    pool = []
    for H in enumerate_o_sequences(3, 5):
        I = lex_ideal(H, 3)
        D = ek_betti(I)
        assert koszul_betti(I) == D
        pool.append((H, D))
    assert len(pool) == 876

    # The greedy diagram minimizes the max-shift product over everything
    # cancellation can reach.
    reachable_total = 0
    for H in enumerate_o_sequences(3, 4):
        cols = columns_from_profile(lex_generator_profile(H, 3), 3)
        greedy = greedy_columns([dict(col) for col in cols])
        greedy_prod = prod(max(col) for col in greedy[1:])
        found = []
        stats = _violating_diagrams(
            cols, 10**30, 10**7, lambda state, path: found.append(path_columns(path, 3)),
        )
        assert not stats["cap_exceeded"]
        reachable_total += len(found)
        assert all(
            greedy_prod <= prod(max(col) for col in d[1:]) for d in found
        )
    assert reachable_total == 5480

    # Consecutive cancellation never changes the encoded Hilbert function.
    rng = random.Random(20260825)
    ops = 0
    while ops < 10_000:
        H, D = pool[rng.randrange(len(pool))]
        while True:
            cols = D.columns()
            pairs = [
                (i, j)
                for i in range(1, 3)
                for j in set(cols[i]) & set(cols[i + 1])
            ]
            if not pairs:
                break
            i, j = pairs[rng.randrange(len(pairs))]
            count = rng.randint(1, min(cols[i][j], cols[i + 1][j]))
            entries = D.entries()
            entries[i, j] -= count
            entries[i + 1, j] -= count
            D = BettiDiagram(D.n, entries)
            assert hilbert_from_diagram(D) == H
            ops += 1

    # The shift-product formula recovers the multiplicity of equal-degree
    # complete intersections.
    for n in range(1, 5):
        for d in range(1, 7):
            D = BettiDiagram(n, {(i, d * i): comb(n, i) for i in range(n + 1)})
            assert is_pure(D) and D.projective_dimension == n
            assert Fraction(prod(max_shifts(D)), factorial(n)) == d**n
            assert multiplicity(ci_hilbert_function((d,) * n)) == d**n
    for d in range(1, 4):
        gens = f"a^{d}; b^{d}; c^{d}"
        expected = BettiDiagram(3, {(i, d * i): comb(3, i) for i in range(4)})
        assert koszul_betti(parse_ideal(gens)) == expected

    assert time.monotonic() - start < 120.0
