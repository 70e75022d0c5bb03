"""Column maps of the violating-diagram search's leaves, their filter verdicts, and a classification built from them."""

from collections import Counter
from math import factorial

from multbound import BettiDiagram
from multbound.betti import _growth_ok
from multbound.hilbert import aci_obstruction
from multbound.verdict import _evans_richert_witness, _generator_count_ok, _greedy, _violating_diagrams


def path_columns(path, n):
    """Column maps 0..n of the leaf that picks vector vec at degree j for each (j, vec) in path."""
    return [{0: 1}] + [{j: vec[i] for j, vec in path if vec[i]} for i in range(n)]


def diagram_filter_failures(cols, hvals, n, filters, aci_cache):
    """Names of enabled filters the potential diagram with these column maps fails."""
    failed = []
    if "er" in filters and _evans_richert_witness(cols) is not None:
        failed.append("er")
    if "gen" in filters and not _generator_count_ok(cols, n):
        failed.append("gen")
    if "growth" in filters and not _growth_ok(cols):
        failed.append("growth")
    if "aci" in filters and n == 3 and len(cols[1]) == 1:
        (d, count), = cols[1].items()
        if count == 4:
            if d not in aci_cache:
                aci_cache[d] = aci_obstruction(hvals, d).obstructed
            if aci_cache[d]:
                failed.append("aci")
    return failed


def reference_evidence(hvals, n, filters, cap):
    """An exception's search evidence, from diagram_filter_failures on every leaf's maps."""
    lex_cols, _, _ = _greedy(hvals, n)
    histogram, failed_filters, survivors, aci_cache = Counter(), set(), [], {}

    def visit(state, path):
        cols = path_columns(path, n)
        failed = diagram_filter_failures(cols, hvals, n, filters, aci_cache)
        if failed:
            histogram["+".join(failed)] += 1
            failed_filters.update(failed)
        else:
            survivors.append(BettiDiagram.from_columns(n, cols))

    stats = _violating_diagrams(lex_cols, factorial(n) * sum(hvals), cap, visit)
    if stats["cap_exceeded"]:
        status, reason = "UNRESOLVED", "CAP_EXCEEDED"
    elif survivors:
        status, reason = "UNRESOLVED", f"{len(survivors)} diagrams pass all filters"
    else:
        status, reason = "ELIMINATED", ",".join(sorted(failed_filters))
    return {
        "status": status,
        "reason": reason,
        "filter_histogram": dict(histogram),
        "survivors": survivors,
        "violating": histogram.total() + len(survivors),
        "nodes": stats["nodes"],
        "degenerate": stats["degenerate"],
        "cap_exceeded": stats["cap_exceeded"],
    }
