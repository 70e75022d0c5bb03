"""The violating-diagram search as a tree walk, its leaves' column maps and filter verdicts, and a classification built from them.

_violating_diagrams is the reference for verdict._violating_search: it visits
every tree node and leaf one by one, where the search adds up memoized
subtrees; option_best, the rows of best it builds from the listed options,
is the reference for verdict._best_row. The er, gen and growth predicates
below are the filter reference that the search's carried filter state is
checked against: they read a diagram's column maps directly.
reference_to_text is the per-cell layout that BettiDiagram.to_text renders
in one pass.
"""

from bisect import bisect_right
from collections import Counter
from functools import cache
from itertools import combinations
from math import factorial, inf

from multbound import BettiDiagram
from multbound.hilbert import aci_obstruction
from multbound.verdict import _degree_options, _greedy


class _CapReached(Exception):
    pass


def _violating_diagrams(cols, lhs, cap, visit):
    """Call visit(state, path) on each cancellation-reachable diagram with max-shift product below lhs.

    cols is the lex diagram's column maps. Cancelling at degree j only changes
    degree-j entries, so a diagram is one reachable column vector per degree
    (see _degree_options). The degrees are chosen in descending order, so a
    column's max shift is fixed by the first degree where it is nonzero.
    best[L][U] is the least product of max shifts that levels L and below can
    give to the columns in U, the set of columns still empty (inf when one can
    never become nonzero); a child is entered only when the pinned product
    times its share and best stays below lhs, so every visited node has a
    violating leaf below it. Leaves come out in profile order.

    path is the live list of the (degree, vector) choices, top degree
    first, valid only during the call; _path_diagram turns it into a diagram.
    state is the leaf's filter state (er, gen, late), carried down the path
    so that no leaf rescans its columns (see _filter_state_failures):
    er[i-2] counts column i-1's entries strictly below column i's current
    min shift, capped at i, for each column i >= 2 (0 while column i is
    empty); gen is column 1's total capped at n, except for n = 3, where it
    is (column 1's degrees while there are at most four, else None, and
    column 3's total capped at 2); late is set once a column becomes
    nonzero while the next one is still empty, so its max shift is not
    below the next one's. The transitions are cached for the call on
    (state, U, vec), and for n = 3 on (state, U, (j, vec)), since its gen
    reads the degree. Returns stats:
    nodes visited (at most cap + 1), children cut because some column can no
    longer become nonzero (degenerate), and whether the cap stopped the search.
    """
    n = len(cols) - 1
    degrees = sorted({j for col in cols[1:] for j in col}, reverse=True)
    options = [_degree_options(cols, j) for j in degrees]
    best = option_best(n, degrees, options)
    path = [None] * len(degrees)
    transitions = {}
    stats = {"nodes": 0, "degenerate": 0, "cap_exceeded": False}

    @cache
    def children(level, U):
        # The children worth entering depend on the pinned product only through
        # how many distinct bounds fit below lhs: one list per bound, in option order.
        j, below = degrees[level], best[level + 1]
        kept = []
        for vec, mask in options[level]:
            if below[U & ~mask] < inf:
                share = j ** (U & mask).bit_count()
                pick = (j, vec)
                child = (pick, pick if n == 3 else vec, mask, U & ~mask, share)
                kept.append((share * below[U & ~mask], child))
        bounds = sorted({bound for bound, _ in kept})
        entered = [[child for bound, child in kept if bound <= top] for top in bounds]
        return len(options[level]) - len(kept), bounds, entered

    def descend(level, pinned, U, state):
        stats["nodes"] += 1
        if stats["nodes"] > cap:
            raise _CapReached
        if level == len(degrees):
            visit(state, path)
            return
        degenerate, bounds, entered = children(level, U)
        stats["degenerate"] += degenerate
        # pinned * bound < lhs iff bound <= (lhs - 1) // pinned.
        fit = bisect_right(bounds, (lhs - 1) // pinned)
        if not fit:
            return
        for pick, token, mask, rest, share in entered[fit - 1]:
            key = (state, U, token)
            child = transitions.get(key)
            if child is None:
                er, gen, late = state
                j, vec = pick
                if n == 3:
                    degs, top = gen
                    fits = degs is not None and len(degs) + vec[0] <= 4
                    gen = (degs + (j,) * vec[0] if fits else None, min(top + vec[2], 2))
                else:
                    gen = min(gen + vec[0], n)
                child = transitions[key] = (
                    tuple(
                        0 if vec[i] or U >> i & 1 else min(count + vec[i - 1], i + 1)
                        for i, count in enumerate(er, 1)
                    ),
                    gen,
                    late or bool(U & mask & (U >> 1)),
                )
            path[level] = pick
            descend(level + 1, pinned * share, rest, child)

    try:
        descend(0, 1, (1 << n) - 1, ((0,) * (n - 1), ((), 0) if n == 3 else 0, False))
    except _CapReached:
        stats["cap_exceeded"] = True
    return stats


def option_best(n, degrees, options):
    """The rows best[L] of the search tree, and the row [1, inf, ...] below the last level, from the listed options.

    degrees holds the levels' degrees, top first, and options[L] level L's
    _degree_options. best[L][U] is the least j ** |U & m| * best[L + 1][U & ~m]
    over the support masks m of level L's options, where j = degrees[L]: the
    least product of max shifts that levels L and below can give to the
    columns in U (see _violating_diagrams).
    """
    full = (1 << n) - 1
    best = [None] * len(degrees) + [[1] + [inf] * full]
    for level in reversed(range(len(degrees))):
        j, below = degrees[level], best[level + 1]
        masks = {mask for _, mask in options[level]}
        best[level] = [
            min(j ** (U & m).bit_count() * below[U & ~m] for m in masks)
            for U in range(full + 1)
        ]
    return best


def path_columns(path, n):
    """Column maps 0..n of the leaf that picks vector vec at degree j for each (j, vec) in path."""
    return [{0: 1}] + [{j: vec[i] for j, vec in path if vec[i]} for i in range(n)]


def _evans_richert_witness(cols):
    """First (i, t) where column i's earliest syzygies outnumber column i-1 below t."""
    for i in range(2, len(cols)):
        col = cols[i]
        if not col:
            continue
        t = min(col)
        if sum(c for j, c in cols[i - 1].items() if j < t) < i:
            return (i, t)
    return None


def _ci_koszul_shape(cols):
    """True iff columns 1..3 form the Koszul diagram of three forms' degrees."""
    degs = sorted(j for j, c in cols[1].items() for _ in range(c))
    if len(degs) != 3:
        return False
    pair_sums = sorted(a + b for a, b in combinations(degs, 2))
    col2 = sorted(j for j, c in cols[2].items() for _ in range(c))
    if col2 != pair_sums:
        return False
    col3 = sorted(j for j, c in cols[3].items() for _ in range(c))
    return col3 == [sum(degs)]


def _generator_count_ok(cols, n):
    """Artinian quotients in n variables need n generators; in three, four unless a CI."""
    total = sum(cols[1].values())
    if n != 3:
        return total >= n
    if total >= 4:
        return True
    if total == 3:
        return _ci_koszul_shape(cols)
    return False


def _growth_ok(cols):
    """True iff max shifts rise by at least one across consecutive nonempty column maps."""
    prev = None
    for col in cols:
        if not col:
            prev = None
            continue
        cur = max(col)
        if prev is not None and cur < prev + 1:
            return False
        prev = cur
    return True


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


def reference_to_text(D):
    """BettiDiagram.to_text rendered cell by cell from column_total and entry.

    The total: row, then rows 0 through the regularity, with the row label
    left-aligned and each column right-aligned to its widest cell.
    """
    width = D.projective_dimension
    grid = [["total:"] + [str(D.column_total(i)) for i in range(width + 1)]]
    for r in range(D.regularity + 1):
        cells = [f"{r}:"]
        for i in range(width + 1):
            c = D.entry(i, r + i)
            cells.append(str(c) if c else ".")
        grid.append(cells)
    pads = [max(len(row[k]) for row in grid) for k in range(width + 2)]
    lines = []
    for row in grid:
        cells = [row[0].ljust(pads[0])]
        cells += [row[k].rjust(pads[k]) for k in range(1, width + 2)]
        lines.append(" ".join(cells).rstrip())
    return "\n".join(lines)
