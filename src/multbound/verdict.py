"""Multiplicity bound verdicts and non-realizability filters for potential diagrams."""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from collections.abc import Iterable
from contextlib import suppress
from dataclasses import dataclass, field
from functools import cache
from math import factorial, inf, prod

from .betti import BettiDiagram, greedy_columns
from .errors import MalformedDiagramError, _check_int
from .hilbert import _values, aci_obstruction, ci_hilbert_function
from .monomial import _lex_column_block, lex_columns

__all__ = [
    "BoundVerdict",
    "upper_bound_holds",
    "lower_bound_holds",
    "ClassifyOptions",
    "Classification",
    "classify",
    "DEFAULT_FILTERS",
    "DEFAULT_DFS_CAP",
]

DEFAULT_FILTERS = ("er", "gen", "aci", "growth")
DEFAULT_DFS_CAP = 1_000_000
KNOWN_FILTERS = frozenset(DEFAULT_FILTERS)


@dataclass(frozen=True)
class BoundVerdict:
    """Outcome of one side of the multiplicity bound, in exact integers.

    holds iff lhs <= rhs, where the upper bound compares c!*e against the max
    shift product and the lower bound compares the min shift product against c!*e.
    """

    e: int
    shifts: tuple
    codim: int
    holds: bool
    lhs: int
    rhs: int
    kind: str

    def __str__(self):
        rel = "<=" if self.holds else ">"
        return f"{self.kind} bound {'HOLDS' if self.holds else 'FAILS'} ({self.lhs} {rel} {self.rhs})"


def upper_bound_holds(e, M, c):
    """Check c!*e <= product of the max shifts M."""
    M = tuple(M)
    if len(M) != c or any(s < 1 for s in M):
        raise ValueError(f"need {c} positive shifts, got {M}")
    lhs = factorial(c) * e
    rhs = prod(M)
    return BoundVerdict(e, M, c, lhs <= rhs, lhs, rhs, "upper")


def lower_bound_holds(e, m, c):
    """Check product of the min shifts m <= c!*e."""
    m = tuple(m)
    if len(m) != c or any(s < 1 for s in m):
        raise ValueError(f"need {c} positive shifts, got {m}")
    lhs = prod(m)
    rhs = factorial(c) * e
    return BoundVerdict(e, m, c, lhs <= rhs, lhs, rhs, "lower")


def _degree_options(cols, j):
    """Column vectors reachable at degree j, each with its support bitmask.

    Entry i of a vector is column i+1's count at degree j; bit i of the mask is
    set when it is nonzero. Pairs (i, i+1) are taken in ascending order, each
    cancelling 0, 1, ... units, so distinct profiles give distinct vectors.
    """
    vecs = [tuple(col.get(j, 0) for col in cols[1:])]
    for i in range(len(vecs[0]) - 1):
        vecs = [
            v[:i] + (v[i] - c, v[i + 1] - c) + v[i + 2:]
            for v in vecs
            for c in range(min(v[i], v[i + 1]) + 1)
        ]
    return [(v, sum(1 << i for i, x in enumerate(v) if x)) for v in vecs]


def _entry_caps(n):
    """Per column, the largest entry the filter state tells apart (see _violating_search).

    Column c < n enters er capped at c + 1 and column 1 also gen, capped
    at n; column n enters only through its support. In three variables gen
    reads up to five column-1 entries (four degrees, then None) and column
    3's total up to 2.
    """
    if n == 3:
        return (5, 3, 2)
    return tuple(1 if c == n else max(n, 2) if c == 1 else c + 1 for c in range(1, n + 1))


def _option_classes(start, n):
    """_degree_options's vectors at one degree, counted by their entries capped at _entry_caps(n).

    start is the degree's column vector (entry i is column i+1's count).
    Returns a dict from each capped vector to its number of options; its
    nonzero entries are the options' support. A DP over the pairs counts
    the cancellation profiles without listing them. Its state is the
    capped entries of the columns already settled and what the last pair
    left of the next column. That rest is capped at the column's cap plus
    the following column's entry: with more, the next pair leaves the
    column at its cap whatever it cancels, with the same choices.
    """
    caps = _entry_caps(n)
    limits = [cap + nxt for cap, nxt in zip(caps, start[1:] + (0,))]
    states = {((), min(start[0], limits[0])): 1}
    for i in range(1, n):
        nxt, cap, limit = start[i], caps[i - 1], limits[i]
        grown = {}
        for (done, left), count in states.items():
            for c in range(min(left, nxt) + 1):
                key = (done + (min(left - c, cap),), min(nxt - c, limit))
                grown[key] = grown.get(key, 0) + count
        states = grown
    return {done + (left,): count for (done, left), count in states.items()}


def _filter_state_failures(state, hvals, n, filters):
    """Names of enabled filters a leaf with this filter state fails (see _violating_search).

    For n = 3, three generators pass gen iff they are the degrees of a
    complete intersection of Hilbert function H and column 3 has one entry:
    every leaf has H's numerator, so columns 2 and 3 are then the Koszul
    columns plus one common multiset, empty iff column 3's total is 1.
    """
    er, gen, late = state
    if n == 3:
        degs, top = gen
        gen_ok = degs is None or len(degs) == 4 or (
            len(degs) == 3 and top == 1 and ci_hilbert_function(degs).values == hvals
        )
        aci = degs is not None and len(degs) == 4 and len(set(degs)) == 1
    else:
        gen_ok, aci = gen >= n, False
    failed = []
    if "er" in filters and any(count < i for i, count in enumerate(er, 2)):
        failed.append("er")
    if "gen" in filters and not gen_ok:
        failed.append("gen")
    if "growth" in filters and late:
        failed.append("growth")
    if "aci" in filters and aci and aci_obstruction(hvals, degs[0]).obstructed:
        failed.append("aci")
    return failed


def _path_diagram(n, path):
    """Diagram that picks vector vec at degree j for each (j, vec) in path (see _degree_options)."""
    entries = {(i, j): count for j, vec in path for i, count in enumerate(vec, 1) if count}
    entries[0, 0] = 1
    return BettiDiagram._trusted(n, entries)


class _CapReached(Exception):
    pass


def _add(histogram, part, times=1):
    """Add times * part's counts into the histogram dict."""
    for failed, count in part.items():
        histogram[failed] = histogram.get(failed, 0) + times * count


def _violating_search(cols, lhs, cap, failures):
    """Search the cancellation-reachable diagrams with max-shift product below lhs.

    cols is the lex diagram's column maps. Cancelling at degree j only changes
    degree-j entries, so a diagram is one reachable column vector per degree
    (see _degree_options). The search tree picks them in descending degree
    order, so a column's max shift is fixed by the first degree where it is
    nonzero; its leaves are the violating diagrams, in profile order.
    best[L][U] is the least product of max shifts that levels L and below can
    give to the columns in U, the set of columns still empty (inf when one
    can never become nonzero); a child is entered only when the pinned
    product times its share and best stays below lhs, so every node of the
    tree has a leaf below it.

    Each node carries the filter state (er, gen, late) of its path, so that
    no leaf rescans its columns; failures(state) gives the names of the
    filters a leaf with that state fails (see _filter_state_failures):
    er[i-2] counts column i-1's entries strictly below column i's current
    min shift, capped at i, for each column i >= 2 (0 while column i is
    empty); gen is column 1's total capped at n, except for n = 3, where it
    is (column 1's degrees while there are at most four, else None, and
    column 3's total capped at 2); late is set once a column becomes
    nonzero while the next one is still empty, so its max shift is not
    below the next one's. A move reads a vector only through its entries
    capped at _entry_caps(n). The transitions are cached for the call on
    (state, U, token), where token is (None, vec) for a vector vec, a
    class's capped one or an option's own, and (j, vec) for n = 3, since
    its gen reads the degree.

    A subtree depends only on its key (level, U, state, q), where
    q = (lhs - 1) // pinned: which children fit reads the pinned product
    only through q, and a child's q is q // share. So each key's summary,
    (tree nodes, degenerate children, histogram dict of failed-filter
    tuples, survivors), is computed once, and a leaf's from its state
    alone. Options with one capped vector (see _option_classes) have one
    child key, so a summary adds up each class's child times its count,
    and the options themselves are never listed. That pass stops once a
    subtree has more than cap nodes, or once it would make more than cap
    summaries, since each is a distinct tree node.
    When the tree has more than cap nodes, a second pass walks it in option
    order on the same summaries: a known summary is taken whole while its
    nodes fit in the cap; otherwise its root is counted and its children
    entered, so the stopped search has counted the first cap + 1 tree
    nodes in preorder and the degenerate children and leaves among them.
    The survivors, leaves that fail no filter, are built as diagrams in a
    last descent that enters only subtrees holding one, in tree order.
    Returns nodes (at most cap + 1), degenerate (children cut because some
    column can no longer become nonzero), whether the cap stopped the
    search, the histogram (a Counter) and the survivors.
    """
    n = len(cols) - 1
    degrees = sorted({j for col in cols[1:] for j in col}, reverse=True)
    depth = len(degrees)

    # Per level, (count, token, mask) for each class; options(level) lists
    # ((j, vec), token, mask) for each option, in option order.
    classes = []
    for j in degrees:
        found = _option_classes(tuple(col.get(j, 0) for col in cols[1:]), n)
        classes.append([
            (count, (j if n == 3 else None, capped), sum(1 << i for i, x in enumerate(capped) if x))
            for capped, count in found.items()
        ])

    @cache
    def options(level):
        j = degrees[level]
        return [((j, vec), (j if n == 3 else None, vec), mask) for vec, mask in _degree_options(cols, j)]

    full = (1 << n) - 1
    best = [None] * depth + [[1] + [inf] * full]
    for level in reversed(range(depth)):
        j, below = degrees[level], best[level + 1]
        masks = {mask for _, _, mask in classes[level]}
        best[level] = [
            min(j ** (U & m).bit_count() * below[U & ~m] for m in masks)
            for U in range(full + 1)
        ]
    transitions = {}
    summaries = {}

    @cache
    def children(level, U, in_order):
        # The children worth entering depend on the pinned product only through
        # how many distinct bounds fit below lhs: one list per bound, each
        # child (head, token, mask, U & ~mask, share), where head is a class's
        # count, or with in_order an option's (j, vec), in option order.
        j, below = degrees[level], best[level + 1]
        kept, cut = [], 0
        for head, token, mask in options(level) if in_order else classes[level]:
            if below[U & ~mask] < inf:
                share = j ** (U & mask).bit_count()
                kept.append((share * below[U & ~mask], (head, token, mask, U & ~mask, share)))
            else:
                cut += 1 if in_order else head
        bounds = sorted({bound for bound, _ in kept})
        entered = [[child for bound, child in kept if bound <= top] for top in bounds]
        return cut, bounds, entered

    def child_state(state, U, token, mask):
        key = (state, U, token)
        child = transitions.get(key)
        if child is None:
            er, gen, late = state
            j, vec = token
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
        return child

    def leaf(state):
        failed = tuple(failures(state))
        return (1, 0, {failed: 1}, 0) if failed else (1, 0, {}, 1)

    def tally(level, U, state, q):
        # The subtree's summary, adding up each class's child times its count.
        key = state if level == depth else (level, U, state, q)
        known = summaries.get(key)
        if known is not None:
            return known
        if level == depth:
            known = leaf(state)
        else:
            cut, bounds, entered = children(level, U, False)
            size, cuts, failed, passed = 1, cut, {}, 0
            # pinned * bound < lhs iff bound <= (lhs - 1) // pinned.
            fit = bisect_right(bounds, q)
            for count, token, mask, rest, share in entered[fit - 1] if fit else ():
                child = tally(level + 1, rest, child_state(state, U, token, mask), q // share)
                size += count * child[0]
                if size > cap:
                    raise _CapReached
                cuts += count * child[1]
                _add(failed, child[2], count)
                passed += count * child[3]
            known = (size, cuts, failed, passed)
        if len(summaries) == cap:
            raise _CapReached  # cap + 1 distinct subtrees: the tree has more than cap nodes
        summaries[key] = known
        return known

    nodes = degenerate = alive = 0
    histogram = {}

    def walk(level, U, state, q):
        # The tree's preorder, counting nodes against the cap.
        nonlocal nodes, degenerate, alive
        key = state if level == depth else (level, U, state, q)
        known = summaries.get(key)
        if known is not None and nodes + known[0] <= cap:
            nodes += known[0]
            degenerate += known[1]
            _add(histogram, known[2])
            alive += known[3]
            return known
        nodes += 1
        if nodes > cap:
            raise _CapReached
        if level == depth:
            known = leaf(state)
            _add(histogram, known[2])
            alive += known[3]
        else:
            cut, bounds, entered = children(level, U, True)
            degenerate += cut
            size, cuts, failed, passed = 1, cut, {}, 0
            fit = bisect_right(bounds, q)
            for _, token, mask, rest, share in entered[fit - 1] if fit else ():
                child = walk(level + 1, rest, child_state(state, U, token, mask), q // share)
                size += child[0]
                cuts += child[1]
                _add(failed, child[2])
                passed += child[3]
            known = (size, cuts, failed, passed)
        summaries[key] = known
        return known

    path = [None] * depth
    survivors = []

    def gather(level, U, state, q):
        # Only subtrees with a survivor are entered, and a stopped search's
        # unfinished ones, which hold the survivors it counted last.
        if level == depth:
            survivors.append(_path_diagram(n, path))
            return
        _, bounds, entered = children(level, U, True)
        for pick, token, mask, rest, share in entered[bisect_right(bounds, q) - 1]:
            child = child_state(state, U, token, mask)
            known = summaries.get(child if level + 1 == depth else (level + 1, rest, child, q // share))
            if known is None or known[3]:
                path[level] = pick
                gather(level + 1, rest, child, q // share)
                if len(survivors) == alive:
                    return

    root = (full, ((0,) * (n - 1), ((), 0) if n == 3 else 0, False), lhs - 1)
    try:
        nodes, degenerate, histogram, alive = tally(0, *root)
    except _CapReached:
        nodes = cap + 1
    cap_exceeded = nodes > cap
    if cap_exceeded:
        nodes = degenerate = alive = 0
        histogram = {}
        with suppress(_CapReached):
            walk(0, *root)
    if alive:
        gather(0, *root)
    return {
        "nodes": nodes,
        "degenerate": degenerate,
        "cap_exceeded": cap_exceeded,
        "histogram": Counter(histogram),
        "survivors": survivors,
    }


@dataclass(frozen=True)
class ClassifyOptions:
    """Knobs for classify: enabled filters and the DFS node budget.

    filters is kept as a tuple. Raises ValueError unless filters is an
    iterable of names in KNOWN_FILTERS (a string is not) and dfs_cap an int
    (not a bool) of at least 1.
    """

    filters: tuple = DEFAULT_FILTERS
    dfs_cap: int = DEFAULT_DFS_CAP

    def __post_init__(self):
        filters = self.filters
        if isinstance(filters, Iterable) and not isinstance(filters, str):
            filters = tuple(filters)
        if not isinstance(filters, tuple) or not all(isinstance(name, str) for name in filters):
            raise ValueError(f"filters must be an iterable of filter names, got {self.filters!r}")
        unknown = set(filters) - KNOWN_FILTERS
        if unknown:
            raise ValueError(f"unknown filters {sorted(unknown)}; known: {sorted(KNOWN_FILTERS)}")
        object.__setattr__(self, "filters", filters)
        _check_int("dfs_cap", self.dfs_cap, 1)


@dataclass
class Classification:
    """Verdict for one Hilbert function with the evidence behind it.

    violating, nodes and cap_exceeded describe the violating-diagram search;
    degenerate (the record's "degenerate_skipped") counts the children it cut
    because some column could no longer become nonzero.
    """

    hf: tuple
    n: int
    status: str
    reason: str
    e: int
    shifts: tuple
    lhs: int
    rhs: int
    greedy: BettiDiagram
    violating: int = 0
    degenerate: int = 0
    nodes: int = 0
    cap_exceeded: bool = False
    filter_histogram: dict = field(default_factory=dict)
    survivors: list = field(default_factory=list)

    def to_record(self):
        """JSON-ready record with the greedy diagram in machine form."""
        return {
            "hf": ",".join(str(v) for v in self.hf),
            "e": self.e,
            "shifts": list(self.shifts),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "status": self.status,
            "reason": self.reason,
            "diagram": self.greedy.to_machine(),
            "witnesses": {
                "violating_diagrams": self.violating,
                "degenerate_skipped": self.degenerate,
                "dfs_nodes": self.nodes,
                "cap_exceeded": self.cap_exceeded,
                "filter_histogram": dict(sorted(self.filter_histogram.items())),
                "survivors": [d.to_machine() for d in self.survivors],
            },
        }


def _greedy(hvals, n):
    """Lex Betti columns of H, their greedy cancellation, and its max shifts.

    The greedy diagram is the bottom of H's poset of diagrams: the upper
    bound holds for every module with Hilbert function H iff it holds there.
    """
    lex_cols = lex_columns(hvals, n)
    cols = greedy_columns([dict(col) for col in lex_cols])
    shifts = []
    for i in range(1, n + 1):
        if not cols[i]:
            raise MalformedDiagramError(
                f"greedy diagram for H={hvals} has an empty column {i}"
            )
        shifts.append(max(cols[i]))
    return lex_cols, cols, tuple(shifts)


def _greedy_step(n):
    """Functions (step, leaves) giving greedy max shifts from state shared with a parent.

    Cancelling acts within one degree, and column i's lex entry at degree j
    is entry i-1 of monomial._lex_column_block for degree j-i+1, so the
    greedy vector at degree j depends only on the blocks of degrees
    j-n+1..j. step takes vals, of socle degree s, the blocks of degrees
    s-n+1..s-1 and each column's greedy max shift over degrees below s (0
    while it has none); both are shared with the parent, so only degrees
    s..s+n are new. It returns the blocks and maxima of vals's extensions,
    the max shifts of vals (0 for a column the greedy diagram leaves empty),
    and the largest value H(s+1) may take after vals. leaves(vals, blocks,
    first, last), given the blocks step returned for vals, lists the runs
    [first, last, vector] of vals + (v,), first <= v <= last: maximal ranges
    of v with one vector of max shifts over the degrees past vals's, 0 for a
    column with none there; vals's extension maxima fill the zeros.
    """
    zero = (0,) * n
    # Degree s+t: column i (0-based) reads window[n-1+t-i]. Blocks past degree
    # s+1 are zero, so the chain starts at column max(t-1, 0).
    rows = []
    for t in range(n + 1):
        first = max(t - 1, 0)
        rows.append((n - 1 + t - first, first, [(n - 1 + t - i, i) for i in range(first + 1, n)]))
    head, tail = rows[:1], rows[1:]

    def cancel(shifts, window, s, rows):
        # Degrees s, s+1, ... read rows, as in betti.greedy_columns; returns a tuple.
        for j, (first_k, first, row) in enumerate(rows, s):
            left = window[first_k][first]
            for k, i in row:
                count = window[k][i]
                if left > count:
                    shifts[i - 1] = j
                    left = 0
                else:
                    left = count - left
            if left:
                shifts[n - 1] = j
        return tuple(shifts)

    def step(vals, blocks, maxima):
        s = len(vals) - 1
        blocks += (_lex_column_block(n, s, vals[-2], vals[-1]) if s else zero,)
        window = blocks + (_lex_column_block(n, s + 1, vals[-1], 0),)
        shifts = list(maxima)
        extension_maxima = cancel(shifts, window, s, head)
        # With H(s+1) = 0 every degree-(s+1) monomial outside the shadow of
        # H(s) is a generator, and Macaulay's growth bound counts exactly those.
        return blocks[1:], extension_maxima, cancel(shifts, window, s + 1, tail), window[-1][0]

    def leaves(vals, blocks, first, last):
        s, h = len(vals), vals[-1]
        runs = []
        for v in range(first, last + 1):
            window = blocks + (_lex_column_block(n, s, h, v), _lex_column_block(n, s + 1, v, 0))
            new = cancel([0] * n, window, s, rows)
            if runs and runs[-1][2] == new:
                runs[-1][1] = v
            else:
                runs.append([v, v, new])
        return runs

    return step, leaves


def _classify_values(hvals, n, options):
    """Classification of an O-sequence's values; the only builder of Classification."""
    lex_cols, cols, shifts = _greedy(hvals, n)
    bound = upper_bound_holds(sum(hvals), shifts, n)
    greedy = BettiDiagram.from_columns(n, cols)
    if bound.holds:
        return Classification(hvals, n, "BOUND_HOLDS", "", bound.e, shifts, bound.lhs, bound.rhs, greedy)
    stats = _violating_search(
        lex_cols, bound.lhs, options.dfs_cap,
        lambda state: _filter_state_failures(state, hvals, n, options.filters),
    )
    histogram, survivors = stats["histogram"], stats["survivors"]
    if stats["cap_exceeded"]:
        status, reason = "UNRESOLVED", "CAP_EXCEEDED"
    elif survivors:
        status, reason = "UNRESOLVED", f"{len(survivors)} diagrams pass all filters"
    else:
        status, reason = "ELIMINATED", ",".join(sorted(set().union(*histogram)))
    return Classification(
        hvals, n, status, reason, bound.e, shifts, bound.lhs, bound.rhs, greedy,
        violating=histogram.total() + len(survivors),
        degenerate=stats["degenerate"],
        nodes=stats["nodes"],
        cap_exceeded=stats["cap_exceeded"],
        filter_histogram={"+".join(failed): count for failed, count in histogram.items()},
        survivors=survivors,
    )


def classify(H, n, options=None):
    """Full pipeline for one Hilbert function.

    Greedy-minimizes the lex diagram; if the upper bound holds there it holds
    for every module with Hilbert function H. Otherwise every reachable
    violating diagram is tested against the enabled filters: ELIMINATED when
    all fail one, UNRESOLVED when survivors remain or the node cap is hit.
    Raises NotAdmissibleError, from lex_columns, when H is not an O-sequence
    in n variables, and ValueError unless n is an int (not a bool) of at
    least 1.
    """
    _check_int("n", n)
    hvals = _values(H)
    while hvals and hvals[-1] == 0:
        hvals = hvals[:-1]
    return _classify_values(hvals, n, options or ClassifyOptions())
