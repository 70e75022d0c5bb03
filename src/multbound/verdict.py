"""Multiplicity bound verdicts and non-realizability filters for potential diagrams."""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cache
from math import factorial, inf, prod

from .betti import BettiDiagram, greedy_columns
from .errors import _check_int, _check_ints
from .hilbert import _values, aci_obstruction, ci_hilbert_function
from .monomial import lex_columns

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


def _checked_shifts(e, shifts, c):
    """shifts as a tuple, for a bound verdict in codimension c.

    Raises ValueError unless e, c and the shifts are ints (not bools), e
    and c are at least 1 and there are c shifts, each at least 1.
    """
    _check_int("e", e, 1)
    _check_int("c", c, 1)
    shifts = _check_ints("shift", shifts)
    if len(shifts) != c or any(s < 1 for s in shifts):
        raise ValueError(f"need {c} positive shifts, got {shifts}")
    return shifts


def upper_bound_holds(e, M, c):
    """Check c!*e <= product of the max shifts M."""
    M = _checked_shifts(e, M, c)
    lhs = factorial(c) * e
    rhs = prod(M)
    return BoundVerdict(e, M, c, lhs <= rhs, lhs, rhs, "upper")


def lower_bound_holds(e, m, c):
    """Check product of the min shifts m <= c!*e."""
    m = _checked_shifts(e, m, c)
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


@cache
def _level_classes(start, n):
    """One degree's option classes for _violating_search, shared by every search in the process.

    start is the degree's column vector (entry i is column i+1's count).
    The classes count _degree_options's vectors by support and entries
    capped at _entry_caps(n), which is all a search reads of them, so they
    depend on start and n only. Returns a tuple of (count, capped vector,
    support mask), one per class, the frozenset of the class masks and the
    number of options, the classes' counts added up.

    A DP over the pairs counts the cancellation profiles without listing
    them. Its state is the capped entries of the columns already settled,
    their support mask and what the last pair left of the next column. That
    rest is capped at the column's cap plus the following column's entry:
    with more, the next pair leaves the column at its cap whatever it
    cancels, with the same choices. At each pair the leading run of
    cancellations c, those with both the settled entry (left - c) and the
    carried rest (nxt - c) at or above their caps, goes to one state, so it
    is added once, weighted by its length; only the other c are iterated.
    """
    caps = _entry_caps(n)
    limits = [cap + nxt for cap, nxt in zip(caps, start[1:] + (0,))]
    states = {((), 0, min(start[0], limits[0])): 1}
    for i in range(1, n):
        nxt, cap, limit, bit = start[i], caps[i - 1], limits[i], 1 << (i - 1)
        grown = {}
        for (done, mask, left), count in states.items():
            run = min(left - cap, nxt - limit) + 1
            if run > 0:
                key = (done + (cap,), mask | bit, limit)
                grown[key] = grown.get(key, 0) + run * count
            else:
                run = 0
            for c in range(run, (left if left < nxt else nxt) + 1):
                rest, carried = left - c, nxt - c
                key = (
                    done + (rest if rest < cap else cap,),
                    mask | bit if rest else mask,
                    carried if carried < limit else limit,
                )
                grown[key] = grown.get(key, 0) + count
        states = grown
    top = 1 << (n - 1)
    classes = tuple(
        (count, done + (left,), mask | top if left else mask) for (done, mask, left), count in states.items()
    )
    return classes, frozenset(mask for _, _, mask in classes), sum(count for count, _, _ in classes)


@cache
def _best_row(n, j, masks, below):
    """Row best[L] of _violating_search for a level of degree j, shared by every search in the process.

    masks is the level's set of class masks and below the row best[L + 1].
    Entry U is the least j ** |U & m| * below[U & ~m] over m in masks: a
    running minimum, with the powers of j read from a table of k = 0..n.
    Returns a tuple of 2 ** n entries.
    """
    power = [j ** k for k in range(n + 1)]
    row = [inf] * (1 << n)
    for m in masks:
        for U in range(1 << n):
            value = power[(U & m).bit_count()] * below[U & ~m]
            if value < row[U]:
                row[U] = value
    return tuple(row)


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


def _display(names):
    """Source of a tuple display (or assignment target) of the names."""
    names = list(names)
    return f"({', '.join(names)}{',' if len(names) == 1 else ''})"


@cache
def _move(n):
    """The search's move in n variables, move(state, U, j, vec, mask) -> the child's filter state.

    state is a node's filter state (er, gen, late), U its set of still-empty
    columns, vec a vector picked at degree j, a class's capped one or an
    option's own, and mask vec's support (see _violating_search). Entry i of
    the child's er is 0 when column i+1 is nonzero in vec or still empty,
    else er[i-1] + vec[i-1] capped at i + 1; gen adds vec[0] (for n = 3,
    column 1's degrees, the only use of j, and column 3's total); late is
    set when some column of U & mask has its next column in U.

    Written out once per n as straight-line Python and compiled under the
    filename "<search move n=N>": the er entries and vec's entries are the
    locals e1..e{n-1} and v0..v{n-1}, and each new er entry is one
    conditional expression with its bit 1 << i and its cap i + 1 as
    literals. The source holds nothing but indices derived from n.
    """
    er = _display(f"e{i}" for i in range(1, n)) if n > 1 else "_"
    if n == 3:
        head = [
            f"    {er}, (degs, top), late = state",
            "    if v0:",
            "        degs = degs + (j,) * v0 if degs is not None and len(degs) + v0 <= 4 else None",
            "    top += v2",
        ]
        gen = "(degs, top if top < 2 else 2)"
    else:
        head = [f"    {er}, gen, late = state", "    gen += v0"]
        gen = f"gen if gen < {n} else {n}"
    source = "\n".join([
        "def move(state, U, j, vec, mask):",
        f"    {_display(f'v{i}' for i in range(n))} = vec",
        *head,
        "    return (",
        "        (",
        *(
            f"            0 if v{i} or U & {1 << i} else c if (c := e{i} + v{i - 1}) < {i + 1} else {i + 1},"
            for i in range(1, n)
        ),
        "        ),",
        f"        {gen},",
        "        late or U & mask & U >> 1 != 0,",
        "    )",
    ])
    namespace = {}
    exec(compile(source, f"<search move n={n}>", "exec"), namespace)
    return namespace["move"]


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
    tree has a leaf below it (see _best_row).

    Each node carries the filter state (er, gen, late) of its path, so that
    no leaf rescans its columns; failures(state) gives the names of the
    filters a leaf with that state fails (see _filter_state_failures):
    er[i-2] counts column i-1's entries strictly below column i's current
    min shift, capped at i, for each column i >= 2 (0 while column i is
    empty); gen is column 1's total capped at n, except for n = 3, where it
    is (column 1's degrees while there are at most four, else None, and
    column 3's total capped at 2); late is set once a column becomes
    nonzero while the next one is still empty, so its max shift is not
    below the next one's. A move, _move(n)(state, U, j, vec, mask), reads
    a vector vec picked at degree j only through its entries capped at
    _entry_caps(n), so a class's capped vector and each of its options give
    the same child. The move is a kernel generated once per n, cheaper to
    run than a memo of its results is to key, so it has none.

    A subtree depends only on its key (level, U, state, q), where
    q = (lhs - 1) // pinned: which children fit reads the pinned product
    only through q, and a child's q is q // share. So children(level, U,
    q, in_order) gives the degenerate cut and only the children that fit,
    and tally gives each key's summary, a leaf's under the same key as an
    inner node's. A summary is one int of lanes width bits wide, as in
    koszul._resolution: lane 0 counts tree nodes, lane 1 degenerate
    children, lane 2 survivors, and each lane from 3 on the leaves of one
    failed-filter tuple, assigned in the order the leaves meet them. A
    leaf is 1 | 1 << its lane's shift. Options with one capped vector (see _level_classes) have
    one child key, so a summary is 1 plus the cut in lane 1 plus each
    class's count times its child's summary, and the options themselves
    are never listed. No lane carries into the next: every lane of every
    summary is at most the product of K_L + 1 over the levels, K_L the
    number of options at level L, since a subtree has no more nodes, leaves
    or cut children than that. This pass always runs to the root's
    summary; the cap only decides which searches stop.
    A tree of more than cap nodes stops the search: it reports the first
    cap nodes in preorder and the degenerate children and leaves among
    them, and counts node cap + 1 without reading it. The survivors, leaves
    that fail no filter, are built as diagrams. When the tree has more than
    cap nodes or has survivors, one descent in option order reads them off
    the summaries: it takes a child's summary whole when the child fits in
    the cap and holds no survivor, enters it otherwise, and builds each
    survivor where it reaches it. It reads only a child's node and
    survivor lanes; it adds each summary it takes whole, each leaf's less
    its node, and each cut it makes into one int, whose degenerate and
    failed-filter lanes are read once, when the search returns.

    Each level's classes (_level_classes) and best row (_best_row) are
    cached for the process. They are pure functions of small immutable
    inputs: the degree's column vector and n, and for the row also the
    degree (for its powers), the class masks and the row below. They
    are returned as tuples and frozensets that no search mutates, so every
    search that meets the same degree vector, or the same levels below,
    shares them. What depends on lhs, the cap, the filters or the lex
    columns as a whole belongs to the call: the lanes, the descent, the
    survivors and three functools.cache closures, options, children and
    tally, freed when the search returns.
    Returns nodes (at most cap + 1), degenerate (children cut because some
    column can no longer become nonzero), whether the cap stopped the
    search, the histogram (a Counter) and the survivors.
    """
    n = len(cols) - 1
    degrees = sorted({j for col in cols[1:] for j in col}, reverse=True)
    depth = len(degrees)
    full = (1 << n) - 1
    # Per level, (count, vec, mask) for each class, the class masks and the
    # number of options; options(level) lists (1, vec, mask) for each
    # option, in option order.
    levels = [_level_classes(tuple(col.get(j, 0) for col in cols[1:]), n) for j in degrees]
    classes = [found for found, _, _ in levels]
    # Lanes width bits wide hold every count (see above); lane masks one
    # lane, and alive is the shift of the survivor lane.
    width = prod(total + 1 for _, _, total in levels).bit_length()
    lane, alive = (1 << width) - 1, 2 * width
    # The shift of each failed-filter tuple's lane, from 3 * width on.
    failed_lanes = {}

    @cache
    def options(level):
        return [(1, vec, mask) for vec, mask in _degree_options(cols, degrees[level])]

    move = _move(n)
    powers = [[j ** k for k in range(n + 1)] for j in degrees]
    best = [None] * depth + [(1,) + (inf,) * full]
    for level in reversed(range(depth)):
        best[level] = _best_row(n, degrees[level], levels[level][1], best[level + 1])

    @cache
    def children(level, U, q, in_order):
        # The children cut as degenerate, and those that fit under q, each
        # (count, vec, mask, U & ~mask, share), from the classes or with
        # in_order the options, in option order. A child fits when
        # pinned * share * below[rest] < lhs, that is share * below[rest] <= q.
        power, below = powers[level], best[level + 1]
        kept, cut = [], 0
        for count, vec, mask in options(level) if in_order else classes[level]:
            rest, share = U & ~mask, power[(U & mask).bit_count()]
            if below[rest] == inf:
                cut += count
            elif share * below[rest] <= q:
                kept.append((count, vec, mask, rest, share))
        return cut, kept

    @cache
    def tally(level, U, state, q):
        # The subtree's summary, adding up each class's child times its count.
        if level == depth:
            failed = tuple(failures(state))
            if not failed:
                return 1 | 1 << alive
            shift = failed_lanes.get(failed)
            if shift is None:
                shift = failed_lanes[failed] = (3 + len(failed_lanes)) * width
            return 1 | 1 << shift
        cut, kept = children(level, U, q, False)
        summary, j = 1 | cut << width, degrees[level]
        for count, vec, mask, rest, share in kept:
            summary += count * tally(level + 1, rest, move(state, U, j, vec, mask), q // share)
        return summary

    path = [None] * depth
    survivors = []

    def walk(level, U, state, q):
        # The subtree in option order, up to node cap + 1. Its cuts, its
        # leaves less their nodes and the subtrees it takes whole go into summary.
        nonlocal nodes, summary
        nodes += 1
        if nodes > cap:
            return
        if level == depth:
            leaf = tally(level, U, state, q)
            if leaf >> alive & lane:
                survivors.append(_path_diagram(n, zip(degrees, path)))
            summary += leaf - 1
            return
        cut, kept = children(level, U, q, True)
        summary += cut << width
        for _, vec, mask, rest, share in kept:
            child = (level + 1, rest, move(state, U, degrees[level], vec, mask), q // share)
            subtree = tally(*child)
            size = subtree & lane
            if subtree >> alive & lane or nodes + size > cap:
                path[level] = vec
                walk(*child)
                if nodes > cap:
                    return
            else:
                nodes += size
                summary += subtree

    root = (full, ((0,) * (n - 1), ((), 0) if n == 3 else 0, False), lhs - 1)
    summary = tally(0, *root)
    nodes = summary & lane
    cap_exceeded = nodes > cap
    if cap_exceeded or summary >> alive & lane:
        nodes = summary = 0
        walk(0, *root)
    # Both closures are cycles through their own cells; break them so that
    # the search's tables go with its frame, not at the next cyclic collection.
    tally = walk = None
    histogram = Counter({failed: summary >> shift & lane for failed, shift in failed_lanes.items()})
    return {
        "nodes": nodes,
        "degenerate": summary >> width & lane,
        "cap_exceeded": cap_exceeded,
        "histogram": +histogram,
        "survivors": survivors,
    }


@dataclass(frozen=True)
class ClassifyOptions:
    """Knobs for classify: enabled filters and the search's node cap.

    A search tree of more than dfs_cap nodes leaves its Hilbert function
    UNRESOLVED with reason CAP_EXCEEDED. filters is kept as a tuple. Raises
    ValueError unless filters is an iterable of names in KNOWN_FILTERS (a
    string is not) and dfs_cap an int (not a bool) of at least 1.
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
    An empty column has shift 0, as in the scan walk: no module has such a
    diagram, and the search decides H over those with every column nonzero.
    """
    lex_cols = lex_columns(hvals, n)
    cols = greedy_columns([dict(col) for col in lex_cols])
    return lex_cols, cols, tuple(max(col, default=0) for col in cols[1:])


def _classify_values(hvals, n, options):
    """Classification of an O-sequence's values; the only builder of Classification."""
    lex_cols, cols, shifts = _greedy(hvals, n)
    e = sum(hvals)
    lhs, rhs = factorial(n) * e, prod(shifts)
    # lex_columns and greedy_columns keep only positive counts at j >= i, with beta_{0,0} = 1.
    greedy = BettiDiagram._trusted(n, {(i, j): c for i, col in enumerate(cols) for j, c in col.items()})
    if lhs <= rhs:
        return Classification(hvals, n, "BOUND_HOLDS", "", e, shifts, lhs, rhs, greedy)
    stats = _violating_search(
        lex_cols, lhs, options.dfs_cap,
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
        hvals, n, status, reason, e, shifts, lhs, rhs, greedy,
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
