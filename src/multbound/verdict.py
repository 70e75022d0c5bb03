"""Multiplicity bound verdicts and non-realizability filters for potential diagrams."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations
from math import factorial, prod

from .betti import BettiDiagram, _growth_ok, greedy_columns
from .errors import MalformedDiagramError, NotAdmissibleError
from .hilbert import _values, aci_obstruction, is_o_sequence
from .monomial import lex_columns

__all__ = [
    "BoundVerdict",
    "upper_bound_holds",
    "lower_bound_holds",
    "EvansRichertCheck",
    "evans_richert_ok",
    "generator_count_ok",
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


@dataclass(frozen=True)
class EvansRichertCheck:
    """Syzygy-count check result; witness is the failing (column, degree) pair."""

    ok: bool
    witness: tuple | None

    def __bool__(self):
        return self.ok


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


def evans_richert_ok(D):
    """Each column i >= 2 needs at least i entries strictly below its min shift in column i-1."""
    witness = _evans_richert_witness(D.columns())
    return EvansRichertCheck(witness is None, witness)


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
    total = sum(cols[1].values())
    if n != 3:
        return total >= n
    if total >= 4:
        return True
    if total == 3:
        return _ci_koszul_shape(cols)
    return False


def generator_count_ok(D, n):
    """Artinian quotients in n variables need n generators; in three, four unless a CI."""
    return _generator_count_ok(D.columns(), n)


def _diagram_filter_failures(cols, hvals, n, filters, aci_cache):
    """Names of enabled filters this potential diagram fails."""
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


def _violating_diagrams(cols, lhs, cap):
    """All cancellation-reachable diagrams whose max-shift product stays below lhs.

    cols is the lex diagram's column maps. Enumerates one canonical cancellation
    profile per reachable diagram: per degree (descending) and column pair
    (ascending), the number of units cancelled. Entries above the degree being
    processed are final, which powers the pruning. Returns (diagrams, stats).
    """
    n = len(cols) - 1
    degrees = sorted({j for col in cols[1:] for j in col}, reverse=True)
    found = []
    stats = {"nodes": 0, "degenerate": 0, "cap_exceeded": False}

    def descend(level):
        if stats["cap_exceeded"]:
            return
        stats["nodes"] += 1
        if stats["nodes"] > cap:
            stats["cap_exceeded"] = True
            return
        if level == len(degrees):
            if any(not col for col in cols[1:]):
                stats["degenerate"] += 1
                return
            if prod(map(max, cols[1:])) < lhs:
                found.append([dict(col) for col in cols])
            return
        j = degrees[level]
        pinned = 1
        for col in cols[1:]:
            later = [jj for jj in col if jj > j]
            if not later:
                pinned = 0
                break
            pinned *= max(later)
        if pinned >= lhs:
            # Every completion keeps the product at or above lhs: no violations below.
            return

        def choose(i):
            if i == n:
                descend(level + 1)
                return
            a, b = cols[i], cols[i + 1]
            limit = min(a.get(j, 0), b.get(j, 0))
            choose(i + 1)
            for _ in range(limit):
                a[j] -= 1
                if a[j] == 0:
                    del a[j]
                b[j] -= 1
                if b[j] == 0:
                    del b[j]
                choose(i + 1)
            if limit:
                a[j] = a.get(j, 0) + limit
                b[j] = b.get(j, 0) + limit

        choose(1)

    descend(0)
    return found, stats


@dataclass(frozen=True)
class ClassifyOptions:
    """Knobs for classify: enabled filters and the DFS node budget.

    Raises ValueError for a filter name outside KNOWN_FILTERS or a dfs_cap
    below 1.
    """

    filters: tuple = DEFAULT_FILTERS
    dfs_cap: int = DEFAULT_DFS_CAP

    def __post_init__(self):
        unknown = set(self.filters) - KNOWN_FILTERS
        if unknown:
            raise ValueError(f"unknown filters {sorted(unknown)}; known: {sorted(KNOWN_FILTERS)}")
        if self.dfs_cap < 1:
            raise ValueError(f"dfs_cap must be at least 1, got {self.dfs_cap}")


@dataclass
class Classification:
    """Verdict for one Hilbert function with the evidence behind it."""

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


def _classify_values(hvals, n, options):
    """Classification of an O-sequence's values; the only builder of Classification."""
    lex_cols, cols, shifts = _greedy(hvals, n)
    bound = upper_bound_holds(sum(hvals), shifts, n)
    greedy = BettiDiagram.from_columns(n, cols)
    if bound.holds:
        return Classification(hvals, n, "BOUND_HOLDS", "", bound.e, shifts, bound.lhs, bound.rhs, greedy)
    violating, stats = _violating_diagrams(
        [dict(col) for col in lex_cols], bound.lhs, options.dfs_cap
    )
    aci_cache = {}
    failures = [
        _diagram_filter_failures(diag_cols, hvals, n, options.filters, aci_cache)
        for diag_cols in violating
    ]
    survivors = [
        BettiDiagram.from_columns(n, diag_cols)
        for diag_cols, failed in zip(violating, failures)
        if not failed
    ]
    if stats["cap_exceeded"]:
        status, reason = "UNRESOLVED", "CAP_EXCEEDED"
    elif survivors:
        status, reason = "UNRESOLVED", f"{len(survivors)} diagrams pass all filters"
    else:
        status, reason = "ELIMINATED", ",".join(sorted(set().union(*failures)))
    return Classification(
        hvals, n, status, reason, bound.e, shifts, bound.lhs, bound.rhs, greedy,
        violating=len(violating),
        degenerate=stats["degenerate"],
        nodes=stats["nodes"],
        cap_exceeded=stats["cap_exceeded"],
        filter_histogram=dict(Counter("+".join(failed) for failed in failures if failed)),
        survivors=survivors,
    )


def classify(H, n, options=None):
    """Full pipeline for one Hilbert function.

    Greedy-minimizes the lex diagram; if the upper bound holds there it holds
    for every module with Hilbert function H. Otherwise every reachable
    violating diagram is tested against the enabled filters: ELIMINATED when
    all fail one, UNRESOLVED when survivors remain or the node cap is hit.
    """
    hvals = _values(H)
    while hvals and hvals[-1] == 0:
        hvals = hvals[:-1]
    if not is_o_sequence(hvals, n):
        raise NotAdmissibleError(f"{hvals} is not an O-sequence in {n} variables")
    return _classify_values(hvals, n, options or ClassifyOptions())
