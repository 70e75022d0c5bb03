"""Batch scans over Hilbert-function families: the generated scan walk, checkpointing, and reports."""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from contextlib import ExitStack, suppress
from csv import QUOTE_MINIMAL, writer as csv_writer
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from io import StringIO
from math import factorial, floor, inf, prod

from .betti import (
    BettiDiagram,
    greedy_stages,
    is_pure,
    is_quasipure,
    max_shifts,
    min_shifts,
)
from .errors import NeedsCapError, NotAdmissibleError, _check_int, _check_ints, _check_vars
from .hilbert import HilbertFunction, _checked_prefix, _growth_bound, _values, multiplicity
from .koszul import DEFAULT_CHAR, _analysis, _compare_rows, _resolution, _truncation
from .monomial import _hilbert_values, _lex_column_block, lex_columns, parse_ideal
from .verdict import (
    DEFAULT_DFS_CAP,
    DEFAULT_FILTERS,
    ClassifyOptions,
    _classify_values,
    _display,
    classify,
    lower_bound_holds,
    upper_bound_holds,
)

__all__ = ["ScanReport", "scan", "check_hf", "check_ideal"]

SYNC_SECONDS = 1.0  # the longest a consumed chunk's checkpoint line waits for its fsync
DEFAULT_CHUNK_SIZE = 512  # functions per chunk, and so per checkpoint line


@dataclass
class ScanReport:
    """Scan outcome: parameters, counters, exception records, timing, cursor."""

    parameters: dict
    counts: dict
    exceptions: list
    timing: dict
    checkpoint_cursor: str | None
    status: str

    def to_json(self):
        return json.dumps(vars(self), sort_keys=True, indent=2) + "\n"

    def to_csv(self):
        out = StringIO()
        rows = csv_writer(out, quoting=QUOTE_MINIMAL, lineterminator="\n")
        rows.writerow(["hf", "e", "M", "lhs", "rhs", "status", "reason"])
        for rec in self.exceptions:
            rows.writerow([
                rec["hf"],
                rec["e"],
                " ".join(str(s) for s in rec["shifts"]),
                rec["lhs"],
                rec["rhs"],
                rec["status"],
                rec["reason"],
            ])
        return out.getvalue()

    def summary(self):
        p = self.parameters
        lines = [
            "scan: n={n} prefix={prefix} socle_max={socle_max} filters={filters} dfs_cap={dfs_cap}".format(
                n=p["n"],
                prefix=",".join(str(v) for v in p["prefix"]),
                socle_max=p["socle_max"],
                filters=",".join(p["filters"]),
                dfs_cap=p["dfs_cap"],
            ),
            "scanned {scanned} Hilbert functions in {sec} s".format(
                scanned=self.counts["scanned"], sec=self.timing["seconds"]
            ),
            "bound holds: {0}".format(self.counts["bound_holds"]),
            "exceptions: {0} (eliminated {1}, unresolved {2})".format(
                len(self.exceptions), self.counts["eliminated"], self.counts["unresolved"]
            ),
        ]
        if self.counts["eliminated_by"]:
            parts = [f"{k}: {v}" for k, v in sorted(self.counts["eliminated_by"].items())]
            lines.append("eliminated by: " + "; ".join(parts))
        unresolved = [rec for rec in self.exceptions if rec["status"] == "UNRESOLVED"]
        if unresolved:
            lines.append("unresolved Hilbert functions:")
            for rec in unresolved:
                lines.append(f"  {rec['hf']}: {rec['reason']}")
        lines.append(f"status: {self.status}")
        return "\n".join(lines) + "\n"


def _last_function(n, socle_max, prefix):
    """The family's last function in tuple order: it takes the largest value at every degree."""
    last = prefix
    while len(last) <= socle_max:
        last += (_growth_bound(n, len(last), last[-1]),)
    return last


def _family_rank(n, socle_max, prefix, cursor):
    """How many functions of _chunks's family come up to cursor in tuple order; None if cursor is not one.

    They are cursor's path from prefix and the subtrees of the path's earlier
    siblings. sums[d][m] counts the functions at and below the values 1..m at
    degree d, for m up to top[d], the most a sibling or a parent reads.
    """
    k, path = len(prefix), range(len(prefix), len(cursor))
    if cursor[:k] != prefix or len(cursor) > socle_max + 1 or not all(
        1 <= cursor[d] <= _growth_bound(n, d, cursor[d - 1]) for d in path
    ):
        return None
    top, sums = [0] * (socle_max + 1), [[0] for _ in range(socle_max + 2)]
    for d in range(k, socle_max + 1):
        top[d] = max(cursor[d] - 1 if d < len(cursor) else 0, top[d - 1] and _growth_bound(n, d, top[d - 1]))
    for d in range(socle_max, k - 1, -1):
        for v in range(1, top[d] + 1):
            sums[d].append(sums[d][-1] + 1 + sums[d + 1][_growth_bound(n, d + 1, v) if d < socle_max else 0])
    return len(cursor) - k + 1 + sum(sums[d][cursor[d] - 1] for d in path)


def _cancel_lines(n, t, entry):
    """Greedy cancellation at degree s+t as straight-line source, as in betti.greedy_columns.

    Column i (0-based) reads entry(n-1+t-i, i), entry i of window block
    n-1+t-i; blocks past degree s+1 are zero, so the chain starts at column
    max(t-1, 0). A column the chain leaves nonzero gets shift s+t in r0..r{n-1}.
    """
    degree = f"s + {t}" if t else "s"
    first = max(t - 1, 0)
    lines = [f"left = {entry(n - 1 + t - first, first)}"]
    for i in range(first + 1, n):
        lines += [
            f"count = {entry(n - 1 + t - i, i)}",
            "if left > count:",
            f"    r{i - 1} = {degree}",
            "    left = 0",
            "else:",
            "    left = count - left",
        ]
    return lines + ["if left:", f"    r{n - 1} = {degree}"]


@cache
def _greedy_step(n):
    """Functions (step, leaves, walk): greedy max shifts from state shared with a parent, and the scan walk.

    Cancelling acts within one degree, and column i's lex entry at degree j
    is entry i-1 of monomial._lex_column_block for degree j-i+1, so the
    greedy vector at degree j depends only on the blocks of degrees
    j-n+1..j. step takes vals, of socle degree s, the blocks of degrees
    s-n+1..s-1 and each column's greedy max shift over degrees below s (0
    while it has none); both are shared with the parent, so only degrees
    s..s+n are new. It returns the blocks and maxima of vals's extensions,
    the max shifts of vals (0 for a column the greedy diagram leaves empty),
    and the largest value H(s+1) may take after vals. leaves(vals, blocks,
    row, shared), given the blocks step returned for vals and the block row
    of vals's extensions (below), returns vals's leaf family (runs, lo0,
    ..., lo{n-1}). runs lists the (first, last, vector) of vals + (v,),
    1 <= v <= last, the row's last value: maximal ranges of v with one
    vector of max shifts over the degrees past vals's, 0 for a column with
    none there; vals's extension maxima fill the zeros. lo is the runs'
    componentwise least vector. The vectors and the family are the copies
    held in the dict shared, so equal ones are stored once.

    walk(stack, socle_max, chunk_size, budget) is the scan walk. It
    generates the chunks (count, bound_holds, exception value tuples, last
    tuple) of chunk_size functions each, in tuple order, and stops after
    budget functions; it returns the unfinished last chunk's (count,
    bound_holds, exceptions), or None. A function holds when n! * e is at
    most its shift product, and the exceptions are the functions that do
    not. Each stack entry (vals, blocks, maxima, e, first, last) is a node
    with the blocks and maxima step returned for it and e = sum(vals),
    standing for its children vals + (v,), first <= v <= last, in ascending
    v; the root's entry is ((), zero blocks, zero maxima, 0, 1, 1). An entry
    whose children are not leaf parents evaluates its child vals + (first,)
    through step, leaves the rest of the range on the stack and pushes the
    entry of all the child's children, unless the child is a leaf. An entry
    whose children are leaf parents walks its range of them in its own
    frame, with no push or pop.

    The children of a node of degree s-1 and value h read two blocks each:
    block(n, s, h, v) of their own degree (zero for the root's child) and
    block(n, s+1, v, 0) of the next, where H(s+1) = 0. Both depend on (s,
    h, v) alone, so the walk keeps a per-walk dict of block rows keyed on
    (s, h): a row lists the triples (v, both blocks) for v = 1 up to the
    growth bound after h. Only such full rows are kept; a range seeded from
    a cursor or a start builds just its own entries, uncached, so a resume
    evaluates nothing before its cursor. An entry's leaf parents walk the
    row slice of their range, and leaves walks its leaf parent's row at
    (s+1, v).

    A leaf parent of socle degree s is first settled from a lower bound on
    shift products, before the chains of degrees s+1..s+n. After the chain
    of degree s, y0..y{n-1} hold its extension maxima, the max shifts over
    degrees <= s, and every function below it shares them, since those
    degrees depend only on H(0..s). A function of socle degree S has a last
    max shift of exactly S + n: its lex ideal has the minimal generator
    x_n^(S+1), whose Eliahou-Kervaire entry beta_{n,S+n} nothing cancels,
    as no generator has degree S+2 (Eliahou and Kervaire, J. Algebra 129,
    1990). With Y = y0 * ... * y{n-2}, the leaf parent's shift product is
    at least Y * (s+n) and each leaf's at least Y * (s+n+1). So when
    n! * e(parent) <= Y * (s+n) and n! * (e(parent) + top) <= Y * (s+n+1),
    top being the family's size, the leaf parent and all its leaves hold,
    and when no chunk ends among them they are counted at once. Otherwise
    the chains run and the leaf parent is checked alone; then, if the
    leaves' inequality holds and no chunk ends among them, the family is
    counted without its runs.

    Any other leaf parent's leaves take their runs and lo from a per-walk
    cache keyed flat on (v, w1, ..., w{n-1}), its value and outgoing
    blocks; leaves is called, and vals + (v,) built, only on a miss. A new
    shift is 0 or lies above every extension maximum, so
    max(new, maximum) is `new or maximum`. In a run the shift product P is
    fixed while n! * e grows with v, so the bound holds exactly for
    v <= P // n! - e(parent). lo in place of each run's vector gives a
    threshold below every run's; when it reaches the family's last leaf and
    the family fits in the chunk, the family costs O(1). Otherwise its runs
    go through place, which splits them at chunk ends and lists the
    exceptions.

    All three are written out once per n as straight-line Python and
    compiled under the filename "<greedy step n=N>". The window's blocks of
    degrees s-n+1..s+1 are the locals w0..wn, the running max shifts
    r0..r{n-1}, and each degree's cancellation chain is unrolled (see
    _cancel_lines). leaves and the leaf parents' loop read the entries they
    need of the fixed blocks w0..w{n-2} into locals once, before their loop
    over v. The source holds nothing but indices derived from n.
    """
    _check_vars(n)
    carried = _display(f"w{k}" for k in range(n - 1))
    outgoing = _display(f"w{k}" for k in range(1, n))
    shifts = _display(f"r{i}" for i in range(n))
    lows = [f"lo{i}" for i in range(n)]
    product = " * ".join(f"r{i}" for i in range(n))
    window = "w{}[{}]".format
    # Block k (k < n-1) is read from entry n-1-k on, starting at degree s.
    fixed = {(k, i): f"w{k}_{i}" for k in range(n - 1) for i in range(n - 1 - k, n)}

    def hoisted(k, i):
        return fixed.get((k, i)) or window(k, i)

    def chains(degrees, entry, indent):
        return [indent + line for t in degrees for line in _cancel_lines(n, t, entry)]

    def bound_check(indent, e):
        # Counts the child vals + (v,), of sum e and max shifts r0..r{n-1}, or places it alone.
        return [indent + line for line in [
            f"if room > 1 and n_factorial * {e} <= {product}:",
            "    holds += 1",
            "    room -= 1",
            "else:",
            f"    yield from place(vals, v, v, {product} // n_factorial - e)",
            "    if not budget:",
            "        return",
        ]]

    def threshold(news):
        return " * ".join(f"({new} or y{i})" for i, new in enumerate(news)) + " // n_factorial - ev"

    source = "\n".join([
        "def step(vals, blocks, maxima):",
        "    s = len(vals) - 1",
        f"    {carried} = blocks",
        f"    w{n - 1} = block({n}, s, vals[-2], vals[-1]) if s else zero",
        f"    w{n} = block({n}, s + 1, vals[-1], 0)",
        f"    {shifts} = maxima",
        *chains([0], window, "    "),
        f"    extension = {shifts}",
        *chains(range(1, n + 1), window, "    "),
        # With H(s+1) = 0 every degree-(s+1) monomial outside the shadow of
        # H(s) is a generator, and Macaulay's growth bound counts exactly those.
        f"    return {outgoing}, extension, {shifts}, w{n}[0]",
        "",
        "def leaves(vals, blocks, row, shared):",
        "    s = len(vals)",
        f"    {carried} = blocks",
        *(f"    {name} = {window(k, i)}" for (k, i), name in fixed.items()),
        "    runs = []",
        "    vec = None",
        f"    {_display(lows)} = {_display(['inf'] * n)}",
        f"    for v, w{n - 1}, w{n} in row:",
        f"        {shifts} = {_display(['0'] * n)}",
        *chains(range(n + 1), hoisted, "        "),
        f"        new = {shifts}",
        "        if new != vec:",
        "            if vec is not None:",
        "                runs.append((first, v - 1, vec))",
        "            first, vec = v, shared.setdefault(new, new)",
        *(line for i in range(n) for line in [f"            if r{i} < lo{i}:", f"                lo{i} = r{i}"]),
        "    runs.append((first, v, vec))",
        f"    family = (tuple(runs), {', '.join(lows)})",
        "    return shared.setdefault(family, family)",
        "",
        "def walk(stack, socle_max, chunk_size, budget):",
        "    size = room = min(chunk_size, budget)  # the current chunk's size and what it can still take",
        "    holds = 0",
        "    exceptions = []",
        "    families = {}",
        "    shared = {}  # one copy of each shift vector and each family across the cache",
        "    rows = {}  # the full block rows, keyed on (s, h)",
        "",
        "    def row(s, h, first, last):",
        "        # Row (s, h)'s entries for first <= v <= last; built on a miss, and kept when full.",
        "        entries = rows.get((s, h))",
        "        if entries is None:",
        "            entries = [",
        f"                (v, block({n}, s, h, v) if s else zero, block({n}, s + 1, v, 0))",
        "                for v in range(first, last + 1)",
        "            ]",
        f"            if first == 1 and last == (growth({n}, s, h) if s else 1):",
        "                rows[s, h] = entries",
        "            return entries",
        "        return entries[first - 1:last]",
        "",
        "    def place(parent, first, last, top):",
        "        # The functions parent + (v,), first <= v <= last, of which those with",
        "        # v <= top hold, split at chunk ends.",
        "        nonlocal size, room, holds, exceptions, budget",
        "        while first <= last:",
        "            end = min(last, first + room - 1)",
        "            holds += max(0, min(end, top) - first + 1)",
        "            if top < end:",
        "                exceptions.extend(parent + (v,) for v in range(max(first, top + 1), end + 1))",
        "            room -= end - first + 1",
        "            first = end + 1",
        "            if not room:",
        "                yield size, holds, exceptions, parent + (end,)",
        "                budget -= size",
        "                if not budget:",
        "                    return",
        "                size = room = min(chunk_size, budget)",
        "                holds = 0",
        "                exceptions = []",
        "",
        "    while stack:",
        "        vals, blocks, maxima, e, first, last = stack.pop()",
        "        s = len(vals)  # the children's socle degree",
        "        if s != socle_max - 1:",
        "            # One child; the rest of the range waits below the child's children.",
        "            if first < last:",
        "                stack.append((vals, blocks, maxima, e, first + 1, last))",
        "            v = first",
        "            child = vals + (v,)",
        f"            outgoing, extension, {shifts}, bound = step(child, blocks, maxima)",
        *bound_check("            ", "(e + v)"),
        "            if s < socle_max:",
        "                stack.append((child, outgoing, extension, e + v, 1, bound))",
        "            continue",
        # The leaf parents vals + (v,), first <= v <= last, in this frame.
        f"        {carried} = blocks",
        f"        {_display(f'x{i}' for i in range(n))} = maxima",
        *(f"        {name} = {window(k, i)}" for (k, i), name in fixed.items()),
        f"        tail = s + {n}  # the leaf parents' last shift; their leaves' is tail + 1",
        f"        for v, w{n - 1}, w{n} in row(s, vals[-1] if s else 0, first, last):",
        f"            {shifts} = {_display(f'x{i}' for i in range(n))}",
        *chains([0], hoisted, "            "),
        f"            {_display(f'y{i}' for i in range(n))} = {shifts}",
        "            ev = e + v",
        f"            top = w{n}[0]  # the leaf family's size",
        f"            low = {' * '.join(f'y{i}' for i in range(n - 1)) or '1'}",
        "            family_holds = n_factorial * (ev + top) <= low * (tail + 1)",
        "            if family_holds and top + 1 < room and n_factorial * ev <= low * tail:",
        "                # The leaf parent and its family hold by the lower bound, inside the chunk.",
        "                holds += top + 1",
        "                room -= top + 1",
        "                continue",
        *chains(range(1, n + 1), hoisted, "            "),
        *bound_check("            ", "ev"),
        "            if family_holds and top < room:",
        "                holds += top",
        "                room -= top",
        "                continue",
        f"            key = {_display(['v', *(f'w{k}' for k in range(1, n))])}",
        "            family = families.get(key)",
        "            if family is None:",
        "                family = families[key] = leaves(vals + (v,), key[1:], row(s + 1, v, 1, top), shared)",
        f"            runs, {', '.join(lows)} = family",
        f"            if top < room and {threshold(lows)} >= top:",
        "                # The common case: the whole family holds and leaves the chunk room.",
        "                holds += top",
        "                room -= top",
        "                continue",
        "            parent = vals + (v,)",
        f"            for a, b, {_display(f'new{i}' for i in range(n))} in runs:",
        f"                yield from place(parent, a, b, {threshold(f'new{i}' for i in range(n))})",
        "                if not budget:",
        "                    return",
        "    if room < size:",
        "        return size - room, holds, exceptions",
    ])
    namespace = {
        "block": _lex_column_block, "growth": _growth_bound, "zero": (0,) * n, "n_factorial": factorial(n), "inf": inf,
    }
    exec(compile(source, f"<greedy step n={n}>", "exec"), namespace)
    return namespace["step"], namespace["leaves"], namespace["walk"]


def _chunks(n, socle_max, start, chunk_size, limit=None, cursor=None):
    """Yield the chunks of _greedy_step's walk over a family, after cursor when given.

    The family is the O-sequences in n variables that extend start (a value
    tuple checked by hilbert._checked_prefix) up to socle degree socle_max,
    in _enumerate_value_tuples's order; the walk stops after limit
    functions. This seeds the walk's stack and gives its last, unfinished
    chunk the family's last function as its last tuple.

    Without a cursor (or with one before start) the stack holds start alone,
    as the range of one in its parent's entry (for start (1,), the root's
    parent (), with zero blocks and maxima). With cursor, only the functions
    after it in tuple order are counted: the stack is seeded by stepping
    down the cursor's path once, from start on, and each prefix on it takes
    the range of its children after the cursor's next value, and the cursor,
    when it is in the family, all its children. A seeded range of leaves
    is evaluated through step, one leaf at a time, outside the family
    cache. A cursor after the family leaves the stack empty.
    """
    step, _, walk = _greedy_step(n)
    zero = (0,) * n
    # start's parent, with the blocks and maxima of its extensions.
    vals, blocks, maxima = (), (zero,) * (n - 1), zero
    for v in start[:-1]:
        vals += (v,)
        blocks, maxima, _, _ = step(vals, blocks, maxima)
    stack = []
    if cursor is None or cursor < start:
        if len(start) <= socle_max + 1:
            stack.append((vals, blocks, maxima, sum(vals), start[-1], start[-1]))
    elif cursor[:len(start)] == start:
        vals = start
        while len(vals) <= socle_max:
            blocks, maxima, _, bound = step(vals, blocks, maxima)
            after = max(cursor[len(vals)] if len(vals) < len(cursor) else 0, 0)
            if after < bound:
                stack.append((vals, blocks, maxima, sum(vals), after + 1, bound))
            if not 1 <= after <= bound:
                break
            vals += (after,)
    rest = yield from walk(stack, socle_max, chunk_size, inf if limit is None else limit)
    if rest:
        yield *rest, _last_function(n, socle_max, start)


def _scan_chunk(chunk, n, options):
    """Classify one chunk's exceptions.

    chunk is (count, bound_holds, exception value tuples, last tuple), as
    _chunks yields it. Returns the chunk's log line: (count, bound_holds,
    exception records, last tuple as a list).
    """
    count, holds, exceptions, last = chunk
    records = [_classify_values(hvals, n, options).to_record() for hvals in exceptions]
    return count, holds, records, list(last)


def _check_record(rec):
    """Raise ValueError unless rec has the keys and types scan reads from an exception record.

    Those are the strings hf, status and reason, and witnesses, a dict whose
    violating_diagrams is an int >= 0 and whose survivors is a list. The
    status value itself is left to the report's totals.
    """
    if not isinstance(rec, dict):
        raise ValueError(f"record {rec!r} is not a dict")
    for key in ("hf", "status", "reason"):
        if not isinstance(rec.get(key), str):
            raise ValueError(f"record {key} is not a string")
    witnesses = rec.get("witnesses")
    if not isinstance(witnesses, dict):
        raise ValueError("record witnesses are not a dict")
    _check_int("violating_diagrams", witnesses.get("violating_diagrams"), 0)
    if not isinstance(witnesses.get("survivors"), list):
        raise ValueError("record survivors are not a list")


def _replay_log(log, path, parameters):
    """Replay the chunk log open in log; return (scanned, holds, records, cursor).

    The first line is the scan's parameters and each later line one consumed
    chunk, [count, holds, records, last]: count >= 1 and 0 <= holds <= count
    are ints, records lists the count - holds exceptions (see _check_record),
    and last is a nonempty list of ints after the previous line's last in
    tuple order. A line that breaks this does not parse. A last line without
    its newline was cut off mid-write: it is left out and the file truncated
    back to the last newline, so the next chunk appends after the last whole
    one.
    """
    scanned = holds = end = 0
    records = []
    cursor = ()
    log.seek(0)
    for number, line in enumerate(log):
        if not line.endswith(b"\n"):
            break
        try:
            entry = json.loads(line)
            if number:
                count, held, recs, last = entry
                _check_int("count", count, 1)
                _check_int("holds", held, 0)
                if held > count:
                    raise ValueError(f"holds {held} exceed count {count}")
                if not isinstance(recs, list) or len(recs) != count - held:
                    raise ValueError(f"records are not a list of the {count - held} exceptions")
                for rec in recs:
                    _check_record(rec)
                last = _check_ints("last", last)
                if last <= cursor:
                    raise ValueError(f"last {list(last)} does not come after {list(cursor)}")
                scanned, holds, cursor = scanned + count, holds + held, last
                records.extend(recs)
        except (ValueError, TypeError) as err:
            raise ValueError(f"checkpoint {path} line {number + 1} does not parse: {err}") from None
        if not number and entry != parameters:
            raise ValueError(
                f"checkpoint {path} was written with parameters "
                f"{entry}, current scan uses {parameters}"
            )
        end += len(line)
    log.truncate(end)
    if not end:
        _append(log, parameters)
    return scanned, holds, records, cursor or None


def _lap(stages, stage, since):
    """Add the time since since to stages[stage]; return the time now."""
    now = time.perf_counter()
    stages[stage] += now - since
    return now


def _append(log, entry):
    log.write(json.dumps(entry).encode() + b"\n")
    log.flush()


def scan(
    n,
    socle_max,
    prefix=(1,),
    *,
    filters=DEFAULT_FILTERS,
    dfs_cap=DEFAULT_DFS_CAP,
    jobs=1,
    chunk_size=DEFAULT_CHUNK_SIZE,
    checkpoint_path=None,
    out_path=None,
    out_format="json",
    limit=None,
):
    """Classify every O-sequence extending prefix up to socle_max, in this process.

    The walk (see _greedy_step) settles each function whose greedy max
    shifts satisfy the bound and hands over chunks of chunk_size functions
    in tuple order; each chunk's exceptions are classified before the next
    chunk is taken. With checkpoint_path, each consumed chunk is appended
    and flushed to that log file before the next one is taken, and the log
    is fsync'd once SYNC_SECONDS have passed since its last fsync and on
    every exit from scan. A rerun resumes after the last chunk logged, so an
    interrupt loses at most the chunk being classified, and an OS crash or
    power cut at most the lines of the last SYNC_SECONDS; it raises
    ValueError unless the log counts the functions up to its cursor. out_path is
    written to out_path + ".tmp" and renamed over out_path, so an
    interrupted write leaves any old report whole. limit caps the number of
    functions processed in this invocation, leaving an INCOMPLETE report
    when the family has functions left. The report's timing holds seconds,
    this call's time, and the stage times walk (producing each chunk),
    classify and checkpoint (appending and syncing its log line), summed
    over chunks and rounded down to the millisecond, so that they sum to at
    most seconds.
    n, socle_max and chunk_size must each be an int (not a bool), and so
    must limit unless it is None; n, chunk_size and limit must be at least
    1, and socle_max must be at least the prefix's socle degree. jobs is
    kept only for callers that still pass it: it must be the int 1.
    """
    start = time.perf_counter()
    _check_vars(n)
    _check_int("socle_max", socle_max)
    _check_int("chunk_size", chunk_size, 1)
    _check_int("jobs", jobs)
    if jobs != 1:
        raise ValueError(f"jobs must be 1, got {jobs}: scans run in one process")
    if limit is not None:
        _check_int("limit", limit, 1)
    prefix = _values(prefix)
    if socle_max < len(prefix) - 1:
        raise ValueError(
            f"socle_max {socle_max} is below the prefix's socle degree {len(prefix) - 1}: "
            "the family is empty"
        )
    prefix = _checked_prefix(n, prefix)  # before the log exists
    options = ClassifyOptions(filters, dfs_cap)
    filters = sorted(set(options.filters))
    if out_format not in ("json", "csv"):
        raise ValueError(f"unknown report format {out_format!r}")
    parameters = {
        "n": n,
        "socle_max": socle_max,
        "prefix": list(prefix),
        "filters": filters,
        "dfs_cap": dfs_cap,
    }
    scanned = bound_holds = 0
    exceptions = []
    cursor = log = None
    stages = dict.fromkeys(("walk", "classify", "checkpoint"), 0.0)
    with ExitStack() as stack:
        if checkpoint_path:
            log = stack.enter_context(open(checkpoint_path, "a+b"))
            stack.callback(os.fsync, log.fileno())
            synced = time.monotonic()
            scanned, bound_holds, exceptions, cursor = _replay_log(log, checkpoint_path, parameters)
            if cursor and scanned != (rank := _family_rank(n, socle_max, prefix, cursor)):
                found = f"the family has {rank}" if rank else "that is not a function of the family"
                raise ValueError(
                    f"scan counts disagree: checkpoint {checkpoint_path} logs {scanned} functions "
                    f"up to {','.join(map(str, cursor))}, but {found}"
                )
        chunks = _chunks(n, socle_max, prefix, chunk_size, limit, cursor)
        while True:
            lap = time.perf_counter()
            chunk = next(chunks, None)
            lap = _lap(stages, "walk", lap)
            if chunk is None:
                break
            result = _scan_chunk(chunk, n, options)
            lap = _lap(stages, "classify", lap)
            if log:
                _append(log, result)
                if time.monotonic() - synced >= SYNC_SECONDS:
                    os.fsync(log.fileno())
                    synced = time.monotonic()
                _lap(stages, "checkpoint", lap)
            count, holds, records, last = result
            scanned, bound_holds, cursor = scanned + count, bound_holds + holds, tuple(last)
            exceptions.extend(records)
    complete = cursor == _last_function(n, socle_max, prefix)

    statuses = Counter(rec["status"] for rec in exceptions)
    if scanned != bound_holds + statuses["ELIMINATED"] + statuses["UNRESOLVED"]:
        raise ValueError(
            f"scan counts disagree: {scanned} scanned, but {bound_holds} hold "
            f"and {len(exceptions)} are exceptions"
        )
    counts = {
        "scanned": scanned,
        "bound_holds": bound_holds,
        "eliminated": statuses["ELIMINATED"],
        "unresolved": statuses["UNRESOLVED"],
        "eliminated_by": dict(Counter(
            rec["reason"] for rec in exceptions if rec["status"] == "ELIMINATED"
        )),
        "violating_diagrams": sum(r["witnesses"]["violating_diagrams"] for r in exceptions),
        "surviving_diagrams": sum(len(r["witnesses"]["survivors"]) for r in exceptions),
    }
    report = ScanReport(
        parameters=parameters,
        counts=counts,
        exceptions=exceptions,
        # Stage times are rounded down, so that they never sum past seconds.
        timing={"seconds": round(time.perf_counter() - start, 3)}
        | {stage: floor(spent * 1000) / 1000 for stage, spent in stages.items()},
        checkpoint_cursor=",".join(str(v) for v in cursor) if cursor else None,
        status="COMPLETE" if complete else "INCOMPLETE",
    )
    if out_path:
        # Written beside out_path and renamed over it, so an interrupted write leaves the old report.
        tmp_path = f"{out_path}.tmp"
        try:
            with open(tmp_path, "w") as fh:
                fh.write(report.to_json() if out_format == "json" else report.to_csv())
            os.replace(tmp_path, out_path)
        except BaseException:
            with suppress(FileNotFoundError):
                os.remove(tmp_path)
            raise
    return report


def _shift_lines(D, e, c):
    """D's min and max shifts, then, unless e is None, the bounds on e and both verdicts."""
    mins, maxs = min_shifts(D), max_shifts(D)
    lines = ["min shifts: " + " ".join(map(str, mins)), "max shifts: " + " ".join(map(str, maxs))]
    if e is not None:
        lower, upper = Fraction(prod(mins), factorial(c)), Fraction(prod(maxs), factorial(c))
        lines += [
            f"bounds: {lower} <= {e} <= {upper}",
            str(upper_bound_holds(e, maxs, c)),
            str(lower_bound_holds(e, mins, c)),
        ]
    return lines


def check_hf(sequence, n=None, filters=DEFAULT_FILTERS, dfs_cap=DEFAULT_DFS_CAP):
    """Classify one Hilbert function, printing every intermediate diagram.

    Returns (classification or None, report text, exit code): 0 for a
    determination, 2 when unresolved diagrams remain. Raises ValueError
    unless n is None or an int (not a bool).
    """
    options = ClassifyOptions(filters, dfs_cap)
    if n is not None:
        _check_int("n", n)
    if isinstance(sequence, str):
        H = HilbertFunction.parse(sequence)
    else:
        H = HilbertFunction(_values(sequence))
    if n is None:
        n = max(H[1], 1)
    lines = [f"H: {H} (n={n}, socle degree {H.socle_degree})", f"e = {multiplicity(H)}"]
    try:
        cols = lex_columns(H, n)
    except NotAdmissibleError as err:
        lines.append(f"status: NOT_ADMISSIBLE ({err})")
        return None, "\n".join(lines) + "\n", 0
    D = BettiDiagram.from_columns(n, cols)
    lines += ["", f"lex ideal: {sum(cols[1].values())} generators", "", "lex diagram:", D.to_text()]
    stages = greedy_stages(D)
    for i, stage in enumerate(stages, start=1):
        lines += ["", f"after cancellations in columns ({i},{i + 1}):", stage.to_text()]
    result = classify(H, n, options)
    if 0 in result.shifts:
        empty = result.shifts.index(0) + 1
        lines += ["", f"greedy diagram has an empty column {empty}: no module has this diagram"]
    else:
        lines += ["", *_shift_lines(result.greedy, result.e, n)]
    if result.status != "BOUND_HOLDS":
        lines += [
            "",
            f"violating diagrams: {result.violating} "
            f"(dfs nodes {result.nodes}, degenerate skipped {result.degenerate})",
        ]
        if result.filter_histogram:
            parts = [f"{k}: {v}" for k, v in sorted(result.filter_histogram.items())]
            lines.append("eliminated by filters: " + "; ".join(parts))
        if result.cap_exceeded:
            lines.append("dfs node cap exceeded; enumeration incomplete")
        for idx, surv in enumerate(result.survivors, start=1):
            lines += ["", f"surviving diagram {idx}:", surv.to_text()]
    reason = f" ({result.reason})" if result.reason else ""
    lines += ["", f"status: {result.status}{reason}"]
    code = 2 if result.status == "UNRESOLVED" else 0
    return result, "\n".join(lines) + "\n", code


def check_ideal(text, n=None, truncate_at=None, field_char=DEFAULT_CHAR, degree_cap=None):
    """Analyze one monomial ideal: diagram, shifts, bounds, truncation outcome.

    degree_cap (at least 0) bounds the computation for a non-Artinian ideal
    only; an Artinian ideal and its truncation are computed in full.
    field_char, and n, truncate_at and degree_cap unless None, must be ints
    (not bools); n is checked by parse_ideal. Returns (analysis or None,
    report text, exit code 0).
    """
    _check_int("field_char", field_char)
    for name, value in (("truncate_at", truncate_at), ("degree_cap", degree_cap)):
        if value is not None:
            _check_int(name, value)
    if degree_cap is not None and degree_cap < 0:
        raise ValueError(f"degree cap must be nonnegative, got {degree_cap}")
    I = parse_ideal(text, n)
    artinian = I.is_artinian()
    if not artinian and degree_cap is None:
        raise NeedsCapError(f"ideal ({I}) is not Artinian; pass --degree-cap")
    cap = None if artinian else degree_cap
    D, z = _resolution(I, field_char, cap)
    lines = [f"ideal: {I} (n={I.n})"]
    analysis = e = None
    if artinian:
        analysis = _analysis(I, D, z, field_char)
        e = analysis.e
        lines += [f"Hilbert function: {analysis.hilbert_function}", f"e = {e}"]
    else:
        lines.append(
            f"Hilbert function through degree {degree_cap}: "
            + ",".join(str(v) for v in _hilbert_values(z))
            + " (not Artinian)"
        )
    lines += ["", "diagram:", D.to_text(), "", *_shift_lines(D, e, D.projective_dimension)]
    lines.append(
        f"pure: {'yes' if is_pure(D) else 'no'}   quasipure: {'yes' if is_quasipure(D) else 'no'}"
    )
    if truncate_at is not None:
        if artinian and analysis.truncation is not None and truncate_at == analysis.max_gen_degree:
            # The analysis already truncated at this degree.
            T, DT, eT = analysis.truncation, analysis.truncation_diagram, analysis.e_truncation
        else:
            T, DT, zT = _truncation(I, truncate_at, z, field_char, cap)
            eT = sum(zT.values()) if artinian else None
        rows = _compare_rows(D, DT, truncate_at)
        lines += ["", f"truncation at degree {truncate_at}: {T}"]
        if artinian:
            lines.append(f"e = {e}, truncation e = {eT}")
        if not rows.rows:
            outcome = f"not checked, no row >= {truncate_at} to compare"
        else:
            outcome = "yes" if rows.ok else "no"
        lines.append(f"rows >= {truncate_at} preserved under truncation: {outcome}")
    if artinian:
        lines += ["", f"truncation analysis: {analysis.status} ({analysis.reason})"]
        lines.append(
            f"  regularity {analysis.regularity}, max generator degree {analysis.max_gen_degree}"
        )
        if analysis.truncation is not None:
            lines.append(
                f"  e = {analysis.e} vs truncation e = {analysis.e_truncation}"
            )
        if analysis.verdict is not None:
            lines.append(f"  {analysis.verdict}")
    return analysis, "\n".join(lines) + "\n", 0
