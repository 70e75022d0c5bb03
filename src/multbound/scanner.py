"""Batch scans over Hilbert-function families, checkpointing, and reports."""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from contextlib import ExitStack, suppress
from csv import QUOTE_MINIMAL, writer as csv_writer
from dataclasses import dataclass
from fractions import Fraction
from io import StringIO
from math import factorial, inf, prod

from .betti import (
    BettiDiagram,
    greedy_stages,
    is_pure,
    is_quasipure,
    max_shifts,
    min_shifts,
)
from .errors import NeedsCapError, NotAdmissibleError, _check_int
from .hilbert import HilbertFunction, _checked_prefix, _growth_bound, _values, multiplicity
from .koszul import DEFAULT_CHAR, _analysis, _compare_rows, _resolution, _truncation
from .monomial import _hilbert_values, lex_columns, parse_ideal
from .verdict import (
    DEFAULT_DFS_CAP,
    DEFAULT_FILTERS,
    ClassifyOptions,
    _classify_values,
    _greedy_step,
    classify,
    lower_bound_holds,
    upper_bound_holds,
)

__all__ = ["ScanReport", "scan", "check_hf", "check_ideal"]

SYNC_SECONDS = 1.0  # the longest a consumed chunk's checkpoint line waits for its fsync


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


def _chunks(n, socle_max, start, chunk_size, limit=None, cursor=None):
    """Walk the family and yield its chunks (count, bound_holds, exception value tuples, last tuple).

    The family is the O-sequences in n variables that extend start (a value
    tuple checked by hilbert._checked_prefix) up to socle degree socle_max,
    in _enumerate_value_tuples's order. A chunk takes chunk_size functions,
    and the walk stops after limit; the exceptions are the functions whose
    greedy max shifts (see verdict._greedy_step) break the bound.

    Each stack entry carries its function's state and e. The leaves (socle
    degree socle_max) are not pushed: a leaf parent takes its family's runs
    and lo, their least vector, from a per-walk cache on (H(s), outgoing
    blocks), and its extension maxima fill a vector's zeros. In a run the
    shift product P is fixed while n! * e grows with v, so the bound holds
    exactly for v <= P // n! - e(parent). lo in place of each run's vector
    gives a threshold below every run's; when it reaches the family's last
    leaf and the family fits in the chunk, the family costs O(1).

    With cursor, only the functions after it in tuple order are counted: a
    node before it that is not a prefix of it is skipped with its subtree, a
    prefix is descended without being counted, and a family the cursor lies
    inside evaluates, uncached, only its leaves after it.
    """
    step, leaves = _greedy_step(n)
    n_factorial = factorial(n)
    zero = (0,) * n
    node = ((1,), (zero,) * (n - 1), zero)
    for v in start[1:]:
        blocks, maxima, _, _ = step(*node)
        node = (node[0] + (v,), blocks, maxima)
    stack = [node + (sum(start),)] if len(start) <= socle_max + 1 else []
    cursor = None if cursor is None else tuple(cursor)
    families = {}
    shared = {}  # one copy of each shift vector and each family across the cache
    budget = inf if limit is None else limit
    size = room = min(chunk_size, budget)  # the current chunk's size and what it can still take
    holds = 0
    exceptions = []

    def place(parent, first, last, top):
        # The functions parent + (v,), first <= v <= last, of which those with
        # v <= top hold, split at chunk ends.
        nonlocal size, room, holds, exceptions, budget
        while first <= last:
            end = min(last, first + room - 1)
            holds += max(0, min(end, top) - first + 1)
            if top < end:
                exceptions.extend(parent + (v,) for v in range(max(first, top + 1), end + 1))
            room -= end - first + 1
            first = end + 1
            if not room:
                yield size, holds, exceptions, parent + (end,)
                budget -= size
                if not budget:
                    return
                size = room = min(chunk_size, budget)
                holds = 0
                exceptions = []

    while stack:
        vals, blocks, maxima, e = stack.pop()
        if cursor is not None:
            if vals > cursor:
                # The stack pops in tuple order, so all that is left comes after the cursor.
                cursor = None
            elif vals != cursor[:len(vals)]:
                continue
        blocks, maxima, shifts, bound = step(vals, blocks, maxima)
        if cursor is None:
            if room > 1 and n_factorial * e <= prod(shifts):
                holds += 1
                room -= 1
            else:
                yield from place(vals[:-1], vals[-1], vals[-1], prod(shifts) // n_factorial - e + vals[-1])
                if not budget:
                    return
        if len(vals) < socle_max:
            # Pushed descending, as in _enumerate_value_tuples, so values pop ascending.
            stack.extend((vals + (v,), blocks, maxima, e + v) for v in range(bound, 0, -1))
        elif len(vals) == socle_max:
            if cursor is not None and len(cursor) > len(vals):
                # The cursor lies in this family: no leaf up to it may be evaluated.
                runs = leaves(vals, blocks, cursor[len(vals)] + 1, bound)
            else:
                key = (vals[-1], blocks)
                family = families.get(key)
                if family is None:
                    found = leaves(vals, blocks, 1, bound)
                    runs = tuple((first, last, shared.setdefault(new, new)) for first, last, new in found)
                    family = (runs, tuple(map(min, zip(*(new for _, _, new in runs)))))
                    family = families[key] = shared.setdefault(family, family)
                runs, lo = family
                if bound < room and prod(map(max, lo, maxima)) // n_factorial - e >= bound:
                    # The common case: the whole family holds and leaves the chunk room.
                    holds += bound
                    room -= bound
                    continue
            for first, last, new in runs:
                # A new shift is 0 or lies above every extension maximum.
                yield from place(vals, first, last, prod(map(max, new, maxima)) // n_factorial - e)
                if not budget:
                    return
    if room < size:
        # The last node popped is the family's last function or, when that is a leaf, its parent.
        yield size - room, holds, exceptions, (vals + (bound,) if len(vals) == socle_max else vals)


def _scan_chunk(chunk, n, options):
    """Classify one chunk's exceptions.

    chunk is (count, bound_holds, exception value tuples, last tuple), as
    _chunks yields it. Returns the chunk's log line: (count, bound_holds,
    exception records, last tuple as a list).
    """
    count, holds, exceptions, last = chunk
    records = [_classify_values(hvals, n, options).to_record() for hvals in exceptions]
    return count, holds, records, list(last)


def _replay_log(log, path, parameters):
    """Replay the chunk log open in log; return (scanned, holds, records, cursor).

    The first line is the scan's parameters and each later line one consumed
    chunk, [count, holds, records, last]. A last line without its newline was
    cut off mid-write: it is left out and the file truncated back to the last
    newline, so the next chunk appends after the last whole one.
    """
    scanned = holds = end = 0
    records = []
    cursor = None
    log.seek(0)
    for number, line in enumerate(log):
        if not line.endswith(b"\n"):
            break
        try:
            entry = json.loads(line)
            if number:
                count, held, recs, last = entry
                scanned, holds, cursor = scanned + count, holds + held, tuple(last)
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
    return scanned, holds, records, cursor


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
    chunk_size=512,
    checkpoint_path=None,
    out_path=None,
    out_format="json",
    limit=None,
):
    """Classify every O-sequence extending prefix up to socle_max, in this process.

    The walk settles each function whose greedy max shifts satisfy the
    bound; the rest are classified chunk by chunk. The walk hands over
    chunks of chunk_size functions in tuple order, each with its count of
    holds and its exceptions (see _chunks): a leaf family, of socle degree
    socle_max, is counted whole when a lower bound on its shifts shows that
    all of it holds, and split into runs of one greedy shift vector only
    when that bound fails or a chunk ends inside it. With checkpoint_path,
    each consumed chunk is appended and flushed to that log file before the
    next one is taken, and the log is fsync'd once SYNC_SECONDS have passed
    since its last fsync and on every exit from scan. A rerun resumes after
    the last chunk logged, so an interrupt loses at most the chunk being
    classified, and an OS crash or power cut at most the lines of the last
    SYNC_SECONDS. out_path is written to out_path + ".tmp" and renamed over
    out_path, so an interrupted write leaves any old report whole. limit
    caps the number of functions processed in this invocation, leaving an
    INCOMPLETE report when the family has functions left.
    n, socle_max and chunk_size must each be an int (not a bool), and so
    must limit unless it is None; n, chunk_size and limit must be at least
    1, and socle_max must be at least the prefix's socle degree. jobs is
    kept only for callers that still pass it: it must be the int 1.
    """
    start = time.perf_counter()
    _check_int("n", n)
    _check_int("socle_max", socle_max)
    _check_int("chunk_size", chunk_size, 1)
    _check_int("jobs", jobs)
    if jobs != 1:
        raise ValueError(f"jobs must be 1, got {jobs}: scans run in one process")
    if limit is not None:
        _check_int("limit", limit, 1)
    if n < 1:
        raise ValueError(f"need at least one variable, got n={n}")
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
    with ExitStack() as stack:
        if checkpoint_path:
            log = stack.enter_context(open(checkpoint_path, "a+b"))
            stack.callback(os.fsync, log.fileno())
            synced = time.monotonic()
            scanned, bound_holds, exceptions, cursor = _replay_log(log, checkpoint_path, parameters)
        for chunk in _chunks(n, socle_max, prefix, chunk_size, limit, cursor):
            result = _scan_chunk(chunk, n, options)
            if log:
                _append(log, result)
                if time.monotonic() - synced >= SYNC_SECONDS:
                    os.fsync(log.fileno())
                    synced = time.monotonic()
            count, holds, records, last = result
            scanned, bound_holds, cursor = scanned + count, bound_holds + holds, tuple(last)
            exceptions.extend(records)
    # The family's last function in tuple order takes the largest value at every degree.
    last = prefix
    while len(last) <= socle_max:
        last += (_growth_bound(n, len(last), last[-1]),)
    complete = cursor == last

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
        timing={"seconds": round(time.perf_counter() - start, 3)},
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
