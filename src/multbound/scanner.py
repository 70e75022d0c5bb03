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
from math import factorial, floor, inf, prod

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


def _chunks(n, socle_max, start, chunk_size, limit=None, cursor=None):
    """Walk the family and yield its chunks (count, bound_holds, exception value tuples, last tuple).

    The family is the O-sequences in n variables that extend start (a value
    tuple checked by hilbert._checked_prefix) up to socle degree socle_max,
    in _enumerate_value_tuples's order. A chunk takes chunk_size functions,
    and the walk stops after limit; the exceptions are the functions whose
    greedy max shifts break the bound. The walk is verdict._greedy_step's
    generated walk: its stack holds (node state, first v, last v) entries
    for ranges of a node's children, each leaf parent is walked in its
    grandparent's frame, and a leaf family is counted whole in O(1) from a
    per-walk cache when a lower bound on its shifts shows that all of it
    holds. This function only seeds that stack and gives the walk's last,
    unfinished chunk its last tuple, the family's last function.

    Without a cursor (or with one before start) the stack holds start alone,
    as the range of one in its parent's entry (for start (1,), the root's
    parent (), with zero blocks and maxima). With cursor, only the functions
    after it in tuple order are counted: the stack is seeded by stepping
    down the cursor's path once, from start on, and each prefix on it takes
    the range of its children after the cursor's next value, and the cursor,
    when it is in the family, all its children. So a leaf parent on the
    seeded stack is always part of a range and reaches the walk's one
    leaf-parent loop, and a leaf there is evaluated alone, outside the
    family cache. A cursor after the family leaves the stack empty.
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
    INCOMPLETE report when the family has functions left. The report's
    timing holds seconds, this call's time, and the stage times walk
    (producing each chunk), classify and checkpoint (appending and syncing
    its log line), summed over chunks and rounded down to the millisecond,
    so that they sum to at most seconds.
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
    stages = dict.fromkeys(("walk", "classify", "checkpoint"), 0.0)
    with ExitStack() as stack:
        if checkpoint_path:
            log = stack.enter_context(open(checkpoint_path, "a+b"))
            stack.callback(os.fsync, log.fileno())
            synced = time.monotonic()
            scanned, bound_holds, exceptions, cursor = _replay_log(log, checkpoint_path, parameters)
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
