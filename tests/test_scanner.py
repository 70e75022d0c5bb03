"""Tests for family scans, checkpoint resume, reports, and the command line."""

import importlib
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from collections import Counter
from math import factorial, prod
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

import multbound
from multbound import (
    BettiDiagram,
    NeedsCapError,
    NotAdmissibleError,
    betti,
    check_hf,
    check_ideal,
    classify,
    errors,
    hilbert,
    koszul,
    monomial,
    scan,
    scanner,
    verdict,
)
from multbound.cli import main
from multbound.hilbert import _enumerate_value_tuples
from multbound.scanner import _chunks, _greedy_step, _scan_chunk
from multbound.verdict import _greedy

from families import block_row, families, walk_state
from goldens import (
    IDEAL_STABLE_NONCM,
    IDEAL_TRUNC_CERT,
    IDEAL_TRUNC_MULT,
    LEX_1_3_6_7_3_1,
    MID_1_3_6_7_3_1,
    MIN_1_3_6_7_3_1,
    diagram,
)

EXPECTED_EXCEPTIONS = [
    ("1,3,4,4,3", "ELIMINATED", "er,gen"),
    ("1,3,6,7,6,2", "ELIMINATED", "er,gen"),
    ("1,3,6,7,7,5", "ELIMINATED", "er,gen"),
]


@pytest.fixture(scope="module")
def baseline():
    return scan(3, 5, (1, 3))


def test_small_family_scan_frozen_counts(baseline):
    assert baseline.status == "COMPLETE"
    assert baseline.counts["scanned"] == 813
    assert baseline.counts["bound_holds"] == 810
    assert baseline.counts["eliminated"] == 3
    assert baseline.counts["unresolved"] == 0
    assert baseline.counts["eliminated_by"] == {"er,gen": 3}
    triples = [(r["hf"], r["status"], r["reason"]) for r in baseline.exceptions]
    assert triples == EXPECTED_EXCEPTIONS
    assert baseline.checkpoint_cursor == "1,3,6,10,15,21"
    rec = baseline.exceptions[0]
    assert rec["e"] == 15 and rec["lhs"] == 90
    assert rec["rhs"] < rec["lhs"]
    assert rec["witnesses"]["violating_diagrams"] >= 1
    assert rec["witnesses"]["survivors"] == []


def test_single_variable_scan_all_hold():
    report = scan(1, 7)
    assert report.counts["scanned"] == 8
    assert report.counts["bound_holds"] == 8
    assert report.exceptions == []
    assert report.status == "COMPLETE"


def _without_timing(report):
    payload = json.loads(report.to_json())
    del payload["timing"]
    return payload


def test_scan_resumes_from_checkpoint(baseline, tmp_path):
    cp = tmp_path / "scan.ckpt"
    first = scan(3, 5, (1, 3), chunk_size=100, checkpoint_path=str(cp), limit=250)
    assert first.status == "INCOMPLETE"
    assert first.counts["scanned"] == 250
    assert cp.exists()
    with pytest.raises(ValueError):
        scan(3, 4, (1, 3), checkpoint_path=str(cp))
    second = scan(3, 5, (1, 3), chunk_size=100, checkpoint_path=str(cp))
    assert second.status == "COMPLETE"
    assert _without_timing(second) == _without_timing(baseline)
    assert second.to_csv() == baseline.to_csv()


def _log_lines(path):
    return [json.loads(line) for line in path.read_bytes().splitlines()]


def _record_fsyncs(monkeypatch):
    """List that collects the size of the synced file at every os.fsync the scanner makes from now on."""
    synced = []
    monkeypatch.setattr(scanner.os, "fsync", lambda fd: synced.append(os.fstat(fd).st_size))
    return synced


def _line_ends(path):
    """The file size after each of path's lines."""
    ends, end = [], 0
    for line in path.read_bytes().splitlines(keepends=True):
        end += len(line)
        ends.append(end)
    return ends


@pytest.mark.parametrize("error", [KeyboardInterrupt, MemoryError])
def test_scan_checkpoints_consumed_chunks_when_interrupted(baseline, tmp_path, monkeypatch, error):
    cp = tmp_path / "scan.ckpt"
    synced = _record_fsyncs(monkeypatch)
    real_chunk = scanner._scan_chunk
    calls = []

    def failing_chunk(chunk, n, options):
        calls.append(chunk)
        if len(calls) == 3:
            raise error("stop")
        return real_chunk(chunk, n, options)

    monkeypatch.setattr(scanner, "_scan_chunk", failing_chunk)
    with pytest.raises(error):
        scan(3, 5, (1, 3), chunk_size=100, checkpoint_path=str(cp))
    monkeypatch.undo()
    header, *chunks = _log_lines(cp)
    assert header == baseline.parameters
    assert [count for count, _, _, _ in chunks] == [100, 100]  # the two chunks consumed
    assert synced[-1:] == [cp.stat().st_size]  # synced on the way out
    resumed = scan(3, 5, (1, 3), chunk_size=100, checkpoint_path=str(cp))
    assert resumed.status == "COMPLETE"
    assert _without_timing(resumed) == _without_timing(baseline)


def test_scan_resumes_from_every_log_prefix(baseline, tmp_path):
    full = tmp_path / "full.ckpt"
    scan(3, 5, (1, 3), chunk_size=100, checkpoint_path=str(full))
    lines = full.read_bytes().splitlines(keepends=True)
    assert len(lines) == 10  # the parameters, then 9 chunks for 813 functions
    cp = tmp_path / "scan.ckpt"
    for kept in range(len(lines) + 1):
        torn = lines[min(kept, len(lines) - 1)]
        for tail in (b"", torn[: len(torn) // 2]):
            cp.write_bytes(b"".join(lines[:kept]) + tail)
            resumed = scan(3, 5, (1, 3), chunk_size=100, checkpoint_path=str(cp))
            assert _without_timing(resumed) == _without_timing(baseline), (kept, tail)
            assert cp.read_bytes() == full.read_bytes(), (kept, tail)


def test_scan_syncs_a_fast_checkpoint_once_on_exit(tmp_path, monkeypatch):
    # A frozen clock: the whole scan takes under SYNC_SECONDS.
    monkeypatch.setattr(scanner, "time", SimpleNamespace(perf_counter=time.perf_counter, monotonic=lambda: 0.0))
    synced = _record_fsyncs(monkeypatch)
    cp = tmp_path / "scan.ckpt"
    scan(3, 5, (1, 3), chunk_size=10, checkpoint_path=str(cp))
    assert len(_line_ends(cp)) == 1 + 82  # the parameters, then 82 chunks for 813 functions
    assert synced == [cp.stat().st_size]  # one fsync, after the last line


def test_scan_syncs_its_checkpoint_once_a_second(tmp_path, monkeypatch):
    # Each chunk takes half a second, so the log is synced after every second chunk line.
    clock = [0.0]

    def slow_chunk(chunk, n, options):
        clock[0] += 0.5
        return _scan_chunk(chunk, n, options)

    monkeypatch.setattr(scanner, "time", SimpleNamespace(perf_counter=time.perf_counter, monotonic=lambda: clock[0]))
    monkeypatch.setattr(scanner, "_scan_chunk", slow_chunk)
    synced = _record_fsyncs(monkeypatch)
    cp = tmp_path / "scan.ckpt"
    scan(3, 5, (1, 3), chunk_size=100, checkpoint_path=str(cp))
    ends = _line_ends(cp)
    assert len(ends) == 10  # the parameters, then 9 chunks for 813 functions
    assert synced == ends[2::2] + ends[-1:]


@pytest.mark.parametrize("chunk_size", [1, 7, 100])
def test_scan_checkpoint_bytes_equal_a_per_chunk_sync_log(chunk_size, tmp_path, monkeypatch):
    synced = _record_fsyncs(monkeypatch)
    with monkeypatch.context() as m:
        m.setattr(scanner, "SYNC_SECONDS", 0)  # an fsync after every chunk line
        reference = tmp_path / "reference.ckpt"
        scan(3, 5, (1, 3), chunk_size=chunk_size, checkpoint_path=str(reference))
    assert synced == _line_ends(reference)[1:] + [reference.stat().st_size]
    cp = tmp_path / "scan.ckpt"
    scan(3, 5, (1, 3), chunk_size=chunk_size, checkpoint_path=str(cp))
    assert cp.read_bytes() == reference.read_bytes()


def test_scan_timing_adds_stage_times_that_sum_to_at_most_its_seconds(tmp_path, monkeypatch):
    report = scan(3, 6, (1, 3), chunk_size=100, checkpoint_path=str(tmp_path / "scan.ckpt"))
    # In whole milliseconds, so that the sum is exact.
    ms = {key: round(spent * 1000) for key, spent in report.timing.items()}
    assert set(ms) == {"seconds", "walk", "classify", "checkpoint"}
    assert min(ms.values()) >= 0
    assert ms["walk"] + ms["classify"] + ms["checkpoint"] <= ms["seconds"]
    # A clock that only classifying a chunk moves, by a second each: 9 chunks for 813 functions.
    clock = [0.0]

    def slow_chunk(chunk, n, options):
        clock[0] += 1.0
        return _scan_chunk(chunk, n, options)

    monkeypatch.setattr(scanner, "time", SimpleNamespace(perf_counter=lambda: clock[0], monotonic=lambda: clock[0]))
    monkeypatch.setattr(scanner, "_scan_chunk", slow_chunk)
    report = scan(3, 5, (1, 3), chunk_size=100, checkpoint_path=str(tmp_path / "slow.ckpt"))
    assert report.timing == {"seconds": 9.0, "walk": 0.0, "classify": 9.0, "checkpoint": 0.0}


@pytest.fixture
def walk_windows(monkeypatch):
    """List that collects (s, H(s-1), H(s)) of each lookup of a function's own lex block the scan walk makes.

    The generated walk looks up a function's own degree's block,
    monomial._lex_column_block(n, s, H(s-1), H(s)) with s >= 1, once per
    block-row entry it builds for the function, and once when it evaluates
    the function through step; its only other lookups, of the next
    degree's block, have H(s+1) = 0. The generated code binds the block
    function when it is generated, so it is generated afresh around the test.
    """
    real_block = scanner._lex_column_block
    windows = []

    def recording_block(n, d, prev_h, h):
        if h:
            windows.append((d, prev_h, h))
        return real_block(n, d, prev_h, h)

    _greedy_step.cache_clear()
    monkeypatch.setattr(scanner, "_lex_column_block", recording_block)
    yield windows
    monkeypatch.undo()
    _greedy_step.cache_clear()


def _window(vals):
    return len(vals) - 1, vals[-2], vals[-1]


def _evaluated_on_resume(n, socle_max, prefix, cursor):
    """Windows of the functions a resume from cursor must evaluate: those after it, and its path once.

    Seeding steps down the cursor's path from the prefix, through its
    prefixes of socle degree 1 to socle_max - 1 (the cursor itself among
    them when it is no leaf); the window of every function after the cursor
    is looked up once, when no two of the nodes after it share a block row.
    """
    after = [vals for vals in _enumerate_value_tuples(n, socle_max, prefix) if vals > cursor]
    path = [cursor[:k] for k in range(2, min(len(cursor), socle_max) + 1)]
    return after, Counter(map(_window, after + path))


def test_scan_resume_evaluates_nothing_before_the_cursor(baseline, tmp_path, walk_windows):
    cp = tmp_path / "scan.ckpt"
    scan(3, 5, (1, 3), chunk_size=100, checkpoint_path=str(cp), limit=800)
    *_, (_, _, _, last) = _log_lines(cp)
    cursor = tuple(last)
    after, expected = _evaluated_on_resume(3, 5, (1, 3), cursor)
    walk_windows.clear()
    resumed = scan(3, 5, (1, 3), chunk_size=100, checkpoint_path=str(cp))
    assert _without_timing(resumed) == _without_timing(baseline)
    # Only the last chunk's 13 functions, and the cursor's prefixes on the way down to it.
    assert len(after) == 13
    assert Counter(walk_windows) == expected


@pytest.mark.parametrize("family", [(3, 6, (1, 3)), (4, 5, (1, 4))])
def test_walk_looks_up_each_window_of_its_last_two_degrees_once(family, walk_windows):
    # Each block row is built once per walk, however many nodes share it.
    n, socle_max, prefix = family
    list(_chunks(n, socle_max, prefix, scanner.DEFAULT_CHUNK_SIZE))
    looked_up = Counter(window for window in walk_windows if window[0] >= socle_max - 1)
    functions = _enumerate_value_tuples(n, socle_max, prefix)
    assert set(looked_up) == {_window(vals) for vals in functions if len(vals) >= socle_max}
    assert set(looked_up.values()) == {1}


# In n=3, prefix 1,3,6,10,15, socle degree at most 6 (295 functions), the
# leaves of 1,3,6,10,15,15 are functions 134..151, and their run
# 1,3,6,10,15,15,10..11 holds at v=10 (function 143) and fails at v=11.
SPLIT_FAMILY = (3, 6, (1, 3, 6, 10, 15))


def _reference_chunks(n, socle_max, prefix, chunk_size, limit, cursor):
    """_chunks's output built one function at a time from the enumeration and _greedy."""
    family = _enumerate_value_tuples(n, socle_max, prefix)
    functions = [vals for vals in family if cursor is None or vals > cursor][:limit]
    chunks = []
    for i in range(0, len(functions), chunk_size):
        part = functions[i:i + chunk_size]
        exceptions = [vals for vals in part if factorial(n) * sum(vals) > prod(_greedy(vals, n)[2])]
        chunks.append((len(part), len(part) - len(exceptions), exceptions, part[-1]))
    return chunks


# scan-n4's family: its start is a leaf parent, seeded as a range of one in its parent's entry.
SCAN_N4_FAMILY = (4, 5, (1, 4, 10, 16, 20))
# A family whose start is a grandparent: the leaf parents 1,3,6,8,v are functions 1, 3,
# 6, 10, 15, 22, 30, 39, 49 and 61 of 74, all walked in the start's frame.
GRANDPARENT_START = (3, 5, (1, 3, 6, 8))


# In n=2, the family of 1,2,3,2 has two runs, (0, 6) at v=1 and (5, 6) at
# v=2, and extension maxima (3, 0): both leaves hold, but the runs' least
# vector (0, 6), filled to (3, 6), bounds only v <= 1.
LO_FAILS_FAMILY = (2, 4, (1, 2, 3, 2))


@settings(max_examples=60, deadline=None)
@given(
    families({2: 5, 3: 3, 4: 2}),
    st.integers(1, 64),
    st.none() | st.integers(1, 400),
    st.none() | st.integers(0, 400),
)
@example(SPLIT_FAMILY, 64, None, None)  # the family and its run inside chunk 3
@example(SPLIT_FAMILY, 48, None, None)  # chunk 3 ends at function 143, inside the run
@example(SPLIT_FAMILY, 3, 5, 143)  # resumed inside the run, before its exception
@example(SPLIT_FAMILY, 1, None, 140)  # one-function chunks from inside the family
@example(LO_FAILS_FAMILY, 64, None, None)  # every leaf holds, but not by the least vector
@example((3, 5, (1, 3)), 100, None, None)  # whole-holding families straddle chunk ends
@example(SCAN_N4_FAMILY, 64, None, None)  # the start is a leaf parent
@example(GRANDPARENT_START, 64, None, None)  # the start walks its leaf parents in its frame
@example(GRANDPARENT_START, 11, 31, None)  # chunk 1 ends at function 10, the limit at 30: leaf parents
@example(GRANDPARENT_START, 4, None, 15)  # resumed after leaf parent 1,3,6,8,5
@example(GRANDPARENT_START, 4, None, 17)  # resumed after its leaf 1,3,6,8,5,2
@example((4, 8, (1, 4, 8, 12, 15, 16, 14)), 64, None, None)  # three exceptions with an empty greedy column
@example((1, 5, (1,)), 4, None, None)  # no blocks carried
@example((2, 5, (1, 2)), 8, None, None)  # one block carried
@example((3, 1, (1,)), 1, None, None)  # the root's leaf-parent row, whose block is zero
@example((3, 1, (1,)), 512, None, None)
@example((2, 0, (1,)), 1, None, None)  # the root alone
@example((2, 0, (1,)), 512, None, None)
@example((1, 5, (1,)), 1, None, None)  # one-entry rows all the way down
@example((1, 5, (1,)), 512, None, None)
def test_chunks_of_the_batched_walk_equal_per_function_chunks(family, chunk_size, limit, at):
    n, socle_max, prefix = family
    functions = list(_enumerate_value_tuples(n, socle_max, prefix))
    cursor = None if at is None else functions[at % len(functions)]
    chunks = list(_chunks(n, socle_max, prefix, chunk_size, limit, cursor))
    assert chunks == _reference_chunks(n, socle_max, prefix, chunk_size, limit, cursor)


# The walk properties draw n <= 5; these run the kernels generated for n = 6 and 7.
# The cursors are leaves just before the exceptions of their own leaf family.
@pytest.mark.parametrize("family, cursor, functions, exceptions", [
    ((6, 3, (1,)), (1, 6, 15, 20), 903, 7),
    ((7, 3, (1,)), (1, 7, 20, 32), 1898, 20),
])
def test_chunks_in_six_and_seven_variables_equal_per_function_chunks(family, cursor, functions, exceptions):
    for chunk_size in (1, 64):
        chunks = list(_chunks(*family, chunk_size))
        assert chunks == _reference_chunks(*family, chunk_size, None, None)
    assert sum(chunk[0] for chunk in chunks) == functions
    assert sum(len(chunk[2]) for chunk in chunks) == exceptions
    assert list(_chunks(*family, 5, cursor=cursor)) == _reference_chunks(*family, 5, None, cursor)


def test_lo_fails_family_example_holds_everywhere_but_not_by_its_least_vector():
    n, socle_max, parent = LO_FAILS_FAMILY
    blocks, maxima, _, bound = walk_state(n, parent)
    _, leaves, _ = _greedy_step(n)
    assert (maxima, bound) == ((3, 0), 2)
    assert leaves(parent, blocks, block_row(n, parent, bound)) == [[1, 1, (0, 6)], [2, 2, (5, 6)]]
    assert 2 * (sum(parent) + 1) <= 3 * 6 and 2 * (sum(parent) + 2) <= 5 * 6
    assert 3 * 6 // 2 - sum(parent) < bound


def _with_cursor(family):
    """(family, cursor), the cursor a function, a leaf, a tuple below one of them, or any tuple."""
    n, socle_max, prefix = family
    expected = list(_enumerate_value_tuples(n, socle_max, prefix))
    leaves = [vals for vals in expected if len(vals) == socle_max + 1]
    return st.tuples(st.just(family), st.one_of(
        st.sampled_from(expected),
        st.sampled_from(leaves),
        st.tuples(st.sampled_from(expected), st.lists(st.integers(0, 12), max_size=2))
        .map(lambda pair: pair[0] + tuple(pair[1])),
        st.lists(st.integers(0, 12), min_size=1, max_size=socle_max + 2).map(tuple),
    ))


@settings(max_examples=40, deadline=None)
@given(families({1: 6, 2: 4, 3: 2, 4: 2}).flatmap(_with_cursor))
@example(((3, 4, (1, 3)), (1, 3, 6, 10)))  # a leaf parent: its whole leaf family follows
@example(((3, 4, (1, 3)), (1, 3, 6, 10, 15)))  # the last leaf of the last family: nothing follows
@example(((3, 4, (1, 3)), (1, 3, 6, 7, 9)))  # a family's last leaf: 1,3,6,8 follows
@example(((3, 4, (1, 3)), (1, 2)))  # below the prefix: the whole family follows
@example(((3, 4, (1, 3)), (1, 3, 6, 7, 5, 3)))  # longer than socle_max + 1: leaf 1,3,6,7,5 is before it
@example((SCAN_N4_FAMILY, (1, 4)))  # below a start that is a leaf parent
@example((GRANDPARENT_START, (1, 3, 6)))  # below a start that is a grandparent
@example((GRANDPARENT_START, (1, 3, 6, 8, 5)))  # a leaf parent inside its grandparent's loop
@example((GRANDPARENT_START, (1, 3, 6, 8, 5, 2)))  # a leaf inside that loop
@example(((1, 4, (1,)), (1, 1)))  # no blocks carried
@example(((2, 4, (1, 2)), (1, 2, 3, 2)))  # one block carried; a leaf parent
def test_chunks_yield_the_enumeration_after_the_cursor(case):
    (n, socle_max, prefix), cursor = case
    expected = list(_enumerate_value_tuples(n, socle_max, prefix))
    # Only what comes after the cursor in tuple order is left.
    # One-function chunks: each chunk's last tuple is its function.
    resumed = [last for _, _, _, last in _chunks(n, socle_max, prefix, 1, cursor=cursor)]
    assert resumed == [vals for vals in expected if vals > cursor]


def test_chunks_below_the_prefix_socle_degree_are_empty():
    assert list(_chunks(3, 1, (1, 3, 6), 512)) == []


def test_split_family_example_splits_a_family_inside_a_run_with_exceptions():
    n, socle_max, prefix = SPLIT_FAMILY
    parent = (1, 3, 6, 10, 15, 15)
    functions = list(_enumerate_value_tuples(n, socle_max, prefix))
    family = [i for i, vals in enumerate(functions) if vals[:-1] == parent]
    assert (family[0], family[-1], functions.index(parent + (10,))) == (134, 151, 143)
    blocks, maxima, _, bound = walk_state(n, parent)
    _, leaves, _ = _greedy_step(n)
    row = block_row(n, parent, bound)
    runs = [(first, last, tuple(map(max, new, maxima))) for first, last, new in leaves(parent, blocks, row)]
    assert (10, 11, (5, 8, 9)) in runs
    # The parent and its 18 leaves, of which only v = 11 breaks the bound.
    assert list(_chunks(n, socle_max, parent, 64)) == [(19, 18, [parent + (11,)], parent + (18,))]
    assert 6 * (sum(parent) + 10) <= 5 * 8 * 9 < 6 * (sum(parent) + 11)


def test_scan_resume_inside_a_leaf_family_evaluates_no_leaf_up_to_the_cursor(tmp_path, walk_windows):
    base = _without_timing(scan(*SPLIT_FAMILY))
    cp = tmp_path / "scan.ckpt"
    # Chunks of 48 end at function 143, the leaf 1,3,6,10,15,15,10 of an 18-leaf family.
    first = scan(*SPLIT_FAMILY, chunk_size=48, checkpoint_path=str(cp), limit=144)
    assert first.status == "INCOMPLETE"
    cursor = tuple(_log_lines(cp)[-1][3])
    assert cursor == (1, 3, 6, 10, 15, 15, 10)
    _, expected = _evaluated_on_resume(*SPLIT_FAMILY, cursor)
    walk_windows.clear()
    resumed = scan(*SPLIT_FAMILY, chunk_size=48, checkpoint_path=str(cp))
    assert _without_timing(resumed) == base
    # Nothing up to the cursor but its path; the cursor is a leaf, so not on it.
    assert Counter(walk_windows) == expected and _window(cursor) not in walk_windows
    # The family's leaves after the cursor, 11..18, each evaluated once, uncached,
    # in order; no other function has socle degree 6 and H(5) = 15.
    assert [w for w in walk_windows if w[:2] == (6, 15)] == [(6, 15, v) for v in range(11, 19)]


@settings(max_examples=10, deadline=None)
@given(
    families({2: 3, 3: 2}, max_prefix=4),
    st.integers(1, 64),
    st.floats(0, 1),
)
@example((3, 5, (1, 3)), 100, 0.3)
def test_scan_report_is_independent_of_chunks_and_resume_point(family, chunk_size, stop):
    n, socle_max, prefix = family
    base = _without_timing(scan(n, socle_max, prefix))
    chunked = scan(n, socle_max, prefix, chunk_size=chunk_size)
    assert _without_timing(chunked) == base
    limit = max(1, round(stop * base["counts"]["scanned"]))
    with tempfile.TemporaryDirectory() as tmp:
        cp = os.path.join(tmp, "scan.ckpt")
        first = scan(n, socle_max, prefix, chunk_size=chunk_size, checkpoint_path=cp, limit=limit)
        assert first.counts["scanned"] == limit
        resumed = scan(n, socle_max, prefix, chunk_size=chunk_size, checkpoint_path=cp)
    assert _without_timing(resumed) == base


def test_scan_rejects_unreadable_checkpoints(tmp_path):
    cp = tmp_path / "scan.ckpt"
    # The earlier format: a cursor line, then one JSON object with the totals.
    old = {"parameters": {}, "scanned": 1, "bound_holds": 1, "exceptions": []}
    cp.write_text("1,3,6\n" + json.dumps(old) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"checkpoint {cp} line 1 does not parse")):
        scan(3, 4, (1, 3), checkpoint_path=str(cp))
    scan(3, 4, (1, 3), chunk_size=50, checkpoint_path=str(tmp_path / "good.ckpt"))
    lines = (tmp_path / "good.ckpt").read_bytes().splitlines(keepends=True)
    for bad in (b"[50, 50]\n", b"[50, 50, [], 7]\n", lines[2][:-5] + b"\n"):
        cp.write_bytes(b"".join(lines[:2]) + bad + b"".join(lines[3:]))
        with pytest.raises(ValueError, match=re.escape(f"checkpoint {cp} line 3 does not parse")):
            scan(3, 4, (1, 3), chunk_size=50, checkpoint_path=str(cp))


def _record(**changes):
    """An exception record of the keys scan reads, with changes applied; a change to None drops its key."""
    rec = {
        "hf": "1,3,6,3,3", "status": "ELIMINATED", "reason": "er",
        "witnesses": {"violating_diagrams": 1, "survivors": []},
    } | changes
    return {key: value for key, value in rec.items() if value is not None}


# Replacements for the last line [50, 50, [], [1, 3, 6, 3, 3]] of a log of two 50-function
# chunks; the line before it ends at [1, 3, 5] and holds the family's one exception.
MALFORMED_CHUNK_LINES = {
    "fractional count and holds": [1.5, 1.5, [], [1, 3, 6, 3, 3]],
    "negative count and holds": [-5, -5, [], [1, 3, 6, 3, 3]],
    "bool count and holds": [True, True, [], [1, 3, 6, 3, 3]],
    "zero count": [0, 0, [], [1, 3, 6, 3, 3]],
    "negative holds": [1, -1, [{}, {}], [1, 3, 6, 3, 3]],
    "holds above count": [50, 51, [], [1, 3, 6, 3, 3]],
    "too few records": [50, 49, [], [1, 3, 6, 3, 3]],
    "records not a list": [50, 49, "x", [1, 3, 6, 3, 3]],
    "a cursor entry not an int": [50, 50, [], [1, 3, "x"]],
    "a cursor entry a bool": [50, 50, [], [1, 3, 6, 3, True]],
    "an empty cursor": [50, 50, [], []],
    "a cursor not a list": [50, 50, [], "1,3,6,3,3"],
    "the previous line's cursor": [50, 50, [], [1, 3, 5]],
    "a cursor before the previous one": [50, 50, [], [1, 3, 4, 4, 3]],
    # One exception record with a key scan reads missing or of the wrong type.
    "a record not a dict": [50, 49, [5], [1, 3, 6, 3, 3]],
    "a record without hf": [50, 49, [_record(hf=None)], [1, 3, 6, 3, 3]],
    "a record status not a string": [50, 49, [_record(status=1)], [1, 3, 6, 3, 3]],
    "a record without a reason": [50, 49, [_record(reason=None)], [1, 3, 6, 3, 3]],
    "a record without witnesses": [50, 49, [_record(witnesses=None)], [1, 3, 6, 3, 3]],
    "record witnesses not a dict": [50, 49, [_record(witnesses=[0, []])], [1, 3, 6, 3, 3]],
    "a record without a violating count": [
        50, 49, [_record(witnesses={"survivors": []})], [1, 3, 6, 3, 3],
    ],
    "a fractional violating count": [
        50, 49, [_record(witnesses={"violating_diagrams": 1.5, "survivors": []})], [1, 3, 6, 3, 3],
    ],
    "a negative violating count": [
        50, 49, [_record(witnesses={"violating_diagrams": -1, "survivors": []})], [1, 3, 6, 3, 3],
    ],
    "record survivors not a list": [
        50, 49, [_record(witnesses={"violating_diagrams": 1, "survivors": 3})], [1, 3, 6, 3, 3],
    ],
}


@pytest.mark.parametrize("bad", MALFORMED_CHUNK_LINES.values(), ids=MALFORMED_CHUNK_LINES)
def test_scan_rejects_malformed_chunk_lines(tmp_path, bad):
    cp = tmp_path / "scan.ckpt"
    scan(3, 4, (1, 3), chunk_size=50, checkpoint_path=str(cp), limit=100)
    header, first, last = _log_lines(cp)
    assert first[:2] == [50, 49] and first[3] == [1, 3, 5] and last == [50, 50, [], [1, 3, 6, 3, 3]]
    cp.write_text("".join(json.dumps(line) + "\n" for line in (header, first, bad)))
    with pytest.raises(ValueError, match=re.escape(f"checkpoint {cp} line 3 does not parse")):
        scan(3, 4, (1, 3), chunk_size=50, checkpoint_path=str(cp))


def test_scan_with_a_bad_prefix_leaves_no_checkpoint(tmp_path):
    cp = tmp_path / "scan.ckpt"
    for prefix in ((1, 3, 7), (1, 3, 0), (2,), ()):
        with pytest.raises(NotAdmissibleError):
            scan(3, 4, prefix, checkpoint_path=str(cp))
        assert not cp.exists()


def test_scan_limit_covering_the_family_is_complete(baseline):
    report = scan(3, 5, (1, 3), limit=813)
    assert report.status == "COMPLETE"
    assert _without_timing(report) == _without_timing(baseline)


def test_scan_rejects_inconsistent_checkpoint(tmp_path):
    cp = tmp_path / "scan.ckpt"
    scan(3, 4, (1, 3), checkpoint_path=str(cp))
    header, chunk = _log_lines(cp)
    # A count that disagrees with the line's own records does not parse.
    chunk[0] += 1
    cp.write_text(json.dumps(header) + "\n" + json.dumps(chunk) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"checkpoint {cp} line 2 does not parse")):
        scan(3, 4, (1, 3), checkpoint_path=str(cp))
    # One that disagrees with the records' statuses is caught by the report's totals.
    chunk[0] -= 1
    chunk[2][0]["status"] = "HOLDS"
    cp.write_text(json.dumps(header) + "\n" + json.dumps(chunk) + "\n")
    with pytest.raises(ValueError, match="scan counts disagree"):
        scan(3, 4, (1, 3), checkpoint_path=str(cp))


def test_scan_rejects_a_log_whose_counts_or_cursor_leave_the_family(tmp_path):
    # Each line is consistent with itself, but the log as a whole is not: a
    # count one short of the functions up to its cursor once resumed to
    # "scanned 170, COMPLETE" for a family of 171.
    cp = tmp_path / "scan.ckpt"
    args = ["scan", "--vars", "3", "--socle-max", "4", "--prefix", "1,3", "--chunk-size", "50", "--checkpoint", str(cp)]
    assert main(args + ["--limit", "100"]) == 1
    header, first, last = _log_lines(cp)
    for bad, message in (
        ([49, 49, [], last[3]], "99 functions up to 1,3,6,3,3, but the family has 100"),
        ([50, 50, [], [1, 3, 6, 3, 4]], "100 functions up to 1,3,6,3,4, but that is not a function of the family"),
        ([50, 50, [], [1, 3, 6, 10, 15, 1]], "100 functions up to 1,3,6,10,15,1, but that is not a function of the family"),
        ([50, 50, [], [1, 4]], "100 functions up to 1,4, but that is not a function of the family"),
    ):
        cp.write_text("".join(json.dumps(line) + "\n" for line in (header, first, bad)))
        message = f"scan counts disagree: checkpoint {cp} logs {message}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            scan(3, 4, (1, 3), chunk_size=50, checkpoint_path=str(cp))
        assert main(args) == 1
    cp.write_text("".join(json.dumps(line) + "\n" for line in (header, first, last)))
    assert main(args) == 0
    assert scan(3, 4, (1, 3), checkpoint_path=str(cp)).counts["scanned"] == 171


def test_family_rank_counts_every_function_up_to_it():
    for n, socle_max, prefix in ((1, 6, (1,)), (2, 6, (1,)), (3, 5, (1,)), (3, 5, (1, 3, 6)), (4, 4, (1, 4))):
        family = list(_enumerate_value_tuples(n, socle_max, prefix))
        assert [scanner._family_rank(n, socle_max, prefix, vals) for vals in family] == list(range(1, len(family) + 1))
    # A deep family: the counts do not recurse through its degrees.
    assert scanner._family_rank(1, 5000, (1,), (1,) * 5001) == 5001


def test_scan_records_match_classify(baseline):
    for report, n in ((baseline, 3), (scan(4, 4, (1, 4)), 4)):
        assert report.exceptions
        for rec in report.exceptions:
            H = tuple(int(v) for v in rec["hf"].split(","))
            assert rec == classify(H, n).to_record()


def test_scan_report_formats(baseline, tmp_path):
    payload = json.loads(baseline.to_json())
    assert set(payload) == {
        "parameters", "counts", "exceptions", "timing", "checkpoint_cursor", "status",
    }
    assert payload["parameters"] == {
        "n": 3, "socle_max": 5, "prefix": [1, 3],
        "filters": ["aci", "er", "gen", "growth"], "dfs_cap": 1_000_000,
    }
    assert set(payload["exceptions"][0]) == {
        "hf", "e", "shifts", "lhs", "rhs", "status", "reason", "diagram", "witnesses",
    }
    lines = baseline.to_csv().splitlines()
    assert lines[0] == "hf,e,M,lhs,rhs,status,reason"
    assert len(lines) == 4
    assert lines[1].startswith('"1,3,4,4,3"')
    assert lines[1].endswith('"er,gen"')
    out_json = tmp_path / "report.json"
    out_csv = tmp_path / "report.csv"
    scan(3, 3, (1, 3), out_path=str(out_json))
    scan(3, 3, (1, 3), out_path=str(out_csv), out_format="csv")
    assert json.loads(out_json.read_text())["status"] == "COMPLETE"
    assert out_csv.read_text().splitlines()[0] == "hf,e,M,lhs,rhs,status,reason"


def test_scan_report_write_interrupted_midway_leaves_the_old_report(tmp_path, monkeypatch):
    out = tmp_path / "report.json"
    scan(3, 3, (1, 3), out_path=str(out))
    old = out.read_bytes()
    made = tmp_path / "made"
    made.write_text("")
    assert out.stat().st_mode == made.stat().st_mode  # the permissions open() gives a new file

    def interrupted_open(path, mode="r", **kwargs):
        fh = open(path, mode, **kwargs)

        def write(text):
            type(fh).write(fh, text[: len(text) // 2])
            fh.flush()
            raise KeyboardInterrupt

        fh.write = write
        return fh

    monkeypatch.setattr(scanner, "open", interrupted_open, raising=False)
    with pytest.raises(KeyboardInterrupt):
        scan(3, 4, (1, 3), out_path=str(out))
    assert out.read_bytes() == old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["made", "report.json"]


def test_scan_summary_content(baseline):
    text = baseline.summary()
    assert "scan: n=3 prefix=1,3 socle_max=5 filters=aci,er,gen,growth dfs_cap=1000000" in text
    assert "scanned 813 Hilbert functions" in text
    assert "bound holds: 810" in text
    assert "exceptions: 3 (eliminated 3, unresolved 0)" in text
    assert "eliminated by: er,gen: 3" in text
    assert "status: COMPLETE" in text
    assert "unresolved Hilbert functions" not in text


def test_scan_rejects_bad_arguments(tmp_path):
    for bad in (
        {"filters": ("bogus",)},
        {"out_format": "xml"},
        {"chunk_size": 0},
        {"chunk_size": None},
        {"limit": 0},
        {"jobs": 0},
        {"jobs": -2},
        {"jobs": None},
        {"dfs_cap": 0},
        {"dfs_cap": -5},
    ):
        with pytest.raises(ValueError):
            scan(3, 3, **bad)
    for n in (0, -1):
        with pytest.raises(ValueError, match=f"need at least one variable, got n={n}"):
            scan(n, 3)
    # A socle_max below the prefix's socle degree leaves an empty family.
    log = tmp_path / "empty.log"
    for socle_max, prefix in ((-1, (1,)), (1, (1, 3, 6))):
        with pytest.raises(ValueError, match="the family is empty"):
            scan(3, socle_max, prefix, checkpoint_path=str(log))
        assert not log.exists()


@pytest.mark.parametrize("bad", [
    {"chunk_size": 2.5},  # once reported COMPLETE with 156.0 of the family's 171 functions scanned
    {"chunk_size": True},  # once taken as 1
    {"chunk_size": "8"},
    {"limit": 7.5},  # once reported 7.5 scanned with cursor 1,3,2,1.5
    {"limit": True},
    {"jobs": 1.5},  # once a bare TypeError
    {"jobs": True},
])
def test_scan_rejects_non_int_sizes_before_writing_a_checkpoint(bad, tmp_path):
    (name, value), = bad.items()
    log = tmp_path / "scan.log"
    with pytest.raises(ValueError, match=f"^{name} must be an int, got {value!r}$"):
        scan(3, 4, (1, 3), checkpoint_path=str(log), **bad)
    assert not log.exists()


@pytest.mark.parametrize("args, name, value", [
    ((True, 3), "n", True),  # once scanned one variable
    ((3, 4.5), "socle_max", 4.5),  # once scanned socle <= 4 and recorded socle_max 4
    ((3.0, 4), "n", 3.0),  # once a bare TypeError
    ((3, True), "socle_max", True),
    ((3, "4"), "socle_max", "4"),
    ((3, 4, (1, 3.9)), "Hilbert function value", 3.9),  # once scanned prefix 1,3, COMPLETE with 171 functions
])
def test_scan_rejects_non_int_n_and_socle_max_before_writing_a_checkpoint(args, name, value, tmp_path):
    log = tmp_path / "scan.log"
    with pytest.raises(ValueError, match=f"^{name} must be an int, got {re.escape(repr(value))}$"):
        scan(*args, checkpoint_path=str(log))
    assert not log.exists()


def test_classify_and_hilbert_functions_reject_non_int_values():
    # Each was once truncated or taken as is: classify took 1,3,5,2, HilbertFunction held 1,1,
    # is_o_sequence said True, macaulay_bound(2.5, 2) gave 3, enumerate_o_sequences(2, 2.5)
    # listed socle <= 2, and later returned without error until iterated, and
    # upper_bound_holds(5.5, ...) compared lhs 11.0.
    for make, name, value in (
        (lambda: classify((1, 3, 5.8, 2.2), 3), "Hilbert function value", 5.8),
        (lambda: hilbert.HilbertFunction([1, True]), "Hilbert function value", True),
        (lambda: hilbert.is_o_sequence([1, 3, 6.5], 3), "Hilbert function value", 6.5),
        (lambda: check_hf((1, 3, 6.0)), "Hilbert function value", 6.0),
        (lambda: hilbert.is_o_sequence((1, 3, 6), 3.0), "n", 3.0),
        (lambda: hilbert.macaulay_bound(2.5, 2), "h", 2.5),
        (lambda: hilbert.macaulay_bound(True, 2), "h", True),
        (lambda: hilbert.macaulay_bound(3, 2.0), "d", 2.0),
        (lambda: hilbert.macaulay_expansion(4, 1.5), "d", 1.5),
        (lambda: list(hilbert.enumerate_o_sequences(2, 2.5)), "socle_max", 2.5),
        (lambda: hilbert.enumerate_o_sequences(2, 2.5), "socle_max", 2.5),
        (lambda: list(hilbert.enumerate_o_sequences(True, 3)), "n", True),
        (lambda: verdict.upper_bound_holds(5.5, (2, 3), 2), "e", 5.5),
        (lambda: verdict.upper_bound_holds(5, (2, 3), 2.0), "c", 2.0),
        (lambda: verdict.lower_bound_holds(5, (2, True), 2), "shift", True),
    ):
        with pytest.raises(ValueError, match=f"^{name} must be an int, got {re.escape(repr(value))}$"):
            make()


def test_scan_runs_in_one_process_and_rejects_any_other_jobs_before_writing_a_checkpoint(tmp_path):
    log = tmp_path / "scan.log"
    for jobs in (2, 0, -1):
        with pytest.raises(ValueError, match=f"^jobs must be 1, got {jobs}: scans run in one process$"):
            scan(3, 4, (1, 3), jobs=jobs, checkpoint_path=str(log))
        assert not log.exists()
    assert scan(3, 4, (1, 3), jobs=1, checkpoint_path=str(log)).counts["scanned"] == 171


@pytest.mark.parametrize("n", [3.0, True, None, "3"])
def test_classify_and_check_hf_reject_a_non_int_n(n):
    # 3.0 was once a bare TypeError and True a NotAdmissibleError "outside 0..True".
    with pytest.raises(ValueError, match=f"^n must be an int, got {re.escape(repr(n))}$"):
        classify((1, 3, 6), n)
    if n is not None:
        with pytest.raises(ValueError, match=f"^n must be an int, got {re.escape(repr(n))}$"):
            check_hf("1,3,6", n=n)


def test_check_hf_prints_the_full_pipeline():
    result, text, code = check_hf("1,3,6,7,3,1")
    assert code == 0
    assert result.status == "BOUND_HOLDS"
    assert "H: 1,3,6,7,3,1 (n=3, socle degree 5)" in text
    assert "e = 21" in text
    assert "lex ideal: 12 generators" in text
    assert diagram(LEX_1_3_6_7_3_1).to_text() in text
    assert "after cancellations in columns (1,2):" in text
    assert diagram(MID_1_3_6_7_3_1).to_text() in text
    assert "after cancellations in columns (2,3):" in text
    assert diagram(MIN_1_3_6_7_3_1).to_text() in text
    assert "min shifts: 3 5 6" in text
    assert "max shifts: 4 5 8" in text
    assert "bounds: 15 <= 21 <= 80/3" in text
    assert "upper bound HOLDS (126 <= 160)" in text
    assert "lower bound HOLDS (90 <= 126)" in text
    assert text.rstrip().endswith("status: BOUND_HOLDS")


def test_check_hf_accepts_value_sequences():
    _, text, code = check_hf((1, 3, 6, 9, 9, 6, 2))
    assert code == 0
    assert "total: 1 16 27 12" in text
    assert "bounds: 27 <= 36 <= 42" in text


def test_check_hf_single_variable_default():
    result, text, code = check_hf("1,1,1")
    assert code == 0
    assert "(n=1, socle degree 2)" in text
    assert "bounds: 3 <= 3 <= 3" in text
    assert result.status == "BOUND_HOLDS"


def test_check_hf_names_an_empty_greedy_column_and_searches():
    result, text, code = check_hf("1,4,8,12,15,16,14,9,3", n=4)
    assert code == 0
    assert result.shifts == (2, 0, 11, 12)
    assert "greedy diagram has an empty column 2: no module has this diagram" in text
    assert "max shifts:" not in text
    assert "violating diagrams: 47334 (dfs nodes 216736, degenerate skipped 294)" in text
    assert text.rstrip().endswith("status: ELIMINATED (er,gen,growth)")


def test_check_hf_not_admissible():
    result, text, code = check_hf("1,3,7")
    assert result is None
    assert code == 0
    assert "status: NOT_ADMISSIBLE" in text


def test_check_hf_rejects_unknown_filters():
    with pytest.raises(ValueError, match="unknown filters"):
        check_hf("1,3,6,10,15,15,11", filters=("er", "bogus"))
    with pytest.raises(ValueError, match="unknown filters"):
        check_hf("1,3,7", filters=("bogus",))


def test_check_hf_rejects_dfs_cap_below_one():
    with pytest.raises(ValueError, match="dfs_cap must be at least 1"):
        check_hf("1,3,6,10,15,15,11", dfs_cap=0)


@pytest.mark.parametrize("bad, message", [
    ({"dfs_cap": None}, "dfs_cap must be an int, got None"),
    ({"dfs_cap": 2.5}, "dfs_cap must be an int, got 2.5"),
    ({"dfs_cap": True}, "dfs_cap must be an int, got True"),
    ({"filters": None}, "filters must be an iterable of filter names, got None"),
    ({"filters": "er"}, "filters must be an iterable of filter names, got 'er'"),
    ({"filters": ("er", 1)}, r"filters must be an iterable of filter names, got \('er', 1\)"),
])
def test_classify_scan_and_check_hf_reject_options_of_the_wrong_type(bad, message):
    with pytest.raises(ValueError, match=message):
        classify((1, 3, 6, 10, 15, 15, 11), 3, verdict.ClassifyOptions(**bad))
    with pytest.raises(ValueError, match=message):
        scan(3, 3, **bad)
    with pytest.raises(ValueError, match=message):
        check_hf("1,3,6,10,15,15,11", **bad)


def test_classify_options_keep_any_iterable_of_filter_names_as_a_tuple():
    assert verdict.ClassifyOptions(["gen", "er"]).filters == ("gen", "er")
    assert verdict.ClassifyOptions(iter(["aci"])).filters == ("aci",)
    report = scan(3, 3, filters=["gen", "er", "gen"], dfs_cap=7)
    assert report.parameters["filters"] == ["er", "gen"] and report.parameters["dfs_cap"] == 7


def test_check_hf_unresolved_case():
    result, text, code = check_hf("1,3,6,10,15,21,22,21,15")
    assert code == 2
    assert result.status == "UNRESOLVED"
    assert "diagrams pass all filters" in text
    assert "surviving diagram 1:" in text
    assert "violating diagrams:" in text


def test_check_ideal_certified_case():
    analysis, text, code = check_ideal(IDEAL_TRUNC_CERT)
    assert code == 0
    assert analysis.certified
    assert "ideal: a^3; a*b^2; b^4; c^4; a^2*b*c^3 (n=3)" in text
    assert "e = 31" in text
    assert "pure: no   quasipure: no" in text
    assert "truncation analysis: CERTIFIED" in text
    assert "e = 31 vs truncation e = 57" in text
    assert "upper bound HOLDS (342 <= 432)" in text


def test_check_ideal_with_explicit_truncation():
    _, text, code = check_ideal(IDEAL_TRUNC_MULT, truncate_at=3)
    assert code == 0
    assert "e = 11, truncation e = 13" in text
    assert "rows >= 3 preserved under truncation: yes" in text
    assert "truncation analysis: NOT_APPLICABLE (no minimal generator of degree 4 or 5)" in text


@pytest.mark.parametrize("truncate_at", [5, 6])
def test_check_ideal_reuses_the_analysis_truncation(monkeypatch, truncate_at):
    real_resolution, real_staircase = koszul._resolution, monomial._staircase
    resolved, walked = [], []

    def counting_resolution(I, *args, **kwargs):
        resolved.append(I)
        return real_resolution(I, *args, **kwargs)

    def counting_staircase(I, d_max=None):
        walked.append((I, d_max))
        return real_staircase(I, d_max)

    for module in (koszul, scanner):
        monkeypatch.setattr(module, "_resolution", counting_resolution)
    for module in (monomial, koszul):
        monkeypatch.setattr(module, "_staircase", counting_staircase)
    analysis, text, _ = check_ideal(IDEAL_TRUNC_CERT, truncate_at=truncate_at)
    # One uncapped staircase of I serves the report, the analysis and the truncation.
    I = monomial.parse_ideal(IDEAL_TRUNC_CERT)
    assert [cap for J, cap in walked if J == I] == [None]
    assert analysis.truncation is not None
    assert f"rows >= {truncate_at} preserved under truncation: yes" in text
    if truncate_at == 6:
        # 6 is the max generator degree, where the analysis truncates.
        assert resolved.count(analysis.truncation) == 1
        assert f"truncation at degree 6: {analysis.truncation}" in text
        assert f"e = 31, truncation e = {analysis.e_truncation}" in text


def test_check_ideal_trivial_case():
    analysis, text, code = check_ideal("a")
    assert code == 0
    assert analysis.certified
    assert "upper bound HOLDS (1 <= 1)" in text
    assert "lower bound HOLDS (1 <= 1)" in text


def test_check_ideal_non_artinian_needs_cap():
    with pytest.raises(NeedsCapError):
        check_ideal(IDEAL_STABLE_NONCM)
    _, text, code = check_ideal(IDEAL_STABLE_NONCM, degree_cap=8)
    assert code == 0
    assert "Hilbert function through degree 8: 1,3,6,4,4,4,4,4,4 (not Artinian)" in text
    assert "truncation analysis" not in text
    _, text, _ = check_ideal(IDEAL_STABLE_NONCM, truncate_at=3, degree_cap=9)
    assert "rows >= 3 preserved under truncation: yes" in text
    _, text, _ = check_ideal(IDEAL_STABLE_NONCM, truncate_at=5, degree_cap=3)
    assert "rows >= 5 preserved under truncation: not checked, no row >= 5 to compare" in text


def test_check_ideal_degree_cap_bounds_only_non_artinian_ideals():
    # Capped at 2, the rows >= 4 of this Artinian ideal would all be cut off.
    _, capped, _ = check_ideal(IDEAL_TRUNC_CERT, truncate_at=4, degree_cap=2)
    _, full, _ = check_ideal(IDEAL_TRUNC_CERT, truncate_at=4)
    assert capped == full
    assert "rows >= 4 preserved under truncation: yes" in full


def test_cli_check_hf_exit_codes(capsys):
    assert main(["check-hf", "1,3,6,7,3,1"]) == 0
    assert "status: BOUND_HOLDS" in capsys.readouterr().out
    assert main(["check-hf", "1,3,7"]) == 0
    assert "NOT_ADMISSIBLE" in capsys.readouterr().out
    assert main(["check-hf", "1,3,6,10,15,21,22,21,15"]) == 2
    assert "UNRESOLVED" in capsys.readouterr().out
    assert main(["check-hf", "1,3,6,10,15,15,11", "--filters", "bogus"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown filters" in captured.err
    assert main(["check-hf", "1,3,6,10,15,15,11", "--dfs-cap", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "dfs_cap must be at least 1" in captured.err
    assert main(["check-hf", "1,3,6", "--vars", "x"]) == 1
    assert "argument --vars: invalid int value: 'x'" in capsys.readouterr().err


@pytest.mark.parametrize("sequence", ["1,,3,6", ",1,3,6", "1,3,6,", "1,3, ,6"])
def test_cli_check_hf_rejects_empty_fields(capsys, sequence):
    assert main(["check-hf", sequence]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: empty field in Hilbert function text {sequence!r}\n"


@pytest.mark.parametrize("prefix", ["1,,3", ",1,3", "1,3,", "1, ,3", "1,3,0,"])
def test_cli_scan_rejects_empty_prefix_fields(capsys, prefix):
    assert main(["scan", "--vars", "3", "--socle-max", "3", "--prefix", prefix]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: empty field in --prefix {prefix!r}\n"


def test_cli_scan_exit_codes(capsys):
    assert main([
        "scan", "--vars", "3", "--socle-max", "4", "--prefix", "1,3",
    ]) == 0
    out = capsys.readouterr().out
    assert "status: COMPLETE" in out
    assert main([
        "scan", "--vars", "3", "--socle-max", "4", "--prefix", "1,3",
        "--limit", "50",
    ]) == 1
    assert "status: INCOMPLETE" in capsys.readouterr().out
    assert main([
        "scan", "--vars", "3", "--socle-max", "4", "--prefix", "1,3",
        "--limit", "171",
    ]) == 0
    assert "scanned 171 Hilbert functions" in capsys.readouterr().out
    assert main(["scan", "--vars", "3", "--socle-max", "3", "--filters", "bogus"]) == 1
    assert "unknown filters" in capsys.readouterr().err
    assert main(["scan", "--vars", "3", "--socle-max", "3", "--chunk-size", "0"]) == 1
    assert "chunk_size must be at least 1" in capsys.readouterr().err
    assert main(["scan", "--vars", "3", "--socle-max", "3", "--dfs-cap", "0"]) == 1
    assert "dfs_cap must be at least 1" in capsys.readouterr().err
    assert main(["scan", "--vars", "0", "--socle-max", "3"]) == 1
    assert "need at least one variable, got n=0" in capsys.readouterr().err
    assert main(["scan", "--vars", "3", "--socle-max", "3", "--prefix", "1,x"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: non-integer value in --prefix '1,x'\n"
    assert main(["scan", "--vars", "3", "--socle-max", "3", "--prefix", "1, 3,0"]) == 1
    assert capsys.readouterr().err == "error: prefix (1, 3, 0) has trailing zeros\n"
    assert main(["scan", "--vars", "3", "--socle-max", "3", "--prefix", "1 3"]) == 0
    assert "prefix=1,3 " in capsys.readouterr().out
    assert main(["scan", "--vars", "3", "--socle-max", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "the family is empty" in captured.err
    # Usage errors exit 1 like every other error; argparse's own 2 would read as unresolved.
    for argv in (
        ["scan", "--vars", "three", "--socle-max", "3"],
        ["scan", "--vars", "3", "--socle-max", "3", "--format", "xml"],
        ["scan", "--vars", "3", "--socle-max", "3", "--jobs", "2"],  # scans run in one process
        ["scan", "--socle-max", "3"],
        ["bogus"],
    ):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: multbound") and "error: " in captured.err
    assert main(["scan", "--help"]) == 0
    assert "--jobs" not in capsys.readouterr().out


def test_cli_check_ideal_exit_codes(capsys):
    assert main(["check-ideal", IDEAL_TRUNC_CERT]) == 0
    assert "CERTIFIED" in capsys.readouterr().out
    assert main(["check-ideal", IDEAL_STABLE_NONCM]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["check-ideal", "a^3; q2"]) == 1
    assert "at position" in capsys.readouterr().err
    assert main(["check-ideal", "a*b", "--vars", "2", "--degree-cap", "-1"]) == 1
    assert "degree cap must be nonnegative, got -1" in capsys.readouterr().err
    assert main(["check-ideal", "a^2; b^2", "--degree-cap", "-1"]) == 1
    assert "degree cap must be nonnegative, got -1" in capsys.readouterr().err
    assert main(["check-ideal", "a*b", "--vars", "2", "--degree-cap", "0"]) == 0
    assert "Hilbert function through degree 0: 1 (not Artinian)" in capsys.readouterr().out
    assert main(["check-ideal", "1", "--vars", "2"]) == 1
    assert "unit ideal has no quotient resolution" in capsys.readouterr().err
    assert main(["check-ideal"]) == 1
    assert "the following arguments are required: ideal" in capsys.readouterr().err


def test_cli_scan_writes_report_files(tmp_path, capsys):
    out = tmp_path / "n1.json"
    assert main([
        "scan", "--vars", "1", "--socle-max", "3",
        "--out", str(out), "--format", "json",
    ]) == 0
    capsys.readouterr()
    assert json.loads(out.read_text())["counts"]["scanned"] == 4


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "multbound", "check-hf", "1,3,6,7,3,1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "status: BOUND_HOLDS" in proc.stdout


def test_package_exports_every_module_name():
    for module in (betti, hilbert, koszul, monomial, scanner, verdict):
        missing = set(module.__all__) - set(multbound.__all__)
        assert not missing, f"{module.__name__} exports {sorted(missing)} the package does not"
    assert [name for name in multbound.__all__ if not hasattr(multbound, name)] == []
    # Names neither pipeline called: gone from the package and their modules.
    removed = {
        betti: ["cancel", "huneke_miller", "dual_diagram", "check_shift_growth", "_growth_ok"],
        monomial: ["lex_compare", "monomials_of_degree"],
        verdict: [
            "EvansRichertCheck", "evans_richert_ok", "generator_count_ok",
            "_evans_richert_witness", "_generator_count_ok", "_ci_koszul_shape",
        ],
        errors: ["CannotCancelError", "NotPureError"],
    }
    for module, names in removed.items():
        for name in names:
            assert not hasattr(module, name) and not hasattr(multbound, name), (module.__name__, name)
    with pytest.raises(TypeError):
        BettiDiagram(1, {(0, 0): 1}, validate=False)


def test_console_script_target():
    tomllib = pytest.importorskip("tomllib")
    pyproject = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["multbound"]
    module_name, _, attr = target.partition(":")
    script = getattr(importlib.import_module(module_name), attr)
    assert script(["check-hf", "1,3,6,7,3,1"]) == 0
    assert script(["check-hf", "1,3,6,10,15,21,22,21,15"]) == 2
