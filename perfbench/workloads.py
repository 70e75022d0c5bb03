"""Benchmark workloads: inputs, timed calls, correctness gates, traced replays.

Every call into the program goes through multbound's public API. A workload
provides:

- ``make_inputs(seed)``: the inputs, built from the seed alone;
- ``run(inputs, workdir, span)``: one timed repetition, returning
  ``(items, calls, output)``, where ``calls`` holds the ``time.perf_counter``
  start and end of each timed call; ``span`` wraps each call into the package;
- ``check(inputs, output, reference)``: how many items came out wrong, where
  ``reference`` is the output of the run's first repetition;
- ``replay(inputs, workdir, tracer, output)``: the traced run's per-module
  pass over the same inputs, returning a list of problems found;
- ``params()`` and ``outcome(output)``: metadata recorded with every result.
"""

from __future__ import annotations

import hashlib
import inspect
import itertools
import json
import random
import sys
import time
from collections import Counter
from dataclasses import dataclass

from multbound import (
    BettiDiagram,
    InconsistentDiagramError,
    check_ideal,
    classify,
    ek_betti,
    enumerate_o_sequences,
    greedy_minimize,
    hilbert_from_diagram,
    koszul_betti,
    lex_generator_profile,
    lex_ideal,
    macaulay_bound,
    max_shifts,
    multiplicity,
    parse_ideal,
    quotient_hilbert_function,
    scan,
    truncation_analysis,
    upper_bound_holds,
)
from multbound.betti import columns_from_profile

SCAN_CHUNK_SIZE = inspect.signature(scan).parameters["chunk_size"].default
REPLAY_CHUNK = 1024  # Hilbert functions per replay span

# Exception-record fields that a correct change must keep. DFS node counts and
# degenerate leaves are search statistics, reported but not gated.
GATED_FIELDS = ("hf", "e", "shifts", "lhs", "rhs", "status", "reason", "diagram")
GATED_WITNESSES = ("violating_diagrams", "cap_exceeded", "filter_histogram", "survivors")


def fingerprint(records):
    """Short hash of the gated fields of a scan's exception records, in order."""
    kept = [
        {**{k: r[k] for k in GATED_FIELDS}, **{k: r["witnesses"][k] for k in GATED_WITNESSES}}
        for r in records
    ]
    return hashlib.sha256(json.dumps(kept, sort_keys=True).encode()).hexdigest()[:16]


def _report_payload(report):
    payload = json.loads(report.to_json())
    del payload["timing"]
    return payload


@dataclass(frozen=True)
class ScanWorkload:
    """One ``scan`` call at jobs=1 over a fixed family; the seed does not change the family."""

    name: str
    n: int
    socle_max: int
    prefix: tuple
    expected: dict
    files: bool = False  # write checkpoint_path and out_path into the work directory
    min_reps: int = 1

    def params(self):
        return {
            "n": self.n,
            "socle_max": self.socle_max,
            "prefix": list(self.prefix),
            "jobs": 1,
            "chunk_size": SCAN_CHUNK_SIZE,
            "checkpoint_and_report_files": self.files,
        }

    def make_inputs(self, seed):
        return {"n": self.n, "socle_max": self.socle_max, "prefix": self.prefix}

    def _scan(self, inputs, span, name, **extra):
        start = time.perf_counter()
        with span(name):
            report = scan(inputs["n"], inputs["socle_max"], inputs["prefix"], jobs=1, **extra)
        return report, (start, time.perf_counter())

    def run(self, inputs, workdir, span):
        extra = {}
        if self.files:
            checkpoint = workdir / "scan.ckpt"
            checkpoint.unlink(missing_ok=True)  # a leftover checkpoint would resume a finished scan
            extra = {"checkpoint_path": str(checkpoint), "out_path": str(workdir / "scan.json")}
        report, call = self._scan(inputs, span, "scanner.scan", **extra)
        return report.counts["scanned"], [call], report

    def outcome(self, report):
        return {
            **report.counts,
            "cap_hits": sum(r["witnesses"]["cap_exceeded"] for r in report.exceptions),
            "dfs_nodes": sum(r["witnesses"]["dfs_nodes"] for r in report.exceptions),
            "status": report.status,
            "fingerprint": fingerprint(report.exceptions),
        }

    def check(self, inputs, report, reference):
        seen = self.outcome(report)
        wrong = {k: (seen.get(k), v) for k, v in self.expected.items() if seen.get(k) != v}
        if report.status != "COMPLETE":
            wrong["status"] = (report.status, "COMPLETE")
        for key, (got, want) in wrong.items():
            print(f"{self.name}: {key} is {got!r}, expected {want!r}", file=sys.stderr)
        # Any count mismatch fails every item of the scan.
        return report.counts["scanned"] if wrong else 0

    def replay(self, inputs, workdir, tracer, report):
        problems = []
        n = self.n
        if self.files:
            problems += self._checkpoint_round_trip(inputs, workdir, tracer, report)
        with tracer.span("scanner.ScanReport.to_json"):
            text = report.to_json()
            (workdir / "replay.json").write_text(text)
        tracer.count("scanner.report_bytes", len(text.encode()))

        records = {r["hf"]: r for r in report.exceptions}
        classified = set()
        sequences = enumerate_o_sequences(n, self.socle_max, self.prefix)
        while True:
            with tracer.span("hilbert.enumerate_o_sequences"):
                chunk = list(itertools.islice(sequences, REPLAY_CHUNK))
            if not chunk:
                break
            tracer.count("hilbert.sequences", len(chunk))
            with tracer.span("monomial.lex_generator_profile"):
                profiles = [lex_generator_profile(H, n) for H in chunk]
            tracer.count("monomial.lex_generators", sum(map(len, profiles)))
            with tracer.span("betti.greedy_minimize"):
                lex = [BettiDiagram.from_columns(n, columns_from_profile(p, n)) for p in profiles]
                shifts = [max_shifts(greedy_minimize(D)) for D in lex]
            tracer.count("betti.entries", sum(len(D.entries()) for D in lex))
            with tracer.span("verdict.upper_bound_holds"):
                failing = [
                    H for H, M in zip(chunk, shifts)
                    if not upper_bound_holds(multiplicity(H), M, n).holds
                ]
            for H in failing:
                with tracer.span("verdict.classify"):
                    result = classify(H, n)
                tracer.count("verdict.exceptions")
                tracer.count("verdict.dfs_nodes", result.nodes)
                tracer.count("verdict.violating", result.violating)
                tracer.count("verdict.survivors", len(result.survivors))
                tracer.count("verdict.cap_hits", int(result.cap_exceeded))
                record = result.to_record()
                classified.add(record["hf"])
                if records.get(record["hf"]) != record:
                    problems.append(f"classify({record['hf']}) differs from the scan's record")
        if classified != set(records):
            problems.append(
                f"replay found {len(classified)} exceptions, the scan {len(records)}"
            )
        return problems

    def _checkpoint_round_trip(self, inputs, workdir, tracer, report):
        """Stop a scan halfway with limit, resume it from its checkpoint, compare reports."""
        checkpoint = workdir / "roundtrip.ckpt"
        partial, _ = self._scan(
            inputs, tracer.span, "scanner.scan[limit]",
            checkpoint_path=str(checkpoint), limit=report.counts["scanned"] // 2,
        )
        tracer.count("scanner.checkpoint_bytes", checkpoint.stat().st_size)
        resumed, _ = self._scan(inputs, tracer.span, "scanner.scan[resume]", checkpoint_path=str(checkpoint))
        problems = []
        if partial.status != "INCOMPLETE":
            problems.append(f"the limited scan ended {partial.status}, not INCOMPLETE")
        if _report_payload(resumed) != _report_payload(report):
            problems.append("the resumed report differs from the uninterrupted report")
        return problems


def random_o_sequence(rng, size):
    """A random O-sequence in three variables, starting 1,3, with multiplicity size.

    Values stay within 90% of the Macaulay bound up to a random peak degree,
    then fall; the last value is cut so that the values sum to size. The
    socle degree is at most 9.
    """
    while True:
        peak = rng.randint(3, 8)
        h, total = [1, 3], 4
        for d in range(2, 10):
            top = macaulay_bound(h[-1], d - 1)
            if d <= peak:
                v = rng.randint(max(1, 9 * top // 10), top)
            else:
                v = rng.randint(max(1, h[-1] // 2), min(top, h[-1]))
            v = min(v, size - total)
            h.append(v)
            total += v
            if total == size:
                return tuple(h)


def _shape(gens, powers):
    """(multiplicity, socle degree, top minimal generator degree) of an ideal in 3 variables.

    gens are exponent triples, among them the pure powers with exponents powers.
    """
    minimal = [g for g in gens if not any(o != g and all(map(int.__le__, o, g)) for o in gens)]
    e = socle = 0
    for x in range(powers[0]):
        for y in range(powers[1]):
            z = min(g[2] for g in gens if g[0] <= x and g[1] <= y)
            e += z
            if z:
                socle = max(socle, x + y + z - 1)
    return e, socle, max(map(sum, minimal))


def random_ideal(rng, truncating, size):
    """Text of a random Artinian monomial ideal in a, b, c.

    With truncating false, the multiplicity is within 10% of size and no
    generator reaches the socle degree, so truncation_analysis never builds a
    truncation. With truncating true, the top generator degree is size and
    equals the socle degree or one more, so it usually does.
    """
    while True:
        powers = [rng.randint(3, 5) for _ in range(3)]
        gens = [tuple(p if j == k else 0 for j in range(3)) for k, p in enumerate(powers)]
        for _ in range(rng.randint(2, 5)):
            exps = tuple(rng.randrange(p) for p in powers)
            if sum(exps) >= 2 and exps not in gens:
                gens.append(exps)
        e, socle, top = _shape(gens, powers)
        if truncating and top == size and top - socle in (0, 1):
            break
        if not truncating and top < socle and abs(e - size) * 10 <= size:
            break
    return "; ".join("*".join(f"{v}^{x}" for v, x in zip("abc", exps) if x) for exps in gens)


# Item kinds by index mod 10, with their sizes: five lex ideals (multiplicity)
# and five random ideals (multiplicity, or top generator degree when
# truncating). The mix of sizes, and so the cost profile, is the same for
# every seed; the seed picks the ideals.
ITEM_MIX = (
    ("lex", 120), ("lex", 45), ("light", 35), ("lex", 60), ("light", 45),
    ("lex", 45), ("truncating", 5), ("lex", 60), ("light", 60), ("light", 45),
)


def _histogram(statuses):
    return dict(sorted(Counter(statuses).items()))


@dataclass(frozen=True)
class CrosscheckWorkload:
    """Koszul engine against closed forms: half lex ideals, half random ideals."""

    name: str
    items: int
    min_reps: int = 3  # later passes must repeat the first

    def params(self):
        return {"n": 3, "items": self.items, "item_mix": [list(kind) for kind in ITEM_MIX], "jobs": 1}

    def make_inputs(self, seed):
        rng = random.Random(seed)
        lex, rand = [], []
        for i in range(self.items):
            kind, size = ITEM_MIX[i % len(ITEM_MIX)]
            if kind == "lex":
                H = random_o_sequence(rng, size)
                lex.append((H, lex_ideal(H, 3)))
            else:
                rand.append(random_ideal(rng, kind == "truncating", size))
        return lex, rand

    def run(self, inputs, workdir, span):
        lex, rand = inputs
        calls = []
        diagrams = []
        analyses = []
        for _, L in lex:
            start = time.perf_counter()
            with span("koszul.koszul_betti"):
                diagrams.append(koszul_betti(L))
            calls.append((start, time.perf_counter()))
        for text in rand:
            start = time.perf_counter()
            with span("scanner.check_ideal"):
                analysis, _, code = check_ideal(text)
            calls.append((start, time.perf_counter()))
            analyses.append((analysis.status, analysis.diagram, code))
        return len(calls), calls, (diagrams, analyses)

    def outcome(self, outputs):
        return {"truncation_status": _histogram(status for status, _, _ in outputs[1])}

    def check(self, inputs, outputs, reference):
        if reference is not None:
            # Later passes must repeat the first exactly, status histogram included.
            return 0 if outputs == reference else self.items
        (lex, rand), (diagrams, analyses) = inputs, outputs
        failed = 0
        for (_, L), D in zip(lex, diagrams):
            failed += D != ek_betti(L)
        for text, (_, D, code) in zip(rand, analyses):
            try:
                consistent = hilbert_from_diagram(D) == quotient_hilbert_function(parse_ideal(text))
            except InconsistentDiagramError:
                consistent = False
            failed += code != 0 or not consistent
        return failed

    def replay(self, inputs, workdir, tracer, outputs):
        lex, rand = inputs
        for H, L in lex:
            with tracer.span("koszul.koszul_betti"):
                D = koszul_betti(L)
            with tracer.span("betti.ek_betti"):
                agree = D == ek_betti(L)
            tracer.count("koszul.ek_agree", int(agree))
            tracer.count("koszul.std_monomials", multiplicity(H))
        statuses = []
        for text in rand:
            with tracer.span("monomial.parse_ideal"):
                I = parse_ideal(text)
            with tracer.span("koszul.koszul_betti"):
                koszul_betti(I)
            with tracer.span("koszul.truncation_analysis"):
                analysis = truncation_analysis(I)
            tracer.count("koszul.std_monomials", analysis.e)
            statuses.append(analysis.status)
        problems = []
        if tracer.counts["koszul.ek_agree"] != len(lex):
            problems.append("koszul_betti and ek_betti disagree on a lex ideal")
        if _histogram(statuses) != self.outcome(outputs)["truncation_status"]:
            problems.append("truncation_analysis statuses differ from check_ideal's")
        return problems


# Expected outcomes, recorded at the commit that introduced this benchmark. The
# fingerprint covers the gated fields of every exception record.
SCAN_N3 = {
    "scanned": 115463, "bound_holds": 115408, "eliminated": 54, "unresolved": 1,
    "eliminated_by": {"aci,er": 9, "er": 13, "er,gen": 32},
    "violating_diagrams": 1517, "surviving_diagrams": 8, "cap_hits": 0,
    "fingerprint": "45f3c65972948cbb",
}
SCAN_N4 = {
    "scanned": 28, "bound_holds": 25, "eliminated": 3, "unresolved": 0,
    "eliminated_by": {"er": 3}, "violating_diagrams": 25416, "surviving_diagrams": 0,
    "cap_hits": 0, "fingerprint": "55374e4a151b90d9",
}
SMOKE_N3 = {
    "scanned": 4012, "bound_holds": 4007, "eliminated": 5, "unresolved": 0,
    "eliminated_by": {"aci,er": 1, "er": 1, "er,gen": 3},
    "violating_diagrams": 18, "surviving_diagrams": 0, "cap_hits": 0,
    "fingerprint": "536833a4bc5e7a15",
}
SMOKE_N4 = {
    "scanned": 941, "bound_holds": 938, "eliminated": 3, "unresolved": 0,
    "eliminated_by": {"er": 1, "er,gen": 2}, "violating_diagrams": 158,
    "surviving_diagrams": 0, "cap_hits": 0, "fingerprint": "de286e8f42651edd",
}

WORKLOADS = {
    wl.name: wl
    for wl in (
        ScanWorkload("scan-n3", 3, 8, (1, 3), SCAN_N3, files=True),
        # A repetition takes about 10 s, so three fit a run; scan-n3's takes about 20 s.
        ScanWorkload("scan-n4", 4, 5, (1, 4, 10, 16, 20), SCAN_N4, min_reps=3),
        CrosscheckWorkload("crosscheck", 200),
        # Seconds-long versions for the smoke test (run.py --smoke).
        ScanWorkload("smoke-scan-n3", 3, 6, (1, 3), SMOKE_N3, files=True),
        ScanWorkload("smoke-scan-n4", 4, 4, (1, 4), SMOKE_N4),
        CrosscheckWorkload("smoke-crosscheck", 10),
    )
}
