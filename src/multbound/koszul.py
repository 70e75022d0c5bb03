"""Ground-truth graded Betti numbers of monomial quotients via Koszul homology."""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass
from functools import cache
from math import isqrt

from .betti import BettiDiagram, is_quasipure, max_shifts
from .errors import NeedsCapError, _check_int
from .hilbert import HilbertFunction, multiplicity
from .monomial import MonomialIdeal, _hilbert_values, _staircase, _truncate, truncate
from .verdict import BoundVerdict, upper_bound_holds

__all__ = [
    "koszul_betti",
    "rank_mod_p",
    "TruncationRowsReport",
    "verify_truncation_rows",
    "TruncationAnalysis",
    "truncation_analysis",
]

DEFAULT_CHAR = 32003

# memoryview.cast codes by lane width in bits, for reading the lanes of a
# little-endian to_bytes; on a big-endian host every width reads lane by lane.
_LANE_CODES = {}
if sys.byteorder == "little":
    _LANE_CODES = {memoryview(bytes(8)).cast(c).itemsize * 8: c for c in "BHIQ"}


@cache
def _is_prime(p):
    return p >= 2 and all(p % f for f in range(2, isqrt(p) + 1))


def rank_mod_p(rows, p):
    """Rank of an integer matrix over the field with p elements, by elimination.

    Raises ValueError unless p is an int (not a bool) and prime.
    """
    _check_int("p", p)
    if not _is_prime(p):
        raise ValueError(f"field characteristic must be prime, got {p}")
    mat = [[v % p for v in row] for row in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    row_at = 0
    for col in range(ncols):
        pivot = next((r for r in range(row_at, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[row_at], mat[pivot] = mat[pivot], mat[row_at]
        inv = pow(mat[row_at][col], -1, p)
        mat[row_at] = [(v * inv) % p for v in mat[row_at]]
        base = mat[row_at]
        for r in range(len(mat)):
            if r != row_at and mat[r][col]:
                factor = mat[r][col]
                mat[r] = [(v - factor * b) % p for v, b in zip(mat[r], base)]
        row_at += 1
        rank += 1
        if row_at == len(mat):
            break
    return rank


@cache
def _block_betti(n, pattern, p):
    """Betti numbers ((r, beta_r), ...) of one multidegree block mu of the Koszul complex mod I.

    Bit S of pattern is set when the element e_S (x) x^(mu - 1_S) lies in the
    block, that is when x^(mu - 1_S) is standard (and kept under the degree
    cap). The homology depends on nothing else, so it is computed once per
    (n, pattern, p).
    """
    basis = {}
    for mask in range(1 << n):
        if pattern >> mask & 1:
            basis.setdefault(mask.bit_count(), []).append(mask)
    matrices = {}
    top = max(basis)
    for r in range(1, top + 1):
        source = basis.get(r, [])
        target = basis.get(r - 1, [])
        index = {mask: row for row, mask in enumerate(target)}
        mat = [[0] * len(source) for _ in target]
        for col, mask in enumerate(source):
            for k in range(n):
                if not mask >> k & 1:
                    continue
                image = mask & ~(1 << k)
                row = index.get(image)
                if row is None:
                    continue
                sign = -1 if (mask & ((1 << k) - 1)).bit_count() % 2 else 1
                mat[row][col] = sign % p
        matrices[r] = mat
    if __debug__:
        for r in range(2, top + 1):
            upper, lower = matrices[r], matrices[r - 1]
            for col in range(len(basis.get(r, []))):
                for row in range(len(basis.get(r - 2, []))):
                    acc = sum(
                        lower[row][mid] * upper[mid][col]
                        for mid in range(len(basis.get(r - 1, [])))
                    )
                    assert acc % p == 0, "Koszul differential does not square to zero"
    ranks = {r: rank_mod_p(mat, p) if mat and mat[0] else 0 for r, mat in matrices.items()}
    out = []
    for r, masks in basis.items():
        beta = len(masks) - ranks.get(r, 0) - ranks.get(r + 1, 0)
        assert beta >= 0
        if beta:
            out.append((r, beta))
    return tuple(out)


def koszul_betti(I, field_char=DEFAULT_CHAR, degree_cap=None):
    """Graded Betti numbers of the quotient by I, computed blockwise per multidegree.

    The Koszul complex of S/I has one basis element e_S (x) x^s for each
    standard monomial x^s and subset S of the variables, in multidegree
    mu = s + 1_S. Block mu holds the elements e_S with x^(mu - 1_S) standard;
    their set of subsets S is the block's pattern, and beta_{r,mu} is the
    homology of block mu in degree r, which depends only on the pattern. The
    patterns of a column of blocks (fixed exponents of x_1..x_{n-1}) are built
    at once from the staircase's column heights. A block whose mu is itself
    standard holds every S in supp(mu) and has no homology unless mu = 0, so
    only the other blocks are read. Exact over the prime field of the given
    characteristic. Non-Artinian ideals need degree_cap >= 0; entries are
    then complete for internal degrees <= degree_cap, and elements of larger
    degree are dropped.
    field_char and degree_cap (unless None) must be ints, not bools.
    """
    return _resolution(I, field_char, degree_cap)[0]


def _resolution(I, field_char=DEFAULT_CHAR, degree_cap=None):
    """(koszul_betti(I, field_char, degree_cap), the staircase of I it was filed from).

    The blocks of a column are the lanes of one int, read after its standard
    blocks are shifted away; beta_{0,0} = 1 is that of mu = 0. Each distinct
    pattern's homology is looked up once per call.
    """
    _check_int("field_char", field_char)
    if degree_cap is not None:
        _check_int("degree_cap", degree_cap)
    if not _is_prime(field_char):
        raise ValueError(f"field characteristic must be prime, got {field_char}")
    if degree_cap is not None and degree_cap < 0:
        raise ValueError(f"degree cap must be nonnegative, got {degree_cap}")
    if any(g.degree == 0 for g in I.generators):
        raise ValueError("unit ideal has no quotient resolution")
    if not I.is_artinian() and degree_cap is None:
        raise NeedsCapError(f"ideal ({I}) is not Artinian; pass degree_cap")
    n = I.n
    z = _staircase(I, degree_cap)
    # A block mu = (q, t) sits in column q, an exponent prefix of x_1..x_{n-1},
    # as lane t of the column's pattern int, width bits wide. Bit S of the lane
    # is set when x^(mu - 1_S) is standard: for S = S' without x_n when
    # t < h(q - S'), and for S' with x_n when 1 <= t <= h(q - S'). So column
    # q's int is the sum over S' of ones(h(q - S')) * bits(S'). A column is
    # keyed as in z, so column p + S' has the key of p plus that of S'.
    width = max(8, 1 << n)
    ones = [((1 << width * h) - 1) // ((1 << width) - 1) for h in range(max(z.values()) + 1)]
    last = 1 << (n - 1)
    subsets = []
    for mask in range(last):
        offset = sum(w for k, w in enumerate(z.weights) if mask >> k & 1)
        bits = 1 << mask | 1 << (width + (mask | last))
        subsets.append((offset, [one * bits for one in ones]))
    own = subsets[0][1]
    columns = {key: own[h] for key, h in z.items()}
    for key, h in z.items():
        for offset, row in subsets[1:]:
            columns[key + offset] = columns.get(key + offset, 0) | row[h]
    # Lanes t < h(q) are standard blocks: each holds e_S for every S in
    # supp(mu), the complex of a full simplex, acyclic unless mu = 0. Shifted
    # away, they leave the lanes t >= h(q) up to the column's top, and each of
    # those holds some e_S, so no lane read is an empty pattern.
    chunks = []
    degrees = []
    for key, pattern in columns.items():
        h = z.get(key, 0)
        pattern >>= width * h
        j = key // z.top + h
        if degree_cap is not None:
            # Every element of block mu has degree |mu|: the cap keeps whole lanes.
            pattern &= (1 << width * max(degree_cap - j + 1, 0)) - 1
            if not pattern:
                continue
        size = -(-pattern.bit_length() // width)
        chunks.append(pattern.to_bytes(size * width // 8, "little"))
        degrees += range(j, j + size)
    data = b"".join(chunks)
    code = _LANE_CODES.get(width)
    if code:
        lanes = memoryview(data).cast(code)
    else:
        step = width // 8
        lanes = [int.from_bytes(data[i:i + step], "little") for i in range(0, len(data), step)]
    homology = {pattern: _block_betti(n, pattern, field_char) for pattern in set(lanes)}
    # Every count is beta * times > 0, and no lane is a standard block, so
    # beta_{0,0} = 1 is the only entry in column 0: the entries are clean.
    entries = {(0, 0): 1}
    for (pattern, j), times in Counter(zip(lanes, degrees)).items():
        for r, beta in homology[pattern]:
            entries[(r, j)] = entries.get((r, j), 0) + beta * times
    return BettiDiagram._trusted(n, entries), z


@dataclass(frozen=True)
class TruncationRowsReport:
    """Row-by-row comparison of Betti diagrams before and after truncation."""

    ok: bool
    degree: int
    rows: tuple
    mismatches: dict
    diagram: BettiDiagram
    truncated_diagram: BettiDiagram

    def __bool__(self):
        return self.ok


def verify_truncation_rows(I, d, field_char=DEFAULT_CHAR, degree_cap=None):
    """Check that rows d and higher of the diagram survive truncation at d."""
    _check_int("d", d)
    D1, z = _resolution(I, field_char, degree_cap)
    return _compare_rows(D1, _truncation(I, d, z, field_char, degree_cap)[1], d)


def _truncation(I, d, z, field_char, degree_cap=None):
    """(T, T's diagram, T's staircase) for T = truncate(I, d), resolved under degree_cap.

    T is read off z, I's staircase under degree_cap, unless the cap leaves degree d out.
    """
    T = truncate(I, d) if degree_cap is not None and degree_cap < d else _truncate(I, d, z)
    return (T, *_resolution(T, field_char, degree_cap))


def _compare_rows(D1, D2, d):
    """Compare rows d and higher of a diagram D1 and the diagram D2 of its truncation at d."""
    top = max(D1.regularity, D2.regularity)
    rows = []
    mismatches = {}
    for row in range(d, top + 1):
        diffs = {}
        for i in range(D1.n + 1):
            a, b = D1.entry(i, i + row), D2.entry(i, i + row)
            if a != b:
                diffs[i] = (a, b)
        rows.append((row, not diffs))
        if diffs:
            mismatches[row] = diffs
    return TruncationRowsReport(not mismatches, d, tuple(rows), mismatches, D1, D2)


@dataclass(frozen=True)
class TruncationAnalysis:
    """Outcome of trying to certify the upper bound through truncation.

    CERTIFIED either directly from a quasipure diagram or by truncating at the
    max generator degree when that degree is the regularity or one more;
    NOT_APPLICABLE names the hypothesis that failed.
    """

    status: str
    reason: str
    regularity: int
    max_gen_degree: int
    hilbert_function: HilbertFunction
    e: int
    diagram: BettiDiagram
    quasipure_direct: bool = False
    truncation: MonomialIdeal | None = None
    truncation_diagram: BettiDiagram | None = None
    e_truncation: int | None = None
    verdict: BoundVerdict | None = None

    @property
    def certified(self):
        return self.status == "CERTIFIED"


def truncation_analysis(I, field_char=DEFAULT_CHAR):
    """Certify the upper multiplicity bound for an Artinian quotient via truncation.

    Quasipure diagrams certify directly. Otherwise, when the max generator
    degree g is the regularity d or d+1, the truncation at g must be quasipure
    with the same max shifts and at least the multiplicity, and the bound is
    checked on the truncation's shifts.
    """
    if not I.is_artinian():
        raise NeedsCapError(f"ideal ({I}) is not Artinian")
    return _analysis(I, *_resolution(I, field_char), field_char)


def _analysis(I, D, z, field_char):
    """truncation_analysis(I, field_char) from I's diagram D and uncapped staircase z."""
    reg = D.regularity
    g = I.max_gen_degree
    H = HilbertFunction(_hilbert_values(z))
    e = multiplicity(H)
    base = dict(regularity=reg, max_gen_degree=g, hilbert_function=H, e=e, diagram=D)
    if is_quasipure(D):
        verdict = upper_bound_holds(e, max_shifts(D), I.n)
        if verdict.holds:
            return TruncationAnalysis(
                "CERTIFIED", "diagram is quasipure", quasipure_direct=True, verdict=verdict, **base
            )
        return TruncationAnalysis(
            "NOT_APPLICABLE", "quasipure diagram fails the bound",
            quasipure_direct=True, verdict=verdict, **base,
        )
    if g not in (reg, reg + 1):
        return TruncationAnalysis(
            "NOT_APPLICABLE", f"no minimal generator of degree {reg} or {reg + 1}", **base
        )
    T, DT, zT = _truncation(I, g, z, field_char)
    eT = sum(zT.values())
    base.update(truncation=T, truncation_diagram=DT, e_truncation=eT)
    if not is_quasipure(DT):
        return TruncationAnalysis("NOT_APPLICABLE", "truncation is not quasipure", **base)
    if max_shifts(D) != max_shifts(DT):
        return TruncationAnalysis("NOT_APPLICABLE", "max shifts change under truncation", **base)
    if e > eT:
        return TruncationAnalysis("NOT_APPLICABLE", "truncation loses multiplicity", **base)
    verdict = upper_bound_holds(eT, max_shifts(DT), I.n)
    if not verdict.holds:
        return TruncationAnalysis(
            "NOT_APPLICABLE", "bound fails on the truncation", verdict=verdict, **base
        )
    return TruncationAnalysis(
        "CERTIFIED",
        f"truncation at degree {g} is quasipure with the same max shifts",
        verdict=verdict,
        **base,
    )
