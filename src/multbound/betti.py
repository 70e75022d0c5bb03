"""Graded Betti diagrams: closed-form resolutions, greedy cancellation, shifts, layouts."""

from __future__ import annotations

from itertools import accumulate
from math import comb

from .errors import InconsistentDiagramError, MalformedDiagramError, NotStableError, _check_int, _check_vars
from .hilbert import HilbertFunction, _value_type
from .monomial import is_stable

__all__ = [
    "BettiDiagram",
    "ek_betti",
    "greedy_minimize",
    "greedy_stages",
    "max_shifts",
    "min_shifts",
    "is_pure",
    "is_quasipure",
    "hilbert_from_diagram",
]


@_value_type
class BettiDiagram:
    """Table of graded Betti numbers beta_{i,j} for a quotient in n variables.

    Only nonzero entries are stored. Every diagram has the cyclic-quotient
    shape: beta_{0,0} = 1 is the only entry in column 0, columns stop at n
    and no entry lies below row 0 (beta_{i,j} = 0 for j < i).
    """

    n: int
    _entries: dict

    def __init__(self, n, entries):
        _check_vars(n)
        clean = {}
        for (i, j), c in dict(entries).items():
            _check_int("column", i)
            _check_int("degree", j)
            _check_int(f"beta_{{{i},{j}}}", c)
            if c < 0:
                raise ValueError(f"negative entry beta_{{{i},{j}}} = {c}")
            if c == 0:
                continue
            if not 0 <= i <= n:
                raise ValueError(f"column {i} outside 0..{n}")
            if j < i:
                raise ValueError(f"degree {j} at column {i} is below row 0")
            clean[(i, j)] = c
        if clean.get((0, 0)) != 1 or any(i == 0 and j != 0 for i, j in clean):
            raise ValueError("column 0 must hold exactly beta_{0,0} = 1")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_entries", clean)

    @classmethod
    def _trusted(cls, n, entries):
        # entries is already clean: positive int counts in columns 0..n, beta_{0,0} = 1.
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_entries", entries)
        return self

    @classmethod
    def from_columns(cls, n, columns):
        """Build from a list of per-column {degree: count} maps, index 0..n."""
        entries = {}
        for i, col in enumerate(columns):
            for j, c in col.items():
                entries[(i, j)] = c
        return cls(n, entries)

    def entry(self, i, j):
        return self._entries.get((i, j), 0)

    def entries(self):
        """Nonzero entries as a dict {(i, j): count}, sorted by position."""
        return {key: self._entries[key] for key in sorted(self._entries)}

    def columns(self):
        """Per-column {degree: count} maps, index 0..n."""
        cols = [{} for _ in range(self.n + 1)]
        for (i, j), c in self._entries.items():
            cols[i][j] = c
        return cols

    def column_total(self, i):
        return sum(c for (ci, _), c in self._entries.items() if ci == i)

    def column_totals(self):
        """Totals for columns 0 through the projective dimension."""
        return tuple(self.column_total(i) for i in range(self.projective_dimension + 1))

    @property
    def projective_dimension(self):
        return max(i for i, _ in self._entries)

    @property
    def regularity(self):
        return max(j - i for i, j in self._entries)

    def __hash__(self):
        return hash((self.n, frozenset(self._entries.items())))

    def __repr__(self):
        return f"BettiDiagram(n={self.n}, entries={self.entries()})"

    def __str__(self):
        return self.to_text()

    def to_text(self):
        """Human layout: entry beta_{i,j} at row j-i, column i, dots for zeros."""
        width = self.projective_dimension
        totals = [0] * (width + 1)
        grid = [[f"{r}:"] + ["."] * (width + 1) for r in range(self.regularity + 1)]
        for (i, j), c in self._entries.items():
            totals[i] += c
            grid[j - i][i + 1] = str(c)
        grid.insert(0, ["total:", *map(str, totals)])
        pads = [max(map(len, cells)) for cells in zip(*grid)]
        lines = (" ".join([label.ljust(pads[0]), *map(str.rjust, cells, pads[1:])]) for label, *cells in grid)
        return "\n".join(map(str.rstrip, lines))

    @classmethod
    def from_text(cls, text, n=None):
        """Parse the human layout back into a diagram; a repeated row label raises ValueError."""
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines or not lines[0].split()[0] == "total:":
            raise ValueError("diagram text must start with a total: row")
        totals = [int(tok) for tok in lines[0].split()[1:]]
        width = len(totals)
        entries, rows = {}, set()
        for line in lines[1:]:
            tokens = line.split()
            if not tokens[0].endswith(":"):
                raise ValueError(f"bad row label in {line!r}")
            r = int(tokens[0][:-1])
            if r in rows:
                raise ValueError(f"row {r} appears twice")
            rows.add(r)
            cells = tokens[1:]
            if len(cells) != width:
                raise ValueError(f"row {r} has {len(cells)} cells, expected {width}")
            for i, cell in enumerate(cells):
                if cell != ".":
                    entries[(i, r + i)] = int(cell)
        diagram = cls(n if n is not None else width - 1, entries)
        if list(diagram.column_totals()) + [0] * (width - diagram.projective_dimension - 1) != totals:
            raise ValueError("total: row does not match parsed entries")
        return diagram

    def to_machine(self):
        """Machine form: one `i j count` line per nonzero entry."""
        return "\n".join(f"{i} {j} {c}" for (i, j), c in sorted(self._entries.items()))

    @classmethod
    def from_machine(cls, text, n=None):
        """Parse the machine form back into a diagram; a repeated (i, j) line raises ValueError."""
        entries = {}
        for line in text.splitlines():
            if not line.strip():
                continue
            i, j, c = (int(tok) for tok in line.split())
            if (i, j) in entries:
                raise ValueError(f"entry ({i}, {j}) appears twice")
            entries[(i, j)] = c
        if not entries:
            raise ValueError("machine-form diagram text has no entries")
        if n is None:
            n = max(i for i, _ in entries)
        return cls(n, entries)


def columns_from_profile(profile, n):
    """Betti columns of a stable ideal from its (degree, max_var) generator profile.

    A generator of degree d whose largest variable is m contributes
    C(m-1, i) to beta_{i+1, d+i} for i = 0..m-1.
    """
    cols = [{} for _ in range(n + 1)]
    cols[0][0] = 1
    for d, m in profile:
        for i in range(m):
            col = cols[i + 1]
            j = d + i
            col[j] = col.get(j, 0) + comb(m - 1, i)
    return cols


def ek_betti(I):
    """Betti diagram of the quotient by a stable monomial ideal, in closed form.

    Raises ValueError for the unit ideal, whose quotient is zero, as
    koszul_betti does, and NotStableError when I is not stable.
    """
    if any(g.degree == 0 for g in I.generators):
        raise ValueError("unit ideal has no quotient resolution")
    if not is_stable(I):
        raise NotStableError(f"ideal ({I}) is not stable")
    profile = [(g.degree, g.max_var) for g in I.generators]
    return BettiDiagram.from_columns(I.n, columns_from_profile(profile, I.n))


def _cancel_pair(a, b):
    """Cancel everything adjacent column maps a and b share, degrees high to low, in place."""
    for j in sorted(set(a) & set(b), reverse=True):
        k = min(a[j], b[j])
        if a[j] == k:
            del a[j]
        else:
            a[j] -= k
        if b[j] == k:
            del b[j]
        else:
            b[j] -= k


def greedy_columns(cols):
    """Apply all maximal cancellations to column maps, in place.

    Column pairs run left to right; within a pair, degrees run high to low.
    """
    for i in range(1, len(cols) - 1):
        _cancel_pair(cols[i], cols[i + 1])
    return cols


def greedy_stages(D):
    """Diagrams after each column pair of the greedy cancellation pass."""
    cols = D.columns()
    stages = []
    for i in range(1, D.n):
        _cancel_pair(cols[i], cols[i + 1])
        stages.append(BettiDiagram.from_columns(D.n, cols))
    return stages


def greedy_minimize(D):
    """Diagram after all maximal cancellations, minimizing the max-shift product."""
    return BettiDiagram.from_columns(D.n, greedy_columns(D.columns()))


def _column_shifts(D, pick):
    cols = D.columns()
    p = D.projective_dimension
    shifts = []
    for i in range(1, p + 1):
        if not cols[i]:
            raise MalformedDiagramError(f"column {i} is empty below projective dimension {p}")
        shifts.append(pick(cols[i]))
    return tuple(shifts)


def max_shifts(D):
    """Largest degree per column 1..projective dimension."""
    return _column_shifts(D, max)


def min_shifts(D):
    """Smallest degree per column 1..projective dimension."""
    return _column_shifts(D, min)


def is_pure(D):
    """True iff every column up to the projective dimension has a single degree."""
    cols = D.columns()
    return all(len(cols[i]) == 1 for i in range(1, D.projective_dimension + 1))


def is_quasipure(D):
    """True iff max shift of each column is at most the min shift of the next."""
    cols = D.columns()
    p = D.projective_dimension
    if any(not cols[i] for i in range(1, p + 1)):
        return False
    for i in range(2, p + 1):
        if max(cols[i - 1]) > min(cols[i]):
            return False
    return True


def hilbert_from_diagram(D):
    """Hilbert function encoded by the diagram's alternating numerator.

    Divides sum_{i,j} (-1)^i beta_{i,j} t^j by (1-t)^n exactly; a nonzero
    remainder, a negative value, or an internal zero means the diagram is not
    numerically consistent with any Artinian quotient.
    """
    entries = D.entries()
    coeffs = [0] * (max(j for _, j in entries) + 1)
    for (i, j), c in entries.items():
        coeffs[j] += c if i % 2 == 0 else -c
    for _ in range(D.n):
        sums = list(accumulate(coeffs))
        if not sums or sums[-1] != 0:
            raise InconsistentDiagramError("numerator is not divisible by (1-t)^n")
        coeffs = sums[:-1]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if any(v < 0 for v in coeffs):
        raise InconsistentDiagramError("Hilbert function has a negative value")
    if 0 in coeffs:
        raise InconsistentDiagramError("Hilbert function vanishes then returns")
    return HilbertFunction(coeffs)
