"""Hilbert functions of Artinian graded quotients and Macaulay growth bounds."""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from math import comb

from .errors import NotAdmissibleError, _check_int, _check_ints, _check_vars

__all__ = [
    "HilbertFunction",
    "macaulay_expansion",
    "macaulay_bound",
    "is_o_sequence",
    "enumerate_o_sequences",
    "multiplicity",
    "ci_hilbert_function",
    "AciObstruction",
    "aci_obstruction",
]


def _refuse_setattr(self, name, value=None):
    raise FrozenInstanceError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")


def _value_type(cls):
    """cls as a frozen slotted dataclass on which every attribute assignment or deletion raises FrozenInstanceError.

    The __setattr__ and __delattr__ that dataclass generates for such a class
    call super() with the class from before its slots rebuild, which on
    Python 3.10 and 3.11 raises TypeError for a name that is not a field.
    """
    cls = dataclass(frozen=True, slots=True, repr=False)(cls)
    cls.__setattr__ = cls.__delattr__ = _refuse_setattr
    return cls


@_value_type
class HilbertFunction:
    """Finite sequence of nonnegative values H(0), H(1), ... with H(d) = 0 beyond.

    Trailing zeros are stripped, so ``len`` is socle degree plus one.
    """

    values: tuple

    def __init__(self, values):
        vals = _check_ints("Hilbert function value", values)
        if any(v < 0 for v in vals):
            raise ValueError(f"negative Hilbert function value in {vals}")
        while vals and vals[-1] == 0:
            vals = vals[:-1]
        object.__setattr__(self, "values", vals)

    @classmethod
    def _trusted(cls, vals):
        # vals is already a canonical tuple: nonnegative, no trailing zeros.
        self = object.__new__(cls)
        object.__setattr__(self, "values", vals)
        return self

    def __getitem__(self, d):
        if isinstance(d, slice):
            return self.values[d]
        if d < 0:
            raise IndexError(f"degree {d} out of range")
        return self.values[d] if d < len(self.values) else 0

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __repr__(self):
        return f"HilbertFunction({self.values})"

    def __str__(self):
        return ",".join(str(v) for v in self.values)

    @property
    def socle_degree(self):
        """Largest degree with a nonzero value, or -1 for the zero sequence."""
        return len(self.values) - 1

    @classmethod
    def parse(cls, text):
        """Parse a comma- or whitespace-separated value list like ``1,3,6,7,3,1`` (see _parse_ints)."""
        vals = _parse_ints(text, "Hilbert function text")
        if not vals:
            raise ValueError("empty Hilbert function text")
        return cls(vals)


def _fields(text, source):
    """Fields of a comma- or whitespace-separated list like ``1,3,6``, ``1 3 6`` or ``1, 3, 6``.

    Raises ValueError, naming the text as source, on a blank field (a
    leading, trailing or doubled comma).
    """
    if "," in text and not all(field.strip() for field in text.split(",")):
        raise ValueError(f"empty field in {source} {text!r}")
    return text.replace(",", " ").split()


def _parse_ints(text, source):
    """Int tuple of a comma- or whitespace-separated list (see _fields).

    Raises ValueError, naming the text as source, on a value that is not
    an int and on a blank field.
    """
    fields = _fields(text, source)
    try:
        return tuple(int(tok) for tok in fields)
    except ValueError:
        raise ValueError(f"non-integer value in {source} {text!r}") from None


def _values(H):
    """Raw value tuple of a HilbertFunction or of a plain iterable of ints (not bools)."""
    if isinstance(H, HilbertFunction):
        return H.values
    return _check_ints("Hilbert function value", H)


def macaulay_expansion(h, d):
    """Unique expansion h = C(a_d,d) + C(a_{d-1},d-1) + ... with a_d > a_{d-1} > ... >= j.

    Returns the tuple (a_d, a_{d-1}, ..., a_j) of binomial tops, highest first.
    Raises ValueError unless h and d are ints (not bools) of at least 1.
    """
    _check_int("h", h, 1)
    _check_int("d", d, 1)
    tops = []
    rest = h
    j = d
    while rest > 0:
        a = j
        while comb(a + 1, j) <= rest:
            a += 1
        tops.append(a)
        rest -= comb(a, j)
        j -= 1
    return tuple(tops)


def macaulay_bound(h, d):
    """Largest value allowed in degree d+1 after h in degree d of an O-sequence.

    Raises ValueError unless h and d are ints (not bools), as macaulay_expansion does.
    """
    _check_int("h", h)
    _check_int("d", d)
    if h == 0:
        return 0
    tops = macaulay_expansion(h, d)
    return sum(comb(a + 1, j + 1) for a, j in zip(tops, range(d, d - len(tops), -1)))


def _growth_bound(n, d, prev):
    """Largest H(d) an O-sequence in n variables allows after H(d-1) = prev >= 0."""
    return n if d == 1 else macaulay_bound(prev, d - 1)


def is_o_sequence(H, n):
    """True iff H is the Hilbert function of some Artinian quotient in n variables.

    That is Macaulay's condition: H(0) = 1 and 0 <= H(d) <= the growth bound
    from H(d-1) for every d >= 1. Raises ValueError unless n is an int (not a
    bool) of at least 1 and H's values are ints (not bools).
    """
    _check_vars(n)
    vals = _values(H)
    if not vals or vals[0] != 1:
        return False
    return all(0 <= vals[d] <= _growth_bound(n, d, vals[d - 1]) for d in range(1, len(vals)))


def _checked_prefix(n, prefix):
    """Value tuple of an enumeration prefix: an O-sequence in n variables, no trailing zeros.

    Raises NotAdmissibleError otherwise.
    """
    start = _values(prefix)
    if start and start[-1] == 0:
        raise NotAdmissibleError(f"prefix {start} has trailing zeros")
    if not is_o_sequence(start, n):
        raise NotAdmissibleError(f"prefix {start} is not an O-sequence in {n} variables")
    return start


def _enumerate_value_tuples(n, socle_max, prefix):
    """Yield O-sequence value tuples extending prefix, socle degree <= socle_max.

    Order is lexicographic on the tuples, which puts each sequence before all
    of its extensions.
    """
    stack = [_checked_prefix(n, prefix)]
    while stack:
        vals = stack.pop()
        d = len(vals) - 1
        if d <= socle_max:
            yield vals
        if d < socle_max:
            # Pushed descending, so the values pop ascending.
            stack.extend(vals + (v,) for v in range(_growth_bound(n, d + 1, vals[-1]), 0, -1))


def enumerate_o_sequences(n, socle_max, prefix=(1,)):
    """Yield every O-sequence in n variables extending prefix, up to socle_max.

    This is the brute-force enumeration oracle: it lists the family one
    function at a time, independent of scanner._chunks, the walk that scans
    run, so tests can check that walk against it. Raises ValueError unless
    n and socle_max are ints (not bools) and n is at least 1, and
    NotAdmissibleError unless prefix is an O-sequence in n variables, both
    when called.
    """
    _check_vars(n)
    _check_int("socle_max", socle_max)
    family = _enumerate_value_tuples(n, socle_max, _checked_prefix(n, prefix))
    return (HilbertFunction._trusted(vals) for vals in family)


def multiplicity(H):
    """Multiplicity of an Artinian quotient: the sum of its Hilbert function."""
    return sum(_values(H))


def ci_hilbert_function(degrees):
    """Hilbert function of a complete intersection with the given forms' degrees."""
    degs = _check_ints("degree", degrees)
    if not degs or any(d < 1 for d in degs):
        raise ValueError(f"degrees must be positive, got {degs}")
    vals = [1]
    for d in degs:
        # Multiply the generating polynomial by 1 + t + ... + t^(d-1).
        new = [0] * (len(vals) + d - 1)
        for i, c in enumerate(vals):
            for k in range(d):
                new[i + k] += c
        vals = new
    return HilbertFunction(vals)


@dataclass(frozen=True)
class AciObstruction:
    """Outcome of testing whether H can contain a complete intersection (d, d, d).

    status is OBSTRUCTED when no almost complete intersection with a degree-d
    relation in three variables can have Hilbert function H, INCONCLUSIVE when
    the test finds no obstruction.
    """

    status: str
    generator_degree: int
    difference: tuple
    witness_degree: int | None
    reason: str

    @property
    def obstructed(self):
        return self.status == "OBSTRUCTED"


def aci_obstruction(H, d):
    """Test H against containment of a complete intersection of three degree-d forms.

    An almost complete intersection generated by three degree-d forms plus one
    more form contains the complete intersection (d, d, d), so the termwise
    difference CI(d,d,d) - H must be the Hilbert function of a quotient of the
    complete intersection by one extra form: nonnegative, zero below degree d,
    and an O-sequence once shifted down by d.
    """
    if d < 1:
        raise ValueError(f"generator degree must be positive, got d={d}")
    hvals = _values(H)
    ci = ci_hilbert_function((d, d, d)).values
    width = max(len(ci), len(hvals))
    diff = tuple(
        (ci[k] if k < len(ci) else 0) - (hvals[k] if k < len(hvals) else 0)
        for k in range(width)
    )
    for k, v in enumerate(diff):
        if v < 0:
            return AciObstruction(
                "OBSTRUCTED", d, diff, k,
                f"H exceeds the complete intersection in degree {k}",
            )
    for k in range(min(d, width)):
        if diff[k] != 0:
            return AciObstruction(
                "OBSTRUCTED", d, diff, k,
                f"difference is nonzero in degree {k} < {d}",
            )
    shifted = diff[d:]
    if all(v == 0 for v in shifted):
        return AciObstruction("INCONCLUSIVE", d, diff, None, "difference is zero")
    if not is_o_sequence(shifted, 3):
        return AciObstruction(
            "OBSTRUCTED", d, diff, None,
            "shifted difference is not an O-sequence",
        )
    return AciObstruction("INCONCLUSIVE", d, diff, None, "no obstruction found")
