"""Multiplicity bound verification for Artinian Hilbert functions.

Builds the lex-ideal Betti diagram for a Hilbert function, minimizes it by
consecutive cancellation, checks the multiplicity bounds on the resulting
shifts, filters non-realizable violating diagrams, and cross-checks against
an exact Koszul-homology Betti engine for monomial ideals.
"""

from .betti import (
    BettiDiagram,
    ek_betti,
    greedy_minimize,
    greedy_stages,
    hilbert_from_diagram,
    is_pure,
    is_quasipure,
    max_shifts,
    min_shifts,
)
from .errors import (
    IdealParseError,
    InconsistentDiagramError,
    MalformedDiagramError,
    NeedsCapError,
    NotAdmissibleError,
    NotStableError,
)
from .hilbert import (
    AciObstruction,
    HilbertFunction,
    aci_obstruction,
    ci_hilbert_function,
    enumerate_o_sequences,
    is_o_sequence,
    macaulay_bound,
    macaulay_expansion,
    multiplicity,
)
from .koszul import (
    TruncationAnalysis,
    TruncationRowsReport,
    koszul_betti,
    rank_mod_p,
    truncation_analysis,
    verify_truncation_rows,
)
from .monomial import (
    Monomial,
    MonomialIdeal,
    is_stable,
    lex_columns,
    lex_generator_profile,
    lex_ideal,
    parse_ideal,
    parse_monomial,
    quotient_hilbert_function,
    truncate,
)
from .scanner import ScanReport, check_hf, check_ideal, scan
from .verdict import (
    DEFAULT_DFS_CAP,
    DEFAULT_FILTERS,
    BoundVerdict,
    Classification,
    ClassifyOptions,
    classify,
    lower_bound_holds,
    upper_bound_holds,
)

__version__ = "0.1.0"

__all__ = [
    "AciObstruction",
    "BettiDiagram",
    "BoundVerdict",
    "Classification",
    "ClassifyOptions",
    "DEFAULT_DFS_CAP",
    "DEFAULT_FILTERS",
    "HilbertFunction",
    "IdealParseError",
    "InconsistentDiagramError",
    "MalformedDiagramError",
    "Monomial",
    "MonomialIdeal",
    "NeedsCapError",
    "NotAdmissibleError",
    "NotStableError",
    "ScanReport",
    "TruncationAnalysis",
    "TruncationRowsReport",
    "aci_obstruction",
    "check_hf",
    "check_ideal",
    "ci_hilbert_function",
    "classify",
    "ek_betti",
    "enumerate_o_sequences",
    "greedy_minimize",
    "greedy_stages",
    "hilbert_from_diagram",
    "is_o_sequence",
    "is_pure",
    "is_quasipure",
    "is_stable",
    "koszul_betti",
    "lex_columns",
    "lex_generator_profile",
    "lex_ideal",
    "lower_bound_holds",
    "macaulay_bound",
    "macaulay_expansion",
    "max_shifts",
    "min_shifts",
    "multiplicity",
    "parse_ideal",
    "parse_monomial",
    "quotient_hilbert_function",
    "rank_mod_p",
    "scan",
    "truncate",
    "truncation_analysis",
    "upper_bound_holds",
    "verify_truncation_rows",
]
