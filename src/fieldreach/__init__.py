"""Field-sensitive reachability and cyclicity analysis for a small
object-oriented language.

The analyzer infers, per program point, a propositional formula over field
propositions for every pair of variables (which field sets a connecting path
may traverse) and for every variable (which field sets a reachable cycle may
traverse).  That is enough to certify, e.g., that a loop following only the
forward link of a doubly-linked list never completes a cycle.
"""

from .classtable import ClassTable, ClassTableError, MethodSig, build_class_table
from .domain import RcValue
from .formula import (
    ANY_FIELD,
    FieldUniverse,
    PathFormula,
    Viability,
    class_reach_closure,
)
from .oracle import (
    BudgetExceeded,
    ConcreteState,
    NullDereference,
    OracleResult,
    alpha_state,
    check_soundness,
    run_concrete,
    traversal_saturate,
)
from .parser import ParseError, parse_program
from .render import result_to_json
from .semantics import AnalysisError, AnalysisResult, Analyzer, analyze_program
from .sharing import SharingAnalysis, SharingState, SharingSummary, analyze_purity
from .syntax import Program, render_program
from .typecheck import TypeCheckError, TypeEnv, TypeInfo, type_check

__version__ = "0.1.0"

__all__ = [
    "ANY_FIELD",
    "AnalysisError",
    "AnalysisResult",
    "Analyzer",
    "BudgetExceeded",
    "ClassTable",
    "ClassTableError",
    "ConcreteState",
    "FieldUniverse",
    "MethodSig",
    "NullDereference",
    "OracleResult",
    "ParseError",
    "PathFormula",
    "Program",
    "RcValue",
    "SharingAnalysis",
    "SharingState",
    "SharingSummary",
    "TypeCheckError",
    "TypeEnv",
    "TypeInfo",
    "Viability",
    "alpha_state",
    "analyze_program",
    "analyze_purity",
    "build_class_table",
    "check_soundness",
    "class_reach_closure",
    "parse_program",
    "render_program",
    "result_to_json",
    "run_concrete",
    "traversal_saturate",
    "type_check",
]
