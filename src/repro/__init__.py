"""repro — Quantum-based SMT solving for the theory of strings.

A full-stack reproduction of "Quantum-Based SMT Solving for String Theory"
(Casey, Santos, Hennessee — HPDC'25): string constraints are lowered to
QUBO matrices (:mod:`repro.core`) and solved by a (simulated) quantum
annealer (:mod:`repro.anneal`, :mod:`repro.hardware`), with an SMT-LIB
front end and classical baselines (:mod:`repro.smt`).

Quickstart
----------
>>> from repro import StringQuboSolver, StringReversal
>>> solver = StringQuboSolver(seed=0)
>>> solver.solve(StringReversal("hello")).output
'olleh'

See ``examples/quickstart.py`` for the guided tour and DESIGN.md for the
system inventory.
"""

from repro.core import (
    ConstraintPipeline,
    PalindromeGeneration,
    PipelineResult,
    PipelineStage,
    RegexMatching,
    SolveResult,
    StringConcatenation,
    StringEquality,
    StringIncludes,
    StringLength,
    StringCharAt,
    StringNotEquals,
    StringPrefixOf,
    StringQuboSolver,
    StringReplace,
    StringReplaceAll,
    StringReversal,
    StringSubstr,
    StringSuffixOf,
    SubstringIndexOf,
    SubstringMatching,
)
from repro.anneal import (
    ExactSolver,
    PathIntegralAnnealer,
    SampleSet,
    SimulatedAnnealingSampler,
)
from repro.qubo import BinaryQuadraticModel, QuboModel
from repro.smt import ClassicalStringSolver, QuantumSMTSolver
from repro.service import (
    BatchSolver,
    CompileCache,
    MetricsRegistry,
    RetryExhaustedError,
    RetryPolicy,
)

__version__ = "1.0.0"


def __getattr__(name):
    # Resolved on first use: repro.hardware imports networkx, which the
    # SMT-LIB -> QUBO -> anneal path never needs.
    if name in ("EmbeddingComposite", "SimulatedQPU"):
        from repro import hardware

        return getattr(hardware, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


__all__ = [
    "BatchSolver",
    "BinaryQuadraticModel",
    "ClassicalStringSolver",
    "CompileCache",
    "ConstraintPipeline",
    "MetricsRegistry",
    "RetryExhaustedError",
    "RetryPolicy",
    "EmbeddingComposite",
    "ExactSolver",
    "PalindromeGeneration",
    "PathIntegralAnnealer",
    "PipelineResult",
    "PipelineStage",
    "QuantumSMTSolver",
    "QuboModel",
    "RegexMatching",
    "SampleSet",
    "SimulatedAnnealingSampler",
    "SimulatedQPU",
    "SolveResult",
    "StringConcatenation",
    "StringEquality",
    "StringIncludes",
    "StringLength",
    "StringCharAt",
    "StringNotEquals",
    "StringPrefixOf",
    "StringQuboSolver",
    "StringReplace",
    "StringReplaceAll",
    "StringReversal",
    "StringSubstr",
    "StringSuffixOf",
    "SubstringIndexOf",
    "SubstringMatching",
    "__version__",
]
