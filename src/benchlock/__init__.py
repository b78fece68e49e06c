"""benchlock: lock combinational .bench netlists with key gates, attack
them with the oracle-guided SAT attack, and verify functional consistency."""

__version__ = "0.1.0"

from .attack import (
    AttackResult,
    CorruptionStats,
    EquivalenceResult,
    Oracle,
    build_miter,
    corruption_stats,
    equivalence_check,
    sat_attack,
)
from .bench import BenchDocument, emit_bench, parse_bench, parse_bench_document
from .cnf import CnfFormula, emit_dimacs, parse_dimacs, parse_dimacs_model, tseitin
from .errors import BenchlockError
from .locking import (
    Key,
    LockConfig,
    LockedNetlist,
    apply_key,
    detect_key_inputs,
    emit_key_file,
    generate_key,
    insert_mux_keygates,
    insert_xor_keygates,
    lock,
    parse_key_file,
    resolve_key_inputs,
    select_nets,
)
from .netlist import Gate, GateKind, Netlist, truth_tables
from .scoap import ScoapMetrics, scoap
from .solver import SatOutcome, solve, solve_with_external
from .verify import Verdict, functional_verify, structural_check
from .verilog import parse_verilog_subset

__all__ = [
    "__version__",
    "AttackResult",
    "BenchDocument",
    "BenchlockError",
    "CnfFormula",
    "CorruptionStats",
    "EquivalenceResult",
    "Gate",
    "GateKind",
    "Key",
    "LockConfig",
    "LockedNetlist",
    "Netlist",
    "Oracle",
    "SatOutcome",
    "ScoapMetrics",
    "Verdict",
    "apply_key",
    "build_miter",
    "corruption_stats",
    "detect_key_inputs",
    "emit_bench",
    "emit_dimacs",
    "emit_key_file",
    "equivalence_check",
    "functional_verify",
    "generate_key",
    "insert_mux_keygates",
    "insert_xor_keygates",
    "lock",
    "parse_bench",
    "parse_bench_document",
    "parse_dimacs",
    "parse_dimacs_model",
    "parse_key_file",
    "parse_verilog_subset",
    "resolve_key_inputs",
    "sat_attack",
    "scoap",
    "select_nets",
    "solve",
    "solve_with_external",
    "structural_check",
    "truth_tables",
    "tseitin",
]
