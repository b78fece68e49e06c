"""Exception types shared across the toolkit."""


class BenchlockError(Exception):
    """Base class for all toolkit errors."""


class StructuralError(BenchlockError):
    """A netlist violates a structural invariant (cycle, multi-driver, ...).

    Raised by the ``Netlist`` constructor, carrying every diagnostic.
    """

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(self.diagnostics))


class UnknownNet(BenchlockError):
    """A net name was looked up that does not exist in the netlist."""


class BenchParseError(BenchlockError):
    """Syntax error in a .bench file. Carries 1-based line/column."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}, col {column or 1}: {message}"
        super().__init__(message)


class UnsupportedGate(BenchParseError):
    """A .bench line names a gate kind outside the combinational alphabet."""


class DialectError(BenchlockError):
    """The requested emission dialect cannot represent the netlist."""


class UnsupportedConstruct(BenchlockError):
    """Verilog input uses something outside the structural-primitive subset."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SelectionError(BenchlockError):
    """Net selection cannot produce the requested number of lock targets."""


class LockError(BenchlockError):
    """Key-gate insertion failed (name collision, bad key width, ...)."""


class DummyError(BenchlockError):
    """No eligible dummy net exists for a MUX key gate."""


class CnfError(BenchlockError):
    """Malformed CNF, DIMACS text, or model file."""


class SolverTimeout(BenchlockError):
    """The SAT solver hit its configured time budget (distinct from unsat)."""


class AttackError(BenchlockError):
    """The SAT attack cannot run or its inputs are inconsistent."""


class InterfaceError(BenchlockError):
    """Two circuits do not share the PI/PO interface required to compare them."""

    def __init__(self, message, missing=(), extra=()):
        self.missing = sorted(missing)
        self.extra = sorted(extra)
        detail = []
        if self.missing:
            detail.append(f"missing: {', '.join(self.missing)}")
        if self.extra:
            detail.append(f"extra: {', '.join(self.extra)}")
        if detail:
            message = f"{message} ({'; '.join(detail)})"
        super().__init__(message)


class StatError(BenchlockError):
    """Corruption statistics were requested on an unusable configuration."""


class _ExchangeError(BenchlockError):
    """An LLM exchange gave up. ``transcript`` and ``continuations`` hold
    what the exchange had sent and received by then, when the continuation
    loop raised the error (empty otherwise)."""

    def __init__(self, message, transcript=(), continuations=0):
        super().__init__(message)
        self.transcript = tuple(transcript)
        self.continuations = continuations


class TransportError(_ExchangeError):
    """A chat-completion transport failed to deliver a response."""


class TruncationError(_ExchangeError):
    """LLM output stayed truncated after the continuation budget ran out."""


class ValidationFailed(BenchlockError):
    """LLM output failed validation and no fallback was permitted."""

    def __init__(self, message, outcomes=()):
        self.outcomes = list(outcomes)
        super().__init__(message)
