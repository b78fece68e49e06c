"""Reader for a gate-level structural Verilog subset.

Supported: a single module, non-ANSI header, ``input``/``output``/``wire``
declarations of scalar nets, and primitive instantiations of and/nand/or/
nor/xor/xnor/not/buf with the output terminal first. N-input primitives
stay n-ary gates; nothing is decomposed. ``assign lhs = rhs;`` with a bare
identifier rhs maps to BUFF. Everything else (always blocks, operators,
buses, parameters, multiple modules) raises UnsupportedConstruct — never a
silent skip.
"""

from __future__ import annotations

import re

from .errors import UnsupportedConstruct
from .netlist import GATE_KINDS, Gate, GateKind, Netlist, _new_gate

# primitive name -> (kind, exact input count or 0)
_PRIMITIVES = {
    name.lower(): GATE_KINDS[name]
    for name in ("AND", "NAND", "OR", "NOR", "XOR", "XNOR", "NOT", "BUF")
}

_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_IDENT_RE = re.compile(_IDENT)  # use with fullmatch
_IDENT_LIST_RE = re.compile(rf"\s*{_IDENT}\s*(?:,\s*{_IDENT}\s*)*")
_INSTANCE_RE = re.compile(rf"(?:({_IDENT})\s*)?\(\s*([^()]*?)\s*\)")
# The statements most files are made of, read by one fullmatch of the
# text between two ';': a primitive statement with one or more instances
# of two or more terminals (groups 1-3: primitive, the first instance's
# terminals, the further instances) or a declaration (groups 4-5: keyword,
# names). Identifiers hold no whitespace, so dropping it all from a
# listing leaves name,name,... Anything else is read step by step.
_INSTANCE = rf"(?:{_IDENT}\s*)?\(\s*{_IDENT}(?:\s*,\s*{_IDENT})+\s*\)"
_STATEMENT_RE = re.compile(
    rf"\s*(?:({'|'.join(_PRIMITIVES)})(?:\s+{_IDENT})?\s*"
    rf"\(\s*({_IDENT}(?:\s*,\s*{_IDENT})+)\s*\)((?:\s*,\s*{_INSTANCE})*)"
    rf"|(input|output|wire)\s+({_IDENT}(?:\s*,\s*{_IDENT})*))\s*"
)
_TERMINALS_RE = re.compile(r"\(([^()]*)\)")
_HEAD_RE = re.compile(r"\(|[^\s(]+")
# matches what \bmodule\b matches; the leading literal lets the scan skip
# to each "module" instead of trying a word boundary at every character
_MODULE_RE = re.compile(r"module(?<=\bmodule)\b")


def _strip_comments(text: str) -> str:
    """Remove // and /* */ comments, preserving line numbers."""
    text = re.sub(r"//[^\n]*", "", text)

    def blank(m: re.Match) -> str:
        return "\n" * m.group(0).count("\n")

    return re.sub(r"/\*.*?\*/", blank, text, flags=re.S)


def _names(listing: str, lineno: int, what: str) -> list[str]:
    if not _IDENT_LIST_RE.fullmatch(listing):
        for item in listing.split(","):
            name = item.strip()
            if "[" in name or "]" in name:
                raise UnsupportedConstruct(f"buses are not supported in {what}", lineno)
            if not _IDENT_RE.fullmatch(name):
                raise UnsupportedConstruct(f"bad identifier {name!r} in {what}", lineno)
    return "".join(listing.split()).split(",")


def parse_verilog_subset(text: str, name: str | None = None) -> Netlist:
    """Parse a structural-primitive Verilog module into a netlist.

    The comment-free text is read one ';'-ended statement at a time. A
    statement _STATEMENT_RE matches is read at once: a declaration's names
    are kept (a wire list is checked but not kept), and a single-instance
    gate statement becomes its gate directly. Any other statement is read
    step by step, and only then is its line number counted."""
    text = _strip_comments(text)
    if len(_MODULE_RE.findall(text)) > 1:
        raise UnsupportedConstruct("only a single module is supported")

    module_name = name
    seen_module = False
    inputs: list[str] = []
    outputs: list[str] = []
    # wires need no bookkeeping: nets exist by being driven
    declared = {"input": inputs, "output": outputs, "wire": []}
    gates: list[Gate] = []

    # offset is where the next chunk starts; lineno is the line number at
    # offset `counted`, moved on only when a statement is read step by step
    offset = counted = 0
    lineno = 1
    for chunk in text.split(";"):
        start, offset = offset, offset + len(chunk) + 1
        m = _STATEMENT_RE.fullmatch(chunk)
        if m is not None:
            prim, first, more, decl, listing = m.groups()
            if decl is not None:
                if decl != "wire":
                    declared[decl] += "".join(listing.split()).split(",")
                continue
            kind, arity = _PRIMITIVES[prim]
            if not more:
                ports = tuple("".join(first.split()).split(","))
                # a one-input primitive takes two; the step-by-step reading words why
                if arity != 1 or len(ports) == 2:
                    gates.append(_new_gate((ports[0], kind, ports[1:])))
                    continue
            else:
                listings = [first, *_TERMINALS_RE.findall(more)]
                instances = ["".join(terms.split()).split(",") for terms in listings]
                if arity != 1 or all(len(ports) == 2 for ports in instances):
                    gates += [Gate(ports[0], kind, ports[1:]) for ports in instances]
                    continue
        # Step by step, on the statement with each whitespace run as one
        # space (str.split splits on exactly the characters \s matches).
        body = chunk.lstrip()
        if not body:
            continue
        at = start + len(chunk) - len(body)
        lineno += text.count("\n", counted, at)
        counted = at
        stmt = " ".join(body.split())
        # the first word, ended by whitespace or by the '(' of a gate
        # instance without a name, as in and(y, a, b)
        head = _HEAD_RE.match(stmt).group()

        if head == "module":
            m = re.match(rf"module\s+({_IDENT})\s*(?:\((.*)\))?\s*$", stmt)
            if not m:
                raise UnsupportedConstruct("malformed module header", lineno)
            if re.search(r"\b(input|output|inout)\b", m.group(2) or ""):
                raise UnsupportedConstruct(
                    "ANSI-style port declarations are not supported", lineno
                )
            module_name = module_name or m.group(1)
            seen_module = True
            continue

        if stmt == "endmodule":
            continue
        if stmt.startswith("endmodule"):
            # a statement glued after endmodule (no ';' in between)
            raise UnsupportedConstruct("unexpected text after endmodule", lineno)

        if head in declared:
            declared[head] += _names(stmt[len(head):], lineno, f"{head} declaration")
            continue

        if head == "assign":
            m = re.match(rf"assign\s+({_IDENT})\s*=\s*({_IDENT})\s*$", stmt)
            if not m:
                raise UnsupportedConstruct(
                    "assign with operators is not supported", lineno
                )
            gates.append(Gate(m.group(1), GateKind.BUFF, (m.group(2),)))
            continue

        if head in _PRIMITIVES:
            kind, arity = _PRIMITIVES[head]
            rest = stmt[len(head):].strip()
            matched_upto = 0
            instances = []
            for m in _INSTANCE_RE.finditer(rest):
                # exactly one ',' between instances and none before the first
                between = rest[matched_upto : m.start()].strip()
                if between != ("," if instances else ""):
                    junk = between.strip(",").strip()
                    raise UnsupportedConstruct(
                        f"unexpected text {junk!r} in gate instantiation" if junk
                        else f"expected one ',' between {head} instances" if instances
                        else f"unexpected ',' before the first {head} instance",
                        lineno,
                    )
                instances.append(m.group(2))
                matched_upto = m.end()
            trailing = rest[matched_upto:].strip()
            if trailing or not instances:
                raise UnsupportedConstruct(
                    f"malformed {head} instantiation", lineno
                )
            for terms in instances:
                ports = _names(terms, lineno, f"{head} instance")
                if len(ports) < 2:
                    raise UnsupportedConstruct(
                        f"{head} instance needs an output and at least one input",
                        lineno,
                    )
                if arity == 1 and len(ports) != 2:
                    raise UnsupportedConstruct(
                        f"multi-output {head} instances are not supported", lineno
                    )
                gates.append(Gate(ports[0], kind, ports[1:]))
            continue

        raise UnsupportedConstruct(f"unsupported construct {head!r}", lineno)

    if not seen_module:
        raise UnsupportedConstruct("no module found")

    return Netlist(module_name or "verilog", inputs, outputs, gates)
