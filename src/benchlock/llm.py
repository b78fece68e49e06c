"""Chat-completion driver: prompt rendering, truncation continuation,
output validation, and deterministic fallback.

Every LLM answer goes through the same parser and verification gates as
deterministic output; nothing reaches a consumer unvalidated. Transports
are pluggable so the whole module tests offline against scripted mocks.
"""

from __future__ import annotations

import importlib.resources
import http.client
import json
import time
import urllib.request
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

from .attack import equivalence_check
from .bench import emit_bench, parse_bench
from .errors import (
    BenchlockError,
    InterfaceError,
    TransportError,
    TruncationError,
    ValidationFailed,
)
from .locking import (
    Key,
    LockConfig,
    LockedNetlist,
    LockRecord,
    lock,
    resolve_key_inputs,
)
from .netlist import Netlist
from .verilog import parse_verilog_subset
from .verify import functional_verify, structural_check

CONTINUE_PROMPT = "Continue from the last line"
API_KEY_ENV = "OBFUS_API_KEY"

# Obfuscation guidance offered to the model, selectable by name.
STRATEGY_HINTS = {
    "fanout": "Prefer nets with high fan-out and high fan-in gates when "
    "choosing where to insert key gates.",
    "xor": "Use XOR/XNOR key gates to break symmetries in the design.",
    "mux": "Use complex logic structures such as multiplexers, wiring one "
    "data input to the original net and the other to a dummy function.",
    "random": "Introduce randomness or pseudo-randomness into the insertion "
    "so the result shows no predictable pattern.",
    "placement": "Place key gates strategically to maximize the difficulty "
    "of recovering the key.",
}


@dataclass(frozen=True)
class ChatMessage:
    role: str  # system | user | assistant
    content: str


@dataclass(frozen=True)
class ChatResponse:
    content: str
    finish_reason: str | None = None  # {"stop", "length", ...} when known


class Transport(Protocol):
    """Stateless chat-completion backend."""

    def send(
        self, transcript: Sequence[ChatMessage], model: str, params: dict
    ) -> ChatResponse: ...


class MockTransport:
    """Scripted transport for offline tests: returns canned responses in
    order; an Exception entry is raised instead."""

    def __init__(self, responses: Sequence[ChatResponse | str | Exception]):
        self.responses = list(responses)
        self.calls: list[tuple[ChatMessage, ...]] = []

    def send(self, transcript, model, params):
        self.calls.append(tuple(transcript))
        if not self.responses:
            raise TransportError("mock transport ran out of responses")
        item = self.responses.pop(0)
        if isinstance(item, Exception):
            raise item
        if isinstance(item, str):
            return ChatResponse(item)
        return item


class HttpTransport:
    """Minimal chat-completion HTTP client with bearer-token auth.

    The endpoint receives {model, messages, **params} and must answer with
    choices[0].message.content (finish_reason honored when present).
    """

    def __init__(self, endpoint: str, api_key: str | None = None, timeout_s: float = 120.0):
        import os

        self.endpoint = endpoint
        self.api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV)
        self.timeout_s = timeout_s

    def send(self, transcript, model, params):
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        payload = {
            "model": model,
            "messages": [{"role": m.role, "content": m.content} for m in transcript],
        }
        payload.update(params or {})
        request = urllib.request.Request(
            self.endpoint, data=json.dumps(payload).encode(), headers=headers
        )
        try:
            # HTTPError (status >= 400), URLError and timeouts are OSErrors
            with urllib.request.urlopen(request, timeout=self.timeout_s) as resp:
                raw = resp.read()
        except (OSError, http.client.HTTPException) as exc:
            raise TransportError(f"chat endpoint failed: {exc}") from exc
        try:
            choice = json.loads(raw)["choices"][0]
            content = choice["message"]["content"]
            finish_reason = choice.get("finish_reason")
        # TypeError: a list, string or null where an object is expected
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise TransportError(f"malformed chat response: {exc}") from exc
        if not isinstance(content, str):
            raise TransportError(
                f"malformed chat response: content is {type(content).__name__}"
            )
        return ChatResponse(content=content, finish_reason=finish_reason)


@dataclass(frozen=True)
class LlmRunRecord:
    transcript: tuple[ChatMessage, ...]
    continuation_count: int
    validation_outcomes: tuple[str, ...]
    final_source: str  # llm | fallback
    template_version: str
    model: str
    decoding_params: dict

    def as_dict(self) -> dict:
        return {
            "transcript": [
                {"role": m.role, "content": m.content} for m in self.transcript
            ],
            "continuation_count": self.continuation_count,
            "validation_outcomes": list(self.validation_outcomes),
            "final_source": self.final_source,
            "template_version": self.template_version,
            "model": self.model,
            "decoding_params": dict(self.decoding_params),
        }


def _template(name: str) -> str:
    ref = importlib.resources.files(__package__) / "templates" / f"{name}.txt"
    return ref.read_text(encoding="utf-8")


def render_convert_prompt(verilog_text: str) -> tuple[ChatMessage, ...]:
    """Conversion prompt, embedding the source verbatim. Deterministic."""
    if not verilog_text.strip():
        raise ValueError("empty Verilog source")
    body = _template("convert_v1").format(verilog=verilog_text.rstrip())
    return (ChatMessage("user", body),)


def render_obfuscate_prompt(
    bench_text: str,
    key_size: int,
    keygate_kinds: Sequence[str] = ("XOR", "XNOR"),
    strategy_hints: Sequence[str] = (),
) -> tuple[ChatMessage, ...]:
    """Obfuscation prompt: bench text, key width, gate kinds, strategy hints."""
    if key_size < 1:
        raise ValueError("key_size must be >= 1")
    unknown = [h for h in strategy_hints if h not in STRATEGY_HINTS]
    if unknown:
        raise ValueError(f"unknown strategy hints: {unknown}")
    strategies = "".join(f"- {STRATEGY_HINTS[h]}\n" for h in strategy_hints)
    if strategies:
        strategies += "\n"
    body = _template("obfuscate_v1").format(
        key_size=key_size,
        last_index=key_size - 1,
        kinds="/".join(keygate_kinds),
        key_pattern="<the {} correct key bits, keyinput0 first>".format(key_size),
        strategies=strategies,
        bench=bench_text.rstrip(),
    )
    return (ChatMessage("user", body),)


# -- continuation ---------------------------------------------------------------


def looks_truncated(text: str, finish_reason: str | None = None) -> bool:
    """Heuristic: transport said 'length', or the final line is not a
    syntactically complete .bench line (unbalanced parens, dangling '=')."""
    if finish_reason == "length":
        return True
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        return False
    last = lines[-1].strip()
    if last.count("(") != last.count(")"):
        return True
    if last.endswith("="):
        return True
    if "=" in last and "(" not in last:
        return True
    return False


def stitch(prev: str, cont: str, max_overlap: int = 50) -> str:
    """Concatenate a continuation, trimming a repeated-line overlap."""
    prev_lines = prev.rstrip("\n").split("\n")
    cont_lines = cont.lstrip("\n").split("\n")
    best = 0
    limit = min(len(prev_lines), len(cont_lines), max_overlap)
    for k in range(limit, 0, -1):
        if [ln.rstrip() for ln in prev_lines[-k:]] == [
            ln.rstrip() for ln in cont_lines[:k]
        ]:
            best = k
            break
    remainder = "\n".join(cont_lines[best:])
    if not remainder:
        return "\n".join(prev_lines)
    return "\n".join(prev_lines) + "\n" + remainder


def run_with_continuation(
    transport: Transport,
    transcript: Sequence[ChatMessage],
    model: str = "",
    params: dict | None = None,
    max_continuations: int = 3,
    transport_retries: int = 1,
    retry_wait_s: float = 0.0,
) -> tuple[str, tuple[ChatMessage, ...], int]:
    """Send a prompt, continuing past truncation with the fixed
    continuation request.

    Returns (stitched text, full transcript, continuation count). Raises
    TruncationError if the budget runs out with output still truncated,
    and TransportError after the retry policy is exhausted.
    """
    params = params or {}
    history = list(transcript)
    text = ""
    continuations = 0
    while True:
        last_error = None
        for attempt in range(transport_retries + 1):
            try:
                response = transport.send(tuple(history), model, params)
                break
            except TransportError as exc:
                last_error = exc
                if attempt < transport_retries and retry_wait_s:
                    time.sleep(retry_wait_s)
        else:
            raise last_error
        history.append(ChatMessage("assistant", response.content))
        text = stitch(text, response.content) if text else response.content
        if not looks_truncated(response.content, response.finish_reason):
            return text, tuple(history), continuations
        if continuations >= max_continuations:
            raise TruncationError(
                f"output still truncated after {continuations} continuations"
            )
        continuations += 1
        history.append(ChatMessage("user", CONTINUE_PROMPT))


# -- validated pipelines ----------------------------------------------------------


def _strip_fences(text: str) -> str:
    lines = [ln for ln in text.splitlines() if not ln.strip().startswith("```")]
    return "\n".join(lines)


def _declared_key(text: str, key_size: int) -> Key | None:
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("#") and "key=" in stripped.replace(" ", ""):
            bits = stripped.replace(" ", "").split("key=", 1)[1]
            if len(bits) == key_size and set(bits) <= {"0", "1"}:
                return Key.from_string(bits)
    return None


def _run_validated(
    transport: Transport,
    transcript: tuple[ChatMessage, ...],
    validator: Callable[[str], object],
    model: str,
    params: dict | None,
    max_continuations: int,
    validation_retries: int,
) -> tuple[object, tuple[ChatMessage, ...], int, list[str]]:
    """Prompt / validate / repair loop shared by convert and obfuscate.

    ``validator`` returns the parsed result or raises BenchlockError; its
    message is echoed back to the model in a repair prompt.
    """
    outcomes: list[str] = []
    history = transcript
    continuations = 0
    for attempt in range(validation_retries + 1):
        text, history, cont = run_with_continuation(
            transport, history, model, params, max_continuations
        )
        continuations += cont
        try:
            result = validator(text)
            outcomes.append("ok")
            return result, history, continuations, outcomes
        except BenchlockError as exc:
            outcomes.append(f"{type(exc).__name__}: {exc}")
            if attempt < validation_retries:
                repair = _template("repair_v1").format(error=exc)
                history = history + (ChatMessage("user", repair),)
    raise ValidationFailed(
        f"LLM output failed validation after {validation_retries + 1} attempts",
        outcomes,
    )


def llm_convert(
    transport: Transport,
    verilog_text: str,
    model: str = "",
    params: dict | None = None,
    max_continuations: int = 3,
    validation_retries: int = 2,
    fallback: bool = True,
) -> tuple[Netlist, LlmRunRecord]:
    """Verilog -> .bench via the model, validated against the deterministic
    reference parse when one is derivable; falls back to that parse."""
    try:
        reference = parse_verilog_subset(verilog_text)
    except BenchlockError:
        reference = None

    def validator(text: str) -> Netlist:
        candidate = parse_bench(
            _strip_fences(text),
            name=reference.name if reference is not None else "converted",
        )
        if reference is not None:
            res = equivalence_check(candidate, reference)
            if not res.equivalent:
                raise InterfaceError(
                    f"functional mismatch with the source on input {res.counterexample}"
                )
        return candidate

    transcript = render_convert_prompt(verilog_text)
    base = {"temperature": 0, **(params or {})}
    try:
        netlist, history, cont, outcomes = _run_validated(
            transport, transcript, validator, model, base,
            max_continuations, validation_retries,
        )
        source = "llm"
    except (ValidationFailed, TruncationError, TransportError) as exc:
        if not (fallback and reference is not None):
            raise
        outcomes = list(getattr(exc, "outcomes", [])) + [f"fallback: {exc}"]
        netlist, history, cont, source = reference, transcript, 0, "fallback"
    if reference is None and source == "llm":
        outcomes.append("accepted_without_reference")
    record = LlmRunRecord(
        transcript=history,
        continuation_count=cont,
        validation_outcomes=tuple(outcomes),
        final_source=source,
        template_version="convert/v1",
        model=model,
        decoding_params=base,
    )
    return netlist, record


def llm_obfuscate(
    transport: Transport,
    netlist: Netlist,
    config: LockConfig,
    model: str = "",
    params: dict | None = None,
    strategy_hints: Sequence[str] = ("fanout", "xor", "random"),
    max_continuations: int = 3,
    validation_retries: int = 2,
    fallback: bool = True,
    exhaustive_key_width: int = 8,
) -> tuple[LockedNetlist, LlmRunRecord]:
    """Ask the model to lock the netlist; verify structure and function.

    Key widths up to ``exhaustive_key_width`` are verified under every key
    value (and the correct key recovered that way when the declaration is
    missing or wrong); wider keys require a correct ``# key=`` declaration,
    checked by SAT equivalence. After the retry cap the deterministic
    engine takes over when ``fallback`` is on — byte-identical to calling
    it directly with the same config.
    """
    cfg = config.normalized()
    bench_text = emit_bench(netlist)
    k = cfg.key_size

    def validator(text: str) -> LockedNetlist:
        clean = _strip_fences(text)
        candidate = parse_bench(clean, name=netlist.name)
        _, key_inputs = resolve_key_inputs(candidate, key_prefix=cfg.key_prefix)
        diags = structural_check(candidate, netlist, key_inputs, cfg.key_prefix)
        if len(key_inputs) != k:
            diags.append(f"expected {k} key inputs, found {len(key_inputs)}")
        if diags:
            raise InterfaceError("; ".join(diags))

        declared = _declared_key(clean, k)
        correct = None
        if k <= exhaustive_key_width:
            if declared is not None:
                v = functional_verify(candidate, netlist, declared, "auto", key_inputs)
                if v.functional == "equivalent":
                    correct = declared
            if correct is None:
                for value in range(1 << k):
                    trial = Key(tuple((value >> i) & 1 for i in range(k)))
                    v = functional_verify(candidate, netlist, trial, "auto", key_inputs)
                    if v.functional == "equivalent":
                        correct = trial
                        break
            if correct is None:
                raise InterfaceError(
                    "no key value makes the candidate match the original design"
                )
        else:
            if declared is None:
                raise InterfaceError(
                    f"key width {k} > {exhaustive_key_width} requires a "
                    "'# key=...' declaration"
                )
            v = functional_verify(candidate, netlist, declared, "auto", key_inputs)
            if v.functional != "equivalent":
                raise InterfaceError(
                    "declared key does not reproduce the original behavior"
                )
            correct = declared
        ledger = tuple(
            LockRecord(i, "(llm)", "(llm)", False, "(llm)")
            for i in range(k)
        )
        return LockedNetlist(candidate, tuple(key_inputs), correct, ledger)

    transcript = render_obfuscate_prompt(
        bench_text,
        k,
        keygate_kinds=("XOR", "XNOR")
        if cfg.keygate_policy == "xor_only"
        else ("XOR", "XNOR", "MUX"),
        strategy_hints=strategy_hints,
    )
    base = {"temperature": 0, **(params or {})}
    try:
        locked, history, cont, outcomes = _run_validated(
            transport, transcript, validator, model, base,
            max_continuations, validation_retries,
        )
        source = "llm"
    except (ValidationFailed, TruncationError, TransportError) as exc:
        if not fallback:
            raise
        outcomes = list(getattr(exc, "outcomes", [])) + [f"fallback: {exc}"]
        locked, _ = lock(netlist, cfg)
        history, cont, source = transcript, 0, "fallback"
    record = LlmRunRecord(
        transcript=history,
        continuation_count=cont,
        validation_outcomes=tuple(outcomes),
        final_source=source,
        template_version="obfuscate/v1",
        model=model,
        decoding_params=base,
    )
    return locked, record
