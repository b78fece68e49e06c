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
import urllib.request
from dataclasses import asdict, dataclass, replace
from typing import Callable, Protocol, Sequence

from .attack import equivalence_check, key_sweep
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
    lock,
    resolve_key_inputs,
)
from .netlist import Netlist
from .verilog import parse_verilog_subset
from .verify import functional_verify, structural_check

CONTINUE_PROMPT = "Continue from the last line"
MAX_CONTINUATIONS = 3  # continuation requests per answer before giving up
TRANSPORT_RETRIES = 1  # resends of a request whose transport failed
STITCH_MAX_OVERLAP = 50  # most repeated lines trimmed from a continuation
EXHAUSTIVE_KEY_WIDTH = 8  # widest LLM key swept over every value
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
        d = asdict(self)
        return {**d, "transcript": list(d["transcript"]),
                "validation_outcomes": list(d["validation_outcomes"])}


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
    config: LockConfig,
    strategy_hints: Sequence[str] = (),
) -> tuple[ChatMessage, ...]:
    """Obfuscation prompt: bench text, strategy hints, and the key width,
    key-gate kinds and key-input names of ``config``."""
    cfg = config.normalized()
    kinds = "XOR/XNOR" if cfg.keygate_policy == "xor_only" else "XOR/XNOR/MUX"
    unknown = [h for h in strategy_hints if h not in STRATEGY_HINTS]
    if unknown:
        raise ValueError(f"unknown strategy hints: {unknown}")
    strategies = "".join(f"- {STRATEGY_HINTS[h]}\n" for h in strategy_hints)
    if strategies:
        strategies += "\n"
    body = _template("obfuscate_v1").format(
        key_size=cfg.key_size,
        prefix=cfg.key_prefix,
        last_index=cfg.key_size - 1,
        kinds=kinds,
        key_pattern=f"<the {cfg.key_size} correct key bits, {cfg.key_prefix}0 first>",
        strategies=strategies,
        bench=bench_text.rstrip(),
    )
    return (ChatMessage("user", body),)


# -- continuation ---------------------------------------------------------------


def looks_truncated(text: str, finish_reason: str | None = None) -> bool:
    """Heuristic: transport said 'length', or the final line that is not a
    ``#`` comment is not a syntactically complete .bench line (unbalanced
    parens, dangling '=')."""
    if finish_reason == "length":
        return True
    lines = [
        ln for ln in text.splitlines()
        if ln.strip() and not ln.lstrip().startswith("#")
    ]
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


def stitch(prev: str, cont: str) -> str:
    """Concatenate a continuation, trimming a repeated-line overlap."""
    prev_lines = prev.rstrip("\n").split("\n")
    cont_lines = cont.lstrip("\n").split("\n")
    best = 0
    limit = min(len(prev_lines), len(cont_lines), STITCH_MAX_OVERLAP)
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
) -> tuple[str, tuple[ChatMessage, ...], int]:
    """Send a prompt, continuing past truncation with the fixed
    continuation request.

    Returns (stitched text, full transcript, continuation count). Raises
    TruncationError if the output is still truncated after
    MAX_CONTINUATIONS continuations, and TransportError once a request has
    failed TRANSPORT_RETRIES + 1 times; either error carries the
    transcript and continuation count reached so far.
    """
    params = params or {}
    history = list(transcript)
    text = ""
    continuations = 0
    while True:
        last_error = None
        for _ in range(TRANSPORT_RETRIES + 1):
            try:
                response = transport.send(tuple(history), model, params)
                break
            except TransportError as exc:
                last_error = exc
        else:
            raise TransportError(str(last_error), history, continuations) from last_error
        history.append(ChatMessage("assistant", response.content))
        text = stitch(text, response.content) if text else response.content
        if not looks_truncated(response.content, response.finish_reason):
            return text, tuple(history), continuations
        if continuations >= MAX_CONTINUATIONS:
            raise TruncationError(
                f"output still truncated after {continuations} continuations",
                history, continuations,
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


def _first_equivalent_key(
    candidate: LockedNetlist, original: Netlist, trials: Sequence[Key]
) -> Key | None:
    """The first trial under which ``candidate`` matches ``original``.

    Trials are verified in order; each mismatch's counterexample is
    replayed on every trial still live in one ``key_sweep`` of width 1
    (trial j at bit j), and the trials it refutes are dropped unverified.
    A concrete mismatching input proves a trial wrong, so the key returned
    is the one an unpruned scan would return, and it has passed a full
    ``functional_verify``.
    """
    live = list(trials)
    while live:
        trial = live.pop(0)
        verdict = functional_verify(candidate, original, trial)
        if verdict.functional == "equivalent":
            return trial
        ctrex = verdict.counterexample
        refuted = 0
        for diff in key_sweep(candidate, live, ctrex, 1, original.simulate(ctrex)):
            refuted |= diff
        live = [t for j, t in enumerate(live) if not refuted >> j & 1]
    return None


def _run_validated(
    transport: Transport,
    transcript: tuple[ChatMessage, ...],
    validator: Callable[[str], object],
    fallback: Callable[[], object] | None,
    template_version: str,
    model: str,
    params: dict | None,
    validation_retries: int,
) -> tuple[object, LlmRunRecord]:
    """Prompt / validate / repair loop shared by convert and obfuscate.

    ``validator`` returns the parsed result or raises BenchlockError; its
    message is echoed back to the model in a repair prompt. When the
    retries run out, the transport fails or the output stays truncated,
    the result is ``fallback()``, or the error propagates if there is no
    fallback. A fallback record keeps the transcript and continuation
    count of the exchanges made before the run gave up, the partial one
    of a truncated or failed request included. Negative
    ``validation_retries`` raise ValueError before any request.
    """
    if validation_retries < 0:
        raise ValueError(f"validation_retries must be >= 0, got {validation_retries}")
    params = {"temperature": 0, **(params or {})}
    outcomes: list[str] = []
    history = transcript
    continuations = 0
    try:
        for attempt in range(validation_retries + 1):
            text, history, cont = run_with_continuation(
                transport, history, model, params
            )
            continuations += cont
            try:
                result = validator(text)
                break
            except BenchlockError as exc:
                outcomes.append(f"{type(exc).__name__}: {exc}")
                if attempt < validation_retries:
                    repair = _template("repair_v1").format(error=exc)
                    history = history + (ChatMessage("user", repair),)
        else:
            raise ValidationFailed(
                f"LLM output failed validation after {validation_retries + 1} attempts",
                outcomes,
            )
        outcomes.append("ok")
        source = "llm"
    except (ValidationFailed, TruncationError, TransportError) as exc:
        if fallback is None:
            raise
        if not isinstance(exc, ValidationFailed):
            # keep the partial exchange of the request that gave up
            history = exc.transcript
            continuations += exc.continuations
        outcomes.append(f"fallback: {exc}")
        result, source = fallback(), "fallback"
    record = LlmRunRecord(
        transcript=history,
        continuation_count=continuations,
        validation_outcomes=tuple(outcomes),
        final_source=source,
        template_version=template_version,
        model=model,
        decoding_params=params,
    )
    return result, record


def llm_convert(
    transport: Transport,
    verilog_text: str,
    model: str = "",
    params: dict | None = None,
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

    netlist, record = _run_validated(
        transport, render_convert_prompt(verilog_text), validator,
        (lambda: reference) if fallback and reference is not None else None,
        "convert/v1", model, params, validation_retries,
    )
    if reference is None:
        record = replace(record, validation_outcomes=(
            *record.validation_outcomes, "accepted_without_reference"
        ))
    return netlist, record


def llm_obfuscate(
    transport: Transport,
    netlist: Netlist,
    config: LockConfig,
    model: str = "",
    params: dict | None = None,
    strategy_hints: Sequence[str] = ("fanout", "xor", "random"),
    validation_retries: int = 2,
    fallback: bool = True,
) -> tuple[LockedNetlist, LlmRunRecord]:
    """Ask the model to lock the netlist; verify structure and function.

    Key widths up to EXHAUSTIVE_KEY_WIDTH are swept over every key value
    after the declared one, skipping values an earlier counterexample
    refutes (so the correct key is recovered when the declaration is
    missing or wrong); wider keys require a correct ``# key=`` declaration,
    checked by SAT equivalence. An accepted answer carries no ledger, like
    a locked file read back from disk. After the retry cap the
    deterministic engine takes over when ``fallback`` is on — byte-identical
    to calling it directly with the same config.
    """
    cfg = config.normalized()
    k = cfg.key_size

    def validator(text: str) -> LockedNetlist:
        clean = _strip_fences(text)
        candidate = resolve_key_inputs(
            parse_bench(clean, name=netlist.name), cfg.key_prefix
        )
        diags = structural_check(candidate, netlist)
        if candidate.key_size != k:
            diags.append(f"expected {k} key inputs, found {candidate.key_size}")
        if diags:
            raise InterfaceError("; ".join(diags))

        declared = _declared_key(clean, k)
        trials = [] if declared is None else [declared]
        if k <= EXHAUSTIVE_KEY_WIDTH:
            sweep = (
                Key(tuple((value >> i) & 1 for i in range(k)))
                for value in range(1 << k)
            )
            trials += [trial for trial in sweep if trial != declared]
        elif declared is None:
            raise InterfaceError(
                f"key width {k} > {EXHAUSTIVE_KEY_WIDTH} requires a "
                "'# key=...' declaration"
            )
        correct = _first_equivalent_key(candidate, netlist, trials)
        if correct is None:
            raise InterfaceError(
                "no key value makes the candidate match the original design"
                if k <= EXHAUSTIVE_KEY_WIDTH
                else "declared key does not reproduce the original behavior"
            )
        return replace(candidate, correct_key=correct)

    return _run_validated(
        transport, render_obfuscate_prompt(emit_bench(netlist), cfg, strategy_hints),
        validator, (lambda: lock(netlist, cfg)[0]) if fallback else None,
        "obfuscate/v1", model, params, validation_retries,
    )
