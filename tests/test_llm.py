import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchlock.bench import emit_bench, parse_bench
from benchlock.circuits import c17, random_netlist
from benchlock.errors import TransportError, TruncationError, ValidationFailed
from benchlock.llm import (
    CONTINUE_PROMPT,
    ChatMessage,
    ChatResponse,
    MockTransport,
    llm_convert,
    llm_obfuscate,
    looks_truncated,
    render_convert_prompt,
    render_obfuscate_prompt,
    run_with_continuation,
    stitch,
)
from benchlock.locking import (
    KEYGATE_POLICIES,
    Key,
    LockConfig,
    emit_key_file,
    insert_xor_keygates,
    lock,
    parse_key_file,
    resolve_key_inputs,
    select_nets,
)
from benchlock.verify import functional_verify
from benchlock.verilog import parse_verilog_subset
from structure import structurally_equal

NAND_VERILOG = """module m(a, b, y);
input a, b;
output y;
nand g1(y, a, b);
endmodule
"""
NAND_BENCH = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n"


# -- prompt rendering ----------------------------------------------------------


def test_convert_prompt_embeds_source_verbatim():
    t = render_convert_prompt(NAND_VERILOG)
    assert len(t) == 1 and t[0].role == "user"
    assert NAND_VERILOG.rstrip() in t[0].content
    assert "exact type of gates" in t[0].content


def test_convert_prompt_deterministic():
    assert render_convert_prompt(NAND_VERILOG) == render_convert_prompt(NAND_VERILOG)


def test_obfuscate_prompt_embeds_everything():
    bench = emit_bench(c17())
    t = render_obfuscate_prompt(bench, LockConfig(key_size=4), ("fanout", "random"))
    content = t[0].content
    assert bench.rstrip() in content
    assert "4 key bits" in content
    assert "keyinput0 .. keyinput3" in content
    assert "XOR/XNOR" in content
    assert "fan-out" in content
    assert "preserving the circuit connectivity" in content
    assert t == render_obfuscate_prompt(bench, LockConfig(key_size=4), ("fanout", "random"))


def test_obfuscate_prompt_rejects_unknown_hints():
    with pytest.raises(ValueError):
        render_obfuscate_prompt("x", LockConfig(key_size=2), strategy_hints=("bogus",))


# -- truncation handling -----------------------------------------------------------


def test_truncation_heuristic():
    assert looks_truncated("y = NAND(a,")
    assert looks_truncated("y =")
    assert looks_truncated("complete text", finish_reason="length")
    assert not looks_truncated("y = NAND(a, b)")
    assert not looks_truncated("")


def test_trailing_comment_line_is_not_truncation():
    assert not looks_truncated("y = NAND(a, b)\n# key=001\n")
    assert looks_truncated("y = NAND(a,\n# key=001\n")
    assert looks_truncated("y = NAND(a, b)\n# key=001", finish_reason="length")

    c = c17()
    cfg = LockConfig(key_size=3, keygate_policy="xor_only", seed=5)
    locked = insert_xor_keygates(c, select_nets(c, "random", 3, seed=3), (0, 0, 1))
    mock = MockTransport([emit_bench(locked.netlist) + "# key=001\n"])
    got, record = llm_obfuscate(mock, c, cfg)
    assert len(mock.calls) == 1
    assert record.final_source == "llm"
    assert record.continuation_count == 0
    assert got.correct_key.to_string() == "001"


def test_stitch_trims_line_overlap():
    a = "one\ntwo\nthree"
    b = "two\nthree\nfour"
    assert stitch(a, b) == "one\ntwo\nthree\nfour"
    assert stitch(a, "four") == "one\ntwo\nthree\nfour"


def test_complete_response_needs_no_continuation():
    mock = MockTransport([NAND_BENCH])
    text, transcript, cont = run_with_continuation(
        mock, render_convert_prompt(NAND_VERILOG)
    )
    assert cont == 0
    assert text == NAND_BENCH
    assert len(mock.calls) == 1


def test_split_bench_stitches_with_overlap():
    full = emit_bench(c17())
    lines = full.splitlines()
    first = "\n".join(lines[:8])
    second = "\n".join(lines[7:])  # repeats one line
    mock = MockTransport([ChatResponse(first, finish_reason="length"),
                          ChatResponse(second)])
    text, transcript, cont = run_with_continuation(
        mock, render_convert_prompt(NAND_VERILOG)
    )
    assert cont == 1
    # the continuation request is the exact fixed string
    assert mock.calls[1][-1] == ChatMessage("user", CONTINUE_PROMPT)
    assert structurally_equal(parse_bench(text), c17())


def test_always_truncated_hits_the_cap():
    mock = MockTransport([ChatResponse("x = AND(", finish_reason="length")] * 5)
    with pytest.raises(TruncationError):
        run_with_continuation(mock, render_convert_prompt(NAND_VERILOG))


def test_transport_errors_retried_then_surfaced():
    mock = MockTransport([TransportError("boom"), NAND_BENCH])
    text, _, _ = run_with_continuation(mock, render_convert_prompt(NAND_VERILOG))
    assert text == NAND_BENCH
    mock = MockTransport([TransportError("boom"), TransportError("boom")])
    with pytest.raises(TransportError):
        run_with_continuation(mock, render_convert_prompt(NAND_VERILOG))


# -- llm_convert ----------------------------------------------------------------------


def test_convert_accepts_valid_output():
    netlist, record = llm_convert(MockTransport([NAND_BENCH]), NAND_VERILOG)
    assert record.final_source == "llm"
    assert record.validation_outcomes[-1] == "ok"
    assert structurally_equal(netlist, parse_verilog_subset(NAND_VERILOG))


def test_convert_rejects_wrong_function_then_repairs():
    wrong = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n"
    mock = MockTransport([wrong, NAND_BENCH])
    netlist, record = llm_convert(mock, NAND_VERILOG)
    assert record.final_source == "llm"
    assert "InterfaceError" in record.validation_outcomes[0]
    assert len(mock.calls) == 2


def test_convert_dff_triggers_repair_with_message():
    bad = "INPUT(a)\nOUTPUT(q)\nq = DFF(a)\n"
    mock = MockTransport([bad, NAND_BENCH])
    _, record = llm_convert(mock, NAND_VERILOG)
    assert "UnsupportedGate" in record.validation_outcomes[0]
    repair = mock.calls[1][-1].content
    assert "DFF" in repair


def test_convert_fallback_matches_reference_parse():
    mock = MockTransport(["garbage"] * 3)
    netlist, record = llm_convert(mock, NAND_VERILOG, validation_retries=2)
    assert record.final_source == "fallback"
    assert any("fallback" in o for o in record.validation_outcomes)
    assert emit_bench(netlist) == emit_bench(parse_verilog_subset(NAND_VERILOG))


def test_convert_no_fallback_raises():
    with pytest.raises(ValidationFailed):
        llm_convert(MockTransport(["junk"] * 3), NAND_VERILOG,
                    validation_retries=2, fallback=False)


# -- llm_obfuscate ----------------------------------------------------------------------


def locked_fixture(seed=5, key_size=2):
    c = c17()
    cfg = LockConfig(key_size=key_size, keygate_policy="xor_only",
                     selection="random", seed=seed)
    locked, key = lock(c, cfg)
    return c, cfg, locked, key


def test_obfuscate_accepts_declared_key():
    c, cfg, locked, key = locked_fixture()
    candidate = f"# key={key.to_string()}\n" + emit_bench(locked.netlist)
    got, record = llm_obfuscate(MockTransport([candidate]), c, cfg)
    assert record.final_source == "llm"
    assert got.correct_key == key


def test_obfuscate_recovers_key_without_declaration():
    c, cfg, locked, key = locked_fixture()
    got, record = llm_obfuscate(MockTransport([emit_bench(locked.netlist)]), c, cfg)
    assert got.correct_key == key


def test_obfuscate_rejects_wrong_declared_key_but_scans():
    c, cfg, locked, key = locked_fixture()
    candidate = f"# key={key.complemented().to_string()}\n" + emit_bench(locked.netlist)
    got, record = llm_obfuscate(MockTransport([candidate]), c, cfg)
    assert got.correct_key == key  # scan overrides the bad declaration


def test_obfuscate_rejects_wrong_interface():
    c, cfg, locked, key = locked_fixture()
    # candidate lies about key count
    candidate = emit_bench(c)
    mock = MockTransport([candidate, f"# key={key.to_string()}\n" + emit_bench(locked.netlist)])
    got, record = llm_obfuscate(mock, c, cfg)
    assert record.final_source == "llm"
    assert "InterfaceError" in record.validation_outcomes[0]


def test_obfuscate_fallback_byte_identical_to_engine():
    c, cfg, locked, key = locked_fixture()
    got, record = llm_obfuscate(MockTransport(["junk"] * 3), c, cfg,
                                validation_retries=2)
    assert record.final_source == "fallback"
    assert emit_bench(got.netlist) == emit_bench(locked.netlist)
    assert got.correct_key == key


@pytest.mark.parametrize("run", [
    lambda mock: llm_convert(mock, NAND_VERILOG, validation_retries=-1),
    lambda mock: llm_obfuscate(mock, *locked_fixture()[:2], validation_retries=-1),
], ids=["convert", "obfuscate"])
def test_negative_validation_retries_are_refused_before_any_request(run):
    mock = MockTransport([NAND_BENCH])
    with pytest.raises(ValueError, match="validation_retries"):
        run(mock)
    assert mock.calls == []


def test_obfuscate_wide_key_requires_declaration():
    c = c17()
    cfg = LockConfig(key_size=9, keygate_policy="xor_only", seed=2)
    locked, key = lock(c, cfg)
    mock = MockTransport([emit_bench(locked.netlist)] * 3)
    with pytest.raises(ValidationFailed):
        llm_obfuscate(mock, c, cfg, validation_retries=2, fallback=False)
    declared = f"# key={key.to_string()}\n" + emit_bench(locked.netlist)
    got, record = llm_obfuscate(MockTransport([declared]), c, cfg)
    assert got.correct_key == key


def test_obfuscate_strips_markdown_fences():
    c, cfg, locked, key = locked_fixture()
    fenced = "```\n# key=" + key.to_string() + "\n" + emit_bench(locked.netlist) + "```\n"
    got, _ = llm_obfuscate(MockTransport([fenced]), c, cfg)
    assert got.correct_key == key


def test_obfuscate_reads_key_inputs_in_numeric_order():
    # The answer lists keyinput3 .. keyinput0 but declares its key
    # keyinput0 first, as the prompt asks; the emitted files must verify.
    c = c17()
    cfg = LockConfig(key_size=4, keygate_policy="xor_only", seed=5)
    locked = insert_xor_keygates(c, select_nets(c, "random", 4, seed=3), (0, 1, 1, 1))
    lines = emit_bench(locked.netlist).splitlines()
    key_lines = [ln for ln in lines if ln.startswith("INPUT(keyinput")]
    rest = [ln for ln in lines if ln not in key_lines]
    at = rest.index(next(ln for ln in rest if ln.startswith("OUTPUT(")))
    answer = "\n".join(["# key=0111"] + rest[:at] + key_lines[::-1] + rest[at:])

    got, record = llm_obfuscate(MockTransport([answer]), c, cfg)
    assert record.final_source == "llm"
    emitted = parse_bench(emit_bench(got.netlist), name=c.name)
    key = parse_key_file(emit_key_file(got.correct_key))
    assert key.to_string() == "0111"
    assert functional_verify(emitted, c, key).functional == "equivalent"


def test_obfuscate_honours_key_prefix():
    c = c17()
    cfg = LockConfig(key_size=3, keygate_policy="xor_only", seed=5, key_prefix="kx")
    prompt = render_obfuscate_prompt(emit_bench(c), cfg)[0].content
    assert "kx0 .. kx2" in prompt
    assert "kx0 first" in prompt
    assert "keyinput" not in prompt

    locked, key = lock(c, cfg)
    answer = f"# key={key.to_string()}\n" + emit_bench(locked.netlist)
    got, record = llm_obfuscate(MockTransport([answer]), c, cfg)
    assert "kx0 .. kx2" in record.transcript[0].content
    assert record.final_source == "llm"
    assert record.validation_outcomes == ("ok",)
    assert got.key_inputs == ("kx0", "kx1", "kx2")
    assert got.correct_key == key


# keys 00 and 11 both cancel out; 01 and 10 complement y
TWIN_KEY_NAND = """INPUT(a)
INPUT(b)
INPUT(keyinput0)
INPUT(keyinput1)
OUTPUT(y)
y_pre = NAND(a, b)
y_mid = XOR(y_pre, keyinput0)
y = XOR(y_mid, keyinput1)
"""


@pytest.mark.parametrize("declaration, want", [
    ("", "00"),          # no declaration: the sweep's first equivalent key
    ("# key=11\n", "11"),  # a correct declaration is tried first and wins
    ("# key=01\n", "00"),  # a wrong declaration falls through to the sweep
])
def test_obfuscate_tries_declared_key_then_sweep(declaration, want):
    original = parse_bench(NAND_BENCH, name="m")
    cfg = LockConfig(key_size=2)
    got, record = llm_obfuscate(MockTransport([declaration + TWIN_KEY_NAND]),
                                original, cfg)
    assert record.validation_outcomes == ("ok",)
    assert got.correct_key.to_string() == want


def _spy_verify(mp):
    """Route the validator's functional_verify through a recorder of
    (key bits, verdict) pairs."""
    import benchlock.llm as llm

    seen = []

    def spy(candidate, original, key, *args, **kwargs):
        verdict = functional_verify(candidate, original, key, *args, **kwargs)
        seen.append(("".join(map(str, key)), verdict.functional))
        return verdict

    mp.setattr(llm, "functional_verify", spy)
    return seen


def test_obfuscate_sweep_skips_the_declared_key(monkeypatch):
    c = c17()
    cfg = LockConfig(key_size=3, keygate_policy="xor_only", seed=5)
    locked = insert_xor_keygates(c, select_nets(c, "random", 3, seed=3), (1, 1, 1))
    seen = _spy_verify(monkeypatch)
    answer = "# key=000\n" + emit_bench(locked.netlist)
    got, record = llm_obfuscate(MockTransport([answer]), c, cfg)
    assert record.validation_outcomes == ("ok",)
    assert got.correct_key.to_string() == "111"
    # The counterexample of 000 refutes 100, 010, 110, 001 and 101 without
    # a verify. The declared key is still tried first, and only once.
    assert [bits for bits, _ in seen] == ["000", "011", "111"]


def _unpruned_sweep(candidate, original, declared, k):
    """Reference validator: the declared key, then every other value in
    sweep order, each checked by a full functional_verify."""
    trials = [] if declared is None else [declared]
    trials += [t for t in (Key(tuple(v >> i & 1 for i in range(k)))
                           for v in range(1 << k)) if t != declared]
    return next((t for t in trials if
                 functional_verify(candidate, original, t).functional == "equivalent"),
                None)


COMPLEMENT_KIND = {"AND": "NAND", "NAND": "AND", "OR": "NOR", "NOR": "OR",
                   "XOR": "XNOR", "XNOR": "XOR"}


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(n_inputs=st.sampled_from([5, 9, 17, 18]), seed=st.integers(0, 10**6),
       k=st.integers(1, 4), policy=st.sampled_from(KEYGATE_POLICIES),
       declare=st.sampled_from(["none", "correct", "wrong"]),
       mutate=st.none() | st.integers(0, 10**6))
def test_pruned_sweep_picks_the_key_of_an_unpruned_sweep(
        n_inputs, seed, k, policy, declare, mutate):
    original = random_netlist(n_inputs, 40, seed)
    cfg = LockConfig(key_size=k, keygate_policy=policy, seed=seed)
    locked, key = lock(original, cfg)
    lines = emit_bench(locked.netlist).splitlines()
    if mutate is not None:
        # complement one gate: often no key value matches any more
        gates = [i for i, ln in enumerate(lines)
                 if ln.split("= ")[-1].split("(")[0] in COMPLEMENT_KIND]
        i = gates[mutate % len(gates)]
        kind = lines[i].split("= ")[1].split("(")[0]
        lines[i] = lines[i].replace(f"= {kind}(", f"= {COMPLEMENT_KIND[kind]}(")
    text = "\n".join(lines) + "\n"
    declared = {"none": None, "correct": key, "wrong": key.complemented()}[declare]
    answer = text if declared is None else f"# key={declared.to_string()}\n{text}"
    candidate = resolve_key_inputs(parse_bench(text, name=original.name))
    want = _unpruned_sweep(candidate, original, declared, k)

    with pytest.MonkeyPatch.context() as mp:
        seen = _spy_verify(mp)
        if want is None:
            with pytest.raises(ValidationFailed) as exc:
                llm_obfuscate(MockTransport([answer]), original, cfg,
                              validation_retries=0, fallback=False)
            assert exc.value.outcomes == ["InterfaceError: no key value makes the "
                                          "candidate match the original design"]
            assert all(verdict == "mismatch" for _, verdict in seen)
            return
        got, record = llm_obfuscate(MockTransport([answer]), original, cfg)
    assert record.final_source == "llm"
    assert got.correct_key == want
    # the accepted key passed a full verify, the last one made
    assert seen[-1] == (want.to_string(), "equivalent")
    assert [bits for bits, _ in seen].count(want.to_string()) == 1


def test_pruned_sweep_worst_case_needs_few_verifies(monkeypatch):
    original = random_netlist(16, 1500, 5)
    nets = select_nets(original, "random", 8, 7)
    locked = insert_xor_keygates(original, nets, (1,) * 8)
    seen = _spy_verify(monkeypatch)
    got, _ = llm_obfuscate(MockTransport([emit_bench(locked.netlist)]), original,
                           LockConfig(key_size=8))
    # the unpruned sweep returns this key after 248 verifies
    assert got.correct_key.to_string() == "11101111"
    assert len(seen) <= 10


def test_obfuscate_validator_error_messages():
    c = c17()

    def outcome(cfg, answer):
        with pytest.raises(ValidationFailed) as exc:
            llm_obfuscate(MockTransport([answer]), c, cfg,
                          validation_retries=0, fallback=False)
        (line,) = exc.value.outcomes
        return line

    narrow = LockConfig(key_size=2, seed=5)
    locked, key = lock(c, narrow)
    broken = emit_bench(locked.netlist).replace("G22 = NAND", "G22 = AND")
    assert "G22 = AND" in broken
    assert "no key value makes the candidate match" in outcome(narrow, broken)

    wide = LockConfig(key_size=9, seed=2)
    locked, key = lock(c, wide)
    text = emit_bench(locked.netlist)
    assert "key width 9 > 8 requires a '# key=...' declaration" in outcome(wide, text)
    wrong = f"# key={key.complemented().to_string()}\n" + text
    assert "declared key does not reproduce" in outcome(wide, wrong)


def test_obfuscate_refuses_key_inputs_no_gate_reads():
    # every key value is equivalent when no gate reads a key input, so the
    # sweep alone would accept the declared key of a lock that locks nothing
    c = c17()
    keys = "".join(f"INPUT(keyinput{i})\n" for i in range(3))
    answer = "# key=101\n" + keys + emit_bench(c)
    with pytest.raises(ValidationFailed) as exc:
        llm_obfuscate(MockTransport([answer] * 3), c, LockConfig(key_size=3),
                      fallback=False)
    want = "; ".join(f"key input reaches no primary output: 'keyinput{i}'"
                     for i in range(3))
    assert exc.value.outcomes == [f"InterfaceError: {want}"] * 3


# -- run records -------------------------------------------------------------------------

# Verilog the subset reader refuses, so conversion has no reference parse.
NAND_BY_OPERATOR = """module m(a, b, y);
input a, b;
output y;
assign y = ~(a & b);
endmodule
"""


def _scripted_runs():
    c, cfg, locked, key = locked_fixture()
    declared = f"# key={key.to_string()}\n" + emit_bench(locked.netlist)
    lines = declared.splitlines()
    half = len(lines) // 2
    truncated = [ChatResponse("\n".join(lines[:half]), finish_reason="length"),
                 ChatResponse("\n".join(lines[half:]))]
    wrong = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n"
    return {
        "convert-accepted": lambda: llm_convert(MockTransport([NAND_BENCH]), NAND_VERILOG),
        "convert-repaired": lambda: llm_convert(
            MockTransport([wrong, NAND_BENCH]), NAND_VERILOG),
        "convert-without-reference": lambda: llm_convert(
            MockTransport([NAND_BENCH]), NAND_BY_OPERATOR),
        "convert-fallback": lambda: llm_convert(MockTransport(["junk"] * 3), NAND_VERILOG),
        "obfuscate-declared": lambda: llm_obfuscate(MockTransport([declared]), c, cfg),
        "obfuscate-continued": lambda: llm_obfuscate(MockTransport(truncated), c, cfg),
        "obfuscate-sweep": lambda: llm_obfuscate(
            MockTransport([emit_bench(locked.netlist)]), c, cfg),
        "obfuscate-fallback": lambda: llm_obfuscate(MockTransport(["junk"] * 3), c, cfg),
    }


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


JUNK = "BenchParseError: line 1, col 1: unrecognized line: 'junk'"
VALIDATION_FALLBACK = "fallback: LLM output failed validation after 3 attempts"

# Recorded before the two pipelines shared one run engine: outcomes,
# continuations, source, transcript length, then digests of the whole
# as_dict() and of the emitted netlist.
RECORD_GOLDENS = {
    "convert-accepted": (("ok",), 0, "llm", 2, "1b427468e05f0ed4", "7c60da4b49d5c9e3"),
    "convert-repaired": (
        ("InterfaceError: functional mismatch with the source on input "
         "{'a': 0, 'b': 0}", "ok"),
        0, "llm", 4, "e1f57548011e4027", "7c60da4b49d5c9e3"),
    "convert-without-reference": (("ok", "accepted_without_reference"), 0, "llm", 2,
                                  "af780e4a2de9171c", "018af0bea0ddf8eb"),
    # a fallback record keeps the prompt, three answers and two repairs
    "convert-fallback": ((JUNK,) * 3 + (VALIDATION_FALLBACK,), 0, "fallback", 6,
                         "a90903ca5a7c63ab", "7c60da4b49d5c9e3"),
    "obfuscate-declared": (("ok",), 0, "llm", 2, "316773e989ffff5f", "7fd24e0ac9fdc8ff"),
    "obfuscate-continued": (("ok",), 1, "llm", 4, "33668a2d83f179fe", "7fd24e0ac9fdc8ff"),
    "obfuscate-sweep": (("ok",), 0, "llm", 2, "1dcb98629387a781", "7fd24e0ac9fdc8ff"),
    "obfuscate-fallback": ((JUNK,) * 3 + (VALIDATION_FALLBACK,), 0, "fallback", 6,
                           "d09b487811e1a746", "7fd24e0ac9fdc8ff"),
}


@pytest.mark.parametrize("name", sorted(RECORD_GOLDENS))
def test_run_record_goldens(name):
    result, record = _scripted_runs()[name]()
    d = record.as_dict()
    out = emit_bench(getattr(result, "netlist", result))
    assert (tuple(d["validation_outcomes"]), d["continuation_count"], d["final_source"],
            len(d["transcript"]), _digest(json.dumps(d, sort_keys=True)),
            _digest(out)) == RECORD_GOLDENS[name]
    assert d["decoding_params"] == {"temperature": 0}
    # lists, not the record's tuples (a list never equals a tuple): the
    # JSON digest cannot tell them apart
    assert d["validation_outcomes"] == list(record.validation_outcomes)
    assert d["transcript"] == [{"role": m.role, "content": m.content}
                               for m in record.transcript]
    if name.startswith("obfuscate"):
        assert result.correct_key.to_string() == "10"
        # an accepted answer has no ledger, like a locked file read back
        assert (result.ledger == ()) == (record.final_source == "llm")


# The verify benchmark's llm-sweep jobs: variant v answers with
# random_netlist(14, 160, 800 + v) XOR-locked at 8 random nets under the
# all-ones key, with no key line, so the validator sweeps the key space.
# The job's Random is seeded by the fourth draw of Random(1000 + v); its
# first draw seeds the LockConfig and its second the net selection. The
# digest is sha256 over each record's as_dict() and accepted key, in
# variant order.
VERIFY_POOL_SWEEP_DIGEST = "a2960cdd7831afa9"


def test_verify_pool_sweep_records_are_pinned():
    digest = hashlib.sha256()
    for v in range(12):
        pool = random.Random(1000 + v)
        rng = random.Random([pool.randrange(1, 10**6) for _ in range(4)][3])
        original = random_netlist(14, 160, 800 + v, name=f"llm{v}")
        cfg = LockConfig(8, seed=rng.randrange(1, 10**6))
        nets = select_nets(original, "random", 8, rng.randrange(1, 10**6))
        answer = emit_bench(insert_xor_keygates(original, nets, (1,) * 8).netlist)
        netlist = parse_bench(emit_bench(original), name=original.name)
        locked, record = llm_obfuscate(MockTransport([answer]), netlist, cfg)
        digest.update(json.dumps(record.as_dict(), sort_keys=True).encode())
        digest.update(locked.correct_key.to_string().encode())
    assert digest.hexdigest()[:16] == VERIFY_POOL_SWEEP_DIGEST


def test_fallback_record_keeps_every_attempt():
    c = c17()
    cfg = LockConfig(key_size=3, keygate_policy="xor_only", seed=5)
    script = ["junk", TransportError("boom"), TransportError("boom")]
    got, record = llm_obfuscate(MockTransport(script), c, cfg)
    assert record.final_source == "fallback"
    assert record.validation_outcomes == (JUNK, "fallback: boom")
    assert emit_bench(got.netlist) == emit_bench(lock(c, cfg)[0].netlist)

    _, record = llm_convert(MockTransport(list(script)), NAND_VERILOG)
    assert record.validation_outcomes == (JUNK, "fallback: boom")


def test_fallback_record_keeps_the_transcript():
    c = c17()
    cfg = LockConfig(key_size=3, keygate_policy="xor_only", seed=5)
    script = [ChatResponse("x = AND(", finish_reason="length"), "junk", "junk", "junk"]
    _, record = llm_obfuscate(MockTransport(script), c, cfg)
    assert record.final_source == "fallback"
    assert record.continuation_count == 1
    assert [m.role for m in record.transcript] == ["user", "assistant"] * 4
    assert record.transcript[2].content == CONTINUE_PROMPT
    assert [m.content for m in record.transcript[1::2]] == ["x = AND(", "junk",
                                                           "junk", "junk"]

    # a request whose transport fails adds nothing; the repair prompt stays
    script = ["junk", TransportError("boom"), TransportError("boom")]
    _, record = llm_convert(MockTransport(script), NAND_VERILOG)
    assert [m.role for m in record.transcript] == ["user", "assistant", "user"]


def test_fallback_record_keeps_a_truncated_exchange():
    c = c17()
    cfg = LockConfig(key_size=3, keygate_policy="xor_only", seed=5)
    script = [ChatResponse("x = AND(", finish_reason="length")] * 4
    _, record = llm_obfuscate(MockTransport(script), c, cfg)
    assert record.validation_outcomes == (
        "fallback: output still truncated after 3 continuations",)
    assert record.continuation_count == 3
    assert [m.role for m in record.transcript] == ["user", "assistant"] * 4
    assert [m.content for m in record.transcript[1::2]] == ["x = AND("] * 4
    assert [m.content for m in record.transcript[2::2]] == [CONTINUE_PROMPT] * 3


def test_fallback_record_keeps_the_exchange_before_a_failed_continuation():
    script = [ChatResponse("x = AND(", finish_reason="length"),
              TransportError("boom"), TransportError("boom")]
    _, record = llm_convert(MockTransport(script), NAND_VERILOG)
    assert record.validation_outcomes == ("fallback: boom",)
    assert record.continuation_count == 1
    assert [m.role for m in record.transcript] == ["user", "assistant", "user"]
    assert record.transcript[2].content == CONTINUE_PROMPT
