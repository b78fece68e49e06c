"""CLI golden digest: every command's stdout, stderr, exit code and written
files at fixed seeds, hashed into one value. A change to any byte the CLI
prints or writes moves the digest; paths under the temporary directory and
the attack's ``(N ms)`` are masked, and reports pass through
``strip_volatile``."""

import hashlib
import json
import re

import benchlock.llm as llm
from benchlock.bench import emit_bench
from benchlock.circuits import c17, c432_scale
from benchlock.cli import main
from benchlock.locking import LockConfig, lock
from benchlock.report import report_json, strip_volatile
from benchlock.verilog import parse_verilog_subset

# Recorded before the CLI shared one writer and one report path; a change
# that means to alter CLI output updates it and names the change.
CLI_GOLDEN_DIGEST = "c391c225236454b5"

SMALL_V = """module small(a, b, c, y);
input a, b, c;
output y;
wire t;
nand g1(t, a, b);
nor g2(y, t, c);
endmodule
"""

_CIRCUITS = {"c17": c17(), "c432s": c432_scale()}


def _llm_answer(netlist, key_size, seed):
    locked, key = lock(netlist, LockConfig(key_size, seed=seed))
    return f"# key={key.to_string()}\n" + emit_bench(locked.netlist)


def _commands(tmp, name, k):
    """(argv, scripted LLM answers) for one circuit at key size k."""
    src, locked, key = f"{tmp}/{name}.bench", f"{tmp}/{name}.l.bench", f"{tmp}/{name}.key"
    wrong = f"{tmp}/{name}.wrong.key"
    read = ["--locked", locked, "--original", src]
    return [
        (["lock", "--input", src, "--key-size", str(k), "--seed", "1", "--keygate",
          "mixed", "--dummy", "random-fn", "--output", locked, "--key-out", key], None),
        (["verify", *read, "--key", key], None),
        (["verify", *read, "--key", wrong, "--mode", "sat"], None),
        (["corrupt", *read, "--key", key, "--wrong-keys", "5", "--inputs", "16",
          "--seed", "2"], None),
        (["attack", "--locked", locked, "--oracle", src, "--report",
          f"{tmp}/{name}.attack.json"], None),
        (["attack", "--locked", src, "--oracle", src, "--json-errors"], None),
        (["pipeline", "--input", src, "--key-size", str(k), "--seed", "2", "--preset",
          "sat-hard", "--wrong-keys", "3", "--inputs", "16",
          "--report", f"{tmp}/{name}.pipe.json", "--output", f"{tmp}/{name}.p.bench",
          "--key-out", f"{tmp}/{name}.p.key"], None),
        (["llm-lock", "--input", src, "--key-size", "3", "--seed", "4",
          "--endpoint", "http://localhost:1/unused", "--report", f"{tmp}/{name}.llm.json",
          "--output", f"{tmp}/{name}.llm.bench", "--key-out", f"{tmp}/{name}.llm.key"],
         ["no netlist here", _llm_answer(_CIRCUITS[name], 3, 9)]),
        (["llm-lock", "--input", src, "--key-size", "3", "--retries", "0",
          "--endpoint", "http://localhost:1/unused", "--output",
          f"{tmp}/{name}.fb.bench", "--key-out", f"{tmp}/{name}.fb.key"],
         ["no netlist here"]),
    ]


def _digest(tmp_path, monkeypatch, capsys):
    tmp = str(tmp_path)
    (tmp_path / "small.v").write_text(SMALL_V)
    commands = []
    for name, k in (("c17", 4), ("c432s", 10)):
        (tmp_path / f"{name}.bench").write_text(emit_bench(_CIRCUITS[name]))
        # a wrong key: the correct key of the seed-1 lock, every bit flipped
        correct = lock(_CIRCUITS[name], LockConfig(k, keygate_policy="mixed",
                                                   dummy_policy="random_function",
                                                   seed=1))[1].to_string()
        (tmp_path / f"{name}.wrong.key").write_text(
            correct.translate(str.maketrans("01", "10")) + "\n")
        commands += _commands(tmp, name, k)
    small = parse_verilog_subset(SMALL_V)
    commands += [
        (["llm-lock", "--input", f"{tmp}/small.v", "--key-size", "2", "--seed", "3",
          "--endpoint", "http://localhost:1/unused", "--report", f"{tmp}/small.json",
          "--output", f"{tmp}/small.llm.bench", "--key-out", f"{tmp}/small.llm.key"],
         [emit_bench(small), _llm_answer(small, 2, 5)]),
        (["pipeline", "--input", f"{tmp}/c17.bench", f"{tmp}/small.v", "--key-size",
          "2", "--seed", "6", "--report", f"{tmp}/batch"], None),
    ]

    h = hashlib.sha256()
    seen: dict[str, bytes] = {}
    for argv, answers in commands:
        if answers is not None:
            monkeypatch.setattr(llm, "HttpTransport",
                                lambda _, a=answers: llm.MockTransport(list(a)))
        rc = main(argv)
        out, err = capsys.readouterr()
        for text in (" ".join(argv), str(rc), out, err):
            text = re.sub(r"\(\d+ ms\)", "(N ms)", text.replace(tmp, "<tmp>"))
            h.update(text.encode() + b"\0")
        for path in sorted(tmp_path.rglob("*")):
            if path.is_dir() or seen.get(str(path)) == path.read_bytes():
                continue
            data = seen[str(path)] = path.read_bytes()
            if path.suffix == ".json" and ".transcript" not in path.name:
                data = report_json(strip_volatile(json.loads(data))).encode()
            h.update(str(path.relative_to(tmp_path)).encode() + b"\0" + data + b"\0")
    return h.hexdigest()[:16]


def test_cli_outputs_match_the_golden_digest(tmp_path, monkeypatch, capsys):
    assert _digest(tmp_path, monkeypatch, capsys) == CLI_GOLDEN_DIGEST
