import datetime
import itertools
import json
import re
import shlex
import subprocess
import sys
import types
from pathlib import Path

import jsonschema
import pytest

import benchlock
from benchlock.bench import emit_bench, parse_bench
from benchlock.circuits import c17
from benchlock import cli
from benchlock.cli import _COMMANDS, build_parser, main
from benchlock.report import load_report_schema, strip_volatile

VERILOG = """module small(a, b, y);
input a, b;
output y;
nand g1(y, a, b);
endmodule
"""


@pytest.fixture
def c17_file(tmp_path):
    p = tmp_path / "c17.bench"
    p.write_text(emit_bench(c17()))
    return p


def test_convert(tmp_path):
    src = tmp_path / "small.v"
    src.write_text(VERILOG)
    out = tmp_path / "small.bench"
    assert main(["convert", "--input", str(src), "--output", str(out)]) == 0
    n = parse_bench(out.read_text())
    assert n.stats().n_gates == 1


def test_convert_rejects_behavioral(tmp_path, capsys):
    src = tmp_path / "bad.v"
    src.write_text("module m(q, clk);\ninput clk;\noutput q;\nalways @(posedge clk) q <= 1;\nendmodule\n")
    rc = main(["convert", "--input", str(src), "--output", str(tmp_path / "x.bench")])
    assert rc == 2


def test_lock_then_verify_exit_zero(tmp_path, c17_file):
    locked = tmp_path / "locked.bench"
    keyfile = tmp_path / "c17.key"
    assert main(["lock", "--input", str(c17_file), "--key-size", "4",
                 "--seed", "42", "--output", str(locked),
                 "--key-out", str(keyfile)]) == 0
    assert main(["verify", "--locked", str(locked), "--original", str(c17_file),
                 "--key", str(keyfile)]) == 0


def test_verify_mismatch_exit_one(tmp_path, c17_file):
    locked = tmp_path / "locked.bench"
    keyfile = tmp_path / "c17.key"
    main(["lock", "--input", str(c17_file), "--key-size", "4", "--seed", "42",
          "--output", str(locked), "--key-out", str(keyfile)])
    bits = keyfile.read_text().strip().splitlines()[-1]
    flipped = "".join("1" if b == "0" else "0" for b in bits)
    wrong = tmp_path / "wrong.key"
    wrong.write_text(flipped + "\n")
    rc = main(["verify", "--locked", str(locked), "--original", str(c17_file),
               "--key", str(wrong)])
    assert rc == 1


def test_attack_on_unlocked_is_usage_error(c17_file, capsys):
    rc = main(["attack", "--locked", str(c17_file), "--oracle", str(c17_file),
               "--json-errors"])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "AttackError"
    assert "no key inputs" in err["error"]["message"]


def test_attack_negative_iteration_cap_is_usage_error(tmp_path, c17_file, capsys):
    locked = tmp_path / "locked.bench"
    main(["lock", "--input", str(c17_file), "--key-size", "4", "--seed", "42",
          "--output", str(locked), "--key-out", str(tmp_path / "c17.key")])
    capsys.readouterr()
    rc = main(["attack", "--locked", str(locked), "--oracle", str(c17_file),
               "--iteration-cap", "-3", "--json-errors"])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ValueError"
    assert "iteration_cap" in err["error"]["message"]


def test_attack_writes_schema_valid_report(tmp_path, c17_file):
    locked = tmp_path / "locked.bench"
    keyfile = tmp_path / "c17.key"
    main(["lock", "--input", str(c17_file), "--key-size", "4", "--seed", "42",
          "--output", str(locked), "--key-out", str(keyfile)])
    report = tmp_path / "attack.json"
    rc = main(["attack", "--locked", str(locked), "--oracle", str(c17_file),
               "--report", str(report)])
    assert rc == 0
    doc = json.loads(report.read_text())
    jsonschema.validate(doc, load_report_schema())
    assert doc["attack"]["status"] == "key_recovered"


def test_corrupt_prints_stats(tmp_path, c17_file, capsys):
    locked = tmp_path / "locked.bench"
    keyfile = tmp_path / "c17.key"
    main(["lock", "--input", str(c17_file), "--key-size", "4", "--seed", "42",
          "--output", str(locked), "--key-out", str(keyfile)])
    capsys.readouterr()  # drop the lock command's summary line
    rc = main(["corrupt", "--locked", str(locked), "--original", str(c17_file),
               "--key", str(keyfile), "--wrong-keys", "5", "--inputs", "8",
               "--seed", "3"])
    assert rc == 0
    stats = json.loads(capsys.readouterr().out)
    assert 0.0 <= stats["corruption_rate"] <= 1.0


def test_corrupt_key_width_mismatch_exits_two_with_a_lock_error(
        tmp_path, c17_file, capsys):
    locked = tmp_path / "locked.bench"
    keyfile = tmp_path / "c17.key"
    main(["lock", "--input", str(c17_file), "--key-size", "4", "--seed", "42",
          "--output", str(locked), "--key-out", str(keyfile)])
    keyfile.write_text("101\n")
    capsys.readouterr()
    rc = main(["corrupt", "--locked", str(locked), "--original", str(c17_file),
               "--key", str(keyfile), "--json-errors"])
    assert rc == 2
    assert json.loads(capsys.readouterr().err) == {"error": {
        "type": "LockError", "message": "key width 3 does not match 4 key inputs"}}


def test_pipeline_report_and_determinism(tmp_path, c17_file):
    reports = []
    for name in ("one", "two"):
        d = tmp_path / name
        d.mkdir()
        rc = main(["pipeline", "--input", str(c17_file), "--key-size", "4",
                   "--seed", "7", "--keygate", "mixed", "--dummy", "random-fn",
                   "--wrong-keys", "5",
                   "--report", str(d / "report.json"),
                   "--output", str(d / "locked.bench"),
                   "--key-out", str(d / "c17.key")])
        assert rc == 0
        reports.append(d)
    a, b = reports
    assert (a / "locked.bench").read_bytes() == (b / "locked.bench").read_bytes()
    assert (a / "c17.key").read_bytes() == (b / "c17.key").read_bytes()
    ra = json.loads((a / "report.json").read_text())
    rb = json.loads((b / "report.json").read_text())
    jsonschema.validate(ra, load_report_schema())
    assert strip_volatile(ra) == strip_volatile(rb)
    assert ra["timestamps"]["started"] is not None


def test_pipeline_run_dir(tmp_path, c17_file, monkeypatch):
    # three runs in the same second with the same seed: the first keeps the
    # plain name and its files, the later ones get numbered directories
    class Frozen(datetime.datetime):
        @classmethod
        def now(cls, tz=None):
            return cls(2026, 1, 2, 3, 4, 5)

    monkeypatch.setattr(cli, "datetime", types.SimpleNamespace(datetime=Frozen))
    runs = tmp_path / "runs"
    argv = ["pipeline", "--input", str(c17_file), "--key-size", "2", "--seed", "3",
            "--run-dir", str(runs)]
    assert main(argv) == 0
    first = runs / "20260102-030405_s3"
    written = {p.name: p.stat().st_mtime_ns for p in first.iterdir()}
    assert main(argv) == 0 and main(argv) == 0
    assert sorted(p.name for p in runs.iterdir()) == [
        first.name, f"{first.name}_2", f"{first.name}_3"]
    assert {p.name: p.stat().st_mtime_ns for p in first.iterdir()} == written
    for d in runs.iterdir():
        assert {p.name for p in d.iterdir()} == {
            "c17.report.json", "c17.locked.bench", "c17.key"}


@pytest.mark.parametrize("command", ["attack", "llm-lock", "pipeline"])
def test_report_is_started_before_the_work(tmp_path, c17_file, monkeypatch, command):
    import benchlock.llm as llm
    from benchlock.locking import LockConfig, lock

    # one counter stamps the report and the start of the command's work
    ticks = itertools.count()
    monkeypatch.setattr("benchlock.report._now", lambda: f"{next(ticks):04d}")
    work = []
    locked_file = tmp_path / "locked.bench"
    locked, key = lock(c17(), LockConfig(3, seed=42))
    locked_file.write_text(emit_bench(locked.netlist))
    if command == "llm-lock":
        class Stamped(llm.MockTransport):
            def send(self, *args):
                work.append(f"{next(ticks):04d}")
                return super().send(*args)

        answer = f"# key={key.to_string()}\n" + emit_bench(locked.netlist)
        monkeypatch.setattr(llm, "HttpTransport", lambda _: Stamped([answer]))
    else:
        sat_attack = cli.sat_attack

        def stamped(*args, **kwargs):
            work.append(f"{next(ticks):04d}")
            return sat_attack(*args, **kwargs)

        monkeypatch.setattr(cli, "sat_attack", stamped)
    path = tmp_path / "report.json"
    argv = {
        "attack": ["attack", "--locked", str(locked_file), "--oracle", str(c17_file)],
        "llm-lock": ["llm-lock", "--input", str(c17_file), "--key-size", "3",
                     "--endpoint", "http://localhost:1/unused"],
        "pipeline": ["pipeline", "--input", str(c17_file), "--key-size", "3"],
    }[command]
    assert main([*argv, "--report", str(path)]) == 0
    stamps = json.loads(path.read_text())["timestamps"]
    assert len(work) == 1
    assert stamps["started"] < work[0] < stamps["finished"]


def test_pipeline_batch_jobs(tmp_path):
    from benchlock.circuits import full_adder, parallel_cones

    a = tmp_path / "adder.bench"
    a.write_text(emit_bench(full_adder()))
    b = tmp_path / "cones.bench"
    b.write_text(emit_bench(parallel_cones(4)))
    outdir = tmp_path / "batch"
    rc = main(["pipeline", "--input", str(a), str(b), "--key-size", "2",
               "--seed", "5", "--jobs", "2", "--report", str(outdir)])
    assert rc == 0
    names = {p.name for p in outdir.iterdir()}
    assert "adder.report.json" in names and "cones.report.json" in names


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_pipeline_inputs_sharing_a_stem_keep_their_own_files(tmp_path, jobs):
    # c17 and the full adder, both named c.bench: the second gets c_2.*
    from benchlock.circuits import full_adder

    inputs = []
    for sub, netlist in (("a", c17()), ("b", full_adder())):
        (tmp_path / sub).mkdir()
        inputs.append(tmp_path / sub / "c.bench")
        inputs[-1].write_text(emit_bench(netlist))
    outdir = tmp_path / "out"
    assert main(["pipeline", "--input", *map(str, inputs), "--key-size", "2",
                 "--jobs", jobs, "--report", str(outdir)]) == 0
    assert sorted(p.name for p in outdir.iterdir()) == sorted(
        f"{stem}{ext}" for stem in ("c", "c_2")
        for ext in (".report.json", ".locked.bench", ".key"))
    for stem, n_inputs in (("c", 7), ("c_2", 5)):
        locked = parse_bench((outdir / f"{stem}.locked.bench").read_text())
        assert len(locked.primary_inputs) == n_inputs


def test_calls_in_one_process_match_fresh_processes(tmp_path, monkeypatch, capsys):
    # the parser is built once per process: a flag given to one call must
    # not leak into the next, so each call's output matches a fresh process
    calls = [
        ["lock", "--input", "c17.bench", "--key-size", "4", "--seed", "3",
         "--keygate", "mixed", "--dummy", "random-fn",
         "--output", "a.bench", "--key-out", "a.key"],
        ["lock", "--input", "c17.bench", "--key-size", "4",
         "--output", "b.bench", "--key-out", "b.key"],
        ["corrupt", "--locked", "b.bench", "--original", "c17.bench",
         "--key", "b.key", "--wrong-keys", "3", "--inputs", "8"],
    ]
    here, fresh = tmp_path / "here", tmp_path / "fresh"
    for d in (here, fresh):
        d.mkdir()
        (d / "c17.bench").write_text(emit_bench(c17()))
    monkeypatch.chdir(here)
    in_process = []
    for argv in calls:
        assert main(argv) == 0
        in_process.append(capsys.readouterr().out)
    src = str(Path(benchlock.__file__).resolve().parent.parent)
    fresh_processes = [
        subprocess.run(
            [sys.executable, "-m", "benchlock.cli", *argv], cwd=fresh,
            capture_output=True, text=True, check=True, timeout=60,
            env={"PYTHONPATH": src},
        ).stdout
        for argv in calls
    ]
    assert in_process == fresh_processes
    for name in ("a.bench", "a.key", "b.bench", "b.key"):
        assert (here / name).read_bytes() == (fresh / name).read_bytes()
    assert b"seed=3" in (here / "a.key").read_bytes()
    assert b"seed=0" in (here / "b.key").read_bytes()


def test_missing_file_is_usage_error(tmp_path):
    rc = main(["lock", "--input", str(tmp_path / "nope.bench"), "--key-size", "2",
               "--output", str(tmp_path / "o.bench"),
               "--key-out", str(tmp_path / "o.key")])
    assert rc == 2


@pytest.mark.parametrize("case", ["not-a-directory", "permission"])
def test_any_os_error_is_usage_error(tmp_path, c17_file, capsys, monkeypatch, case):
    out = tmp_path / "o.bench"
    if case == "not-a-directory":
        out = c17_file / "o.bench"
        want = "NotADirectoryError"
    else:
        # root ignores file modes, so the refusal is simulated
        def refuse(self, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(Path, "write_text", refuse)
        want = "PermissionError"
    rc = main(["lock", "--input", str(c17_file), "--key-size", "2",
               "--output", str(out), "--key-out", str(tmp_path / "o.key"),
               "--json-errors"])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == want and str(out) in err["message"]


def test_bad_flag_exits_two(c17_file):
    with pytest.raises(SystemExit) as exc:
        main(["lock", "--input", str(c17_file), "--key-size", "4",
              "--select", "bogus", "--output", "x", "--key-out", "y"])
    assert exc.value.code == 2


def test_attack_with_inconsistent_oracle_is_input_error(tmp_path, c17_file, capsys):
    locked = tmp_path / "locked.bench"
    main(["lock", "--input", str(c17_file), "--key-size", "4", "--seed", "42",
          "--output", str(locked), "--key-out", str(tmp_path / "c17.key")])
    assert "G22 = NAND" in locked.read_text()  # no key gate sits on G22
    wrong = tmp_path / "wrong.bench"
    wrong.write_text(c17_file.read_text().replace("G22 = NAND", "G22 = AND"))
    assert "G22 = AND" in wrong.read_text()
    capsys.readouterr()
    rc = main(["attack", "--locked", str(locked), "--oracle", str(wrong),
               "--json-errors"])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "AttackError"
    assert "inconsistent" in err["error"]["message"]


# oracle .bench of each case against a c17 lock -> the InterfaceError
_ORACLE_ERRORS = {
    "full_adder": "primary inputs differ (missing: a, b, cin; "
                  "extra: G1, G2, G3, G6, G7)",
    "extra_output": "primary outputs differ (missing: G10)",
    "renamed_output": "primary outputs differ (missing: Z; extra: G23)",
}


def _oracle_text(case: str) -> str:
    from benchlock.circuits import full_adder

    text = emit_bench(c17())
    if case == "full_adder":
        return emit_bench(full_adder())
    if case == "extra_output":  # the internal net G10 listed as an output
        return text.replace("OUTPUT(G23)", "OUTPUT(G23)\nOUTPUT(G10)")
    return text.replace("G23", "Z")


@pytest.mark.parametrize("command", ["attack", "corrupt"])
@pytest.mark.parametrize("case", list(_ORACLE_ERRORS))
def test_an_oracle_with_other_ports_is_refused_before_any_query(
        tmp_path, c17_file, capsys, monkeypatch, command, case):
    from benchlock.attack import Oracle

    locked, keyfile = tmp_path / "locked.bench", tmp_path / "c17.key"
    main(["lock", "--input", str(c17_file), "--key-size", "3", "--seed", "1",
          "--output", str(locked), "--key-out", str(keyfile)])
    oracle = tmp_path / "oracle.bench"
    oracle.write_text(_oracle_text(case))
    queries = []
    monkeypatch.setattr(Oracle, "__call__", lambda self, *a: queries.append(a))
    monkeypatch.setattr(Oracle, "batch", lambda self, *a: queries.append(a))
    capsys.readouterr()
    argv = {
        "attack": ["attack", "--locked", str(locked), "--oracle", str(oracle)],
        "corrupt": ["corrupt", "--locked", str(locked), "--original", str(oracle),
                    "--key", str(keyfile)],
    }[command]
    assert main([*argv, "--json-errors"]) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": {"type": "InterfaceError", "message": _ORACLE_ERRORS[case]}}
    assert queries == []


@pytest.mark.parametrize("flag", ["--output", "--key-out"])
@pytest.mark.parametrize("batch", ["two_inputs", "run_dir"])
def test_batch_pipeline_refuses_single_input_paths(tmp_path, c17_file, capsys,
                                                   flag, batch):
    before = sorted(tmp_path.rglob("*"))
    argv = ["pipeline", "--input", str(c17_file), "--key-size", "2",
            flag, str(tmp_path / "want"), "--json-errors"]
    if batch == "two_inputs":
        argv[3:3] = [str(c17_file)]
        argv += ["--report", str(tmp_path / "out")]
    else:
        argv += ["--run-dir", str(tmp_path / "runs")]
    assert main(argv) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "ValueError" and flag in err["message"]
    assert sorted(tmp_path.rglob("*")) == before


def test_run_dir_pipeline_refuses_report(tmp_path, c17_file, capsys):
    # the report goes into the run directory, so a --report path would be
    # silently ignored
    before = sorted(tmp_path.rglob("*"))
    argv = ["pipeline", "--input", str(c17_file), "--key-size", "2",
            "--run-dir", str(tmp_path / "runs"), "--report", str(tmp_path / "want.json"),
            "--json-errors"]
    assert main(argv) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "ValueError" and "--report" in err["message"]
    assert sorted(tmp_path.rglob("*")) == before


def test_key_prefix_flows_through_every_command(tmp_path, c17_file, capsys):
    locked = tmp_path / "locked.bench"
    keyfile = tmp_path / "c17.key"
    report = tmp_path / "report.json"
    rc = main(["pipeline", "--input", str(c17_file), "--key-size", "3",
               "--seed", "42", "--key-prefix", "kx", "--report", str(report),
               "--output", str(locked), "--key-out", str(keyfile)])
    assert rc == 0
    assert "verify=equivalent" in capsys.readouterr().out
    assert json.loads(report.read_text())["structural"] == {
        "ok": True, "diagnostics": []}
    assert "INPUT(kx0)" in locked.read_text()

    read = ["--locked", str(locked), "--key-prefix", "kx"]
    assert main(["attack", "--oracle", str(c17_file), *read]) == 0
    assert "attack: key_recovered" in capsys.readouterr().out
    assert main(["verify", "--original", str(c17_file), "--key", str(keyfile),
                 *read]) == 0
    out = capsys.readouterr().out
    assert "structural: ok" in out
    assert "functional: equivalent" in out
    assert main(["corrupt", "--original", str(c17_file), "--key", str(keyfile),
                 "--wrong-keys", "5", "--inputs", "8", *read]) == 0
    assert json.loads(capsys.readouterr().out)["wrong_keys"] == 5


@pytest.mark.parametrize("command", ["lock", "pipeline", "llm-lock"])
def test_key_file_names_the_first_key_input(tmp_path, c17_file, monkeypatch, command):
    import benchlock.llm as llm
    from benchlock.locking import LockConfig, lock

    # llm-lock gets a scripted model that answers with a correct kx lock
    locked, key = lock(c17(), LockConfig(3, seed=42, key_prefix="kx"))
    answer = f"# key={key.to_string()}\n" + emit_bench(locked.netlist)
    monkeypatch.setattr(llm, "HttpTransport", lambda _: llm.MockTransport([answer]))
    keyfile = tmp_path / "c17.key"
    argv = [command, "--input", str(c17_file), "--key-size", "3", "--seed", "42",
            "--output", str(tmp_path / "locked.bench"), "--key-out", str(keyfile)]
    if command == "llm-lock":
        argv += ["--endpoint", "http://localhost:1/unused"]
    assert main([*argv, "--key-prefix", "kx"]) == 0
    assert keyfile.read_text().splitlines()[1] == "# 3 key bits, index 0 = kx0"
    if command != "llm-lock":
        assert main(argv) == 0
        assert keyfile.read_text() == "# c17 seed=42\n# 3 key bits, index 0 = keyinput0\n" \
            f"{key.to_string()}\n"


def _readme_commands() -> list[list[str]]:
    """Every ``benchlock ...`` command in README's sh blocks, continuation
    lines joined and environment assignments dropped."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", readme, flags=re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            while words and re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*=.*", words[0]):
                words.pop(0)
            if words and words[0] == "benchlock":
                commands.append(words[1:])
    return commands


def test_readme_commands_parse():
    commands = _readme_commands()
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: benchlock {shlex.join(argv)}")
    assert {argv[0] for argv in commands} == set(_COMMANDS)
