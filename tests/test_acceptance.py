"""Acceptance gate: one test per release criterion, each printing a
pass/fail line. Run with `pytest tests/test_acceptance.py -v -s`.

The built-in corpus stands in for benchmark files that are not shipped:
the hand-written c17 structure for small exhaustive checks, an 8-cone
circuit where every strategy/policy combination is feasible, and a
36-input synthetic circuit at the scale of c432. Set BENCHLOCK_C432 to a
local c432.bench to run the round-trip criterion against the real file
as well.
"""

import itertools
import os
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from benchlock.attack import Oracle, equivalence_check, sat_attack
from benchlock.bench import emit_bench, parse_bench
from benchlock.circuits import c17, c432_scale, parallel_cones, random_netlist
from benchlock.cli import main
from benchlock.cnf import tseitin
from benchlock.errors import ValidationFailed
from benchlock.llm import (
    CONTINUE_PROMPT,
    ChatMessage,
    ChatResponse,
    MockTransport,
    llm_obfuscate,
    run_with_continuation,
    render_convert_prompt,
)
from benchlock.locking import LockConfig, apply_key, insert_xor_keygates, lock
from benchlock.netlist import truth_tables, vector_assignment
from benchlock.report import strip_volatile
from benchlock.solver import solve
from benchlock.verify import functional_verify, structural_check
from structure import brute_force_status, structurally_equal

STRATEGIES = ("random", "cone_size", "scoap", "sll", "fan_heavy")
POLICIES = ("xor_only", "mux_only", "mixed")
DUMMIES = ("constant", "primary_input", "other_cone_net", "random_function")
SEEDS = tuple(range(10))
KEY_SIZES = (2, 4, 8)


@contextmanager
def criterion(n, description):
    t0 = time.time()
    try:
        yield
    except BaseException:
        print(f"[criterion {n}] FAIL - {description}")
        raise
    print(f"[criterion {n}] PASS - {description} ({time.time() - t0:.1f}s)")


def matrix_cells():
    """Every (strategy, policy, dummy, seed, k) the matrix requires."""
    for strat, pol in itertools.product(STRATEGIES, POLICIES):
        dummies = DUMMIES if pol != "xor_only" else ("other_cone_net",)
        for dummy, seed, k in itertools.product(dummies, SEEDS, KEY_SIZES):
            yield strat, pol, dummy, seed, k


def cell_circuit(strat, pol, k):
    """A <=16-PI circuit on which this cell is feasible.

    c17 hosts every xor_only non-sll cell; the rest need the 8 disjoint
    cones (room for path-disjoint picks and for dummies outside any
    target's cone at k=8).
    """
    if pol == "xor_only" and strat != "sll":
        return c17()
    return parallel_cones(8)


@pytest.fixture(scope="module")
def matrix_instances():
    instances = []
    for strat, pol, dummy, seed, k in matrix_cells():
        circuit = cell_circuit(strat, pol, k)
        cfg = LockConfig(
            key_size=k,
            keygate_policy=pol,
            selection=strat,
            dummy_policy=dummy,
            seed=seed,
        )
        locked, key = lock(circuit, cfg)
        instances.append((circuit, cfg, locked, key))
    return instances


def test_criterion_1_correct_key_consistency_matrix(matrix_instances):
    with criterion(1, "correct-key consistency over the full lock matrix"):
        failures = []
        for circuit, cfg, locked, key in matrix_instances:
            verdict = functional_verify(locked, circuit, key, mode="exhaustive")
            if verdict.functional != "equivalent":
                failures.append((cfg, verdict.functional))
        assert not failures, failures
        assert len(matrix_instances) == 1350


def test_criterion_2_sat_attack_soundness(matrix_instances):
    with criterion(2, "SAT attack recovers a correct key on every instance"):
        for circuit, cfg, locked, key in matrix_instances:
            result = sat_attack(locked, Oracle(circuit), timeout_ms=5_000)
            assert result.status == "key_recovered", (cfg, result.status)
            assert result.iterations <= 2 ** cfg.key_size, cfg
            assert result.elapsed_ms <= 5_000, cfg
            # exhaustive re-verification on top of the attack's own check
            applied = apply_key(locked, result.recovered_key)
            want = truth_tables(circuit)
            got = truth_tables(applied, circuit.primary_inputs)
            for po in circuit.primary_outputs:
                assert want[po] == got[po], cfg


def test_criterion_2b_c432_scale_attack():
    with criterion(2, "c432-scale (36 PI, k=32 random XOR) attack inside 10 min"):
        big = c432_scale()
        assert len(big.primary_inputs) == 36
        locked, key = lock(
            big, LockConfig(key_size=32, keygate_policy="xor_only",
                            selection="random", seed=42)
        )
        t0 = time.time()
        result = sat_attack(locked, Oracle(big), timeout_ms=600_000)
        elapsed = time.time() - t0
        assert result.status == "key_recovered"
        assert elapsed <= 600
        # SAT-miter verification of the recovered key
        applied = apply_key(locked, result.recovered_key)
        assert equivalence_check(applied, big).equivalent


def test_criterion_3_encoding_oracle_equivalence():
    with criterion(3, "Tseitin models reproduce simulation; solver matches brute force"):
        checked = 0
        for seed in range(1000):
            n = random_netlist(
                2 + seed % 3, 3 + seed % 4, seed=seed, with_mux=(seed % 5 == 0)
            )
            cnf, varmap = tseitin(n)
            pis = n.primary_inputs
            for j in range(1 << len(pis)):
                x = vector_assignment(pis, j)
                assumptions = [
                    varmap[pi] if bit else -varmap[pi] for pi, bit in x.items()
                ]
                outcome = solve(cnf, assumptions=assumptions)
                assert outcome.status == "sat"
                vals = n.net_values(x)
                for net_name, var in varmap.items():
                    assert outcome.model[var] == vals[net_name], (seed, j, net_name)
            if cnf.var_count <= 20:
                assert brute_force_status(cnf) == solve(cnf).status
                checked += 1
        # random 3-CNF corpus including the 20-var/60-clause point
        import random as _random

        for seed in range(30):
            rng = _random.Random(seed)
            n_vars = 8 + seed % 13
            from benchlock.cnf import CnfFormula

            cnf = CnfFormula(var_count=n_vars)
            for _ in range(3 * n_vars):
                vs = rng.sample(range(1, n_vars + 1), 3)
                cnf.add_clause([v if rng.random() < 0.5 else -v for v in vs])
            assert solve(cnf).status == brute_force_status(cnf)
        from benchlock.cnf import CnfFormula

        rng = _random.Random(2024)
        cnf = CnfFormula(var_count=20)
        for _ in range(60):
            vs = rng.sample(range(1, 21), 3)
            cnf.add_clause([v if rng.random() < 0.5 else -v for v in vs])
        assert solve(cnf).status == brute_force_status(cnf)
        assert checked > 900


def test_criterion_4_structural_interface_rule(matrix_instances):
    with criterion(4, "locked interface = original PIs + k keys, POs preserved"):
        for circuit, cfg, locked, key in matrix_instances:
            assert structural_check(locked, circuit) == [], cfg
            n = locked.netlist
            assert len(n.primary_inputs) == len(circuit.primary_inputs) + cfg.key_size
            assert set(n.primary_outputs) == set(circuit.primary_outputs)


def test_criterion_5_po_driver_corruption_guarantee():
    with criterion(5, "complemented key on a PO-driver XOR lock corrupts every input"):
        c = c17()
        for po_driver in ("G22", "G23"):
            locked = insert_xor_keygates(c, [po_driver], (0,))
            tabs = truth_tables(
                locked.netlist, c.primary_inputs, extra={"keyinput0": 1}
            )
            want = truth_tables(c)
            ones = (1 << (1 << len(c.primary_inputs))) - 1
            assert tabs[po_driver] == want[po_driver] ^ ones  # flipped on all 32


def test_criterion_6_round_trip_fidelity():
    with criterion(6, "parse->emit->parse fidelity and byte determinism"):
        subjects = [c17(), c432_scale()]
        real_c432 = os.environ.get("BENCHLOCK_C432")
        if real_c432:
            subjects.append(parse_bench(Path(real_c432).read_text(), "c432"))
        for seed in range(500):
            subjects.append(random_netlist(3 + seed % 4, 4 + seed % 10,
                                           seed=seed, with_mux=(seed % 7 == 0)))
        for n in subjects:
            text = emit_bench(n)
            again = parse_bench(text, n.name)
            assert structurally_equal(n, again), n.name
            assert emit_bench(again) == text, n.name


def test_criterion_7_llm_pipeline_offline():
    with criterion(7, "mock transports: continuation fixture and fallback identity"):
        # (a) split response triggers exactly the continuation prompt
        full = emit_bench(c17())
        lines = full.splitlines()
        mock = MockTransport([
            ChatResponse("\n".join(lines[:7]), finish_reason="length"),
            ChatResponse("\n".join(lines[6:])),
        ])
        text, transcript, cont = run_with_continuation(
            mock, render_convert_prompt("module m(); endmodule")
        )
        assert cont == 1
        assert mock.calls[1][-1] == ChatMessage("user", CONTINUE_PROMPT)
        assert structurally_equal(parse_bench(text), c17())

        # (b) invalid output exhausts retries; fallback == deterministic engine
        c = c17()
        cfg = LockConfig(key_size=4, keygate_policy="mixed",
                         dummy_policy="random_function", seed=77)
        engine_locked, engine_key = lock(c, cfg)
        got, record = llm_obfuscate(
            MockTransport(["not a bench file"] * 3), c, cfg, validation_retries=2
        )
        assert record.final_source == "fallback"
        assert len(record.validation_outcomes) >= 3
        assert emit_bench(got.netlist) == emit_bench(engine_locked.netlist)
        assert got.correct_key == engine_key
        with pytest.raises(ValidationFailed):
            llm_obfuscate(MockTransport(["junk"] * 3), c, cfg,
                          validation_retries=2, fallback=False)


def test_criterion_8_reproducibility(tmp_path):
    with criterion(8, "identical (input, config, seed) reproduces all artifacts"):
        import json

        # the 8-cone circuit hosts every policy at k=8 comfortably
        src = tmp_path / "cones8.bench"
        src.write_text(emit_bench(parallel_cones(8)))
        outputs = []
        for name in ("a", "b"):
            d = tmp_path / name
            d.mkdir()
            rc = main([
                "pipeline", "--input", str(src), "--key-size", "8",
                "--keygate", "mixed", "--select", "cone", "--dummy", "random-fn",
                "--seed", "1234", "--wrong-keys", "10",
                "--report", str(d / "report.json"),
                "--output", str(d / "locked.bench"),
                "--key-out", str(d / "key.txt"),
            ])
            assert rc == 0
            outputs.append(d)
        a, b = outputs
        assert (a / "locked.bench").read_bytes() == (b / "locked.bench").read_bytes()
        assert (a / "key.txt").read_bytes() == (b / "key.txt").read_bytes()
        ra = strip_volatile(json.loads((a / "report.json").read_text()))
        rb = strip_volatile(json.loads((b / "report.json").read_text()))
        assert ra == rb
