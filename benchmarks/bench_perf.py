"""Microbenchmarks of the performance machinery (docs/performance.md).

Hot paths, each timed against the reference it replaced:

* **simulation** — patterns/sec through the compiled multi-word plan
  vs the per-gate dictionary walk of ``tests/netlist/reference_sim.py``;
* **SAT** — propagations/sec of the flat-arena solver on a pigeonhole
  instance, plus the learned-clause reduction (mark + lazy unhook)
  timed on a synthetic 20k-clause database;
* **validation** — candidates/sec through the persistent incremental
  miter vs the copy-and-re-encode ``validate_rewire`` path, with a
  verdict-parity sanity check on every candidate;
* **final verification** — per-output queries over every output of a
  patched netlist vs the engine's re-proof of only the outputs that
  failed at diagnosis or whose structural key changed;
* **encoding** — per-port proofs on one hash-consed miter vs a miter
  of the plain encoder of ``tests/sat/reference_tseitin.py``, with an
  equal-verdict check on every port;
* **rewiring choices** — the per-choice Theorem 1 check on
  sampling-domain code words vs the symbolic ``Xi(c)`` of
  ``tests/eco/reference_xi.py``, replayed on the engine's own
  point-sets with an equal-result check on every call.

The rendered table and JSON twin land in ``benchmarks/results/`` via
the shared publisher, and a traced engine run (incremental validation
on) is pushed into the run store so the CI perf-smoke job can gate
wall time / SAT / outcome with ``repro runs regress --baseline``.
``--quick`` shrinks every workload to CI-smoke size.
"""

import random
import time

from repro.cec import equivalence
from repro.cec.equivalence import (
    PairwiseChecker,
    check_equivalence,
    nonequivalent_outputs,
)
from repro.netlist.circuit import Pin
from repro.netlist.simulate import batch_mask, compiled_plan, random_patterns
from repro.netlist.traverse import topological_order
from repro.sat.solver import UNSAT, Solver
from repro.eco.config import EcoConfig
from repro.eco.engine import DiagnosedOutputs, rectify
from repro.eco.incremental import IncrementalValidator
from repro.eco.patch import RewireOp
from repro.eco.validate import validate_rewire
from repro.eco import engine
from repro.eco.choices import enumerate_rewiring_choices
from repro.bench.runner import traced_case_run
from tests.eco.reference_xi import reference_choices_joint
from tests.netlist.reference_sim import walk_words
from tests.sat import reference_tseitin

#: mid-size suite case: large enough that per-candidate re-encoding
#: dominates, small enough for a CI smoke job
PERF_CASE = 4
SIM_ROUNDS = 32
CANDIDATES = 20


def _candidate_ops(impl, spec, port, count, seed=11):
    """Deterministic spec-sourced rewires inside the failing cone."""
    rng = random.Random(seed)
    cone = topological_order(impl, roots=[impl.outputs[port]])
    pins = [Pin.gate(g, 0) for g in cone[-8:]] + [Pin.output(port)]
    spec_nets = (topological_order(spec, roots=[spec.outputs[port]])
                 + list(spec.inputs))
    return pins, [
        [RewireOp(pin=rng.choice(pins), source_net=rng.choice(spec_nets),
                  from_spec=True)]
        for _ in range(count)
    ]


def test_perf_simulation(benchmark, suite_cases, publish):
    impl = suite_cases[PERF_CASE].impl
    rng = random.Random(7)
    word_sets = [random_patterns(impl.inputs, rng)
                 for _ in range(SIM_ROUNDS)]
    order = list(topological_order(impl))

    def measure():
        t0 = time.perf_counter()
        reference = [walk_words(impl, words, order)
                     for words in word_sets]
        t1 = time.perf_counter()
        batched = {n: 0 for n in impl.inputs}
        for r, words in enumerate(word_sets):
            for name, word in words.items():
                batched[name] |= word << (64 * r)
        plan = compiled_plan(impl)
        values = plan.run_dict(batched, mask=batch_mask(SIM_ROUNDS))
        t2 = time.perf_counter()
        # sanity: lane 0 of the batch equals the first reference round
        for net, value in reference[0].items():
            assert values[net] & ((1 << 64) - 1) == value
        return t1 - t0, t2 - t1

    walk_s, plan_s = benchmark.pedantic(measure, rounds=1, iterations=1)
    patterns = SIM_ROUNDS * 64
    data = {
        "bench": "perf_simulation",
        "case_id": PERF_CASE,
        "gates": len(impl.gates),
        "patterns": patterns,
        "dict_walk_patterns_per_s": patterns / walk_s,
        "plan_patterns_per_s": patterns / plan_s,
        "speedup": walk_s / plan_s,
    }
    publish("perf_simulation.txt", (
        f"perf: simulation, case {PERF_CASE} "
        f"({len(impl.gates)} gates, {patterns} patterns)\n"
        f"  dict walk     : {data['dict_walk_patterns_per_s']:>12.0f} "
        f"patterns/s\n"
        f"  compiled plan : {data['plan_patterns_per_s']:>12.0f} "
        f"patterns/s\n"
        f"  speedup       : {data['speedup']:.2f}x"), data=data)
    assert data["speedup"] > 1.0


def _pigeonhole_solver(pigeons, holes):
    s = Solver()
    v = [[s.new_var() for _ in range(holes)] for _ in range(pigeons)]
    for p in range(pigeons):
        s.add_clause(v[p])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                s.add_clause([-v[p1][h], -v[p2][h]])
    return s


def test_perf_sat(benchmark, publish, quick):
    """Propagation throughput and learned-clause reduction cost of the
    flat-arena solver."""
    pigeons = 7 if quick else 8
    n_learnts = 5000 if quick else 20000

    def measure():
        s = _pigeonhole_solver(pigeons, pigeons - 1)
        t0 = time.perf_counter()
        verdict = s.solve()
        solve_s = time.perf_counter() - t0
        assert verdict == "unsat"

        # reduction: synthetic learnt DB, activities spread, watchers
        # attached — the mark pass plus amortized compaction
        rng = random.Random(1)
        r = Solver()
        vs = [r.new_var() for _ in range(300)]
        for _ in range(1000):
            r.add_clause([rng.choice(vs) * rng.choice((1, -1))
                          for _ in range(3)])
        for _ in range(n_learnts):
            lits = list({((rng.randrange(300)) << 1) | rng.randrange(2)
                         for _ in range(rng.randrange(3, 8))})
            if len(lits) < 3:
                continue
            offset = r._alloc(lits, learnt=True)
            r._cla_act[offset] = rng.random()
            r._learnts.append(offset)
            r._attach(offset)
        t0 = time.perf_counter()
        r._reduce_db()
        reduce_s = time.perf_counter() - t0
        return solve_s, s.propagations, reduce_s

    solve_s, propagations, reduce_s = benchmark.pedantic(
        measure, rounds=1, iterations=1)
    data = {
        "bench": "perf_sat",
        "pigeons": pigeons,
        "propagations": propagations,
        "props_per_s": propagations / solve_s,
        "learnts": n_learnts,
        "reduce_db_ms": reduce_s * 1000,
    }
    publish("perf_sat.txt", (
        f"perf: SAT, pigeonhole({pigeons},{pigeons - 1}) + "
        f"{n_learnts}-clause reduction\n"
        f"  propagation : {data['props_per_s']:>12.0f} props/s\n"
        f"  reduce_db   : {data['reduce_db_ms']:>12.1f} ms"),
        data=data)
    assert data["props_per_s"] > 0


def test_perf_validation(benchmark, suite_cases, publish):
    case = suite_cases[PERF_CASE]
    impl, spec = case.impl, case.spec
    failing = nonequivalent_outputs(impl, spec)
    port = failing[0]
    pins, candidates = _candidate_ops(impl, spec, port, CANDIDATES)

    def measure():
        t0 = time.perf_counter()
        legacy = [validate_rewire(impl, spec, ops, failing, {})
                  for ops in candidates]
        t1 = time.perf_counter()
        validator = IncrementalValidator(impl, spec, pins)
        incremental = [validator.validate(ops, failing, {})
                       for ops in candidates]
        t2 = time.perf_counter()
        for leg, inc in zip(legacy, incremental):
            assert inc.valid == leg.valid and inc.fixed == leg.fixed
        return t1 - t0, t2 - t1

    legacy_s, incremental_s = benchmark.pedantic(measure, rounds=1,
                                                 iterations=1)
    data = {
        "bench": "perf_validation",
        "case_id": PERF_CASE,
        "candidates": CANDIDATES,
        "legacy_candidates_per_s": CANDIDATES / legacy_s,
        "incremental_candidates_per_s": CANDIDATES / incremental_s,
        "speedup": legacy_s / incremental_s,
    }
    publish("perf_validation.txt", (
        f"perf: validation, case {PERF_CASE} "
        f"({CANDIDATES} candidates on output {port!r})\n"
        f"  legacy (copy + re-encode) : "
        f"{data['legacy_candidates_per_s']:>8.1f} candidates/s\n"
        f"  incremental (assumptions) : "
        f"{data['incremental_candidates_per_s']:>8.1f} candidates/s\n"
        f"  speedup                   : {data['speedup']:.2f}x"),
        data=data)
    assert data["speedup"] > 1.0


def test_perf_verification(benchmark, suite_cases, publish, quick):
    """Full per-output verification vs the restricted re-proof."""
    case = suite_cases[PERF_CASE]
    impl, spec = case.impl, case.spec
    diagnosed = DiagnosedOutputs(impl, nonequivalent_outputs(impl, spec))
    patched = rectify(impl, spec, EcoConfig(seed=3)).patched
    full = [p for p in patched.outputs if p in spec.outputs]
    reprove = diagnosed.to_reprove(patched, full)
    repeats = 3 if quick else 7

    def best_of(outputs):
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            verdict = check_equivalence(patched, spec, outputs=outputs)
            best = min(best, time.perf_counter() - t0)
            assert verdict.equivalent is True
        return best

    full_s, restricted_s = benchmark.pedantic(
        lambda: (best_of(full), best_of(reprove)), rounds=1, iterations=1)
    data = {
        "bench": "perf_verification",
        "case_id": PERF_CASE,
        "outputs": len(full),
        "reproved": len(reprove),
        "full_ms": full_s * 1000,
        "restricted_ms": restricted_s * 1000,
        "speedup": full_s / restricted_s,
    }
    every = f"every output ({len(full)})"
    changed = f"changed + failing ({len(reprove)})"
    publish("perf_verification.txt", (
        f"perf: final verification, case {PERF_CASE} "
        f"(min of {repeats})\n"
        f"  {every:<22} : {data['full_ms']:>8.1f} ms\n"
        f"  {changed:<22} : {data['restricted_ms']:>8.1f} ms\n"
        f"  {'speedup':<22} : {data['speedup']:.2f}x"),
        data=data)
    assert 0 < len(reprove) < len(full)
    assert data["speedup"] > 1.0


class _CountingSolver(Solver):
    """A solver that counts the clauses it is given."""

    def __init__(self):
        super().__init__()
        self.clauses_added = 0

    def add_clause(self, lits):
        self.clauses_added += 1
        return super().add_clause(lits)


def test_perf_encoding(benchmark, suite_cases, publish, monkeypatch,
                       quick):
    """Per-port proofs on the hash-consed miter vs the plain encoder.

    Every shared port of the case is proven on one solver per side, as
    :func:`nonequivalent_outputs` does for the ports its simulation
    pre-pass cannot separate.
    """
    case = suite_cases[PERF_CASE]
    impl, spec = case.impl, case.spec
    ports = [p for p in impl.outputs if p in spec.outputs]
    monkeypatch.setattr(equivalence, "Solver", _CountingSolver)
    repeats = 1 if quick else 5

    def hashed():
        checker = PairwiseChecker(impl, spec)
        return checker.solver, [checker.check_pair(p).equivalent
                                for p in ports]

    def plain():
        solver = _CountingSolver()
        enc = reference_tseitin.CircuitEncoder(solver)
        lmap = enc.encode(impl)
        rmap = enc.encode(spec, input_vars={n: lmap[n]
                                            for n in impl.inputs})
        verdicts = []
        for port in ports:
            diff = enc.xor2(lmap[impl.outputs[port]],
                            rmap[spec.outputs[port]])
            verdicts.append(solver.solve(assumptions=[diff]) == UNSAT)
        return solver, verdicts

    def best_of(run):
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            solver, verdicts = run()
            best = min(best, time.perf_counter() - t0)
        return best, solver, verdicts

    (plain_s, plain_solver, plain_verdicts), \
        (hashed_s, hashed_solver, hashed_verdicts) = benchmark.pedantic(
            lambda: (best_of(plain), best_of(hashed)),
            rounds=1, iterations=1)
    assert hashed_verdicts == plain_verdicts
    data = {"bench": "perf_encoding", "case_id": PERF_CASE,
            "ports": len(ports), "speedup": plain_s / hashed_s}
    for side, solver, secs in (("plain", plain_solver, plain_s),
                               ("hashed", hashed_solver, hashed_s)):
        data[side] = {"vars": solver.num_vars,
                      "clauses": solver.clauses_added,
                      "conflicts": solver.conflicts, "ms": secs * 1000}
    rows = "\n".join(
        f"  {label:<20} : {data[side]['vars']:>6} vars "
        f"{data[side]['clauses']:>6} clauses "
        f"{data[side]['conflicts']:>6} conflicts "
        f"{data[side]['ms']:>8.1f} ms"
        for label, side in (("plain encoder", "plain"),
                            ("hash-consed encoder", "hashed")))
    publish("perf_encoding.txt", (
        f"perf: miter encoding, case {PERF_CASE} "
        f"({len(ports)} per-port proofs, min of {repeats})\n{rows}\n"
        f"  {'speedup':<20} : {data['speedup']:.2f}x"),
        data=data)
    assert data["hashed"]["vars"] <= data["plain"]["vars"]


def test_perf_choices(benchmark, suite_cases, publish, monkeypatch,
                      quick):
    """Word-based choice enumeration vs the symbolic ``Xi(c)``.

    The engine's calls are recorded during one run and replayed on
    both paths.  The replay reuses each call's sampling domain, so the
    candidate words are already memoized, as they are in the engine
    once ``RewiringContext.utility`` has ranked the candidates.
    """
    case = suite_cases[PERF_CASE]
    calls = []

    def record(impl, port, domain, pins, cands, spec_value, limit=16,
               cost_fn=None, trace=None):
        calls.append((impl.copy(), port, domain, tuple(pins),
                      [list(c) for c in cands], spec_value, limit,
                      cost_fn))
        return enumerate_rewiring_choices(
            impl, port, domain, pins, cands, spec_value, limit=limit,
            cost_fn=cost_fn, trace=trace)

    with monkeypatch.context() as patched:
        patched.setattr(engine, "enumerate_rewiring_choices", record)
        rectify(case.impl, case.spec, EcoConfig(seed=3))
    repeats = 1 if quick else 3

    def best_of(run):
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            result = [run(*call) for call in calls]
            best = min(best, time.perf_counter() - t0)
        return best, result

    def words(impl, port, domain, pins, cands, spec_value, limit, cost):
        return enumerate_rewiring_choices(
            impl, port, domain, pins, cands, spec_value, limit=limit,
            cost_fn=cost)

    def symbolic(impl, port, domain, pins, cands, spec_value, limit,
                 cost):
        return reference_choices_joint(
            impl, {port: spec_value}, domain, pins, cands, limit=limit,
            cost_fn=cost)

    (word_s, word_out), (xi_s, xi_out) = benchmark.pedantic(
        lambda: (best_of(words), best_of(symbolic)),
        rounds=1, iterations=1)
    assert word_out == xi_out
    data = {
        "bench": "perf_choices",
        "case_id": PERF_CASE,
        "point_sets": len(calls),
        "choices": sum(len(c) for c in word_out),
        "symbolic_ms": xi_s * 1000,
        "words_ms": word_s * 1000,
        "speedup": xi_s / word_s,
    }
    publish("perf_choices.txt", (
        f"perf: rewiring choices, case {PERF_CASE} "
        f"({len(calls)} point-sets, {data['choices']} choices, "
        f"min of {repeats})\n"
        f"  symbolic Xi(c)       : {data['symbolic_ms']:>8.1f} ms\n"
        f"  Theorem 1 on words   : {data['words_ms']:>8.1f} ms\n"
        f"  speedup              : {data['speedup']:.2f}x"),
        data=data)
    assert calls
    assert data["speedup"] > 1.0


def test_perf_engine_run(benchmark, suite_cases, publish):
    """One traced end-to-end run, published for the regress gate."""
    case = suite_cases[PERF_CASE]
    result, record = benchmark.pedantic(
        lambda: traced_case_run(case, EcoConfig(seed=3), kind="perf"),
        rounds=1, iterations=1)
    counters = result.counters.as_dict()
    data = {
        "bench": "perf_engine_run",
        "case_id": PERF_CASE,
        "wall_seconds": benchmark.stats.stats.mean,
        "incremental_solves": counters["incremental_solves"],
        "plan_evals": counters["plan_evals"],
        "per_output": dict(result.per_output),
    }
    publish("perf_engine_run.txt", (
        f"perf: engine run, case {PERF_CASE} "
        f"({benchmark.stats.stats.mean:.2f}s)\n"
        f"  incremental_solves : {data['incremental_solves']}\n"
        f"  plan_evals         : {data['plan_evals']}"),
        data=data, run_records=[record])
    assert data["incremental_solves"] > 0
    assert data["plan_evals"] > 0
