"""Tests for the Tseitin circuit encoding."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.cec.equivalence import PairwiseChecker
from repro.netlist.circuit import Circuit
from repro.netlist.gate import GateType, eval_gate_bool
from repro.netlist.simulate import evaluate_outputs, simulate
from repro.sat.solver import SAT, UNSAT, Solver
from repro.sat.tseitin import CircuitEncoder, encode_circuit
from tests.conftest import make_random_circuit
from tests.sat import reference_tseitin


def assert_encoding_matches_simulation(circuit: Circuit):
    """Exhaustively check the CNF encodes exactly the circuit function."""
    s = Solver()
    varmap = encode_circuit(s, circuit)
    n = len(circuit.inputs)
    for bits in itertools.product([False, True], repeat=n):
        assignment = dict(zip(circuit.inputs, bits))
        expected = evaluate_outputs(circuit, assignment)
        assumptions = [
            varmap[name] if value else -varmap[name]
            for name, value in assignment.items()
        ]
        assert s.solve(assumptions=assumptions) == SAT
        for port, net in circuit.outputs.items():
            got = s.model_value(varmap[net])
            assert got == expected[port], (assignment, port)


@pytest.mark.parametrize("gtype,arity", [
    (GateType.AND, 2), (GateType.AND, 3), (GateType.OR, 2),
    (GateType.OR, 4), (GateType.NAND, 2), (GateType.NAND, 3),
    (GateType.NOR, 2), (GateType.XOR, 2), (GateType.XOR, 3),
    (GateType.XNOR, 2), (GateType.NOT, 1), (GateType.BUF, 1),
    (GateType.MUX, 3), (GateType.CONST0, 0), (GateType.CONST1, 0),
])
def test_single_gate_encoding(gtype, arity):
    c = Circuit()
    ins = c.add_inputs([f"x{i}" for i in range(max(arity, 1))])
    c.add_gate("g", gtype, ins[:arity])
    c.set_output("o", "g")
    assert_encoding_matches_simulation(c)


def test_random_circuits_encode_correctly():
    for seed in range(6):
        c = make_random_circuit(seed, n_inputs=4, n_gates=12)
        assert_encoding_matches_simulation(c)


class TestEncoder:
    def test_shared_input_vars(self, tiny_adder):
        s = Solver()
        enc = CircuitEncoder(s)
        m1 = enc.encode(tiny_adder)
        m2 = enc.encode(tiny_adder.copy(),
                        input_vars={n: m1[n] for n in tiny_adder.inputs})
        # identical circuits over shared inputs: outputs must agree
        for net in tiny_adder.outputs.values():
            neq = enc.xor2(m1[net], m2[net])
            assert s.solve(assumptions=[neq]) == UNSAT

    def test_const_var_shared(self):
        s = Solver()
        enc = CircuitEncoder(s)
        assert enc.const_var(True) == enc.const_var(True)
        assert enc.const_var(False) != enc.const_var(True)
        assert s.solve() == SAT
        assert s.model_value(enc.const_var(True)) is True
        assert s.model_value(enc.const_var(False)) is False

    def test_equality_gadget(self):
        s = Solver()
        enc = CircuitEncoder(s)
        a, b = s.new_var(), s.new_var()
        eq = enc.equality(a, b)
        assert s.solve(assumptions=[eq, a, -b]) == UNSAT
        assert s.solve(assumptions=[eq, a, b]) == SAT
        assert s.solve(assumptions=[-eq, a, b]) == UNSAT

    def test_buf_reuses_variable(self):
        c = Circuit()
        c.add_input("a")
        c.buf("a", name="b")
        c.set_output("o", "b")
        s = Solver()
        varmap = encode_circuit(s, c)
        assert varmap["b"] == varmap["a"]


class TestHashConsing:
    """Structurally identical logic gets one literal per encoder."""

    @staticmethod
    def _encode(build):
        c = Circuit()
        c.add_inputs(["a", "b", "c"])
        build(c)
        s = Solver()
        return s, encode_circuit(s, c)

    def test_symmetric_fanin_reorder(self):
        def build(c):
            c.add_gate("and1", GateType.AND, ["a", "b", "c"])
            c.add_gate("and2", GateType.AND, ["c", "a", "b", "a"])
            c.add_gate("nor1", GateType.NOR, ["a", "b"])
            c.add_gate("nor2", GateType.NOR, ["b", "a"])
            c.add_gate("xnor1", GateType.XNOR, ["a", "b", "c"])
            c.add_gate("xnor2", GateType.XNOR, ["c", "b", "a"])
        _s, lits = self._encode(build)
        assert lits["and1"] == lits["and2"]
        assert lits["nor1"] == lits["nor2"]
        assert lits["xnor1"] == lits["xnor2"]

    def test_nand_is_negated_and(self):
        def build(c):
            c.add_gate("nand", GateType.NAND, ["a", "b"])
            c.add_gate("and", GateType.AND, ["b", "a"])
            c.add_gate("not_and", GateType.NOT, ["and"])
        _s, lits = self._encode(build)
        assert lits["nand"] == lits["not_and"] == -lits["and"]

    def test_or_matches_de_morgan_form(self):
        def build(c):
            c.add_gate("or", GateType.OR, ["a", "b"])
            c.add_gate("na", GateType.NOT, ["a"])
            c.add_gate("nb", GateType.NOT, ["b"])
            c.add_gate("nand", GateType.NAND, ["na", "nb"])
            c.add_gate("and", GateType.AND, ["na", "nb"])
            c.add_gate("dm", GateType.NOT, ["and"])
        _s, lits = self._encode(build)
        assert lits["or"] == lits["nand"] == lits["dm"]

    def test_xor_parity_moves_to_the_result(self):
        def build(c):
            c.add_gate("x", GateType.XOR, ["a", "b"])
            c.add_gate("na", GateType.NOT, ["a"])
            c.add_gate("xn", GateType.XOR, ["na", "b"])
            c.add_gate("xnor", GateType.XNOR, ["b", "a"])
        _s, lits = self._encode(build)
        assert lits["xn"] == lits["xnor"] == -lits["x"]

    def test_inverters_and_buffers_allocate_nothing(self):
        def build(c):
            c.add_gate("na", GateType.NOT, ["a"])
            c.add_gate("nna", GateType.NOT, ["na"])
            c.add_gate("buf", GateType.BUF, ["nna"])
        s, lits = self._encode(build)
        assert s.num_vars == 3
        assert lits["buf"] == lits["a"] > 0

    def test_degenerate_gates_fold(self):
        def build(c):
            c.add_gate("na", GateType.NOT, ["a"])
            c.add_gate("aa", GateType.AND, ["a", "a"])
            c.add_gate("zero", GateType.AND, ["a", "b", "na"])
            c.add_gate("one", GateType.XNOR, ["a", "a"])
        s, lits = self._encode(build)
        assert lits["aa"] == lits["a"]
        assert s.solve() == SAT
        assert s.model_value(lits["zero"]) is False
        assert s.model_value(lits["one"]) is True

    def test_nodes_differing_in_one_operand_stay_apart(self):
        c = Circuit()
        ins = c.add_inputs(["a", "b", "c", "d"])
        for gtype in (GateType.AND, GateType.NAND, GateType.OR,
                      GateType.NOR, GateType.XOR, GateType.XNOR,
                      GateType.MUX):
            base = ins[:3]
            for slot in range(3):
                fanins = list(base)
                fanins[slot] = "d"
                for k, operands in enumerate((base, fanins)):
                    net = c.add(gtype, operands)
                    c.set_output(f"{gtype.name}_{slot}_{k}", net)
        assert_encoding_matches_simulation(c)

    def test_hash_equal_port_needs_no_solve(self, monkeypatch):
        left = Circuit("l")
        left.add_inputs(["a", "b", "c"])
        left.set_output("o", left.add(GateType.OR, [
            left.add(GateType.NAND, ["a", "b"]), "c"]))
        right = Circuit("r")
        right.add_inputs(["a", "b", "c"])
        inner = right.add(GateType.NOT, [right.add(GateType.AND, ["b", "a"])])
        right.set_output("o", right.add(GateType.NOT, [right.add(
            GateType.AND, [right.add(GateType.NOT, ["c"]),
                           right.add(GateType.NOT, [inner])])]))
        checker = PairwiseChecker(left, right)
        before = checker.solver.conflicts

        def no_solve(*_args, **_kwargs):
            raise AssertionError("solve called on a hash-equal port")

        monkeypatch.setattr(checker.solver, "solve", no_solve)
        assert checker.check_pair("o").equivalent is True
        assert checker.solver.conflicts == before


_ARITY = {GateType.NOT: 1, GateType.BUF: 1, GateType.MUX: 3,
          GateType.CONST0: 0, GateType.CONST1: 0}
_GATE_TYPES = sorted(GateType, key=lambda g: g.name)


@st.composite
def circuit_pairs(draw):
    """Two circuits over the same <= 8 inputs sharing sub-cones.

    The shared gates enter both circuits under the same names, the
    right side with the fanins of symmetric gates permuted; each side
    then grows its own gates over everything it has.  Some of those
    copy a shared gate with one fanin replaced, so that nodes whose
    keys differ in one operand meet in one encoder.
    """
    inputs = [f"x{i}" for i in range(draw(st.integers(1, 8)))]
    left, right = Circuit("left"), Circuit("right")
    left.add_inputs(inputs)
    right.add_inputs(inputs)

    def gate(nets):
        gtype = draw(st.sampled_from(_GATE_TYPES))
        arity = _ARITY.get(gtype)
        if arity is None:
            arity = draw(st.integers(2, 4))
        return gtype, [draw(st.sampled_from(nets)) for _ in range(arity)]

    shared = list(inputs)
    shared_gates = []
    for k in range(draw(st.integers(0, 8))):
        gtype, fanins = gate(shared)
        left.add_gate(f"s{k}", gtype, fanins)
        if gtype is not GateType.MUX:
            fanins = draw(st.permutations(fanins))
        right.add_gate(f"s{k}", gtype, fanins)
        shared.append(f"s{k}")
        shared_gates.append((gtype, fanins))
    sides = []
    for tag, circuit in (("l", left), ("r", right)):
        nets = list(shared)
        for k in range(draw(st.integers(0, 6))):
            if shared_gates and draw(st.booleans()):
                gtype, fanins = draw(st.sampled_from(shared_gates))
                fanins = list(fanins)
                if fanins:
                    slot = draw(st.integers(0, len(fanins) - 1))
                    fanins[slot] = draw(st.sampled_from(nets))
            else:
                gtype, fanins = gate(nets)
            nets.append(circuit.add_gate(f"{tag}{k}", gtype, fanins))
        sides.append(nets)
    for k in range(draw(st.integers(1, 3))):
        left.set_output(f"y{k}", draw(st.sampled_from(sides[0])))
        right.set_output(f"y{k}", draw(st.sampled_from(sides[1])))
    return left, right


def _reference_verdict(left, right, port):
    """The port's verdict on a miter of the plain encoder."""
    s = Solver()
    enc = reference_tseitin.CircuitEncoder(s)
    lmap = enc.encode(left)
    rmap = enc.encode(right, input_vars={n: lmap[n] for n in left.inputs})
    diff = enc.xor2(lmap[left.outputs[port]], rmap[right.outputs[port]])
    return s.solve(assumptions=[diff]) == UNSAT


def _separates(left, right, port, assignment):
    return (evaluate_outputs(left, assignment)[port]
            != evaluate_outputs(right, assignment)[port])


@settings(max_examples=80, deadline=None)
@given(circuit_pairs())
def test_hashed_miter_matches_reference_and_simulation(pair):
    left, right = pair
    checker = PairwiseChecker(left, right)
    assignments = [dict(zip(left.inputs, bits)) for bits in
                   itertools.product([False, True], repeat=len(left.inputs))]
    # sharing is sound: nets on one variable agree on every assignment
    enc = CircuitEncoder(Solver())
    lmap = enc.encode(left)
    rmap = enc.encode(right, input_vars={n: lmap[n] for n in left.inputs})
    values = [(simulate(left, a), simulate(right, a)) for a in assignments]
    by_var = {}
    for side, litmap in enumerate((lmap, rmap)):
        for net, lit in litmap.items():
            table = tuple(v[side][net] != (lit < 0) for v in values)
            assert by_var.setdefault(abs(lit), table) == table, net
    for port in left.outputs:
        result = checker.check_pair(port)
        exhaustive = not any(_separates(left, right, port, a)
                             for a in assignments)
        assert result.equivalent is exhaustive
        assert _reference_verdict(left, right, port) is exhaustive
        if not exhaustive:
            assert _separates(left, right, port, result.counterexample)
