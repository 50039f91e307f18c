"""Figure 3 / Examples 1-2: the sampled H(t) and Xi(c) computations.

Figure 3 depicts ``Xi(c) = forall z, y F(z, y, c)`` computed in the
sampling domain with the inputs overloaded by ``g(z)``.  Examples 1 and
2 give closed forms on the ``GATE``-style word circuit:

    H_k(t1, t2)  = t1^k t2^{n+k}  |  t1^{n+k} t2^k
    Xi_k(c1, c2) = c1^1 c2^2       for S_1 = (v(0), c, ~c),
                                       S_2 = (v(1), c, ~c)

(juxtaposition is conjunction: point 1 takes ``c`` and point 2 takes
``~c``, the paper's rewiring ``R = q_k/c, q_{n+k}/~c``).

This bench computes both with the library's actual machinery.
``H_k`` comes from the mux augmentation and sampling-domain
quantification and must equal its closed form as a BDD.  ``Xi_k`` comes
from the engine's choice enumeration, which checks Theorem 1 per choice
on sampling-domain code words: the set of choices it admits must equal
the closed form's truth table over all nine codes ``(c1, c2)``, minus
the all-trivial code, and the set of codes whose rewiring makes ``w_k``
equal the revised output on every input assignment.
"""

import itertools

from repro.bdd.manager import BddManager
from repro.eco.points import PointSelector, compute_h_function
from repro.eco.sampling import SamplingDomain
from repro.netlist.circuit import Pin
from repro.netlist.simulate import evaluate_outputs
from repro.workloads.figures import example1_circuits


def full_domain(circuit):
    inputs = list(circuit.inputs)
    samples = [dict(zip(inputs, bits))
               for bits in itertools.product([False, True],
                                             repeat=len(inputs))]
    return SamplingDomain(BddManager(), samples, inputs)


def _rewire_rectifies(impl, spec, k, pair, code):
    """Whether wiring ``pair`` to ``S_1[c1]``, ``S_2[c2]`` makes
    ``w_k`` equal the revised output on every input assignment."""
    sources = (("s", "c_new", "not_c"), ("v1", "c_new", "not_c"))
    patched = impl.copy()
    patched.and_("a", "b", name="c_new")
    patched.not_("c_new", name="not_c")
    for pin, options, index in zip(pair, sources, code):
        patched.rewire_pin(pin, options[index])
    port = f"w_{k}"
    for bits in itertools.product([False, True], repeat=len(impl.inputs)):
        assignment = dict(zip(impl.inputs, bits))
        if evaluate_outputs(patched, assignment)[port] != \
                evaluate_outputs(spec, assignment)[port]:
            return False
    return True


def test_figure3(benchmark, publish):
    impl, spec = example1_circuits(width=2)
    n = 2

    def run():
        domain = full_domain(impl)
        m = domain.manager
        spec_z = domain.cast_circuit(spec)
        impl_z = domain.cast_circuit(impl)
        report = []

        for k in range(n):
            f_prime = spec_z[spec.outputs[f"w_{k}"]]

            # ---- Example 1: H_k over the 2n select pins -------------
            pins = [Pin.gate(f"q{j}", 1) for j in range(2 * n)]
            y_vars = [m.add_var() for _ in range(2)]
            y_nodes = [m.var(v) for v in y_vars]
            selector = PointSelector(m, 2, len(pins))
            h = compute_h_function(impl, f"w_{k}", domain, pins, y_nodes,
                                   selector=selector)
            h_t = m.and_(
                m.forall(m.exists(m.xnor(h, f_prime), y_vars),
                         domain.z_vars),
                selector.validity())
            closed_h = m.or_(
                m.and_(selector.minterm(0, k), selector.minterm(1, n + k)),
                m.and_(selector.minterm(0, n + k), selector.minterm(1, k)))
            assert h_t == closed_h, f"H_{k} mismatch"
            report.append(f"H_{k}(t1,t2) == t1^{k} t2^{n + k} | "
                          f"t1^{n + k} t2^{k}   OK")

            # ---- Example 2: Xi_k over S_i = (trivial, c, ~c) --------
            from repro.eco.choices import enumerate_rewiring_choices
            from repro.eco.rewiring import RewireCandidate

            c_fn = spec_z["c_new"]
            nc_fn = m.not_(c_fn)

            def cand(net, node, trivial=False):
                return RewireCandidate(net=net, from_spec=not trivial,
                                       utility=0.0, z_function=node,
                                       trivial=trivial)

            pair = (Pin.gate(f"q{k}", 1), Pin.gate(f"q{n + k}", 1))
            s1 = [cand("v0", impl_z["s"], trivial=True),
                  cand("c", c_fn), cand("~c", nc_fn)]
            s2 = [cand("v1", impl_z["v1"], trivial=True),
                  cand("c", c_fn), cand("~c", nc_fn)]
            choices = enumerate_rewiring_choices(
                impl, f"w_{k}", domain, pair, (s1, s2), f_prime,
                limit=16)
            codes = {(s1.index(a), s2.index(b)) for a, b in choices}
            assert len(codes) == len(choices)
            nine = list(itertools.product(range(3), repeat=2))
            # the all-trivial code (0, 0) is never a choice
            closed_xi = {(c1, c2) for c1, c2 in nine
                         if c1 == 1 and c2 == 2}
            rectifying = {code for code in nine[1:]
                          if _rewire_rectifies(impl, spec, k, pair, code)}
            assert codes == closed_xi == rectifying, \
                f"Xi_{k} mismatch: {sorted(codes)}"
            report.append(f"Xi_{k}(c1,c2) == c1^1 c2^2 on all 9 codes "
                          f"OK")
        return report

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    publish("figure3.txt", "\n".join(
        ["Figure 3 / Examples 1-2 reproduction (exact closed forms):"]
        + [f"  {line}" for line in report]))
