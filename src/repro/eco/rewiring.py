"""Candidate rewiring nets: structural filter + utility ranking (Sec. 4.3).

For a rectification point at pin ``q``, candidate rewiring nets are
drawn from both the current implementation ``C`` and the synthesized
specification ``C'``.  A net ``s`` passes the *structural filter* when
the input support of the revised output ``f'`` contains the transitive
fanin of ``s``, and must not create a combinational cycle when wired to
``q``.  Candidates are then ranked by the *rectification utility*

    | { x in E : q(x) != s(x) } | / |E|

evaluated on the sampled error domain — the more the candidate differs
from the current driver across the errors, the likelier it flips them.
The net currently driving the pin is always included as the *trivial*
candidate (utility 0, first preference) so an over-approximated
point-set size collapses gracefully (Section 5.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Set

from repro.lint.patch_rules import PatchScreen
from repro.netlist.circuit import Circuit, Pin
from repro.eco.config import EcoConfig
from repro.eco.sampling import SamplingDomain, popcount
from repro.obs.trace import ensure_trace


@dataclass(frozen=True)
class RewireCandidate:
    """One candidate rewiring net for a rectification point."""

    net: str
    from_spec: bool
    utility: float
    #: function of the net in the sampling domain (BDD node over z)
    z_function: int
    #: logic level of the net in its home circuit (level-aware scoring)
    level: int = 0
    trivial: bool = False


class RewiringContext:
    """Per-failing-output state shared across rectification points.

    Precomputes, once per output: the sampled error region ``E``,
    sampling-domain functions of every net of ``C`` and ``C'``, support
    masks, and the spec-side support of the failing output.
    """

    def __init__(self, impl: Circuit, spec: Circuit, port: str,
                 domain: SamplingDomain, config: EcoConfig,
                 impl_z: Mapping[str, int], spec_z: Mapping[str, int],
                 impl_supports: Mapping[str, int],
                 spec_supports: Mapping[str, int],
                 impl_levels: Mapping[str, int],
                 spec_levels: Mapping[str, int],
                 ports: Optional[Sequence[str]] = None,
                 trace=None):
        self.impl = impl
        self.spec = spec
        self.port = port
        self.ports = list(ports) if ports else [port]
        self.domain = domain
        self.config = config
        self.trace = ensure_trace(trace)
        self.impl_z = impl_z
        self.spec_z = spec_z
        self.impl_supports = impl_supports
        self.spec_supports = spec_supports
        self.impl_levels = impl_levels
        self.spec_levels = spec_levels

        # joint context: the error region is the union of the per-port
        # differences and the structural filter uses the union support
        self.spec_out_net = spec.outputs[port]
        self.spec_support_mask = 0
        diff = 0
        for p in self.ports:
            snet = spec.outputs[p]
            self.spec_support_mask |= spec_supports[snet]
            diff |= domain.word(impl_z[impl.outputs[p]]) ^ \
                domain.word(spec_z[snet])
        #: code word of the sampled error region ``E``
        self.error_word = diff & domain.valid_mask
        self.error_count = max(1, popcount(self.error_word))

        # static patch screen: shared sink adjacency and memoized fanout
        # cones back the candidate filter here and the engine's pre-SAT
        # legality check
        self.screen = PatchScreen(
            impl, spec=spec, supports=impl_supports,
            spec_support_mask=self.spec_support_mask)

    def utility(self, driver_z: int, candidate_z: int) -> float:
        """The Section 4.3 ratio on the sampled error domain."""
        word = self.domain.word
        hits = popcount((word(driver_z) ^ word(candidate_z))
                        & self.error_word)
        return hits / self.error_count

    def candidates_for_pin(self, pin: Pin,
                           forbidden: Optional[Set[str]] = None
                           ) -> List[RewireCandidate]:
        """Ordered candidate rewiring nets for one rectification point.

        ``forbidden`` removes implementation nets that other pins of the
        same point-set make unusable (cycle interactions).
        """
        with self.trace.span("rewiring.candidates", pin=repr(pin)) as sp:
            out = self._candidates_for_pin(pin, forbidden)
            sp.tag(candidates=len(out))
            return out

    def _candidates_for_pin(self, pin: Pin,
                            forbidden: Optional[Set[str]] = None
                            ) -> List[RewireCandidate]:
        config = self.config
        driver = self.impl.pin_driver(pin)
        driver_z = self.impl_z[driver]

        # nets whose fanout cone includes the pin's gate would cycle;
        # the screen memoizes the cone so repeated pins are O(1)
        if pin.is_output_port:
            unreachable: Set[str] = set()
        else:
            unreachable = self.screen.fanout_cone(pin.owner)

        scored: List[RewireCandidate] = []
        if config.use_impl_nets:
            for net in self.impl.nets():
                if net == driver or net in unreachable:
                    continue
                if forbidden and net in forbidden:
                    continue
                if self.impl_supports[net] & ~self.spec_support_mask:
                    continue  # structural filter
                scored.append(RewireCandidate(
                    net=net, from_spec=False,
                    utility=self.utility(driver_z, self.impl_z[net]),
                    z_function=self.impl_z[net],
                    level=self.impl_levels[net]))
        if config.use_spec_nets:
            for net in self.spec.gates:
                if self.spec_supports[net] & ~self.spec_support_mask:
                    continue
                scored.append(RewireCandidate(
                    net=net, from_spec=True,
                    utility=self.utility(driver_z, self.spec_z[net]),
                    z_function=self.spec_z[net],
                    level=self.spec_levels[net]))

        if config.utility_ordering:
            scored.sort(key=lambda c: (-c.utility, c.from_spec, c.level))
        else:
            scored.sort(key=lambda c: (c.from_spec, c.net))
        kept = scored[:config.max_rewire_candidates]

        # guarantee completeness for output-port pins: the revised
        # function itself must be reachable as a candidate
        if pin.is_output_port and config.use_spec_nets:
            if not any(c.from_spec and c.net == self.spec_out_net
                       for c in kept):
                kept.append(RewireCandidate(
                    net=self.spec_out_net, from_spec=True,
                    utility=self.utility(driver_z,
                                         self.spec_z[self.spec_out_net]),
                    z_function=self.spec_z[self.spec_out_net],
                    level=self.spec_levels[self.spec_out_net]))

        trivial = RewireCandidate(
            net=driver, from_spec=False, utility=0.0,
            z_function=driver_z,
            level=self.impl_levels[driver], trivial=True)
        return [trivial] + kept
