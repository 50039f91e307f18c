"""Typed per-run telemetry counters.

Replaces the engine-instance counter dict (which leaked state across
``rectify`` calls) with a dataclass owned by the run supervisor and
returned on the public :class:`~repro.eco.patch.RectificationResult`.
The mapping-style accessors (``counters["choices"]``, ``.get``,
``.items()``, ``in``) keep existing benches and reports working.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Iterator, Tuple


@dataclass
class RunCounters:
    """Search-effort and supervision telemetry of one rectification run.

    Search effort (the ablation benches read these):

    * ``choices`` — rewiring-choice assignments examined;
    * ``lint_screens`` — candidates checked by the static patch screen;
    * ``lint_rejects`` — candidates it rejected before any solver work;
    * ``sim_rejects`` — candidates dropped by the simulation screen;
    * ``sat_validations`` — full-domain SAT validations performed;
    * ``point_sets`` — candidate point-sets enumerated;
    * ``fallbacks`` — outputs completed by the Sec. 3.3 fallback;
    * ``cegar_rounds`` — counterexample-guided refinement rounds;
    * ``joint_commits`` — multi-output joint commits;
    * ``resubstitutions`` — resynthesis-pass resubstitutions.

    Performance machinery (the incremental/compiled fast paths):

    * ``incremental_solves`` — assumption-based candidate solves on the
      persistent validation miter;
    * ``plan_evals`` — batched evaluations through compiled simulation
      plans (engine-visible ones: screens and samplers);
    * ``parallel_workers`` — worker processes that contributed results
      to a parallel per-output search.

    Supervision (the :mod:`repro.runtime` layer writes these):

    * ``sat_escalations`` — per-call budget escalation retries;
    * ``sat_deescalations`` — starting-budget halvings;
    * ``sat_unknowns`` — validation attempts that stayed UNKNOWN;
    * ``sat_conflicts_spent`` — aggregate conflicts across the run;
    * ``bdd_nodes_spent`` — aggregate BDD nodes across all sessions;
    * ``bdd_sessions`` — symbolic sessions opened;
    * ``attempts_capped`` — outputs whose search hit the attempt cap;
    * ``degraded_outputs`` — outputs force-completed after exhaustion.

    Fault tolerance (checkpoint/resume and the supervised pool):

    * ``worker_deaths`` — supervised pool workers that died mid-task;
    * ``tasks_retried`` — partition tasks re-dispatched after a death;
    * ``outputs_quarantined`` — partitions abandoned after repeated
      worker deaths (their outputs complete via the fallback);
    * ``replayed_commits`` — journaled patches replayed on resume.
    """

    choices: int = 0
    lint_screens: int = 0
    lint_rejects: int = 0
    sim_rejects: int = 0
    sat_validations: int = 0
    point_sets: int = 0
    fallbacks: int = 0
    cegar_rounds: int = 0
    joint_commits: int = 0
    resubstitutions: int = 0
    incremental_solves: int = 0
    plan_evals: int = 0
    parallel_workers: int = 0
    sat_escalations: int = 0
    sat_deescalations: int = 0
    sat_unknowns: int = 0
    sat_conflicts_spent: int = 0
    bdd_nodes_spent: int = 0
    bdd_sessions: int = 0
    attempts_capped: int = 0
    degraded_outputs: int = 0
    worker_deaths: int = 0
    tasks_retried: int = 0
    outputs_quarantined: int = 0
    replayed_commits: int = 0

    # -- mapping-style compatibility -----------------------------------
    def __getitem__(self, key: str) -> int:
        if key not in _FIELD_NAMES:
            raise KeyError(key)
        return getattr(self, key)

    def get(self, key: str, default: int = 0) -> int:
        return getattr(self, key) if key in _FIELD_NAMES else default

    def __contains__(self, key: str) -> bool:
        return key in _FIELD_NAMES

    def items(self) -> Iterator[Tuple[str, int]]:
        return iter((name, getattr(self, name)) for name in _FIELD_NAMES)

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in _FIELD_NAMES}

    def nonzero(self) -> Dict[str, int]:
        return {k: v for k, v in self.items() if v}


#: the counter names, in declaration order (read once: ``as_dict`` runs
#: at every span open and finish of a traced run)
_FIELD_NAMES: Tuple[str, ...] = tuple(f.name for f in fields(RunCounters))
