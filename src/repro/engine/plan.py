"""Declarative description of one session to simulate.

A :class:`SessionPlan` captures every input of
:func:`repro.streaming.session.simulate_session` in a frozen, picklable
value object, so batches of sessions can be described up front, shipped to
worker processes, and replayed deterministically: the same plan always
produces the same :class:`SessionResult`, no matter where or when it runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.client.profiles import OperationalCondition
from repro.client.viewer import ViewerBehavior
from repro.narrative.graph import StoryGraph
from repro.streaming.session import SessionConfig, SessionResult, simulate_session


@dataclass(frozen=True)
class SessionPlan:
    """One simulated viewing session, described but not yet executed.

    Parameters
    ----------
    graph:
        The interactive title's story graph.
    condition:
        The operational condition (OS × device × browser × network × time).
    behavior:
        The viewer behaviour model driving the choices.
    seed:
        The session seed.  Callers must derive it through
        :func:`repro.utils.rng.derive_seed` from their experiment's root
        seed, so the plan is reproducible independent of execution order.
    config:
        Optional session configuration; ``None`` means the defaults.
    forced_choices:
        Optional scripted default/non-default decisions (Figure 1 style).
    session_id:
        Identifier stamped into the result; defaults to ``session-<seed>``.
    """

    graph: StoryGraph
    condition: OperationalCondition
    behavior: ViewerBehavior
    seed: int
    config: SessionConfig | None = None
    forced_choices: tuple[bool, ...] | None = None
    session_id: str | None = None

    def __post_init__(self) -> None:
        if self.forced_choices is not None and not isinstance(self.forced_choices, tuple):
            object.__setattr__(self, "forced_choices", tuple(self.forced_choices))

    def describe(self) -> str:
        """Short human-readable identity used in engine error messages."""
        if self.session_id is not None:
            return self.session_id
        return f"{self.condition.fingerprint_key}/seed-{self.seed}"

    def execute(self) -> SessionResult:
        """Run the simulation this plan describes."""
        return simulate_session(
            graph=self.graph,
            condition=self.condition,
            behavior=self.behavior,
            seed=self.seed,
            config=self.config,
            forced_choices=self.forced_choices,
            session_id=self.session_id,
        )
