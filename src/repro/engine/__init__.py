"""Batch execution engine: declarative session plans over a process pool.

Every experiment in this reproduction boils down to the same shape of work:
simulate a grid of viewing sessions (graph × condition × behaviour × seed),
then run the attack over the resulting traces.  The seed repo did both
serially, one session at a time; this package turns the first half into a
declarative, parallelisable substrate, and
:class:`repro.core.pipeline.WhiteMirrorAttack` fans the second half out over
the same pool.

Components
----------

:class:`~repro.engine.plan.SessionPlan`
    A frozen, picklable description of one session to simulate: the story
    graph, the operational condition, the viewer behaviour and the seed
    (plus optional config, forced choices and session
    id).  ``plan.execute()`` produces exactly the :class:`SessionResult`
    that calling :func:`repro.streaming.session.simulate_session` with the
    same arguments would.

:class:`~repro.engine.executor.BatchExecutor`
    Fans a sequence of plans out over a ``concurrent.futures`` process pool
    and returns the results **in plan order**.  ``workers=None`` (or ``1``)
    runs serially in-process — the fallback determinism tests compare
    against; ``workers=0`` uses every core.  Worker failures surface as
    :class:`repro.exceptions.EngineError` naming the failed plan, never as
    a hang.  Because all randomness flows through
    :func:`repro.utils.rng.derive_seed`, serial and parallel execution of
    the same plans produce byte-identical results — that equivalence is the
    engine's core correctness contract.  For batches too large to
    materialise, ``imap``/``iexecute`` are the streaming variants: order-
    preserving generators with a bounded in-flight window, the same failure
    model, and the same byte-equivalence — the sharded dataset pipeline
    (:mod:`repro.dataset.shards`) runs entirely on them.

Usage
-----

Generate a dataset-sized batch of sessions on four workers::

    from repro.engine import BatchExecutor, SessionPlan
    from repro.utils.rng import derive_seed

    plans = [
        SessionPlan(
            graph=graph,
            condition=condition,
            behavior=behavior,
            seed=derive_seed(root_seed, "my-experiment", index),
            session_id=f"session-{index}",
        )
        for index in range(100)
    ]
    sessions = BatchExecutor(workers=4).execute(plans)   # in plan order

Attack them in parallel, on every core::

    from repro.core.pipeline import WhiteMirrorAttack

    attack = WhiteMirrorAttack(graph=graph)
    attack.train(sessions[:10])
    evaluations = attack.evaluate_sessions(sessions[10:], workers=0)

The higher layers are already routed through the engine:
``IITMBandersnatchDataset.generate(..., workers=N)``,
``reproduce_headline(..., workers=N)`` and the other experiment drivers all
build plans and submit them as one batch, and the CLI exposes the same knob
as ``--workers``.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(
    __name__,
    {
        ".executor": "BatchExecutor",
        ".plan": "SessionPlan",
        "repro.exceptions": "EngineError",
    },
)
