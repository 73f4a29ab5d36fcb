"""White Mirror reproduction library.

This package reproduces the system described in *"White Mirror: Leaking
Sensitive Information from Interactive Netflix Movies using Encrypted Traffic
Analysis"* (Mitra et al., 2019): an end-to-end pipeline that

1. simulates interactive (Bandersnatch-style) Netflix streaming sessions down
   to TLS records and captured packets (:mod:`repro.narrative`,
   :mod:`repro.media`, :mod:`repro.client`, :mod:`repro.tls`, :mod:`repro.net`,
   :mod:`repro.streaming`),
2. generates an IITM-Bandersnatch-style dataset of ``{encrypted trace,
   ground-truth choices}`` points (:mod:`repro.dataset`),
3. mounts the paper's passive traffic-analysis attack that recovers viewer
   choices from client-side SSL record lengths (:mod:`repro.core`), online —
   tailing a live capture drop directory (:mod:`repro.ingest`) — as well as
   over archived corpora, and
4. evaluates baselines, countermeasures and the paper's tables and figures
   (:mod:`repro.baselines`, :mod:`repro.defenses`, :mod:`repro.experiments`).

Quickstart
----------
>>> from repro import quick_attack_demo
>>> outcome = quick_attack_demo(seed=7)
>>> outcome["choice_accuracy"] >= 0.9
True

Import contract
---------------
Three layers are public API, re-exported here (or from their package)
and covered by the schema/wire versioning rules; everything else is
internal and may move between releases.

*Domain layer* — the attack itself: :class:`WhiteMirrorAttack`,
:class:`IITMBandersnatchDataset`, :func:`build_bandersnatch_script`,
:class:`SessionConfig`, :func:`simulate_session`.

*Component-spec layer* — declarative construction of the swappable
pieces: :data:`repro.defenses.DEFENSE_REGISTRY` and
:data:`repro.ml.CLASSIFIER_REGISTRY` map stable names plus params dicts
to instances, and every registry-built instance round-trips through
``spec()``/``from_spec()`` (sorted keys, ``"schema"``-stamped).  The
arena (``repro arena``, :mod:`repro.arena`) constructs every defense and
classifier it sweeps exclusively through these registries.

*Jobs layer* — programmatic runs, the same surface the CLI and the fleet
coordinator drive: build a spec dict, rebuild it with
:func:`job_from_dict` (the wire format ``repro serve`` leases to
``repro work`` pullers), execute it with :class:`JobRunner` against a
:class:`Workspace`, and read the :class:`JobResult`'s
content-fingerprinted artifacts.  Spec dicts carry ``"schema"``
(:data:`repro.jobs.SCHEMA_VERSION`), event lines carry ``"schema"``
(:data:`repro.jobs.EVENT_SCHEMA_VERSION`), and coordinator traffic
carries ``"wire"`` (:data:`repro.coordinator.WIRE_VERSION`); consumers
must refuse versions they do not speak, as every repro component does.

``import repro`` loads only the package, and so does importing any of its
subpackages: each lists its names in a table (a PEP 562 ``__getattr__``),
and a name loads its defining module on first access.  A process thus
compiles the modules it uses: :class:`JobRunner` imports a job kind's
modules when it runs that kind, and the attack path (``repro attack``,
``repro watch``) loads no simulator, sweep or coordinator module.  Beyond
numpy and the standard library, what only some runs need loads when they
need it: the HTTP server with ``serve`` or ``--metrics-port``, the process
pool with ``--workers``, the experiments package with ``reproduce``.
``tests/test_dependencies.py`` holds these lines.
"""

from __future__ import annotations

__version__ = "1.0.0"

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(
    __name__,
    {
        ".core.pipeline": "WhiteMirrorAttack",
        ".dataset.iitm": "IITMBandersnatchDataset",
        ".jobs.artifacts": "Workspace",
        ".jobs.runner": "JobResult JobRunner",
        ".jobs.specs": "job_from_dict",
        ".narrative.bandersnatch": "build_bandersnatch_script",
        ".streaming.session": "SessionConfig simulate_session",
    },
    "__version__",
    "quick_attack_demo",
)


def quick_attack_demo(seed: int = 7, sessions: int = 3) -> dict[str, object]:
    """Tiny end-to-end demo: simulate, train, attack, score.

    Returns a dictionary with the recovered pattern of the last victim
    session, the ground truth and the aggregate choice accuracy.  Used by the
    README quickstart and the package doctests; for anything serious use
    :class:`repro.core.pipeline.WhiteMirrorAttack` directly.
    """
    from repro.client.profiles import figure2_conditions
    from repro.client.viewer import ViewerBehavior
    from repro.core.evaluation import aggregate_choice_accuracy
    from repro.core.pipeline import WhiteMirrorAttack
    from repro.narrative.bandersnatch import build_bandersnatch_script
    from repro.streaming.session import simulate_session
    from repro.utils.rng import derive_seed

    graph = build_bandersnatch_script(
        trunk_segment_minutes=1.5, branch_segment_minutes=1.0, ending_minutes=2.0
    )
    condition, _windows = figure2_conditions()
    behavior = ViewerBehavior("20-25", "undisclosed", "undisclosed", "happy")
    train = [
        simulate_session(graph, condition, behavior, seed=derive_seed(seed, "train", i))
        for i in range(2)
    ]
    victims = [
        simulate_session(graph, condition, behavior, seed=derive_seed(seed, "victim", i))
        for i in range(sessions)
    ]
    attack = WhiteMirrorAttack(graph=graph)
    attack.train(train)
    evaluations = attack.evaluate_sessions(victims)
    last = attack.attack_session(victims[-1])
    return {
        "choice_accuracy": aggregate_choice_accuracy(evaluations),
        "recovered_pattern": last.recovered_pattern,
        "ground_truth_pattern": victims[-1].ground_truth_pattern,
        "sessions_evaluated": len(victims),
    }
