"""The job runner: executes a typed spec against a workspace, emitting events.

This is the application layer behind every sub-command: one ``_run_*``
method per :mod:`repro.jobs.specs` class, each orchestrating the domain
calls for its kind, reporting through the
:class:`~repro.jobs.events.EventBus` instead of printing, and returning a typed :class:`JobResult` naming every durable output as a
content-fingerprinted :class:`~repro.jobs.artifacts.Artifact`.

The progress callbacks threaded into the dataset, ingest and engine layers
(:data:`repro.engine.executor.ProgressCallback` — ``(done, total)`` with
``total=None`` when unsized) are adapted onto the bus here, so those
subsystems stay renderer-agnostic: the same run narrates to a terminal, a
JSONL pipeline, or a future coordinator's event feed depending only on
which sinks are attached.
"""

from __future__ import annotations

import json
from contextlib import closing
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

from repro.core.fingerprint import FingerprintAccumulator, FingerprintLibrary
from repro.core.pipeline import AttackResult, WhiteMirrorAttack
from repro.dataset.collection import default_study_script
from repro.dataset.format import METADATA_FILENAME, load_dataset_metadata
from repro.dataset.sidecar import fold_shard_sidecar
from repro.exceptions import DatasetError, JobError, ReproError
from repro.jobs import events as ev
from repro.jobs.artifacts import Artifact, Workspace
from repro.jobs.events import EventBus
from repro.utils.atomic import write_atomic

if TYPE_CHECKING:
    from repro.arena.report import ArenaReport
    from repro.dataset.iitm import DatasetSummary
    from repro.dataset.shards import ShardedDataset
    from repro.engine.executor import ProgressCallback
    from repro.ingest.service import StreamingAttackService
    from repro.jobs.specs import (
        ArenaCellJob,
        ArenaJob,
        AttackJob,
        GenerateJob,
        InspectJob,
        JobSpec,
        MergeFingerprintsJob,
        ReproduceJob,
        ServeJob,
        StitchJob,
        TrainJob,
        WatchJob,
        WorkJob,
    )


@dataclass(frozen=True)
class JobResult:
    """What a completed job produced: artifacts plus summary numbers."""

    job: str
    artifacts: tuple[Artifact, ...] = ()
    summary: dict = field(default_factory=dict)

    def to_dict(self) -> dict[str, object]:
        return {
            "job": self.job,
            "artifacts": [artifact.to_dict() for artifact in self.artifacts],
            "summary": dict(self.summary),
        }


class JobRunner:
    """Executes job specs against a workspace, narrating through a bus."""

    def __init__(self, bus: EventBus, workspace: Workspace | None = None) -> None:
        self._bus = bus
        self._workspace = workspace if workspace is not None else Workspace()
        # Keyed by ``spec.KIND``; each handler imports its own kind's
        # modules, so a process loads only the kinds it runs.
        self._runners: dict[str, Callable[[JobSpec], JobResult]] = {
            "generate": self._run_generate,
            "train": self._run_train,
            "stitch": self._run_stitch,
            "merge-fingerprints": self._run_merge_fingerprints,
            "attack": self._run_attack,
            "watch": self._run_watch,
            "reproduce": self._run_reproduce,
            "inspect": self._run_inspect,
            "arena": self._run_arena,
            "arena-cell": self._run_arena_cell,
            "serve": self._run_serve,
            "work": self._run_work,
        }

    def run(self, spec: JobSpec) -> JobResult:
        """Validate and execute ``spec``; emits a final ``result`` event."""
        runner = self._runners.get(spec.KIND)
        if runner is None:
            raise JobError(
                f"no runner for job spec {type(spec).__name__}; known kinds: "
                f"{sorted(self._runners)}"
            )
        spec.validate()
        result = runner(spec)
        self._bus.emit(ev.RESULT, **result.to_dict())
        return result

    def _resolve(self, path: str) -> str:
        """A spec path, anchored to this runner's workspace.

        Domain calls receive resolved paths (so the same spec runs in any
        workspace — the CLI's cwd, a worker's scratch directory); event
        payloads keep the spec's own strings, so narration matches what
        the caller wrote.
        """
        return str(self._workspace.resolve(path))

    # -- shared emit helpers -----------------------------------------------

    def _emit_summary(self, summary: DatasetSummary) -> None:
        self._bus.emit(
            ev.DATASET_SUMMARY,
            viewers=summary.viewer_count,
            conditions=summary.distinct_conditions,
            choices=summary.total_choices,
            packets=summary.total_packets,
        )

    def _publish_library(
        self,
        spec: TrainJob | MergeFingerprintsJob,
        library: FingerprintLibrary,
        *,
        state: FingerprintAccumulator | None = None,
        state_label: str = "",
        **summary: object,
    ) -> JobResult:
        """The closing step every training job shares.

        Saves the accumulator ``state`` when the spec asks for it, then the
        library, narrating each write; the library leads the artifacts.
        """
        artifacts: list[Artifact] = []
        if state is not None and spec.save_state:
            state.save(self._resolve(spec.save_state))
            self._bus.emit(
                ev.ARTIFACT_WRITTEN, path=spec.save_state, label=state_label
            )
            artifacts.append(
                self._workspace.artifact("accumulator-state", spec.save_state)
            )
        library.save(self._resolve(spec.output))
        self._bus.emit(
            ev.FINGERPRINTS, rows=fingerprint_rows(library), output=spec.output
        )
        artifacts.insert(
            0, self._workspace.artifact("fingerprint-library", spec.output)
        )
        return JobResult(
            job=spec.KIND,
            artifacts=tuple(artifacts),
            summary={"environments": len(library.condition_keys), **summary},
        )

    def _emit_cell(self, result: dict, state: str) -> None:
        self._bus.emit(
            ev.CELL_COMPLETE,
            cell=result["cell"],
            defense=result["defense_name"],
            classifier=result["classifier_name"],
            choice_accuracy=result["metrics"]["choice_accuracy"],
            overhead_bytes=result["metrics"]["overhead_bytes_per_session"],
            state=state,
        )

    def _session_progress(self) -> ProgressCallback:
        return lambda done, total: self._bus.emit(
            ev.PROGRESS, completed=done, total=total, unit="sessions"
        )

    # -- generate ----------------------------------------------------------

    def _run_generate(self, spec: GenerateJob) -> JobResult:
        """Build and persist a synthetic dataset (streaming generation).

        Generation always streams: each viewer's session is persisted as
        the engine completes it, so peak memory is bounded by the in-flight
        window (and, with shards, per-shard state) rather than the
        population.
        """
        from repro.dataset.iitm import IITMBandersnatchDataset
        from repro.dataset.shards import (
            SHARD_GENERATED,
            SHARDS_MANIFEST_FILENAME,
            generate_shard_subset,
            generate_sharded_dataset,
            merge_shard_summaries,
            parse_shard_selection,
        )
        from repro.streaming.session import SessionConfig

        config = SessionConfig(cross_traffic_enabled=spec.cross_traffic)
        progress = self._session_progress()
        selection = (
            None
            if spec.only_shards is None
            else parse_shard_selection(spec.only_shards, spec.shards)
        )
        self._bus.emit(
            ev.GENERATION_STARTED,
            verb="resuming" if spec.resume else "generating",
            viewers=spec.viewers,
            seed=spec.seed,
            shards=spec.shards,
            selection=None if selection is None else list(selection),
        )
        if spec.shards is None:
            _metadata_path, summary = IITMBandersnatchDataset.generate_streaming(
                self._resolve(spec.output),
                viewer_count=spec.viewers,
                seed=spec.seed,
                config=config,
                progress=progress,
                workers=spec.workers,
                write_pcaps=spec.write_pcaps,
            )
            self._bus.emit(ev.PROGRESS_FINISHED)
            self._bus.emit(
                ev.ARTIFACT_WRITTEN,
                path=str(Path(spec.output) / METADATA_FILENAME),
            )
            counts: dict[str, object] = {}
        else:
            # A shard reports e.g. "quarantined+generated" when a partial
            # copy was moved aside before regeneration.
            shard_states: dict[str, list[str]] = {}
            plan = dict(
                viewer_count=spec.viewers,
                shard_count=spec.shards,
                seed=spec.seed,
                config=config,
                workers=spec.workers,
                shard_workers=spec.shard_workers,
                write_pcaps=spec.write_pcaps,
                progress=progress,
                resume=spec.resume,
                status=lambda shard, state: shard_states.setdefault(
                    shard.dirname, []
                ).append(state),
            )
            if selection is None:
                summaries = generate_sharded_dataset(
                    self._resolve(spec.output), **plan
                ).shard_summaries
            else:
                summaries = generate_shard_subset(
                    self._resolve(spec.output), only_shards=selection, **plan
                )
            self._bus.emit(ev.PROGRESS_FINISHED)
            for shard in summaries:
                state = "+".join(shard_states.get(shard.directory, [SHARD_GENERATED]))
                self._bus.emit(
                    ev.SHARD_COMPLETE,
                    shard=shard.directory,
                    viewers=shard.viewer_count,
                    state=state,
                )
            if selection is None:
                self._bus.emit(
                    ev.ARTIFACT_WRITTEN,
                    path=str(Path(spec.output) / SHARDS_MANIFEST_FILENAME),
                )
                counts = {"shards": spec.shards}
            else:
                self._bus.emit(
                    ev.SUBSET_WRITTEN,
                    written=len(summaries),
                    planned=spec.shards,
                    root=spec.output,
                )
                counts = {
                    "shards_written": len(summaries),
                    "shards_planned": spec.shards,
                }
            summary = merge_shard_summaries(summaries)
        self._emit_summary(summary)
        return JobResult(
            job=spec.KIND,
            artifacts=(self._workspace.artifact("dataset", spec.output),),
            summary={"viewers": summary.viewer_count, **counts},
        )

    # -- train -------------------------------------------------------------

    def _run_train(self, spec: TrainJob) -> JobResult:
        """Learn fingerprints from a saved dataset's pcaps.

        The ground-truth labels needed for training do not live in the
        pcaps (by design), so training re-simulates the calibration
        viewers' sessions from the dataset metadata.  A single directory's
        train/test split comes from its metadata alone
        (:func:`~repro.dataset.population.split_viewers`, the split of
        :meth:`IITMBandersnatchDataset.train_test_split`), and only the
        training viewers are re-simulated, streamed into the accumulator
        like a shard; ``sharded`` walks a whole sharded root shard by shard.
        """
        from repro.dataset.population import split_viewers, viewers_from_metadata_entries
        from repro.dataset.shards import (
            SHARDS_MANIFEST_FILENAME,
            discover_shard_directories,
            iter_shard_training_sessions,
        )

        directory = self._workspace.resolve(spec.dataset)
        if spec.sharded:
            return self._train_sharded(spec, directory)
        try:
            metadata = load_dataset_metadata(directory)
        except DatasetError as error:
            if (directory / SHARDS_MANIFEST_FILENAME).exists():
                raise DatasetError(
                    f"{directory} is a sharded dataset root (it has a "
                    f"{SHARDS_MANIFEST_FILENAME}); train on it with --sharded, "
                    "or point at one of its shard directories"
                ) from error
            if discover_shard_directories(directory):
                raise DatasetError(
                    f"{directory} holds shard-NNN directories but no "
                    f"{SHARDS_MANIFEST_FILENAME} (an unstitched --only-shards "
                    "root); train on the shards it holds with --sharded, or "
                    "`repro stitch` the whole plan's shards first"
                ) from error
            raise
        seed = _dataset_seed_from_metadata(metadata)
        viewers = viewers_from_metadata_entries(metadata["entries"], directory)
        train, _ = split_viewers(viewers, 1.0 - spec.training_fraction, seed)
        train_ids = {viewers[position].viewer_id for position in train}
        sessions = iter_shard_training_sessions(
            directory,
            workers=spec.workers,
            viewer_filter=lambda viewer: viewer.viewer_id in train_ids,
        )
        attack = WhiteMirrorAttack(graph=default_study_script(), band_margin=spec.margin)
        attack.train_incremental([sessions])
        return self._publish_library(spec, attack.library)

    def _train_sharded(self, spec: TrainJob, directory: Path) -> JobResult:
        """Fold a sharded dataset into the fingerprints shard by shard.

        The whole sharded dataset is the attacker's calibration corpus
        (held-out evaluation splits are the experiment drivers' job), so
        every shard's sessions are re-simulated lazily and folded into the
        fingerprint accumulator — peak memory holds one engine window of
        sessions regardless of the population size, and the resulting
        library is identical to batch training over every session at once.

        A *subset root* — shard directories written by ``--only-shards``
        with no ``shards.json`` manifest yet — also trains: the machine
        folds in whatever shards it holds locally, and ``save_state``
        serialises the running accumulator so the per-machine states can
        later be combined with ``repro merge-fingerprints`` into exactly
        the library one machine training over the stitched root would
        learn.

        Shards carrying a fresh columnar sidecar (``traces/records.npz``,
        see :mod:`repro.dataset.sidecar`) skip re-simulation entirely:
        their recorded wire lengths and ground-truth label codes fold
        straight into the accumulator, per-record identical to
        re-simulating.
        """
        from repro.dataset.shards import (
            SHARDS_MANIFEST_FILENAME,
            ShardedDataset,
            discover_shard_directories,
            iter_consistent_shard_metadata,
            iter_shard_training_sessions,
        )

        if (directory / SHARDS_MANIFEST_FILENAME).exists() or (
            directory / METADATA_FILENAME
        ).exists():
            # A stitched/complete root (or a single dataset directory, which
            # ShardedDataset.load rejects with guidance).
            dataset = ShardedDataset.load(directory)
            viewer_count = dataset.viewer_count
            shard_directories = dataset.shard_directories()
            self._bus.emit(
                ev.TRAINING_STARTED,
                viewers=viewer_count,
                shards=dataset.shard_count,
                subset=False,
            )
        else:
            found = discover_shard_directories(directory)
            if not found:
                raise DatasetError(
                    f"{directory} is not a sharded dataset root: no "
                    f"{SHARDS_MANIFEST_FILENAME} manifest and no shard-NNN "
                    "directories (generate one with `repro generate-dataset "
                    "--shards N`)"
                )
            viewer_count = sum(
                int(metadata["viewer_count"])
                for metadata in iter_consistent_shard_metadata(found)
            )
            shard_directories = [path for _index, path in found]
            self._bus.emit(
                ev.TRAINING_STARTED,
                viewers=viewer_count,
                shards=len(found),
                subset=True,
            )
        attack = WhiteMirrorAttack(
            graph=default_study_script(), band_margin=spec.margin
        )
        accumulator = FingerprintAccumulator()
        pending: list[Path] = []
        folded_shards = 0
        folded_records = 0
        for shard_directory in shard_directories:
            folded = fold_shard_sidecar(shard_directory, accumulator)
            if folded is None:
                pending.append(shard_directory)
            else:
                folded_shards += 1
                folded_records += folded
        if folded_shards:
            self._bus.emit(
                ev.SIDECAR_FOLDED,
                folded=folded_shards,
                shards=len(shard_directories),
                records=folded_records,
            )
        if pending:
            attack.train_incremental(
                (
                    iter_shard_training_sessions(path, workers=spec.workers)
                    for path in pending
                ),
                progress=lambda folded: self._bus.emit(
                    ev.PROGRESS,
                    completed=folded,
                    total=None,
                    unit="resimulated-sessions",
                ),
                accumulator=accumulator,
            )
            self._bus.emit(ev.PROGRESS_FINISHED)
        else:
            # Every shard folded from its sidecar; finalise the accumulated
            # state directly (train_incremental would reject zero sessions).
            accumulator.finalize_into(attack.library, margin=spec.margin)
        return self._publish_library(
            spec,
            attack.library,
            state=accumulator,
            state_label="accumulator-state",
            viewers=viewer_count,
        )

    # -- stitch ------------------------------------------------------------

    def _run_stitch(self, spec: StitchJob) -> JobResult:
        """Verify rsync'd shards and publish the merged manifest.

        The distributed-generation closing step: machines that split one
        plan with ``generate-dataset --only-shards`` copy their shard
        directories under one root, and stitching validates the union
        against the recorded seed, session configuration and story-graph
        fingerprint — without regenerating or re-reading a single pcap —
        then writes ``shards.json``.
        """
        dataset = stitch_dataset_root(spec.root, self._bus.emit, self._resolve)
        summary = dataset.summary()
        self._emit_summary(summary)
        return JobResult(
            job=spec.KIND,
            artifacts=(
                self._workspace.artifact("manifest", dataset.manifest_path),
            ),
            summary={"viewers": summary.viewer_count},
        )

    # -- merge-fingerprints ------------------------------------------------

    def _run_merge_fingerprints(self, spec: MergeFingerprintsJob) -> JobResult:
        """Fold per-machine calibration states into one library.

        Each input is the accumulator state a machine saved with ``repro
        train --sharded --save-state``; the states merge like shard
        summaries (band extremes fold, record counts add) and finalise into
        a fingerprint library identical — byte for byte — to
        single-machine training over the union of the machines' shards.
        """
        merged = fold_state_files(spec.states, self._bus.emit, self._resolve)
        library = FingerprintLibrary()
        merged.finalize_into(library, margin=spec.margin)
        return self._publish_library(
            spec, library, state=merged, state_label="merged-accumulator-state"
        )

    # -- attack ------------------------------------------------------------

    def _run_attack(self, spec: AttackJob) -> JobResult:
        """Recover choices from a pcap or a directory of pcaps."""
        target = self._workspace.resolve(spec.target)
        if target.is_dir():
            return self._attack_directory(spec, target)
        if spec.results_log:
            # Fail at the point of misuse, not in a consumer that later
            # finds the log was never written.
            raise ReproError(
                "--results-log applies to directory targets; attack the "
                "capture's directory to log its verdict"
            )
        return self._attack_single(spec, target)

    def _attack_single(self, spec: AttackJob, target: Path) -> JobResult:
        from repro.ingest.tasks import build_pcap_task, metadata_entries_near

        entry = metadata_entries_near(target.parent).get(target.name)
        task = build_pcap_task(
            target,
            entry,
            environment=spec.environment,
            client_ip=spec.client_ip,
            server_ip=spec.server_ip,
        )
        library = FingerprintLibrary.load(self._resolve(spec.library))
        attack = WhiteMirrorAttack(graph=default_study_script(), library=library)
        result = attack.attack_pcap(
            task.path,
            condition_key=task.condition_key,
            client_ip=task.client_ip,
            server_ip=task.server_ip,
        )
        self._bus.emit(
            ev.CHOICES_RECOVERED,
            capture=None,
            condition_key=task.condition_key,
            rows=_choice_rows(result),
        )
        if result.profile is not None:
            self._bus.emit(
                ev.PROFILE,
                rows=[
                    {"trait": trait, "revealed_value": label}
                    for trait, label in result.profile.as_dict().items()
                ],
            )
        return JobResult(
            job=spec.KIND,
            summary={"choices": len(result.inferred.events)},
        )

    def _build_attack_service(
        self, spec: AttackJob | WatchJob, log_path: str | None
    ) -> StreamingAttackService:
        """The one capture→verdict code path both attack modes run through."""
        from repro.ingest.service import StreamingAttackService

        library = FingerprintLibrary.load(self._resolve(spec.library))
        return StreamingAttackService(
            library=library,
            log_path=self._resolve(log_path) if log_path else None,
            workers=spec.workers,
            environment=spec.environment,
            client_ip=spec.client_ip,
            server_ip=spec.server_ip,
        )

    def _attack_directory(self, spec: AttackJob, target: Path) -> JobResult:
        from repro.ingest.service import SKIP_ALREADY_ATTACKED, SKIP_UNREADABLE

        target, pcaps = _directory_pcaps(target)
        service = self._build_attack_service(spec, spec.results_log)
        skip_reasons: list[str] = []

        def on_skip(path: Path, reason: str) -> None:
            skip_reasons.append(reason)
            self._bus.emit(ev.CAPTURE_SKIPPED, capture=path.name, reason=reason)

        def on_verdict(verdict, result: AttackResult) -> None:
            self._bus.emit(
                ev.CHOICES_RECOVERED,
                capture=verdict.capture,
                condition_key=verdict.condition_key,
                rows=_choice_rows(result),
            )

        fresh = service.process(pcaps, on_verdict=on_verdict, on_skip=on_skip)
        if not fresh and SKIP_ALREADY_ATTACKED not in skip_reasons:
            # Nothing was attacked and nothing resumed: the batch caller
            # made an error upstream; name the dominant cause with its fix.
            if any("--environment" in reason for reason in skip_reasons):
                raise ReproError(
                    f"cannot determine the environment of the captures under "
                    f"{target}: pass --environment or attack captures that sit "
                    "next to their dataset metadata.json"
                )
            if SKIP_UNREADABLE in skip_reasons:
                raise ReproError(
                    f"no readable captures under {target}: every .pcap vanished "
                    "or failed to read (rotated away by its writer?)"
                )
            if all("fingerprint library" in reason for reason in skip_reasons):
                raise ReproError(
                    "no attackable captures: none of the environments are in "
                    "the fingerprint library"
                )
            raise ReproError(
                f"no attackable captures under {target}: every capture was "
                "skipped (see the reasons above)"
            )
        self._bus.emit(
            ev.AGGREGATE,
            attacked=len(fresh),
            total=len(pcaps),
            choices=sum(verdict.choice_count for verdict in fresh),
            correct=sum(verdict.correct_questions for verdict in fresh),
            questions=sum(verdict.question_count for verdict in fresh),
        )
        artifacts: tuple[Artifact, ...] = ()
        if service.log_path is not None:
            self._bus.emit(
                ev.ARTIFACT_WRITTEN,
                path=spec.results_log,
                label="results-log",
            )
            artifacts = (
                self._workspace.artifact("results-log", spec.results_log),
            )
        return JobResult(
            job=spec.KIND,
            artifacts=artifacts,
            summary={"attacked": len(fresh), "captures": len(pcaps)},
        )

    # -- watch -------------------------------------------------------------

    def _run_watch(self, spec: WatchJob) -> JobResult:
        """Attack captures as they land in drop directories.

        The online counterpart of ``repro attack`` over a directory,
        sharing its capture→verdict code path
        (:class:`StreamingAttackService`): detected captures are attacked
        as they finish landing, each verdict is durably appended to the
        results log, and a running aggregate-accuracy table follows every
        verdict.  A restarted watch resumes from the log, skipping captures
        already attacked (by content fingerprint).

        Both shapes run the one watch loop, :class:`FleetWatchService`.
        The positional directory is a fleet of one unlabelled source: its
        verdicts carry no source and ``--once`` over a quiescent directory
        writes a log byte-identical to ``repro attack --results-log`` on
        the same pcaps.  ``--source`` directories are validated and
        canonically ordered, every verdict is stamped with its source, the
        aggregate table is broken down per source, and ``--once`` writes a
        log byte-identical to serial single-source runs concatenated in
        canonical source order.
        """
        from repro.ingest.fleet import (
            FleetSource,
            FleetWatchService,
            LibraryReloadWatcher,
            validate_sources,
        )

        if spec.sources:
            sources = validate_sources(
                spec.sources, resolve=self._workspace.resolve
            )
            log_path = spec.results_log  # validate() requires it in fleet mode
        else:
            directory = self._workspace.resolve(spec.directory)
            if not directory.is_dir():
                # Checked before the service builds its results log (which
                # defaults into this directory), so the error names the
                # actual mistake.
                raise ReproError(
                    f"capture drop directory {directory} does not exist "
                    "(create it before watching, or point at a dataset's "
                    "traces/)"
                )
            sources = (FleetSource(None, directory),)
            log_path = spec.results_log or str(
                Path(spec.directory) / "results.jsonl"
            )
        # The reload stage is validated before the main library loads so a
        # bad --reload-library fails on its own flag, not on a coincidence
        # of which file was read first.
        reload_watcher = None
        if spec.reload_library is not None:
            reload_watcher = LibraryReloadWatcher(
                self._resolve(spec.reload_library)
            )
        service = self._build_attack_service(spec, log_path)
        resumed = len(service.verdicts)
        if resumed:
            self._bus.emit(ev.RESUMED, count=resumed, path=log_path)

        def attribution(source: str | None) -> dict[str, object]:
            # Unlabelled events omit the key entirely so the legacy
            # single-directory verdict line stays golden-pinned.
            return {"source": source} if spec.sources else {}

        def on_saturated(source: str | None, depth: int) -> None:
            self._bus.emit(
                ev.QUEUE_SATURATED,
                source=source if source is not None else spec.directory,
                depth=depth,
                high_watermark=spec.queue_high,
                low_watermark=spec.low_watermark,
            )

        def on_reloaded(path: str, fingerprint: str) -> None:
            self._bus.emit(
                ev.LIBRARY_RELOADED, path=path, fingerprint=fingerprint
            )

        def on_arrival(source: str | None, path: Path) -> None:
            self._bus.emit(
                ev.CAPTURE_QUEUED, **attribution(source), capture=path.name
            )

        def on_skip(path: Path, reason: str) -> None:
            self._bus.emit(ev.CAPTURE_SKIPPED, capture=path.name, reason=reason)

        def on_verdict(verdict, result: AttackResult) -> None:
            self._bus.emit(
                ev.VERDICT,
                **attribution(verdict.source),
                capture=verdict.capture,
                fingerprint=verdict.fingerprint,
                condition_key=verdict.condition_key,
                pattern=list(verdict.pattern),
                truth=list(verdict.truth) if verdict.truth is not None else None,
                correct=verdict.correct_questions,
                questions=verdict.question_count,
            )
            rows = (
                service.aggregate_rows_by_source()
                if spec.sources
                else service.aggregate_rows()
            )
            self._bus.emit(ev.AGGREGATE, rows=rows)

        fleet = FleetWatchService(
            service=service,
            sources=sources,
            recursive=spec.recursive,
            queue_high=spec.queue_high,
            queue_low=spec.low_watermark,
            reload_watcher=reload_watcher,
            on_saturated=on_saturated,
            on_reloaded=on_reloaded,
            on_arrival=on_arrival,
        )
        server = None
        if spec.metrics_port is not None:
            from repro.jobs.metrics import METRICS_PATH, IngestMetrics
            from repro.utils.jsonhttp import JsonHttpServer

            metrics = IngestMetrics(fleet.queue)
            server = JsonHttpServer(
                metrics.route, port=spec.metrics_port, name="repro-ingest-metrics"
            )
            host, port = server.start()
            self._bus.attach(metrics)
            self._bus.emit(
                ev.METRICS_SERVING, host=host, port=port, path=METRICS_PATH
            )
        try:
            fleet.run(
                follow=spec.follow,
                poll_interval=spec.poll_interval,
                on_verdict=on_verdict,
                on_skip=on_skip,
                on_error=lambda error: self._bus.emit(
                    ev.WARNING,
                    text=f"attack failed, still watching: {error}",
                ),
            )
        except KeyboardInterrupt:
            self._bus.emit(ev.STOPPED)
        finally:
            if server is not None:
                server.stop()
                self._bus.detach(metrics)
        self._bus.emit(
            ev.RESULTS_LOG, path=log_path, total=len(service.verdicts)
        )
        summary = {"verdicts": len(service.verdicts)}
        if spec.sources:
            summary["sources"] = len(sources)
        return JobResult(
            job=spec.KIND,
            artifacts=(self._workspace.artifact("results-log", log_path),),
            summary=summary,
        )

    # -- inspect -----------------------------------------------------------

    def _run_inspect(self, spec: InspectJob) -> JobResult:
        """Summarise a capture file."""
        from repro.core.features import extract_client_records
        from repro.net.capture import CapturedTrace
        from repro.net.packet import Direction
        from repro.utils.stats import summarize

        trace = CapturedTrace.from_pcap(
            self._resolve(spec.pcap), client_ip=spec.client_ip, server_ip="0.0.0.0"
        )
        table = trace.flow_table()
        flow_rows = []
        for flow in table.flows:
            flow_rows.append(
                {
                    "flow": flow.five_tuple.key,
                    "packets": flow.packet_count(),
                    "uplink_bytes": flow.payload_bytes(Direction.CLIENT_TO_SERVER),
                    "downlink_bytes": flow.payload_bytes(Direction.SERVER_TO_CLIENT),
                }
            )
        self._bus.emit(ev.FLOWS, pcap=spec.pcap, rows=flow_rows)
        records = extract_client_records(trace)
        lengths = [record.wire_length for record in records]
        stats = summarize(lengths)
        self._bus.emit(
            ev.RECORD_STATS,
            count=len(records),
            minimum=stats.minimum,
            median=stats.median,
            p95=stats.p95,
            maximum=stats.maximum,
        )
        return JobResult(
            job=spec.KIND,
            summary={"records": len(records)},
        )

    # -- arena -------------------------------------------------------------

    def _run_arena(self, spec: ArenaJob) -> JobResult:
        """Score the sweep grid locally, cell by cell, and publish the report.

        Every execution path lands on the same bytes: cells are scored by
        the pure :func:`repro.arena.cell.run_cell` (optionally fanned out
        across ``--shard-workers`` processes), written atomically under
        ``<output>/cells/``, and the report is rebuilt from the cell
        results in grid order — so serial, sharded, resumed and
        coordinator-leased runs publish identical reports.
        """
        from repro.arena.cell import cell_to_json
        from repro.arena.grid import ArenaGrid
        from repro.engine.executor import BatchExecutor

        grid = ArenaGrid.from_axes(
            defenses=spec.defenses,
            classifiers=spec.classifiers,
            conditions=spec.conditions,
            train_count=spec.train_count,
            test_count=spec.test_count,
            seed=spec.seed,
        )
        cells = grid.cells()
        output = Path(self._resolve(spec.output))
        cells_dir = output / "cells"
        cells_dir.mkdir(parents=True, exist_ok=True)
        self._bus.emit(
            ev.ARENA_STARTED,
            cells=len(cells),
            defenses=len(grid.defenses),
            classifiers=len(grid.classifiers),
            conditions=len(grid.conditions),
            seed=grid.seed,
        )
        results: dict[str, dict] = {}
        if spec.resume:
            for cell in cells:
                reused = _matching_cell_result(
                    cells_dir / f"{cell.cell_id}.json", cell, grid
                )
                if reused is not None:
                    results[cell.cell_id] = reused
        pending = [cell for cell in cells if cell.cell_id not in results]
        reused_count = len(results)

        # One order-preserving fan-out, so the event stream follows the grid
        # and a failing cell surfaces as an EngineError naming it.
        scored = BatchExecutor(spec.shard_workers).imap(
            partial(_score_arena_cell, grid),
            pending,
            label=lambda cell: f"arena cell {cell.cell_id}",
        )
        with closing(scored):
            for cell in cells:
                if cell.cell_id in results:
                    result = results[cell.cell_id]
                    state = "reused"
                else:
                    result = next(scored)
                    write_atomic(
                        cells_dir / f"{cell.cell_id}.json", cell_to_json(result)
                    )
                    results[cell.cell_id] = result
                    state = "scored"
                self._emit_cell(result, state)
        report_display = spec.report or str(Path(spec.output) / "report.json")
        report = publish_arena_report(
            [results[cell.cell_id] for cell in cells],
            report_display,
            self._bus.emit,
            self._resolve,
        )
        return JobResult(
            job=spec.KIND,
            artifacts=(
                self._workspace.artifact("arena-report", report_display),
            ),
            summary={
                "cells": len(cells),
                "reused": reused_count,
                "frontier": len(report.frontier),
            },
        )

    def _run_arena_cell(self, spec: ArenaCellJob) -> JobResult:
        """Score one leased arena cell and write its canonical JSON bytes."""
        from repro.arena.cell import cell_to_json, run_cell

        result = run_cell(
            cell_id=spec.cell,
            condition=spec.condition,
            defense=dict(spec.defense) if spec.defense is not None else None,
            classifier=dict(spec.classifier),
            train_count=spec.train_count,
            test_count=spec.test_count,
            seed=spec.seed,
        )
        path = Path(self._resolve(spec.output))
        path.parent.mkdir(parents=True, exist_ok=True)
        write_atomic(path, cell_to_json(result))
        self._emit_cell(result, "scored")
        return JobResult(
            job=spec.KIND,
            artifacts=(self._workspace.artifact("arena-cell", spec.output),),
            summary={
                "cell": spec.cell,
                "choice_accuracy": result["metrics"]["choice_accuracy"],
            },
        )

    # -- fleet coordination ------------------------------------------------

    def _run_serve(self, spec: ServeJob) -> JobResult:
        """Coordinate a fleet run: lease units, collect, stitch, publish.

        The coordinator package is imported lazily because its worker side
        imports this runner — the same seam that keeps the experiments
        package out of every non-``reproduce`` invocation.
        """
        from repro.coordinator.plan import ArenaPlan, FleetPlan
        from repro.coordinator.service import Coordinator

        if spec.arena:
            plan: ArenaPlan | FleetPlan = ArenaPlan(
                defenses=spec.defenses,
                classifiers=spec.classifiers,
                conditions=spec.conditions,
                train_count=spec.train_count,
                test_count=spec.test_count,
                seed=spec.seed,
            )
        else:
            plan = FleetPlan(
                viewers=spec.viewers,
                shards=spec.shards,
                seed=spec.seed,
                margin=spec.margin,
                cross_traffic=spec.cross_traffic,
                write_pcaps=spec.write_pcaps,
            )
        coordinator = Coordinator(
            plan,
            self._bus,
            root=self._workspace.resolve(spec.output),
            library=self._workspace.resolve(spec.library),
            host=spec.host,
            port=spec.port,
            lease_ttl=spec.lease_ttl,
        )
        try:
            summary = coordinator.serve_until_complete()
        except KeyboardInterrupt:
            self._bus.emit(ev.STOPPED)
            return JobResult(job=spec.KIND, summary={"stopped": True})
        if spec.arena:
            artifacts = (
                self._workspace.artifact("arena-cells", spec.output),
                self._workspace.artifact("arena-report", spec.library),
            )
        else:
            artifacts = (
                self._workspace.artifact("dataset", spec.output),
                self._workspace.artifact("library", spec.library),
            )
        return JobResult(
            job=spec.KIND,
            artifacts=artifacts,
            summary=dict(summary),
        )

    def _run_work(self, spec: WorkJob) -> JobResult:
        """Pull and run leased units from a coordinator until it is done."""
        from repro.coordinator.worker import PullWorker

        worker = PullWorker(
            spec.url,
            self._bus,
            worker_id=spec.worker_id,
            scratch=spec.scratch,
            poll_interval=spec.poll_interval,
            max_units=spec.max_units,
        )
        try:
            summary = worker.run()
        except KeyboardInterrupt:
            self._bus.emit(ev.STOPPED)
            return JobResult(job=spec.KIND, summary={"stopped": True})
        return JobResult(job=spec.KIND, summary=dict(summary))

    # -- reproduce ---------------------------------------------------------

    def _run_reproduce(self, spec: ReproduceJob) -> JobResult:
        """Run the paper-reproduction experiments."""
        from repro.experiments import (
            reproduce_baseline_comparison,
            reproduce_defense_ablation,
            reproduce_figure1,
            reproduce_figure2,
            reproduce_headline,
            reproduce_table1,
        )
        from repro.experiments.conditions import figure2_condition_names

        chosen = spec.experiment
        quick = spec.quick
        workers = spec.workers

        if spec.dataset is not None:
            from repro.experiments import reproduce_headline_from_dataset

            if chosen == "all":
                # Don't let the default "--experiment all" silently narrow:
                # say what runs (the other artefacts need simulated
                # condition grids).
                self._bus.emit(
                    ev.NOTE,
                    text=(
                        "note: --dataset drives the headline experiment only; "
                        "table1/figure1/figure2/baselines/defenses need "
                        "simulated runs"
                    ),
                )
            result = reproduce_headline_from_dataset(
                self._resolve(spec.dataset),
                training_sessions_per_environment=1 if quick else 2,
                workers=workers,
            )
            self._bus.emit(
                ev.TABLE,
                title=f"Section V — choice recovery over {spec.dataset}",
                rows=result.rows(),
            )
            self._bus.emit(
                ev.HEADLINE,
                training_sessions=result.training_sessions,
                evaluated_sessions=result.evaluated_sessions,
                worst_case=result.worst_case_accuracy,
                paper_worst_case=result.paper_worst_case_accuracy,
            )
            return JobResult(
                job=spec.KIND,
                summary={"worst_case_accuracy": result.worst_case_accuracy},
            )

        summary: dict[str, object] = {}
        if chosen in ("all", "table1"):
            result = reproduce_table1(viewer_count=20 if quick else 100)
            self._bus.emit(
                ev.TABLE,
                title="Table I — IITM-Bandersnatch attributes",
                rows=result.rows,
                blank_after=True,
            )
        if chosen in ("all", "figure1"):
            result = reproduce_figure1()
            self._bus.emit(
                ev.FIGURE1,
                events=[list(event) for event in result.protocol_events],
                matches=result.matches_paper_description(),
            )
        if chosen in ("all", "figure2"):
            result = reproduce_figure2(
                sessions_per_condition=1 if quick else 4, workers=workers
            )
            names = figure2_condition_names()
            for distribution in result.distributions:
                title = names[distribution.condition.fingerprint_key]
                self._bus.emit(
                    ev.TABLE,
                    title=f"Figure 2 — {title}",
                    rows=distribution.rows(),
                    blank_after=True,
                )
        if chosen in ("all", "headline"):
            result = reproduce_headline(
                sessions_per_condition=2 if quick else 10,
                training_sessions_per_condition=1 if quick else 2,
                workers=workers,
            )
            self._bus.emit(
                ev.TABLE,
                title="Section V — choice recovery accuracy",
                rows=result.rows(),
            )
            self._bus.emit(
                ev.HEADLINE,
                worst_case=result.worst_case_accuracy,
                paper_worst_case=result.paper_worst_case_accuracy,
            )
            summary["worst_case_accuracy"] = result.worst_case_accuracy
        if chosen in ("all", "baselines"):
            result = reproduce_baseline_comparison(
                train_count=2 if quick else 6,
                test_count=2 if quick else 6,
                workers=workers,
            )
            self._bus.emit(
                ev.TABLE,
                title="Ablation A — baselines vs White Mirror",
                rows=result.rows(),
                blank_after=True,
            )
        if chosen in ("all", "defenses"):
            result = reproduce_defense_ablation(
                train_count=2 if quick else 4,
                test_count=2 if quick else 4,
                workers=workers,
            )
            self._bus.emit(
                ev.TABLE,
                title="Ablation B — countermeasures",
                rows=result.rows(),
                blank_after=True,
            )
        return JobResult(job=spec.KIND, summary=summary)


# -- closing steps shared with the coordinator ---------------------------------
#
# ``repro serve`` publishes a fleet plan with these same functions, so its
# artifacts and narration cannot drift from a local stitch, merge or sweep.
# Each takes the event sink as a plain ``emit`` callable (the coordinator
# passes its lock-guarded emit) and the paths as the caller names them in
# events; ``resolve`` maps such a name to where the bytes live.

Emit = Callable[..., None]


def fold_state_files(
    paths: Sequence[str], emit: Emit, resolve: Callable[[str], str] = str
) -> FingerprintAccumulator:
    """Load accumulator states and merge them in order, one ``state-folded``
    event per file; returns the merged state."""
    merged = FingerprintAccumulator()
    for path in paths:
        state = FingerprintAccumulator.load(resolve(path))
        merged.merge(state)
        emit(
            ev.STATE_FOLDED,
            path=path,
            environments=len(state.condition_keys),
            records=state.record_count,
        )
    return merged


def stitch_dataset_root(
    root: str, emit: Emit, resolve: Callable[[str], str] = str
) -> ShardedDataset:
    """Verify a root's shards and publish its ``shards.json``, narrating
    each shard's verdict and the written manifest."""
    from repro.dataset.shards import SHARDS_MANIFEST_FILENAME, stitch_sharded_dataset

    emit(ev.STITCH_STARTED, root=root)
    dataset = stitch_sharded_dataset(
        resolve(root),
        status=lambda shard, state: emit(
            ev.SHARD_COMPLETE,
            shard=shard.dirname,
            viewers=shard.viewer_count,
            state=state,
        ),
    )
    emit(ev.ARTIFACT_WRITTEN, path=str(Path(root) / SHARDS_MANIFEST_FILENAME))
    return dataset


def publish_arena_report(
    cells: Sequence[dict],
    output: str,
    emit: Emit,
    resolve: Callable[[str], str] = str,
) -> ArenaReport:
    """Build the arena report from cell results, show it as a table and
    save it to ``output``; returns the report."""
    from repro.arena.report import ArenaReport

    report = ArenaReport(cells)
    emit(
        ev.TABLE,
        title="Arena — defense × classifier sweep",
        rows=report.rows(),
        blank_after=True,
    )
    report.save(resolve(output))
    emit(ev.ARTIFACT_WRITTEN, path=output, label="arena-report")
    return report


def fingerprint_rows(library: FingerprintLibrary) -> list[dict[str, object]]:
    """The fingerprint-table rows for a library, in environment order."""
    return [
        {
            "environment": key,
            "type1_band": (
                f"{library.get(key).type1_band.low}-"
                f"{library.get(key).type1_band.high}"
            ),
            "type2_band": (
                f"{library.get(key).type2_band.low}-"
                f"{library.get(key).type2_band.high}"
            ),
            "training_records": library.get(key).training_records,
        }
        for key in sorted(library.condition_keys)
    ]


def _matching_cell_result(path: Path, cell, grid) -> dict | None:
    """A previously written cell result, iff it matches the current grid.

    Resume must never trust a stale file: the result is reused only when
    its identity fields (cell id, condition, component specs, counts,
    seed, schema) all equal what the grid would run now.  Anything else —
    unreadable, truncated by SIGKILL mid-write, or from a different sweep
    — is silently re-scored.
    """
    from repro.arena.cell import ARENA_SCHEMA_VERSION

    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError):
        return None
    if not isinstance(data, dict) or not isinstance(data.get("metrics"), dict):
        return None
    expected = {
        "cell": cell.cell_id,
        "condition": cell.condition,
        "defense": cell.defense,
        "classifier": cell.classifier,
        "seed": grid.seed,
        "sessions": {"test": grid.test_count, "train": grid.train_count},
        "schema": ARENA_SCHEMA_VERSION,
    }
    for key, value in expected.items():
        if data.get(key) != value:
            return None
    return data


def _score_arena_cell(grid, cell) -> dict:
    """Score one cell of ``grid`` (module-level, so a pool can run it)."""
    from repro.arena.cell import run_cell

    return run_cell(
        cell_id=cell.cell_id,
        condition=cell.condition,
        defense=cell.defense,
        classifier=cell.classifier,
        train_count=grid.train_count,
        test_count=grid.test_count,
        seed=grid.seed,
    )


def _dataset_seed_from_metadata(metadata: dict) -> int:
    """Seed the dataset was generated from (stored by ``generate-dataset``)."""
    if "seed" not in metadata:
        raise ReproError(
            "dataset metadata does not record its generation seed; "
            "re-run `repro generate-dataset` (or pass the labelled sessions "
            "to WhiteMirrorAttack.train directly)"
        )
    return int(metadata["seed"])


def _choice_rows(result: AttackResult) -> list[dict[str, object]]:
    return [
        {
            "question": event.index + 1,
            "shown_at_s": round(event.question_shown_at, 2),
            "choice": "default" if event.took_default else "NON-DEFAULT",
        }
        for event in result.inferred.events
    ]


def _directory_pcaps(target: Path) -> tuple[Path, list[Path]]:
    """The capture files of a directory target, in name order."""
    pcaps = sorted(target.glob("*.pcap"))
    if not pcaps and (target / "traces").is_dir():
        # A dataset directory was given; its captures live one level down.
        target = target / "traces"
        pcaps = sorted(target.glob("*.pcap"))
    if not pcaps:
        raise ReproError(f"no .pcap files found under {target}")
    return target, pcaps
