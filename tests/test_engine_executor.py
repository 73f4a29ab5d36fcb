"""Engine contract tests: ordering, serial/parallel determinism, failure surfacing."""

from __future__ import annotations

import time

import pytest

from repro.core.pipeline import WhiteMirrorAttack
from repro.dataset.collection import collect_dataset
from repro.dataset.population import generate_population
from repro.engine import BatchExecutor, EngineError, SessionPlan
from repro.exceptions import ReproError
from repro.streaming.session import SessionConfig
from repro.utils.rng import derive_seed


@pytest.fixture(scope="module")
def quick_config() -> SessionConfig:
    return SessionConfig(cross_traffic_enabled=False)


@pytest.fixture(scope="module")
def engine_plans(minimal_graph, ubuntu_condition, default_behavior, quick_config):
    """Four small, independently seeded plans over the minimal script."""
    return [
        SessionPlan(
            graph=minimal_graph,
            condition=ubuntu_condition,
            behavior=default_behavior,
            seed=derive_seed(77, "engine-test", index),
            config=quick_config,
            session_id=f"engine-{index}",
        )
        for index in range(4)
    ]


@pytest.fixture(scope="module")
def serial_results(engine_plans):
    return BatchExecutor().execute(engine_plans)


@pytest.fixture(scope="module")
def parallel_results(engine_plans):
    return BatchExecutor(workers=2).execute(engine_plans)


class TestWorkerResolution:
    def test_none_and_one_are_serial(self):
        assert not BatchExecutor().parallel
        assert not BatchExecutor(workers=1).parallel
        assert BatchExecutor().workers == 1

    def test_zero_means_all_cores(self):
        assert BatchExecutor(workers=0).workers >= 1

    def test_negative_rejected(self):
        with pytest.raises(EngineError, match="non-negative"):
            BatchExecutor(workers=-2)

    def test_engine_error_is_repro_error(self):
        assert issubclass(EngineError, ReproError)


class TestPlanOrderPreservation:
    def test_parallel_results_in_plan_order(self, engine_plans, parallel_results):
        assert [result.session_id for result in parallel_results] == [
            plan.session_id for plan in engine_plans
        ]

    def test_progress_reaches_total(self, engine_plans):
        seen: list[tuple[int, int]] = []
        BatchExecutor(workers=2).execute(
            engine_plans, progress=lambda done, total: seen.append((done, total))
        )
        assert seen[-1] == (len(engine_plans), len(engine_plans))
        assert [done for done, _total in seen] == sorted(done for done, _total in seen)

    def test_parallel_progress_reports_completions_as_they_happen(self, tmp_path):
        # Item 0 is slow and touches a sentinel file when it finishes; with
        # two workers the fast items finish first, so the first progress
        # callback must arrive while the sentinel is still absent — the old
        # input-order harvesting stalled every callback behind the slow
        # head-of-line item.  (Sentinel, not wall clock: pool startup time
        # on a loaded machine must not flip the outcome.)
        sentinel = tmp_path / "slow-item-done"
        items = [(1.5, str(sentinel)), (0.0, ""), (0.0, ""), (0.0, "")]
        sentinel_seen_at_callback: list[bool] = []
        results = BatchExecutor(workers=2).map(
            _sleep_then_touch,
            items,
            progress=lambda done, total: sentinel_seen_at_callback.append(
                sentinel.exists()
            ),
        )
        assert results == [seconds for seconds, _path in items]  # input-ordered
        assert len(sentinel_seen_at_callback) == len(items)
        assert sentinel_seen_at_callback[0] is False
        assert sentinel_seen_at_callback[-1] is True


class TestSerialParallelDeterminism:
    def test_results_byte_identical(self, serial_results, parallel_results):
        assert [r.fingerprint() for r in serial_results] == [
            r.fingerprint() for r in parallel_results
        ]
        assert serial_results == parallel_results

    def test_plan_matches_direct_simulation(self, engine_plans, serial_results):
        # A plan executed anywhere reproduces simulate_session exactly.
        assert engine_plans[0].execute().fingerprint() == serial_results[0].fingerprint()

    def test_headline_parallel_matches_serial(
        self, minimal_graph, ubuntu_condition, windows_condition
    ):
        from repro.experiments.headline import reproduce_headline

        kwargs = dict(
            sessions_per_condition=1,
            training_sessions_per_condition=1,
            conditions=[ubuntu_condition, windows_condition],
            graph=minimal_graph,
        )
        serial = reproduce_headline(**kwargs)
        parallel = reproduce_headline(workers=2, **kwargs)
        assert serial == parallel

    def test_collect_dataset_parallel_matches_serial(self):
        viewers = generate_population(3, seed=5)
        serial = collect_dataset(viewers, dataset_seed=5)
        parallel = collect_dataset(viewers, dataset_seed=5, workers=2)
        assert [p.session.fingerprint() for p in serial] == [
            p.session.fingerprint() for p in parallel
        ]
        assert serial == parallel

    def test_evaluate_sessions_parallel_matches_serial(self, minimal_graph, serial_results):
        attack = WhiteMirrorAttack(graph=minimal_graph)
        attack.train(serial_results)
        serial = attack.evaluate_sessions(serial_results)
        # An explicit worker count enables the pool.
        assert attack.evaluate_sessions(serial_results, workers=2) == serial

    def test_attack_batch_parallel_matches_serial(self, minimal_graph, serial_results):
        attack = WhiteMirrorAttack(graph=minimal_graph)
        attack.train(serial_results)
        serial = attack.attack_batch(serial_results)
        parallel = attack.attack_batch(serial_results, workers=2)
        assert serial == parallel


class TestStreamingImap:
    def test_iexecute_matches_execute_serial_and_parallel(
        self, engine_plans, serial_results
    ):
        streamed_serial = list(BatchExecutor().iexecute(engine_plans))
        streamed_parallel = list(BatchExecutor(workers=2).iexecute(engine_plans))
        assert [r.fingerprint() for r in streamed_serial] == [
            r.fingerprint() for r in serial_results
        ]
        assert streamed_serial == serial_results
        assert streamed_parallel == serial_results

    def test_results_yielded_in_input_order(self, engine_plans):
        streamed = BatchExecutor(workers=2).iexecute(engine_plans)
        assert [result.session_id for result in streamed] == [
            plan.session_id for plan in engine_plans
        ]

    def test_serial_imap_is_lazy(self):
        calls: list[int] = []

        def record(item: int) -> int:
            calls.append(item)
            return item * 2

        iterator = BatchExecutor().imap(record, [1, 2, 3])
        assert calls == []
        assert next(iterator) == 2
        assert calls == [1]
        assert list(iterator) == [4, 6]
        assert calls == [1, 2, 3]

    def test_imap_matches_map(self):
        items = list(range(7))
        serial = BatchExecutor().map(_double, items)
        assert list(BatchExecutor().imap(_double, items)) == serial
        assert list(BatchExecutor(workers=2).imap(_double, items)) == serial

    def test_bounded_window_still_complete_and_ordered(self):
        items = list(range(9))
        streamed = BatchExecutor(workers=2).imap(_double, items, window=2)
        assert list(streamed) == [item * 2 for item in items]

    def test_invalid_window_rejected(self):
        with pytest.raises(EngineError, match="window"):
            list(BatchExecutor(workers=2).imap(_double, [1, 2, 3], window=0))

    def test_imap_progress_reaches_total(self, engine_plans):
        seen: list[tuple[int, int]] = []
        list(
            BatchExecutor(workers=2).iexecute(
                engine_plans, progress=lambda done, total: seen.append((done, total))
            )
        )
        assert seen[-1] == (len(engine_plans), len(engine_plans))
        assert [done for done, _total in seen] == sorted(done for done, _total in seen)

    def test_imap_failure_names_the_item(self):
        with pytest.raises(EngineError, match="item 1"):
            list(BatchExecutor().imap(_fails_on_two, [1, 2, 3]))
        with pytest.raises(EngineError, match="item 1"):
            list(BatchExecutor(workers=2).imap(_fails_on_two, [1, 2, 3]))

    def test_iexecute_failure_names_the_plan(
        self, engine_plans, minimal_graph, ubuntu_condition, default_behavior, quick_config
    ):
        bad = SessionPlan(
            graph=minimal_graph,
            condition=ubuntu_condition,
            behavior=default_behavior,
            seed=-1,
            config=quick_config,
            session_id="bad-stream",
        )
        with pytest.raises(EngineError, match="bad-stream"):
            list(BatchExecutor(workers=2).iexecute(engine_plans[:1] + [bad]))

    def test_abandoning_the_generator_shuts_the_pool_down(self, engine_plans):
        iterator = BatchExecutor(workers=2).iexecute(engine_plans)
        first = next(iterator)
        assert first.session_id == engine_plans[0].session_id
        iterator.close()  # must not hang or leak worker processes


class TestFailureSurfacing:
    def test_worker_failure_raises_engine_error(
        self, engine_plans, minimal_graph, ubuntu_condition, default_behavior, quick_config
    ):
        # A negative seed is rejected inside the worker; the batch must fail
        # with one clear engine error naming the plan, not hang.
        bad = SessionPlan(
            graph=minimal_graph,
            condition=ubuntu_condition,
            behavior=default_behavior,
            seed=-1,
            config=quick_config,
            session_id="bad-plan",
        )
        with pytest.raises(EngineError, match="bad-plan"):
            BatchExecutor(workers=2).execute(engine_plans[:1] + [bad])

    def test_serial_failure_raises_engine_error(
        self, minimal_graph, ubuntu_condition, default_behavior, quick_config
    ):
        bad = SessionPlan(
            graph=minimal_graph,
            condition=ubuntu_condition,
            behavior=default_behavior,
            seed=-1,
            config=quick_config,
            session_id="bad-serial",
        )
        with pytest.raises(EngineError, match="bad-serial"):
            BatchExecutor().execute([bad])

    def test_map_wraps_function_errors(self):
        with pytest.raises(EngineError, match="item 0"):
            BatchExecutor().map(_always_fails, [1, 2, 3])


def _always_fails(_item: int) -> None:
    raise ValueError("synthetic failure")


def _double(item: int) -> int:
    return item * 2


def _fails_on_two(item: int) -> int:
    if item == 2:
        raise ValueError("synthetic failure on 2")
    return item


def _sleep_then_touch(item: tuple[float, str]) -> float:
    seconds, path = item
    time.sleep(seconds)
    if path:
        with open(path, "w", encoding="utf-8"):
            pass
    return seconds


class TestLazyIterableImap:
    """``imap`` consumes arbitrary iterables lazily — the live-ingest shape."""

    def test_generator_input_matches_list_input(self):
        items = list(range(9))
        expected = [item * 2 for item in items]
        assert list(BatchExecutor().imap(_double, iter(items))) == expected
        assert list(BatchExecutor(workers=2).imap(_double, iter(items))) == expected

    def test_unsized_input_reports_total_none(self):
        totals: list[object] = []
        list(
            BatchExecutor(workers=2).imap(
                _double, iter(range(4)), progress=lambda done, total: totals.append(total)
            )
        )
        assert totals == [None] * 4
        totals.clear()
        list(
            BatchExecutor(workers=2).imap(
                _double, list(range(4)), progress=lambda done, total: totals.append(total)
            )
        )
        assert totals == [4] * 4

    def test_empty_lazy_input_yields_nothing(self):
        assert list(BatchExecutor().imap(_double, iter(()))) == []
        assert list(BatchExecutor(workers=2).imap(_double, iter(()))) == []

    def test_parallel_pull_ahead_is_bounded_by_the_window(self):
        pulled: list[int] = []

        def source():
            for item in range(20):
                pulled.append(item)
                yield item

        iterator = BatchExecutor(workers=2).imap(_double, source(), window=3)
        first = next(iterator)
        assert first == 0
        # After one yield the producer has been asked for at most the
        # window plus the slot freed by the yield — never the whole input.
        assert len(pulled) <= 5
        assert list(iterator) == [item * 2 for item in range(1, 20)]
        assert pulled == list(range(20))

    def test_serial_lazy_input_interleaves_pull_and_apply(self):
        events: list[str] = []

        def source():
            for item in range(3):
                events.append(f"pull-{item}")
                yield item

        def apply(item: int) -> int:
            events.append(f"apply-{item}")
            return item

        assert list(BatchExecutor().imap(apply, source())) == [0, 1, 2]
        assert events == [
            "pull-0", "apply-0", "pull-1", "apply-1", "pull-2", "apply-2",
        ]

    def test_failure_in_lazy_input_names_the_item(self):
        with pytest.raises(EngineError, match="item 1"):
            list(BatchExecutor(workers=2).imap(_fails_on_two, iter([1, 2, 3])))
