"""Order-preserving batch execution over a process pool.

:class:`BatchExecutor` is the engine's scheduler: it takes a sequence of
:class:`~repro.engine.plan.SessionPlan` objects (or any picklable items plus
a picklable function, via :meth:`BatchExecutor.map`), fans them out over a
``concurrent.futures.ProcessPoolExecutor``, and returns the results in input
order.  A serial in-process path (``workers=None`` or ``1``) exists both as
the zero-dependency fallback and as the reference the determinism tests
compare parallel runs against.

Batches too large to materialise go through the streaming variants
:meth:`BatchExecutor.imap` / :meth:`BatchExecutor.iexecute`: order-preserving
generators that keep at most a bounded window of items in flight and yield
each result as its input slot completes, with the same failure model and the
same serial/parallel byte-equivalence as the list-returning methods.

Failure model: a plan that raises inside a worker — or a worker process that
dies outright (``BrokenProcessPool``) — surfaces as a single
:class:`repro.exceptions.EngineError` naming the failed item, with the
original exception chained.  The pool is shut down before the error
propagates, so a crashed batch never hangs the caller.
"""

from __future__ import annotations

import os
from collections import deque
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence, Sized, TypeVar

from repro.exceptions import EngineError

if TYPE_CHECKING:
    from concurrent.futures import Future

    from repro.engine.plan import SessionPlan
    from repro.streaming.session import SessionResult

T = TypeVar("T")
R = TypeVar("R")

#: Progress callback signature: ``(completed, total)``.  The streaming
#: methods pass ``total=None`` when the input is an unsized iterable (a live
#: source whose length is unknowable up front).  This is the one progress
#: contract shared across the stack: the dataset generators annotate their
#: ``progress`` parameters with it, and the jobs layer
#: (:class:`repro.jobs.runner.JobRunner`) implements it with adapters that
#: emit structured ``progress`` events on the run's event bus.
ProgressCallback = Callable[[int, "int | None"], None]


def resolve_workers(workers: int | None) -> int:
    """Normalise a worker-count request to an effective pool size.

    ``None`` and ``1`` mean serial execution, ``0`` means one worker per
    available core, any other positive integer is taken literally.
    """
    if workers is None:
        return 1
    if workers < 0:
        raise EngineError(f"worker count must be non-negative, got {workers}")
    if workers == 0:
        return os.cpu_count() or 1
    return int(workers)


def _execute_plan(plan: SessionPlan) -> SessionResult:
    """Module-level worker entry point (must be picklable)."""
    return plan.execute()


class BatchExecutor:
    """Executes batches of session plans, serially or on a process pool.

    Parameters
    ----------
    workers:
        ``None``/``1`` → serial in-process execution; ``0`` → one worker per
        core; ``N > 1`` → a pool of ``N`` processes.
    """

    def __init__(self, workers: int | None = None) -> None:
        self._workers = resolve_workers(workers)

    @property
    def workers(self) -> int:
        """The effective worker count this executor runs with."""
        return self._workers

    @property
    def parallel(self) -> bool:
        """Whether this executor uses a process pool."""
        return self._workers > 1

    def execute(
        self,
        plans: Sequence[SessionPlan],
        progress: ProgressCallback | None = None,
    ) -> list[SessionResult]:
        """Simulate every plan and return the results in plan order."""
        return self.map(_execute_plan, plans, progress=progress, label=_describe_plan)

    def iexecute(
        self,
        plans: Iterable[SessionPlan],
        progress: ProgressCallback | None = None,
        window: int | None = None,
    ) -> Iterator[SessionResult]:
        """Streaming variant of :meth:`execute`: yield results in plan order.

        See :meth:`imap` for the windowing and failure semantics.
        """
        return self.imap(
            _execute_plan, plans, progress=progress, label=_describe_plan, window=window
        )

    def map(
        self,
        function: Callable[[T], R],
        items: Sequence[T],
        progress: ProgressCallback | None = None,
        label: Callable[[T], str] | None = None,
    ) -> list[R]:
        """Apply ``function`` to every item, preserving input order.

        On the parallel path both ``function`` and the items must be
        picklable (module-level functions and ``functools.partial`` of them
        qualify).  Failures are wrapped into :class:`EngineError` exactly as
        for :meth:`execute`.
        """
        items = list(items)
        if not self.parallel or len(items) <= 1:
            return self._run_serial(function, items, progress, label)
        return self._run_parallel(function, items, progress, label)

    def imap(
        self,
        function: Callable[[T], R],
        items: Iterable[T],
        progress: ProgressCallback | None = None,
        label: Callable[[T], str] | None = None,
        window: int | None = None,
    ) -> Iterator[R]:
        """Lazily apply ``function`` to every item, preserving input order.

        The streaming counterpart of :meth:`map`: an order-preserving
        generator that yields each result as soon as its *input slot* has
        completed, instead of materialising the whole batch.  On the parallel
        path at most ``window`` items (default ``2 × workers``) are in flight
        at once, so memory stays bounded by the window however long the input
        is; on the serial path items are executed one ``next()`` at a time.

        ``items`` may be any iterable, including an unbounded generator (the
        live capture-ingest path feeds one): the input is consumed lazily —
        never materialised — pulling just far enough ahead to keep the
        in-flight window full, so producing an item (resolving a capture,
        building a task) pipelines with executing earlier ones.

        Failures follow the :meth:`execute` model — the first failed item
        surfaces as a single :class:`EngineError` naming it, outstanding
        futures are cancelled and the pool is shut down before the error
        propagates.  Abandoning the generator early also shuts the pool down.
        Because the items carry their own seeds, serial and parallel
        iteration produce byte-identical results in the same order.

        ``progress`` is invoked as ``(yielded, total)`` each time a result
        is handed to the consumer; ``total`` is ``None`` when ``items`` is
        not sized.
        """
        total = len(items) if isinstance(items, Sized) else None
        if not self.parallel or (total is not None and total <= 1):
            return self._iter_serial(function, items, total, progress, label)
        return self._iter_parallel(function, items, total, progress, label, window)

    # -- internal ----------------------------------------------------------

    def _run_serial(
        self,
        function: Callable[[T], R],
        items: list[T],
        progress: ProgressCallback | None,
        label: Callable[[T], str] | None,
    ) -> list[R]:
        results: list[R] = []
        for index, item in enumerate(items):
            try:
                results.append(function(item))
            except EngineError:
                raise
            except Exception as error:
                raise _wrap_failure(index, item, label, error, serial=True) from error
            if progress is not None:
                progress(index + 1, len(items))
        return results

    def _run_parallel(
        self,
        function: Callable[[T], R],
        items: list[T],
        progress: ProgressCallback | None,
        label: Callable[[T], str] | None,
    ) -> list[R]:
        # The pool machinery loads only when a pool is built: serial runs,
        # and every import of the library, never pay for it.
        from concurrent.futures import ProcessPoolExecutor, as_completed

        results: list[R | None] = [None] * len(items)
        with ProcessPoolExecutor(max_workers=min(self._workers, len(items))) as pool:
            futures: dict[Future, int] = {
                pool.submit(function, item): index for index, item in enumerate(items)
            }
            # Harvest in completion order so progress reflects work actually
            # done (input-order harvesting would stall the callback on a slow
            # early item); results still land in their input slots.
            completed = 0
            for future in as_completed(futures):
                index = futures[future]
                try:
                    results[index] = future.result()
                except Exception as error:
                    # Cancel whatever has not started; the context manager
                    # joins the pool so the error never leaves orphans.
                    for pending in futures:
                        pending.cancel()
                    if isinstance(error, EngineError):
                        raise
                    raise _wrap_failure(
                        index, items[index], label, error, serial=False
                    ) from error
                completed += 1
                if progress is not None:
                    progress(completed, len(items))
        return results  # type: ignore[return-value]

    def _iter_serial(
        self,
        function: Callable[[T], R],
        items: Iterable[T],
        total: int | None,
        progress: ProgressCallback | None,
        label: Callable[[T], str] | None,
    ) -> Iterator[R]:
        for index, item in enumerate(items):
            try:
                result = function(item)
            except EngineError:
                raise
            except Exception as error:
                raise _wrap_failure(index, item, label, error, serial=True) from error
            if progress is not None:
                progress(index + 1, total)
            yield result

    def _iter_parallel(
        self,
        function: Callable[[T], R],
        items: Iterable[T],
        total: int | None,
        progress: ProgressCallback | None,
        label: Callable[[T], str] | None,
        window: int | None,
    ) -> Iterator[R]:
        if window is None:
            window = 2 * self._workers
        if window < 1:
            raise EngineError(f"in-flight window must be positive, got {window}")
        source = iter(items)
        try:
            first_item = next(source)
        except StopIteration:
            return  # no pool spawned for an empty lazy source
        from concurrent.futures import ProcessPoolExecutor

        workers = self._workers if total is None else min(self._workers, total)
        pool = ProcessPoolExecutor(max_workers=workers)
        # Futures ride with their item and input index so a failure can be
        # named without ever materialising the input sequence.
        in_flight: deque[tuple[int, T, Future]] = deque()
        in_flight.append((0, first_item, pool.submit(function, first_item)))
        next_index = 1
        yielded = 0

        def submit_next() -> bool:
            nonlocal next_index
            try:
                item = next(source)
            except StopIteration:
                return False
            in_flight.append((next_index, item, pool.submit(function, item)))
            next_index += 1
            return True

        try:
            while len(in_flight) < window and submit_next():
                pass
            while in_flight:
                index, item, future = in_flight.popleft()
                try:
                    result = future.result()
                except Exception as error:
                    for _, _, pending in in_flight:
                        pending.cancel()
                    if isinstance(error, EngineError):
                        raise
                    raise _wrap_failure(
                        index, item, label, error, serial=False
                    ) from error
                submit_next()
                yielded += 1
                if progress is not None:
                    progress(yielded, total)
                yield result
        finally:
            # Runs on exhaustion, failure and abandonment alike: nothing the
            # consumer does can leave orphaned worker processes behind.
            pool.shutdown(wait=True, cancel_futures=True)


def _describe_plan(plan: SessionPlan) -> str:
    return plan.describe()


def _wrap_failure(
    index: int,
    item: object,
    label: Callable[[T], str] | None,
    error: Exception,
    serial: bool,
) -> EngineError:
    name = label(item) if label is not None else f"item {index}"  # type: ignore[arg-type]
    where = "in-process" if serial else "in a worker process"
    return EngineError(
        f"batch item {index} ({name}) failed {where}: "
        f"{type(error).__name__}: {error}"
    )
