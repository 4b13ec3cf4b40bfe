"""Pluggable execution backends for the :class:`CodecEngine`.

Executors are thin adapters over :class:`repro.runtime.TaskRuntime` —
one dispatcher supplies the serial/thread/process backends, per-task
retry, and completion events, while this module keeps the public
surface the pipeline has always had: the ordered :meth:`Executor.map`
contract, the ``EXECUTORS`` registry, and :func:`get_executor`.
Journal-aware callers (the engine's resumable sweeps) use
:meth:`Executor.run_tasks` to dispatch explicit
:class:`~repro.runtime.Task` records with completion callbacks.

``serial``
    Inline execution in the calling thread.  The reference semantics
    every other backend must reproduce byte-for-byte.
``thread``
    :class:`~concurrent.futures.ThreadPoolExecutor`.  NumPy kernels
    release the GIL, so threads scale the matrix-heavy codecs without
    any serialization cost.  Work marked ``holds_gil`` (the rule-based
    codecs' pure-Python loops) runs in the calling thread instead:
    pool threads would only take turns on the GIL.
``process``
    :class:`~concurrent.futures.ProcessPoolExecutor` (``fork`` context
    where available).  Sidesteps the GIL for the pure-Python codec hot
    loops; work items must be picklable, which is why the engine ships
    codec/dataset *specs* (see :attr:`Executor.wants_specs`) and lets
    workers rebuild them.  The pool is created lazily and kept warm
    across batches, amortizing the fork cost over a whole sweep.

All three produce **ordered** results and propagate worker exceptions
to the caller, so swapping backends never changes observable behavior
— only wall-clock.

``close()`` is idempotent and exception-safe on every backend, and is
*not* terminal — a later ``map`` lazily rebuilds the pool.  There is
deliberately no ``__del__`` anywhere: GC-timing-dependent finalizers
race interpreter shutdown, so lifecycle is explicit (``with`` or
``close()``).
"""

from __future__ import annotations

from typing import (Callable, Dict, List, Optional, Sequence, Type, TypeVar,
                    Union)

from ..runtime import Task, TaskOutcome, TaskRuntime, default_workers
from ..runtime.runtime import EventFn, ResultFn

T = TypeVar("T")
U = TypeVar("U")

__all__ = ["Executor", "SerialExecutor", "ThreadExecutor",
           "ProcessExecutor", "get_executor", "list_executors",
           "default_workers", "EXECUTORS"]


class Executor:
    """Ordered-map strategy over a batch of independent work items.

    ``max_workers`` is an upper bound; the runtime clamps the actual
    pool width to the number of items (no idle workers for small
    batches).
    """

    #: registry name (set on subclasses)
    name: str = "abstract"
    #: True if work must be shipped as picklable *specs* that workers
    #: rebuild (process pools), rather than live object references.
    wants_specs: bool = False

    def __init__(self, max_workers: Optional[int] = None):
        if max_workers is None:
            max_workers = default_workers()
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.max_workers = max_workers
        self._runtime = self._build_runtime()

    def _build_runtime(self) -> TaskRuntime:
        return TaskRuntime(mode=self.name, max_workers=self.max_workers,
                           name=f"repro-{self.name}")

    @property
    def runtime(self) -> TaskRuntime:
        """The underlying shared task runtime."""
        return self._runtime

    def map(self, fn: Callable[[T], U], items: Sequence[T], *,
            holds_gil: bool = False) -> List[U]:
        """Apply ``fn`` to every item, preserving order.

        Exceptions raised by ``fn`` propagate to the caller exactly as
        in the serial path.  ``holds_gil`` marks pure-Python work,
        which the thread backend runs in the calling thread (see
        :meth:`~repro.runtime.TaskRuntime.run`).
        """
        return self._runtime.map(fn, items, holds_gil=holds_gil)

    def run_tasks(self, tasks: Sequence[Task],
                  on_result: Optional[ResultFn] = None,
                  on_event: Optional[EventFn] = None, *,
                  holds_gil: bool = False) -> List[TaskOutcome]:
        """Dispatch explicit task records with completion callbacks.

        ``on_result`` fires per task in completion order (before that
        task's ``completed`` event) — the seam the sweep journal hooks.
        """
        return self._runtime.run(tasks, on_result=on_result,
                                 on_event=on_event, holds_gil=holds_gil)

    def close(self) -> None:
        """Release pooled resources; idempotent and exception-safe."""
        runtime = getattr(self, "_runtime", None)
        if runtime is not None:
            runtime.close()

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<{type(self).__name__} {self.name!r} "
                f"max_workers={self.max_workers}>")


class SerialExecutor(Executor):
    """In-process, in-order execution (the reference backend)."""

    name = "serial"


class ThreadExecutor(Executor):
    """Thread-pool execution; zero serialization, GIL-sharing."""

    name = "thread"


class ProcessExecutor(Executor):
    """Process-pool execution; work ships as picklable specs.

    The underlying pool is created on first use and reused across
    :meth:`map` calls (fork cost is paid once per sweep, not per
    batch).  Unlike threads — which may oversubscribe usefully while
    peers block in GIL-releasing kernels — process workers are fully
    CPU-bound, so the runtime additionally clamps the pool width to
    the core count.
    """

    name = "process"
    wants_specs = True

    def __init__(self, max_workers: Optional[int] = None,
                 mp_context: Optional[str] = None):
        self._mp_context = mp_context
        super().__init__(max_workers)
        self.mp_context = self._runtime.mp_context

    def _build_runtime(self) -> TaskRuntime:
        return TaskRuntime(mode="process", max_workers=self.max_workers,
                           mp_context=self._mp_context,
                           name="repro-process")


EXECUTORS: Dict[str, Type[Executor]] = {
    SerialExecutor.name: SerialExecutor,
    ThreadExecutor.name: ThreadExecutor,
    ProcessExecutor.name: ProcessExecutor,
}


def list_executors() -> List[str]:
    """Sorted names of every execution backend."""
    return sorted(EXECUTORS)


def get_executor(executor: Union[str, Executor],
                 max_workers: Optional[int] = None) -> Executor:
    """Resolve a backend name (or pass through an instance).

    An already-built :class:`Executor` is returned as-is — it carries
    its own ``max_workers``.
    """
    if isinstance(executor, Executor):
        return executor
    key = str(executor).strip().lower()
    cls = EXECUTORS.get(key)
    if cls is None:
        known = ", ".join(sorted(EXECUTORS))
        raise KeyError(f"unknown executor {executor!r}; "
                       f"registered: {known}")
    return cls(max_workers=max_workers)
