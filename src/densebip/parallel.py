"""Deterministic fan-out of indexed trials across worker processes.

Results are yielded in index order and each trial depends only on its index,
so the outcome is identical for any worker count. Workers receive the shared
arguments once (via the pool initializer) and tasks carry only indices.

Only the `stats` checks fan out; `extract` runs its trials serially.
`concurrent.futures` is imported only when a pool is opened.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

_WORK: tuple[Callable, Any] | None = None


def _init_worker(fn: Callable, args: Any) -> None:
    global _WORK
    _WORK = (fn, args)


def _run_index(index: int):
    fn, args = _WORK  # type: ignore[misc]
    return fn(args, index)


def iter_indexed(
    fn: Callable[[Any, int], Any],
    args: Any,
    count: int,
    workers: int = 1,
) -> Iterator[tuple[int, Any]]:
    """Yield (index, fn(args, index)) for index in range(count), in order.

    With workers > 1, every index goes to a process pool in one `map`, in
    about four chunks per worker: each consumer reads all of the trials, so
    no index is computed in vain. `fn` must be a picklable module-level
    function.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    if workers <= 1 or count <= 1:
        for i in range(count):
            yield i, fn(args, i)
        return
    import concurrent.futures as cf

    chunk = -(-count // (4 * workers))
    with cf.ProcessPoolExecutor(
        max_workers=workers, initializer=_init_worker, initargs=(fn, args)
    ) as pool:
        yield from enumerate(pool.map(_run_index, range(count), chunksize=chunk))
