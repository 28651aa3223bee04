"""In-order map for the meta sweep.

The benchmark's tracer times the sweep through `parallel.pmap`; this module
stays only until ROADMAP item 1 drops it from the benchmark.
"""

from __future__ import annotations

from typing import Callable, Iterable, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def pmap(fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
    return [fn(x) for x in items]
