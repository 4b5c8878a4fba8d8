"""Deterministic seed derivation for experiment cells and worker streams.

Python's builtin hash is salted per process, so every derived seed goes
through sha256 of the stringified key parts instead.  Identical keys give
identical seeds on any platform, which is what makes sweeps reproducible
independent of worker scheduling: ``parallel_map`` fans work items that
each carry their own derived seed out over worker processes and returns
the results in item order.
"""
from __future__ import annotations

import hashlib
from concurrent import futures

__all__ = ["derive_seed", "parallel_map"]


def derive_seed(*parts) -> int:
    key = "|".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "big")


def parallel_map(fn, items, workers: int = 1) -> list:
    """``[fn(x) for x in items]``, in this process or over ``workers`` processes."""
    items = list(items)
    if workers <= 1:
        return [fn(x) for x in items]
    with futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=max(1, len(items) // (4 * workers))))
