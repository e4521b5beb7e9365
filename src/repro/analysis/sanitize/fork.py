"""The ``fork`` sanitizer (RS003): workers must not mutate their inputs.

Under the fork start method a pool worker operates on a copy-on-write
snapshot: anything it writes into its input is silently thrown away when
the task returns.  Code that "works" only because a worker mutated its
argument is therefore a latent bug — it breaks the moment the map runs
serially, or appears to work in the parent for the wrong reason.  This
sanitizer checks that workers are pure: every item submitted through
:func:`repro.parallel.pool.stream_map` (and so through ``parallel_map``
and ``sharded_accumulate``) is content-fingerprinted in the parent as
the stream pulls it, re-fingerprinted by the worker after the task
body runs (the hash rides back alongside the result), and a mismatch is
recorded as an RS003 trap naming the mapped function.  The serial
fallback path runs through the same wrapper, so in-process mutation of
inputs is caught identically.

Only NumPy buffers are fingerprinted — scalars and strings are
immutable, and hashing arbitrary objects from a worker would cost more
than the check is worth.  Items without any ndarray content hash to a
sentinel and always compare equal.
"""

from __future__ import annotations

import hashlib
from collections import deque
from typing import Any, Callable, Deque, Iterable, Iterator, List, Optional

import numpy as np

from .runtime import caller_site, patch_everywhere, record_trap

__all__ = ["arm", "item_digest", "HashedCall"]

#: Buffer attributes probed on duck-typed kernel objects.
_KERNEL_ATTRS = ("keys", "vals", "rows", "cols", "row", "col")


def _arrays_of(item: Any, depth: int = 2) -> List[np.ndarray]:
    """Every ndarray reachable from ``item`` (shallow, duck-typed)."""
    if isinstance(item, np.ndarray):
        return [item]
    out: List[np.ndarray] = []
    if depth <= 0:
        return out
    if isinstance(item, (list, tuple)):
        for sub in item:
            out.extend(_arrays_of(sub, depth - 1))
        return out
    if isinstance(item, dict):
        for sub in item.values():
            out.extend(_arrays_of(sub, depth - 1))
        return out
    for attr in _KERNEL_ATTRS:
        arr = getattr(item, attr, None)
        if isinstance(arr, np.ndarray):
            out.append(arr)
    return out


def item_digest(item: Any) -> Optional[str]:
    """Content hash of the item's ndarray buffers; None when it has none."""
    arrays = _arrays_of(item)
    if not arrays:
        return None
    h = hashlib.sha256()
    for arr in arrays:
        h.update(str(arr.dtype).encode())
        h.update(str(arr.shape).encode())
        if arr.dtype.hasobject:
            h.update(repr(arr.tolist()).encode())
        else:
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


class HashedCall:
    """Picklable wrapper returning ``(fn(item), post-call digest)``.

    The digest is computed *in the worker*, after the task body ran, so
    the parent can compare it against the pre-dispatch digest and detect
    writes that fork semantics would otherwise hide completely.
    """

    def __init__(self, fn: Callable[[Any], Any]):
        self.fn = fn

    def __call__(self, item: Any) -> Any:
        result = self.fn(item)
        return result, item_digest(item)


def _checked_stream_map(orig: Callable[..., Any]) -> Callable[..., Any]:
    """Wrap ``stream_map`` with the two-sided fingerprint protocol."""

    def stream_map(
        fn: Callable[[Any], Any], items: Iterable[Any], **kwargs: Any
    ) -> Iterator[Any]:
        site = caller_site(skip_extra=("repro/parallel/",))
        fn_name = getattr(fn, "__name__", None) or type(fn).__name__
        # The stream pulls items lazily and yields in item order, so the
        # pre-dispatch digests queue up in the order results come back.
        pre: Deque[Optional[str]] = deque()

        def fingerprinted() -> Iterator[Any]:
            for x in items:
                pre.append(item_digest(x))
                yield x

        paired = orig(HashedCall(fn), fingerprinted(), **kwargs)
        for i, (result, post) in enumerate(paired):
            if pre.popleft() != post:
                record_trap(
                    "fork",
                    f"worker mutated its input (item {i} of a "
                    f"stream_map over {fn_name}); under fork the write "
                    "is silently discarded in the parent",
                    site=site,
                )
            yield result

    return stream_map


def arm() -> Callable[[], None]:
    """Arm the fork sanitizer; returns the undo closure.

    Wraps :func:`repro.parallel.pool.stream_map`, the pool's one
    dispatch path: ``parallel_map`` and ``sharded_accumulate`` both
    reach the workers through it.
    """
    from ...parallel import pool

    orig = pool.stream_map
    return patch_everywhere(orig, _checked_stream_map(orig))
