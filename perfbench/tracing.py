"""Per-layer self time, measured by wrapping public functions for one run.

The benchmark never edits the code under ``src/``.  For a traced run it
replaces chosen class and module attributes with timing wrappers and puts
the originals back afterwards.  Each wrapper belongs to one layer.  A
stack of open calls gives every layer its *self* time: the time inside its
wrapped calls minus the time spent in wrapped calls of any layer nested
inside them.  The self times therefore add up to the time spent inside
wrapped calls at all; the rest of the wall time is the untraced remainder.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter

#: signature of a post-call hook: hook(args, kwargs, result, elapsed_s)
Hook = Callable[[tuple, dict, Any, float], None]


class LayerTracer:
    """Install timing wrappers, collect self time and call counts."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: inclusive seconds and calls per wrapped function ("Owner.attr")
        self.incl_s: Dict[str, float] = defaultdict(float)
        self.fn_calls: Dict[str, int] = defaultdict(int)
        #: seconds inside wrapped calls that were not nested in another one
        self.top_s = 0.0
        self._stack: List[List[float]] = []  # [start, child seconds]
        #: (owner, attr, original, wrapper) of every wrapped attribute
        self._wrapped: List[Tuple[Any, str, Any, Any]] = []

    def wrap(self, owner: Any, attr: str, layer: str,
             hook: Optional[Hook] = None) -> None:
        """Time ``owner.attr`` as part of ``layer`` until :meth:`restore`."""
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        key = f"{getattr(owner, '__name__', owner)}.{attr}"
        stack = self._stack
        tracer = self

        def timed(*args, **kwargs):
            frame = [_clock(), 0.0]
            stack.append(frame)
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = _clock() - frame[0]
                stack.pop()
                tracer.self_s[layer] += elapsed - frame[1]
                tracer.calls[layer] += 1
                tracer.incl_s[key] += elapsed
                tracer.fn_calls[key] += 1
                if stack:
                    stack[-1][1] += elapsed
                else:
                    tracer.top_s += elapsed
            if hook is not None:
                hook(args, kwargs, result, elapsed)
            return result

        timed.__wrapped__ = original
        self._wrapped.append((owner, attr, original, timed))
        setattr(owner, attr, timed)

    def suspend(self) -> None:
        """Put the originals back for a while; :meth:`resume` re-wraps."""
        for owner, attr, original, _ in reversed(self._wrapped):
            setattr(owner, attr, original)

    def resume(self) -> None:
        for owner, attr, _, timed in self._wrapped:
            setattr(owner, attr, timed)

    def restore(self) -> None:
        """Put every wrapped attribute back for good."""
        self.suspend()
        self._wrapped.clear()

    def __enter__(self) -> "LayerTracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
