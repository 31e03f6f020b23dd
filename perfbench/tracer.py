"""In-memory span recorder and the wrappers that feed it.

The benchmark measures the program from outside: it never edits
``repro``.  Tracing works by replacing public functions and methods of
the measured layers with wrappers that record a span around each call,
then putting the originals back.  A span is ``(name, start, end,
parent, op, attrs)``: ``parent`` is the index of the enclosing span on
the same thread, ``op`` is the identifier shared by every span of one
timed operation (one sweep, one open, one served request).

Spans stay in memory until :meth:`Recorder.write` dumps them as JSONL
when the run ends.  Functions called hundreds of thousands of times per
operation (the incremental estimator's moves) get a counting wrapper
instead, which adds calls and seconds to a running total without
keeping a span per call.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

NAME, START, END, PARENT, OP, ATTRS = range(6)


class Recorder:
    """Spans and call totals of one process, plus the patches feeding them."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.totals: Dict[str, List[float]] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._pid = os.getpid()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- spans ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, op: Optional[str] = None, **attrs: Any) -> int:
        """Start a span under the thread's innermost open span."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if op is None and parent is not None:
            op = self.spans[parent][OP]
        record = [name, time.perf_counter(), None, parent, op, attrs]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    def attrs(self, index: int) -> dict:
        return self.spans[index][ATTRS]

    # -- wrappers ------------------------------------------------------

    def _in_owner(self) -> bool:
        # forked pool workers inherit the patched functions; their spans
        # would die with them, so they call straight through
        return os.getpid() == self._pid

    def span_wrapper(
        self,
        fn: Callable,
        name: str,
        hook: Optional[Callable] = None,
        wrap_args: Optional[Callable] = None,
        op_of: Optional[Callable] = None,
    ) -> Callable:
        """Wrap ``fn`` so each call records a span named ``name``.

        ``hook(recorder, index, args, kwargs, result)`` may attach
        attributes after the call; ``wrap_args(recorder, args, kwargs)``
        may replace arguments (to trace a callback passed in);
        ``op_of(args, kwargs)`` names the operation a root span starts.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._in_owner():
                return fn(*args, **kwargs)
            if wrap_args is not None:
                args, kwargs = wrap_args(self, args, kwargs)
            op = op_of(args, kwargs) if op_of is not None else None
            index = self.open(name, op=op)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if hook is not None:
                hook(self, index, args, kwargs, result)
            return result

        return wrapper

    def total_wrapper(self, fn: Callable, name: str) -> Callable:
        """Wrap ``fn`` so each call adds to the ``name`` call/time total.

        For single-threaded hot loops: the total is updated without a
        lock, which is what keeps the wrapper cheap.
        """
        clock = time.perf_counter
        entry = self.totals.setdefault(name, [0, 0.0])
        pid = self._pid

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != pid:
                return fn(*args, **kwargs)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                entry[0] += 1
                entry[1] += clock() - started

        return wrapper

    # -- patching ------------------------------------------------------

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def patch_function(self, module: str, attr: str, replacement_for) -> None:
        """Replace a module-level function in every ``repro`` module.

        Modules that did ``from x import f`` hold their own binding of
        ``f``, and dispatch tables (``repro.partition.ALGORITHMS``) hold
        it as a value; every binding of the same function object is
        patched.
        """
        original = getattr(sys.modules[module], attr)
        replacement = replacement_for(original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self.patch(mod, key, replacement)
                elif isinstance(value, dict) and key.isupper():
                    for entry, fn in list(value.items()):
                        if fn is original:
                            self._patches.append((value, entry, fn))
                            value[entry] = replacement

    def uninstall(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # -- output --------------------------------------------------------

    def write(self, path: str) -> None:
        """Dump every span (and the call totals) as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, attrs in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end,
                         "parent": parent, "op": op, "attrs": attrs},
                        sort_keys=True,
                    )
                    + "\n"
                )
            for name, (calls, seconds) in sorted(self.totals.items()):
                fh.write(
                    json.dumps(
                        {"total": name, "calls": calls, "seconds": seconds},
                        sort_keys=True,
                    )
                    + "\n"
                )


def read_spans(path: str) -> Tuple[List[list], Dict[str, List[float]]]:
    """Load what :meth:`Recorder.write` wrote back into recorder form."""
    spans: List[list] = []
    totals: Dict[str, List[float]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            if "total" in row:
                totals[row["total"]] = [row["calls"], row["seconds"]]
            else:
                spans.append(
                    [row["name"], row["start"], row["end"], row["parent"],
                     row["op"], row["attrs"]]
                )
    return spans, totals
