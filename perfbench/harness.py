"""Shared plumbing of the benchmark: checks, process readers, tracing.

Nothing here imports the program under test; the workload modules do.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional

CLOCK_TICKS = os.sysconf("SC_CLK_TCK")

#: Environment variables that size the BLAS / OpenMP thread pools.  The
#: benchmark pins all of them to one thread so that its load stays within
#: the two cores the figures in README.md were taken on.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class CheckFailed(AssertionError):
    """A correctness check of the benchmark failed."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def checked(function, *args):
    """``(True, result)``, or ``(False, None)`` with the failed check on
    stderr."""
    try:
        return True, function(*args)
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return False, None


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


# ---------------------------------------------------------- /proc readers
def _status_field(pid: int, field: str) -> Optional[int]:
    """A ``kB`` field of ``/proc/<pid>/status`` in kB (None when gone)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except (FileNotFoundError, ProcessLookupError):
        return None
    return None


def peak_rss_mb(pids: Iterable[int]) -> float:
    """Summed ``VmHWM`` (peak resident set) of ``pids``, in MiB."""
    total_kb = 0
    for pid in pids:
        value = _status_field(pid, "VmHWM")
        if value is not None:
            total_kb += value
    return total_kb / 1024.0


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time of ``pid`` (0.0 when it is gone)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            text = handle.read()
    except (FileNotFoundError, ProcessLookupError):
        return 0.0
    # The command name may hold spaces; the fields after it are fixed.
    fields = text[text.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS


def child_pids(pid: int) -> List[int]:
    """Direct children of ``pid``, from every thread's children list."""
    children: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except FileNotFoundError:
        return children
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                children.extend(int(p) for p in handle.read().split())
        except FileNotFoundError:
            continue
    return children


def descendant_pids(pid: int) -> List[int]:
    found: List[int] = []
    frontier = [pid]
    while frontier:
        current = frontier.pop()
        for child in child_pids(current):
            if child not in found:
                found.append(child)
                frontier.append(child)
    return found


def pid_alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError, IndexError):
        return False
    return state != "Z"


def stop_helper_processes() -> None:
    """Stop the helper processes multiprocessing started in this process
    (the forkserver and the resource tracker), waiting for each to end,
    and run its exit-time clean-up now, while its temporary directory
    still exists."""
    from multiprocessing import forkserver, resource_tracker, util

    forkserver._forkserver._stop()
    resource_tracker._resource_tracker._stop()
    util._run_finalizers()


# ------------------------------------------------------------ environment
def source_digest(src_dir: str) -> str:
    """SHA-256 over every ``.py`` file under ``src_dir`` (path + bytes)."""
    hasher = hashlib.sha256()
    for root, dirs, files in os.walk(src_dir):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(root, name)
            hasher.update(os.path.relpath(path, src_dir).encode("utf-8"))
            with open(path, "rb") as handle:
                hasher.update(handle.read())
    return hasher.hexdigest()[:16]


def git_commit(repo_root: str) -> Optional[str]:
    """The checked-out commit, read from ``.git`` (None outside a clone)."""
    head_path = os.path.join(repo_root, ".git", "HEAD")
    try:
        with open(head_path) as handle:
            head = handle.read().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(repo_root, ".git", ref)) as handle:
            return handle.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(repo_root, ".git", "packed-refs")) as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def environment_record(repo_root: str, seed: int, knobs: Dict[str, object]) -> Dict[str, object]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "sched_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS[:3]},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "seed": seed,
        "knobs": knobs,
        "git_commit": git_commit(repo_root),
        "src_digest": source_digest(os.path.join(repo_root, "src")),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------- tracing
class Span:
    __slots__ = ("name", "start", "end", "parent", "request_id")

    def __init__(self, name, start, parent, request_id):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request_id = request_id


class Tracer:
    """In-memory span recorder wrapped around the program's public calls.

    Spans nest per thread: a span opened while another is open on the same
    thread records it as its parent and inherits its request id.  Nothing
    is written until :meth:`write` is called at the end of the run.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Callable[[], None]] = []

    # ------------------------------------------------------------ spans
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request_id: Optional[int] = None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request_id is None and parent is not None:
            request_id = parent.request_id
        record = Span(name, time.perf_counter(), parent, request_id)
        stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0.0) + amount

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open on this thread."""
        return any(span.name == name for span in self._stack())

    # -------------------------------------------------------- patching
    def wrap_method(self, cls, attr: str, name, after=None) -> None:
        """Time every call of ``cls.attr`` as a span.

        ``name`` is a span name or a callable returning one (None = no
        span, only ``after``); ``after(result, args)`` runs after each call
        to record counts.
        """
        raw = cls.__dict__[attr]
        is_classmethod = isinstance(raw, classmethod)
        original = raw.__func__ if is_classmethod else raw
        tracer = self

        def wrapper(*args, **kwargs):
            span_name = name() if callable(name) else name
            if span_name is None:
                result = original(*args, **kwargs)
            else:
                with tracer.span(span_name):
                    result = original(*args, **kwargs)
            if after is not None:
                after(result, args)
            return result

        setattr(cls, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._patches.append(lambda: setattr(cls, attr, raw))

    def wrap_function(self, module, attr: str, name: str, after=None) -> None:
        """Time every call of the function ``module.attr``, under every
        name a loaded ``repro`` module imported it by."""
        original = getattr(module, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = original(*args, **kwargs)
            if after is not None:
                after(result, args)
            return result

        for loaded in list(sys.modules.values()):
            module_name = getattr(loaded, "__name__", "")
            if module_name != "repro" and not module_name.startswith("repro."):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapper)
                    self._patches.append(
                        lambda loaded=loaded, key=key: setattr(loaded, key, original)
                    )

    def restore(self) -> None:
        while self._patches:
            self._patches.pop()()

    # ------------------------------------------------------- analysis
    def totals(self, under: Optional[str] = None) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, total duration and self time.

        The total counts only outermost spans of a name, so a recursive or
        re-entrant call is not counted twice.

        With ``under``, only spans that have an ancestor named ``under``.
        """
        child_time: Dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                key = id(span.parent)
                child_time[key] = child_time.get(key, 0.0) + (span.end - span.start)
        result: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            if under is not None and not self._has_ancestor(span, under):
                continue
            entry = result.setdefault(span.name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            duration = span.end - span.start
            entry["count"] += 1
            # A span nested in one of its own name is already inside the
            # outer one's duration.
            if not self._has_ancestor(span, span.name):
                entry["total_s"] += duration
            entry["self_s"] += duration - child_time.get(id(span), 0.0)
        return result

    @staticmethod
    def _has_ancestor(span: Span, name: str) -> bool:
        parent = span.parent
        while parent is not None:
            if parent.name == name:
                return True
            parent = parent.parent
        return False

    def coverage(self, root: str) -> float:
        """Share of the ``root`` spans' wall time covered by the self time
        of the named spans below them."""
        totals = self.totals()
        root_entry = totals.get(root)
        if not root_entry or root_entry["total_s"] <= 0:
            return 0.0
        covered = root_entry["total_s"] - root_entry["self_s"]
        return covered / root_entry["total_s"]

    def write(self, path: str) -> None:
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w") as handle:
            for i, span in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": index.get(id(span.parent)) if span.parent else None,
                            "request_id": span.request_id,
                        }
                    )
                    + "\n"
                )
