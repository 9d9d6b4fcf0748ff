"""The traced run's per-layer ledger, measured from outside the program.

Host time: a :mod:`cProfile` rollup of the timed body, with every function
charged to the layer (module) it is defined in.  Builtins (``max``,
``bytes.join``, ...) have no module of their own; the profiler records how
much of their time each caller spent, so that time is charged to the
caller's layer.  The profiler adds a per-call cost, so these are profiled
seconds: use them as shares between layers, not as absolute speed.

Counts: the program's own metrics registry, ``scheduler_stats(env)``, the
profiler's call counts for a few well-known functions, and :class:`Probes`
— thin wrappers the benchmark installs around a handful of methods for the
traced run only.  None of them yields or schedules a simulation event, so
the traced run's simulated results must equal the untraced run's.
"""

from __future__ import annotations

import cProfile
import os
import pstats
from typing import Callable, Dict, List, Tuple

from repro.core.engine import TransferEngine
from repro.core.group import GroupSession
from repro.fleet.admission import AdmissionController
from repro.pmem.alloc import ExtentAllocator
from repro.pmem.layout import CommittedRecord

#: Modules with a layer of their own; other ``repro`` packages below are
#: rolled up whole, and everything else (stdlib, the benchmark) is "other".
MODULE_LAYERS = ("sim.core", "sim.resources", "hw.content", "pmem.layout",
                 "pmem.alloc", "pmem.chunks", "pmem.fsck", "core.client",
                 "core.daemon", "core.engine", "core.group", "core.dedup",
                 "core.index")
PACKAGE_LAYERS = ("rdma", "net", "fleet", "dnn")
LAYERS = MODULE_LAYERS + PACKAGE_LAYERS + ("other",)

_REPRO = os.sep + "repro" + os.sep


def layer_of(filename: str) -> str:
    """The layer a source file belongs to (``"other"`` outside it)."""
    where = filename.rfind(_REPRO)
    if where < 0 or not filename.endswith(".py"):
        return "other"
    parts = filename[where + len(_REPRO):-3].split(os.sep)
    module = ".".join(parts)
    if module in MODULE_LAYERS:
        return module
    return parts[0] if parts[0] in PACKAGE_LAYERS else "other"


def _is_builtin(func: Tuple[str, int, str]) -> bool:
    return func[0] == "~"


def self_seconds(stats: pstats.Stats) -> Dict[str, float]:
    """Profiled self seconds per layer, builtins charged to callers."""
    totals = dict.fromkeys(LAYERS, 0.0)
    for func, (_, _, tottime, _, callers) in stats.stats.items():
        if not _is_builtin(func):
            totals[layer_of(func[0])] += tottime
            continue
        charged = 0.0
        for caller, (_, _, caller_tt, _) in callers.items():
            layer = "other" if _is_builtin(caller) else layer_of(caller[0])
            totals[layer] += caller_tt
            charged += caller_tt
        totals["other"] += max(0.0, tottime - charged)
    return totals


def call_count(stats: pstats.Stats, function: Callable) -> int:
    """How many times the profiled body called *function*."""
    code = function.__code__
    key = (code.co_filename, code.co_firstlineno, code.co_name)
    entry = stats.stats.get(key)
    return entry[1] if entry else 0


#: Profiler call counts the ledger reports, by metric name.
CALL_COUNTS = {
    "pmem.layout.record_writes": CommittedRecord.write,
    "pmem.layout.record_reads": CommittedRecord.read,
    "pmem.alloc.allocs": ExtentAllocator.alloc,
    "core.engine.wrs": TransferEngine._post,
}


class Probes:
    """Counting wrappers around a few methods, for the traced run only."""

    def __init__(self) -> None:
        self.slot_bytes = 0
        self.ingest_attempts = 0
        self.commit_ns: List[int] = []
        self._saved: List[Tuple[type, str, Callable]] = []

    def _wrap(self, cls: type, name: str, make: Callable) -> None:
        original = getattr(cls, name)
        self._saved.append((cls, name, original))
        setattr(cls, name, make(original))

    def __enter__(self) -> "Probes":
        probes = self

        def read_slot(original):
            def wrapper(record, index):
                probes.slot_bytes += record.slot_size
                return original(record, index)
            return wrapper

        def enter(original):
            def wrapper(controller, kind):
                probes.ingest_attempts += kind == "ingest"
                return original(controller, kind)
            return wrapper

        def commit(original):
            def wrapper(group, step):
                start = group.client.env.now
                reply = yield from original(group, step)
                probes.commit_ns.append(group.client.env.now - start)
                return reply
            return wrapper

        self._wrap(CommittedRecord, "_read_slot", read_slot)
        self._wrap(AdmissionController, "enter", enter)
        self._wrap(GroupSession, "_commit", commit)
        return self

    def __exit__(self, *exc) -> None:
        for cls, name, original in reversed(self._saved):
            setattr(cls, name, original)
        self._saved.clear()


def profile(call: Callable):
    """Run *call* under the profiler; returns ``(result, stats)``."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = call()
    finally:
        profiler.disable()
    return result, pstats.Stats(profiler)
