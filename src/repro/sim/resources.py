"""Resource primitives: Resource, Store, and the fluid-flow SharedChannel.

``SharedChannel`` is the workhorse of every bandwidth model in the library.
A *transfer* is a flow of N bytes across one or more channels (PCIe link,
NIC, switch port, memory device).  Concurrent flows share each channel's
capacity max-min fairly: the scheduler performs progressive filling,
freezing flows at the bottleneck rate, so that e.g. sixteen GPU shards
checkpointing through one 100 Gbps server NIC each see 1/16th of the wire
while a concurrent local NVMe write is unaffected.

Rates are recomputed only when flow membership changes, which keeps the
model exact (piecewise-constant rates) and the event count linear in the
number of transfers.

Incremental reallocation
------------------------

Fleet-scale runs put hundreds of concurrent flows on the scheduler, and
the seed implementation re-ran progressive filling over *every* channel
and flow on *every* admit/finish — O(flows x channels) per membership
change, the simulator's wall-clock bottleneck (see
``benchmarks/bench_sim_hotpath.py`` / ``BENCH_sim.json``).  The
:class:`_FluidScheduler` here is incremental:

* **Path classes.**  Live flows are grouped by ``(channels, rate cap)``.
  Progressive filling treats the flows of one class identically, so the
  solver fills over classes weighted by their flow counts — a striped
  checkpoint's 16 WRs on one path are one unit, not 16.  Each class
  keeps the smallest ``remaining`` of its flows, so the next completion
  horizon is a minimum over classes, not over every live flow.
  ``SharedChannel.flows`` stays the live per-channel flow registry (its
  size is the channel's flow count).
* **Per-class progress.**  An advance computes one ``moved`` per class
  and subtracts it from each of the class's flows and from the class
  minimum (the same float operation applied per flow), and collects
  finishers only from classes whose minimum reached zero; they retire in
  admission order (``Transfer._order``).
* **Read-through rates.**  A live flow's ``rate_bps`` reads its class's
  rate, so a solve sets one rate per class, never one per flow.  A
  finishing flow stores its final rate and leaves its class.
* **Dirty-channel component re-solve.**  A membership change marks only
  the touched channels dirty.  The solver re-runs progressive filling
  over the *connected component* of channels/classes reachable from the
  dirty set; disjoint traffic (another daemon's NIC/PMem pair, another
  rack) keeps its rates untouched.  Max-min allocations of disjoint
  components are independent, so the result is identical to the full
  recompute.
* **Memoized component solves.**  The walked component is closed under
  channel adjacency, so every flow on its channels belongs to its
  classes, and channel capacities are fixed at construction.  The class
  rates are therefore a pure function of the multiset
  ``{(path, cap): flow count}``; a bounded LRU keyed by it answers
  repeats without re-running the filling.
* **Same-tick coalescing.**  Admissions mark dirty state and schedule one
  *urgent flush* event at the current timestamp; a striped stripe set of
  N same-tick transfers triggers one solve, not N.  Progress accounting
  (:meth:`_advance`) still happens eagerly at each admission so
  completion ordering is bit-identical to the eager scheduler.

Carried bytes are exact: a finishing flow adds its integer size to every
channel on its path, and ``bytes_carried`` adds the progress of the live
flows, so no per-tick float sum is kept.

The seed's full-recompute solver is kept as
:class:`_ReferenceFluidScheduler` (install with
:func:`use_reference_scheduler`), with its rate, progress and completion
logic unchanged and its byte accounting moved to completion like the
incremental scheduler's.  The differential property suite
(``tests/sim/test_fluid_incremental.py``) holds the two bit-identical
under randomized churn, and the hot-path benchmark records the speedup
trajectory against it.
"""

from __future__ import annotations

import math
from collections import deque
from operator import attrgetter
from typing import Any, Deque, Dict, List, Optional, Sequence, Set

from repro.errors import SimulationError
from repro.units import SECOND
from repro.sim.core import (Environment, Event, PRIORITY_URGENT)

_EPSILON_BYTES = 1e-6

#: Entries in each incremental scheduler's LRU of component solves.
_SOLVE_MEMO_SIZE = 64


class Request(Event):
    """A pending claim on a :class:`Resource`."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource

    def cancel(self) -> None:
        """Withdraw the request (granted or queued)."""
        self.resource._cancel(self)


class Resource:
    """Counting resource with a FIFO wait queue.

    Usage from a process::

        req = resource.request()
        yield req
        try:
            ...critical section...
        finally:
            resource.release(req)
    """

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._holders: Set[Request] = set()
        self._waiters: Deque[Request] = deque()

    @property
    def in_use(self) -> int:
        """Number of currently granted requests."""
        return len(self._holders)

    @property
    def queue_length(self) -> int:
        """Number of requests still waiting."""
        return len(self._waiters)

    def request(self) -> Request:
        """Claim a unit; the returned event fires when granted."""
        req = Request(self)
        if len(self._holders) < self.capacity:
            self._holders.add(req)
            req.succeed(req)
        else:
            self._waiters.append(req)
        return req

    def release(self, req: Request) -> None:
        """Return a granted unit and wake the next waiter."""
        if req not in self._holders:
            raise SimulationError("release() of a request that is not held")
        self._holders.remove(req)
        self._grant_next()

    def _cancel(self, req: Request) -> None:
        if req in self._holders:
            self.release(req)
        elif req in self._waiters:
            self._waiters.remove(req)

    def _grant_next(self) -> None:
        while self._waiters and len(self._holders) < self.capacity:
            nxt = self._waiters.popleft()
            self._holders.add(nxt)
            nxt.succeed(nxt)


class Store:
    """FIFO store of items with blocking get/put (unbounded by default)."""

    def __init__(self, env: Environment, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque = deque()  # (event, item) pairs

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> List[Any]:
        """Snapshot of queued items (oldest first)."""
        return list(self._items)

    def put(self, item: Any) -> Event:
        """Queue *item*; event fires when the item is accepted."""
        event = Event(self.env)
        self._putters.append((event, item))
        self._dispatch()
        return event

    def get(self) -> Event:
        """Take the oldest item; event fires with the item as value."""
        event = Event(self.env)
        self._getters.append(event)
        self._dispatch()
        return event

    def _dispatch(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            while self._putters and (
                    self.capacity is None or len(self._items) < self.capacity):
                event, item = self._putters.popleft()
                self._items.append(item)
                event.succeed(item)
                progressed = True
            while self._getters and self._items:
                event = self._getters.popleft()
                event.succeed(self._items.popleft())
                progressed = True


class SharedChannel:
    """A capacity-limited pipe that active transfers share max-min fairly.

    ``congested_capacity_bps`` models media whose aggregate throughput
    *degrades* under many concurrent streams (Optane writes are the
    canonical case: sequential streams interleave poorly on the 256 B
    XPLine): once more than ``congestion_threshold`` flows are active the
    pool shrinks to the congested capacity.
    """

    __slots__ = ("env", "capacity_bps", "congested_capacity_bps",
                 "congestion_threshold", "name", "flows", "_bytes_carried")

    def __init__(self, env: Environment, capacity_bps: float,
                 name: str = "channel",
                 congested_capacity_bps: Optional[float] = None,
                 congestion_threshold: int = 4) -> None:
        if capacity_bps <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_bps}")
        if congested_capacity_bps is not None and \
                not 0 < congested_capacity_bps <= capacity_bps:
            raise ValueError(
                f"congested capacity must be in (0, {capacity_bps}], "
                f"got {congested_capacity_bps}")
        self.env = env
        self.capacity_bps = float(capacity_bps)
        self.congested_capacity_bps = congested_capacity_bps
        self.congestion_threshold = congestion_threshold
        self.name = name
        # Insertion-ordered (dict-as-set): iteration order must not depend
        # on object ids or replay determinism breaks across processes.
        # This is the scheduler's *persistent* live-flow registry: admit
        # inserts, completion deletes, the solver reads its size.
        self.flows: Dict["Transfer", None] = {}
        # Sizes of the finished flows that crossed this channel: an exact
        # integer, added once per flow when it completes.
        self._bytes_carried = 0

    @property
    def bytes_carried(self) -> int:
        """Bytes this channel has carried: every finished flow's size plus
        the progress of its live flows as of the last advance (rounded)."""
        live = sum(flow.size_bytes - flow.remaining for flow in self.flows)
        return self._bytes_carried + round(live)

    def capacity_for(self, flow_count: int) -> float:
        """Aggregate capacity offered to *flow_count* concurrent flows."""
        if (self.congested_capacity_bps is None
                or flow_count <= self.congestion_threshold):
            return self.capacity_bps
        return self.congested_capacity_bps

    def transfer(self, size_bytes: int, latency_ns: int = 0,
                 rate_cap_bps: Optional[float] = None,
                 label: str = "") -> "Transfer":
        """Start a transfer of *size_bytes* across just this channel."""
        return Transfer(self.env, [self], size_bytes,
                        latency_ns=latency_ns, rate_cap_bps=rate_cap_bps,
                        label=label)

    def __repr__(self) -> str:
        return f"<SharedChannel {self.name} {self.capacity_bps:.3g}B/s " \
               f"flows={len(self.flows)}>"


class Transfer(Event):
    """A flow of bytes across a sequence of :class:`SharedChannel` segments.

    The event fires when the last byte arrives.  ``latency_ns`` models the
    one-way propagation/setup delay paid once before bytes start flowing
    (RDMA post + PCIe round trip, syscall entry, ...).  ``rate_cap_bps``
    bounds this flow below the fair share (e.g. a single DMA engine).
    """

    # ``_path_class`` is the incremental scheduler's class of this flow
    # while it is live (``None`` otherwise); ``_order`` is the admission
    # sequence number both schedulers assign.
    __slots__ = ("channels", "size_bytes", "remaining", "rate_cap_bps",
                 "label", "_rate_bps", "started_at", "finished_at",
                 "_path_class", "_order")

    def __init__(self, env: Environment, channels: Sequence[SharedChannel],
                 size_bytes: int, latency_ns: int = 0,
                 rate_cap_bps: Optional[float] = None,
                 label: str = "") -> None:
        if size_bytes < 0:
            raise ValueError(f"negative transfer size: {size_bytes}")
        if latency_ns < 0:
            raise ValueError(f"negative latency: {latency_ns}")
        if rate_cap_bps is not None and rate_cap_bps <= 0:
            raise ValueError(f"non-positive rate cap: {rate_cap_bps}")
        super().__init__(env)
        self.channels = list(channels)
        self.size_bytes = int(size_bytes)
        self.remaining = float(size_bytes)
        self.rate_cap_bps = rate_cap_bps
        self.label = label
        self._rate_bps = 0.0
        self._path_class: Optional[_PathClass] = None
        self.started_at = env.now
        self.finished_at: Optional[int] = None
        scheduler = _fluid_scheduler(env)
        if latency_ns > 0:
            timer = env.timeout(latency_ns)
            timer._callbacks = [lambda _ev: scheduler.admit(self)]
        else:
            scheduler.admit(self)

    @property
    def rate_bps(self) -> float:
        """Current rate in bytes/s.  A flow live on the incremental
        scheduler reads its path class's rate; otherwise the stored one
        (its final rate once finished)."""
        path_class = self._path_class
        if path_class is None:
            return self._rate_bps
        return path_class.rate_bps

    @rate_bps.setter
    def rate_bps(self, value: float) -> None:
        self._rate_bps = value

    @property
    def elapsed_ns(self) -> int:
        """Duration of the transfer; only valid once complete."""
        if self.finished_at is None:
            raise SimulationError("transfer not finished yet")
        return self.finished_at - self.started_at

    def __repr__(self) -> str:
        return f"<Transfer {self.label or hex(id(self))} " \
               f"{self.size_bytes}B remaining={self.remaining:.0f}>"


class _PathClass:
    """The live flows that share one path and one rate cap.

    Progressive filling treats such flows identically — they cross the
    same channels and bind at the same cap — so they always freeze in the
    same round at the same rate.  The solver handles each class as one
    unit weighted by its flow count, and its flows read their rate from
    the class.
    """

    __slots__ = ("key", "channels", "rate_cap_bps", "flows", "rate_bps",
                 "min_remaining")

    def __init__(self, channels: tuple,
                 rate_cap_bps: Optional[float]) -> None:
        self.key = (channels, rate_cap_bps)
        self.channels = channels
        self.rate_cap_bps = rate_cap_bps
        # Insertion-ordered for reproducible iteration; membership only.
        self.flows: Dict[Transfer, None] = {}
        self.rate_bps = 0.0
        # Smallest ``remaining`` among ``flows``: the class's next finisher.
        self.min_remaining = math.inf


class _FluidScheduler:
    """Per-environment coordinator implementing incremental progressive
    filling over path classes (see the module docstring)."""

    __slots__ = ("env", "_order", "_last_update", "_wakeup_gen", "_dirty",
                 "_flush_pending", "_classes", "_channel_classes", "_memo",
                 "stats")

    def __init__(self, env: Environment) -> None:
        self.env = env
        # Admission sequence number: with equal-rate flows (a striped
        # stripe set) several transfers finish in the same tick, and their
        # completions must fire in admission order.
        self._order = 0
        self._last_update = env.now
        self._wakeup_gen = 0
        # Channels whose membership changed since the last solve, in
        # first-touched order (order only matters for reproducibility of
        # the component walk, not for the resulting rates).
        self._dirty: Dict[SharedChannel, None] = {}
        self._flush_pending = False
        # Live path classes by (channels, rate cap), and each channel's
        # classes; a class leaves both when its last flow finishes.
        self._classes: Dict[tuple, _PathClass] = {}
        self._channel_classes: Dict[SharedChannel,
                                    Dict[_PathClass, None]] = {}
        # LRU of solved components: frozenset of (class key, flow count)
        # -> {class key: rate}, least recently used first.
        self._memo: Dict[frozenset, Dict[tuple, float]] = {}
        self.stats = {"solves": 0, "flows_solved": 0, "channels_solved": 0,
                      "flushes": 0, "wakeups": 0}

    # -- public hooks ---------------------------------------------------------

    def admit(self, transfer: Transfer) -> None:
        if transfer.size_bytes == 0:
            transfer.finished_at = self.env.now
            transfer.succeed(transfer)
            return
        # Advance eagerly (not in the flush): any flow that drains exactly
        # at this tick must complete *here*, in the same callback context
        # the eager scheduler completed it in, to keep event order
        # bit-identical.
        self._advance()
        self._order += 1
        transfer._order = self._order
        key = (tuple(transfer.channels), transfer.rate_cap_bps)
        path_class = self._classes.get(key)
        if path_class is None:
            path_class = self._classes[key] = _PathClass(*key)
            channel_classes = self._channel_classes
            for channel in path_class.channels:
                channel_classes.setdefault(channel, {})[path_class] = None
        path_class.flows[transfer] = None
        if transfer.remaining < path_class.min_remaining:
            path_class.min_remaining = transfer.remaining
        transfer._path_class = path_class
        dirty = self._dirty
        for channel in transfer.channels:
            channel.flows[transfer] = None
            dirty[channel] = None
        if not self._flush_pending:
            self._schedule_flush()

    # -- internals -------------------------------------------------------------

    def _schedule_flush(self) -> None:
        """One urgent event per same-tick admission batch: N stripes of a
        stripe set trigger a single rate solve."""
        self._flush_pending = True
        self.stats["flushes"] += 1
        env = self.env
        flush = Event(env)
        flush._ok = True
        flush._callbacks = [self._on_flush]
        env._schedule(flush, PRIORITY_URGENT, 0)

    def _on_flush(self, _event: Event) -> None:
        self._flush_pending = False
        self._advance()  # same tick as the admissions: elapsed is 0
        self._reallocate()

    def _advance(self) -> None:
        """Account progress since the last rate change, retire finished
        flows.  O(classes) float work: one ``moved`` per class."""
        now = self.env.now
        elapsed = now - self._last_update
        self._last_update = now
        if elapsed <= 0 or not self._classes:
            return
        finished: Optional[List[Transfer]] = None
        for path_class in self._classes.values():
            # Every flow of a class has the class's rate, so all move by
            # the same float; subtraction is monotone, so the class
            # minimum moves by it too and is <= epsilon exactly when some
            # flow of the class is.
            moved = path_class.rate_bps * elapsed / SECOND
            for flow in path_class.flows:
                flow.remaining -= moved
            path_class.min_remaining -= moved
            if path_class.min_remaining <= _EPSILON_BYTES:
                if finished is None:
                    finished = []
                finished.extend(flow for flow in path_class.flows
                                if flow.remaining <= _EPSILON_BYTES)
        if finished is None:
            return
        finished.sort(key=attrgetter("_order"))
        dirty = self._dirty
        shrunk: Dict[_PathClass, None] = {}
        for flow in finished:
            path_class = flow._path_class
            del path_class.flows[flow]
            shrunk[path_class] = None
            flow.remaining = 0.0
            flow._rate_bps = path_class.rate_bps
            flow._path_class = None
            size = flow.size_bytes
            for channel in flow.channels:
                del channel.flows[flow]
                channel._bytes_carried += size
                dirty[channel] = None
            flow.finished_at = now
            flow.succeed(flow)
        # A class that lost flows rescans for its new minimum.
        for path_class in shrunk:
            if path_class.flows:
                path_class.min_remaining = min(
                    flow.remaining for flow in path_class.flows)
            else:
                self._drop_class(path_class)

    def _drop_class(self, path_class: _PathClass) -> None:
        del self._classes[path_class.key]
        channel_classes = self._channel_classes
        for channel in path_class.channels:
            classes = channel_classes[channel]
            del classes[path_class]
            if not classes:
                del channel_classes[channel]

    def _reallocate(self) -> None:
        """Re-solve the dirty component(s) and schedule the next completion."""
        self._solve_dirty()
        self._wakeup_gen += 1
        if not self._classes:
            return
        # Multiplication, division and ceil are monotone, so the soonest
        # finisher holds its class's smallest remaining, and the ceil of
        # the minimum is the minimum of the ceils: O(classes), not O(flows).
        horizon = max(1, math.ceil(min(
            path_class.min_remaining * SECOND / path_class.rate_bps
            for path_class in self._classes.values())))
        gen = self._wakeup_gen
        timer = self.env.timeout(horizon)

        def _on_fire(_event: Event, gen: int = gen) -> None:
            if gen != self._wakeup_gen:
                return  # superseded by a later membership change
            self.stats["wakeups"] += 1
            self._advance()
            self._reallocate()

        timer._callbacks = [_on_fire]

    def _solve_dirty(self) -> None:
        """Progressive filling over the connected component(s) of the
        dirty channels; everything else keeps its rates."""
        dirty = self._dirty
        if not dirty:
            return
        self._dirty = {}
        if not self._classes:
            return
        # Walk channel<->class adjacency from the dirty channels.  The
        # filling below is order-independent; ordered dicts just keep the
        # walk reproducible.
        channel_classes = self._channel_classes
        classes: Dict[_PathClass, None] = {}
        stack: List[SharedChannel] = [
            ch for ch in dirty if ch in channel_classes]
        seen: Dict[SharedChannel, None] = dict.fromkeys(stack)
        while stack:
            for path_class in channel_classes[stack.pop()]:
                if path_class not in classes:
                    classes[path_class] = None
                    for other in path_class.channels:
                        if other not in seen:
                            seen[other] = None
                            stack.append(other)
        if not classes:
            return
        self.stats["solves"] += 1
        self.stats["flows_solved"] += sum(
            len(path_class.flows) for path_class in classes)
        self.stats["channels_solved"] += len(seen)
        # The walk is closed under adjacency, so every flow on these
        # channels is in these classes, and channel capacities never
        # change after construction: the rates are a pure function of the
        # multiset {class key: flow count}.
        signature = frozenset([(path_class.key, len(path_class.flows))
                               for path_class in classes])
        memo = self._memo
        rates = memo.pop(signature, None)
        if rates is None:
            self._solve_component(seen, classes)
            rates = {path_class.key: path_class.rate_bps
                     for path_class in classes}
            if len(memo) >= _SOLVE_MEMO_SIZE:
                del memo[next(iter(memo))]
        else:
            for path_class in classes:
                path_class.rate_bps = rates[path_class.key]
        memo[signature] = rates

    def _solve_component(self, channels: Dict[SharedChannel, None],
                         classes: Dict[_PathClass, None]) -> None:
        """Max-min progressive filling over one connected component.

        Bit-identical to the reference solver's flow-by-flow loop: every
        flow frozen in one round gets the same rate ``max(level, 1e-9)``,
        so a channel carrying ``n`` of them takes exactly ``n`` repeated
        ``c = max(c - r, 0.0)`` steps whatever the flow order.  The steps
        are skipped on a channel left with no unfrozen flow, whose
        capacity is never read again.  Sets class rates only; flows read
        theirs through :attr:`Transfer.rate_bps`.
        """
        channel_classes = self._channel_classes
        remaining_cap: Dict[SharedChannel, float] = {}
        live_count: Dict[SharedChannel, int] = {}
        for channel in channels:
            count = len(channel.flows)
            remaining_cap[channel] = channel.capacity_for(count)
            live_count[channel] = count
        unfrozen = dict(classes)
        capped = [c for c in classes if c.rate_cap_bps is not None]

        while unfrozen:
            # The next bottleneck is the smallest equal share on offer,
            # considering both channel shares and per-flow caps.
            share = math.inf
            for channel, count in live_count.items():
                if count:
                    offered = remaining_cap[channel] / count
                    if offered < share:
                        share = offered
            cap_limit = math.inf
            if capped:
                capped = [c for c in capped if c in unfrozen]
                for path_class in capped:
                    if path_class.rate_cap_bps < cap_limit:
                        cap_limit = path_class.rate_cap_bps
            if cap_limit < share:
                # Freeze every class whose own cap binds first.
                level = cap_limit
                frozen = [c for c in capped if c.rate_cap_bps <= level]
            else:
                level = share
                frozen = {}
                for channel, count in live_count.items():
                    if count and \
                            remaining_cap[channel] / count <= level + 1e-9:
                        for path_class in channel_classes[channel]:
                            if path_class in unfrozen:
                                frozen[path_class] = None
            rate = max(level, 1e-9)
            steps: Dict[SharedChannel, int] = {}
            for path_class in frozen:
                del unfrozen[path_class]
                path_class.rate_bps = rate
                n = len(path_class.flows)
                for channel in path_class.channels:
                    live_count[channel] -= n
                    steps[channel] = steps.get(channel, 0) + n
            for channel, n in steps.items():
                if live_count[channel]:
                    cap = remaining_cap[channel]
                    for _ in range(n):
                        # max(cap - rate, 0.0), and 0.0 is a fixed point.
                        cap -= rate
                        if cap < 0.0:
                            cap = 0.0
                            break
                    remaining_cap[channel] = cap


class _ReferenceFluidScheduler:
    """The seed's eager full-recompute scheduler.

    Its rate, progress and completion logic is the seed's; only the byte
    accounting moved from every advance to completion, as in
    :class:`_FluidScheduler`.

    Every admit/finish re-runs progressive filling over *all* channels
    and flows.  It exists as the ground truth for the differential
    property suite (``tests/sim/test_fluid_incremental.py``) and as the
    "before" side of ``benchmarks/bench_sim_hotpath.py``; install it on a
    fresh environment with :func:`use_reference_scheduler`.
    """

    def __init__(self, env: Environment) -> None:
        self.env = env
        self.active: Dict[Transfer, None] = {}
        self._last_update = env.now
        self._wakeup_gen = 0
        self._order = 0
        self.stats = {"solves": 0, "flows_solved": 0, "channels_solved": 0,
                      "flushes": 0, "wakeups": 0}

    # -- public hooks ---------------------------------------------------------

    def admit(self, transfer: Transfer) -> None:
        if transfer.size_bytes == 0:
            transfer.finished_at = self.env.now
            transfer.succeed(transfer)
            return
        self._advance()
        self._order += 1
        transfer._order = self._order
        self.active[transfer] = None
        for channel in transfer.channels:
            channel.flows[transfer] = None
        self._reallocate()

    # -- internals -------------------------------------------------------------

    def _advance(self) -> None:
        now = self.env.now
        elapsed = now - self._last_update
        self._last_update = now
        if elapsed <= 0 or not self.active:
            return
        finished: List[Transfer] = []
        for flow in self.active:
            moved = flow.rate_bps * elapsed / SECOND
            before = flow.remaining
            flow.remaining = before - moved
            if flow.remaining <= _EPSILON_BYTES:
                flow.remaining = 0.0
                finished.append(flow)
        for flow in finished:
            self.active.pop(flow, None)
            for channel in flow.channels:
                channel.flows.pop(flow, None)
                channel._bytes_carried += flow.size_bytes
            flow.finished_at = now
            flow.succeed(flow)

    def _reallocate(self) -> None:
        self._assign_rates()
        self._wakeup_gen += 1
        if not self.active:
            return
        horizon = min(
            math.ceil(flow.remaining * SECOND / flow.rate_bps)
            for flow in self.active)
        horizon = max(1, horizon)
        gen = self._wakeup_gen
        timer = self.env.timeout(horizon)

        def _on_fire(_event: Event, gen: int = gen) -> None:
            if gen != self._wakeup_gen:
                return  # superseded by a later membership change
            self.stats["wakeups"] += 1
            self._advance()
            self._reallocate()

        timer._callbacks = [_on_fire]

    def _assign_rates(self) -> None:
        """Progressive-filling max-min allocation across all channels."""
        self.stats["solves"] += 1
        self.stats["flows_solved"] += len(self.active)
        unfrozen: Dict[Transfer, None] = dict.fromkeys(self.active)
        remaining_cap: Dict[SharedChannel, float] = {}
        channel_flows: Dict[SharedChannel, Dict[Transfer, None]] = {}
        for flow in self.active:
            flow.rate_bps = 0.0
            for channel in flow.channels:
                channel_flows.setdefault(channel, {})[flow] = None
        for channel, flows in channel_flows.items():
            remaining_cap[channel] = channel.capacity_for(len(flows))
        self.stats["channels_solved"] += len(channel_flows)

        while unfrozen:
            share = math.inf
            for channel, flows in channel_flows.items():
                live = [f for f in flows if f in unfrozen]
                if live:
                    share = min(share, remaining_cap[channel] / len(live))
            capped = [f for f in unfrozen if f.rate_cap_bps is not None]
            cap_limit = min((f.rate_cap_bps for f in capped), default=math.inf)
            if cap_limit < share:
                level = cap_limit
                frozen = dict.fromkeys(
                    f for f in capped if f.rate_cap_bps <= level)
            else:
                level = share
                frozen = {}
                for channel, flows in channel_flows.items():
                    live = [f for f in flows if f in unfrozen]
                    if live and remaining_cap[channel] / len(live) <= level + 1e-9:
                        frozen.update(dict.fromkeys(live))
            if not frozen or level is math.inf:
                frozen = dict.fromkeys(unfrozen)
                level = share
            for flow in frozen:
                rate = level if flow.rate_cap_bps is None else min(
                    level, flow.rate_cap_bps)
                flow.rate_bps = max(rate, 1e-9)
                for channel in flow.channels:
                    remaining_cap[channel] -= flow.rate_bps
                    remaining_cap[channel] = max(remaining_cap[channel], 0.0)
            for flow in frozen:
                unfrozen.pop(flow, None)


def _fluid_scheduler(env: Environment):
    """Lazily attach one fluid scheduler to *env*."""
    scheduler = getattr(env, "_fluid_scheduler", None)
    if scheduler is None:
        cls = getattr(env, "_fluid_scheduler_cls", _FluidScheduler)
        scheduler = cls(env)
        env._fluid_scheduler = scheduler
    return scheduler


def use_reference_scheduler(env: Environment) -> None:
    """Make *env* use the retained full-recompute reference scheduler.

    Must be called before the first :class:`Transfer` on the environment
    (the scheduler attaches lazily and is never swapped mid-run).
    """
    if getattr(env, "_fluid_scheduler", None) is not None:
        raise SimulationError(
            "use_reference_scheduler() after transfers already started")
    env._fluid_scheduler_cls = _ReferenceFluidScheduler


def scheduler_stats(env: Environment) -> Dict[str, int]:
    """Counters from *env*'s fluid scheduler (zeros if none attached):
    solves, flows/channels touched by solves, flush events, wakeups."""
    scheduler = getattr(env, "_fluid_scheduler", None)
    if scheduler is None:
        return {"solves": 0, "flows_solved": 0, "channels_solved": 0,
                "flushes": 0, "wakeups": 0}
    return dict(scheduler.stats)
