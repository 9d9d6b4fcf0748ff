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
  over the *connected component(s)* of channels/classes that hold the
  dirty set; disjoint traffic (another daemon's NIC/PMem pair, another
  rack) keeps its rates untouched.  Max-min allocations of disjoint
  components are independent, so the result is identical to the full
  recompute.  Components persist between solves: each channel maps to
  its component, and only a class create or drop — the only events
  that merge or split one — drops the components on that class's
  channels.  The next solve walks adjacency again from the dirty
  channels, which include every channel of that class, so each piece
  of a split is found; every other solve looks its components up.  In
  the filling, channels that carry the same class set are one
  constraint at their smallest capacity: their flow counts are equal,
  so it always offers the smallest share.
* **Memoized component solves.**  A component is closed under channel
  adjacency, so every flow on its channels belongs to its classes, and
  channel capacities are fixed at construction.  The class rates are
  therefore a pure function of its classes and their flow counts; a
  bounded LRU keyed by ``(class ids, flow counts)`` — small ints from a
  ``{(path, cap): id}`` intern table, in id order — answers repeats
  without re-running the filling.
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
    the class.  ``id`` is the scheduler's interned number for ``key``; a
    class dropped and re-created later gets the same one.
    """

    __slots__ = ("key", "id", "channels", "rate_cap_bps", "flows",
                 "rate_bps", "min_remaining")

    def __init__(self, key: tuple, class_id: int) -> None:
        self.key = key
        self.id = class_id
        self.channels, self.rate_cap_bps = key
        # Insertion-ordered for reproducible iteration; membership only.
        self.flows: Dict[Transfer, None] = {}
        # A class on no channel (a loopback transfer) shares nothing, so
        # it is never solved: it runs at the rate the full filling gives
        # it, its cap, or without bound when uncapped.
        if self.channels:
            self.rate_bps = 0.0
        elif self.rate_cap_bps is None:
            self.rate_bps = math.inf
        else:
            self.rate_bps = max(self.rate_cap_bps, 1e-9)
        # Smallest ``remaining`` among ``flows``: the class's next finisher.
        self.min_remaining = math.inf


class _Component:
    """One connected component of live classes and their channels.

    The scheduler keeps it between solves and drops it when a class on
    one of its channels is created or dropped; flow counts may change
    while it stays valid.  ``classes`` are in interned-id order, and
    ``ids`` is their id tuple, the class half of a memo key.  ``plan``
    holds the fill structures (see :meth:`_FluidScheduler._plan`), built
    at the first fill the memo cannot answer.
    """

    __slots__ = ("classes", "ids", "channels", "plan")

    def __init__(self, classes: List[_PathClass],
                 channels: List[SharedChannel]) -> None:
        self.classes = classes
        self.ids = tuple([path_class.id for path_class in classes])
        self.channels = channels
        self.plan: Optional[tuple] = None


class _FluidScheduler:
    """Per-environment coordinator implementing incremental progressive
    filling over path classes (see the module docstring)."""

    __slots__ = ("env", "_order", "_last_update", "_wakeup_gen", "_dirty",
                 "_flush_pending", "_classes", "_class_ids",
                 "_channel_classes", "_components", "_memo", "stats")

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
        # Interned class ids by (channels, rate cap), kept across drops.
        self._class_ids: Dict[tuple, int] = {}
        self._channel_classes: Dict[SharedChannel,
                                    Dict[_PathClass, None]] = {}
        # The component of each channel that carries a live class; a
        # channel is missing while its component awaits a rebuild.
        self._components: Dict[SharedChannel, _Component] = {}
        # LRU of solved components, least recently used first:
        # (class ids, flow counts) -> rates, all in class-id order.
        self._memo: Dict[tuple, List[float]] = {}
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
            class_id = self._class_ids.setdefault(key, len(self._class_ids))
            path_class = self._classes[key] = _PathClass(key, class_id)
            channel_classes = self._channel_classes
            for channel in path_class.channels:
                channel_classes.setdefault(channel, {})[path_class] = None
            self._invalidate(path_class)
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
        self._invalidate(path_class)

    def _invalidate(self, path_class: _PathClass) -> None:
        """Forget the components on *path_class*'s channels, which its
        creation or drop may merge or split.  Its channels are dirty, and
        every piece of a split holds one of them, so the next solve walks
        each piece again."""
        components = self._components
        for channel in path_class.channels:
            component = components.get(channel)
            if component is not None:
                for other in component.channels:
                    del components[other]

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
        components = self._components
        channel_classes = self._channel_classes
        found: Dict[_Component, None] = {}
        for channel in dirty:
            component = components.get(channel)
            if component is None:
                if channel not in channel_classes:
                    continue
                component = self._build_component(channel)
            found[component] = None
        if not found:
            return
        if len(found) == 1:
            component, = found
        else:
            # Components dirtied in one flush fill together, as one: the
            # filling's 1e-9 freeze tolerance can tie shares across them.
            component = _Component(
                sorted([path_class for part in found
                        for path_class in part.classes],
                       key=attrgetter("id")),
                [channel for part in found for channel in part.channels])
        classes = component.classes
        counts = tuple([len(path_class.flows) for path_class in classes])
        stats = self.stats
        stats["solves"] += 1
        stats["flows_solved"] += sum(counts)
        stats["channels_solved"] += len(component.channels)
        # A component is closed under adjacency, so every flow on its
        # channels is in its classes, and channel capacities never change
        # after construction: the rates are a pure function of the class
        # ids and their flow counts.
        key = (component.ids, counts)
        memo = self._memo
        rates = memo.pop(key, None)
        if rates is None:
            rates = self._solve_component(component, counts)
            if len(memo) >= _SOLVE_MEMO_SIZE:
                del memo[next(iter(memo))]
        memo[key] = rates
        for path_class, rate in zip(classes, rates):
            path_class.rate_bps = rate

    def _build_component(self, start: SharedChannel) -> _Component:
        """Walk channel<->class adjacency from *start* into its component
        and map each of its channels to it."""
        channel_classes = self._channel_classes
        classes: Dict[_PathClass, None] = {}
        stack = [start]
        seen: Dict[SharedChannel, None] = {start: None}
        while stack:
            for path_class in channel_classes[stack.pop()]:
                if path_class not in classes:
                    classes[path_class] = None
                    for other in path_class.channels:
                        if other not in seen:
                            seen[other] = None
                            stack.append(other)
        component = _Component(sorted(classes, key=attrgetter("id")),
                               list(seen))
        components = self._components
        for channel in seen:
            components[channel] = component
        return component

    def _plan(self, component: _Component) -> tuple:
        """Fill structures of *component*: its channels grouped by the
        set of classes they carry, one constraint per group.

        Channels of one group always carry equal flow counts, so the one
        with the smallest capacity offers the smallest share, and after
        the same subtractions it still holds the smallest capacity
        (float subtraction, division and ``max(., 0)`` are monotone).  It
        alone decides when the group's classes freeze; the others are
        never read.  A group's capacity is the smallest fixed capacity
        among its channels, lowered per fill by any congestible one.
        """
        channel_classes = self._channel_classes
        classes = component.classes
        index = {path_class: i for i, path_class in enumerate(classes)}
        groups: Dict[tuple, List[SharedChannel]] = {}
        for channel in component.channels:
            members = tuple(sorted([index[path_class] for path_class
                                    in channel_classes[channel]]))
            groups.setdefault(members, []).append(channel)
        first_channels: List[SharedChannel] = []
        fixed_caps: List[float] = []
        congestible: List[tuple] = []
        class_groups: List[List[int]] = [[] for _ in classes]
        for g, (members, channels) in enumerate(groups.items()):
            first_channels.append(channels[0])
            fixed_caps.append(min(
                [channel.capacity_bps for channel in channels
                 if channel.congested_capacity_bps is None],
                default=math.inf))
            varying = tuple([channel for channel in channels
                             if channel.congested_capacity_bps is not None])
            if varying:
                congestible.append((g, varying))
            for i in members:
                class_groups[i].append(g)
        class_caps = [path_class.rate_cap_bps for path_class in classes]
        capped = [i for i, cap in enumerate(class_caps) if cap is not None]
        return (first_channels, fixed_caps, congestible, list(groups),
                class_groups, class_caps, capped)

    def _solve_component(self, component: _Component,
                         counts: tuple) -> List[float]:
        """Max-min progressive filling over one component; returns the
        class rates in the component's class order.

        Bit-identical to the reference solver's flow-by-flow loop: every
        flow frozen in one round gets the same rate ``max(level, 1e-9)``,
        so a channel carrying ``n`` of them takes exactly ``n`` repeated
        ``c = max(c - r, 0.0)`` steps whatever the flow order.  The steps
        are skipped on a channel left with no unfrozen flow, whose
        capacity is never read again.  Channels are filled by group (see
        :meth:`_plan`); *counts* are the classes' flow counts.
        """
        plan = component.plan
        if plan is None:
            plan = component.plan = self._plan(component)
        (first_channels, fixed_caps, congestible, members, class_groups,
         class_caps, capped) = plan
        live = [len(channel.flows) for channel in first_channels]
        caps = list(fixed_caps)
        for g, channels in congestible:
            count = live[g]
            cap = caps[g]
            for channel in channels:
                offered = channel.capacity_for(count)
                if offered < cap:
                    cap = offered
            caps[g] = cap
        rates = [0.0] * len(counts)
        unfrozen = [True] * len(counts)
        left = len(counts)
        groups = range(len(live))

        while left:
            # The next bottleneck is the smallest equal share on offer,
            # considering both channel shares and per-flow caps.
            share = math.inf
            for g in groups:
                count = live[g]
                if count:
                    offered = caps[g] / count
                    if offered < share:
                        share = offered
            cap_limit = math.inf
            if capped:
                capped = [i for i in capped if unfrozen[i]]
                for i in capped:
                    if class_caps[i] < cap_limit:
                        cap_limit = class_caps[i]
            if cap_limit < share:
                # Freeze every class whose own cap binds first.
                level = cap_limit
                frozen = [i for i in capped if class_caps[i] <= level]
            else:
                level = share
                bound = level + 1e-9
                frozen = {}
                for g in groups:
                    count = live[g]
                    if count and caps[g] / count <= bound:
                        for i in members[g]:
                            if unfrozen[i]:
                                frozen[i] = None
            rate = max(level, 1e-9)
            steps: Dict[int, int] = {}
            for i in frozen:
                unfrozen[i] = False
                left -= 1
                rates[i] = rate
                n = counts[i]
                for g in class_groups[i]:
                    live[g] -= n
                    steps[g] = steps.get(g, 0) + n
            for g, n in steps.items():
                if live[g]:
                    cap = caps[g]
                    for _ in range(n):
                        # max(cap - rate, 0.0), and 0.0 is a fixed point.
                        cap -= rate
                        if cap < 0.0:
                            cap = 0.0
                            break
                    caps[g] = cap
        return rates


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
