"""Cycle-level out-of-order superscalar timing model (trace-driven).

The machine replays a functional trace through the structures of Table 1:
fetch (gshare + I-cache), dispatch/rename (with the V/S vector extension of
Fig 6 when vectorization is on), a unified instruction window (ROB), a
load/store queue with store-to-load forwarding and conservative
disambiguation ("loads may execute when prior store addresses are known"),
per-class functional-unit pools with the paper's latencies, 1/2/4 L1 data
ports (scalar or wide), and in-order commit.

Dynamic vectorization hooks (V mode only):

* dispatch consults :class:`~repro.core.engine.VectorizationEngine` to turn
  loads/arithmetic into vector triggers or validation ops;
* the memory stage schedules speculative vector element fetches over
  left-over wide-bus capacity;
* commit performs the §3.6 store coherence check, F-flag bookkeeping and
  GMRBB tracking, and fires misspeculation recovery squashes;
* branch-misprediction recovery leaves all vector state intact (§3.5).

The model is trace-driven: wrong-path instructions are not simulated, a
misprediction costs fetch starvation until the branch resolves plus a
refill penalty (DESIGN.md §5.1).

Every stage body lives exactly once, in :meth:`Machine._cycles`: one
loop that runs the whole cycle (commit -> execute -> memory -> dispatch
-> fetch) with every loop-invariant object hoisted to a local.
:meth:`Machine.run` drives it to completion and :meth:`Machine.step` runs
one cycle of it; metrics sampling is a hook inside that loop, so
observed and stepped runs execute the same code as plain ones.

Execution is *batched*: each cycle the execute stage makes one pass over
the waiting window, routes ready instructions into per-kind groups
(validations, zero-latency ops, loads + FU ops), and completes each group
as a unit, with one shared completion time per FU class.  The
per-instruction properties the scheduler needs (kind, FU class, latency,
dependence registers, ...) come from the trace's structure-of-arrays
predecode (:meth:`repro.functional.trace.Trace.soa`), shared by fetch,
dispatch and execute.  The vector datapath (element scheduling and
values) is the engine's :meth:`~repro.core.engine.VectorizationEngine.tick`,
called once per cycle while vector ALU work is pending.
"""

from __future__ import annotations

import gc
from collections import deque
from heapq import heapify, heappop, heappush
from operator import attrgetter
from typing import Deque, List, Optional, Tuple, Union

from ..core.engine import STALL, TRIGGER, VALIDATION, VectorizationEngine
from ..core.vector_regfile import sleep_on_element, wake_element, wake_instances
from ..frontend.fetch import FetchUnit
from ..functional.memory import MemoryImage
from ..functional.semantics import S64_MAX, U64, U64_MASK
from ..functional.trace import Trace, TraceEntry
from ..isa.opcodes import FU_LATENCY, FuClass
from ..isa.registers import NO_REG, NUM_LOGICAL_REGS
from ..memory.hierarchy import MemoryHierarchy
from ..memory.ports import DataPorts
from ..observe.events import FLUSH_BRANCH, VFETCH_ISSUE
from .config import MachineConfig
from .stats import SimStats

# Instruction kinds inside the window.  K_SCALAR/K_LOAD/K_STORE match the
# trace SoA's static ``kind`` array; the vector kinds are dynamic.
K_SCALAR = 0  # ALU / control / nop-like, executes on a scalar FU
K_LOAD = 1
K_STORE = 2
K_VALIDATION = VALIDATION  # checks one vector element, no FU, no memory port
K_TRIGGER = TRIGGER  # created a vector instance; completes with its start element

#: dependence token: None (ready), a producing InFlight, or (reg, elem).
Dep = Union[None, "InFlight", Tuple]

#: mul/div scalar FUs are unpipelined (SimpleScalar convention).
_UNPIPELINED_FUS = frozenset(
    (FuClass.INT_MUL, FuClass.INT_DIV, FuClass.FP_MUL, FuClass.FP_DIV)
)

#: int FU class -> cycles a unit stays busy after accepting one op
#: (latency for unpipelined mul/div units, 1 for pipelined ones).
_FU_BUSY = {
    int(cls): (FU_LATENCY[cls] if cls in _UNPIPELINED_FUS else 1)
    for cls in FuClass
}

_FU_NONE = int(FuClass.NONE)

#: Fig 10's window: the instructions after a mispredicted branch.
CFI_WINDOW = 100


class InFlight:
    """One dynamic instruction occupying the window.

    An instruction reads at most two renamed sources (``dep1``/``dep2``;
    None = ready) and writes at most one destination, so the squash-time
    rename rollback is a single (``saved_rd``, ``saved_tok``) pair.

    Dispatch builds each record once, with its final values: ``cls`` and
    ``lat`` are set for K_SCALAR records only, ``base_dep``/``data_dep``
    for stores only, and ``saved_tok`` only where ``saved_rd`` names a
    register — no reader looks at them elsewhere.
    """

    __slots__ = (
        "seq",
        "entry",
        "kind",
        "cls",
        "lat",
        "dep1",
        "dep2",
        "base_dep",
        "data_dep",
        "done_at",
        "addr",
        "mispredicted",
        "redirected",
        "saved_rd",
        "saved_tok",
        "waiters",
        "squashed",
    )

    def __init__(
        self,
        seq: int,
        entry: TraceEntry,
        kind: int,
        addr: int,
        dep1: Dep,
        dep2: Dep,
        mispredicted: int,
    ) -> None:
        self.seq = seq
        self.entry = entry
        self.kind = kind
        self.dep1 = dep1
        self.dep2 = dep2
        self.done_at: Optional[int] = None
        self.addr = addr
        #: nonzero for a branch fetched down the wrong path.
        self.mispredicted = mispredicted
        self.redirected = False
        self.saved_rd = -1
        #: instructions sleeping until this one's completion time is known
        #: (lazily created; see the dependence check in Machine._cycles).
        self.waiters: Optional[List["InFlight"]] = None
        #: True once removed from the window by a squash — a stale entry on
        #: some producer's ``waiters`` list must not be re-woken.
        self.squashed = False


class VecInFlight(InFlight):
    """In-flight instruction carrying vectorizer decode state (V mode).

    Only instructions whose decode decision touched the engine use this
    class — validations, triggers, and scalars with VRMT rollback data.
    Plain scalars stay :class:`InFlight` even in V mode; the flush hook
    keys off the class to skip the engine rollback for them.  The decode
    writes the vector fields itself (see :data:`repro.core.engine.SCALAR`);
    ``vtok`` is set only on a validation/trigger that writes a register."""

    __slots__ = (
        "vreg",
        "velem",
        "vtok",
        "mismatch",
        "counts_as_validation",
        "vrmt_rollback",
    )

    def __init__(
        self,
        seq: int,
        entry: TraceEntry,
        kind: int,
        addr: int,
        dep1: Dep,
        dep2: Dep,
        mispredicted: int,
        rollback,
    ) -> None:
        """A scalar that touched the VRMT at decode: ``rollback`` undoes it."""
        # InFlight.__init__'s body, flattened: one constructor frame per
        # record instead of two.
        self.seq = seq
        self.entry = entry
        self.kind = kind
        self.dep1 = dep1
        self.dep2 = dep2
        self.done_at = None
        self.addr = addr
        self.mispredicted = mispredicted
        self.redirected = False
        self.saved_rd = -1
        self.waiters = None
        self.squashed = False
        self.vreg = None
        self.velem = -1
        self.mismatch = False
        self.counts_as_validation = False
        self.vrmt_rollback = rollback

    def reset(
        self,
        seq: int,
        entry: TraceEntry,
        kind: int,
        addr: int,
        dep1: Dep,
    ) -> None:
        """(Re)build this record as the validation/trigger its decode just
        wrote (``vreg``, ``velem``, ``mismatch``, ``counts_as_validation``
        and ``vrmt_rollback`` are already set).

        Validation/trigger records are only ever referenced by the ROB
        and the scheduler lists (rename holds a ``(reg, elem)`` tuple,
        never the record itself), so commit recycles them through a free
        pool and dispatch rebuilds one here; a fresh one comes from
        :meth:`blank`, which sets the fields that no validation/trigger
        ever changes.
        """
        self.seq = seq
        self.entry = entry
        self.kind = kind
        self.dep1 = dep1
        self.done_at = None
        self.addr = addr
        self.saved_rd = -1

    @staticmethod
    def blank() -> "VecInFlight":
        """A new validation/trigger record for :meth:`reset`.  None has a
        second source or a waiter (consumers rename to its ``(reg, elem)``
        token), none is a branch, and a squashed one is never recycled."""
        fl = VecInFlight.__new__(VecInFlight)
        fl.dep2 = None
        fl.mispredicted = 0
        fl.redirected = False
        fl.waiters = None
        fl.squashed = False
        return fl


_SEQ_KEY = attrgetter("seq")


class Machine:
    """One timing simulation of one trace under one configuration."""

    def __init__(
        self,
        config: MachineConfig,
        trace: Trace,
        observer=None,
    ) -> None:
        self.config = config
        self.trace = trace
        self.stats = SimStats()
        # Observability: the default (observer=None) leaves every hook
        # dormant — emission sites cost one `is not None` test and the
        # run loop is the unobserved one.
        self.observer = observer
        bus = observer.bus if observer is not None else None
        self._bus = bus
        self.hierarchy = MemoryHierarchy(config.hierarchy)
        self.hierarchy.bus = bus
        self.ports = DataPorts(config.ports, config.wide_bus)
        self.fetch_unit = FetchUnit(trace, config.gshare_entries)
        self.fetch_unit.bus = bus
        #: architectural memory as of the last committed store — the image
        #: speculative vector loads read from.
        self.commit_memory: MemoryImage = trace.initial_memory.copy()
        self.engine: Optional[VectorizationEngine] = (
            VectorizationEngine(config, self.stats, observer) if config.vectorize else None
        )
        #: structure-of-arrays predecode shared with fetch and dispatch.
        self._soa = trace.soa()
        self._entries = trace.entries

        self.rob: Deque[InFlight] = deque()
        #: the in-flight scalar stores, oldest first: the only entries a
        #: load's disambiguation walk needs.  ``lsq_count`` is the load/
        #: store queue's occupancy (scalar loads and stores in the window).
        self.lsq: Deque[InFlight] = deque()
        self.lsq_count = 0
        self.waiting: List[InFlight] = []
        #: instructions whose first blocking time is *known* and in the
        #: future, parked off the per-cycle scan until that cycle.
        #: Min-heap of (wake_cycle, seq, InFlight) — see the execute stage
        #: in _cycles for the exactness argument.
        self._parked: List[Tuple[int, int, InFlight]] = []
        if self.engine is not None:
            # Element-time writers inside the engine wake sleepers onto
            # this heap, so a squash filters it in place.
            self.engine.parked = self._parked
        #: recycled validation/trigger records (see VecInFlight.reset).
        self._vec_pool: List[VecInFlight] = []
        self.mem_queue: List[InFlight] = []
        #: fetched-but-undispatched instructions as packed ints:
        #: (seq << 1) | mispredicted  (see the fetch stage in _cycles).
        self.fetch_queue: Deque[int] = deque()
        #: flat rename map indexed by logical register: None = architectural
        #: (ready), an InFlight = scalar producer, (vreg, elem) = vector.
        self.rename: List = [None] * NUM_LOGICAL_REGS
        #: committed vector mappings per logical register: the (reg, elem)
        #: rename token of its last committed vector writer.
        self.committed_vec_map: List[Optional[Tuple]] = [None] * NUM_LOGICAL_REGS
        self.committed_count = 0
        self._max_dispatched_seq = -1
        #: scalar FU pools: int FU class -> list of unit free-at cycles.
        self.fu_free = {
            int(cls): [0] * count for cls, count in config.fu_pool_sizes().items()
        }
        #: (branch_seq, resolved_cycle) windows for Fig 10's reuse
        #: accounting (V mode only; see _resolve_mispredict).
        self.cfi_windows: Deque[Tuple[int, int]] = deque()
        #: per-pc backward-branch flags for GMRBB tracking.
        program = trace.program
        self._is_backward = [program.is_backward(pc) for pc in range(len(program))]
        # Hoisted configuration scalars (read every cycle in the hot loop;
        # going through the config dataclass costs two attribute lookups).
        self._width = config.width
        self._commit_width = config.commit_width
        self._rob_size = config.rob_size
        self._lsq_size = config.lsq_size
        self._fetch_queue_size = config.fetch_queue_size
        self._mispredict_penalty = config.mispredict_penalty
        self._wide_bus = config.wide_bus
        self._line_bytes = config.hierarchy.l1d_line
        self._l1i_line = config.hierarchy.l1i_line
        self._l1i_hit_latency = config.hierarchy.l1i_hit_latency
        self._max_store_commit = config.vector.max_store_commit
        #: ports.busy_port_cycles at the last ports.occupancy sample.
        self._occupancy_busy = 0

    # ==================================================================
    # execute / memory helpers
    # ==================================================================

    def _resolve_mispredict(self, fl: InFlight, now: int) -> None:
        """Branch resolution: start the fetch-redirect/refill epilogue.

        Fig 10 counts the committed instructions among the ``CFI_WINDOW``
        after each mispredicted branch.  That count is known here: every
        younger instruction commits exactly once, in order, and only after
        this branch commits, which is after this resolution.  So the window
        adds ``min(CFI_WINDOW, n - 1 - seq)`` at once (a squashed and
        re-fetched branch that mispredicts again opens a second window,
        which counts again, as a per-commit scan of both would).  Which of
        those commits reuse pre-flush vector work is only known at their
        commit, so V mode keeps the window for the committing validations.
        """
        fl.redirected = True
        stats = self.stats
        stats.branch_mispredicts += 1
        resolve = fl.done_at
        seq = fl.seq
        if self._bus is not None:
            self._bus.emit(
                now, FLUSH_BRANCH, pc=fl.entry.pc, seq=seq, resolve=resolve
            )
        self.fetch_unit.redirect(seq + 1, resolve + self._mispredict_penalty)
        after = len(self._entries) - 1 - seq
        stats.cfi_window_instructions += CFI_WINDOW if after > CFI_WINDOW else after
        if self.engine is not None:
            self.cfi_windows.append((seq, resolve))

    def _wake_waiters(self, fl: InFlight) -> None:
        """``fl``'s completion time just became known: move its sleepers to
        the timed park heap so they rejoin the execute scan at that cycle.
        Entries squashed while asleep are dropped (their re-fetched
        incarnations re-register themselves)."""
        done = fl.done_at
        parked = self._parked
        for c in fl.waiters:
            if not c.squashed:
                heappush(parked, (done, c.seq, c))
        fl.waiters = None

    def _schedule_memory(self, now: int) -> None:
        """Issue wide-bus L1 data-port transactions: scalar loads, then (V
        mode) speculative vector element fetches over the remaining
        capacity.  Pending reads are grouped by line; one access serves up
        to four.  Groups are served in creation order, at most one per
        free port, so no group past that count is built: a read that would
        open one waits, exactly as it would in an unserved group.

        Scalar loads join first, in queue order.  The engine's element
        fetches are then scanned in place from the head of its queue, up
        to the ``4 * available``-th live one.  A fetch of a dead register
        takes no port: it is dropped, and a defunct register's element is
        completed with garbage so its dependents' timing resolves.  A live
        fetch joins its line's newest group if that has room, or opens a
        group.  Group members mix scalar loads (InFlight objects) and
        fetches, held by their position in the queue — the member's type
        is its tag — so the served and dropped fetches leave the queue by
        position and every other one keeps its place.
        The scalar-bus case is served inline in :meth:`_cycles`."""
        ports = self.ports
        avail = ports.available()
        if avail == 0:
            return
        line_bytes = self._line_bytes
        mem_queue = self.mem_queue
        groups: List[Tuple[int, List]] = []
        index = {}
        for fl in mem_queue:
            addr = fl.addr
            line = addr - (addr % line_bytes)
            g = index.get(line)
            if g is not None and len(g) < 4:
                g.append(fl)
            elif len(groups) < avail:
                g = index[line] = [fl]
                groups.append((line, g))
        engine = self.engine
        if engine is not None and engine.pending_fetches:
            fetches = engine.pending_fetches
            #: queue positions of the fetches that leave the queue.
            gone = []
            live = 4 * avail
            for pos, (reg, elem, addr) in enumerate(fetches):
                if reg.freed or reg.defunct:
                    if not reg.freed and reg.r_time[elem] is None:
                        engine.complete_garbage(reg, elem)
                    gone.append(pos)
                    continue
                line = addr - (addr % line_bytes)
                g = index.get(line)
                if g is not None and len(g) < 4:
                    g.append(pos)
                elif len(groups) < avail:
                    g = index[line] = [pos]
                    groups.append((line, g))
                live -= 1
                if not live:
                    break
        else:
            fetches = gone = None

        scalar_served = 0
        bus = self._bus
        stats = self.stats
        data_access = self.hierarchy.data_access
        commit_load = self.commit_memory.load
        serve_line = ports.serve_line
        # A read transaction's id is its index in the per-read word-count
        # lists, so the id serve_line is about to open is known up front.
        useful_words = ports.useful_words
        for line, members in groups:
            ready = data_access(line, now)
            if ready is None:  # MSHR full: stop issuing this cycle
                break
            txn = len(useful_words)
            stats.read_accesses += 1
            scalar_words = None
            spec_words = 0
            for m in members:
                if type(m) is int:
                    reg, elem, addr = fetches[m]
                    gone.append(m)
                    # Apply the architectural write-back conversion (LD
                    # wraps to int64, FLD coerces to float): a raw memory
                    # word can be the other domain's type — e.g. an FST'd
                    # float re-read by LD — and downstream vector ALU
                    # instances must see what a scalar consumer would.
                    word = commit_load(addr)
                    if reg.fp_load:
                        reg.values[elem] = float(word)
                    else:
                        # s64(int(word)), inlined.
                        word = int(word) & U64_MASK
                        reg.values[elem] = word - U64 if word > S64_MAX else word
                    reg.r_time[elem] = ready
                    if reg.sleepers is not None:
                        wake_element(reg, elem, ready, self._parked)
                    if reg.alu_sleepers is not None:
                        wake_instances(reg, engine.woken_alu)
                    reg.txn_ids[elem] = txn
                    spec_words += 1
                    if bus is not None:
                        bus.emit(
                            now, VFETCH_ISSUE, pc=reg.pc,
                            elem=elem, addr=addr, ready=ready,
                        )
                else:
                    m.done_at = ready
                    if m.waiters is not None:
                        self._wake_waiters(m)
                    if scalar_words is None:
                        scalar_words = {m.addr}
                    else:
                        scalar_words.add(m.addr)
                    scalar_served += 1
                    stats.scalar_loads_to_memory += 1
            serve_line(len(scalar_words) if scalar_words else 0, spec_words)

        if scalar_served:
            self.mem_queue = (
                [fl for fl in mem_queue if fl.done_at is None]
                if scalar_served < len(mem_queue) else []
            )
        if gone:
            gone.sort(reverse=True)
            for pos in gone:
                del fetches[pos]

    # ==================================================================
    # squash
    # ==================================================================

    def _flush_from(self, from_seq: int, resume_cycle: int, now: int) -> None:
        """Remove every in-flight instruction with seq >= from_seq and
        restart fetch there.  Vector registers survive (§3.5); scalar-side
        bookkeeping (rename, VRMT offsets, U flags) rolls back."""
        engine = self.engine
        rename = self.rename
        rob = self.rob
        lsq = self.lsq
        while rob and rob[-1].seq >= from_seq:
            fl = rob.pop()
            if fl.kind == K_LOAD or fl.kind == K_STORE:
                self.lsq_count -= 1
            # A squashed entry may still sit on a surviving producer's
            # waiters list; the flag keeps it from being re-woken.
            fl.squashed = True
            # Youngest-first pop leaves the oldest flushed writer's saved
            # token as the final rename state — the exact pre-flush map.
            rd = fl.saved_rd
            if rd >= 0:
                rename[rd] = fl.saved_tok
            if engine is not None and fl.__class__ is not InFlight:
                # Plain InFlight records never touched the engine at decode
                # (no rollback data, no U flag); only VecInFlight ones need
                # the engine-side rewind.
                engine.on_flush_entry(fl, now)
        while lsq and lsq[-1].seq >= from_seq:
            lsq.pop()
        self.waiting = [fl for fl in self.waiting if fl.seq < from_seq]
        parked = self._parked
        if parked:
            parked[:] = [e for e in parked if e[1] < from_seq]
            heapify(parked)
        self.mem_queue = [fl for fl in self.mem_queue if fl.seq < from_seq]
        self.fetch_queue.clear()
        self.fetch_unit.redirect(from_seq, resume_cycle)

    # ==================================================================
    # main loop
    # ==================================================================

    def run(self) -> SimStats:
        """Simulate until the whole trace has committed; returns stats."""
        total = len(self.trace.entries)
        if total == 0:
            return self.stats
        safety = 2000 + 600 * total
        # The loop allocates heavily (InFlight, dep tuples) but creates no
        # reference cycles worth collecting mid-run; pausing the cyclic GC
        # saves its generation-0 scans.  Restore the caller's setting after.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            now = self._cycles(0, safety + 1)
        finally:
            if gc_was_enabled:
                gc.enable()
        if self.committed_count < total:
            raise RuntimeError(
                f"simulation wedged: {self.committed_count}/{total} "
                f"committed after {now} cycles"
            )
        return self._finish(now)

    def _finish(self, now: int) -> SimStats:
        """Stamp the whole-run statistics once ``now`` cycles have run."""
        stats = self.stats
        stats.cycles = now
        if self.engine is not None:
            self.engine.finalize(now)
        stats.usefulness = self.ports.usefulness_histogram()
        stats.port_occupancy = self.ports.occupancy
        obs = self.observer
        if obs is not None and obs.metrics is not None:
            self._record_metrics(obs.metrics)
        return stats

    def step(self, now: int) -> None:
        """Simulate exactly cycle ``now`` (white-box tests drive this)."""
        self._cycles(now, now + 1)

    def _cycles(self, now: int, stop: int) -> int:
        """The pipeline: simulate cycles ``now, now + 1, ...`` until the
        whole trace has committed or cycle ``stop`` is reached; returns the
        next cycle number.  Always simulates at least one cycle.

        Each cycle runs commit -> execute -> memory -> dispatch -> fetch.
        Stages whose structures are provably idle are skipped outright (an
        empty ROB cannot commit, an empty waiting list cannot issue, ...);
        each guard reproduces the stage's own first-iteration exit
        condition, so elided and executed cycles are indistinguishable.

        Every loop-invariant object is hoisted to a local once per call.
        Structures a squash rebinds (``waiting``, ``mem_queue``) are
        re-read from ``self`` at each stage; everything
        hoisted is only ever mutated in place, and the cross-cycle locals
        (``committed_count``, the occupancy-sample baseline) are written
        back before returning, so a run split into :meth:`step` calls is
        the same run.

        Observation is hooks, not a second loop: the ``kernel.batch_size``
        histogram and the ``ports.occupancy`` series (one sample every
        4096 cycles) when the observer carries metrics.  The hooks only
        read counters, so observed runs are bit-identical to plain ones; a
        dormant hook costs one ``is not None`` test.
        """
        ports = self.ports
        engine = self.engine
        rob = self.rob
        lsq = self.lsq
        parked = self._parked
        stats = self.stats
        fetch_queue = self.fetch_queue
        rename = self.rename
        entries = self._entries
        soa = self._soa
        kinds = soa.kind
        clss = soa.cls
        lats = soa.lat
        valus = soa.valu
        rds = soa.rd
        d1s = soa.dep1
        d2s = soa.dep2
        addrs = soa.addr
        pcs_soa = soa.pc
        bkinds = soa.bkind
        vec_map = self.committed_vec_map
        cfi_windows = self.cfi_windows
        is_backward = self._is_backward
        data_access = self.hierarchy.data_access
        commit_store = self.commit_memory.store
        line_bytes = self._line_bytes
        resolve_mispredict = self._resolve_mispredict
        flush_from = self._flush_from
        schedule_memory = self._schedule_memory
        fetch_unit = self.fetch_unit
        gshare_predict = fetch_unit.gshare.predict_and_update
        indirect_predict = fetch_unit.indirect.predict_and_update
        inst_access = self.hierarchy.inst_access
        pc_bytes = soa.pc_bytes
        takens = soa.taken
        next_pcs = soa.next_pc
        l1i_line = self._l1i_line
        l1i_hit_latency = self._l1i_hit_latency
        fu_free = self.fu_free
        fu_busy = _FU_BUSY
        ports_available = ports.available
        ports_take = ports.take
        ports_read_word = ports.read_word
        ports_open_write = ports.open_write
        n_ports = ports.n_ports
        width = self._width
        commit_width = self._commit_width
        rob_size = self._rob_size
        lsq_size = self._lsq_size
        fq_size = self._fetch_queue_size
        mispredict_penalty = self._mispredict_penalty
        max_store_commit = self._max_store_commit
        wide_bus = self._wide_bus
        vec_pool = self._vec_pool
        blank = VecInFlight.blank
        #: the record the next vectorizer decode writes into (see dispatch).
        spare = None
        woken_alu = None
        if engine is not None:
            woken_alu = engine.woken_alu
            vpcs = engine.vrmt.pcs
            engine_tick = engine.tick
            decode_load = engine.decode_load
            decode_alu = engine.decode_alu
            on_store_commit = engine.on_store_commit
            on_validation_commit = engine.on_validation_commit
            on_validation_failure = engine.on_validation_failure
            maybe_free = engine._maybe_free
            on_backward_branch_commit = engine.on_backward_branch_commit
        else:
            vpcs = None
        total = len(entries)
        # Observation hooks, hoisted once (None = dormant).
        bh = series = None
        obs = self.observer
        if obs is not None and obs.metrics is not None:
            metrics = obs.metrics
            bh = metrics.histogram("kernel.batch_size").observe
            series = metrics.series("ports.occupancy")
            occupancy_scale = 4096 * ports.n_ports
            last_busy = self._occupancy_busy
        committed_count = self.committed_count
        while True:
            # ---- begin cycle (inlined ports.begin_cycle) -----------------
            ports.cycles += 1
            ports._used_this_cycle = 0
            if woken_alu:
                engine_tick(now)

            # ---- commit --------------------------------------------------
            if rob:
                t = rob[0].done_at
                if t is not None and t <= now:
                    committed = 0
                    stores_this_cycle = 0
                    while rob and committed < commit_width:
                        fl = rob[0]
                        t = fl.done_at
                        if t is None or t > now:
                            break
                        entry = fl.entry
                        kind = fl.kind
                        conflict = False
                        if kind == K_STORE:
                            if (
                                engine is not None
                                and stores_this_cycle >= max_store_commit
                            ):
                                break
                            if ports_available() == 0:
                                break
                            ready = data_access(fl.addr, now, is_write=True)
                            if ready is None:  # MSHR full
                                break
                            ports_take()
                            ports_open_write()
                            stats.write_accesses += 1
                            commit_store(fl.addr, entry.value)
                            stores_this_cycle += 1
                            stats.committed_stores += 1
                            if engine is not None:
                                conflict = on_store_commit(fl.addr, now)
                        rob.popleft()
                        # Only a squash reads the rename rollback token,
                        # and a committed instruction cannot be squashed;
                        # dropping it keeps the committed writers from
                        # chaining the whole run's history together.
                        fl.saved_tok = None
                        if kind == K_STORE:
                            lsq.popleft()  # stores commit in order
                            self.lsq_count -= 1
                        elif kind == K_LOAD:
                            self.lsq_count -= 1
                        committed += 1
                        if engine is not None:
                            # Vector-side commit state, which does not
                            # exist in the scalar (noIM/IM) machines.
                            if kind >= K_VALIDATION:  # validation or trigger
                                if cfi_windows and fl.counts_as_validation:
                                    # Fig 10: a validation in the window after
                                    # a mispredicted branch needed no
                                    # execution: it validated vector state
                                    # that survived the flush.  (The window
                                    # population itself was counted at the
                                    # branch's resolution.)  Commits run in
                                    # seq order, so a window this one is past
                                    # is past for good.
                                    cseq = fl.seq
                                    while (
                                        cfi_windows
                                        and cseq > cfi_windows[0][0] + CFI_WINDOW
                                    ):
                                        cfi_windows.popleft()
                                    vreg = fl.vreg
                                    if vreg is not None and fl.velem >= 0:
                                        for bseq, resolved in cfi_windows:
                                            if bseq < cseq <= bseq + CFI_WINDOW:
                                                stats.cfi_reused += 1
                                                rt = vreg.r_time[fl.velem]
                                                if rt is not None and rt <= resolved:
                                                    stats.cfi_precomputed += 1
                                on_validation_commit(fl, now, ports)
                            rd = entry.rd
                            if rd > 0:
                                old = vec_map[rd]
                                if old is not None:
                                    # The next writer committed: the old
                                    # element's F flag rises (§3.3).
                                    vreg = old[0]
                                    if not vreg.freed:
                                        vreg.f_bits |= 1 << old[1]
                                        if not vreg.u_bits:
                                            maybe_free(vreg, now)
                                    vec_map[rd] = (
                                        fl.vtok if kind >= K_VALIDATION else None
                                    )
                                elif kind >= K_VALIDATION:
                                    vec_map[rd] = fl.vtok
                            if is_backward[entry.pc] and bkinds[fl.seq]:
                                on_backward_branch_commit(entry.pc, now)
                            if kind >= K_VALIDATION:
                                # Commit is the last reference to a
                                # validation/trigger record (never in lsq or
                                # rename, and off every waiters and sleepers
                                # list once it could run): recycle it.
                                vec_pool.append(fl)
                        if conflict:
                            # §3.6: squash everything younger than the store.
                            flush_from(fl.seq + 1, now + 1 + mispredict_penalty, now)
                            break
                    committed_count += committed
                    stats.committed += committed

            # ---- execute -------------------------------------------------
            # One batched pass over the waiting window.  Phase 1 walks the
            # seq-sorted waiting list once, resolving dependences and
            # routing *ready* instructions into per-kind groups
            # (validations/triggers, zero-latency completions, issue ops);
            # phases 2-4 then complete each group as a unit.  The phase
            # split is exact because the deferred work has no intra-cycle
            # feedback into phase 1's routing decisions:
            #
            # * validations and stores consume neither issue width nor FUs,
            #   so extracting them from the seq-ordered scan leaves every
            #   width/FU allocation decision — made in phase 4 in seq order
            #   over the issue group — unchanged;
            # * completion times assigned this cycle are always > now, so no
            #   instruction processed later in the same pass can observe
            #   them as ready — consumers sleep on the producer's
            #   ``waiters`` list and re-enter at exactly the cycle the
            #   per-instruction rescan would have advanced;
            # * a validation failure at seq F only flushes instructions with
            #   seq >= F; phases 3-4 gate on F, and instructions older than
            #   F are unaffected by the failure's vector-side writes.
            if self.waiting or parked:
                issues_left = width
                # Parked instructions whose wake cycle has arrived rejoin
                # the scan.  Both lists are seq-sorted, so extend+sort is a
                # cheap two-run merge and the scan order matches the
                # never-parked order.
                if parked and parked[0][0] <= now:
                    waiting = self.waiting
                    while parked and parked[0][0] <= now:
                        waiting.append(heappop(parked)[2])
                    waiting.sort(key=_SEQ_KEY)
                still_waiting: List[InFlight] = []
                keep = still_waiting.append
                flush_seq: Optional[int] = None
                rv: Optional[List] = None
                rf: Optional[List] = None
                ri: Optional[List] = None
                # ---- phase 1: dependence scan + routing ------------------
                for fl in self.waiting:
                    # Dependence check, with compaction: a satisfied token
                    # can never become unsatisfied again (done_at and r_time
                    # are written once per object, now only grows), so each
                    # slot is cleared the first cycle it is ready.  A
                    # blocked instruction leaves the scan instead of being
                    # rescanned every cycle: when the blocking token's time
                    # is known it parks on the timed heap until that cycle;
                    # when it is not known yet — a producer that has not
                    # issued (done_at None) or a vector element not yet
                    # scheduled (r_time None) — it sleeps on the producer's
                    # ``waiters`` list or the element's ``sleepers`` list
                    # and moves to the heap the moment that time is set.
                    # Either way it rejoins the scan — in seq order — at the
                    # first cycle an every-cycle rescan could have advanced
                    # past that token, so the elided rescans are
                    # unobservable.
                    dep = fl.dep1
                    if dep is not None:
                        if type(dep) is tuple:
                            t = dep[0].r_time[dep[1]]
                            if t is None:
                                sleep_on_element(dep[0], dep[1], fl)
                                continue
                            if t > now:
                                heappush(parked, (t, fl.seq, fl))
                                continue
                        else:
                            t = dep.done_at
                            if t is None:
                                w = dep.waiters
                                if w is None:
                                    dep.waiters = [fl]
                                else:
                                    w.append(fl)
                                continue
                            if t > now:
                                heappush(parked, (t, fl.seq, fl))
                                continue
                        fl.dep1 = None
                    dep = fl.dep2
                    if dep is not None:
                        if type(dep) is tuple:
                            t = dep[0].r_time[dep[1]]
                            if t is None:
                                sleep_on_element(dep[0], dep[1], fl)
                                continue
                            if t > now:
                                heappush(parked, (t, fl.seq, fl))
                                continue
                        else:
                            t = dep.done_at
                            if t is None:
                                w = dep.waiters
                                if w is None:
                                    dep.waiters = [fl]
                                else:
                                    w.append(fl)
                                continue
                            if t > now:
                                heappush(parked, (t, fl.seq, fl))
                                continue
                        fl.dep2 = None
                    kind = fl.kind
                    if kind == K_SCALAR:
                        if fl.cls == _FU_NONE:
                            if rf is None:
                                rf = [fl]
                            else:
                                rf.append(fl)
                        elif ri is None:
                            ri = [fl]
                        else:
                            ri.append(fl)
                    elif kind == K_LOAD:
                        if ri is None:
                            ri = [fl]
                        else:
                            ri.append(fl)
                    elif kind == K_STORE:
                        if rf is None:
                            rf = [fl]
                        else:
                            rf.append(fl)
                    elif rv is None:
                        rv = [fl]
                    else:
                        rv.append(fl)

                done1 = now + 1
                # ---- phase 2: validations / triggers ---------------------
                if rv is not None:
                    if bh is not None:
                        bh(len(rv))
                    for fl in rv:
                        # Element still live and (for loads) predicted
                        # address matches the actual one.  The address
                        # verdict was precomputed at dispatch (fl.mismatch):
                        # both operands are decode-time constants.
                        vreg = fl.vreg
                        if vreg.freed or vreg.defunct or fl.mismatch:
                            # Misspeculation: recover to scalar from here;
                            # the rest of the group is younger, so flushed.
                            on_validation_failure(fl, now)
                            flush_seq = fl.seq
                            failed_reg = vreg
                            break
                        t = vreg.r_time[fl.velem]
                        if t is not None:
                            if t <= now:
                                fl.done_at = done1
                            else:
                                # r_time is write-once while this op is in
                                # flight (its U flag pins the register), so
                                # it cannot become ready before cycle t.  It
                                # can only *fail* early via a defunct flip,
                                # and both defunct writers wake it: a store-
                                # coherence conflict flushes everything
                                # younger than the committing store, and a
                                # validation failure drains the park heap
                                # and the register's sleepers below.
                                # Parking is therefore exact.
                                heappush(parked, (t, fl.seq, fl))
                        else:
                            sleep_on_element(vreg, fl.velem, fl)
                # ---- phase 3: zero-latency completions -------------------
                if rf is not None:
                    for fl in rf:
                        if flush_seq is not None and fl.seq >= flush_seq:
                            break
                        fl.done_at = done1
                        if fl.kind != K_STORE:
                            # Stores only capture address + data here;
                            # memory is written at commit and nothing
                            # renames to a store.  Sleepers whose squash
                            # re-fetched them are dropped (see InFlight).
                            if fl.waiters is not None:
                                for c in fl.waiters:
                                    if not c.squashed:
                                        heappush(parked, (done1, c.seq, c))
                                fl.waiters = None
                            if fl.mispredicted and not fl.redirected:
                                resolve_mispredict(fl, now)
                # ---- phase 4: issue (loads + FU ops, seq order) -----------
                if ri is not None:
                    by_cls = {}
                    for fl in ri:
                        if flush_seq is not None and fl.seq >= flush_seq:
                            break
                        if fl.kind == K_LOAD:
                            if issues_left <= 0:
                                keep(fl)
                                continue
                            # Disambiguation: every older store must know its
                            # address.  ``res`` ends as None (issued: queued
                            # to memory or forwarded), a cycle to park
                            # until, or the blocking token to sleep on (a
                            # producer or an unscheduled vector element:
                            # completion time still unknown).
                            # Store-address waits rejoin at t + 1, the first
                            # cycle a per-cycle rescan would pass the store.
                            my_addr = fl.addr
                            my_seq = fl.seq
                            forwarding_store = None
                            res = None
                            for other in lsq:
                                if other.seq >= my_seq:
                                    break
                                dep = other.base_dep
                                if dep is not None:
                                    if type(dep) is tuple:
                                        t = dep[0].r_time[dep[1]]
                                        if t is None:
                                            res = dep
                                            break
                                        if t + 1 > now:
                                            res = t + 1
                                            break
                                    else:
                                        t = dep.done_at
                                        if t is None:
                                            res = dep
                                            break
                                        if t + 1 > now:
                                            res = t + 1
                                            break
                                if other.addr == my_addr:
                                    forwarding_store = other  # youngest wins
                            if res is None:
                                if forwarding_store is None:
                                    self.mem_queue.append(fl)
                                    issues_left -= 1
                                    continue
                                dep = forwarding_store.data_dep
                                if dep is not None:
                                    if type(dep) is tuple:
                                        t = dep[0].r_time[dep[1]]
                                        if t is None:
                                            res = dep
                                        elif t > now:
                                            res = t
                                    else:
                                        t = dep.done_at
                                        if t is None:
                                            res = dep
                                        elif t > now:
                                            res = t
                                if res is None:
                                    fl.done_at = done1
                                    if fl.waiters is not None:
                                        for c in fl.waiters:
                                            if not c.squashed:
                                                heappush(parked, (done1, c.seq, c))
                                        fl.waiters = None
                                    stats.forwarded_loads += 1
                                    issues_left -= 1
                                    continue
                            if type(res) is int:
                                heappush(parked, (res, fl.seq, fl))
                            elif type(res) is tuple:
                                sleep_on_element(res[0], res[1], fl)
                            else:
                                w = res.waiters
                                if w is None:
                                    res.waiters = [fl]
                                else:
                                    w.append(fl)
                            continue
                        if issues_left <= 0:
                            keep(fl)
                            continue
                        # Grab a scalar FU: simple units are pipelined,
                        # mul/div units stay busy for the whole op (_FU_BUSY).
                        # With every unit of the class busy, the instruction
                        # parks until the first one frees: unit free times
                        # only grow, so it cannot issue earlier, and while it
                        # waits it takes no width and no unit, so leaving
                        # the scan changes nothing for its neighbours.  (A
                        # unit free next cycle, the pipelined case, is
                        # waited for on the scan: parking costs more.)
                        cls = fl.cls
                        pool = fu_free.get(cls)
                        if pool is not None:
                            for ui, free_at in enumerate(pool):
                                if free_at <= now:
                                    pool[ui] = now + fu_busy[cls]
                                    break
                            else:
                                free_at = min(pool)
                                if free_at > done1:
                                    heappush(parked, (free_at, fl.seq, fl))
                                else:
                                    keep(fl)
                                continue
                        issues_left -= 1
                        group = by_cls.get(cls)
                        if group is None:
                            by_cls[cls] = [fl]
                        else:
                            group.append(fl)
                    # Complete each FU class as one batch: one shared
                    # completion time per class, assigned group-wide.
                    for cls, group in by_cls.items():
                        if bh is not None:
                            bh(len(group))
                        done = now + group[0].lat
                        for fl in group:
                            fl.done_at = done
                            if fl.waiters is not None:
                                for c in fl.waiters:
                                    if not c.squashed:
                                        heappush(parked, (done, c.seq, c))
                                fl.waiters = None
                            if fl.mispredicted and not fl.redirected:
                                resolve_mispredict(fl, now)

                if flush_seq is not None:
                    # The failure defuncted a register; any parked op — in
                    # particular an *older* validation of the same register
                    # — must be rescanned so it notices the flip next cycle,
                    # as an unparked entry would.  So must the register's
                    # element sleepers.  (Younger ones are flushed.)
                    if parked:
                        still_waiting.extend(e[2] for e in parked)
                        del parked[:]
                    sleepers = failed_reg.sleepers
                    if sleepers is not None:
                        failed_reg.sleepers = None
                        for group in sleepers:
                            if group is not None:
                                still_waiting.extend(
                                    c for c in group if not c.squashed
                                )
                if len(still_waiting) > 1:
                    # Each phase keeps in seq order, so this is a cheap
                    # merge of a few sorted runs, restoring the seq-sorted
                    # invariant the next scan relies on.
                    still_waiting.sort(key=_SEQ_KEY)
                self.waiting = still_waiting
                if flush_seq is not None:
                    flush_from(flush_seq, now + 1 + mispredict_penalty, now)

            # ---- memory: L1 data-port transactions -----------------------
            if self.mem_queue or (engine is not None and engine.pending_fetches):
                if wide_bus:
                    queue = self.mem_queue
                    if (
                        len(queue) == 1
                        and (engine is None or not engine.pending_fetches)
                        and ports_available() != 0
                    ):
                        # One pending scalar load and no vector fetches to
                        # group with it: serve its line directly, skipping
                        # the group-building call (the common IM-mode case;
                        # with no fetch queued the call would serve just
                        # this load, so skipping it is exact in V mode too).
                        fl = queue[0]
                        addr = fl.addr
                        ready = data_access(addr - (addr % line_bytes), now)
                        if ready is not None:
                            ports_read_word()
                            stats.read_accesses += 1
                            stats.scalar_loads_to_memory += 1
                            fl.done_at = ready
                            if fl.waiters is not None:
                                for c in fl.waiters:
                                    if not c.squashed:
                                        heappush(parked, (ready, c.seq, c))
                                fl.waiters = None
                            self.mem_queue = []
                    else:
                        schedule_memory(now)
                elif self.mem_queue:
                    # Scalar buses: one word per port per transaction
                    # (vector element fetches need the wide bus).  Only
                    # this loop takes read ports, so the free count is
                    # read once.
                    queue = self.mem_queue
                    nq = len(queue)
                    free = n_ports - ports._used_this_cycle
                    if nq > free:
                        nq = free
                    served = 0
                    while served < nq:
                        fl = queue[served]
                        ready = data_access(fl.addr, now)
                        if ready is None:  # MSHR full; retry next cycle
                            break
                        ports_read_word()
                        stats.read_accesses += 1
                        stats.scalar_loads_to_memory += 1
                        fl.done_at = ready
                        if fl.waiters is not None:
                            for c in fl.waiters:
                                if not c.squashed:
                                    heappush(parked, (ready, c.seq, c))
                            fl.waiters = None
                        served += 1
                    if served:
                        self.mem_queue = queue[served:]

            # ---- dispatch ------------------------------------------------
            # Rename and insert up to ``width`` fetched instructions into
            # the window.  Static per-instruction properties come from the
            # trace SoA arrays, indexed by the packed seq from the queue.
            if fetch_queue:
                dispatched = 0
                lsq_count = self.lsq_count
                waiting = self.waiting
                max_seq = self._max_dispatched_seq
                rob_room = rob_size - len(rob)
                while fetch_queue and dispatched < width:
                    if rob_room <= 0:
                        break
                    packed = fetch_queue[0]
                    seq = packed >> 1
                    kind = kinds[seq]
                    if kind != K_SCALAR and lsq_count >= lsq_size:
                        break
                    entry = entries[seq]
                    is_valu = valus[seq]
                    # Vectorizer probe fast path: an arithmetic instruction
                    # whose PC never had a VRMT mapping and whose renamed
                    # sources are all scalar can only decode to a plain
                    # scalar with no engine state touched — skip the decode
                    # call.  ``vpcs`` is a conservative superset of the
                    # live VRMT keys, and a VRMT probe for an unmapped PC
                    # has no side effects, so elided and executed decodes
                    # are indistinguishable.  The decode writes a vector
                    # outcome into ``spare``, a validation/trigger record
                    # (recycled when possible) that a plain scalar leaves
                    # for the next decode.  An arithmetic decode runs
                    # before the instruction leaves the queue: it may stall
                    # it (§3.2's scalar-operand check), touching nothing.
                    vkind = None
                    if is_valu and vpcs is not None and entry.rd != NO_REG:
                        r = d1s[seq]
                        t1 = rename[r] if r >= 0 else None
                        r = d2s[seq]
                        t2 = rename[r] if r >= 0 else None
                        if (
                            type(t1) is tuple
                            or type(t2) is tuple
                            or pcs_soa[seq] in vpcs
                        ):
                            if spare is None:
                                spare = vec_pool.pop() if vec_pool else blank()
                            vkind = decode_alu(entry, t1, t2, now, spare)
                            if vkind == STALL:
                                stats.scalar_operand_stall_cycles += 1
                                break
                    fetch_queue.popleft()
                    dispatched += 1
                    rob_room -= 1

                    first_time = seq > max_seq
                    if first_time:
                        max_seq = seq

                    if kind == K_LOAD and vpcs is not None:
                        if spare is None:
                            spare = vec_pool.pop() if vec_pool else blank()
                        vkind = decode_load(entry, now, first_time, spare)

                    if vkind:
                        # A validation/trigger.  Only a load's address
                        # check has a source: its base.
                        fl = spare
                        spare = None
                        r = d1s[seq] if kind == K_LOAD else -1
                        fl.reset(
                            seq, entry, vkind, addrs[seq],
                            rename[r] if r >= 0 else None,
                        )
                        rd = rds[seq]
                        if rd > 0:
                            fl.saved_rd = rd
                            fl.saved_tok = rename[rd]
                            rename[rd] = fl.vtok = (fl.vreg, fl.velem)
                        rob.append(fl)
                        waiting.append(fl)
                        continue
                    # A scalar record.  Its sources are read before its
                    # destination is renamed (``add r1, r1, r2`` reads
                    # the old r1); a load reads only its base.
                    r = d1s[seq]
                    dep1 = rename[r] if r >= 0 else None
                    if kind == K_LOAD:
                        dep2 = None
                    else:
                        r = d2s[seq]
                        dep2 = rename[r] if r >= 0 else None
                    if vkind is None:
                        fl = InFlight(
                            seq, entry, kind, addrs[seq], dep1, dep2, packed & 1
                        )
                    else:
                        # A scalar that touched the VRMT: only the
                        # vector-capable class has the rollback slot.
                        fl = VecInFlight(
                            seq, entry, kind, addrs[seq], dep1, dep2,
                            packed & 1, spare.vrmt_rollback,
                        )
                    if kind == K_STORE:
                        fl.base_dep = dep1
                        fl.data_dep = dep2
                        lsq.append(fl)
                        lsq_count += 1
                    else:
                        if kind == K_LOAD:
                            lsq_count += 1
                        else:
                            fl.cls = clss[seq]
                            fl.lat = lats[seq]
                        rd = rds[seq]
                        if rd > 0:
                            fl.saved_rd = rd
                            fl.saved_tok = rename[rd]
                            rename[rd] = fl
                    rob.append(fl)
                    waiting.append(fl)
                self.lsq_count = lsq_count
                self._max_dispatched_seq = max_seq
                stats.fetched += dispatched

            # ---- fetch ---------------------------------------------------
            # Up to ``width`` instructions, as far as the fetch queue has
            # room, each queued as a packed ``(seq << 1) | mispredicted``
            # int.  Nothing is fetched in a mispredict bubble, during an
            # I-cache miss or once the trace runs dry.
            if (
                fq_size > len(fetch_queue)
                and not fetch_unit._blocked
                and now >= fetch_unit._stalled_until
            ):
                index = fetch_unit._index
                if index < total:
                    budget = fq_size - len(fetch_queue)
                    if width < budget:
                        budget = width
                    last_line = fetch_unit._last_line
                    hit_bound = now + l1i_hit_latency
                    push = fetch_queue.append
                    while budget > 0 and index < total:
                        pcb = pc_bytes[index]
                        # I-cache: probe when the group crosses into a new
                        # line.
                        line = pcb // l1i_line
                        if line != last_line:
                            ready = inst_access(pcb, now)
                            last_line = line
                            if ready > hit_bound:
                                # Miss: this group ends; retry once the
                                # line arrives.  (The group formed so far
                                # still issues this cycle.)
                                fetch_unit._stalled_until = ready
                                break
                        bkind = bkinds[index]
                        if bkind == 0:
                            push(index << 1)
                            index += 1
                            budget -= 1
                            continue
                        taken = takens[index]
                        if bkind == 1:  # conditional branch
                            mispredicted = not gshare_predict(pcs_soa[index], taken)
                        elif bkind == 2:  # indirect jump
                            mispredicted = not indirect_predict(
                                pcs_soa[index], next_pcs[index]
                            )
                        else:  # direct J/JAL: perfect BTB, never mispredicted
                            mispredicted = False
                        push((index << 1) | mispredicted)
                        index += 1
                        budget -= 1
                        if mispredicted:
                            # Fetch goes down the wrong path; starve until
                            # the branch resolves.
                            fetch_unit._blocked = True
                            break
                        if taken:
                            # At most one taken control transfer per cycle.
                            last_line = None
                            break
                    fetch_unit._index = index
                    fetch_unit._last_line = last_line

            now += 1
            if series is not None and not (now & 0x0FFF):
                busy = ports.busy_port_cycles
                series.append(now, (busy - last_busy) / occupancy_scale)
                last_busy = busy
            if committed_count >= total or now >= stop:
                break
        if spare is not None:
            vec_pool.append(spare)
        self.committed_count = committed_count
        if series is not None:
            self._occupancy_busy = last_busy
        return now

    def _record_metrics(self, registry) -> None:
        """End-of-run machine-level gauges (cache and port accounting).

        The whole-run ``sim.*`` counters are not recorded here:
        :mod:`repro.api` derives them from the returned stats
        (:func:`repro.observe.metrics.record_sim_stats`), whichever cache
        layer answered.
        """
        self.hierarchy.record_metrics(registry)
        ports = self.ports
        registry.gauge("ports.read_transactions").set(ports.read_transactions)
        registry.gauge("ports.write_transactions").set(ports.write_transactions)
        registry.gauge("ports.busy_port_cycles").set(ports.busy_port_cycles)
        registry.gauge("ports.occupancy.final").set(ports.occupancy)


def simulate(config: MachineConfig, trace: Trace, observer=None) -> SimStats:
    """Run ``trace`` through a machine built from ``config`` (convenience)."""
    return Machine(config, trace, observer=observer).run()
