"""Typed event tracing: the taxonomy and the ring-buffer bus.

The simulator's interesting moments — a load qualifying in the Table of
Loads, a VRMT mapping appearing or dying, a speculative element fetch
riding the wide bus, a validation passing or failing, a store-range
coherence squash — are invisible in the end-of-run
:class:`~repro.pipeline.stats.SimStats` aggregate.  This module gives
every layer a common emission point: a :class:`TraceBus` that instrumented
components hold a reference to (``None`` when tracing is off, so the
*only* cost of disabled tracing is an ``is not None`` test at each
emission site).

Events are typed by ``kind`` strings from the taxonomy below
(``<subsystem>.<what>``), carry the emitting cycle / pc / dynamic sequence
number, and any kind-specific payload fields.  The bus captures them into
a bounded ring buffer (oldest events drop once ``capacity`` is exceeded;
per-kind counts keep counting), optionally filtered down to a subscribed
kind set; ``python -m repro trace`` writes the captured events as JSONL,
one :meth:`TraceEvent.to_dict` object per line.

Cross-checkability is part of the contract: emission sites are chosen so
that per-kind event counts equal the corresponding ``SimStats`` counters
(``validate.fail`` == ``validation_failures``, ``squash.coherence`` ==
``store_conflicts``, ``tl.promote`` == ``vector_load_instances``, ...);
``tests/observe/test_tracing.py`` pins the correspondence.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, Optional, Tuple

# ---------------------------------------------------------------------------
# Taxonomy
# ---------------------------------------------------------------------------

#: Table of Loads: a load instruction's stride qualified and a vector
#: instance was created for it (one event per created load instance).
TL_PROMOTE = "tl.promote"
#: Table of Loads: a misspeculation reset the entry's confidence.
TL_DEMOTE = "tl.demote"
#: VRMT: a pc -> vector-register mapping was installed.
VRMT_MAP = "vrmt.map"
#: VRMT: a mapping was dropped (operand change, failure, coherence).
VRMT_INVALIDATE = "vrmt.invalidate"
#: A speculative vector element fetch was issued over the wide bus.
VFETCH_ISSUE = "vfetch.issue"
#: A validation op committed successfully (Fig 14's countable events).
VALIDATE_PASS = "validate.pass"
#: A validation failed at execute: misspeculation recovery squash.
VALIDATE_FAIL = "validate.fail"
#: §3.6 store-range coherence hit: squash younger than the store.
SQUASH_COHERENCE = "squash.coherence"
#: Branch misprediction resolved: front end redirected.
FLUSH_BRANCH = "flush.branch"
#: A cache lookup missed (payload names the level: L1D/L1I/L2).
CACHE_MISS = "cache.miss"
#: An L1D miss merged into an already-outstanding MSHR fill.
MSHR_MERGE = "mshr.merge"
#: The fetch unit was rewound/redirected to a trace position.
FETCH_REDIRECT = "fetch.redirect"

EVENT_KINDS = frozenset(
    (
        TL_PROMOTE,
        TL_DEMOTE,
        VRMT_MAP,
        VRMT_INVALIDATE,
        VFETCH_ISSUE,
        VALIDATE_PASS,
        VALIDATE_FAIL,
        SQUASH_COHERENCE,
        FLUSH_BRANCH,
        CACHE_MISS,
        MSHR_MERGE,
        FETCH_REDIRECT,
    )
)

#: CLI-friendly group aliases: ``--events validation,squash`` expands
#: through this table; any exact kind or ``<subsystem>`` prefix works too.
EVENT_GROUPS: Dict[str, Tuple[str, ...]] = {
    "tl": (TL_PROMOTE, TL_DEMOTE),
    "vrmt": (VRMT_MAP, VRMT_INVALIDATE),
    "fetch": (VFETCH_ISSUE, FETCH_REDIRECT),
    "validation": (VALIDATE_PASS, VALIDATE_FAIL),
    "squash": (SQUASH_COHERENCE, FLUSH_BRANCH),
    "memory": (CACHE_MISS, MSHR_MERGE),
}


def coverage_signature(counts: Dict[str, int]) -> frozenset:
    """Bucketed per-kind event counts, as a behavioural coverage signal.

    The differential fuzzer (:mod:`repro.verify`) keeps an input in its
    corpus when the input's signature contains a ``(kind, bucket)`` pair
    the corpus has not seen before.  Raw counts would make every input
    "new"; following the classic AFL scheme, counts collapse into
    power-of-two buckets (1, 2, 3-4, 5-8, 9-16, ...) so only
    order-of-magnitude changes in how often a mechanism fires — or a kind
    firing at all — count as new behaviour.
    """
    signature = set()
    for kind, count in counts.items():
        if count <= 0:
            continue
        bucket = count if count <= 2 else 1 << (count - 1).bit_length()
        signature.add((kind, bucket))
    return frozenset(signature)


def resolve_event_kinds(spec: Optional[Iterable[str]]) -> Optional[frozenset]:
    """Expand a user filter into a kind set (None = everything).

    ``spec`` items may be exact kinds (``validate.fail``), group aliases
    (``validation``, ``squash``), or subsystem prefixes (``vrmt``).
    Unknown tokens raise ``ValueError`` listing what is known.
    """
    if spec is None:
        return None
    kinds: set = set()
    for token in spec:
        token = token.strip()
        if not token:
            continue
        if token in EVENT_KINDS:
            kinds.add(token)
        elif token in EVENT_GROUPS:
            kinds.update(EVENT_GROUPS[token])
        else:
            prefixed = [k for k in EVENT_KINDS if k.startswith(token + ".")]
            if not prefixed:
                known = sorted(EVENT_GROUPS) + sorted(EVENT_KINDS)
                raise ValueError(
                    f"unknown event filter {token!r}; known: {', '.join(known)}"
                )
            kinds.update(prefixed)
    return frozenset(kinds) if kinds else None


# ---------------------------------------------------------------------------
# Events and the bus
# ---------------------------------------------------------------------------


class TraceEvent:
    """One captured event: when, what, where, plus kind-specific fields."""

    __slots__ = ("cycle", "kind", "pc", "seq", "data")

    def __init__(
        self,
        cycle: int,
        kind: str,
        pc: int = -1,
        seq: int = -1,
        data: Optional[Dict] = None,
    ) -> None:
        self.cycle = cycle
        self.kind = kind
        self.pc = pc
        self.seq = seq
        self.data = data

    def to_dict(self) -> Dict:
        out: Dict = {"cycle": self.cycle, "kind": self.kind}
        if self.pc >= 0:
            out["pc"] = self.pc
        if self.seq >= 0:
            out["seq"] = self.seq
        if self.data:
            out.update(self.data)
        return out

    def __repr__(self) -> str:  # debugging convenience
        return f"TraceEvent({self.to_dict()!r})"


class TraceBus:
    """Bounded event capture with per-kind accounting.

    * ``capacity`` bounds the ring buffer; once full, the *oldest* events
      drop (``dropped`` counts them) while per-kind totals keep counting
      every emission — the cross-check against ``SimStats`` counters
      therefore survives overflow.
    * ``kinds`` (optional) pre-filters at the emission site: events of
      unsubscribed kinds are neither captured nor counted, and
      instrumented hot paths can skip payload construction entirely by
      asking :meth:`wants` first.
    """

    def __init__(
        self,
        capacity: int = 65_536,
        kinds: Optional[frozenset] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.kinds = kinds
        self.events: deque = deque(maxlen=capacity)
        self.emitted = 0
        self.counts: Dict[str, int] = {}

    # -- emission (instrumentation-facing) ---------------------------------

    def wants(self, kind: str) -> bool:
        """True when ``kind`` passes the subscription filter."""
        kinds = self.kinds
        return kinds is None or kind in kinds

    def emit(
        self,
        cycle: int,
        kind: str,
        pc: int = -1,
        seq: int = -1,
        **data,
    ) -> None:
        """Record one event (dropped silently if filtered out)."""
        kinds = self.kinds
        if kinds is not None and kind not in kinds:
            return
        self.emitted += 1
        self.counts[kind] = self.counts.get(kind, 0) + 1
        self.events.append(TraceEvent(cycle, kind, pc, seq, data or None))

    # -- consumption -------------------------------------------------------

    @property
    def dropped(self) -> int:
        """Events pushed out of the ring by later emissions."""
        return self.emitted - len(self.events)

    def count(self, kind: str) -> int:
        """Total emissions of ``kind`` (overflow-proof)."""
        return self.counts.get(kind, 0)

    def summary(self) -> Dict:
        """Capture accounting for reports: totals, drops, per-kind counts."""
        return {
            "emitted": self.emitted,
            "captured": len(self.events),
            "dropped": self.dropped,
            "capacity": self.capacity,
            "counts": dict(sorted(self.counts.items())),
        }
