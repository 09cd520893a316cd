"""L1 data-cache ports: scalar buses or the 4-word wide bus.

The paper evaluates three memory organisations per port count *x*:

* ``xpnoIM`` — *x* scalar buses: every port transaction moves one word.
* ``xpIM``  — *x* wide buses: one transaction moves a whole 4-word line,
  and every pending load to that line (up to 4) is served by the single
  access (§3.7).
* ``xpV``   — wide buses plus dynamic vectorization; vector element
  fetches ride the same wide transactions.

This module owns two pieces of bookkeeping the experiments need:

* **occupancy** (Fig 12): fraction of port-cycles actually used;
* **usefulness** (Fig 13): for every *read* transaction on a wide bus, how
  many of the line's words were ultimately useful — served a scalar load,
  or a vector element that was later validated.  Vector elements are
  speculative at access time, so their words start in a ``speculative``
  bucket and migrate to ``useful`` when the element validates; a
  transaction whose words are all dead at the end of the run counts as an
  *unused (speculative) access*.
"""

from __future__ import annotations

from typing import Dict, List


#: Words per cache line / wide-bus transfer (32-byte lines of 8-byte words).
WORDS_PER_LINE = 4


class DataPorts:
    """Per-cycle port arbitration plus occupancy/usefulness statistics."""

    def __init__(self, n_ports: int, wide: bool) -> None:
        if n_ports < 1:
            raise ValueError("need at least one port")
        self.n_ports = n_ports
        self.wide = wide
        self._used_this_cycle = 0
        self.busy_port_cycles = 0
        self.cycles = 0
        self.read_transactions = 0
        self.write_transactions = 0
        #: per-read-transaction word counts, indexed by transaction id:
        #: two parallel int lists instead of one record per read, so a run
        #: leaves two containers, not thousands, for the garbage collector.
        self.useful_words: List[int] = []
        self.speculative_words: List[int] = []

    # -- per-cycle arbitration ------------------------------------------------

    def begin_cycle(self) -> None:
        """Advance to a new cycle; all ports become free."""
        self.cycles += 1
        self._used_this_cycle = 0

    def available(self) -> int:
        """Ports still free this cycle."""
        return self.n_ports - self._used_this_cycle

    def take(self) -> None:
        """Consume one port for this cycle (a transaction begins)."""
        if self._used_this_cycle >= self.n_ports:
            raise RuntimeError("port over-subscription")
        self._used_this_cycle += 1
        self.busy_port_cycles += 1

    # -- read / write transactions ----------------------------------------------

    def serve_line(self, useful: int, speculative: int) -> None:
        """Take a port for one read transaction and record its word counts:
        ``useful`` words serve scalar loads, ``speculative`` ones vector
        elements pending validation.  The counts are clamped to the line
        size: more loads than words can only mean duplicates to the same
        word, so the overflow comes out of the speculative words first.
        The transaction's id (what :meth:`element_validated` takes) is its
        index in :attr:`useful_words`, i.e. ``len(useful_words)`` before
        the call."""
        if self._used_this_cycle >= self.n_ports:
            raise RuntimeError("port over-subscription")
        self._used_this_cycle += 1
        self.busy_port_cycles += 1
        self.read_transactions += 1
        overflow = useful + speculative - WORDS_PER_LINE
        if overflow > 0:
            take = min(overflow, speculative)
            speculative -= take
            useful -= overflow - take
        self.useful_words.append(useful)
        self.speculative_words.append(speculative)

    def read_word(self) -> None:
        """``serve_line(1, 0)``: a read transaction that serves one scalar
        load (the serving paths that never group words)."""
        if self._used_this_cycle >= self.n_ports:
            raise RuntimeError("port over-subscription")
        self._used_this_cycle += 1
        self.busy_port_cycles += 1
        self.read_transactions += 1
        self.useful_words.append(1)
        self.speculative_words.append(0)

    def open_write(self) -> None:
        """Record a write (store-commit) transaction; writes carry no
        usefulness accounting — Fig 13 is about read lines only."""
        self.write_transactions += 1

    # -- usefulness accounting ---------------------------------------------------

    def element_validated(self, txn: int) -> None:
        """A vector element fetched by ``txn`` was validated: its word
        becomes useful."""
        speculative = self.speculative_words[txn]
        if speculative > 0:
            self.speculative_words[txn] = speculative - 1
            self.useful_words[txn] = min(WORDS_PER_LINE, self.useful_words[txn] + 1)

    # -- reporting ---------------------------------------------------------------

    @property
    def occupancy(self) -> float:
        """Busy port-cycles over total port-cycles (Fig 12's metric)."""
        total = self.n_ports * self.cycles
        return self.busy_port_cycles / total if total else 0.0

    def usefulness_histogram(self) -> Dict[str, float]:
        """Fractions of read transactions by useful-word count (Fig 13).

        Returns keys ``"1".."4"`` (lines contributing that many useful
        words) and ``"unused"`` (reads whose words were all speculative
        and never validated).  Fractions sum to 1 over read transactions.
        """
        words = self.useful_words
        total = len(words)
        if not total:
            return {"1": 0.0, "2": 0.0, "3": 0.0, "4": 0.0, "unused": 0.0}
        counts = {str(n): words.count(n) for n in range(1, WORDS_PER_LINE)}
        unused = words.count(0)
        # Counts are never negative; anything past 3 is a full line.
        counts["4"] = total - unused - sum(counts.values())
        counts["unused"] = unused
        return {k: v / total for k, v in counts.items()}
