"""Gshare and indirect-target predictors."""

import pytest

from repro.frontend import GsharePredictor, IndirectPredictor


def test_entries_must_be_power_of_two():
    with pytest.raises(ValueError):
        GsharePredictor(entries=1000)


def test_learns_always_taken():
    p = GsharePredictor(entries=1024, history_bits=8)
    for _ in range(4):
        p.predict_and_update(100, True)
    assert p.predict_and_update(100, True)


def test_learns_always_not_taken():
    p = GsharePredictor(entries=1024, history_bits=8)
    for _ in range(4):
        p.predict_and_update(100, False)
    assert p.predict_and_update(100, False)


def test_learns_alternating_pattern_via_history():
    p = GsharePredictor(entries=4096, history_bits=8)
    outcome = True
    # Train: strict alternation is perfectly predictable with history.
    for _ in range(200):
        p.predict_and_update(64, outcome)
        outcome = not outcome
    correct = 0
    for _ in range(50):
        correct += p.predict_and_update(64, outcome)
        outcome = not outcome
    assert correct >= 48


def test_learns_loop_exit_pattern():
    """A loop taken 7 times then not taken once (classic trip count)."""
    p = GsharePredictor(entries=16 * 1024, history_bits=12)
    for _ in range(120):
        for i in range(8):
            p.predict_and_update(5, i < 7)
    before = p.stats.cond_mispredicts
    for _ in range(10):
        for i in range(8):
            p.predict_and_update(5, i < 7)
    assert p.stats.cond_mispredicts - before <= 2


def test_stats_counting():
    p = GsharePredictor(entries=1024)
    p.predict_and_update(0, True)
    assert p.stats.conditional == 1
    assert p.stats.cond_mispredicts <= p.stats.conditional


def test_counters_saturate():
    p = GsharePredictor(entries=16, history_bits=0)
    for _ in range(10):
        p.predict_and_update(0, True)
    # One not-taken must not flip the prediction (2-bit hysteresis).
    p.predict_and_update(0, False)
    assert p.predict_and_update(0, True)


class TestIndirect:
    def test_first_encounter_mispredicts(self):
        p = IndirectPredictor()
        assert not p.predict_and_update(10, 50)

    def test_repeated_target_predicts(self):
        p = IndirectPredictor()
        p.predict_and_update(10, 50)
        assert p.predict_and_update(10, 50)

    def test_changed_target_mispredicts(self):
        p = IndirectPredictor()
        p.predict_and_update(10, 50)
        assert not p.predict_and_update(10, 60)
        assert p.predict_and_update(10, 60)

    def test_stats(self):
        p = IndirectPredictor()
        p.predict_and_update(10, 50)
        p.predict_and_update(10, 50)
        assert p.stats.indirect == 2
        assert p.stats.indirect_mispredicts == 1
