"""Port arbitration, occupancy and Fig-13 usefulness accounting."""

import pytest

from repro.memory import DataPorts, WORDS_PER_LINE


def test_words_per_line_matches_paper():
    assert WORDS_PER_LINE == 4  # 32-byte lines of 8-byte words


def test_arbitration():
    ports = DataPorts(2, wide=True)
    ports.begin_cycle()
    assert ports.available() == 2
    ports.take()
    assert ports.available() == 1
    ports.take()
    assert ports.available() == 0
    with pytest.raises(RuntimeError):
        ports.take()


def test_ports_free_each_cycle():
    ports = DataPorts(1, wide=False)
    ports.begin_cycle()
    ports.take()
    ports.begin_cycle()
    assert ports.available() == 1


def test_occupancy():
    ports = DataPorts(2, wide=True)
    for _ in range(4):
        ports.begin_cycle()
        ports.take()
    assert ports.occupancy == pytest.approx(0.5)


def test_zero_ports_rejected():
    with pytest.raises(ValueError):
        DataPorts(0, wide=False)


def test_usefulness_scalar_words():
    ports = DataPorts(1, wide=True)
    ports.begin_cycle()
    txn = ports.open_read()
    ports.add_useful(txn, 3)
    hist = ports.usefulness_histogram()
    assert hist["3"] == 1.0


def test_usefulness_unused_speculative():
    ports = DataPorts(1, wide=True)
    ports.begin_cycle()
    txn = ports.open_read()
    ports.add_speculative(txn, 2)
    hist = ports.usefulness_histogram()
    assert hist["unused"] == 1.0


def test_element_validation_migrates_words():
    ports = DataPorts(1, wide=True)
    txn = ports.open_read()
    ports.add_speculative(txn, 2)
    ports.element_validated(txn)
    hist = ports.usefulness_histogram()
    assert hist["1"] == 1.0  # one word became useful
    ports.element_validated(txn)
    assert ports.usefulness_histogram()["2"] == 1.0


def test_extra_validations_are_capped():
    ports = DataPorts(1, wide=True)
    txn = ports.open_read()
    ports.add_speculative(txn, 1)
    ports.element_validated(txn)
    ports.element_validated(txn)  # no speculative words left
    assert ports.usefulness_histogram()["1"] == 1.0


def test_word_count_capped_at_line_size():
    ports = DataPorts(1, wide=True)
    txn = ports.open_read()
    ports.add_useful(txn, 3)
    ports.add_speculative(txn, 3)  # 6 > 4: clamp
    hist = ports.usefulness_histogram()
    assert hist["3"] == 1.0  # useful words kept, speculative clamped


def test_histogram_fractions_sum_to_one():
    ports = DataPorts(1, wide=True)
    for words in (1, 2, 4):
        txn = ports.open_read()
        ports.add_useful(txn, words)
    txn = ports.open_read()
    ports.add_speculative(txn, 1)
    hist = ports.usefulness_histogram()
    assert sum(hist.values()) == pytest.approx(1.0)


def test_empty_histogram_is_zeroes():
    hist = DataPorts(1, wide=True).usefulness_histogram()
    assert all(v == 0.0 for v in hist.values())


def test_write_transactions_counted_separately():
    ports = DataPorts(1, wide=True)
    ports.open_write()
    assert ports.write_transactions == 1
    assert ports.read_transactions == 0


def test_word_counts_cap_and_validate_on_the_flat_lists():
    # Per-read word counts live in two parallel int lists indexed by
    # transaction id; the line-size cap takes overflow out of the
    # speculative words first, then the useful ones.
    ports = DataPorts(1, wide=True)
    a = ports.open_read()
    b = ports.open_read()
    assert (a, b) == (0, 1)
    ports.add_speculative(a, 3)
    ports.add_useful(a, 2)  # 5 words on a 4-word line: one speculative goes
    assert (ports.useful_words[a], ports.speculative_words[a]) == (2, 2)
    ports.add_useful(a, 3)  # 7 words: both speculative go, then one useful
    assert (ports.useful_words[a], ports.speculative_words[a]) == (4, 0)
    ports.element_validated(a)  # nothing speculative left: no change
    assert (ports.useful_words[a], ports.speculative_words[a]) == (4, 0)
    ports.add_speculative(b, 2)
    ports.element_validated(b)
    assert (ports.useful_words[b], ports.speculative_words[b]) == (1, 1)
    assert (ports.useful_words[a], ports.speculative_words[a]) == (4, 0)
    hist = ports.usefulness_histogram()
    assert hist["4"] == 0.5 and hist["1"] == 0.5


def test_read_word_is_one_single_word_read():
    # read_word == take + open_read + add_useful(txn, 1), port check included.
    fused = DataPorts(2, wide=False)
    split = DataPorts(2, wide=False)
    for ports in (fused, split):
        ports.begin_cycle()
    fused.read_word()
    split.take()
    split.add_useful(split.open_read(), 1)
    for attr in ("busy_port_cycles", "read_transactions", "useful_words", "speculative_words"):
        assert getattr(fused, attr) == getattr(split, attr)
    assert fused.available() == split.available() == 1
    fused.read_word()
    with pytest.raises(RuntimeError):
        fused.read_word()
