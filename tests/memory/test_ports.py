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
    ports.serve_line(3, 0)
    hist = ports.usefulness_histogram()
    assert hist["3"] == 1.0


def test_usefulness_unused_speculative():
    ports = DataPorts(1, wide=True)
    ports.begin_cycle()
    ports.serve_line(0, 2)
    hist = ports.usefulness_histogram()
    assert hist["unused"] == 1.0


def test_element_validation_migrates_words():
    ports = DataPorts(1, wide=True)
    ports.begin_cycle()
    ports.serve_line(0, 2)
    txn = 0
    ports.element_validated(txn)
    hist = ports.usefulness_histogram()
    assert hist["1"] == 1.0  # one word became useful
    ports.element_validated(txn)
    assert ports.usefulness_histogram()["2"] == 1.0


def test_extra_validations_are_capped():
    ports = DataPorts(1, wide=True)
    ports.begin_cycle()
    ports.serve_line(0, 1)
    ports.element_validated(0)
    ports.element_validated(0)  # no speculative words left
    assert ports.usefulness_histogram()["1"] == 1.0


def test_word_count_capped_at_line_size():
    ports = DataPorts(1, wide=True)
    ports.begin_cycle()
    ports.serve_line(3, 3)  # 6 > 4: clamp
    hist = ports.usefulness_histogram()
    assert hist["3"] == 1.0  # useful words kept, speculative clamped


def test_histogram_fractions_sum_to_one():
    ports = DataPorts(4, wide=True)
    ports.begin_cycle()
    for words in (1, 2, 4):
        ports.serve_line(words, 0)
    ports.serve_line(0, 1)
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
    ports = DataPorts(4, wide=True)
    ports.begin_cycle()
    ports.serve_line(2, 3)  # 5 words on a 4-word line: one speculative goes
    ports.serve_line(5, 2)  # 7 words: both speculative go, then one useful
    ports.serve_line(0, 2)
    a, b, c = range(3)
    assert (ports.useful_words[a], ports.speculative_words[a]) == (2, 2)
    assert (ports.useful_words[b], ports.speculative_words[b]) == (4, 0)
    ports.element_validated(b)  # nothing speculative left: no change
    assert (ports.useful_words[b], ports.speculative_words[b]) == (4, 0)
    ports.element_validated(c)
    assert (ports.useful_words[c], ports.speculative_words[c]) == (1, 1)
    assert (ports.useful_words[a], ports.speculative_words[a]) == (2, 2)
    hist = ports.usefulness_histogram()
    assert hist["4"] == hist["2"] == hist["1"] == pytest.approx(1 / 3)


def test_read_word_is_one_single_word_read():
    # read_word == serve_line(1, 0), port check included.
    fused = DataPorts(2, wide=False)
    split = DataPorts(2, wide=False)
    for ports in (fused, split):
        ports.begin_cycle()
    fused.read_word()
    split.serve_line(1, 0)
    for attr in ("busy_port_cycles", "read_transactions", "useful_words", "speculative_words"):
        assert getattr(fused, attr) == getattr(split, attr)
    assert fused.available() == split.available() == 1
    fused.read_word()
    split.serve_line(0, 4)
    with pytest.raises(RuntimeError):
        fused.read_word()
    with pytest.raises(RuntimeError):
        split.serve_line(1, 0)


def test_histogram_counts_every_word_count():
    # One read per useful-word count, 0 (unused) to 4.
    ports = DataPorts(4, wide=True)
    for useful in (0, 1, 2, 3, 4, 4, 0, 2):
        ports.begin_cycle()
        ports.serve_line(useful, 4 - useful)
    hist = ports.usefulness_histogram()
    assert list(hist) == ["1", "2", "3", "4", "unused"]
    assert hist == {"1": 1 / 8, "2": 2 / 8, "3": 1 / 8, "4": 2 / 8, "unused": 2 / 8}
