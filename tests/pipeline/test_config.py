"""Machine configuration presets (Table 1) and the mode grid."""

import pytest

from repro.isa import FuClass
from repro.pipeline import (
    MachineConfig,
    eight_way,
    four_way,
    make_config,
)


def test_four_way_matches_table1():
    c = four_way()
    assert c.width == 4
    assert c.rob_size == 128
    assert c.lsq_size == 32
    assert c.int_simple_units == 3
    assert c.int_muldiv_units == 2
    assert c.fp_simple_units == 2
    assert c.fp_muldiv_units == 1
    assert c.gshare_entries == 64 * 1024
    assert c.commit_width == 4


def test_eight_way_matches_table1():
    c = eight_way()
    assert c.width == 8
    assert c.rob_size == 256
    assert c.lsq_size == 64
    assert c.int_simple_units == 6
    assert c.int_muldiv_units == 3
    assert c.fp_simple_units == 4
    assert c.fp_muldiv_units == 2


def test_vector_config_matches_table1():
    v = four_way().vector
    assert v.num_registers == 128
    assert v.vector_length == 4
    assert v.tl_ways == 4 and v.tl_sets == 512
    assert v.vrmt_ways == 4 and v.vrmt_sets == 64
    assert v.confidence_threshold == 2
    assert v.max_store_commit == 2


def test_hierarchy_matches_table1():
    h = four_way().hierarchy
    assert h.l1d_size == 64 * 1024 and h.l1d_assoc == 2 and h.l1d_line == 32
    assert h.l1d_hit_latency == 1
    assert h.l2_size == 256 * 1024 and h.l2_assoc == 4
    assert h.l2_hit_latency == 6 and h.memory_latency == 18
    assert h.max_outstanding_misses == 16


def test_fu_pools_share_muldiv():
    pools = four_way().fu_pool_sizes()
    assert pools[FuClass.INT_MUL] == pools[FuClass.INT_DIV] == 2
    assert pools[FuClass.FP_MUL] == pools[FuClass.FP_DIV] == 1


def test_make_config_grid():
    for width in (4, 8):
        for ports in (1, 2, 4):
            for mode in ("noIM", "IM", "V"):
                c = make_config(width, ports, mode)
                assert c.ports == ports
                assert c.wide_bus == (mode != "noIM")
                assert c.vectorize == (mode == "V")


def test_make_config_rejects_bad_inputs():
    with pytest.raises(ValueError):
        make_config(4, 1, "turbo")
    with pytest.raises(ValueError):
        make_config(6, 1, "V")


def test_vectorize_requires_wide_bus():
    with pytest.raises(ValueError):
        MachineConfig(vectorize=True, wide_bus=False)


def test_fetch_queue_defaults_to_twice_width():
    assert four_way().fetch_queue_size == 8
    assert eight_way().fetch_queue_size == 16
