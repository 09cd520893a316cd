"""SPEC95-like suite: construction, determinism, workload character."""

import pytest

from repro.experiments import diskcache
from repro.functional import run_program
from repro.workloads import (
    ALL_BENCHMARKS,
    SPEC_FP,
    SPEC_INT,
    build,
    cached_trace,
    is_fp_benchmark,
)
from repro.workloads import spec95
from repro.workloads.spec95 import DEFAULT_SCALE

SCALE = 6_000


@pytest.fixture(scope="module")
def traces():
    return {name: cached_trace(name, SCALE) for name in ALL_BENCHMARKS}


def test_registry_matches_paper_suite():
    assert SPEC_INT == ("go", "m88ksim", "gcc", "compress", "li", "ijpeg", "perl", "vortex")
    assert SPEC_FP == ("swim", "applu", "turb3d", "fpppp")
    assert len(ALL_BENCHMARKS) == 12


def test_unknown_benchmark_rejected():
    with pytest.raises(ValueError):
        build("mcf")


@pytest.mark.parametrize("name", ALL_BENCHMARKS)
def test_benchmark_builds_and_runs(name, traces):
    trace = traces[name]
    assert len(trace) > SCALE * 0.5


@pytest.mark.parametrize("name", ALL_BENCHMARKS)
def test_trace_length_near_scale(name, traces):
    assert len(traces[name]) <= SCALE


def test_deterministic_for_fixed_seed():
    a = run_program(build("gcc", 3000, seed=1), max_instructions=3000)
    b = run_program(build("gcc", 3000, seed=1), max_instructions=3000)
    assert [e.pc for e in a] == [e.pc for e in b]
    assert [e.addr for e in a] == [e.addr for e in b]


def test_seed_changes_data():
    a = build("gcc", 3000, seed=1)
    b = build("gcc", 3000, seed=2)
    assert a.data != b.data


@pytest.mark.parametrize("name", SPEC_FP)
def test_fp_benchmarks_use_fp(name, traces):
    trace = traces[name]
    fp = sum(1 for e in trace if 21 <= e.op <= 30 or e.op in (33, 34))
    assert fp / len(trace) > 0.3


@pytest.mark.parametrize("name", SPEC_INT)
def test_int_benchmarks_avoid_fp(name, traces):
    trace = traces[name]
    fp = sum(1 for e in trace if 21 <= e.op <= 30 or e.op in (33, 34))
    assert fp / len(trace) < 0.05


@pytest.mark.parametrize("name", ALL_BENCHMARKS)
def test_memory_density_is_spec_like(name, traces):
    """SPEC95-era codes retire roughly 25-50% memory operations."""
    trace = traces[name]
    mem = sum(1 for e in trace if e.is_load or e.is_store)
    assert 0.2 < mem / len(trace) < 0.55


def test_is_fp_benchmark():
    assert is_fp_benchmark("swim")
    assert not is_fp_benchmark("gcc")


def test_cached_trace_is_memoized():
    assert cached_trace("li", SCALE) is cached_trace("li", SCALE)


def test_every_spelling_of_one_trace_is_one_object(monkeypatch):
    """The resident table keys on the normalized ``(name, scale, seed)``:
    however a call spells one trace, it is loaded once and shared."""
    loads = []
    original = diskcache.load_cached_trace

    def counting(key):
        loads.append(key)
        return original(key)

    monkeypatch.setattr(diskcache, "load_cached_trace", counting)
    spec95.release_trace("li", 2_000)
    first = cached_trace("li", 2_000)
    assert cached_trace("li", 2_000, 0) is first
    assert cached_trace("li", scale=2_000) is first
    assert cached_trace(name="li", scale=2_000, seed=0) is first
    assert len(loads) == 1
    assert spec95.resident_traces().count(("li", 2_000, 0)) == 1


def test_released_trace_reloads_as_a_new_object():
    first = cached_trace("li", 2_000)
    spec95.release_trace("li", 2_000)
    assert ("li", 2_000, 0) not in spec95.resident_traces()
    again = cached_trace("li", 2_000)
    assert again is not first
    assert again.entries == first.entries
    assert ("li", 2_000, 0) in spec95.resident_traces()


def test_default_scale_reasonable():
    assert 10_000 <= DEFAULT_SCALE <= 1_000_000
