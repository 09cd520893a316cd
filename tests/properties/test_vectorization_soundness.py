"""Randomized soundness: the mechanism must never corrupt architecture.

Hypothesis generates random loop programs — strided and stride-breaking
loads, dependent arithmetic chains, read-modify-write stores that land
inside vector ranges, data-dependent branches — and replays each one
through the V-mode machine with ``check_invariants=True``.  If stride
prediction, operand matching, store coherence or squash rollback ever let
a wrong value commit, the engine raises
:class:`~repro.core.engine.MisspeculationError` and the test fails.

This is the repository's strongest guarantee: the paper's correctness
argument (§3) holds on arbitrary programs, not just the curated suite.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.functional import run_program
from repro.pipeline import make_config
from repro.pipeline.machine import Machine
from repro.workloads.builder import ProgramBuilder

INT_OPS = ("add", "sub", "and_", "or_", "xor", "mul", "slt")


@st.composite
def loop_programs(draw):
    """A random program: 1-3 loops of loads, ALU chains, stores, branches."""
    b = ProgramBuilder()
    arrays = []
    for _ in range(draw(st.integers(1, 3))):
        length = draw(st.integers(4, 20))
        init = [draw(st.integers(-50, 50)) for _ in range(length)]
        arrays.append((b.array(length, init, align=4), length))
    slot = b.array(1)

    ptr, val, acc, tmp = b.ireg(), b.ireg(), b.ireg(), b.ireg()
    for _ in range(draw(st.integers(1, 3))):
        base, length = draw(st.sampled_from(arrays))
        stride = draw(st.sampled_from((0, 8, 8, 16, 24)))
        iters = draw(st.integers(3, 18))
        store_kind = draw(st.sampled_from(("none", "slot", "rmw", "ahead")))
        branchy = draw(st.booleans())
        n_ops = draw(st.integers(1, 4))
        ops = [draw(st.sampled_from(INT_OPS)) for _ in range(n_ops)]

        b.li(ptr, base)
        b.li(acc, draw(st.integers(-5, 5)))
        with b.loop(iters):
            b.ld(val, 0, ptr)
            for name in ops:
                getattr(b, name)(acc, acc, val)
            if branchy:
                with b.if_nonzero(val):
                    b.addi(acc, acc, 1)
            if store_kind == "slot":
                b.st(acc, slot, 0)  # fixed out-of-range slot via r0 base
            elif store_kind == "rmw":
                b.st(acc, 0, ptr)  # overwrite the word just loaded
            elif store_kind == "ahead":
                b.st(acc, 8, ptr)  # clobber the next (speculative) element
            if stride:
                b.addi(ptr, ptr, stride)
    b.st(acc, 0, 0)  # final architectural result at address 0
    b.release(ptr, val, acc, tmp)
    b.halt()
    return b.build()


common = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@given(loop_programs())
@common
def test_v_mode_commits_everything_soundly(program):
    trace = run_program(program, max_instructions=3000)
    config = make_config(4, 1, "V")
    assert config.check_invariants
    stats = Machine(config, trace).run()
    # Every retired instruction commits exactly once; any mis-validated
    # value would have raised MisspeculationError inside the run.
    assert stats.committed == len(trace.entries)
    assert stats.validations_committed <= stats.committed


@given(loop_programs())
@common
def test_all_modes_complete(program):
    trace = run_program(program, max_instructions=2000)
    for mode in ("noIM", "IM", "V"):
        stats = Machine(make_config(4, 1, mode), trace).run()
        assert stats.committed == len(trace.entries)


@given(loop_programs())
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_v_mode_is_deterministic(program):
    trace = run_program(program, max_instructions=1500)
    a = Machine(make_config(4, 1, "V"), trace).run()
    b = Machine(make_config(4, 1, "V"), trace).run()
    assert a.cycles == b.cycles
    assert a.validations_committed == b.validations_committed
    assert a.read_accesses == b.read_accesses


@given(loop_programs(), st.sampled_from([(4, 2), (8, 1), (8, 4)]))
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_soundness_across_machine_shapes(program, shape):
    width, ports = shape
    trace = run_program(program, max_instructions=1500)
    stats = Machine(make_config(width, ports, "V"), trace).run()
    assert stats.committed == len(trace.entries)


@given(loop_programs())
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_soundness_without_tl_damping(program):
    """The paper's literal TL rule squashes more but stays correct."""
    trace = run_program(program, max_instructions=1500)
    config = make_config(4, 1, "V")
    config.vector.tl_damping = False
    stats = Machine(config, trace).run()
    assert stats.committed == len(trace.entries)


@given(loop_programs())
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_soundness_under_tiny_vector_resources(program):
    """Starved tables/pools change performance, never correctness."""
    trace = run_program(program, max_instructions=1500)
    config = make_config(4, 1, "V")
    config.vector.num_registers = 3
    config.vector.vrmt_sets = 2
    config.vector.vrmt_ways = 1
    config.vector.tl_sets = 4
    config.vector.tl_ways = 1
    stats = Machine(config, trace).run()
    assert stats.committed == len(trace.entries)
