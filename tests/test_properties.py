"""Property-based tests (hypothesis) on the core bounds and data structures.

Invariants covered:

* direct-mapped cache semantics (per-set independence, warm-start
  monotonicity);
* Eq. (10) multi-job demand (dominance, monotonicity, subadditivity);
* Lemmas 1-2 (persistence-aware bounds never exceed baselines; BAS is
  monotone in the window length, baseline BAO too);
* Eq. (8) vs (9) (RR's bus-access total never exceeds TDMA's);
* UUnifast (sums, positivity);
* structural extraction vs exact trace simulation on random branch-free
  programs.
"""

import random as _random

from hypothesis import given, settings, strategies as st

from repro.businterference.arbiters import make_bat
from repro.businterference.context import AnalysisContext
from repro.businterference.requests import bao, bas
from repro.cacheanalysis.extraction import extract_parameters
from repro.cacheanalysis.simulator import simulate_trace
from repro.cacheanalysis.state import DirectMappedCache
from repro.crpd.approaches import CrpdApproach, CrpdCalculator
from repro.generation.uunifast import uunifast
from repro.model.platform import BusPolicy, CacheGeometry, Platform
from repro.model.task import Task, TaskSet
from repro.persistence.cpro import CproApproach, CproCalculator
from repro.persistence.demand import multi_job_demand
from repro.program.cfg import Block, Loop, Program, Seq

GEO = CacheGeometry(num_sets=16, block_size=32)

blocks = st.integers(min_value=0, max_value=63)
traces = st.lists(blocks, max_size=60)


class TestCacheProperties:
    @given(trace=traces)
    def test_hits_plus_misses_equals_accesses(self, trace):
        result = simulate_trace(trace, GEO)
        assert result.hits + result.misses == len(trace)

    @given(trace=traces)
    def test_misses_at_least_distinct_sets(self, trace):
        # Every distinct cache set touched by the trace misses at least
        # once (the first access to it starts from an empty set).
        result = simulate_trace(trace, GEO)
        distinct_sets = {GEO.set_of_block(b) for b in trace}
        assert result.misses >= len(distinct_sets)

    @given(trace=traces, warm=st.lists(blocks, max_size=16))
    def test_warm_start_never_increases_misses(self, trace, warm):
        cold = simulate_trace(trace, GEO)
        warm_state = DirectMappedCache.with_resident_blocks(GEO, warm)
        warmed = simulate_trace(trace, GEO, initial=warm_state)
        assert warmed.misses <= cold.misses

    @given(trace=traces)
    def test_final_state_blocks_map_to_their_sets(self, trace):
        result = simulate_trace(trace, GEO)
        for block in result.final_state.resident_blocks():
            assert result.final_state.lookup(block)

    @given(trace=traces)
    def test_repeat_of_trace_only_hits_for_persistent_suffix(self, trace):
        # Replaying a trace from its own final state gives at most the
        # cold-run miss count.
        first = simulate_trace(trace, GEO)
        second = simulate_trace(trace, GEO, initial=first.final_state)
        assert second.misses <= first.misses


def task_strategy(priority, core):
    return st.builds(
        lambda pd, md, mdr_frac, period_factor, e, u, p: _make_task(
            priority, core, pd, md, mdr_frac, period_factor, e, u, p
        ),
        st.integers(min_value=1, max_value=500),
        st.integers(min_value=0, max_value=60),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=2, max_value=20),
        st.integers(min_value=0, max_value=30),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )


def _make_task(priority, core, pd, md, mdr_frac, period_factor, e, u_frac, p_frac):
    rng = _random.Random(priority * 7919 + e)
    ecbs = frozenset(rng.sample(range(64), e)) if e else frozenset()
    ordered = sorted(ecbs)
    ucbs = frozenset(ordered[: int(u_frac * len(ordered))])
    pcbs = frozenset(ordered[int((1 - p_frac) * len(ordered)):])
    d_mem = 10
    period = max(1, period_factor * (pd + md * d_mem))
    return Task(
        name=f"t{priority}",
        pd=pd,
        md=md,
        md_r=int(mdr_frac * md),
        period=period,
        deadline=period,
        priority=priority,
        core=core,
        ecbs=ecbs,
        ucbs=ucbs,
        pcbs=pcbs,
    )


def taskset_strategy():
    return st.builds(
        lambda t1, t2, t3, t4: TaskSet([t1, t2, t3, t4]),
        task_strategy(1, 0),
        task_strategy(2, 0),
        task_strategy(3, 1),
        task_strategy(4, 1),
    )


windows = st.integers(min_value=0, max_value=50_000)


class TestBoundProperties:
    @settings(max_examples=60)
    @given(taskset=taskset_strategy(), t=windows)
    def test_persistence_bas_never_exceeds_baseline(self, taskset, t):
        platform = Platform(num_cores=2, d_mem=10, bus_policy=BusPolicy.FP)
        aware = AnalysisContext(taskset=taskset, platform=platform, persistence=True)
        base = AnalysisContext(taskset=taskset, platform=platform, persistence=False)
        for task in taskset:
            assert bas(aware, task, t) <= bas(base, task, t)

    @settings(max_examples=60)
    @given(taskset=taskset_strategy(), t=windows)
    def test_persistence_bao_never_exceeds_baseline(self, taskset, t):
        platform = Platform(num_cores=2, d_mem=10, bus_policy=BusPolicy.FP)
        aware = AnalysisContext(taskset=taskset, platform=platform, persistence=True)
        base = AnalysisContext(taskset=taskset, platform=platform, persistence=False)
        for task in taskset:
            for core in (0, 1):
                assert bao(aware, core, task, t) <= bao(base, core, task, t)

    @settings(max_examples=40)
    @given(taskset=taskset_strategy(), t1=windows, t2=windows)
    def test_bounds_monotone_in_window(self, taskset, t1, t2):
        # BAS is monotone for both analyses; BAO is only guaranteed
        # monotone for the baseline: the persistence-aware W-hat can dip at
        # carry-out boundaries (a new full job enters the persistence
        # ``min`` while the persistence-oblivious carry-out term resets) —
        # see repro.analysis.decomposition for the discussion.
        lo, hi = sorted((t1, t2))
        platform = Platform(num_cores=2, d_mem=10, bus_policy=BusPolicy.FP)
        for persistence in (False, True):
            ctx = AnalysisContext(
                taskset=taskset, platform=platform, persistence=persistence
            )
            for task in taskset:
                assert bas(ctx, task, lo) <= bas(ctx, task, hi)
        baseline = AnalysisContext(
            taskset=taskset, platform=platform, persistence=False
        )
        for task in taskset:
            assert bao(baseline, 1, task, lo) <= bao(baseline, 1, task, hi)

    @settings(max_examples=60)
    @given(taskset=taskset_strategy(), t=windows)
    def test_bas_at_least_own_demand(self, taskset, t):
        platform = Platform(num_cores=2, d_mem=10, bus_policy=BusPolicy.FP)
        ctx = AnalysisContext(taskset=taskset, platform=platform, persistence=True)
        for task in taskset:
            assert bas(ctx, task, t) >= task.md


#: CRPD/CPRO approach pairs of the fused kernel: window oblivious, and
#: each multiset side alone and together.
APPROACH_PAIRS = (
    (CrpdApproach.ECB_UNION, CproApproach.UNION),
    (CrpdApproach.ECB_UNION_MULTISET, CproApproach.UNION),
    (CrpdApproach.ECB_UNION, CproApproach.MULTISET),
    (CrpdApproach.ECB_UNION_MULTISET, CproApproach.MULTISET),
)


def three_core_taskset_strategy():
    return st.builds(
        lambda *tasks: TaskSet(tasks),
        *(task_strategy(priority, (priority - 1) // 2) for priority in range(1, 7)),
    )


class TestRoundRobinNeverExceedsTdma:
    """Eq. (8) charges each of the ``L - 1`` remote cores at most
    ``s * BAS``, Eq. (9) exactly that, over the same BAS and blocking term:
    RR's BAT is at most TDMA's at every window and estimate, the premise
    of the sweep's RR <= TDMA dominance skip."""

    @settings(max_examples=60, deadline=None)
    @given(
        taskset=three_core_taskset_strategy(),
        estimates=st.lists(
            st.integers(min_value=0, max_value=50_000), min_size=6, max_size=6
        ),
        t=windows,
        slot_size=st.integers(min_value=1, max_value=4),
        persistence=st.booleans(),
        aligned=st.booleans(),
        approaches=st.sampled_from(APPROACH_PAIRS),
        reference=st.booleans(),
    )
    def test_rr_bat_at_most_tdma_bat(
        self, taskset, estimates, t, slot_size, persistence, aligned,
        approaches, reference,
    ):
        crpd, cpro = approaches
        bats = {}
        for policy in (BusPolicy.RR, BusPolicy.TDMA):
            ctx = AnalysisContext(
                taskset=taskset,
                platform=Platform(
                    num_cores=3, d_mem=10, bus_policy=policy,
                    slot_size=slot_size,
                ),
                persistence=persistence,
                crpd=CrpdCalculator.shared(taskset, crpd),
                cpro=CproCalculator.shared(taskset, cpro),
                tdma_slot_alignment=aligned,
                reference=reference,
            )
            for task, estimate in zip(taskset, estimates):
                ctx.set_response_time(task, estimate)
            bats[policy] = {task: make_bat(ctx, task)(t) for task in taskset}
        for task in taskset:
            assert bats[BusPolicy.RR][task] <= bats[BusPolicy.TDMA][task]


class TestDemandProperties:
    @settings(max_examples=100)
    @given(
        md=st.integers(min_value=0, max_value=1000),
        mdr_frac=st.floats(min_value=0, max_value=1),
        pcbs=st.integers(min_value=0, max_value=64),
        n=st.integers(min_value=0, max_value=100),
    )
    def test_demand_bounded_both_ways(self, md, mdr_frac, pcbs, n):
        task = Task(
            name="t",
            pd=1,
            md=md,
            md_r=int(md * mdr_frac),
            period=10_000_000,
            deadline=10_000_000,
            priority=1,
            ecbs=frozenset(range(pcbs)),
            pcbs=frozenset(range(pcbs)),
        )
        value = multi_job_demand(task, n)
        assert value <= n * task.md
        assert value <= n * task.md_r + len(task.pcbs) or n == 0

    @settings(max_examples=50)
    @given(
        md=st.integers(min_value=0, max_value=200),
        mdr=st.integers(min_value=0, max_value=200),
        pcbs=st.integers(min_value=0, max_value=64),
        n1=st.integers(min_value=0, max_value=50),
        n2=st.integers(min_value=0, max_value=50),
    )
    def test_demand_monotone_and_subadditive(self, md, mdr, pcbs, n1, n2):
        task = Task(
            name="t",
            pd=1,
            md=max(md, mdr),
            md_r=min(md, mdr),
            period=10_000_000,
            deadline=10_000_000,
            priority=1,
            ecbs=frozenset(range(pcbs)),
            pcbs=frozenset(range(pcbs)),
        )
        assert multi_job_demand(task, n1) <= multi_job_demand(task, n1 + n2)
        # Splitting a run of jobs can only add PCB reloads.
        assert multi_job_demand(task, n1 + n2) <= multi_job_demand(
            task, n1
        ) + multi_job_demand(task, n2)


class TestUUnifastProperties:
    @settings(max_examples=100)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=1, max_value=32),
        total=st.floats(min_value=0.01, max_value=0.99),
    )
    def test_sum_and_positivity(self, seed, n, total):
        utils = uunifast(_random.Random(seed), n, total)
        assert len(utils) == n
        assert abs(sum(utils) - total) < 1e-9
        assert all(u >= 0 for u in utils)


def branch_free_programs():
    line = st.integers(min_value=0, max_value=40)
    simple_block = st.builds(
        lambda l, n: Block(start=l * 32, n_instructions=8 * n),
        line,
        st.integers(min_value=1, max_value=3),
    )
    loops = st.builds(
        lambda body, bound: Loop(body=body, bound=bound),
        st.builds(lambda a, b: Seq(a, b), simple_block, simple_block),
        st.integers(min_value=1, max_value=12),
    )
    return st.builds(
        lambda parts: Program(name="random", root=Seq(*parts)),
        st.lists(st.one_of(simple_block, loops), min_size=1, max_size=5),
    )


def unrolled_trace(node):
    if isinstance(node, Block):
        return list(node.memory_blocks(GEO))
    if isinstance(node, Seq):
        out = []
        for part in node.parts:
            out.extend(unrolled_trace(part))
        return out
    if isinstance(node, Loop):
        return unrolled_trace(node.body) * node.bound
    raise AssertionError("branch-free only")


class TestExtractionProperties:
    @settings(max_examples=60, deadline=None)
    @given(program=branch_free_programs())
    def test_extraction_exact_for_branch_free(self, program):
        params = extract_parameters(program, GEO)
        trace = unrolled_trace(program.root)
        result = simulate_trace(trace, GEO)
        assert params.md == result.misses
        assert params.ucbs == result.hit_sets

    @settings(max_examples=60, deadline=None)
    @given(program=branch_free_programs())
    def test_md_r_relation(self, program):
        params = extract_parameters(program, GEO)
        assert 0 <= params.md_r <= params.md
        assert params.md - params.md_r <= len(params.pcbs)


class TestSchedulabilityMonotonicity:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=500),
        base_util=st.floats(min_value=0.15, max_value=0.5),
    )
    def test_longer_periods_never_hurt(self, seed, base_util):
        """Uniformly stretching every period keeps schedulable sets
        schedulable (interference per unit time only drops)."""
        from repro.analysis import PERSISTENCE_AWARE, is_schedulable
        from repro.analysis.sensitivity import _scaled_taskset
        from repro.generation import generate_taskset

        platform = Platform(num_cores=2, d_mem=10, bus_policy=BusPolicy.FP)
        taskset = generate_taskset(_random.Random(seed), platform, base_util)
        if not is_schedulable(taskset, platform, PERSISTENCE_AWARE):
            return
        stretched = _scaled_taskset(taskset, 2.0)
        assert is_schedulable(stretched, platform, PERSISTENCE_AWARE)

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=500),
        base_util=st.floats(min_value=0.15, max_value=0.5),
    )
    def test_faster_memory_never_hurts(self, seed, base_util):
        """Shrinking d_mem keeps schedulable sets schedulable: every
        interference term of the analysis scales with the latency."""
        from repro.analysis import PERSISTENCE_AWARE, is_schedulable
        from repro.generation import generate_taskset

        platform = Platform(num_cores=2, d_mem=10, bus_policy=BusPolicy.RR)
        taskset = generate_taskset(_random.Random(seed), platform, base_util)
        if not is_schedulable(taskset, platform, PERSISTENCE_AWARE):
            return
        assert is_schedulable(
            taskset, platform.with_d_mem(5), PERSISTENCE_AWARE
        )
