"""Unit tests for the request bounds (Eq. 1, 3-6, Lemmas 1-2)."""

import pytest

from repro.businterference.context import AnalysisContext
from repro.businterference.requests import (
    _w_sum_fast_p,
    bao,
    bao_low,
    bas,
    carried_out_accesses,
    full_jobs_in_window,
    jobs_in_window,
)
from repro.errors import AnalysisError
from repro.model.platform import BusPolicy, Platform
from repro.model.task import Task, TaskSet


def make_task(name, priority, core=0, pd=100, md=10, md_r=None, period=1000,
              ecbs=(), ucbs=(), pcbs=()):
    return Task(
        name=name,
        pd=pd,
        md=md,
        md_r=md_r,
        period=period,
        deadline=period,
        priority=priority,
        core=core,
        ecbs=frozenset(ecbs),
        ucbs=frozenset(ucbs),
        pcbs=frozenset(pcbs),
    )


@pytest.fixture()
def system():
    t1 = make_task("t1", 1, core=0, md=6, md_r=2, period=100,
                   ecbs={0, 1, 2}, ucbs={0, 1}, pcbs={0, 1})
    t2 = make_task("t2", 2, core=0, md=8, period=400, ecbs={2, 3, 4}, ucbs={2})
    t3 = make_task("t3", 3, core=1, md=5, md_r=1, period=120,
                   ecbs={0, 1}, ucbs={0}, pcbs={0, 1})
    taskset = TaskSet([t1, t2, t3])
    platform = Platform(num_cores=2, d_mem=10, bus_policy=BusPolicy.FP)
    return taskset, platform, t1, t2, t3


def make_ctx(taskset, platform, persistence):
    return AnalysisContext(taskset=taskset, platform=platform, persistence=persistence)


class TestJobsInWindow:
    def test_exact_multiples(self):
        assert jobs_in_window(300, 100) == 3

    def test_partial_window_rounds_up(self):
        assert jobs_in_window(301, 100) == 4

    def test_zero_window(self):
        assert jobs_in_window(0, 100) == 0

    def test_rejects_negative_window(self):
        with pytest.raises(AnalysisError):
            jobs_in_window(-1, 100)

    def test_rejects_non_positive_period(self):
        with pytest.raises(AnalysisError):
            jobs_in_window(10, 0)


class TestBas:
    def test_own_demand_only_for_highest_priority(self, system):
        taskset, platform, t1, t2, t3 = system
        ctx = make_ctx(taskset, platform, False)
        assert bas(ctx, t1, 1000) == t1.md

    def test_baseline_formula(self, system):
        taskset, platform, t1, t2, t3 = system
        ctx = make_ctx(taskset, platform, False)
        gamma = ctx.crpd.gamma(t2, t1)
        t = 400
        expected = t2.md + jobs_in_window(t, 100) * (t1.md + gamma)
        assert bas(ctx, t2, t) == expected

    def test_persistence_never_exceeds_baseline(self, system):
        taskset, platform, t1, t2, t3 = system
        base = make_ctx(taskset, platform, False)
        aware = make_ctx(taskset, platform, True)
        for t in range(0, 2000, 37):
            assert bas(aware, t2, t) <= bas(base, t2, t)

    def test_monotone_in_window(self, system):
        taskset, platform, t1, t2, t3 = system
        for persistence in (False, True):
            ctx = make_ctx(taskset, platform, persistence)
            values = [bas(ctx, t2, t) for t in range(0, 2000, 50)]
            assert values == sorted(values)

    def test_rejects_negative_window(self, system):
        taskset, platform, t1, t2, t3 = system
        ctx = make_ctx(taskset, platform, False)
        with pytest.raises(AnalysisError):
            bas(ctx, t2, -5)

    def test_remote_tasks_do_not_contribute(self, system):
        taskset, platform, t1, t2, t3 = system
        ctx = make_ctx(taskset, platform, False)
        # t3 on core 1 must not appear in t2's same-core bound: removing it
        # from the system leaves BAS unchanged.
        reduced = TaskSet([t1, t2])
        ctx_reduced = make_ctx(reduced, platform, False)
        assert bas(ctx, t2, 800) == bas(ctx_reduced, t2, 800)


class TestFullJobsAndCarryOut:
    def test_short_window_no_full_jobs(self, system):
        taskset, platform, t1, t2, t3 = system
        ctx = make_ctx(taskset, platform, False)
        ctx.set_response_time(t3, 10)
        assert full_jobs_in_window(ctx, t2, t3, 0) == 0

    def test_full_jobs_grow_with_window(self, system):
        taskset, platform, t1, t2, t3 = system
        ctx = make_ctx(taskset, platform, False)
        values = [full_jobs_in_window(ctx, t2, t3, t) for t in range(0, 3000, 60)]
        assert values == sorted(values)

    def test_carry_out_capped_by_job_demand(self, system):
        taskset, platform, t1, t2, t3 = system
        ctx = make_ctx(taskset, platform, False)
        gamma = ctx.crpd.gamma(t2, t3)
        for t in range(0, 3000, 60):
            n = full_jobs_in_window(ctx, t2, t3, t)
            cout = carried_out_accesses(ctx, t2, t3, t, n)
            assert 0 <= cout <= t3.md + gamma

    def test_larger_response_time_means_more_jobs(self, system):
        taskset, platform, t1, t2, t3 = system
        ctx_small = make_ctx(taskset, platform, False)
        ctx_small.set_response_time(t3, 50)
        ctx_large = make_ctx(taskset, platform, False)
        ctx_large.set_response_time(t3, 500)
        t = 1000
        assert full_jobs_in_window(ctx_large, t2, t3, t) >= full_jobs_in_window(
            ctx_small, t2, t3, t
        )


class TestBao:
    def test_empty_remote_core(self, system):
        taskset, platform, t1, t2, t3 = system
        ctx = make_ctx(taskset, platform, False)
        # Core 1 hosts only t3 (priority 3); for priority level 1 nothing
        # on core 1 qualifies.
        assert bao(ctx, 1, t1, 1000) == 0

    def test_baseline_counts_full_and_carry_out(self, system):
        taskset, platform, t1, t2, t3 = system
        ctx = make_ctx(taskset, platform, False)
        t = 1000
        n = full_jobs_in_window(ctx, t3, t3, t)
        gamma = ctx.crpd.gamma(t3, t3)
        expected = n * (t3.md + gamma) + carried_out_accesses(ctx, t3, t3, t, n)
        assert bao(ctx, 1, t3, t) == expected

    def test_persistence_never_exceeds_baseline(self, system):
        taskset, platform, t1, t2, t3 = system
        base = make_ctx(taskset, platform, False)
        aware = make_ctx(taskset, platform, True)
        for t in range(0, 4000, 111):
            assert bao(aware, 1, t3, t) <= bao(base, 1, t3, t)

    def test_monotone_in_window(self, system):
        taskset, platform, t1, t2, t3 = system
        ctx = make_ctx(taskset, platform, True)
        values = [bao(ctx, 1, t3, t) for t in range(0, 4000, 120)]
        assert values == sorted(values)

    def test_rejects_negative_window(self, system):
        taskset, platform, t1, t2, t3 = system
        with pytest.raises(AnalysisError):
            bao(make_ctx(taskset, platform, False), 1, t3, -1)


class TestPersistentRemoteTermIsNotMonotone:
    """Lemma 2's remote term can drop when a remote estimate grows.

    One remote task with period 400, MD 10, MDr 2, |PCB| 3 and gamma 1,
    ``d_mem`` 10, window 300.  At R_l = 200 the window holds no full job,
    only a carry-out job charged MD + gamma = 11; at R_l = 210 that job
    is a full one, charged min(MD, MDr + |PCB|) + gamma = 6.  Both
    kernels must show the same dip: neither may assume monotonicity.
    """

    def test_both_kernels_dip_alike(self):
        remote = make_task("l", 1, core=1, md=10, md_r=2, period=400,
                           ecbs={1, 2, 3, 5}, pcbs={1, 2, 3})
        # gamma(k, l) = 1: the intermediate task's one UCB is in l's ECBs.
        # It has no demand of its own, so it adds nothing to the sum.
        intermediate = make_task("g", 2, core=1, md=0, period=10000,
                                 ecbs={5}, ucbs={5})
        analysed = make_task("k", 3, core=0)
        taskset = TaskSet([remote, intermediate, analysed])
        platform = Platform(num_cores=2, d_mem=10)
        reference = AnalysisContext(
            taskset=taskset, platform=platform, reference=True
        )
        production = AnalysisContext(taskset=taskset, platform=platform)
        rows = production._rows[1][production._cut[analysed.priority][1]][0]
        assert reference.crpd.gamma(analysed, remote) == 1
        assert rows[0][1:6] == (1, 400, 10, 2, 3)  # gamma, T, MD, MDr, |PCB|
        for r_l, accesses in ((200, 11), (210, 6)):
            reference.set_response_time(remote, r_l)
            production.set_response_time(remote, r_l)
            assert bao(reference, 1, analysed, 300) == accesses
            assert _w_sum_fast_p(production._est, rows, 300, 10, False) == accesses


class TestBaoLow:
    def test_counts_only_lower_priority_tasks(self, system):
        taskset, platform, t1, t2, t3 = system
        ctx = make_ctx(taskset, platform, False)
        t = 1000
        # From t2's standpoint, core 1 holds one lower-priority task: t3.
        assert bao_low(ctx, 1, t2, t) == bao(ctx, 1, t3, t)
        # From t3's standpoint nothing on core 1 is lower priority.
        assert bao_low(ctx, 1, t3, t) == 0

    def test_persistence_in_low_flag(self, system):
        taskset, platform, t1, t2, t3 = system
        faithful = make_ctx(taskset, platform, True)
        tightened = make_ctx(taskset, platform, True)
        tightened.persistence_in_low = True
        t = 2000
        assert bao_low(tightened, 1, t2, t) <= bao_low(faithful, 1, t2, t)
