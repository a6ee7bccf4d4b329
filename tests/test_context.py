"""Unit tests for the shared analysis context."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.businterference.arbiters import make_bat, total_bus_accesses
from repro.businterference.context import AnalysisContext
from repro.crpd.approaches import CrpdApproach, CrpdCalculator
from repro.errors import AnalysisError
from repro.model.platform import BusPolicy, Platform
from repro.model.task import Task, TaskSet
from repro.persistence.cpro import CproApproach, CproCalculator
from repro.verify.generators import random_taskset_case


@pytest.fixture()
def system():
    task = Task(name="t", pd=100, md=7, period=1000, deadline=1000, priority=1)
    taskset = TaskSet([task])
    platform = Platform(num_cores=1, d_mem=10)
    return taskset, platform, task


class TestDefaults:
    def test_default_calculators_match_paper(self, system):
        taskset, platform, task = system
        ctx = AnalysisContext(taskset=taskset, platform=platform)
        assert ctx.crpd.approach is CrpdApproach.ECB_UNION
        assert ctx.cpro.approach is CproApproach.UNION
        assert ctx.persistence is True
        assert ctx.persistence_in_low is False
        assert ctx.tdma_slot_alignment is False

    def test_custom_calculators_kept(self, system):
        taskset, platform, task = system
        crpd = CrpdCalculator(taskset, CrpdApproach.NONE)
        cpro = CproCalculator(taskset, CproApproach.GLOBAL)
        ctx = AnalysisContext(
            taskset=taskset, platform=platform, crpd=crpd, cpro=cpro
        )
        assert ctx.crpd is crpd
        assert ctx.cpro is cpro


class TestResponseTimes:
    def test_fallback_is_isolated_wcet(self, system):
        taskset, platform, task = system
        ctx = AnalysisContext(taskset=taskset, platform=platform)
        assert ctx.response_time(task) == 100 + 7 * 10

    def test_set_and_get(self, system):
        taskset, platform, task = system
        ctx = AnalysisContext(taskset=taskset, platform=platform)
        ctx.set_response_time(task, 512)
        assert ctx.response_time(task) == 512

    def test_rejects_negative_estimate(self, system):
        taskset, platform, task = system
        ctx = AnalysisContext(taskset=taskset, platform=platform)
        with pytest.raises(AnalysisError):
            ctx.set_response_time(task, -1)

    def test_unchanged_estimate_leaves_the_epoch_alone(self, system):
        # The outer loop's remote-epoch skip counts revisions: re-setting
        # the same estimate is no revision, a new value is exactly one.
        taskset, platform, task = system
        ctx = AnalysisContext(taskset=taskset, platform=platform)
        ctx.set_response_time(task, 12345)
        epochs = (ctx.epoch, ctx._core_epoch[task.core])
        ctx.set_response_time(task, 12345)
        assert (ctx.epoch, ctx._core_epoch[task.core]) == epochs
        ctx.set_response_time(task, 12346)
        assert (ctx.epoch, ctx._core_epoch[task.core]) == (
            epochs[0] + 1,
            epochs[1] + 1,
        )


# A small pool of deterministic random task sets; hypothesis picks the
# task set, the analysis flavour and the interleaving.
_CASES = [random_taskset_case(random.Random(seed)) for seed in (0, 1, 2)]

# (case index, CRPD approach, CPRO approach, persistence,
#  persistence_in_low)
_FLAVOURS = st.tuples(
    st.integers(min_value=0, max_value=len(_CASES) - 1),
    st.sampled_from(tuple(CrpdApproach)),
    st.sampled_from(tuple(CproApproach)),
    st.booleans(),
    st.booleans(),
)

# One interleaving step: bump a task's estimate, or query a task's BAT.
_STEP = st.tuples(
    st.booleans(),  # bump?
    st.integers(min_value=0, max_value=10 ** 6),  # task selector
    st.integers(min_value=1, max_value=200_000),  # window length / delta
)


def _kernel_pair(policy, flavour):
    """A production and a reference context over one task set."""
    case_index, crpd, cpro, persistence, persistence_in_low = flavour
    case = _CASES[case_index]
    taskset = case.taskset()
    production, reference = (
        AnalysisContext(
            taskset=taskset,
            platform=case.platform.with_bus_policy(policy),
            persistence=persistence,
            crpd=CrpdCalculator.shared(taskset, crpd),
            cpro=CproCalculator.shared(taskset, cpro),
            persistence_in_low=persistence_in_low,
            reference=is_reference,
        )
        for is_reference in (False, True)
    )
    return taskset, production, reference


def _isolated_wcet(ctx, task):
    return int(task.pd + task.md * ctx.platform.d_mem)


class TestKernelsTrackEveryEstimate:
    """Estimate bumps reach the production kernel's cached evaluators.

    The fixed point builds one fused ``bat`` closure per task and
    production context, and the closure reads the context's estimate list
    in place.  Under any interleaving of estimate bumps and queries it
    must agree, after every step, with a reference context given the same
    bumps.
    """

    @pytest.mark.parametrize("policy", list(BusPolicy))
    @settings(max_examples=25, deadline=None)
    @given(flavour=_FLAVOURS, steps=st.lists(_STEP, min_size=1, max_size=30))
    def test_interleaved_bumps_and_queries_agree(self, policy, flavour, steps):
        taskset, production, reference = _kernel_pair(policy, flavour)
        tasks = list(taskset)
        evaluators = {}
        for bump, selector, amount in steps:
            task = tasks[selector % len(tasks)]
            if bump:
                value = _isolated_wcet(production, task) + amount
                production.set_response_time(task, value)
                reference.set_response_time(task, value)
                continue
            bat = evaluators.get(task.priority)
            if bat is None:
                bat = evaluators[task.priority] = make_bat(production, task)
            assert bat(amount) == total_bus_accesses(reference, task, amount)

    @pytest.mark.parametrize("policy", list(BusPolicy))
    @settings(max_examples=15, deadline=None)
    @given(
        flavour=_FLAVOURS,
        bumps=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10 ** 6),
                st.integers(min_value=0, max_value=500_000),
            ),
            min_size=1,
            max_size=12,
        ),
        t=st.integers(min_value=1, max_value=200_000),
    )
    def test_every_evaluator_sees_each_bump(self, policy, flavour, bumps, t):
        # A bump moves the remote terms of every other core's tasks and,
        # on a multiset pair, the window terms of the bumped task's core:
        # every evaluator must see it on its next call.
        taskset, production, reference = _kernel_pair(policy, flavour)
        tasks = list(taskset)
        evaluators = [make_bat(production, task) for task in tasks]

        def agree():
            return [bat(t) for bat in evaluators] == [
                total_bus_accesses(reference, task, t) for task in tasks
            ]

        assert agree()
        for selector, delta in bumps:
            task = tasks[selector % len(tasks)]
            value = _isolated_wcet(production, task) + delta
            production.set_response_time(task, value)
            reference.set_response_time(task, value)
            assert agree()
