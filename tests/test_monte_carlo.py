"""Generated-input checks of ``monte_carlo_goodput``.

``reference_goodput`` is the slot-by-slot form of the retry loop: every
TB slot takes the head of one FIFO queue of failed TBs, or a fresh TB
when the queue is empty, and draws one ``random()``.  The loop in
``monte_carlo_goodput`` must return exactly its result, which pins the
draw order that the seeded CSV lines rely on.  A counting generator
checks that the loop draws exactly one ``random()`` per TB slot.  The
renewal-theory oracle checks the rate the loop converges to.
"""
from __future__ import annotations

import math
import random
from types import SimpleNamespace
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ntn_harq import scheduler
from ntn_harq.harq import SF_SECONDS, CycleParams, Direction
from ntn_harq.scheduler import GoodputResult, build_proposed_cycle, monte_carlo_goodput


def reference_goodput(
    params: CycleParams,
    direction: Direction,
    bler_per_attempt: list[float],
    n_cycles: int,
    seed: int,
    tbs_bits: int,
) -> GoodputResult:
    cycle = build_proposed_cycle(params, direction)
    cycle_len = len(cycle)
    n_slots = params.n_tbphc
    rng = random.Random(seed)
    pending: list[int] = []  # attempt indices of TBs awaiting retransmission
    successes = 0
    attempts = 0
    retransmissions = 0
    for _ in range(n_cycles):
        failed: list[int] = []
        for _ in range(n_slots):
            if pending:
                attempt = pending.pop(0)
                retransmissions += 1
            else:
                attempt = 0
            attempts += 1
            p_fail = bler_per_attempt[min(attempt, len(bler_per_attempt) - 1)]
            if rng.random() < p_fail:
                failed.append(attempt + 1)
            else:
                successes += 1
        pending.extend(failed)
    success_per_slot = successes / (n_cycles * cycle_len)
    goodput = success_per_slot * (tbs_bits / SF_SECONDS)
    rate = retransmissions / attempts if attempts else 0.0
    return GoodputResult(goodput_bps=goodput, retransmission_rate=rate)


def attempt_moments(bler_per_attempt: list[float]) -> tuple[float, float]:
    """Mean and variance of the attempts one TB needs when attempt k fails
    with ``bler_per_attempt[k]`` (the last entry repeating):
    ``E[A] = sum_k prod_{i<k} p_i``.  Copied from the benchmark's
    ``bench/workloads.py::attempt_moments``."""
    mean = second = 0.0
    survive = 1.0  # P(A > k)
    k = 0
    while survive > 1e-15:
        mean += survive
        second += (2 * k + 1) * survive
        survive *= bler_per_attempt[min(k, len(bler_per_attempt) - 1)]
        k += 1
    return mean, second - mean * mean


def params_for(n_tbphc: int) -> CycleParams:
    return CycleParams(n_tbphc=n_tbphc, rep_pdcch=1, rep_pusch=4, ug2d_min=3, n_switch=1)


probabilities = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@settings(max_examples=300, deadline=None)
@given(
    n_tbphc=st.integers(1, 64),
    n_cycles=st.integers(1, 300),
    seed=st.integers(0, 2 ** 32),
    bler=st.lists(probabilities, min_size=1, max_size=8),
)
# few TBs per cycle at a low and at a high fresh-TB failure rate: cycles
# with nothing to retry alternate with cycles that retry
@example(n_tbphc=1, n_cycles=300, seed=1, bler=[0.05])
@example(n_tbphc=2, n_cycles=300, seed=2, bler=[0.05])
@example(n_tbphc=1, n_cycles=300, seed=3, bler=[0.9, 0.0])
@example(n_tbphc=2, n_cycles=300, seed=4, bler=[0.9, 0.0])
def test_monte_carlo_matches_slot_reference(n_tbphc, n_cycles, seed, bler):
    params = params_for(n_tbphc)
    args = (params, Direction.UL, bler, n_cycles, seed, 504)
    assert monte_carlo_goodput(*args) == reference_goodput(*args)


class CountingRandom(random.Random):
    """A ``random.Random`` that counts its ``random()`` draws."""

    draws = 0

    def random(self):
        self.draws += 1
        return super().random()


@settings(max_examples=200, deadline=None)
@given(
    n_tbphc=st.integers(1, 64),
    n_cycles=st.integers(1, 300),
    seed=st.integers(0, 2 ** 32),
    bler=st.lists(probabilities, min_size=1, max_size=8),
)
@example(n_tbphc=1, n_cycles=50, seed=0, bler=[1.0])
@example(n_tbphc=64, n_cycles=50, seed=0, bler=[0.0])
@example(n_tbphc=3, n_cycles=50, seed=0, bler=[1.0, 0.0])
def test_monte_carlo_draws_one_random_per_tb_slot(n_tbphc, n_cycles, seed, bler):
    made = []

    def counting(seed):
        made.append(CountingRandom(seed))
        return made[-1]

    args = (params_for(n_tbphc), Direction.UL, bler, n_cycles, seed, 504)
    with mock.patch.object(scheduler, "random", SimpleNamespace(Random=counting)):
        result = monte_carlo_goodput(*args)
    assert [rng.draws for rng in made] == [n_cycles * n_tbphc]
    assert result == monte_carlo_goodput(*args)


@settings(max_examples=200, deadline=None)
@given(
    n_tbphc=st.integers(1, 64),
    seed=st.integers(0, 2 ** 32),
    bler=st.lists(st.floats(0.0, 0.9), min_size=1, max_size=4),
)
def test_monte_carlo_success_per_slot_meets_renewal_oracle(n_tbphc, seed, bler):
    params = params_for(n_tbphc)
    n_cycles = math.ceil(4000 / n_tbphc)
    result = monte_carlo_goodput(params, Direction.UL, bler, n_cycles, seed, 504)
    cycle_len = len(build_proposed_cycle(params, Direction.UL))
    success = result.goodput_bps * SF_SECONDS / 504 * cycle_len / n_tbphc
    mean, var = attempt_moments(bler)
    slots = n_cycles * n_tbphc
    # the benchmark's goodput check (bench/workloads.py::_verify_goodput):
    # five renewal-theory standard deviations, plus the attempts that TBs
    # still queued at the end have used
    tolerance = 5.0 * math.sqrt(var / (mean ** 3 * slots)) + 3.0 * n_tbphc * mean / slots
    assert abs(success - 1.0 / mean) <= tolerance, (success, 1.0 / mean, tolerance)
