"""The batched episodic generators reproduce the access-by-access streams.

``EpisodeMixin._episode_addrs`` draws its slot indices in numpy blocks and
``SpecProxyWorkload.generate`` fills its mix with array operations. Both
must give exactly the trace of the one-step-at-a-time definition kept in
:mod:`tests.scalar_generators`, for every proxy, seed and length.
"""

import numpy as np
import pytest

from repro.common.config import Geometry
from repro.workloads import SpecProxyWorkload, ZipfWorkload
from repro.workloads import synthetic
from repro.workloads.spec import SPEC_PARAMS
from tests.scalar_generators import ScalarSpecProxyWorkload, ScalarZipfWorkload

MB = 1 << 20
FOOT = 8 * MB
LENGTHS = (1, 23, 10_000)


def assert_same_trace(batched, scalar):
    for field in ("addrs", "writes", "igaps", "cores"):
        a, b = getattr(batched, field), getattr(scalar, field)
        assert a.dtype == b.dtype, field
        assert np.array_equal(a, b), field
    assert batched.regions == scalar.regions
    assert batched.default_profile == scalar.default_profile
    assert batched.footprint_bytes == scalar.footprint_bytes


def assert_same_rng_state(batched_gen, scalar_gen):
    assert batched_gen.rng.bit_generator.state == scalar_gen.rng.bit_generator.state


@pytest.mark.parametrize("n", LENGTHS)
@pytest.mark.parametrize("seed", (1, 2, 3))
@pytest.mark.parametrize("bench_name", sorted(SPEC_PARAMS))
def test_spec_proxy_matches_scalar(bench_name, seed, n):
    batched = SpecProxyWorkload(bench_name, FOOT, seed=seed)
    scalar = ScalarSpecProxyWorkload(bench_name, FOOT, seed=seed)
    assert_same_trace(batched.generate(n), scalar.generate(n))
    assert_same_rng_state(batched, scalar)


@pytest.mark.parametrize("n", LENGTHS)
@pytest.mark.parametrize("seed", (1, 2, 3))
def test_zipf_matches_scalar(seed, n):
    batched = ZipfWorkload("z", FOOT, seed=seed)
    scalar = ScalarZipfWorkload("z", FOOT, seed=seed)
    assert_same_trace(batched.generate(n), scalar.generate(n))
    assert_same_rng_state(batched, scalar)


@pytest.mark.parametrize("bench_name", ("505.mcf_r", "557.xz_r", "549.fotonik3d_r"))
def test_non_default_geometry_matches_scalar(bench_name):
    geometry = Geometry(sub_block_size=512, block_size=4096, super_block_blocks=4)
    batched = SpecProxyWorkload(bench_name, FOOT, seed=2, geometry=geometry)
    scalar = ScalarSpecProxyWorkload(bench_name, FOOT, seed=2, geometry=geometry)
    assert_same_trace(batched.generate(5000), scalar.generate(5000))
    z_batched = ZipfWorkload("z", FOOT, seed=2, geometry=geometry, active=7)
    z_scalar = ScalarZipfWorkload("z", FOOT, seed=2, geometry=geometry, active=7)
    assert_same_trace(z_batched.generate(5000), z_scalar.generate(5000))


def test_popularity_pool_refill_matches_scalar(monkeypatch):
    # One-line footprints make episodes a few accesses long, so the run
    # starts more episodes than its popularity pool holds and refills it.
    refills = []
    draw_ranks = synthetic._zipf_ranks

    def counting(rng, n, count, theta):
        refills.append(count)
        return draw_ranks(rng, n, count, theta)

    monkeypatch.setattr(synthetic, "_zipf_ranks", counting)
    batched = ZipfWorkload("z", FOOT, seed=3, coverage=0.01)
    trace = batched.generate(10_000)
    assert len(refills) >= 2
    scalar = ScalarZipfWorkload("z", FOOT, seed=3, coverage=0.01)
    assert_same_trace(trace, scalar.generate(10_000))
    assert_same_rng_state(batched, scalar)


@pytest.mark.parametrize("high", (2, 24, 1000, 2**31 + 11, 2**40 + 3))
def test_bounded_draws_consume_the_stream_alike(high):
    # The batching relies on this numpy property: k scalar bounded draws
    # give the values of one size=k draw and leave the same generator
    # state, so a block can be rolled back and redrawn to any prefix.
    k = 1001
    one_by_one = np.random.default_rng(7)
    in_block = np.random.default_rng(7)
    values = [int(one_by_one.integers(0, high)) for _ in range(k)]
    assert in_block.integers(0, high, size=k).tolist() == values
    assert one_by_one.bit_generator.state == in_block.bit_generator.state
