import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from splab.rng import SplitMix64, _inverse_normal_cdf_block, inverse_normal_cdf

# First outputs of the reference SplitMix64 stream for seed 0.
SEED0_STREAM = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)


def test_known_answer_stream():
    g = SplitMix64(0)
    assert tuple(g.next_u64() for _ in range(3)) == SEED0_STREAM


def test_stream_determinism_and_seed_sensitivity():
    a = [SplitMix64(42).next_u64() for _ in range(8)]
    b = [SplitMix64(42).next_u64() for _ in range(8)]
    c = [SplitMix64(43).next_u64() for _ in range(8)]
    assert a == b
    assert a != c


def test_uniform_range_open_interval():
    g = SplitMix64(7)
    us = [g.uniform() for _ in range(2000)]
    assert all(0.0 < u < 1.0 for u in us)
    assert 0.4 < float(np.mean(us)) < 0.6


def test_inverse_cdf_against_scipy():
    ps = np.concatenate([
        np.linspace(1e-10, 1 - 1e-10, 4001),
        10.0 ** np.arange(-300.0, -1.0, 7.0),
    ])
    for p in ps:
        ref = float(ndtri(p))
        got = inverse_normal_cdf(float(p))
        assert abs(got - ref) <= 1e-13 * max(1.0, abs(ref))


def test_inverse_cdf_symmetry_and_domain():
    assert inverse_normal_cdf(0.5) == 0.0
    assert inverse_normal_cdf(0.975) == pytest.approx(1.959963984540054, abs=1e-12)
    # 0.25 and 0.75 are exactly representable, so antisymmetry is exact
    assert inverse_normal_cdf(0.25) == -inverse_normal_cdf(0.75)
    assert inverse_normal_cdf(0.2) == pytest.approx(-inverse_normal_cdf(0.8), abs=1e-15)
    for bad in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            inverse_normal_cdf(bad)


def test_normals_row_major_fill():
    ref = SplitMix64(11)
    flat = [ref.normal() for _ in range(6)]
    m = SplitMix64(11).normals(2, 3)
    assert m.shape == (2, 3)
    assert m.reshape(-1).tolist() == flat


def test_complex_normals_interleave_re_im():
    ref = SplitMix64(3)
    vals = [ref.normal() for _ in range(4)]
    m = SplitMix64(3).complex_normals(1, 2)
    assert m[0, 0] == complex(vals[0], vals[1])
    assert m[0, 1] == complex(vals[2], vals[3])


# Seeds of the deterministic block-vs-scalar case, one above 2^63.
BLOCK_SEEDS = (0, 1, 7, 42, 2**63 + 5)


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).reshape(-1).view(np.uint64)


def scalar_replay(ref: SplitMix64, op):
    """What ``op`` draws, made from scalar calls only."""
    name, *args = op
    if name == "uniform":
        return ref.uniform()
    if name == "normal":
        return ref.normal()
    if name == "integer":
        return ref.integer(*args)
    if name == "uniforms":
        return [ref.uniform() for _ in range(args[0])]
    rows, cols = args
    if name == "normals":
        return [ref.normal() for _ in range(rows * cols)]
    flat = np.array([ref.normal() for _ in range(2 * rows * cols)])
    return flat.view(np.complex128).view(np.float64)


STREAM_OPS = st.one_of(
    st.tuples(st.sampled_from(["uniform", "normal"])),
    st.tuples(st.just("integer"), st.integers(-3, 3), st.integers(3, 10**6)),
    st.tuples(st.just("uniforms"), st.integers(0, 300)),
    st.tuples(st.just("normals"), st.integers(0, 17), st.integers(0, 17)),
    st.tuples(st.just("complex_normals"), st.integers(0, 12), st.integers(0, 12)),
)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**63 - 1) | st.integers(2**63, 2**64 - 1),
       ops=st.lists(STREAM_OPS, max_size=8))
def test_block_draws_replay_the_scalar_stream(seed, ops):
    gen, ref = SplitMix64(seed), SplitMix64(seed)
    for op in ops:
        got = getattr(gen, op[0])(*op[1:])
        want = scalar_replay(ref, op)
        if op[0] == "integer":
            assert got == want
        else:
            got = np.asarray(got)
            assert got.dtype in (np.float64, np.complex128)
            assert np.array_equal(bits(got.view(np.float64)), bits(want))
        assert gen._state == ref._state


@pytest.mark.parametrize("seed", BLOCK_SEEDS)
def test_block_normals_equal_scalar_normals(seed):
    gen, ref = SplitMix64(seed), SplitMix64(seed)
    block = gen.normals(1, 20_000)[0]
    assert np.array_equal(bits(block), bits([ref.normal() for _ in range(20_000)]))
    assert gen._state == ref._state


def test_uniforms_zero_count_leaves_the_state():
    gen = SplitMix64(2**63 + 5)
    before = gen._state
    empty = gen.uniforms(0)
    assert empty.shape == (0,) and empty.dtype == np.float64
    assert gen._state == before


def test_block_inverse_cdf_equals_scalar_on_both_tails():
    central = np.linspace(0.075, 0.925, 2001)
    low = np.concatenate([10.0 ** -np.linspace(1.2, 300.0, 3000),
                          2.0 ** -np.arange(4.0, 55.0)])
    high = np.concatenate([1.0 - 10.0 ** -np.linspace(1.2, 15.9, 500),
                           1.0 - 2.0 ** -np.arange(4.0, 54.0)])
    ps = np.concatenate([central, low, high])
    # the r > 5 branch (E/F coefficients) needs min(p, 1 - p) < e^-25
    assert (low < math.exp(-25)).sum() > 100
    assert (1.0 - high < math.exp(-25)).sum() > 10
    assert ps.max() == 1.0 - 2.0**-53
    want = [inverse_normal_cdf(float(p)) for p in ps]
    assert np.array_equal(bits(_inverse_normal_cdf_block(ps)), bits(want))
