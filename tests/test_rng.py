import numpy as np

from proplab.rng import SplitMix64


def test_known_stream_from_zero_seed():
    # reference outputs of the splitmix64 sequence, seed 0
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_determinism_and_independence_from_numpy_state():
    np.random.seed(123)
    rng = SplitMix64(42)
    a = [rng.uniform() for _ in range(16)]
    np.random.seed(456)
    rng = SplitMix64(42)
    b = [rng.uniform() for _ in range(16)]
    assert a == b


def test_uniform_range_and_spread():
    rng = SplitMix64(7)
    u = np.array([rng.uniform() for _ in range(2000)])
    assert np.all((u >= 0.0) & (u < 1.0))
    assert abs(np.mean(u) - 0.5) < 0.02


def test_normals_moments():
    z = SplitMix64(8).normals(4000)
    assert abs(np.mean(z)) < 0.05
    assert abs(np.std(z) - 1.0) < 0.05


def test_seed_masking():
    # seeds congruent mod 2^64 give the same stream
    assert SplitMix64(1).next_u64() == SplitMix64(1 + (1 << 64)).next_u64()
