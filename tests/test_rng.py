import numpy as np
import pytest

from benchuq import rng


def test_same_key_reproduces_stream():
    a = rng.substream(42, rng.BOOTSTRAP, 7).standard_normal(100)
    b = rng.substream(42, rng.BOOTSTRAP, 7).standard_normal(100)
    assert np.array_equal(a, b)


def test_different_keys_give_different_streams():
    base = rng.substream(42, rng.BOOTSTRAP, 0).standard_normal(50)
    for key in [(rng.BOOTSTRAP, 1), (rng.QUADRATURE, 0), (rng.RANK_NOISE, 0), (rng.BOOTSTRAP,)]:
        other = rng.substream(42, *key).standard_normal(50)
        assert not np.array_equal(base, other)


def test_different_seeds_give_different_streams():
    a = rng.substream(1, rng.QUADRATURE, 0).standard_normal(50)
    b = rng.substream(2, rng.QUADRATURE, 0).standard_normal(50)
    assert not np.array_equal(a, b)


def test_substream_matches_seedsequence_construction():
    # The derivation is pinned: SeedSequence(entropy=seed, spawn_key=key) -> PCG64.
    expected = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=123, spawn_key=(0, 5)))
    ).integers(0, 2**63, size=10)
    got = rng.substream(123, rng.BOOTSTRAP, 5).integers(0, 2**63, size=10)
    assert np.array_equal(expected, got)


def test_purpose_constants_are_distinct():
    # Keys 1, 3, 4 and 5 are retired; renumbering the rest would move every stream.
    purposes = [rng.BOOTSTRAP, rng.RANK_NOISE, rng.QUADRATURE]
    assert purposes == [0, 2, 6]
    assert not hasattr(rng, "PREDICTIVE")


def test_large_seed_is_wrapped_not_rejected():
    gen = rng.substream(2**70 + 3, rng.QUADRATURE, 0)
    same = rng.substream((2**70 + 3) & ((1 << 64) - 1), rng.QUADRATURE, 0)
    assert np.array_equal(gen.standard_normal(8), same.standard_normal(8))


def test_streams_pass_basic_independence_smell_test():
    # Correlation between sibling substreams should be tiny.
    a = rng.substream(9, rng.BOOTSTRAP, 0).standard_normal(20_000)
    b = rng.substream(9, rng.BOOTSTRAP, 1).standard_normal(20_000)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.03


@pytest.mark.parametrize("bad", [-1, "x"])
def test_invalid_seed_rejected(bad):
    with pytest.raises((ValueError, TypeError)):
        rng.substream(bad, rng.BOOTSTRAP, 0)
