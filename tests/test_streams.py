"""The counter-based substream contract: partition independence and reproducibility."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swphase import DomainError
from swphase._streams import counter_normals, counter_uniforms


def test_uniforms_open_interval():
    u = counter_uniforms(seed=1, start=0, count=64, width=8)
    assert u.shape == (64, 8)
    assert np.all(u > 0.0) and np.all(u < 1.0)


def test_uniforms_reproducible():
    a = counter_uniforms(seed=7, start=0, count=16, width=5)
    b = counter_uniforms(seed=7, start=0, count=16, width=5)
    assert np.array_equal(a, b)
    c = counter_uniforms(seed=8, start=0, count=16, width=5)
    assert not np.array_equal(a, c)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    split=st.integers(1, 31),
    width=st.integers(1, 9),
)
def test_uniforms_partition_independent(seed, split, width):
    whole = counter_uniforms(seed, 0, 32, width)
    head = counter_uniforms(seed, 0, split, width)
    tail = counter_uniforms(seed, split, 32 - split, width)
    assert np.array_equal(whole, np.vstack([head, tail]))


def test_width_padding_shares_prefix():
    # Per-sample budgets round up to whole counter blocks, so narrowing the
    # width never reshuffles the values already drawn.
    wide = counter_uniforms(seed=3, start=0, count=10, width=8)
    narrow = counter_uniforms(seed=3, start=0, count=10, width=6)
    assert np.array_equal(narrow, wide[:, :6])


def test_normals_match_uniform_stream():
    z = counter_normals(seed=11, start=4, count=12, width=3)
    assert z.shape == (12, 3)
    assert np.all(np.isfinite(z))
    again = counter_normals(seed=11, start=4, count=12, width=3)
    assert np.array_equal(z, again)


def test_normals_moments_sane():
    z = counter_normals(seed=0, start=0, count=4000, width=4).ravel()
    assert abs(z.mean()) < 5.0 / np.sqrt(z.size)
    assert abs(z.std() - 1.0) < 5.0 / np.sqrt(z.size)


def test_seed_range():
    # Philox keys are 128-bit; anything outside is a domain error, not a ValueError traceback
    assert counter_uniforms(2**128 - 1, 0, 1, 1).shape == (1, 1)
    for seed in (-1, 2**128):
        with pytest.raises(DomainError):
            counter_uniforms(seed, 0, 1, 1)
