"""The counter-based substream contract: partition independence and reproducibility."""
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swphase import (
    DomainError,
    PhasePoint,
    _streams,
    check_norm,
    gell_mann_basis,
    moduli_point,
    reconstruct_state,
    rho_from_bloch,
    state_wf_sampler,
    weingarten2_check,
)
from swphase._streams import check_samples, counter_normals, counter_uniforms, over_slices
from swphase.group import haar_batch
from swphase.kernel import moduli_domain_fraction


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
    for seed in (-1, 2**128, 1.9, np.float64(1.0)):
        with pytest.raises(DomainError):
            counter_uniforms(seed, 0, 1, 1)


def test_sample_floor():
    # every Monte Carlo estimate checks the floor before any slice is drawn
    check_samples(1000)
    with pytest.raises(DomainError, match="at least 1000"):
        check_samples(999)


QUBIT = moduli_point(2, [1.0])
QUBIT_STATE = rho_from_bloch(2, np.array([0.0, 0.3, 0.4]))
# each entry point, called with a sample (or Haar row) count and a seed
COUNTED = {
    "check_norm": lambda count, seed=1: check_norm(QUBIT_STATE, QUBIT, count, seed),
    "weingarten2_check": lambda count, seed=1: weingarten2_check(2, (1, 1, 1, 1), count, seed),
    "moduli_domain_fraction": lambda count, seed=1: moduli_domain_fraction(3, count, seed),
    "haar_batch": lambda count, seed=1: haar_batch(2, seed, 0, count),
    "reconstruct_state": lambda count, seed=1: reconstruct_state(
        state_wf_sampler(QUBIT_STATE, QUBIT), 2, QUBIT, count, seed
    ),
}


@pytest.mark.parametrize("entry", list(COUNTED))
def test_sample_count_must_be_an_integer(entry):
    # a count that operator.index refuses is a domain error, not a TypeError from range()
    for count in (20000.0, 20000.5, np.float64(20000.0), "20000"):
        with pytest.raises(DomainError, match="must be an integer"):
            COUNTED[entry](count)
    COUNTED[entry](np.int64(10_000))  # numpy integers are counts too


@pytest.mark.parametrize("entry", list(COUNTED))
def test_seed_must_be_an_integer(entry):
    # Philox would truncate a float key and silently draw another seed's samples
    for seed in (1.5, np.float64(1.0)):
        with pytest.raises(DomainError, match="must be an integer"):
            COUNTED[entry](10_000, seed)
    COUNTED[entry](10_000, np.int64(1))


def test_dimension_and_start_must_be_integers():
    for call in (
        lambda: haar_batch(2.0, 1, 0, 3),
        lambda: gell_mann_basis(2.5),
        lambda: gell_mann_basis(2.0),  # equal to a cached int key, but not an int
        lambda: moduli_point(2.0, [1.0]),
        lambda: PhasePoint(dim_n=2.0, u=np.eye(2)),
        lambda: moduli_domain_fraction(3.0, 2000, 1),
        lambda: counter_uniforms(1, -3, 2, 4),
        lambda: haar_batch(2, 1, -3, 3),
    ):
        with pytest.raises(DomainError):
            call()
    # numpy integers pass, and give what Python ints give
    assert np.array_equal(haar_batch(np.int64(2), 1, np.int64(3), 4), haar_batch(2, 1, 3, 4))
    assert gell_mann_basis(np.int64(3)).dim_n == 3
    assert moduli_point(np.int64(2), [1.0]).dim_n == 2
    assert moduli_domain_fraction(np.int64(3), 2000, 1) == moduli_domain_fraction(3, 2000, 1)
    assert np.array_equal(counter_uniforms(1, np.int64(3), 2, 4), counter_uniforms(1, 3, 2, 4))


def test_top_word_stays_below_one(monkeypatch):
    # the top 53-bit word, i = 2**53 - 1, plus the half-step offset rounds to 1.0, where ndtri is +inf
    class TopWords:
        def __init__(self, bit_generator):
            pass

        def random(self, out):
            out[:] = (2**53 - 1) * 2.0**-53

    monkeypatch.setattr(np.random, "Generator", TopWords)
    assert np.all(counter_uniforms(1, 0, 3, 4) == np.nextafter(1.0, 0.0))
    assert np.all(np.isfinite(counter_normals(1, 0, 3, 4)))


@pytest.mark.parametrize("width", [1, 5, 8, 18])
def test_out_buffer_matches_fresh_draw(width):
    # the words land in the caller's buffer, and the result is its (count, width) view
    buf = np.full(40 * 20, np.nan)
    u = counter_uniforms(5, 123, 40, width, out=buf)
    assert np.shares_memory(u, buf) and u.shape == (40, width)
    assert np.array_equal(u, counter_uniforms(5, 123, 40, width))
    z = counter_normals(5, 123, 40, width, out=buf)
    assert np.shares_memory(z, buf)
    assert np.array_equal(z, counter_normals(5, 123, 40, width))


def test_uniforms_match_word_formula():
    # (top 53 bits + 1/2) * 2**-53 of the raw Philox words, the stream's definition
    raw = np.random.Philox(key=9, counter=3 * 2).random_raw(3 * 8).reshape(3, 8)[:, :6]
    expected = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    assert np.array_equal(counter_uniforms(9, 3, 3, 6), expected)


def test_over_slices_in_slice_order(monkeypatch):
    for cores in (1, 3):
        monkeypatch.setattr(_streams, "_cores", lambda: cores)
        bounds = list(over_slices(3 * _streams._SLICE + 5, lambda a, b: (a, b)))
        assert bounds == [(0, 2048), (2048, 4096), (4096, 6144), (6144, 6149)]
    assert list(over_slices(0, lambda a, b: 1 / 0)) == []


def test_over_slices_streams_results_and_nests(monkeypatch):
    # 400 results of 256 KiB, folded as they come: only a few are alive at
    # once, where a list of them all would take 100 MiB
    count, size = 400 * _streams._SLICE, 1 << 15
    for cores in (1, 3):
        monkeypatch.setattr(_streams, "_cores", lambda: cores)
        tracemalloc.start()
        try:
            starts = [int(r[0]) for r in over_slices(count, lambda a, b: np.full(size, float(a)))]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert starts == list(range(0, count, _streams._SLICE))
        assert peak <= 16 * 8 * size, (cores, peak)
    # a single slice runs on the calling thread; a multi-slice call inside it goes to the pool
    threads = set()

    def inner(a, b):
        threads.add(threading.current_thread())
        return a

    outer = list(over_slices(5, lambda a, b: list(over_slices(3 * _streams._SLICE + 5, inner))))
    assert outer == [[0, 2048, 4096, 6144]] and threading.current_thread() not in threads
    direct = haar_batch(3, 1, 0, 3 * _streams._SLICE + 5)
    nested = list(over_slices(5, lambda a, b: haar_batch(3, 1, 0, 3 * _streams._SLICE + 5)))
    assert len(nested) == 1 and np.array_equal(nested[0], direct)
