"""Counter-based random substreams for reproducible, partition-independent Monte Carlo.

Every Monte Carlo routine in this package draws sample `k` of a run from a
Philox block addressed by `(seed, k)` rather than from a sequential generator
state.  Consequences, relied on throughout:

* samples are bit-identical however a sample loop is batched or parallelized
  (`group.haar_batch` fills large batches in slices on several threads);
* a run of `4 * m` samples reuses the first `m` samples of the run with the
  same seed, which makes convergence-rate measurements well correlated.

Each sample owns a fixed budget of 64-bit words, padded to a multiple of 4 so
that sample boundaries coincide with Philox counter blocks.
"""
from __future__ import annotations

import numpy as np

from .errors import DomainError

__all__ = ["counter_uniforms", "counter_normals", "check_seed", "batches"]

_WORDS_PER_BLOCK = 4  # Philox-4x64 emits four 64-bit words per counter value
_BATCH = 1 << 16  # samples per batch of every Monte Carlo loop
_MIN_SAMPLES = 1000  # fewest samples any Monte Carlo estimate accepts


def _padded_budget(width: int) -> int:
    return -(-width // _WORDS_PER_BLOCK) * _WORDS_PER_BLOCK


def check_seed(seed: int) -> None:
    """Raise `DomainError` unless `seed` is a valid Philox key, an integer in [0, 2**128)."""
    if not 0 <= seed < 2**128:
        raise DomainError(f"seed must lie in [0, 2**128), got {seed}")


def batches(samples: int):
    """`(start, count)` pairs covering samples `0 .. samples-1`, in the package's one batch size.

    Below the sample floor it raises `DomainError` at the call, not on first iteration.
    """
    if samples < _MIN_SAMPLES:
        raise DomainError(f"need at least {_MIN_SAMPLES} samples, got {samples}")
    return ((start, min(_BATCH, samples - start)) for start in range(0, samples, _BATCH))


def counter_uniforms(seed: int, start: int, count: int, width: int) -> np.ndarray:
    """Uniform variates on (0, 1) for samples `start .. start+count-1`.

    Returns a `(count, width)` array.  Sample `k` is a pure function of
    `(seed, k, width)`: the generator is keyed by `seed` and fast-forwarded by
    counter arithmetic, never by drawing.  The open interval is guaranteed by
    mapping the top 53 bits of each word to `(i + 0.5) * 2**-53`.
    """
    if count < 0 or width <= 0:
        raise ValueError(f"need count >= 0 and width > 0, got count={count} width={width}")
    check_seed(seed)
    budget = _padded_budget(width)
    bg = np.random.Philox(key=seed, counter=start * (budget // _WORDS_PER_BLOCK))
    raw = bg.random_raw(count * budget).reshape(count, budget)[:, :width]
    return ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def counter_normals(seed: int, start: int, count: int, width: int) -> np.ndarray:
    """Standard normal variates with the same substream addressing as `counter_uniforms`."""
    # scipy.special takes most of the package's import time; commands that
    # never draw normals should not pay for it.
    from scipy.special import ndtri

    return ndtri(counter_uniforms(seed, start, count, width))
