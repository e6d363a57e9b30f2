"""Counter-based random substreams, the slice engine every Monte Carlo loop runs on, and the package's input rules.

Every Monte Carlo routine in this package draws sample `k` of a run from a
Philox block addressed by `(seed, k)` rather than from a sequential generator
state (Salmon et al., SC'11).  Consequences, relied on throughout:

* samples are bit-identical however a sample loop is sliced or parallelized;
* a run of `4 * m` samples reuses the first `m` samples of the run with the
  same seed, which makes convergence-rate measurements well correlated.

Each sample owns a fixed budget of 64-bit words, padded to a multiple of 4 so
that sample boundaries coincide with Philox counter blocks.  A normal is `ndtri`
of its word alone (`_normals`), so a Haar slice maps only the words it reads.

Every Monte Carlo loop runs on the slice engine `over_slices`: the lanes of a
per-process thread pool draw `_SLICE`-sample slices into scratch borrowed from
a per-thread free list, and the caller folds the per-slice partials as they
come, in slice order, so memory is O(lanes x slice) whatever the sample count
and results do not depend on the CPUs.  Haar slices are laid out batch-last,
`(..., count)` in memory, so that numpy's inner loops run over the samples.
"""
from __future__ import annotations

import operator
import os
import sys
import threading
from collections import deque
from contextlib import contextmanager
from functools import cache
from importlib.util import find_spec, module_from_spec
from itertools import starmap

import numpy as np

from .errors import DomainError, ValidationError

__all__ = ["counter_uniforms", "counter_normals", "check_seed", "check_samples", "over_slices", "lane_buffer"]

_WORDS_PER_BLOCK = 4  # Philox-4x64 emits four 64-bit words per counter value
_MIN_SAMPLES = 1000  # fewest samples any Monte Carlo estimate accepts

#: Samples per slice of the engine; small slices keep each lane's scratch small.
_SLICE = 1 << 11

#: Version of the drawn numbers and CLI output, in the golden corpus header; a change that moves one bumps it.
_STREAM_VERSION = 2

#: Thread pool of each process that has run a multi-lane loop, by process id (a forked child gets no threads).
_POOLS: dict = {}

#: Per-thread state: `lane` on the threads of a pool, `free` the thread's idle byte buffers.
_LANE = threading.local()
_NDTRI_LOCK = threading.Lock()  # around `_ndtri`: a fresh process's lanes draw their first normals at once


def _padded_budget(width: int) -> int:
    return -(-width // _WORDS_PER_BLOCK) * _WORDS_PER_BLOCK


def check_seed(seed: int) -> None:
    """Raise `DomainError` unless `seed` is a valid Philox key, an integer in [0, 2**128)."""
    if _as_index(seed, "seed", 0) >= 2**128:
        raise DomainError(f"seed must lie in [0, 2**128), got {seed}")


def check_samples(samples: int) -> None:
    """Raise `DomainError` unless `samples` is an integer at or above the sample floor of every Monte Carlo estimate."""
    _as_index(samples, "samples", _MIN_SAMPLES)


def _as_index(value, name: str, low: int) -> int:
    """`value` as an int if `operator.index` takes it (Python and numpy ints) and it is `low` or more, else `DomainError`."""
    try:
        index = operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None
    if index < low:
        raise DomainError(f"{name} must be at least {low}, got {index}")
    return index


def _as_array(value, name: str, shape: tuple | None, dtype: type = float, *, finite: bool = True) -> np.ndarray:
    """A new array of `value` as `dtype`, float or complex, of `shape` (`None` any shape, `None` in it any length, `()`
    one number); `ValidationError` naming `name` on another shape, an entry that is not a number (a string, a complex
    entry of a real field, a ragged list) and, if `finite`, a NaN or an infinity."""
    try:
        raw = np.asarray(value)
        if raw.dtype.kind not in ("biufcO" if dtype is complex else "biufO"):
            raise TypeError(f"{raw.dtype} entries")
        array = raw.astype(dtype)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must hold {np.dtype(dtype)} numbers: {exc}") from None
    if shape is not None and (array.ndim != len(shape) or any(w not in (None, s) for w, s in zip(shape, array.shape))):
        want = str(tuple("any" if w is None else w for w in shape)).replace("'", "")
        raise ValidationError(f"{name} must have shape {want}, got shape {array.shape}")
    if finite and not np.isfinite(array).all():
        raise ValidationError(f"{name} has non-finite entries")
    return array


def _check_records(*pairs) -> int | None:
    """The N shared by the records that carry one (`dim_n`), else `None`; `ValidationError` on a wrong type or N."""
    if not all(isinstance(value, kind) for value, kind in pairs):
        got = ", ".join(type(value).__name__ for value, _ in pairs)
        raise ValidationError(f"need {' and '.join('a ' + kind.__name__ for _, kind in pairs)}, got {got}")
    dims = [(type(value).__name__, value.dim_n) for value, _ in pairs if hasattr(value, "dim_n")]
    if len({n for _, n in dims}) > 1:
        raise ValidationError("dimension does not match: " + ", ".join(f"{name} N={n}" for name, n in dims))
    return dims[0][1] if dims else None


def _freeze(record, **fields) -> None:
    """Set `fields` on the frozen dataclass `record`, each array among them made read-only."""
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(record, name, value)


def counter_uniforms(seed: int, start: int, count: int, width: int, *, out: np.ndarray | None = None) -> np.ndarray:
    """Uniform variates on (0, 1) for samples `start .. start+count-1`.

    Returns a `(count, width)` array.  Sample `k` is a pure function of
    `(seed, k, width)`: the generator is keyed by `seed` and fast-forwarded by
    counter arithmetic, never by drawing.  The top 53 bits `i` of each word
    map to `(i + 0.5) * 2**-53`, except that the top word, which rounds to
    1.0, maps to the largest double below 1: every variate lies in (0, 1).
    `out`, a 1-D float array of `count` times the padded width or more,
    receives the words, and the result is a view of it.
    """
    check_seed(seed)
    start, count, width = _as_index(start, "start", 0), _as_index(count, "count", 0), _as_index(width, "width", 1)
    budget = _padded_budget(width)
    bg = np.random.Philox(key=seed, counter=start * (budget // _WORDS_PER_BLOCK))
    u = np.empty(count * budget) if out is None else out[: count * budget]
    # i * 2**-53 + 2**-54 rounds exactly as (i + 0.5) * 2**-53
    np.random.Generator(bg).random(out=u)
    u += 2.0**-54
    np.minimum(u, np.nextafter(1.0, 0.0), out=u)
    return u.reshape(count, budget)[:, :width]


def counter_normals(seed: int, start: int, count: int, width: int, *, out: np.ndarray | None = None) -> np.ndarray:
    """Standard normal variates with the same substream addressing (and `out`) as `counter_uniforms`."""
    u = counter_uniforms(seed, start, count, width, out=out)
    return _normals(u, u)


def _normals(u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """`ndtri` of the uniforms `u`, word by word, into `out`: `u` itself or any view of its shape, strided or not."""
    with _NDTRI_LOCK:
        ndtri = _ndtri()
    return ndtri(u, out=out)


@cache
def _ndtri():
    """scipy's `ndtri` ufunc from its extension module alone, without running the package `scipy.special` around it."""
    if "scipy.special" not in sys.modules:
        # a bare parent package, never run, while the extension loads; a later `import scipy.special` runs the real one
        sys.modules["scipy.special"] = module_from_spec(find_spec("scipy.special"))
        try:
            from scipy.special._ufuncs import ndtri
            return ndtri
        except (ImportError, AttributeError):
            pass  # a scipy that moved the ufunc: the package import below finds it
        finally:
            del sys.modules["scipy.special"]
    from scipy.special import ndtri
    return ndtri


@contextmanager
def lane_buffer(size: int, dtype: type = float):
    """Borrow `size` uninitialised items of `dtype` from a byte buffer of the calling thread, grown when too small.

    A nested borrow gets another buffer, so a thread holds one per nesting level.
    """
    free = _LANE.__dict__.setdefault("free", [])
    nbytes = size * np.dtype(dtype).itemsize
    buf = free.pop() if free else None
    if buf is None or buf.size < nbytes:
        buf = np.empty(nbytes, np.uint8)
    yield buf[:nbytes].view(dtype)
    free.append(buf)  # a buffer whose block raised is dropped


def _cores() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def over_slices(count: int, partial):
    """Yield `partial(a, b)` for each _SLICE-sample slice [a, b) of 0 .. count-1, in slice order.

    Slices run on the calling thread when it is itself a pool lane, so nested
    calls cannot deadlock, or when there is one CPU or one slice.  Otherwise
    they run on the pool of this process, one lane per CPU, at most two slices
    per lane ahead of the consumer.  An exception in a slice cancels the queued
    slices and reaches the caller once the running ones have stopped.
    """
    slices = ((a, min(a + _SLICE, count)) for a in range(0, count, _SLICE))
    lanes = _cores()
    if getattr(_LANE, "lane", False) or lanes == 1 or count <= _SLICE:
        yield from starmap(partial, slices)
        return
    from concurrent.futures import ThreadPoolExecutor, wait  # only multi-lane runs pay for the import

    # the initializer runs on each new pool thread, so it marks that thread alone as a lane
    pool = _POOLS.get(os.getpid()) or _POOLS.setdefault(
        os.getpid(), ThreadPoolExecutor(lanes, initializer=setattr, initargs=(_LANE, "lane", True))
    )
    ahead = deque()
    try:
        for s in slices:
            if len(ahead) == 2 * lanes:
                yield ahead.popleft().result()
            ahead.append(pool.submit(partial, *s))
        while ahead:
            yield ahead.popleft().result()
    finally:
        for f in ahead:
            f.cancel()
        wait(ahead)  # no slice outlives the call
