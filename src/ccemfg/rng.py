"""Counter-based random number streams.

Every random quantity in the library is drawn from a stateless stream
addressed by a 64-bit key and a draw index.  Keys are derived from the
master seed through the splitmix64 finalizer, so identical configurations
reproduce bit-identical results no matter how the work is chunked or
parallelised.

Layout conventions (documented, load-bearing for reproducibility):

* draw ``n`` of stream ``k`` is ``mix64(k + GOLDEN * (n + 1))``.
* ``stream_key(seed, purpose, *tags)`` starts from
  ``mix64(seed ^ SEED_SALT)`` and takes one step per tag: the new key is
  draw ``tag`` of the stream of the current key.
* uniforms use the top 53 bits, offset by half an ulp so the result lies
  strictly inside (0, 1): ``(bits + 0.5) * 2**-53``.  The top value,
  which that offset rounds up to 1.0 (the half ulp is lost once
  ``bits >= 2**52``), is clamped to the largest double below 1; every
  other value is unchanged.  The conversion happens in the draw's own
  buffer: the 53-bit integers, read as int64, are cast to float64 in
  place, which is exact below 2**53.
"""

from __future__ import annotations

import operator

import numpy as np

GOLDEN = 0x9E3779B97F4A7C15
SEED_SALT = 0x5CA1AB1E0DDBA11
_MASK = (1 << 64) - 1

# purpose tags: keep distinct so logically different draws never collide
TAG_NOISE = 1       # Brownian increments, per (replication, player)
TAG_SCENARIO = 2    # correlation-device lottery, per run
TAG_RECOMMEND = 3   # per-player strategy draws, per replication
TAG_INIT = 4        # initial-state sampling, per (replication, player)
TAG_PROBE = 5       # the tests' probe streams; the library draws none

_G = np.uint64(GOLDEN)
_C1 = np.uint64(0xBF58476D1CE4E5B9)
_C2 = np.uint64(0x94D049BB133111EB)
_BELOW_ONE = np.nextafter(1.0, 0.0)


def _finalize(z: np.ndarray, s=None) -> np.ndarray:
    """The splitmix64 finalizer applied to the uint64 array ``z`` in place,
    with one scratch array ``s`` of its shape, made if not given."""
    s = np.empty_like(z) if s is None else s
    with np.errstate(over="ignore"):    # modular wraparound is intended
        for shift, mult in ((30, _C1), (27, _C2)):
            np.right_shift(z, np.uint64(shift), out=s)
            z ^= s
            z *= mult
        np.right_shift(z, np.uint64(31), out=s)
        z ^= s
    return z


def mix64(x):
    """splitmix64 finalizer, vectorized over uint64 arrays; ``x`` itself is
    left unchanged."""
    z = _finalize(np.array(x, dtype=np.uint64))
    return z if z.ndim else z[()]


def stream_key(seed: int, *tags: int) -> int:
    """Derive a 64-bit stream key from the master seed and integer tags."""
    return int(stream_keys(seed, *tags))


def stream_keys(seed: int, *tags) -> np.ndarray:
    """Stream keys of the master seed and the tags (see the layout above);
    tags may be arrays and broadcast.  The seed may be any integer, a
    numpy one included; anything else raises ``ValueError``."""
    try:
        seed = operator.index(seed)
    except TypeError:
        raise ValueError(f"seed must be an integer, got {seed!r}") from None
    k = mix64((seed & _MASK) ^ SEED_SALT)
    for t in tags:
        k = _raw64(k, t)
    return k if np.ndim(k) else k[()]


def _raw64(key, index, out=None, scratch=None) -> np.ndarray:
    """Draws ``index`` of streams ``key`` as raw uint64 (both broadcast),
    an array of the broadcast shape (0-d for scalars).

    ``key + (index + 1) * GOLDEN`` is built in one buffer, ``out`` when
    given, and finalized in place with the uint64 ``scratch`` when given.
    The arithmetic is modulo 2**64, so the order of the terms does not
    change the bits; the offsets have the index's shape, so a scalar index
    costs one add over the keys.
    """
    key = np.asarray(key, dtype=np.uint64)
    index = np.asarray(index, dtype=np.uint64)
    z = (np.empty(np.broadcast_shapes(key.shape, index.shape),
                  dtype=np.uint64) if out is None else out)
    with np.errstate(over="ignore"):
        np.add(key, (index + np.uint64(1)) * _G, out=z)
    return _finalize(z, scratch)


def uniforms(key, index, out=None, scratch=None) -> np.ndarray:
    """Uniform draws strictly inside (0, 1), from the top 53 bits of the
    draws (see the layout above), converted in the draws' own buffer.

    ``out``, a C-contiguous float64 array of the broadcast shape, receives
    the draws when given, and ``scratch``, a uint64 array of that shape,
    serves the finalizer; a caller that draws many times into the same
    buffers then allocates nothing.
    """
    z = _raw64(key, index, None if out is None else out.view(np.uint64),
               scratch)
    z >>= np.uint64(11)
    u = z.view(np.float64) if out is None else out
    # an in-place cast; a ufunc would copy z, whose views overlap u
    np.copyto(u, z.view(np.int64), casting="unsafe")
    u += 0.5
    u *= 2.0**-53
    np.minimum(u, _BELOW_ONE, out=u)
    return u if u.ndim else u[()]
