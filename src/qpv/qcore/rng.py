"""Deterministic, splittable random streams and Haar sampling.

Every stochastic operation in the package takes either an explicit
``numpy.random.Generator`` or a ``(seed, *path)`` stream address.  Streams
are counter-based (Philox) and keyed by the seed plus a hashed name path,
so independent trials can run in parallel without sharing state.
"""

from __future__ import annotations

import hashlib
import operator
from functools import lru_cache

import numpy as np

from .layout import RegisterLayout
from .ops import _row_dot

MASK32 = 0xFFFFFFFF
MASK64 = 0xFFFFFFFFFFFFFFFF
# numpy's SeedSequence: pool size and hash constants (numpy/random/bit_generator.pyx)
POOL_SIZE = 4
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _canonical(part):
    """A path part as a plain ``str`` or ``int`` (a tuple part part by part):
    an integer of any type (numpy's included) hashes as the equal ``int``,
    whose ``repr`` does not change between numpy versions.  Anything else,
    ``bool`` included, is a TypeError."""
    if isinstance(part, str):
        return str(part)
    if isinstance(part, tuple):
        return tuple(_canonical(p) for p in part)
    if not isinstance(part, bool):
        try:
            return operator.index(part)
        except TypeError:
            pass
    raise TypeError(f"stream path parts are ints, strs or tuples of them, not "
                    f"{type(part).__name__}")


def _path_word(part) -> int:
    if type(part) is not int and type(part) is not str:
        part = _canonical(part)
    digest = hashlib.sha256(repr(part).encode()).digest()
    return int.from_bytes(digest[:8], "little")


def stream(seed: int, *path) -> np.random.Generator:
    """Named child generator of ``seed``; same (seed, path) -> same stream.
    Path parts are ints, strs or tuples of them (see ``_canonical``)."""
    entropy = [int(seed) & MASK64] + [_path_word(p) for p in path]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def _words(n: int) -> list[int]:
    """A non-negative int as ``SeedSequence`` reads it: its minimal
    little-endian 32-bit words, ``[0]`` for 0."""
    out = [n & MASK32]
    while n > MASK32:
        n >>= 32
        out.append(n & MASK32)
    return out


def _seed_keys(words: np.ndarray) -> np.ndarray:
    """Philox keys of ``Philox(SeedSequence(entropy))`` for each row of a
    ``(m, L)`` uint32 array of entropy words, as an ``(m, 2)`` uint64 array:
    ``SeedSequence``'s pool mixing and ``generate_state(2, np.uint64)``, one
    array operation per step over all rows.  The hash constants advance with
    the step count only, so they are shared by every row."""
    rows, length = words.shape
    hash_const = INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * MULT_A & MASK32
        value = value * hash_const
        return value ^ (value >> 16)

    def mix(x, y):
        out = x * MIX_MULT_L - y * MIX_MULT_R
        return out ^ (out >> 16)

    pool = [hashmix(words[:, i] if i < length else np.zeros(rows, np.uint32))
            for i in range(POOL_SIZE)]
    for src in range(POOL_SIZE):
        for dst in range(POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(POOL_SIZE, length):
        for dst in range(POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(words[:, src]))
    state = np.empty((rows, 4), np.uint32)
    hash_const = INIT_B
    for i in range(4):
        value = pool[i] ^ hash_const
        hash_const = hash_const * MULT_B & MASK32
        value = value * hash_const
        state[:, i] = value ^ (value >> 16)
    # generate_state(2, np.uint64) reads each pair of words little-endian
    state = state.astype(np.uint64)
    return state[:, 0::2] | state[:, 1::2] << 32


def trial_streams(seed: int, name, trials: int):
    """The streams ``stream(seed, name, t)`` for t = 0 .. trials - 1, in order.

    Every Philox key is derived up front in one vectorised pass, and one
    ``Generator`` is re-keyed for each trial (counter 0, empty buffer), so
    its draws equal those of ``stream(seed, name, t)``.  A yielded generator
    is valid only until the next one is taken: draw what a trial needs before
    advancing.  A bad ``name`` raises here, not on the first ``next``.
    """
    prefix = _words(int(seed) & MASK64) + _words(_path_word(name))
    trial_words = _trial_words(trials)
    words = np.empty((trials, len(prefix) + 2), np.uint32)
    words[:, :-2] = prefix
    words[:, -2] = trial_words & MASK32
    words[:, -1] = trial_words >> 32
    # a trial word below 2^32 is one entropy word, not two
    keys = np.empty((trials, 2), np.uint64)
    short = words[:, -1] == 0
    keys[short] = _seed_keys(words[short, :-1])
    keys[~short] = _seed_keys(words[~short])
    return _rekeyed(keys)


@lru_cache(maxsize=8)
def _trial_words(trials: int) -> np.ndarray:
    """The path words of the trial indices (they depend on nothing else),
    read-only since every caller shares them."""
    words = np.array([_path_word(t) for t in range(trials)], dtype=np.uint64)
    words.flags.writeable = False
    return words


def _rekeyed(keys: np.ndarray):
    gen = np.random.Generator(np.random.Philox(0))
    bit_generator = gen.bit_generator
    # the state of a fresh Philox; plain lists set it faster than arrays
    state = {"bit_generator": "Philox", "state": {"counter": [0] * 4, "key": None},
             "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for key in keys.tolist():
        state["state"]["key"] = key
        bit_generator.state = state
        yield gen


def as_generator(seed_or_rng) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return stream(int(seed_or_rng))


def ginibre(dim: int, rng, count: int | None = None) -> np.ndarray:
    """Real, then imaginary parts of a Ginibre matrix, ``(2, dim, dim)``, or a
    ``(count, 2, dim, dim)`` stack equal to ``count`` single draws."""
    if dim < 1 or dim & (dim - 1):
        raise ValueError(f"dimension {dim} is not a power of two")
    return as_generator(rng).standard_normal((2, dim, dim) if count is None else (count, 2, dim, dim))


def haar_finish(parts: np.ndarray) -> np.ndarray:
    """Phase-fixed QR factor Q of each matrix of a ``(..., 2, d, d)`` Ginibre stack."""
    q, r = np.linalg.qr(parts[..., 0, :, :] + 1j * parts[..., 1, :, :])
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def haar_random_unitary(dim: int, rng, count: int | None = None) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix, or a stack of them."""
    return haar_finish(ginibre(dim, rng, count))


def vector_norm(v: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each row along the last axis, which is kept: the
    same two dots per row, on contiguous rows as that function copies them,
    so the same bits (a pairwise ``np.sum`` of squares rounds apart)."""
    v = np.ascontiguousarray(v)
    return np.sqrt(_row_dot(v.real, v.real) + _row_dot(v.imag, v.imag))[..., None]


def unit_finish(z: np.ndarray) -> np.ndarray:
    """Unit vectors of ``(..., 2 * dim)`` normals: real parts, then imaginary parts."""
    v = z[..., :z.shape[-1] // 2] + 1j * z[..., z.shape[-1] // 2:]
    return v / vector_norm(v)


def random_unit_vector(dim: int, rng) -> np.ndarray:
    return unit_finish(as_generator(rng).standard_normal(2 * dim))


def random_pure_state(layout: RegisterLayout, rng) -> np.ndarray:
    """|v><v| for the :func:`random_unit_vector` draw v on ``layout``, as a
    density matrix for the dense reference ops."""
    v = random_unit_vector(layout.dim, rng)
    return np.outer(v, v.conj())


def density_finish(parts: np.ndarray) -> np.ndarray:
    """v v^dagger / tr for each v = real + i imag of a ``(..., 2, dim, rank)`` stack."""
    v = parts[..., 0, :, :] + 1j * parts[..., 1, :, :]
    rho = v @ v.conj().swapaxes(-1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]


def random_density_matrix(dim: int, rng, rank: int | None = None) -> np.ndarray:
    """Mixed state from a partial-traced Haar vector (rank defaults to dim)."""
    rank = dim if rank is None else rank
    return density_finish(as_generator(rng).standard_normal((2, dim, rank)))
