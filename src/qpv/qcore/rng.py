"""Deterministic, splittable random streams and Haar sampling.

Every stochastic operation in the package takes either an explicit
``numpy.random.Generator`` or a ``(seed, *path)`` stream address.  Streams
are counter-based (Philox) and keyed by the seed plus a hashed name path,
so independent trials can run in parallel without sharing state.
"""

from __future__ import annotations

import hashlib
import operator

import numpy as np

from .layout import RegisterLayout


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
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF] + [_path_word(p) for p in path]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def as_generator(seed_or_rng) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return stream(int(seed_or_rng))


def haar_random_unitary(dim: int, rng) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix (phase-fixed)."""
    if dim < 1 or dim & (dim - 1):
        raise ValueError(f"dimension {dim} is not a power of two")
    g = as_generator(rng)
    z = (g.standard_normal((dim, dim)) + 1j * g.standard_normal((dim, dim)))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_unit_vector(dim: int, rng) -> np.ndarray:
    g = as_generator(rng)
    v = g.standard_normal(dim) + 1j * g.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_pure_state(layout: RegisterLayout, rng) -> np.ndarray:
    """|v><v| for the :func:`random_unit_vector` draw v on ``layout``, as a
    density matrix for the dense reference ops."""
    v = random_unit_vector(layout.dim, rng)
    return np.outer(v, v.conj())


def random_density_matrix(dim: int, rng, rank: int | None = None) -> np.ndarray:
    """Mixed state from a partial-traced Haar vector (rank defaults to dim)."""
    g = as_generator(rng)
    rank = dim if rank is None else rank
    v = g.standard_normal((dim, rank)) + 1j * g.standard_normal((dim, rank))
    rho = v @ v.conj().T
    return rho / np.trace(rho).real
