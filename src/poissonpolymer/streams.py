"""Deterministic random-stream derivation.

All randomness flows through the Philox-4x64-10 counter-based generator.  A
single master seed is expanded into independent substreams with a documented
mixing rule, so the stream layout is reproducible from (seed, tag, index)
alone and does not depend on execution order or worker scheduling:

    k1 = splitmix64(master_seed)
    k2 = splitmix64(k1 XOR fnv1a64(tag))
    k3 = splitmix64(k2 XOR index)
    Philox key = (k3, splitmix64(k3 XOR 0x9E3779B97F4A7C15))

``tag`` is an ASCII label for the consumer ("paths", "cloud", ...), ``index``
the replicate number.  Identical triples always yield bitwise-identical
streams.  ``substreams`` builds one Philox from a fixed seed, so no OS entropy
is drawn, and sets each index's key through its state: a yielded generator is
valid only until the next one is drawn, so never ``list()`` the iterator.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["splitmix64", "fnv1a64", "stream_key", "substream", "substreams"]

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(z: int) -> int:
    """One step of the splitmix64 output mix (Steele, Lea, Flood 2014)."""
    z = (z + _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def fnv1a64(text: str) -> int:
    """FNV-1a 64-bit hash of an ASCII tag."""
    h = 0xCBF29CE484222325
    for byte in text.encode("ascii"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK
    return h


@lru_cache(maxsize=64)
def _prefix(master_seed: int, tag: str) -> int:
    return splitmix64(splitmix64(master_seed & _MASK) ^ fnv1a64(tag))


def stream_key(master_seed: int, tag: str, index: int = 0) -> int:
    """64-bit substream identifier for (master seed, module tag, replicate)."""
    return splitmix64(_prefix(master_seed, tag) ^ (index & _MASK))


def substream(master_seed: int, tag: str, index: int = 0) -> np.random.Generator:
    """Philox generator for the given substream triple."""
    return next(substreams(master_seed, tag, (index,)))


def substreams(master_seed: int, tag: str, indices):
    """One Philox generator, re-keyed for each index in turn with counter 0 and
    nothing buffered, so that it yields each triple's stream from its start."""
    gen = np.random.Generator(np.random.Philox(0))  # no OS entropy; re-keyed below
    state = {"bit_generator": "Philox", "buffer": (0,) * 4, "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    for index in indices:
        k = stream_key(master_seed, tag, index)
        state["state"] = {"counter": (0,) * 4, "key": (k, splitmix64(k ^ _GOLDEN))}
        gen.bit_generator.state = state
        yield gen
