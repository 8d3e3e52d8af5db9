"""Deterministic, splittable random streams built on the Philox counter.

Every stochastic routine in this package draws from a stream obtained via
``derive_stream(seed, *path)``.  Distinct paths select disjoint 2**128-draw
blocks of the Philox counter space, so streams are statistically independent
and can be consumed in any order (or in parallel) without changing results.
The mapping from ``(seed, path)`` to a stream is part of the public contract
and will not change between versions.  Seeds and path components are
integers: a float raises :class:`TypeError` instead of being truncated, and
an out-of-range seed or path raises :class:`ParameterRangeError`.

``replicate_streams`` walks the streams ``derive_stream(seed, r, *tail)`` of
``r = 0..B-1`` on one generator.  The bootstrap reads each of them with
``bit_generator.random_raw`` and maps the raw words to block indices itself,
bit for bit as ``Generator.integers`` would (see
:func:`blockboot.bootstrap.stream_draws`).
"""

from __future__ import annotations

import operator

import numpy as np

from .exceptions import ParameterRangeError

# Philox counter layout (little-endian 64-bit words):
#   word 0: draw counter inside the stream (starts at 0)
#   word 1: number of path components (separates paths of different lengths)
#   word 2: first path component
#   word 3: second path component
_MAX_PATH = 2


def derive_stream(seed: int, *path: int) -> np.random.Generator:
    """Return the random generator for the stream addressed by (seed, path).

    Parameters
    ----------
    seed : int
        Master seed, an unsigned 64-bit integer.
    *path : int
        Up to two nonnegative stream selectors (for example a replicate
        index, or a replication index plus a role tag).

    Returns
    -------
    numpy.random.Generator
        Generator backed by a Philox counter positioned at the start of the
        selected stream.
    """
    seed = operator.index(seed)
    if not 0 <= seed < 2**64:
        raise ParameterRangeError(f"seed must be an unsigned 64-bit integer, got {seed}")
    if len(path) > _MAX_PATH:
        raise ParameterRangeError(f"at most {_MAX_PATH} path components are supported")
    words = [0, len(path), 0, 0]
    for i, component in enumerate(path):
        component = operator.index(component)
        if not 0 <= component < 2**64:
            raise ParameterRangeError(f"path component {component} out of range")
        words[2 + i] = component
    counter = np.array(words, dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=seed, counter=counter))


def replicate_streams(seed: int, B: int, *tail: int):
    """Yield ``(r, generator)`` for ``r = 0..B-1``, each positioned exactly
    where ``derive_stream(seed, r, *tail)`` starts.

    One generator object is reused and its Philox state reset between
    replicates, which avoids the construction cost of ``B`` generators; the
    draws are bit-identical to fresh per-replicate streams.  The yielded
    generator is only valid until the next iteration step.
    """
    gen = derive_stream(seed, 0, *tail)
    bit_generator = gen.bit_generator
    # The state of a fresh stream: empty buffer, counter [0, path length, r=0, tail].
    template = bit_generator.state
    counter = template["state"]["counter"]
    for r in range(B):
        counter[2] = r
        bit_generator.state = template
        yield r, gen
