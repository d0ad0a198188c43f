"""Replication generators made a chunk at a time, each bit-identical to ``numpy.random.default_rng``.

``np.random.default_rng(seed)`` hashes its seed with numpy's ``SeedSequence``
into four 64-bit words, the seed of a ``PCG64`` generator, and it does so one
seed per call. ``generators`` runs that same hash on a whole uint64 array of
seeds at once, on uint32 arrays, and hands each row of words to ``PCG64``
through numpy's ``ISeedSequence`` interface, so every generator draws exactly
the stream of ``default_rng`` of its seed. The hash is numpy's fixed
algorithm (``numpy/random/bit_generator.pyx``): its constants do not depend on
the data. The tests compare it with ``SeedSequence`` and ``default_rng``, which
guards a numpy upgrade; it is tested on numpy 2.4, and the package requires
numpy 2.

This module loads numpy.random, so it is imported only where replications
are drawn (``harness._run_chunk``): importing the CLI does not need it.
"""

from __future__ import annotations

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

_MASK32 = 0xFFFFFFFF


def _hash_chain(init, mult, count):
    """The (xor, multiplier) constants of ``count`` successive hashmix calls."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return list(zip(consts, consts[1:]))


# SeedSequence runs its hash constants through fixed chains: 16 hashmix calls mix a pool of 4 words,
# 8 more draw the state from it
_POOL_HASHES = _hash_chain(0x43B0D7E5, 0x931E8875, 16)
_STATE_HASHES = _hash_chain(0x8B51F9DD, 0x58F38DED, 8)


def _hashmix(value, consts):
    xor, mult = consts
    value = (value ^ xor) * mult
    return value ^ (value >> 16)


def seed_sequence_words(seeds):
    """Row i is ``SeedSequence(seeds[i]).generate_state(4, np.uint64)``, for a uint64 array of seeds.

    numpy's algorithm on whole uint32 columns, one per pool word; uint32
    array arithmetic wraps modulo 2^32 as the C code does, and raises no
    overflow warning where a numpy scalar would. An integer seed is entropy of
    one 32-bit word below 2^32 and of two from there on; the pool hashes a
    missing word as 0, so every seed reads as the words (low, high, 0, 0).
    """
    zeros = np.zeros(seeds.shape, np.uint32)
    entropy = [(seeds & _MASK32).astype(np.uint32), (seeds >> 32).astype(np.uint32), zeros, zeros]
    hashes = iter(_POOL_HASHES)
    pool = [_hashmix(word, next(hashes)) for word in entropy]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                # SeedSequence's mix(pool[dst], hashmix(pool[src]))
                mixed = 0xCA01F9DD * pool[dst] - 0x4973F715 * _hashmix(pool[src], next(hashes))
                pool[dst] = mixed ^ (mixed >> 16)
    halves = [_hashmix(pool[i % 4], consts).astype(np.uint64) for i, consts in enumerate(_STATE_HASHES)]
    # the eight 32-bit words join in little-endian pairs
    return np.stack([low | (high << 32) for low, high in zip(halves[::2], halves[1::2])], axis=1)


class _StateWords(ISeedSequence):
    """Hands ``PCG64`` one precomputed row of ``seed_sequence_words``."""

    __slots__ = ("words",)

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def generators(seeds):
    """The generators of a uint64 array of seeds, one at a time, each bit-identical to ``default_rng``."""
    # each row of the C-ordered (seeds, 4) array is the contiguous uint64 block PCG64 reads its seed from
    return (Generator(PCG64(_StateWords(words))) for words in seed_sequence_words(seeds))
