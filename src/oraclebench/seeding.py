"""Replication generators made a chunk at a time, and Isomorphy's draws read from raw words, bit-identical to numpy.

``np.random.default_rng(seed)`` hashes its seed with numpy's ``SeedSequence``
into four 64-bit words, the seed of a ``PCG64`` generator, and it does so one
seed per call. ``generators`` runs that same hash on a whole uint64 array of
seeds at once, on uint32 arrays, and hands each row of words to ``PCG64``
through numpy's ``ISeedSequence`` interface, so every generator draws exactly
the stream of ``default_rng`` of its seed. The hash is numpy's fixed
algorithm (``numpy/random/bit_generator.pyx``): its constants do not depend on
the data.

``integers_then_random`` draws what ``rng.integers(0, k, size=n)`` and then
``rng.random(n)`` draw, for a block of fresh generators at a time, from one
``random_raw`` read of each generator's 64-bit words: numpy's bounded
integers below 2^32 (Lemire's method on 32-bit halves) and its uniforms (the
top 53 bits of a word) are fixed algorithms too
(``numpy/random/src/distributions``), reproduced on arrays.

The tests compare both with numpy's own calls, which guards a numpy upgrade;
both are tested on numpy 2.4, and the package requires numpy 2.

This module loads numpy.random, so it is imported only where generators are
made (``harness._generators``) and where Isomorphy draws
(``harness._isomorphy_blocks``): importing the CLI does not need it.
"""

from __future__ import annotations

import itertools

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

_MASK32 = 0xFFFFFFFF
_LOW = np.uint64(_MASK32)


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


def _halves(words):
    """The 32-bit halves of uint64 words in the order numpy's ``next_uint32`` reads them, low half first."""
    return words.astype("<u8", copy=False).view("<u4")


def integers_then_random(rngs, k, n, rows):
    """Yields, ``rows`` generators at a time, what each draws by ``integers(0, k, size=n)`` and then ``random(n)``.

    A block is two (generators, n) arrays: the int64 cells and the uint64 integers u of the uniforms, each
    ``random()`` being ``u * 2**-53``; u is overwritten by the next block. Both are numpy's bit for bit, for fresh
    ``PCG64`` generators that are not drawn again (every caller's come from ``generators``), ``2 <= k <= 2**32``
    and ``n >= 1``, and each generator consumes the words that numpy's calls consume.

    A row is one ``random_raw`` read of ``ceil(n / 2) + n`` words. numpy's bounded integers below 2^32
    (``random_bounded_uint64_fill``) take the 32-bit halves of 64-bit words, low half first, by Lemire's method:
    a half h gives the cell ``(h k) >> 32``, unless ``(h k) mod 2^32 < 2^32 mod k`` rejects it for the next half.
    So the cells take the row's first n halves (at odd n numpy keeps the last high half buffered for a later
    bounded draw, which a fresh generator drawn once never makes), and the uniforms, each the top 53 bits of a
    word, the next n words. A rejection, never at a power-of-two k and with probability below k / 2^32 per half
    otherwise, shifts the words: that row's generator steps back over its read and draws by numpy's own calls.
    """
    if not 2 <= k <= 1 << 32:
        raise ValueError(f"k must be in [2, 2**32], got {k}")
    cell_words = (n + 1) // 2
    words = np.empty((rows, cell_words + n), np.uint64)  # one buffer serves every block
    # numpy rejects a half whose product's low word is below 2^32 mod k
    reject_below = (1 << 32) % k
    rngs = iter(rngs)
    while block := [rng.bit_generator for rng in itertools.islice(rngs, rows)]:
        raw = words[:len(block)]
        for row, bit_generator in zip(raw, block):
            row[:] = bit_generator.random_raw(cell_words + n)
        products = _halves(raw)[:, :n] * np.uint64(k)
        rejected = np.flatnonzero(((products & _LOW) < reject_below).any(axis=1)) if reject_below else ()
        products >>= 32
        units = raw[:, cell_words:]
        units >>= 11
        for row in rejected:
            block[row].advance(-(cell_words + n))
            rng = Generator(block[row])
            products[row], units[row] = rng.integers(0, k, size=n), rng.random(n) * 2.0**53
        yield products.view(np.int64), units
