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
``rng.random(n)`` draw, for a block of generators at a time, from one
``random_raw`` read of each generator's 64-bit words: numpy's bounded
integers below 2^32 (Lemire's method on 32-bit halves, with a half left
buffered in the generator) and its uniforms (the top 53 bits of a word) are
fixed algorithms too (``numpy/random/src/distributions``), reproduced on
arrays, and each generator is left in the state that numpy's calls leave.

The tests compare both with numpy's own calls, which guards a numpy upgrade;
both are tested on numpy 2.4, and the package requires numpy 2.

This module loads numpy.random, so it is imported only where replications
are drawn (``harness._run_chunk``) and where Isomorphy draws
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


def _replay(bit_generator, half, stream, k, n, reject_below):
    """One row of ``integers_then_random`` in numpy's order, rejections included, as (cells, label words).

    ``half`` is the generator's buffered half (or None) and ``stream`` the words already read from it, in
    order; more are read where the row needs them. Also returns the generator's buffered half after the row
    and the words of ``stream`` that the row left unused.
    """
    lead = np.array([] if half is None else [half], np.uint64)
    while True:
        products = np.concatenate([lead, _halves(stream)]) * np.uint64(k)
        kept = np.flatnonzero((products & _LOW) >= reject_below)
        if kept.size >= n:
            break
        stream = np.concatenate([stream, bit_generator.random_raw((n - kept.size + 1) // 2)])
    used = int(kept[n - 1]) + 1 - lead.size  # halves the cells took from the stream's words
    taken = (used + 1) // 2
    if stream.size < taken + n:
        stream = np.concatenate([stream, bit_generator.random_raw(taken + n - stream.size)])
    half = int(stream[taken - 1] >> 32) if used % 2 else None
    return products[kept[:n]] >> 32, stream[taken:taken + n], half, stream[taken + n:]


def _block(bit_generators, k, n, words):
    """One block of ``integers_then_random``, read into the rows of ``words``, with each state written back."""
    rows, cell_words = len(bit_generators), (n + 1) // 2
    entry, carry, starts = {}, {}, np.empty(rows, np.int64)
    for row, bit_generator in enumerate(bit_generators):
        if bit_generator not in carry:
            state = bit_generator.state
            carry[bit_generator] = entry[bit_generator] = state["uinteger"] if state["has_uint32"] else None
        half = carry[bit_generator]
        fresh = n if half is None else n - 1  # halves the cells take from this row's words
        own = (fresh + 1) // 2
        first = 1 + cell_words - own
        words[row, first:] = raw = bit_generator.random_raw(own + n)
        if half is not None:
            words[row, first - 1] = half << 32
        starts[row] = 2 * first - (half is not None)
        carry[bit_generator] = int(raw[own - 1] >> 32) if fresh % 2 else None
    halves, units = _halves(words), words[:, 1 + cell_words:]
    start = int(starts[0])
    if (starts == start).all():
        products = halves[:, start:start + n] * np.uint64(k)
    else:
        products = np.take_along_axis(halves, starts[:, None] + np.arange(n), axis=1) * np.uint64(k)
    # numpy rejects a half whose product's low word is below 2^32 mod k
    reject_below = (1 << 32) % k
    rejected = np.flatnonzero(((products & _LOW) < reject_below).any(axis=1)) if reject_below else ()
    products >>= 32
    replayed = set()
    for row in rejected:
        bit_generator = bit_generators[row]
        if bit_generator in replayed:
            continue
        replayed.add(bit_generator)
        later = [r for r in range(row, rows) if bit_generators[r] is bit_generator]
        half = int(halves[row, starts[row]]) if starts[row] % 2 else None
        stream = np.concatenate([words[r, (starts[r] + 1) // 2:] for r in later])
        for r in later:
            products[r], units[r], half, stream = _replay(bit_generator, half, stream, k, n, reject_below)
        carry[bit_generator] = half
    for bit_generator, half in carry.items():
        if half != entry[bit_generator]:
            state = bit_generator.state
            state["has_uint32"], state["uinteger"] = (0, state["uinteger"]) if half is None else (1, half)
            bit_generator.state = state
    units >>= 11
    return products.view(np.int64), units


def integers_then_random(rngs, k, n, rows):
    """Yields, ``rows`` generators at a time, what each draws by ``integers(0, k, size=n)`` and then ``random(n)``.

    A block is two (generators, n) arrays: the int64 cells and the uint64 integers u of the uniforms, each
    ``random()`` being ``u * 2**-53``; u is overwritten by the next block. Both are numpy's bit for bit, and each
    generator is left, block by block, in the state that numpy's calls leave, for ``PCG64`` generators,
    ``2 <= k <= 2**32`` and ``n >= 1``.

    A row is one ``random_raw`` read. numpy's bounded integers below 2^32 (``random_bounded_uint64_fill``)
    take the 32-bit halves of 64-bit words, low half first, by Lemire's method: a half h gives the cell
    ``(h k) >> 32``, unless ``(h k) mod 2^32 < 2^32 mod k`` rejects it for the next half. A high half left over
    stays buffered in the generator (``has_uint32`` / ``uinteger``) for the next bounded draw, and ``random``
    does not read it: each uniform is the top 53 bits of one word. So a row's cells take ``ceil(n / 2)`` words,
    one fewer after a buffered half when n is odd, and its uniforms the next n. A rejection, never at a
    power-of-two k and with probability below k / 2^32 per half otherwise, shifts the words: that row and the
    later rows of its generator in the block are replayed in numpy's order (``_replay``). A generator may come
    more than once: its buffered half is carried from row to row, and written back to its state only where the
    block changed it.
    """
    if not 2 <= k <= 1 << 32:
        raise ValueError(f"k must be in [2, 2**32], got {k}")
    # each row ends with its words: its cell words, then from column 1 + ceil(n / 2) its n uniform words; a
    # buffered half sits in the high bits of the column before its cell words. One buffer serves every block.
    words = np.empty((rows, 1 + (n + 1) // 2 + n), np.uint64)
    rngs = iter(rngs)
    while block := [rng.bit_generator for rng in itertools.islice(rngs, rows)]:
        yield _block(block, k, n, words[:len(block)])
