import ast
from pathlib import Path

import numpy as np
import pytest

from oraclebench import derive_seed, harness, seeding

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


def _seeds():
    drawn = np.random.default_rng(20240601).integers(0, 2**64 - 1, size=1000, dtype=np.uint64, endpoint=True)
    return np.concatenate([np.array(EDGE_SEEDS, dtype=np.uint64), drawn])


def _draws(rng):
    # mixed draws, so that the buffered 32-bit half of the state (integers below 2^32) is covered too
    return (rng.random(3), rng.integers(0, 256, size=5), rng.standard_normal(3), rng.chisquare(4.5, 2),
            rng.integers(0, 256), rng.random())


def test_words_are_the_seed_sequence_state():
    seeds = _seeds()
    words = seeding.seed_sequence_words(seeds)
    assert words.dtype == np.uint64 and words.shape == (seeds.size, 4)
    for seed, row in zip(seeds.tolist(), words):
        # PCG64 reads its seed straight from the buffer: each row must be a contiguous (4,) uint64 block
        assert row.flags.c_contiguous and row.shape == (4,)
        np.testing.assert_array_equal(row, np.random.SeedSequence(seed).generate_state(4, np.uint64))


def test_generators_draw_as_default_rng():
    seeds = _seeds()
    for seed, rng in zip(seeds.tolist(), seeding.generators(seeds), strict=True):
        for got, want in zip(_draws(rng), _draws(np.random.default_rng(seed))):
            np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_one_replication_chunk(seed):
    # a one-element chunk stays on arrays, where wrapping arithmetic raises no overflow warning (an error here)
    one = np.array([seed], dtype=np.uint64)
    (words,) = seeding.seed_sequence_words(one)
    np.testing.assert_array_equal(words, np.random.SeedSequence(seed).generate_state(4, np.uint64))
    (rng,) = seeding.generators(one)
    for got, want in zip(_draws(rng), _draws(np.random.default_rng(seed))):
        np.testing.assert_array_equal(got, want)
    # the chunk path from the replication index on, at the same master seed
    config = harness.ScenarioConfig(scenario="FiniteGap", n_grid=(64,), replications=1, master_seed=seed)
    ctx = harness._REGISTRY["FiniteGap"].context(config, 64)
    expected = harness._finite_gap_rows(config, ctx, 64, range(1),
                                        [np.random.default_rng(derive_seed(seed, "finite-gap", 64, 0))])
    np.testing.assert_array_equal(harness._run_chunk((config, ctx, 64, range(1))), expected)


def read_state(rng):
    """A generator's state as numpy's draws read it: ``uinteger`` is read only while ``has_uint32`` is set."""
    state = rng.bit_generator.state
    return state["state"], state["has_uint32"], state["uinteger"] if state["has_uint32"] else None


def assert_same_generator(got, want):
    """Both generators are in the same state, and their next integers and uniforms agree."""
    assert read_state(got) == read_state(want)
    for got_draw, want_draw in zip(_draws(got), _draws(want)):
        np.testing.assert_array_equal(got_draw, want_draw)


# cell counts up to 2^32, powers of two and not; at 3 * 2^30 and 2^31 + 1 about 1/4 and 1/2 of all halves are
# rejected. Sizes of both parities: an odd n leaves half a word buffered.
CELLS = [2, 3, 16, 255, 256, 257, 1000, 3 * 2**30, 2**31 + 1, 2**32 - 1, 2**32]
SIZES = [1, 2, 3, 255, 256, 4097]


def _numpy_draws(rngs, k, n):
    draws = [(rng.integers(0, k, size=n), rng.random(n)) for rng in rngs]
    return np.array([cells for cells, _ in draws]), np.array([uniforms for _, uniforms in draws])


def _seeding_draws(rngs, k, n, rows):
    # each block's integers are scaled before the next block reuses their buffer
    blocks = [(cells, units * 2.0**-53) for cells, units in seeding.integers_then_random(rngs, k, n, rows)]
    assert all(cells.dtype == np.int64 for cells, _ in blocks)
    return np.concatenate([cells for cells, _ in blocks]), np.concatenate([uniforms for _, uniforms in blocks])


@pytest.mark.parametrize("k", CELLS)
def test_integers_then_random_draws_as_numpy(k):
    # five fresh generators in blocks of two, so that a block may be short
    for n in SIZES:
        got, want = ([np.random.default_rng(seed) for seed in range(5)] for _ in range(2))
        for drawn, expected in zip(_seeding_draws(got, k, n, 2), _numpy_draws(want, k, n)):
            np.testing.assert_array_equal(drawn, expected)
        for got_rng, want_rng in zip(got, want):
            assert_same_generator(got_rng, want_rng)


@pytest.mark.parametrize("k", CELLS)
def test_one_generator_drawn_three_times_in_a_row(k):
    # three rows of one generator in one call, across a block boundary, and three calls of one row: a half that
    # a row leaves buffered is the next row's first
    for n in SIZES:
        once, thrice, want = (np.random.default_rng(n) for _ in range(3))
        expected = _numpy_draws([want] * 3, k, n)
        for drawn, wanted in zip(_seeding_draws([once] * 3, k, n, 2), expected):
            np.testing.assert_array_equal(drawn, wanted)
        calls = [_seeding_draws([thrice], k, n, 1) for _ in range(3)]
        for part, wanted in enumerate(expected):
            np.testing.assert_array_equal(np.concatenate([call[part] for call in calls]), wanted)
        assert read_state(thrice) == read_state(once)
        assert_same_generator(once, want)


@pytest.mark.parametrize("k, share", [(3 * 2**30, 1 / 4), (2**31 + 1, 1 / 2)])
@pytest.mark.parametrize("n", [255, 4097])
def test_rejected_halves_are_replayed(k, share, n):
    # numpy rejects a half h when (h k) mod 2^32 < 2^32 mod k, here a large share of all halves; two rows of one
    # generator, so that the second starts where the first's rejections left the stream
    got, want = (np.random.default_rng(11) for _ in range(2))
    for drawn, expected in zip(_seeding_draws([got, got], k, n, 2), _numpy_draws([want, want], k, n)):
        np.testing.assert_array_equal(drawn, expected)
    taken = read_state(want)[0]
    assert_same_generator(got, want)
    # numpy took 2n words for the uniforms and about n / (1 - share) for the cells, where rejection-free rows
    # take n: count them by stepping a fresh generator until it reaches the state the draws left
    probe, words = np.random.default_rng(11).bit_generator.advance(3 * n), 3 * n
    while probe.state["state"] != taken and words < 5 * n:
        probe.advance(1)
        words += 1
    assert abs(words - (2 * n + n / (1 - share))) < 0.1 * n


@pytest.mark.parametrize("k", [1, 2**32 + 1])
def test_integers_then_random_rejects_cell_counts_it_does_not_reproduce(k):
    # numpy draws no word at k = 1 and takes 64-bit words whole above 2^32
    with pytest.raises(ValueError, match="k must be in"):
        next(seeding.integers_then_random([np.random.default_rng(0)], k, 4, 1))


def _names(path):
    """Every name, attribute and imported name that a module's code uses."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update([node.module or ""] + [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
    return names


def test_one_stream_law():
    # every stream is default_rng(derive_seed(...)), so only seeding, which reproduces default_rng's hash and
    # numpy's integers and uniforms, may name SeedSequence or read raw words; no module spawns child streams,
    # and complexity draws nothing at all
    package = Path(seeding.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name != "seeding.py":
            assert not {"SeedSequence", "spawn", "random_raw"} & _names(path), path.name
    assert not {"random", "numpy.random", "seeding"} & _names(package / "complexity.py")
