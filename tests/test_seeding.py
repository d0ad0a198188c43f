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
    # every stream is default_rng(derive_seed(...)), so only seeding, which reproduces default_rng's hash,
    # may name SeedSequence; no module spawns child streams, and complexity draws nothing at all
    package = Path(seeding.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name != "seeding.py":
            assert not {"SeedSequence", "spawn"} & _names(path), path.name
    assert not {"random", "numpy.random", "seeding"} & _names(package / "complexity.py")
