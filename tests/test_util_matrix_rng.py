"""Tests for matrix helpers and deterministic RNG derivation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.util.matrix import (
    check_square,
    first_asymmetry,
    row_blocks,
    write_affinity,
)
from repro.util.rng import BlockRng, derive_rng, make_rng

squareish = arrays(
    np.float64,
    (4, 4),
    elements=st.floats(min_value=0, max_value=1e6, allow_nan=False),
)


class TestMatrixHelpers:
    def test_check_square_accepts_square(self):
        m = check_square([[0, 1], [2, 3]])
        assert m.shape == (2, 2)

    def test_check_square_rejects_rect(self):
        with pytest.raises(ValueError):
            check_square(np.zeros((2, 3)))

    def test_check_square_rejects_nan(self):
        with pytest.raises(ValueError):
            check_square([[0, np.nan], [0, 0]])

    def test_check_square_rejects_negative(self):
        with pytest.raises(ValueError):
            check_square([[0, -1], [0, 0]])

    def test_check_square_names_defect_in_later_block(self):
        # Row blocks hold 1 MB, so order 600 spans several; non-finite
        # entries are reported before negative ones wherever they sit.
        m = np.zeros((600, 600))
        m[5, 7] = -1.0
        m[590, 2] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            check_square(m)
        m[590, 2] = 0.0
        with pytest.raises(ValueError, match="negative"):
            check_square(m)

    def test_row_blocks_cover_rows_once(self):
        blocks = row_blocks(1000, 600)
        assert len(blocks) > 1
        assert [i for b in blocks for i in range(b.start, b.stop)] == list(
            range(1000)
        )
        assert row_blocks(0, 0) == []

    @given(squareish)
    def test_write_affinity_is_symmetric_sum(self, m):
        s = write_affinity(np.empty_like(m), m)
        ref = m + m.T
        np.fill_diagonal(ref, 0.0)
        assert np.array_equal(s, ref)
        assert np.array_equal(s, s.T)

    def test_write_affinity_zero_diagonal(self):
        m = np.array([[5.0, 1.0], [2.0, 7.0]])
        out = np.full((2, 2), 9.0)
        assert write_affinity(out, m) is out
        assert out.tolist() == [[0.0, 3.0], [3.0, 0.0]]

    def test_first_asymmetry_row_major_across_tiles(self):
        m = np.ones((700, 700))
        assert first_asymmetry(m) is None
        m[650, 3] = 2.0  # mirror pair (3, 650) comes first row-major
        m[600, 690] = 5.0
        assert first_asymmetry(m) == (3, 650)
        m[650, 3] = 1.0
        assert first_asymmetry(m) == (600, 690)


class TestRng:
    def test_make_rng_deterministic(self):
        assert make_rng(3).integers(0, 100) == make_rng(3).integers(0, 100)

    def test_derive_rng_independent_of_draw_order(self):
        a = derive_rng(make_rng(0), "video", 1)
        b = derive_rng(make_rng(0), "video", 1)
        assert a.integers(0, 1 << 30) == b.integers(0, 1 << 30)

    def test_derive_rng_distinct_keys_differ(self):
        root = make_rng(0)
        a = derive_rng(root, "a")
        root2 = make_rng(0)
        b = derive_rng(root2, "b")
        assert a.integers(0, 1 << 30) != b.integers(0, 1 << 30)


def _interleave(seed: int, block: int, n_draws: int) -> int:
    """Drive *n_draws* seeded-random draws through a BlockRng and a plain
    Generator of the same seed in lockstep; returns the integers count.

    ``integers`` ranges include a span of 1 (no draw at all), small
    spans served by 32-bit draws — which can leave a cached 32-bit half
    behind — and a span above 2**32."""
    import random

    plain = np.random.default_rng(seed)
    blocked = BlockRng(np.random.default_rng(seed), block)
    pick = random.Random(seed)
    n_integers = 0
    for _ in range(n_draws):
        r = pick.random()
        if r < 0.45:
            got, want = blocked.random(), plain.random()
        elif r < 0.9:
            low = pick.choice((-0.02, 0.0, -1.5))
            high = pick.choice((0.02, 1.0, 3.25))
            got, want = blocked.uniform(low, high), plain.uniform(low, high)
        else:
            low = pick.randrange(4)
            high = low + pick.choice((1, 2, 3, 7, 30, 1 << 33))
            got, want = blocked.integers(low, high), plain.integers(low, high)
            n_integers += 1
            assert blocked.generator.bit_generator.state == \
                plain.bit_generator.state
        assert got == want and type(got) is type(want)
    return n_integers


class TestBlockRng:
    @pytest.mark.parametrize("block", [1, 2, 3, 7, BlockRng.BLOCK])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_plain_generator(self, seed, block):
        assert _interleave(seed, block, 3000) > 100

    def test_cached_half_survives_resync(self):
        # An odd number of 32-bit draws leaves a cached half; doubles
        # from a block taken after it, then another integers draw, must
        # still see that half.
        plain = np.random.default_rng(5)
        blocked = BlockRng(np.random.default_rng(5), 8)
        assert blocked.integers(0, 7) == plain.integers(0, 7)
        assert plain.bit_generator.state["has_uint32"] == 1
        for _ in range(3):
            assert blocked.random() == plain.random()
        assert blocked.integers(0, 7) == plain.integers(0, 7)
        assert blocked.generator.bit_generator.state == \
            plain.bit_generator.state
