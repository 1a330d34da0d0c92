import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlgap.rng import derive_rng


def first_draw(*labels) -> int:
    return int(derive_rng(*labels).bit_generator.random_raw())


class TestDistinctLabels:
    """Label tuples that collided when labels were masked to 64 bits or
    hashed with CRC32 and padded with zeros by SeedSequence."""

    def test_trailing_zero_label(self):
        assert first_draw(7, 1) != first_draw(7, 1, 0)

    def test_string_against_its_crc32(self):
        assert first_draw(7, "pairing") != first_draw(7, zlib.crc32(b"pairing"))

    def test_negative_seed_against_its_64_bit_mask(self):
        assert first_draw(-1) != first_draw(2 ** 64 - 1)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.one_of(st.integers(), st.text(max_size=8)),
                             max_size=5).map(tuple),
                    min_size=2, max_size=8, unique=True),
           st.integers())
    def test_distinct_tuples_give_distinct_first_draws(self, paths, seed):
        draws = {first_draw(seed, *path) for path in paths}
        assert len(draws) == len(paths)


class TestSameLabels:
    def test_numpy_and_python_scalars_name_one_stream(self):
        assert first_draw(np.int64(5), np.str_("x"), np.uint8(3)) == first_draw(5, "x", 3)

    def test_other_label_types_rejected(self):
        with pytest.raises(TypeError, match="ints or strs"):
            derive_rng(1, 0.5)
