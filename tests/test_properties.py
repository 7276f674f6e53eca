"""Property tests of the exact identities, on random inputs."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from rfree import class_counts, count_r_free_in_progression  # noqa: E402


@settings(max_examples=60, deadline=None)
@given(
    x=st.integers(min_value=1, max_value=100_000),
    r=st.sampled_from([2, 3]),
    k=st.integers(min_value=1, max_value=300),
)
def test_class_counts_match_strided_scan(table_1e5, x, r, k):
    counts = class_counts(table_1e5, x, r, k)
    expected = [count_r_free_in_progression(table_1e5, x, r, k, l) for l in range(k)]
    assert counts.tolist() == expected
