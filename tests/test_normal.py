"""Normal quantile accuracy and the reproducible noise stream."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

import shapealign as sa


def test_inverse_cdf_against_reference():
    p = np.concatenate([
        np.array([1e-12, 1e-8, 1e-4, 0.01, 0.025]),
        np.linspace(0.05, 0.95, 19),
        np.array([0.975, 0.99, 0.9999, 1 - 1e-8, 1 - 1e-12]),
    ])
    ours = sa.inverse_normal_cdf(p)
    ref = ndtri(p)
    assert np.max(np.abs(ours - ref)) < 1e-8
    # relative accuracy holds deep in the tails too
    assert np.max(np.abs(ours - ref) / np.abs(ref)) < 1e-13


def test_inverse_cdf_symmetry_and_median():
    assert sa.inverse_normal_cdf(0.5) == 0.0
    # 1 - p is not exactly representable deep in the tail, which alone
    # perturbs the quantile by ~|eps/phi(z)|; keep the tolerance above that
    for p in [0.31, 0.027, 1e-6]:
        assert abs(sa.inverse_normal_cdf(p) + sa.inverse_normal_cdf(1 - p)) < 1e-10


def test_inverse_cdf_domain():
    with pytest.raises(ValueError):
        sa.inverse_normal_cdf(0.0)
    with pytest.raises(ValueError):
        sa.inverse_normal_cdf(1.0)


def test_normals_bit_reproducible():
    a = sa.standard_normals(1234, (4, 7))
    b = sa.standard_normals(1234, (4, 7))
    assert np.array_equal(a, b)
    c = sa.standard_normals(1235, (4, 7))
    assert not np.array_equal(a, c)


def test_normals_moments():
    draws = sa.standard_normals(7, (200_000,))
    assert abs(draws.mean()) < 0.01
    assert abs(draws.std() - 1.0) < 0.01
    assert np.all(np.isfinite(draws))


# uniforms of the central branch, of both tails and of the far tail (r > 5, p < e^-25)
_UNIFORMS = st.one_of(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                      st.floats(0.0, 0.075, exclude_min=True), st.floats(0.925, 1.0, exclude_max=True),
                      st.floats(0.0, 1e-11, exclude_min=True), st.floats(1.0 - 1e-11, 1.0, exclude_max=True))


@settings(max_examples=60, deadline=None)
@given(parts=st.lists(st.lists(_UNIFORMS, min_size=1, max_size=20), min_size=1, max_size=8))
def test_inverse_cdf_of_a_batch_equals_per_part_property(parts):
    # panels of many seeds map their uniforms in one call: each value keeps its bits
    whole = sa.inverse_normal_cdf(np.concatenate([np.array(part) for part in parts]))
    each = np.concatenate([sa.inverse_normal_cdf(np.array(part)) for part in parts])
    assert whole.tobytes() == each.tobytes()
