"""Normal quantile accuracy and the reproducible noise stream."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

import shapealign as sa
from shapealign.normal import seeded_normals
from oracles import inverse_normal_cdf_by_mask, seeded_normals_per_seed


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
    for nan in (math.nan, np.array(math.nan), np.array([0.25, math.nan, 0.75])):
        with pytest.raises(ValueError, match="strictly in"):
            sa.inverse_normal_cdf(nan)


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


def _ulp_walk(center: float, steps: int) -> list[float]:
    """``center`` and its ``steps`` nearest floats on either side, in order."""
    below, above = [center], [center]
    for _ in range(steps):
        below.append(float(np.nextafter(below[-1], 0.0)))
        above.append(float(np.nextafter(above[-1], 1.0)))
    return below[:0:-1] + above


# the quantile's branch edges with their neighbours: |p - 0.5| = 0.425, then r = 5, where r rounds
# to 5 for several floats near e^-25; the least uniform of a word, 2^-54; 2^-53; 1 - 2^-53, the
# largest double below 1; the median and the least double
_EDGES = tuple(p for center, steps in ((0.075, 4), (0.925, 4), (math.exp(-25.0), 24), (1.0 - math.exp(-25.0), 4))
               for p in _ulp_walk(center, steps)) + (2.0**-54, 2.0**-53, 1.0 - 2.0**-53, 0.5, 5e-324)
_KEYS = (st.sampled_from((0, 1, 2**64 - 1, 2**64, 2**128 - 1)) | st.integers(0, 2**64 - 1)
         | st.integers(2**64, 2**128 - 1))


@settings(max_examples=60, deadline=None)
@given(seeds=st.lists(_KEYS, max_size=6), size=st.sampled_from((0, 1, 10**4)) | st.integers(0, 10**4),
       values=st.lists(st.sampled_from(_EDGES) | _UNIFORMS, min_size=1, max_size=60),
       scalar=st.sampled_from(_EDGES) | _UNIFORMS)
def test_seeded_normals_and_quantile_equal_the_per_seed_oracle_property(seeds, size, values, scalar):
    # one re-keyed Philox a block and the in-place central branch give the draws of a new Philox
    # a seed and of the boolean-indexed branches bit for bit, at every key, size and branch edge
    draws = seeded_normals(seeds, size)
    assert draws.shape == (len(seeds), size)
    assert draws.tobytes() == seeded_normals_per_seed(seeds, size).tobytes()
    p = np.array(values)
    for shaped in (p, p.reshape(1, -1), p[::-1]):
        z = sa.inverse_normal_cdf(shaped)
        assert z.shape == shaped.shape and z.tobytes() == inverse_normal_cdf_by_mask(shaped).tobytes()
    for value in (scalar, np.float64(scalar), np.array(scalar)):
        z = sa.inverse_normal_cdf(value)
        assert type(z) is float and np.float64(z).tobytes() == np.float64(inverse_normal_cdf_by_mask(value)).tobytes()


@pytest.mark.parametrize("seed", [-1, 2**128])
def test_seeded_normals_reject_a_key_outside_philox_range(seed):
    # the error a new Philox(key=seed) raised for the seed
    with pytest.raises(ValueError) as expected:
        np.random.Philox(key=seed)
    with pytest.raises(ValueError) as raised:
        seeded_normals([0, seed], 3)
    assert str(raised.value) == str(expected.value)
