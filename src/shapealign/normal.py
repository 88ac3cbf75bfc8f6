"""Normal quantiles and bit-reproducible Gaussian noise.

The quantile function is Wichura's rational approximation (double
precision, relative error below 1e-15), so the package needs no special-
function dependency.  Noise streams come from the counter-based Philox
generator mapped through this quantile: the raw 64-bit stream is fixed by
the Philox specification, which makes panels bit-reproducible from their
seed alone.
"""

from __future__ import annotations

import numpy as np

# Rational-minimax coefficients for the central and tail regions of the
# inverse normal CDF (double-precision fit).
_A = np.array([
    3.3871328727963666080e0, 1.3314166789178437745e2, 1.9715909503065514427e3,
    1.3731693765509461125e4, 4.5921953931549871457e4, 6.7265770927008700853e4,
    3.3430575583588128105e4, 2.5090809287301226727e3,
])
_B = np.array([
    1.0, 4.2313330701600911252e1, 6.8718700749205790830e2,
    5.3941960214247511077e3, 2.1213794301586595867e4, 3.9307895800092710610e4,
    2.8729085735721942674e4, 5.2264952788528545610e3,
])
_C = np.array([
    1.42343711074968357734e0, 4.63033784615654529590e0, 5.76949722146069140550e0,
    3.64784832476320460504e0, 1.27045825245236838258e0, 2.41780725177450611770e-1,
    2.27238449892691845833e-2, 7.74545014278341407640e-4,
])
_D = np.array([
    1.0, 2.05319162663775882187e0, 1.67638483018380384940e0,
    6.89767334985100004550e-1, 1.48103976427480074590e-1, 1.51986665636164571966e-2,
    5.47593808499534494600e-4, 1.05075007164441684324e-9,
])
_E = np.array([
    6.65790464350110377720e0, 5.46378491116411436990e0, 1.78482653991729133580e0,
    2.96560571828504891230e-1, 2.65321895265761230930e-2, 1.24266094738807843860e-3,
    2.71155556874348757815e-5, 2.01033439929228813265e-7,
])
_F = np.array([
    1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1,
    1.48753612908506148525e-2, 7.86869131145613259100e-4, 1.84631831751005468180e-5,
    1.42151175831644588870e-7, 2.04426310338993978564e-15,
])


def _poly(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Horner's rule, the highest coefficient first, one multiply and one add a step, in place."""
    out = np.full_like(x, coeffs[-1])
    for c in coeffs[-2::-1]:
        out *= x
        out += c
    return out


def inverse_normal_cdf(p) -> float | np.ndarray:
    """Quantile z with Phi(z) = p, elementwise, for p in (0, 1); any other value, NaN too, is a ValueError.

    The central rational function, finite on all of (0, 1), runs on every value with in-place
    Horner steps, and only the tails, |p - 0.5| > 0.425, are indexed, to overwrite their entries.
    A Python or 0-d input gives a Python ``float``.
    """
    p_arr = np.asarray(p, dtype=float)
    if not ((p_arr > 0.0) & (p_arr < 1.0)).all():  # NaN fails too
        raise ValueError("quantile argument must lie strictly in (0, 1)")
    p_flat = p_arr.reshape(-1)
    q = p_flat - 0.5
    r = 0.180625 - q * q
    z = q * _poly(_A, r)
    z /= _poly(_B, r)

    tails = np.flatnonzero(np.abs(q) > 0.425)
    if tails.size:
        pt = p_flat[tails]
        r = np.sqrt(-np.log(np.minimum(pt, 1.0 - pt)))
        near = r <= 5.0
        val = np.empty_like(r)
        if near.any():
            val[near] = _poly(_C, r[near] - 1.6) / _poly(_D, r[near] - 1.6)
        if not near.all():
            far = ~near
            val[far] = _poly(_E, r[far] - 5.0) / _poly(_F, r[far] - 5.0)
        z[tails] = np.sign(q[tails]) * val

    return float(z[0]) if p_arr.ndim == 0 else z.reshape(p_arr.shape)


def standard_normals(seed: int, shape: tuple[int, ...]) -> np.ndarray:
    """Deterministic N(0,1) draws for a seed, counter-based.

    Raw Philox 64-bit words are mapped to the open interval (0, 1) by
    u = ((w >> 11) + 0.5) * 2^-53 (so u is never 0 or 1) and then through
    the inverse CDF.  Identical seed and shape give identical bits.
    """
    return seeded_normals([seed], int(np.prod(shape)))[0].reshape(shape)


def seeded_normals(seeds, size: int) -> np.ndarray:
    """Rows (len(seeds), size) of ``standard_normals`` draws, one Philox stream a seed, one quantile call.

    One ``Philox`` is re-keyed for each seed through its ``state``: counter 0, an empty buffer and
    key (seed mod 2^64, seed >> 64), the words ``Philox(key=seed)`` gives, without building a
    generator a seed.  The words fill one preallocated array.  A seed outside 0 .. 2^128 - 1 is
    the ``ValueError`` ``Philox`` raises.
    """
    seeds = [int(seed) for seed in seeds]
    words = np.empty((len(seeds), size), dtype=np.uint64)
    key = np.zeros(2, dtype=np.uint64)
    state = {"bit_generator": "Philox", "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
             "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    philox = np.random.Philox(0)
    for row, seed in zip(words, seeds):
        if not 0 <= seed < 2**128:
            raise ValueError("key must be positive and less than 2**128.")
        key[0], key[1] = seed & 0xFFFF_FFFF_FFFF_FFFF, seed >> 64
        philox.state = state
        row[:] = philox.random_raw(size)
    words >>= np.uint64(11)
    u = words.astype(np.float64)
    u += 0.5
    u *= 2.0**-53
    return inverse_normal_cdf(u)
