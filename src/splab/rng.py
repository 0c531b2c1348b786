"""Portable seeded random streams.

Reproducibility across implementations requires pinning both the bit
generator and the normal-variate algorithm, so this module implements both
explicitly instead of delegating to numpy's (version-dependent) generators:

* bit generator: SplitMix64 (Steele/Lea/Flood finalizer, as in Vigna's
  reference implementation).  state' = state + 0x9E3779B97F4A7C15 mod 2^64,
  output = mix(state') with the xor-shift/multiply finalizer below.
* uniforms: u = ((word >> 11) + 0.5) * 2^-53, strictly inside (0, 1).
* normals: inverse CDF applied to the uniform stream, one draw per variate,
  using Wichura's PPND16 rational approximation (abs error < 1e-15).

Matrices are filled row-major from the stream; complex entries consume the
real part first, then the imaginary part.

The scalar methods (``next_u64``, ``uniform``, ``normal``, ``integer``) and
``inverse_normal_cdf`` are the definition.  ``uniforms``, ``normals`` and
``complex_normals`` draw whole blocks with numpy and give the same bits:
the stream is counter-based (the k-th state is seed + k*gamma mod 2^64, and
uint64 arithmetic wraps exactly like the 64-bit mask), and the block PPND16
evaluates the same Horner steps in the same order.  Its tail branch still
takes ``math.log`` element by element, because numpy's SIMD ``np.log`` is
not correctly rounded and differs from it in the last bit on some inputs.
After a block of ``count`` draws the state equals the state after ``count``
scalar draws, so block and scalar draws interleave freely.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """Deterministic 64-bit generator; the whole stream is fixed by the seed."""

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform double in the open interval (0, 1), 53 usable bits."""
        return ((self.next_u64() >> 11) + 0.5) * 2.0**-53

    def normal(self) -> float:
        return inverse_normal_cdf(self.uniform())

    def uniforms(self, count: int) -> np.ndarray:
        """The next ``count`` uniforms of the stream, as ``count`` calls of
        ``uniform`` would give them."""
        # every operand is an explicit np.uint64, so that no numpy version
        # promotes a mixed Python-int/uint64 operation to float64 or int64
        u64 = np.uint64
        z = np.arange(1, count + 1, dtype=u64)
        z *= u64(_GAMMA)
        z += u64(self._state)
        self._state = (self._state + count * _GAMMA) & _MASK64
        z ^= z >> u64(30)
        z *= u64(_MIX1)
        z ^= z >> u64(27)
        z *= u64(_MIX2)
        z ^= z >> u64(31)
        u = (z >> u64(11)).astype(np.float64)
        u += 0.5
        u *= 2.0**-53
        return u

    def _draw(self, count: int) -> np.ndarray:
        """The next ``count`` normals of the stream, in draw order."""
        return _inverse_normal_cdf_block(self.uniforms(count))

    def normals(self, rows: int, cols: int) -> np.ndarray:
        """Real standard-normal matrix, entries drawn row-major."""
        return self._draw(rows * cols).reshape(rows, cols)

    def complex_normals(self, rows: int, cols: int) -> np.ndarray:
        """Complex matrix with independent N(0,1) real and imaginary parts."""
        return self._draw(2 * rows * cols).view(np.complex128).reshape(rows, cols)

    def integer(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] via modulo reduction (documented bias
        is < 2^-50 for the desk-scale ranges used here)."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.next_u64() % (hi - lo + 1)


# PPND16 coefficients (Wichura, Algorithm AS 241), double-precision branch.
_A = (3.3871328727963666080e0, 1.3314166789178437745e2, 1.9715909503065514427e3,
      1.3731693765509461125e4, 4.5921953931549871457e4, 6.7265770927008700853e4,
      3.3430575583588128105e4, 2.5090809287301226727e3)
_B = (1.0, 4.2313330701600911252e1, 6.8718700749205790830e2, 5.3941960214247511077e3,
      2.1213794301586595867e4, 3.9307895800092710610e4, 2.8729085735721942674e4,
      5.2264952788528545610e3)
_C = (1.42343711074968357734e0, 4.63033784615654529590e0, 5.76949722146069140550e0,
      3.64784832476320460504e0, 1.27045825245236838258e0, 2.41780725177450611770e-1,
      2.27238449892691845833e-2, 7.74545014278341407640e-4)
_D = (1.0, 2.05319162663775882187e0, 1.67638483018380384940e0, 6.89767334985100004550e-1,
      1.48103976427480074590e-1, 1.51986665636164571966e-2, 5.47593808499534494600e-4,
      1.05075007164441684324e-9)
_E = (6.65790464350110377720e0, 5.46378491116411436990e0, 1.78482653991729133580e0,
      2.96560571828504891230e-1, 2.65321895265761230930e-2, 1.24266094738807843860e-3,
      2.71155556874348757815e-5, 2.01033439929228813265e-7)
_F = (1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1, 1.48753612908506148525e-2,
      7.86869131145613259100e-4, 1.84631831751005468180e-5, 1.42151175831644588870e-7,
      2.04426310338993978564e-15)


def _ratpoly(coeffs_num, coeffs_den, r: float) -> float:
    num = coeffs_num[7]
    for c in reversed(coeffs_num[:7]):
        num = num * r + c
    den = coeffs_den[7]
    for c in reversed(coeffs_den[:7]):
        den = den * r + c
    return num / den


def _horner_block(coeffs, x: np.ndarray) -> np.ndarray:
    """``_ratpoly``'s Horner steps for one polynomial, over an array."""
    acc = coeffs[7] * x
    acc += coeffs[6]
    for c in reversed(coeffs[:6]):
        acc *= x
        acc += c
    return acc


def _ratpoly_block(coeffs_num, coeffs_den, x: np.ndarray) -> np.ndarray:
    out = _horner_block(coeffs_num, x)
    out /= _horner_block(coeffs_den, x)
    return out


def _inverse_normal_cdf_block(p: np.ndarray) -> np.ndarray:
    """``inverse_normal_cdf`` of each entry of ``p``, bit for bit.

    The central formula runs over the whole array (its denominator stays
    above 2e-3 on the tail too, so nothing overflows); the tail entries are
    then overwritten.
    """
    q = p - 0.5
    out = _ratpoly_block(_A, _B, 0.180625 - q * q)
    out *= q
    tail = np.flatnonzero(np.abs(q) > 0.425)
    pt = p[tail]
    neg = q[tail] < 0.0
    r = np.sqrt(np.array([-math.log(x) for x in np.where(neg, pt, 1.0 - pt).tolist()]))
    z = _ratpoly_block(_C, _D, r - 1.6)
    far = r > 5.0
    if far.any():  # p < e^-25: almost never drawn
        z[far] = _ratpoly_block(_E, _F, r[far] - 5.0)
    np.negative(z, out=z, where=neg)
    out[tail] = z
    return out


def inverse_normal_cdf(p: float) -> float:
    """Quantile of the standard normal distribution (PPND16 / AS 241)."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly inside (0, 1)")
    q = p - 0.5
    if abs(q) <= 0.425:
        r = 0.180625 - q * q
        return q * _ratpoly(_A, _B, r)
    r = p if q < 0.0 else 1.0 - p
    r = math.sqrt(-math.log(r))
    if r <= 5.0:
        z = _ratpoly(_C, _D, r - 1.6)
    else:
        z = _ratpoly(_E, _F, r - 5.0)
    return -z if q < 0.0 else z
