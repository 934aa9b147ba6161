"""Vectorized linear-recurrence scans for telemetry generation.

The synthetic-telemetry generators are built from three sequential
recurrences — exponential moving averages (sensor response lag, thermal
inertia), Ornstein-Uhlenbeck mean reversion (rack load drift) and a
noise-driven damped oscillator (short-term power dynamics).  Evaluated
sample by sample in Python they dominate every cold generation path;
this module evaluates them as *batched affine scans* instead:

* :func:`first_order_affine_scan` — ``x[i] = a * x[i-1] + u[i]`` as a
  numerically-stable chunked cumulative form, vectorized over arbitrary
  leading axes (whole (node, sensor) planes in one call);
* :func:`ema_scan` — the exponential moving average expressed through
  the first-order scan;
* :func:`damped_oscillation_scan` — the 2x2 state recurrence of the
  damped oscillator, diagonalized into two complex first-order scans
  (the 2x2 matrix scan in eigencoordinates).

Numerical contract: results match the sequential recurrences to far
better than ``rtol=1e-10`` (the equivalence tolerance enforced against
``repro.datasets._seed_reference``); they are *not* bit-identical, which
is why :data:`repro.datasets.generators.DATAGEN_VERSION` participates in
artifact-cache keys.

Stability of the chunked form: within one block the scan computes
``a**j * cumsum(u * a**-m)``.  The inverse powers grow as ``|a|**-m``,
so the block length is capped where ``|a|**-(B-1)`` would approach the
float64 range limit; contributions older than one block re-enter through
the carried boundary value, and terms whose true weight has decayed
below the representable range underflow harmlessly to zero.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "first_order_affine_scan",
    "ema_scan",
    "damped_oscillation_scan",
]

#: Decimal-digit budget for the within-block dynamic range ``|a|**-(B-1)``
#: (float64 overflows near 1e308; 250 leaves ~58 digits of headroom for
#: the driving terms themselves).
_RANGE_DIGITS = 250.0


def _block_length(a: complex, t: int) -> int:
    """Largest safe chunk for the scaled-cumsum form of the scan."""
    mag = abs(a)
    if mag >= 1.0:
        # No growth in the inverse powers: one block covers the series.
        return t
    # Strong decay shrinks the safe block; the scan stays correct at any
    # block length (block 1 degenerates to the sequential recurrence).
    return min(t, max(1, int(_RANGE_DIGITS / -np.log10(mag))))


def first_order_affine_scan(a, u, x0):
    """Evaluate ``x[i] = a * x[i-1] + u[i]`` (``i >= 1``) with ``x[0] = x0``.

    Parameters
    ----------
    a:
        Constant recurrence coefficient (real or complex scalar).
        Stable systems (``|a| <= 1``) are the intended use; ``|a| > 1``
        works but inherits the recurrence's own growth.
    u:
        Driving terms, shape ``(..., t)``; the recurrence runs along the
        last axis and is vectorized over all leading axes.  ``u[..., 0]``
        is never read (position 0 is pinned to ``x0``).
    x0:
        Initial value(s), broadcastable to ``u[..., 0]``.

    Returns an array of ``u``'s shape (complex when ``a`` or ``u`` is).
    """
    u = np.asarray(u)
    if u.ndim == 0:
        raise ValueError("u must have at least one (time) axis")
    dtype = np.result_type(u.dtype, np.asarray(a).dtype, np.float64)
    out = np.empty(u.shape, dtype=dtype)
    t = u.shape[-1]
    if t == 0:
        return out
    out[..., 0] = x0
    if t == 1:
        return out
    if a == 0:
        out[..., 1:] = u[..., 1:]
        return out
    block = _block_length(a, t)
    j = np.arange(block)
    powers = np.power(np.asarray(a, dtype=dtype), j)       # a^0 .. a^(B-1)
    inv_powers = np.power(np.asarray(a, dtype=dtype), -j)  # a^0 .. a^-(B-1)
    start = 1
    while start < t:
        stop = min(start + block, t)
        n = stop - start
        # x[start+j] = a^(j+1) * x[start-1] + a^j * cumsum(u * a^-m)[j]
        scaled = np.cumsum(u[..., start:stop] * inv_powers[:n], axis=-1)
        out[..., start:stop] = powers[:n] * scaled + (
            (a * powers[:n]) * out[..., start - 1][..., None]
        )
        start = stop
    return out


def ema_scan(x: np.ndarray, samples: int) -> np.ndarray:
    """Exponential moving average with time constant ``samples``.

    Matches the sequential form ``acc += (x[i] - acc) / samples`` seeded
    with ``acc = x[..., 0]``; runs along the last axis, vectorized over
    leading axes.  ``samples <= 1`` returns a copy (no smoothing).
    """
    x = np.asarray(x, dtype=np.float64)
    if samples <= 1:
        return x.copy()
    alpha = 1.0 / samples
    return first_order_affine_scan(1.0 - alpha, alpha * x, x[..., 0])


def _sequential_oscillation(
    kicks: np.ndarray, stiffness: float, damping: float
) -> np.ndarray:
    """Reference loop, kept as the fallback for defective dynamics."""
    t = kicks.shape[0]
    x = np.zeros(t)
    v = 0.0
    for i in range(1, t):
        v = (1.0 - damping) * v - stiffness * x[i - 1] + kicks[i]
        x[i] = x[i - 1] + v
    return x


def damped_oscillation_scan(
    kicks: np.ndarray, *, stiffness: float, damping: float
) -> np.ndarray:
    """Noise-driven damped oscillator position series.

    Evaluates the 2x2 state recurrence ``s[i] = A @ s[i-1] + kicks[i] * e``
    (state ``s = (x, v)``, ``e = (1, 1)``, ``s[0] = 0``) by diagonalizing
    ``A`` and running one complex first-order scan per eigenvalue; the
    position series is the real part of the recombined eigencoordinates.
    Falls back to the sequential loop when ``A`` is (near-)defective and
    the eigenbasis is too ill-conditioned to trust.
    """
    kicks = np.asarray(kicks, dtype=np.float64)
    t = kicks.shape[0]
    if t <= 1:
        return np.zeros(t)
    A = np.array(
        [
            [1.0 - stiffness, 1.0 - damping],
            [-stiffness, 1.0 - damping],
        ]
    )
    try:
        eigenvalues, P = np.linalg.eig(A)
        # The scan's error grows with cond(P): under 4% of a 1e-9
        # relative tolerance below 1e4 on 800-sample series, 185% at
        # 5.8e5.  The generators' dynamics sit near cond 6.
        if np.linalg.cond(P) > 1e4:
            raise np.linalg.LinAlgError("defective oscillator dynamics")
        weights = np.linalg.solve(P, np.ones(2, dtype=P.dtype))
    except np.linalg.LinAlgError:
        return _sequential_oscillation(kicks, stiffness, damping)
    x = np.zeros(t)
    driven = kicks.astype(complex)
    for m in range(2):
        z = first_order_affine_scan(
            complex(eigenvalues[m]), driven * complex(weights[m]), 0.0j
        )
        x += (complex(P[0, m]) * z).real
    return x
