"""Complex 2x2 Jones calculus with Faraday-mirror round trips.

States are complex numpy arrays of shape (2,) holding the amplitudes on the
two lab axes; operators are complex arrays of shape (2, 2), composed and
applied with ``@``.

Convention, fixed once for the whole package: states live in a right-handed
lab frame; a backward-propagating state is written in the mirrored frame in
which a reciprocal element with forward matrix U propagates backward as its
plain transpose, a Faraday rotator keeps the same rotation sign in both
directions, and an ideal mirror is the identity (the global reflection phase
is dropped). Under this convention the 45-degree rotator passed twice adds up
to a 90-degree rotation, so the Faraday-mirror composite is the antisymmetric
rotation R(90). Two consequences used throughout:

* ``U.T @ faraday_mirror() @ U == det(U) * faraday_mirror()`` for every
  unitary U, which is why the composite cancels arbitrary fiber
  birefringence up to a global phase.
* the interference overlap between a forward state v and a returned state w
  is the bilinear pairing ``w0*v0 + w1*v1`` (no conjugation); re-expressing
  the mirrored-frame state in the forward frame conjugates it, turning this
  into the usual Hermitian product. Two states that both propagate backward
  compare with the ordinary Hermitian product.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

UNITARITY_TOL = 1e-10
PRODUCT_UNITARITY_TOL = 1e-9

HORIZONTAL = np.array([1.0, 0.0], dtype=complex)
HORIZONTAL.flags.writeable = False


def is_unitary(u: np.ndarray, tol: float = UNITARITY_TOL) -> bool:
    return bool(np.abs(u @ u.conj().T - np.eye(2)).max() <= tol)


def rotator(angle_rad: float) -> np.ndarray:
    c, s = math.cos(angle_rad), math.sin(angle_rad)
    return np.array([[c, -s], [s, c]], dtype=complex)


def wave_plate(retardance_rad: float, axis_angle_rad: float = 0.0) -> np.ndarray:
    """Linear retarder with the given retardance about a rotated fast axis.

    Uses the symmetric e^{+-i*ret/2} phases so the determinant is exactly 1.
    """
    half = retardance_rad / 2.0
    fast = cmath.exp(-1j * half)
    slow = cmath.exp(1j * half)
    core = np.array([[fast, 0.0], [0.0, slow]], dtype=complex)
    r = rotator(axis_angle_rad)
    return r @ core @ rotator(-axis_angle_rad)


def quarter_wave_plate(axis_angle_rad: float = 0.0) -> np.ndarray:
    return wave_plate(math.pi / 2.0, axis_angle_rad)


def half_wave_plate(axis_angle_rad: float = 0.0) -> np.ndarray:
    return wave_plate(math.pi, axis_angle_rad)


def faraday_mirror() -> np.ndarray:
    """45-degree Faraday rotator, mirror, and the same rotator on the way back.

    The ideal mirror is the identity in this convention. Both passes rotate
    in the same sense, so the composite is R(90), the antisymmetric matrix
    [[0, -1], [1, 0]].
    """
    return rotator(math.pi / 4.0) @ rotator(math.pi / 4.0)


def _require_unitary(u: np.ndarray) -> None:
    if not is_unitary(u, PRODUCT_UNITARITY_TOL):
        raise ValueError("expected a unitary Jones matrix")


def round_trip(u: np.ndarray) -> np.ndarray:
    """Round trip through fiber ``u``, a Faraday mirror, and the fiber again.

    The backward pass is the transpose of ``u``. The result equals
    det(u) * faraday_mirror() for every unitary ``u``, which is the
    birefringence-compensation property the composite is built for.
    """
    _require_unitary(u)
    # The strided view u.T would take another matmul kernel, whose rounding
    # differs in the last bit; a contiguous copy keeps results reproducible.
    return np.ascontiguousarray(u.T) @ faraday_mirror() @ u


def ordinary_mirror_round_trip(u: np.ndarray) -> np.ndarray:
    """Round trip as above but with a plain mirror; depends on ``u``."""
    _require_unitary(u)
    return np.ascontiguousarray(u.T) @ u


def haar_random_unitaries(rng: np.random.Generator, n: int) -> np.ndarray:
    """Stack of ``n`` Haar-uniform 2x2 unitaries, shape (n, 2, 2)."""
    z = (rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[:, None, :]


def interference_overlap(incoming: np.ndarray, returned: np.ndarray) -> complex:
    """Overlap between a forward state and a returned (backward) state.

    Bilinear in both arguments; the mirrored-frame convention puts the
    conjugation into the frame change, not into the pairing.
    """
    return complex(returned @ incoming)


def phase_aligned_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius distance between ``a`` and the best global-phase multiple of ``b``.

    The phase is read off the entry ratio at the largest-magnitude entry of
    ``b``, which avoids dividing by near-zero entries.
    """
    k = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    if b[k] == 0:
        return float(np.linalg.norm(a - b))
    ratio = a[k] / b[k]
    if ratio == 0:
        return float(np.linalg.norm(a - b))
    phase = ratio / abs(ratio)
    return float(np.linalg.norm(a - phase * b))
