"""Complex 2x2 Jones calculus with Faraday-mirror round trips.

States are complex numpy arrays of shape (2,) holding the amplitudes on the
two lab axes; operators are complex arrays of shape (2, 2), or stacks of
them of shape (..., 2, 2). The round trips compose them with ``mul`` and the
overlap builds its two states with ``mul``'s entry kernel; both build each
entry of a product over a whole stack at once (R. C. Jones, JOSA 31, 488,
1941), so a stack rounds exactly as its matrices do one at a time.

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
import functools
import math

import numpy as np

UNITARITY_TOL = 1e-10
PRODUCT_UNITARITY_TOL = 1e-9

HORIZONTAL = np.array([1.0, 0.0], dtype=complex)
HORIZONTAL.flags.writeable = False


def is_unitary(u: np.ndarray, tol: float = UNITARITY_TOL) -> bool:
    """Whether ``u`` is 2x2 and U·Uᴴ is within ``tol`` of I, entry by entry, for
    ``u`` or each matrix of a stack; an empty stack is unitary."""
    u = np.asarray(u)
    if u.shape[-2:] != (2, 2):
        return False
    # Squared moduli by parts: np.abs goes through hypot, and a complex product
    # with an infinite entry would warn.
    re, im = u.real, u.imag
    square = re * re
    square += im * im
    # NaN fails this test, and rows that pass keep the cross term's entries finite.
    if not np.abs(square[..., 0] + square[..., 1] - 1.0).max(initial=0.0) <= tol:
        return False
    uc = u.conj()
    cross = u[..., 0, 0] * uc[..., 1, 0]
    cross += u[..., 0, 1] * uc[..., 1, 1]
    return bool(np.abs(cross).max(initial=0.0) <= tol)


def mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The product ``a @ b`` of 2x2 Jones matrices, or of stacks of them.

    ``b`` may also be a stack of 2x1 columns. Each entry is
    ``a[..., i, 0] * b[..., 0, k] + a[..., i, 1] * b[..., 1, k]``, one ufunc
    call per term over the whole stack; a stacked ``@`` instead hands each
    2x2 of the stack to BLAS on its own.
    """
    a, b = np.asarray(a), np.asarray(b)
    out = np.empty(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (2, b.shape[-1]),
                   np.result_type(a, b))
    for i in (0, 1):
        for k in range(b.shape[-1]):
            _mul_entry(a, b, i, k, out[..., i, k])
    return out


def _mul_entry(a: np.ndarray, b: np.ndarray, i: int, k: int, out: np.ndarray) -> None:
    """Entry (i, k) of ``mul(a, b)`` over the whole stack, written into ``out``:
    an array, so for one link a 0-d slot such as ``out[i, k, ...]``."""
    np.add(a[..., i, 0] * b[..., 0, k], a[..., i, 1] * b[..., 1, k], out=out)


def apply(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The state ``m @ v``: Jones matrix ``m`` applied to state ``v``, or stacks of either."""
    return mul(m, v[..., None])[..., 0]


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


@functools.cache
def faraday_mirror() -> np.ndarray:
    """45-degree Faraday rotator, mirror, and the same rotator on the way back.

    The ideal mirror is the identity in this convention. Both passes rotate
    in the same sense, so the composite is R(90), the antisymmetric matrix
    [[0, -1], [1, 0]]. Read-only, like ``HORIZONTAL``.
    """
    # Built once, as it takes about 8 us, and on first use: a matmul at import
    # would set up OpenBLAS in every process that imports the package.
    fm = rotator(math.pi / 4.0) @ rotator(math.pi / 4.0)
    fm.flags.writeable = False
    return fm


def _require_unitary(u: np.ndarray) -> None:
    if not is_unitary(u, PRODUCT_UNITARITY_TOL):
        raise ValueError("expected a unitary 2x2 Jones matrix or a stack of them")


def round_trip(u: np.ndarray) -> np.ndarray:
    """Round trip through fiber ``u``, a Faraday mirror, and the fiber again.

    The backward pass is the transpose of ``u``. The result equals
    det(u) * faraday_mirror() for every unitary ``u``, which is the
    birefringence-compensation property the composite is built for.
    """
    _require_unitary(u)
    return mul(mul(np.swapaxes(u, -1, -2), faraday_mirror()), u)


def ordinary_mirror_round_trip(u: np.ndarray) -> np.ndarray:
    """Round trip as above but with a plain mirror; depends on ``u``."""
    _require_unitary(u)
    return mul(np.swapaxes(u, -1, -2), u)


def haar_random_unitaries(rng: np.random.Generator, n: int) -> np.ndarray:
    """Stack of ``n`` Haar-uniform 2x2 unitaries, shape (n, 2, 2).

    Each is the Q of a complex Gaussian z = QR whose R has a real positive
    diagonal (F. Mezzadri, Notices AMS 54, 592, 2007), in closed form: for z's
    columns z0 and z1, Q's first column is u0 = z0 / |z0| and its second is
    (-conj(u0[1]), conj(u0[0])) times the phase of t = u0[0] z1[1] - u0[1] z1[0].
    """
    # Built in place over z. numpy divides a complex array by a real scalar as a
    # product with its inverse, so the parts are the normals times 1/sqrt(2).
    z = np.empty((n, 2, 2), complex)
    np.multiply(rng.standard_normal((n, 2, 2)), 1.0 / math.sqrt(2.0), out=z.real)
    np.multiply(rng.standard_normal((n, 2, 2)), 1.0 / math.sqrt(2.0), out=z.imag)
    # |z0| as np.linalg.norm computes it.
    z0 = z[..., 0]
    square = (z0.conj() * z0).real
    z0 /= np.sqrt(square[:, 0] + square[:, 1])[:, None]
    u00, u10 = z[:, 0, 0], z[:, 1, 0]
    t = u00 * z[:, 1, 1] - u10 * z[:, 0, 1]
    t /= np.abs(t)
    np.multiply(-u10.conj(), t, out=z[:, 0, 1])
    np.multiply(u00.conj(), t, out=z[:, 1, 1])
    return z


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
