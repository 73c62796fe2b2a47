"""Complex 2x2 Jones calculus with Faraday-mirror round trips.

Convention, fixed once for the whole package: states live in a right-handed
lab frame; a backward-propagating state is written in the mirrored frame in
which a reciprocal element with forward matrix U propagates backward as its
plain transpose, a Faraday rotator keeps the same rotation sign in both
directions, and an ideal mirror is the identity (the global reflection phase
is dropped). Under this convention the 45-degree rotator passed twice adds up
to a 90-degree rotation, so the Faraday-mirror composite is the antisymmetric
rotation R(90). Two consequences used throughout:

* ``backward(U) @ faraday_mirror() @ U == det(U) * faraday_mirror()`` for
  every unitary U, which is why the composite cancels arbitrary fiber
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
from dataclasses import dataclass

import numpy as np

UNITARITY_TOL = 1e-10
PRODUCT_UNITARITY_TOL = 1e-9
NORMALIZATION_TOL = 1e-12


def _require_finite(name: str, *values: complex) -> None:
    for z in values:
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise ValueError(f"{name} has non-finite entry {z!r}")


@dataclass(frozen=True)
class JonesVector:
    """Polarization state with complex amplitudes on the two lab axes."""

    c0: complex
    c1: complex

    def __post_init__(self):
        _require_finite("JonesVector", complex(self.c0), complex(self.c1))

    @property
    def norm_sq(self) -> float:
        return abs(self.c0) ** 2 + abs(self.c1) ** 2

    def is_normalized(self, tol: float = NORMALIZATION_TOL) -> bool:
        return abs(self.norm_sq - 1.0) <= tol

    def normalized(self) -> "JonesVector":
        n = math.sqrt(self.norm_sq)
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return JonesVector(self.c0 / n, self.c1 / n)

    def as_array(self) -> np.ndarray:
        return np.array([self.c0, self.c1], dtype=complex)

    @classmethod
    def from_array(cls, a) -> "JonesVector":
        a = np.asarray(a, dtype=complex)
        return cls(complex(a[0]), complex(a[1]))


HORIZONTAL = JonesVector(1.0, 0.0)


@dataclass(frozen=True)
class JonesMatrix:
    """Complex 2x2 operator acting on Jones vectors."""

    m00: complex
    m01: complex
    m10: complex
    m11: complex

    def __post_init__(self):
        _require_finite(
            "JonesMatrix",
            complex(self.m00),
            complex(self.m01),
            complex(self.m10),
            complex(self.m11),
        )

    def as_array(self) -> np.ndarray:
        return np.array([[self.m00, self.m01], [self.m10, self.m11]], dtype=complex)

    @classmethod
    def from_array(cls, a) -> "JonesMatrix":
        a = np.asarray(a, dtype=complex)
        return cls(complex(a[0, 0]), complex(a[0, 1]), complex(a[1, 0]), complex(a[1, 1]))

    def __matmul__(self, other: "JonesMatrix") -> "JonesMatrix":
        return JonesMatrix.from_array(self.as_array() @ other.as_array())

    def transpose(self) -> "JonesMatrix":
        return JonesMatrix.from_array(self.as_array().T)

    def det(self) -> complex:
        return self.m00 * self.m11 - self.m01 * self.m10

    def is_unitary(self, tol: float = UNITARITY_TOL) -> bool:
        a = self.as_array()
        return bool(np.abs(a @ a.conj().T - np.eye(2)).max() <= tol)


def identity() -> JonesMatrix:
    return JonesMatrix(1.0, 0.0, 0.0, 1.0)


def mirror() -> JonesMatrix:
    """Ideal mirror in the mirrored-frame convention: the identity."""
    return identity()


def rotator(angle_rad: float) -> JonesMatrix:
    c, s = math.cos(angle_rad), math.sin(angle_rad)
    return JonesMatrix(c, -s, s, c)


def wave_plate(retardance_rad: float, axis_angle_rad: float = 0.0) -> JonesMatrix:
    """Linear retarder with the given retardance about a rotated fast axis.

    Uses the symmetric e^{+-i*ret/2} phases so the determinant is exactly 1.
    """
    half = retardance_rad / 2.0
    fast = cmath.exp(-1j * half)
    slow = cmath.exp(1j * half)
    core = JonesMatrix(fast, 0.0, 0.0, slow)
    r = rotator(axis_angle_rad)
    return r @ core @ rotator(-axis_angle_rad)


def quarter_wave_plate(axis_angle_rad: float = 0.0) -> JonesMatrix:
    return wave_plate(math.pi / 2.0, axis_angle_rad)


def half_wave_plate(axis_angle_rad: float = 0.0) -> JonesMatrix:
    return wave_plate(math.pi, axis_angle_rad)


def apply(m: JonesMatrix, v: JonesVector) -> JonesVector:
    """Matrix-vector product; preserves norm when ``m`` is unitary."""
    return JonesVector(
        m.m00 * v.c0 + m.m01 * v.c1,
        m.m10 * v.c0 + m.m11 * v.c1,
    )


def faraday_mirror() -> JonesMatrix:
    """45-degree Faraday rotator, mirror, and the same rotator on the way back.

    Both passes rotate in the same sense, so the composite is R(90), the
    antisymmetric matrix [[0, -1], [1, 0]].
    """
    return rotator(math.pi / 4.0) @ mirror() @ rotator(math.pi / 4.0)


def backward(u: JonesMatrix) -> JonesMatrix:
    """Backward-propagation matrix of a reciprocal element (the transpose)."""
    return u.transpose()


def _require_unitary(u: JonesMatrix) -> None:
    if not u.is_unitary(PRODUCT_UNITARITY_TOL):
        raise ValueError("expected a unitary Jones matrix")


def round_trip(u: JonesMatrix) -> JonesMatrix:
    """Round trip through fiber ``u``, a Faraday mirror, and the fiber again.

    Equal to det(u) * faraday_mirror() for every unitary ``u``, which is the
    birefringence-compensation property the composite is built for.
    """
    _require_unitary(u)
    return backward(u) @ faraday_mirror() @ u


def ordinary_mirror_round_trip(u: JonesMatrix) -> JonesMatrix:
    """Round trip as above but with a plain mirror; depends on ``u``."""
    _require_unitary(u)
    return backward(u) @ mirror() @ u


def haar_random_unitaries(rng: np.random.Generator, n: int) -> np.ndarray:
    """Stack of ``n`` Haar-uniform 2x2 unitaries, shape (n, 2, 2)."""
    z = (rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[:, None, :]


def haar_random_unitary(rng: np.random.Generator) -> JonesMatrix:
    """One Haar-uniform 2x2 unitary; deterministic for a seeded ``rng``."""
    return JonesMatrix.from_array(haar_random_unitaries(rng, 1)[0])


def interference_overlap(incoming: JonesVector, returned: JonesVector) -> complex:
    """Overlap between a forward state and a returned (backward) state.

    Bilinear in both arguments; the mirrored-frame convention puts the
    conjugation into the frame change, not into the pairing.
    """
    return returned.c0 * incoming.c0 + returned.c1 * incoming.c1


def phase_aligned_distance(a: JonesMatrix, b: JonesMatrix) -> float:
    """Frobenius distance between ``a`` and the best global-phase multiple of ``b``.

    The phase is read off the entry ratio at the largest-magnitude entry of
    ``b``, which avoids dividing by near-zero entries.
    """
    aa, bb = a.as_array(), b.as_array()
    k = np.unravel_index(np.argmax(np.abs(bb)), bb.shape)
    if bb[k] == 0:
        return float(np.linalg.norm(aa - bb))
    ratio = aa[k] / bb[k]
    if ratio == 0:
        return float(np.linalg.norm(aa - bb))
    phase = ratio / abs(ratio)
    return float(np.linalg.norm(aa - phase * bb))


def is_proportional(a: JonesMatrix, b: JonesMatrix, tol: float = 1e-10) -> bool:
    return phase_aligned_distance(a, b) <= tol
