"""Deterministic channel synthesis: free-space legs, walls, array steering.

Two regimes, chosen to match how each link is used:

* Base station arrays are far-field: one exact distance from the array
  reference position sets amplitude, carrier phase and delay, and a
  plane-wave steering phasor exp(-j 2 pi offset sin(theta) / lambda)
  distinguishes the antennas.
* The switchable surface is near-field: every element gets its own exact
  two-leg distance, so the wavefront curvature across the aperture is kept.

A ray's amplitude is lambda / (4 pi d) times the wall penetration factor;
walls attenuate, never block. :func:`ray_amplitudes` is the only place in
the package where a ray's amplitude, length and wall factor are computed:
the channels here, the localization observation model and the secrecy
fading links all take theirs from it. Subcarrier n multiplies a path by
exp(-j 2 pi n spacing delay), n = 0 .. N-1. Speed of light is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import CoincidentNodeError, RunError

if TYPE_CHECKING:  # scene imports the speed of light from here
    from .scene import BaseStation, Scene

C_LIGHT_M_S = 299_792_458.0


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def element_positions(
    center, count: int, spacing_m: float, orientation_rad: float = 0.0
) -> np.ndarray:
    """Centred uniform line of elements in the xy-plane, (count, 3)."""
    center = np.asarray(center, dtype=float)
    axis = np.array([math.cos(orientation_rad), math.sin(orientation_rad), 0.0])
    offsets = (np.arange(count) - (count - 1) / 2.0) * spacing_m
    return center[None, :] + offsets[:, None] * axis[None, :]


def surface_element_positions(scene: Scene) -> np.ndarray:
    if scene.ris is None:
        raise RunError("scene has no surface")
    return element_positions(
        scene.ris.position_m,
        scene.ris.element_count,
        scene.ris_spacing_m(),
        scene.ris.orientation_rad,
    )


def _ccw(ax, ay, bx, by, cx, cy):
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _on_segment(ax, ay, bx, by, px, py):
    # assumes p collinear with a-b
    return (
        (np.minimum(ax, bx) <= px)
        & (px <= np.maximum(ax, bx))
        & (np.minimum(ay, by) <= py)
        & (py <= np.maximum(ay, by))
    )


def _segments_cross(ax, ay, bx, by, cx, cy, dx, dy):
    d1 = _ccw(cx, cy, dx, dy, ax, ay)
    d2 = _ccw(cx, cy, dx, dy, bx, by)
    d3 = _ccw(ax, ay, bx, by, cx, cy)
    d4 = _ccw(ax, ay, bx, by, dx, dy)
    proper = (((d1 > 0) & (d2 < 0)) | ((d1 < 0) & (d2 > 0))) & (
        ((d3 > 0) & (d4 < 0)) | ((d3 < 0) & (d4 > 0))
    )
    return (
        proper
        | ((d1 == 0) & _on_segment(cx, cy, dx, dy, ax, ay))
        | ((d2 == 0) & _on_segment(cx, cy, dx, dy, bx, by))
        | ((d3 == 0) & _on_segment(ax, ay, bx, by, cx, cy))
        | ((d4 == 0) & _on_segment(ax, ay, bx, by, dx, dy))
    )


def wall_factors(p1, p2, walls) -> np.ndarray:
    """Linear amplitude factors <= 1 for the rays p1 -> p2 in the xy-plane.

    ``p1`` and ``p2`` are (..., >=2) coordinate arrays that broadcast
    against each other; the result has their broadcast leading shape. The
    crossing test runs over (rays x walls) at once. Each wall segment a ray
    crosses, touches at an endpoint, or overlaps collinearly contributes
    its penetration loss exactly once, multiplied in wall order.
    """
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    ax, ay, bx, by = np.broadcast_arrays(p1[..., 0], p1[..., 1], p2[..., 0], p2[..., 1])
    factor = np.ones(ax.shape)
    if not walls:
        return factor
    ends = np.array([(*w.p1_m[:2], *w.p2_m[:2]) for w in walls], dtype=float)
    hits = _segments_cross(
        ax[..., None], ay[..., None], bx[..., None], by[..., None],
        ends[:, 0], ends[:, 1], ends[:, 2], ends[:, 3],
    )
    for w, wall in enumerate(walls):
        factor = np.where(
            hits[..., w], factor * 10.0 ** (-wall.penetration_loss_db / 20.0), factor
        )
    return factor


def _norm(v: np.ndarray) -> np.ndarray:
    # row-wise, so a point's distance does not depend on its batch
    return np.sqrt(np.sum(v * v, axis=-1))


def ray_amplitudes(scene: Scene, a, b) -> tuple[np.ndarray, np.ndarray]:
    """Amplitudes and lengths of the rays a -> b: (amp, dist).

    ``a`` and ``b`` are (..., 3) endpoint arrays that broadcast against
    each other; both results have their broadcast leading shape. A ray's
    amplitude is lambda / (4 pi d) times its wall factor. A zero-length
    ray comes back with distance 0 and an infinite amplitude; callers
    mask it or raise :class:`CoincidentNodeError`.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    dist = _norm(b - a)
    with np.errstate(divide="ignore", invalid="ignore"):
        amp = scene.wavelength_m / (4.0 * math.pi * dist)
        if scene.walls:
            amp = amp * wall_factors(a, b, scene.walls)
    return amp, dist


@dataclass(frozen=True)
class DirectChannel:
    """Far-field view of one base station array from one point, or from many.

    All antennas share one delay; gains fold amplitude, wall factor,
    carrier phase and the plane-wave steering phasor. A batch over points
    (from :func:`direct_channels`) carries a leading point axis on every
    field.
    """

    gains: np.ndarray  # (A,) or (n, A) complex
    delay_s: float | np.ndarray  # scalar or (n,)
    distance_m: float | np.ndarray  # scalar or (n,)

    @property
    def antenna_count(self) -> int:
        return self.gains.shape[-1]


@dataclass(frozen=True)
class RisChannel:
    """Per-element two-leg rays, kept separate so phasing applies later.

    ``bs_to_elements[m]`` and ``elements_to_point[m]`` are the two Friis
    legs with exact per-element distances (near-field: no plane-wave
    shortcut across the aperture). ``bs_steering`` extends the cascade to
    a multi-antenna base station: the full per-antenna cascade is
    ``cascade(ch, phases) * bs_steering``. A batch over points carries a
    leading point axis on the point-side fields; the base-station leg is
    shared by every point.
    """

    bs_to_elements: np.ndarray  # (M,) complex
    elements_to_point: np.ndarray  # (M,) or (n, M) complex
    element_delays_s: np.ndarray  # (M,) or (n, M) two-leg delays
    element_positions_m: np.ndarray  # (M, 3)
    element_to_point_m: np.ndarray  # (M,) or (n, M) second-leg distances
    bs_steering: np.ndarray  # (A,) unit-magnitude phasors toward the surface
    efficiency: float

    @property
    def element_count(self) -> int:
        return self.bs_to_elements.shape[0]

    @property
    def hop_products(self) -> np.ndarray:
        """(M,) or (n, M) per-element cascade gains before phasing."""
        return self.efficiency * self.bs_to_elements * self.elements_to_point


def _steering(scene: Scene, bs: BaseStation, targets) -> np.ndarray:
    """Plane-wave phasors of the array toward far targets, (..., A).

    A target on the array centre has no direction; its row comes back NaN.
    """
    center = np.asarray(bs.position_m, dtype=float)
    direction = np.asarray(targets, dtype=float) - center
    axis = np.array(
        [math.cos(bs.orientation_rad), math.sin(bs.orientation_rad), 0.0]
    )
    with np.errstate(invalid="ignore"):
        sin_theta = np.sum(direction * axis, axis=-1) / _norm(direction)
    offsets = (
        np.arange(bs.antenna_count) - (bs.antenna_count - 1) / 2.0
    ) * scene.bs_spacing_m(bs)
    return np.exp(
        -2j * math.pi * offsets * sin_theta[..., None] / scene.wavelength_m
    )


def direct_channels(scene: Scene, bs_index: int, points) -> DirectChannel:
    """Direct channels of one base station at (n, 3) points, all at once.

    Returns gains (n, A) and delays and distances (n,). A point on the
    station comes back with distance 0 and NaN gains instead of raising;
    callers mask it.
    """
    bs = scene.bs[bs_index]
    amp, dist = ray_amplitudes(scene, bs.position_m, points)
    with np.errstate(invalid="ignore"):
        carrier = amp * np.exp(-2j * math.pi * dist / scene.wavelength_m)
        gains = carrier[:, None] * _steering(scene, bs, points)
    return DirectChannel(gains=gains, delay_s=dist / C_LIGHT_M_S, distance_m=dist)


def direct_channel(scene: Scene, bs_index: int, point) -> DirectChannel:
    """One-point view of :func:`direct_channels`."""
    batch = direct_channels(scene, bs_index, np.asarray(point, dtype=float)[None, :])
    if batch.distance_m[0] == 0.0:
        raise CoincidentNodeError(
            f"point coincides with the base station at {scene.bs[bs_index].position_m}"
        )
    return DirectChannel(
        gains=batch.gains[0],
        delay_s=float(batch.delay_s[0]),
        distance_m=float(batch.distance_m[0]),
    )


def _legs(scene: Scene, elems: np.ndarray, endpoints: np.ndarray):
    amps, dists = ray_amplitudes(scene, elems[None, :, :], endpoints[:, None, :])
    with np.errstate(invalid="ignore"):
        gains = amps * np.exp(-2j * math.pi * dists / scene.wavelength_m)
    return gains, dists


def surface_legs(scene: Scene, endpoints) -> tuple[np.ndarray, np.ndarray]:
    """Element-to-endpoint legs for (n, 3) endpoints: (n, M) gains and distances.

    Exact per-element distances (near field). An endpoint on an element
    gets distance 0 there and a non-finite gain; callers mask it.
    """
    elems = surface_element_positions(scene)
    return _legs(scene, elems, np.asarray(endpoints, dtype=float))


@dataclass(frozen=True)
class BsLeg:
    """Base station to surface leg: the half of every cascade that no point changes."""

    gains: np.ndarray  # (M,) complex
    distances_m: np.ndarray  # (M,)
    steering: np.ndarray  # (A,) phasors of the station toward the surface centre
    element_positions_m: np.ndarray  # (M, 3)


def bs_leg(scene: Scene, bs_index: int) -> BsLeg:
    """The station's surface leg, computed once and shared by every point of a map."""
    elems = surface_element_positions(scene)
    bs = scene.bs[bs_index]
    gains, dists = _legs(scene, elems, np.asarray(bs.position_m, dtype=float)[None, :])
    _require_apart(dists[0], bs.position_m)
    steering = _steering(scene, bs, scene.ris.position_m)
    if np.isnan(steering[0]):
        raise CoincidentNodeError(
            f"the surface centre coincides with the base station at {bs.position_m}"
        )
    return BsLeg(gains=gains[0], distances_m=dists[0], steering=steering, element_positions_m=elems)


def _require_apart(dists: np.ndarray, endpoint) -> None:
    if np.any(dists == 0.0):
        m = int(np.argmin(dists))
        raise CoincidentNodeError(
            f"point {list(endpoint)} coincides with surface element {m}"
        )


def ris_channels(
    scene: Scene, leg: BsLeg, point_gains: np.ndarray, point_dists: np.ndarray
) -> RisChannel:
    """Cascade channels from a station's leg and point legs from :func:`surface_legs`."""
    return RisChannel(
        bs_to_elements=leg.gains,
        elements_to_point=point_gains,
        element_delays_s=(leg.distances_m + point_dists) / C_LIGHT_M_S,
        element_positions_m=leg.element_positions_m,
        element_to_point_m=point_dists,
        bs_steering=leg.steering,
        efficiency=scene.ris.element_efficiency,
    )


def ris_channel(scene: Scene, bs_index: int, point) -> RisChannel:
    """One-point cascade channel; raises when the point sits on an element."""
    leg = bs_leg(scene, bs_index)
    point = np.asarray(point, dtype=float)
    gains, dists = _legs(scene, leg.element_positions_m, point[None, :])
    _require_apart(dists[0], point.tolist())
    return ris_channels(scene, leg, gains[0], dists[0])


def cascade(ris_ch: RisChannel, phases) -> complex:
    """Scalar cascade sum_m hop_m exp(j phi_m); linear in every hop."""
    phases = np.asarray(phases, dtype=float)
    if phases.shape != (ris_ch.element_count,):
        raise ValueError(
            f"expected {ris_ch.element_count} phases, got shape {phases.shape}"
        )
    return complex(np.sum(ris_ch.hop_products * np.exp(1j * phases)))
