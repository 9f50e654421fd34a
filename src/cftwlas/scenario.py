"""Scenario synthesis: anchor geometry, device-state priors, and two-way TOA
measurements.

Conventions used throughout the package:

* TOA quantities are expressed in meters (time multiplied by the signal
  propagation speed).
* The device clock offset is stored in meters and the clock drift in meters
  per second; boundary helpers accept seconds and parts-per-million.
* Randomness always flows through an explicit ``numpy.random.Generator``, so
  every operation is pure and reproducible given a seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, GeometryError

SPEED_OF_LIGHT = 299_792_458.0  # m/s
# A device closer than this (meters) to an anchor sits on it: the measurement
# model's direction vectors and the SNR noise sigmas are undefined there.
MIN_RANGE = 1e-9
# Summaries of the M link distances that ``noise_for_snr`` can take as the
# response distance.
_SIGMA_REDUCERS = {"mean": np.mean, "min": np.min, "max": np.max}


@dataclass(frozen=True)
class AnchorSet:
    """Fixed anchor nodes with known positions and a response schedule.

    Attributes:
        positions: (M, N) anchor coordinates in meters.
        schedule: (M,) response delays in seconds, measured from the request
            instant; strictly increasing and positive.
    """

    positions: np.ndarray
    schedule: np.ndarray

    def __post_init__(self) -> None:
        pos = np.atleast_2d(np.asarray(self.positions, dtype=float))
        sched = np.asarray(self.schedule, dtype=float).ravel()
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "schedule", sched)
        if pos.shape[0] < 2:
            raise ConfigurationError("need at least two anchors")
        if pos.shape[0] != sched.shape[0]:
            raise ConfigurationError("positions and schedule lengths differ")
        if not np.isfinite(pos).all() or not np.isfinite(sched).all():
            raise ConfigurationError("anchor data must be finite")
        if np.any(sched <= 0.0) or np.any(np.diff(sched) <= 0.0):
            raise ConfigurationError(
                "response schedule must be positive and strictly increasing"
            )
        diff = pos[:, None, :] - pos[None, :, :]
        dist = np.linalg.norm(diff, axis=-1)
        np.fill_diagonal(dist, np.inf)
        if dist.min() <= 0.0:
            raise ConfigurationError("anchor positions must be distinct")

    @property
    def count(self) -> int:
        return self.positions.shape[0]

    @property
    def ndim(self) -> int:
        return self.positions.shape[1]

    @property
    def center(self) -> np.ndarray:
        """Midpoint of the anchor bounding box."""
        return 0.5 * (self.positions.min(axis=0) + self.positions.max(axis=0))

    @cached_property
    def _jacobian_template(self) -> np.ndarray:
        """The (2M, 2N+2) measurement Jacobian's state-independent entries,
        which ``analysis._jacobians`` copies before writing the direction
        vectors: -1 (request rows) and 1 (response rows) in the offset
        column, the schedule in the response rows' drift column, zeros
        elsewhere."""
        m, n = self.count, self.ndim
        template = np.zeros((2 * m, 2 * n + 2))
        template[:m, 2 * n] = -1.0
        template[m:, 2 * n] = 1.0
        template[m:, 2 * n + 1] = self.schedule
        return template


@dataclass(frozen=True)
class UdState:
    """Device state at the request instant.

    Attributes:
        pos: (N,) position in meters.
        vel: (N,) velocity in meters/second.
        offset: clock offset in meters (seconds times signal speed).
        drift: clock drift in meters/second (dimensionless drift times signal
            speed).
    """

    pos: np.ndarray
    vel: np.ndarray
    offset: float
    drift: float

    def __post_init__(self) -> None:
        pos = np.asarray(self.pos, dtype=float).ravel()
        vel = np.asarray(self.vel, dtype=float).ravel()
        object.__setattr__(self, "pos", pos)
        object.__setattr__(self, "vel", vel)
        object.__setattr__(self, "offset", float(self.offset))
        object.__setattr__(self, "drift", float(self.drift))
        if pos.shape != vel.shape:
            raise ConfigurationError("position and velocity dimensions differ")
        vec = self.as_vector()
        if not np.isfinite(vec).all():
            raise ConfigurationError("device state must be finite")

    @property
    def ndim(self) -> int:
        return self.pos.shape[0]

    def as_vector(self) -> np.ndarray:
        """Stack into the parameter vector [pos, vel, offset, drift]."""
        return np.concatenate([self.pos, self.vel, [self.offset, self.drift]])

    @classmethod
    def from_vector(cls, vec: np.ndarray) -> "UdState":
        vec = np.asarray(vec, dtype=float).ravel()
        if vec.size < 4 or vec.size % 2 != 0:
            raise ConfigurationError(f"state vector length {vec.size} invalid")
        n = (vec.size - 2) // 2
        return cls(vec[:n], vec[n : 2 * n], vec[2 * n], vec[2 * n + 1])


@dataclass(frozen=True)
class MeasurementSet:
    """Paired request/response TOA measurements, one pair per anchor.

    ``request_toa[i]`` is the TOA of the device's request at anchor i;
    ``response_toa[i]`` the TOA of anchor i's response at the device. Both are
    in meters; the response schedule is the anchors' own.
    """

    request_toa: np.ndarray
    response_toa: np.ndarray

    def __post_init__(self) -> None:
        req = np.asarray(self.request_toa, dtype=float).ravel()
        rsp = np.asarray(self.response_toa, dtype=float).ravel()
        object.__setattr__(self, "request_toa", req)
        object.__setattr__(self, "response_toa", rsp)
        if req.shape != rsp.shape:
            raise ConfigurationError("measurement arrays must share one length")

    @property
    def count(self) -> int:
        return self.request_toa.shape[0]

    def stacked(self) -> np.ndarray:
        """All 2M measurements as one vector, requests first."""
        return np.concatenate([self.request_toa, self.response_toa])


@dataclass(frozen=True)
class NoiseSpec:
    """Per-anchor request-noise sigmas and the shared response-noise sigma.

    The induced weight matrix is diagonal with entries
    [1/sigma_request_i^2 ...,  1/sigma_response^2 repeated M times].
    """

    sigma_request: np.ndarray
    sigma_response: float

    def __post_init__(self) -> None:
        sig = np.asarray(self.sigma_request, dtype=float).ravel()
        object.__setattr__(self, "sigma_request", sig)
        object.__setattr__(self, "sigma_response", float(self.sigma_response))
        if np.any(sig <= 0.0) or not np.isfinite(sig).all():
            raise ConfigurationError("request sigmas must be positive and finite")
        if self.sigma_response <= 0.0 or not np.isfinite(self.sigma_response):
            raise ConfigurationError("response sigma must be positive and finite")

    @property
    def count(self) -> int:
        return self.sigma_request.shape[0]

    def weights(self) -> np.ndarray:
        """Diagonal of the 2M x 2M inverse-variance weight matrix."""
        resp = np.full(self.count, 1.0 / self.sigma_response**2)
        return np.concatenate([1.0 / self.sigma_request**2, resp])


def build_square_scenario(
    side_len: float, an_count: int, response_step: float = 0.010
) -> AnchorSet:
    """Place anchors on a square of the given side length.

    4 anchors sit at the corners, 5 adds the midpoint of the bottom side, and
    8 adds all four side midpoints. Anchor i responds ``response_step * i``
    seconds after the request (i counted from 1).
    """
    if side_len <= 0.0:
        raise ConfigurationError("side length must be positive")
    if an_count not in (4, 5, 8):
        raise ConfigurationError(f"unsupported anchor count {an_count}")
    s = float(side_len)
    corners = [(0.0, 0.0), (s, 0.0), (s, s), (0.0, s)]
    midpoints = [(s / 2, 0.0), (s, s / 2), (s / 2, s), (0.0, s / 2)]
    if an_count == 4:
        points = corners
    elif an_count == 5:
        points = corners + midpoints[:1]
    else:
        points = corners + midpoints
    schedule = response_step * np.arange(1, an_count + 1)
    return AnchorSet(np.array(points), schedule)


def sample_ud_state(
    rng: np.random.Generator,
    region_side: float,
    vmax: float = 50.0,
    offset_range_s: tuple[float, float] = (0.0, 20e-6),
    drift_range_ppm: tuple[float, float] = (-10.0, 10.0),
    center: np.ndarray | None = None,
    ndim: int = 2,
) -> UdState:
    """Draw a device state from the campaign prior.

    Position is uniform in a square (cube) of side ``region_side`` around
    ``center``; speed is uniform up to ``vmax`` with an isotropic heading;
    clock offset and drift are uniform over the given ranges (seconds and ppm,
    converted to meters and meters/second internally).
    """
    if center is None:
        center = np.zeros(ndim)
    center = np.asarray(center, dtype=float).ravel()
    half = region_side / 2.0
    (offset_lo, offset_hi), (drift_lo, drift_hi) = offset_range_s, drift_range_ppm
    if ndim == 2:
        # Position, speed, heading, offset and drift in one call: uniform
        # draws element by element, lo + (hi - lo) * u, in the order of
        # separate calls.
        lows = np.concatenate([center - half, [0.0, 0.0, offset_lo, drift_lo]])
        highs = np.concatenate(
            [center + half, [vmax, 2.0 * np.pi, offset_hi, drift_hi]]
        )
        draw = rng.uniform(lows, highs)
        pos, (speed, heading, offset, drift) = draw[:2], draw[2:]
        direction = np.array([np.cos(heading), np.sin(heading)])
    else:
        pos = rng.uniform(center - half, center + half)
        speed = rng.uniform(0.0, vmax)
        direction = rng.normal(size=ndim)
        norm = np.linalg.norm(direction)
        direction = direction / norm if norm > 0.0 else np.eye(ndim)[0]
        offset = rng.uniform(offset_lo, offset_hi)
        drift = rng.uniform(drift_lo, drift_hi)
    return UdState(
        pos, speed * direction, offset * SPEED_OF_LIGHT, drift * 1e-6 * SPEED_OF_LIGHT
    )


def forward_model(ud: UdState, anchors: AnchorSet) -> MeasurementSet:
    """Noise-free two-way TOA measurements for a device state.

    Request TOA at anchor i is the distance at the request instant minus the
    clock offset; response TOA is the distance at the reception instant plus
    the offset plus drift accumulated over the response delay. The values come
    from ``analysis.predict_measurements``, the package's one measurement
    model.
    """
    from .analysis import predict_measurements

    stacked = predict_measurements(ud, anchors)
    return MeasurementSet(stacked[: anchors.count], stacked[anchors.count :])


def noise_for_snr(
    ud: UdState,
    anchors: AnchorSet,
    snr_db: float,
    response_rule: str = "mean",
) -> NoiseSpec:
    """Distance-dependent noise levels for one device-anchor geometry.

    Each request sigma follows its own link distance at the request instant.
    The single response sigma shared by all response TOAs is derived from a
    summary of the M distances chosen by ``response_rule`` ("mean", "min" or
    "max").
    """
    distances = np.linalg.norm(anchors.positions - ud.pos, axis=1)
    if distances.min() < MIN_RANGE:
        raise GeometryError("state coincides with an anchor")
    return NoiseSpec(*_sigmas(distances, snr_db, response_rule))


def _sigmas(distances: np.ndarray, snr_db: float, rule: str):
    """The request sigmas and the response sigma of ``noise_for_snr`` from
    link distances: (..., M) distances give (..., M) request sigmas and (...)
    response sigmas. SNR is 10*log10(distance^2 / sigma^2), so each sigma is
    ``distance * 10**(-snr_db/20)`` of its own distance, or of the summary
    distance that ``rule`` picks."""
    if rule not in _SIGMA_REDUCERS:
        raise ConfigurationError(f"unknown response sigma rule {rule!r}")
    scale = 10.0 ** (-snr_db / 20.0)
    return distances * scale, _SIGMA_REDUCERS[rule](distances, axis=-1) * scale


def add_noise(
    meas: MeasurementSet, noise: NoiseSpec, rng: np.random.Generator
) -> MeasurementSet:
    """Add independent zero-mean Gaussian noise to both TOA families; the
    input set is never modified."""
    if noise.count != meas.count:
        raise ConfigurationError("noise and measurement sizes differ")
    request = meas.request_toa + rng.normal(0.0, noise.sigma_request)
    response = meas.response_toa + rng.normal(
        0.0, noise.sigma_response, size=meas.count
    )
    return MeasurementSet(request, response)
