"""Scene files: geometry, radio settings and planning thresholds.

A scene is a JSON document (``spec_version: 1``) describing base stations,
an evaluation grid, the surface, optionally walls and an eavesdropper, plus
the numeric knobs the metric engines need. Each key is declared once, on
its dataclass field: ``_key`` gives the field its key reader, and
``_object`` reads a block in field order. Absent keys take the dataclass
defaults, and unknown keys are rejected with their key path.

Positions may be given as [x, y] or [x, y, z] metres; 2D inputs are stored
with z = 0 so every distance is a plain 3D norm. Grid cells sit at
fixed_height_m and are enumerated row-major: index = iy * nx + ix.

Reading and validating a scene loads no numpy: only ``Grid.points``, which
computes on arrays, imports it.
The ``coexist`` options, :class:`CoexistConfig`, are checked here for the
same reason.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import TYPE_CHECKING, Any, Callable

from .errors import ConfigError, RunError, SceneError

if TYPE_CHECKING:
    import numpy as np

# speed of light in vacuum, exact by the SI definition of the metre
C_LIGHT_M_S = 299_792_458.0

METRIC_IDS = ("gain_db", "tx_power_dbm", "se_bps_hz", "peb_m", "sse_bps_hz")

# two-bit phase states, the hardware default for switched cells
DEFAULT_PHASE_LOOKUP = (0.0, math.pi / 2, math.pi, -math.pi / 2)

# ---------------------------------------------------------------------------
# parsing: one reader per JSON key, declared on the key's dataclass field
# ---------------------------------------------------------------------------

_Reader = Callable[[Any, str], Any]


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _as_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SceneError(path, f"expected a number, got {type(value).__name__}")
    if not math.isfinite(value):
        raise SceneError(path, "must be finite")
    return float(value)


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SceneError(path, f"expected an integer, got {type(value).__name__}")
    return value


def _as_position(value, path: str) -> tuple[float, float, float]:
    if not isinstance(value, (list, tuple)) or len(value) not in (2, 3):
        raise SceneError(path, "expected [x, y] or [x, y, z] metres")
    coords = [_as_number(v, f"{path}[{i}]") for i, v in enumerate(value)]
    if len(coords) == 2:
        coords.append(0.0)
    return tuple(coords)


def _bounded(read: _Reader, ok: Callable[[Any], bool], rule: str) -> _Reader:
    """``read``, then reject a value outside the bound with ``must <rule>``."""

    def reader(value, path):
        value = read(value, path)
        if not ok(value):
            raise SceneError(path, f"must {rule}")
        return value

    return reader


_POSITIVE = _bounded(_as_number, lambda v: v > 0, "be > 0")
_NON_NEGATIVE = _bounded(_as_number, lambda v: v >= 0, "be >= 0")
# zero is allowed: a fully lossy (dark) surface is a useful degenerate case
_FRACTION = _bounded(_as_number, lambda v: 0.0 <= v <= 1.0, "lie in [0, 1]")
_COUNT = _bounded(_as_int, lambda v: v >= 1, "be >= 1")
_POSITIVE_INT = _bounded(_as_int, lambda v: v > 0, "be > 0")
# random streams take the seed as one 64-bit word (``seeding``): any other
# integer would alias one inside the range. The ``--seed`` option reads
# through this too.
read_seed = _bounded(_as_int, lambda v: 0 <= v < 2**64, "lie in [0, 2**64)")


def _list_of(read: _Reader, what: str, non_empty: bool = False) -> _Reader:
    """A JSON list read item by item into a tuple; items report ``path[i]``."""

    def reader(value, path):
        if not isinstance(value, list) or (non_empty and not value):
            raise SceneError(path, f"expected a {'non-empty ' if non_empty else ''}list of {what}")
        return tuple(read(v, f"{path}[{i}]") for i, v in enumerate(value))

    return reader


def _per_metric(read: _Reader, what: str) -> _Reader:
    """An object keyed by metric id, read into sorted (metric, value) pairs."""

    def reader(value, path):
        if not isinstance(value, dict):
            raise SceneError(path, f"expected an object of metric: {what}")
        for mid in value:
            if mid not in METRIC_IDS:
                raise SceneError(f"{path}.{mid}", f"unknown metric, expected one of {METRIC_IDS}")
        return tuple(sorted((mid, read(item, f"{path}.{mid}")) for mid, item in value.items()))

    return reader


def _only_keys(value, path: str, allowed) -> None:
    """Reject a value that is not a JSON object, or one with a key not in ``allowed``."""
    if not isinstance(value, dict):
        raise SceneError(path, "expected an object")
    for key in value:
        if key not in allowed:
            raise SceneError(_join(path, key), "unknown key")


def _key(read: _Reader, default=MISSING, *, factory=MISSING, name=None):
    """A dataclass field read from JSON key ``name`` (default: the field's name) by ``read``.

    A field with neither ``default`` nor ``factory`` is a required key.
    """
    return field(default=default, default_factory=factory, metadata={"read": read, "key": name})


def _object(cls, check=None) -> _Reader:
    """Reader of a JSON object into dataclass ``cls``, one key per ``_key`` field.

    Keys are read in field order. Absent keys keep the field's default; a key
    whose field has none is required, and a null counts as absent only where
    the default is None. ``check(obj, path)`` applies the cross-field rules
    and returns the object.
    """
    specs = [(f.metadata["key"] or f.name, f.name, f.metadata["read"],
              f.default is MISSING and f.default_factory is MISSING, f.default is None)
             for f in fields(cls)]
    keys = {spec[0] for spec in specs}

    def reader(value, path):
        _only_keys(value, path, keys)
        kwargs = {}
        for key, name, read, required, nullable in specs:
            if key not in value or (value[key] is None and nullable):
                if required:
                    raise SceneError(_join(path, key), "missing required key")
                continue
            kwargs[name] = read(value[key], _join(path, key))
        obj = cls(**kwargs)
        return check(obj, path) if check is not None else obj

    return reader


# a per-metric band override is a plain dict of the keys it sets, read in this order
_BAND = {"boost_db": _NON_NEGATIVE, "unchanged_db": _NON_NEGATIVE}


def _band(value, path: str) -> dict:
    _only_keys(value, path, _BAND)
    return {key: read(value[key], _join(path, key)) for key, read in _BAND.items() if key in value}


def _check_grid(grid: Grid, path: str) -> Grid:
    for axis, low, high in (("x", grid.x_min, grid.x_max), ("y", grid.y_min, grid.y_max)):
        if high < low:
            raise SceneError(_join(path, f"{axis}_max"), f"must be >= {axis}_min")
        # a quotient past the float range has no cell count
        if not math.isfinite((high - low) / grid.resolution_m):
            raise SceneError(_join(path, "resolution_m"),
                             f"the {axis} span over the resolution overflows")
    return grid


def _check_wall(wall: Wall, path: str) -> Wall:
    if wall.p1_m[:2] == wall.p2_m[:2]:
        raise SceneError(path, "wall endpoints coincide in the plane")
    return wall


def _check_thresholds(t: Thresholds, path: str) -> Thresholds:
    """Resolve the per-metric bands; reject inverted bands and qos_min.peb_m.

    Each override arrives as (metric, {key: value}) with only the keys the
    document sets; that metric's own default band fills the rest.
    """
    if t.qos_for("peb_m") is not None:
        raise SceneError(f"{path}.qos_min.peb_m", f"not a QoS floor; set {path}.peb_feasible_m instead")
    defaults = replace(t, per_metric=())
    per_metric = []
    for mid, band in t.per_metric:
        boost, unchanged = defaults.for_metric(mid)
        per_metric.append((mid, (band.get("boost_db", boost), band.get("unchanged_db", unchanged))))
    per_metric = tuple(per_metric)
    bands = [(path, (t.boost_db, t.unchanged_db))]
    bands += [(f"{path}.per_metric.{mid}", pair) for mid, pair in per_metric]
    for band_path, (boost, unchanged) in bands:
        if boost < unchanged:
            raise SceneError(band_path, f"boost_db ({boost!r}) must be >= unchanged_db ({unchanged!r})")
    return replace(t, per_metric=per_metric)


# ---------------------------------------------------------------------------
# the scene types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BaseStation:
    position_m: tuple[float, float, float] = _key(_as_position)
    antenna_count: int = _key(_COUNT, 1)
    spacing_m: float | None = _key(_POSITIVE, None)  # None: half a carrier wavelength
    orientation_rad: float = _key(_as_number, 0.0)


@dataclass(frozen=True)
class Surface:
    """Uniform linear array of switchable elements.

    State l of an element responds element_efficiency * exp(j phase_lookup_rad[l]);
    every engine reads it through ``beamforming.state_responses``.
    """

    position_m: tuple[float, float, float] = _key(_as_position)
    element_count: int = _key(_COUNT)
    element_spacing_m: float | None = _key(_POSITIVE, None)  # None: half a carrier wavelength
    orientation_rad: float = _key(_as_number, 0.0)
    phase_lookup_rad: tuple[float, ...] = _key(
        _list_of(_as_number, "radians", non_empty=True), DEFAULT_PHASE_LOOKUP)
    element_efficiency: float = _key(_FRACTION, 1.0)
    codebook_directions: int = _key(_COUNT, 16)


@dataclass(frozen=True)
class Wall:
    p1_m: tuple[float, float, float] = _key(_as_position)
    p2_m: tuple[float, float, float] = _key(_as_position)
    penetration_loss_db: float = _key(_NON_NEGATIVE)


@dataclass(frozen=True)
class Eavesdropper:
    position_m: tuple[float, float, float] = _key(_as_position)
    antenna_count: int = _key(_COUNT, 1)


@dataclass(frozen=True)
class Grid:
    x_min: float = _key(_as_number)
    x_max: float = _key(_as_number)
    y_min: float = _key(_as_number)
    y_max: float = _key(_as_number)
    resolution_m: float = _key(_POSITIVE)
    fixed_height_m: float = _key(_as_number, 0.0)

    @property
    def nx(self) -> int:
        return int(math.floor((self.x_max - self.x_min) / self.resolution_m + 1e-9)) + 1

    @property
    def ny(self) -> int:
        return int(math.floor((self.y_max - self.y_min) / self.resolution_m + 1e-9)) + 1

    @property
    def cell_count(self) -> int:
        return self.nx * self.ny

    def points(self) -> np.ndarray:
        """All cell centres as an (n, 3) array, row-major.

        A grid whose centres cannot be allocated or indexed is a run-time failure.
        """
        import numpy as np

        n = self.cell_count
        try:
            pts = np.empty((n, 3))
        except (MemoryError, ValueError):
            raise RunError(f"cannot allocate the centres of the {self.nx} x {self.ny} grid "
                           f"({24 * n} bytes)") from None
        cells = pts.reshape(self.ny, self.nx, 3)
        cells[:, :, 0] = self.x_min + self.resolution_m * np.arange(self.nx)
        cells[:, :, 1] = (self.y_min + self.resolution_m * np.arange(self.ny))[:, None]
        pts[:, 2] = self.fixed_height_m
        return pts


@dataclass(frozen=True)
class LinkBudgetSpec:
    target_snr_db: float = _key(_as_number, 5.0)
    max_tx_power_dbm: float = _key(_as_number, 23.0)
    min_tx_power_dbm: float = _key(_as_number, -40.0)
    se_max_bps_hz: float = _key(_as_number, 7.4)


@dataclass(frozen=True)
class LocalizationSpec:
    pilot_count: int = _key(_POSITIVE_INT, 40)
    tx_power_dbm: float = _key(_as_number, 30.0)


@dataclass(frozen=True)
class SecrecySpec:
    rx_antenna_count: int = _key(_POSITIVE_INT, 1)
    power_budget_dbm: float = _key(_as_number, 30.0)
    fading_draws: int = _key(_POSITIVE_INT, 1)


@dataclass(frozen=True)
class Thresholds:
    boost_db: float = _key(_NON_NEGATIVE, 3.0)
    unchanged_db: float = _key(_NON_NEGATIVE, 2.0)
    change_floor_db: float = _key(_NON_NEGATIVE, 0.1)
    peb_feasible_m: float = _key(_POSITIVE, 0.1)
    qos_min: tuple[tuple[str, float], ...] = _key(_per_metric(_as_number, "threshold"), ())
    per_metric: tuple[tuple[str, tuple[float, float]], ...] = _key(
        _per_metric(_band, "{boost_db, unchanged_db}"), ())

    def for_metric(self, metric_id: str) -> tuple[float, float]:
        """(boost, unchanged) comparison thresholds, honouring overrides.

        Uplink transmit power defaults to the change floor for both: any
        reduction past measurement noise already counts as a boost there.
        """
        for mid, pair in self.per_metric:
            if mid == metric_id:
                return pair
        if metric_id == "tx_power_dbm":
            return (self.change_floor_db, self.change_floor_db)
        return (self.boost_db, self.unchanged_db)

    def qos_for(self, metric_id: str) -> float | None:
        for mid, value in self.qos_min:
            if mid == metric_id:
                return value
        return None


@dataclass(frozen=True)
class CoexistConfig:
    """Knobs of one ``coexist`` run, checked as they are built.

    It lives with the scene types, which load no numpy, so a bad option
    exits before any numeric layer is imported. ``snr_margin_db`` is the
    SNR drop a block absorbs before failing; the default 0.1 dB keeps
    vanishing ripples from a far-away surface from registering as errors
    while leaving any real dip visible.  Set it to 0 for the strict rule
    (any SNR decrease across the delay window fails).
    """

    slots: int
    switch_probability: float
    csi_delay_slots: int = 1
    mcs_gap_db: float = 3.0
    snr_margin_db: float = 0.1
    seed: int = 1

    def __post_init__(self) -> None:
        if self.slots < 1:
            raise ConfigError("slots must be >= 1")
        if not 0.0 <= self.switch_probability <= 1.0:
            raise ConfigError("switch_probability must lie in [0, 1]")
        if self.csi_delay_slots < 1:
            raise ConfigError("csi_delay_slots must be >= 1")
        if self.csi_delay_slots >= self.slots:
            raise ConfigError(f"csi_delay_slots ({self.csi_delay_slots}) must be below "
                              f"slots ({self.slots}), or no slot transmits")
        if not (math.isfinite(self.mcs_gap_db) and self.mcs_gap_db >= 0.0):
            raise ConfigError("mcs_gap_db must be finite and >= 0")
        if not (math.isfinite(self.snr_margin_db) and self.snr_margin_db >= 0.0):
            raise ConfigError("snr_margin_db must be finite and >= 0")


# keyword-only, so the fields keep the order keys are read in, required
# keys among defaulted ones
@dataclass(frozen=True, kw_only=True)
class Scene:
    carrier_hz: float = _key(_POSITIVE)
    subcarrier_count: int = _key(_COUNT, 1)
    subcarrier_spacing_hz: float = _key(_POSITIVE, 240e3)
    noise_psd_dbm_hz: float = _key(_as_number, -174.0)
    noise_figure_db: float = _key(_as_number, 9.0)
    seed: int = _key(read_seed, 1)
    bs: tuple[BaseStation, ...] = _key(
        _list_of(_object(BaseStation), "base stations", non_empty=True))
    grid: Grid = _key(_object(Grid, _check_grid), name="ue_grid")
    ris: Surface = _key(_object(Surface))
    walls: tuple[Wall, ...] = _key(_list_of(_object(Wall, _check_wall), "wall segments"), ())
    eve: Eavesdropper | None = _key(_object(Eavesdropper), None)
    link_budget: LinkBudgetSpec = _key(_object(LinkBudgetSpec), factory=LinkBudgetSpec)
    localization: LocalizationSpec = _key(_object(LocalizationSpec), factory=LocalizationSpec)
    secrecy: SecrecySpec = _key(_object(SecrecySpec), factory=SecrecySpec)
    thresholds: Thresholds = _key(_object(Thresholds, _check_thresholds), factory=Thresholds)

    @property
    def wavelength_m(self) -> float:
        return C_LIGHT_M_S / self.carrier_hz

    @property
    def bandwidth_hz(self) -> float:
        return self.subcarrier_count * self.subcarrier_spacing_hz

    @property
    def noise_power_dbm(self) -> float:
        return self.noise_psd_dbm_hz + 10.0 * math.log10(self.bandwidth_hz) + self.noise_figure_db

    def bs_spacing_m(self, bs: BaseStation) -> float:
        return bs.spacing_m if bs.spacing_m is not None else 0.5 * self.wavelength_m

    def ris_spacing_m(self) -> float:
        s = self.ris.element_spacing_m
        return s if s is not None else 0.5 * self.wavelength_m


_SCENE = _object(Scene)


def parse_scene(text: str) -> Scene:
    """Parse and validate scene JSON text."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SceneError("", f"not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise SceneError("", "scene must be a JSON object")
    if "spec_version" not in doc:
        raise SceneError("spec_version", "missing required key")
    version = doc.pop("spec_version")
    if version != 1:
        raise SceneError("spec_version", f"unsupported version {version!r}, expected 1")
    return _SCENE(doc, "")


def load_scene(path) -> Scene:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise SceneError("", f"cannot read scene file {path}: {exc}") from None
    try:
        return parse_scene(text)
    except SceneError as exc:
        raise SceneError("", f"{path}: {exc}") from None
