"""Scene files: geometry, radio settings and planning thresholds.

A scene is a JSON document (``spec_version: 1``) describing base stations,
an evaluation grid, optionally a surface, walls and an eavesdropper, plus
the numeric knobs the metric engines need. Parsing applies documented
defaults and rejects unknown keys with their key path.

Positions may be given as [x, y] or [x, y, z] metres; 2D inputs are stored
with z = 0 so every distance is a plain 3D norm. Grid cells sit at
fixed_height_m and are enumerated row-major: index = iy * nx + ix.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import SceneError
from .propagation import C_LIGHT_M_S

METRIC_IDS = ("gain_db", "tx_power_dbm", "se_bps_hz", "peb_m", "sse_bps_hz")

# two-bit phase states, the hardware default for switched cells
DEFAULT_PHASE_LOOKUP = (0.0, math.pi / 2, math.pi, -math.pi / 2)


def _require(obj: dict, key: str, path: str):
    if key not in obj:
        raise SceneError(_join(path, key), "missing required key")
    return obj[key]


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _check_unknown(obj: dict, allowed: set, path: str):
    for key in obj:
        if key not in allowed:
            raise SceneError(_join(path, key), "unknown key")


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


@dataclass(frozen=True)
class BaseStation:
    position_m: tuple[float, float, float]
    antenna_count: int = 1
    spacing_m: float | None = None  # None: half a carrier wavelength
    orientation_rad: float = 0.0


@dataclass(frozen=True)
class Surface:
    """Uniform linear array of switchable elements."""

    position_m: tuple[float, float, float]
    element_count: int
    element_spacing_m: float | None = None  # None: half a carrier wavelength
    orientation_rad: float = 0.0
    phase_lookup_rad: tuple[float, ...] = DEFAULT_PHASE_LOOKUP
    element_efficiency: float = 1.0
    codebook_directions: int = 16


@dataclass(frozen=True)
class Wall:
    p1_m: tuple[float, float, float]
    p2_m: tuple[float, float, float]
    penetration_loss_db: float


@dataclass(frozen=True)
class Eavesdropper:
    position_m: tuple[float, float, float]
    antenna_count: int = 1


@dataclass(frozen=True)
class Grid:
    x_min: float
    x_max: float
    y_min: float
    y_max: float
    resolution_m: float
    fixed_height_m: float = 0.0

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
        """All cell centres as an (n, 3) array, row-major."""
        xs = self.x_min + self.resolution_m * np.arange(self.nx)
        ys = self.y_min + self.resolution_m * np.arange(self.ny)
        gx, gy = np.meshgrid(xs, ys)
        pts = np.column_stack(
            [gx.ravel(), gy.ravel(), np.full(self.nx * self.ny, self.fixed_height_m)]
        )
        return pts


@dataclass(frozen=True)
class LinkBudgetSpec:
    target_snr_db: float = 5.0
    max_tx_power_dbm: float = 23.0
    min_tx_power_dbm: float = -40.0
    se_max_bps_hz: float = 7.4


@dataclass(frozen=True)
class LocalizationSpec:
    pilot_count: int = 40
    tx_power_dbm: float = 30.0


@dataclass(frozen=True)
class SecrecySpec:
    rx_antenna_count: int = 1
    power_budget_dbm: float = 30.0
    fading_draws: int = 1


@dataclass(frozen=True)
class Thresholds:
    boost_db: float = 3.0
    unchanged_db: float = 2.0
    change_floor_db: float = 0.1
    peb_feasible_m: float = 0.1
    qos_min: tuple[tuple[str, float], ...] = ()
    per_metric: tuple[tuple[str, tuple[float, float]], ...] = ()

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
class Scene:
    carrier_hz: float
    grid: Grid
    bs: tuple[BaseStation, ...]
    subcarrier_count: int = 1
    subcarrier_spacing_hz: float = 240e3
    noise_psd_dbm_hz: float = -174.0
    noise_figure_db: float = 9.0
    seed: int = 1
    ris: Surface | None = None
    walls: tuple[Wall, ...] = ()
    eve: Eavesdropper | None = None
    link_budget: LinkBudgetSpec = field(default_factory=LinkBudgetSpec)
    localization: LocalizationSpec = field(default_factory=LocalizationSpec)
    secrecy: SecrecySpec = field(default_factory=SecrecySpec)
    thresholds: Thresholds = field(default_factory=Thresholds)

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

    def nearest_bs_to_ris(self) -> int:
        """Index of the base station closest to the surface (ties: lowest index)."""
        if self.ris is None:
            raise SceneError("ris", "scene has no surface")
        rp = np.array(self.ris.position_m)
        dists = [float(np.linalg.norm(np.array(b.position_m) - rp)) for b in self.bs]
        return int(np.argmin(dists))


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_TOP_KEYS = {
    "spec_version",
    "carrier_hz",
    "subcarrier_count",
    "subcarrier_spacing_hz",
    "noise_psd_dbm_hz",
    "noise_figure_db",
    "seed",
    "bs",
    "ue_grid",
    "ris",
    "walls",
    "eve",
    "link_budget",
    "localization",
    "secrecy",
    "thresholds",
}


def _parse_bs(obj, path) -> BaseStation:
    if not isinstance(obj, dict):
        raise SceneError(path, "expected an object")
    _check_unknown(obj, {"position_m", "antenna_count", "spacing_m", "orientation_rad"}, path)
    pos = _as_position(_require(obj, "position_m", path), _join(path, "position_m"))
    count = _as_int(obj.get("antenna_count", 1), _join(path, "antenna_count"))
    if count < 1:
        raise SceneError(_join(path, "antenna_count"), "must be >= 1")
    spacing = obj.get("spacing_m")
    if spacing is not None:
        spacing = _as_number(spacing, _join(path, "spacing_m"))
        if spacing <= 0:
            raise SceneError(_join(path, "spacing_m"), "must be > 0")
    orient = _as_number(obj.get("orientation_rad", 0.0), _join(path, "orientation_rad"))
    return BaseStation(pos, count, spacing, orient)


def _parse_ris(obj, path) -> Surface:
    if not isinstance(obj, dict):
        raise SceneError(path, "expected an object")
    allowed = {
        "position_m",
        "element_count",
        "element_spacing_m",
        "orientation_rad",
        "phase_lookup_rad",
        "element_efficiency",
        "codebook_directions",
    }
    _check_unknown(obj, allowed, path)
    pos = _as_position(_require(obj, "position_m", path), _join(path, "position_m"))
    count = _as_int(_require(obj, "element_count", path), _join(path, "element_count"))
    if count < 1:
        raise SceneError(_join(path, "element_count"), "must be >= 1")
    spacing = obj.get("element_spacing_m")
    if spacing is not None:
        spacing = _as_number(spacing, _join(path, "element_spacing_m"))
        if spacing <= 0:
            raise SceneError(_join(path, "element_spacing_m"), "must be > 0")
    lookup = obj.get("phase_lookup_rad", list(DEFAULT_PHASE_LOOKUP))
    if not isinstance(lookup, (list, tuple)) or not lookup:
        raise SceneError(_join(path, "phase_lookup_rad"), "expected a non-empty list of radians")
    lookup = tuple(
        _as_number(v, f"{_join(path, 'phase_lookup_rad')}[{i}]") for i, v in enumerate(lookup)
    )
    eff = _as_number(obj.get("element_efficiency", 1.0), _join(path, "element_efficiency"))
    # zero is allowed: a fully lossy (dark) surface is a useful degenerate case
    if not 0.0 <= eff <= 1.0:
        raise SceneError(_join(path, "element_efficiency"), "must lie in [0, 1]")
    directions = _as_int(obj.get("codebook_directions", 16), _join(path, "codebook_directions"))
    if directions < 1:
        raise SceneError(_join(path, "codebook_directions"), "must be >= 1")
    return Surface(
        position_m=pos,
        element_count=count,
        element_spacing_m=spacing,
        orientation_rad=_as_number(obj.get("orientation_rad", 0.0), _join(path, "orientation_rad")),
        phase_lookup_rad=lookup,
        element_efficiency=eff,
        codebook_directions=directions,
    )


def _parse_grid(obj, path) -> Grid:
    if not isinstance(obj, dict):
        raise SceneError(path, "expected an object")
    allowed = {"x_min", "x_max", "y_min", "y_max", "resolution_m", "fixed_height_m"}
    _check_unknown(obj, allowed, path)
    vals = {k: _as_number(_require(obj, k, path), _join(path, k)) for k in
            ("x_min", "x_max", "y_min", "y_max", "resolution_m")}
    if vals["resolution_m"] <= 0:
        raise SceneError(_join(path, "resolution_m"), "must be > 0")
    if vals["x_max"] < vals["x_min"]:
        raise SceneError(_join(path, "x_max"), "must be >= x_min")
    if vals["y_max"] < vals["y_min"]:
        raise SceneError(_join(path, "y_max"), "must be >= y_min")
    height = _as_number(obj.get("fixed_height_m", 0.0), _join(path, "fixed_height_m"))
    return Grid(
        x_min=vals["x_min"],
        x_max=vals["x_max"],
        y_min=vals["y_min"],
        y_max=vals["y_max"],
        resolution_m=vals["resolution_m"],
        fixed_height_m=height,
    )


def _parse_walls(obj, path) -> tuple[Wall, ...]:
    if not isinstance(obj, list):
        raise SceneError(path, "expected a list of wall segments")
    walls = []
    for i, w in enumerate(obj):
        wpath = f"{path}[{i}]"
        if not isinstance(w, dict):
            raise SceneError(wpath, "expected an object")
        _check_unknown(w, {"p1_m", "p2_m", "penetration_loss_db"}, wpath)
        p1 = _as_position(_require(w, "p1_m", wpath), _join(wpath, "p1_m"))
        p2 = _as_position(_require(w, "p2_m", wpath), _join(wpath, "p2_m"))
        loss = _as_number(_require(w, "penetration_loss_db", wpath), _join(wpath, "penetration_loss_db"))
        if loss < 0:
            raise SceneError(_join(wpath, "penetration_loss_db"), "must be >= 0")
        if p1[:2] == p2[:2]:
            raise SceneError(wpath, "wall endpoints coincide in the plane")
        walls.append(Wall(p1, p2, loss))
    return tuple(walls)


def _parse_eve(obj, path) -> Eavesdropper:
    if not isinstance(obj, dict):
        raise SceneError(path, "expected an object")
    _check_unknown(obj, {"position_m", "antenna_count"}, path)
    pos = _as_position(_require(obj, "position_m", path), _join(path, "position_m"))
    count = _as_int(obj.get("antenna_count", 1), _join(path, "antenna_count"))
    if count < 1:
        raise SceneError(_join(path, "antenna_count"), "must be >= 1")
    return Eavesdropper(pos, count)


def _parse_simple(obj, path, cls, positive_fields=(), int_fields=()):
    """Flat sub-object sharing field names with a defaults dataclass."""
    if not isinstance(obj, dict):
        raise SceneError(path, "expected an object")
    names = [f.name for f in fields(cls)]
    _check_unknown(obj, set(names), path)
    kwargs = {}
    for name in names:
        if name not in obj:
            continue
        p = _join(path, name)
        if name in int_fields:
            value = _as_int(obj[name], p)
        else:
            value = _as_number(obj[name], p)
        if name in positive_fields and value <= 0:
            raise SceneError(p, "must be > 0")
        kwargs[name] = value
    return cls(**kwargs)


def _parse_thresholds(obj, path) -> Thresholds:
    if not isinstance(obj, dict):
        raise SceneError(path, "expected an object")
    allowed = {"boost_db", "unchanged_db", "change_floor_db", "peb_feasible_m", "qos_min", "per_metric"}
    _check_unknown(obj, allowed, path)
    kwargs = {}
    for name in ("boost_db", "unchanged_db", "change_floor_db", "peb_feasible_m"):
        if name in obj:
            value = _as_number(obj[name], _join(path, name))
            if name == "peb_feasible_m" and value <= 0:
                raise SceneError(_join(path, name), "must be > 0")
            if name != "peb_feasible_m" and value < 0:
                raise SceneError(_join(path, name), "must be >= 0")
            kwargs[name] = value
    qos = obj.get("qos_min", {})
    if not isinstance(qos, dict):
        raise SceneError(_join(path, "qos_min"), "expected an object of metric: threshold")
    qos_pairs = []
    for mid, value in qos.items():
        if mid not in METRIC_IDS:
            raise SceneError(f"{_join(path, 'qos_min')}.{mid}", f"unknown metric, expected one of {METRIC_IDS}")
        qos_pairs.append((mid, _as_number(value, f"{_join(path, 'qos_min')}.{mid}")))
    per = obj.get("per_metric", {})
    if not isinstance(per, dict):
        raise SceneError(_join(path, "per_metric"), "expected an object of metric: {boost_db, unchanged_db}")
    per_pairs = []
    for mid, sub in per.items():
        mpath = f"{_join(path, 'per_metric')}.{mid}"
        if mid not in METRIC_IDS:
            raise SceneError(mpath, f"unknown metric, expected one of {METRIC_IDS}")
        if not isinstance(sub, dict):
            raise SceneError(mpath, "expected an object")
        _check_unknown(sub, {"boost_db", "unchanged_db"}, mpath)
        boost = _as_number(sub.get("boost_db", kwargs.get("boost_db", 3.0)), _join(mpath, "boost_db"))
        unchanged = _as_number(
            sub.get("unchanged_db", kwargs.get("unchanged_db", 2.0)), _join(mpath, "unchanged_db")
        )
        per_pairs.append((mid, (boost, unchanged)))
    if qos_pairs:
        kwargs["qos_min"] = tuple(sorted(qos_pairs))
    if per_pairs:
        kwargs["per_metric"] = tuple(sorted(per_pairs))
    return Thresholds(**kwargs)


def parse_scene(text: str) -> Scene:
    """Parse and validate scene JSON text."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SceneError("", f"not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise SceneError("", "scene must be a JSON object")
    _check_unknown(doc, _TOP_KEYS, "")
    version = _require(doc, "spec_version", "")
    if version != 1:
        raise SceneError("spec_version", f"unsupported version {version!r}, expected 1")
    carrier = _as_number(_require(doc, "carrier_hz", ""), "carrier_hz")
    if carrier <= 0:
        raise SceneError("carrier_hz", "must be > 0")
    sub_count = _as_int(doc.get("subcarrier_count", 1), "subcarrier_count")
    if sub_count < 1:
        raise SceneError("subcarrier_count", "must be >= 1")
    sub_spacing = _as_number(doc.get("subcarrier_spacing_hz", 240e3), "subcarrier_spacing_hz")
    if sub_spacing <= 0:
        raise SceneError("subcarrier_spacing_hz", "must be > 0")
    bs_raw = _require(doc, "bs", "")
    if not isinstance(bs_raw, list) or not bs_raw:
        raise SceneError("bs", "expected a non-empty list of base stations")
    bs = tuple(_parse_bs(b, f"bs[{i}]") for i, b in enumerate(bs_raw))
    grid = _parse_grid(_require(doc, "ue_grid", ""), "ue_grid")
    ris = _parse_ris(doc["ris"], "ris") if doc.get("ris") is not None else None
    walls = _parse_walls(doc.get("walls", []), "walls")
    eve = _parse_eve(doc["eve"], "eve") if doc.get("eve") is not None else None
    scene = Scene(
        carrier_hz=carrier,
        grid=grid,
        bs=bs,
        subcarrier_count=sub_count,
        subcarrier_spacing_hz=sub_spacing,
        noise_psd_dbm_hz=_as_number(doc.get("noise_psd_dbm_hz", -174.0), "noise_psd_dbm_hz"),
        noise_figure_db=_as_number(doc.get("noise_figure_db", 9.0), "noise_figure_db"),
        seed=_as_int(doc.get("seed", 1), "seed"),
        ris=ris,
        walls=walls,
        eve=eve,
        link_budget=_parse_simple(doc.get("link_budget", {}), "link_budget", LinkBudgetSpec),
        localization=_parse_simple(
            doc.get("localization", {}),
            "localization",
            LocalizationSpec,
            positive_fields={"pilot_count"},
            int_fields={"pilot_count"},
        ),
        secrecy=_parse_simple(
            doc.get("secrecy", {}),
            "secrecy",
            SecrecySpec,
            positive_fields={"rx_antenna_count", "fading_draws"},
            int_fields={"rx_antenna_count", "fading_draws"},
        ),
        thresholds=_parse_thresholds(doc.get("thresholds", {}), "thresholds"),
    )
    return scene


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

