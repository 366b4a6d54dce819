"""Each scene key is declared once, on its dataclass field.

These tests pin the readers against the dataclasses (every field carries a
``_key`` reader, and a document setting every key parses into the scene it
names) and the README's key table against the readers.
"""

import json
import pathlib
import typing
from dataclasses import MISSING, fields, is_dataclass

from risplan import scene as scene_module
from risplan.scene import (
    BaseStation,
    Eavesdropper,
    Grid,
    LinkBudgetSpec,
    LocalizationSpec,
    Scene,
    SecrecySpec,
    Surface,
    Thresholds,
    Wall,
    parse_scene,
)

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def reachable_dataclasses(root):
    """``root`` and every dataclass its field types name, however nested."""
    found, pending = set(), [root]
    while pending:
        hint = pending.pop()
        if not is_dataclass(hint):
            pending.extend(typing.get_args(hint))
        elif hint not in found:
            found.add(hint)
            pending.extend(typing.get_type_hints(hint, vars(scene_module)).values())
    return found


def json_key(f):
    return f.metadata["key"] or f.name


def to_json(value, name=None):
    """The JSON value the parser reads into ``value`` (field ``name``)."""
    if is_dataclass(value):
        return {json_key(f): to_json(getattr(value, f.name), f.name) for f in fields(value)}
    if name == "qos_min":
        return dict(value)
    if name == "per_metric":
        return {mid: {"boost_db": boost, "unchanged_db": unchanged}
                for mid, (boost, unchanged) in value}
    if isinstance(value, tuple):
        return [to_json(item) for item in value]
    return value


def non_default_fields(obj, path=""):
    """Key paths of ``obj``'s fields that hold their default, however nested."""
    found = []
    for f in fields(obj):
        value = getattr(obj, f.name)
        default = f.default_factory() if f.default_factory is not MISSING else f.default
        if value == default:
            found.append(f"{path}{f.name}")
        items = value if isinstance(value, tuple) else (value,)
        for i, item in enumerate(items):
            if is_dataclass(item):
                found += non_default_fields(item, f"{path}{f.name}[{i}].")
    return found


# every key set, each to a valid value that is not its default
EVERY_KEY = Scene(
    carrier_hz=28e9,
    subcarrier_count=8,
    subcarrier_spacing_hz=120e3,
    noise_psd_dbm_hz=-170.0,
    noise_figure_db=7.0,
    seed=99,
    bs=(BaseStation(position_m=(1.0, 2.0, 3.0), antenna_count=4, spacing_m=0.01,
                    orientation_rad=0.5),),
    grid=Grid(x_min=-1.0, x_max=4.0, y_min=-2.0, y_max=3.0, resolution_m=0.5,
              fixed_height_m=1.5),
    ris=Surface(position_m=(5.0, 6.0, 2.0), element_count=16, element_spacing_m=0.005,
                orientation_rad=1.0, phase_lookup_rad=(0.0, 3.0), element_efficiency=0.7,
                codebook_directions=8),
    walls=(Wall(p1_m=(0.0, 1.0, 0.0), p2_m=(3.0, 1.0, 0.0), penetration_loss_db=12.0),),
    eve=Eavesdropper(position_m=(2.0, 2.0, 1.0), antenna_count=2),
    link_budget=LinkBudgetSpec(target_snr_db=6.0, max_tx_power_dbm=20.0,
                               min_tx_power_dbm=-30.0, se_max_bps_hz=6.0),
    localization=LocalizationSpec(pilot_count=12, tx_power_dbm=25.0),
    secrecy=SecrecySpec(rx_antenna_count=2, power_budget_dbm=27.0, fading_draws=3),
    thresholds=Thresholds(boost_db=4.0, unchanged_db=1.0, change_floor_db=0.2,
                          peb_feasible_m=0.5, qos_min=(("se_bps_hz", 1.5),),
                          per_metric=(("gain_db", (2.5, 0.5)), ("tx_power_dbm", (1.0, 0.3)))),
)


def test_every_field_carries_a_key_reader():
    classes = reachable_dataclasses(Scene)
    assert set(classes) == {Scene, BaseStation, Grid, Surface, Wall, Eavesdropper,
                            LinkBudgetSpec, LocalizationSpec, SecrecySpec, Thresholds}
    for cls in classes:
        for f in fields(cls):
            assert callable(f.metadata.get("read")), f"{cls.__name__}.{f.name} has no _key reader"


def test_document_of_every_key_round_trips():
    assert non_default_fields(EVERY_KEY) == []
    doc = {"spec_version": 1, **to_json(EVERY_KEY)}
    assert "ue_grid" in doc and "grid" not in doc
    assert parse_scene(json.dumps(doc)) == EVERY_KEY


def scene_keys():
    """Every JSON key the readers accept, the per-metric band keys included."""
    keys = set(scene_module._BAND)
    for cls in reachable_dataclasses(Scene):
        keys |= {json_key(f) for f in fields(cls)}
    return keys


def readme_key_table():
    lines = README.read_text().splitlines()
    start = lines.index("| block | key: default (bound) |")
    end = lines.index("", start)
    return "\n".join(lines[start:end])


def test_readme_key_table_names_every_key():
    table = readme_key_table()
    missing = sorted(key for key in scene_keys() if f"`{key}`" not in table)
    assert missing == []
