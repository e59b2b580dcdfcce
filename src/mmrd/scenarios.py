"""Scenario files: strict JSON schema, presets and problem builders.

A scenario fully describes one run: domain block, one entry per component
(diffusion coefficient, interior and boundary graphs, initial data
spec), reaction block, time block, and an optional pair block for
comparison runs.  Parsing is strict: unknown keys are rejected and every
error message carries the JSON path of the offending field.

Presets expand to fully explicit scenarios for the problem families studied
here: the scalar power-reaction problem under Dirichlet / power-law /
Neumann boundary laws, its general-reaction variant, and the two-component
coupled system with Dirichlet, power-law or obstacle-truncated settings.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .graphs import KINDS, MonotoneGraph
from .mesh import Mesh, build_mesh
from .reactions import Reaction, nuclear_reaction, power_reaction, zero_reaction
from .spectral import principal_eigenpair
from .stepper import ProblemSpec, TimeControl

__all__ = [
    "Scenario",
    "PairSpec",
    "InitialSpec",
    "ComponentSpec",
    "parse_scenario",
    "scenario_from_dict",
    "scenario_to_dict",
    "build_problem",
    "make_preset",
    "PRESET_NAMES",
]


@dataclass(frozen=True)
class InitialSpec:
    kind: str  # "constant" | "eigen_multiple" | "bump"
    value: float = 0.0
    c: float = 0.0
    center: tuple[float, ...] = ()
    width: tuple[float, ...] = ()
    height: float = 0.0

    def to_dict(self) -> dict:
        if self.kind == "constant":
            return {"kind": "constant", "value": self.value}
        if self.kind == "eigen_multiple":
            return {"kind": "eigen_multiple", "c": self.c}
        return {
            "kind": "bump",
            "center": list(self.center),
            "width": list(self.width),
            "height": self.height,
        }


@dataclass(frozen=True)
class ComponentSpec:
    diffusion: float
    interior_graph: MonotoneGraph
    boundary_graph: MonotoneGraph
    initial: InitialSpec

    def to_dict(self) -> dict:
        return {
            "diffusion": self.diffusion,
            "interior_graph": self.interior_graph.to_dict(),
            "boundary_graph": self.boundary_graph.to_dict(),
            "initial": self.initial.to_dict(),
        }


@dataclass(frozen=True)
class PairSpec:
    scenario: "Scenario"
    override_a3: bool = False
    override_a4: bool = False

    def to_dict(self) -> dict:
        return {
            "scenario": scenario_to_dict(self.scenario, include_pair=False),
            "override_a3": self.override_a3,
            "override_a4": self.override_a4,
        }


@dataclass(frozen=True)
class Scenario:
    name: str
    dim: int
    lengths: tuple[float, ...]
    counts: tuple[int, ...]
    components: tuple[ComponentSpec, ...]
    reaction: Reaction
    time: TimeControl
    pair: PairSpec | None = None


# ---------------------------------------------------------------------------
# strict parsing
# ---------------------------------------------------------------------------


def _check_keys(obj: dict, path: str, required: tuple[str, ...], optional: tuple[str, ...] = ()):
    if not isinstance(obj, dict):
        raise ConfigurationError(f"{path}: expected an object")
    for key in obj:
        if key not in required and key not in optional:
            raise ConfigurationError(f"{path}.{key}: unknown key")
    for key in required:
        if key not in obj:
            raise ConfigurationError(f"{path}.{key}: missing required key")


def _as_number(v, path: str) -> float:
    """v as a float; a JSON number only, not a bool, a string or null."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigurationError(f"{path}: expected a number, got {v!r}")
    try:
        return float(v)
    except OverflowError:  # an integer beyond the float range
        raise ConfigurationError(f"{path}: number out of range") from None


def _as_integer(v, path: str) -> int:
    """v as an int; a JSON number with an integer value (3 or 3.0, not 3.9)."""
    x = _as_number(v, path)
    if not x.is_integer():
        raise ConfigurationError(f"{path}: expected an integer, got {v!r}")
    return int(x)


def _number(obj: dict, key: str, path: str, default=None) -> float:
    if key not in obj:
        if default is None:
            raise ConfigurationError(f"{path}.{key}: missing required key")
        return default
    return _as_number(obj[key], f"{path}.{key}")


def _parse_graph(obj: dict, path: str) -> MonotoneGraph:
    _check_keys(obj, path, ("kind",), tuple(k for spec in KINDS.values() for k in spec.params))
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in KINDS:
        raise ConfigurationError(f"{path}.kind: unknown graph kind {kind!r}")
    defaults = KINDS[kind].params
    _check_keys(obj, path, ("kind",), tuple(defaults))
    params = tuple(_number(obj, key, path, default) for key, default in defaults.items())
    try:
        return MonotoneGraph(kind, params)
    except ConfigurationError as exc:  # its message starts with the param at fault
        raise ConfigurationError(f"{path}.{exc}") from None


def _parse_initial(obj: dict, path: str, dim: int) -> InitialSpec:
    _check_keys(obj, path, ("kind",), ("value", "c", "center", "width", "height"))
    kind = obj.get("kind")
    if kind == "constant":
        _check_keys(obj, path, ("kind", "value"))
        return InitialSpec("constant", value=_number(obj, "value", path))
    if kind == "eigen_multiple":
        _check_keys(obj, path, ("kind", "c"))
        return InitialSpec("eigen_multiple", c=_number(obj, "c", path))
    if kind == "bump":
        _check_keys(obj, path, ("kind", "center", "width", "height"))

        def axis_tuple(key):
            v = obj[key]
            vals = [v] if isinstance(v, (int, float)) and not isinstance(v, bool) else v
            if not isinstance(vals, (list, tuple)) or len(vals) != dim:
                raise ConfigurationError(f"{path}.{key}: expected {dim} value(s)")
            return tuple(_as_number(x, f"{path}.{key}[{i}]") for i, x in enumerate(vals))

        center = axis_tuple("center")
        width = axis_tuple("width")
        if any(w <= 0 for w in width):
            raise ConfigurationError(f"{path}.width: must be > 0")
        return InitialSpec("bump", center=center, width=width, height=_number(obj, "height", path))
    raise ConfigurationError(f"{path}.kind: unknown initial kind {kind!r}")


def _parse_reaction(obj: dict, path: str, m: int) -> Reaction:
    _check_keys(obj, path, ("kind",), ("p", "a", "b"))
    kind = obj.get("kind")
    try:
        if kind == "zero":
            _check_keys(obj, path, ("kind",))
            return zero_reaction(m)
        if kind == "power":
            _check_keys(obj, path, ("kind", "p"))
            if m != 1:
                raise ConfigurationError(f"{path}: power reaction needs exactly 1 component, got {m}")
            return power_reaction(_number(obj, "p", path))
        if kind == "nuclear":
            _check_keys(obj, path, ("kind", "a", "b"))
            if m != 2:
                raise ConfigurationError(f"{path}: nuclear reaction needs exactly 2 components, got {m}")
            return nuclear_reaction(_number(obj, "a", path), _number(obj, "b", path))
    except ConfigurationError as exc:
        if str(exc).startswith(path):
            raise
        raise ConfigurationError(f"{path}: {exc}") from None
    raise ConfigurationError(f"{path}.kind: unknown reaction kind {kind!r}")


def _parse_time(obj: dict, path: str) -> TimeControl:
    _check_keys(obj, path, ("t_end",), ("dt_init", "dt_min", "blowup_threshold", "safety"))
    try:
        return TimeControl(
            t_end=_number(obj, "t_end", path),
            dt_init=_number(obj, "dt_init", path, 1e-3),
            dt_min=_number(obj, "dt_min", path, 1e-10),
            blowup_threshold=_number(obj, "blowup_threshold", path, 1e8),
            safety=_number(obj, "safety", path, 0.1),
        )
    except ConfigurationError as exc:
        if str(exc).startswith(path):
            raise
        raise ConfigurationError(f"{path}: {exc}") from None


def scenario_from_dict(obj: dict, path: str = "scenario", allow_pair: bool = True) -> Scenario:
    optional = ("name", "pair") if allow_pair else ("name",)
    _check_keys(obj, path, ("domain", "components", "reaction", "time"), optional)

    dom = obj["domain"]
    _check_keys(dom, f"{path}.domain", ("dim", "lengths", "counts"))
    dim = dom["dim"]
    if dim not in (1, 2):
        raise ConfigurationError(f"{path}.domain.dim: must be 1 or 2, got {dim!r}")
    for key in ("lengths", "counts"):
        if not isinstance(dom[key], (list, tuple)) or len(dom[key]) != dim:
            raise ConfigurationError(f"{path}.domain.{key}: expected {dim} value(s)")
    lengths = tuple(_as_number(v, f"{path}.domain.lengths[{i}]") for i, v in enumerate(dom["lengths"]))
    counts = tuple(_as_integer(v, f"{path}.domain.counts[{i}]") for i, v in enumerate(dom["counts"]))
    if not all(0 < v < np.inf for v in lengths):
        raise ConfigurationError(f"{path}.domain.lengths: must be finite and > 0")
    if any(n < 3 for n in counts):
        raise ConfigurationError(f"{path}.domain.counts: must be >= 3")

    comps_obj = obj["components"]
    if not isinstance(comps_obj, list) or not comps_obj:
        raise ConfigurationError(f"{path}.components: expected a non-empty array")
    comps = []
    for i, cobj in enumerate(comps_obj):
        cpath = f"{path}.components[{i}]"
        _check_keys(cobj, cpath, ("diffusion", "interior_graph", "boundary_graph", "initial"))
        diffusion = _number(cobj, "diffusion", cpath)
        if diffusion <= 0:
            raise ConfigurationError(f"{cpath}.diffusion: must be > 0, got {diffusion}")
        comps.append(
            ComponentSpec(
                diffusion,
                _parse_graph(cobj["interior_graph"], f"{cpath}.interior_graph"),
                _parse_graph(cobj["boundary_graph"], f"{cpath}.boundary_graph"),
                _parse_initial(cobj["initial"], f"{cpath}.initial", dim),
            )
        )

    reaction = _parse_reaction(obj["reaction"], f"{path}.reaction", len(comps))
    time = _parse_time(obj["time"], f"{path}.time")

    pair = None
    if allow_pair and "pair" in obj:
        pobj = obj["pair"]
        _check_keys(pobj, f"{path}.pair", (), ("scenario", "preset", "params", "override_a3", "override_a4"))
        if ("scenario" in pobj) == ("preset" in pobj):
            raise ConfigurationError(
                f"{path}.pair: exactly one of 'scenario' and 'preset' is required"
            )
        if "scenario" in pobj:
            second = scenario_from_dict(pobj["scenario"], f"{path}.pair.scenario", allow_pair=False)
        else:
            second = make_preset(pobj["preset"], **pobj.get("params", {}))
        for flag in ("override_a3", "override_a4"):
            if flag in pobj and not isinstance(pobj[flag], bool):
                raise ConfigurationError(f"{path}.pair.{flag}: expected a boolean")
        pair = PairSpec(second, pobj.get("override_a3", False), pobj.get("override_a4", False))

    name = obj.get("name", "")
    if not isinstance(name, str):
        raise ConfigurationError(f"{path}.name: expected a string")
    return Scenario(name, dim, lengths, counts, tuple(comps), reaction, time, pair)


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario from JSON text."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"scenario is not valid JSON: {exc}") from None
    return scenario_from_dict(obj)


def scenario_to_dict(s: Scenario, include_pair: bool = True) -> dict:
    out = {
        "name": s.name,
        "domain": {"dim": s.dim, "lengths": list(s.lengths), "counts": list(s.counts)},
        "components": [c.to_dict() for c in s.components],
        "reaction": s.reaction.to_dict(),
        "time": {
            "t_end": s.time.t_end,
            "dt_init": s.time.dt_init,
            "dt_min": s.time.dt_min,
            "blowup_threshold": s.time.blowup_threshold,
            "safety": s.time.safety,
        },
    }
    if include_pair and s.pair is not None:
        out["pair"] = s.pair.to_dict()
    return out


# ---------------------------------------------------------------------------
# building runnable problems
# ---------------------------------------------------------------------------


def _initial_field(mesh: Mesh, spec: InitialSpec) -> np.ndarray:
    if spec.kind == "constant":
        return np.full(mesh.shape, spec.value)
    if spec.kind == "eigen_multiple":
        return spec.c * principal_eigenpair(mesh, "analytic").phi1
    prof = np.ones(mesh.shape)
    for axis in range(mesh.dim):
        x = mesh.coords[axis] if mesh.dim > 1 else mesh.axes[0]
        prof = prof * np.exp(-0.5 * ((x - spec.center[axis]) / spec.width[axis]) ** 2)
    return spec.height * prof


def build_problem(s: Scenario) -> tuple[ProblemSpec, TimeControl]:
    """Expand a scenario into a runnable (ProblemSpec, TimeControl)."""
    mesh = build_mesh(s.dim, s.lengths, s.counts)
    initial = np.stack([_initial_field(mesh, c.initial) for c in s.components])
    problem = ProblemSpec(
        mesh,
        tuple(c.diffusion for c in s.components),
        s.reaction,
        tuple(c.interior_graph for c in s.components),
        tuple(c.boundary_graph for c in s.components),
        initial,
    )
    return problem, s.time


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


def _power_boundary(alpha: float, q: float) -> dict:
    if alpha == 0.0:
        return {"kind": "extended_neumann"}
    return {"kind": "extended_power", "alpha": alpha, "q": q}


def _scalar_preset(name, boundary, p, initial, n, t_end, blowup_threshold, safety):
    return {
        "name": name,
        "domain": {"dim": 1, "lengths": [1.0], "counts": [n]},
        "components": [
            {
                "diffusion": 1.0,
                "interior_graph": {"kind": "zero"},
                "boundary_graph": boundary,
                "initial": initial,
            }
        ],
        "reaction": {"kind": "power", "p": p},
        "time": {
            "t_end": t_end,
            "dt_init": 1e-3,
            "dt_min": 1e-10,
            "blowup_threshold": blowup_threshold,
            "safety": safety,
        },
    }


def _nr_preset(name, boundaries, interiors, a, b, u10, u20, n, t_end, blowup_threshold, safety):
    return {
        "name": name,
        "domain": {"dim": 1, "lengths": [1.0], "counts": [n]},
        "components": [
            {
                "diffusion": 1.0,
                "interior_graph": interiors[0],
                "boundary_graph": boundaries[0],
                "initial": u10,
            },
            {
                "diffusion": 1.0,
                "interior_graph": interiors[1],
                "boundary_graph": boundaries[1],
                "initial": u20,
            },
        ],
        "reaction": {"kind": "nuclear", "a": a, "b": b},
        "time": {
            "t_end": t_end,
            "dt_init": 1e-3,
            "dt_min": 1e-10,
            "blowup_threshold": blowup_threshold,
            "safety": safety,
        },
    }


def _build_preset(name: str, **kw) -> dict:
    """Raw scenario dict for a named preset; keyword arguments override the
    desk-scale defaults (p, alpha, q, c, a, b, n, t_end, ...)."""
    n = _as_integer(kw.pop("n", 101), f"preset:{name}.n")
    t_end = kw.pop("t_end", 1.0)
    B = kw.pop("blowup_threshold", 1e3)
    safety = kw.pop("safety", 0.1)

    if name in ("Pp_dirichlet", "Pp_neumann", "Pp_power", "PF_power"):
        p = kw.pop("p", 3.0)
        alpha = kw.pop("alpha", 1.0)
        q = kw.pop("q", 2.5)
        if name == "PF_power":
            initial = {
                "kind": "bump",
                "center": [kw.pop("center", 0.5)],
                "width": [kw.pop("width", 0.1)],
                "height": kw.pop("height", 20.0),
            }
        else:
            initial = {"kind": "eigen_multiple", "c": kw.pop("c", 12.0)}
        boundary = {
            "Pp_dirichlet": {"kind": "dirichlet"},
            "Pp_neumann": {"kind": "extended_neumann"},
            "Pp_power": _power_boundary(alpha, q),
            "PF_power": _power_boundary(alpha, q),
        }[name]
        if kw:
            raise ConfigurationError(f"preset {name}: unknown parameters {sorted(kw)}")
        return _scalar_preset(name, boundary, p, initial, n, t_end, B, safety)

    if name in ("NR", "NR_dirichlet", "NR_obstacle"):
        a = kw.pop("a", 1.0)
        b = kw.pop("b", 1.0)
        alpha1 = kw.pop("alpha1", 1.0)
        alpha2 = kw.pop("alpha2", 1.0)
        gamma1 = kw.pop("gamma1", 2.5)
        gamma2 = kw.pop("gamma2", 2.5)
        # the default obstacle level adds them up
        u10 = {"kind": "constant", "value": _as_number(kw.pop("u10", 1.0), f"preset:{name}.u10")}
        u20 = {"kind": "constant", "value": _as_number(kw.pop("u20", 1.0), f"preset:{name}.u20")}
        if name == "NR_dirichlet":
            boundaries = [{"kind": "dirichlet"}, {"kind": "dirichlet"}]
        else:
            boundaries = [_power_boundary(alpha1, gamma1), _power_boundary(alpha2, gamma2)]
        if name == "NR_obstacle":
            level = kw.pop("level", u10["value"] + u20["value"] + 2.0)
            interiors = [{"kind": "obstacle", "level": level}] * 2
        else:
            interiors = [{"kind": "zero"}] * 2
        if kw:
            raise ConfigurationError(f"preset {name}: unknown parameters {sorted(kw)}")
        return _nr_preset(name, boundaries, interiors, a, b, u10, u20, n, t_end, B, safety)

    pair_map = {
        "Pp_pair_dirichlet_power": ("Pp_dirichlet", "Pp_power"),
        "Pp_pair_power_neumann": ("Pp_power", "Pp_neumann"),
        "NR_pair_dirichlet_power": ("NR_dirichlet", "NR"),
    }
    if name in pair_map:
        sub_name, super_name = pair_map[name]
        shared = dict(kw, n=n, t_end=t_end, blowup_threshold=B, safety=safety)
        base = _build_preset(sub_name, **shared)
        base["pair"] = {"preset": super_name, "params": shared}
        base["name"] = name
        return base

    raise ConfigurationError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")


PRESET_NAMES = (
    "Pp_dirichlet",
    "Pp_neumann",
    "Pp_power",
    "PF_power",
    "NR",
    "NR_dirichlet",
    "NR_obstacle",
    "Pp_pair_dirichlet_power",
    "Pp_pair_power_neumann",
    "NR_pair_dirichlet_power",
)


def make_preset(name: str, **params) -> Scenario:
    """Expand a preset (with optional parameter overrides) into a validated Scenario."""
    return scenario_from_dict(_build_preset(name, **params), f"preset:{name}")
