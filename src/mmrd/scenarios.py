"""Scenario files: strict JSON schema, presets and problem builders.

A scenario is its canonical JSON: the object with every key the schema
knows, every default filled in and every number as the run reads it.
``scenario_from_dict`` checks a scenario object against the schema and
keeps that canonical dict in ``Scenario.data``, next to the ``ProblemSpec``
and ``TimeControl`` built from it; ``scenario_to_dict`` returns a copy, and
parsing it again gives the same scenario.  A scenario has a domain block,
one entry per component (diffusion coefficient, interior and boundary
graphs, initial data), a reaction block, a time block, and an optional pair
block naming the second problem of a comparison run.

Each section's fields are written down once:

* graphs: ``graphs.KINDS``, params by JSON name with their defaults;
* initial data: ``_INITIAL``, each kind's fields and the field it builds;
* reactions: ``_REACTIONS``, each kind's params and constructor;
* the time block: the fields of ``TimeControl``, with its defaults.

Graphs, initial data and reactions are "kind + params" objects, read by
one check.  Parsing is strict: unknown keys are rejected and every error
message carries the JSON path of the offending field.

Presets expand to fully explicit scenarios for the problem families studied
here: the scalar power-reaction problem under Dirichlet / power-law /
Neumann boundary laws, its general-reaction variant, and the two-component
coupled system with Dirichlet, power-law or obstacle-truncated settings.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigurationError
from .graphs import KINDS, MonotoneGraph
from .mesh import Mesh
from .reactions import nuclear_reaction, power_reaction, zero_reaction
from .spectral import principal_eigenpair
from .stepper import ProblemSpec, TimeControl

__all__ = [
    "Scenario",
    "parse_scenario",
    "scenario_from_dict",
    "scenario_to_dict",
    "build_problem",
    "make_preset",
    "PRESET_NAMES",
]


@dataclass(frozen=True)
class Scenario:
    """A scenario as its canonical JSON ``data`` (see module docstring), the
    ``problem`` and ``time`` control built from it, and ``pair``, the second
    scenario of its pair block, if it has one."""

    data: dict
    problem: ProblemSpec
    time: TimeControl
    pair: Scenario | None = None


# ---------------------------------------------------------------------------
# the schema
# ---------------------------------------------------------------------------


class _Row(NamedTuple):
    params: dict  # JSON name -> default; None for a required number, _AXES for one per axis
    build: Callable


_AXES = "one number per axis"


def _bump(mesh: Mesh, center, width, height) -> np.ndarray:
    if any(w <= 0 for w in width):
        raise ConfigurationError("width: must be > 0")
    prof = np.ones(mesh.shape)
    with np.errstate(over="ignore"):  # only in the far tails, where exp gives 0
        for x, c, w in zip(mesh.coords, center, width):
            prof = prof * np.exp(-0.5 * ((x - c) / w) ** 2)
    return height * prof


# initial kinds: their fields, and the field they give on a mesh
_INITIAL = {
    "constant": _Row({"value": None}, lambda mesh, value: np.full(mesh.shape, value)),
    "eigen_multiple": _Row({"c": None},
                           lambda mesh, c: c * principal_eigenpair(mesh, "analytic").phi1),
    "bump": _Row({"center": _AXES, "width": _AXES, "height": None}, _bump),
}

# reaction kinds: their params, and the reaction for m components
_REACTIONS = {
    "zero": _Row({}, zero_reaction),
    "power": _Row({"p": None}, lambda m, p: power_reaction(p)),
    "nuclear": _Row({"a": None, "b": None}, lambda m, a, b: nuclear_reaction(a, b)),
}

_TIME = {f.name: None if f.default is dataclasses.MISSING else f.default
         for f in dataclasses.fields(TimeControl)}


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


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _as_number(v, path: str) -> float:
    """v as a finite float; a JSON number only, not a bool, a string, null
    or NaN, and not an inf (json reads 1e400 and Infinity as one) or an
    integer beyond the float range."""
    if not _is_number(v) or v != v:
        raise ConfigurationError(f"{path}: expected a number, got {v!r}")
    if abs(v) > sys.float_info.max:  # compared exactly, so no int overflows
        raise ConfigurationError(f"{path}: number out of range")
    return float(v)


def _as_integer(v, path: str) -> int:
    """v as an int; a JSON number with an integer value (3 or 3.0, not 3.9)."""
    x = _as_number(v, path)
    if not x.is_integer():
        raise ConfigurationError(f"{path}: expected an integer, got {v!r}")
    return int(x)


def _per_axis(v, path: str, dim: int | None = None, read=_as_number) -> list:
    """v as a list of values, each read by ``read``: ``dim`` of them, or any
    number of them when ``dim`` is None."""
    if not isinstance(v, (list, tuple)):
        raise ConfigurationError(f"{path}: expected an array")
    if dim not in (None, len(v)):
        raise ConfigurationError(f"{path}: expected {dim} value(s)")
    return [read(x, f"{path}[{i}]") for i, x in enumerate(v)]


def _fields(obj: dict, path: str, params: dict, dim: int = 1, required=()) -> dict:
    """The number fields ``params`` lists (JSON name -> default, as in
    ``_Row.params``), in its order; a field marked _AXES may give its one
    number for a 1D domain without the list.  ``required`` names other keys
    that ``obj`` must have, which the caller reads."""
    _check_keys(obj, path, (*required, *(k for k, d in params.items() if d in (None, _AXES))),
                tuple(params))
    out = {}
    for key, default in params.items():
        v = obj.get(key, default)
        if default is _AXES:
            out[key] = _per_axis([v] if _is_number(v) else v, f"{path}.{key}", dim)
        else:
            out[key] = _as_number(v, f"{path}.{key}")
    return out


def _kind_params(obj: dict, path: str, what: str, table: dict, dim: int = 1) -> dict:
    """A "kind + params" object in canonical form: its kind, a row of
    ``table``, then that row's params (see ``_fields``)."""
    _check_keys(obj, path, ("kind",), tuple(k for row in table.values() for k in row.params))
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in table:
        raise ConfigurationError(f"{path}.kind: unknown {what} kind {kind!r}")
    return {"kind": kind, **_fields(obj, path, table[kind].params, dim, ("kind",))}


def _prefixed(prefix: str, build: Callable, *args, **kwargs):
    """build(*args, **kwargs), with ``prefix`` put before the message of a
    ConfigurationError it raises."""
    try:
        return build(*args, **kwargs)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{prefix}{exc}") from None


def scenario_from_dict(obj: dict, path: str = "scenario", allow_pair: bool = True) -> Scenario:
    """Check a scenario object against the schema and build it.  Every
    error message starts with the JSON path at fault, under ``path``; with
    ``allow_pair`` false a pair block is an unknown key."""
    optional = ("name", "pair") if allow_pair else ("name",)
    _check_keys(obj, path, ("domain", "components", "reaction", "time"), optional)

    dom = obj["domain"]
    _check_keys(dom, f"{path}.domain", ("dim", "lengths", "counts"))
    # Mesh checks the dim, the number of lengths and counts and their ranges
    dim = _as_integer(dom["dim"], f"{path}.domain.dim")
    lengths = _per_axis(dom["lengths"], f"{path}.domain.lengths")
    counts = _per_axis(dom["counts"], f"{path}.domain.counts", read=_as_integer)
    mesh = _prefixed(f"{path}.domain.", Mesh, dim, tuple(lengths), tuple(counts))

    # graphs and initial data are built as they are read: a graph's or a
    # bump's error names the param at fault, after the object's path
    comps_obj = obj["components"]
    if not isinstance(comps_obj, list) or not comps_obj:
        raise ConfigurationError(f"{path}.components: expected a non-empty array")
    components, graphs, initial = [], {"interior_graph": [], "boundary_graph": []}, []
    for i, cobj in enumerate(comps_obj):
        cpath = f"{path}.components[{i}]"
        _check_keys(cobj, cpath, ("diffusion", "interior_graph", "boundary_graph", "initial"))
        comp = {"diffusion": _as_number(cobj["diffusion"], f"{cpath}.diffusion")}
        if comp["diffusion"] <= 0:
            raise ConfigurationError(f"{cpath}.diffusion: must be > 0, got {comp['diffusion']}")
        for key, built in graphs.items():
            comp[key] = _kind_params(cobj[key], f"{cpath}.{key}", "graph", KINDS)
            kind, *params = comp[key].values()
            built.append(_prefixed(f"{cpath}.{key}.", MonotoneGraph, kind, tuple(params)))
        comp["initial"] = _kind_params(cobj["initial"], f"{cpath}.initial", "initial", _INITIAL, dim)
        kind, *params = comp["initial"].values()
        initial.append(_prefixed(f"{cpath}.initial.", _INITIAL[kind].build, mesh, *params))
        components.append(comp)

    rpath = f"{path}.reaction"
    reaction = _kind_params(obj["reaction"], rpath, "reaction", _REACTIONS)
    kind, *params = reaction.values()
    F = _prefixed(f"{rpath}: ", _REACTIONS[kind].build, len(components), *params)
    if F.m != len(components):
        raise ConfigurationError(f"{rpath}: {kind} reaction needs exactly {F.m} "
                                 f"component{'s' * (F.m > 1)}, got {len(components)}")

    time = _fields(obj["time"], f"{path}.time", _TIME)
    tc = _prefixed(f"{path}.time: ", TimeControl, **time)

    name = obj.get("name", "")
    if not isinstance(name, str):
        raise ConfigurationError(f"{path}.name: expected a string")
    data = {
        "name": name,
        "domain": {"dim": dim, "lengths": lengths, "counts": counts},
        "components": components,
        "reaction": reaction,
        "time": time,
    }

    pair = None
    if "pair" in obj:
        ppath = f"{path}.pair"
        pobj = obj["pair"]
        _check_keys(pobj, ppath, (), ("scenario", "preset", "params", "override_a3", "override_a4"))
        if ("scenario" in pobj) == ("preset" in pobj):
            raise ConfigurationError(f"{ppath}: exactly one of 'scenario' and 'preset' is required")
        if "scenario" in pobj:
            pair = scenario_from_dict(pobj["scenario"], f"{ppath}.scenario", allow_pair=False)
        else:
            params = pobj.get("params", {})
            if not isinstance(params, dict):
                raise ConfigurationError(f"{ppath}.params: expected an object")
            pair = make_preset(pobj["preset"], **params)
        flags = {flag: pobj.get(flag, False) for flag in ("override_a3", "override_a4")}
        for flag, v in flags.items():
            if not isinstance(v, bool):
                raise ConfigurationError(f"{ppath}.{flag}: expected a boolean")
        # a pair preset named as the second problem keeps no pair of its own
        second = {k: v for k, v in pair.data.items() if k != "pair"}
        data["pair"] = {"scenario": second, **flags}

    problem = ProblemSpec(mesh, tuple(c["diffusion"] for c in components), F,
                          tuple(graphs["interior_graph"]), tuple(graphs["boundary_graph"]),
                          np.stack(initial))
    return Scenario(data, problem, tc, pair)


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario from JSON text."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"scenario is not valid JSON: {exc}") from None
    return scenario_from_dict(obj)


def scenario_to_dict(s: Scenario) -> dict:
    """The scenario's canonical JSON (a copy)."""
    return copy.deepcopy(s.data)


def build_problem(s: Scenario) -> tuple[ProblemSpec, TimeControl]:
    """The runnable (ProblemSpec, TimeControl) of a scenario, built when it was parsed."""
    return s.problem, s.time


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


def _power_boundary(alpha: float, q: float) -> dict:
    if alpha == 0.0:
        return {"kind": "extended_neumann"}
    return {"kind": "extended_power", "alpha": alpha, "q": q}


def _build_preset(name: str, /, **kw) -> dict:
    """Raw scenario dict for a named preset; keyword arguments override the
    desk-scale defaults (p, alpha, q, c, a, b, n, t_end, ...)."""
    if name not in PRESET_NAMES:
        raise ConfigurationError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    n = _as_integer(kw.pop("n", 101), f"preset:{name}.n")
    time = {"t_end": kw.pop("t_end", 1.0), "blowup_threshold": kw.pop("blowup_threshold", 1e3)}
    if "safety" in kw:  # else TimeControl's default, as for dt_init and dt_min
        time["safety"] = kw.pop("safety")

    pair_map = {
        "Pp_pair_dirichlet_power": ("Pp_dirichlet", "Pp_power"),
        "Pp_pair_power_neumann": ("Pp_power", "Pp_neumann"),
        "NR_pair_dirichlet_power": ("NR_dirichlet", "NR"),
    }
    if name in pair_map:
        sub_name, super_name = pair_map[name]
        shared = dict(kw, n=n, **time)
        base = _build_preset(sub_name, **shared)
        base["pair"] = {"preset": super_name, "params": shared}
        base["name"] = name
        return base

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
        initials = [u10, u20]
        reaction = {"kind": "nuclear", "a": a, "b": b}
    else:
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
        interiors, boundaries, initials = [{"kind": "zero"}], [boundary], [initial]
        reaction = {"kind": "power", "p": p}
    if kw:
        raise ConfigurationError(f"preset {name}: unknown parameters {sorted(kw)}")
    return {
        "name": name,
        "domain": {"dim": 1, "lengths": [1.0], "counts": [n]},
        "components": [
            {"diffusion": 1.0, "interior_graph": i, "boundary_graph": b, "initial": u0}
            for i, b, u0 in zip(interiors, boundaries, initials)
        ],
        "reaction": reaction,
        "time": time,
    }


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


def make_preset(name: str, /, **params) -> Scenario:
    """Expand a preset (with optional parameter overrides) into a validated Scenario."""
    return scenario_from_dict(_build_preset(name, **params), f"preset:{name}")
