"""The benchmark's workloads.

A workload turns a seed into inputs (``__init__``), builds problems from them
(``setup``, counted in ``setup_s``), runs one round of mmrd operations
(``solve``, timed as ``solve_s``) and checks that round's outputs (``check``,
not timed).  Every round of one process repeats the same operations on the
same inputs.  mmrd is called through module attributes at call time
(``mmrd.run``, ``mmrd.cli.main``) so that a traced run sees every call.

The inputs and the reason for each workload are in README.md.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import random
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import mmrd
import mmrd.cli

import checks


@dataclass
class Round:
    """Outputs of one round: ``data`` maps an operation label to its result
    (None when the operation failed), ``failed`` counts failed operations."""

    data: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0

    def attempt(self, label: str, op):
        """Run one operation; an exception counts it as failed."""
        self.attempted += 1
        try:
            result = op()
        except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
            result = None
        if result is None or getattr(result, "status", "") == "solver_failure":
            self.failed += 1
            result = None
        self.data[label] = result
        return result


def _band(rng: random.Random, centre: float, rel: float) -> float:
    """Uniform draw in centre * [1 - rel, 1 + rel]."""
    return centre * (1.0 + rel * (2.0 * rng.random() - 1.0))


@dataclass
class KeptRun:
    """A trajectory with every accepted state, and its blow-up verdict."""

    traj: object
    states: np.ndarray
    verdict: object = None

    @property
    def status(self) -> str:
        return self.traj.status


def _run_keeping_states(problem, tc) -> KeptRun:
    """mmrd.run with an observer that keeps a copy of every accepted state."""
    states = []

    def keep(t, S):
        states.append(S.copy())
        return {}

    traj = mmrd.run(problem, tc, observer=keep)
    return KeptRun(traj, np.asarray(states))


class Workload:
    name = ""
    workdir: Path | None = None  # where a workload may write files; None: the system default

    def setup(self) -> None:
        raise NotImplementedError

    def solve(self) -> Round:
        raise NotImplementedError

    def check(self, rnd: Round) -> list[str]:
        raise NotImplementedError

    def close(self) -> None:
        pass


class Blowup1D(Workload):
    """Scalar u_t = u_xx + u^2, u0 = c * phi1, to blow-up under three boundary laws."""

    name = "blowup_1d"
    LAWS = (
        ("neumann", lambda: mmrd.extended_neumann_graph(), ("neumann",)),
        ("power", lambda: mmrd.extended_power_graph(1.0, 2.5), ("power", 1.0, 2.5)),
        ("dirichlet", lambda: mmrd.dirichlet_graph(), None),
    )

    def __init__(self, seed: int, smoke: bool = False):
        rng = random.Random(seed)
        self.c = _band(rng, 12.0, 0.02)
        self.n = 21 if smoke else 51
        self.p = 3.0

    def setup(self):
        mesh = mmrd.build_mesh(1, [1.0], [self.n])
        self.u0 = self.c * mmrd.principal_eigenpair(mesh).phi1
        self.problems = [
            (label, mmrd.ProblemSpec(mesh, (1.0,), mmrd.power_reaction(self.p),
                                     (mmrd.zero_graph(),), (make(),), np.asarray([self.u0])))
            for label, make, _ in self.LAWS
        ]
        self.tc = mmrd.TimeControl(t_end=1.0, blowup_threshold=1e3, safety=1.0)

    def solve(self):
        rnd = Round()
        for label, P in self.problems:
            kept = rnd.attempt(label, lambda: _run_keeping_states(P, self.tc))
            if kept is not None:
                kept.verdict = mmrd.detect_blowup(kept.traj)
        return rnd

    def check(self, rnd):
        if any(v is None for v in rnd.data.values()):
            return []
        fails = []
        for label, kept in rnd.data.items():
            if kept.status != "blowup" or kept.verdict.kind != "blowup":
                fails.append(f"{label}: ended with status {kept.status!r}, expected blow-up")
            fails += checks.check_nonnegative(label, kept.traj.min_values)
        if fails:
            return fails
        for label, _, law in self.LAWS:
            if law is None:
                continue
            kept = rnd.data[label]
            defects = checks.balance_defects_1d(kept.traj.times, kept.states[:, 0, :], self.p, law)
            fails += checks.check_balance(label, defects)
        tb = {label: kept.verdict.t_blowup for label, kept in rnd.data.items()}
        slack = max(float(kept.traj.dts.max()) for kept in rnd.data.values())
        fails += checks.check_blowup_times(
            tb["neumann"], tb["power"], tb["dirichlet"], self.u0, checks.kaplan_moment(self.u0), slack
        )
        return fails


class PairReactor(Workload):
    """``mmrd compare --preset NR_pair_dirichlet_power`` through mmrd.cli.main."""

    name = "pair_reactor"

    def __init__(self, seed: int, smoke: bool = False):
        rng = random.Random(seed)
        self.params = {
            "t_end": 0.01 if smoke else 0.04,
            "u10": round(_band(rng, 1.0, 0.02), 6),
            "u20": round(_band(rng, 1.0, 0.02), 6),
        }
        if smoke:
            self.params["n"] = 21
        self.n = self.params.get("n", 101)

    def setup(self):
        self._tmp = tempfile.TemporaryDirectory(prefix="pair_reactor-", dir=self.workdir)
        self.out = Path(self._tmp.name)
        self.argv = ["compare", "--preset", "NR_pair_dirichlet_power",
                     "--params", json.dumps(self.params), "--out", str(self.out)]
        # Keep the ComparisonReport that cli.main's run_pair returns: the CLI
        # writes no final states, and the nodewise ordering check needs them.
        # The pass-through costs one extra call per round.
        self.reports = []
        self._cli_run_pair = inspect.unwrap(mmrd.cli.run_pair)  # not a tracing wrapper

        def keep_report(*args, **kwargs):
            rep = mmrd.compare.run_pair(*args, **kwargs)
            self.reports.append(rep)
            return rep

        mmrd.cli.run_pair = keep_report

    def solve(self):
        rnd = Round()
        self.reports.clear()
        stdout = io.StringIO()

        def compare():
            with contextlib.redirect_stdout(stdout):
                code = mmrd.cli.main(self.argv)
            return None if code in (mmrd.cli.EXIT_CONFIG, mmrd.cli.EXIT_SOLVER) else code

        rnd.attempt("cli", compare)
        return rnd

    def check(self, rnd):
        code = rnd.data["cli"]
        if code is None:
            return []
        if code != 0:
            return [f"mmrd compare exited with {code}, expected 0"]
        if len(self.reports) != 1:
            return [f"expected one run_pair call per CLI call, saw {len(self.reports)}"]
        rep = self.reports[0]
        sub = checks.read_trajectory_csv(self.out / "sub_trajectory.csv")
        sup = checks.read_trajectory_csv(self.out / "super_trajectory.csv")
        sup_cols = [k for k in sub if k.startswith("supnorm_")]
        sup_max = max(float(np.max(cols[k])) for cols in (sub, sup) for k in sup_cols)
        tol = checks.tol_order((1.0 / (self.n - 1)) ** 2, float(np.max(sub["dt"])), sup_max)
        fails = checks.check_pair_csvs(sub, sup, tol)
        excess = float(np.max(rep.traj_sub.final_state - rep.traj_super.final_state))
        if not excess <= tol:
            fails.append(f"final states not ordered: sub exceeds super by {excess:.3e} > {tol:.3e}")
        edges = rep.traj_sub.final_state[:, [0, -1]]
        if np.any(edges != 0.0):
            fails.append(f"Dirichlet sub has nonzero boundary values {edges.ravel().tolist()}")
        for label, traj in (("sub", rep.traj_sub), ("super", rep.traj_super)):
            fails += checks.check_nonnegative(label, traj.min_values)
        return fails

    def close(self):
        mmrd.cli.run_pair = self._cli_run_pair
        self._tmp.cleanup()


class ObstacleReactor(Workload):
    """NR_obstacle with an inactive and a binding obstacle, against an NR reference."""

    name = "obstacle_reactor"
    LEVEL = 1.01

    def __init__(self, seed: int, smoke: bool = False):
        rng = random.Random(seed)
        self.shared = {
            "n": 21 if smoke else 41,
            "t_end": 0.02 if smoke else 0.015,
            "u10": round(_band(rng, 1.0, 0.002), 6),
            "u20": round(_band(rng, 1.0, 0.002), 6),
        }

    def setup(self):
        self.problems = {
            label: mmrd.build_problem(mmrd.make_preset(preset, **self.shared, **extra))
            for label, preset, extra in (
                ("reference", "NR", {}),
                ("inactive", "NR_obstacle", {}),
                ("binding", "NR_obstacle", {"level": self.LEVEL}),
            )
        }

    def solve(self):
        rnd = Round()
        for label, (P, tc) in self.problems.items():
            rnd.attempt(label, lambda: mmrd.run(P, tc))
        return rnd

    def check(self, rnd):
        if any(v is None for v in rnd.data.values()):
            return []
        ref, inactive, binding = rnd.data["reference"], rnd.data["inactive"], rnd.data["binding"]
        fails = []
        for label, traj in rnd.data.items():
            if traj.status != "completed":
                fails.append(f"{label}: ended with status {traj.status!r}")
            fails += checks.check_nonnegative(label, traj.min_values)
        gap = float(np.max(np.abs(inactive.final_state - ref.final_state)))
        if not gap <= 1e-9:
            fails.append(f"inactive obstacle differs from the NR run by {gap:.3e}")
        top = float(binding.sup_norms.max())
        if not top <= self.LEVEL:
            fails.append(f"binding obstacle: value {top!r} above the level {self.LEVEL}")
        excess = float(np.max(binding.final_state - ref.final_state))
        if not excess <= 1e-9:
            fails.append(f"binding obstacle exceeds the NR run by {excess:.3e}")
        if not (ref.final_state.max() > self.LEVEL and top == self.LEVEL):
            fails.append("the obstacle level never binds; the workload misses its purpose")
        return fails


class Plate2D(Workload):
    """2D power reaction with power-law boundary radiation, plus a discrete eigenpair."""

    name = "plate_2d"

    def __init__(self, seed: int, smoke: bool = False):
        rng = random.Random(seed)
        self.n = 11 if smoke else 41
        self.p = 3.0
        self.law = ("power", 1.0, 2.5)
        self.scenario = {
            "name": "plate_2d",
            "domain": {"dim": 2, "lengths": [1.0, 1.0], "counts": [self.n, self.n]},
            "components": [{
                "diffusion": 1.0,
                "interior_graph": {"kind": "zero"},
                "boundary_graph": {"kind": "extended_power", "alpha": 1.0, "q": 2.5},
                "initial": {"kind": "bump",
                            "center": [_band(rng, 0.5, 0.1), _band(rng, 0.5, 0.1)],
                            "width": [0.1, 0.1], "height": 3.0},
            }],
            "reaction": {"kind": "power", "p": self.p},
            "time": {"t_end": 0.02 if smoke else 0.08, "blowup_threshold": 1e3},
        }

    def setup(self):
        self.problem, self.tc = mmrd.build_problem(mmrd.scenarios.scenario_from_dict(self.scenario))

    def solve(self):
        rnd = Round()
        rnd.attempt("eigenpair", lambda: mmrd.principal_eigenpair(self.problem.mesh, "discrete"))
        rnd.attempt("run", lambda: _run_keeping_states(self.problem, self.tc))
        return rnd

    def check(self, rnd):
        fails = []
        ep, out = rnd.data["eigenpair"], rnd.data["run"]
        if ep is not None:
            fails += checks.check_lambda1(ep.lambda1, self.n)
        if out is not None:
            if out.status != "completed":
                fails.append(f"run ended with status {out.status!r}, expected completed")
            fails += checks.check_nonnegative("run", out.traj.min_values)
            defects = checks.balance_defects_2d(out.traj.times, out.states[:, 0], self.p, self.law)
            fails += checks.check_balance("run", defects)
        return fails


WORKLOADS = {w.name: w for w in (Blowup1D, PairReactor, ObstacleReactor, Plate2D)}
