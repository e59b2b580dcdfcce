"""Command-line interface: run scenarios, compare pairs, eigenpairs, bounds.

Exit codes:
    0  completed
    1  configuration error (bad scenario, bad arguments)
    2  blow-up detected (an expected terminal state, not an error)
    3  ordering violation in a comparison run
    4  assumption-check failure in a comparison run
    5  solver failure
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .compare import check_assumptions, run_pair
from .errors import ConfigurationError
from .scenarios import (
    PRESET_NAMES,
    Scenario,
    build_problem,
    make_preset,
    parse_scenario,
    scenario_to_dict,
)
from .spectral import (
    check_nr_initial,
    kaplan_threshold,
    kaplan_y,
    kaplan_z,
    principal_eigenpair,
    riccati_blowup_time,
)
from .stepper import Trajectory, detect_blowup, local_existence_horizon, run

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_BLOWUP = 2
EXIT_ORDER_VIOLATION = 3
EXIT_ASSUMPTIONS = 4
EXIT_SOLVER = 5


def _load_scenario(args) -> Scenario:
    if (args.scenario is None) == (args.preset is None):
        raise ConfigurationError("exactly one of --scenario and --preset is required")
    if args.scenario is not None:
        return parse_scenario(Path(args.scenario).read_text(encoding="utf-8"))
    try:
        params = json.loads(args.params) if args.params else {}
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"--params is not valid JSON: {exc}") from exc
    if not isinstance(params, dict):
        raise ConfigurationError("--params must be a JSON object")
    return make_preset(args.preset, **params)


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _stamp(scenario: Scenario) -> str:
    return f"# mmrd {__version__} scenario={scenario.data['name'] or 'unnamed'}"


def write_csv(traj: Trajectory, path: Path, stamp: str) -> None:
    """Trajectory CSV: one row per accepted step, one sup-norm column per
    component, y/z columns filled where ``traj.extras`` holds them (the
    coupled system's Kaplan moments), trailing comment line with the status."""
    m = traj.sup_norms.shape[1]
    sup_cols = ",".join(f"supnorm_k{k + 1}" for k in range(m))
    n = len(traj.times)

    def cells(key):
        values = traj.extras.get(key)
        return [""] * n if values is None else [f"{v:.12g}" for v in values.tolist()]

    statuses = [""] * (n - 1) + [traj.status]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(stamp + "\n")
        fh.write(f"t,dt,{sup_cols},y,z,status\n")
        for t, dt, sups, y, z, status in zip(traj.times.tolist(), traj.dts.tolist(),
                                             traj.sup_norms.tolist(), cells("y"), cells("z"),
                                             statuses):
            sups = ",".join(f"{v:.12g}" for v in sups)
            fh.write(f"{t:.12g},{dt:.12g},{sups},{y},{z},{status}\n")
        verdict = detect_blowup(traj)
        if verdict.kind == "blowup":
            fh.write(f"# status={traj.status} T_b={verdict.t_blowup:.12g}\n")
        else:
            fh.write(f"# status={traj.status}\n")


def _nuclear_observer(problem):
    """Per-step Kaplan moments y(t), z(t) for the coupled system."""
    if problem.reaction.kind != "nuclear":
        return None
    ep = principal_eigenpair(problem.mesh, "analytic")
    a, b = problem.reaction.a, problem.reaction.b

    def observer(t, state):
        out = {"y": kaplan_y(state[1], ep)}
        if a > 0:
            out["z"] = kaplan_z(state[0], state[1], a, b, ep)
        return out

    return observer


def _status_exit(status: str) -> int:
    return {"completed": EXIT_OK, "blowup": EXIT_BLOWUP, "solver_failure": EXIT_SOLVER}[status]


def cmd_run(args) -> int:
    scenario = _load_scenario(args)
    out = _outdir(args)
    problem, tc = build_problem(scenario)
    traj = run(problem, tc, observer=_nuclear_observer(problem))
    write_csv(traj, out / "trajectory.csv", _stamp(scenario))
    verdict = detect_blowup(traj)
    summary = {
        "version": __version__,
        "scenario": scenario_to_dict(scenario),
        "status": traj.status,
        "t_final": float(traj.times[-1]),
        "steps": int(len(traj.times) - 1),
        "final_sup_norms": [float(v) for v in traj.sup_norms[-1]],
        "t_blowup": verdict.t_blowup,
        "t_blowup_ci": verdict.ci_width,
        "note": traj.note,
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2), encoding="utf-8")
    print(f"status: {traj.status}")
    if verdict.kind == "blowup":
        print(f"T_b estimate: {verdict.t_blowup:.6g} (ci width {verdict.ci_width:.2g})")
    print(f"wrote {out / 'trajectory.csv'}")
    return _status_exit(traj.status)


def cmd_compare(args) -> int:
    scenario = _load_scenario(args)
    if scenario.pair is None:
        raise ConfigurationError("compare needs a scenario with a 'pair' block")
    out = _outdir(args)
    p_sub, tc = build_problem(scenario)
    p_super, _ = build_problem(scenario.pair)
    a3 = scenario.data["pair"]["override_a3"] or args.override_a3
    a4 = scenario.data["pair"]["override_a4"] or args.override_a4
    stamp = _stamp(scenario)

    assumptions = check_assumptions(p_sub, p_super, a3_apriori=a3, a4_apriori=a4)
    report = assumptions
    if assumptions.passed:
        report = run_pair(p_sub, p_super, tc, assumptions=assumptions,
                          observer=_nuclear_observer(p_sub))
        write_csv(report.traj_sub, out / "sub_trajectory.csv", stamp)
        write_csv(report.traj_super, out / "super_trajectory.csv", stamp)
    lines = report.summary_lines()
    (out / "compare_report.txt").write_text("\n".join([stamp, *lines]) + "\n", encoding="utf-8")
    print("\n".join(lines))

    if not assumptions.passed:
        return EXIT_ASSUMPTIONS
    statuses = (report.traj_sub.status, report.traj_super.status)
    if "solver_failure" in statuses:
        return EXIT_SOLVER
    if not report.ordering_ok or not report.gronwall_ok:
        return EXIT_ORDER_VIOLATION
    if "blowup" in statuses:
        return EXIT_BLOWUP
    return EXIT_OK


def cmd_eigen(args) -> int:
    scenario = _load_scenario(args)
    out = _outdir(args)
    mesh = scenario.problem.mesh
    ep = principal_eigenpair(mesh, args.method)
    print(f"lambda1 = {ep.lambda1:.12g} ({args.method})")
    path = out / "eigenfunction.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_stamp(scenario) + "\n")
        fh.write(",".join(["x", "y", "z"][:mesh.dim] + ["phi1"]) + "\n")
        for row in zip(*(x.ravel() for x in mesh.coords), ep.phi1.ravel()):
            fh.write(",".join(f"{v:.12g}" for v in row) + "\n")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_bound(args) -> int:
    scenario = _load_scenario(args)
    problem, _ = build_problem(scenario)
    F = problem.reaction
    u0_sup = float(sum(np.max(np.abs(problem.initial[k])) for k in range(problem.m)))
    t0 = local_existence_horizon(u0_sup, F)
    print(f"sup norm of the initial data (summed over components): {u0_sup:.6g}")
    print(f"T0 (guaranteed existence horizon): {t0:.6g}")
    ep = principal_eigenpair(problem.mesh, "analytic")
    if F.kind == "power":
        moment = kaplan_y(problem.initial[0], ep)
        threshold = kaplan_threshold(F.p, ep.lambda1)
        status = "supercritical (blow-up guaranteed)" if moment > threshold else "subcritical"
        print(f"Kaplan moment of u0: {moment:.6g}")
        print(f"Kaplan threshold lambda1^(1/(p-2)): {threshold:.6g} -> {status}")
    elif F.kind == "nuclear":
        if F.a > 0:
            v = check_nr_initial(problem.initial[0], problem.initial[1], F.a, F.b, ep)
            print(f"coupled-system initial check: z0 = {v.z0:.6g} (needs >= 0), "
                  f"y0 = {v.y0:.6g} (needs > {v.y0_threshold:.6g})")
            print(f"conditions {'satisfied' if v.satisfied else f'violated ({v.failed})'}")
            tstar = riccati_blowup_time(v.y0, F.b + ep.lambda1)
            if math.isinf(tstar):
                print("Riccati bound T*: +inf (no blow-up forced at this data)")
            else:
                print(f"Riccati bound T*: {tstar:.6g}")
        else:
            print("a = 0: every local solution continues globally; no blow-up data exist")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mmrd",
        description="Reaction-diffusion runs with monotone-graph boundary laws: "
        "simulation, comparison checks and blow-up bounds.",
    )
    parser.add_argument("--version", action="version", version=f"mmrd {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_overrides=False, with_method=False):
        p.add_argument("--scenario", help="path to a scenario JSON file")
        p.add_argument("--preset", help=f"preset name ({', '.join(PRESET_NAMES)})")
        p.add_argument("--params", help="JSON object with preset parameter overrides")
        p.add_argument("--out", default="mmrd_out", help="output directory")
        if with_overrides:
            p.add_argument("--override-a3", action="store_true",
                           help="assume the boundary-law ordering a priori")
            p.add_argument("--override-a4", action="store_true",
                           help="assume the reaction ordering a priori")
        if with_method:
            p.add_argument("--method", choices=("analytic", "discrete"), default="analytic")

    common(sub.add_parser("run", help="run one scenario, write trajectory CSV"))
    common(sub.add_parser("compare", help="check assumptions and co-evolve a pair"),
           with_overrides=True)
    common(sub.add_parser("eigen", help="principal Dirichlet eigenpair of the domain"),
           with_method=True)
    common(sub.add_parser("bound", help="existence horizon, Kaplan and Riccati bounds"))

    args = parser.parse_args(argv)
    handler = {
        "run": cmd_run,
        "compare": cmd_compare,
        "eigen": cmd_eigen,
        "bound": cmd_bound,
    }[args.command]
    try:
        return handler(args)
    except (ConfigurationError, OSError, UnicodeDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
