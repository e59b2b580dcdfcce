"""Tests for scenario parsing, presets, CSV output and CLI exit codes."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mmrd.cli
from mmrd.cli import main
from mmrd.errors import ConfigurationError
from mmrd.graphs import MonotoneGraph
from mmrd.scenarios import (
    PRESET_NAMES,
    build_problem,
    make_preset,
    parse_scenario,
    scenario_from_dict,
    scenario_to_dict,
)

BASE = {
    "name": "demo",
    "domain": {"dim": 1, "lengths": [1.0], "counts": [31]},
    "components": [
        {
            "diffusion": 1.0,
            "interior_graph": {"kind": "zero"},
            "boundary_graph": {"kind": "extended_power", "alpha": 1.0, "q": 2.5},
            "initial": {"kind": "eigen_multiple", "c": 12.0},
        }
    ],
    "reaction": {"kind": "power", "p": 3.0},
    "time": {"t_end": 0.5, "blowup_threshold": 1e3},
}

# (graph JSON, its canonical form, the graph it names): each of the seven
# kinds, with params given and left out
GRAPHS_BY_KIND = [
    ({"kind": "zero"}, {"kind": "zero"}, MonotoneGraph("zero")),
    ({"kind": "linear", "slope": 0.5}, {"kind": "linear", "slope": 0.5},
     MonotoneGraph("linear", (0.5,))),
    ({"kind": "linear"}, {"kind": "linear", "slope": 1.0}, MonotoneGraph("linear", (1.0,))),
    ({"kind": "power", "alpha": 2.0, "q": 3.0}, {"kind": "power", "alpha": 2.0, "q": 3.0},
     MonotoneGraph("power", (2.0, 3.0))),
    ({"kind": "power"}, {"kind": "power", "alpha": 1.0, "q": 2.0}, MonotoneGraph("power", (1.0, 2.0))),
    ({"kind": "dirichlet"}, {"kind": "dirichlet"}, MonotoneGraph("dirichlet")),
    ({"kind": "extended_power", "q": 2.5}, {"kind": "extended_power", "alpha": 1.0, "q": 2.5},
     MonotoneGraph("extended_power", (1.0, 2.5))),
    ({"kind": "extended_neumann"}, {"kind": "extended_neumann"}, MonotoneGraph("extended_neumann")),
    ({"kind": "obstacle", "level": 2.0}, {"kind": "obstacle", "level": 2.0},
     MonotoneGraph("obstacle", (2.0,))),
    ({"kind": "obstacle"}, {"kind": "obstacle", "level": 1.0}, MonotoneGraph("obstacle", (1.0,))),
]


def test_parse_scenario_roundtrip_idempotent():
    s1 = parse_scenario(json.dumps(BASE))
    d1 = scenario_to_dict(s1)
    s2 = parse_scenario(json.dumps(d1))
    assert scenario_to_dict(s2) == d1
    # every kind survives the round trip, a left-out param takes its JSON
    # default, and the problem holds the graph the JSON names
    for given, canonical, graph in GRAPHS_BY_KIND:
        obj = json.loads(json.dumps(BASE))
        obj["components"][0]["interior_graph"] = given
        obj["components"][0]["boundary_graph"] = given
        d1 = scenario_to_dict(parse_scenario(json.dumps(obj)))
        assert d1["components"][0]["boundary_graph"] == canonical
        s2 = parse_scenario(json.dumps(d1))
        assert scenario_to_dict(s2) == d1
        problem, _ = build_problem(s2)
        assert problem.interior == problem.boundary == (graph,)


def test_parse_rejects_unknown_keys_with_path():
    bad = json.loads(json.dumps(BASE))
    bad["components"][0]["boundary_graph"]["wibble"] = 1
    with pytest.raises(ConfigurationError, match=r"components\[0\].boundary_graph.wibble"):
        parse_scenario(json.dumps(bad))


def test_parse_rejects_bad_exponent_with_path():
    bad = json.loads(json.dumps(BASE))
    bad["components"][0]["boundary_graph"]["q"] = 1.0
    with pytest.raises(ConfigurationError, match=r"components\[0\].boundary_graph.q"):
        parse_scenario(json.dumps(bad))
    for graph, key in (({"kind": "power", "alpha": -1.0}, "alpha"),
                       ({"kind": "obstacle", "level": 0.0}, "level"),
                       ({"kind": "linear", "slope": -0.5}, "slope"),
                       ({"kind": "nonsense"}, "kind")):
        bad["components"][0]["boundary_graph"] = graph
        with pytest.raises(ConfigurationError, match=rf"components\[0\].boundary_graph.{key}:"):
            parse_scenario(json.dumps(bad))


def test_parse_reads_dim_as_an_integer():
    # "dim": 1.0 runs like 1, as a count of 11.0 runs like 11
    obj = json.loads(json.dumps(BASE))
    obj["components"][0]["initial"] = {"kind": "bump", "center": 0.5, "width": 0.1, "height": 3.0}
    s1 = parse_scenario(json.dumps(obj))
    obj["domain"]["dim"] = 1.0
    s2 = parse_scenario(json.dumps(obj))
    assert type(scenario_to_dict(s2)["domain"]["dim"]) is int
    assert scenario_to_dict(s2) == scenario_to_dict(s1)
    np.testing.assert_array_equal(build_problem(s2)[0].initial, build_problem(s1)[0].initial)


# (section, key, value, message), the NaN cases under their first ids
NON_FINITE_CASES = [
    pytest.param(section, key, value, message,
                 id=f"{section}-{key}" + ("" if value == "nan" else f"-{value}"))
    for section, key in [("components", "diffusion"), ("time", "t_end")]
    for value, message in [("nan", "expected a number, got nan"), ("inf", "number out of range"),
                           ("-inf", "number out of range")]
]


@pytest.mark.parametrize("section, key, value, message", NON_FINITE_CASES)
def test_cli_scenario_with_nan_exit_1(tmp_path, capsys, section, key, value, message):
    # a NaN diffusion reported a false blow-up (exit 2), and a NaN t_end
    # completed (exit 0) after no step; an inf diffusion reported a blow-up,
    # and an inf t_end never ended
    obj = json.loads(json.dumps(BASE))
    where = obj[section][0] if section == "components" else obj[section]
    where[key] = float(value)
    scen = tmp_path / "scenario.json"
    scen.write_text(json.dumps(obj), encoding="utf-8")  # NaN or Infinity, which json reads back
    assert main(["run", "--scenario", str(scen), "--out", str(tmp_path / "out")]) == 1
    path = "components[0]" if section == "components" else section
    assert f"scenario.{path}.{key}: {message}" in capsys.readouterr().err


def test_parse_rejects_component_count_mismatch():
    bad = json.loads(json.dumps(BASE))
    bad["reaction"] = {"kind": "nuclear", "a": 1.0, "b": 1.0}
    with pytest.raises(ConfigurationError, match="2 components"):
        parse_scenario(json.dumps(bad))


def test_parse_initial_kinds():
    # a bump narrower than the mesh overflows nothing: its tails are 0
    for init in (
        {"kind": "constant", "value": 2.0},
        {"kind": "bump", "center": 0.5, "width": 0.1, "height": 3.0},
        {"kind": "bump", "center": 0.5, "width": 1e-200, "height": 3.0},
    ):
        obj = json.loads(json.dumps(BASE))
        obj["components"][0]["initial"] = init
        problem, _ = build_problem(parse_scenario(json.dumps(obj)))
        assert problem.initial.shape == (1, 31)
        assert np.max(problem.initial) > 0


def test_presets_expand_deterministically_and_validate():
    for name in PRESET_NAMES:
        s1 = make_preset(name)
        s2 = make_preset(name)
        assert scenario_to_dict(s1) == scenario_to_dict(s2)
        build_problem(s1)


def test_preset_dirichlet_boundary():
    s = make_preset("Pp_dirichlet", p=3.0)
    assert s.problem.boundary[0].kind == "dirichlet"
    assert s.problem.reaction.kind == "power" and s.problem.reaction.p == 3.0


def test_preset_nr_alpha_zero_gives_neumann():
    s = make_preset("NR", alpha1=0.0, alpha2=0.0)
    assert s.problem.boundary[0].kind == "extended_neumann"
    assert s.problem.boundary[1].kind == "extended_neumann"


def test_preset_unknown_parameter_rejected():
    with pytest.raises(ConfigurationError, match="unknown parameters"):
        make_preset("Pp_dirichlet", nonsense=1.0)


def test_cli_run_blowup_exit_code_and_csv(tmp_path):
    scen = tmp_path / "s.json"
    scen.write_text(json.dumps(dict(BASE, name="cli-run")), encoding="utf-8")
    code = main(["run", "--scenario", str(scen), "--out", str(tmp_path / "out")])
    assert code == 2  # blow-up is an expected terminal state
    csv = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    assert csv[0].startswith("# mmrd ")
    assert csv[1] == "t,dt,supnorm_k1,y,z,status"
    assert csv[-1].startswith("# status=blowup T_b=")
    row0 = csv[2].split(",")
    assert float(row0[0]) == 0.0 and row0[3] == "" and row0[4] == ""
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["status"] == "blowup" and summary["t_blowup"] > 0


def test_cli_run_completed_exit_code(tmp_path):
    obj = json.loads(json.dumps(BASE))
    obj["components"][0]["initial"] = {"kind": "constant", "value": 0.0}
    obj["time"]["t_end"] = 0.01
    scen = tmp_path / "s.json"
    scen.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["run", "--scenario", str(scen), "--out", str(tmp_path / "out")]) == 0


def test_cli_run_nuclear_csv_has_y_column(tmp_path):
    code = main([
        "run", "--preset", "NR",
        "--params", json.dumps({"n": 21, "t_end": 0.01}),
        "--out", str(tmp_path / "out"),
    ])
    assert code == 0
    lines = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    assert lines[1] == "t,dt,supnorm_k1,supnorm_k2,y,z,status"
    first = lines[2].split(",")
    assert first[4] != "" and first[5] != ""  # y, z populated
    # y column is the phi1-weighted moment of u2; u2 = 1 -> y = 1
    assert float(first[4]) == pytest.approx(1.0, abs=1e-10)


def test_cli_compare_pair_exit_blowup(tmp_path):
    code = main([
        "compare", "--preset", "Pp_pair_dirichlet_power",
        "--params", json.dumps({"n": 51}),
        "--out", str(tmp_path / "out"),
    ])
    assert code == 2
    report = (tmp_path / "out" / "compare_report.txt").read_text()
    assert "A3 component 1: mode (iii)" in report
    assert "assumptions PASS" in report
    assert "ordering defect" in report
    assert (tmp_path / "out" / "sub_trajectory.csv").exists()
    assert (tmp_path / "out" / "super_trajectory.csv").exists()


def test_cli_compare_assumption_failure_exit_4(tmp_path):
    # swapped pair: Neumann as sub, Dirichlet as super -> A3 fails
    obj = scenario_to_dict(make_preset("Pp_neumann", n=31, t_end=0.01))
    obj["pair"] = {"preset": "Pp_dirichlet", "params": {"n": 31, "t_end": 0.01}}
    scen = tmp_path / "s.json"
    scen.write_text(json.dumps(obj), encoding="utf-8")
    code = main(["compare", "--scenario", str(scen), "--out", str(tmp_path / "out")])
    assert code == 4
    assert "assumptions FAIL" in (tmp_path / "out" / "compare_report.txt").read_text()


def test_cli_compare_boundary_power_laws_out_of_order_exit_4(tmp_path):
    # the super's boundary law 1.01 u|u| lies above the sub's u|u| for every
    # u > 0, so A3 fails (a sampled check passed it, and the run exited 0)
    obj = scenario_to_dict(make_preset("Pp_power", n=21, t_end=0.02))
    obj["components"][0]["boundary_graph"] = {"kind": "power", "alpha": 1.0, "q": 3.0}
    sup = json.loads(json.dumps(obj))
    sup["components"][0]["boundary_graph"]["alpha"] = 1.01
    obj["pair"] = {"scenario": sup}
    scen = tmp_path / "s.json"
    scen.write_text(json.dumps(obj), encoding="utf-8")
    code = main(["compare", "--scenario", str(scen), "--out", str(tmp_path / "out")])
    assert code == 4
    report = (tmp_path / "out" / "compare_report.txt").read_text()
    assert ("A3 component 1: fails at r1 = 1.0000000000000002 > r2 = 1.0: "
            "inf gamma1(r1) = 1.0000000000000004 < sup gamma2(r2) = 1.01") in report
    assert "A2 component 1: mode (i)" in report and "assumptions FAIL" in report


@pytest.mark.parametrize("case, exit_code", [("a3_fails", 4), ("completed", 0)])
def test_cli_compare_report_is_the_stamp_and_the_printed_lines(tmp_path, capsys, case, exit_code):
    if case == "a3_fails":
        # swapped pair: Neumann as sub, Dirichlet as super
        obj = scenario_to_dict(make_preset("Pp_neumann", n=21, t_end=0.01))
        obj["pair"] = {"preset": "Pp_dirichlet", "params": {"n": 21, "t_end": 0.01}}
        scen = tmp_path / "s.json"
        scen.write_text(json.dumps(obj), encoding="utf-8")
        source = ["--scenario", str(scen)]
    else:
        source = ["--preset", "Pp_pair_dirichlet_power", "--params", '{"n": 21, "t_end": 0.01}']
    assert main(["compare", *source, "--out", str(tmp_path / "out")]) == exit_code
    printed = capsys.readouterr().out
    report = (tmp_path / "out" / "compare_report.txt").read_text()
    stamp, rest = report.split("\n", 1)
    assert stamp.startswith("# mmrd ") and " scenario=" in stamp
    assert rest == printed and "assumptions" in printed
    assert ("common interval" in printed) == (case == "completed")


def test_cli_compare_reaction_order_failure_exit_4(tmp_path):
    # u|u| <= u^3 fails for u in (0, 1) and u < -1 on the symmetric box
    obj = scenario_to_dict(make_preset("Pp_dirichlet", n=31, t_end=0.01))
    obj["pair"] = {"preset": "Pp_dirichlet", "params": {"n": 31, "t_end": 0.01, "p": 4.0}}
    scen = tmp_path / "s.json"
    scen.write_text(json.dumps(obj), encoding="utf-8")
    code = main(["compare", "--scenario", str(scen), "--out", str(tmp_path / "out")])
    assert code == 4
    report = (tmp_path / "out" / "compare_report.txt").read_text()
    assert "A4 reaction ordering: fails" in report and "assumptions FAIL" in report


def test_cli_compare_override_flags_detect_violation(tmp_path):
    # overriding the failed hypotheses forces the run; the swapped pair then
    # violates the ordering and exits with code 3
    obj = scenario_to_dict(make_preset("Pp_neumann", n=31, t_end=0.005))
    obj["pair"] = {"preset": "Pp_dirichlet", "params": {"n": 31, "t_end": 0.005}}
    scen = tmp_path / "s.json"
    scen.write_text(json.dumps(obj), encoding="utf-8")
    code = main(["compare", "--scenario", str(scen), "--out", str(tmp_path / "out"),
                 "--override-a3", "--override-a4"])
    assert code == 3
    report = (tmp_path / "out" / "compare_report.txt").read_text()
    assert "overridden a priori" in report
    assert "VIOLATION" in report


def test_cli_eigen(tmp_path, capsys):
    code = main([
        "eigen", "--preset", "Pp_dirichlet", "--params", json.dumps({"n": 401}),
        "--method", "discrete", "--out", str(tmp_path / "out"),
    ])
    assert code == 0
    lam = float(capsys.readouterr().out.splitlines()[0].split("=")[1].split("(")[0])
    assert abs(lam - np.pi**2) <= 1e-3 * np.pi**2
    lines = (tmp_path / "out" / "eigenfunction.csv").read_text().splitlines()
    assert lines[1] == "x,phi1"
    assert len(lines) == 401 + 2


def test_cli_eigen_2d_writes_one_row_per_node(tmp_path):
    obj = json.loads(json.dumps(BASE))
    obj["domain"] = {"dim": 2, "lengths": [1.0, 0.8], "counts": [7, 5]}
    obj["components"][0]["initial"] = {"kind": "constant", "value": 1.0}
    scen = tmp_path / "s.json"
    scen.write_text(json.dumps(obj), encoding="utf-8")
    code = main(["eigen", "--scenario", str(scen), "--out", str(tmp_path / "out")])
    assert code == 0
    lines = (tmp_path / "out" / "eigenfunction.csv").read_text().splitlines()
    assert lines[1] == "x,y,phi1"
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
    assert rows.shape == (7 * 5, 3)
    X, Y = build_problem(parse_scenario(json.dumps(obj)))[0].mesh.coords
    np.testing.assert_allclose(rows[:, 0], X.ravel(), rtol=1e-11, atol=1e-15)
    np.testing.assert_allclose(rows[:, 1], Y.ravel(), rtol=1e-11, atol=1e-15)


def test_cli_bound_reports_kaplan(tmp_path, capsys):
    code = main(["bound", "--preset", "Pp_dirichlet", "--out", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    moment = float([l for l in out.splitlines() if "Kaplan moment" in l][0].split(":")[1])
    assert moment == pytest.approx(12.0 * np.pi**2 / 8.0, rel=1e-3)
    assert "supercritical" in out
    thresh = float(
        [l for l in out.splitlines() if "threshold" in l][0].split(":")[1].split("->")[0]
    )
    assert thresh == pytest.approx(np.pi**2, rel=1e-4)  # printed with %.6g


def test_cli_bound_nuclear(tmp_path, capsys):
    code = main([
        "bound", "--preset", "NR_dirichlet",
        "--params", json.dumps({"u10": 400.0, "u20": 1.0}),
        "--out", str(tmp_path / "out"),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "T0" in out and "coupled-system initial check" in out


def test_cli_run_2d_scenario(tmp_path):
    obj = {
        "name": "square",
        "domain": {"dim": 2, "lengths": [1.0, 1.0], "counts": [9, 9]},
        "components": [
            {
                "diffusion": 1.0,
                "interior_graph": {"kind": "zero"},
                "boundary_graph": {"kind": "extended_neumann"},
                "initial": {"kind": "bump", "center": [0.5, 0.5], "width": [0.2, 0.2],
                            "height": 1.0},
            }
        ],
        "reaction": {"kind": "zero"},
        "time": {"t_end": 0.01},
    }
    scen = tmp_path / "s.json"
    scen.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["run", "--scenario", str(scen), "--out", str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    assert lines[-1] == "# status=completed"


def test_cli_compare_nuclear_pair_csv_has_moments(tmp_path, monkeypatch):
    """Each row of both CSVs is the recorded sample, every cell formatted
    with .12g: t, dt, the sup norms, the Kaplan moments y and z, and the
    status on the last row."""
    reports = []
    original = mmrd.cli.run_pair

    def keep(*args, **kwargs):
        reports.append(original(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(mmrd.cli, "run_pair", keep)
    code = main([
        "compare", "--preset", "NR_pair_dirichlet_power",
        "--params", json.dumps({"n": 21, "t_end": 0.01}),
        "--out", str(tmp_path / "out"),
    ])
    assert code == 0 and len(reports) == 1
    for name, traj in (("sub", reports[0].traj_sub), ("super", reports[0].traj_super)):
        lines = (tmp_path / "out" / f"{name}_trajectory.csv").read_text().splitlines()
        assert lines[1] == "t,dt,supnorm_k1,supnorm_k2,y,z,status"
        assert lines[-1] == "# status=completed"
        rows = lines[2:-1]
        assert len(rows) == len(traj.times) == 11
        for i, row in enumerate(rows):
            values = [traj.times[i], traj.dts[i], *traj.sup_norms[i],
                      traj.extras["y"][i], traj.extras["z"][i]]
            status = "completed" if i == len(rows) - 1 else ""
            assert row == ",".join([f"{v:.12g}" for v in values] + [status])


def test_cli_compare_writes_each_run_with_its_own_kaplan_moments(tmp_path):
    """The super run's Kaplan moments come from the super's own reaction:
    with a = 2 its z(0) is 2.5, not the sub's 1.5, and under a zero
    reaction its y and z cells are empty.  The sub's CSV is the same in
    every case."""
    data = scenario_to_dict(make_preset("NR_pair_dirichlet_power", n=21, t_end=0.02))
    data["pair"]["override_a4"] = True

    def compare(name, reaction):
        obj = json.loads(json.dumps(data))
        if reaction is not None:
            obj["pair"]["scenario"]["reaction"] = reaction
        scen = tmp_path / f"{name}.json"
        scen.write_text(json.dumps(obj), encoding="utf-8")
        out = tmp_path / name
        assert main(["compare", "--scenario", str(scen), "--out", str(out)]) == 0
        return [(out / f"{side}_trajectory.csv").read_text().splitlines() for side in ("sub", "super")]

    def cells(lines, column):
        k = lines[1].split(",").index(column)
        return [row.split(",")[k] for row in lines[2:-1]]

    same_sub, same_super = compare("same", None)
    assert cells(same_super, "z")[0] == "1.5"
    a2_sub, a2_super = compare("a2", {"kind": "nuclear", "a": 2.0, "b": 1.0})
    assert cells(a2_super, "z")[0] == "2.5" and cells(a2_super, "y")[0] == "1"
    zero_sub, zero_super = compare("zero", {"kind": "zero"})
    assert len(zero_super) == len(same_super) == 24
    assert set(cells(zero_super, "y")) == set(cells(zero_super, "z")) == {""}
    assert same_sub == a2_sub == zero_sub


def test_cli_config_error_exit_1(tmp_path):
    scen = tmp_path / "bad.json"
    scen.write_text("{not json", encoding="utf-8")
    assert main(["run", "--scenario", str(scen), "--out", str(tmp_path / "out")]) == 1
    assert main(["run", "--preset", "no_such_preset", "--out", str(tmp_path / "out")]) == 1


# (domain key, its bad value, the error's JSON path): not a number, null, a
# bool, a fraction where an integer is due, not finite, far from 1
BAD_DOMAINS = {
    "counts_string": ("counts", ["a"], "scenario.domain.counts[0]"),
    "counts_fraction": ("counts", [3.9], "scenario.domain.counts[0]"),
    "counts_inf": ("counts", [float("inf")], "scenario.domain.counts[0]"),
    "counts_beyond_float": ("counts", [10**400], "scenario.domain.counts[0]"),
    "lengths_null": ("lengths", [None], "scenario.domain.lengths[0]"),
    "lengths_bool": ("lengths", [True], "scenario.domain.lengths[0]"),
    "lengths_nan": ("lengths", [float("nan")], "scenario.domain.lengths[0]"),
    "lengths_tiny": ("lengths", [1e-200], "scenario.domain.lengths"),
    "lengths_huge": ("lengths", [1e200], "scenario.domain.lengths"),
    "dim_bool": ("dim", True, "scenario.domain.dim"),
}
# (pair block, the error's JSON path, or just "configuration error" where the
# message names the value): params that are not an object, and a preset name
# that is not a string
BAD_PAIRS = {
    "pair_params_list": ({"preset": "Pp_power", "params": [1]}, "scenario.pair.params"),
    "pair_params_null": ({"preset": "Pp_power", "params": None}, "scenario.pair.params"),
    "pair_preset_list": ({"preset": ["Pp_power"]}, "configuration error"),
    "pair_preset_object": ({"preset": {}}, "configuration error"),
}
BAD_PRESET_PARAMS = {
    "preset_n_string": ("Pp_power", '{"n": "a"}', "preset:Pp_power.n"),
    "preset_n_null": ("Pp_power", '{"n": null}', "preset:Pp_power.n"),
    "preset_n_fraction": ("Pp_power", '{"n": 21.7}', "preset:Pp_power.n"),
    "preset_u10_string": ("NR_obstacle", '{"u10": "a", "level": 3}', "preset:NR_obstacle.u10"),
    "preset_name_param": ("Pp_power", '{"name": "a"}', "preset Pp_power"),
}


@pytest.mark.parametrize("bad", ["scenario_dir", "scenario_not_utf8", "run_out_file", "eigen_out_file",
                                 *BAD_DOMAINS, *BAD_PAIRS, *BAD_PRESET_PARAMS])
def test_cli_bad_files_exit_1(tmp_path, capsys, bad):
    not_utf8 = tmp_path / "bad.json"
    not_utf8.write_bytes(b"\xff\xfe")
    a_file = tmp_path / "a_file"
    a_file.write_text("", encoding="utf-8")
    preset = ["--preset", "Pp_power", "--params", '{"n": 11}']
    argv = {
        "scenario_dir": ["run", "--scenario", str(tmp_path), "--out", str(tmp_path / "out")],
        "scenario_not_utf8": ["run", "--scenario", str(not_utf8), "--out", str(tmp_path / "out")],
        "run_out_file": ["run", *preset, "--out", str(a_file)],
        "eigen_out_file": ["eigen", *preset, "--out", str(a_file)],
    }.get(bad)
    where = "configuration error"
    if bad in BAD_DOMAINS or bad in BAD_PAIRS:
        obj = json.loads(json.dumps(BASE))
        if bad in BAD_DOMAINS:
            key, value, where = BAD_DOMAINS[bad]
            obj["domain"][key] = value
        else:
            obj["pair"], where = BAD_PAIRS[bad]
        scen = tmp_path / "scenario.json"
        scen.write_text(json.dumps(obj), encoding="utf-8")
        argv = ["run", "--scenario", str(scen), "--out", str(tmp_path / "out")]
    elif bad in BAD_PRESET_PARAMS:
        name, params, where = BAD_PRESET_PARAMS[bad]
        argv = ["run", "--preset", name, "--params", params, "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and where + ":" in err


@pytest.mark.parametrize("argv, message", [
    (["run", "--bogus"], "unrecognized arguments: --bogus"),
    ([], "the following arguments are required: command"),
    (["frobnicate"], "invalid choice: 'frobnicate'"),
    (["eigen", "--preset", "Pp_power", "--method", "spectral"], "invalid choice: 'spectral'"),
], ids=["unknown_option", "no_command", "unknown_command", "bad_choice"])
def test_cli_usage_error_exit_1(capsys, argv, message):
    # argparse exits 2 on a usage error, the code of a detected blow-up
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: mmrd") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_cli_bad_params_json_exit_1(tmp_path, capsys):
    code = main(["run", "--preset", "Pp_power", "--params", "{bad", "--out", str(tmp_path / "out")])
    assert code == 1
    assert "--params is not valid JSON" in capsys.readouterr().err


def test_cli_overflowing_initial_data_exit_solver_failure(tmp_path):
    # the growth envelope of u0 = 1e300 * phi1 overflows; the run collapses
    out = tmp_path / "out"
    code = main(["run", "--preset", "Pp_power", "--params", '{"c": 1e300, "n": 21}', "--out", str(out)])
    assert code == 5
    assert json.loads((out / "summary.json").read_text())["status"] == "solver_failure"


def test_cli_overflowing_envelope_named_in_summary(tmp_path):
    out = tmp_path / "out"
    main(["run", "--preset", "Pp_power", "--params", '{"c": 1e300, "n": 21}', "--out", str(out)])
    note = json.loads((out / "summary.json").read_text())["note"]
    assert "growth envelope ell(" in note and "overflowed to inf" in note
    assert "without sup-norm growth" not in note


def test_cli_run_to_huge_threshold_stays_cheap(tmp_path):
    # the step count grows with log(threshold), not with the threshold: the
    # absolute cap safety / ell(sup) wrote about 325k rows here
    out = tmp_path / "out"
    code = main(["run", "--preset", "Pp_neumann", "--params", '{"n": 21, "blowup_threshold": 1e300}',
                 "--out", str(out)])
    assert code == 2
    rows = [line for line in (out / "trajectory.csv").read_text().splitlines()
            if not line.startswith("#")]
    assert len(rows) - 1 < 1000


def test_cli_compare_overflowing_box_ends_in_collapse(tmp_path):
    # the exact bound (p - 1) R^(p - 2) of power(3) is finite on the huge
    # box, and the pair collapses as `mmrd run` does on the same data
    out = tmp_path / "out"
    code = main(["compare", "--preset", "Pp_pair_dirichlet_power", "--params", '{"c": 1e300}',
                 "--out", str(out)])
    assert code == 5
    report = (out / "compare_report.txt").read_text()
    assert "L_M = 3.14185e+300 on box 1.57e+300" in report and "overflowed to inf" in report


def _nodes(obj, path=()):
    """The path of every node of a JSON value, the root's () first."""
    yield path
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _nodes(value, path + (key,))


# two scenarios with a pair block: a pair preset's canonical form (the pair
# as a scenario, with its override flags), and a bump initial datum paired
# with a preset and its params
FUZZ_BASES = [
    scenario_to_dict(make_preset("Pp_pair_power_neumann", n=11)),
    dict(scenario_to_dict(make_preset("PF_power", n=11)),
         pair={"preset": "PF_power", "params": {"n": 11, "alpha": 0.0}}),
]
# short strings, and the schema's own names, which reach deeper checks
_STRINGS = st.sampled_from(["", "kind", "zero", "power", "bump", "n", "name", "Pp_power", "NR"]) | st.text(max_size=3)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 40) | st.floats(-1e3, 1e3) | _STRINGS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_STRINGS, inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_fuzz_scenario_parser_round_trips_or_rejects(data):
    # one node of a scenario replaced by a small JSON value, or deleted: the
    # result parses, builds and round-trips through JSON exactly, or it is a
    # configuration error; never another exception
    holder = {"root": json.loads(json.dumps(data.draw(st.sampled_from(FUZZ_BASES))))}
    path = data.draw(st.sampled_from(list(_nodes(holder))[1:]))
    parent = holder
    for key in path[:-1]:
        parent = parent[key]
    if len(path) > 1 and data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(_JSON_VALUES)
    try:
        s = scenario_from_dict(holder["root"])
        build_problem(s)
    except ConfigurationError:
        return
    canonical = scenario_to_dict(s)
    text = json.dumps(canonical)
    assert json.loads(text) == canonical
    assert scenario_to_dict(parse_scenario(text)) == canonical
