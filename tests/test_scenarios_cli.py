import ast
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fbsde_lab.cli import main
from fbsde_lab.experiments import check_dirac_atom, emit_plot_data, run_scenario
from fbsde_lab.scenarios import (build_model, config_hash, registry_list,
                                 scenario_config)


def light_overrides():
    # trim the degenerate scenario so the pipeline runs in seconds
    return {"sim": {"n_paths": 2000, "n_steps": 400, "seed": 7}}


def light_config():
    return scenario_config("degenerate_characteristics", light_overrides())


def test_catalog_contents_and_stability():
    cat = registry_list()
    names = [c["name"] for c in cat]
    assert len(names) >= 5
    assert names == sorted(names)
    assert "linear_drift_neg" in names and "linear_drift_pos" in names
    assert registry_list() == cat


def test_catalog_round_trips_through_json():
    for entry in registry_list():
        cfg = scenario_config(entry["name"])
        blob = json.dumps(cfg, sort_keys=True)
        back = json.loads(blob)
        assert config_hash(back) == config_hash(cfg)
        build_model(back["model"])   # instantiable after the round trip


def test_config_schema_is_pinned():
    # the keys each config block accepts are those the registry entries name;
    # a new setting has to be added here on purpose
    from fbsde_lab.scenarios import _REGISTRY
    entries = [builder() for builder in _REGISTRY.values()]
    accepted = {block: sorted(set().union(*(entry.get(block, {}) for entry in entries)))
                for block in ("grid", "sim", "sweeps", "tc")}
    assert accepted == {
        "grid": ["de_full", "de_reduced", "n_p", "p_half", "tail_s_min",
                 "tail_switch"],
        "sim": ["n_paths", "n_steps", "seed"],
        "sweeps": ["gap_horizons", "variance_horizons"],
        "tc": ["kind", "width"],
    }


def test_nonlinear_hashes_are_pinned():
    # every nonlinear_1d field file carries the model hash, and every record
    # the config hash; neither moves when the model is built another way
    cfg = scenario_config("nonlinear_1d")
    assert (build_model(cfg["model"]).model_hash(), config_hash(cfg)) == (
        "b762bbbf3b9c7436", "360d1c79051c3bde")


def test_unknown_scenario_is_refused():
    with pytest.raises(KeyError):
        scenario_config("no_such_thing")


def test_a_config_may_repeat_the_scenario_name():
    assert scenario_config("affine_dirac", {"name": "affine_dirac"}) == (
        scenario_config("affine_dirac"))


def test_run_scenario_writes_record_and_tables(tmp_path):
    rec = run_scenario(light_config(), output_root=tmp_path,
                       checks=["validate", "characteristics", "dirac_atom"])
    out = tmp_path / "degenerate_characteristics"
    assert (out / "record.json").exists()
    data = json.loads((out / "record.json").read_text())
    assert data["verdicts"]["characteristics"] == "pass"
    assert data["verdicts"]["dirac_atom"] == "pass"
    fan = out / "characteristics__characteristics.csv"
    assert fan.exists()


def test_rerun_reproduces_outputs_byte_for_byte(tmp_path):
    checks = ["validate", "characteristics"]
    rec1 = run_scenario(light_config(), output_root=tmp_path / "a", checks=checks)
    rec2 = run_scenario(light_config(), output_root=tmp_path / "b", checks=checks)
    assert rec1.config_hash == rec2.config_hash
    assert rec1.stats == rec2.stats
    for f1 in sorted((tmp_path / "a" / "degenerate_characteristics").glob("*.csv")):
        f2 = tmp_path / "b" / "degenerate_characteristics" / f1.name
        assert f1.read_bytes() == f2.read_bytes()


def test_emit_plot_data_atom_curve_monotone(tmp_path):
    run_scenario(light_config(), output_root=tmp_path, checks=["validate", "dirac_atom"])
    out = tmp_path / "degenerate_characteristics"
    path = emit_plot_data(out, "dirac_atom")
    lines = path.read_text().strip().splitlines()
    fr = [float(x.split(",")[1]) for x in lines[1:]]
    deltas = [float(x.split(",")[0]) for x in lines[1:]]
    assert all(a >= b for a, b in zip(deltas[:-1], deltas[1:]))
    assert all(a >= b - 1e-15 for a, b in zip(fr[:-1], fr[1:]))


def test_emit_plot_data_missing_check_errors(tmp_path):
    run_scenario(light_config(), output_root=tmp_path, checks=["validate"])
    with pytest.raises(FileNotFoundError):
        emit_plot_data(tmp_path / "degenerate_characteristics", "dirac_atom")


def test_validation_failure_refuses_pipeline(tmp_path):
    bad = light_config()
    bad["model"]["gamma"] = 1.0
    bad["model"]["alpha"] = 0.0
    bad["model"]["lipschitz_L"] = 1.0
    bad["model"]["sigma"] = 3.0   # violates A4 boundedness on the box
    rec = run_scenario(bad, output_root=tmp_path)
    assert rec.verdicts["validate"] == "fail"
    assert list(rec.verdicts) == ["validate"]
    assert not rec.all_passed


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "affine_dirac" in out and "nonlinear_1d" in out


def test_cli_unknown_scenario_exit_2(tmp_path, capsys):
    code = main(["run", "--scenario", "nope", "--out", str(tmp_path)])
    assert code == 2
    assert not any(tmp_path.iterdir())


def test_cli_run_and_plot_data(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    over = light_overrides()
    over["checks"] = ["validate", "dirac_atom"]
    cfgfile.write_text(json.dumps(over))
    code = main(["run", "--scenario", "degenerate_characteristics",
                 "--config", str(cfgfile), "--out", str(tmp_path)])
    assert code == 0
    rec_dir = tmp_path / "degenerate_characteristics"
    assert (rec_dir / "record.json").exists()
    code = main(["plot-data", "--record-dir", str(rec_dir),
                 "--check", "dirac_atom"])
    assert code == 0


@pytest.mark.parametrize("name", ["*", "dirac_*", "nope"])
def test_cli_plot_data_refuses_a_name_that_is_not_a_check(tmp_path, capsys, name):
    (tmp_path / "dirac_atom__atom_curve.csv").write_text("delta,fraction\n")
    code = main(["plot-data", "--record-dir", str(tmp_path), "--check", name])
    assert code == 2
    assert "known checks" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dirac_atom__atom_curve.csv"]


@pytest.mark.parametrize("target, words", [
    ("taken", "it is a directory"),
    ("missing/plot.csv", "its directory"),
])
def test_cli_plot_data_refuses_an_out_csv_it_cannot_write(tmp_path, capsys,
                                                          target, words):
    (tmp_path / "dirac_atom__atom_curve.csv").write_text("delta,fraction\n")
    (tmp_path / "taken").mkdir()
    out = tmp_path / target
    code = main(["plot-data", "--record-dir", str(tmp_path), "--check", "dirac_atom",
                 "--out-csv", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"cannot write {out}: {words}" in err and "Traceback" not in err, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dirac_atom__atom_curve.csv",
                                                          "taken"]
    assert not any((tmp_path / "taken").iterdir())


def test_cli_seed_override_changes_hash(tmp_path):
    over = light_overrides()
    over["checks"] = ["validate"]
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(over))
    main(["run", "--scenario", "degenerate_characteristics", "--config",
          str(cfgfile), "--seed", "99", "--out", str(tmp_path / "x")])
    rec = json.loads((tmp_path / "x" / "degenerate_characteristics"
                      / "record.json").read_text())
    assert rec["config"]["sim"]["seed"] == 99


def test_cli_solve_and_simulate_only(tmp_path):
    over = light_overrides()
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(over))
    code = main(["solve-only", "--scenario", "degenerate_characteristics",
                 "--config", str(cfgfile), "--out", str(tmp_path)])
    assert code == 0
    field = tmp_path / "degenerate_characteristics_field.bin"
    assert field.exists()
    code = main(["simulate-only", "--scenario", "degenerate_characteristics",
                 "--field", str(field), "--config", str(cfgfile),
                 "--out", str(tmp_path)])
    assert code == 0
    term = tmp_path / "degenerate_characteristics_terminal.csv"
    assert term.exists()
    lines = term.read_text().strip().splitlines()
    assert lines[0] == "E_T,Y_T,Ebar_T,escaped"
    assert len(lines) == 2001


def _solve_only(tmp_path, scenario):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"grid": {"de_reduced": 1e-4},
                                   "sim": {"n_paths": 200, "n_steps": 100}}))
    assert main(["solve-only", "--scenario", scenario, "--config", str(cfgfile),
                 "--out", str(tmp_path)]) == 0
    return cfgfile, tmp_path / f"{scenario}_field.bin"


def test_simulate_only_refuses_field_of_another_model(tmp_path, capsys):
    cfgfile, field = _solve_only(tmp_path, "degenerate_characteristics")
    code = main(["simulate-only", "--scenario", "affine_dirac", "--field",
                 str(field), "--config", str(cfgfile), "--out", str(tmp_path)])
    assert code == 2
    assert "model" in capsys.readouterr().err
    assert not (tmp_path / "affine_dirac_terminal.csv").exists()


def test_simulate_only_refuses_field_of_another_horizon(tmp_path, capsys):
    from fbsde_lab.fieldio import dump_field, load_field
    from fbsde_lab.value_pde import Grid, ValueField
    cfgfile, path = _solve_only(tmp_path, "degenerate_characteristics")
    vf = load_field(path)
    g = vf.grid
    short = Grid(t_nodes=g.t_nodes[:-1], e_nodes=g.e_nodes)
    dump_field(ValueField(grid=short, values=vf.values[:-1],
                          provenance=vf.provenance), path)
    code = main(["simulate-only", "--scenario", "degenerate_characteristics",
                 "--field", str(path), "--config", str(cfgfile),
                 "--out", str(tmp_path)])
    assert code == 2
    assert "horizon" in capsys.readouterr().err


def test_simulate_only_refuses_a_field_that_does_not_start_at_0(tmp_path, capsys):
    # paths start at t = 0; they would read the field's first slice until then
    from fbsde_lab.fieldio import dump_field, load_field
    from fbsde_lab.value_pde import Grid, ValueField
    cfgfile, path = _solve_only(tmp_path, "degenerate_characteristics")
    vf = load_field(path)
    late = Grid(t_nodes=vf.grid.t_nodes[1:], e_nodes=vf.grid.e_nodes)
    dump_field(ValueField(grid=late, values=vf.values[1:],
                          provenance=vf.provenance), path)
    code = main(["simulate-only", "--scenario", "degenerate_characteristics",
                 "--field", str(path), "--config", str(cfgfile),
                 "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"field {path} does not fit" in err
    assert f"grid starts at t = {late.t_nodes[0]}, not at 0" in err
    assert not (tmp_path / "degenerate_characteristics_terminal.csv").exists()


def test_simulate_only_refuses_field_without_shape_line(tmp_path, capsys):
    cfgfile, path = _solve_only(tmp_path, "degenerate_characteristics")
    head, _, payload = path.read_bytes().partition(b"\n\n")
    kept = [ln for ln in head.split(b"\n") if not ln.startswith(b"shape: ")]
    path.write_bytes(b"\n".join(kept) + b"\n\n" + payload)
    code = main(["simulate-only", "--scenario", "degenerate_characteristics",
                 "--field", str(path), "--config", str(cfgfile),
                 "--out", str(tmp_path)])
    assert code == 2
    assert "cannot load field" in capsys.readouterr().err


@pytest.mark.parametrize("text, words", [
    (json.dumps({"checks": ["validate", "nope"]}),
     ["'nope'", "known checks", "dirac_atom"]),
    (json.dumps({"checks": ["validate"], "schema_version": 9}),
     ["schema_version 9"]),
    (json.dumps({"checks": ["validate"], "grdi": {"de_reduced": 1e-4}}),
     ["'grdi'", "'grid'"]),
    ('{"checks": ["validate"]', ["bad config"]),   # truncated JSON
    ("[1]", ["bad config", "JSON object", "[1]"]),
    ("[]", ["bad config", "JSON object", "[]"]),
    ("5", ["bad config", "JSON object", "5"]),
    (json.dumps({"sim": 5}), ["bad config", "'sim'", "JSON object"]),
    ("null", ["bad config", "JSON object", "null"]),
    (json.dumps({"model": {"bogus": 1}}), ["bad config", "'bogus'", "'gamma'"]),
    (json.dumps({"model": {"gamma": -1}}), ["bad config", "ell1=-1.0"]),
    (json.dumps({"sim": {"n_steps": 50}}), ["bad config", "n_steps"]),
    (json.dumps({"checks": "validate"}), ["bad config", "'checks'", "list", "'validate'"]),
    (json.dumps({"grid": {"de_reducd": 1e-3}}),
     ["bad config", "grid", "'de_reducd'", "'de_reduced'"]),
    (json.dumps({"sim": {"n_paths_flow": 5000}}), ["bad config", "sim", "'n_paths_flow'"]),
    (json.dumps({"tc": {"kind": "smooth_ramp"}}), ["bad config", "smooth_ramp", "'width'"]),
    (json.dumps({"sweeps": {"gap_horizons": [0.5, 0.1, 0.05]}}),
     ["bad config", "gap_horizons [0.5]", "(0, 0.1]"]),
    (json.dumps({"sweeps": {"gap_horizons": [0.1, 0.0]}}),
     ["bad config", "gap_horizons [0.0]", "(0, 0.1]"]),
    # burgers_gap reads the scenario field at the horizons sweeps names
    (json.dumps({"checks": ["burgers_gap"]}),
     ["bad config", "check 'burgers_gap'", "sweeps names no gap_horizons"]),
    (json.dumps({"sweeps": {"gap_horizons": 5}}),
     ["bad config", "sweeps.gap_horizons", "type list", "not 5"]),
    (json.dumps({"sim": {"n_paths": 2000.5}}),
     ["bad config", "sim.n_paths", "type int", "not 2000.5"]),
    (json.dumps({"sweeps": {"gap_horizons": ["a"]}}),
     ["bad config", "sweeps.gap_horizons", "type float", "not 'a'"]),
    (json.dumps({"sweeps": {"gap_horizons": [0.1, True]}}),
     ["bad config", "sweeps.gap_horizons", "type float", "not True"]),
    # burgers_gap fits its rate across at least two distinct horizons
    (json.dumps({"sweeps": {"gap_horizons": []}}),
     ["bad config", "gap_horizons []", "fewer than two distinct"]),
    (json.dumps({"sweeps": {"gap_horizons": [0.05]}}),
     ["bad config", "gap_horizons [0.05]", "fewer than two distinct"]),
    (json.dumps({"sweeps": {"gap_horizons": [0.05, 0.05]}}),
     ["bad config", "gap_horizons [0.05, 0.05]", "fewer than two distinct"]),
    # the mollifier orders are a constant, so the key is unknown
    (json.dumps({"checks": ["conservation_gap"], "sweeps": {"mollifier_n": []}}),
     ["bad config", "unknown sweeps key(s) ['mollifier_n']"]),
    (json.dumps({"checks": ["validate"], "sweeps": {"mollifier_n": [0, 4]}}),
     ["bad config", "unknown sweeps key(s) ['mollifier_n']"]),
    # variance_horizons, refused whichever checks the config names
    (json.dumps({"checks": ["validate"], "sweeps": {"variance_horizons": []}}),
     ["bad config", "sweeps.variance_horizons []", "two distinct"]),
    (json.dumps({"checks": ["validate"], "sweeps": {"variance_horizons": [0.2]}}),
     ["bad config", "sweeps.variance_horizons [0.2]", "two distinct"]),
    (json.dumps({"checks": ["validate"],
                 "sweeps": {"variance_horizons": [0.2, 0.2]}}),
     ["bad config", "sweeps.variance_horizons [0.2, 0.2]", "two distinct"]),
    (json.dumps({"checks": ["validate"],
                 "sweeps": {"variance_horizons": [0.2, 0.0]}}),
     ["bad config", "sweeps.variance_horizons [0.2, 0.0]", "above 0"]),
    # so are the two horizons, the full field's slice count and the start
    (json.dumps({"checks": ["validate"], "sweeps": {"transmission_horizon": 0.0}}),
     ["bad config", "unknown sweeps key(s) ['transmission_horizon']"]),
    (json.dumps({"checks": ["validate"], "sweeps": {"mass_check_horizon": -0.01}}),
     ["bad config", "unknown sweeps key(s) ['mass_check_horizon']"]),
    (json.dumps({"checks": ["validate"], "grid": {"n_t": 100}}),
     ["bad config", "unknown grid key(s) ['n_t']"]),
    (json.dumps({"checks": ["validate"], "sim": {"e0_cone": 0.5}}),
     ["bad config", "unknown sim key(s) ['e0_cone']"]),
    # grid values out of range, refused whichever checks the config names
    (json.dumps({"grid": {"tail_s_min": 0}}),
     ["bad config", "grid.tail_s_min 0 must lie in (0, horizon_T) = (0, 0.1)"]),
    (json.dumps({"grid": {"tail_s_min": 0.2}}),
     ["bad config", "grid.tail_s_min 0.2 must lie in (0, horizon_T)"]),
    (json.dumps({"grid": {"de_reduced": 0}}),
     ["bad config", "grid.de_reduced 0 must be above 0"]),
    (json.dumps({"grid": {"de_reduced": -1e-4}}),
     ["bad config", "grid.de_reduced -0.0001 must be above 0"]),
    (json.dumps({"checks": ["validate"], "grid": {"de_full": 0.0}}),
     ["bad config", "grid.de_full 0.0 must be above 0"]),
    (json.dumps({"checks": ["validate"], "grid": {"n_p": 2}}),
     ["bad config", "grid.n_p 2 must be at least 3"]),
    (json.dumps({"checks": ["validate"], "grid": {"p_half": 0}}),
     ["bad config", "grid.p_half 0 must be above 0"]),
    (json.dumps({"checks": ["validate"], "grid": {"p_half": -1.0}}),
     ["bad config", "grid.p_half -1.0 must be above 0"]),
    # the e-domain [-0.2, 0.2] of this scenario needs an e-step below 0.2
    (json.dumps({"grid": {"de_reduced": 10.0}}),
     ["bad config", "grid.de_reduced 10.0 leaves fewer than 4 nodes",
      "[-0.2, 0.2]"]),
    (json.dumps({"checks": ["validate"], "grid": {"de_full": 10.0}}),
     ["bad config", "grid.de_full 10.0 leaves fewer than 4 nodes"]),
    # Python's json reads NaN, Infinity, -Infinity and an overflowing literal
    # as non-finite floats; a config holds finite numbers only
    ('{"model": {"sigma": Infinity}}', ["bad config", "Infinity is not a finite number"]),
    ('{"model": {"sigma": NaN}}', ["bad config", "NaN is not a finite number"]),
    ('{"model": {"sigma": -Infinity}}', ["bad config", "-Infinity is not a finite number"]),
    ('{"model": {"horizon_T": Infinity}}', ["bad config", "Infinity is not a finite number"]),
    ('{"model": {"horizon_T": 1e999}}', ["bad config", "1e999 is not a finite number"]),
    (json.dumps({"model": {"gama": 1.0}}),
     ["bad config", "unknown affine_constant model key(s) ['gama']", "'gamma'"]),
])
def test_cli_bad_config_exit_2(tmp_path, capsys, text, words):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(text)
    out = tmp_path / "out"
    for flags in ([], ["--seed", "3"]):
        code = main(["run", "--scenario", "degenerate_characteristics",
                     "--config", str(cfgfile), "--out", str(out), *flags])
        assert code == 2
        err = capsys.readouterr().err
        assert all(w in err for w in words), err
        assert not out.exists()   # refused before any check ran


def test_cli_refuses_the_retired_nonlinear_profile_key(tmp_path, capsys):
    # nonlinear_1d has one profile, the sine, so no key names it
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"checks": ["validate"],
                                   "model": {"f0": "sine_perturbed"}}))
    out = tmp_path / "out"
    code = main(["run", "--scenario", "nonlinear_1d", "--config", str(cfgfile),
                 "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert all(w in err for w in ["bad config", "unknown nonlinear_1d model key(s) ['f0']",
                                  "'f0_amplitude'"]), err
    assert not out.exists()   # refused before any check ran


def test_cli_refuses_a_name_other_than_the_scenarios_own(tmp_path, capsys):
    # the name is the record's directory under the output root
    cfgfile = tmp_path / "cfg.json"
    for name in (str(tmp_path / "escaped"), "../escaped", 5):
        cfgfile.write_text(json.dumps({"name": name, "checks": ["validate"]}))
        code = main(["run", "--scenario", "degenerate_characteristics",
                     "--config", str(cfgfile), "--out", str(tmp_path / "out")])
        assert code == 2
        assert (f"bad config: name {name!r} must be the scenario's own, "
                "'degenerate_characteristics'") in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]   # nothing written


@pytest.mark.parametrize("scenario, over, words", [
    ("nonlinear_1d", {"checks": ["mirror_symmetry"]},
     ["check 'mirror_symmetry'", "reduced solve", "nonlinear_1d family has no gamma"]),
    ("nonlinear_1d", {"checks": ["transmission"]},
     ["check 'transmission'", "reduced solve", "nonlinear_1d family has no gamma"]),
    # a grid naming de_reduced makes the scenario's own field a reduced one
    ("nonlinear_1d", {"checks": ["sandwich"], "grid": {"de_reduced": 1e-3}},
     ["check 'sandwich'", "reduced solve", "nonlinear_1d family has no gamma"]),
    ("nonlinear_1d", {"checks": ["burgers_gap"], "grid": {"de_reduced": 1e-3}},
     ["check 'burgers_gap'", "reduced solve", "nonlinear_1d family has no gamma"]),
    ("affine_smooth_ramp", {"checks": ["feynman_kac"], "model": {"alpha": [0.5, 0.3]}},
     ["check 'feynman_kac'", "one forward dimension", "the model has 2"]),
    # noise on the second axis alone: the first-axis profile read 0, its ratio inf
    ("affine_constant", {"checks": ["transmission"], "model": {"alpha": [0.0, 0.5]}},
     ["check 'transmission'", "one forward dimension", "the model has 2"]),
    ("affine_constant", {"checks": ["transmission_sign_change"],
                         "model": {"alpha": [0.0, 0.5]}},
     ["check 'transmission_sign_change'", "one forward dimension", "the model has 2"]),
    # M is not a time-changed Brownian motion there, so no strip series applies
    ("nonlinear_1d", {"checks": ["validate", "trap"]},
     ["check 'trap'", "closed-form compensator", "nonlinear_1d family has none"]),
    # nor is the control of the atom Gaussian: sigma^T dp_w depends on P
    ("nonlinear_1d", {"checks": ["validate", "dirac_atom"]},
     ["check 'dirac_atom'", "closed-form compensator", "nonlinear_1d family has none"]),
])
def test_cli_refuses_a_check_the_scenario_cannot_serve(tmp_path, capsys, scenario,
                                                      over, words):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(over))
    out = tmp_path / "out"
    code = main(["run", "--scenario", scenario, "--config", str(cfgfile),
                 "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "bad config" in err and all(w in err for w in words), err
    assert not out.exists()   # refused before any check ran
    with pytest.raises(ValueError, match=re.escape(words[0])):
        run_scenario(scenario_config(scenario, over))


@pytest.mark.parametrize("constant", ["_ONE_DIM", "_CLOSED_W"])
def test_readme_refusal_list_names_every_refused_check(constant):
    # the README's refusal bullet lists the checks as "(`experiments.<constant>`:
    # `a`, `b` and `c`)", and must keep up with the constant
    from fbsde_lab import experiments
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    bullet = re.search(rf"\(`experiments\.{constant}`:([^)]*)\)", readme)
    assert bullet, f"README names no experiments.{constant}"
    named = re.findall(r"`(\w+)`", bullet.group(1))
    assert sorted(named) == sorted(getattr(experiments, constant).split())


def test_cli_solve_only_refuses_a_field_the_scenario_cannot_solve(tmp_path, capsys):
    # run serves the checks a config names, and validate needs no field;
    # solve-only solves the scenario field, reduced here, whatever they are
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"checks": ["validate"], "grid": {"de_reduced": 1e-3}}))
    out = tmp_path / "out"
    code = main(["solve-only", "--scenario", "nonlinear_1d", "--config", str(cfgfile),
                 "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert all(w in err for w in ["bad config", "the scenario field needs a reduced solve",
                                  "nonlinear_1d family has no gamma"]), err
    assert not out.exists()   # refused before anything was solved
    assert main(["run", "--scenario", "nonlinear_1d", "--config", str(cfgfile),
                 "--out", str(out)]) == 0


def test_an_empty_conditioning_event_fails_and_keeps_the_record(tmp_path):
    # one path misses the event |E_T - cap| <= delta, and the run still
    # writes its record, with the check's verdict fail; a path lands in the
    # event with probability about 0.63, and path 0 of seed 1 misses it
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"checks": ["conditional_support"],
                                   "sim": {"n_paths": 1, "seed": 1}}))
    code = main(["run", "--scenario", "affine_constant", "--config", str(cfgfile),
                 "--out", str(tmp_path)])
    assert code == 1
    record = json.loads((tmp_path / "affine_constant" / "record.json").read_text())
    assert record["verdicts"] == {"conditional_support": "fail"}
    stats = record["stats"]["conditional_support"]
    assert stats["n_conditioned"] == 0 and stats["coverage"] == 0.0
    assert stats["counts"] == [0] * 10


def test_every_registry_run_is_served():
    # each scenario's own check list passes the CLI's config path, which
    # refuses checks a scenario cannot serve; no check runs here
    from argparse import Namespace
    from fbsde_lab.cli import _scenario_cfg
    for entry in registry_list():
        args = Namespace(scenario=entry["name"], config=None, seed=None)
        resolved = _scenario_cfg(args)
        assert resolved is not None, entry["name"]
        assert resolved[0]["checks"] == entry["checks"]


def test_the_coarsest_served_e_step_gives_4_nodes():
    from fbsde_lab.experiments import scenario_model, servable_checks
    from fbsde_lab.value_pde import Grid, e_nodes_for
    # degenerate_characteristics: e-domain [-0.2, 0.2], 4 nodes need de < 0.2
    for de, served in ((0.4 / 3 * 1.0001, True), (0.2, False), (0.2 * 1.0001, False)):
        cfg = scenario_config("degenerate_characteristics",
                              {"checks": ["validate"], "grid": {"de_reduced": de}})
        if served:
            servable_checks(cfg)
            assert len(Grid(t_nodes=[0.0, 0.1],
                            e_nodes=e_nodes_for(scenario_model(cfg)[0], de)).e_nodes) == 4
        else:
            with pytest.raises(ValueError, match="fewer than 4 nodes"):
                servable_checks(cfg)


@pytest.mark.parametrize("flags, words", [
    (["--config", {"sim": {"n_paths": 0}}], ["n_paths (0)"]),
    (["--config", {"sim": {"n_paths": -5}}], ["n_paths (-5)"]),
    (["--seed", "-1"], ["seed", "-1"]),
])
def test_cli_bad_path_flags_exit_2(tmp_path, capsys, flags, words):
    # a dict among the flags stands for a config file that holds it
    cfgfile = tmp_path / "cfg.json"
    args = []
    for flag in flags:
        if isinstance(flag, dict):
            cfgfile.write_text(json.dumps(flag))
            flag = str(cfgfile)
        args.append(flag)
    out = tmp_path / "out"
    code = main(["run", "--scenario", "degenerate_characteristics",
                 "--out", str(out), *args])
    assert code == 2
    err = capsys.readouterr().err
    assert "bad config" in err and all(w in err for w in words), err
    assert not out.exists()   # refused before any check ran


@pytest.mark.parametrize("cmd", ["run", "simulate-only"])
def test_cli_refuses_the_n_paths_flag(tmp_path, capsys, cmd):
    # sim.n_paths is set through --config only
    extra = ["--field", str(tmp_path / "missing.bin")] if cmd == "simulate-only" else []
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([cmd, "--scenario", "degenerate_characteristics", "--out", str(out),
              "--n-paths", "100", *extra])
    assert exc.value.code == 2
    assert "unrecognized arguments: --n-paths 100" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cmd", ["run", "solve-only", "simulate-only"])
def test_cli_out_that_is_a_file_exits_2(tmp_path, capsys, monkeypatch, cmd):
    out = tmp_path / "taken"
    out.write_text("not a directory")
    extra = ["--field", str(tmp_path / "missing.bin")] if cmd == "simulate-only" else []
    from fbsde_lab import cli
    for name in ("run_scenario", "scenario_field", "load_field", "simulate_forward"):
        monkeypatch.setattr(cli, name, lambda *a, **k: pytest.fail("ran past the refusal"))
    code = main([cmd, "--scenario", "degenerate_characteristics",
                 "--out", str(out), *extra])
    assert code == 2
    assert f"output root {out} exists and is not a directory" in capsys.readouterr().err
    assert out.read_text() == "not a directory"


@pytest.mark.parametrize("cmd", ["run", "solve-only", "simulate-only"])
def test_cli_out_under_a_file_exits_2_before_any_work(tmp_path, capsys, monkeypatch, cmd):
    # the root does not exist and cannot be made: an ancestor is a regular file
    afile = tmp_path / "afile"
    afile.write_text("a file")
    out = afile / "sub"
    extra = ["--field", str(tmp_path / "missing.bin")] if cmd == "simulate-only" else []
    from fbsde_lab import cli
    for name in ("run_scenario", "scenario_field", "load_field", "simulate_forward"):
        monkeypatch.setattr(cli, name, lambda *a, **k: pytest.fail("ran past the refusal"))
    code = main([cmd, "--scenario", "degenerate_characteristics",
                 "--out", str(out), *extra])
    assert code == 2
    assert (f"output root {out} cannot be created: {afile} exists and is not a "
            "directory") in capsys.readouterr().err
    # a refused config is reported alone; the root is checked only after it
    assert main([cmd, "--scenario", "no_such", "--out", str(out), *extra]) == 2
    err = capsys.readouterr().err
    assert "unknown scenario 'no_such'" in err and "output root" not in err
    assert afile.read_text() == "a file"


def test_scenario_ensemble_is_built_once_per_run(tmp_path):
    from fbsde_lab import experiments as X
    cfg = scenario_config("affine_dirac", {"grid": {"de_reduced": 1e-4},
                                           "sim": {"n_paths": 2000}})
    checks = ["dirac_atom", "sandwich"]
    X._main_ensemble.cache_clear()
    rec = run_scenario(cfg, output_root=tmp_path, checks=checks)
    data = json.loads((tmp_path / "affine_dirac" / "record.json").read_text())
    assert data["cache"] == {"hits": 1, "misses": 1}
    for name in checks:
        X._main_ensemble.cache_clear()
        assert X._CHECKS[name](cfg).stats == rec.stats[name]
    _, _, field, _, paths = X._main_ensemble(X._ensemble_key(cfg))
    for arr in (paths().terminal_E, field.values):
        with pytest.raises(ValueError):
            arr[0] = 0.0


@pytest.mark.parametrize("scenario, over, solver, checks, n_sims", [
    ("nonlinear_1d", {"model": {"horizon_T": 0.05}, "grid": {"n_p": 5},
                      "sweeps": {"gap_horizons": [0.04, 0.02]}, "sim": {"n_paths": 200}},
     "solve_mollified", ["burgers_gap", "sandwich"], 1),
    ("affine_constant", {"grid": {"de_reduced": 1e-3}, "sim": {"n_paths": 200}},
     "solve_reduced_1d", ["burgers_gap", "sandwich"], 1),
    # the field-only checks of the benchmark's nonlinear_gap workload
    ("nonlinear_1d", {"model": {"horizon_T": 0.05}, "grid": {"n_p": 5},
                      "sweeps": {"gap_horizons": [0.04, 0.02]}},
     "solve_mollified", ["validate", "burgers_gap"], 0),
])
def test_a_run_solves_the_scenario_field_once(tmp_path, monkeypatch, scenario, over,
                                              solver, checks, n_sims):
    # burgers_gap reads the scenario field from the memo, which simulates its
    # paths only when a check reads them
    from fbsde_lab import experiments as X, value_pde
    calls = {solver: 0, "simulate_forward": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)
    counted(value_pde, solver)
    counted(X, "simulate_forward")
    X._main_ensemble.cache_clear()
    run_scenario(scenario_config(scenario, over), output_root=tmp_path, checks=checks)
    assert calls == {solver: 1, "simulate_forward": n_sims}
    # every check but validate reads the memo: the first read misses
    data = json.loads((tmp_path / scenario / "record.json").read_text())
    assert data["cache"] == {"hits": len(checks) - 1 - checks.count("validate"),
                             "misses": 1}


def test_solve_only_dumps_the_field_run_reads(tmp_path):
    # the field holds a slice at T - h for each gap horizon the config names
    from fbsde_lab import experiments as X
    from fbsde_lab.fieldio import load_field
    over = {"grid": {"de_reduced": 1e-4}, "sweeps": {"gap_horizons": [0.1, 0.03, 0.007]}}
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(over))
    assert main(["solve-only", "--scenario", "degenerate_characteristics",
                 "--config", str(cfgfile), "--out", str(tmp_path)]) == 0
    field = load_field(tmp_path / "degenerate_characteristics_field.bin")
    assert set(0.1 - np.array([0.1, 0.03, 0.007])) <= set(field.grid.t_nodes)
    cfg = scenario_config("degenerate_characteristics", over)
    _, _, memo, _, _ = X._main_ensemble(X._ensemble_key(cfg))
    np.testing.assert_array_equal(field.grid.t_nodes, memo.grid.t_nodes)
    np.testing.assert_array_equal(field.values, memo.values)


def test_bound_report_runs_and_keeps_its_entries(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"checks": ["bound_report"]}))
    code = main(["run", "--scenario", "affine_smooth_ramp", "--config",
                 str(cfgfile), "--out", str(tmp_path)])
    assert code == 0
    rec = json.loads((tmp_path / "affine_smooth_ramp" / "record.json").read_text())
    assert rec["verdicts"] == {"bound_report": "pass"}
    stats = rec["stats"]["bound_report"]
    assert stats["far_field_worst"] == -0.09999999999999876
    assert stats["gradient_band_worst"] == -1e-06
    assert stats["off_cone_ratio"] == 3.6934798211640567


def test_burgers_gap_refuses_a_config_without_gap_horizons():
    cfg = scenario_config("affine_dirac")   # no gap horizons named
    with pytest.raises(ValueError, match=re.escape(
            "check 'burgers_gap' needs gap horizons, but sweeps names no gap_horizons")):
        run_scenario(cfg, checks=["burgers_gap"])


def test_burgers_gap_stats_on_a_light_nonlinear_grid_are_pinned():
    # the full field's gap slices and the compensator's quadrature, bit for bit
    cfg = scenario_config("nonlinear_1d", {"model": {"horizon_T": 0.05},
                                           "grid": {"n_p": 5},
                                           "sweeps": {"gap_horizons": [0.04, 0.02, 0.01]}})
    out = run_scenario(cfg, checks=["burgers_gap"])
    assert out.stats["burgers_gap"] == {
        "sup_gaps": [0.08404204087377642, 0.10727915035775559, 0.1342719461620182],
        "beta_hat": -0.33798740388646586, "decreasing": False}


def test_trap_stats_on_a_light_grid():
    # the inclusion test needs the full grid, so the verdict here is "fail";
    # the trap probabilities are the strip series, exact to rounding
    cfg = scenario_config("affine_dirac", {"grid": {"de_reduced": 1e-4},
                                           "sim": {"n_paths": 2000}})
    out = run_scenario(cfg, checks=["trap"])
    assert out.verdicts == {"trap": "fail"}
    assert out.stats["trap"] == {
        "horizons": [0.4, 0.2, 0.1, 0.05],
        "p_hat_F": pytest.approx([0.3599613937122076, 0.6755541487128836,
                                  0.9037863503086263, 0.9896227848953689], rel=1e-12),
        "increasing": True,
        "atom_minus_pF": pytest.approx(-0.6927863503086263, rel=1e-12)}


def test_variance_zero_on_a_light_grid():
    cfg = scenario_config("degenerate_characteristics",
                          {"grid": {"de_reduced": 1e-4}, "sim": {"n_paths": 2000}})
    out = run_scenario(cfg, checks=["variance_zero"])
    assert out.verdicts == {"variance_zero": "pass"}
    assert out.stats["variance_zero"]["max_variance"] <= 1e-20


def test_every_check_runs_in_a_test():
    # a check counts as run when a test calls check_<name>(...) or names it in
    # a checks list; a new entry of _CHECKS needs a test of its own
    from fbsde_lab.experiments import _CHECKS
    text = "".join(p.read_text() for p in Path(__file__).parent.glob("test_*.py"))
    named = set(re.findall(r"check_(\w+)\(", text))
    for names in re.findall(r'checks"?\]?\s*[=:]\s*\[([^\]]*)\]', text):
        named |= set(re.findall(r'"(\w+)"', names))
    assert sorted(set(_CHECKS) - named) == []


def test_private_names_crossing_modules_are_stated():
    # a module's underscore names are its own; the few that another module
    # imports are pinned here as (from, into, name), so that a new one is stated
    src = Path(__file__).resolve().parents[1] / "src" / "fbsde_lab"
    crossing = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom) or node.module is None:
                continue
            if node.level == 1:
                module = node.module
            elif node.module.startswith("fbsde_lab."):
                module = node.module.removeprefix("fbsde_lab.")
            else:
                continue
            crossing |= {(module, path.stem, alias.name)
                         for alias in node.names if alias.name.startswith("_")}
    assert crossing == {("model_core", "burgers_ref", "_dot_last"),
                        ("burgers_ref", "value_pde", "_rows_by_p_node")}


# ---------------------------------------------------------------------------
# benchmark harness
# ---------------------------------------------------------------------------

def test_benchmark_tracer_finds_every_name_it_wraps():
    # perfbench/tracer.py wraps layer functions and WEvaluator methods by name;
    # install() fails if a refactor drops or renames one of them
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), str(root / "perfbench")]))
    # one call through the wrapped path_normals: its span reads the call's
    # count, n_steps and d by parameter name; then burgers_gap on a tiny
    # nonlinear_1d field (3 Monte Carlo reads of w inside the p-edge cut) and
    # on a tiny affine field (3 closed-form reads), so the compensator
    # counters count the evaluators the program builds, wherever it builds them
    code = "\n".join([
        "import tracer; tr = tracer.install()",
        "from fbsde_lab import burgers_ref, mc_engine, model_core, scenarios, value_pde",
        "mc_engine.path_normals(7, 0, 3, 100, 2); print(tr.spans[-1]['normals'])",
        "nl = scenarios.scenario_config('nonlinear_1d')['model']",
        "for m in (scenarios.build_model(nl, 0.05), model_core.affine_model(",
        "        alpha=0.5, gamma=1.0, horizon_T=0.05)):",
        "    f = value_pde.full_field(m, model_core.heaviside_tc(m.cap_lambda),",
        "                             {'de_full': 4e-3, 'n_p': 5, 'n_t': 4})",
        "    burgers_ref.burgers_gap(f, m, [0.0])",
        "print(*(tr.counters[f'burgers_ref.w_{k}']['calls'] for k in ('mc', 'closed')))",
    ])
    proc = subprocess.run([sys.executable, "-c", code],
                          cwd=root / "perfbench", env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["600", "3", "3"]


def test_solve_and_simulate_only_outputs_are_pinned(tmp_path):
    # the bytes of a whole round trip; a change that moves numbers on purpose
    # updates both digests and says so in CHANGES.md
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"grid": {"de_reduced": 1e-4},
                                   "sim": {"n_paths": 300}}))
    common = ["--scenario", "degenerate_characteristics", "--config", str(cfgfile),
              "--out", str(tmp_path)]
    assert main(["solve-only", *common]) == 0
    field = tmp_path / "degenerate_characteristics_field.bin"
    assert main(["simulate-only", *common, "--field", str(field), "--seed", "7"]) == 0
    payload = field.read_bytes().partition(b"\n\n")[2]
    terminal = (tmp_path / "degenerate_characteristics_terminal.csv").read_bytes()
    assert hashlib.sha256(payload).hexdigest() == (
        "966682c41087eb142c2323363d556d2ba16875a954c0fb11081814fa22106b92")
    assert hashlib.sha256(terminal).hexdigest() == (
        "6cc0ed03f97935541032e54d63728ddaa8cfc53c53d7d876688dcfd6d3a6c024")


def test_no_command_loads_scipy(tmp_path):
    # the package needs numpy alone; scipy serves the tests as an oracle, and
    # an import anywhere in the package would add its start-up cost to a command
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"grid": {"de_reduced": 1e-3},
                                   "sim": {"n_paths": 50}}))

    def scipy_loaded(*commands):
        code = "\n".join(["import sys", "from fbsde_lab import cli"]
                         + [f"assert cli.main({c!r}) == 0" for c in commands]
                         + ["print('scipy' in sys.modules)"])
        proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split()[-1] == "True"

    common = ["--config", str(cfgfile), "--out", str(tmp_path)]
    degenerate = ["--scenario", "degenerate_characteristics", *common]
    field = str(tmp_path / "degenerate_characteristics_field.bin")
    assert not scipy_loaded()
    assert not scipy_loaded(["solve-only", *degenerate],
                            ["simulate-only", *degenerate, "--field", field])
    # a reduced solve with noise makes the e-solve
    assert not scipy_loaded(["solve-only", "--scenario", "affine_dirac", *common])


def test_mass_near_start_runs_on_one_path(tmp_path):
    # the check halves the scenario's paths, but never below one
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"sim": {"n_paths": 1},
                                   "checks": ["mass_near_start"]}))
    code = main(["run", "--scenario", "elliptic_support", "--config", str(cfgfile),
                 "--out", str(tmp_path)])
    record = json.loads((tmp_path / "elliptic_support" / "record.json").read_text())
    assert code == (0 if record["verdicts"]["mass_near_start"] == "pass" else 1)
    assert record["stats"]["mass_near_start"]["mass"] in (0.0, 1.0)


def test_dirac_atom_reads_noise_on_either_axis():
    # a model is deterministic only when no component of alpha feeds noise
    # into E, whichever axis carries it
    keys = []
    for alpha in ([0.0, 0.5], [0.5, 0.0]):
        cfg = scenario_config("degenerate_characteristics", {
            "model": {"alpha": alpha}, "grid": {"de_reduced": 2e-5},
            "sim": {"n_paths": 400, "n_steps": 200, "seed": 7}})
        keys.append(sorted(check_dirac_atom(cfg).stats))
    assert keys[0] == keys[1]
    assert "plateau" in keys[0] and "all_trapped" not in keys[0]
