import json

import numpy as np
import pytest

from fbsde_lab.cli import main
from fbsde_lab.experiments import emit_plot_data, run_scenario
from fbsde_lab.scenarios import (build_model, config_hash, registry_list,
                                 scenario_config)


def light_overrides():
    # trim the degenerate scenario so the pipeline runs in seconds
    return {"sim": {"n_paths": 2000, "n_steps": 400, "seed": 7}}


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


def test_unknown_scenario_is_refused():
    with pytest.raises(KeyError):
        scenario_config("no_such_thing")


def test_run_scenario_writes_record_and_tables(tmp_path):
    rec = run_scenario("degenerate_characteristics", output_root=tmp_path,
                       overrides=light_overrides(),
                       checks=["validate", "characteristics", "dirac_atom"])
    out = tmp_path / "degenerate_characteristics"
    assert (out / "record.json").exists()
    data = json.loads((out / "record.json").read_text())
    assert data["verdicts"]["characteristics"] == "pass"
    assert data["verdicts"]["dirac_atom"] == "pass"
    fan = out / "characteristics__characteristics.csv"
    assert fan.exists()


def test_rerun_reproduces_outputs_byte_for_byte(tmp_path):
    kw = dict(overrides=light_overrides(),
              checks=["validate", "characteristics"])
    rec1 = run_scenario("degenerate_characteristics",
                        output_root=tmp_path / "a", **kw)
    rec2 = run_scenario("degenerate_characteristics",
                        output_root=tmp_path / "b", **kw)
    assert rec1.config_hash == rec2.config_hash
    assert rec1.stats == rec2.stats
    for f1 in sorted((tmp_path / "a" / "degenerate_characteristics").glob("*.csv")):
        f2 = tmp_path / "b" / "degenerate_characteristics" / f1.name
        assert f1.read_bytes() == f2.read_bytes()


def test_emit_plot_data_atom_curve_monotone(tmp_path):
    run_scenario("degenerate_characteristics", output_root=tmp_path,
                 overrides=light_overrides(),
                 checks=["validate", "dirac_atom"])
    out = tmp_path / "degenerate_characteristics"
    path = emit_plot_data(out, "dirac_atom")
    lines = path.read_text().strip().splitlines()
    fr = [float(x.split(",")[1]) for x in lines[1:]]
    deltas = [float(x.split(",")[0]) for x in lines[1:]]
    assert all(a >= b for a, b in zip(deltas[:-1], deltas[1:]))
    assert all(a >= b - 1e-15 for a, b in zip(fr[:-1], fr[1:]))


def test_emit_plot_data_missing_check_errors(tmp_path):
    run_scenario("degenerate_characteristics", output_root=tmp_path,
                 overrides=light_overrides(), checks=["validate"])
    with pytest.raises(FileNotFoundError):
        emit_plot_data(tmp_path / "degenerate_characteristics", "dirac_atom")


def test_validation_failure_refuses_pipeline(tmp_path):
    bad = scenario_config("degenerate_characteristics", light_overrides())
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
                                   "sim": {"n_paths": 200, "n_steps": 50}}))
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
    field, _, _, ens = X._main_ensemble(X._ensemble_key(cfg))
    for arr in (ens.terminal_E, field.values):
        with pytest.raises(ValueError):
            arr[0] = 0.0
