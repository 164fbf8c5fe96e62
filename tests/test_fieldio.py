import numpy as np
import pytest

from fbsde_lab.fieldio import dump_field, export_slice_csv, load_field, write_csv
from fbsde_lab.model_core import affine_model, heaviside_tc
from fbsde_lab.value_pde import (Grid, ValueField, e_nodes_for, solve_mollified,
                                 solve_reduced_1d, time_nodes_with_tail,
                                 uniform_time_nodes)


def test_roundtrip_full_field(tmp_path):
    m = affine_model(alpha=0.5, gamma=1.0, sigma=1.0, horizon_T=0.1)
    g = Grid(t_nodes=uniform_time_nodes(0.0, 0.1, 10),
             e_nodes=e_nodes_for(m, 5e-3),
             p_nodes=(np.linspace(-1, 1, 9),))
    vf = solve_mollified(m, g, heaviside_tc(0.0))
    path = tmp_path / "field.bin"
    dump_field(vf, path)
    back = load_field(path)
    assert np.array_equal(back.values, vf.values)
    assert np.allclose(back.grid.e_nodes, vf.grid.e_nodes)
    assert back.provenance["scheme_id"] == vf.provenance["scheme_id"]
    # header is readable text terminated by a blank line
    head = path.read_bytes().split(b"\n\n")[0].decode()
    assert "fbsde-lab value field v1" in head


def test_roundtrip_reduced_field(tmp_path):
    m = affine_model(alpha=0.5, gamma=1.0, sigma=1.0, horizon_T=0.1)
    g = Grid(t_nodes=uniform_time_nodes(0.0, 0.1, 10),
             e_nodes=e_nodes_for(m, 1e-3))
    vr = solve_reduced_1d(m, g, heaviside_tc(0.0))
    path = tmp_path / "red.bin"
    dump_field(vr, path)
    back = load_field(path)
    assert back.dim == 0
    assert np.array_equal(back.values, vr.values)


def test_reject_foreign_file(tmp_path):
    path = tmp_path / "bogus.bin"
    path.write_bytes(b"something: else\n\n1234")
    with pytest.raises(ValueError):
        load_field(path)


def test_csv_slice_export(tmp_path):
    m = affine_model(alpha=0.5, gamma=1.0, sigma=1.0, horizon_T=0.1)
    g = Grid(t_nodes=uniform_time_nodes(0.0, 0.1, 10),
             e_nodes=e_nodes_for(m, 5e-3),
             p_nodes=(np.linspace(-1, 1, 9),))
    vf = solve_mollified(m, g, heaviside_tc(0.0))
    out = tmp_path / "slice.csv"
    export_slice_csv(vf, out, t=0.05, p=[0.0])
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "e,v"
    assert len(lines) == len(g.e_nodes) + 1
    vals = [float(x.split(",")[1]) for x in lines[1:]]
    assert min(vals) >= 0.0 and max(vals) <= 1.0


def test_write_csv_is_deterministic(tmp_path):
    rows = [(0.1, 2), (0.2, 3)]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(a, ["x", "n"], rows)
    write_csv(b, ["x", "n"], rows)
    assert a.read_bytes() == b.read_bytes()


def test_roundtrip_keeps_every_axis_exactly(tmp_path):
    # first + step * arange misses these e- and p-nodes by up to 4e-13
    m = affine_model(alpha=[0.5, 0.3], gamma=1.0, sigma=1.0, horizon_T=0.1)
    g = Grid(t_nodes=time_nodes_with_tail(0.0, 0.1, 1, s_min=2e-2, ratio=2.0),
             e_nodes=e_nodes_for(m, 8e-6),
             p_nodes=(np.linspace(0.1, 0.7, 3), np.linspace(-0.3, 0.9, 3)))
    vf = ValueField(grid=g, values=np.zeros((len(g.t_nodes),) + g.space_shape()))
    path = tmp_path / "axes.bin"
    dump_field(vf, path)
    back = load_field(path).grid
    assert np.array_equal(back.t_nodes, g.t_nodes)
    assert np.array_equal(back.e_nodes, g.e_nodes)
    for a, b in zip(back.p_nodes, g.p_nodes, strict=True):
        assert np.array_equal(a, b)


def test_truncated_payload_names_both_sizes(tmp_path):
    m = affine_model(alpha=0.5, gamma=1.0, sigma=1.0, horizon_T=0.1)
    g = Grid(t_nodes=uniform_time_nodes(0.0, 0.1, 4), e_nodes=e_nodes_for(m, 1e-2))
    path = tmp_path / "cut.bin"
    dump_field(ValueField(grid=g, values=np.zeros((5, len(g.e_nodes)))), path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(ValueError, match=rf"{5 * len(g.e_nodes) * 8 - 8} bytes.*"
                                         rf"\[5, {len(g.e_nodes)}\]"):
        load_field(path)


@pytest.mark.parametrize("key", ["shape", "p_dims", "t_nodes", "e_nodes", "provenance"])
def test_missing_header_line_is_named(tmp_path, key):
    m = affine_model(alpha=0.5, gamma=1.0, sigma=1.0, horizon_T=0.1)
    g = Grid(t_nodes=uniform_time_nodes(0.0, 0.1, 4), e_nodes=e_nodes_for(m, 1e-2))
    path = tmp_path / "f.bin"
    dump_field(ValueField(grid=g, values=np.zeros((5, len(g.e_nodes)))), path)
    head, _, payload = path.read_bytes().partition(b"\n\n")
    kept = [ln for ln in head.split(b"\n") if not ln.startswith(key.encode() + b": ")]
    path.write_bytes(b"\n".join(kept) + b"\n\n" + payload)
    with pytest.raises(ValueError, match=f"no '{key}' line"):
        load_field(path)
