import re
import tracemalloc

import numpy as np
import pytest

from fbsde_lab.cli import main
from fbsde_lab.fieldio import dump_field, load_field, write_csv
from fbsde_lab.model_core import affine_model, heaviside_tc
from fbsde_lab.value_pde import (Grid, ValueField, e_nodes_for, solve_mollified,
                                 solve_reduced_1d, time_nodes_with_tail)


def test_roundtrip_full_field(tmp_path):
    m = affine_model(alpha=0.5, gamma=1.0, sigma=1.0, horizon_T=0.1)
    g = Grid(t_nodes=np.linspace(0.0, 0.1, 11),
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
    g = Grid(t_nodes=np.linspace(0.0, 0.1, 11),
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


def test_write_csv_is_deterministic(tmp_path):
    rows = [(0.1, 2), (0.2, 3)]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(a, ["x", "n"], rows)
    write_csv(b, ["x", "n"], rows)
    assert a.read_bytes() == b.read_bytes()


def test_write_csv_writes_each_cell_as_its_shortest_text(tmp_path):
    # float and numpy float64 cells as the shortest text that reads back to
    # the same value (repr of the float), integers and bools as str
    special = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, 1e-320,
               2.2250738585072014e-308, 0.1, 1 / 3, 1e16, 1e300]
    rows = [(np.float64(x), float(x), np.int64(-7), np.bool_(x > 0), "s", 3, False)
            for x in special]
    path = tmp_path / "t.csv"
    write_csv(path, ["f64", "f", "i64", "b", "s", "i", "bool"], rows)
    assert path.read_bytes() == (
        b"f64,f,i64,b,s,i,bool\r\n"
        b"nan,nan,-7,False,s,3,False\r\n"
        b"inf,inf,-7,True,s,3,False\r\n"
        b"-inf,-inf,-7,False,s,3,False\r\n"
        b"0.0,0.0,-7,False,s,3,False\r\n"
        b"-0.0,-0.0,-7,False,s,3,False\r\n"
        b"5e-324,5e-324,-7,True,s,3,False\r\n"
        b"1e-320,1e-320,-7,True,s,3,False\r\n"
        b"2.2250738585072014e-308,2.2250738585072014e-308,-7,True,s,3,False\r\n"
        b"0.1,0.1,-7,True,s,3,False\r\n"
        b"0.3333333333333333,0.3333333333333333,-7,True,s,3,False\r\n"
        b"1e+16,1e+16,-7,True,s,3,False\r\n"
        b"1e+300,1e+300,-7,True,s,3,False\r\n")
    # any float64 bit pattern, NaN payloads and subnormals included
    bits = np.random.default_rng(5).integers(0, 2**64, 20_000, dtype=np.uint64)
    cells = bits.view(np.float64)
    write_csv(path, ["x"], zip(cells))
    lines = path.read_text().splitlines()[1:]
    assert lines == [repr(float(x)) for x in cells]


def test_roundtrip_keeps_every_axis_exactly(tmp_path):
    # first + step * arange misses these e- and p-nodes by up to 4e-13
    m = affine_model(alpha=[0.5, 0.3], gamma=1.0, sigma=1.0, horizon_T=0.1)
    g = Grid(t_nodes=time_nodes_with_tail(0.1, 2e-2),
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
    g = Grid(t_nodes=np.linspace(0.0, 0.1, 5), e_nodes=e_nodes_for(m, 1e-2))
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
    g = Grid(t_nodes=np.linspace(0.0, 0.1, 5), e_nodes=e_nodes_for(m, 1e-2))
    path = tmp_path / "f.bin"
    dump_field(ValueField(grid=g, values=np.zeros((5, len(g.e_nodes)))), path)
    head, _, payload = path.read_bytes().partition(b"\n\n")
    kept = [ln for ln in head.split(b"\n") if not ln.startswith(key.encode() + b": ")]
    path.write_bytes(b"\n".join(kept) + b"\n\n" + payload)
    with pytest.raises(ValueError, match=f"no '{key}' line"):
        load_field(path)


def _small_field_file(tmp_path):
    m = affine_model(alpha=0.5, gamma=1.0, sigma=1.0, horizon_T=0.1)
    g = Grid(t_nodes=np.linspace(0.0, 0.1, 5), e_nodes=e_nodes_for(m, 1e-2))
    path = tmp_path / "f.bin"
    dump_field(ValueField(grid=g, values=np.zeros((5, len(g.e_nodes)))), path)
    return path, len(g.e_nodes)


def _with_shape(text):
    def edit(raw):
        head, _, payload = raw.partition(b"\n\n")
        lines = [b"shape: " + text.encode() if ln.startswith(b"shape: ") else ln
                 for ln in head.split(b"\n")]
        return b"\n".join(lines) + b"\n\n" + payload
    return edit


# each malformed file: (edit of a good file's bytes, key the refusal names, words)
_MALFORMED = {
    "shape_not_integer": (_with_shape("[5, 4.5]"), "shape", "non-negative integers"),
    "shape_negative": (_with_shape("[-5, 21]"), "shape", "non-negative integers"),
    "shape_bool": (_with_shape("[true, 21]"), "shape", "non-negative integers"),
    "shape_not_list": (_with_shape("105"), "shape", "must be a list"),
    "shape_off_axes": (_with_shape("[5, 7, 3]"), "shape", "does not match"),
    "payload_short": (lambda raw: raw[:-8], "shape", "payload holds"),
    "payload_long": (lambda raw: raw + b"\0" * 8, "shape", "payload holds"),
    "no_blank_line": (lambda raw: raw.replace(b"\n\n", b"\n", 1), "provenance",
                      "blank line"),
    "no_blank_line_binary": (lambda raw: raw.replace(b"\n\n", b"\n\xff\n", 1),
                             "provenance", "blank line"),
    "header_never_ends": (lambda raw: raw.partition(b"\n\n")[0] + b"\n", "provenance",
                          "does not end"),
    "p_dims_not_integer": (
        lambda raw: raw.replace(b"p_dims: 0", b"p_dims: 0.5", 1), "p_dims",
        "non-negative integers"),
    "nodes_not_numbers": (
        lambda raw: raw.replace(b"t_nodes: [", b't_nodes: ["x", ', 1), "t_nodes",
        "list of numbers"),
    "e_nodes_nan": (
        lambda raw: raw.replace(b"e_nodes: [", b"e_nodes: [NaN, ", 1), "e_nodes",
        "finite nodes"),
    "provenance_not_object": (
        lambda raw: re.sub(rb"provenance: [^\n]*", b"provenance: [1, 2]", raw, count=1),
        "provenance", "JSON object"),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_cli_refuses_a_malformed_field_file(tmp_path, capsys, case):
    edit, key, words = _MALFORMED[case]
    path, _ = _small_field_file(tmp_path)
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(ValueError, match=re.escape(words)):
        load_field(path)
    code = main(["simulate-only", "--scenario", "degenerate_characteristics",
                 "--field", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert err.startswith(f"cannot load field: {path}: ")
    assert repr(key) in err and words in err
    assert not (tmp_path / "out").exists()


def _eight_megabyte_field():
    rng = np.random.default_rng(3)
    g = Grid(t_nodes=np.linspace(0.0, 0.1, 100), e_nodes=np.linspace(-0.5, 0.5, 10_001))
    return ValueField(grid=g, values=rng.random((100, 10_001)))


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_load_field_holds_the_payload_about_once(tmp_path):
    vf = _eight_megabyte_field()
    path = tmp_path / "big.bin"
    dump_field(vf, path)
    payload = vf.values.nbytes
    assert _traced_peak(load_field, path) < 1.5 * payload
    assert np.array_equal(load_field(path).values, vf.values)


def test_dump_field_copies_no_payload(tmp_path):
    vf = _eight_megabyte_field()
    assert _traced_peak(dump_field, vf, tmp_path / "big.bin") < 0.5 * vf.values.nbytes
