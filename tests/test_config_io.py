"""Config parsing, RunConfig validation, and VTK/CSV round trips."""

import io
from decimal import Decimal

import numpy as np
import pytest

from shellreduce.config import RunConfig, parse_config
from shellreduce.errors import ConfigError, NonFinitePosition
from shellreduce.minimizer import SolverConfig
from shellreduce.vtkio import (_SLOW, _decimal, _digits, _quads,
                               _write_block, read_csv, read_vtk, write_csv,
                               write_vtk)

BASE = """
# minimal plate run
chart.kind = plate
chart.length1 = 1.0
chart.length2 = 2.0
grid.n1 = 9
grid.n2 = 11
material.mu = 1.0
material.lambda = 1.5
material.h = 0.05   # thickness
"""


def _cfg(extra="", drop=()):
    lines = [ln for ln in BASE.splitlines()
             if not any(ln.strip().startswith(key) for key in drop)]
    return "\n".join(lines) + "\n" + extra


def test_parse_config_strips_comments_and_blank_lines():
    raw = parse_config(BASE)
    assert raw["chart.kind"] == "plate"
    assert raw["material.h"] == "0.05"  # inline comment removed
    assert raw["grid.n2"] == "11"
    assert len(raw) == 8


def test_parse_config_keeps_extra_equals_in_value():
    # only the first '=' splits; the rest belongs to the value
    raw = parse_config("constants = oracle\nchart.kind = a=b")
    assert raw["chart.kind"] == "a=b"


@pytest.mark.parametrize("text,fragment", [
    ("chart.kind plate", "expected key = value"),
    ("= 3", "empty key"),
    ("model = 1\nmodel = 2", "duplicate key"),
    ("materiel.mu = 1", "unknown config key"),
    ("solver.maxiter = 5", "unknown config key"),
])
def test_parse_config_rejections(text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config(text)


def test_runconfig_defaults():
    cfg = RunConfig.from_text(BASE)
    assert cfg.chart.name == "plate"
    assert (cfg.grid.n1, cfg.grid.n2) == (9, 11)
    assert cfg.model == 1
    assert cfg.constants == "oracle"
    assert cfg.order == 4
    assert cfg.clamped_edges == ()
    assert cfg.load_spec is None
    assert cfg.safety == 1.0
    s = cfg.solver
    assert s.max_iter == 200
    assert s.gtol_rel == 1e-6 and s.gtol_abs == 1e-11
    assert s.penalty_beta == 0.0
    # material went through floats
    assert cfg.material.lam == 1.5 and cfg.material.h == 0.05


@pytest.mark.parametrize("key,value", [
    ("grid.n1", "10"),   # even
    ("grid.n2", "7"),    # too small
])
def test_grid_counts_must_fit_simpson(key, value):
    raw = parse_config(BASE)
    raw[key] = value
    with pytest.raises(ConfigError, match="composite Simpson"):
        RunConfig.from_mapping(raw)


def test_model_and_constants_validation():
    with pytest.raises(ConfigError, match="model must be one of"):
        RunConfig.from_text(_cfg("model = 4"))
    with pytest.raises(ConfigError, match="constants must be one of"):
        RunConfig.from_text(_cfg("constants = exact"))
    cfg = RunConfig.from_text(_cfg("model = 2\nconstants = paper"))
    assert cfg.model == 2 and cfg.solver.model == 2
    assert cfg.constants == "paper" and cfg.solver.constants == "paper"


def test_chart_kind_required_and_dispatch():
    with pytest.raises(ConfigError, match="chart.kind"):
        RunConfig.from_text(_cfg(drop=("chart.kind",)))
    text = """
chart.kind = sphere-cap
chart.radius = 2.0
chart.extent = 0.5
grid.n1 = 9
grid.n2 = 9
material.mu = 1.0
material.lambda = 1.0
material.h = 0.01
"""
    cfg = RunConfig.from_text(text)
    assert cfg.chart.name == "sphere-cap"
    # a chart parameter the kind does not accept is an error, not a warning
    with pytest.raises(ConfigError):
        RunConfig.from_text(_cfg("chart.radius = 1.0"))


def test_chart_poly_and_bump_syntax():
    text = """
chart.kind = graph
chart.length1 = 1.0
chart.length2 = 1.0
chart.poly = 2,0:0.25; 1,1:-0.125
chart.bump = 0.05, 1, 2
grid.n1 = 9
grid.n2 = 9
material.mu = 1.0
material.lambda = 1.0
material.h = 0.01
"""
    cfg = RunConfig.from_text(text)
    pos = cfg.chart.position(np.array([[0.5]]), np.array([[0.5]]))
    want = 0.25 * 0.5 ** 2 - 0.125 * 0.25
    want += 0.05 * np.sin(np.pi * 0.5) * np.sin(2 * np.pi * 0.5)
    assert abs(pos[0, 0, 2] - want) < 1e-14

    bad = text.replace("2,0:0.25; 1,1:-0.125", "2:0.25")
    with pytest.raises(ConfigError, match="p,q:coef"):
        RunConfig.from_text(bad)


def test_chart_poly_repeats_and_fractional_bump_waves_are_config_errors():
    # neither is rewritten: a repeated term would keep its last coefficient,
    # a fractional wave number would be truncated
    text = _cfg("chart.kind = graph\n", drop=("chart.kind",))
    with pytest.raises(ConfigError, match="chart.poly repeats the term 2,0"):
        RunConfig.from_text(text + "chart.poly = 2,0:1; 2,0:3\n")
    with pytest.raises(ConfigError, match="chart.bump"):
        RunConfig.from_text(text + "chart.bump = 0.1, 1.5, 1\n")
    cfg = RunConfig.from_text(text + "chart.bump = 0.1, 2.0, 1\n")
    assert cfg.chart.name == "graph"


def test_loads_require_clamped_boundary():
    # with nothing clamped the traction boundary covers all four edges and
    # the load spec itself objects
    with pytest.raises(ConfigError, match="clamped boundary part"):
        RunConfig.from_text(_cfg("loads.face_plus = 0, 0, 0.001"))
    cfg = RunConfig.from_text(_cfg(
        "boundary.clamped = left\nloads.face_plus = 0, 0, 0.001"))
    spec = cfg.load_spec
    assert spec is not None
    assert np.array_equal(spec.face_plus, [0.0, 0.0, 0.001])
    # traction part of the boundary = everything not clamped, in edge order
    assert spec.gamma_t == ("right", "bottom", "top")
    assert spec.boundary_measure == "surface"


def test_loads_body_and_edge_parsing():
    cfg = RunConfig.from_text(_cfg(
        "boundary.clamped = left,right\n"
        "loads.body.0 = 0, 0, -0.002\n"
        "loads.body.1 = 0.1, 0, 0\n"
        "loads.edge.top.0 = 0, 0.005, 0\n"
        "loads.face_minus = 0, 0, -0.001\n"
        "loads.boundary_measure = parameter"))
    spec = cfg.load_spec
    assert set(spec.body) == {0, 1}
    assert np.array_equal(spec.body[0], [0.0, 0.0, -0.002])
    assert np.array_equal(spec.body[1], [0.1, 0.0, 0.0])
    assert set(spec.lateral) == {"top"}
    assert np.array_equal(spec.lateral["top"][0], [0.0, 0.005, 0.0])
    assert np.array_equal(spec.face_minus, [0.0, 0.0, -0.001])
    assert spec.boundary_measure == "parameter"
    assert spec.gamma_t == ("bottom", "top")


@pytest.mark.parametrize("extra,fragment", [
    ("boundary.clamped = left\nloads.body.0 = 1, 2", "three comma-separated"),
    ("boundary.clamped = left\nloads.body.x = 1, 2, 3", "bad x3 power"),
    ("boundary.clamped = left\nloads.edge.top = 1, 2, 3",
     r"loads\.edge\.<edge>\.<power>"),
    ("boundary.clamped = north", "unknown edge"),
    ("boundary.clamped = left,left", "repeated edge"),
])
def test_loads_and_edge_rejections(extra, fragment):
    with pytest.raises(ConfigError, match=fragment):
        RunConfig.from_text(_cfg(extra))


def test_solver_overrides_and_bool_parsing():
    cfg = RunConfig.from_text(_cfg(
        "solver.max_iter = 500\n"
        "solver.penalty_beta = 2.5"))
    assert cfg.solver.max_iter == 500
    assert cfg.solver.penalty_beta == 2.5
    # the gradient-mode, FD-step and metric switches are gone, and so are
    # the L-BFGS memory and line-search constants
    for line in ("solver.precondition = off", "solver.grad_mode = fd",
                 "solver.fd_step = 1e-6", "solver.memory = 10",
                 "solver.armijo_c1 = 1e-4", "solver.backtrack = 0.5"):
        with pytest.raises(ConfigError, match="unknown config key"):
            RunConfig.from_text(_cfg(line))
    with pytest.raises(ConfigError, match="solver.max_iter"):
        RunConfig.from_text(_cfg("solver.max_iter = many"))


@pytest.mark.parametrize("line,key", [
    ("loads.face_plus = nan, 0, 0", "loads.face_plus"),
    ("loads.body.0 = 0, inf, 0", "loads.body.0"),
    ("solver.gtol_abs = nan", "solver.gtol_abs"),
    ("solver.gtol_rel = inf", "solver.gtol_rel"),
    ("solver.penalty_beta = inf", "solver.penalty_beta"),
    ("chart.length1 = inf", "chart.length1"),
    ("material.mu = nan", "material.mu"),
    ("safety = nan", "safety"),
])
def test_non_finite_numbers_are_config_errors_naming_the_key(line, key):
    # a NaN or infinite number would otherwise reach the solver: a nan
    # energy, a solve that never converges or converges at once, a LinAlg
    # traceback, or a misleading orientation error
    extra = line + "\nboundary.clamped = left,right,bottom,top\n"
    with pytest.raises(ConfigError, match=key + " must be finite"):
        RunConfig.from_text(_cfg(extra, drop=(key,)))


def test_non_finite_poly_coefficients_and_number_lists_are_config_errors():
    graph = _cfg("chart.poly = 2,0:0.1; 1,1:nan\n", drop=("chart.kind",))
    with pytest.raises(ConfigError, match="chart.poly must be finite"):
        RunConfig.from_text("chart.kind = graph\n" + graph)
    cfg = RunConfig.from_text(_cfg("compare3d.h_values = 0.04, nan\n"))
    with pytest.raises(ConfigError, match="compare3d.h_values must be finite"):
        cfg.float_list("compare3d.h_values")


def test_solver_config_rejects_non_finite_tolerances_and_penalty():
    for bad in (dict(gtol_abs=float("nan")), dict(gtol_rel=float("inf")),
                dict(penalty_beta=float("nan")),
                dict(penalty_beta=float("inf"))):
        with pytest.raises(ConfigError):
            SolverConfig(**bad)


def test_safety_must_be_positive():
    for bad in ("0", "-1"):
        with pytest.raises(ConfigError, match="safety must be positive"):
            RunConfig.from_text(_cfg("safety = %s" % bad))
    assert RunConfig.from_text(_cfg("safety = 0.5")).safety == 0.5


def test_missing_required_key():
    with pytest.raises(ConfigError, match="missing required config key"):
        RunConfig.from_text(_cfg(drop=("material.h",)))


def test_float_list():
    cfg = RunConfig.from_text(_cfg("compare3d.h_values = 0.1, 0.05, 0.025"))
    assert cfg.float_list("compare3d.h_values") == [0.1, 0.05, 0.025]
    assert cfg.float_list("compare3d.amplitude", default=(0.05,)) == [0.05]
    with pytest.raises(ConfigError, match="missing required config key"):
        cfg.float_list("compare3d.amplitude")
    bad = RunConfig.from_text(_cfg("compare3d.h_values = 0.1, small"))
    with pytest.raises(ConfigError, match="bad number list"):
        bad.float_list("compare3d.h_values")


# ---------------------------------------------------------------------------
# VTK structured-grid files


def _awkward_positions():
    rng = np.random.default_rng(7)
    pos = rng.standard_normal((5, 7, 3))
    pos[0, 0] = (-0.0, 1e308, -1e-308)
    pos[1, 2] = (np.pi, 5e-324, -5e-324)   # subnormals survive %.17g
    pos[4, 6] = (0.1 + 0.2, -0.3, 1.0 / 3.0)
    return pos


def test_vtk_round_trip_is_bit_exact(tmp_path):
    pos = _awkward_positions()
    fields = {"energy": np.linspace(-1, 1, 35).reshape(5, 7) ** 3,
              "b_min": np.full((5, 7), 0.25)}
    path = tmp_path / "mesh.vtk"
    write_vtk(path, pos, fields=fields)
    back, fback = read_vtk(path)
    assert back.shape == (5, 7, 3)
    assert np.array_equal(back, pos)
    assert np.signbit(back[0, 0, 0])  # -0.0 keeps its sign bit
    assert set(fback) == {"energy", "b_min"}
    for name in fields:
        assert np.array_equal(fback[name], fields[name])


def test_vtk_title_holding_keywords_reads_back(tmp_path):
    # the title line is free text: keywords in it are not the header's
    path = tmp_path / "mesh.vtk"
    pos = np.arange(105, dtype=float).reshape(5, 7, 3)
    write_vtk(path, pos, fields={"f": np.ones((5, 7))},
              comment="DIMENSIONS of the POINTS mesh, DATASET SCALARS")
    back, fields = read_vtk(path)
    assert back.tobytes() == pos.tobytes()
    assert list(fields) == ["f"]


def test_vtk_header_layout(tmp_path):
    path = tmp_path / "mesh.vtk"
    write_vtk(path, np.zeros((5, 7, 3)), comment="first line\nsecond")
    lines = path.read_text().splitlines()
    assert lines[0] == "# vtk DataFile Version 3.0"
    assert lines[1] == "first line"      # multi-line comments are truncated
    assert lines[2] == "ASCII"
    assert lines[3] == "DATASET STRUCTURED_GRID"
    assert lines[4] == "DIMENSIONS 7 5 1"   # x runs over the second index
    assert lines[5] == "POINTS 35 double"
    assert len(lines) == 6 + 35


def test_vtk_write_rejects_bad_shapes(tmp_path):
    path = tmp_path / "mesh.vtk"
    with pytest.raises(ConfigError, match="shape"):
        write_vtk(path, np.zeros((5, 7, 2)))
    with pytest.raises(ConfigError, match="shape"):
        write_vtk(path, np.zeros((5, 3)))
    with pytest.raises(ConfigError, match="field 'f'"):
        write_vtk(path, np.zeros((5, 7, 3)), fields={"f": np.zeros((7, 5))})


def test_vtk_read_rejects_malformed_files(tmp_path):
    junk = tmp_path / "junk.vtk"
    junk.write_text("this is not a mesh\n")
    with pytest.raises(ConfigError, match="STRUCTURED_GRID"):
        read_vtk(junk)

    path = tmp_path / "mesh.vtk"
    write_vtk(path, np.ones((5, 7, 3)))
    text = path.read_text()

    twosheet = tmp_path / "two.vtk"
    twosheet.write_text(text.replace("DIMENSIONS 7 5 1", "DIMENSIONS 7 5 2"))
    with pytest.raises(ConfigError, match="single sheet"):
        read_vtk(twosheet)

    short = tmp_path / "short.vtk"
    short.write_text("\n".join(text.splitlines()[:20]) + "\n")
    with pytest.raises(ConfigError, match="truncated coordinate"):
        read_vtk(short)

    miscount = tmp_path / "count.vtk"
    miscount.write_text(text.replace("POINTS 35 double", "POINTS 34 double"))
    with pytest.raises(ConfigError, match="does not match"):
        read_vtk(miscount)

    for header, bad in (("DIMENSIONS 7 5 1", "DIMENSIONS 7 x 1"),
                        ("POINTS 35 double", "POINTS many double")):
        garbled = tmp_path / "header.vtk"
        garbled.write_text(text.replace(header, bad))
        keyword = bad.split()[0]
        with pytest.raises(ConfigError, match="bad %s header" % keyword):
            read_vtk(garbled)


def _per_node_vtk_text(positions, fields, comment):
    """The legacy-VTK text written one node and one value at a time."""
    n1, n2, _ = positions.shape
    lines = ["# vtk DataFile Version 3.0", comment, "ASCII",
             "DATASET STRUCTURED_GRID", "DIMENSIONS %d %d 1" % (n2, n1),
             "POINTS %d double" % (n1 * n2)]
    for i in range(n1):
        for j in range(n2):
            lines.append("%.17g %.17g %.17g" % tuple(positions[i, j]))
    lines.append("POINT_DATA %d" % (n1 * n2))
    for name, values in fields.items():
        lines += ["SCALARS %s double 1" % name, "LOOKUP_TABLE default"]
        for i in range(n1):
            for j in range(n2):
                lines.append("%.17g" % values[i, j])
    return "\n".join(lines) + "\n"


def test_vtk_writer_matches_the_per_node_format(tmp_path):
    pos = _awkward_positions()
    pos[2, 3] = (1e300, -1e300, 0.0)
    fields = {"energy": np.random.default_rng(11).standard_normal((5, 7)),
              "b_min": np.linspace(-1.0, 1.0, 35).reshape(5, 7)}
    fields["energy"][0, 1] = -0.0
    fields["energy"][3, 6] = 5e-324
    fields["b_min"][4, 0] = 1e300
    path = tmp_path / "mesh.vtk"
    write_vtk(path, pos, fields=fields, comment="densities")
    assert path.read_text() == _per_node_vtk_text(pos, fields, "densities")
    back, fback = read_vtk(path)
    assert back.tobytes() == pos.tobytes()
    for name in fields:
        assert fback[name].tobytes() == fields[name].tobytes()


def _percent_block(values, per_line):
    """The one-% template the whole-array formatter replaced, kept as its
    oracle: ``per_line`` %.17g numbers to a line."""
    line = " ".join(["%.17g"] * per_line) + "\n"
    flat = np.ravel(values).tolist()
    return ((line * (len(flat) // per_line)) % tuple(flat)).encode()


def _exact_ties(rng):
    """Doubles m 2^-k (m odd, k = 2 .. 24) whose exact decimal expansion has
    18 significant digits ending in 5: each lies halfway between two
    17-digit numbers."""
    ties = []
    for k in range(2, 25):
        lo = -(-(10 ** 17 * 2 ** k) // 10 ** k)
        hi = min(10 ** 18 * 2 ** k // 10 ** k, 2 ** 53)
        m = rng.integers(lo, hi, 60) | 1
        ties.append(m.astype(float) / 2.0 ** k)
    return np.concatenate(ties)


def _value_sets():
    rng = np.random.default_rng(25)
    n = 60000
    powers = np.array([float("1e%d" % k) for k in range(-323, 309)])
    subnormals = rng.integers(1, 2 ** 52, 200).astype(np.uint64).view(float)
    return {
        "random_1e300":
            rng.standard_normal(n) * 10.0 ** rng.uniform(-300, 300, n),
        "random_bits":
            rng.integers(0, 2 ** 64, n, dtype=np.uint64).view(float),
        "powers_of_ten": np.concatenate([
            powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
            -powers]),
        "exact_ties": _exact_ties(rng),
        "integers": np.concatenate([
            rng.integers(-2 ** 62, 2 ** 62, n).astype(float),
            np.arange(-1000.0, 1001.0), 2.0 ** np.arange(63)]),
        "three_decimals": np.round(rng.uniform(-1e4, 1e4, n), 3),
        "unit_interval": rng.uniform(-1.0, 1.0, n),
        "specials": np.array(
            [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
             -np.finfo(float).max, np.finfo(float).max, np.nan, -np.nan,
             np.inf, -np.inf, 1e16, 1e17, 9.9999999999999998e16, 1e-4,
             9.9999999999999991e-5, 1e-5, 0.1 + 0.2, 1.0 / 3.0]
            + list(subnormals) + list(-subnormals)),
    }


VALUE_SETS = _value_sets()


@pytest.mark.parametrize("per_line", [1, 3])
@pytest.mark.parametrize("name", sorted(VALUE_SETS))
def test_vtk_block_bytes_match_the_percent_template(name, per_line):
    values = VALUE_SETS[name]
    values = values[:values.size // per_line * per_line]
    out = io.BytesIO()
    _write_block(out, values, per_line)
    assert out.getvalue() == _percent_block(values, per_line)


def test_exact_ties_take_the_percent_fallback():
    ties = _exact_ties(np.random.default_rng(3))
    for x in ties.tolist():
        digits = Decimal(x).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5, x
    assert np.all(_decimal(ties)[0] == _SLOW)
    # everything else in the unit interval stays on the whole-array path
    plain = np.random.default_rng(4).uniform(-1.0, 1.0, 10000)
    assert not np.any(_decimal(plain)[0] == _SLOW)


def test_digit_groups_match_the_int64_divmod_chain():
    # the groups of one int64 split and int32 divmods against four int64
    # divmods, at both ends of [10^16, 10^17), the q = 10^16 that a carry
    # leaves (powers of ten: their first exponent estimate is one low, so
    # they round to 10^17), and seeded values
    rng = np.random.default_rng(17)
    carried = _decimal(np.array([1e-3, 10.0, 100.0, 1e5]))
    assert np.array_equal(carried[2], [10 ** 16] * 4)
    q = np.concatenate([[10 ** 16, 10 ** 17 - 1], carried[2],
                        rng.integers(10 ** 16, 10 ** 17, 10 ** 4)])
    g = np.empty((q.size, 5), dtype=np.int64)
    g[:, 0], rest = np.divmod(q, 10 ** 16)
    high, low = np.divmod(rest, 10 ** 8)
    g[:, 1], g[:, 2] = np.divmod(high, 10 ** 4)
    g[:, 3], g[:, 4] = np.divmod(low, 10 ** 4)
    assert np.array_equal(_digits(q)[0], _quads()[g].view(np.uint8))


def test_vtk_blocks_span_chunks_without_a_seam(tmp_path):
    # 4,095 values are formatted at a time; 3 x 9,409 coordinates and
    # 9,409 field values cross that boundary mid-line and mid-block
    rng = np.random.default_rng(9)
    pos = rng.standard_normal((97, 97, 3))
    fields = {"w": rng.standard_normal((97, 97)) * 1e-9}
    path = tmp_path / "big.vtk"
    write_vtk(path, pos, fields=fields, comment="big")
    expected = _per_node_vtk_text(pos, fields, "big").encode()
    assert path.read_bytes() == expected


def _replace_line(path, number, text):
    lines = path.read_text().splitlines()
    lines[number] = text
    path.write_text("\n".join(lines) + "\n")


def test_vtk_read_names_the_block_of_a_bad_value(tmp_path):
    path = tmp_path / "mesh.vtk"
    write_vtk(path, np.ones((5, 7, 3)), fields={"energy": np.ones((5, 7))})
    text = path.read_text()

    # a point line with a non-number
    _replace_line(path, 6 + 9, "1 1 zz")
    with pytest.raises(ConfigError, match=r"mesh\.vtk.*POINTS.*'zz'"):
        read_vtk(path)

    # a truncated coordinate block runs into POINT_DATA
    lines = text.splitlines()
    short = tmp_path / "short.vtk"
    short.write_text("\n".join(lines[:6 + 30] + lines[6 + 35:]) + "\n")
    with pytest.raises(ConfigError, match=r"short\.vtk.*POINTS.*POINT_DATA"):
        read_vtk(short)

    # a value of a field
    path.write_text(text)
    _replace_line(path, 6 + 35 + 3 + 12, "zz")
    with pytest.raises(ConfigError, match=r"mesh\.vtk.*'energy'.*'zz'"):
        read_vtk(path)

    # a truncated field runs into the next one
    second = text + "SCALARS other double 1\nLOOKUP_TABLE default\n"
    second += "1\n" * 35
    lines = second.splitlines()
    del lines[6 + 35 + 3 + 30:6 + 35 + 3 + 35]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=r"'energy'.*SCALARS"):
        read_vtk(path)


def test_vtk_read_takes_an_absent_scalars_component_count_as_one(tmp_path):
    # numComp is optional in "SCALARS name type [numComp]"
    values = np.linspace(-1.0, 1.0, 35).reshape(5, 7)
    path = tmp_path / "mesh.vtk"
    write_vtk(path, np.ones((5, 7, 3)), fields={"rho": values})
    text = path.read_text()
    path.write_text(text.replace("SCALARS rho double 1", "SCALARS rho double"))
    _, fields = read_vtk(path)
    assert fields["rho"].tobytes() == values.tobytes()


def test_vtk_read_rejects_multi_component_scalars(tmp_path):
    path = tmp_path / "mesh.vtk"
    write_vtk(path, np.ones((5, 7, 3)),
              fields={"rho": np.zeros((5, 7)), "phi": np.zeros((5, 7))})
    text = path.read_text()
    path.write_text(text.replace("SCALARS phi double 1", "SCALARS phi double 3"))
    with pytest.raises(ConfigError, match=r"'phi'.*component count 3"):
        read_vtk(path)


def test_vtk_read_rejects_a_file_ending_at_scalars(tmp_path):
    # no token follows SCALARS, so there is no field name to read
    path = tmp_path / "mesh.vtk"
    write_vtk(path, np.ones((3, 3, 3)))
    with open(path, "a") as fh:
        fh.write("POINT_DATA 9\nSCALARS\n")
    with pytest.raises(ConfigError, match=r"mesh\.vtk: SCALARS without"):
        read_vtk(path)


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_vtk_read_names_the_node_of_a_non_finite_point(tmp_path, token):
    # points are listed with the second index fastest, so line 6 + 7 * 3 + 4
    # holds node (3, 4) of a 5 x 7 grid
    path = tmp_path / "mesh.vtk"
    write_vtk(path, np.ones((5, 7, 3)))
    lines = path.read_text().splitlines()
    lines[6 + 7 * 3 + 4] = "1 %s 1" % token
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(NonFinitePosition) as info:
        read_vtk(path)
    assert info.value.index == (3, 4)
    assert "(3, 4)" in str(info.value)


# ---------------------------------------------------------------------------
# CSV tables


def test_csv_round_trip(tmp_path):
    path = tmp_path / "table.csv"
    header = ["h", "model", "note"]
    rows = [
        [0.1, 1, "plain"],
        [0.1 + 0.2, 3, "with, comma"],
        [np.float64(1.0) / 3.0, 2, 'say "hi"'],
        [-0.0, 1, ""],
    ]
    write_csv(path, header, rows)
    got_header, got_rows = read_csv(path)
    assert got_header == header
    assert len(got_rows) == 4
    for want, got in zip(rows, got_rows):
        # floats round-trip bit exactly through the %.17g cells
        assert np.array_equal(np.float64(got[0]), np.float64(want[0]))
        assert int(got[1]) == want[1]
        assert got[2] == want[2]
    assert np.signbit(np.float64(got_rows[3][0]))


def test_csv_read_rejects_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ConfigError, match="empty CSV"):
        read_csv(path)
