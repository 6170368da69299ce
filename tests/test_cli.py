import os
import re
import subprocess
import sys

import pytest

from proplab import EmptyTable
from proplab.cli import Config, emit_svg, format_number, main, render_csv

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
SRC_DIR = os.path.join(os.path.dirname(__file__), "..", "src")


def cfg_path(name):
    return os.path.join(CONFIG_DIR, name)


def test_format_number_round_trip():
    assert format_number(3) == "3"
    assert format_number(0.1) == "0.1"
    assert float(format_number(1.0 / 3.0)) == 1.0 / 3.0
    assert "e-07" in format_number(1.25e-7)


def test_render_csv_layout():
    text = render_csv(("a", "b"), [(1, 0.5), (2, 0.25)])
    assert text == "a,b\n1,0.5\n2,0.25\n"


def test_emit_svg_is_self_contained():
    svg = emit_svg(("n", "err"), [(1, 1.0), (2, 0.5)],
                   {"title": "t", "xlabel": "x", "ylabel": "y", "ylog": True,
                    "x": "n", "y": ["err"]})
    assert svg.startswith("<svg")
    assert "polyline" in svg
    assert "http" not in svg.replace("http://www.w3.org/2000/svg", "")


def test_emit_svg_row_numbers_and_log_floor():
    # without an x column the x values are the row numbers 1, 2, 3, and the
    # log axis floors the zero residual at 1e-18
    svg = emit_svg(("check", "residual"), [("a", 0.0), ("b", 1e-9), ("c", 1.0)],
                   {"ylog": True, "y": ["residual"]})
    assert '<polyline points="70.00,370.00 345.00,205.00 620.00,40.00"' in svg
    assert ">1e-18.00<" in svg and ">1<" in svg and ">3<" in svg


def test_emit_svg_empty_table_raises():
    with pytest.raises(EmptyTable):
        emit_svg(("n",), [], {"title": "t", "y": ["n"]})


def test_config_parsing_and_seed_override():
    cfg = Config(cfg_path("flow-random-suite.ini"))
    assert cfg.seed == 1
    cfg2 = Config(cfg_path("flow-random-suite.ini"), seed_override=9)
    assert cfg2.seed == 9


GRID = "[grid]\nhalf_width = 8.0\npoints = 64\n"
GRID_2D = "[grid]\ndim = 2\nhalf_width = 8.0\npoints = 64\n"


@pytest.mark.parametrize("command,body", [
    pytest.param("converge", "[grid]\nhalf_width = oops\npoints = 64\n", id="oops"),
    pytest.param("converge", "[grid]\nhalf_width = nan\npoints = 64\n", id="nan"),
    pytest.param("converge", GRID + "[time]\nn_list = 4,8\nreference_n = 16\n",
                 id="reference-n-below-4x"),
    pytest.param("converge", GRID + "[time]\nt = inf\n", id="t-inf"),
    pytest.param("converge", GRID + "[time]\nt = nan\n", id="t-nan"),
    pytest.param("converge", GRID + "[time]\nn_list =\n", id="n-list-empty"),
    pytest.param("converge", GRID + "[time]\nn_list = 0,4\n", id="n-list-zero"),
    pytest.param("converge", GRID + "[time]\nn_list = 4,100000000000000000000000\n",
                 id="n-list-beyond-int64"),
    pytest.param("converge", GRID + "[time]\nn_list = 4,8\nreference_n = 1" + "0" * 30
                 + "\n", id="reference-n-1e30"),
    pytest.param("converge", "[grid]\nhalf_width = 1e-160\npoints = 64\n"
                 "[time]\nn_list = 4,8\n", id="half-width-1e-160"),
    pytest.param("converge", "[grid]\nhalf_width = 1e160\npoints = 64\n"
                 "[time]\nn_list = 4,8\n", id="half-width-1e160"),
    pytest.param("converge", GRID_2D, id="dim-2-converge"),
    pytest.param("exceptional", GRID_2D + "[exceptional]\nt_star = 3.141592653589793\n",
                 id="dim-2-exceptional"),
    pytest.param("freeslice", GRID + "[time]\nt = inf\n", id="freeslice-t-inf"),
    pytest.param("freeslice", GRID + "[time]\nn_list =\n", id="freeslice-n-list-empty"),
    pytest.param("freeslice", GRID + "[time]\nn_list = 16\n", id="freeslice-n-list-16"),
    pytest.param("exceptional", GRID + "[exceptional]\nt_star = 3.141592653589793\n"
                 "offsets = -0.1\n", id="offsets-negative"),
    pytest.param("perturb", GRID + "[time]\nn_list = 4\n[perturb]\neps_list = 0\n",
                 id="eps-list-zero"),
    pytest.param("converge", GRID + "[potential]\npreset = gaussian-bump\nwidth = 0\n"
                 "[time]\nn_list = 4,8\n", id="bump-width-zero"),
    pytest.param("converge", "[grid]\nhalf_width = 8.0\npoints = 8\n"
                 "[time]\nn_list = 4,8\n", id="points-off-kernel-lattice"),
    pytest.param("perturb", GRID + "[time]\nn_list = 4\n[perturb]\nn = 0\n",
                 id="perturb-n-zero"),
    pytest.param("perturb", GRID + "[time]\nn_list = 4\n[perturb]\nn = 2097152\n",
                 id="perturb-n-above-2-20"),
    pytest.param("perturb", GRID + "[time]\nn_list = 4\n[perturb]\neps_list = 0.1\n",
                 id="eps-list-one-value"),
    pytest.param("perturb", GRID + "[time]\nn_list = 4\n[perturb]\neps_list = 0.1,0.1\n",
                 id="eps-list-repeated-value"),
    pytest.param("perturb", GRID + "[time]\nn_list = 4\n[perturb]\n"
                 "check_decomposition = true\n", id="check-decomposition-true"),
    pytest.param("kernel", GRID + "[hamiltonian]\npreset = free\n[kernel]\nradius = -1\n",
                 id="kernel-radius-negative"),
    pytest.param("flow", "[flow]\ncount = 0\n", id="flow-count-zero"),
    pytest.param("oracles", "[oracles]\nchecks = measure_bound\nmeasure_sets = 0\n",
                 id="measure-sets-zero"),
    pytest.param("oracles", "[oracles]\nmeasure_sets = 0\n", id="measure-sets-zero-all-checks"),
    pytest.param("oracles", "[oracles]\nchecks = ,\n", id="oracle-checks-empty"),
    pytest.param("converge", GRID + "[potential]\npreset = cosine-sum\n"
                 "terms = 1e308:1, 1e308:1\n[time]\nn_list = 4,8\n",
                 id="cosine-terms-overflow", marks=pytest.mark.filterwarnings("error")),
    pytest.param("kernel", "[grid]\nhalf_width = 8.0\npoints = 1048576\n"
                 "[hamiltonian]\npreset = free\n", id="points-above-1024"),
    pytest.param("converge", GRID + "[potential]\npreset = cosine-sum\nterms = inf:1\n"
                 "[time]\nn_list = 4,8\n", id="cosine-terms-inf"),
    pytest.param("converge", GRID + "[potential]\npreset = measure-atoms\natoms = 1:inf\n"
                 "[time]\nn_list = 4,8\n", id="measure-atoms-inf"),
    pytest.param("converge", "[grid]\nhalf_width = 8.0\npoints = 256\n"
                 "[potential]\npreset = random-band-limited\nband = 200\n"
                 "[time]\nn_list = 4,8\n", id="random-band-too-wide"),
    pytest.param("converge", GRID + "[potential]\npreset = random-band-limited\n"
                 "band = -1\n[time]\nn_list = 4,8\n", id="random-band-negative"),
    pytest.param("perturb", GRID + "[time]\nn_list = 4\n[perturb]\neps_list = 1.5,0.5\n",
                 id="eps-list-above-one"),
    pytest.param("freeslice", GRID + "[time]\nn_list = 0\n", id="freeslice-n-list-zero"),
    pytest.param("kernel", "[grid]\nhalf_width = 8.0\npoints = 0\n"
                 "[hamiltonian]\npreset = free\n", id="points-zero"),
    pytest.param("exceptional", GRID + "[exceptional]\nt_star = 1.0\n",
                 id="t-star-not-exceptional"),
    pytest.param("kernel", GRID + "[hamiltonian]\npreset = explicit\n"
                 "a = 1.0\nb = 0.0\nc = 1.0\n", id="kernel-explicit-hamiltonian"),
    pytest.param("flow", "[experiment]\nkind = converge\n" + GRID, id="kind-converge-for-flow"),
    pytest.param("oracles", "[experiment]\nkind = flow\n[flow]\ncount = 20\n",
                 id="kind-flow-for-oracles"),
    pytest.param("oracles", "[experiment]\nkind = oracles\nseed = 18446744073709551617\n"
                 "[oracles]\nchecks = measure_bound\n", id="seed-2-64-plus-1"),
    pytest.param("oracles", "[experiment]\nkind = oracles\nseed = -1\n"
                 "[oracles]\nchecks = measure_bound\n", id="seed-negative"),
    pytest.param("flow", "[flow]\ncount = 65537\n", id="flow-count-above-2-16"),
    pytest.param("oracles", "[oracles]\nchecks = measure_bound\nmeasure_sets = 65537\n",
                 id="measure-sets-above-2-16"),
    pytest.param("perturb", GRID + "[time]\nn_list = 4\n[perturb]\n"
                 "eps_list = 0.5,0.5000000000000001\n", id="eps-list-too-close"),
])
@pytest.mark.filterwarnings("error")  # a numpy warning would add stderr lines
def test_malformed_config_exits_2_without_files(tmp_path, capsys, command, body):
    bad = tmp_path / "bad.ini"
    header = "" if body.startswith("[experiment]") else f"[experiment]\nkind = {command}\n"
    bad.write_text(header + body)
    out = tmp_path / "out"
    out.mkdir()
    rc = main([command, "--config", str(bad), "--out", str(out), "--quiet"])
    assert rc == 2
    assert len(capsys.readouterr().err.strip().splitlines()) == 1
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_seed_option_outside_u64_exits_2_without_files(tmp_path, capsys, seed):
    cfg = tmp_path / "oracles.ini"
    cfg.write_text("[experiment]\nkind = oracles\n[oracles]\nchecks = measure_bound\n")
    out = tmp_path / "out"
    rc = main(["oracles", "--config", str(cfg), "--out", str(out), f"--seed={seed}",
               "--quiet"])
    lines = capsys.readouterr().err.strip().splitlines()
    assert rc == 2
    assert lines == [f"config error: --seed must be in 0..2^64 - 1: {seed}"]
    assert not out.exists()


def test_missing_config_exits_2(tmp_path):
    rc = main(["flow", "--config", str(tmp_path / "nope.ini"),
               "--out", str(tmp_path), "--quiet"])
    assert rc == 2


def test_flow_preset_runs_and_is_deterministic(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["flow", "--config", cfg_path("flow-random-suite.ini"),
                 "--out", str(out1), "--quiet"]) == 0
    assert main(["flow", "--config", cfg_path("flow-random-suite.ini"),
                 "--out", str(out2), "--quiet"]) == 0
    assert (out1 / "flow.csv").read_bytes() == (out2 / "flow.csv").read_bytes()
    assert (out1 / "flow.svg").exists()


@pytest.mark.parametrize("command,config", [
    ("converge", "harmonic-cos-t1.ini"),
    ("perturb", "decomposition-pinned.ini"),
])
def test_stft_preset_csv_is_deterministic(tmp_path, command, config):
    runs = []
    for name in ("a", "b"):
        assert main([command, "--config", cfg_path(config),
                     "--out", str(tmp_path / name), "--quiet"]) == 0
        runs.append((tmp_path / name / f"{command}.csv").read_bytes())
    assert runs[0] == runs[1]


def test_perturb_builds_each_kernel_and_split_once(tmp_path, monkeypatch):
    # three budgets: E_n(V) once plus one E_n(f1) per budget, one split per
    # budget; the counters wrap every module-level name a runner can call
    from proplab import cli, trotter

    calls = {"trotter_kernel": 0, "sjostrand_decompose": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        for module in (cli, trotter):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    assert main(["perturb", "--config", cfg_path("decomposition-pinned.ini"),
                 "--out", str(tmp_path), "--quiet"]) == 0
    assert calls == {"trotter_kernel": 4, "sjostrand_decompose": 3}


def test_exceptional_preset_csv_schema(tmp_path):
    assert main(["exceptional", "--config", cfg_path("exceptional-harmonic.ini"),
                 "--out", str(tmp_path), "--quiet"]) == 0
    header = (tmp_path / "exceptional.csv").read_text().splitlines()[0]
    assert header == "delta,sup_kernel,detB_invsqrt,ratio"


def test_freeslice_preset(tmp_path):
    assert main(["freeslice", "--config", cfg_path("freeslice-cos.ini"),
                 "--out", str(tmp_path), "--quiet"]) == 0
    lines = (tmp_path / "freeslice.csv").read_text().splitlines()
    assert lines[0] == "n,relative_difference"
    assert len(lines) == 5


def test_failed_assertion_exits_nonzero(tmp_path):
    strict = tmp_path / "strict.ini"
    strict.write_text(
        "[experiment]\nkind = flow\nseed = 1\n"
        "[flow]\ncount = 20\nsymplectic_tol = 1e-30\n")
    rc = main(["flow", "--config", str(strict), "--out", str(tmp_path),
               "--quiet"])
    assert rc == 1


def test_kernel_failed_checks_exit_1(tmp_path, capsys):
    # no residual is within 1e-30: each of the three harmonic rows fails
    cfg = tmp_path / "kernel.ini"
    cfg.write_text("[experiment]\nkind = kernel\n" + GRID
                   + "[kernel]\ntolerance = 1e-30\n")
    out = tmp_path / "out"
    rc = main(["kernel", "--config", str(cfg), "--out", str(out), "--quiet"])
    failed = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("FAILED:")]
    assert rc == 1
    table = (out / "kernel.csv").read_text().splitlines()[1:]
    rows = [line.split(",")[0] for line in table]
    assert rows == ["quadrature_vs_mehler", "fast_vs_quadrature", "sup_magnitude"]
    assert [line.split()[2] for line in failed] == [f"{row}:" for row in rows]


def run_flow_range(tmp_path, t_range):
    cfg = tmp_path / "flow.ini"
    cfg.write_text(f"[experiment]\nkind = flow\nseed = 1\n[flow]\nt_range = {t_range}\n")
    out = tmp_path / "out"
    return main(["flow", "--config", str(cfg), "--out", str(out), "--quiet"]), out


def test_large_flow_range_reports_failed_checks(tmp_path, capsys):
    # entries near 1e3 round det - 1 above 1e-10; the suite's own
    # symplectic_tol reports it instead of the blocks' constructor
    rc, out = run_flow_range(tmp_path, "-50,50")
    err = capsys.readouterr().err
    assert rc == 1
    assert "FAILED: symplectic defect" in err and "Traceback" not in err
    text = (out / "flow.csv").read_text()
    assert "nan" not in text and "inf" not in text


def test_overflowing_flow_exits_1_without_files(tmp_path, capsys):
    # cosh past 1e154 overflows det = a d - b c: one error line, no files
    rc, out = run_flow_range(tmp_path, "-3000,3000")
    lines = capsys.readouterr().err.strip().splitlines()
    assert rc == 1
    assert len(lines) == 1 and lines[0].startswith("ProplabError: flow case")
    assert not out.exists()


@pytest.mark.parametrize("command,body", [
    pytest.param("kernel", GRID + "[hamiltonian]\npreset = free\n[time]\nt = 1e308\n",
                 id="kernel"),
    pytest.param("exceptional", GRID + "[exceptional]\nt_star = 1e308\n", id="t-star"),
    pytest.param("exceptional", GRID + "[exceptional]\nt_star = 3.141592653589793\n"
                 "offsets = 1e308\n", id="offsets"),
    pytest.param("converge", GRID + "[time]\nt = 1e308\nn_list = 4,8\n", id="converge"),
    pytest.param("modbound", GRID + "[time]\nt = 1e308\nn_list = 4,8\n", id="modbound"),
    pytest.param("freeslice", GRID + "[time]\nt = 1e308\n", id="freeslice"),
])
@pytest.mark.filterwarnings("error")  # an overflow warning would add stderr lines
def test_overflowing_time_exits_1_without_files(tmp_path, capsys, command, body):
    # the flow's entries leave the float range: one error line, no files
    cfg = tmp_path / "huge.ini"
    cfg.write_text(f"[experiment]\nkind = {command}\n" + body)
    out = tmp_path / "out"
    rc = main([command, "--config", str(cfg), "--out", str(out), "--quiet"])
    lines = capsys.readouterr().err.strip().splitlines()
    assert rc == 1
    assert len(lines) == 1 and lines[0].startswith("ProplabError: flow at t =")
    assert not out.exists()


@pytest.mark.parametrize("command,t", [("converge", "3.141592653589793"),
                                       ("modbound", "3.141592653589793"),
                                       ("perturb", "3.141592653589793"),
                                       ("freeslice", "0.0")])
@pytest.mark.filterwarnings("error")  # a numpy warning would add a stderr line
def test_exceptional_time_exits_1_before_numerics(tmp_path, capsys, command, t):
    # B_t = sin t (harmonic) vanishes at t = pi, and B_t = t (free, as
    # freeslice uses) at t = 0: NotFree before any powering
    cfg = tmp_path / "exceptional.ini"
    cfg.write_text(f"[experiment]\nkind = {command}\n" + GRID
                   + f"[time]\nt = {t}\nn_list = 4,8\n")
    out = tmp_path / "out"
    rc = main([command, "--config", str(cfg), "--out", str(out), "--quiet"])
    lines = capsys.readouterr().err.strip().splitlines()
    assert rc == 1
    assert len(lines) == 1 and lines[0].startswith("NotFree:")
    assert not out.exists()


def run_text(tmp_path, capsys, command, text):
    """Run command on the config text: (exit code, stderr lines, output dir)."""
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    out = tmp_path / "out"
    rc = main([command, "--config", str(cfg), "--out", str(out), "--quiet"])
    return rc, capsys.readouterr().err.strip().splitlines(), out


ATOM_10000J = "[potential]\npreset = measure-atoms\natoms = 1.0:10000j\n"


@pytest.mark.parametrize("command,body", [
    pytest.param("converge", GRID + ATOM_10000J, id="converge"),
    pytest.param("modbound", GRID + ATOM_10000J, id="modbound"),
    pytest.param("perturb", GRID + ATOM_10000J, id="perturb"),
    pytest.param("freeslice", GRID + ATOM_10000J, id="freeslice"),
    pytest.param("freeslice", GRID + "[potential]\npreset = cosine-sum\nterms = 1.0:1.0\n"
                 "[time]\nt = 1e100\n", id="freeslice-t-1e100"),
])
@pytest.mark.filterwarnings("error")  # a numpy warning would add stderr lines
def test_kernel_out_of_float_range_exits_1_without_files(tmp_path, capsys, command, body):
    # an imaginary atom of mass 10000 makes |exp(-i tau V)| overflow, and at
    # t = 1e100 the free step's |t|^{-1/2} underflows its powers to zero: one
    # error line from the powering, no NaN table
    rc, lines, out = run_text(tmp_path, capsys, command,
                              f"[experiment]\nkind = {command}\n" + body)
    assert rc == 1
    assert len(lines) == 1
    assert re.fullmatch(r"ProplabError: the \d+-step kernel at tau = \S+ "
                        r"leaves the float range", lines[0])
    assert not out.exists()


@pytest.mark.filterwarnings("error")  # the leak ratio was 0/0 at V = 0
def test_perturb_zero_potential_leaks_nothing(tmp_path, capsys):
    # V = 0 splits into two zero bands, so the low band leaks nothing and
    # every remainder is 0; the fit of a constant log remainder has slope
    # -0.0, which the slope gate still reports
    rc, lines, out = run_text(tmp_path, capsys, "perturb",
                              "[experiment]\nkind = perturb\n" + GRID
                              + "[potential]\npreset = zero\n[time]\nn_list = 4\n"
                              "[perturb]\ncheck_decomposition = yes\nslope_lo = 0.0\n")
    assert rc == 1
    assert lines == ["FAILED: log-log slope -0.000 outside [0.0, 1.2]"]
    assert "nan" not in (out / "perturb.csv").read_text()


@pytest.mark.filterwarnings("error")  # the overflowing bound warned
def test_perturb_bound_past_float_range_is_inf(tmp_path, capsys):
    # at t = 400, eps |t| C e^{2|t|C} exceeds the floats: the bound is inf,
    # which every remainder is within
    with open(cfg_path("decomposition-pinned.ini")) as handle:
        text = handle.read()
    assert "\nt = 1.0\n" in text
    rc, lines, out = run_text(tmp_path, capsys, "perturb",
                              text.replace("\nt = 1.0\n", "\nt = 400\n"))
    assert (rc, lines) == (0, [])
    assert (out / "perturb.csv").exists()


def run_python(*args):
    """A fresh interpreter that imports proplab from this checkout."""
    paths = [SRC_DIR, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env)


def test_cli_import_loads_no_scipy():
    code = ("import sys, proplab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_console_entry_point():
    proc = run_python("-m", "proplab.cli", "--help")
    assert proc.returncode == 0
    for name in ("flow", "kernel", "converge", "modbound", "exceptional",
                 "perturb", "freeslice", "oracles"):
        assert name in proc.stdout
