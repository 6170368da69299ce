import os
import re
import stat
import subprocess
import sys
import time

import numpy as np
import pytest

from proplab import ConfigError, EmptyTable, GridSpec, QuadraticHamiltonian, propagator_for
from proplab.cli import (KEYS, RUNNERS, Config, _bundled_openblas, _fast_vs_quadrature,
                         emit_svg, format_number, main, render_csv, run_freeslice, run_kernel)
from proplab.oracles import free_kernel_residual

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
README = os.path.join(os.path.dirname(__file__), "..", "README.md")
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


@pytest.mark.parametrize("band", [0, 5])
def test_random_band_limited_potential_keeps_its_band(tmp_path, band):
    # V is real and its spectrum lies on |k| <= band: band 0 is a constant
    path = tmp_path / "band.ini"
    path.write_text("[experiment]\nseed = 3\n[potential]\npreset = random-band-limited\n"
                    f"band = {band}\n")
    cfg = Config(str(path))
    grid = GridSpec(1, 8.0, 64)
    v = cfg.potential(grid).values
    mag = np.abs(np.fft.fft(v))
    k = np.abs(np.fft.fftfreq(grid.points, 1.0 / grid.points))
    assert not np.any(v.imag)
    assert mag[k <= band].max() > 1.0
    assert mag[k > band].max() < 1e-12 * mag.max()


GRID = "[grid]\nhalf_width = 8.0\npoints = 64\n"
GRID_2D = "[grid]\ndim = 2\nhalf_width = 8.0\npoints = 64\n"


def preset_with(name, old, new):
    """The preset's text with one edit; the preset keeps its [experiment]."""
    with open(cfg_path(name)) as handle:
        text = handle.read()
    assert old in text
    return text.replace(old, new)


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
    # an undeclared section or key, which a reader would take as absent
    pytest.param("freeslice", preset_with("freeslice-cos.ini", "[potential]", "[potentail]"),
                 id="section-potentail"),
    pytest.param("kernel", preset_with("harmonic-kernel.ini", "tolerance = 1e-6",
                                       "tolerence = 1e-30"), id="key-tolerence"),
    pytest.param("converge", preset_with("harmonic-cos-t1.ini", "n_list =", "n_lsit ="),
                 id="key-n-lsit"),
    pytest.param("kernel", "[DEFAULT]\ntolerance = 1e-30\n" + GRID + "[kernel]\nradius = 4.0\n",
                 id="default-with-kernel"),
    pytest.param("flow", "[DEFAULT]\ntolerance = 1e-30\n[flow]\ncount = 20\n",
                 id="default-without-kernel"),
    pytest.param("converge", GRID + "[potential]\npreset = cosine-sum\nterms =\n"
                 "[time]\nn_list = 4,8\n", id="cosine-terms-empty"),
    pytest.param("converge", GRID + "[potential]\npreset = measure-atoms\natoms = ,\n"
                 "[time]\nn_list = 4,8\n", id="measure-atoms-empty"),
    pytest.param("flow", "[flow]\nt_range = -1e308,1e308\n", id="flow-t-range-overflow"),
    # (1 + 1e-6) * 1e-320 rounds to 1e-320: one subnormal budget passed as two
    pytest.param("perturb", GRID + "[time]\nn_list = 4\n[perturb]\neps_list = 1e-320\n",
                 id="eps-list-subnormal"),
    # bytes that are not UTF-8, in a comment
    pytest.param("flow", b"[experiment]\nkind = flow\n# \xff\n", id="not-utf-8"),
])
@pytest.mark.filterwarnings("error")  # a numpy warning would add stderr lines
def test_malformed_config_exits_2_without_files(tmp_path, capsys, command, body):
    bad = tmp_path / "bad.ini"
    if isinstance(body, str):
        header = "" if "[experiment]" in body else f"[experiment]\nkind = {command}\n"
        body = (header + body).encode()
    bad.write_bytes(body)
    out = tmp_path / "out"
    out.mkdir()
    rc = main([command, "--config", str(bad), "--out", str(out), "--quiet"])
    assert rc == 2
    assert len(capsys.readouterr().err.strip().splitlines()) == 1
    assert list(out.iterdir()) == []


HOSTILE = ("nan", "inf", "-inf", "0", "-1", "1e30", str(2**20 + 1), "", "garbage",
           "1:2:3", "1:1e400j", "(1+2j)", "5%", "%(seed)s")


def numbers(value):
    """The numbers in a value read from a config, lists and pairs flattened."""
    if isinstance(value, (list, tuple)):
        return [x for item in value for x in numbers(item)]
    return [] if isinstance(value, str) else [value]


def test_hostile_values_read_within_their_rule_or_raise_config_error(tmp_path):
    # each row of the key table, alone in a config with each hostile value:
    # Config reads a value of finite numbers that the row's rule accepts, or
    # raises ConfigError, and nothing else
    start = time.perf_counter()
    path = tmp_path / "hostile.ini"
    for row, (_, _, domain) in KEYS.items():
        command, section, key = row if len(row) == 3 else (None, *row)
        for value in HOSTILE:
            path.write_text(f"[{section}]\n{key} = {value}\n")
            try:
                read = Config(str(path), command=command).get(section, key)
            except ConfigError:
                continue
            assert domain is None or domain[0](read), (row, value)
            assert all(np.isfinite(x) for x in numbers(read)), (row, value)
    assert time.perf_counter() - start < 1.0


def test_readme_key_table_matches_the_code():
    # the README's config table has one row per row of KEYS, and a command's
    # own row names that command alone
    with open(README) as handle:
        cells = [[c.strip().strip("`") for c in line.split("|")[1:6]]
                 for line in handle if line.startswith("| `[")]
    documented = sorted((section.strip("[]"), key) for section, key, *_ in cells)
    assert documented == sorted(row[-2:] for row in KEYS)
    rows = {(commands, section.strip("[]"), key) for section, key, _, _, commands in cells}
    assert {row for row in KEYS if len(row) == 3} <= rows


def test_readme_example_config_reads(tmp_path):
    # its comments are lines of their own, as a comment after a value would
    # be part of the value; every key it shows reads as converge reads it
    with open(README) as handle:
        example = re.search(r"```ini\n(.*?)```", handle.read(), re.S).group(1)
    path = tmp_path / "example.ini"
    path.write_text(example)
    cfg = Config(str(path), command="converge")
    values = [cfg.get(section, key) for section in cfg.parser.sections()
              for key in cfg.parser[section]]
    assert values[:2] == ["converge", 1] and len(values) == 11


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


@pytest.mark.parametrize("out", ["taken", "taken/sub", pytest.param("", id="empty"),
                                 pytest.param("made", id="svg-is-a-directory"),
                                 "dangling", "dangling/sub"])
def test_out_naming_a_file_exits_2_before_the_run(tmp_path, capsys, monkeypatch, out):
    # made/flow.svg is a directory, which os.replace cannot replace; --out ""
    # would write into the working directory, tmp_path; dangling is a symlink
    # to nothing, which os.makedirs can neither make nor enter
    (tmp_path / "taken").write_text("")
    (tmp_path / "made" / "flow.svg").mkdir(parents=True)
    (tmp_path / "dangling").symlink_to(tmp_path / "nowhere")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setitem(RUNNERS, "flow", lambda cfg: pytest.fail("the scenario ran"))
    rc = main(["flow", "--config", cfg_path("flow-random-suite.ini"),
               "--out", out, "--quiet"])
    lines = capsys.readouterr().err.strip().splitlines()
    assert rc == 2
    assert len(lines) == 1 and lines[0].startswith("config error: --out ")
    assert sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")) == [
        "dangling", "made", os.path.join("made", "flow.svg"), "taken"]
    assert (tmp_path / "taken").read_text() == ""
    assert not (tmp_path / "nowhere").exists()


def test_outputs_take_the_mode_of_a_plain_write(tmp_path):
    # mkstemp makes its file 0o600; the outputs get what open(path, "w")
    # gives, 0o644 under umask 0o022
    old = os.umask(0o022)
    try:
        assert main(["flow", "--config", cfg_path("flow-random-suite.ini"),
                     "--out", str(tmp_path), "--quiet"]) == 0
        (tmp_path / "plain").write_text("")
    finally:
        os.umask(old)
    modes = {name: stat.S_IMODE(os.stat(tmp_path / name).st_mode)
             for name in ("flow.csv", "flow.svg", "plain")}
    assert modes == {"flow.csv": 0o644, "flow.svg": 0o644, "plain": 0o644}


def test_missing_config_exits_2(tmp_path):
    rc = main(["flow", "--config", str(tmp_path / "nope.ini"),
               "--out", str(tmp_path), "--quiet"])
    assert rc == 2


def test_flow_preset_runs_and_is_deterministic(tmp_path):
    # the second run reads the preset after a UTF-8 BOM, which is UTF-8 too
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    with open(cfg_path("flow-random-suite.ini"), "rb") as handle:
        (tmp_path / "bom.ini").write_bytes(b"\xef\xbb\xbf" + handle.read())
    assert main(["flow", "--config", cfg_path("flow-random-suite.ini"),
                 "--out", str(out1), "--quiet"]) == 0
    assert main(["flow", "--config", str(tmp_path / "bom.ini"),
                 "--out", str(out2), "--quiet"]) == 0
    for name in ("flow.csv", "flow.svg"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


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
    # budget, all from one STFT of V and one adjoint-bound constant C_g; the
    # counters wrap every module-level name a runner can call
    from proplab import cli, tfa, trotter

    cfg = Config(cfg_path("decomposition-pinned.ini"))
    v = cfg.potential(cfg.grid()).values
    calls = {"trotter_kernel": 0, "_split_stft": 0, "cross_ambiguity_l1": 0, "stft": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            # stft counts only the transforms of V; the checks transform f1, f2
            if name != "stft" or np.array_equal(args[0].values, v):
                calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        for module in (cli, trotter, tfa):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    assert main(["perturb", "--config", cfg_path("decomposition-pinned.ini"),
                 "--out", str(tmp_path), "--quiet"]) == 0
    assert calls == {"trotter_kernel": 4, "_split_stft": 3, "cross_ambiguity_l1": 1,
                     "stft": 1}


def test_perturb_powers_every_kernel_by_parity_blocks(tmp_path, monkeypatch):
    # V is even bit for bit and so, symmetrized, is each low band f1: E_n(V)
    # and the three E_n(f1) all take the parity blocks (only E_n(V) did
    # while f1 was even to rounding only)
    from proplab import trotter

    calls = []
    power_blocks = trotter._power_blocks

    def counted(*args, **kwargs):
        calls.append(1)
        return power_blocks(*args, **kwargs)

    monkeypatch.setattr(trotter, "_power_blocks", counted)
    assert main(["perturb", "--config", cfg_path("decomposition-pinned.ini"),
                 "--out", str(tmp_path), "--quiet"]) == 0
    assert len(calls) == 4


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


GRID_1024 = "[grid]\nhalf_width = 16.0\npoints = 1024\n"


@pytest.mark.parametrize("points", [32, 256, 1024])
def test_blocked_fast_path_matches_full_product(points):
    # the fast path's FFTs transform each column on its own, so the blocked
    # maximum is the full product's bit for bit; 32 points make one narrow block
    grid = GridSpec(1, 16.0 if points > 32 else 4.0, points)
    prop = propagator_for(QuadraticHamiltonian.harmonic(1), 0.9, grid)
    kq = prop.kernel_entries()
    full = prop.apply_columns(np.eye(points, dtype=complex) / grid.cell)
    assert _fast_vs_quadrature(prop, kq) == float(np.max(np.abs(full - kq)))


def test_kernel_check_memory_stays_small(tmp_path, traced_peak):
    # the quadrature kernel, Mehler's and one modulus array (16 + 16 + 8 MiB
    # at N = 1024), and the fast path in column blocks: measured 40.1 MiB,
    # 112.3 MiB with the fast path applied to the whole identity
    path = tmp_path / "kernel.ini"
    path.write_text("[experiment]\nkind = kernel\n[hamiltonian]\npreset = harmonic\n"
                    + GRID_1024 + "[kernel]\ntolerance = 1e-6\n")
    cfg = Config(str(path))
    assert traced_peak(lambda: run_kernel(cfg)) < 42


def test_freeslice_memory_stays_small(tmp_path, traced_peak):
    # one n's kernels at a time: the CHIRP kernel alive while the path
    # quadrature powers (16 + 25 MiB at N = 1024): measured 41.3 MiB; 48.0 MiB
    # with full steps, 64.0 MiB with the previous n's pair still alive
    path = tmp_path / "freeslice.ini"
    path.write_text("[experiment]\nkind = freeslice\n[potential]\npreset = cosine-sum\n"
                    "terms = 1.0:0.875\n" + GRID_1024 + "[time]\nt = 1.0\nn_list = 1,2,4,8\n")
    cfg = Config(str(path))
    assert traced_peak(lambda: run_freeslice(cfg)) < 50


def test_free_kernel_residual_memory_stays_small(traced_peak):
    # the kernel takes the difference in place (16 MiB at N = 1024, and 8 MiB
    # of moduli): measured 24.2 MiB, 38.1 MiB out of place
    grid = GridSpec(1, 12.0, 1024)
    assert traced_peak(lambda: free_kernel_residual(1.0, grid, 6.0)) < 26


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


@pytest.mark.filterwarnings("error")  # numpy warned from the multiplier's FFT
def test_nonfinite_grid_hamiltonian_exits_1_without_files(tmp_path, capsys):
    # c = 1e308 overflows the xi^2 multiplier: one error line, no files
    rc, lines, out = run_text(tmp_path, capsys, "converge",
                              "[experiment]\nkind = converge\n" + GRID
                              + "[hamiltonian]\npreset = explicit\na = 1.0\nb = 0.0\n"
                              "c = 1e308\n[time]\nn_list = 4,8\n")
    assert rc == 1
    assert len(lines) == 1
    assert lines[0].startswith("ProplabError: the grid Hamiltonian of a = 1.0, b = 0.0")
    assert not out.exists()


ATOM_10000J = "[potential]\npreset = measure-atoms\natoms = 1.0:10000j\n"
# within the float range before the 1/cell scaling, past it after
PAST_CELL = ("[grid]\nhalf_width = 8.0\npoints = 256\n[hamiltonian]\npreset = harmonic\n"
             "[time]\nt = 1.0\nn_list = 4,8,16\n[potential]\npreset = measure-atoms\n")


@pytest.mark.parametrize("command,body", [
    pytest.param("converge", PAST_CELL + "atoms = 0:709.5j\n", id="converge-past-cell"),
    pytest.param("modbound", PAST_CELL + "atoms = 0:709.5j\n", id="modbound-past-cell"),
    pytest.param("perturb", PAST_CELL + "atoms = 0:709.5j\n", id="perturb-past-cell"),
    pytest.param("freeslice", PAST_CELL.replace("4,8,16", "1") + "atoms = 0:711j\n",
                 id="freeslice-past-cell"),
    pytest.param("converge", GRID + ATOM_10000J, id="converge"),
    pytest.param("modbound", GRID + ATOM_10000J, id="modbound"),
    pytest.param("perturb", GRID + ATOM_10000J, id="perturb"),
    pytest.param("freeslice", GRID + ATOM_10000J, id="freeslice"),
    pytest.param("freeslice", GRID + "[potential]\npreset = cosine-sum\nterms = 1.0:1.0\n"
                 "[time]\nt = 1e100\n", id="freeslice-t-1e100"),
])
@pytest.mark.filterwarnings("error")  # a numpy warning would add stderr lines
def test_kernel_out_of_float_range_exits_1_without_files(tmp_path, capsys, command, body):
    # an imaginary atom of mass 10000 makes |exp(-i tau V)| overflow, at
    # t = 1e100 the free step's |t|^{-1/2} underflows its powers to zero, and
    # a mass near 710 overflows only in the kernel's 1/cell scaling: one
    # error line from the kernel's exit, no NaN table
    rc, lines, out = run_text(tmp_path, capsys, command,
                              f"[experiment]\nkind = {command}\n" + body)
    assert rc == 1
    assert len(lines) == 1
    assert re.fullmatch(r"ProplabError: the \d+-step kernel at tau = \S+ "
                        r"leaves the float range", lines[0])
    assert not out.exists()


def test_converge_names_the_failed_windowed_column(tmp_path, capsys, monkeypatch):
    # only fl1_z21 rises with n, far above the Cauchy floor: the one windowed
    # FAILED line names that CSV column, not a bare center index
    from proplab import trotter

    calls = []

    def rising(diff, grid, mirrored=False):
        calls.append(1)
        return tuple(float(len(calls)) if k == 7 else 1.0 / len(calls) for k in range(9))

    monkeypatch.setattr(trotter, "_windowed_fl1", rising)
    rc, lines, out = run_text(tmp_path, capsys, "converge",
                              "[experiment]\nkind = converge\n" + GRID
                              + "[time]\nn_list = 4,8,16\n")
    assert rc == 1
    assert [line for line in lines if "windowed" in line] == \
        ["FAILED: windowed error fl1_z21 not decreasing"]
    assert (out / "converge.csv").read_text().splitlines()[0].split(",")[9] == "fl1_z21"


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


def test_freeslice_zero_potential_passes(tmp_path, capsys):
    # at V = 0 the chirp product kernel powers the t/n quadrature, as for any
    # V, so it matches the n-slice path quadrature
    with open(cfg_path("freeslice-cos.ini")) as handle:
        text = handle.read()
    assert "preset = cosine-sum" in text
    rc, lines, _ = run_text(tmp_path, capsys, "freeslice",
                            text.replace("preset = cosine-sum", "preset = zero"))
    assert (rc, lines) == (0, [])


@pytest.mark.parametrize("command,config", [
    ("modbound", "modbound-harmonic-cos.ini"),
    ("perturb", "decomposition-pinned.ini"),
])
def test_reference_n_is_read_by_converge_only(tmp_path, command, config):
    # neither command builds a reference kernel: a reference_n below
    # 4 * max(n_list), or not a number, leaves their files as without the key
    with open(cfg_path(config)) as handle:
        text = handle.read()
    key = re.search(r"\nreference_n = \d+\n", text).group(0)
    outputs = []
    for value in (None, "16", "oops"):
        cfg = tmp_path / f"{value}.ini"
        cfg.write_text(text.replace(key, "\n" if value is None
                                    else f"\nreference_n = {value}\n"))
        out = tmp_path / f"out-{value}"
        assert main([command, "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        outputs.append([(out / f"{command}.{ext}").read_bytes() for ext in ("csv", "svg")])
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def run_python(*args, **env_vars):
    """A fresh interpreter that imports proplab from this checkout, with
    env_vars added to its environment."""
    paths = [SRC_DIR, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p), **env_vars)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env)


@pytest.mark.parametrize("preset,command", [("harmonic-cos-t1", "converge"),
                                            ("freeslice-cos", "freeslice")],
                         ids=["harmonic-cos-t1", "freeslice-cos"])
def test_outputs_do_not_depend_on_blas_threads(tmp_path, preset, command):
    # OpenBLAS sums a product by thread count: without the pin, two threads
    # change 74 of harmonic-cos-t1's 91 values in their last bits; both
    # presets power parity blocks side by side, the spectral and the free ones
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        proc = run_python("-m", "proplab.cli", command, "--config",
                          cfg_path(f"{preset}.ini"), "--out", str(out), "--quiet",
                          OPENBLAS_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
        outputs.append([(out / f"{command}.{ext}").read_bytes() for ext in ("csv", "svg")])
    assert outputs[0] == outputs[1]


def test_blas_pin_holds_one_thread_and_restores_the_count(tmp_path, monkeypatch):
    lib = _bundled_openblas()
    assert lib is not None  # numpy's wheels bundle scipy-openblas
    seen = []
    flow = RUNNERS["flow"]

    def runner(cfg):
        seen.append(lib.scipy_openblas_get_num_threads64_())
        return flow(cfg)

    monkeypatch.setitem(RUNNERS, "flow", runner)
    old = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(2)
    try:
        path = tmp_path / "flow.ini"
        path.write_text("[experiment]\nkind = flow\n[flow]\ncount = 2\n")
        assert main(["flow", "--config", str(path), "--out", str(tmp_path), "--quiet"]) == 0
        assert lib.scipy_openblas_get_num_threads64_() == 2
    finally:
        lib.scipy_openblas_set_num_threads64_(old)
    assert seen == [1]


def test_cli_import_loads_no_scipy():
    code = ("import sys, proplab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_perturb_run_loads_no_numpy_ma(tmp_path):
    # np.unique imports numpy.ma on its first call, 8-16 ms of a perturb run
    code = ("import sys; from proplab.cli import main; "
            f"code = main(['perturb', '--config', {cfg_path('decomposition-pinned.ini')!r}, "
            f"'--out', {str(tmp_path)!r}, '--quiet']); "
            "print(code, 'numpy.ma' in sys.modules)")
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 False"


def test_console_entry_point():
    proc = run_python("-m", "proplab.cli", "--help")
    assert proc.returncode == 0
    for name in ("flow", "kernel", "converge", "modbound", "exceptional",
                 "perturb", "freeslice", "oracles"):
        assert name in proc.stdout
