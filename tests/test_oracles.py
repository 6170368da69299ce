"""The oracle battery's row and stream rules, run through the command line,
and the README's list of its checks."""

import csv
import os
import re
import sys

from proplab import oracles, weyl
from proplab.cli import main

README = os.path.join(os.path.dirname(__file__), "..", "README.md")
CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


def battery_rows(tmp_path, checks=None, seed=7, measure_sets=3):
    """The (check, residual, threshold) rows of oracles.csv as written, for
    the listed checks or, with checks None, for a config without the key."""
    out = tmp_path / f"out-{checks}"
    cfg = tmp_path / f"{checks}.ini"
    listed = "" if checks is None else f"checks = {checks}\n"
    cfg.write_text(f"[experiment]\nkind = oracles\nseed = {seed}\n"
                   f"[oracles]\n{listed}measure_sets = {measure_sets}\n")
    assert main(["oracles", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    with open(out / "oracles.csv") as handle:
        return [tuple(row) for row in csv.reader(handle)][1:]


def test_each_residual_is_the_same_whatever_else_is_listed(tmp_path):
    # the signal's and the symbol's draws are made whatever is listed, so
    # measure_bound reads the same stream alone, after all seven checks, or
    # listed first with a repeat; CSV numbers round-trip, so equal text is
    # equal bits
    every = {row[0]: row for row in battery_rows(tmp_path)}
    for checks in ("measure_bound", "measure_bound,mehler,mehler",
                   "fio_swap,covariance,stft_inversion,measure_bound"):
        rows = battery_rows(tmp_path, checks)
        assert rows == [every[row[0]] for row in rows]
        assert rows[-1][0] == "measure_bound"


def test_rows_come_in_table_order_one_per_name(tmp_path):
    assert [row[0] for row in battery_rows(tmp_path)] == list(oracles.CHECKS)
    rows = battery_rows(tmp_path, "measure_bound,fio_swap,stft_inversion,mehler,mehler,"
                                  "fio_swap")
    assert [row[0] for row in rows] == ["mehler", "stft_inversion", "fio_swap",
                                        "measure_bound"]


def test_readme_lists_the_checks_of_the_table():
    # each check once, in table order, with its threshold
    with open(README) as handle:
        section = handle.read().split("### Oracle checks", 1)[1].split("\n#", 1)[0]
    listed = re.findall(r"^- `(\w+)` ≤ ([0-9.e+-]+):", section, re.M)
    assert [(name, float(threshold)) for name, threshold in listed] == \
        [(name, threshold) for name, (_, threshold) in oracles.CHECKS.items()]


def count_quantizations(tmp_path, monkeypatch, checks):
    """weyl_quantize calls of one oracles run on the listed checks, counted
    at every proplab module that binds the function."""
    calls = []
    quantize = weyl.weyl_quantize

    def counted(sigma):
        calls.append(1)
        return quantize(sigma)

    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").split(".")[0] == "proplab"
                and getattr(module, "weyl_quantize", None) is quantize):
            monkeypatch.setattr(module, "weyl_quantize", counted)
    battery_rows(tmp_path, checks)
    return len(calls)


def test_battery_quantizes_the_symbol_at_most_once(tmp_path, monkeypatch):
    # wigner_duality, covariance and fio_swap share one sigma^w; measure-bound's
    # list reads none of them and makes none
    assert count_quantizations(tmp_path, monkeypatch, ",".join(oracles.CHECKS)) == 1
    with open(os.path.join(CONFIGS, "measure-bound.ini")) as handle:
        listed = re.search(r"^checks = (.+)$", handle.read(), re.M).group(1)
    assert count_quantizations(tmp_path, monkeypatch, listed) == 0
