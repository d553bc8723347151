"""The demo scripts run to completion and report what they promise."""

import re
import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def run_demo(name, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    return capsys.readouterr().out


def test_solver_diagnostics_subgradient_bound_holds(capsys, monkeypatch, tmp_path):
    out = run_demo("solver_diagnostics.py", capsys, monkeypatch, tmp_path)
    assert "descent falls short on 0 of 199 drops (200 steps)" in out
    ratio = float(re.search(r"max \|\|d\^k\|\| / bound over 200 iterations: (\S+)", out)[1])
    assert 0.0 < ratio <= 1.0


def test_denoise_image_improves_psnr(capsys, monkeypatch, tmp_path):
    out = run_demo("denoise_image.py", capsys, monkeypatch, tmp_path)
    gain = float(re.search(r"\(gain ([+-]\S+) dB\)", out)[1])
    assert gain > 0.0
    assert (tmp_path / "denoise_demo_noisy.pgm").exists()
    assert (tmp_path / "denoise_demo_out.pgm").exists()


def test_fused_lasso_estimators_reach_the_deterministic_reference(capsys, monkeypatch, tmp_path):
    out = run_demo("fused_lasso.py", capsys, monkeypatch, tmp_path)
    # the reference stops on its step tolerance, before its 20000-iteration cap
    iters = int(re.search(r"deterministic reference: (\d+) iterations", out)[1])
    assert 0 < iters < 20000
    gaps = dict(re.findall(r"^\s*(saga|svrg|sarah) +\d+ +\S+ +(\S+) +\S+$", out, re.MULTILINE))
    assert sorted(gaps) == ["saga", "sarah", "svrg"]
    assert all(float(gap) < 1e-2 for gap in gaps.values()), gaps
    assert re.search(r"seed-averaged descent report \(advisory\): \d+/\d+ iterations", out)


def test_prox_catalog_closed_forms_match_the_grid_oracle(capsys, monkeypatch, tmp_path):
    out = run_demo("prox_catalog.py", capsys, monkeypatch, tmp_path)
    gaps = re.findall(r"grid-oracle max gap: (\S+)", out)
    # one probe gap per catalog entry; dualprox prox-check runs the full sweep
    assert len(gaps) == 5
    assert all(float(value) <= 5e-4 for value in gaps), gaps
