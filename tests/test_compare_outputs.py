"""tools/compare_outputs.py: a checkout matches itself, and only the wall clock is masked."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "compare_outputs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_checkout_matches_itself():
    command = "denoise --synthetic 16x16 --max-iters 0"
    proc = subprocess.run([sys.executable, str(TOOL), str(ROOT), str(ROOT), "--command", command],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{command}  identical (exit 0)\n"


def test_a_command_that_writes_no_files_runs_without_an_out_dir():
    # spectra takes no --out-dir; appending one would exit 2 on both sides
    command = "spectra --op identity --n 3"
    proc = subprocess.run([sys.executable, str(TOOL), str(ROOT), str(ROOT), "--command", command],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{command}  identical (exit 0)\n"


def test_a_command_that_reads_a_fixture_matches_itself():
    # {libsvm} names the LIBSVM file the tool writes before it runs any command
    command = "lasso --data {libsvm} --seeds 1 --batch 3 --max-epochs 2"
    proc = subprocess.run([sys.executable, str(TOOL), str(ROOT), str(ROOT), "--command", command],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{command}  identical (exit 0)\n"


def test_mask_blanks_the_wall_clock_and_nothing_else():
    mask = load_tool().mask
    trace = b"# denoise x=1\niter,elapsed_s,objective\n1,0.25,2\n2,0.5,1\n"
    retimed = trace.replace(b"0.25", b"0.75")
    assert mask("trace.csv", trace, ["denoise"]) == mask("trace.csv", retimed, ["denoise"])
    moved = trace.replace(b",1\n", b",3\n")
    assert mask("trace.csv", trace, ["denoise"]) != mask("trace.csv", moved, ["denoise"])
    aggregate = b"# lasso\niter,comp_evals,mean_objective\n1,3,0.5\n"
    assert mask("aggregate.csv", aggregate, ["lasso"]) == aggregate
    summary = b"psnr_in=20\niters=0\nseconds=0.125\nreason=converged\n"
    assert mask("summary.txt", summary, ["denoise"]) == summary.replace(b"0.125", b"<wall-clock>")
    line = b"20.1000,24.2000,200,0.125\n"
    assert mask("stdout", line, ["denoise"]) == b"20.1000,24.2000,200,<wall-clock>\n"
    lasso_line = b"saga,3,0.5,0.001,0.002\n"
    assert mask("stdout", lasso_line, ["lasso"]) == lasso_line
