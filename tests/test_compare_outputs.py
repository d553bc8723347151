"""tools/compare_outputs.py: a checkout matches itself, and only the wall clock is masked."""

import subprocess
import sys

from conftest import COMPARE_TOOL as TOOL, compare_outputs

def assert_matches_itself(command):
    """The tool, run on this checkout against itself, finds ``command`` identical."""
    root = str(TOOL.parents[1])
    proc = subprocess.run([sys.executable, str(TOOL), root, root, "--command", command],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{command}  identical (exit 0)\n"


def test_a_checkout_matches_itself():
    assert_matches_itself("denoise --synthetic 16x16 --max-iters 0")


def test_a_command_that_writes_no_files_runs_without_an_out_dir():
    # spectra takes no --out-dir; appending one would exit 2 on both sides
    assert_matches_itself("spectra --op identity --n 3")


def test_a_command_that_reads_a_fixture_matches_itself():
    # {libsvm} names the LIBSVM file the tool writes before it runs any command
    assert_matches_itself("lasso --data {libsvm} --seeds 1 --batch 3 --max-epochs 2")


def test_mask_blanks_the_wall_clock_and_nothing_else():
    # the CSVs' elapsed_s column is checked through masked_files below
    mask = compare_outputs.mask
    summary = b"psnr_in=20\niters=0\nseconds=0.125\nreason=converged\n"
    assert mask("summary.txt", summary, ["denoise"]) == summary.replace(b"0.125", b"<wall-clock>")
    line = b"20.1000,24.2000,200,0.125\n"
    assert mask("stdout", line, ["denoise"]) == b"20.1000,24.2000,200,<wall-clock>\n"
    lasso_line = b"saga,3,0.5,0.001,0.002\n"
    assert mask("stdout", lasso_line, ["lasso"]) == lasso_line


def test_masked_files_masks_only_the_wall_clock_of_a_directory(tmp_path):
    files = {
        "seed_0_trace.csv": b"# lasso\niter,elapsed_s,objective\n1,0.25,2\n2,0.5,1\n",
        "aggregate.csv": b"# lasso\niter,comp_evals,mean_objective\n1,3,2\n",
        "summary.txt": b"iters=1\nseconds=0.125\n",
        "denoised.pgm": b"P5\n2 1\n255\n\x00\x07",
    }

    def masked(*edits):
        """masked_files of a fresh copy of ``files`` with each (name, old, new) edit made."""
        out = tmp_path / str(len(list(tmp_path.iterdir())))
        out.mkdir()
        for name, data in files.items():
            for file, old, new in edits:
                data = data.replace(old, new) if file == name else data
            (out / name).write_bytes(data)
        return compare_outputs.masked_files(out, ["lasso"])

    original = masked()
    # only the wall clock is replaced; the aggregate and the PGM come through byte for byte
    wall = compare_outputs.MASK
    trace = b"# lasso\niter,elapsed_s,objective\n1," + wall + b",2\n2," + wall + b",1\n"
    assert original == {**files, "seed_0_trace.csv": trace,
                        "summary.txt": b"iters=1\nseconds=" + wall + b"\n"}
    assert masked(("seed_0_trace.csv", b",0.25,", b",0.75,"),
                  ("seed_0_trace.csv", b",0.5,", b",0.625,"),
                  ("summary.txt", b"=0.125", b"=0.5")) == original
    for edit in [("seed_0_trace.csv", b",2\n", b",3\n"), ("aggregate.csv", b"1,3,", b"1,4,"),
                 ("summary.txt", b"iters=1", b"iters=2"), ("denoised.pgm", b"\x07", b"\x08")]:
        assert masked(edit) != original, edit
