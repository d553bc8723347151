"""Compare the CLI outputs of two checkouts byte for byte, wall clock masked.

Usage: python tools/compare_outputs.py PARENT CHANGE [--command "ARGS"]...

Each command runs once per side as ``python -m dualprox.cli ARGS`` in a
fresh process with PYTHONPATH=<side>/src and, unless the environment
sets it, OPENBLAS_NUM_THREADS=1, under which a large ``full_sums`` call
shares its row blocks with helper threads; ``denoise`` and ``lasso``, the
subcommands that write files, get ``--out-dir DIR`` appended. Every file
the run writes, its stdout and its exit code must be equal between the
sides. The wall clock is masked first: the ``elapsed_s`` column of each
CSV (found by its header name), the ``seconds=`` line of ``summary.txt``
and the seconds field of the denoise stdout line. Stderr is not
compared, since warnings name source paths. ``mask`` is the one statement
of that rule: the test suite's rerun checks compare whole output
directories through ``masked_files`` and stdout through ``mask``.

The input files a command reads are written once per comparison into its
temporary directory, and an argument that is a placeholder of FIXTURES
(``{libsvm}``, ``{graph}``, ``{pgm}``) is replaced by its file's path. Both
sides read the same path, so the flag echo in the traces matches.

Prints one line per command and exits 1 on any difference. ``--command``
replaces the default list below with its own commands (repeatable); each
is split on whitespace.
"""

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

LASSO = ["lasso", "--synthetic", "300,20", "--seeds", "3", "--batch", "3", "--max-epochs", "5"]
DATA = ["lasso", "--data", "{libsvm}", "--seeds", "2", "--batch", "3", "--max-epochs", "5"]
COMMANDS = [
    ["denoise", "--synthetic", "64x64", "--max-iters", "200"],
    ["denoise", "--synthetic", "64x64", "--max-iters", "200", "--boundary", "zero-pad"],
    ["denoise", "--synthetic", "48x40", "--boundary", "zero-pad", "--max-iters", "150"],
    ["denoise", "--synthetic", "16x16", "--max-iters", "0"],
    *([*LASSO, "--estimator", kind] for kind in ("saga", "svrg", "sarah", "full")),
    # the budget is spent by the estimator's start, so no step runs
    ["lasso", "--synthetic", "300,20", "--seeds", "2", "--batch", "3", "--max-epochs", "1",
     "--estimator", "saga"],
    # kappa_hat > 0 weighs the fifth point of the Lyapunov window
    ["lasso", "--synthetic", "200,20", "--seeds", "2", "--batch", "2", "--max-epochs", "4",
     "--estimator", "svrg", "--kappa-hat", "0.5", "--normalize-rows"],
    # eight blocks of problems.BLOCK_ROWS rows: the rows' full sums fan out
    ["lasso", "--synthetic", "8192,128", "--estimator", "svrg", "--batch", "64",
     "--max-epochs", "3", "--seeds", "1"],
    # 20 epochs of SAGA at batch 1 run past one block of vrgrad.BATCH_BLOCK_PICKS batches
    ["lasso", "--synthetic", "300,20", "--batch", "1", "--max-epochs", "20", "--seeds", "2",
     "--estimator", "saga"],
    # batch 300 > 12000 // 50: numpy's tail shuffle, drawn by vrgrad.sample_batch per k
    ["lasso", "--synthetic", "12000,20", "--estimator", "svrg", "--batch", "300",
     "--max-epochs", "2", "--seeds", "1"],
    *(["prox-check", "--reg", reg, "--points", "50"] for reg in ("l1", "l0", "lp", "scad")),
    ["spectra", "--op", "identity", "--n", "3"],
    ["spectra", "--op", "scaled", "--n", "3", "--scale", "-2"],
    *(["spectra", "--op", "gradient2d", "--height", "6", "--width", "5", "--boundary", boundary]
      for boundary in ("periodic", "zero-pad")),
    [*DATA, "--estimator", "saga"],
    # the 12-node graph widens the file's 9 features to 12
    [*DATA, "--v-file", "{graph}", "--estimator", "saga"],
    # the 12-node graph does not fit 20 synthetic features: exit 2
    ["lasso", "--synthetic", "300,20", "--v-file", "{graph}"],
    ["denoise", "--input", "{pgm}", "--max-iters", "100"],
]
# the subcommands that write files, and so take --out-dir
WRITERS = ("denoise", "lasso")
MASK = b"<wall-clock>"


def _libsvm():
    """60 rows with raw labels {0, 1}; features 6 and 8 never occur, 9 is the largest."""
    lines = []
    for r in range(60):
        feats = [f"{j}:{((3 * r + 5 * j) % 13 - 6) / 4:g}" for j in (1, 2, 3, 4, 5, 7, 9)
                 if (r + j) % 3]
        lines.append(" ".join([str(r % 2), *feats]))
    return "\n".join(lines) + "\n"


def _graph():
    """A symmetric 12-node ring: wider than the LIBSVM file's 9 features, narrower than 20."""
    return "".join(",".join("1" if abs(i - j) in (1, 11) else "0" for j in range(12)) + "\n"
                   for i in range(12))


def _pgm():
    """A 24 x 20 binary (P5) PGM with maxval 255."""
    return b"P5\n20 24\n255\n" + bytes((9 * r + 13 * c) % 256 for r in range(24) for c in range(20))


# placeholder -> (file name, contents)
FIXTURES = {
    "{libsvm}": ("data.libsvm", _libsvm().encode()),
    "{graph}": ("graph.csv", _graph().encode()),
    "{pgm}": ("image.pgm", _pgm()),
}


def write_fixtures(directory):
    """Write every fixture into ``directory``; returns {placeholder: path}."""
    directory.mkdir()
    paths = {}
    for key, (name, data) in FIXTURES.items():
        (directory / name).write_bytes(data)
        paths[key] = str(directory / name)
    return paths


def _mask_csv(data):
    """Blank the elapsed_s column of every row below the header, if it has one."""
    lines = data.split(b"\n")
    header = next((i for i, line in enumerate(lines) if not line.startswith(b"#")), None)
    if header is None or b"elapsed_s" not in lines[header].split(b","):
        return data
    col = lines[header].split(b",").index(b"elapsed_s")
    for i in range(header + 1, len(lines)):
        cells = lines[i].split(b",")
        if len(cells) > col:
            cells[col] = MASK
            lines[i] = b",".join(cells)
    return b"\n".join(lines)


def mask(name, data, command):
    """``data`` of output ``name`` (a file name or "stdout") with the wall clock masked."""
    if name.endswith(".csv"):
        return _mask_csv(data)
    if name == "summary.txt":
        return b"\n".join(b"seconds=" + MASK if line.startswith(b"seconds=") else line
                          for line in data.split(b"\n"))
    if name == "stdout" and command[0] == "denoise" and data.count(b",") == 3:
        return data[:data.rindex(b",") + 1] + MASK + b"\n"
    return data


def masked_files(out_dir, command):
    """{file name: masked bytes} of every file ``command`` wrote into ``out_dir``."""
    return {p.name: mask(p.name, p.read_bytes(), command) for p in Path(out_dir).iterdir()}


def run(side, command, out_dir):
    """(exit code, {output name: masked bytes}) of one command on one checkout."""
    env = dict(os.environ, PYTHONPATH=str(Path(side).resolve() / "src"))
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    out_dir.parent.mkdir(parents=True)
    out_flag = ["--out-dir", str(out_dir)] if command[0] in WRITERS else []
    proc = subprocess.run([sys.executable, "-m", "dualprox.cli", *command, *out_flag],
                          env=env, cwd=out_dir.parent, capture_output=True)
    outputs = {"stdout": mask("stdout", proc.stdout, command)}
    if out_dir.is_dir():
        outputs.update(masked_files(out_dir, command))
    return proc.returncode, outputs


def compare(parent, change, commands):
    """Run each command on both sides; prints one line each, returns True when all match."""
    all_same = True
    width = max(len(" ".join(command)) for command in commands)
    with tempfile.TemporaryDirectory() as tmp:
        inputs = write_fixtures(Path(tmp) / "inputs")
        for i, command in enumerate(commands):
            args = [inputs.get(arg, arg) for arg in command]
            code_p, files_p = run(parent, args, Path(tmp) / f"p{i}" / "out")
            code_c, files_c = run(change, args, Path(tmp) / f"c{i}" / "out")
            differ = sorted(name for name in files_p.keys() | files_c.keys()
                            if files_p.get(name) != files_c.get(name))
            if code_p != code_c:
                differ.insert(0, f"exit code {code_p} != {code_c}")
            all_same &= not differ
            status = "differs: " + ", ".join(differ) if differ else f"identical (exit {code_p})"
            print(f"{' '.join(command):<{width}}  {status}")
    return all_same


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="checkout whose src/ runs first")
    parser.add_argument("change", help="checkout compared with it")
    parser.add_argument("--command", action="append", dest="commands",
                        help="CLI arguments of one command, replacing the default list")
    args = parser.parse_args(argv)
    commands = [c.split() for c in args.commands] if args.commands else COMMANDS
    for side in (args.parent, args.change):
        if not (Path(side) / "src" / "dualprox").is_dir():
            parser.error(f"{side}: no src/dualprox package")
    return 0 if compare(args.parent, args.change, commands) else 1


if __name__ == "__main__":
    sys.exit(main())
