import re
import warnings

import numpy as np
import pytest

from dualprox import dataio, linops, ppdg, problems, sppdg
from dualprox.cli import main


def read_summary(path):
    pairs = dict(line.split("=", 1) for line in path.read_text().splitlines())
    return pairs


def mask_elapsed(csv_bytes):
    """Blank the wall-clock column; timing is excluded from determinism."""
    lines = csv_bytes.decode().splitlines()
    out = []
    for line in lines:
        if line.startswith("#") or line.startswith("iter,"):
            out.append(line)
            continue
        cells = line.split(",")
        cells[1] = "T"
        out.append(",".join(cells))
    return "\n".join(out)


def test_denoise_synthetic_writes_outputs(tmp_path):
    # 32x32 is the smallest size where the default penalty weight keeps
    # the block structure rather than merging it away
    out = tmp_path / "run"
    code = main([
        "denoise", "--synthetic", "32x32", "--sigma", "0.05", "--seed", "1",
        "--max-iters", "60", "--out-dir", str(out),
    ])
    assert code == 0
    assert (out / "trace.csv").exists()
    assert (out / "denoised.pgm").exists()
    assert (out / "noisy.pgm").exists()
    summary = read_summary(out / "summary.txt")
    assert float(summary["psnr_out"]) > float(summary["psnr_in"])
    header = (out / "trace.csv").read_text().splitlines()
    assert header[0].startswith("# denoise")
    assert header[1] == "iter,elapsed_s,objective,lagrangian,lyapunov,dx_norm,dy_norm,kkt_x,kkt_y"


def test_denoise_divergence_exits_1_at_the_step_that_formed_it(tmp_path, capsys):
    code = main([
        "denoise", "--synthetic", "16x16", "--alpha", "1e9", "--max-iters", "50",
        "--out-dir", str(tmp_path / "run"),
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: diverged at iteration 1: ")


def test_denoise_zero_iterations_outputs_noisy_unchanged(tmp_path):
    out = tmp_path / "run"
    code = main([
        "denoise", "--synthetic", "16x16", "--sigma", "0.05", "--seed", "1",
        "--max-iters", "0", "--out-dir", str(out),
    ])
    assert code == 0
    noisy = (out / "noisy.pgm").read_bytes()
    denoised = (out / "denoised.pgm").read_bytes()
    assert noisy == denoised
    assert read_summary(out / "summary.txt")["iters"] == "0"


def test_denoise_negative_max_iters_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["denoise", "--synthetic", "16x16", "--max-iters", "-3", "--out-dir", str(out)])
    assert code == 2
    assert "usage error: denoise needs --max-iters >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flag, value", [
    ("denoise", "--alpha", "0"), ("denoise", "--alpha", "-1"),
    ("lasso", "--alpha", "0"), ("lasso", "--batch", "0"), ("lasso", "--batch", "-2"),
    ("lasso", "--period", "0"), ("lasso", "--period", "-3"),
    ("denoise", "--tol", "nan"), ("denoise", "--tol", "-1"), ("lasso", "--tol", "nan"),
    ("lasso", "--kappa-hat", "nan"),
])
def test_zero_or_negative_setting_is_an_error_not_the_default(tmp_path, capsys, command,
                                                             flag, value):
    # a zero is a value, not an absent flag: it must not fall back to the default;
    # the "full" estimator runs with batch N and period 1 but still checks both flags
    runs = [["--synthetic", "16x16", "--max-iters", "5"]] if command == "denoise" else [
        ["--synthetic", "40,4", "--seeds", "1", "--max-epochs", "1", "--estimator", kind]
        for kind in ("svrg", "full")]
    for i, data in enumerate(runs):
        out = tmp_path / f"run{i}"
        assert main([command, *data, flag, value, "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (out / "summary.txt").exists()


@pytest.mark.parametrize("command, data, rejected", [
    ("denoise", ["--synthetic", "8x8", "--max-iters", "3"], ["--alpha", "inf"]),
    ("lasso", ["--synthetic", "60,4", "--seeds", "1", "--max-epochs", "1"], ["--batch", "0"]),
], ids=["denoise", "lasso"])
def test_out_dir_is_made_only_by_a_run_that_writes(tmp_path, capsys, command, data, rejected):
    out = tmp_path / "d"
    assert main([command, *data, *rejected, "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()
    nested = tmp_path / "a" / "b"
    assert main([command, *data, "--out-dir", str(nested)]) == 0
    assert (nested / "summary.txt").exists()


@pytest.mark.parametrize("command, data, solver", [
    ("denoise", ["--synthetic", "8x8", "--max-iters", "3"], (ppdg, "solve")),
    ("lasso", ["--synthetic", "60,4", "--seeds", "1", "--max-epochs", "1"],
     (sppdg, "solve_stochastic")),
], ids=["denoise", "lasso"])
def test_out_dir_under_a_file_fails_before_the_solve(tmp_path, monkeypatch, capsys, command,
                                                     data, solver):
    monkeypatch.setattr(*solver, lambda *a, **k: pytest.fail("solver called"))
    afile = tmp_path / "afile"
    afile.write_text("")
    before = sorted(tmp_path.rglob("*"))
    assert main([command, *data, "--out-dir", str(afile / "sub")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: --out-dir {afile / 'sub'}: {afile} is not a directory\n"
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("source", ["synthetic", "libsvm"])
def test_lasso_without_a_nonzero_feature_is_an_error(tmp_path, capsys, source):
    # no features, or only zero ones, give L = 0 and no default step size
    data = ["--synthetic", "60,0"]
    if source == "libsvm":
        data = ["--data", str(tmp_path / "zero.svm")]
        (tmp_path / "zero.svm").write_text("1 1:0 2:0\n-1 1:0 2:0\n")
    out = tmp_path / "run"
    assert main(["lasso", *data, "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (out / "summary.txt").exists()


@pytest.mark.parametrize("command, data", [
    ("denoise", ["--synthetic", "8x8"]), ("lasso", ["--synthetic", "60,4"]),
])
def test_infinite_step_is_rejected_before_the_solve(tmp_path, capsys, command, data):
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main([command, *data, "--alpha", "inf", "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: alpha must be positive and finite")
    assert not (out / "summary.txt").exists()


def test_lasso_without_data_rows_is_an_error(tmp_path, capsys):
    (tmp_path / "empty.svm").write_text("")
    np.savetxt(tmp_path / "v4.csv", np.zeros((4, 4)), delimiter=",")
    out = tmp_path / "run"
    code = main(["lasso", "--data", str(tmp_path / "empty.svm"), "--n-hint", "4",
                 "--v-file", str(tmp_path / "v4.csv"), "--out-dir", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: rows must hold at least one data row")
    assert not (out / "summary.txt").exists()


def test_denoise_sigma_zero_sentinel_and_trace(tmp_path):
    out = tmp_path / "run"
    code = main([
        "denoise", "--synthetic", "16x16", "--sigma", "0", "--seed", "1",
        "--max-iters", "500", "--out-dir", str(out),
    ])
    assert code == 0
    summary = read_summary(out / "summary.txt")
    assert summary["psnr_in"] == "inf"
    objs = [
        float(line.split(",")[2])
        for line in (out / "trace.csv").read_text().splitlines()[2:]
    ]
    rises = sum(
        1 for a, b in zip(objs, objs[1:]) if b > a + 1e-10 * (1 + abs(a))
    )
    assert rises <= 0.05 * (len(objs) - 1)


def test_denoise_input_file_roundtrip(tmp_path):
    src = tmp_path / "src.pgm"
    img = dataio.ImageBuffer(8, 8, np.tile(np.repeat([0.2, 0.8], 4), 8))
    dataio.write_pgm(src, img)
    out = tmp_path / "run"
    code = main([
        "denoise", "--input", str(src), "--sigma", "0.03", "--seed", "2",
        "--max-iters", "40", "--out-dir", str(out),
    ])
    assert code == 0


def test_denoise_requires_source(tmp_path):
    assert main(["denoise", "--out-dir", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("command, sources, message", [
    ("denoise", [], "one of the arguments --input --synthetic is required"),
    ("denoise", ["--input", "a.pgm", "--synthetic", "8x8"], "not allowed with argument --input"),
    ("lasso", [], "one of the arguments --data --synthetic is required"),
    ("lasso", ["--data", "a.svm", "--synthetic", "40,4"], "not allowed with argument --data"),
], ids=["denoise-none", "denoise-both", "lasso-none", "lasso-both"])
def test_one_data_source_per_run(tmp_path, capsys, command, sources, message):
    out = tmp_path / "run"
    assert main([command, *sources, "--out-dir", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


DENOISE_DATA = ["--synthetic", "8x8", "--max-iters", "3"]
LASSO_DATA = ["--synthetic", "40,4", "--seeds", "1", "--max-epochs", "1"]


NON_FINITE_FLAGS = [
    *(("denoise", DENOISE_DATA, flag) for flag in ("--sigma", "--lam", "--c1", "--c2")),
    *(("lasso", LASSO_DATA, flag) for flag in ("--lam", "--p", "--r")),
    ("prox-check", ["--reg", "l1"], "--lam"),
    ("prox-check", ["--reg", "l0"], "--c1"),
    ("prox-check", ["--reg", "l0"], "--c2"),
    ("prox-check", ["--reg", "lp"], "--p"),
    ("prox-check", ["--reg", "lp"], "--r"),
    ("prox-check", ["--reg", "scad"], "--gamma"),
    ("spectra", ["--op", "scaled"], "--scale"),
]


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("command, data, flag", NON_FINITE_FLAGS,
                         ids=[command + flag for command, _, flag in NON_FINITE_FLAGS])
def test_non_finite_parameter_is_rejected_in_one_line(tmp_path, capsys, command, data, flag,
                                                       value):
    # "--flag=-inf" keeps argparse from reading -inf as an option
    out = ["--out-dir", str(tmp_path / "run")] if command in ("denoise", "lasso") else []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, *data, f"{flag}={value}", *out])
    assert code != 0
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert not (tmp_path / "run").exists()


def test_denoise_determinism_byte_identical(tmp_path):
    args = [
        "denoise", "--synthetic", "16x16", "--sigma", "0.05", "--seed", "3",
        "--max-iters", "50",
    ]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out-dir", str(out1)]) == 0
    assert main(args + ["--out-dir", str(out2)]) == 0
    assert (out1 / "denoised.pgm").read_bytes() == (out2 / "denoised.pgm").read_bytes()
    assert (out1 / "noisy.pgm").read_bytes() == (out2 / "noisy.pgm").read_bytes()
    assert mask_elapsed((out1 / "trace.csv").read_bytes()) == mask_elapsed(
        (out2 / "trace.csv").read_bytes()
    )


def test_lasso_synthetic_writes_per_seed_and_aggregate(tmp_path):
    out = tmp_path / "l"
    code = main([
        "lasso", "--synthetic", "60,8", "--estimator", "svrg", "--seeds", "3",
        "--batch", "2", "--max-epochs", "5", "--normalize-rows",
        "--out-dir", str(out),
    ])
    assert code == 0
    for seed in range(3):
        assert (out / f"seed_{seed}_trace.csv").exists()
    agg = (out / "aggregate.csv").read_text().splitlines()
    assert agg[1] == "iter,comp_evals,mean_objective,mean_lagrangian_s,mean_lyapunov_s,mean_dx,mean_dy,seeds_ok"
    assert agg[2].endswith(",3")  # seeds_ok column
    summary = read_summary(out / "summary.txt")
    assert summary["seeds_ok"] == "3"


def test_lasso_zero_epochs_summary_reads_the_starting_objective(tmp_path):
    out = tmp_path / "l"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([
            "lasso", "--synthetic", "40,4", "--seeds", "2", "--max-epochs", "0",
            "--out-dir", str(out),
        ])
    assert code == 0
    summary = read_summary(out / "summary.txt")
    # f(0) = 1 - tanh(0) for every component, h(A 0) = 0
    assert summary["mean_final_objective"] == "1"
    assert summary["mean_final_penalized_objective"] == "1"


@pytest.mark.parametrize("seeds", ["abc", "1,x", "0", "-2", "1,-1", "3,", "3,3", "1,2,1"])
def test_lasso_bad_seed_list_is_a_usage_error(tmp_path, seeds, capsys):
    code = main([
        "lasso", "--synthetic", "40,4", "--seeds", seeds, "--max-epochs", "1",
        "--out-dir", str(tmp_path / "l"),
    ])
    assert code == 2
    assert "usage error: --seeds" in capsys.readouterr().err


@pytest.mark.parametrize("estimator", ["saga", "svrg"])
def test_lasso_trace_csvs_are_byte_identical_across_reruns(tmp_path, estimator):
    args = [
        "lasso", "--synthetic", "200,10", "--estimator", estimator, "--seeds", "1,2",
        "--batch", "2", "--max-epochs", "2",
    ]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out-dir", str(out1)]) == 0
    assert main(args + ["--out-dir", str(out2)]) == 0
    for name in ["seed_1_trace.csv", "seed_2_trace.csv", "aggregate.csv"]:
        t1 = mask_elapsed((out1 / name).read_bytes())
        # the rows span several batches of full sums and end inside one
        rows = len(t1.splitlines()) - 2
        assert rows > ppdg.ROW_BATCH and rows % ppdg.ROW_BATCH
        assert t1 == mask_elapsed((out2 / name).read_bytes())


def test_lasso_full_estimator_matches_full_batch_svrg(tmp_path):
    base = [
        "lasso", "--synthetic", "40,6", "--seeds", "1", "--max-epochs", "6",
        "--normalize-rows",
    ]
    out1, out2 = tmp_path / "full", tmp_path / "svrg"
    assert main(base + ["--estimator", "full", "--out-dir", str(out1)]) == 0
    assert main(base + ["--estimator", "svrg", "--batch", "40", "--out-dir", str(out2)]) == 0
    t1 = mask_elapsed((out1 / "seed_0_trace.csv").read_bytes())
    t2 = mask_elapsed((out2 / "seed_0_trace.csv").read_bytes())
    # identical sequences except the flag echo line
    assert t1.splitlines()[1:] == t2.splitlines()[1:]


def test_lasso_libsvm_input(tmp_path):
    data = tmp_path / "d.txt"
    rng = np.random.default_rng(0)
    lines = []
    for i in range(30):
        feats = " ".join(f"{j + 1}:{rng.standard_normal():.6f}" for j in range(4))
        label = 1 if rng.uniform() > 0.5 else -1
        lines.append(f"{label} {feats}")
    data.write_text("\n".join(lines) + "\n")
    out = tmp_path / "run"
    code = main([
        "lasso", "--data", str(data), "--estimator", "saga", "--seeds", "2",
        "--batch", "3", "--max-epochs", "4", "--normalize-rows",
        "--out-dir", str(out),
    ])
    assert code == 0


def test_lasso_non_finite_libsvm_value_names_the_line(tmp_path, capsys):
    data = tmp_path / "d.svm"
    data.write_text("1 1:0.5 2:1\n-1 1:nan 2:1\n1 1:2 2:0.5\n")
    code = main(["lasso", "--data", str(data), "--out-dir", str(tmp_path / "run")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: non-finite value") and "(line 2)" in err


def test_lasso_flag_echo_names_every_flag_but_the_output_directory(tmp_path):
    # two features in the file; the hint widens the rows to six
    data = tmp_path / "d.svm"
    data.write_text("1 1:0.5 2:1\n-1 1:-1 2:0.25\n1 1:2 2:0.5\n-1 1:0.1 2:-2\n")
    comments = []
    for i, hint in enumerate(([], ["--n-hint", "6"])):
        out = tmp_path / f"run{i}"
        assert main(["lasso", "--data", str(data), *hint, "--seeds", "1", "--max-epochs", "1",
                     "--out-dir", str(out)]) == 0
        comments.append((out / "seed_0_trace.csv").read_text().splitlines()[0])
    assert comments[0].startswith(f"# lasso data={data} n_hint=None synthetic=None ")
    assert comments[1].startswith(f"# lasso data={data} n_hint=6 synthetic=None ")
    assert comments[0].endswith(" alpha=None kappa_hat=0.0")
    assert "out_dir" not in comments[0] and "func" not in comments[0]


# files the CSV matrix reader rejects, each with the start of its message
BAD_CSV = {
    "empty": ("", "no matrix rows"),
    "blank-lines": ("\n  \n\n", "no matrix rows"),
    "comment-only": ("# a graph\n# with no rows\n", "no matrix rows"),
    "ragged": ("1,2\n\n3\n", "line 3 does not have the first row's 2 entries"),
    "non-numeric": ("1,x\n0,1\n", "line 1: could not convert string 'x' to float64\n"),
    # numpy counts that row as row 1, past the blank lines
    "non-numeric-line-4": ("\n1,2\n\n3,x\n", "line 4: could not convert string 'x' to float64\n"),
}
ASYMMETRIC = np.triu(np.ones((4, 4)), 1)
SYMMETRIC = ASYMMETRIC + ASYMMETRIC.T


@pytest.mark.parametrize("v, code, message", [
    *((BAD_CSV[name][0], 1, f"error: {{v}}: {BAD_CSV[name][1]}") for name in BAD_CSV),
    (ASYMMETRIC, 1, "error: {v}: graph matrix must be symmetric\n"),
    (np.zeros((3, 4)), 1, "error: {v}: graph matrix must be symmetric\n"),
    (np.zeros((4, 3)), 1, "error: {v}: graph matrix must be symmetric\n"),
    (np.where(np.eye(4) == 1, np.nan, SYMMETRIC), 1,
     "error: stacked-over-identity: entries of V must be finite\n"),
    (np.zeros((3, 3)), 2, "usage error: graph matrix size does not match the feature count\n"),
    (SYMMETRIC, 0, ""),
], ids=[*BAD_CSV, "asymmetric", "3x4", "4x3", "symmetric-nan", "3x3-vs-4-features", "valid"])
def test_lasso_v_file_and_mismatch(tmp_path, capsys, v, code, message):
    vfile = tmp_path / "v.csv"
    if isinstance(v, str):
        vfile.write_text(v)
    else:
        np.savetxt(vfile, v, delimiter=",")
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([
            "lasso", "--synthetic", "30,4", "--v-file", str(vfile),
            "--seeds", "1", "--max-epochs", "2", "--out-dir", str(out),
        ]) == code
    err = capsys.readouterr().err
    assert err.startswith(message.format(v=vfile))
    assert err.count("\n") == (code != 0)
    assert (out / "summary.txt").exists() == (code == 0)


@pytest.mark.parametrize("label", ["1", "-1", "2"])
def test_lasso_one_class_data_is_a_usage_error(tmp_path, capsys, label):
    data = tmp_path / "d.svm"
    data.write_text("".join(f"{label} 1:{x} 2:1\n" for x in (0.5, -1, 2, 0.1)))
    out = tmp_path / "run"
    assert main(["lasso", "--data", str(data), "--seeds", "1", "--max-epochs", "1",
                 "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == "usage error: dataset labels do not form a two-class set\n"
    assert not (out / "summary.txt").exists()


def test_prox_check_passes_for_each_kind():
    assert main(["prox-check", "--reg", "l1", "--lam", "2", "--points", "100"]) == 0
    assert main(["prox-check", "--reg", "l0", "--lam", "0.1", "--points", "100"]) == 0
    assert main(["prox-check", "--reg", "lp", "--lam", "1", "--p", "0.5", "--r", "1",
                 "--points", "100"]) == 0
    assert main(["prox-check", "--reg", "scad", "--lam", "1", "--gamma", "3",
                 "--r", "0.5", "--points", "100"]) == 0


def test_prox_check_rejects_invalid_gamma():
    assert main(["prox-check", "--reg", "scad", "--lam", "1", "--gamma", "2",
                 "--r", "0.5"]) == 2


@pytest.mark.parametrize("flag, value, message", [
    ("--points", "0", "usage error: prox-check needs --points >= 1\n"),
    ("--points", "-3", "usage error: prox-check needs --points >= 1\n"),
    # the oracle grid step is fixed, so argparse rejects the flag
    ("--step", "1e-4", "dualprox: error: unrecognized arguments: --step 1e-4\n"),
], ids=["--points-0", "--points--3", "--step-1e-4"])
def test_prox_check_bad_points_or_step_is_a_usage_error(flag, value, message, capsys):
    assert main(["prox-check", "--reg", "l1", "--lam", "2", flag, value]) == 2
    assert capsys.readouterr().err.endswith(message)


def test_spectra_identity(capsys):
    assert main(["spectra", "--op", "identity", "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert "op_norm: 1" in out
    assert "surjective: yes" in out


def test_spectra_gradient2d_prints_caveat(capsys):
    assert main(["spectra", "--op", "gradient2d", "--height", "8", "--width", "8"]) == 0
    out = capsys.readouterr().out
    assert "hat_lambda: 0" in out
    assert "surjective: no" in out
    assert "scalar approximation" in out


@pytest.mark.parametrize("size, boundary", [
    ("64", "periodic"), ("64", "zero-pad"), ("256", "periodic"),
])
def test_spectra_gradient2d_is_never_surjective(capsys, size, boundary):
    # AA^T is 2hw x 2hw with rank at most hw, at any size
    assert main(["spectra", "--op", "gradient2d", "--height", size, "--width", size,
                 "--boundary", boundary]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "min_eig_gram: 0" in lines
    assert "surjective: no (AA^T is singular)" in lines


def test_spectra_tiny_scale_is_still_surjective(capsys):
    assert main(["spectra", "--op", "scaled", "--scale", "1e-6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "min_eig_gram: 1e-12" in lines
    assert "surjective: yes (exact metric preconditioning is well posed)" in lines
    assert not any("scalar approximation" in line for line in lines)


MALFORMED_CSV = BAD_CSV["ragged"][0]
NAN_CSV = "1,nan\n0,1\n"
# the reader's cases under both file-based kinds; dense-ragged is malformed-csv
READER_CASES = [(op, name) for op in ("dense", "stacked") for name in BAD_CSV
                if (op, name) != ("dense", "ragged")]


@pytest.mark.parametrize("flags, csv, code, message", [
    (["--op", "identity", "--n", "0"], MALFORMED_CSV, 2,
     "usage error: identity: dimension must be positive"),
    (["--op", "gradient2d", "--height", "1"], MALFORMED_CSV, 2,
     "usage error: gradient-2d: height and width must be at least 2"),
    (["--op", "scaled", "--scale", "nan"], MALFORMED_CSV, 2,
     "usage error: scaled-identity: scale must be finite"),
    (["--op", "scaled", "--scale", "inf"], MALFORMED_CSV, 2,
     "usage error: scaled-identity: scale must be finite"),
    (["--op", "dense"], MALFORMED_CSV, 1, f"error: {{csv}}: {BAD_CSV['ragged'][1]}"),
    (["--op", "dense"], NAN_CSV, 1, "error: dense-matrix: entries must be finite\n"),
    (["--op", "stacked"], NAN_CSV, 1,
     "error: stacked-over-identity: entries of V must be finite\n"),
    *((["--op", op], BAD_CSV[name][0], 1, f"error: {{csv}}: {BAD_CSV[name][1]}")
      for op, name in READER_CASES),
], ids=["n", "height", "scale-nan", "scale-inf", "malformed-csv", "dense-nan", "stacked-nan",
        *(f"{op}-{name}" for op, name in READER_CASES)])
def test_spectra_bad_flag_is_a_usage_error_and_bad_file_a_runtime_error(tmp_path, capsys,
                                                                         flags, csv, code,
                                                                         message):
    # only the file-based kinds read --csv
    bad = tmp_path / "bad.csv"
    bad.write_text(csv)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["spectra", *flags, "--csv", str(bad)]) == code
    captured = capsys.readouterr()
    assert captured.err.startswith(message.format(csv=bad))
    assert captured.err.count("\n") == 1
    assert captured.out == ""


def test_spectra_stacked_identity_over_identity(tmp_path, capsys):
    vfile = tmp_path / "v.csv"
    np.savetxt(vfile, np.eye(3), delimiter=",")
    assert main(["spectra", "--op", "stacked", "--csv", str(vfile)]) == 0
    out = capsys.readouterr().out
    # gram of [I; I] is [[I, I], [I, I]]: singular
    assert "min_eig_gram: 0" in out
    assert "surjective: no" in out


@pytest.mark.parametrize("flags, op, exact", [
    (["--op", "dense"], linops.DenseMatrix(np.diag([1.0, 0.999])), 1.0),
    (["--op", "gradient2d", "--height", "8", "--width", "8", "--boundary", "zero-pad"],
     linops.Gradient2D(8, 8, boundary="zero-pad"), 2.0 * np.sqrt(2.0) * np.cos(np.pi / 17)),
], ids=["dense-diag", "gradient2d-zero-pad"])
def test_spectra_prints_the_norm_the_dual_weight_is_built_from(tmp_path, capsys, flags, op,
                                                               exact):
    # spectra and beta read one cached exact norm, so a second norm path would
    # show here; 200 power-iteration steps read 0.999667740523 and 2.78026777739
    if op.kind == "dense-matrix":
        np.savetxt(tmp_path / "a.csv", op.matrix, delimiter=",")
        flags = [*flags, "--csv", str(tmp_path / "a.csv")]
    assert main(["spectra", *flags]) == 0
    printed = f"\nop_norm: {exact:.12g}\n"
    assert printed == f"\nop_norm: {op.op_norm():.12g}\n"
    assert printed in capsys.readouterr().out
    problem = problems.CompositeProblem(
        f_value=None, grad_f=None, lipschitz_L=1.0, operator=op, regularizer=None
    )
    alpha = 0.3
    assert ppdg.dual_beta(problem, ppdg.PpdgConfig(alpha=alpha)) == 1.0 / (alpha * op.op_norm() ** 2)


def test_unknown_subcommand_usage_error():
    assert main(["frobnicate"]) == 2


def test_spectra_dense_from_csv(tmp_path, capsys):
    mat = tmp_path / "m.csv"
    mat.write_text("2.0,0.0\n0.0,1.0\n")
    assert main(["spectra", "--op", "dense", "--csv", str(mat)]) == 0
    out = capsys.readouterr().out
    assert "op_norm: 2" in out
    assert "surjective: yes" in out
    # beta only approximates the exact metric of a dense matrix
    assert "scalar approximation" in out


def test_help_lists_defaults(capsys):
    assert main(["denoise", "--help"]) == 0
    out = capsys.readouterr().out
    assert "default: 0.1" in out   # penalty weight
    assert "default: -1.0" in out  # lower gradient bound
