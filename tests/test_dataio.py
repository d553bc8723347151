import numpy as np
import pytest

from dualprox import dataio
from dualprox.dataio import (
    ImageBuffer,
    LibsvmParseError,
    PgmParseError,
    add_gaussian_noise,
    gaussian_stream,
    parse_libsvm,
    read_csv_matrix,
    read_pgm,
    write_pgm,
    write_trace_csv,
)
from dualprox.ppdg import TRACE_FIELDS, TraceRecord

try:  # only the CSV round-trip property needs hypothesis
    from hypothesis import HealthCheck, example, given, settings, strategies as st
    from hypothesis.extra.numpy import arrays
except ImportError:
    given = None

# first 8 draws for seed 1, pinned after first generation
GOLDEN_SEED1 = [
    0.6890159938106561,
    1.8404009032056077,
    -0.017981408138989127,
    0.0058975336690810665,
    -0.49882592342018545,
    0.6245170096079555,
    -0.5824102012217219,
    0.2513289666192187,
]


def test_read_p2_ascii(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_text("P2\n2 1\n255\n0 255\n")
    img = read_pgm(path)
    assert (img.height, img.width) == (1, 2)
    assert np.array_equal(img.pixels, [0.0, 1.0])


def test_read_p2_with_comments(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_text("P2\n# a comment\n2 2\n# another\n4\n0 1 2 4\n")
    img = read_pgm(path)
    assert np.allclose(img.pixels, [0.0, 0.25, 0.5, 1.0])


def test_p5_roundtrip_quantization_bound(tmp_path):
    rng = np.random.default_rng(6)
    img = ImageBuffer(5, 7, rng.uniform(size=35))
    path = tmp_path / "b.pgm"
    write_pgm(path, img)
    back = read_pgm(path)
    assert (back.height, back.width) == (5, 7)
    assert np.max(np.abs(back.pixels - img.pixels)) <= 1.0 / 510.0 + 1e-12


def test_p5_sixteen_bit(tmp_path):
    payload = np.array([0, 65535, 32768], dtype=">u2").tobytes()
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n3 1\n65535\n" + payload)
    img = read_pgm(path)
    assert img.pixels[0] == 0.0 and img.pixels[1] == 1.0
    assert img.pixels[2] == pytest.approx(32768 / 65535)


def test_p5_truncated_payload_reports_offset(tmp_path):
    path = tmp_path / "d.pgm"
    path.write_bytes(b"P5\n2 2\n255\n\x00\x01\x02")  # needs 4 bytes, has 3
    with pytest.raises(PgmParseError) as err:
        read_pgm(path)
    assert "short" in str(err.value)
    assert err.value.offset > 0


def test_p5_exact_payload_ok(tmp_path):
    path = tmp_path / "e.pgm"
    path.write_bytes(b"P5\n2 2\n255\n\x00\x40\x80\xff")
    img = read_pgm(path)
    assert img.pixels[3] == 1.0


def test_pgm_header_errors(tmp_path):
    bad_magic = tmp_path / "f.pgm"
    bad_magic.write_bytes(b"P6\n1 1\n255\n\x00")
    with pytest.raises(PgmParseError):
        read_pgm(bad_magic)
    bad_token = tmp_path / "g.pgm"
    bad_token.write_text("P2\n2 x\n255\n0 0\n")
    with pytest.raises(PgmParseError, match="non-numeric"):
        read_pgm(bad_token)
    truncated = tmp_path / "h.pgm"
    truncated.write_text("P2\n2")
    with pytest.raises(PgmParseError, match="truncated"):
        read_pgm(truncated)


def test_p2_negative_sample_reports_the_samples_offset(tmp_path):
    path = tmp_path / "n.pgm"
    path.write_text("P2\n2 2\n255\n0 -5 10 255\n")
    with pytest.raises(PgmParseError, match="negative") as err:
        read_pgm(path)
    assert err.value.offset == len("P2\n2 2\n255")


@pytest.mark.parametrize("text, message, offset", [
    ("P2\n0 2\n255\n", "nonpositive image dimensions", len("P2\n")),
    ("P2\n2 -1\n255\n", "nonpositive image dimensions", len("P2\n2 ")),
    ("P2\n-1 0\n255\n", "nonpositive image dimensions", len("P2\n")),
    ("P2\n1 1\n0\n0\n", "maxval out of range (1..65535)", len("P2\n1 1\n")),
    ("P2\n1 1\n65536\n0\n", "maxval out of range (1..65535)", len("P2\n1 1\n")),
    ("P2\n2 2\n255\n0 1 2\n", "expected 4 ASCII samples, found 3", len("P2\n2 2\n255\n0 1 2\n")),
    ("P2\n2 1\n255\n0 x\n", "non-numeric ASCII sample", len("P2\n2 1\n255")),
    ("P2\n2 1\n4\n0 5\n", "sample exceeds maxval", len("P2\n2 1\n4")),
])
def test_p2_rejections_name_the_fault_and_its_offset(tmp_path, text, message, offset):
    path = tmp_path / "bad.pgm"
    path.write_text(text)
    with pytest.raises(PgmParseError) as err:
        read_pgm(path)
    assert str(err.value) == f"{message} (byte offset {offset})"
    assert err.value.offset == offset


def test_image_buffer_validation():
    with pytest.raises(ValueError):
        ImageBuffer(2, 2, np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        ImageBuffer(1, 2, np.array([np.nan, 0.0]))


@pytest.mark.parametrize("height, width", [(0, 2), (2, 0), (-1, 1)])
def test_image_buffer_rejects_a_nonpositive_size(height, width):
    with pytest.raises(ValueError, match="^image dimensions must be positive$"):
        ImageBuffer(height, width, np.zeros(0))


def test_parse_libsvm_basic(tmp_path):
    path = tmp_path / "d.txt"
    path.write_text("1 1:0.5 3:-2\n-1\n")
    rows, labels = parse_libsvm(path, n_hint=3)
    assert rows.shape == (2, 3)
    assert np.array_equal(rows[0], [0.5, 0.0, -2.0])
    assert np.array_equal(rows[1], [0.0, 0.0, 0.0])
    assert np.array_equal(labels, [1.0, -1.0])


def test_parse_libsvm_pads_to_n_hint_and_never_truncates(tmp_path):
    path = tmp_path / "d.txt"
    path.write_text("0 2:1.5 4:-3\n1 1:0.25\n")
    want = [[0.0, 1.5, 0.0, -3.0], [0.25, 0.0, 0.0, 0.0]]
    for n_hint in (None, 2, 4):
        rows, labels = parse_libsvm(path, n_hint=n_hint)
        assert rows.dtype == float and np.array_equal(rows, want)
        assert np.array_equal(labels, [-1.0, 1.0])
    rows, _ = parse_libsvm(path, n_hint=6)
    assert np.array_equal(rows, np.pad(want, ((0, 0), (0, 2))))


def test_parse_libsvm_empty_file(tmp_path):
    path = tmp_path / "d.txt"
    path.write_text("\n\n")
    for n_hint, width in ((None, 0), (3, 3)):
        rows, labels = parse_libsvm(path, n_hint=n_hint)
        assert rows.shape == (0, width) and rows.dtype == float
        assert labels.shape == (0,) and labels.dtype == float


def test_parse_libsvm_two_class_mapping(tmp_path):
    path = tmp_path / "d.txt"
    path.write_text("3 1:1\n5 1:2\n3 2:1\n")
    _, labels = parse_libsvm(path)
    assert np.array_equal(labels, [-1.0, 1.0, -1.0])


def test_parse_libsvm_errors_carry_line_numbers(tmp_path):
    bad_order = tmp_path / "a.txt"
    bad_order.write_text("1 1:0.5\n1 3:1 2:1\n")
    with pytest.raises(LibsvmParseError) as err:
        parse_libsvm(bad_order)
    assert err.value.line == 2
    bad_token = tmp_path / "b.txt"
    bad_token.write_text("1 a:0.5\n")
    with pytest.raises(LibsvmParseError) as err:
        parse_libsvm(bad_token)
    assert err.value.line == 1
    bad_label = tmp_path / "c.txt"
    bad_label.write_text("one 1:0.5\n")
    with pytest.raises(LibsvmParseError, match="label"):
        parse_libsvm(bad_label)


@pytest.mark.parametrize("text, index", [
    ("1 0:1\n", 0), ("1 -2:1\n", -2), ("1 1:1\n-1 0:1 2:1\n", 0), ("1 3:1 -2:1\n", -2),
])
def test_parse_libsvm_rejects_an_index_below_one_with_the_line(tmp_path, text, index):
    path = tmp_path / "d.txt"
    path.write_text(text)
    with pytest.raises(LibsvmParseError) as err:
        parse_libsvm(path)
    line = text.count("\n")
    assert str(err.value) == f"LIBSVM indices start at 1, got {index} (line {line})"
    assert err.value.line == line


def test_parse_libsvm_skips_blank_lines_but_counts_them(tmp_path):
    path = tmp_path / "d.txt"
    path.write_text("1 1:0.5\n\n   \n-1 2:1\n")
    rows, labels = parse_libsvm(path)
    assert rows.shape == (2, 2)
    assert np.array_equal(rows, [[0.5, 0.0], [0.0, 1.0]])
    assert np.array_equal(labels, [1.0, -1.0])
    path.write_text("1 1:0.5\n\n   \n-1 2:1 5\n")
    with pytest.raises(LibsvmParseError) as err:
        parse_libsvm(path)
    assert str(err.value) == "expected idx:val, got '5' (line 4)"
    assert err.value.line == 4


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_parse_libsvm_rejects_non_finite_values_with_the_line(tmp_path, token):
    value = tmp_path / "v.txt"
    value.write_text(f"1 1:0.5\n-1 1:{token} 2:1\n")
    with pytest.raises(LibsvmParseError, match="non-finite value") as err:
        parse_libsvm(value)
    assert err.value.line == 2
    label = tmp_path / "l.txt"
    label.write_text(f"1 1:0.5\n1 2:1\n{token} 1:2\n")
    with pytest.raises(LibsvmParseError, match="non-finite label") as err:
        parse_libsvm(label)
    assert err.value.line == 3


def test_parse_serialize_parse_identity(tmp_path):
    path = tmp_path / "d.txt"
    path.write_text("1 1:0.25 4:-1.5\n-1 2:3\n")
    rows, labels = parse_libsvm(path)
    lines = []
    for row, label in zip(rows, labels):
        feats = " ".join(f"{i + 1}:{row[i]:.17g}" for i in np.flatnonzero(row))
        lines.append(f"{label:.17g} {feats}".strip())
    path2 = tmp_path / "d2.txt"
    path2.write_text("\n".join(lines) + "\n")
    rows2, labels2 = parse_libsvm(path2, n_hint=rows.shape[1])
    assert np.array_equal(rows, rows2)
    assert np.array_equal(labels, labels2)


def test_noise_sigma_zero_identity():
    img = ImageBuffer(2, 2, np.array([0.1, 0.2, 0.3, 0.4]))
    out = add_gaussian_noise(img, 0.0, 99)
    assert np.array_equal(out.pixels, img.pixels)


def test_noise_deterministic():
    img = ImageBuffer(4, 4, np.linspace(0, 1, 16))
    a = add_gaussian_noise(img, 0.1, 7)
    b = add_gaussian_noise(img, 0.1, 7)
    assert np.array_equal(a.pixels, b.pixels)
    c = add_gaussian_noise(img, 0.1, 8)
    assert not np.array_equal(a.pixels, c.pixels)


def test_noise_clamped_to_unit_interval():
    img = ImageBuffer(2, 2, np.array([0.0, 1.0, 0.5, 0.5]))
    out = add_gaussian_noise(img, 5.0, 3)
    assert out.pixels.min() >= 0.0 and out.pixels.max() <= 1.0


@pytest.mark.parametrize("seed", [-1, 2**128])
def test_gaussian_stream_names_a_seed_outside_philox_keys(seed):
    with pytest.raises(ValueError) as err:
        gaussian_stream(seed, 4)
    assert str(err.value) == f"noise seed {seed} is out of range: it must be in [0, 2**128)"


def test_gaussian_stream_takes_the_ends_of_the_key_range():
    for seed in (0, 2**128 - 1):
        assert np.isfinite(gaussian_stream(seed, 4)).all()


def test_gaussian_stream_golden_vector():
    assert np.array_equal(gaussian_stream(1, 8), GOLDEN_SEED1)


def test_gaussian_stream_moments():
    z = gaussian_stream(123, 1_000_000)
    assert abs(float(np.mean(z))) <= 0.005
    assert abs(float(np.std(z)) - 1.0) <= 0.005


def test_trace_csv_header_only(tmp_path):
    path = tmp_path / "t.csv"
    write_trace_csv(path, [], fieldnames=["iter", "value"])
    assert path.read_bytes() == b"iter,value\n"


def test_trace_csv_roundtrip_exact(tmp_path):
    rec = TraceRecord(
        iter=3, elapsed_s=0.1, objective=0.1, lagrangian=-1.0 / 3.0,
        lyapunov=1e-17, dx_norm=np.pi, dy_norm=0.0, kkt_x=1.0, kkt_y=2.0,
    )
    path = tmp_path / "t.csv"
    write_trace_csv(path, [rec], fieldnames=TRACE_FIELDS)
    header, line = path.read_text().splitlines()
    cells = line.split(",")
    names = header.split(",")
    for name, cell in zip(names, cells):
        if name == "iter":
            assert int(cell) == 3
        else:
            assert float(cell) == getattr(rec, name)


def test_trace_csv_byte_identical_reruns(tmp_path):
    recs = [
        TraceRecord(iter=i, elapsed_s=0.0, objective=1.0 / (i + 1), lagrangian=0.1 * i,
                    lyapunov=-i, dx_norm=i * 1e-5, dy_norm=0.0, kkt_x=0.0, kkt_y=0.0)
        for i in range(4)
    ]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trace_csv(p1, recs, fieldnames=TRACE_FIELDS, comment="flags")
    write_trace_csv(p2, recs, fieldnames=TRACE_FIELDS, comment="flags")
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes().startswith(b"# flags\n")
    assert b"\r" not in p1.read_bytes()


def test_read_csv_matrix(tmp_path):
    path = tmp_path / "mat.csv"
    path.write_text("# a 2x2 operator\n1.5,0.0\n\n-2.0, 4.0  # second row\n")
    assert np.array_equal(read_csv_matrix(path), [[1.5, 0.0], [-2.0, 4.0]])
    path.write_text("1,2,3\n")
    assert read_csv_matrix(path).shape == (1, 3)
    path.write_text("1\n2\n3\n")
    assert read_csv_matrix(path).shape == (3, 1)
    # finiteness is the operator's rule, not the reader's
    path.write_text("nan,inf\n-inf,0\n")
    mat = read_csv_matrix(path)
    assert np.isnan(mat[0, 0]) and np.array_equal(mat[0, 1:], [np.inf])
    assert np.array_equal(mat[1], [-np.inf, 0.0])


if given is not None:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(mat=st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
        lambda shape: arrays(float, shape, elements=st.floats(allow_nan=False,
                                                              allow_infinity=False))))
    @example(mat=np.array([[1.0, -0.0, 5e-324]]))
    @example(mat=np.array([[1.0], [-1e308], [np.pi]]))
    def test_read_csv_matrix_round_trips_a_finite_matrix(tmp_path, mat):
        path = tmp_path / "m.csv"
        np.savetxt(path, mat, fmt="%.17g", delimiter=",")
        read = read_csv_matrix(path)
        assert read.shape == mat.shape
        assert read.tobytes() == mat.tobytes()
