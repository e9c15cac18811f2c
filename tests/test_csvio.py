"""mpxpi.csvio: the span formatter against "%.17g" % x, value by value, the
writer's split of rows into spans and processes, and the bytes it writes."""

import contextlib
import io
import math
import multiprocessing
import os
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpxpi import csvio

from conftest import (
    SPLIT_ROWS,
    _csv_by_value,
    _stdout_to_a_pipe,
    _usable_cpus,
)

SPAN = csvio._CSV_CHUNK_ROWS


def _assert_span_matches(values, n_cols=1):
    rows = np.asarray(values, dtype=float).reshape(-1, n_cols)
    got = csvio._format_span(rows)
    want = "".join(",".join("%.17g" % v for v in row) + "\n" for row in rows).encode()
    if got != want:  # name the first value that differs
        for line, row in zip(got.splitlines(), rows):
            assert line.decode() == ",".join("%.17g" % v for v in row), row.tolist()
    assert got == want


def _signed(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, -values])


def _ulp_neighbours(values, ulps=40):
    bits = np.asarray(values, dtype=float).view(np.int64)
    return (bits[:, None] + np.arange(-ulps, ulps + 1)).ravel().view(np.float64)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=48), st.integers(1, 4))
def test_format_span_matches_percent_for_any_bit_pattern(patterns, n_cols):
    values = np.array(patterns, dtype=np.uint64).view(np.float64)
    values = np.resize(values, (-(-len(values) // n_cols)) * n_cols)
    _assert_span_matches(values, n_cols)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats() | st.floats(1e-5, 1e15) | st.floats(-1e15, -1e-5), min_size=1, max_size=48))
def test_format_span_matches_percent_for_any_float(values):
    _assert_span_matches(values, len(values))


def test_format_span_matches_percent_on_random_values():
    rng = np.random.default_rng(21)
    bits = rng.integers(0, 2**64 - 1, 30_000, dtype=np.uint64, endpoint=True)
    _assert_span_matches(bits.view(np.float64), 5)
    # Uniform bit patterns are mostly far outside 1e-5..1e15; spread values over it.
    spread = rng.uniform(-1.0, 1.0, 30_000) * 10.0 ** rng.uniform(-6.0, 16.0, 30_000)
    _assert_span_matches(spread, 4)


def test_format_span_rounds_exact_ties_half_to_even():
    # x = j / 2**s with j odd has exactly s digits after the point, the last
    # a 5. With 18 significant digits, x lies halfway between two 17-digit
    # decimals, and "%.17g" takes the one with an even last digit.
    rng = np.random.default_rng(5)
    ties = []
    for exp in range(-5, 15):  # the decimal exponent of x
        s = 17 - exp
        lo = math.ceil(Fraction(10) ** exp * 2**s)
        hi = math.ceil(Fraction(10) ** (exp + 1) * 2**s)
        ties += [(int(j) | 1) / 2**s for j in rng.integers(lo, hi - 1, 300)]
    for x in ties:
        digits = Decimal(x).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5
    _assert_span_matches(_signed(ties), 6)


def test_format_span_matches_percent_next_to_powers_of_ten():
    powers = [float(f"1e{p}") for p in range(-6, 17)]
    _assert_span_matches(_signed(_ulp_neighbours(powers)), 3)
    # The values that would round up to the next power of ten at 17 digits:
    # 10**(p+1) - 5e-17 * 10**p is the rounding boundary.
    boundaries = [float(Decimal(10) ** (p + 1) - 5 * Decimal(10) ** (p - 17)) for p in range(-6, 16)]
    _assert_span_matches(_signed(_ulp_neighbours(boundaries)), 3)


@pytest.mark.parametrize("shift", [-0.3, 0.3])
def test_format_span_corrects_an_exponent_estimate_one_off(monkeypatch, shift):
    # floor(log10|x|) only estimates the exponent; the exact product decides.
    # Shifting log10 puts the estimate one off for many values, exact powers
    # of ten among them, in either direction.
    log10 = np.log10
    monkeypatch.setattr(csvio.np, "log10", lambda a: log10(a) + shift)
    rng = np.random.default_rng(34)
    spread = rng.uniform(-1.0, 1.0, 20_000) * 10.0 ** rng.uniform(-5.0, 15.0, 20_000)
    powers = [float(f"1e{p}") for p in range(-5, 16)]
    _assert_span_matches(np.concatenate([spread, _signed(_ulp_neighbours(powers, 3))]), 2)


def test_format_span_matches_percent_at_the_edges_of_the_fast_range():
    _assert_span_matches(_signed(_ulp_neighbours([1e-5, 1e15])), 1)
    _assert_span_matches(_signed([1e-5, 1e15, 9.9999999999999991e-06, 1.0000000000000002e15]), 8)


def test_format_span_matches_percent_on_special_values():
    # Subnormals, then the least normal double.
    tiny = np.array([1, 2, 12345, 2**52 - 1, 2**52], dtype=np.uint64).view(np.float64)
    specials = [0.0, -0.0, np.nan, -np.nan, np.copysign(np.nan, -1.0), np.inf, -np.inf, 1.7e308, -1.7e308,
                np.finfo(float).max, *tiny, *-tiny]
    assert np.signbit(specials[4])
    _assert_span_matches(specials, 1)
    _assert_span_matches(specials, len(specials))
    _assert_span_matches([0.0, -0.0, -0.0, 0.0] * 3, 4)  # zeros only, no value for the fast path


def test_format_span_mixes_fast_and_per_value_paths_in_one_span():
    rng = np.random.default_rng(8)
    rows = rng.standard_normal((301, 7)) * 10.0 ** rng.integers(-9, 19, (301, 7))
    rows[rng.random(rows.shape) < 0.2] = 0.0
    rows[:, 3] = rows[:, 3] < 0.0  # a 0/1 flag column, as in sweep output
    rows[-1, -1] = np.nan
    rows[0, 0] = -0.0
    _assert_span_matches(rows, 7)
    _assert_span_matches(rows[:, :1], 1)


def test_format_span_writes_flag_and_one_digit_columns_as_percent_does():
    # 0/1 flag columns, and the integers 0..9 of either sign among their
    # neighbours and wider integers: zeros go through "%", the rest through
    # the vectorised path, in the same blocks.
    rng = np.random.default_rng(15)
    flags = (rng.random((SPAN, 34)) < 0.5).astype(float)
    _assert_span_matches(flags, 34)
    digits = _signed(np.arange(10.0))
    near = _signed(_ulp_neighbours(np.arange(1.0, 11.0), 3))
    others = [0.5, 9.5, 10.0, 11.0, 1e-5, 5e-324, np.nan, np.inf, -np.inf]
    mixed = rng.choice(np.concatenate([digits, near, others]), (3001, 5))
    _assert_span_matches(mixed, 5)
    _assert_span_matches(rng.choice(digits, (1000, 3)), 3)  # every value one digit


def test_format_span_writes_sweep_rows_as_percent_does():
    sigma_p, sigma_i = np.linspace(0.0, 40.0, 20), np.linspace(0.0, 40.0, 20)
    abscissa = np.random.default_rng(16).standard_normal(400) * 10.0 ** np.repeat([-12.0, -3.0, 0.0, 1.0], 100)
    abscissa[::7] = 0.0
    rows = np.column_stack(
        [np.repeat(sigma_p, 20), np.tile(sigma_i, 20), abscissa, abscissa < 0.0]
    ).astype(float)
    _assert_span_matches(rows, 4)


def test_format_span_mixes_percent_blocks_with_vectorised_ones():
    # A span is formatted in blocks of rows. Alternate blocks with no value
    # in 1e-5..1e15, every value formatted by "%", and blocks with values
    # for the vectorised path, ending on a short all-"%" block.
    n_cols = 5
    step = csvio._G17_BLOCK // n_cols
    rng = np.random.default_rng(13)
    scales = [1e-9, 1e20, 1.0, 1e-9, 0.0, 1e-9, 1e3, 1e300]
    blocks = [rng.standard_normal((step, n_cols)) * scale for scale in scales]
    blocks[1][0, :3] = [np.nan, -np.inf, 5e-324]  # specials among huge values, all "%"
    blocks[3][::2] = 0.0  # zeros and tiny values, all "%"
    blocks[4][1::3] = -0.0  # all zeros, both signs, all "%"
    blocks[5][7, 3] = 3.5  # one vectorised value among tiny ones
    rows = np.vstack(blocks + [rng.standard_normal((17, n_cols)) * 1e-200])
    _assert_span_matches(rows, n_cols)


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("n_rows", SPLIT_ROWS)
def test_csv_spans_split_rows_evenly(monkeypatch, cpus, n_rows):
    _usable_cpus(monkeypatch, cpus)
    processes, spans = csvio._csv_spans(n_rows)
    assert processes == (cpus if n_rows > SPAN else 1)
    assert len(spans) % processes == 0
    assert [start for start, _ in spans] == [0] + [stop for _, stop in spans[:-1]]
    assert spans[-1][1] == n_rows
    sizes = [stop - start for start, stop in spans]
    assert max(sizes) <= SPAN and max(sizes) - min(sizes) <= 1


def test_csv_spans_examples(monkeypatch):
    _usable_cpus(monkeypatch, 2)
    assert csvio._csv_spans(5001) == (2, [(0, 1250), (1250, 2500), (2500, 3750), (3750, 5001)])
    assert csvio._csv_spans(4001) == (2, [(0, 2000), (2000, 4001)])


def _count_forks(monkeypatch):
    started = []
    start = multiprocessing.process.BaseProcess.start

    def counted(proc):
        started.append(proc)
        start(proc)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counted)
    return started


@pytest.mark.parametrize(
    "cpus, n_rows, workers",
    [(1, 3 * SPAN + 5, 0), (2, 3 * SPAN + 5, 1), (3, 3 * SPAN + 5, 2), (3, SPAN, 0), (2, 1, 0)],
)
def test_write_csv_forks_one_worker_per_cpu_but_one(tmp_path, monkeypatch, cpus, n_rows, workers):
    _usable_cpus(monkeypatch, cpus)
    started = _count_forks(monkeypatch)
    rows = np.random.default_rng(3).standard_normal((n_rows, 2))
    csvio.write_csv(str(tmp_path / "rows.csv"), [], ["a", "b"], rows)
    assert len(started) == workers
    assert (tmp_path / "rows.csv").read_text() == _csv_by_value([], ["a", "b"], rows)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_write_csv_to_a_stream_with_no_descriptor_forks_no_worker(tmp_path, monkeypatch, cpus):
    # A replaced sys.stdout has no descriptor to write spans in turn into:
    # the parent formats and writes every span, with the bytes a file gets.
    # A pipe has one, and takes the spans from every process.
    _usable_cpus(monkeypatch, cpus)
    started = _count_forks(monkeypatch)
    rows = np.random.default_rng(4).standard_normal((3 * SPAN + 5, 3))
    args = (["seed 4"], ["a", "b", "c"], rows)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        csvio.write_csv(None, *args)
    assert started == []
    csvio.write_csv(str(tmp_path / "rows.csv"), *args)
    assert buf.getvalue().encode() == (tmp_path / "rows.csv").read_bytes()
    assert buf.getvalue() == _csv_by_value(*args)
    del started[:]
    with _stdout_to_a_pipe() as chunks:
        csvio.write_csv(None, *args)
    assert len(started) == cpus - 1
    assert b"".join(chunks).decode() == buf.getvalue()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("n_rows, n_cols", [(7, 5), (4 * SPAN + 3, 3), (1000, 4)])
def test_write_csv_matches_per_value_format(tmp_path, n_rows, n_cols):
    rng = np.random.default_rng(n_rows)
    rows = rng.standard_normal((n_rows, n_cols)) * 10.0 ** rng.integers(-300, 300, (n_rows, n_cols))
    special = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.7e308]
    rows.flat[: len(special)] = special
    if n_cols == 4:  # sweep-shaped: sigma_p, sigma_i, abscissa, stable flag
        rows[:, 3] = rows[:, 2] < 0.0
    columns = [f"c{k}" for k in range(n_cols)]
    out = tmp_path / "rows.csv"
    csvio.write_csv(str(out), ["seed 1", "dt 0.001"], columns, rows)
    assert out.read_bytes() == _csv_by_value(["seed 1", "dt 0.001"], columns, rows).encode()


def test_write_csv_creates_a_file_with_the_mode_open_gives(tmp_path):
    umask = os.umask(0o027)
    try:
        csvio.write_csv(str(tmp_path / "new.csv"), [], ["a"], np.zeros(3))
        open(tmp_path / "by_open.csv", "w").close()
    finally:
        os.umask(umask)
    modes = [(tmp_path / name).stat().st_mode & 0o7777 for name in ("new.csv", "by_open.csv")]
    assert modes == [0o640, 0o640]
