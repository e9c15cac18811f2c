import contextlib
import io
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import warnings
import weakref
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from mpxpi import cli, netspec
from mpxpi.cli import main
from mpxpi.errors import SpecFormatError
from mpxpi.sim import sweep


def _bundled(name: str) -> str:
    return str(resources.files("mpxpi.data").joinpath(name))


@pytest.fixture
def hetero8():
    return _bundled("hetero8.json")


@pytest.fixture
def grid16():
    return _bundled("grid16.json")


def test_check_passes_and_prints_certificates(hetero8, capsys):
    assert main(["check", hetero8]) == 0
    out = capsys.readouterr().out
    values = dict(
        line.split(None, 1) for line in out.strip().splitlines() if line.strip()
    )
    assert float(values["mu"]) == pytest.approx(59.8328, abs=1e-3)
    assert float(values["|eta|"]) == pytest.approx(0.3750, abs=1e-4)
    assert float(values["rho"]) == pytest.approx(2.618, abs=1e-3)
    assert float(values["threshold"]) == pytest.approx(11.2812, abs=1e-3)
    assert "pass" in values["condition_i"] or "pass" in out


def test_check_fails_below_cutoff(hetero8, tmp_path, capsys):
    doc = json.loads(open(hetero8).read())
    doc["layers"]["P"]["sigma"] = 19.0
    weak = tmp_path / "weak.json"
    weak.write_text(json.dumps(doc))
    assert main(["check", str(weak)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_check_verify_spectral_prints_residuals(hetero8, capsys):
    assert main(["check", hetero8, "--verify-spectral"]) == 0
    out = capsys.readouterr().out
    assert "layer P" in out
    assert "scaled_orthogonality" in out
    assert "layer C: no edges" in out


def test_check_projection_flag_matches_default_here(hetero8, capsys):
    # with an empty open-loop layer the default check already takes the
    # merged-layer route, so --projection must agree
    assert main(["check", hetero8, "--projection"]) == 0
    forced = capsys.readouterr().out
    assert main(["check", hetero8]) == 0
    assert capsys.readouterr().out == forced


def test_tune_reports_cutoff(hetero8, capsys):
    assert main(["tune", hetero8, "--anchor", "1"]) == 0
    values = dict(
        line.split(None, 1)
        for line in capsys.readouterr().out.strip().splitlines()
        if line.strip()
    )
    assert 19.25 <= float(values["sigma_P_min"]) <= 19.27
    assert values["feasible"] == "yes"


def test_simulate_csv_deterministic(hetero8, tmp_path, capsys):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    args = ["simulate", hetero8, "--t-end", "2.0", "--dt", "0.001",
            "--x0", "random:42", "--record-every", "100"]
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()

    lines = out_a.read_text().splitlines()
    assert lines[0].startswith("# x0=random:42")
    header = lines[2].split(",")
    assert header[0] == "t" and header[-1] == "d_x"
    assert len(header) == 1 + 16 + 16 + 1
    assert len(lines) == 3 + 21  # two comments, header, 21 samples


def test_simulate_uses_spec_defaults(hetero8, tmp_path):
    out = tmp_path / "t.csv"
    assert main(["simulate", hetero8, "--t-end", "1.0", "--record-every", "1000",
                 "--out", str(out)]) == 0
    assert "# x0=random:42" in out.read_text().splitlines()[0]


def test_simulate_x0_from_file(hetero8, tmp_path):
    x0 = tmp_path / "x0.json"
    x0.write_text(json.dumps(list(np.linspace(-1, 1, 16))))
    out = tmp_path / "t.csv"
    assert main(["simulate", hetero8, "--t-end", "1.0", "--dt", "0.001",
                 "--x0", str(x0), "--record-every", "1000", "--out", str(out)]) == 0
    first = out.read_text().splitlines()[3].split(",")
    assert float(first[1]) == pytest.approx(-1.0)


def test_simulate_full_run_reaches_consensus(hetero8, tmp_path):
    out = tmp_path / "full.csv"
    assert main(["simulate", hetero8, "--x0", "random:42", "--t-end", "50",
                 "--dt", "0.001", "--record-every", "5000", "--out", str(out)]) == 0
    last = out.read_text().splitlines()[-1].split(",")
    assert float(last[0]) == pytest.approx(50.0)
    assert float(last[-1]) < 1e-3  # d_x column


def test_sweep_csv_shape(hetero8, tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", hetero8, "--sigma-p", "0:40:4", "--sigma-i", "0:40:3",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "sigma_p,sigma_i,abscissa,stable"
    assert len(lines) == 2 + 12
    row = lines[2].split(",")
    assert row[0] == "0" and row[3] in ("0", "1")


def test_sweep_rows_match_per_cell_layout(hetero8, tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", hetero8, "--sigma-p", "0:30:4", "--sigma-i", "5:40:7",
                 "--out", str(out)]) == 0
    system, _ = netspec.parse_spec(hetero8)
    result = sweep(system, np.linspace(0.0, 30.0, 4), np.linspace(5.0, 40.0, 7))
    expected = [
        ",".join("%.17g" % v for v in (sp, si, result.abscissa[i, j], float(result.stable[i, j])))
        for i, sp in enumerate(result.sigma_p)
        for j, si in enumerate(result.sigma_i)
    ]
    assert out.read_text().splitlines()[2:] == expected


def _csv_by_value(header_lines, columns, rows):
    return "".join(f"# {h}\n" for h in header_lines) + ",".join(columns) + "\n" + "".join(
        ",".join("%.17g" % v for v in row) + "\n" for row in rows
    )


def _usable_cpus(monkeypatch, cpus):
    # The writer takes its worker count from the CPU affinity mask.
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


SPAN = cli._CSV_CHUNK_ROWS


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
    cli._write_csv(str(out), ["seed 1", "dt 0.001"], columns, rows)
    assert out.read_bytes() == _csv_by_value(["seed 1", "dt 0.001"], columns, rows).encode()


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("n_rows", [1, SPAN - 1, SPAN, SPAN + 1, 5 * SPAN + 17])
def test_write_csv_matches_per_value_format_at_span_edges(tmp_path, monkeypatch, cpus, n_rows):
    _usable_cpus(monkeypatch, cpus)
    rows = np.random.default_rng(n_rows).standard_normal((n_rows, 3)) * 1e3
    out = tmp_path / "rows.csv"
    cli._write_csv(str(out), [], ["a", "b", "c"], rows)
    assert out.read_bytes() == _csv_by_value([], ["a", "b", "c"], rows).encode()


def _many_span_rows():
    rows = np.random.default_rng(9).standard_normal((3 * SPAN + 5, 4))
    rows[:, 0] = np.arange(len(rows))
    return rows


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_write_csv_same_bytes_to_every_destination(tmp_path, capsys, monkeypatch, cpus):
    _usable_cpus(monkeypatch, cpus)
    rows = _many_span_rows()
    columns = ["t", "a", "b", "c"]
    want = _csv_by_value(["seed 9"], columns, rows)
    out = tmp_path / "rows.csv"
    cli._write_csv(str(out), ["seed 9"], columns, rows)
    assert out.read_bytes() == want.encode()
    capsys.readouterr()
    cli._write_csv(None, ["seed 9"], columns, rows)
    assert capsys.readouterr().out == want
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli._write_csv(None, ["seed 9"], columns, rows)
    assert buf.getvalue() == want
    assert multiprocessing.active_children() == []


def test_write_csv_keeps_no_reference_to_rows(tmp_path, monkeypatch):
    _usable_cpus(monkeypatch, 2)
    rows = _many_span_rows()
    alive = weakref.ref(rows)
    cli._write_csv(str(tmp_path / "rows.csv"), [], ["t", "a", "b", "c"], rows)
    del rows
    assert alive() is None


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("cpus", [1, 2])
def test_simulate_to_full_device_exits_2(hetero8, capsys, monkeypatch, cpus):
    _usable_cpus(monkeypatch, cpus)
    assert main(["simulate", hetero8, "--t-end", "5", "--out", "/dev/full"]) == 2
    _assert_clean_input_error(capsys.readouterr(), "No space left on device")
    assert multiprocessing.active_children() == []
    assert main(["simulate", hetero8, "--t-end", "5"]) == 0
    assert capsys.readouterr().out.count("\n") == 3 + 5001
    assert multiprocessing.active_children() == []


def _child_pids(pid):
    found = []
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if fields[1] == str(pid) and fields[0] != "Z":
            found.append(int(entry))
    return found


def _running(pid):
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
@pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: {0})(0)) < 2, reason="needs 2 CPUs")
def test_workers_exit_when_the_writer_is_killed(hetero8, tmp_path):
    # A writer killed outright cannot end its workers: they must see the
    # closed pipe and exit instead of blocking on it for good.
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "mpxpi.cli", "simulate", hetero8, "--out", str(tmp_path / "t.csv")]
    proc = subprocess.Popen(argv, env=env, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        workers = []
        while not workers and proc.poll() is None and time.monotonic() < deadline:
            workers = _child_pids(proc.pid)
            time.sleep(0.005)
        assert workers, "the writer forked no workers"
    finally:
        proc.kill()
        proc.wait(timeout=60)
    deadline = time.monotonic() + 30
    while any(_running(pid) for pid in workers) and time.monotonic() < deadline:
        time.sleep(0.05)
    stuck = [pid for pid in workers if _running(pid)]
    for pid in stuck:
        os.kill(pid, signal.SIGKILL)
    assert not stuck


def test_power_check_from_spec(grid16, capsys):
    assert main(["power", grid16]) == 0
    out = capsys.readouterr().out
    values = dict(line.split(None, 1) for line in out.strip().splitlines())
    assert float(values["psi11"]) == pytest.approx(-2.3875, abs=1e-4)
    assert float(values["threshold"]) == pytest.approx(6.3991, abs=1e-3)
    assert float(values["sigma_P_min"]) == pytest.approx(0.8326, abs=1e-3)


def test_power_demo_short_run(tmp_path, capsys):
    out = tmp_path / "demo.csv"
    assert main(["power-demo", "--t-end", "0.5", "--dt", "2e-05",
                 "--record-every", "500", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "final_max_dev_hz" in printed
    lines = out.read_text().splitlines()
    assert lines[1].split(",")[0] == "t"
    assert len(lines) == 2 + 51


def test_exit_codes_on_bad_input(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["check", missing]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["check", str(bad)]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["check", "--no-such-flag"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_check_rejects_nan_gain(hetero8, tmp_path, capsys):
    doc = json.loads(open(hetero8).read())
    doc["layers"]["P"]["sigma"] = float("nan")
    spec = tmp_path / "nan.json"
    spec.write_text(json.dumps(doc))
    assert main(["check", str(spec)]) == 2
    err = capsys.readouterr().err
    assert "$.layers.P.sigma: expected a finite number" in err


def test_sweep_rejects_infinite_matrix_entry(hetero8, tmp_path, capsys):
    doc = json.loads(open(hetero8).read())
    doc["nodes"][0]["A"][0][0] = float("inf")
    spec = tmp_path / "inf.json"
    spec.write_text(json.dumps(doc))
    assert main(["sweep", str(spec), "--sigma-p", "0:40:3", "--sigma-i", "0:40:3"]) == 2
    captured = capsys.readouterr()
    assert "$.nodes[0].A[0][0]: expected a finite number" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "grid_args",
    [
        ["--sigma-p", "nan:1:3", "--sigma-i", "0:40:2"],
        ["--sigma-p=-5:0:2", "--sigma-i", "0:40:2"],
    ],
)
def test_sweep_rejects_bad_grid(hetero8, capsys, grid_args):
    assert main(["sweep", hetero8] + grid_args) == 2
    captured = capsys.readouterr()
    assert "grid values must be finite and non-negative" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("flag,grid", [("--sigma-i", "0:inf:2"), ("--sigma-p", "-inf:1:3")])
def test_sweep_rejects_infinite_grid_end_without_warning(hetero8, capsys, flag, grid):
    other = "--sigma-p" if flag == "--sigma-i" else "--sigma-i"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sweep", hetero8, f"{flag}={grid}", f"{other}=0:40:2"]) == 2
    captured = capsys.readouterr()
    assert f"{grid}: grid values must be finite and non-negative" in captured.err
    assert captured.out == ""


def _assert_clean_input_error(captured, text):
    assert captured.err.startswith("error: ") and text in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("flag,value", [("--t-end", "inf"), ("--t-end", "nan"), ("--dt", "nan")])
def test_simulate_rejects_non_finite_times(hetero8, capsys, flag, value):
    assert main(["simulate", hetero8, flag, value]) == 2
    captured = capsys.readouterr()
    _assert_clean_input_error(captured, "finite 0 < dt < t_end")
    assert captured.out == ""


@pytest.mark.parametrize("flag,value", [("--t-end", "inf"), ("--t-end", "nan"), ("--dt", "nan")])
def test_power_demo_rejects_non_finite_times(capsys, flag, value):
    assert main(["power-demo", flag, value]) == 2
    captured = capsys.readouterr()
    _assert_clean_input_error(captured, "finite 0 < dt < t_end")
    assert captured.out == ""


@pytest.mark.parametrize(
    "text",
    [
        '{"a": 1}', '[{"a": 1}]', '["a"]', '[[1], [1, 2]]', "[1,",
        # JSON booleans are no numbers, although numpy would read them as 1 and 0
        json.dumps([True] * 16), json.dumps([1, True] + [0] * 14),
        pytest.param("[1" + "0" * 400 + "]", id="int-beyond-double"),
    ],
)
def test_simulate_rejects_x0_file_that_is_no_list_of_numbers(hetero8, tmp_path, capsys, text):
    x0 = tmp_path / "x0.json"
    x0.write_text(text)
    out = tmp_path / "t.csv"
    assert main(["simulate", hetero8, "--t-end", "1.0", "--x0", str(x0), "--out", str(out)]) == 2
    _assert_clean_input_error(capsys.readouterr(), "x0 must be a JSON list of 16 numbers")
    assert not out.exists()
    with pytest.raises(SpecFormatError):
        cli._resolve_x0(str(x0), 16)


def test_simulate_rejects_non_finite_x0_file(hetero8, tmp_path, capsys):
    x0 = tmp_path / "x0.json"
    x0.write_text(json.dumps([float("nan")] + [0.0] * 15))
    out = tmp_path / "t.csv"
    assert main(["simulate", hetero8, "--t-end", "1.0", "--x0", str(x0), "--out", str(out)]) == 2
    _assert_clean_input_error(capsys.readouterr(), "x0 must be finite")
    assert not out.exists()


def test_simulate_rejects_zero_record_every(hetero8, capsys):
    assert main(["simulate", hetero8, "--t-end", "1", "--record-every", "0"]) == 2
    captured = capsys.readouterr()
    assert "stride must be a positive divisor" in captured.err
    assert captured.out == ""


def test_power_demo_rejects_zero_record_every(capsys):
    assert main(["power-demo", "--t-end", "0.1", "--record-every", "0"]) == 2
    assert "record_every must be a positive divisor" in capsys.readouterr().err


def test_csv_format_option(hetero8, capsys):
    assert main(["check", hetero8, "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("mode,")


def test_round_trip_through_cli_spec(hetero8, tmp_path):
    system, defaults = netspec.parse_spec(hetero8)
    copy = tmp_path / "copy.json"
    copy.write_text(json.dumps(netspec.serialize_spec(system, defaults)))
    again, defaults2 = netspec.parse_spec(copy)
    assert defaults2 == defaults
    assert again.layer_i.edges == system.layer_i.edges
    for a, b in zip(again.nodes, system.nodes):
        np.testing.assert_array_equal(a.A, b.A)
        np.testing.assert_array_equal(a.b, b.b)
