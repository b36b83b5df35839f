"""CLI contract: exit codes, report determinism, CSV and dump formats."""

import json
import subprocess
import sys

import numpy as np
import pytest

import finslerlab.cli as cli
from finslerlab.jets import TangentPoint
from finslerlab.spray import integrate_geodesic

from helpers import CONFIG_DIR, load_catalog_metric

EUCLID2 = json.dumps({"family": "euclidean", "n": 2})
# a_00 = 1 - 2 x0^2 is negative near |x0| = 1: F is undefined on part of the box
NEGATIVE_IN_BOX = json.dumps(
    {
        "family": "riemannian",
        "n": 2,
        "a": [[{"poly": [{"coef": 1, "powers": [0, 0]}, {"coef": -2, "powers": [2, 0]}]}, 0], [0, 1]],
    }
)

# b = (1.3 x0 x1, 0) has |b|_a > 1 near the corners of the box: g is
# indefinite there, where F can be negative with F^2 > 0
INDEFINITE_RANDERS = json.dumps(
    {"family": "randers", "n": 2, "a": [[1, 0], [0, 1]], "b": [{"poly": [{"coef": 1.3, "powers": [1, 1]}]}, 0]}
)


# a_00 = 1 - 4 x0^2 vanishes at x0 = 0.5, the edge of the domain box (a is
# positive definite inside it): at y = (1, 0) there q = 0, so F = beta and
# F^2 = 0.01 are finite and positive, but F is not smooth
Q_ZERO_RANDERS = json.dumps(
    {
        "family": "randers",
        "n": 2,
        "a": [[{"poly": [{"coef": 1, "powers": [0, 0]}, {"coef": -4, "powers": [2, 0]}]}, 0], [0, 1]],
        "b": [0.1, 0],
        "domain": {"x": [[-0.5, 0.5], [-1, 1]]},
    }
)

def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "finslerlab.cli", *args],
        capture_output=True,
        text=True,
    )


def report_body(path):
    """Report content with volatile fields stripped (for determinism tests)."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["meta"].pop("wall_time_s")
    return doc


def test_verify_euclidean_passes(tmp_path):
    report = tmp_path / "report.json"
    out = run_cli(
        "verify", "--metric", EUCLID2, "--points", "100", "--seed", "7", "--report", str(report)
    )
    assert out.returncode == 0, out.stderr
    doc = json.loads(report.read_text())
    assert doc["pass"] is True
    ids = [c["id"] for c in doc["checks"]]
    assert len(ids) == len(set(ids))  # every check appears exactly once
    for c in doc["checks"]:
        assert c["pass"] == (c["max_residual"] <= c["tolerance"])


def test_verify_malformed_config(tmp_path):
    out = run_cli("verify", "--metric", json.dumps({"family": "euclidean", "n": 2, "frob": 1}), "--points", "10")
    assert out.returncode == 2
    assert "frob" in out.stderr


def test_verify_failure_exit_code_and_report(tmp_path):
    report = tmp_path / "report.json"
    out = run_cli(
        "verify", "--metric", EUCLID2, "--points", "20", "--seed", "3",
        "--checks", "numerics.fd_cross", "--tol", "1e-30", "--report", str(report),
    )
    assert out.returncode == 1
    doc = json.loads(report.read_text())  # report still written on failure
    assert doc["pass"] is False


def test_verify_checks_selection(tmp_path):
    report = tmp_path / "report.json"
    out = run_cli(
        "verify", "--metric", EUCLID2, "--points", "20", "--seed", "3",
        "--checks", "euler", "--report", str(report),
    )
    assert out.returncode == 0
    doc = json.loads(report.read_text())
    assert all(c["id"].startswith("euler") for c in doc["checks"])
    assert [c["id"] for c in doc["checks"]] == ["euler.squared_norm", "euler.vertical_radial"]


def test_verify_deterministic_reports(tmp_path):
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    args = ["verify", "--metric", str(CONFIG_DIR / "randers2.json"), "--points", "128", "--seed", "11"]
    assert run_cli(*args, "--report", str(r1)).returncode == 0
    assert run_cli(*args, "--report", str(r2)).returncode == 0
    assert report_body(r1) == report_body(r2)


def test_verify_thread_count_invariance(tmp_path):
    r1, r3 = tmp_path / "t1.json", tmp_path / "t3.json"
    args = ["verify", "--metric", str(CONFIG_DIR / "randers2.json"), "--points", "300", "--seed", "11"]
    assert run_cli(*args, "--threads", "1", "--report", str(r1)).returncode == 0
    assert run_cli(*args, "--threads", "3", "--report", str(r3)).returncode == 0
    b1, b3 = report_body(r1), report_body(r3)
    b1["meta"].pop("threads")
    b3["meta"].pop("threads")
    assert b1 == b3


def test_verify_on_a_small_domain_box_passes(tmp_path):
    """The global RK4 checks start inside a box smaller than [-1, 1]^n and
    stay in it: riemann2 on [-0.5, 0.5]^2 passes, euclidean4 on a box
    shifted off the origin too."""
    riemann2 = json.loads((CONFIG_DIR / "riemann2.json").read_text())
    riemann2["domain"] = {"x": [[-0.5, 0.5], [-0.5, 0.5]]}
    euclid = {"family": "euclidean", "n": 4, "domain": {"x": [[0.1, 0.3], [-0.5, 0.5], [-2.0, -1.0], [0.0, 1.0]]}}
    for config in (riemann2, euclid):
        report = tmp_path / "report.json"
        out = run_cli("verify", "--metric", json.dumps(config), "--points", "8", "--checks", "numerics",
                      "--report", str(report))
        assert out.returncode == 0, out.stderr
        assert json.loads(report.read_text())["pass"] is True


def test_geodesic_csv(tmp_path):
    out_path = tmp_path / "path.csv"
    out = run_cli(
        "geodesic", "--metric", EUCLID2, "--x0", "0,0", "--y0", "0.3,0.1",
        "--steps", "50", "--dt", "0.01", "--out", str(out_path),
    )
    assert out.returncode == 0
    assert "F-drift" in out.stdout
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "t,x1,x2,y1,y2,F"
    assert len(lines) == 52
    last = [float(v) for v in lines[-1].split(",")]
    assert last[1] == pytest.approx(0.15) and last[2] == pytest.approx(0.05)


@pytest.mark.parametrize("name, x0, y0", [("riemann2", "0.1,-0.2", "0.7,0.4"),
                                          ("randers3", "0.1,-0.2,0.05", "0.7,0.4,-0.3")])
def test_geodesic_csv_fields_are_the_path_bits(tmp_path, name, x0, y0, capsys):
    """Every field of the CSV parses with float() to the bits of
    `integrate_geodesic`'s t, x, y and F."""
    out_path = tmp_path / "path.csv"
    argv = ["geodesic", "--metric", str(CONFIG_DIR / f"{name}.json"), "--x0", x0, "--y0", y0,
            "--steps", "150", "--dt", "3e-3", "--out", str(out_path)]
    assert cli.main(argv) == 0, capsys.readouterr().err
    p0 = TangentPoint([float(v) for v in x0.split(",")], [float(v) for v in y0.split(",")])
    res = integrate_geodesic(load_catalog_metric(name), p0, 150, 3e-3)
    n = res.x.shape[1]
    fields = np.array([[float(v) for v in line.split(",")] for line in out_path.read_text().splitlines()[1:]])
    for column, want in ((fields[:, 0], res.t), (fields[:, 1 : 1 + n], res.x), (fields[:, 1 + n : -1], res.y),
                         (fields[:, -1], res.F)):
        assert np.ascontiguousarray(column).tobytes() == want.tobytes()


def test_geodesic_zero_dt_usage_error(tmp_path):
    out = run_cli(
        "geodesic", "--metric", EUCLID2, "--x0", "0,0", "--y0", "1,0",
        "--steps", "10", "--dt", "0", "--out", str(tmp_path / "x.csv"),
    )
    assert out.returncode == 2
    assert "dt" in out.stderr


@pytest.mark.parametrize("dt", ["nan", "inf"])
def test_geodesic_non_finite_dt_is_one_usage_error(tmp_path, dt):
    out = run_cli(
        "geodesic", "--metric", EUCLID2, "--x0", "0,0", "--y0", "1,0",
        "--steps", "10", "--dt", dt, "--out", str(tmp_path / "x.csv"),
    )
    assert out.returncode == 2
    assert out.stderr == "usage error: --dt must be a finite positive number\n"
    assert not (tmp_path / "x.csv").exists()


def test_geodesic_chart_exit(tmp_path):
    out = run_cli(
        "geodesic", "--metric", EUCLID2, "--x0", "0.9,0", "--y0", "1,0",
        "--steps", "100", "--dt", "0.01", "--out", str(tmp_path / "x.csv"),
    )
    assert out.returncode == 1
    assert "step" in out.stderr


def test_geodesic_through_indefinite_g_is_one_error(tmp_path):
    out = run_cli(
        "geodesic", "--metric", INDEFINITE_RANDERS, "--x0=-0.95,-0.85", "--y0=-1.9,0.1",
        "--steps", "10", "--out", str(tmp_path / "g.csv"),
    )
    assert out.returncode == 2
    assert "Traceback" not in out.stderr and "RuntimeWarning" not in out.stderr
    errors = [line for line in out.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1, out.stderr
    assert "not positive definite" in errors[0] and "x=[-0.95, -0.85], y=[-1.9, 0.1]" in errors[0]


def test_geodesic_where_g_is_not_finite_is_one_error(tmp_path):
    """At y ~ 1e-105 q^-1.5 overflows: F^2 is finite and positive but g is
    not finite, and its NaN eigenvalues are named at n = 3 as at n = 2,
    without numpy warnings and without a LinAlgError traceback."""
    out = run_cli(
        "geodesic", "--metric", str(CONFIG_DIR / "randers3.json"), "--x0=0.1,0.1,0.1",
        "--y0=1e-105,2e-105,3e-105", "--steps", "10", "--out", str(tmp_path / "g.csv"),
    )
    assert out.returncode == 2
    assert "Traceback" not in out.stderr and "RuntimeWarning" not in out.stderr
    errors = [line for line in out.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1, out.stderr
    assert "not positive definite (lowest eigenvalue nan)" in errors[0] and "y=[1e-105, 2e-105, 3e-105]" in errors[0]


def test_geodesic_from_a_point_where_F_is_undefined_is_one_error(tmp_path):
    """a_00 = 1 - 2 x0^2 < 0 at x0 = 0.9: F^2 < 0 at the start is named as
    such, without numpy warnings and before any step."""
    out = run_cli(
        "geodesic", "--metric", NEGATIVE_IN_BOX, "--x0=0.9,0", "--y0=1,0",
        "--steps", "10", "--out", str(tmp_path / "g.csv"),
    )
    assert out.returncode == 2
    assert "Traceback" not in out.stderr and "RuntimeWarning" not in out.stderr
    errors = [line for line in out.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1, out.stderr
    assert "F^2 not finite and positive" in errors[0] and "x=[0.9, 0.0], y=[1.0, 0.0]" in errors[0]


def test_frames_dump_and_round_trip(tmp_path):
    out_path = tmp_path / "frames.json"
    out = run_cli("frames", "--metric", EUCLID2, "--point", "0.7,-0.3;0,1", "--out", str(out_path))
    assert out.returncode == 0
    doc = json.loads(out_path.read_text())
    assert doc["dropped_index"] == 1
    assert doc["block_sizes"] == [1, 1, 1, 1]
    pack = np.array(doc["pack_matrix"])
    gram = np.array(doc["gram_matrix"])
    # re-verify the parsed dump: recompute and compare exactly (repr round-trip)
    from finslerlab.jets import TangentPoint
    from finslerlab.liouville import pack_gram, pack_rows
    from finslerlab.metrics import load_metric
    from finslerlab.spray import workspace_at

    ws = workspace_at(load_metric(EUCLID2), TangentPoint(doc["point"]["x"], doc["point"]["y"]))
    fresh = pack_rows(ws)
    # the dump holds the pack and Gram that the frames.* rows read, bit for bit
    assert np.array_equal(pack, fresh[0])
    assert np.array_equal(gram, pack_gram(ws, fresh)[0])
    assert doc["condition"] == np.linalg.cond(fresh)[0]


def test_frames_warns_on_an_ill_conditioned_pack_and_still_writes_it(tmp_path, capsys):
    """At |y| = 1e-11 the pack's condition number is about 1e11, above 1e10:
    one warning line on stderr, exit 0 and the dump all the same."""
    out_path = tmp_path / "frames.json"
    args = ["frames", "--metric", str(CONFIG_DIR / "randers3.json"), "--point", "0,0,0;0,0,1e-11"]
    assert cli.main([*args, "--out", str(out_path)]) == 0
    cond = json.loads(out_path.read_text())["condition"]
    assert cond > 1e10
    assert capsys.readouterr().err.splitlines() == [
        f"warning: frame pack ill-conditioned (cond={cond:.3e}) at x=[0.0, 0.0, 0.0], y=[0.0, 0.0, 1e-11]"
    ]


def test_frames_zero_velocity_message():
    out = run_cli("frames", "--metric", EUCLID2, "--point", "0,0;0,0")
    assert out.returncode == 2
    assert "slit tangent bundle" in out.stderr


def test_connections_dump(tmp_path):
    out_path = tmp_path / "conn.json"
    out = run_cli(
        "connections", "--metric", str(CONFIG_DIR / "randers2.json"),
        "--point", "0.2,-0.1;0.9,1.1", "--out", str(out_path),
    )
    assert out.returncode == 0
    doc = json.loads(out_path.read_text())
    assert doc["vaisman"]["radial_radial"] == 1.0
    assert doc["composite"]["bundle"] == "radial_complement"
    C = np.array(doc["vranceanu"]["C"])
    assert C.shape == (2, 2, 2)


@pytest.mark.parametrize("command", ["frames", "connections"])
def test_point_commands_build_one_workspace(command, monkeypatch, capsys):
    """The frame pack and the connection triple each come from one order-4
    Workspace, and the triple from one Vaisman solve (the load probe's
    lower-order Workspace is not counted)."""
    import finslerlab.connections as cn
    import finslerlab.spray as sp

    orders, solves = [], []
    init, solve = sp.Workspace.__init__, cn.solve_vaisman

    def counting_init(self, metric, x, y, order=4):
        orders.append(order)
        init(self, metric, x, y, order)

    monkeypatch.setattr(sp.Workspace, "__init__", counting_init)
    monkeypatch.setattr(cn, "solve_vaisman", lambda ws: solves.append(ws) or solve(ws))
    point = "0.2,-0.1,0.3;0.9,1.1,-0.4"
    assert cli.main([command, "--metric", str(CONFIG_DIR / "randers3.json"), "--point", point]) == 0
    assert orders.count(4) == 1 and len(solves) == (command == "connections")
    doc = json.loads(capsys.readouterr().out)
    if command == "connections":
        assert doc["composite"]["frame"] == "delta/dx + bar(drop 1)"
    else:
        assert doc["dropped_index"] == 1


@pytest.mark.parametrize(
    "point, named",
    [("0,0,0;1,1,1", "dimension"), ("0.2,-0.1;0.9", "equal length")],
    ids=["wrong-n", "unequal-x-y"],
)
def test_point_dimension_mismatch(point, named):
    out = run_cli("frames", "--metric", EUCLID2, "--point", point)
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    errors = [line for line in out.stderr.splitlines() if line.startswith("config error:")]
    assert len(errors) == 1 and named in errors[0], out.stderr


@pytest.mark.parametrize("x0, y0", [("0,0,0", "1,1,1"), ("0.1", "1")], ids=["longer", "shorter"])
def test_geodesic_start_of_the_wrong_dimension_is_one_config_error(tmp_path, x0, y0):
    """A start of n = 1 used to broadcast into a path of n = 2 and exit 0."""
    out_path = tmp_path / "path.csv"
    out = run_cli(
        "geodesic", "--metric", str(CONFIG_DIR / "riemann2.json"), "--x0", x0, "--y0", y0, "--out", str(out_path)
    )
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    errors = [line for line in out.stderr.splitlines() if line.startswith("config error:")]
    assert len(errors) == 1 and "dimension" in errors[0], out.stderr
    assert not out_path.exists()


def test_geodesic_start_outside_the_domain_box_is_one_config_error(tmp_path):
    """A start outside the box used to exit 1 with "last valid step index 0"
    and leave an empty CSV; --out is not opened now."""
    out_path = tmp_path / "path.csv"
    out = run_cli("geodesic", "--metric", str(CONFIG_DIR / "riemann2.json"), "--x0", "5,5", "--y0", "1,0",
                  "--steps", "3", "--out", str(out_path))
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    errors = [line for line in out.stderr.splitlines() if line.startswith("config error:")]
    assert len(errors) == 1 and "domain box" in errors[0], out.stderr
    assert not out_path.exists()


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_verify_thread_count_below_one_is_one_config_error(tmp_path, threads):
    """--threads 0 and -2 used to exit 0 and write meta.threads 0 and -2."""
    report = tmp_path / "r.json"
    out = run_cli("verify", "--metric", EUCLID2, "--points", "10", "--threads", threads, "--report", str(report))
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    errors = [line for line in out.stderr.splitlines() if line.startswith("config error:")]
    assert len(errors) == 1 and "--threads" in errors[0], out.stderr
    assert not report.exists()


@pytest.mark.parametrize("command, option", [("verify", "--points"), ("geodesic", "--steps")])
def test_a_size_numpy_refuses_is_one_config_error(tmp_path, command, option):
    """2^62 points or steps used to exit 1 with numpy's "array is too big"
    traceback; numpy refuses that size without allocating anything."""
    out_path = tmp_path / "out"
    where = {"verify": ["--report"], "geodesic": ["--x0", "0,0", "--y0", "1,0", "--out"]}[command]
    out = run_cli(command, "--metric", EUCLID2, option, str(2**62), *where, str(out_path))
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    errors = [line for line in out.stderr.splitlines() if line.startswith("config error:")]
    assert len(errors) == 1 and f"= {2**62} ({option})" in errors[0], out.stderr
    assert not out_path.exists()


@pytest.mark.parametrize(
    "metric, y0, named",
    [(NEGATIVE_IN_BOX, "1,0", "F^2 not finite and positive"), (str(CONFIG_DIR / "riemann2.json"), "inf,0", "y=[inf")],
    ids=["negative_a00", "infinite_y0"],
)
def test_geodesic_that_fails_leaves_an_earlier_csv_as_it_was(tmp_path, metric, y0, named):
    """A geodesic that exits 2 on an evaluation error used to leave the CSV
    path an empty file: it was opened for writing before the run.  A chart
    exit (exit 1) still leaves an empty CSV."""
    csv = tmp_path / "g.csv"
    csv.write_text("earlier csv")
    out = run_cli("geodesic", "--metric", metric, "--x0=0.9,0", f"--y0={y0}", "--steps", "10", "--out", str(csv))
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    errors = [line for line in out.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and named in errors[0], out.stderr
    assert csv.read_text() == "earlier csv"
    out = run_cli("geodesic", "--metric", EUCLID2, "--x0", "0.9,0", "--y0", "1,0", "--out", str(csv))
    assert out.returncode == 1 and csv.read_text() == ""


OUTPUT_COMMANDS = {
    "verify": ["verify", "--metric", EUCLID2, "--points", "10", "--report"],
    "geodesic": ["geodesic", "--metric", EUCLID2, "--x0", "0,0", "--y0", "1,0", "--steps", "5", "--out"],
    "frames": ["frames", "--metric", EUCLID2, "--point", "0,0;1,0", "--out"],
    "connections": ["connections", "--metric", EUCLID2, "--point", "0,0;1,0", "--out"],
}


# the expensive step of each command, which an unwritable output must not reach
OUTPUT_WORK = {"verify": "run_verification", "geodesic": "integrate_geodesic"}


@pytest.mark.parametrize("command", OUTPUT_COMMANDS)
def test_unwritable_output_is_one_error(tmp_path, command, monkeypatch, capsys):
    path = tmp_path / "missing-dir" / "out"
    out = run_cli(*OUTPUT_COMMANDS[command], str(path))
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    assert out.stderr.count("\n") == 1 and "cannot write" in out.stderr, out.stderr
    if command in OUTPUT_WORK:

        def no_work(*args, **kwargs):
            raise AssertionError(f"{OUTPUT_WORK[command]} ran before the output was opened")

        monkeypatch.setattr(cli, OUTPUT_WORK[command], no_work)
        assert cli.main([*OUTPUT_COMMANDS[command], str(path)]) == 2
        assert "cannot write" in capsys.readouterr().err


def test_verify_that_fails_leaves_an_earlier_report_as_it_was(tmp_path):
    """A sweep that exits 2 used to leave the report path an empty file: it
    was opened for writing before the sweep.  a_00 = 1 - 1.2 x0^3 makes g
    indefinite near x0 = 1."""
    config = json.dumps(
        {
            "family": "riemannian",
            "n": 2,
            "a": [[{"poly": [{"coef": 1, "powers": [0, 0]}, {"coef": -1.2, "powers": [3, 0]}]}, 0], [0, 1]],
        }
    )
    report = tmp_path / "r.json"
    report.write_text("earlier report")
    out = run_cli("verify", "--metric", config, "--points", "1000", "--report", str(report))
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    errors = [line for line in out.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "not positive definite" in errors[0], out.stderr
    assert report.read_text() == "earlier report"
    fresh = tmp_path / "fresh.json"
    assert run_cli("verify", "--metric", config, "--points", "1000", "--report", str(fresh)).returncode == 2
    assert not fresh.exists()


@pytest.mark.parametrize("command", OUTPUT_COMMANDS)
def test_missing_metric_file_is_one_error(tmp_path, command):
    args = list(OUTPUT_COMMANDS[command])
    args[2] = str(tmp_path / "nosuch.json")
    out = run_cli(*args, str(tmp_path / "out"))
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    assert out.stderr.count("\n") == 1 and "nosuch.json" in out.stderr, out.stderr


def test_verify_metric_undefined_in_box_is_an_error_not_a_traceback():
    out = run_cli("verify", "--metric", NEGATIVE_IN_BOX, "--points", "50")
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    assert "RuntimeWarning" not in out.stderr  # NaN at points outside F's domain stays silent
    assert "F cannot be evaluated at x=" in out.stderr  # the load-time probe warns
    errors = [line for line in out.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "x=" in errors[0]


def test_frames_metric_undefined_in_box():
    ok = run_cli("frames", "--metric", NEGATIVE_IN_BOX, "--point", "0.1,0.1;1,0")
    assert ok.returncode == 0
    assert "F cannot be evaluated at x=" in ok.stderr
    bad = run_cli("frames", "--metric", NEGATIVE_IN_BOX, "--point", "0.9,0.1;1,0")
    assert bad.returncode == 2
    assert "Traceback" not in bad.stderr
    assert "RuntimeWarning" not in bad.stderr
    assert any(line.startswith("error:") for line in bad.stderr.splitlines())



@pytest.mark.parametrize("command", ["frames", "connections"])
def test_point_command_where_F_is_not_smooth_is_one_error(command):
    """At a Randers point with q = 0 and y != 0 the guard of `Workspace.L`
    rejects the non-finite derivatives of F^2, where g used to reach an SVD
    that did not converge."""
    out = run_cli(command, "--metric", Q_ZERO_RANDERS, "--point", "0.5,0;1,0")
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    assert "RuntimeWarning" not in out.stderr
    errors = [line for line in out.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "x=[0.5, 0.0], y=[1.0, 0.0]" in errors[0]

@pytest.mark.parametrize(
    "args, named",
    [
        (["--checks", "nosuch"], "'nosuch'"),
        (["--checks", "euler.nosuch"], "'euler.nosuch'"),
        (["--tol", "nan"], "nan"),
        (["--tol-profile", "5"], "5"),
        (["--tol-profile", '{"algebraic": "abc"}'], "'abc'"),
        (["--tol-profile", '{"algebric": 1e-30}'], "'algebric'"),
        (["--tol-profile", '{"exact": 1%s}' % ("0" * 400)], "1000"),
        (["--tol-profile", '{"exact": 1%s}' % ("0" * 5000)], "tolerance profile"),
        (["--checks", "euler,"], "empty check pattern"),
        (["--seed", "-1"], "--seed"),
    ],
)
def test_verify_bad_selection_or_tolerance_is_one_config_error(tmp_path, args, named):
    if args[0] == "--tol-profile":
        profile = tmp_path / "profile.json"
        profile.write_text(args[1])
        args = ["--tol-profile", str(profile)]
    out = run_cli("verify", "--metric", EUCLID2, "--points", "10", *args)
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    errors = [line for line in out.stderr.splitlines() if line.startswith("config error:")]
    assert len(errors) == 1 and named in errors[0], out.stderr


@pytest.mark.parametrize("n", [2.7, "2", True, 2.0])
def test_verify_non_integer_dimension_is_one_config_error(n, capsys):
    """Only a JSON integer is a dimension: 2.7 used to load as n = 2."""
    assert cli.main(["verify", "--metric", json.dumps({"family": "euclidean", "n": n}), "--points", "10"]) == 2
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 1 and errors[0].startswith("config error:") and "'n'" in errors[0], errors


SINGULAR_RANDERS = {"family": "randers", "n": 2, "a": [[0, 0], [0, 1]], "b": [0.1, 0]}


def _poly_a00(term):
    return {"family": "riemannian", "n": 2, "a": [[{"poly": [term]}, 0], [0, 1]]}


@pytest.mark.parametrize(
    "config, named",
    [
        (SINGULAR_RANDERS, "a is not positive definite at x="),
        ({"family": "euclidean", "n": 2, "domain": {"x": [["a", 1], [-1, 1]]}}, "domain.x[0][0]"),
        ({"family": "euclidean", "n": 2, "domain": {"x": [[None, 1], [-1, 1]]}}, "domain.x[0][0]"),
        ({"family": "euclidean", "n": 2, "domain": {"x": [[-1, 1], [-1, float("inf")]]}}, "domain.x[1][1]"),
        (_poly_a00({"coef": "x", "powers": [0, 0]}), "coef of a term in a[0][0]"),
        (_poly_a00({"coef": 1, "powers": 5}), "powers of a term in a[0][0]"),
        (_poly_a00({"coef": 1, "powers": ["a", 0]}), "powers of a term in a[0][0]"),
        (_poly_a00({"coef": 1, "powers": [1.7, 0]}), "powers of a term in a[0][0]"),
    ],
    ids=["randers_a_singular", "bound_string", "bound_null", "bound_infinity", "coef_string", "powers_number",
         "powers_string", "powers_float"],
)
def test_verify_bad_config_value_is_one_config_error(config, named, capsys):
    """A value of the wrong kind is one config error, where it raised a
    traceback (a singular Randers a, a string bound, coef or power, powers
    that are a number) or loaded wrong (a null or infinite bound, powers
    [1.7, 0] as [1, 0])."""
    assert cli.main(["verify", "--metric", json.dumps(config), "--points", "10"]) == 2
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 1 and errors[0].startswith("config error:") and named in errors[0], errors


@pytest.mark.parametrize("command", ["verify", "geodesic", "frames", "connections"])
def test_every_command_prints_a_config_error_under_one_prefix(command, tmp_path, capsys):
    """A config error is one `config error:` line in all four commands; the
    frames and connections dumps printed it as `error:`, the prefix of an
    evaluation error."""
    args = {"verify": ["--points", "10"],
            "geodesic": ["--x0", "0.1,0", "--y0", "1,1", "--out", str(tmp_path / "path.csv")],
            "frames": ["--point", "0.1,0;1,1"], "connections": ["--point", "0.1,0;1,1"]}[command]
    assert cli.main([command, "--metric", json.dumps(SINGULAR_RANDERS), *args]) == 2
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 1 and errors[0].startswith("config error:"), errors
    assert "a is not positive definite at x=" in errors[0]
