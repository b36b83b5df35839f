"""Command-line entry point: verification sweeps, geodesics, frame dumps."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .checks import run_verification
from .connections import connection_triple
from .errors import ChartExitError, ConfigError, FinslerLabError, SingularEvaluationError
from .jets import TangentPoint
from .liouville import PACK_CONDITION_LIMIT, pack_gram, pack_rows
from .metrics import load_metric
from .spray import integrate_geodesic, workspace_at


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="finslerlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run the identity verification sweep")
    v.add_argument("--metric", required=True, help="metric config path or JSON string")
    v.add_argument("--points", type=int, default=1000)
    v.add_argument("--seed", type=int, default=42)
    v.add_argument("--tol", type=float, default=None, help="override every tolerance")
    v.add_argument("--tol-profile", default=None, help="JSON file {class: tolerance}")
    v.add_argument("--report", default=None, help="write the JSON report here")
    v.add_argument("--checks", default=None, help="comma-separated ids or prefixes")
    v.add_argument("--threads", type=int, default=1)

    g = sub.add_parser("geodesic", help="integrate a geodesic and write a CSV")
    g.add_argument("--metric", required=True)
    g.add_argument("--x0", required=True, help="comma-separated start position")
    g.add_argument("--y0", required=True, help="comma-separated start velocity")
    g.add_argument("--steps", type=int, default=1000)
    g.add_argument("--dt", type=float, default=1e-3)
    g.add_argument("--out", required=True)

    for name in ("frames", "connections"):
        d = sub.add_parser(name, help=f"dump the {name} data at one point")
        d.add_argument("--metric", required=True)
        d.add_argument("--point", required=True, help='chart point as "x1,..,xn;y1,..,yn"')
        d.add_argument("--out", default=None)
    return parser


def _point(xs: str, ys: str, metric) -> TangentPoint:
    """The tangent point with comma-separated coordinates xs and ys on the
    chart of `metric`; a malformed point, one with y = 0, or one of another
    dimension, is a ConfigError."""
    try:
        p = TangentPoint([float(v) for v in xs.split(",")], [float(v) for v in ys.split(",")])
    except ValueError as exc:
        raise ConfigError(f"point must be comma-separated numbers, x and y of equal length: {exc}") from exc
    except SingularEvaluationError as exc:  # y = 0, off the slit tangent bundle
        raise ConfigError(str(exc)) from exc
    if p.n != metric.n:
        raise ConfigError(f"point dimension {p.n} does not match metric dimension {metric.n}")
    return p


def _open_output(path: str, mode: str = "w"):
    """`path` opened for writing; an unwritable path is a ConfigError."""
    try:
        return open(path, mode, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from exc


def _check_output(path: str):
    """An unwritable `path` is a ConfigError; `path` is left as it was, so an
    earlier file there survives a run that fails after this check."""
    existed = os.path.lexists(path)
    _open_output(path, "a").close()
    if not existed:
        os.remove(path)


def _emit(doc: dict, path: str | None):
    text = json.dumps(doc, indent=2)
    if path:
        with _open_output(path) as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_verify(args) -> int:
    if args.points < 1:
        print("config error: --points must be >= 1", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("config error: --seed must be >= 0", file=sys.stderr)
        return 2
    if args.threads < 1:
        print("config error: --threads must be >= 1", file=sys.stderr)
        return 2
    try:
        metric = load_metric(args.metric)
        tol_profile = None
        if args.tol_profile:
            with open(args.tol_profile, "r", encoding="utf-8") as fh:
                try:
                    tol_profile = json.load(fh)
                except ValueError as exc:  # malformed JSON, or an integer too long to convert
                    raise ConfigError(f"tolerance profile: {exc}") from exc
        checks = args.checks.split(",") if args.checks else None
        if args.report:
            _check_output(args.report)
        report = run_verification(
            metric,
            points=args.points,
            seed=args.seed,
            checks=checks,
            tolerance=args.tol,
            tol_profile=tol_profile,
            threads=args.threads,
        )
        if args.report:
            _emit(report, args.report)
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    failed = [c for c in report["checks"] if not c["pass"]]
    for c in report["checks"]:
        status = "pass" if c["pass"] else "FAIL"
        print(f"{status}  {c['id']:40s} max {c['max_residual']:.3e}  tol {c['tolerance']:.1e}")
    print(f"{len(report['checks']) - len(failed)}/{len(report['checks'])} checks passed "
          f"({report['meta']['wall_time_s']:.2f} s)")
    return 0 if report["pass"] else 1


def cmd_geodesic(args) -> int:
    if not (math.isfinite(args.dt) and args.dt > 0):
        print("usage error: --dt must be a finite positive number", file=sys.stderr)
        return 2
    if args.steps < 1:
        print("usage error: --steps must be >= 1", file=sys.stderr)
        return 2
    metric = load_metric(args.metric)
    p0 = _point(args.x0, args.y0, metric)
    if not metric.in_box(p0.x)[0]:
        raise ConfigError(f"geodesic start x={p0.x.tolist()} lies outside the domain box {metric.x_box.tolist()}")
    _check_output(args.out)
    try:
        res = integrate_geodesic(metric, p0, args.steps, args.dt)
    except ChartExitError as exc:
        _open_output(args.out).close()  # a chart exit leaves an empty CSV
        print(f"chart exit: {exc}", file=sys.stderr)
        return 1
    with _open_output(args.out) as fh:
        n = metric.n
        header = "t," + ",".join(f"x{i+1}" for i in range(n)) + "," + ",".join(f"y{i+1}" for i in range(n)) + ",F"
        fh.write(header + "\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in np.column_stack([res.t, res.x, res.y, res.F]).tolist())
    print(f"wrote {args.out}; F-drift {res.drift:.3e}")
    return 0


def _point_or_error(args):
    metric = load_metric(args.metric)
    xs, sep, ys = args.point.partition(";")
    if not sep:
        raise ConfigError('point must be "x1,..,xn;y1,..,yn"')
    return metric, _point(xs, ys, metric)


def cmd_frames(args) -> int:
    metric, p = _point_or_error(args)
    ws = workspace_at(metric, p)
    P = pack_rows(ws)  # the pack and Gram that the frames.* rows read
    gram = pack_gram(ws, P)[0]
    cond = float(np.linalg.cond(P)[0])
    if not cond < PACK_CONDITION_LIMIT:  # the test of the frames.pack_conditioning row
        print(f"warning: frame pack ill-conditioned (cond={cond:.3e}) at x={p.x.tolist()}, y={p.y.tolist()}",
              file=sys.stderr)
    n = metric.n
    _emit(
        {
            "point": {"x": p.x.tolist(), "y": p.y.tolist()},
            "dropped_index": int(ws.dropped_index[0]),
            "block_sizes": [n - 1, 1, n - 1, 1],
            "pack_matrix": P[0].tolist(),
            "gram_matrix": gram.tolist(),
            "condition": cond,
        },
        args.out,
    )
    return 0


def cmd_connections(args) -> int:
    metric, p = _point_or_error(args)
    t = connection_triple(metric, p)
    _emit(
        {
            "point": {"x": p.x.tolist(), "y": p.y.tolist()},
            "vranceanu": {"C": t.C.tolist(), "Gc": t.Gc.tolist(), "Fc": t.Fc.tolist()},
            "vaisman": {
                "dropped_index": t.dropped,
                "kept_indices": list(t.kept),
                "indicatrix_coefficients": t.s_bar.tolist(),
                "mixed_coefficients": t.beta.tolist(),
                "radial_bar": t.radial_bar,
                "bar_radial": t.bar_radial.tolist(),
                "radial_radial": t.radial_radial,
                "horizontal_radial": t.horizontal_radial.tolist(),
            },
            "composite": {
                "bundle": t.bundle,
                "frame": t.frame,
                "horizontal": t.Fc.tolist(),
                "indicatrix": t.s_bar.tolist(),
                "mixed": t.beta.tolist(),
                "radial_horizontal": t.radial_horizontal,
                "radial_indicatrix": t.radial_bar,
            },
        },
        args.out,
    )
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "geodesic":
            return cmd_geodesic(args)
        if args.command == "frames":
            return cmd_frames(args)
        if args.command == "connections":
            return cmd_connections(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FinslerLabError as exc:  # an evaluation error: F not smooth, g degenerate
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
