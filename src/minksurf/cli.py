"""Pipeline driver: parse -> sample -> integrate -> build -> verify -> export.

Exit codes: 0 all residual suites passed, 2 configuration error (or an
unusable output path), 3 expression parse error, 4 no usable base node, 5
verification failure (also when nothing is meshable).
Unexpected exceptions surface as tracebacks with exit code 1.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import ConfigError, RunConfig, load_config
from .domain import BasePointMaskedError, sample_data
from .expr import ExprSyntaxError, parse_expr
from .meshout import MeshExportError, export_mesh, write_curvature_csv, write_report
from .surfaces import (QUADRIC_KINDS, GeometryKind, make_affine_surface,
                       make_lw_bryant, make_quadric_surface)
from .verify import verify_surface

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PARSE = 3
EXIT_BASE_MASKED = 4
EXIT_VERIFY = 5


def _build_surface(cfg: RunConfig):
    kind = cfg.target.kind
    if kind is GeometryKind.LW_BRYANT:
        return make_lw_bryant(parse_expr(cfg.psi), parse_expr(cfg.eta),
                              cfg.target.m, cfg.target.mu, cfg.grid)[0]
    # psi/eta feed only the LW construction: their singularities must not
    # mask a surface built from (phi, omega)
    data = sample_data(parse_expr(cfg.phi), parse_expr(cfg.omega), cfg.grid)
    if kind in QUADRIC_KINDS:
        return make_quadric_surface(data, cfg.target.m, cfg.target.mu)
    return make_affine_surface(data, cfg.target.p)


def run(cfg: RunConfig, *, verify_only=False, quiet=False,
        mesh_path=None, report_path=None) -> int:
    """Execute one configured run; returns the process exit code."""

    def say(msg):
        if not quiet:
            print(msg)

    mesh_path = mesh_path or cfg.mesh_path
    report_path = report_path or cfg.report_path
    for path in [report_path] + ([] if verify_only else [mesh_path, cfg.curvature_csv_path]):
        if path and (os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or ".")):
            problem = "is a directory" if os.path.isdir(path) else "no such directory"
            print(f"error: output {path}: {problem}", file=sys.stderr)
            return EXIT_CONFIG

    try:
        surface = _build_surface(cfg)
    except ExprSyntaxError as exc:
        print(f"error: expression: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BasePointMaskedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BASE_MASKED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    report = verify_surface(surface, tolerances=cfg.tolerances)
    for name, stat in sorted(report.stats.items()):
        say(f"{'PASS' if stat.passed else 'FAIL'} {name}: max={stat.max_value:.3e} "
            f"tol={stat.tolerance:.1e} nodes={stat.nodes}")

    extra = {"surface": {"kind": surface.kind.value,
                         "params": {k: v for k, v in sorted(surface.params.items())}}}
    meshable = True   # an unmeshable run still writes the CSV and the report
    if not verify_only and mesh_path:
        try:
            nverts, nfaces = export_mesh(
                surface, mesh_path, projection=cfg.projection,
                mesh_format=cfg.mesh_format,
                quality=report.fields.get("H"))
            extra["mesh"] = {"vertices": nverts, "faces": nfaces,
                             "format": cfg.mesh_format}
            say(f"mesh: {mesh_path} ({nverts} vertices, {nfaces} faces)")
        except MeshExportError as exc:
            print(f"error: {exc}", file=sys.stderr)
            meshable = False
    if not verify_only and cfg.curvature_csv_path:
        write_curvature_csv(surface, report, cfg.curvature_csv_path)
        say(f"curvature csv: {cfg.curvature_csv_path}")
    if report_path:
        write_report(report, report_path, extra=extra)
        say(f"report: {report_path}")

    if not meshable:
        return EXIT_VERIFY
    if not report.passed:
        say("verification FAILED")
        return EXIT_VERIFY
    say("verification passed")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="minksurf",
        description="Surfaces in Minkowski 4-space from holomorphic data")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute a configured pipeline run")
    runp.add_argument("config", help="path to the JSON run configuration")
    runp.add_argument("--verify-only", action="store_true",
                      help="run the residual suites but write no mesh/csv")
    runp.add_argument("--report", metavar="PATH", default=None,
                      help="override the report output path")
    runp.add_argument("--mesh", metavar="PATH", default=None,
                      help="override the mesh output path")
    runp.add_argument("--quiet", action="store_true", help="suppress progress output")
    args = parser.parse_args(argv)

    if args.command == "run":
        try:
            cfg = load_config(args.config)
        except ConfigError as exc:
            print(f"error: config: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        return run(cfg, verify_only=args.verify_only, quiet=args.quiet,
                   mesh_path=args.mesh, report_path=args.report)
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
