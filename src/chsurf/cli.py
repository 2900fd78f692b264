"""Command-line entry point.

Subcommands: curve-props, curve-implicit, curve-sample, surface-classify,
surface-mesh, figure, verify.  Machine output (JSON / CSV / OBJ) goes to
stdout or ``--out``; diagnostics go to stderr.  Exit codes: 0 success,
1 domain error (invalid spec, degenerate geometry, failed verification,
an internal consistency check, an unwritable output path, both sidecars
of ``surface-classify`` on one file, a value too large for the floats a
sampler, mesh or numeric check uses, or a grid too large for memory),
2 usage error.  A stdout closed by its reader is exit 1
with nothing on stderr.  The mesh commands check every vertex of the mesh
before they open ``--out``, so a sampling failure leaves no file.

Rational options accept ``num/den`` or finite decimal strings, both parsed
exactly, also as a separate negative argument (``--cx -1/2``,
``--cx -1e3``).  ``--q`` additionally accepts ``p=...`` sugar for the
base-point height, e.g. ``p=i`` for q = -1.  Every check of ``verify`` is
exact or a fixed sample, so its output depends on the options alone.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, List

if TYPE_CHECKING:
    from .curve import CurveSpec
    from .surface import SurfaceSpec

# The chsurf modules are imported inside the command that uses them, so a
# process pays only for its own command.  The verify suite names live here
# for the same reason: ``chsurf.verify.run_suite`` takes each of them.
VERIFY_SUITES = ("table1", "table2", "residual", "invariants", "all")


def _emit(stream, text: str) -> None:
    try:
        stream.write(text)
    except TypeError:
        stream.write(text.encode("utf-8"))


def _json_line(record: dict) -> str:
    return json.dumps(record, separators=(",", ":")) + "\n"


_NEGATIVE_VALUE = re.compile(r"-\.?\d\S*")
_LONG_OPTION = re.compile(r"--\w[\w-]*")


def _attach_negative_values(argv: List[str]) -> List[str]:
    """Rewrite ``--opt -value`` as ``--opt=-value`` for a value such as ``-1/4``.

    argparse reads a token such as ``-1/4``, ``-1e3`` or ``-2.5E-1`` as an
    unknown flag.  No option of this CLI starts with ``-`` and then a digit
    or ``.``, so such a token is the value of the option before it.
    """
    joined: List[str] = []
    for token in argv:
        if joined and _NEGATIVE_VALUE.fullmatch(token) and _LONG_OPTION.fullmatch(joined[-1]):
            joined[-1] = f"{joined[-1]}={token}"
        else:
            joined.append(token)
    return joined


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a rational; use num/den or a finite decimal"
        ) from None


def parse_q(text: str) -> Fraction:
    """q directly, or p= sugar squared (p=i, p=-i and p=<rat>i give negative q)."""
    if text.startswith("p="):
        body = text[2:].strip()
        if body.endswith("i"):
            coefficient = body[:-1]
            if coefficient in ("", "+", "-"):
                coefficient += "1"  # a bare sign before i stands for 1
            return -parse_rational(coefficient) ** 2
        return parse_rational(body) ** 2
    return parse_rational(text)


def _add_curve_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, required=True, help="angular frequency numerator")
    parser.add_argument("--d", type=int, required=True, help="angular frequency denominator")
    parser.add_argument("--a", type=parse_rational, default=Fraction(0), help="radial offset (rational)")


def _add_placement_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cx", type=parse_rational, default=Fraction(0), help="pole x (rational)")
    parser.add_argument("--cy", type=parse_rational, default=Fraction(0), help="pole y (rational)")
    parser.add_argument("--h", type=parse_rational, default=Fraction(0), help="curve plane height (rational)")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once; ``parse_args`` returns a fresh namespace per call."""
    parser = argparse.ArgumentParser(
        prog="chsurf",
        description="Exact toolkit for cyclic-harmonic curves and their circular surfaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    props = sub.add_parser("curve-props", help="order, multiplicities, and shape class")
    _add_curve_options(props)

    implicit = sub.add_parser("curve-implicit", help="exact implicit equation as JSON")
    _add_curve_options(implicit)
    implicit.add_argument(
        "--homogeneous", action="store_true", help="emit the projective form over x0,x1,x2"
    )

    sample_cmd = sub.add_parser("curve-sample", help="CSV samples of the placed curve")
    _add_curve_options(sample_cmd)
    _add_placement_options(sample_cmd)
    sample_cmd.add_argument("--samples", type=int, default=256)
    sample_cmd.add_argument("--out", help="output path (default stdout)")

    classify_cmd = sub.add_parser("surface-classify", help="surface order and multiplicities")
    _add_curve_options(classify_cmd)
    _add_placement_options(classify_cmd)
    classify_cmd.add_argument("--q", type=parse_q, required=True, help="squared base-point height, or p= sugar")
    classify_cmd.add_argument(
        "--singular-circles-csv", help="also write singular circles (angle,offset,radius,multiplicity)"
    )
    classify_cmd.add_argument(
        "--waist-points-csv", help="also write curve/waist intersection points (x,y,z)"
    )

    mesh_cmd = sub.add_parser("surface-mesh", help="triangle mesh of the surface as OBJ")
    _add_curve_options(mesh_cmd)
    _add_placement_options(mesh_cmd)
    mesh_cmd.add_argument("--q", type=parse_q, required=True)
    mesh_cmd.add_argument("--nt", type=int, default=256, help="rows along the curve parameter")
    mesh_cmd.add_argument("--ntheta", type=int, default=96, help="columns around each circle")
    mesh_cmd.add_argument("--out", help="output path (default stdout)")

    figure_cmd = sub.add_parser("figure", help="render a preset surface to OBJ")
    figure_cmd.add_argument("id", nargs="?", help="preset id, e.g. 3b")
    figure_cmd.add_argument("--list", action="store_true", help="list preset ids")
    figure_cmd.add_argument("--nt", type=int, help="override preset rows")
    figure_cmd.add_argument("--ntheta", type=int, help="override preset columns")
    figure_cmd.add_argument("--out", help="output path (default stdout)")

    verify_cmd = sub.add_parser("verify", help="run a verification suite")
    verify_cmd.add_argument("suite", choices=list(VERIFY_SUITES))
    verify_cmd.add_argument("--format", choices=["text", "json"], default="text")
    return parser


def _curve_spec(args) -> CurveSpec:
    from .curve import CurveSpec

    return CurveSpec(args.n, args.d, args.a)


def _surface_spec(args) -> SurfaceSpec:
    from .curve import Placement
    from .surface import SurfaceSpec

    return SurfaceSpec(_curve_spec(args), args.q, Placement(args.cx, args.cy, args.h))


def _write_to(args, out, render) -> None:
    if args.out:
        with open(args.out, "wb") as handle:
            render(handle)
    else:
        render(out)


def _cmd_curve_props(args, out) -> int:
    from .curve import curve_properties, shape_class

    spec = _curve_spec(args)
    props = curve_properties(spec)
    record = {
        "order": props.order,
        "origin": props.origin_multiplicity,
        "absolute": props.absolute_multiplicity,
        "shape": shape_class(spec).value,
    }
    _emit(out, _json_line(record))
    return 0


def _cmd_curve_implicit(args, out) -> int:
    from .curve import homogeneous_implicit, implicit_equation

    spec = _curve_spec(args)
    poly = homogeneous_implicit(spec) if args.homogeneous else implicit_equation(spec)
    _emit(out, _json_line(poly.to_dict()))
    return 0


def _cmd_curve_sample(args, out) -> int:
    from .curve import Placement, curve_point

    spec = _curve_spec(args)
    placement = Placement(args.cx, args.cy, args.h)
    if args.samples < 2:
        raise ValueError("need at least 2 samples")
    lines = ["phi,x,y,z\n"]
    period = spec.parameter_period
    for k in range(args.samples):
        phi = period * k / args.samples
        x, y, z = curve_point(spec, placement, phi)
        lines.append(f"{phi:.17g},{x:.17g},{y:.17g},{z:.17g}\n")
    _write_to(args, out, lambda sink: _emit(sink, "".join(lines)))
    return 0


def _cmd_surface_classify(args, out) -> int:
    from .surface import classify, singular_circles, zero_circle_intersections

    circles_csv, waist_csv = args.singular_circles_csv, args.waist_points_csv
    if circles_csv and waist_csv and os.path.realpath(circles_csv) == os.path.realpath(waist_csv):
        raise ValueError(f"--singular-circles-csv and --waist-points-csv name one file: {waist_csv}")
    spec = _surface_spec(args)
    result = classify(spec)
    # Both sidecars are computed, then written, before stdout: a float
    # failure or an unwritable sidecar path leaves stdout empty.
    sidecars = []
    if circles_csv:
        lines = ["meridian_angle,center_offset,radius,multiplicity\n"]
        for key, multiplicity in singular_circles(spec):
            lines.append(
                f"{key.meridian_angle:.17g},{key.center_offset:.17g},"
                f"{key.radius:.17g},{multiplicity}\n"
            )
        sidecars.append((circles_csv, lines))
    if waist_csv:
        lines = ["x,y,z\n"]
        for x, y, z in zero_circle_intersections(spec):
            lines.append(f"{x:.17g},{y:.17g},{z:.17g}\n")
        sidecars.append((waist_csv, lines))
    for path, lines in sidecars:
        with open(path, "w") as handle:
            handle.write("".join(lines))
    _emit(out, _json_line(result.to_dict()))
    return 0


def _cmd_surface_mesh(args, out) -> int:
    from .mesh import obj_writer

    _write_to(args, out, obj_writer(_surface_spec(args), args.nt, args.ntheta))
    return 0


def _cmd_figure(args, out) -> int:
    from .mesh import figure_preset, obj_writer, preset_keys

    if args.list:
        presets = [figure_preset(key) for key in preset_keys()]
        lines = [f"{p.key}  nt={p.nt} ntheta={p.ntheta}  {p.description}\n" for p in presets]
        _write_to(args, out, lambda sink: _emit(sink, "".join(lines)))
        return 0
    if not args.id:
        raise ValueError("give a preset id or --list")
    preset = figure_preset(args.id)
    nt = args.nt if args.nt is not None else preset.nt
    ntheta = args.ntheta if args.ntheta is not None else preset.ntheta
    _write_to(args, out, obj_writer(preset.spec, nt, ntheta))
    return 0


def _cmd_verify(args, out) -> int:
    from .verify import run_suite

    report = run_suite(args.suite)
    if args.format == "json":
        _emit(out, _json_line(report.to_dict()))
    else:
        for check in report.checks:
            status = "PASS" if check.passed else "FAIL"
            _emit(out, f"{status}  {check.name}  [{check.measured}]\n")
        _emit(out, f"{report.suite}: {report.passed} passed, {report.failed} failed\n")
    return 0 if report.ok else 1


_COMMANDS = {
    "curve-props": _cmd_curve_props,
    "curve-implicit": _cmd_curve_implicit,
    "curve-sample": _cmd_curve_sample,
    "surface-classify": _cmd_surface_classify,
    "surface-mesh": _cmd_surface_mesh,
    "figure": _cmd_figure,
    "verify": _cmd_verify,
}


def run(argv: List[str], out, err) -> int:
    """Parse and execute; returns the exit code instead of raising SystemExit."""
    parser = _build_parser()
    usage_buffer = io.StringIO()
    try:
        with contextlib.redirect_stderr(usage_buffer), contextlib.redirect_stdout(usage_buffer):
            args = parser.parse_args(_attach_negative_values(argv))
    except SystemExit as exit_request:
        _emit(err if exit_request.code else out, usage_buffer.getvalue())
        return int(exit_request.code or 0)
    try:
        return _COMMANDS[args.command](args, out)
    except BrokenPipeError:
        return 1
    except OverflowError as failure:
        # Exact commands take any rational; the samplers, meshes and numeric
        # checks need every value they derive within the float range.
        _emit(err, f"error: a value is too large for floating point: {failure}\n")
        return 1
    except MemoryError as failure:
        # A grid or mesh too large for this machine; numpy names the allocation.
        _emit(err, f"error: not enough memory: {str(failure) or 'an allocation failed'}\n")
        return 1
    except (ValueError, RuntimeError, OSError) as failure:
        # OSError: an output path (--out, the CSV sidecars) cannot be written.
        _emit(err, f"error: {failure}\n")
        return 1


def main() -> None:
    # A buffered writer takes every byte of each write, which the raw file
    # of an unbuffered stdout may not.  After a closed pipe, fd 1 points at
    # the null device, so no flush fails at interpreter exit.
    out = open(sys.stdout.fileno(), "wb", closefd=False)
    try:
        code = run(sys.argv[1:], out, sys.stderr.buffer)
        out.flush()
    except BrokenPipeError:
        code = 1
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
