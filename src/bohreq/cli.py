"""Command-line front end.

Exit codes: 0 success, 2 negative mathematical verdicts (not equivalent,
infeasible phase system, Kronecker time not found), 1 errors, 64 usage.
Outputs are deterministic for fixed inputs and seed: JSON is emitted with
sorted keys, point clouds as re,im CSV, and files are written atomically.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import sys
from pathlib import Path

from . import equivalence, scenarios
from .basis import compute_basis, is_integral
from .core import spec_tail_bound
from .errors import SeriesError, ValidationError
from .seriesio import (
    atomic_write_text,
    emit_series_text,
    format_rational,
    parse_series_file,
)

# The float layer (NumPy, `evaluation`, `valuesets`, `zeros`) is imported in
# the handlers that call it, so the exact-layer commands start without NumPy.
# It raises PrecisionLimit for a value beyond a double itself, so no handler
# imports NumPy or checks a result for overflow.

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NEGATIVE = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _digest(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _emit(args, text: str) -> None:
    if args.out:
        atomic_write_text(args.out, text)
    else:
        sys.stdout.write(text)


def _verdict(command: str, inputs: dict, result: dict) -> str:
    record = {
        "command": command,
        "inputs": {name: _digest(path) for name, path in inputs.items()},
        "result": result,
    }
    return json.dumps(record, indent=2, sort_keys=True) + "\n"


def _cloud_text(cloud: "valuesets.ValueCloud", fmt: str) -> str:
    points = cloud.points.tolist()
    if fmt == "csv":
        lines = ["re,im"]
        lines += [f"{z.real!r},{z.imag!r}" for z in points]
        return "\n".join(lines) + "\n"
    payload = {
        "route": cloud.route,
        "meta": cloud.meta,
        "points": [{"re": z.real, "im": z.imag} for z in points],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _phases_arg(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad phase list {text!r}") from None


def _grid_arg(text: str) -> tuple[int, int]:
    try:
        a, b = text.lower().split("x")
        return int(a), int(b)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}; expected NxM") from None


def build_parser() -> _Parser:
    parser = _Parser(prog="bohreq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, series2: bool = False, sampling: bool = False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--series", required=name != "bohr-example", help="series file (JSON)")
        if series2:
            p.add_argument("--series2", required=True, help="second series file")
        p.add_argument("--out", help="write output to this file instead of stdout")
        if sampling:
            p.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
            p.add_argument("--format", choices=("json", "csv"), default="csv")
        return p

    add("basis", "rational basis, expansion and selection matrices")

    p = add("twist", "twist coefficients by a phase vector over the basis")
    p.add_argument("--phases", type=_phases_arg, required=True, help="comma-separated radians")

    for name, help_text in (
        ("solve-phases", "feasibility of the phase congruence system"),
        ("equiv", "decide equivalence of two aligned truncations"),
    ):
        p = add(name, help_text, series2=True)
        p.add_argument("--tol", type=float, default=1e-9,
                       help="modulus and phase tolerance (default 1e-9)")

    p = add("closure-demo", "per-truncation feasibility and minimal phase norms", series2=True)
    p.add_argument("--nmax", type=int, required=True)

    p = add("eval", "evaluate the series at one point")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--t", type=float, default=0.0)

    p = add("tail", "certified tail bound at an abscissa")
    p.add_argument("--sigma", type=float, required=True)

    p = add("uniform-distance", "max |f - g| over a box grid", series2=True)
    p.add_argument("--sigma-min", type=float, required=True)
    p.add_argument("--sigma-max", type=float, required=True)
    p.add_argument("--t-min", type=float, required=True)
    p.add_argument("--t-max", type=float, required=True)
    p.add_argument("--grid", type=_grid_arg, default=(20, 40), help="sigma x t step counts")

    p = add("value-set", "sample strip values (route A or B)", sampling=True)
    p.add_argument("--route", choices=("direct", "equivalence"), default="direct")
    p.add_argument("--sigma-min", type=float, required=True)
    p.add_argument("--sigma-max", type=float, required=True)
    p.add_argument("--t-max", type=float, default=100.0)
    p.add_argument("--count", type=int, default=10000)

    p = add("line-set", "sample values on a vertical line", sampling=True)
    p.add_argument("--sigma0", type=float, required=True)
    p.add_argument("--t-max", type=float, default=100.0)
    p.add_argument("--count", type=int, default=10000)

    p = add("sigma-star", "largest abscissa whose right half-strip has a zero of f - v")
    p.add_argument("--tol", type=float, default=1e-3, help="bisection width (default 1e-3)")
    p.add_argument("--v-re", type=float, default=0.0)
    p.add_argument("--v-im", type=float, default=0.0)
    p.add_argument("--t-min", type=float, required=True)
    p.add_argument("--t-max", type=float, required=True)
    p.add_argument("--sigma-floor", type=float, default=-10.0)
    p.add_argument("--steps", type=int, default=256)

    p = add("zeros", "argument-principle zero count of f - v in a rectangle")
    p.add_argument("--v-re", type=float, default=0.0)
    p.add_argument("--v-im", type=float, default=0.0)
    p.add_argument("--sigma-min", type=float, required=True)
    p.add_argument("--sigma-max", type=float, required=True)
    p.add_argument("--t-min", type=float, required=True)
    p.add_argument("--t-max", type=float, required=True)
    p.add_argument("--steps", type=int, default=256)

    p = add("kronecker", "find a shift time realizing target basis phases")
    p.add_argument("--target", type=_phases_arg, required=True, help="radians per basis element")
    p.add_argument("--tol", type=float, default=1e-9,
                   help="largest phase miss accepted (default 1e-9)")
    p.add_argument("--t-max-search", type=float, default=1e5)

    p = add("bohr-example", "emit the counterexample series truncation")
    p.add_argument("--n", type=int, required=True)

    return parser


def _matrix_obj(matrix) -> list[dict[str, str]]:
    return [
        {str(j): format_rational(q) for j, q in matrix.row_items(i)}
        for i in range(matrix.nrows)
    ]


def _cmd_basis(args) -> int:
    spec = parse_series_file(args.series)
    basis, expansion, selection = compute_basis([t.exponent for t in spec.terms])
    result = {
        "basis": [
            {name: format_rational(q) for name, q in beta.items()}
            for beta in basis.elements
        ],
        "source_terms": [i + 1 for i in basis.source_indices],
        "expansion": _matrix_obj(expansion),
        "selection": _matrix_obj(selection),
        "integral": is_integral(expansion),
        "denominator_lcms": list(
            itertools.accumulate(
                (
                    math.lcm(*(q.denominator for _, q in expansion.row_items(i)))
                    for i in range(expansion.nrows)
                ),
                math.lcm,
            )
        ),
    }
    _emit(args, _verdict("basis", {"series": args.series}, result))
    return EXIT_OK


def _cmd_twist(args) -> int:
    spec = parse_series_file(args.series)
    basis, expansion, _ = compute_basis([t.exponent for t in spec.terms])
    twisted = equivalence.twist(spec, basis, expansion, args.phases)
    _emit(args, emit_series_text(twisted))
    return EXIT_OK


def _cmd_solve_phases(args) -> int:
    a = parse_series_file(args.series)
    b = parse_series_file(args.series2)
    targets = equivalence.extract_phase_targets(a, b, args.tol)
    _, expansion, _ = compute_basis([t.exponent for t in a.terms])
    system = equivalence.solve_phase_system(expansion, targets, args.tol)
    result = {
        "feasible": system.feasible,
        "kernel": [list(m) for m in system.kernel],
        "constrained_terms": [i + 1 for i in system.row_indices],
    }
    if system.feasible:
        result["phase"] = list(system.phase)
        result["residual"] = system.residual
    else:
        result["witness"] = list(system.witness)
        result["defect"] = system.defect
    pair = {"series": args.series, "series2": args.series2}
    _emit(args, _verdict("solve-phases", pair, result))
    return EXIT_OK if system.feasible else EXIT_NEGATIVE


def _cmd_equiv(args) -> int:
    a = parse_series_file(args.series)
    b = parse_series_file(args.series2)
    outcome = equivalence.is_equivalent_truncated(a, b, args.tol)
    result: dict = {"equivalent": outcome.equivalent}
    if outcome.equivalent:
        result["phase"] = list(outcome.phase)
        result["residual"] = outcome.system.residual
    else:
        result["reason"] = outcome.reason
    pair = {"series": args.series, "series2": args.series2}
    _emit(args, _verdict("equiv", pair, result))
    return EXIT_OK if outcome.equivalent else EXIT_NEGATIVE


def _cmd_closure_demo(args) -> int:
    a = parse_series_file(args.series)
    b = parse_series_file(args.series2)
    points = equivalence.closure_demo(a, b, args.nmax)
    result = {
        "points": [
            {"n": p.n, "feasible": p.feasible, "min_norm": p.min_norm} for p in points
        ]
    }
    pair = {"series": args.series, "series2": args.series2}
    _emit(args, _verdict("closure-demo", pair, result))
    return EXIT_OK


def _cmd_eval(args) -> int:
    from . import evaluation

    spec = parse_series_file(args.series)
    value = evaluation.evaluate(spec, evaluation.EvalPoint(args.sigma, args.t))
    result = {"re": value.real, "im": value.imag}
    _emit(args, _verdict("eval", {"series": args.series}, result))
    return EXIT_OK


def _cmd_tail(args) -> int:
    spec = parse_series_file(args.series)
    if spec.tail is None:
        raise ValidationError("series file declares no tail majorant")
    result = {"sigma": args.sigma, "bound": spec_tail_bound(spec, args.sigma)}
    _emit(args, _verdict("tail", {"series": args.series}, result))
    return EXIT_OK


def _cmd_uniform_distance(args) -> int:
    from . import evaluation

    a = parse_series_file(args.series)
    b = parse_series_file(args.series2)
    box = evaluation.GridBox(
        (args.sigma_min, args.sigma_max),
        (args.t_min, args.t_max),
        args.grid[0],
        args.grid[1],
    )
    distance = evaluation.uniform_distance(a, b, box)
    result = {"distance": distance}
    pair = {"series": args.series, "series2": args.series2}
    _emit(args, _verdict("uniform-distance", pair, result))
    return EXIT_OK


def _cmd_value_set(args) -> int:
    from . import valuesets

    spec = parse_series_file(args.series)
    if args.route == "direct":
        cloud = valuesets.sample_strip_direct(
            spec, args.sigma_min, args.sigma_max, args.t_max, args.count, args.seed
        )
    else:
        cloud = valuesets.sample_strip_via_equivalence(
            spec, args.sigma_min, args.sigma_max, args.count, args.seed
        )
    _emit(args, _cloud_text(cloud, args.format))
    return EXIT_OK


def _cmd_line_set(args) -> int:
    from . import valuesets

    spec = parse_series_file(args.series)
    cloud = valuesets.sample_line(spec, args.sigma0, args.t_max, args.count, args.seed)
    _emit(args, _cloud_text(cloud, args.format))
    return EXIT_OK


def _cmd_sigma_star(args) -> int:
    from . import zeros

    spec = parse_series_file(args.series)
    v = complex(args.v_re, args.v_im)
    value = zeros.sigma_star(
        spec, v, (args.t_min, args.t_max), args.sigma_floor, args.tol, args.steps
    )
    result = {
        "sigma_star": None if math.isinf(value) else value,
        "zero_found": not math.isinf(value),
    }
    _emit(args, _verdict("sigma-star", {"series": args.series}, result))
    return EXIT_OK


def _cmd_zeros(args) -> int:
    from . import zeros

    spec = parse_series_file(args.series)
    rect = zeros.Rectangle((args.sigma_min, args.sigma_max), (args.t_min, args.t_max))
    count = zeros.count_zeros(spec, complex(args.v_re, args.v_im), rect, args.steps)
    result = {"count": count}
    _emit(args, _verdict("zeros", {"series": args.series}, result))
    return EXIT_OK


def _cmd_kronecker(args) -> int:
    from . import valuesets

    spec = parse_series_file(args.series)
    basis, _, _ = compute_basis([t.exponent for t in spec.terms])
    values = [beta.numeric_value(spec.symbols) for beta in basis.elements]
    hit = valuesets.kronecker_find_t(values, args.target, args.tol, args.t_max_search)
    result = {"found": hit.found, "t": hit.t, "residual": hit.residual}
    _emit(args, _verdict("kronecker", {"series": args.series}, result))
    return EXIT_OK if hit.found else EXIT_NEGATIVE


def _cmd_bohr_example(args) -> int:
    spec = scenarios.bohr_example(args.n)
    _emit(args, emit_series_text(spec))
    return EXIT_OK


_HANDLERS = {
    "basis": _cmd_basis,
    "twist": _cmd_twist,
    "solve-phases": _cmd_solve_phases,
    "equiv": _cmd_equiv,
    "closure-demo": _cmd_closure_demo,
    "eval": _cmd_eval,
    "tail": _cmd_tail,
    "uniform-distance": _cmd_uniform_distance,
    "value-set": _cmd_value_set,
    "line-set": _cmd_line_set,
    "sigma-star": _cmd_sigma_star,
    "zeros": _cmd_zeros,
    "kronecker": _cmd_kronecker,
    "bohr-example": _cmd_bohr_example,
}


def run_command(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except SeriesError as err:
        print(f"bohreq: error: {err}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as err:
        print(f"bohreq: error: {err}", file=sys.stderr)
        return EXIT_ERROR


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))
