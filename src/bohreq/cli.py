"""Command-line front end.

Exit codes: 0 success, 2 negative mathematical verdicts (not equivalent,
infeasible phase system, Kronecker time not found), 1 errors, 64 usage.
Outputs are deterministic for fixed inputs and seed: JSON is emitted with
sorted keys, point clouds as re,im CSV, and files are written atomically.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

from . import equivalence, scenarios
from .basis import compute_basis, denominator_lcms
from .core import tail_bound
from .errors import SeriesError, ValidationError
from .seriesio import (
    atomic_write_text,
    emit_series_text,
    format_rational,
    parse_series_file,
)

# Each handler takes the parsed args and series and returns its result; `_run`
# parses the series files, writes the result and picks the exit code.
# The float layer (NumPy, `evaluation`, `valuesets`, `zeros`) is imported in
# the handlers that call it, so the exact-layer commands and `kronecker` start
# without NumPy.
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


def _verdict(command: str, inputs: dict, result: dict) -> str:
    record = {
        "command": command,
        "inputs": {name: _digest(path) for name, path in inputs.items()},
        "result": result,
    }
    return json.dumps(record, indent=2, sort_keys=True, allow_nan=False) + "\n"


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
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


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

    def add(name: str, handler, help_text: str, series: int = 1, sampling: bool = False):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        if series:
            p.add_argument("--series", required=True, help="series file (JSON)")
        if series == 2:
            p.add_argument("--series2", required=True, help="second series file")
        p.add_argument("--out", help="write output to this file instead of stdout")
        if sampling:
            p.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
            p.add_argument("--format", choices=("json", "csv"), default="csv")
        return p

    add("basis", _cmd_basis, "rational basis, expansion and selection matrices")

    p = add("twist", _cmd_twist, "twist coefficients by a phase vector over the basis")
    p.add_argument("--phases", type=_phases_arg, required=True, help="comma-separated radians")

    for name, handler, help_text in (
        ("solve-phases", _cmd_solve_phases, "feasibility of the phase congruence system"),
        ("equiv", _cmd_equiv, "decide equivalence of two aligned truncations"),
    ):
        p = add(name, handler, help_text, series=2)
        p.add_argument("--tol", type=float, default=1e-9,
                       help="modulus and phase tolerance (default 1e-9)")

    p = add("closure-demo", _cmd_closure_demo,
            "per-truncation feasibility and minimal phase norms", series=2)
    p.add_argument("--nmax", type=int, required=True)

    p = add("eval", _cmd_eval, "evaluate the series at one point")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--t", type=float, default=0.0)

    p = add("tail", _cmd_tail, "certified tail bound at an abscissa")
    p.add_argument("--sigma", type=float, required=True)

    p = add("uniform-distance", _cmd_uniform_distance, "max |f - g| over a box grid", series=2)
    p.add_argument("--sigma-min", type=float, required=True)
    p.add_argument("--sigma-max", type=float, required=True)
    p.add_argument("--t-min", type=float, required=True)
    p.add_argument("--t-max", type=float, required=True)
    p.add_argument("--grid", type=_grid_arg, default=(20, 40), help="sigma x t step counts")

    p = add("value-set", _cmd_value_set, "sample strip values (route A or B)", sampling=True)
    p.add_argument("--route", choices=("direct", "equivalence"), default="direct")
    p.add_argument("--sigma-min", type=float, required=True)
    p.add_argument("--sigma-max", type=float, required=True)
    p.add_argument("--t-max", type=float, default=100.0)
    p.add_argument("--count", type=int, default=10000)

    p = add("line-set", _cmd_line_set, "sample values on a vertical line", sampling=True)
    p.add_argument("--sigma0", type=float, required=True)
    p.add_argument("--t-max", type=float, default=100.0)
    p.add_argument("--count", type=int, default=10000)

    p = add("sigma-star", _cmd_sigma_star,
            "largest abscissa whose right half-strip has a zero of f - v")
    p.add_argument("--tol", type=float, default=1e-3, help="bisection width (default 1e-3)")
    p.add_argument("--v-re", type=float, default=0.0)
    p.add_argument("--v-im", type=float, default=0.0)
    p.add_argument("--t-min", type=float, required=True)
    p.add_argument("--t-max", type=float, required=True)
    p.add_argument("--sigma-floor", type=float, default=-10.0)
    p.add_argument("--steps", type=int, default=256)

    p = add("zeros", _cmd_zeros, "argument-principle zero count of f - v in a rectangle")
    p.add_argument("--v-re", type=float, default=0.0)
    p.add_argument("--v-im", type=float, default=0.0)
    p.add_argument("--sigma-min", type=float, required=True)
    p.add_argument("--sigma-max", type=float, required=True)
    p.add_argument("--t-min", type=float, required=True)
    p.add_argument("--t-max", type=float, required=True)
    p.add_argument("--steps", type=int, default=256)

    p = add("kronecker", _cmd_kronecker, "find a shift time realizing target basis phases")
    p.add_argument("--target", type=_phases_arg, required=True, help="radians per basis element")
    p.add_argument("--tol", type=float, default=1e-9,
                   help="largest phase miss accepted, in radians, on every basis element "
                        "(default 1e-9); 'not found' is exact for the doubles given")
    p.add_argument("--t-max-search", type=float, default=1e5)

    p = add("bohr-example", _cmd_bohr_example, "emit the counterexample series truncation",
            series=0)
    p.add_argument("--n", type=int, required=True)

    return parser


def _matrix_obj(matrix) -> list[dict[str, str]]:
    return [
        {str(j): format_rational(q) for j, q in matrix.row_items(i)}
        for i in range(matrix.nrows)
    ]


def _cmd_basis(args, spec) -> dict:
    basis, expansion, selection = compute_basis([t.exponent for t in spec.terms])
    lcms = denominator_lcms(expansion)
    return {
        "basis": [
            {name: format_rational(q) for name, q in beta.items()}
            for beta in basis.elements
        ],
        "source_terms": [i + 1 for i in basis.source_indices],
        "expansion": _matrix_obj(expansion),
        "selection": _matrix_obj(selection),
        "integral": max(lcms, default=1) == 1,
        "denominator_lcms": lcms,
    }


def _cmd_twist(args, spec) -> str:
    basis, expansion, _ = compute_basis([t.exponent for t in spec.terms])
    return emit_series_text(equivalence.twist(spec, basis, expansion, args.phases))


def _cmd_solve_phases(args, a, b) -> tuple[dict, bool]:
    targets = equivalence.extract_phase_targets(a, b, args.tol)
    _, expansion, _ = compute_basis([t.exponent for t in a.terms])
    system = equivalence.solve_phase_system(expansion, targets, args.tol)
    rows = system.row_indices
    result = {
        "feasible": system.feasible,
        "kernel": [list(m) for m in equivalence.integer_kernel(expansion, rows)] if rows else [],
        "constrained_terms": [i + 1 for i in rows],
    }
    if system.feasible:
        result["phase"] = list(system.phase)
        result["residual"] = system.residual
    else:
        result["witness"] = list(system.witness)
        result["defect"] = system.defect
    return result, system.feasible


def _cmd_equiv(args, a, b) -> tuple[dict, bool]:
    outcome = equivalence.is_equivalent_truncated(a, b, args.tol)
    result: dict = {"equivalent": outcome.equivalent}
    if outcome.equivalent:
        result["phase"] = list(outcome.phase)
        result["residual"] = outcome.system.residual
    else:
        result["reason"] = outcome.reason
    return result, outcome.equivalent


def _cmd_closure_demo(args, a, b) -> dict:
    return {"points": [p._asdict() for p in equivalence.closure_demo(a, b, args.nmax)]}


def _cmd_eval(args, spec) -> dict:
    from . import evaluation

    value = evaluation.evaluate(spec, complex(args.sigma, args.t))
    return {"re": value.real, "im": value.imag}


def _cmd_tail(args, spec) -> dict:
    if spec.tail is None:
        raise ValidationError("series file declares no tail majorant")
    return {"sigma": args.sigma, "bound": tail_bound(spec.tail, spec.symbols, args.sigma)}


def _cmd_uniform_distance(args, a, b) -> dict:
    from . import evaluation

    box = evaluation.GridBox(
        (args.sigma_min, args.sigma_max), (args.t_min, args.t_max), *args.grid
    )
    return {"distance": evaluation.uniform_distance(a, b, box)}


def _cmd_value_set(args, spec) -> str:
    from . import valuesets

    if args.route == "direct":
        cloud = valuesets.sample_strip_direct(
            spec, args.sigma_min, args.sigma_max, args.t_max, args.count, args.seed
        )
    else:
        cloud = valuesets.sample_strip_via_equivalence(
            spec, args.sigma_min, args.sigma_max, args.count, args.seed
        )
    return _cloud_text(cloud, args.format)


def _cmd_line_set(args, spec) -> str:
    from . import valuesets

    cloud = valuesets.sample_line(spec, args.sigma0, args.t_max, args.count, args.seed)
    return _cloud_text(cloud, args.format)


def _cmd_sigma_star(args, spec) -> dict:
    from . import zeros

    v = complex(args.v_re, args.v_im)
    value = zeros.sigma_star(
        spec, v, (args.t_min, args.t_max), args.sigma_floor, args.tol, args.steps
    )
    return {
        "sigma_star": None if math.isinf(value) else value,
        "zero_found": not math.isinf(value),
    }


def _cmd_zeros(args, spec) -> dict:
    from . import zeros

    rect = zeros.Rectangle((args.sigma_min, args.sigma_max), (args.t_min, args.t_max))
    return {"count": zeros.count_zeros(spec, complex(args.v_re, args.v_im), rect, args.steps)}


def _cmd_kronecker(args, spec) -> tuple[dict, bool]:
    basis, _, _ = compute_basis([t.exponent for t in spec.terms])
    values = [beta.numeric_value(spec.symbols) for beta in basis.elements]
    hit = equivalence.kronecker_find_t(values, args.target, args.tol, args.t_max_search)
    return hit._asdict(), hit.found


def _cmd_bohr_example(args) -> str:
    return emit_series_text(scenarios.bohr_example(args.n))


def _run(args) -> int:
    """Parse the series files, run the handler, write its result: a text as
    it is, a verdict in the JSON envelope, exit 2 when the verdict is negative."""
    inputs = {name: getattr(args, name) for name in ("series", "series2") if name in args}
    result = args.handler(args, *(parse_series_file(path) for path in inputs.values()))
    result, positive = result if isinstance(result, tuple) else (result, True)
    text = result if isinstance(result, str) else _verdict(args.command, inputs, result)
    if args.out:
        atomic_write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK if positive else EXIT_NEGATIVE


def run_command(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code or 0)
    try:
        return _run(args)
    except (SeriesError, OSError) as err:
        print(f"bohreq: error: {err}", file=sys.stderr)
        return EXIT_ERROR


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))
