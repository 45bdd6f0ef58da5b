"""Series file parsing and emission.

The on-disk format is JSON with exact rational exponent coordinates kept as
strings ("19/6" or "3"), so a parse -> emit -> parse round trip is the
identity, bit for bit: floats survive through repr-exact JSON numbers and
rationals never touch floating point.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import re
import tempfile
from fractions import Fraction
from pathlib import Path

from .core import (
    ExponentVector,
    SeriesSpec,
    SymbolTable,
    TailMajorant,
    as_rational,
    validate_series,
)
from .errors import ParseError, SeriesError, ValidationError

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def parse_rational(value) -> int | Fraction:
    """Exact rational, in `as_rational`'s form, from an int or a string 'p/q'
    (q positive) or 'p'."""
    if isinstance(value, bool):
        raise ParseError(f"not a rational: {value!r}")
    if isinstance(value, int) or isinstance(value, str) and _RATIONAL_RE.match(value):
        return as_rational(value)
    raise ParseError(f"malformed rational {value!r}; expected 'p' or 'p/q' with q > 0")


def format_rational(q: int | Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _number(value, field: str) -> float:
    """A JSON number (int or float, not a bool) as a double; an int beyond a
    double reads as the infinity of its sign, for the field's finiteness check."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{field} must be a JSON number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _parse_exponent(obj, where: str) -> ExponentVector:
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: exponent must be a map of symbol -> rational")
    return ExponentVector({name: parse_rational(q) for name, q in obj.items()})


def _parse_coeff(obj, where: str) -> complex:
    if not isinstance(obj, dict) or set(obj) - {"re", "im"}:
        raise ParseError(f"{where}: coeff must be an object with keys re, im")
    parts = [_number(obj.get(part, 0.0), f"{where}.coeff.{part}") for part in ("re", "im")]
    coeff = complex(*parts)
    if not cmath.isfinite(coeff):
        raise ParseError(f"{where}: coefficient {coeff} is not finite")
    return coeff


def parse_series_text(text: str) -> SeriesSpec:
    """Parse and validate a series document; exact rationals are preserved."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(err.msg, err.lineno, err.colno) from None
    if not isinstance(doc, dict):
        raise ParseError("series document must be a JSON object")
    unknown = set(doc) - {"symbols", "terms", "abscissa", "tail"}
    if unknown:
        raise ParseError(f"unknown top-level keys: {sorted(unknown)}")
    if "symbols" not in doc or "terms" not in doc:
        raise ParseError("series document needs 'symbols' and 'terms'")
    for name in ("symbols", "terms"):
        if not isinstance(doc[name], list):
            raise ParseError(f"{name} must be a JSON list")

    try:
        entries = []
        for i, sym in enumerate(doc["symbols"]):
            if not isinstance(sym, dict) or set(sym) != {"name", "value"}:
                raise ParseError(f"symbols[{i}] must be an object with name and value")
            entries.append((sym["name"], _number(sym["value"], f"symbols[{i}].value")))
        symbols = SymbolTable(entries)
    except (TypeError, ValueError) as err:
        raise ValidationError(f"bad symbol table: {err}") from None

    terms = []
    for i, term in enumerate(doc["terms"]):
        where = f"terms[{i}]"
        if not isinstance(term, dict) or set(term) != {"exponent", "coeff"}:
            raise ParseError(f"{where} must be an object with exponent and coeff")
        terms.append((_parse_exponent(term["exponent"], where), _parse_coeff(term["coeff"], where)))

    abscissa = _number(doc["abscissa"], "abscissa") if "abscissa" in doc else -math.inf
    if math.isnan(abscissa) or abscissa == math.inf:
        raise ParseError(f"abscissa must be finite or -Infinity, got {abscissa}")

    tail = None
    if "tail" in doc:
        tobj = doc["tail"]
        if not isinstance(tobj, dict) or set(tobj) != {"lambdaNext", "coeffBound", "minGap"}:
            raise ParseError("tail must be an object with lambdaNext, coeffBound, minGap")
        try:
            tail = TailMajorant(
                lambda_next=_parse_exponent(tobj["lambdaNext"], "tail.lambdaNext"),
                coeff_bound=_number(tobj["coeffBound"], "tail.coeffBound"),
                min_gap=_number(tobj["minGap"], "tail.minGap"),
            )
        except ValueError as err:
            raise ValidationError(f"bad tail majorant: {err}") from None

    spec = SeriesSpec(symbols, terms, abscissa, tail)
    try:
        validate_series(spec)
    except SeriesError as err:
        raise ValidationError(f"invalid series: {err}") from err
    return spec


def parse_series_file(path: str | Path) -> SeriesSpec:
    return parse_series_text(Path(path).read_text())


def _exponent_to_obj(exponent: ExponentVector) -> dict[str, str]:
    return {name: format_rational(q) for name, q in exponent.items()}


def series_to_dict(spec: SeriesSpec) -> dict:
    doc: dict = {
        "symbols": [{"name": n, "value": v} for n, v in spec.symbols],
        "terms": [
            {
                "exponent": _exponent_to_obj(t.exponent),
                "coeff": {"re": t.coeff.real, "im": t.coeff.imag},
            }
            for t in spec.terms
        ],
    }
    if math.isfinite(spec.abscissa):
        doc["abscissa"] = spec.abscissa
    if spec.tail is not None:
        doc["tail"] = {
            "lambdaNext": _exponent_to_obj(spec.tail.lambda_next),
            "coeffBound": spec.tail.coeff_bound,
            "minGap": spec.tail.min_gap,
        }
    return doc


def emit_series_text(spec: SeriesSpec) -> str:
    return json.dumps(series_to_dict(spec), indent=2, sort_keys=True, allow_nan=False) + "\n"


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write via a temp file in the target directory plus rename."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_series_file(spec: SeriesSpec, path: str | Path) -> None:
    atomic_write_text(path, emit_series_text(spec))
