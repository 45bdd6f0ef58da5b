"""Series file round trips and the command-line surface."""

import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import bohreq
from bohreq import scenarios
from bohreq.basis import compute_basis
from bohreq.cli import _cloud_text, run_command
from bohreq.core import ExponentVector, SeriesSpec, SymbolTable, TailMajorant
from bohreq.equivalence import integer_kernel, twist
from bohreq.errors import ParseError, ValidationError
from bohreq.seriesio import (
    emit_series_text,
    parse_series_text,
    write_series_file,
)
from bohreq.valuesets import ValueCloud


def sample_spec() -> SeriesSpec:
    syms = SymbolTable([("L2", math.log(2)), ("L3", math.log(3))])
    return SeriesSpec(
        syms,
        [
            (ExponentVector({"L2": 1}), 0.25 - 1.5j),
            (ExponentVector({"L2": "1/2", "L3": "19/6"}), 2.0),
        ],
        abscissa=0.5,
        tail=TailMajorant(ExponentVector({"L3": 4}), 1.25, 0.75),
    )


class TestSeriesFiles:
    def test_minimal_file(self):
        text = """
        {"symbols": [{"name": "L2", "value": 0.6931471805599453}],
         "terms": [{"exponent": {"L2": "1"}, "coeff": {"re": 1.0, "im": 0.0}}]}
        """
        spec = parse_series_text(text)
        assert len(spec.terms) == 1
        assert spec.symbols.value("L2") == 0.6931471805599453
        assert spec.abscissa == float("-inf")

    def test_exact_rational_preserved(self):
        text = """
        {"symbols": [{"name": "A", "value": 1.5}],
         "terms": [{"exponent": {"A": "19/6"}, "coeff": {"re": 1.0, "im": 0.0}}]}
        """
        spec = parse_series_text(text)
        from fractions import Fraction

        assert dict(spec.terms[0].exponent.items()) == {"A": Fraction(19, 6)}

    def test_malformed_rational(self):
        for bad in ("19/", "19/0", "1.5", "a/b", "19//2"):
            text = json.dumps(
                {
                    "symbols": [{"name": "A", "value": 1.5}],
                    "terms": [{"exponent": {"A": bad}, "coeff": {"re": 1.0, "im": 0.0}}],
                }
            )
            with pytest.raises(ParseError):
                parse_series_text(text)

    def test_non_finite_coefficient_refused(self):
        for re_text in ("NaN", "Infinity", "-1e400"):
            text = (
                '{"symbols": [{"name": "A", "value": 1.5}], '
                f'"terms": [{{"exponent": {{"A": "1"}}, "coeff": {{"re": {re_text}, "im": 0}}}}]}}'
            )
            with pytest.raises(ParseError, match=r"terms\[0\]: coefficient .* is not finite"):
                parse_series_text(text)

    def test_abscissa_nan_or_plus_infinity_refused(self):
        # emit drops a non-finite abscissa, so only its default -Infinity round-trips
        for value in ("NaN", "Infinity", "1" + "0" * 400):
            text = f'{{"symbols": [], "terms": [], "abscissa": {value}}}'
            with pytest.raises(ParseError, match="abscissa must be finite or -Infinity"):
                parse_series_text(text)
        for value in ("-Infinity", "-1" + "0" * 400, "0.5"):
            spec = parse_series_text(f'{{"symbols": [], "terms": [], "abscissa": {value}}}')
            assert parse_series_text(emit_series_text(spec)) == spec

    def test_json_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_series_text("{ not json }")
        assert err.value.line == 1

    def test_invalid_series_wrapped(self):
        text = json.dumps(
            {
                "symbols": [{"name": "A", "value": 1.5}],
                "terms": [
                    {"exponent": {"A": "2"}, "coeff": {"re": 1.0, "im": 0.0}},
                    {"exponent": {"A": "1"}, "coeff": {"re": 1.0, "im": 0.0}},
                ],
            }
        )
        with pytest.raises(ValidationError):
            parse_series_text(text)
        text = emit_series_text(sample_spec()).replace('"coeffBound": 1.25', '"coeffBound": 1e400')
        with pytest.raises(ValidationError, match="coeff_bound must be finite"):
            parse_series_text(text)

    def test_non_numbers_refused(self):
        # JSON true and numeric strings are not numbers, in any numeric field
        fields = {
            "terms[1].coeff.re": ("terms", 1, "coeff", "re"),
            "terms[0].coeff.im": ("terms", 0, "coeff", "im"),
            "symbols[0].value": ("symbols", 0, "value"),
            "abscissa": ("abscissa",),
            "tail.coeffBound": ("tail", "coeffBound"),
            "tail.minGap": ("tail", "minGap"),
        }
        for field, (*path, last) in fields.items():
            for bad in (True, False, "1.5", " 2 ", None):
                doc = json.loads(emit_series_text(sample_spec()))
                node = doc
                for key in path:
                    node = node[key]
                node[last] = bad
                with pytest.raises(ParseError, match=re.escape(f"{field} must be a JSON number")):
                    parse_series_text(json.dumps(doc))

    def test_integer_beyond_a_double_is_not_finite(self):
        # read as an infinity, so the field's own finiteness check refuses it
        big = "1" + "0" * 400
        text = emit_series_text(sample_spec())
        with pytest.raises(ParseError, match=r"terms\[1\]: coefficient .* is not finite"):
            parse_series_text(text.replace('"re": 2.0', f'"re": -{big}'))
        with pytest.raises(ValidationError, match="non-finite value"):
            parse_series_text(text.replace('"value": 0.6931471805599453', f'"value": {big}'))

    def test_terms_and_symbols_must_be_lists(self):
        for name, doc in (
            ("terms", '{"symbols": [], "terms": 5}'),
            ("symbols", '{"symbols": {"A": 1.5}, "terms": []}'),
        ):
            with pytest.raises(ParseError, match=f"^{name} must be a JSON list$"):
                parse_series_text(doc)

    @pytest.mark.parametrize(
        "symbols, exponent",
        [
            ({"ONE": 1.0}, {"ONE": "1" + "0" * 400}),  # a coordinate beyond a double
            ({"X": 1e10}, {"X": "1" + "0" * 300}),  # its product with the symbol
            ({"A": 1e10, "B": 2e10}, {"A": "1" + "0" * 300, "B": "-1" + "0" * 300}),  # inf - inf
        ],
    )
    def test_exponent_beyond_a_double_refused(self, symbols, exponent, tmp_path, capsys):
        doc = {
            "symbols": [{"name": n, "value": v} for n, v in symbols.items()],
            "terms": [{"exponent": exponent, "coeff": {"re": 1.0, "im": 0.0}}],
        }
        with pytest.raises(ValidationError, match="^invalid series: .* is not a finite double$"):
            parse_series_text(json.dumps(doc))
        f = tmp_path / "f.json"
        f.write_text(json.dumps(doc))
        assert run_command(["basis", "--series", str(f)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"bohreq: error: invalid series: [^\n]*\n", captured.err)

    def test_tail_is_checked_when_read(self, tmp_path, capsys):
        # the tail must name declared symbols and start past the last
        # exponent, 2 here, or the "certified" bound bounds nothing
        doc = {
            "symbols": [{"name": "ONE", "value": 1.0}],
            "terms": [{"exponent": {"ONE": "2"}, "coeff": {"re": 1.0, "im": 0.0}}],
            "tail": {"lambdaNext": {"ONE": "3"}, "coeffBound": 1.0, "minGap": 1.0},
        }
        assert parse_series_text(json.dumps(doc)).tail is not None
        f = tmp_path / "f.json"
        low = "does not exceed the last exponent 2.0, at term 2"
        for lambda_next, message in (
            ({"Z": "3"}, "exponent references undeclared symbol 'Z'"),
            ({"ONE": "1/2"}, f"the tail's first omitted exponent 0.5 {low}"),
            ({"ONE": "2"}, f"the tail's first omitted exponent 2.0 {low}"),
        ):
            doc["tail"]["lambdaNext"] = lambda_next
            with pytest.raises(ValidationError, match=re.escape(message)):
                parse_series_text(json.dumps(doc))
            f.write_text(json.dumps(doc))
            for argv in (["basis"], ["tail", "--sigma", "1"]):
                assert run_command([*argv, "--series", str(f)]) == 1
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err == f"bohreq: error: invalid series: {message}\n"

    def test_round_trip_is_exact(self):
        spec = sample_spec()
        text = emit_series_text(spec)
        again = parse_series_text(text)
        assert again == spec
        assert emit_series_text(again) == text

    def test_emission_is_byte_stable(self):
        spec = scenarios.bohr_example(5)
        assert emit_series_text(spec) == emit_series_text(scenarios.bohr_example(5))


def _solve_phases_pair(name: str) -> tuple[SeriesSpec, SeriesSpec, int]:
    """A pair for `solve-phases` and the exit code it gives."""
    if name == "bohr":  # one rational column, with wrapped rows
        f = scenarios.bohr_example(3)
        return f, scenarios.negate(f), 0
    if name == "skipped source":  # the pivot row 3/2 is not a unit row of R
        exps = [ExponentVector({"ONE": q}) for q in ("1", "3/2", "7/3")]
        a = SeriesSpec(SymbolTable([("ONE", 1.0)]), list(zip(exps, [0.0, 1.0, 0.5 - 0.25j])))
        basis, r, _ = compute_basis(a.exponents())
        return a, twist(a, basis, r, [37.0]), 0
    if name == "infeasible":
        a = scenarios.ordinary_series([(2, 1.0), (3, 1.0), (6, 1.0)])
        return a, scenarios.ordinary_series([(2, 1j), (3, -1.0), (6, 1.0)]), 2
    empty = SeriesSpec(SymbolTable([]), [])
    return empty, empty, 0


class TestCommands:
    @pytest.fixture()
    def files(self, tmp_path):
        f = tmp_path / "f.json"
        write_series_file(scenarios.bohr_example(3), f)
        g = tmp_path / "g.json"
        write_series_file(scenarios.negate(scenarios.bohr_example(3)), g)
        return tmp_path, str(f), str(g)

    def test_usage_error_exit_64(self, files, capsys):
        _, f, _ = files
        assert run_command(["no-such-command"]) == 64
        assert run_command([]) == 64
        # bohr-example reads no series file, so it takes no --series
        assert run_command(["bohr-example", "--n", "3", "--series", f]) == 64
        assert capsys.readouterr().out == ""

    def test_missing_file_exit_1(self, capsys):
        assert run_command(["basis", "--series", "/nonexistent.json"]) == 1
        assert "error" in capsys.readouterr().err

    def test_bohr_example_writes_parseable_file(self, tmp_path):
        out = tmp_path / "bohr.json"
        assert run_command(["bohr-example", "--n", "4", "--out", str(out)]) == 0
        spec = parse_series_text(out.read_text())
        assert spec == scenarios.bohr_example(4)

    def test_basis_output(self, files, capsys):
        _, f, _ = files
        assert run_command(["basis", "--series", f]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"]["denominator_lcms"] == [1, 9, 45]
        assert payload["result"]["integral"] is False
        assert payload["result"]["basis"] == [{"ONE": "3/2"}]

    def test_equiv_roundtrip_exit_codes(self, files, tmp_path, capsys):
        tmp, f, g = files
        twisted = tmp / "tw.json"
        assert (
            run_command(
                ["twist", "--series", f, "--phases", "1.25", "--out", str(twisted)]
            )
            == 0
        )
        assert run_command(["equiv", "--series", f, "--series2", str(twisted)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"]["equivalent"] is True
        # the negated counterexample stays feasible at every finite truncation
        assert run_command(["equiv", "--series", f, "--series2", g]) == 0

    def test_equiv_negative_exit(self, tmp_path, capsys):
        # coefficients (i, -1, 1) on 2,3,6 violate theta_6 = theta_2 + theta_3
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        write_series_file(scenarios.ordinary_series([(2, 1.0), (3, 1.0), (6, 1.0)]), a)
        write_series_file(scenarios.ordinary_series([(2, 1j), (3, -1.0), (6, 1.0)]), b)
        assert run_command(["equiv", "--series", str(a), "--series2", str(b)]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"]["equivalent"] is False

    def test_coefficient_near_the_largest_double(self, tmp_path, capsys):
        # the quotient of the term-2 coefficients overflows to NaN in doubles
        f, g = tmp_path / "f.json", tmp_path / "g.json"
        spec = scenarios.ordinary_series([(1, 1.0), (2, 1e308 + 1e308j), (3, 1.0), (6, 1.0)])
        write_series_file(spec, f)
        write_series_file(spec.with_coeffs([1.0, 1e308 + 1e308j, 1.0, 1j]), g)
        assert run_command(["equiv", "--series", str(f), "--series2", str(g)]) == 2
        assert json.loads(capsys.readouterr().out)["result"]["equivalent"] is False
        assert run_command(["equiv", "--series", str(f), "--series2", str(f)]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["equivalent"] is True and all(map(math.isfinite, result["phase"]))

    def test_solve_phases_negative_exit(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        write_series_file(scenarios.ordinary_series([(2, 1.0), (3, 1.0), (6, 1.0)]), a)
        write_series_file(scenarios.ordinary_series([(2, 1j), (3, -1.0), (6, 1.0)]), b)
        assert run_command(["solve-phases", "--series", str(a), "--series2", str(b)]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"]["feasible"] is False
        assert payload["result"]["witness"] == [1, 1, -1]

    @pytest.mark.parametrize("name", ["bohr", "skipped source", "infeasible", "empty"])
    def test_solve_phases_prints_the_kernel_of_its_constrained_rows(self, name, tmp_path, capsys):
        a, b, code = _solve_phases_pair(name)
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for spec, path in zip((a, b), paths):
            write_series_file(spec, path)
        argv = ["solve-phases", "--series", str(paths[0]), "--series2", str(paths[1])]
        assert run_command(argv) == code
        result = json.loads(capsys.readouterr().out)["result"]
        rows = [n - 1 for n in result["constrained_terms"]]
        _, r, _ = compute_basis(a.exponents())
        assert result["kernel"] == ([list(m) for m in integer_kernel(r, rows)] if rows else [])
        assert (result["kernel"] == []) == (name == "empty")
        if code == 2:
            assert result["witness"] in result["kernel"]
        for m in result["kernel"]:
            # sum_n m_n R[n] = 0 exactly, column by column
            total: dict[int, Fraction] = {}
            for c, n in zip(m, rows, strict=True):
                for j, q in r.row_items(n):
                    total[j] = total.get(j, Fraction(0)) + c * q
            assert not any(total.values())

    def test_closure_demo(self, files, capsys):
        _, f, g = files
        assert run_command(["closure-demo", "--series", f, "--series2", g, "--nmax", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        norms = [p["min_norm"] for p in payload["result"]["points"]]
        assert norms == pytest.approx([math.pi, 9 * math.pi, 45 * math.pi], rel=1e-9)

    def test_closure_demo_runs_to_twenty(self, tmp_path, capsys):
        f = tmp_path / "f20.json"
        g = tmp_path / "g20.json"
        write_series_file(scenarios.bohr_example(20), f)
        write_series_file(scenarios.negate(scenarios.bohr_example(20)), g)
        argv = ["closure-demo", "--series", str(f), "--series2", str(g), "--nmax", "20"]
        assert run_command(argv) == 0
        norms = [p["min_norm"] for p in json.loads(capsys.readouterr().out)["result"]["points"]]
        assert len(norms) == 20
        assert norms[9] == pytest.approx(43648605 * math.pi, rel=1e-12)
        assert norms[19] == pytest.approx(500899824099675 * math.pi, rel=1e-12)

    def test_closure_demo_precision_limit_is_one_error_line(self, tmp_path, capsys):
        # exponents 2 + 1e-20 and 3 + 1e-20 over 1: the wrap of each row is
        # fixed by 1e20 times a double target, which no double can carry
        syms = SymbolTable([("ONE", 1.0)])
        tiny = Fraction(1, 10**20)
        exps = [ExponentVector({"ONE": q}) for q in (Fraction(1), 2 + tiny, 3 + tiny)]
        spec = SeriesSpec(syms, [(e, 1.0) for e in exps])
        basis, r, _ = compute_basis(exps)
        f = tmp_path / "f.json"
        g = tmp_path / "g.json"
        write_series_file(spec, f)
        write_series_file(twist(spec, basis, r, [37.0]), g)
        argv = ["closure-demo", "--series", str(f), "--series2", str(g), "--nmax", "3"]
        assert run_command(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("bohreq: error: ")

    def test_closure_demo_norm_beyond_a_double_is_one_error_line(self, tmp_path, capsys):
        # Bohr's series at N = 360: the minimum phase norm is not a double
        f = tmp_path / "f360.json"
        g = tmp_path / "g360.json"
        write_series_file(scenarios.bohr_example(360), f)
        write_series_file(scenarios.negate(scenarios.bohr_example(360)), g)
        argv = ["closure-demo", "--series", str(f), "--series2", str(g), "--nmax", "360"]
        assert run_command(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("bohreq: error: ") and "N = 360" in lines[0]

    def test_differing_exponent_values_are_one_error_line(self, tmp_path, capsys):
        # x = 1 against x = 3 over the same vectors: e^{-s} + e^{-2s} and
        # e^{-3s} + e^{-6s}, which no twist relates
        terms = [(ExponentVector({"x": 1}), 1.0), (ExponentVector({"x": 2}), 1.0)]
        f = tmp_path / "f.json"
        g = tmp_path / "g.json"
        write_series_file(SeriesSpec(SymbolTable([("x", 1.0)]), terms), f)
        write_series_file(SeriesSpec(SymbolTable([("x", 3.0)]), terms), g)
        pair = ["--series", str(f), "--series2", str(g)]
        for argv in (["equiv", *pair], ["solve-phases", *pair], ["closure-demo", *pair, "--nmax", "2"]):
            assert run_command(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.splitlines() == [
                "bohreq: error: exponent values differ at term 1: 1.0 vs 3.0"
            ]

    def test_empty_series_is_the_zero_function(self, tmp_path, capsys):
        # no term: the basis is empty and f = 0; only the contour commands,
        # whose f - v then vanishes identically, refuse it
        empty = tmp_path / "empty.json"
        empty.write_text('{"symbols": [], "terms": []}')
        e = str(empty)
        assert run_command(["basis", "--series", e]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["basis"] == result["expansion"] == result["denominator_lcms"] == []
        for route in ("direct", "equivalence"):
            argv = ["value-set", "--series", e, "--route", route,
                    "--sigma-min", "0", "--sigma-max", "1", "--count", "3"]
            assert run_command(argv) == 0
            assert capsys.readouterr().out == "re,im\n" + "0.0,0.0\n" * 3
        assert run_command(["kronecker", "--series", e, "--target="]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["found"]
        for command in ("equiv", "solve-phases"):
            assert run_command([command, "--series", e, "--series2", e]) == 0
            assert json.loads(capsys.readouterr().out)["result"]["phase"] == []
        for argv in (["zeros", "--sigma-min", "0", "--sigma-max", "1"], ["sigma-star"]):
            assert run_command([*argv, "--series", e, "--t-min", "0", "--t-max", "1"]) == 1
            assert "vanishes identically" in capsys.readouterr().err

    def test_closure_demo_on_an_empty_series_names_no_range(self, files, capsys):
        # an empty series has no truncation, so no --nmax is valid and the
        # error says so instead of naming the range 1..0
        tmp_path, f, _ = files
        empty = tmp_path / "empty.json"
        empty.write_text('{"symbols": [], "terms": []}')
        e = str(empty)
        for pair in ((e, e), (e, f), (f, e)):
            argv = ["closure-demo", "--series", pair[0], "--series2", pair[1], "--nmax", "1"]
            assert run_command(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                "bohreq: error: a series has no terms, so there is no truncation to scan\n"
            )

    def test_eval_and_tail(self, files, capsys):
        _, f, _ = files
        assert run_command(["eval", "--series", f, "--sigma", "2", "--t", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"]["re"] == pytest.approx(0.051600342232282448)
        assert run_command(["tail", "--series", f, "--sigma", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"]["bound"] == pytest.approx(7.4750018627054501e-07)
        # 1 - exp(-(5/3) 1e-17) rounds to 0; the bound is about 1 / ((5/3) 1e-17)
        assert run_command(["tail", "--series", f, "--sigma", "1e-17"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"]["bound"] == pytest.approx(6e16, rel=1e-15)

    def test_uniform_distance_command(self, files, tmp_path, capsys):
        tmp, f, g = files
        from bohreq.evaluation import shift_series

        shifted = tmp / "sh.json"
        write_series_file(
            shift_series(scenarios.bohr_example(3), scenarios.tau(2).value), shifted
        )
        code = run_command(
            [
                "uniform-distance",
                "--series", str(shifted),
                "--series2", g,
                "--sigma-min", "1", "--sigma-max", "1.5",
                "--t-min", "-1", "--t-max", "1",
                "--grid", "20x40",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"]["distance"] <= 0.02

    def test_value_set_csv_deterministic(self, files, tmp_path):
        _, f, _ = files
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = [
            "value-set", "--series", f, "--route", "direct",
            "--sigma-min", "1", "--sigma-max", "2", "--t-max", "50",
            "--count", "200", "--seed", "7",
        ]
        assert run_command(argv + ["--out", str(out1)]) == 0
        assert run_command(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().splitlines()
        assert lines[0] == "re,im"
        assert len(lines) == 201
        float(lines[1].split(",")[0])  # parses as a number
        # signed zero, subnormals and huge values keep their shortest repr
        cloud = ValueCloud(
            [complex(-0.0, 5e-324), complex(1e-310, -1e300), complex(1e300, -0.0)], "test"
        )
        expected = [(float(z.real), float(z.imag)) for z in cloud.points]
        assert _cloud_text(cloud, "csv") == "re,im\n" + "".join(
            f"{repr(re)},{repr(im)}\n" for re, im in expected
        )
        payload = {
            "route": "test",
            "meta": {},
            "points": [{"re": re, "im": im} for re, im in expected],
        }
        assert _cloud_text(cloud, "json") == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def test_line_set_json_format(self, files, capsys):
        _, f, _ = files
        code = run_command(
            [
                "line-set", "--series", f, "--sigma0", "1.5",
                "--t-max", "10", "--count", "5", "--seed", "3",
                "--format", "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["route"] == "direct-line"
        assert len(payload["points"]) == 5

    def test_overflow_and_non_finite_results_are_one_error_line(self, files, capsys):
        # 30^{400} is beyond a double: samplers, eval and uniform-distance
        # refuse with a PrecisionLimit instead of a traceback or a NaN; so do
        # a tail bound beyond a double (a tiny sigma, or exp(1000)), a
        # coefficient modulus beyond a double in a phase decision, and a row
        # whose denominator (10^400) scales its target beyond a double
        tmp_path, b3, _ = files
        f = str(tmp_path / "h30.json")
        write_series_file(scenarios.ordinary_series([(n, 1.0) for n in range(1, 31)]), f)
        doc = json.loads(Path(b3).read_text())
        doc["terms"] = [{"exponent": {"ONE": "-1001"}, "coeff": {"re": 1.0, "im": 0.0}}]
        doc["tail"]["lambdaNext"] = {"ONE": "-1000"}
        far = tmp_path / "far.json"
        far.write_text(json.dumps(doc))
        doc = json.loads(Path(b3).read_text())
        doc["terms"][1]["coeff"] = {"re": 1.5e308, "im": 1.5e308}
        huge = str(tmp_path / "huge.json")
        Path(huge).write_text(json.dumps(doc))
        doc = json.loads(Path(b3).read_text())
        doc["terms"] = [{"exponent": {"ONE": q}, "coeff": {"re": 1.0, "im": 0.0}}
                        for q in ("1", f"{2 * 10**400 + 1}/{10**400}")]
        doc["tail"].update(lambdaNext={"ONE": "3"}, minGap=0.5)
        wide, turned = str(tmp_path / "wide.json"), str(tmp_path / "turned.json")
        Path(wide).write_text(json.dumps(doc))
        doc["terms"][1]["coeff"] = {"re": math.cos(2.5), "im": math.sin(2.5)}
        Path(turned).write_text(json.dumps(doc))
        sampling = ["--t-max", "10", "--count", "5", "--seed", "1"]
        strip = ["--sigma-min", "-400", "--sigma-max", "1"]
        for argv in (
            ["tail", "--series", b3, "--sigma", "1e-320"],
            ["tail", "--series", str(far), "--sigma", "1"],
            ["equiv", "--series", b3, "--series2", huge],
            ["solve-phases", "--series", huge, "--series2", b3],
            ["closure-demo", "--series", b3, "--series2", huge, "--nmax", "3"],
            ["equiv", "--series", wide, "--series2", turned],
            ["solve-phases", "--series", wide, "--series2", turned],
            ["closure-demo", "--series", wide, "--series2", turned, "--nmax", "2"],
            ["line-set", "--series", f, "--sigma0", "-400", *sampling],
            ["value-set", "--series", f, "--route", "direct", *strip, *sampling],
            ["value-set", "--series", f, "--route", "equivalence", *strip, *sampling],
            ["eval", "--series", f, "--sigma", "-400", "--t", "1"],
            [
                "uniform-distance", "--series", f, "--series2", f,
                "--sigma-min", "-400", "--sigma-max", "-399",
                "--t-min", "0", "--t-max", "1", "--grid", "2x2",
            ],
        ):
            assert run_command(argv) == 1, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            lines = captured.err.splitlines()
            assert len(lines) == 1, captured.err
            assert lines[0].startswith("bohreq: error: ")

    def test_bad_ranges_are_one_error_line(self, files, capsys):
        # non-finite points, inverted or NaN boxes, empty grids, an unbounded
        # Kronecker search, a NaN target phase, a negative sampling seed, an
        # infinite tail abscissa, non-finite twist phases, a NaN coefficient,
        # an overflowing tail majorant and a step count at the cap on a
        # side's samples are refused before any evaluation
        tmp_path, f, g = files
        doc = json.loads(Path(f).read_text())
        doc["terms"][1]["coeff"]["re"] = math.nan
        nan = tmp_path / "nan.json"
        nan.write_text(json.dumps(doc))
        big = tmp_path / "big.json"
        big.write_text(Path(f).read_text().replace('"coeffBound": 1.0', '"coeffBound": 1e400'))
        box = ["--t-min", "0", "--t-max", "1"]
        distance = ["uniform-distance", "--series", f, "--series2", g, *box]
        strip = ["value-set", "--series", f, "--sigma-min", "1", "--sigma-max", "2"]
        sampling = ["--count", "5", "--seed", "-1"]
        for argv in (
            ["eval", "--series", f, "--sigma", "nan"],
            ["eval", "--series", f, "--sigma", "1", "--t", "inf"],
            [*distance, "--sigma-min", "0", "--sigma-max", "1", "--grid", "0x0"],
            [*distance, "--sigma-min", "2", "--sigma-max", "1"],
            [*distance, "--sigma-min", "nan", "--sigma-max", "1"],
            ["kronecker", "--series", f, "--target", "1", "--t-max-search", "inf"],
            ["kronecker", "--series", f, "--target", "nan"],
            [*strip, "--route", "direct", *sampling],
            [*strip, "--route", "equivalence", *sampling],
            ["line-set", "--series", f, "--sigma0", "1", *sampling],
            ["tail", "--series", f, "--sigma", "inf"],
            ["twist", "--series", f, "--phases", "nan"],
            ["twist", "--series", f, "--phases", "inf"],
            ["equiv", "--series", f, "--series2", str(nan)],
            ["solve-phases", "--series", f, "--series2", str(nan)],
            ["closure-demo", "--series", f, "--series2", str(nan), "--nmax", "3"],
            ["tail", "--series", str(big), "--sigma", "1"],
            ["sigma-star", "--series", f, "--t-min", "0", "--t-max", "inf"],
            [
                "zeros", "--series", f, "--sigma-min", "-1", "--sigma-max", "1",
                *box, "--steps", "16384",
            ],
        ):
            assert run_command(argv) == 1, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            lines = captured.err.splitlines()
            assert len(lines) == 1, captured.err
            assert lines[0].startswith("bohreq: error: ")

    def test_overflowing_spans_are_refused_by_name(self, files, capsys):
        # finite ends whose span is beyond a double, and an infinite end of a
        # grid box, are refused as the options gave them, not as NaN points
        # or a NumPy warning
        _, f, g = files
        span = "bohreq: error: need finite ends lo < hi and a finite span hi - lo, got"
        t_max = f"{span} t range (-t_max, t_max) for t_max = 1e+308"
        box = "bohreq: error: box ranges need finite ends min <= max and a finite span: GridBox"
        distance = ["uniform-distance", "--series", f, "--series2", g, "--t-min", "0", "--t-max", "1"]
        for argv, message in (
            (
                ["zeros", "--series", f, "--sigma-min=-1e308", "--sigma-max", "1e308",
                 "--t-min", "0", "--t-max", "1"],
                f"{span} sigma range (-1e+308, 1e+308)",
            ),
            (
                ["sigma-star", "--series", f, "--t-min=-1e308", "--t-max", "1e308"],
                f"{span} t window (-1e+308, 1e+308)",
            ),
            (
                ["value-set", "--series", f, "--sigma-min", "1", "--sigma-max", "2",
                 "--t-max", "1e308", "--count", "5"],
                t_max,
            ),
            (["line-set", "--series", f, "--sigma0", "1", "--t-max", "1e308", "--count", "5"], t_max),
            ([*distance, "--sigma-min", "1", "--sigma-max", "inf"], f"{box}(sigma_range=(1.0, inf)"),
            (
                [*distance, "--sigma-min=-1e308", "--sigma-max", "1e308"],
                f"{box}(sigma_range=(-1e+308, 1e+308)",
            ),
        ):
            assert run_command(argv) == 1, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            lines = captured.err.splitlines()
            assert len(lines) == 1, captured.err
            assert lines[0].startswith(message), lines[0]

    def test_overflowing_phase_is_refused_by_name(self, files, capsys):
        # lambda t beyond a double is named as the phase, not as a value that
        # is not a finite double, though |f| is bounded on the line
        _, f, g = files
        phase = "bohreq: error: the phase lambda t is beyond a double for lambda = 5.1 and |t| = "
        for argv, t in (
            (["eval", "--series", f, "--sigma", "2", "--t", "1e308"], "1e+308"),
            (["line-set", "--series", f, "--sigma0", "1", "--t-max", "8e307", "--count", "5"], "8e+307"),
            (
                ["uniform-distance", "--series", f, "--series2", g, "--sigma-min", "1",
                 "--sigma-max", "2", "--t-min", "0", "--t-max", "1e308"],
                "1e+308",
            ),
        ):
            assert run_command(argv) == 1, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.splitlines() == [phase + t]

    def test_tol_is_checked_where_it_is_read(self, files, capsys):
        # a negative, NaN or infinite tol is refused, not read as a modulus
        # mismatch, a pass or a one-step bisection; the commands that never
        # read tol do not accept it
        _, f, g = files
        for argv in (
            ["equiv", "--series", f, "--series2", f, "--tol", "-1"],
            ["equiv", "--series", f, "--series2", g, "--tol", "nan"],
            ["solve-phases", "--series", f, "--series2", f, "--tol", "-1"],
            [
                "sigma-star", "--series", f, "--t-min", "0", "--t-max", "1",
                "--sigma-floor", "-1", "--tol", "inf",
            ],
        ):
            assert run_command(argv) == 1, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            lines = captured.err.splitlines()
            assert len(lines) == 1, captured.err
            assert lines[0].startswith("bohreq: error: need a finite tol > 0")
        for argv in (
            ["basis", "--series", f, "--tol", "1e-9"],
            ["closure-demo", "--series", f, "--series2", g, "--nmax", "2", "--tol", "-1"],
        ):
            assert run_command(argv) == 64, argv
            assert capsys.readouterr().out == ""

    def test_non_finite_ranges_are_one_error_line(self, files):
        # refused before NumPy sees them, or (the rectangle at sigma -800) an
        # overflow on the contour: no traceback and no RuntimeWarning, so each
        # run is its own process with stderr read whole
        _, f, _ = files
        sampling = ["--count", "5", "--seed", "1"]
        strip = ["--sigma-min", "0", "--sigma-max", "inf", *sampling]
        box = ["--t-min", "0", "--t-max", "1"]
        for argv in (
            ["zeros", "--series", f, "--v-re", "nan", "--sigma-min", "0", "--sigma-max", "1", *box],
            ["sigma-star", "--series", f, "--v-im", "inf", *box],
            ["sigma-star", "--series", f, "--sigma-floor", "inf", *box],
            ["zeros", "--series", f, "--sigma-min", "-800", "--sigma-max", "-700", *box],
            ["value-set", "--series", f, "--route", "direct", *strip],
            ["value-set", "--series", f, "--route", "equivalence", *strip],
            ["line-set", "--series", f, "--sigma0", "1", "--t-max", "inf", *sampling],
            [
                "zeros", "--series", f, "--sigma-min", "0", "--sigma-max", "inf",
                "--t-min", "0", "--t-max", "1",
            ],
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "bohreq", *argv],
                capture_output=True, text=True, env=_package_env(), timeout=120,
            )
            assert proc.returncode == 1, argv
            assert proc.stdout == ""
            lines = proc.stderr.splitlines()
            assert len(lines) == 1, proc.stderr
            assert lines[0].startswith("bohreq: error: ")

    def test_sigma_star_and_zeros_commands(self, tmp_path, capsys):
        f = tmp_path / "onetwo.json"
        syms = SymbolTable([("L2", math.log(2))])
        spec = SeriesSpec(syms, [(ExponentVector(), 1.0), (ExponentVector({"L2": 1}), 1.0)])
        write_series_file(spec, f)
        assert (
            run_command(
                [
                    "zeros", "--series", str(f),
                    "--sigma-min", "-1", "--sigma-max", "1",
                    "--t-min", "0", "--t-max", "10",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"]["count"] == 1
        assert (
            run_command(
                [
                    "sigma-star", "--series", str(f),
                    "--t-min", "0", "--t-max", "20",
                    "--sigma-floor", "-5",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"]["sigma_star"] == pytest.approx(0.0, abs=1e-3)

    def test_zeros_steps_below_one_is_one_error_line(self, tmp_path, capsys):
        f = tmp_path / "onetwo.json"
        syms = SymbolTable([("L2", math.log(2))])
        spec = SeriesSpec(syms, [(ExponentVector(), 1.0), (ExponentVector({"L2": 1}), 1.0)])
        write_series_file(spec, f)
        argv = [
            "zeros", "--series", str(f),
            "--sigma-min", "-1", "--sigma-max", "1",
            "--t-min", "0", "--t-max", "10", "--steps", "0",
        ]
        assert run_command(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("bohreq: error: ")

    def test_sigma_star_dominance_cap_is_one_error_line(self, tmp_path, capsys):
        # exponents 1 and 1 + 1e-6: the second term only stops mattering
        # beyond sigma ~ 7e5, past the dominance search's cap
        f = tmp_path / "close.json"
        syms = SymbolTable([("ONE", 1.0)])
        spec = SeriesSpec(
            syms,
            [(ExponentVector({"ONE": 1}), 1.0), (ExponentVector({"ONE": "1000001/1000000"}), 1.0)],
        )
        write_series_file(spec, f)
        argv = ["sigma-star", "--series", str(f), "--t-min", "-1", "--t-max", "1"]
        assert run_command(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("bohreq: error: ")

    def test_kronecker_command(self, tmp_path, capsys):
        f = tmp_path / "two.json"
        syms = SymbolTable([("L2", math.log(2))])
        write_series_file(SeriesSpec(syms, [(ExponentVector({"L2": 1}), 1.0)]), f)
        code = run_command(
            [
                "kronecker", "--series", str(f),
                "--target", "3.141592653589793",
                "--tol", "1e-3", "--t-max-search", "10",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"]["found"] is True
        assert payload["result"]["t"] == pytest.approx(math.pi / math.log(2), abs=1e-5)
        # shrunken window: not found, exit 2
        code = run_command(
            [
                "kronecker", "--series", str(f),
                "--target", "3.141592653589793",
                "--tol", "1e-12", "--t-max-search", "1",
            ]
        )
        assert code == 2

    def test_out_file_holds_the_bytes_of_stdout(self, files, tmp_path, capsys):
        # every verdict goes through one envelope: --out writes what stdout
        # would show, strict JSON with no NaN or Infinity, and the digests
        # name exactly the series options taken
        _, f, g = files

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        pair = ["--series", f, "--series2", g]
        box = ["--t-min", "0", "--t-max", "1"]
        commands = [
            ["basis", "--series", f],
            ["solve-phases", *pair],
            ["equiv", *pair],
            ["closure-demo", *pair, "--nmax", "3"],
            ["eval", "--series", f, "--sigma", "2"],
            ["tail", "--series", f, "--sigma", "2"],
            ["uniform-distance", *pair, "--sigma-min", "1", "--sigma-max", "2", *box, "--grid", "2x2"],
            ["sigma-star", "--series", f, *box, "--sigma-floor", "-1", "--steps", "16"],
            ["zeros", "--series", f, "--sigma-min", "1", "--sigma-max", "2", *box, "--steps", "16"],
            ["kronecker", "--series", f, "--target", "1", "--tol", "1e-3", "--t-max-search", "10"],
        ]
        for argv in commands:
            code = run_command(argv)
            shown = capsys.readouterr().out
            out = tmp_path / f"{argv[0]}.json"
            assert run_command([*argv, "--out", str(out)]) == code, argv
            assert capsys.readouterr().out == ""
            assert out.read_bytes() == shown.encode(), argv
            payload = json.loads(shown, parse_constant=refuse)
            assert payload["command"] == argv[0]
            taken = {"series", "series2"} & {a[2:] for a in argv if a.startswith("--")}
            assert set(payload["inputs"]) == taken, argv

    def test_verdict_determinism(self, files, capsys):
        _, f, g = files
        run_command(["equiv", "--series", f, "--series2", g])
        first = capsys.readouterr().out
        run_command(["equiv", "--series", f, "--series2", g])
        assert capsys.readouterr().out == first


_EXACT_COMMANDS = """
import json
import sys

from bohreq.cli import run_command

for argv in json.loads(sys.argv[1]):
    assert run_command(argv) == 0, argv
print(json.dumps(sorted(name for name in sys.modules if name.split(".")[0] == "numpy")))
"""

_SUBMODULE_ATTRIBUTES = """
import sys

import bohreq

assert "numpy" not in sys.modules
assert issubclass(bohreq.errors.BadRange, bohreq.errors.SeriesError)
assert callable(bohreq.valuesets.sample_line)
assert bohreq.zeros.count_zeros is bohreq.count_zeros
assert not hasattr(bohreq, "no_such_module")
"""


def _package_env() -> dict:
    """The environment with this checkout's package first on PYTHONPATH."""
    src = str(Path(bohreq.__file__).resolve().parents[1])
    path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    # a NumPy RuntimeWarning fails a subprocess run as pyproject.toml makes
    # it fail a run in this process
    return {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(path),
        "PYTHONWARNINGS": "error::RuntimeWarning",
    }


class TestLazyImports:
    def test_exact_commands_never_import_numpy(self, tmp_path):
        f, g, tw = (str(tmp_path / name) for name in ("f.json", "g.json", "tw.json"))
        write_series_file(scenarios.bohr_example(3), f)
        write_series_file(scenarios.negate(scenarios.bohr_example(3)), g)
        pair = ["--series", f, "--series2", g]
        commands = [
            ["bohr-example", "--n", "4", "--out", str(tmp_path / "b.json")],
            ["basis", "--series", f],
            ["twist", "--series", f, "--phases", "1.25", "--out", tw],
            ["solve-phases", *pair],
            ["equiv", "--series", f, "--series2", tw],
            ["closure-demo", *pair, "--nmax", "3"],
            ["tail", "--series", f, "--sigma", "2"],
            ["kronecker", "--series", f, "--target", "1"],
        ]
        for argv in commands:
            if "--out" not in argv:
                argv += ["--out", str(tmp_path / f"{argv[0]}.out")]
        proc = subprocess.run(
            [sys.executable, "-c", _EXACT_COMMANDS, json.dumps(commands)],
            capture_output=True, text=True, env=_package_env(), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == []
        for argv in commands:
            assert Path(argv[-1]).stat().st_size > 0

    def test_public_names_resolve(self):
        namespace: dict = {}
        exec("from bohreq import *", namespace)
        listing = dir(bohreq)
        for name in bohreq.__all__:
            value = getattr(bohreq, name)
            assert namespace[name] is value
            assert name in listing
        assert len(bohreq.__all__) == len(set(bohreq.__all__)) == 32
        from bohreq import zeros

        assert zeros.count_zeros is bohreq.count_zeros
        with pytest.raises(AttributeError):
            bohreq.no_such_name

    def test_submodules_resolve_as_attributes(self):
        proc = subprocess.run(
            [sys.executable, "-c", _SUBMODULE_ATTRIBUTES],
            capture_output=True, text=True, env=_package_env(), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr


#: A valid run of each command that reads a float option, with F and G for
#: the two series files, and the float options it reads.  Each option is
#: given each of _EXTREMES in turn.
_FLOAT_OPTIONS = {
    "twist": (["--series", "F", "--phases", "1.25"], ["--phases"]),
    "solve-phases": (["--series", "F", "--series2", "G"], ["--tol"]),
    "equiv": (["--series", "F", "--series2", "G"], ["--tol"]),
    "eval": (["--series", "F", "--sigma", "2", "--t", "0"], ["--sigma", "--t"]),
    "tail": (["--series", "F", "--sigma", "2"], ["--sigma"]),
    "uniform-distance": (
        ["--series", "F", "--series2", "G", "--sigma-min", "1", "--sigma-max", "2",
         "--t-min", "0", "--t-max", "1", "--grid", "2x2"],
        ["--sigma-min", "--sigma-max", "--t-min", "--t-max"],
    ),
    "value-set": (
        ["--series", "F", "--sigma-min", "1", "--sigma-max", "2", "--t-max", "10",
         "--count", "5"],
        ["--sigma-min", "--sigma-max", "--t-max"],
    ),
    "line-set": (["--series", "F", "--sigma0", "1", "--t-max", "10", "--count", "5"],
                 ["--sigma0", "--t-max"]),
    "sigma-star": (
        ["--series", "F", "--t-min", "0", "--t-max", "1", "--sigma-floor", "-1",
         "--steps", "16"],
        ["--tol", "--v-re", "--v-im", "--t-min", "--t-max", "--sigma-floor"],
    ),
    "zeros": (
        ["--series", "F", "--sigma-min", "1", "--sigma-max", "2", "--t-min", "0",
         "--t-max", "1", "--steps", "16"],
        ["--v-re", "--v-im", "--sigma-min", "--sigma-max", "--t-min", "--t-max"],
    ),
    "kronecker": (
        ["--series", "F", "--target", "1", "--tol", "1e-3", "--t-max-search", "10"],
        ["--target", "--tol", "--t-max-search"],
    ),
}

#: Valid values that ask for unbounded work would be left out: a tiny tol,
#: or a Kronecker search of a basis of several elements over t in [0, 1e308].
#: None of these is one here: the basis of Bohr's series has one element, so
#: `--t-max-search 1e308` tries one time, and `--tol 1e308` ends at once.
_EXTREMES = ("nan", "inf", "-inf", "1e308", "-1e308")


def _extreme_runs() -> list:
    runs = []
    for command, (base, options) in _FLOAT_OPTIONS.items():
        routes = (["--route", "direct"], ["--route", "equivalence"])
        for route in routes if command == "value-set" else ([],):
            for option in options:
                for value in _EXTREMES:
                    # written --option=value so a leading minus is not read as an option
                    argv = [command, *route, *base, f"{option}={value}"]
                    name = " ".join([command, *route[1:], f"{option}={value}"])
                    runs.append(pytest.param(argv, value, id=name))
    return runs


def test_float_options_table_is_complete():
    # every option parsed as a float, or a list of floats, is in the table
    from bohreq.cli import _phases_arg, build_parser

    (commands,) = [a for a in build_parser()._actions if a.dest == "command"]
    for name, sub in commands.choices.items():
        taken = sorted(
            a.option_strings[0] for a in sub._actions if a.type in (float, _phases_arg)
        )
        assert taken == sorted(_FLOAT_OPTIONS.get(name, ([], []))[1]), name


@pytest.fixture(scope="module")
def series_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("extremes")
    f, g = tmp / "f.json", tmp / "g.json"
    write_series_file(scenarios.bohr_example(3), f)
    write_series_file(scenarios.negate(scenarios.bohr_example(3)), g)
    return {"F": str(f), "G": str(g)}


@pytest.mark.parametrize("argv, value", _extreme_runs())
def test_extreme_float_options(argv, value, series_files, capsys):
    # each run succeeds, or exits 1 with one error line that names NaN only
    # when NaN was given; a NumPy RuntimeWarning fails the test
    code = run_command([series_files.get(a, a) for a in argv])
    captured = capsys.readouterr()
    if code == 1:
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1, captured.err
        assert lines[0].startswith("bohreq: error: ")
        assert value == "nan" or "nan" not in lines[0].lower(), lines[0]
    else:
        assert code in (0, 2), captured.err
        assert captured.err == ""
