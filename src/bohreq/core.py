"""Exact descriptions of truncated general Dirichlet series.

A series sum_n a(n) exp(-lambda(n) s) is stored with its exponents lambda(n)
as exact rational combinations of declared real symbols, so every rational
dependence question downstream reduces to exact arithmetic on
`fractions.Fraction` coordinates.  Coefficients are double-precision complex:
phase decisions never route through them, only through the exact layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple

from .errors import (
    DuplicateExponent,
    NonIncreasingExponents,
    NonpositiveSigma,
    UnknownSymbol,
)

#: Name of the distinguished unit symbol; when present its value is pinned to 1.0,
#: which carries purely rational exponent sequences.
UNIT_SYMBOL = "ONE"


def as_fraction(value: Fraction | int | str) -> Fraction:
    """Coerce an exact rational (Fraction, int, or a string like '19/6').

    Floats are rejected on purpose: rational relations between exponents must
    be declared exactly, never inferred from rounded numbers.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


class SymbolTable:
    """Ordered (name, value) pairs naming the real numbers exponents combine.

    The values are doubles and are assumed, as a user contract, to be linearly
    independent over the rationals; the table records but never verifies this.
    """

    __slots__ = ("_names", "_values", "_lookup")

    def __init__(self, entries: Iterable[tuple[str, float]]):
        names: list[str] = []
        values: list[float] = []
        lookup: dict[str, float] = {}
        for name, value in entries:
            if not isinstance(name, str) or not name:
                raise ValueError(f"symbol name must be a nonempty string: {name!r}")
            if name in lookup:
                raise ValueError(f"duplicate symbol {name!r}")
            value = float(value)
            if not math.isfinite(value):
                raise ValueError(f"symbol {name!r} has non-finite value {value!r}")
            if value == 0.0:
                raise ValueError(f"symbol {name!r} has zero value")
            if name == UNIT_SYMBOL and value != 1.0:
                raise ValueError(f"symbol {UNIT_SYMBOL!r} must carry the value 1.0")
            names.append(name)
            values.append(value)
            lookup[name] = value
        self._names = tuple(names)
        self._values = tuple(values)
        self._lookup = lookup

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    def value(self, name: str) -> float:
        try:
            return self._lookup[name]
        except KeyError:
            raise UnknownSymbol(name) from None

    def __contains__(self, name: str) -> bool:
        return name in self._lookup

    def __len__(self) -> int:
        return len(self._names)

    def __iter__(self):
        return iter(zip(self._names, self._values))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SymbolTable)
            and self._names == other._names
            and self._values == other._values
        )

    def __hash__(self) -> int:
        return hash((self._names, self._values))

    def __repr__(self) -> str:
        return f"SymbolTable({list(self)!r})"


class ExponentVector:
    """Finite-support map from symbol name to an exact rational coordinate.

    Zero coordinates are dropped, so two vectors are equal exactly when their
    coordinate maps are equal.  The empty vector is the exponent 0.
    """

    __slots__ = ("_items",)

    def __init__(self, coords: Mapping[str, Fraction | int | str] | Iterable = ()):
        items = coords.items() if isinstance(coords, Mapping) else coords
        cleaned: dict[str, Fraction] = {}
        for name, q in items:
            if name in cleaned:
                raise ValueError(f"repeated coordinate for symbol {name!r}")
            q = as_fraction(q)
            if q != 0:
                cleaned[name] = q
        self._items = tuple(sorted(cleaned.items()))

    def items(self) -> tuple[tuple[str, Fraction], ...]:
        return self._items

    def coords(self) -> dict[str, Fraction]:
        return dict(self._items)

    def get(self, name: str) -> Fraction:
        for key, q in self._items:
            if key == name:
                return q
        return Fraction(0)

    def is_zero(self) -> bool:
        return not self._items

    def numeric_value(self, symbols: SymbolTable) -> float:
        return math.fsum(float(q) * symbols.value(name) for name, q in self._items)

    def __add__(self, other: "ExponentVector") -> "ExponentVector":
        merged = dict(self._items)
        for name, q in other._items:
            merged[name] = merged.get(name, Fraction(0)) + q
        return ExponentVector(merged)

    def __sub__(self, other: "ExponentVector") -> "ExponentVector":
        return self + other.scale(Fraction(-1))

    def scale(self, q: Fraction | int | str) -> "ExponentVector":
        q = as_fraction(q)
        return ExponentVector({name: q * c for name, c in self._items})

    def __eq__(self, other) -> bool:
        return isinstance(other, ExponentVector) and self._items == other._items

    def __hash__(self) -> int:
        return hash(self._items)

    def __repr__(self) -> str:
        body = ", ".join(f"{name}: {q}" for name, q in self._items)
        return f"ExponentVector({{{body}}})"


def numeric_value(exponent: ExponentVector, symbols: SymbolTable) -> float:
    """Double-precision value of an exponent over the given symbol table."""
    return exponent.numeric_value(symbols)


class Term(NamedTuple):
    exponent: ExponentVector
    coeff: complex


class ProductPlan:
    """How to compute the terms of a series from few exponentials.

    `fresh` lists the terms evaluated directly, in term order; fresh term
    `fresh[i]` is kept in row i.  `steps` has one `(slot, factors)` pair per
    term: the row that holds its values, and the rows of the two earlier
    terms it is the product of (None for a fresh term).  `slots` is the
    number of rows a block of points needs.
    """

    __slots__ = ("fresh", "steps", "slots")

    def __init__(
        self,
        fresh: tuple[int, ...],
        steps: tuple[tuple[int, tuple[int, int] | None], ...],
        slots: int,
    ):
        self.fresh = fresh
        self.steps = steps
        self.slots = slots


def product_plan(exponents: tuple[ExponentVector, ...]) -> ProductPlan:
    """Write each term as a product of two earlier terms where the exponents allow.

    Term n is the child of (m, p) when exponent_n == exponent_m + exponent_p
    exactly, with m, p < n and p a fresh term (fresh terms are tried in term
    order); every other term is fresh.  The decision is exact, so the plan
    only changes how a value is computed, never which value.  A child's row
    is given back after the child's last use as a factor, so the number of
    rows is the number of fresh terms plus the children alive at once.
    """
    index = {e: n for n, e in enumerate(exponents)}
    fresh: list[int] = []
    pairs: list[tuple[int, int] | None] = []
    for n, e in enumerate(exponents):
        pair = None
        for p in fresh:
            m = index.get(e - exponents[p], n)
            if m < n:
                pair = (m, p)
                break
        if pair is None:
            fresh.append(n)
        pairs.append(pair)
    last_use = list(range(len(exponents)))
    for n, pair in enumerate(pairs):
        for f in pair or ():
            last_use[f] = n
    slot_of = {n: i for i, n in enumerate(fresh)}
    free: list[int] = []
    slots = len(fresh)
    steps: list[tuple[int, tuple[int, int] | None]] = []
    for n, pair in enumerate(pairs):
        if pair is None:
            steps.append((slot_of[n], None))
            continue
        # the row is taken before the factors give theirs back, so a product
        # never overwrites one of its own factors
        if not free:
            free.append(slots)
            slots += 1
        slot_of[n] = free.pop()
        steps.append((slot_of[n], (slot_of[pair[0]], slot_of[pair[1]])))
        for f in dict.fromkeys((*pair, n)):
            if last_use[f] == n and pairs[f] is not None:
                free.append(slot_of[f])
    return ProductPlan(tuple(fresh), tuple(steps), slots)


@dataclass(frozen=True)
class TailMajorant:
    """Geometric bound on the omitted terms of a truncated series.

    bound(sigma) = coeff_bound * exp(-value(lambda_next) * sigma)
                   / (1 - exp(-min_gap * sigma))
    where lambda_next is the first omitted exponent and min_gap a lower bound
    on the gaps between consecutive omitted exponents.  Valid for sigma > 0.
    """

    lambda_next: ExponentVector
    coeff_bound: float
    min_gap: float

    def __post_init__(self):
        if not (self.coeff_bound >= 0.0):
            raise ValueError("coeff_bound must be >= 0")
        if not (self.min_gap > 0.0):
            raise ValueError("min_gap must be > 0")


class _Derived:
    """What a series computes from its exponents alone, on first use."""

    __slots__ = ("lams", "plan")

    def __init__(self):
        self.lams: tuple[float, ...] | None = None
        self.plan: ProductPlan | None = None


class SeriesSpec:
    """A finite truncation of a general Dirichlet series.

    `abscissa` is the user-declared abscissa of absolute convergence of the
    intended infinite series (-inf for genuinely finite series); `tail` is an
    optional certified majorant for the omitted terms.
    """

    __slots__ = ("_symbols", "_terms", "_abscissa", "_tail", "_derived")

    def __init__(
        self,
        symbols: SymbolTable,
        terms: Iterable[tuple[ExponentVector, complex]],
        abscissa: float = float("-inf"),
        tail: TailMajorant | None = None,
    ):
        self._symbols = symbols
        self._terms = tuple(Term(exp, complex(coeff)) for exp, coeff in terms)
        self._abscissa = float(abscissa)
        self._tail = tail
        self._derived = _Derived()

    @property
    def symbols(self) -> SymbolTable:
        return self._symbols

    @property
    def terms(self) -> tuple[Term, ...]:
        return self._terms

    @property
    def abscissa(self) -> float:
        return self._abscissa

    @property
    def tail(self) -> TailMajorant | None:
        return self._tail

    def __len__(self) -> int:
        return len(self._terms)

    def exponents(self) -> tuple[ExponentVector, ...]:
        return tuple(t.exponent for t in self._terms)

    def coeffs(self) -> tuple[complex, ...]:
        return tuple(t.coeff for t in self._terms)

    def numeric_exponents(self) -> tuple[float, ...]:
        """Double values of the exponents, computed on the first call only."""
        derived = self._derived
        if derived.lams is None:
            derived.lams = tuple(t.exponent.numeric_value(self._symbols) for t in self._terms)
        return derived.lams

    def product_plan(self) -> ProductPlan:
        """The exponents' product plan (see `product_plan`), built on the
        first call only."""
        derived = self._derived
        if derived.plan is None:
            derived.plan = product_plan(self.exponents())
        return derived.plan

    def with_coeffs(self, coeffs: Iterable[complex]) -> "SeriesSpec":
        """Same exponents and metadata, new coefficients (moduli may change)."""
        coeffs = tuple(complex(c) for c in coeffs)
        if len(coeffs) != len(self._terms):
            raise ValueError("coefficient count does not match term count")
        spec = SeriesSpec(
            self._symbols,
            zip(self.exponents(), coeffs),
            self._abscissa,
            self._tail,
        )
        # same exponents: whichever of the two computes their values or plan
        # first computes them for both
        spec._derived = self._derived
        return spec

    def take_terms(self, n: int) -> "SeriesSpec":
        """First n terms.  A proper truncation drops the tail majorant, which
        would otherwise understate the newly omitted terms."""
        if not (1 <= n <= len(self._terms)):
            raise ValueError(f"cannot take {n} terms of {len(self._terms)}")
        tail = self._tail if n == len(self._terms) else None
        return SeriesSpec(self._symbols, self._terms[:n], self._abscissa, tail)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SeriesSpec)
            and self._symbols == other._symbols
            and self._terms == other._terms
            and (
                self._abscissa == other._abscissa
                or (math.isnan(self._abscissa) and math.isnan(other._abscissa))
            )
            and self._tail == other._tail
        )

    def __repr__(self) -> str:
        return f"SeriesSpec({len(self._terms)} terms over {self._symbols.names})"


def validate_series(spec: SeriesSpec) -> SeriesSpec:
    """Check strict increase of numeric exponent values and exact uniqueness
    of exponent vectors; returns the spec unchanged.

    Raises NonIncreasingExponents or DuplicateExponent with the 1-based
    position of the offending term.
    """
    seen: dict[ExponentVector, int] = {}
    prev = float("-inf")
    for pos, (term, value) in enumerate(zip(spec.terms, spec.numeric_exponents()), start=1):
        if term.exponent in seen:
            raise DuplicateExponent(pos)
        seen[term.exponent] = pos
        if value <= prev:
            raise NonIncreasingExponents(pos)
        prev = value
    return spec


def tail_bound(tail: TailMajorant, symbols: SymbolTable, sigma: float) -> float:
    """Certified upper bound on the omitted-terms sum at abscissa sigma > 0."""
    if not (sigma > 0.0):
        raise NonpositiveSigma(sigma)
    lam = tail.lambda_next.numeric_value(symbols)
    return tail.coeff_bound * math.exp(-lam * sigma) / (1.0 - math.exp(-tail.min_gap * sigma))


def spec_tail_bound(spec: SeriesSpec, sigma: float) -> float:
    """Tail bound of a spec carrying a majorant; 0.0 when the series is exact."""
    if spec.tail is None:
        return 0.0
    return tail_bound(spec.tail, spec.symbols, sigma)
