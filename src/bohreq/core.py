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
    BadRange,
    DuplicateExponent,
    NonIncreasingExponents,
    NonpositiveSigma,
    PrecisionLimit,
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


def fsum_or_inf(values: Iterable[float]) -> float:
    """math.fsum of the values, or inf where fsum or a value raises: a value
    or a partial sum beyond a double, or inf - inf."""
    try:
        return math.fsum(values)
    except (OverflowError, ValueError):
        return math.inf


class SymbolTable:
    """Ordered (name, value) pairs naming the real numbers exponents combine.

    The values are doubles and are assumed, as a user contract, to be linearly
    independent over the rationals; the table records but never verifies this.
    """

    __slots__ = ("_lookup",)

    def __init__(self, entries: Iterable[tuple[str, float]]):
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
            lookup[name] = value
        self._lookup = lookup

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._lookup)

    def value(self, name: str) -> float:
        try:
            return self._lookup[name]
        except KeyError:
            raise UnknownSymbol(name) from None

    def __contains__(self, name: str) -> bool:
        return name in self._lookup

    def __len__(self) -> int:
        return len(self._lookup)

    def __iter__(self):
        return iter(self._lookup.items())

    def __eq__(self, other) -> bool:
        # in order: a dict's own equality ignores it
        return isinstance(other, SymbolTable) and list(self) == list(other)

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"SymbolTable({list(self)!r})"


class ExponentVector:
    """Finite-support map from symbol name to an exact rational coordinate.

    Zero coordinates are dropped, so two vectors are equal exactly when their
    coordinate maps are equal.  The empty vector is the exponent 0.
    """

    __slots__ = ("_items",)

    def __init__(self, coords: Mapping[str, Fraction | int | str] | None = None):
        exact = ((name, as_fraction(q)) for name, q in (coords or {}).items())
        self._items = tuple(sorted((name, q) for name, q in exact if q != 0))

    def items(self) -> tuple[tuple[str, Fraction], ...]:
        return self._items

    def coords(self) -> dict[str, Fraction]:
        return dict(self._items)

    def get(self, name: str) -> Fraction:
        for key, q in self._items:
            if key == name:
                return q
        return Fraction(0)

    def numeric_value(self, symbols: SymbolTable) -> float:
        """The exponent's double value; PrecisionLimit when it is not a finite double."""
        value = fsum_or_inf(float(q) * symbols.value(name) for name, q in self._items)
        if not math.isfinite(value):
            raise PrecisionLimit(f"the value of exponent {self} is not a finite double")
        return value

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
        if not 0.0 <= self.coeff_bound < math.inf:
            raise ValueError(f"coeff_bound must be finite and >= 0, got {self.coeff_bound}")
        if not 0.0 < self.min_gap < math.inf:
            raise ValueError(f"min_gap must be finite and > 0, got {self.min_gap}")


class _Derived:
    """What a series computes from its exponents alone, on first use."""

    __slots__ = ("lams", "reach", "plan")

    def __init__(self):
        self.lams: tuple[float, ...] | None = None
        self.reach: float | None = None
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

    def exponent_reach(self) -> float:
        """max |lambda_n| over the terms (0.0 for none), computed on the first
        call only: lambda_n t is a finite double for every n when this times
        |t| is."""
        derived = self._derived
        if derived.reach is None:
            derived.reach = max(map(abs, self.numeric_exponents()), default=0.0)
        return derived.reach

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
    """Check strict increase of numeric exponent values, the tail majorant's
    first omitted exponent included, and exact uniqueness of exponent
    vectors; returns the spec unchanged.

    Raises NonIncreasingExponents or DuplicateExponent with the 1-based
    position of the offending term (n + 1 for the tail of n terms), and
    PrecisionLimit or UnknownSymbol when an exponent has no finite value.
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
    if spec.tail is not None:
        value = spec.tail.lambda_next.numeric_value(spec.symbols)
        if value <= prev:
            raise NonIncreasingExponents(
                len(spec.terms) + 1,
                f"the tail's first omitted exponent {value} does not exceed "
                f"the last exponent {prev}, at term {len(spec.terms) + 1}",
            )
    return spec


def tail_bound(tail: TailMajorant, symbols: SymbolTable, sigma: float) -> float:
    """Certified upper bound on the omitted-terms sum at abscissa sigma > 0.

    PrecisionLimit when the bound is not a finite double (a tiny sigma, or
    an exponential beyond a double).
    """
    if not (sigma > 0.0):
        raise NonpositiveSigma(sigma)
    if not sigma < math.inf:
        raise BadRange(f"need a finite sigma, got {sigma}")
    if tail.coeff_bound == 0.0:  # 0 times a factor that may be beyond a double
        return 0.0
    lam = tail.lambda_next.numeric_value(symbols)
    try:
        bound = tail.coeff_bound * math.exp(-lam * sigma) / -math.expm1(-tail.min_gap * sigma)
    except (OverflowError, ZeroDivisionError):  # exp, or min_gap * sigma below a double
        bound = math.inf
    if not bound < math.inf:
        raise PrecisionLimit(f"the tail bound at sigma = {sigma} is not a finite double")
    return bound

