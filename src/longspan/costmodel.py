"""Closed-form fitted models of GPU training memory.

Three model kinds share one coefficient container:

* ``bart``     -- full-attention encoder-decoder; activation memory grows
  with N^2 (encoder self-attention dominates at long inputs).
* ``lobart``   -- banded-encoder variant; the quadratic term becomes N*W.
* ``hier_rnn`` -- hierarchical RNN selector; linear in sentence count.

Coefficients are data, not code: the GiB constants bundled in
``data/memory_coefficients.txt`` are desk defaults, and fits for other
hardware drop in through the same flat ``name = value`` file format.
All totals use GiB = 2^30 bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import DomainError, FormatError, SingularFitError

KIND_BART = "bart"
KIND_LOBART = "lobart"
KIND_HIER = "hier_rnn"


@dataclass(frozen=True)
class _Model:
    """One kind's memory model: ``const + batch * sum(c_i * basis_i(sizes))``.

    ``sizes`` names the sizes as a fit sample holds them; ``basis`` maps
    them, in that order, to the basis values of every term after ``const``.
    """

    sizes: tuple[str, ...]
    terms: tuple[str, ...]
    file_keys: tuple[str, ...]
    basis: Callable[..., tuple]

    def row(self, batch, sizes) -> list:
        """Multipliers of the coefficients: 1 for ``const``, batch x basis otherwise."""
        return [1.0] + [batch * value for value in self.basis(*sizes)]


_MODELS = {
    KIND_BART: _Model(("n", "m"),
                      ("const", "per_m", "per_n", "per_mn", "per_m2", "per_n2"),
                      tuple(f"c_b_{i}" for i in range(1, 7)),
                      lambda n, m: (m, n, m * n, m * m, n * n)),
    KIND_LOBART: _Model(("n", "m", "w"),
                        ("const", "per_m", "per_n", "per_mn", "per_m2", "per_nw"),
                        tuple(f"c_l_{i}" for i in range(1, 7)),
                        lambda n, m, w: (m, n, m * n, m * m, n * w)),
    KIND_HIER: _Model(("n1", "n2"),
                      ("const", "per_n1", "per_n1n2"),
                      ("hier_c0", "hier_c1", "hier_c2"),
                      lambda n1, n2: (n1, n1 * n2)),
}


def _model(kind: str) -> _Model:
    if kind not in _MODELS:
        raise DomainError(f"unknown cost-model kind {kind!r}")
    return _MODELS[kind]


def load_coefficient_file(path) -> dict[str, float]:
    """Parse a flat ``name = value`` coefficient file ('#' starts a comment).

    A file that cannot be read as UTF-8 text raises FormatError.
    """
    values: dict[str, float] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"cannot read {path}: not UTF-8") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"{path}:{lineno}: expected 'name = value', got {raw!r}")
        name, _, value = line.partition("=")
        try:
            values[name.strip()] = float(value.strip())
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: bad numeric value {value.strip()!r}") from exc
    return values


def _bundled_values() -> dict[str, float]:
    ref = resources.files("longspan").joinpath("data/memory_coefficients.txt")
    with resources.as_file(ref) as path:
        return load_coefficient_file(path)


@dataclass(frozen=True)
class CostCoefficients:
    """Per-kind fitted constants (GiB per unit of the kind's basis terms)."""

    kind: str
    values: tuple[float, ...]

    def __post_init__(self):
        terms = _model(self.kind).terms
        if len(self.values) != len(terms):
            raise DomainError(
                f"{self.kind} model takes {len(terms)} coefficients, got {len(self.values)}"
            )
        for name, v in zip(terms, self.values):
            if not math.isfinite(v) or v < 0:
                raise DomainError(f"coefficient {name} must be finite and >= 0, got {v}")

    def named(self) -> dict[str, float]:
        return dict(zip(_MODELS[self.kind].terms, self.values))

    @classmethod
    def from_mapping(cls, kind: str, mapping: Mapping[str, float]) -> "CostCoefficients":
        keys = _model(kind).file_keys
        try:
            return cls(kind, tuple(float(mapping[k]) for k in keys))
        except KeyError as exc:
            raise FormatError(f"coefficient file is missing {exc.args[0]!r}") from exc

    @classmethod
    def defaults(cls, kind: str) -> "CostCoefficients":
        return cls.from_mapping(kind, _bundled_values())


@dataclass(frozen=True)
class MemoryBreakdown:
    """Per-term GiB values for one operating point; total is their sum."""

    kind: str
    args: dict[str, int]
    terms: dict[str, float]
    total: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "total", float(sum(self.terms.values())))

    def to_dict(self) -> dict:
        return {"kind": self.kind, "args": dict(self.args),
                "terms": dict(self.terms), "total_gib": self.total}


# Largest size accepted: every product of sizes stays a finite float.
_MAX_SIZE = 2**53


def _check_positive(**kwargs: int) -> None:
    for name, value in kwargs.items():
        if int(value) != value or value < 1:
            raise DomainError(f"{name} must be a positive integer, got {value}")
        if value > _MAX_SIZE:
            raise DomainError(f"{name} must be at most 2^53, got {value}")


def _memory(kind: str, coeffs: CostCoefficients | None, batch: int,
            **sizes: int) -> MemoryBreakdown:
    _check_positive(**sizes, batch=batch)
    coeffs = coeffs or CostCoefficients.defaults(kind)
    if coeffs.kind != kind:
        raise DomainError(f"expected {kind} coefficients, got {coeffs.kind}")
    model = _MODELS[kind]
    row = model.row(batch, sizes.values())
    terms = {name: c * x for name, c, x in zip(model.terms, coeffs.values, row)}
    return MemoryBreakdown(kind, {**sizes, "batch": batch}, terms)


def bart_memory(n: int, m: int, batch: int = 1,
                coeffs: CostCoefficients | None = None) -> MemoryBreakdown:
    """Training memory of the full-attention model at input/target (N, M)."""
    return _memory(KIND_BART, coeffs, batch, n=n, m=m)


def lobart_memory(n: int, m: int, window: int, batch: int = 1,
                  coeffs: CostCoefficients | None = None) -> MemoryBreakdown:
    """Training memory of the banded-encoder model at (N, M, W)."""
    return _memory(KIND_LOBART, coeffs, batch, n=n, m=m, window=window)


def hier_rnn_memory(n1: int, n2: int, batch: int = 1,
                    coeffs: CostCoefficients | None = None) -> MemoryBreakdown:
    """Training memory of the hierarchical RNN selector at (N1 sentences, N2 words)."""
    return _memory(KIND_HIER, coeffs, batch, n1=n1, n2=n2)


def breakeven_width(n: int, bart: CostCoefficients | None = None,
                    lobart: CostCoefficients | None = None) -> float:
    """Largest window still saving activation memory vs. full attention.

    Compares the dominant terms per_n2 * N^2 against per_nw * N * W, giving
    W_max = (per_n2 / per_nw) * N (~0.58 N at the bundled defaults).
    """
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    bart = bart or CostCoefficients.defaults(KIND_BART)
    lobart = lobart or CostCoefficients.defaults(KIND_LOBART)
    c_full = bart.named()["per_n2"]
    c_band = lobart.named()["per_nw"]
    if c_band == 0.0:
        raise DomainError("band coefficient per_nw is zero; break-even width undefined")
    return (c_full / c_band) * n


def fit_coefficients(samples: Sequence[Mapping[str, float]], kind: str,
                     value_key: str = "gib") -> tuple[CostCoefficients, float]:
    """Ordinary least squares over the kind's basis terms; returns (fit, RMSE).

    Each sample maps size names to values plus ``value_key`` for the
    measurement.  The same bases serve time fits (quadratic N^2 for the
    full model, N*W for the banded one); pass measured seconds as the
    value and interpret the coefficients accordingly.
    """
    model = _model(kind)
    design = np.asarray(
        [model.row(float(s.get("b", 1)), [float(s[k]) for k in model.sizes])
         for s in samples],
        dtype=np.float64,
    )
    y = np.asarray([float(s[value_key]) for s in samples], dtype=np.float64)
    n_terms = len(model.terms)
    if design.shape[0] < n_terms:
        raise SingularFitError(
            f"{design.shape[0]} samples cannot determine {n_terms} coefficients"
        )
    if np.linalg.matrix_rank(design) < n_terms:
        raise SingularFitError("design matrix is rank deficient")
    solution, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    # OLS noise can push a tiny coefficient below zero; treat that as zero
    # within round-off, and refuse clearly negative physics.
    cleaned = []
    for name, v in zip(model.terms, solution):
        if v < -1e-9:
            raise DomainError(
                f"fitted coefficient {name} = {v:.3e} is negative; "
                "samples do not support this model form"
            )
        cleaned.append(max(v, 0.0))
    residual = design @ solution - y
    rmse = float(np.sqrt(np.mean(residual**2)))
    return CostCoefficients(kind, tuple(cleaned)), rmse


@dataclass(frozen=True)
class OperatingPoint:
    """One (N, W) candidate annotated against a memory budget."""

    n: int
    window: int | None
    total_gib: float
    feasible: bool


def advise_operating_point(
    budget_gib: float,
    m: int,
    batch: int,
    candidates: Iterable[tuple[int, int | None]],
    bart: CostCoefficients | None = None,
    lobart: CostCoefficients | None = None,
) -> list[OperatingPoint]:
    """Annotate (N, W) candidates as feasible/infeasible under a GiB budget.

    ``window=None`` means full attention and uses the full-attention model.
    """
    candidates = list(candidates)
    if not candidates:
        raise DomainError("candidate grid is empty")
    points = []
    for n, window in candidates:
        if window is None:
            total = bart_memory(n, m, batch, coeffs=bart).total
        else:
            total = lobart_memory(n, m, window, batch, coeffs=lobart).total
        points.append(OperatingPoint(n, window, total, total <= budget_gib))
    return points
