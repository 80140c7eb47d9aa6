"""Problem data for the leader/follower mean-field model.

Holds the constant coefficient matrices of the two dynamics, the quadratic
cost weights on both sides, the attenuation level and the time grid, plus
the JSON config round-trip and the standing-assumption checks.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

__all__ = [
    "ParseError",
    "DimensionError",
    "TimeGrid",
    "MatrixTrajectory",
    "ModelParams",
    "ValidationCheck",
    "ValidationReport",
    "validate_assumptions",
    "load_config",
    "save_config",
]

SYM_TOL = 1e-12


class ParseError(Exception):
    """Config file is not syntactically usable (bad JSON, missing keys)."""


class DimensionError(ValueError):
    """A matrix in the config has a shape inconsistent with the declared dims."""


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, T] with M steps; every solver shares one of these."""

    T: float
    steps: int

    def __post_init__(self):
        if not (self.T > 0 and np.isfinite(self.T)):
            raise ValueError(f"horizon must be positive and finite, got {self.T}")
        if self.steps < 4:
            raise ValueError(f"need at least 4 grid steps, got {self.steps}")
        # uniformity contract: h * M must reproduce T to a few ulp
        if abs(self.h * self.steps - self.T) > 4 * np.spacing(self.T):
            raise ValueError("grid spacing does not reproduce the horizon")

    @property
    def h(self) -> float:
        return self.T / self.steps

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.steps + 1)

    def refined(self) -> "TimeGrid":
        """The grid with every step halved."""
        return TimeGrid(self.T, 2 * self.steps)


class MatrixTrajectory:
    """Matrix-valued function of time stored on the nodes of a TimeGrid.

    values has shape (M+1, r, c); all solver-to-solver traffic stays on
    the grid's nodes.
    """

    def __init__(self, grid: TimeGrid, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.ndim != 3 or values.shape[0] != grid.steps + 1:
            raise DimensionError(
                f"trajectory values must be (M+1, r, c), got {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("trajectory contains non-finite entries")
        self.grid = grid
        self.values = values
        self.values.setflags(write=False)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape[1:]

    @property
    def terminal(self) -> np.ndarray:
        return self.values[-1]


def _as_matrix(name, value, rows, cols):
    a = np.atleast_2d(np.asarray(value, dtype=float))
    if a.shape != (rows, cols):
        raise DimensionError(f"{name} must be {rows}x{cols}, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def _as_vector(name, value, length):
    a = np.atleast_1d(np.asarray(value, dtype=float)).reshape(-1)
    if a.shape != (length,):
        raise DimensionError(f"{name} must have length {length}, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


# (field, rows, cols) with dims expressed in terms of n/mL/mF/nv; each
# field's config section is in _SECTION_KEYS
_MATRIX_SPEC = [
    ("A", "n", "n"),
    ("B", "n", "mL"),
    ("F", "n", "n"),
    ("H", "n", "mF"),
    ("E", "n", "nv"),
    ("C", "n", "n"),
    ("D", "n", "mL"),
    ("At", "n", "n"),
    ("Bt", "n", "mF"),
    ("Ft", "n", "n"),
    ("Ht", "n", "mL"),
    ("Sigma", "n", "n"),
    ("Q", "n", "n"),
    ("Gamma1", "n", "n"),
    ("R0", "mL", "mL"),
    ("R1", "mF", "mF"),
    ("R2", "nv", "nv"),
    ("Gamma2", "n", "n"),
    ("G", "n", "n"),
    ("Qt", "n", "n"),
    ("Gamma1t", "n", "n"),
    ("R0t", "mL", "mL"),
    ("R1t", "mF", "mF"),
    ("Gamma2t", "n", "n"),
    ("Gt", "n", "n"),
]

# weights that only need to be positive semidefinite / strictly positive definite
_PSD_FIELDS = ("Q", "G", "Qt", "Gt")
_PD_FIELDS = ("R0", "R1", "R2", "R0t", "R1t")
_SYMMETRIC_FIELDS = _PSD_FIELDS + _PD_FIELDS


def _skew(a: np.ndarray) -> float:
    return float(np.max(np.abs(a - a.T)))


def _symmetric(a: np.ndarray) -> bool:
    """The symmetry rule for a weight: its largest |a - a'| entry is at
    most SYM_TOL * max(1, max |a|)."""
    return _skew(a) <= SYM_TOL * max(1.0, np.max(np.abs(a)))


@dataclass(frozen=True)
class ModelParams:
    """Immutable bundle of model data.

    Matrices are stored as read-only 2-D float arrays even when 1x1; the
    scalar/matrix interchange happens only at the config boundary.
    """

    n: int
    mL: int
    mF: int
    nv: int
    A: np.ndarray
    B: np.ndarray
    F: np.ndarray
    H: np.ndarray
    E: np.ndarray
    C: np.ndarray
    D: np.ndarray
    At: np.ndarray
    Bt: np.ndarray
    Ft: np.ndarray
    Ht: np.ndarray
    Sigma: np.ndarray
    Q: np.ndarray
    Gamma1: np.ndarray
    R0: np.ndarray
    R1: np.ndarray
    R2: np.ndarray
    Gamma2: np.ndarray
    G: np.ndarray
    Qt: np.ndarray
    Gamma1t: np.ndarray
    R0t: np.ndarray
    R1t: np.ndarray
    Gamma2t: np.ndarray
    Gt: np.ndarray
    xi: np.ndarray
    x0init: np.ndarray
    T: float
    gamma: float
    grid_steps: int
    pd_floor: float = 1e-10

    def __post_init__(self):
        dims = {"n": self.n, "mL": self.mL, "mF": self.mF, "nv": self.nv}
        for name, d in dims.items():
            if not (isinstance(d, (int, np.integer)) and d >= 1):
                raise DimensionError(f"dimension {name} must be a positive int")
        for name, r, c in _MATRIX_SPEC:
            a = _as_matrix(name, getattr(self, name), dims[r], dims[c])
            object.__setattr__(self, name, a)
            a.setflags(write=False)
        for name in _SYMMETRIC_FIELDS:
            a = getattr(self, name)
            if not _symmetric(a):
                raise ValueError(
                    f"{name} must be symmetric (asymmetry {_skew(a):.2e})")
        for name in ("xi", "x0init"):
            v = _as_vector(name, getattr(self, name), self.n)
            object.__setattr__(self, name, v)
            v.setflags(write=False)
        if not (np.isfinite(self.T) and self.T > 0):
            raise ValueError("horizon T must be positive and finite")
        if not (np.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError("gamma must be positive and finite")
        if self.grid_steps < 4:
            raise ValueError("grid_steps must be at least 4")

    @cached_property
    def disturbance_weight(self) -> np.ndarray:
        """E R2^{-1} E', the square completed against the attenuation term."""
        w = self.E @ np.linalg.solve(self.R2, self.E.T)
        w.setflags(write=False)
        return w

    def grid(self) -> TimeGrid:
        return TimeGrid(self.T, self.grid_steps)

    def with_updates(self, **kw) -> "ModelParams":
        return replace(self, **kw)


@dataclass(frozen=True)
class ValidationCheck:
    name: str
    passed: bool
    margin: float
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[ValidationCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple[ValidationCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def __iter__(self):
        return iter(self.checks)


def _min_eig(a: np.ndarray) -> float:
    return float(np.min(np.linalg.eigvalsh(0.5 * (a + a.T))))


def validate_assumptions(p: ModelParams) -> ValidationReport:
    """Check the standing assumptions; failures become report entries, not errors.

    A1/A2 are the structural conditions (finite, consistently shaped, symmetric
    weights) which ModelParams enforces at construction, so they are reported
    as recomputed pass/fail entries.  A3/A4 are semidefiniteness of the state
    weights and strict definiteness of the control weights; the margin is the
    smallest eigenvalue of the symmetrized matrix.
    """
    floor = p.pd_floor
    checks = []
    finite = all(np.all(np.isfinite(getattr(p, name))) for name, *_ in _MATRIX_SPEC)
    checks.append(ValidationCheck("A1_bounded_coefficients", finite, 0.0 if finite else -np.inf))
    weights = [getattr(p, name) for name in _SYMMETRIC_FIELDS]
    checks.append(ValidationCheck(
        "A2_symmetric_weights", all(map(_symmetric, weights)),
        -max(map(_skew, weights))))
    for name in _PSD_FIELDS:
        m = _min_eig(getattr(p, name))
        checks.append(
            ValidationCheck(f"A3_{name}_psd" if name in ("Q", "G") else f"A4_{name}_psd",
                            m >= -floor, m,
                            f"min eigenvalue of {name}")
        )
    for name in _PD_FIELDS:
        m = _min_eig(getattr(p, name))
        tag = "A3" if name in ("R0", "R1", "R2") else "A4"
        checks.append(
            ValidationCheck(f"{tag}_{name}_pd", m >= floor, m,
                            f"min eigenvalue of {name}, floor {floor:g}")
        )
    return ValidationReport(tuple(checks))


_SECTION_KEYS = {
    "dimensions": ("n", "mL", "mF", "nv"),
    "leader_dynamics": ("A", "B", "F", "H", "E", "C", "D", "xi"),
    "follower_dynamics": ("At", "Bt", "Ft", "Ht", "Sigma", "x0init"),
    "leader_cost": ("Q", "Gamma1", "R0", "R1", "R2", "Gamma2", "G"),
    "follower_cost": ("Qt", "Gamma1t", "R0t", "R1t", "Gamma2t", "Gt"),
}


def _value(key: str, value, kind):
    """A config value as kind: int (a whole JSON number), float (a JSON
    number) or np.ndarray (a number or nested list of numbers, as floats).
    Anything else raises ParseError naming the key."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    try:
        if kind is np.ndarray:
            return np.asarray(value, dtype=float)
        if number and not (kind is int and value % 1):
            return kind(value)
    except (TypeError, ValueError):
        pass
    what = {int: "a whole number", float: "a number"}.get(
        kind, "a number or a nested list of numbers")
    raise ParseError(f"config key {key!r} must be {what}, got {value!r}")


def load_config(path) -> ModelParams:
    """Read a JSON model config; see docs/config_schema.json for the layout.

    Raises ParseError for malformed JSON, missing keys, a section that is
    not an object or a value of the wrong type (a dimension or grid_steps
    that is not whole among them), DimensionError for shape mismatches,
    and ValueError when the standing assumptions fail.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as e:
        raise ParseError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ParseError(f"config {path} is not valid JSON: {e}") from e
    if not isinstance(raw, dict):
        raise ParseError("top level of a config must be a JSON object")

    kw = {}
    try:
        for section, keys in _SECTION_KEYS.items():
            block = raw[section]
            if not isinstance(block, dict):
                raise ParseError(f"config section {section!r} must be a "
                                 f"JSON object, got {block!r}")
            kind = int if section == "dimensions" else np.ndarray
            for key in keys:
                kw[key] = _value(key, block[key], kind)
        kw["T"] = _value("horizon", raw["horizon"], float)
        kw["gamma"] = _value("gamma", raw["gamma"], float)
        kw["grid_steps"] = _value("grid_steps", raw["grid_steps"], int)
    except KeyError as e:
        raise ParseError(f"config {path} is missing key {e}") from e
    if "pd_floor" in raw:
        kw["pd_floor"] = _value("pd_floor", raw["pd_floor"], float)

    p = ModelParams(**kw)
    report = validate_assumptions(p)
    if not report.ok:
        bad = ", ".join(f"{c.name} (margin {c.margin:.3e})" for c in report.failures)
        raise ValueError(f"config {path} violates standing assumptions: {bad}")
    return p


def save_config(p: ModelParams, path) -> None:
    """Inverse of load_config; float values round-trip exactly through repr."""
    doc = {
        "dimensions": {"n": p.n, "mL": p.mL, "mF": p.mF, "nv": p.nv},
        "horizon": p.T,
        "gamma": p.gamma,
        "grid_steps": p.grid_steps,
        "pd_floor": p.pd_floor,
    }
    for section, keys in _SECTION_KEYS.items():
        if section == "dimensions":
            continue
        doc[section] = {k: getattr(p, k).tolist() for k in keys}
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
