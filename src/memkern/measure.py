"""Borel measures on (0,1): Dirac atoms plus a piecewise-constant weight density.

A measure here is a finite nonnegative combination

    mu = sum_n q_n * delta(alpha_n)  +  w(alpha) d(alpha),

with the orders alpha_n in (0,1), w finite and piecewise constant on a
partition of (0,1) and a normal (not subnormal) positive mass; a
``MeasureSpec`` that breaks these rules cannot be built.  Every kernel
evaluated downstream is a moment integral against mu, so this module keeps
those moments exact where a closed antiderivative exists (power moments,
oscillatory moments) and falls back to adaptive quadrature for generic
integrands (scipy's ``quad``, imported by ``mu_integral`` alone).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

__all__ = [
    "MeasureError",
    "MeasureSpec",
    "Violation",
    "mass",
    "tail_mass",
    "mu_integral",
    "power_moment",
    "alpha_power_moment",
    "sin_cos_moments",
    "gamma_bar",
]

# |ln t| below this the power-moment antiderivative switches to its t->1 limit
_LOG_SINGULARITY_GUARD = 1e-12


class MeasureError(ValueError):
    """A measure failed validation (every broken rule in ``violations``), or
    an integrand misbehaved on its support (``violations`` empty)."""

    def __init__(self, message: str, violations: tuple = ()):
        super().__init__(message)
        self.violations = violations


@dataclass(frozen=True)
class Violation:
    code: str
    message: str
    pointer: str = ""  # JSON pointer into the measure's dict form

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


@dataclass(frozen=True)
class MeasureSpec:
    """Atoms ``(order, mass)`` plus a piecewise-constant weight on (0,1).

    ``weight_breaks`` is the increasing partition (len m+1) and
    ``weight_values`` holds one density value per piece (len m).  Either
    component may be empty, but not both.  ``gamma_slack`` is the offset used
    when the top of the support is carried by the weight, where the supremum
    of admissible tail levels is not attained.  An inadmissible measure
    raises ``MeasureError`` on construction, with every broken rule.
    """

    atoms: tuple[tuple[float, float], ...] = ()
    weight_breaks: tuple[float, ...] = ()
    weight_values: tuple[float, ...] = ()
    gamma_slack: float = 0.01

    def __post_init__(self):
        bad = _violations(self)
        if bad:
            raise MeasureError(
                "invalid measure: " + "; ".join(map(str, bad)), bad)

    # -- constructors -----------------------------------------------------

    @classmethod
    def single_order(cls, alpha: float, q: float = 1.0, **kw) -> "MeasureSpec":
        return cls(atoms=((float(alpha), float(q)),), **kw)

    @classmethod
    def from_atoms(cls, pairs: Iterable[tuple[float, float]], **kw) -> "MeasureSpec":
        return cls(atoms=tuple((float(a), float(q)) for a, q in pairs), **kw)

    @classmethod
    def uniform_weight(cls, value: float = 1.0, **kw) -> "MeasureSpec":
        return cls(weight_breaks=(0.0, 1.0), weight_values=(float(value),), **kw)

    # -- serialization -----------------------------------------------------

    @classmethod
    def from_dict(cls, data: dict) -> "MeasureSpec":
        atoms = tuple(
            (float(a["alpha"]), float(a["q"])) for a in data.get("atoms", ())
        )
        weight = data.get("weight") or {}
        breaks = tuple(float(b) for b in weight.get("breaks", ()))
        values = tuple(float(v) for v in weight.get("values", ()))
        slack = float(data.get("gamma_slack", 0.01))
        return cls(atoms=atoms, weight_breaks=breaks, weight_values=values,
                   gamma_slack=slack)

    def to_dict(self) -> dict:
        return {
            "atoms": [{"alpha": a, "q": q} for a, q in self.atoms],
            "weight": {"breaks": list(self.weight_breaks),
                       "values": list(self.weight_values)},
            "gamma_slack": self.gamma_slack,
        }

    # -- support helpers ---------------------------------------------------

    def pieces(self) -> Iterator[tuple[float, float, float]]:
        """Yield (a, b, w) for each weight piece, including zero-value ones."""
        for i, w in enumerate(self.weight_values):
            yield self.weight_breaks[i], self.weight_breaks[i + 1], w

    def support_bounds(self) -> tuple[float, float]:
        """Smallest and largest points carrying mass."""
        lows = [a for a, q in self.atoms if q > 0.0]
        highs = lows[:]
        for a, b, w in self.pieces():
            if w > 0.0:
                lows.append(a)
                highs.append(b)
        return min(lows), max(highs)


# ---------------------------------------------------------------------------
# validation


def _violations(spec: MeasureSpec) -> tuple[Violation, ...]:
    """Every broken invariant, with the JSON pointer of its entry."""
    bad: list[Violation] = []

    def flag(failed: bool, code: str, message: str, pointer: str = ""):
        if failed:
            bad.append(Violation(code, message, pointer))

    for i, (a, q) in enumerate(spec.atoms):
        at = f"/atoms/{i}"
        flag(not (0.0 < a < 1.0), "atom_order_range",
             "atom orders must lie in (0,1)", at + "/alpha")
        flag(i > 0 and a <= spec.atoms[i - 1][0], "atom_order_monotone",
             "atom orders must be strictly increasing", at + "/alpha")
        flag(q < 0.0, "atom_mass_negative", "atom masses must be >= 0",
             at + "/q")
        flag(not (math.isfinite(a) and math.isfinite(q)), "atom_not_finite",
             "atom entries must be finite", at)

    breaks, values = spec.weight_breaks, spec.weight_values
    shape_ok = len(values) == len(breaks) - 1 >= 1 or not (breaks or values)
    flag(not shape_ok, "weight_shape", "need len(values) == len(breaks) - 1",
         "/weight")
    for i, b in enumerate(breaks if shape_ok else ()):
        flag(not (0.0 <= b <= 1.0), "weight_break_range",
             "weight breakpoints must lie in [0,1]", f"/weight/breaks/{i}")
        flag(i > 0 and b <= breaks[i - 1], "weight_break_monotone",
             "weight breakpoints must be strictly increasing",
             f"/weight/breaks/{i}")
    for i, v in enumerate(values if shape_ok else ()):
        flag(v < 0.0, "weight_value_negative", "weight density must be >= 0",
             f"/weight/values/{i}")
        flag(not math.isfinite(v), "weight_value_not_finite",
             "weight density must be finite", f"/weight/values/{i}")

    flag(not (0.0 < spec.gamma_slack < 1.0), "gamma_slack_range",
         "gamma_slack must be in (0,1)", "/gamma_slack")
    # a subnormal mass underflows in the tail mass of gamma_bar
    flag(not bad and not mass(spec) >= np.finfo(float).tiny, "zero_measure",
         "total mass must be at least the smallest normal double")
    return tuple(bad)


# ---------------------------------------------------------------------------
# masses and moments


def mass(spec: MeasureSpec) -> float:
    total = sum(q for _, q in spec.atoms)
    total += sum(w * (b - a) for a, b, w in spec.pieces())
    return total


def tail_mass(spec: MeasureSpec, gamma: float) -> float:
    """Mass of [gamma, 1]; an atom sitting exactly at ``gamma`` counts."""
    total = sum(q for a, q in spec.atoms if a >= gamma - 1e-15)
    for a, b, w in spec.pieces():
        lo = max(a, gamma)
        if lo < b:
            total += w * (b - lo)
    return total


def mu_integral(spec: MeasureSpec, g: Callable[[float], float]) -> float:
    """Integrate a generic ``g(alpha)`` against the measure.

    Atoms are summed exactly; each weight piece goes through adaptive
    quadrature at relative tolerance 1e-10.  Raises if ``g`` is non-finite
    anywhere it is sampled on the support.
    """
    from scipy.integrate import quad

    total = 0.0
    for a, q in spec.atoms:
        if q == 0.0:
            continue
        val = g(a)
        if not math.isfinite(val):
            raise MeasureError(f"integrand not finite at atom alpha={a}")
        total += q * val
    for a, b, w in spec.pieces():
        if w == 0.0:
            continue
        val, _err = quad(g, a, b, epsabs=0.0, epsrel=1e-10, limit=200)
        if not math.isfinite(val):
            raise MeasureError(f"integrand not finite on weight piece ({a},{b})")
        total += w * val
    return total


def _power_antiderivative(t, a: float, b: float):
    """Integral of t^(-alpha) over alpha in [a, b] at the array t; exact.

    Near t = 1 the closed form cancels catastrophically, so a short series in
    log t takes over; its leading term is the t = 1 limit b - a.
    """
    log_t = np.log(t)
    small = np.abs(log_t) < 1e-3
    safe = np.where(small, 1.0, log_t)
    regular = (t ** (-a) - t ** (-b)) / safe
    series = ((b - a) - log_t * (b**2 - a**2) / 2.0
              + log_t**2 * (b**3 - a**3) / 6.0
              - log_t**3 * (b**4 - a**4) / 24.0)
    return np.where(small, series, regular)


def _as_time_array(t, positive: bool = True):
    """``(flat, form)``: t (or p) flat as floats, finite and positive
    (nonnegative with ``positive=False``), and the function that gives a
    flat result t's form: an array of t's shape if t is an ndarray (0-d too),
    list or tuple, else a float.  The one time check and form rule of the
    moments, kernels and Phi; the minimum carries a NaN, so two reductions
    check every entry."""
    t_arr = np.asarray(t, dtype=float)
    if t_arr.size:
        lo = t_arr.min()
        if not ((lo > 0.0 or not positive and lo == 0.0)
                and t_arr.max() < math.inf):
            kind = "positive" if positive else "nonnegative"
            raise MeasureError(f"evaluation points must be finite and {kind}")
    if isinstance(t, (np.ndarray, list, tuple)):
        return t_arr.ravel(), lambda out: out.reshape(t_arr.shape)
    return t_arr.ravel(), lambda out: float(out[0])


def power_moment(spec: MeasureSpec, t):
    """Exact moment ``integral of t^(-alpha) d mu(alpha)``, in the form of t
    (``_as_time_array``)."""
    t_arr, form = _as_time_array(t)
    out = np.zeros_like(t_arr)
    for a, q in spec.atoms:
        if q == 0.0:
            continue
        out = out + q * t_arr ** (-a)
    for a, b, w in spec.pieces():
        if w == 0.0:
            continue
        out = out + w * _power_antiderivative(t_arr, a, b)
    return form(out)


def alpha_power_moment(spec: MeasureSpec, t):
    """Exact moment ``integral of alpha * t^(-alpha) d mu(alpha)``."""
    t_arr, form = _as_time_array(t)
    out = np.zeros_like(t_arr)
    for a, q in spec.atoms:
        if q == 0.0:
            continue
        out = out + q * a * t_arr ** (-a)
    m = -np.log(t_arr)  # integrand is alpha * exp(alpha * m)
    for a, b, w in spec.pieces():
        if w == 0.0:
            continue
        # the exact antiderivative cancels catastrophically as m -> 0; the
        # quartic series keeps ~1e-12 relative accuracy up to the switch
        small = np.abs(m) < 1e-3
        m_safe = np.where(small, 1.0, m)
        exact = (np.exp(b * m_safe) * (b * m_safe - 1.0)
                 - np.exp(a * m_safe) * (a * m_safe - 1.0)) / m_safe**2
        series = ((b**2 - a**2) / 2.0 + m * (b**3 - a**3) / 3.0
                  + m**2 * (b**4 - a**4) / 8.0 + m**3 * (b**5 - a**5) / 30.0)
        out = out + w * np.where(small, series, exact)
    return form(out)


def sin_cos_moments(spec: MeasureSpec, p):
    """Oscillatory moments ``(S, C) = (int p^a sin(pi a) dmu, int p^a cos(pi a) dmu)``.

    Exact for both atoms and weight pieces (the piece antiderivatives of
    exp(a log p) sin/cos(pi a) are elementary).  Both in the form of p.
    """
    p_arr, form = _as_time_array(p)
    s, c = _sin_cos_log(spec, np.log(p_arr), p_arr)
    return form(s), form(c)


def _sin_cos_pi(a: float) -> tuple[float, float]:
    """sin(pi a) and cos(pi a) for a in [0, 1], from the exact 1 - a above
    1/2, so that sin keeps its relative accuracy as a -> 1."""
    if a > 0.5:
        return math.sin(math.pi * (1.0 - a)), -math.cos(math.pi * (1.0 - a))
    return math.sin(math.pi * a), math.cos(math.pi * a)


def _sin_cos_log(spec: MeasureSpec, log_p: np.ndarray,
                 p: np.ndarray | None = None, shift: float = 0.0):
    """``sin_cos_moments`` at p = exp(log_p), arrays only, as moments of
    p^(a - shift).  The atoms take p^a from p when it is given (shift 0),
    else as exp((a - shift) log p), which stays exact where p itself under-
    or overflows a double; a shift at an end of the support keeps the
    moments in range there too."""
    s = np.zeros_like(log_p)
    c = np.zeros_like(log_p)
    for a, q in spec.atoms:
        if q > 0.0:
            pa = q * (np.exp((a - shift) * log_p) if p is None else p ** a)
            sin_a, cos_a = _sin_cos_pi(a)
            s, c = s + pa * sin_a, c + pa * cos_a

    def _antiderivatives(alpha):
        # of exp(alpha log p) times sin and cos of pi alpha, over p^shift
        e = np.exp(log_p * (alpha - shift))
        denom = log_p**2 + math.pi**2
        sin_a, cos_a = _sin_cos_pi(alpha)
        return (e * (log_p * sin_a - math.pi * cos_a) / denom,
                e * (log_p * cos_a + math.pi * sin_a) / denom)

    for a, b, w in spec.pieces():
        if w > 0.0:
            (s_b, c_b), (s_a, c_a) = _antiderivatives(b), _antiderivatives(a)
            s, c = s + w * (s_b - s_a), c + w * (c_b - c_a)
    return s, c


# ---------------------------------------------------------------------------
# tail level gamma-bar


def gamma_bar(spec: MeasureSpec) -> float:
    """Largest order level that still carries mass at and above it.

    If the top of the support is an atom with no weight mass above it, that
    atom's order is returned exactly.  Otherwise the top is carried by the
    weight, the supremum is not attained, and we step down by ``gamma_slack``
    (never below the largest atom of positive mass).
    """
    top_atom = max((a for a, q in spec.atoms if q > 0.0), default=None)
    sup_w = max((b for _, b, w in spec.pieces() if w > 0.0), default=None)
    if sup_w is None or top_atom is not None and sup_w <= top_atom:
        gb = top_atom
    else:
        gb = sup_w - spec.gamma_slack
        if top_atom is not None:
            gb = max(gb, top_atom)
        if gb <= 0.0:
            gb = sup_w * (1.0 - spec.gamma_slack)
        # a slack too small to move sup_w would leave gb without mass
        gb = min(gb, math.nextafter(sup_w, 0.0))

    if not (0.0 < gb < 1.0):
        raise MeasureError(f"computed tail level {gb} outside (0,1)")
    if tail_mass(spec, gb) <= 0.0:
        raise MeasureError("tail level carries no mass; malformed measure")
    return gb
