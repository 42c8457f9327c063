"""Efficiency-optimal operating points under voltage and current limits.

Farm power, grid power, both squared end currents and every squared node
voltage or current of a segment profile are Hermitian forms
q2*|xi|^2 + Re(w*xi) + q0 of (xi, 1) that scale with v2^2.  So efficiency
depends on the scaling xi only, "transmit exactly p" pins v2 = sqrt(p/c),
and every limit is a circle in the xi plane (|xi| = alpha, c = p/v2^2,
p*|i|^2 = 3*I^2*farm, ...), along which every form is a sinusoid in the
circle's angle.  Each objective is, piece by piece, a ratio of two forms:
eta = g/c at a given production, delivered power g*v2^2 with v2 at its
lowest limit in max_feasible_power.  Its maximum lies at a stationary
point of one ratio (a 2x2 pencil eigenvector), at a stationary point along
one circle or window ray, or where two meet; _solve checks every such
candidate and keeps the best feasible one.  An opt-in internal check that
fails adds the worst node's limit as one more circle per v2 piece, and the
solve repeats.  Ties go to lower v2, then lower alpha.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

from .cable_model import (MAX_POINTS, CableSpec, SegmentProfile, TwoPort, exact_pi_two_port,
                          segment_profile)
from .errors import Infeasible, NoPositivePower
from .power_flow import FlowSolution, OperatingPoint, VoltageScaling, solve_flow, unit_flow

TIE_TOL = 1e-9
# limits checked exactly are drawn this fraction inside, so rounding leaves
# the points on their circles on the feasible side; the internal checks pass
# up to this fraction above, and an alpha this close to a bound snaps onto it
_EDGE = 1e-12


class BindingConstraint(enum.Enum):
    V2_MAX = "V2Max"
    V2_MIN = "V2Min"
    CURRENT_LIMIT = "CurrentLimit"
    ALPHA_MAX = "AlphaMax"
    ALPHA_MIN = "AlphaMin"
    INTERNAL_VOLTAGE = "InternalVoltage"


@dataclass(frozen=True)
class Constraints:
    """Operating box and ratings for the optimizer.

    i_rated of None means "use the cable's own rated current".  The
    internal checks run a segment profile per candidate and are off by
    default; check_internal_voltage_max is a phase-voltage cap in p.u.
    """

    v2_min: float = 0.4
    v2_max: float = 1.0
    alpha_min: float = 1.0
    alpha_max: float = 1.1
    i_rated: float | None = None
    check_internal_current: bool = False
    check_internal_voltage_max: float | None = None
    n_profile_segments: int = 100

    def __post_init__(self):
        if not (0.0 < self.v2_min <= self.v2_max):
            raise ValueError(f"need 0 < v2_min <= v2_max, got [{self.v2_min}, {self.v2_max}]")
        # the searches divide by both squares: no infinity, overflow or underflow
        if not (self.v2_min * self.v2_min > 0.0 and math.isfinite(self.v2_max * self.v2_max)):
            raise ValueError(f"v2 bounds [{self.v2_min}, {self.v2_max}] must square to finite, > 0")
        if not (0.0 < self.alpha_min <= self.alpha_max < math.inf):
            raise ValueError(f"need 0 < alpha_min <= alpha_max < inf, "
                             f"got [{self.alpha_min}, {self.alpha_max}]")
        if self.i_rated is not None and not self.i_rated > 0.0:
            raise ValueError(f"i_rated must be > 0, got {self.i_rated}")
        if not 1 <= self.n_profile_segments <= MAX_POINTS:
            raise ValueError(f"n_profile_segments must be in [1, {MAX_POINTS}]")

    def rated_current(self, spec: CableSpec) -> float:
        return self.i_rated if self.i_rated is not None else spec.rated_current

    def fixed_v2(self, v2: float) -> "Constraints":
        return replace(self, v2_min=v2, v2_max=v2)

    def with_v2_range(self, v2_min: float, v2_max: float) -> "Constraints":
        return replace(self, v2_min=v2_min, v2_max=v2_max)


@dataclass(frozen=True)
class OptimumPoint:
    operating_point: OperatingPoint
    flow: FlowSolution
    binding_constraints: frozenset[BindingConstraint] = field(default_factory=frozenset)

    @property
    def eta(self) -> float | None:
        return self.flow.eta


@dataclass(frozen=True)
class EnvelopePoint:
    """Maximum deliverable power at one (length, voltage) combination."""

    length_km: float
    v2: float
    p_grid_max: float
    p_farm_at_max: float
    feasible: bool = True


@dataclass(frozen=True)
class TransferEnvelope:
    points: tuple[EnvelopePoint, ...]
    envelope: tuple[EnvelopePoint, ...]


@dataclass(frozen=True)
class CurvePoint:
    """One point of the optimal-voltage curve v2 = sqrt(p_farm/c)."""

    p_farm: float
    v2_opt: float
    exceeds_v2_max: bool
    exceeds_current: bool


# ---------------------------------------------------------------------------
# Hermitian forms of x = (x1, x2), xi = x1/x2: (q2, w, q0) is the matrix
# [[q2, conj(w)/2], [w/2, q0]], valued q2*|x1|^2 + Re(w*x1*conj(x2)) + q0*|x2|^2

_ONE = (0.0, 0j, 1.0)
_ID = (1.0, 0j, 1.0)


def _abs2(p: complex, q: complex):
    """The form |p*xi + q|^2."""
    return abs(p) ** 2, 2.0 * p * q.conjugate(), abs(q) ** 2


def _sub(f, g, k: float = 1.0):
    """The form f - k*g; _ONE as g subtracts the constant k, even an infinite one."""
    return tuple(x - k * y if y else x for x, y in zip(f, g))


def _herm(f, x, y) -> complex:
    """x^H F y for the matrix F of form f."""
    q2, w, q0 = f
    return (x[0].conjugate() * (q2 * y[0] + 0.5 * w.conjugate() * y[1])
            + x[1].conjugate() * (0.5 * w * y[0] + q0 * y[1]))


def _quad_roots(a: float, b: float, c: float) -> list[float]:
    """Real roots of a*t^2 + b*t + c."""
    if a == 0.0:
        return [-c / b] if b != 0.0 else []
    disc = b * b - 4.0 * a * c
    if not disc >= 0.0:
        return []
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    return [q / a, c / q] if q != 0.0 else [0.0]


def _eig(num, den) -> list[tuple[float, tuple[complex, complex]]]:
    """(lam, x) per real eigenpair of the pencil num - lam*den: num/den is stationary at x1/x2."""
    (n2, nw, n0), (d2, dw, d0) = num, den
    out = []
    for lam in _quad_roots(d2 * d0 - 0.25 * abs(dw) ** 2,
                           0.5 * (nw.conjugate() * dw).real - n2 * d0 - n0 * d2,
                           n2 * n0 - 0.25 * abs(nw) ** 2):
        m2, mw, m0 = n2 - lam * d2, nw - lam * dw, n0 - lam * d0
        # null vector of the heavier row of [[m2, conj(mw)/2], [mw/2, m0]]
        out.append((lam, (-0.5 * mw.conjugate(), m2) if abs(m2) >= abs(m0) else (m0, -0.5 * mw)))
    return out


def _circle(f):
    """(u, v) such that x = e^{j*phi}*u + v traces the zero set of f; None when it has none.

    u and v are the eigenvectors of F scaled to u^H F u = 1 = -v^H F v; a
    line is a circle through x2 = 0.
    """
    pairs = sorted(_eig(f, _ID), key=lambda pair: -pair[0])
    if len(pairs) != 2 or not pairs[1][0] < 0.0 < pairs[0][0]:
        return None             # definite or singular: one point or nothing
    return tuple(tuple(x / math.sqrt(abs(lam) * (abs(e[0]) ** 2 + abs(e[1]) ** 2)) for x in e)
                 for lam, e in pairs)


def _along(uv, f):
    """Form f along circle uv as the sinusoid (k0, kc, ks) in phi."""
    u, v = uv
    m = _herm(f, u, v)
    return (_herm(f, u, u) + _herm(f, v, v)).real, 2.0 * m.real, 2.0 * m.imag


def _sinusoid_roots(k0: float, kc: float, ks: float) -> list[float]:
    """Zeros of k0 + kc*cos(phi) + ks*sin(phi) = k0 + r*cos(phi - theta).

    Tangent zeros, where the sinusoid touches zero without a sign change, are left out.
    """
    r = math.hypot(kc, ks)
    if r <= abs(k0):
        return []
    theta, half = math.atan2(ks, kc), math.acos(-k0 / r)
    return [theta - half, theta + half]


def _ratio_stationary(num, den) -> list[float]:
    """Angles where num/den is stationary: num'*den - num*den' is a sinusoid."""
    (f0, fc, fs), (g0, gc, gs) = den, num
    return _sinusoid_roots(gs * fc - gc * fs, gs * f0 - g0 * fs, g0 * fc - gc * f0)


def _points(circles, ratios, lo: float, hi: float) -> list[tuple[float, float]]:
    """(alpha, beta) in the beta window of every candidate maximum of a ratio.

    The pencil eigenvectors of each ratio; along each circle its meetings
    with the later circles and each ratio's stationary points; the same
    along each window ray, traced as xi = e^{j*beta}*tan(phi/2), which
    meets every circle.
    """
    xis = [x1 / x2 for num, den in ratios for _, (x1, x2) in _eig(num, den) if x2 != 0.0]
    curves = [(_circle(f), circles[i + 1:], None) for i, f in enumerate(circles)]
    curves += [(((-1j * e, 1.0), (1j * e, 1.0)), circles, ray)
               for ray in (lo, hi) for e in (cmath.exp(1j * ray),)]
    out = []
    for uv, others, ray in curves:
        if uv is None:
            continue
        phis = [p for g in others for p in _sinusoid_roots(*_along(uv, g))]
        phis += [p for num, den in ratios for p in _ratio_stationary(_along(uv, num), _along(uv, den))]
        if ray is not None:
            out += [(t, ray) for p in phis if (t := math.tan(0.5 * p)) > 0.0]
            continue
        (u1, u2), (v1, v2) = uv
        xis += [(e * u1 + v1) / x2 for p in phis
                if (x2 := (e := cmath.exp(1j * p)) * u2 + v2) != 0.0]
    return out + [(abs(xi), beta) for xi in xis
                  if cmath.isfinite(xi) and lo <= (beta := cmath.phase(xi)) <= hi]


# ---------------------------------------------------------------------------
# the cable and the candidate solve

class _Cable:
    """Precomputed per-cable quantities for the solves."""

    def __init__(self, spec: CableSpec, constraints: Constraints):
        self.spec = spec
        self.cons = constraints
        self.tp: TwoPort = exact_pi_two_port(spec)
        a, b = self.tp.a, self.tp.b
        self.vph = spec.phase_voltage
        self.vph2 = self.vph**2
        self.i_rated = constraints.rated_current(spec)
        self.internal = (constraints.check_internal_current
                         or constraints.check_internal_voltage_max is not None)
        # farm and grid power and |i1|^2, |i2|^2 per phase at v1 = xi V and
        # v2 = 1 V, as in power_flow.unit_flow: i1 = a*xi + b, i2 = b*xi + a
        self.farm = (a.real, b.conjugate(), 0.0)
        self.grid = (0.0, -b, -a.real)
        self.cur1, self.cur2 = _abs2(a, b), _abs2(b, a)
        # c = 3*V_ph^2*farm rises with beta from arg(b) - pi to arg(b); the
        # windows stay on that branch, within +-90 deg.  The production
        # window takes all of it: negative beta is what the lowest
        # injections need.  The delivery search keeps to beta >= 1e-9.
        self.beta_cap = min(math.pi / 2, cmath.phase(b) - 1e-9)
        self.beta_floor = max(-math.pi / 2, cmath.phase(b) - math.pi + 1e-9)
        self.delivery_window = (1e-9, max(1e-9, self.beta_cap))

    def at(self, alpha: float, beta: float) -> tuple[float, float, float, float]:
        """(c, g, eta, i) at xi = alpha*e^{j*beta}, from power_flow.unit_flow.

        p_farm = c*v2^2 and p_grid = g*v2^2 [W/(p.u.)^2], eta = g/c (-inf
        when c <= 0) and i is the larger end current per p.u. of v2 [A].
        """
        farm, grid, i1, i2 = unit_flow(self.tp, alpha * cmath.exp(1j * beta))
        eta = grid / farm if farm > 0.0 else -math.inf
        return 3.0 * farm * self.vph2, 3.0 * grid * self.vph2, eta, max(abs(i1), abs(i2)) * self.vph

    def profile(self, alpha: float, beta: float, v2: float) -> SegmentProfile:
        v2_volts = v2 * self.vph
        return segment_profile(self.spec, alpha * cmath.exp(1j * beta) * v2_volts, v2_volts,
                               self.cons.n_profile_segments)

    @cached_property
    def node_forms(self):
        """(|V_k|^2, |I_k|^2) forms of the profile nodes at v2 = 1 p.u., grid-end current last.

        The profile is linear in the terminal voltages: node k is xi*P_k + Q_k
        with P and Q the profiles at (V_ph, 0) and (0, V_ph).
        """
        p, q = (segment_profile(self.spec, v1, v2, self.cons.n_profile_segments)
                for v1, v2 in ((self.vph, 0.0), (0.0, self.vph)))
        return ([_abs2(x, y) for x, y in zip(p.node_voltages, q.node_voltages)],
                [_abs2(x, y) for x, y in zip(p.node_currents + (p.grid_end_current,),
                                             q.node_currents + (q.grid_end_current,))])

    def violations(self, cand: "_Candidate") -> list[tuple[tuple, float]]:
        """(node form, limit) of the worst node of each opt-in internal check cand fails."""
        if not self.internal:
            return []
        cons, prof = self.cons, self.profile(cand.alpha, cand.beta, cand.v2)
        v_forms, i_forms = self.node_forms
        checks = []
        if cons.check_internal_current:
            checks.append((prof.node_currents + (prof.grid_end_current,), i_forms, self.i_rated))
        if cons.check_internal_voltage_max is not None:
            checks.append((prof.node_voltages, v_forms, cons.check_internal_voltage_max * self.vph))
        out = []
        for values, forms, limit in checks:
            k = max(range(len(values)), key=lambda j: abs(values[j]))
            if abs(values[k]) > limit * (1 + _EDGE):
                out.append((forms[k], limit))
        return out


@dataclass
class _Candidate:
    score: float     # objective being maximized
    alpha: float
    beta: float
    v2: float


def _better(cand: _Candidate, best: _Candidate | None) -> bool:
    """Deterministic comparison: score, then lower v2, then lower alpha."""
    if best is None:
        return True
    if cand.score > best.score + TIE_TOL:
        return True
    if cand.score < best.score - TIE_TOL:
        return False
    if cand.v2 < best.v2 - TIE_TOL:
        return True
    if cand.v2 > best.v2 + TIE_TOL:
        return False
    return cand.alpha < best.alpha - TIE_TOL


def _solve(cab: _Cable, window: tuple[float, float], bounds, ratios, point,
           pieces=()) -> _Candidate | None:
    """Best point(alpha, beta) by _better over the alpha annulus and the beta window.

    bounds are the forms whose zero circles limit the region or switch the
    objective between pieces, ratios the (num, den) forms it is made of,
    and point checks and scores one candidate.  The internal checks run by
    descending score until one passes; pieces lists (k, den) with v2^2 =
    k/den on each piece of v2, and a candidate above every passing one that
    fails at a new node n, limit L, adds the circle k*n - L^2*den per piece.
    """
    a_lo, a_hi = cab.cons.alpha_min, cab.cons.alpha_max
    circles = [(1.0, 0j, -a_lo * a_lo), (1.0, 0j, -a_hi * a_hi)]
    circles += [f for f in bounds if all(map(cmath.isfinite, f))]
    cuts = []
    while True:
        cands = [cand for alpha, beta in _points(circles, ratios, *window)
                 if a_lo * (1 - _EDGE) <= alpha <= a_hi * (1 + _EDGE)
                 and (cand := point(min(max(alpha, a_lo), a_hi), beta)) is not None]
        best = None
        for cand in sorted(cands, key=lambda c: c.score, reverse=True):
            if _better(cand, best):
                fails = cab.violations(cand)
                if not fails:
                    best = cand
                elif best is None and (new := [cut for cut in fails if cut not in cuts]):
                    break
        else:
            return best
        cuts += new
        circles += [_sub(tuple(k * x for x in form), den, (limit * (1 - _EDGE)) ** 2)
                    for form, limit in new for k, den in pieces]


# ---------------------------------------------------------------------------
# unconstrained scaling optimum

def optimize_scaling_unconstrained(
    spec: CableSpec,
    alpha_range: tuple[float, float] = (1.0, 1.1),
) -> tuple[VoltageScaling, float]:
    """argmax of efficiency over alpha in alpha_range, beta in (0, 90 deg).

    The interior optimum is the top eigenvector of the pencil of grid and
    farm power; on the alpha bounds and the window ends, eta = g/c peaks
    at a stationary point along the circle or ray, all in closed form.
    """
    a_lo, a_hi = alpha_range
    cab = _Cable(spec, Constraints(alpha_min=a_lo, alpha_max=a_hi))

    def point(alpha: float, beta: float) -> _Candidate | None:
        eta = cab.at(alpha, beta)[2]
        return _Candidate(eta, alpha, beta, 0.0) if math.isfinite(eta) else None

    best = _solve(cab, (1e-6, cab.beta_cap), [], [(cab.grid, cab.farm)], point)
    if best is None:
        raise NoPositivePower("no scaling in range yields positive farm power")
    return VoltageScaling(best.alpha, best.beta), best.score


# ---------------------------------------------------------------------------
# optimal-voltage curve (fixed scaling)

def optimal_voltage_curve(
    spec: CableSpec,
    scaling: VoltageScaling,
    p_farm_targets: list[float],
    v2_max: float = 1.0,
    i_rated: float | None = None,
) -> list[CurvePoint]:
    """v2 = sqrt(p_farm/c) per target, flagged against voltage/current limits."""
    cab = _Cable(spec, Constraints(i_rated=i_rated))
    c, _, _, i_unit = cab.at(scaling.alpha, scaling.beta)
    if c <= 0.0:
        raise NoPositivePower(f"farm power coefficient is {c:.3g} W/pu^2 at this scaling")
    out = []
    for p in p_farm_targets:
        if p < 0.0 or not math.isfinite(p):
            raise ValueError(f"farm power target must be >= 0, got {p}")
        v2 = math.sqrt(p / c)
        out.append(CurvePoint(
            p_farm=p,
            v2_opt=v2,
            exceeds_v2_max=v2 > v2_max,
            exceeds_current=i_unit * v2 > cab.i_rated,
        ))
    return out


# ---------------------------------------------------------------------------
# constrained optimum at a required production level

def _optimum(cab: _Cable, best: _Candidate) -> OptimumPoint:
    """The search winner as an OptimumPoint: the reference flow plus the limits it meets."""
    cons, alpha, beta, v2, rel = cab.cons, best.alpha, best.beta, best.v2, 1e-6
    a_span = max(cons.alpha_max - cons.alpha_min, 1e-9)
    v_cap = cons.check_internal_voltage_max
    meets = {
        BindingConstraint.V2_MAX: v2 >= cons.v2_max * (1 - rel),
        BindingConstraint.V2_MIN: v2 <= cons.v2_min * (1 + rel),
        BindingConstraint.CURRENT_LIMIT: cab.at(alpha, beta)[3] * v2 >= cab.i_rated * (1 - rel),
        BindingConstraint.ALPHA_MAX: cons.alpha_max - alpha <= rel * a_span,
        BindingConstraint.ALPHA_MIN: alpha - cons.alpha_min <= rel * a_span,
        BindingConstraint.INTERNAL_VOLTAGE: v_cap is not None and (
            cab.profile(alpha, beta, v2).max_voltage >= v_cap * cab.vph * (1 - rel)),
    }
    op = OperatingPoint(v2, VoltageScaling(alpha, beta))
    return OptimumPoint(op, solve_flow(cab.spec, op), frozenset(c for c, m in meets.items() if m))


def _production_point(cab: _Cable, cons: Constraints, alpha: float, beta: float,
                      p_farm: float) -> _Candidate | None:
    """The point injecting p_farm at (alpha, beta), if it meets the box and rating."""
    c, _, e, i = cab.at(alpha, beta)
    if c <= 0.0:
        return None
    v2 = math.sqrt(p_farm / c)
    if not (cons.v2_min * (1 - 1e-9) <= v2 <= cons.v2_max * (1 + 1e-9)):
        return None
    return None if i * v2 > cab.i_rated else _Candidate(e, alpha, beta, v2)


def optimize_at_production(spec: CableSpec, p_farm: float,
                           constraints: Constraints | None = None) -> OptimumPoint:
    """Most efficient feasible way to inject exactly p_farm watts.

    The v2 box is the pair of circles c = p_farm/v2^2 and each rating the
    circle p_farm*|i|^2 = 3*I^2*farm.  Raises Infeasible when no (v2, xi)
    in the box transmits p_farm within ratings; the caller decides how to
    treat the shortfall.
    """
    if not (p_farm > 0.0 and math.isfinite(p_farm)):
        raise ValueError(f"p_farm must be > 0 W, got {p_farm}")
    cons = constraints if constraints is not None else Constraints()
    cab = _Cable(spec, cons)

    k = p_farm / (3.0 * cab.vph2)      # v2^2 = k/farm
    shrunk = 3.0 * (cab.i_rated * (1.0 - _EDGE)) ** 2 / p_farm
    bounds = [_sub(cab.farm, _ONE, k / (v2 * v2)) for v2 in (cons.v2_min, cons.v2_max)]
    bounds += [_sub(cur, cab.farm, shrunk) for cur in (cab.cur1, cab.cur2)]
    best = _solve(cab, (cab.beta_floor, cab.beta_cap), bounds, [(cab.grid, cab.farm)],
                  lambda alpha, beta: _production_point(cab, cons, alpha, beta, p_farm),
                  [(k, cab.farm)])
    if best is None:
        raise Infeasible(
            f"no operating point in the box transmits {p_farm/1e6:.3f} MW "
            f"within v2 in [{cons.v2_min}, {cons.v2_max}] p.u. and "
            f"{cab.i_rated:.0f} A"
        )
    return _optimum(cab, best)


# ---------------------------------------------------------------------------
# maximum deliverable power

def _delivery_probe(cab: _Cable, cons: Constraints, alpha: float, beta: float,
                    p_farm_cap: float | None) -> _Candidate | None:
    c, g, _, i = cab.at(alpha, beta)
    v2_cap = min(cons.v2_max, cab.i_rated / i)
    if p_farm_cap is not None and c > 0.0:
        v2_cap = min(v2_cap, math.sqrt(p_farm_cap / c))
    if v2_cap < cons.v2_min * (1 - 1e-12):
        return None
    # delivery grows with v2 when g > 0; otherwise park at the floor
    v2 = max(v2_cap, cons.v2_min) if g > 0.0 else cons.v2_min
    return _Candidate(g * v2 * v2, alpha, beta, v2)


def max_feasible_power(
    spec: CableSpec,
    constraints: Constraints | None = None,
    p_farm_cap: float | None = None,
) -> tuple[float, float, OptimumPoint]:
    """Maximize delivered grid power over the whole operating box.

    Returns (p_farm_at_max, p_grid_max, point).  With p_farm_cap set, the
    injected power is additionally capped (used for curtailment
    accounting, where a farm cannot inject more than it produces).

    v2 is the lowest of v2_max, the rating I/|i_k| and sqrt(cap/c) (v2_min
    when g <= 0), so g*v2^2 is g, g/|i_k|^2 or g/c times a constant.  The
    pieces switch and feasibility ends on circles; the extremes of |i_k|^2
    are candidates too, so a box with a feasible point is never Infeasible.
    """
    if p_farm_cap is not None and not p_farm_cap > 0.0:
        raise ValueError(f"p_farm_cap must be > 0 W, got {p_farm_cap}")
    cons = constraints if constraints is not None else Constraints()
    cab = _Cable(spec, cons)

    curs = (cab.cur1, cab.cur2)
    # |i_k|^2 per unit volt where the rating binds at each v2 bound, squared
    # as r*r: r**2 would raise, not give inf, when a tiny v2 overflows it
    levels = [r * r for v2 in (cons.v2_min, cons.v2_max) for r in (cab.i_rated / (cab.vph * v2),)]
    bounds = [_sub(cab.cur1, cab.cur2)] + [_sub(cur, _ONE, q) for cur in curs for q in levels]
    ratios = [(cab.grid, _ONE)] + [(num, den) for cur in curs for num, den in
                                   ((cab.grid, cur), (cur, _ONE))]
    pieces = [(v2 * v2, _ONE) for v2 in (cons.v2_min, cons.v2_max)]
    pieces += [(cab.i_rated**2 / cab.vph2, cur) for cur in curs]
    if p_farm_cap is not None:
        k = 3.0 * cab.i_rated**2 / p_farm_cap   # c*v2^2 = cap where farm = q/k
        bounds += [_sub(cab.farm, _ONE, q / k) for q in levels] + [_sub(cur, cab.farm, k) for cur in curs]
        ratios.append((cab.grid, cab.farm))
        pieces.append((p_farm_cap / (3.0 * cab.vph2), cab.farm))
    best = _solve(cab, cab.delivery_window, bounds, ratios,
                  lambda alpha, beta: _delivery_probe(cab, cons, alpha, beta, p_farm_cap), pieces)
    if best is None:
        raise Infeasible(
            f"charging current alone exceeds {cab.i_rated:.0f} A at "
            f"v2 = {cons.v2_min} p.u.; even zero-power operation violates limits"
        )
    point = _optimum(cab, best)
    return point.flow.p_farm, point.flow.p_grid, point


def transfer_envelope(
    spec_template: CableSpec,
    lengths: list[float],
    v2_values: list[float],
    constraints: Constraints | None = None,
) -> TransferEnvelope:
    """Capability study: thin fixed-voltage curves plus the upper envelope.

    Per (length, v2) the deliverable maximum at that fixed voltage; per
    length also the maximum with v2 free inside the constraint box.
    Infeasible combinations are recorded as zero capability, not errors.
    """
    if not lengths or not v2_values:
        raise ValueError("lengths and v2_values must be non-empty")
    cons = constraints if constraints is not None else Constraints()

    def capability(spec: CableSpec, box: Constraints) -> EnvelopePoint:
        try:
            pf, pg, point = max_feasible_power(spec, box)
        except Infeasible:
            return EnvelopePoint(spec.length_km, box.v2_min, 0.0, 0.0, feasible=False)
        if not pg > 0.0:
            pf = pg = 0.0
        return EnvelopePoint(spec.length_km, point.operating_point.v2, pg, pf)

    points, envelope = [], []
    for length in lengths:
        spec = spec_template.with_length(length)
        points += [capability(spec, cons.fixed_v2(v2)) for v2 in v2_values]
        envelope.append(capability(spec, cons))
    return TransferEnvelope(tuple(points), tuple(envelope))
