"""Efficiency-optimal operating points under voltage and current limits.

The key structural facts exploited here:

* efficiency depends on the scaling xi only, never on v2;
* for fixed xi, farm power is c(xi)*v2^2 and currents scale linearly in
  v2, so "transmit exactly p" pins v2 = sqrt(p/c(xi)) and feasibility of
  a scaling is a closed-form check;
* at fixed alpha, farm and grid power and both squared end currents are
  sinusoids k0 + kc*cos(beta) + ks*sin(beta), and c rises with beta
  below arg(b).

So at fixed alpha the v2-box interval, the current-rating boundaries and
the stationary points of eta = g/c are each one acos, and the optimum is
the best feasible one of them.  Only alpha is searched: a 0.005 grid with
both bounds, then a golden-section refinement.  The unconstrained optimum
is the same search without limits.  The delivery search
(max_feasible_power) solves each alpha the same way: delivered power
g*v2^2 is, piece by piece, g, g/|i|^2 or g/c times a constant, so its
maximum is at a switch between pieces or a stationary point of one.  Ties
go to lower v2, then lower alpha.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass, field, replace

from .cable_model import (MAX_POINTS, CableSpec, SegmentProfile, TwoPort, exact_pi_two_port,
                          segment_profile)
from .errors import Infeasible, NoPositivePower
from .power_flow import FlowSolution, OperatingPoint, VoltageScaling, solve_flow, unit_flow

ALPHA_GRID_STEP = 0.005
ALPHA_TOL = 1e-10
# the delivery maximum mostly sits at a kink in alpha, where two limits bind at
# once, so an alpha error costs delivery in proportion: 1e-10 cost up to 2e-11
DELIVERY_ALPHA_TOL = 1e-13
TIE_TOL = 1e-9
_BETA_SAMPLES = 41
_BISECT_ROUNDS = 40
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# current-boundary roots are solved at a rating shrunk by this fraction, so
# rounding leaves them on the feasible side of the exact rating check
_RATING_SHRINK = 1e-12


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
# scalar evaluation helpers

class _Cable:
    """Precomputed per-cable quantities for the search loops."""

    def __init__(self, spec: CableSpec, constraints: Constraints):
        self.spec = spec
        self.cons = constraints
        self.tp: TwoPort = exact_pi_two_port(spec)
        self.a, self.b = self.tp.a, self.tp.b
        self.vph = spec.phase_voltage
        self.vph2 = self.vph**2
        self.i_rated = constraints.rated_current(spec)
        self.internal = (constraints.check_internal_current
                         or constraints.check_internal_voltage_max is not None)
        # c(beta) = alpha^2*Re(a) + alpha*|b|*cos(beta - arg(b)) rises from
        # arg(b) - pi to arg(b); the searches stay on that branch, within
        # +-90 deg, so c is monotone.  The production window takes all of
        # it: negative beta is what the lowest injections need.  The delivery
        # search keeps to beta >= 1e-9.
        self.beta_cap = min(math.pi / 2, cmath.phase(self.b) - 1e-9)
        self.beta_floor = max(-math.pi / 2, cmath.phase(self.b) - math.pi + 1e-9)
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

    def internal_ok(self, alpha: float, beta: float, v2: float) -> bool:
        if not self.internal:
            return True
        cons = self.cons
        prof = self.profile(alpha, beta, v2)
        if cons.check_internal_current and prof.max_current > self.i_rated * (1 + 1e-12):
            return False
        if cons.check_internal_voltage_max is not None:
            if prof.max_voltage > cons.check_internal_voltage_max * self.vph * (1 + 1e-12):
                return False
        return True

    def sinusoids(self, alpha: float):
        """(k0, kc, ks) with value k0 + kc*cos(beta) + ks*sin(beta) at this alpha.

        In order: farm power and grid power per 3*V_ph^2 (so c is
        3*V_ph^2 times the first), |a*xi + b|^2 and |b*xi + a|^2.
        """
        a, b = self.a, self.b
        z = 2.0 * alpha * a * b.conjugate()
        return (
            (alpha * alpha * a.real, alpha * b.real, alpha * b.imag),
            (-a.real, -alpha * b.real, alpha * b.imag),
            (alpha * alpha * abs(a) ** 2 + abs(b) ** 2, z.real, -z.imag),
            (alpha * alpha * abs(b) ** 2 + abs(a) ** 2, z.real, z.imag),
        )

    def rating_level(self, v2: float) -> float:
        """|a*xi + b|^2 or |b*xi + a|^2 where that end current meets the rating at v2."""
        r = self.i_rated / (self.vph * v2)
        return r * r   # r**2 would raise, not give inf, when a tiny v2 overflows it

    def beta_for_coeff(self, alpha: float, target: float) -> float:
        """beta <= arg(b) where c == target, in closed form.

        Targets beyond the range of c map to arg(b) - pi or arg(b).
        """
        x = (target / (3.0 * self.vph**2) - alpha * alpha * self.a.real) / (alpha * abs(self.b))
        return cmath.phase(self.b) - math.acos(min(max(x, -1.0), 1.0))


def _sinusoid_roots(k0: float, kc: float, ks: float, lo: float, hi: float) -> list[float]:
    """Zeros of k0 + kc*cos(beta) + ks*sin(beta) = k0 + r*cos(beta - theta) in [lo, hi].

    Tangent zeros, where the sinusoid touches zero without a sign change, are left out.
    """
    r = math.hypot(kc, ks)
    if r <= abs(k0):
        return []
    theta, half = math.atan2(ks, kc), math.acos(-k0 / r)
    return [x for x in (lo + (t - lo) % math.tau for t in (theta - half, theta + half)) if x <= hi]


def _ratio_stationary(num, den, lo: float, hi: float) -> list[float]:
    """Betas in [lo, hi] where num/den is stationary: num'*den - num*den' is a sinusoid."""
    (f0, fc, fs), (g0, gc, gs) = den, num
    return _sinusoid_roots(gs * fc - gc * fs, gs * f0 - g0 * fs, g0 * fc - gc * f0, lo, hi)


_ONE = (1.0, 0.0, 0.0)


def _sub(k, m, f: float = 1.0):
    """The sinusoid k - f*m; _ONE as m subtracts the constant f, even an infinite one."""
    return tuple(x - f * y if y else x for x, y in zip(k, m))


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


def _pick(cab: _Cable, cands: list[_Candidate]) -> _Candidate | None:
    """Best candidate by _better that passes the opt-in internal checks.

    Visiting by descending score runs the costly checks only until one passes.
    """
    best = None
    for cand in sorted(cands, key=lambda c: c.score, reverse=True):
        if _better(cand, best) and cab.internal_ok(cand.alpha, cand.beta, cand.v2):
            best = cand
    return best


def _best_at_alpha(cab: _Cable, betas: list[float], lo: float, hi: float, point) -> _Candidate | None:
    """Best point(beta) by _pick over closed-form betas in [lo, hi].

    A binding internal limit has no closed form: with the internal checks on,
    an even sample joins the betas, and the limit is bisected between the best
    passing point and the nearest better one that failed it.
    """
    if cab.internal:
        betas += [lo + (hi - lo) * j / (_BETA_SAMPLES - 1) for j in range(1, _BETA_SAMPLES - 1)]
    cands = [cand for beta in betas if (cand := point(beta))]
    best = _pick(cab, cands)
    failed = [c.beta for c in cands if c.score > best.score] if cab.internal and best else []
    if failed:
        ok, bad = best.beta, min(failed, key=lambda b: abs(b - best.beta))
        for _ in range(_BISECT_ROUNDS):
            mid = 0.5 * (ok + bad)
            cand = point(mid)
            if cand is not None and cab.internal_ok(cand.alpha, mid, cand.v2):
                ok, best = mid, (cand if cand.score > best.score else best)
            else:
                bad = mid
    return best


def _alpha_search(a_lo: float, a_hi: float, solve, shortfall, tol=ALPHA_TOL) -> _Candidate | None:
    """Best solve(alpha) over [a_lo, a_hi]; None when no alpha gives a point.

    The ALPHA_GRID_STEP grid (bounds included) picks a cell; golden-section
    search refines one grid step either side, down to tol.  It ranks
    infeasible alphas below feasible ones by -shortfall(alpha), so it also
    climbs into a feasible sliver narrower than the grid step.  A refined
    point must beat the grid winner's score strictly: TIE_TOL orders the
    grid but cannot stop the refinement short of the maximum.
    """
    def probe(alpha: float):
        cand = solve(alpha)
        return ((1, cand.score) if cand is not None else (0, -shortfall(alpha))), cand

    n = max(2, int(round((a_hi - a_lo) / ALPHA_GRID_STEP)) + 1) if a_hi > a_lo else 1
    grid = [a_lo + (a_hi - a_lo) * k / max(n - 1, 1) for k in range(n)]
    best = None
    for alpha in grid:
        cand = solve(alpha)
        if cand is not None and _better(cand, best):
            best = cand
    if n == 1:
        return best
    center = best.alpha if best is not None else min(grid, key=shortfall)
    step = grid[1] - grid[0]
    lo, hi = max(a_lo, center - step), min(a_hi, center + step)
    x1, x2 = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
    (k1, c1), (k2, c2) = probe(x1), probe(x2)
    while True:
        for cand in (c1, c2):
            if cand is not None and (best is None or cand.score > best.score):
                best = cand
        if hi - lo <= tol:
            return best
        if k1 >= k2:
            hi, x2, k2, c2 = x2, x1, k1, c1
            x1 = hi - _GOLDEN * (hi - lo)
            k1, c1 = probe(x1)
        else:
            lo, x1, k1, c1 = x1, x2, k2, c2
            x2 = lo + _GOLDEN * (hi - lo)
            k2, c2 = probe(x2)


# ---------------------------------------------------------------------------
# unconstrained scaling optimum

def optimize_scaling_unconstrained(
    spec: CableSpec,
    alpha_range: tuple[float, float] = (1.0, 1.1),
) -> tuple[VoltageScaling, float]:
    """argmax of efficiency over alpha in alpha_range, beta in (0, 90 deg).

    At each alpha the best beta is a window end or a stationary point of
    eta, found in closed form; alpha is searched by _alpha_search.
    """
    a_lo, a_hi = alpha_range
    cab = _Cable(spec, Constraints(alpha_min=a_lo, alpha_max=a_hi))
    b_lo, b_hi = 1e-6, cab.beta_cap

    def solve(alpha: float) -> _Candidate | None:
        farm, grid, _, _ = cab.sinusoids(alpha)
        betas = [b_lo, b_hi] + _ratio_stationary(grid, farm, b_lo, b_hi)
        return _pick(cab, [_Candidate(e, alpha, beta, 0.0) for beta in betas
                           if math.isfinite(e := cab.at(alpha, beta)[2])])

    best = _alpha_search(a_lo, a_hi, solve, lambda alpha: 0.0)
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


def _production_at_alpha(cab: _Cable, cons: Constraints, p_farm: float,
                         alpha: float) -> _Candidate | None:
    """Most efficient point injecting p_farm at this alpha, or None.

    c rises with beta on the window, so v2 = sqrt(p/c) lies in the box on
    the beta interval [lo, hi] between the inverses of its two c targets.
    Minus the stretches where an end current exceeds the rating,
    p*|i|^2 > 3*I^2*farm, that leaves the feasible set; eta peaks on it at
    an interval end, a current-boundary root or a stationary point.
    """
    lo = max(cab.beta_floor, cab.beta_for_coeff(alpha, p_farm / cons.v2_max**2))
    hi = min(cab.beta_cap, cab.beta_for_coeff(alpha, p_farm / cons.v2_min**2))
    if lo > hi:
        return None
    farm, grid, cur1, cur2 = cab.sinusoids(alpha)
    k = 3.0 * (cab.i_rated * (1.0 - _RATING_SHRINK)) ** 2 / p_farm
    betas = [lo, hi] + _ratio_stationary(grid, farm, lo, hi)
    for cur in (cur1, cur2):
        betas += _sinusoid_roots(*_sub(cur, farm, k), lo, hi)
    return _best_at_alpha(cab, betas, lo, hi,
                          lambda beta: _production_point(cab, cons, alpha, beta, p_farm))


def _shortfall(cab: _Cable, cons: Constraints, p_farm: float, alpha: float) -> float:
    """How far p_farm lies outside the injectable range at this alpha [W].

    The least injection is c(beta_floor)*v2_min^2.  For the most, v2 rises
    to the lower of v2_max and the rating, and p = c*v2^2 peaks at a window
    end, where the binding limit switches (|i1| = |i2|, or a current meets
    the rating at v2_max) or where c/|i|^2 is stationary.
    """
    farm, _, cur1, cur2 = cab.sinusoids(alpha)
    lo, hi = cab.beta_floor, cab.beta_cap
    q_box = cab.rating_level(cons.v2_max)
    betas = [lo, hi] + _sinusoid_roots(*_sub(cur1, cur2), lo, hi)
    for cur in (cur1, cur2):
        betas += _sinusoid_roots(*_sub(cur, _ONE, q_box), lo, hi)
        betas += _ratio_stationary(farm, cur, lo, hi)
    best = 0.0
    for beta in betas:
        c, _, _, i = cab.at(alpha, beta)
        v2 = min(cons.v2_max, cab.i_rated / i)
        if v2 >= cons.v2_min:
            best = max(best, c * v2 * v2)
    return max(p_farm - best, cab.at(alpha, cab.beta_floor)[0] * cons.v2_min**2 - p_farm)


def optimize_at_production(spec: CableSpec, p_farm: float,
                           constraints: Constraints | None = None) -> OptimumPoint:
    """Most efficient feasible way to inject exactly p_farm watts.

    The scaling is searched over the constraint box; v2 follows from the
    power equality and is checked against the voltage box and the current
    rating.  Raises Infeasible when no (v2, xi) in the box transmits
    p_farm within ratings; the caller decides how to treat the shortfall.
    """
    if not (p_farm > 0.0 and math.isfinite(p_farm)):
        raise ValueError(f"p_farm must be > 0 W, got {p_farm}")
    cons = constraints if constraints is not None else Constraints()
    cab = _Cable(spec, cons)

    best = _alpha_search(cons.alpha_min, cons.alpha_max,
                         lambda alpha: _production_at_alpha(cab, cons, p_farm, alpha),
                         lambda alpha: _shortfall(cab, cons, p_farm, alpha))
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


def _delivery_at_alpha(cab: _Cable, cons: Constraints, alpha: float,
                       p_farm_cap: float | None) -> _Candidate | None:
    """Most delivered power at this alpha, or None.

    v2 is the lowest of v2_max, the rating I/|i_k| and sqrt(cap/c) (v2_min
    when g <= 0), so g*v2^2 is g, g/|i_k|^2 or g/c times a constant: it peaks
    at a window end, a switch of piece or feasibility, or a stationary point.
    """
    farm, grid, cur1, cur2 = cab.sinusoids(alpha)
    lo, hi = cab.delivery_window
    qs = [cab.rating_level(v2) for v2 in (cons.v2_min, cons.v2_max)]
    zeros = [_sub(cur1, cur2)] + [_sub(cur, _ONE, q) for cur in (cur1, cur2) for q in qs]
    ratios = [(grid, _ONE), (grid, cur1), (grid, cur2)]
    if p_farm_cap is not None:
        k = 3.0 * cab.i_rated**2 / p_farm_cap   # c*v2^2 = cap where farm = q/k
        zeros += [_sub(farm, _ONE, q / k) for q in qs] + [_sub(cur, farm, k) for cur in (cur1, cur2)]
        ratios.append((grid, farm))
    betas = [lo, hi] + [beta for z in zeros for beta in _sinusoid_roots(*z, lo, hi)]
    betas += [beta for num, den in ratios for beta in _ratio_stationary(num, den, lo, hi)]
    return _best_at_alpha(cab, betas, lo, hi,
                          lambda beta: _delivery_probe(cab, cons, alpha, beta, p_farm_cap))


def _charging_excess(cab: _Cable, cons: Constraints, alpha: float) -> float:
    """How far the least end current at v2_min exceeds the rating at this alpha [A]."""
    _, _, cur1, cur2 = cab.sinusoids(alpha)
    lo, hi = cab.delivery_window
    betas = [lo, hi] + _sinusoid_roots(*_sub(cur1, cur2), lo, hi)
    for cur in (cur1, cur2):
        betas += _ratio_stationary(cur, _ONE, lo, hi)   # where cur is stationary
    return min(cab.at(alpha, beta)[3] for beta in betas) * cons.v2_min - cab.i_rated


def max_feasible_power(
    spec: CableSpec,
    constraints: Constraints | None = None,
    p_farm_cap: float | None = None,
) -> tuple[float, float, OptimumPoint]:
    """Maximize delivered grid power over the whole operating box.

    Returns (p_farm_at_max, p_grid_max, point).  With p_farm_cap set, the
    injected power is additionally capped (used for curtailment
    accounting, where a farm cannot inject more than it produces).
    """
    if p_farm_cap is not None and not p_farm_cap > 0.0:
        raise ValueError(f"p_farm_cap must be > 0 W, got {p_farm_cap}")
    cons = constraints if constraints is not None else Constraints()
    cab = _Cable(spec, cons)

    best = _alpha_search(cons.alpha_min, cons.alpha_max,
                         lambda alpha: _delivery_at_alpha(cab, cons, alpha, p_farm_cap),
                         lambda alpha: _charging_excess(cab, cons, alpha), DELIVERY_ALPHA_TOL)
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
