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
one circle or window ray, or where two meet.  One enumeration lists every
such candidate (_points), tracing each form the ratios use once; _solve
keeps the best feasible one; a box solve traces a row's window rays only
where their least end current at v2_min is within the rating.  The
production solve first certifies in closed form the rows whose winner is
the pencil optimum xi* or the top of eta along the v2 circle between xi*
and the box, where no other candidate can come within the tie margin and
the point passes the checks (_certified), and checks candidates for the
other rows only.  A delivery call of 24 rows or more, none capped, does
the same: grid power is linear and the squared end currents convex, so
its score is quasi-concave outside the alpha_min disk; a row whose least
end current over the box exceeds the rating finds nothing (_ruled_out),
and the winner among the enumeration's candidates on the alpha_max,
switch and v2_max rating circles is certified where the points within
the tie margin lie in a small disk that meets no other circle
(_delivered).  Both certificates test that disk against alpha_min, the
beta window and the circles it must not meet in one way (_clear).  The
opt-in internal checks evaluate the node forms, which each cable builds
once from two segment profiles; one that fails adds the worst node's
limit as one more circle per v2 piece, and the solve repeats.  Ties go to
lower v2, then lower alpha.

The solve has a leading row axis: a row is one problem (a cable, a
production level or a farm cap, and a v2 box).  It reads every cable
number from one table of columns over rows (_Rows), which each distinct
cable fills with Python numbers once, so a row does the same
floating-point work as its one-row call; its circles, their sinusoids,
roots, eigenvectors and candidates are arrays over rows, NaN where one
does not exist, and one array walk over all rows' ranked candidates picks
the winners (_walk).  A fixed box (v2_min = v2_max) has one v2 level,
so every form drawn at v2_min, or that only a free box has, is NaN on its
rows (_Rows.levels), and fixed and free boxes share one solve.  The row
API, optimize_at_production_rows and max_feasible_power_rows, returns
the winners as arrays (Optima), each winner's flow one array pass of
power_flow.flow_parts, the real arithmetic solve_flow runs on one point.
Optima.point(r) is row r's OptimumPoint: that flow, solve_flow's bits at
its winner, and the limits that bind there; the one-row
optimize_at_production and max_feasible_power are that point of a one-row
solve, and optimize_scaling_unconstrained is a one-row solve too.  A
call makes at most one candidate solve, and a command one call per kind
of problem: transfer_envelope over every (length, policy),
compare_strategies over every strategy's bins and the sweep command over
every (policy, level).
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .cable_model import DEFAULT_PROFILE_SEGMENTS, MAX_POINTS, CableSpec, exact_pi_two_port, segment_profile
from .errors import Infeasible
from .power_flow import FlowSolution, OperatingPoint, VoltageScaling, flow_parts, solve_flow

TIE_TOL = 1e-9
_EPS = np.finfo(float).eps
# limits checked exactly are drawn this fraction inside, so rounding leaves
# the points on their circles on the feasible side; the internal checks pass
# up to this fraction above, plus the node form's rounding (_Cable.violations),
# and an alpha this close to a bound snaps onto it.
# A limit so drawn is squared as x*x, which gives inf where x**2 would raise
_EDGE = 1e-12
# rows go through the candidate solve in blocks of about this many
# (curve, form) pairs, which bounds its memory whatever the row count
_CELLS = 1 << 13
# the delivery certificate pass runs where at least this many rows may take it.
# On bench envelope rows, one pinned x86-64 CPU, it costs 0.92, 1.51 and 3.66 ms
# at 25, 115 and 460 rows (_delivered about 0.64 ms plus 6 us a row), and the
# candidate solves of those rows 0.99, 1.83 and 6.10 ms
_CERTIFY_ROWS = 24


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
    internal checks bound every node's form (_Cable.checks) and are off
    by default; check_internal_voltage_max is a phase-voltage cap in p.u.
    """

    v2_min: float = 0.4
    v2_max: float = 1.0
    alpha_min: float = 1.0
    alpha_max: float = 1.1
    i_rated: float | None = None
    check_internal_current: bool = False
    check_internal_voltage_max: float | None = None
    n_profile_segments: int = DEFAULT_PROFILE_SEGMENTS

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
        # the solves square the rating as a Python float, which raises on overflow
        if self.i_rated is not None and not math.isfinite(self.i_rated * self.i_rated):
            raise ValueError(f"i_rated {self.i_rated} is too large: its square overflows")
        if self.check_internal_voltage_max is not None and not self.check_internal_voltage_max > 0.0:
            raise ValueError(f"check_internal_voltage_max must be > 0 p.u. or null, "
                             f"got {self.check_internal_voltage_max}")
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
# [[q2, conj(w)/2], [w/2, q0]], valued q2*|x1|^2 + Re(w*x1*conj(x2)) + q0*|x2|^2.
# A part of a form of the solve is an array over rows; the arrays below carry
# NaN where a circle, root or candidate does not exist.

_ID = (1.0, 0j, 1.0)


def _abs2(p: complex, q: complex):
    """The form |p*xi + q|^2."""
    return abs(p) ** 2, 2.0 * p * q.conjugate(), abs(q) ** 2


def _least_abs(p, q, lo, hi):
    """Least |p*t + q| over real t in [lo, hi]: at the vertex of the convex |p*t + q|^2, clamped."""
    return abs(p * min(hi, max(lo, -(q / p).real if p else lo)) + q)


def _value(form, alpha, xi, v2):
    """Value at xi = alpha*e^{j*beta} and v2 of a form (q2, w, q0) taken at v2 = 1 p.u."""
    q2, w, q0 = form
    return (q2 * alpha * alpha + (w * xi).real + q0) * v2 * v2


def _sub(f, g, k=1.0):
    """The form f - k*g."""
    return tuple(x - k * y for x, y in zip(f, g))


def _stack(forms, rows: int):
    """Forms as three (rows, len(forms)) arrays; a form with a non-finite part is NaN."""
    parts = [np.empty((rows, len(forms)), dtype) for dtype in (float, complex, float)]
    for j, form in enumerate(forms):
        for part, x in zip(parts, form):
            part[:, j] = x
    bad = ~np.isfinite(parts[0] + parts[2] + abs(parts[1]))
    return [np.where(bad, np.nan, part) for part in parts]


def _quad_roots(a, b, c):
    """Both real roots of a*t^2 + b*t + c on a new first axis; a linear root comes second."""
    q = -0.5 * (b + np.copysign(np.sqrt(b * b - 4.0 * a * c), b))
    return np.array([np.where(a != 0.0, q / a, np.nan), np.where(q != 0.0, c / q, np.nan)])


def _eig(num, den):
    """(lam, x1, x2) per real eigenpair of the pencil num - lam*den, on a new first axis.

    num/den is stationary at xi = x1/x2.
    """
    (n2, nw, n0), (d2, dw, d0) = num, den
    lam = _quad_roots(d2 * d0 - 0.25 * abs(dw) ** 2,
                      0.5 * (np.conj(nw) * dw).real - n2 * d0 - n0 * d2,
                      n2 * n0 - 0.25 * abs(nw) ** 2)
    m2, mw, m0 = n2 - lam * d2, nw - lam * dw, n0 - lam * d0
    # null vector of the heavier row of [[m2, conj(mw)/2], [mw/2, m0]]
    heavy = abs(m2) >= abs(m0)
    return lam, np.where(heavy, -0.5 * np.conj(mw), m0), np.where(heavy, m2, -0.5 * mw)


def _circle(lam, x1, x2):
    """(u1, u2, v1, v2) such that x = e^{j*phi}*u + v traces the zero set of a form.

    lam, x1 and x2 are its eigenpairs (_eig against _ID); u and v are the
    eigenvectors scaled to u^H F u = 1 = -v^H F v, and a line is a circle
    through x2 = 0.  NaN where the form is definite or singular: one point
    or nothing.
    """
    scale = np.sqrt(abs(lam) * (abs(x1) ** 2 + abs(x2) ** 2))
    scale[:, ~((np.minimum(*lam) < 0.0) & (np.maximum(*lam) > 0.0))] = np.nan
    x1, x2 = x1 / scale, x2 / scale
    first = lam[0] >= lam[1]      # u has the positive eigenvalue
    return (np.where(first, x1[0], x1[1]), np.where(first, x2[0], x2[1]),
            np.where(first, x1[1], x1[0]), np.where(first, x2[1], x2[0]))


def _along(curve, f):
    """Forms f along the curves (u1, u2, v1, v2) as the sinusoids (k0, kc, ks) in phi.

    k0 = u^H F u + v^H F v and kc + j*ks = 2*u^H F v.
    """
    q2, w, q0 = f
    u1, u2, v1, v2 = curve
    cu1, cu2 = np.conj(u1), np.conj(u2)
    k0 = q2 * (abs(u1) ** 2 + abs(v1) ** 2)
    k0 += (np.conj(w) * (cu1 * u2 + np.conj(v1) * v2)).real
    k0 += q0 * (abs(u2) ** 2 + abs(v2) ** 2)
    hw = 0.5 * w
    m = q2 * (cu1 * v1)
    m += np.conj(hw) * (cu1 * v2)
    m += hw * (cu2 * v1)
    m += q0 * (cu2 * v2)
    m *= 2.0
    return k0, m.real, m.imag


def _sinusoid_roots(k0, kc, ks):
    """Zeros of k0 + kc*cos(phi) + ks*sin(phi) = k0 + r*cos(phi - theta), on a new last axis.

    Tangent zeros, where the sinusoid touches zero without a sign change, are left out.
    """
    r = np.hypot(kc, ks)
    theta, half = np.arctan2(ks, kc), np.arccos(-k0 / r)
    half[~(r > abs(k0))] = np.nan
    return np.stack([theta - half, theta + half], axis=-1)


def _on(curve, phi):
    """The points xi = (e^{j*phi}*u1 + v1)/(e^{j*phi}*u2 + v2) of the curves (u1, u2, v1, v2) at phi."""
    u1, u2, v1, v2 = curve
    xi = np.exp(1j * phi)
    den = xi * u2
    den += v2
    xi *= u1
    xi += v1
    xi /= den
    return xi


def _curves(forms, n: int, ratios, lo, hi, rays: bool):
    """The curves of a solve and the pencil eigenvectors of its ratios.

    forms and ratios are as in _points; lo and hi are each row's beta
    window.  Returns the (u1, u2, v1, v2) of both window rays, where rays is
    set, and then of the circles, a (4, rows, curves, 1) array, and the
    (rows, 2k) eigenvectors xi = x1/x2.
    """
    rows, m = len(forms[0]), 2 if rays else 0
    # each circle's own pencil, then the ratios': the columns of their numerators and denominators
    cols = [np.concatenate([np.arange(n), n + x]) for x in ratios.T]
    num, den = ([part.take(x, 1) for part in forms] for x in cols)
    for part, one in zip(den, _ID):
        part[:, :n] = one       # the identity stands in for the denominator of a circle's own pencil
    lam, x1, x2 = _eig(num, den)
    curve = np.empty((4, rows, n + m, 1), complex)
    if rays:
        ray = np.exp(1j * np.stack([lo, hi], axis=-1))
        curve[0, :, :2, 0], curve[2, :, :2, 0] = -1j * ray, 1j * ray
        curve[1, :, :2, 0] = curve[3, :, :2, 0] = 1.0
    curve[:, :, m:, 0] = _circle(lam[..., :n], x1[..., :n], x2[..., :n])
    return curve, (x1[..., n:] / x2[..., n:]).transpose(1, 2, 0).reshape(rows, -1)


def _stationary(g, f):
    """The sinusoid g'*f - g*f' of two sinusoids (k0, kc, ks): zero where the ratio g/f is stationary."""
    (g0, gc, gs), (f0, fc, fs) = g, f
    return gs * fc - gc * fs, gs * f0 - g0 * fs, g0 * fc - gc * f0


def _sinusoids(curve, forms, n: int, ratios):
    """Sinusoids (k0, kc, ks) along each curve, one per circle and then one per ratio.

    Their zeros are the curve's meetings with the circles, NaN for the
    circles up to its own, and the stationary points of each ratio, where
    num'*den - num*den' is zero.
    """
    k, cols = len(ratios), n + ratios.T.ravel()     # the numerators' columns, then the denominators'
    along = _along(curve, [part[:, None, :] for part in forms])
    pairs = [x[..., cols] for x in along]
    stat = _stationary([x[..., :k] for x in pairs], [x[..., k:] for x in pairs])
    out = [np.concatenate([x[..., :n], y], axis=-1) for x, y in zip(along, stat)]
    for i in range(n):          # each pair of circles once; the circles are the last n curves
        out[0][:, i - n, :i + 1] = np.nan
    return out


def _points(forms, n: int, ratios, lo, hi, rays):
    """Every candidate maximum of a ratio in the beta window [lo, hi] of each row.

    forms are (rows, n + f) arrays of form parts: n circles, then each of
    the f forms the ratios use, once; ratios is a (k, 2) int array that
    names each ratio's numerator and denominator among those f forms.  The
    candidates are the pencil eigenvectors of each ratio; along each
    circle its meetings with the later circles and each ratio's stationary
    points; the same along each window ray, traced as
    xi = e^{j*beta}*tan(phi/2), which meets every circle.  The rays are
    candidates only on the rows where the mask rays is set, and traced only
    when one of them is.  They come as (row, rank, alpha, beta) arrays, one
    entry per candidate that exists; rank orders the candidates of a row:
    the rays, the eigenvectors, then the circles, whether or not the rays
    are traced.
    """
    rows, k = len(forms[0]), len(ratios)
    m = 0 if rays.any() else 2  # the curves not traced: none, or both rays
    curve, pencil = _curves(forms, n, ratios, lo, hi, not m)
    phi = _sinusoid_roots(*_sinusoids(curve, forms, n, ratios)).reshape(rows, n + 2 - m, -1)
    width = phi.shape[2]
    # the angles that exist, each on a curve, then the eigenvectors, and where they lie
    row, cur, rank = np.nonzero(np.isfinite(phi))
    phi = phi[row, cur, rank]
    at_row, at_pos = np.nonzero(np.isfinite(pencil))
    xi = np.concatenate([_on(curve[:, row, cur, 0], phi), pencil[at_row, at_pos]])
    cur += m
    rank += cur * width + 2 * k * (cur >= 2)   # the circles' after the rays and the eigenvectors
    row, rank = np.concatenate([row, at_row]), np.concatenate([rank, 2 * width + at_pos])
    alpha, beta = abs(xi), np.angle(xi)
    ok = np.isfinite(alpha) & (lo[row] <= beta) & (beta <= hi[row])
    if not m:       # the rays' candidates: their alpha is tan(phi/2), at each end of the window
        ray = np.flatnonzero(cur < 2)
        alpha[ray] = np.tan(0.5 * phi[ray])
        beta[ray] = np.where(cur[ray] == 0, lo[row[ray]], hi[row[ray]])
        ok[ray] = (alpha[ray] > 0.0) & rays[row[ray]]
    return row[ok], rank[ok], alpha[ok], beta[ok]


# ---------------------------------------------------------------------------
# the cable and the candidate solve

class _Cable:
    """One cable of a solve: its numbers for _Rows, and the opt-in internal checks."""

    def __init__(self, spec: CableSpec, constraints: Constraints):
        self.spec, self.cons = spec, constraints
        tp = exact_pi_two_port(spec)
        a, b = tp.a, tp.b
        # the forms square the admittances, which overflows on a cable short
        # enough: it has no operating point the solves can represent
        size = abs(a) + abs(b)
        if not math.isfinite(size * size):
            raise Infeasible(f"a {spec.length_km:g} km cable is too short: "
                             f"its admittances overflow when squared")
        vph, i_rated, phase = spec.phase_voltage, constraints.rated_current(spec), cmath.phase(b)
        # the columns of _Rows.  c = 3*V_ph^2*farm rises with beta from arg(b) - pi
        # to arg(b); the windows stay on that branch, within +-90 deg.  The forms
        # are farm and grid power and |i1|^2, |i2|^2 per phase at v1 = xi V and
        # v2 = 1 V, as in _Rows.at (i1 = a*xi + b, i2 = b*xi + a), and 1.
        ends = (max(-math.pi / 2, phase - math.pi + 1e-9), min(math.pi / 2, phase - 1e-9))
        # ray_i: on a window ray xi = t*e^{j*beta}, t in the alpha box, the larger end current
        # is at least the larger of the least |i1| and least |i2|.  Its square is drawn
        # 16*eps*s^2 lower, s >= |p|*t + |q| of both, for their rounding and the delivery
        # score's rating slack, so that _Rows.rays drops only rays with no feasible point
        least = min(max(_least_abs(p * cmath.rect(1.0, x), q, constraints.alpha_min, constraints.alpha_max)
                        for p, q in ((a, b), (b, a))) for x in ends)
        s = size * (1.0 + constraints.alpha_max)
        self.numbers = (a, b, vph, vph**2, i_rated, i_rated**2, (i_rated * (1.0 - _EDGE)) ** 2, *ends,
                        math.sqrt(max(0.0, least * least - 16.0 * _EPS * s * s)),
                        a.real, b.conjugate(), 0.0, 0.0, -b, -a.real, *_abs2(a, b), *_abs2(b, a),
                        0.0, 0j, 1.0)

    @cached_property
    def checks(self) -> list[tuple[list[tuple], float]]:
        """(node forms, limit) of each opt-in internal check, the current check first.

        A form is |I_k|^2 or |V_k|^2 at v2 = 1 p.u., grid-end current last: node
        k is xi*P_k + Q_k with P and Q the profiles at (V_ph, 0) and (0, V_ph).
        """
        cons, spec, vph, out = self.cons, self.spec, self.spec.phase_voltage, []
        p, q = (segment_profile(spec, v1, v2, cons.n_profile_segments)
                for v1, v2 in ((vph, 0.0), (0.0, vph)))
        if cons.check_internal_current:
            out.append(([_abs2(x, y) for x, y in zip(p.node_currents + (p.grid_end_current,),
                                                     q.node_currents + (q.grid_end_current,))],
                        cons.rated_current(spec)))
        if (v_cap := cons.check_internal_voltage_max) is not None:
            out.append(([_abs2(x, y) for x, y in zip(p.node_voltages, q.node_voltages)],
                        v_cap * vph))
        return out

    def violations(self, alpha: float, beta: float, v2: float) -> list[tuple[tuple, float]]:
        """(node form, limit) of the worst node, the first on ties, of each check the point fails."""
        xi, out = cmath.rect(alpha, beta), []
        for forms, limit in self.checks:
            values = [_value(form, alpha, xi, v2) for form in forms]
            worst = max(values)
            q2, _, q0 = form = forms[values.index(worst)]
            # it fails beyond _EDGE and its form's rounding, 8*eps*(|P|*alpha + |Q|)^2 for |P*xi + Q|^2
            size = (math.sqrt(q2) * alpha + math.sqrt(q0)) * v2
            if worst - 8.0 * _EPS * size * size > (edge := limit * (1 + _EDGE)) * edge:
                out.append((form, limit))
        return out


class _Rows:
    """The (spec, constraints) rows of a solve: a table of cable numbers by row, and each row's v2 box.

    The rows may differ in their cable and v2 box only: not in their alpha
    bounds, rating override or internal checks.  Each distinct cable
    computes its numbers as Python numbers once (_Cable.numbers), so every
    row does the same floating-point work whatever its batch.  The columns:
    the admittances a and b, vph, vph2, i_rated, i_rated2, edge_rated2 (the
    rating drawn _EDGE inside, squared), the beta branch ends beta_floor and
    beta_cap, ray_i (a lower bound on the larger end current per unit volt
    on their window rays, _Cable), and the forms farm, grid, cur1, cur2 and
    one, the constant form 1.  levels are each row's v2 levels (v2_min,
    v2_max), v2_min NaN in a fixed box (v2_min = v2_max), which has one
    level: a form drawn at v2_min is NaN there, so one solve holds fixed
    and free boxes alike.  rays marks the rows whose rays may hold a
    winner and internal a table with internal checks; which is each row's
    distinct cable, and distinct holds the distinct cables' a, b,
    beta_floor, beta_cap and ray_i (for _least_current).
    """

    def __init__(self, rows: list[tuple[CableSpec, Constraints]]):
        if not rows:
            raise ValueError("a solve needs at least one row")
        specs, boxes = zip(*rows)
        first = boxes[0]
        for box in {id(box): box for box in boxes}.values():
            if box is not first and box.with_v2_range(first.v2_min, first.v2_max) != first:
                raise ValueError("the rows of one solve may differ in their cable and v2 box only")
        self.lo, self.hi = np.array([(box.v2_min, box.v2_max) for box in boxes]).T
        self.levels = (np.where(self.lo < self.hi, self.lo, np.nan), self.hi)
        # rows mostly share spec objects: hash each object once, not each row
        by_id = dict(zip(map(id, specs), specs))
        distinct = {}
        index = {key: distinct.setdefault(spec, len(distinct)) for key, spec in by_id.items()}
        which = list(map(index.__getitem__, map(id, specs)))
        cables = [_Cable(spec, first) for spec in distinct]
        self.per_row, self.cons, self.which = list(map(cables.__getitem__, which)), first, np.array(which)
        self.internal = first.check_internal_current or first.check_internal_voltage_max is not None
        table = np.array([cab.numbers for cab in cables]).T
        self.distinct = (table[0], table[1], *table[7:10].real)
        table = table[:, which]
        self.a, self.b = table[:2]
        (self.vph, self.vph2, self.i_rated, self.i_rated2, self.edge_rated2,
         self.beta_floor, self.beta_cap, self.ray_i) = table[2:10].real
        # the rows whose rays may hold a feasible point: ray_i at v2_min within the
        # rating, with room for the scores' v2 floors lo*(1 - 1e-9) and lo*(1 - 1e-12)
        self.rays = self.ray_i * self.vph * self.lo <= self.i_rated * (1 + 1e-6)
        # each form's parts are real but for its middle one
        self.farm, self.grid, self.cur1, self.cur2, self.one = (
            (table[j].real, table[j + 1], table[j + 2].real) for j in range(10, 25, 3))

    def __len__(self):
        return len(self.per_row)

    def at(self, alpha, beta, r):
        """(c, g, eta, i) at xi = alpha*e^{j*beta} on rows r, elementwise, to score candidates.

        p_farm = c*v2^2 and p_grid = g*v2^2 [W/(p.u.)^2], eta = g/c (-inf when
        c <= 0) and i is the larger end current per p.u. of v2 [A], from the flow
        at v1 = xi V, v2 = 1 V in numpy's complex arithmetic, faster than flow_parts.
        """
        a, b, xi = self.a[r], self.b[r], alpha * np.exp(1j * beta)
        i1, i2 = a * xi + b, b * xi + a
        farm, grid = (xi * i1.conjugate()).real, -i2.real
        eta = np.where(farm > 0.0, grid / farm, -np.inf)
        vph2 = self.vph2[r]
        return 3.0 * farm * vph2, 3.0 * grid * vph2, eta, np.maximum(abs(i1), abs(i2)) * self.vph[r]


def _better(cand, best):
    """Where (4, n) cand beats best (NaN score: none yet) by score, then lower v2, then lower alpha."""
    score, alpha, _, v2 = cand
    best_score, best_alpha, _, best_v2 = best
    return np.isnan(best_score) | (score > best_score + TIE_TOL) | ~(score < best_score - TIE_TOL) & (
        (v2 < best_v2 - TIE_TOL) | ~(v2 > best_v2 + TIE_TOL) & (alpha < best_alpha - TIE_TOL))


def _walk(ranked, count, check=None):
    """Each row's best candidate by _better, a (4, rows) array, NaN for none.

    ranked holds each row's count[r] candidates (score, alpha, beta, v2) in
    turn.  Step j takes each live row's j-th one, the first without a
    comparison; a row stops at one that trails its best by over TIE_TOL.
    check(live, cand, held, wins) sees a step's rows, their candidates and
    bests so far; it clears wins a row may not take and says where the
    rows walk on.
    """
    won = np.full((4, count.size), np.nan)
    first, live, j = count.cumsum() - count, count.nonzero()[0], 0
    while live.size:
        at = first[live] + j
        cand, held = ranked.take(at, 1), won.take(live, 1)
        wins = _better(cand, held) if j else np.ones(live.size, bool)
        going = check(live, cand, held, wins) if check else True
        won[:, live[wins]] = cand.compress(wins, 1)
        j += 1
        live = live[going & (count[live] > j)]
        live = live[~(ranked[0, first[live] + j] < won[0, live] - TIE_TOL)]
    return won


def _cut_out(cuts, alpha, beta, v2):
    """Candidates at least one cut node already rules out, from its form alone.

    The 1e-9 margin covers the form's rounding; what it lets through,
    _Cable.violations rejects with the 1 + _EDGE margin.
    """
    xi, out = alpha * np.exp(1j * beta), np.zeros(alpha.shape, bool)
    for form, limit in cuts:
        out |= _value(form, alpha, xi, v2) > (1 + 1e-9) * limit * limit
    return out


def _solve(cables: _Rows, window, bounds, ratios, point, pieces=(), rows=None, rays=None) -> np.ndarray:
    """Best point(alpha, beta) by _better over the alpha annulus and the beta window, per row.

    window is each row's beta window (lo, hi), bounds are the forms whose
    zero circles limit the region or switch the objective between pieces,
    ratios the (num, den) forms it is made of, and
    point(alpha, beta, r) scores candidates, r their rows: (score, v2)
    arrays, NaN score where infeasible.  Returns the winners' (score,
    alpha, beta, v2), a (4, rows) array, NaN on a row without one.  The
    rows walk their candidates by descending score, then rank (_walk); a
    candidate that would win and fails an internal check does not.  pieces
    lists (k, den) with v2^2 = k/den on each piece of v2; a row without a
    winner yet whose candidate fails at a new node n, limit L, adds the
    circle k*n - L^2*den per piece and is solved again, where a candidate a
    cut node rules out is dropped before the walk (_cut_out).  rows, when
    given, are the indices of the rows to solve; the others come back NaN.
    rays, when given, masks the rows whose window rays may hold a winner
    (_Rows.rays); a block of rows traces them where one of its rows does.
    """
    n_rows, cons = len(cables), cables.cons
    a_lo, a_hi = cons.alpha_min, cons.alpha_max
    # the alpha circles and the bounds, then each form of the ratios once, by identity
    n_base = 2 + len(bounds)
    used = {id(form): form for pair in ratios for form in pair}
    pairs = np.array([[list(used).index(id(form)) for form in pair] for pair in ratios])
    base = _stack([(1.0, 0j, -a_lo * a_lo), (1.0, 0j, -a_hi * a_hi), *bounds, *used.values()], n_rows)
    best = np.full((4, n_rows), np.nan)
    cuts = [[] for _ in range(n_rows)]
    todo = np.arange(n_rows) if rows is None else rows
    keep = np.ones(n_rows, bool) if rays is None else rays
    while todo.size:
        width = len(pieces) * max([len(cuts[r]) for r in todo.tolist()])
        n = n_base + width
        step = max(1, _CELLS // ((n + 2) * (n + len(used))))
        again = []
        for block in (todo[i:i + step] for i in range(0, todo.size, step)):
            forms = [part[block] for part in base]
            if width:
                # each row's cut circles after the others, padded with NaN to the longest list
                ext = [np.full((block.size, width), np.nan, dtype) for dtype in (float, complex, float)]
                for j, r in enumerate(block):
                    circles = [_sub(tuple(float(k[r]) * x for x in form), tuple(x[r] for x in den),
                                    (edge := limit * (1 - _EDGE)) * edge)
                               for form, limit in cuts[r] for k, den in pieces]
                    for part, x in zip(ext, _stack(circles, 1)):
                        part[j, :x.shape[1]] = x[0]
                forms = [np.concatenate([part[:, :n_base], x, part[:, n_base:]], axis=1)
                         for part, x in zip(forms, ext)]
            row, rank, alpha, beta = _points(forms, n, pairs, *(end[block] for end in window), keep[block])
            # the candidates in the annulus, by row, descending score and rank
            inside = (a_lo * (1 - _EDGE) <= alpha) & (alpha <= a_hi * (1 + _EDGE))
            row, rank, beta = row[inside], rank[inside], beta[inside]
            alpha = np.minimum(np.maximum(alpha[inside], a_lo), a_hi)
            score, v2 = point(alpha, beta, block[row])
            valid = np.isfinite(score)
            for j, r in enumerate(block.tolist()):
                if cuts[r]:
                    mine = np.flatnonzero(row == j)
                    valid[mine] &= ~_cut_out(cuts[r], alpha[mine], beta[mine], v2[mine])
            pick = np.flatnonzero(valid)
            pick = pick[np.lexsort((rank[pick], -score[pick], row[pick]))]

            def check(live, cand, held, wins):      # the internal checks
                for i, r in zip(np.flatnonzero(wins).tolist(), block[live[wins]].tolist()):
                    if fails := cables.per_row[r].violations(*cand[1:, i].tolist()):
                        wins[i] = False
                        if math.isnan(held[0, i]) and (new := [cut for cut in fails if cut not in cuts[r]]):
                            cuts[r] += new
                            again.append(r)
                return ~np.isin(block[live], again)     # a row solved again walks no further
            best[:, block] = _walk(np.array([score, alpha, beta, v2])[:, pick],
                                   np.bincount(row[pick], minlength=block.size),
                                   check if cables.internal else None)
        todo = np.array(sorted(again), dtype=int)   # in row order, however the walk found them
    return best


# ---------------------------------------------------------------------------
# unconstrained scaling optimum

@np.errstate(all="ignore")      # NaN marks what does not exist
def optimize_scaling_unconstrained(
    spec: CableSpec,
    alpha_range: tuple[float, float] = (1.0, 1.1),
) -> tuple[VoltageScaling, float]:
    """argmax of efficiency over alpha in alpha_range, beta in [1e-9 rad, beta_cap].

    The window is the beta branch floored at 1e-9 rad, as the optimum leads
    (by about 5e-7 rad at 0.5 km); on the whole branch the top eigenvector
    of the pencil of grid and farm power, the interior optimum, collapses to
    xi = 1 on cables of 0.05 km and shorter.  On the alpha bounds and the
    window ends, eta = g/c peaks at a stationary point along the circle or
    ray, all in closed form.  The winner's eta is solve_flow's at v2 = 1
    p.u., in real arithmetic, not the score from numpy's complex multiply,
    whose bits vary by CPU.  Raises Infeasible where no scaling in range has eta > 0.
    """
    a_lo, a_hi = alpha_range
    cables = _Rows([(spec, Constraints(alpha_min=a_lo, alpha_max=a_hi))])

    def point(alpha, beta, r):
        eta = cables.at(alpha, beta, r)[2]
        return np.where(np.isfinite(eta), eta, np.nan), np.zeros_like(eta)

    window = np.maximum(1e-9, [cables.beta_floor, cables.beta_cap])
    best = _solve(cables, window, [], [(cables.grid, cables.farm)], point)
    eta, alpha, beta, _ = best[:, 0].tolist()
    if not eta > 0.0:
        raise Infeasible("no scaling in range delivers power to the grid: efficiency is never > 0")
    scaling = VoltageScaling(alpha, beta)
    return scaling, solve_flow(spec, OperatingPoint(1.0, scaling)).eta


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
    flow = solve_flow(spec, OperatingPoint(1.0, scaling))
    c = flow.p_farm
    if not c > 0.0:
        raise Infeasible(f"farm power coefficient is {c:.3g} W/pu^2 at this scaling")
    i_unit = max(abs(flow.i1), abs(flow.i2))
    rated = Constraints(i_rated=i_rated).rated_current(spec)
    out = []
    for p in p_farm_targets:
        if p < 0.0 or not math.isfinite(p):
            raise ValueError(f"farm power target must be >= 0, got {p}")
        v2 = math.sqrt(p / c)
        out.append(CurvePoint(
            p_farm=p,
            v2_opt=v2,
            exceeds_v2_max=v2 > v2_max,
            exceeds_current=i_unit * v2 > rated,
        ))
    return out


# ---------------------------------------------------------------------------
# rows: one (cable, power, v2 box) problem each

class Optima:
    """Each row's winner and its flow, as arrays over rows, NaN where found is False.

    alpha, beta and v2 are the winner's operating point.  The flow is
    power_flow.flow_parts there, with cos(beta) and sin(beta) from math:
    the bits of solve_flow, so of the row's OptimumPoint.  i1 and i2
    are the end currents' (real, imag) parts, and eta is NaN where
    p_farm <= 0.
    """

    def __init__(self, cables: _Rows, best):
        """The winners best of _solve on the rows cables, under np.errstate(all="ignore")."""
        self.cables = cables
        score, self.alpha, self.beta, self.v2 = best
        self.found = ~np.isnan(score)
        beta, a, b = self.beta.tolist(), cables.a, cables.b
        args = (a.real, a.imag, b.real, b.imag, cables.vph, self.alpha,
                np.array([math.cos(x) for x in beta]), np.array([math.sin(x) for x in beta]), self.v2)
        self.i1, self.i2, self.p_farm, self.q_farm, self.p_grid, self.q_grid = flow_parts(*args)
        self.eta = np.where(self.p_farm > 0.0, self.p_grid / self.p_farm, np.nan)

    def point(self, r: int) -> OptimumPoint | None:
        """Row r's OptimumPoint, None where it has no winner.

        Its binding constraints are the limits the point meets to 1e-6 relative.
        """
        if not self.found[r]:
            return None
        cables, cons, rel = self.cables, self.cables.cons, 1e-6
        alpha, beta, v2, lo, hi, i_rated = (x[r].item() for x in (
            self.alpha, self.beta, self.v2, cables.lo, cables.hi, cables.i_rated))
        op = OperatingPoint(v2, VoltageScaling(alpha, beta))
        flow = FlowSolution.from_parts(*([x[r].item() for x in part] for part in (self.i1, self.i2)), *(
            x[r].item() for x in (self.p_farm, self.q_farm, self.p_grid, self.q_grid)))
        current = max(abs(flow.i1), abs(flow.i2))
        a_span = max(cons.alpha_max - cons.alpha_min, 1e-9)
        meets = {
            BindingConstraint.V2_MAX: v2 >= hi * (1 - rel),
            BindingConstraint.V2_MIN: v2 <= lo * (1 + rel),
            BindingConstraint.CURRENT_LIMIT: current >= i_rated * (1 - rel),
            BindingConstraint.ALPHA_MAX: cons.alpha_max - alpha <= rel * a_span,
            BindingConstraint.ALPHA_MIN: alpha - cons.alpha_min <= rel * a_span,
        }
        if cons.check_internal_voltage_max is not None:
            forms, limit = cables.per_row[r].checks[-1]     # the voltage check's, squared
            peak = max(_value(form, alpha, cmath.rect(alpha, beta), v2) for form in forms)
            meets[BindingConstraint.INTERNAL_VOLTAGE] = peak >= (edge := limit * (1 - rel)) * edge
        return OptimumPoint(op, flow, frozenset(c for c, m in meets.items() if m))


# ---------------------------------------------------------------------------
# constrained optimum at a required production level

def _meets(forms, x, a, rho):
    """Where the zero circle of each (rows, k) form may come within rho of xi = x, alpha = |x|, per row.

    There |F| is at most |grad F|*rho + |F2|*rho^2, plus 1e-9 of F's size for its rounding.
    """
    q2, w, q0 = forms
    x, a, rho = x[:, None], a[:, None], rho[:, None]
    return abs(_value(forms, a, x, 1.0)) <= (abs(2.0 * q2 * x + np.conj(w)) * rho + abs(q2) * rho * rho
                                             + 1e-9 * (abs(q2) * a * a + abs(w) * a + abs(q0)))


def _clear(avoid, counted, x, a, b, rho, a_lo, w_lo, w_hi):
    """Where the disk of radius rho about x = a*e^{j*b} lies outside alpha_min, in the window, clear, per row.

    The disk must lie outside the alpha_min disk, so rho < a as alpha_min
    > 0, and inside the beta window [w_lo, w_hi] by beta +- 2*rho/a: as
    arcsin(u) <= pi*u/2 < 2*u on (0, 1], more than the beta +-
    arcsin(rho/a) it spans.  It may meet no zero circle of the (rows, k)
    forms avoid where the mask counted is set (_meets).  _meets does not
    tell which side of a circle the disk lies on, so a bound whose side
    matters is tested apart.
    """
    ok = (a_lo < a - rho) & (w_lo < b - 2.0 * rho / a) & (b + 2.0 * rho / a < w_hi)
    return ok & ~(_meets(avoid, x, a, rho) & counted).any(axis=1)


def _certified(cables: _Rows, bounds, point, k) -> np.ndarray:
    """The production rows' winners that a closed form certifies, as _solve's best; NaN elsewhere.

    bounds are the production solve's v2_min circle (NaN in a fixed box),
    v2_max circle and rating circles, point its score and k its
    p/(3*V_ph^2), so that farm = k/v2^2.  Why a certified point wins:
    - grid has no |xi|^2 part and farm's is Re(a) > 0.  So the pencil
      (grid, farm) has two eigenvalues > 0, at each of which
      grid - lam*farm <= 0, and the eigenvector xi* with farm > 0 has the
      smaller, eta*: M = eta* * farm - grid = M2*|xi - xi*|^2.  For t > 0,
      {eta >= t, farm > 0} lies in the disk D_t = {grid - t*farm >= 0}, and
      these disks shrink to xi*.  So over the side of a circle farm = c
      without xi*, eta peaks on the circle, at its top.
    - Interior: the point is xi*.  A point scoring within 4*TIE_TOL of it
      lies within rho of it, rho^2 = 4*TIE_TOL*k/v2_min^2/M2.
    - Boundary: where v2* (v2 at xi*) is below or above a free box by 1e-6
      relative, or off a fixed box's v2 by 1e-5 in v2^2, the point is the
      top s of eta along the v2 circle that holds the winner.  A point
      scoring within 1e-7 of it lies in the lens that D_t, t = eta(s) - 1e-7,
      cuts from the circle's side without xi*, bounded by an arc of D_t and
      the tie arc, where eta >= t on the circle.  There farm is constant and
      grid a sinusoid of the angle, so the tie arc's ends have a closed
      form.  Where both arcs are minor (the tie arc under a half circle,
      D_t's centre on xi*'s side of their chord), the lens lies within rho
      of s, twice the farther tie-arc end's distance.
    - The point is certified where it scores; every other pencil eigenvector
      scores below it by more than its margin; its disk of radius rho lies
      inside alpha_max, tested apart, as _meets cannot tell on which side of
      a circle the disk lies; and the disk lies outside alpha_min and inside
      the beta window and meets no other bound's circle (_clear).  Then
      every other candidate of _solve's enumeration scores over TIE_TOL
      below it, so _walk takes it first and stops, and its (score, alpha,
      beta, v2) come from the same helpers (_curves, _along, _stationary,
      _sinusoid_roots, _on) and score: the enumeration's bits.  The walk
      reads only score, v2 and alpha, so the other eigenvector (reverse-flow
      but for rounding) need only trail by the margin, >= 4*TIE_TOL,
      wherever it lies.  A point failing an internal check
      (_Cable.violations) is declined.
    """
    n_rows, cons, rows = len(cables), cables.cons, np.arange(len(cables))
    lo, hi, w_lo, w_hi = cables.lo, cables.hi, cables.beta_floor, cables.beta_cap
    forms = _stack(list(bounds) + [cables.grid, cables.farm], n_rows)
    (q2, w, q0), re_a = forms, forms[0][:, 5]
    # the candidates: both eigenvectors of the pencil (grid, farm), then the top of
    # eta along the v2_min or the v2_max circle, traced on the rows whose col names it
    xi = np.full((n_rows, 4), np.nan, complex)
    alpha, beta, score, v2 = (np.full((n_rows, 4), np.nan) for _ in range(4))

    def place(r, j, points):
        """Score the (len(r), width) candidates points as the columns j of the rows r."""
        a, b = abs(points), np.angle(points)
        scored = point(a.ravel(), b.ravel(), r.repeat(points.shape[1]))
        for part, x in zip((xi, alpha, beta, score, v2), (points, a, b, *scored)):
            part[r[:, None], j] = x.reshape(points.shape)

    _, x1, x2 = _eig([part[:, 4:5] for part in forms], [part[:, 5:] for part in forms])
    place(rows, np.arange(2), (x1 / x2)[..., 0].T)
    fwd = np.isfinite(v2[:, :2])        # farm > 0
    star = np.where(fwd[:, 0], 0, 1)
    v2s = np.where(fwd[:, 0] != fwd[:, 1], v2[rows, star], np.nan)
    circle = np.where(lo < hi, np.where(v2s < lo * (1 - 1e-6), 2, np.where(v2s > hi * (1 + 1e-6), 3, -1)),
                      np.where(abs(v2s * v2s / (hi * hi) - 1.0) >= 1e-5, 3, -1))
    col = np.where(np.isfinite(score[rows, star]), star, circle)
    if (need := np.flatnonzero(col >= 2)).size:
        on = col[need, None]
        curve, _ = _curves([part[need[:, None], on - 2] for part in forms], 1, np.zeros((0, 2), int),
                           w_lo[need], w_hi[need], False)
        along = _along(curve, [part[need, None, 4:] for part in forms])
        g, f = [x[..., 0] for x in along], [x[..., 1] for x in along]
        phi = _sinusoid_roots(*_stationary(g, f))   # the top of eta and its bottom
        eta = np.divide(*(x0[..., None] + xc[..., None] * np.cos(phi) + xs[..., None] * np.sin(phi)
                          for x0, xc, xs in (g, f)))
        place(need, on, _on(curve[..., 0], np.where(eta[..., 1] > eta[..., 0], phi[..., 1], phi[..., 0])))
    x, a, b, s = (y[rows, col] for y in (xi, alpha, beta, score))
    # on the circle farm = level, centre z, eta is grid/level and grid peaks at s, falling
    # by level*u, u = 1e-7*level/(radius*|b|), at the ends of the tie arc, 2*radius*sqrt(u/2)
    # from s; the arc is minor where u < 1, its chord's midpoint is z + (1 - u)*(s - z)
    c = np.maximum(col - 2, 0)
    level, z = -q0[rows, c], -np.conj(w[rows, c]) / (2.0 * re_a)
    radius = np.sqrt(abs(z) ** 2 + level / re_a)
    u = 1e-7 * level / (radius * abs(w[:, 4]))
    t = s - 1e-7
    centre = np.conj(w[:, 4] - t * w[:, 5]) / (2.0 * t * re_a)   # D_t's
    lens = (t > 0.0) & (u < 1.0) & (((centre - z - (1.0 - u) * (x - z)) * np.conj(x - z)).real
                                   * (np.where(col == 2, lo, hi) - v2s) > 0.0)
    rho = np.where(col < 2, np.sqrt(4.0 * TIE_TOL * k / (lo * lo) / (s * re_a)),
                   np.where(lens, 4.0 * radius * np.sqrt(0.5 * u), np.nan))
    margin = np.where(col < 2, 4.0 * TIE_TOL, 1e-7)
    ok = (col >= 0) & np.all((np.arange(2) == col[:, None]) | ~(score[:, :2] >= (s - margin)[:, None]), axis=1)
    # inside alpha_max, and clear of the bounds' circles but the certified one
    ok &= a + rho < cons.alpha_max
    ok &= _clear([part[:, :4] for part in forms], np.arange(4) + 2 != col[:, None], x, a, b, rho,
                 cons.alpha_min, w_lo, w_hi)
    best = np.full((4, n_rows), np.nan)
    best[:, ok] = np.array([s, a, b, v2[rows, col]])[:, ok]
    for r in np.flatnonzero(ok).tolist() if cables.internal else ():
        if cables.per_row[r].violations(*best[1:, r].tolist()):
            best[:, r] = np.nan
    return best


@np.errstate(all="ignore")      # NaN marks what does not exist
def optimize_at_production_rows(rows: list[tuple[CableSpec, float, Constraints]]) -> Optima:
    """optimize_at_production for every (spec, p_farm, constraints) row in one array solve.

    A row without a winner is one that optimize_at_production reports
    Infeasible.  There is at least one row, and the rows may differ in
    their cable and in their constraints' v2 box only.  A row whose winner
    is the pencil optimum xi* of eta, or the top of eta along the v2 circle
    between xi* and the box, with no other candidate within the tie margin
    and no internal check failed, takes it from its closed form
    (_certified); _solve checks candidates for the other rows, and they
    find what the full enumeration finds, bit for bit.
    """
    for _, p, _ in rows:
        if not (p > 0.0 and math.isfinite(p)):
            raise ValueError(f"p_farm must be > 0 W, got {p}")
    cables = _Rows([(spec, cons) for spec, _, cons in rows])
    lo, hi = cables.lo, cables.hi
    p = np.array([p for _, p, _ in rows])

    k = p / (3.0 * cables.vph2)      # v2^2 = k/farm
    shrunk = 3.0 * cables.edge_rated2 / p
    bounds = [_sub(cables.farm, cables.one, k / (v2 * v2)) for v2 in cables.levels]
    bounds += [_sub(cur, cables.farm, shrunk) for cur in (cables.cur1, cables.cur2)]

    def point(alpha, beta, r):
        c, _, eta, i = cables.at(alpha, beta, r)
        v2 = np.sqrt(p[r] / c)
        fits = (c > 0.0) & (lo[r] * (1 - 1e-9) <= v2) & (v2 <= hi[r] * (1 + 1e-9))
        fits &= ~(i * v2 > cables.i_rated[r])
        return np.where(fits, eta, np.nan), v2

    best = _certified(cables, bounds, point, k)
    rest = np.flatnonzero(np.isnan(best[0]))
    if rest.size:
        window = (cables.beta_floor, cables.beta_cap)    # negative beta serves the lowest injections
        best[:, rest] = _solve(cables, window, bounds, [(cables.grid, cables.farm)],
                               point, [(k, cables.farm)], rest, cables.rays)[:, rest]
    return Optima(cables, best)


def optimize_at_production(spec: CableSpec, p_farm: float,
                           constraints: Constraints | None = None) -> OptimumPoint:
    """Most efficient feasible way to inject exactly p_farm watts.

    The v2 box is the circles c = p_farm/v2^2, one for a fixed box, and each
    rating the circle p_farm*|i|^2 = 3*I^2*farm.  Raises Infeasible when no (v2, xi)
    in the box transmits p_farm within ratings; the caller decides how to
    treat the shortfall.
    """
    cons = constraints if constraints is not None else Constraints()
    point = optimize_at_production_rows([(spec, p_farm, cons)]).point(0)
    if point is None:
        raise Infeasible(
            f"no operating point in the box transmits {p_farm/1e6:.3f} MW "
            f"within v2 in [{cons.v2_min}, {cons.v2_max}] p.u. and "
            f"{cons.rated_current(spec):.0f} A"
        )
    return point


# ---------------------------------------------------------------------------
# maximum deliverable power

def _delivery_point(cables: _Rows, cap):
    """The delivery score point(alpha, beta, r) of _solve, row r capped at cap[r] (inf: no cap)."""
    lo, hi = cables.lo, cables.hi

    def point(alpha, beta, r):
        c, g, _, i = cables.at(alpha, beta, r)
        # the rating circles' forms have parts kappa^2 times |i|^2, so a point on
        # them, as a short cable's rating corner, may read 4*eps*kappa^2 above:
        # a rating within that slack of a v2 bound counts as the bound
        kappa = (abs(cables.a[r]) * alpha + abs(cables.b[r])) * cables.vph[r] / i
        within, rated = 1 - 1e-12 - 4.0 * _EPS * kappa * kappa, cables.i_rated[r] / i
        v2 = np.where(rated < hi[r] * within, rated, hi[r])
        v2 = np.where(c > 0.0, np.minimum(v2, np.sqrt(cap[r] / c)), v2)
        fits = ~(v2 < lo[r] * within)
        # delivery grows with v2 when g > 0; otherwise park at the floor
        v2 = np.where(g > 0.0, np.maximum(v2, lo[r]), lo[r])
        return np.where(fits, g * v2 * v2, np.nan), v2
    return point


def _least_current(cables: _Rows) -> np.ndarray:
    """Per row, a lower bound on the larger end current per unit volt over its whole box.

    F = max(|i1|, |i2|) = max(|a|*|xi - z1|, |b|*|xi - z2|), z1 = -b/a and
    z2 = -a/b, is convex in xi and least over the plane on the segment z1 z2
    where both are equal.  So over the alpha annulus and the beta window it
    is least there, if that point lies inside, or on the box's edge.  Along
    an alpha circle both |i_k|^2 are sinusoids in beta, so F is least where
    one of them is, where they cross or at a window end; along a window ray
    F is at least ray_i, the larger of the least |i_k| (_least_abs).  Each
    distinct cable is solved once, and the least drawn 1e-9 relative and
    16*eps*s^2, s >= |a|*alpha + |b|, lower for the rounding, as ray_i.
    """
    cons = cables.cons
    a, b, w_lo, w_hi, ray_i = (x[:, None] for x in cables.distinct)
    alpha = np.array([[cons.alpha_min], [cons.alpha_max]])
    m = (a * np.conj(b))[..., None]
    # per alpha circle: where |i1| and |i2| are least, where they cross, and the window's ends
    cross = np.arcsin((abs(a) ** 2 - abs(b) ** 2)[..., None] * (alpha * alpha - 1.0) / (4.0 * alpha * m.imag))
    beta = np.concatenate(np.broadcast_arrays(np.angle(-m.conj()), np.angle(-m), cross, w_lo[..., None],
                                              w_hi[..., None]), axis=2)
    xi = (alpha * np.exp(1j * np.where((w_lo[..., None] <= beta) & (beta <= w_hi[..., None]), beta, np.nan))
          ).reshape(a.size, -1)
    # the least over the plane, on the segment z1 z2, where it lies in the box
    z1, z2 = -b / a, -a / b
    z = z1 + (z2 - z1) * abs(b) / (abs(a) + abs(b))
    z[~((cons.alpha_min <= abs(z)) & (abs(z) <= cons.alpha_max))] = np.nan
    z[~((w_lo <= np.angle(z)) & (np.angle(z) <= w_hi))] = np.nan
    xi = np.concatenate([xi, z], axis=1)
    least = np.fmin(np.nanmin(np.maximum(abs(a * xi + b), abs(b * xi + a)), axis=1), ray_i[:, 0])
    s = abs(a[:, 0]) * cons.alpha_max + abs(b[:, 0])
    least = np.sqrt(np.maximum(0.0, least * least * (1.0 - 1e-9) - 16.0 * _EPS * s * s))
    return np.where(np.isfinite(least), least, 0.0)[cables.which]


def _ruled_out(cables: _Rows, rows) -> np.ndarray:
    """Where a row of rows has no point that scores: its least larger end current at v2_min is over the rating.

    The bound (_least_current) must exceed it by over 1e-6, and a point
    scores up to 4*eps*kappa^2 over the rating (_delivery_point), so the row
    also needs 4*eps*kappa^2 < 1e-7 there.
    """
    least = _least_current(cables)[rows]
    kappa = (abs(cables.a[rows]) * cables.cons.alpha_max + abs(cables.b[rows])) / least
    over = least * cables.vph[rows] * cables.lo[rows] > cables.i_rated[rows] * (1 + 1e-6)
    return over & (kappa * kappa < 1e8)


def _cap(c, r2, n, h):
    """A bound on the diameter of the disk |x - c|^2 <= r2 cut to the half-plane Re(conj(n)*x) >= h."""
    x0 = (h - (np.conj(n) * c).real) / abs(n)      # how far the centre lies outside it
    return np.where((x0 > 0.0) & (r2 > x0 * x0), 2.0 * np.sqrt(r2 - x0 * x0), 2.0 * np.sqrt(r2))


def _lens(c1, r1, c2, r2):
    """A bound on the diameter of the meet of two disks |x - c|^2 <= r^2 (r1, r2 squared)."""
    d = abs(c1 - c2)
    x1 = (d * d + r1 - r2) / (2.0 * d)
    h2 = r1 - x1 * x1
    return np.where((x1 > 0.0) & (d > x1) & (h2 > 0.0), 2.0 * np.sqrt(h2), 2.0 * np.sqrt(np.minimum(r1, r2)))


def _triangle(turn, d):
    """How far from a point the corners lie of triangles of three lines, on the last axis.

    turn holds e^{j*angle} from each line's outer unit normal to the next
    one's, d how far each line lies beyond the point; the corner of lines i
    and j lies sqrt(d_i^2 + d_j^2 - 2*d_i*d_j*cos)/|sin| from it.  NaN
    where the lines bound no triangle: 0 lies outside the normals' hull.
    """
    c, s, e = turn.real, turn.imag, np.roll(d, -1, axis=-1)
    far = np.max(np.sqrt(d * d + e * e - 2.0 * d * e * c) / abs(s), axis=-1)
    return np.where((s > 0.0).all(axis=-1) | (s < 0.0).all(axis=-1), far, np.nan)


def _disk(form):
    """(centre, radius^2) of the zero circle of forms (q2 > 0, w, q0)."""
    q2, w, q0 = form
    c = -np.conj(w) / (2.0 * q2)
    return c, (c * np.conj(c)).real - q0 / q2


def _delivered(cables: _Rows, rows, point, circles) -> np.ndarray:
    """The uncapped delivery rows' winners that a closed form certifies, as _solve's best; NaN elsewhere.

    circles are the switch circle and the rating circles |i_k|^2 =
    (I/(V_ph*v2))^2 at v2_max and then at v2_min of max_feasible_power_rows,
    point its score.  Why a certified winner is the enumeration's:
    - The score f is g*V^2 in a fixed box and g*min(v2_max^2, 3*I^2/|i_k|^2)
      where g > 0 in a free one, and a point scores where both |i_k| are
      within I/(V_ph*v2_min), drawn 1/within wider (_delivery_point).  Grid
      power g is linear in xi and |i_k|^2 a convex quadratic, so each piece
      has convex superlevel sets and f is quasi-concave on the part of the
      box outside the alpha_min disk: the points scoring at least t lie in
      each of the convex sets, the alpha_max disk, both rating disks at
      v2_min drawn wider, the half-plane g >= t/(3*V_ph^2*v2_max^2), and
      where t > 0 the disks 3*I^2*g >= t*within^2*|i_k|^2; in a free box t
      must be > 0.
    - Each row's candidates on the alpha_max, the switch and the v2_max
      rating circles, and the pencil eigenvectors of its ratios, come from
      the candidate solve's enumeration (_points) on the same forms, so
      with its bits and ranks, and are scored and walked as _solve does
      (_walk): s is the winner.  With t = f(s) - m, m = 1e-7 of the
      score's size 3*V_ph^2*v2_max^2*(|a| + |b|*alpha_max), rho is twice
      the least bound on the diameter of a meet of those sets that holds
      s: a disk cut by the half-plane (the top of g along a circle), two
      disks (the top of g/|i_k|^2 along alpha_max or the switch circle, or
      of g along a rating circle at v2_max), the triangle of three of their
      tangents at s (where two circles meet), or one disk (a (grid, cur_k)
      pencil optimum).  Every point scoring over t lies within rho of s.
    - s is certified where that disk lies outside the alpha_min disk and
      inside the beta window and, in a free box, meets neither rating
      circle at v2_min (_clear).  Then every candidate of the enumeration
      that the walk above did not see lies on another curve, outside the
      disk, and trails s by over m > TIE_TOL: the full walk takes what this
      one took.  A row whose walk would cut a node that fails an internal
      check is declined, as _solve would solve it again with the cut.
    """
    cons, n = cables.cons, rows.size
    a_lo, a_hi = cons.alpha_min, cons.alpha_max
    lo, hi, free = cables.lo[rows], cables.hi[rows], (cables.lo < cables.hi)[rows]
    w_lo, w_hi = cables.beta_floor[rows], cables.beta_cap[rows]
    ca, cb, vph, i_rated = cables.a[rows], cables.b[rows], cables.vph[rows], cables.i_rated[rows]
    # the forms: the alpha_max, the switch and the v2_max rating circles, g, 1, |i1|^2 and
    # |i2|^2, then the v2_min rating circles
    forms = [x[rows] for x in _stack([(1.0, 0j, -a_hi * a_hi), *circles[:3], cables.grid, cables.one,
                                       cables.cur1, cables.cur2, *circles[3:]], len(cables))]
    # every candidate on the four circles, of the ratios g/1, and in a free box g/|i1|^2,
    # |i1|^2/1, g/|i2|^2 and |i2|^2/1: a fixed box's |i_k|^2 are NaN here
    shown = free[:, None] | (np.arange(8) < 6)
    row, rank, alpha, beta = _points([np.where(shown, x[:, :8], np.nan) for x in forms], 4,
                                     np.array([(0, 1), (0, 2), (2, 1), (0, 3), (3, 1)]), w_lo, w_hi,
                                     np.zeros(n, bool))
    keep = (a_lo * (1 - _EDGE) <= alpha) & (alpha <= a_hi * (1 + _EDGE))
    row, rank, beta = row[keep], rank[keep], beta[keep]
    alpha = np.minimum(np.maximum(alpha[keep], a_lo), a_hi)
    score, v2 = point(alpha, beta, rows[row])
    # a walk takes a row's best first and, from each best, a next within TIE_TOL, so none of
    # a row's 64 candidates or fewer that trails its best by 100*TIE_TOL is ever reached
    top = np.full(n, -np.inf)
    np.fmax.at(top, row, score)
    pick = np.flatnonzero(score >= top[row] - 100.0 * TIE_TOL)
    pick = pick[np.lexsort((rank[pick], -score[pick], row[pick]))]
    cut = np.zeros(n, bool)

    def check(live, cand, held, wins):      # the internal checks; a row that would be cut stops, unwon
        for i, r in zip(np.flatnonzero(wins).tolist(), live[wins].tolist()):
            if cables.per_row[rows[r]].violations(*cand[1:, i].tolist()):
                wins[i], cut[r] = False, cut[r] or math.isnan(held[0, i])
        return ~cut[live]
    won = _walk(np.array([score, alpha, beta, v2])[:, pick], np.bincount(row[pick], minlength=n),
                check if cables.internal else None)
    s0, a0, b0 = won[:3]
    x0 = a0 * np.exp(1j * b0)

    # the sets that hold every point scoring over t, as forms: the alpha_max disk, the rating
    # disks at v2_min drawn spread wider, and where t > 0 the disks E_k, 3*I^2*g >= t*(1 - spread)*|i_k|^2
    size = 3.0 * cables.vph2[rows] * hi * hi
    m = 1e-7 * size * (abs(ca) + abs(cb) * a_hi)
    t = s0 - m
    kappa = (abs(ca) * a_hi + abs(cb)) * vph * hi / i_rated
    spread = 2e-12 + 8.0 * _EPS * kappa * kappa     # 1/within^2 - 1 and more, where a rating binds
    level, i2 = (1.0 + spread) * (i_rated / (vph * lo)) ** 2, 3.0 * i_rated * i_rated
    tw = np.where(t > 0.0, t * (1.0 - spread), np.nan)[:, None]
    q2, w, q0 = (x[:, 6:8] for x in forms)
    c, r2 = _disk((np.concatenate([np.ones((n, 1)), q2, tw * q2], axis=1),
                   np.concatenate([np.zeros((n, 1)), w, tw * w + (i2 * cb)[:, None]], axis=1),
                   np.concatenate([np.full((n, 1), -a_hi * a_hi), q0 - level[:, None],
                                   tw * q0 + (i2 * ca.real)[:, None]], axis=1)))
    # the half-plane g >= t/size, g = -Re(b*xi + a), as Re(conj(n_g)*xi) >= h_g; with each disk's
    # tangent at the point nearest s, the lines of the triangles, by their outer normals and how
    # far they lie beyond s: the corners of two rating disks, alpha_max and a rating disk, both
    # disks E_k, or alpha_max and one or both of them
    i, j = np.array([(0, 1, 5), (0, 2, 5), (1, 2, 5), (3, 4, 5), (0, 3, 4), (0, 3, 5), (0, 4, 5)]), \
        np.array([(1, 5, 0), (2, 5, 0), (2, 5, 1), (4, 5, 3), (3, 4, 0), (3, 5, 0), (4, 5, 0)])
    n_g, h_g = -np.conj(cb)[:, None], (t / size + ca.real)[:, None]
    toward = x0[:, None] - c
    normal = np.concatenate([toward / abs(toward), -n_g / abs(n_g)], axis=1)
    beyond = np.concatenate([np.sqrt(r2) - abs(toward), ((np.conj(n_g) * x0[:, None]).real - h_g) / abs(n_g)],
                            axis=1)
    lens = _lens(c[:, [0, 0, 3]], r2[:, [0, 0, 3]], c[:, [3, 4, 4]], r2[:, [3, 4, 4]])
    rho = 2.0 * np.fmin(np.fmin.reduce(np.concatenate([_cap(c, r2, n_g, h_g), 2.0 * np.sqrt(r2[:, 3:]), lens],
                                                      axis=1), axis=1),
                        np.fmin.reduce(_triangle(np.conj(normal[:, i]) * normal[:, j], beyond[:, i]), axis=1))
    ok = np.isfinite(s0) & (m > 4.0 * TIE_TOL) & (spread < 1e-6) & ((t > 0.0) | ~free)
    # a free box's rating circles at v2_min may not meet the disk; a fixed box's are NaN
    ok &= _clear([x[:, 8:] for x in forms], True, x0, a0, b0, rho, a_lo, w_lo, w_hi)
    return np.where(ok, won, np.nan)


@np.errstate(all="ignore")      # NaN marks what does not exist
def max_feasible_power_rows(rows: list[tuple[CableSpec, Constraints, float | None]]) -> Optima:
    """max_feasible_power for every (spec, constraints, p_farm_cap) row, in at most one array solve.

    A row without a winner is one that max_feasible_power reports
    Infeasible.  There is at least one row, and the rows may differ in
    their cable, in their constraints' v2 box and in their farm cap only;
    a cap of None or inf caps nothing.  Where a call holds no capped row
    and at least _CERTIFY_ROWS rows, one pass rules out the rows whose
    least larger end current over the box at v2_min exceeds the rating
    (_ruled_out) and certifies most others' winners in closed form
    (_delivered); the candidate solve takes the rows it declines, or every
    row, and a call where it declines none makes no candidate solve.
    Every row finds what the full enumeration finds, bit for bit.
    """
    for _, _, cap in rows:
        if cap is not None and not cap > 0.0:
            raise ValueError(f"p_farm_cap must be > 0 W, got {cap}")
    cables = _Rows([(spec, cons) for spec, cons, _ in rows])
    cap = np.array([math.inf if cap is None else cap for _, _, cap in rows])
    capped = np.isfinite(cap)

    curs, one = (cables.cur1, cables.cur2), cables.one
    k = 3.0 * cables.i_rated2 / cap   # c*v2^2 = cap where farm = q/k
    farm = [np.where(capped, x, np.nan) for x in cables.farm]     # the cap's forms', NaN uncapped
    point, best = _delivery_point(cables, cap), np.full((4, len(cables)), np.nan)
    window = (cables.beta_floor, cables.beta_cap)    # a low cap may be met at beta < 0 only
    # |i_k|^2 per unit volt where the rating binds at each v2 level, squared
    # as r*r: r**2 would raise, not give inf, when a tiny v2 overflows it
    rated = [r * r for v2 in cables.levels for r in (cables.i_rated / (cables.vph * v2),)]
    # the switch circle |i1| = |i2| stays in a fixed box: both ratings meet on it
    switch = _sub(cables.cur1, cables.cur2)
    rating = [[_sub(cur, one, q) for q in rated] for cur in curs]
    todo = np.arange(len(cables))
    if todo.size >= _CERTIFY_ROWS and not capped.any():
        todo = todo[~_ruled_out(cables, todo)]
        if todo.size:
            best[:, todo] = _delivered(cables, todo, point, [switch] + [x[j] for j in (1, 0) for x in rating])
            todo = todo[np.isnan(best[0, todo])]
    if todo.size:
        # a fixed box has one v2 level: its rating and cap circles and its piece at v2_min
        # are NaN, and so are the forms of a free box's v2 at a rating or at the cap
        fixed = np.isnan(cables.levels[0])
        *curs_free, farm_free = ([np.where(fixed, np.nan, x) for x in form] for form in (*curs, farm))
        bounds = [switch, *rating[0], *rating[1]]
        ratios = [(cables.grid, one)]
        ratios += [(num, den) for cur in curs_free for num, den in ((cables.grid, cur), (cur, one))]
        pieces = [(v2 * v2, one) for v2 in cables.levels]
        pieces += [(cables.i_rated2 / cables.vph2, cur) for cur in curs_free]
        if capped.any():
            bounds += [_sub(farm, one, q / k) for q in rated] + [_sub(cur, farm_free, k) for cur in curs]
            ratios.append((cables.grid, farm_free))
            pieces.append((cap / (3.0 * cables.vph2), farm_free))
        best[:, todo] = _solve(cables, window, bounds, ratios, point, pieces, todo, cables.rays)[:, todo]
    return Optima(cables, best)


def max_feasible_power(
    spec: CableSpec,
    constraints: Constraints | None = None,
    p_farm_cap: float | None = None,
) -> tuple[float, float, OptimumPoint]:
    """Maximize delivered grid power over the whole operating box.

    Returns (p_farm_at_max, p_grid_max, point).  p_farm_cap, where set,
    caps the injection too: a farm cannot inject more than it produces.

    v2 is the lowest of v2_max, the rating I/|i_k| and sqrt(cap/c) (v2_min
    when g <= 0), so g*v2^2 is g, g/|i_k|^2 or g/c times a constant.  The
    pieces switch and feasibility ends on circles over the cable's whole
    beta branch, and the extremes of |i_k|^2 are candidates too, so a box
    with a feasible point, within the cap if set, is never Infeasible.
    A fixed box has the one piece g*v2^2.  In every box, on a short cable,
    the end currents may exceed the rating by up to 4*eps*kappa^2 relative,
    kappa = (|a|*alpha + |b|)*V_ph/i: the rounding of the rating circles,
    within which a rating counts as the v2 bound it is at.  g is linear
    and |i_k|^2 convex in xi, so each piece has convex superlevel sets
    where g > 0 and the delivered power is quasi-concave on the box
    outside the alpha_min disk; max_feasible_power_rows certifies its
    winners in closed form on that part (_delivered) where a call holds
    enough uncapped rows.  A one-row call goes to the candidate solve.
    """
    cons = constraints if constraints is not None else Constraints()
    point = max_feasible_power_rows([(spec, cons, p_farm_cap)]).point(0)
    if point is None:
        # a capped box may operate without its cap: solved again, on this error path only
        if p_farm_cap is not None and max_feasible_power_rows([(spec, cons, None)]).found[0]:
            raise Infeasible(f"no operating point at v2 in [{cons.v2_min}, {cons.v2_max}] p.u. injects "
                             f"at most the cap of {p_farm_cap/1e6:.3f} MW; without the cap the box operates")
        raise inoperable(spec, cons)
    return point.flow.p_farm, point.flow.p_grid, point


def inoperable(spec: CableSpec, constraints: Constraints) -> Infeasible:
    """The Infeasible of a box where max_feasible_power finds no operating point at all.

    With an internal check on, the box is solved again without the checks,
    on this error path only: where that finds a point, the message names
    the checks as the cause.
    """
    cons, vmax = constraints, constraints.check_internal_voltage_max
    checks = ([f"current ({cons.rated_current(spec):.0f} A)"] if cons.check_internal_current else []
              ) + ([f"voltage ({vmax} p.u.)"] if vmax is not None else [])
    unchecked = replace(cons, check_internal_current=False, check_internal_voltage_max=None)
    if checks and max_feasible_power_rows([(spec, unchecked, None)]).found[0]:
        return Infeasible(
            f"every operating point at v2 in [{cons.v2_min}, {cons.v2_max}] p.u. fails the internal "
            f"{' or '.join(checks)} check; without the internal checks the box operates"
        )
    return Infeasible(
        f"charging current alone exceeds {constraints.rated_current(spec):.0f} A at "
        f"v2 = {constraints.v2_min} p.u.; even zero-power operation violates limits"
    )


def transfer_envelope(
    spec_template: CableSpec,
    lengths: list[float],
    v2_values: list[float],
    constraints: Constraints | None = None,
) -> TransferEnvelope:
    """Capability study: thin fixed-voltage curves plus the upper envelope.

    Per (length, v2) the deliverable maximum at that fixed voltage; per
    length also the maximum with v2 free inside the constraint box, every
    row of every length in one call.  That optimal row is
    the best of the free box's row and the fixed rows whose v2 lies in the
    box, so it never reads below one of them whatever the rounding.
    Infeasible combinations are recorded as zero capability, not errors.
    """
    if not lengths or not v2_values:
        raise ValueError("lengths and v2_values must be non-empty")
    cons = constraints if constraints is not None else Constraints()
    boxes = [cons.fixed_v2(v2) for v2 in v2_values] + [cons]
    rows = [(spec, box, None) for spec in map(spec_template.with_length, lengths) for box in boxes]
    won = max_feasible_power_rows(rows)
    out = []
    for (spec, box, _), found, v2, pf, pg in zip(rows, *(x.tolist() for x in (
            won.found, won.v2, won.p_farm, won.p_grid))):
        if not found:
            out.append(EnvelopePoint(spec.length_km, box.v2_min, 0.0, 0.0, feasible=False))
        elif pg > 0.0:
            out.append(EnvelopePoint(spec.length_km, v2, pg, pf))
        else:
            out.append(EnvelopePoint(spec.length_km, v2, 0.0, 0.0))
    # each length's rows: the fixed voltages, then the free one, which max keeps on a tie
    groups = [out[j:j + len(boxes)] for j in range(0, len(out), len(boxes))]
    inside = [cons.v2_min <= v2 <= cons.v2_max for v2 in v2_values]
    return TransferEnvelope(tuple(pt for group in groups for pt in group[:-1]), tuple(
        max([group[-1]] + [pt for pt, ok in zip(group, inside) if ok], key=lambda pt: pt.p_grid_max)
        for group in groups))
