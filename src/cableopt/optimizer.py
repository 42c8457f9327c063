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

The solve has a leading row axis: a row is one problem (a cable, a
production level or a farm cap, and a v2 box), and the cable numbers,
the circles, their sinusoids, roots, eigenvectors and candidates are
numpy arrays over rows, NaN where one does not exist.  Each distinct
cable computes its numbers as Python numbers once (_Rows), so a row does
the same floating-point work as its one-row call.  optimize_at_production,
max_feasible_power and optimize_scaling_unconstrained are one-row solves;
optimize_at_production_rows and max_feasible_power_rows take many rows at
once, so a command makes one solve per kind: transfer_envelope over every
(length, policy), compare_strategies over every strategy's bins and the
sweep command over every (policy, level).
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .cable_model import (MAX_POINTS, CableSpec, SegmentProfile, TwoPort, exact_pi_two_port,
                          segment_profile)
from .errors import Infeasible
from .power_flow import FlowSolution, OperatingPoint, VoltageScaling, two_port_flow, unit_flow

TIE_TOL = 1e-9
# limits checked exactly are drawn this fraction inside, so rounding leaves
# the points on their circles on the feasible side; the internal checks pass
# up to this fraction above, and an alpha this close to a bound snaps onto it
_EDGE = 1e-12
# rows go through the candidate solve in blocks of about this many
# (curve, form) pairs, which bounds its memory whatever the row count
_CELLS = 1 << 13


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
# [[q2, conj(w)/2], [w/2, q0]], valued q2*|x1|^2 + Re(w*x1*conj(x2)) + q0*|x2|^2.
# A part is a number or an array over rows; the arrays below carry NaN where
# a circle, root or candidate does not exist.

_ONE = (0.0, 0j, 1.0)
_ID = (1.0, 0j, 1.0)


def _abs2(p: complex, q: complex):
    """The form |p*xi + q|^2."""
    return abs(p) ** 2, 2.0 * p * q.conjugate(), abs(q) ** 2


def _sub(f, g, k=1.0):
    """The form f - k*g; a part of g that is the number 0 subtracts nothing, even k = inf times it."""
    return tuple(x - k * y if isinstance(y, np.ndarray) or y else x for x, y in zip(f, g))


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


def _curves(forms, n: int, lo, hi):
    """The curves of a solve and the pencil eigenvectors of its ratios.

    forms are (rows, n + 2k) arrays of form parts: n circles, then the k
    numerators and the k denominators of the ratios; lo and hi are each
    row's beta window.  Returns the (u1, u2, v1, v2) of both window rays
    and then the circles, a (4, rows, n + 2, 1) array, and the (rows, 2k)
    eigenvectors xi = x1/x2.
    """
    rows, k = len(forms[0]), (forms[0].shape[1] - n) // 2
    # the identity stands in for the denominator of each circle's own pencil
    dens = []
    for part, one in zip(forms, _ID):
        den = np.empty((rows, n + k), part.dtype)
        den[:, :n], den[:, n:] = one, part[:, n + k:]
        dens.append(den)
    lam, x1, x2 = _eig([part[:, :n + k] for part in forms], dens)
    ray = np.exp(1j * np.stack([lo, hi], axis=-1))
    curve = np.empty((4, rows, n + 2, 1), complex)
    curve[0, :, :2, 0], curve[2, :, :2, 0] = -1j * ray, 1j * ray
    curve[1, :, :2, 0] = curve[3, :, :2, 0] = 1.0
    curve[:, :, 2:, 0] = _circle(lam[..., :n], x1[..., :n], x2[..., :n])
    return curve, (x1[..., n:] / x2[..., n:]).transpose(1, 2, 0).reshape(rows, -1)


def _sinusoids(curve, forms, n: int):
    """Sinusoids (k0, kc, ks) along each curve, one per circle and then one per ratio.

    Their zeros are the curve's meetings with the circles, NaN for the
    circles up to its own, and the stationary points of each ratio, where
    num'*den - num*den' is zero.
    """
    k = (forms[0].shape[1] - n) // 2
    k0, kc, ks = _along(curve, [part[:, None, :] for part in forms])
    (g0, f0), (gc, fc), (gs, fs) = ((x[..., n:n + k], x[..., n + k:]) for x in (k0, kc, ks))
    out = [np.concatenate([x[..., :n], y], axis=-1) for x, y in
           ((k0, gs * fc - gc * fs), (kc, gs * f0 - g0 * fs), (ks, g0 * fc - gc * f0))]
    for i in range(n):          # each pair of circles once
        out[0][:, 2 + i, :i + 1] = np.nan
    return out


def _points(forms, n: int, lo, hi):
    """Every candidate maximum of a ratio in the beta window [lo, hi] of each row.

    forms are (rows, n + 2k) arrays of form parts: n circles, then the k
    numerators and the k denominators of the ratios.  The candidates are the pencil eigenvectors of each ratio; along each
    circle its meetings with the later circles and each ratio's stationary
    points; the same along each window ray, traced as
    xi = e^{j*beta}*tan(phi/2), which meets every circle.  They come as
    (row, rank, alpha, beta) arrays, one entry per candidate that exists;
    rank orders the candidates of a row: the rays, the eigenvectors, then
    the circles.
    """
    rows, k = len(forms[0]), (forms[0].shape[1] - n) // 2
    curve, pencil = _curves(forms, n, lo, hi)
    phi = _sinusoid_roots(*_sinusoids(curve, forms, n)).reshape(rows, n + 2, -1)
    width = phi.shape[2]
    # the angles that exist, each on a curve, and where they lie
    row, cur, rank = np.nonzero(np.isfinite(phi))
    phi = phi[row, cur, rank]
    rank += cur * width
    rank[cur >= 2] += 2 * k     # after the rays and the eigenvectors
    xi = np.exp(1j * phi)
    den = xi * curve[1, row, cur, 0]
    den += curve[3, row, cur, 0]
    xi *= curve[0, row, cur, 0]
    xi += curve[2, row, cur, 0]
    xi /= den
    del den
    alpha, beta = abs(xi), np.angle(xi)
    ok = np.isfinite(alpha) & (lo[row] <= beta) & (beta <= hi[row])
    ray = np.flatnonzero(cur < 2)
    alpha[ray] = np.tan(0.5 * phi[ray])
    beta[ray] = np.where(cur[ray] == 0, lo[row[ray]], hi[row[ray]])
    ok[ray] = alpha[ray] > 0.0
    # then the eigenvectors
    at_row, at_pos = np.nonzero(np.isfinite(pencil))
    xi = pencil[at_row, at_pos]
    at_alpha, at_beta = abs(xi), np.angle(xi)
    at_ok = np.isfinite(at_alpha) & (lo[at_row] <= at_beta) & (at_beta <= hi[at_row])
    return tuple(np.concatenate([x[ok], y[at_ok]]) for x, y in
                 ((row, at_row), (rank, 2 * width + at_pos), (alpha, at_alpha), (beta, at_beta)))


# ---------------------------------------------------------------------------
# the cable and the candidate solve

class _Cable:
    """Precomputed quantities of one cable for the solves, as Python numbers."""

    def __init__(self, spec: CableSpec, constraints: Constraints):
        self.spec = spec
        self.cons = constraints
        self.tp: TwoPort = exact_pi_two_port(spec)
        a, b = self.tp.a, self.tp.b
        # the forms square the admittances, which overflows on a cable short
        # enough: it has no operating point the solves can represent
        size = abs(a) + abs(b)
        if not math.isfinite(size * size):
            raise Infeasible(f"a {spec.length_km:g} km cable is too short: "
                             f"its admittances overflow when squared")
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


class _Rows:
    """The cables of a solve's rows, one _Cable per distinct spec.

    The numbers the array solve reads per cable are gathered into arrays
    over rows: each distinct cable computes them as Python numbers, as a
    one-row solve does, so every row does the same floating-point work
    whatever its batch.
    """

    def __init__(self, specs: list[CableSpec], constraints: Constraints):
        distinct = {}
        which = np.array([distinct.setdefault(spec, len(distinct)) for spec in specs])
        self.distinct = [_Cable(spec, constraints) for spec in distinct]
        self.per_row = [self.distinct[k] for k in which]
        self.which = which
        self.cons = constraints
        self.tp = TwoPort(*self.gather(lambda cab: (cab.tp.a, cab.tp.b)))
        self.vph, self.vph2, self.i_rated = self.gather(lambda cab: (cab.vph, cab.vph2, cab.i_rated))
        # the four forms' parts, real but for the middle one; a part 0 on every cable stays 0
        table = np.array([cab.farm + cab.grid + cab.cur1 + cab.cur2 for cab in self.distinct])
        zero = ~table.any(axis=0)
        table = table[which]
        parts = [0.0 if zero[j] else table[:, j] if j % 3 == 1 else table[:, j].real for j in range(12)]
        self.farm, self.grid, self.cur1, self.cur2 = (tuple(parts[j:j + 3]) for j in range(0, 12, 3))

    def __len__(self):
        return len(self.per_row)

    def gather(self, numbers):
        """numbers(cab) of each row's cable, as an array over rows, or one per number of a tuple."""
        return np.array([numbers(cab) for cab in self.distinct])[self.which].T

    def at(self, alpha, beta, r):
        """(c, g, eta, i) at xi = alpha*e^{j*beta} on rows r, from power_flow.unit_flow, elementwise.

        p_farm = c*v2^2 and p_grid = g*v2^2 [W/(p.u.)^2], eta = g/c (-inf
        when c <= 0) and i is the larger end current per p.u. of v2 [A].
        """
        farm, grid, i1, i2 = unit_flow(TwoPort(self.tp.a[r], self.tp.b[r]), alpha * np.exp(1j * beta))
        eta = np.where(farm > 0.0, grid / farm, -np.inf)
        vph2 = self.vph2[r]
        return 3.0 * farm * vph2, 3.0 * grid * vph2, eta, np.maximum(abs(i1), abs(i2)) * self.vph[r]


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


def _cut_out(cuts, alpha, beta, v2):
    """Candidates at least one cut node already rules out, from its form alone.

    The 1e-9 margin covers the form's rounding; what it lets through, the
    profile check rejects.
    """
    xi, out = alpha * np.exp(1j * beta), np.zeros(alpha.shape, bool)
    for (q2, w, q0), limit in cuts:
        out |= (q2 * alpha * alpha + (w * xi).real + q0) * v2 * v2 > (1 + 1e-9) * limit * limit
    return out


def _solve(cables: _Rows, window, bounds, ratios, point, pieces=()) -> list[_Candidate | None]:
    """Best point(alpha, beta) by _better over the alpha annulus and the beta window, per row.

    window is each row's beta window (lo, hi), bounds are the forms whose
    zero circles limit the region or switch the objective between pieces,
    ratios the (num, den) forms it is made of, and
    point(alpha, beta, r) scores candidates, r their rows: (score, v2)
    arrays, NaN score where infeasible.  Each row visits its candidates by
    descending score and stops where none is left within TIE_TOL of its
    best.  The internal checks run in that order until one passes; pieces
    lists (k, den) with v2^2 = k/den on each piece of v2, and a candidate
    above every passing one that fails at a new node n, limit L, adds the
    circle k*n - L^2*den per piece, and its row is solved again; there, a
    candidate that a node already cut rules out is dropped by the node's
    form before any profile is built.
    """
    rows = len(cables)
    a_lo, a_hi = cables.cons.alpha_min, cables.cons.alpha_max
    # the alpha circles and the bounds, then the ratios' numerators and denominators
    n_base = 2 + len(bounds)
    base = _stack([(1.0, 0j, -a_lo * a_lo), (1.0, 0j, -a_hi * a_hi)] + list(bounds)
                  + [num for num, _ in ratios] + [den for _, den in ratios], rows)
    best: list[_Candidate | None] = [None] * rows
    cuts = [[] for _ in range(rows)]
    extra = [[] for _ in range(rows)]
    todo = np.arange(rows)
    while todo.size:
        width = max(len(extra[r]) for r in todo)
        n = n_base + width
        step = max(1, _CELLS // ((n + 2) * (n + 2 * len(ratios))))
        again = []
        for block in (todo[i:i + step] for i in range(0, todo.size, step)):
            forms = [part[block] for part in base]
            if width:
                # each row's cut circles after the others, padded with NaN to the longest list
                ext = [np.full((block.size, width), np.nan, dtype) for dtype in (float, complex, float)]
                for j, r in enumerate(block):
                    for part, x in zip(ext, _stack(extra[r], 1)):
                        part[j, :x.shape[1]] = x[0]
                forms = [np.concatenate([part[:, :n_base], x, part[:, n_base:]], axis=1)
                         for part, x in zip(forms, ext)]
            row, rank, alpha, beta = _points(forms, n, *(end[block] for end in window))
            # the candidates in the annulus, by row, descending score and rank
            inside = (a_lo * (1 - _EDGE) <= alpha) & (alpha <= a_hi * (1 + _EDGE))
            row, rank, beta = row[inside], rank[inside], beta[inside]
            alpha = np.minimum(np.maximum(alpha[inside], a_lo), a_hi)
            score, v2 = point(alpha, beta, block[row])
            valid = np.isfinite(score)
            for j, r in enumerate(block):
                if cuts[r]:
                    mine = np.flatnonzero(row == j)
                    valid[mine] &= ~_cut_out(cuts[r], alpha[mine], beta[mine], v2[mine])
            pick = np.flatnonzero(valid)
            pick = pick[np.lexsort((rank[pick], -score[pick], row[pick]))]
            ranked = [x[pick] for x in (score, alpha, beta, v2)]
            edges = np.searchsorted(row[pick], np.arange(block.size + 1))
            for r, start, end in zip(block, edges[:-1], edges[1:]):
                row_best, new = None, []
                for at in range(start, end):
                    cand = _Candidate(*(float(x[at]) for x in ranked))
                    if row_best is not None and cand.score < row_best.score - TIE_TOL:
                        break
                    if _better(cand, row_best):
                        fails = cables.per_row[r].violations(cand)
                        if not fails:
                            row_best = cand
                        elif row_best is None and (new := [cut for cut in fails if cut not in cuts[r]]):
                            break
                if new:
                    cuts[r] += new
                    extra[r] += [_sub(tuple(float(np.broadcast_to(k, (rows,))[r]) * x for x in form),
                                      tuple(x[r] if isinstance(x, np.ndarray) else x for x in den),
                                      (limit * (1 - _EDGE)) ** 2)
                                 for form, limit in new for k, den in pieces]
                    again.append(r)
                else:
                    best[r] = row_best
        todo = np.array(again, dtype=int)
    return best


# ---------------------------------------------------------------------------
# unconstrained scaling optimum

@np.errstate(all="ignore")      # NaN marks what does not exist
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
    cables = _Rows([spec], Constraints(alpha_min=a_lo, alpha_max=a_hi))

    def point(alpha, beta, r):
        eta = cables.at(alpha, beta, r)[2]
        return np.where(np.isfinite(eta), eta, np.nan), np.zeros_like(eta)

    window = cables.gather(lambda cab: (1e-6, cab.beta_cap))
    best = _solve(cables, window, [], [(cables.grid, cables.farm)], point)[0]
    if best is None:
        raise Infeasible("no scaling in range yields positive farm power")
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
    farm, _, i1, i2 = unit_flow(exact_pi_two_port(spec), scaling.xi)
    c = 3.0 * farm * spec.phase_voltage**2
    if not c > 0.0:
        raise Infeasible(f"farm power coefficient is {c:.3g} W/pu^2 at this scaling")
    i_unit = max(abs(i1), abs(i2)) * spec.phase_voltage
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

def _row_cables(rows: list[tuple[CableSpec, Constraints]]):
    """The _Rows of a batch and its v2 bounds per row.

    The rows may differ in their cable and v2 box only: not in their alpha
    bounds, rating override or internal checks.
    """
    first = rows[0][1]
    for box in {id(box): box for _, box in rows}.values():
        if box is not first and box.with_v2_range(first.v2_min, first.v2_max) != first:
            raise ValueError("the rows of one solve may differ in their cable and v2 box only")
    return (_Rows([spec for spec, _ in rows], first), np.array([box.v2_min for _, box in rows]),
            np.array([box.v2_max for _, box in rows]))


def _optimum(cab: _Cable, cons: Constraints, best: _Candidate) -> OptimumPoint:
    """A row's winner as an OptimumPoint: the reference flow plus the limits it meets."""
    alpha, beta, v2, rel = best.alpha, best.beta, best.v2, 1e-6
    op = OperatingPoint(v2, VoltageScaling(alpha, beta))
    flow = two_port_flow(cab.tp, cab.vph, op)
    a_span = max(cons.alpha_max - cons.alpha_min, 1e-9)
    v_cap = cons.check_internal_voltage_max
    meets = (
        (BindingConstraint.V2_MAX, v2 >= cons.v2_max * (1 - rel)),
        (BindingConstraint.V2_MIN, v2 <= cons.v2_min * (1 + rel)),
        (BindingConstraint.CURRENT_LIMIT, max(abs(flow.i1), abs(flow.i2)) >= cab.i_rated * (1 - rel)),
        (BindingConstraint.ALPHA_MAX, cons.alpha_max - alpha <= rel * a_span),
        (BindingConstraint.ALPHA_MIN, alpha - cons.alpha_min <= rel * a_span),
        (BindingConstraint.INTERNAL_VOLTAGE, v_cap is not None and (
            cab.profile(alpha, beta, v2).max_voltage >= v_cap * cab.vph * (1 - rel))),
    )
    return OptimumPoint(op, flow, frozenset(c for c, m in meets if m))


# ---------------------------------------------------------------------------
# constrained optimum at a required production level

@np.errstate(all="ignore")      # NaN marks what does not exist
def optimize_at_production_rows(
    rows: list[tuple[CableSpec, float, Constraints]],
) -> list[OptimumPoint | None]:
    """optimize_at_production for every (spec, p_farm, constraints) row in one array solve.

    None marks a row that optimize_at_production reports Infeasible.  The
    rows may differ in their cable and in their constraints' v2 box only.
    """
    if not rows:
        return []
    for _, p, _ in rows:
        if not (p > 0.0 and math.isfinite(p)):
            raise ValueError(f"p_farm must be > 0 W, got {p}")
    cables, lo, hi = _row_cables([(spec, cons) for spec, _, cons in rows])
    p = np.array([p for _, p, _ in rows])

    k = p / (3.0 * cables.vph2)      # v2^2 = k/farm
    shrunk = cables.gather(lambda cab: 3.0 * (cab.i_rated * (1.0 - _EDGE)) ** 2) / p
    bounds = [_sub(cables.farm, _ONE, k / (v2 * v2)) for v2 in (lo, hi)]
    bounds += [_sub(cur, cables.farm, shrunk) for cur in (cables.cur1, cables.cur2)]

    def point(alpha, beta, r):
        c, _, eta, i = cables.at(alpha, beta, r)
        v2 = np.sqrt(p[r] / c)
        fits = (c > 0.0) & (lo[r] * (1 - 1e-9) <= v2) & (v2 <= hi[r] * (1 + 1e-9))
        fits &= ~(i * v2 > cables.i_rated[r])
        return np.where(fits, eta, np.nan), v2

    window = cables.gather(lambda cab: (cab.beta_floor, cab.beta_cap))
    best = _solve(cables, window, bounds, [(cables.grid, cables.farm)], point, [(k, cables.farm)])
    return [None if b is None else _optimum(cab, cons, b)
            for (_, _, cons), cab, b in zip(rows, cables.per_row, best)]


def optimize_at_production(spec: CableSpec, p_farm: float,
                           constraints: Constraints | None = None) -> OptimumPoint:
    """Most efficient feasible way to inject exactly p_farm watts.

    The v2 box is the pair of circles c = p_farm/v2^2 and each rating the
    circle p_farm*|i|^2 = 3*I^2*farm.  Raises Infeasible when no (v2, xi)
    in the box transmits p_farm within ratings; the caller decides how to
    treat the shortfall.
    """
    cons = constraints if constraints is not None else Constraints()
    point = optimize_at_production_rows([(spec, p_farm, cons)])[0]
    if point is None:
        raise Infeasible(
            f"no operating point in the box transmits {p_farm/1e6:.3f} MW "
            f"within v2 in [{cons.v2_min}, {cons.v2_max}] p.u. and "
            f"{cons.rated_current(spec):.0f} A"
        )
    return point


# ---------------------------------------------------------------------------
# maximum deliverable power

@np.errstate(all="ignore")      # NaN marks what does not exist
def max_feasible_power_rows(
    rows: list[tuple[CableSpec, Constraints, float | None]],
) -> list[OptimumPoint | None]:
    """max_feasible_power for every (spec, constraints, p_farm_cap) row in one array solve.

    None marks a row that max_feasible_power reports Infeasible.  The rows
    may differ in their cable and in their constraints' v2 box only, and
    either every row has a farm cap or none has.
    """
    if not rows:
        return []
    capped = {cap is not None for _, _, cap in rows}
    if len(capped) > 1:
        raise ValueError("p_farm_cap must be set on every row of a solve or on none")
    for _, _, cap in rows:
        if cap is not None and not cap > 0.0:
            raise ValueError(f"p_farm_cap must be > 0 W, got {cap}")
    cables, lo, hi = _row_cables([(spec, cons) for spec, cons, _ in rows])
    cap = np.array([cap for _, _, cap in rows]) if capped == {True} else None

    curs = (cables.cur1, cables.cur2)
    i_rated2 = cables.gather(lambda cab: cab.i_rated**2)
    # |i_k|^2 per unit volt where the rating binds at each v2 bound, squared
    # as r*r: r**2 would raise, not give inf, when a tiny v2 overflows it
    levels = [r * r for v2 in (lo, hi) for r in (cables.i_rated / (cables.vph * v2),)]
    bounds = [_sub(cables.cur1, cables.cur2)] + [_sub(cur, _ONE, q) for cur in curs for q in levels]
    ratios = [(cables.grid, _ONE)] + [(num, den) for cur in curs for num, den in
                                   ((cables.grid, cur), (cur, _ONE))]
    pieces = [(v2 * v2, _ONE) for v2 in (lo, hi)]
    pieces += [(i_rated2 / cables.vph2, cur) for cur in curs]
    if cap is not None:
        k = 3.0 * i_rated2 / cap   # c*v2^2 = cap where farm = q/k
        bounds += [_sub(cables.farm, _ONE, q / k) for q in levels]
        bounds += [_sub(cur, cables.farm, k) for cur in curs]
        ratios.append((cables.grid, cables.farm))
        pieces.append((cap / (3.0 * cables.vph2), cables.farm))

    def point(alpha, beta, r):
        c, g, _, i = cables.at(alpha, beta, r)
        v2 = np.minimum(hi[r], cables.i_rated[r] / i)
        if cap is not None:
            v2 = np.where(c > 0.0, np.minimum(v2, np.sqrt(cap[r] / c)), v2)
        fits = ~(v2 < lo[r] * (1 - 1e-12))
        # delivery grows with v2 when g > 0; otherwise park at the floor
        v2 = np.where(g > 0.0, np.maximum(v2, lo[r]), lo[r])
        return np.where(fits, g * v2 * v2, np.nan), v2

    window = cables.gather(lambda cab: cab.delivery_window)
    best = _solve(cables, window, bounds, ratios, point, pieces)
    return [None if b is None else _optimum(cab, cons, b)
            for (_, cons, _), cab, b in zip(rows, cables.per_row, best)]


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
    cons = constraints if constraints is not None else Constraints()
    point = max_feasible_power_rows([(spec, cons, p_farm_cap)])[0]
    if point is None:
        raise inoperable(spec, cons)
    return point.flow.p_farm, point.flow.p_grid, point


def inoperable(spec: CableSpec, constraints: Constraints) -> Infeasible:
    """The Infeasible of a box where max_feasible_power finds no operating point at all."""
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
    row of every length in one solve.  Infeasible combinations are
    recorded as zero capability, not errors.
    """
    if not lengths or not v2_values:
        raise ValueError("lengths and v2_values must be non-empty")
    cons = constraints if constraints is not None else Constraints()
    boxes = [cons.fixed_v2(v2) for v2 in v2_values] + [cons]
    rows = [(spec, box, None) for spec in map(spec_template.with_length, lengths) for box in boxes]

    def capability(spec: CableSpec, box: Constraints, point: OptimumPoint | None) -> EnvelopePoint:
        if point is None:
            return EnvelopePoint(spec.length_km, box.v2_min, 0.0, 0.0, feasible=False)
        pf, pg = point.flow.p_farm, point.flow.p_grid
        if not pg > 0.0:
            pf = pg = 0.0
        return EnvelopePoint(spec.length_km, point.operating_point.v2, pg, pf)

    out = [capability(spec, box, point)
           for (spec, box, _), point in zip(rows, max_feasible_power_rows(rows))]
    # each length's rows: the fixed voltages, then the free one
    groups = [out[j:j + len(boxes)] for j in range(0, len(out), len(boxes))]
    return TransferEnvelope(tuple(pt for group in groups for pt in group[:-1]),
                            tuple(group[-1] for group in groups))
