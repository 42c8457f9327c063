"""Independent references for cross-checking the cable model and the optimizer.

The optimizer references reimplement the physics directly with plain cmath
hyperbolic functions and dense numpy grids; no search logic is shared
with the package.  Boundary candidates (voltage box and current rating
crossings along the power-equality manifold) are added by bisection of
the gridded sign changes, since a finite grid cannot land exactly on an
active constraint.  The line profile reference integrates the telegrapher
equations and uses no hyperbolic function at all.  The tie rule's
reference walks each row's ranked candidates one float tuple at a time.
The internal checks' reference builds a full segment profile per point.
The delivery solve's reference runs the package's candidate solve on the
form lists of a free v2 box for every box.  The synthetic duration
curve's reference builds each curve bin by bin and bisects the Weibull
scale for a fixed number of steps.  The flow references
form the two-port flow in Python's complex arithmetic.  The annual study's
reference sends every short bin through the capped delivery solve and
builds each bin's outcome as it goes.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from cableopt.annual_energy import DurationCurve, load_duration_curve, utilization_factor
from cableopt.cable_model import segment_profile
from cableopt.errors import ConfigError, Infeasible
from cableopt.optimizer import TIE_TOL


def oracle_two_port(spec):
    w = 2.0 * math.pi * spec.frequency
    z = complex(spec.pul.r, w * spec.pul.l)
    y = complex(spec.pul.g, w * spec.pul.c)
    zc = cmath.sqrt(z / y)
    gl = cmath.sqrt(z * y) * spec.length_km
    return cmath.cosh(gl) / (cmath.sinh(gl) * zc), -1.0 / (zc * cmath.sinh(gl))


def rk4_line_profile(spec, v1, v2, n_segments, h_max=0.1):
    """Voltages at x = k*l/N and the currents I(0), I(l) of the line solution.

    Integrates dV/dx = -z*I, dI/dx = -y*V with classical RK4.  For this
    linear system one step of length h is the matrix
    M = sum_{k<=4} (h*A)^k/k!, A = [[0, -z], [-y, 0]], taken with
    h <= h_max [km] and a whole number of steps per segment.  The
    propagator is carried from x = 0 to every node, and I(0) is shot so
    that V(l) = v2: the system is linear, so one shot is exact.  I(x) flows
    in +x, so the current into the cable at the far end is -I(l).
    """
    w = 2.0 * math.pi * spec.frequency
    z = complex(spec.pul.r, w * spec.pul.l)
    y = complex(spec.pul.g, w * spec.pul.c)
    seg = spec.length_km / n_segments
    m = math.ceil(seg / h_max)
    ha = seg / m * np.array([[0.0, -z], [-y, 0.0]])
    step = term = np.eye(2, dtype=complex)
    for k in range(1, 5):
        term = term @ ha / k
        step = step + term
    seg_map = np.linalg.matrix_power(step, m)
    phi = [np.eye(2, dtype=complex)]
    for _ in range(n_segments):
        phi.append(seg_map @ phi[-1])
    phi = np.array(phi)
    i0 = (v2 - phi[-1, 0, 0] * v1) / phi[-1, 0, 1]
    return phi[:, 0, 0] * v1 + phi[:, 0, 1] * i0, i0, phi[-1, 1, 0] * v1 + phi[-1, 1, 1] * i0


def oracle_eta(a, b, xi):
    farm = (xi * (a * xi + b).conjugate()).real
    if farm <= 0.0:
        return -math.inf
    return -(b * xi + a).real / farm


def best_eta_unconstrained(spec, d_alpha=0.001, d_beta_deg=0.02,
                           alpha_range=(1.0, 1.1), beta_max_deg=20.0):
    """Fine-grid maximum of the scaling efficiency (interior optimum)."""
    a, b = oracle_two_port(spec)
    alphas = np.linspace(alpha_range[0], alpha_range[1],
                         int(round((alpha_range[1] - alpha_range[0]) / d_alpha)) + 1)
    betas = np.radians(np.arange(d_beta_deg, beta_max_deg, d_beta_deg))
    xi = alphas[:, None] * np.exp(1j * betas[None, :])
    farm = (xi * np.conj(a * xi + b)).real
    grid = -(b * xi + a).real
    with np.errstate(divide="ignore", invalid="ignore"):
        eta = np.where(farm > 0, grid / farm, -np.inf)
    return float(np.max(eta))


def _bisect(fun, lo, hi, iters=80):
    flo = fun(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if (fun(mid) > 0) == (flo > 0):
            lo = mid
            flo = fun(mid)
        else:
            hi = mid
    return 0.5 * (lo + hi)


def best_eta_at_production(spec, p_farm, v2_min, v2_max, i_rated,
                           d_alpha=0.002, d_beta_deg=0.05, beta_max_deg=60.0):
    """Exhaustive-grid constrained maximum of eta at a required injection.

    Returns the best eta or None when no grid/boundary point is feasible.
    v2 follows from the power equality per (alpha, beta); grid points are
    filtered by the voltage box and the current rating, and the exact
    constraint crossings bracketed by the beta grid are added per alpha.
    beta is scanned from arg(b) - pi, where farm power is least: the lowest
    injections need small or negative beta.
    """
    a, b = oracle_two_port(spec)
    vph = spec.nominal_voltage / math.sqrt(3.0)
    n_alpha = int(round(0.1 / d_alpha)) + 1
    alphas = np.linspace(1.0, 1.1, n_alpha)
    k_floor = math.floor(math.degrees(cmath.phase(b) - math.pi) / d_beta_deg) + 1
    betas = np.radians(d_beta_deg * np.arange(k_floor, round(beta_max_deg / d_beta_deg)))

    best = -math.inf

    def point_quantities(alpha, beta):
        xi = alpha * cmath.exp(1j * beta)
        c = 3.0 * (xi * (a * xi + b).conjugate()).real * vph**2
        if c <= 0.0:
            return math.nan, math.nan
        v2 = math.sqrt(p_farm / c)
        imax = max(abs(a * xi + b), abs(b * xi + a)) * vph
        return v2, imax

    def try_point(alpha, beta):
        nonlocal best
        v2, imax = point_quantities(alpha, beta)
        if not math.isfinite(v2):
            return
        if not (v2_min * (1 - 1e-9) <= v2 <= v2_max * (1 + 1e-9)):
            return
        if imax * v2 > i_rated * (1 + 1e-9):
            return
        e = oracle_eta(a, b, alpha * cmath.exp(1j * beta))
        if e > best:
            best = e

    for alpha in alphas:
        xi = alpha * np.exp(1j * betas)
        cc = 3.0 * (xi * np.conj(a * xi + b)).real * vph**2
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            v2 = np.where(cc > 0, np.sqrt(p_farm / np.maximum(cc, 1e-300)), np.nan)
        imax = np.maximum(np.abs(a * xi + b), np.abs(b * xi + a)) * vph
        farm = (xi * np.conj(a * xi + b)).real
        grid_coeff = -(b * xi + a).real
        with np.errstate(divide="ignore", invalid="ignore"):
            eta = np.where(farm > 0, grid_coeff / farm, -np.inf)
        ok = (cc > 0) & (v2 >= v2_min) & (v2 <= v2_max) & (imax * v2 <= i_rated)
        if ok.any():
            m = float(np.max(np.where(ok, eta, -np.inf)))
            if m > best:
                best = m

        # boundary completion: bisect every sign change of the constraint
        # residuals bracketed by the beta grid, then test the crossing point
        def res_v2max(bb, _a=alpha):
            return point_quantities(_a, bb)[0] - v2_max

        def res_v2min(bb, _a=alpha):
            return point_quantities(_a, bb)[0] - v2_min

        def res_current(bb, _a=alpha):
            v2x, imaxx = point_quantities(_a, bb)
            return imaxx * v2x - i_rated

        for gridded, fun in ((v2 - v2_max, res_v2max),
                             (v2 - v2_min, res_v2min),
                             (imax * v2 - i_rated, res_current)):
            finite = np.isfinite(gridded[:-1]) & np.isfinite(gridded[1:])
            flips = np.nonzero(finite & (gridded[:-1] * gridded[1:] < 0))[0]
            for k in flips:
                crossing = _bisect(fun, float(betas[k]), float(betas[k + 1]))
                try_point(alpha, crossing)

    # vertex completion: the constrained optimum can pin both end currents
    # to the rating simultaneously; follow the |i1| = |i2| curve and bisect
    # alpha for the point where the common current meets the rating
    def beta_equal_currents(alpha):
        xi = alpha * np.exp(1j * betas)
        split = np.abs(a * xi + b) - np.abs(b * xi + a)
        flips = np.nonzero(split[:-1] * split[1:] < 0)[0]
        if len(flips) == 0:
            return None
        def split_of(bb, _a=alpha):
            xx = _a * cmath.exp(1j * bb)
            return abs(a * xx + b) - abs(b * xx + a)
        k = flips[0]
        return _bisect(split_of, float(betas[k]), float(betas[k + 1]))

    def vertex_margin(alpha):
        beta = beta_equal_currents(alpha)
        if beta is None:
            return math.nan
        v2x, imaxx = point_quantities(alpha, beta)
        if not math.isfinite(v2x):
            return math.nan
        return imaxx * v2x - i_rated

    margins = [vertex_margin(al) for al in alphas]
    for (a1, m1), (a2, m2) in zip(zip(alphas, margins), zip(alphas[1:], margins[1:])):
        if math.isfinite(m1) and math.isfinite(m2) and m1 * m2 < 0:
            alpha_v = _bisect(vertex_margin, float(a1), float(a2))
            beta_v = beta_equal_currents(alpha_v)
            if beta_v is not None:
                try_point(alpha_v, beta_v)

    return best if math.isfinite(best) else None


def best_pgrid_at_voltage(spec, v2, i_rated, p_farm_cap=None, d_alpha=0.002,
                          d_beta_deg=0.05, beta_max_deg=90.0, alphas=None, betas=None):
    """Dense-grid maximum deliverable power at a fixed operating voltage.

    The maximizer rides the current rating or, with p_farm_cap, the cap on
    injected power, so the grid scan is completed with the exact crossings
    of both along beta per alpha.  alphas and betas [rad], where given,
    replace the grids of d_alpha and d_beta_deg.
    """
    a, b = oracle_two_port(spec)
    vph = spec.nominal_voltage / math.sqrt(3.0)
    if alphas is None:
        alphas = np.linspace(1.0, 1.1, int(round(0.1 / d_alpha)) + 1)
    if betas is None:
        betas = np.radians(np.arange(d_beta_deg, beta_max_deg, d_beta_deg))
    cap = math.inf if p_farm_cap is None else p_farm_cap

    def current_margin(alpha, beta):
        xi = alpha * cmath.exp(1j * beta)
        return max(abs(a * xi + b), abs(b * xi + a)) * vph * v2 - i_rated

    def cap_margin(alpha, beta):
        xi = alpha * cmath.exp(1j * beta)
        return 3.0 * (xi * (a * xi + b).conjugate()).real * (vph * v2) ** 2 - cap

    def pg_of(alpha, beta):
        xi = alpha * cmath.exp(1j * beta)
        return -3.0 * (b * xi + a).real * (vph * v2) ** 2

    def feasible(alpha, beta):
        return (current_margin(alpha, beta) <= i_rated * 1e-9
                and cap_margin(alpha, beta) <= cap * 1e-9)

    def current_split(alpha, beta):
        xi = alpha * cmath.exp(1j * beta)
        return (abs(a * xi + b) - abs(b * xi + a)) * vph * v2

    def first_root(fun, values, alpha):
        """beta of the first gridded sign change of fun(alpha, .), bisected."""
        flips = np.nonzero(values[:-1] * values[1:] < 0)[0]
        if len(flips) == 0:
            return None
        k = flips[0]
        return _bisect(lambda bb: fun(alpha, bb), float(betas[k]), float(betas[k + 1]))

    best = -math.inf
    for alpha in alphas:
        xi = alpha * np.exp(1j * betas)
        imax = np.maximum(np.abs(a * xi + b), np.abs(b * xi + a)) * vph * v2
        pf = 3.0 * (xi * np.conj(a * xi + b)).real * (vph * v2) ** 2
        pg = -3.0 * (b * xi + a).real * (vph * v2) ** 2
        ok = (imax <= i_rated) & (pf <= cap)
        if ok.any():
            best = max(best, float(np.max(np.where(ok, pg, -np.inf))))
        for fun, margin in ((current_margin, imax - i_rated), (cap_margin, pf - cap)):
            flips = np.nonzero(margin[:-1] * margin[1:] < 0)[0]
            for k in flips:
                crossing = _bisect(lambda bb, _a=alpha: fun(_a, bb),
                                   float(betas[k]), float(betas[k + 1]))
                if feasible(alpha, crossing):
                    best = max(best, pg_of(alpha, crossing))

    # vertex completion: the maximizer can pin two limits at once (both end
    # currents at the rating, or one of them at the rating with the cap);
    # follow the curve of the first and bisect alpha for where it meets the
    # second
    def beta_equal_currents(alpha):
        xi = alpha * np.exp(1j * betas)
        return first_root(current_split, np.abs(a * xi + b) - np.abs(b * xi + a), alpha)

    def beta_at_cap(alpha):
        xi = alpha * np.exp(1j * betas)
        pf = 3.0 * (xi * np.conj(a * xi + b)).real * (vph * v2) ** 2
        return first_root(cap_margin, pf - cap, alpha)

    for curve in (beta_equal_currents, beta_at_cap):
        def vertex_margin(alpha):
            beta = curve(alpha)
            return math.nan if beta is None else current_margin(alpha, beta)

        margins = [vertex_margin(al) for al in alphas]
        for (a1, m1), (a2, m2) in zip(zip(alphas, margins), zip(alphas[1:], margins[1:])):
            if math.isfinite(m1) and math.isfinite(m2) and m1 * m2 < 0:
                alpha_v = _bisect(vertex_margin, float(a1), float(a2))
                beta_v = curve(alpha_v)
                if beta_v is not None and feasible(alpha_v, beta_v):
                    best = max(best, pg_of(alpha_v, beta_v))
    return best if math.isfinite(best) else None


def rating_disk_grids(spec, v2, i_rated, n=201):
    """(alphas, betas) grids of n points over the disk where the end current i1 is within the rating.

    The disk |a*xi + b| <= I/(V_ph*v2), centred at -b/a with radius
    I/(V_ph*v2*|a|), is cut to alpha in [1, 1.1] and beta in (0, 90 deg).
    On a short cable it is a speck near xi = 1, which the default grids of
    best_pgrid_at_voltage step over.
    """
    a, b = oracle_two_port(spec)
    centre, radius = -b / a, i_rated / (spec.nominal_voltage / math.sqrt(3.0) * v2 * abs(a))
    spread = math.asin(min(1.0, radius / abs(centre)))
    alphas = np.linspace(max(1.0, abs(centre) - radius), min(1.1, abs(centre) + radius), n)
    mid = cmath.phase(centre)
    betas = np.linspace(max(1e-9, mid - spread), min(math.pi / 2, mid + spread), n)
    return alphas, betas


def full_form_delivery(rows):
    """max_feasible_power_rows(rows) as one solve with a free v2 box's form lists on every row.

    The delivery solve before a fixed box (v2_min = v2_max) was solved on
    its own lists: the rating and cap circles at both v2 bounds, and the
    rating- and cap-limited pieces, on every row, over the package's beta
    window, the cable's branch.  Each row's cap is its own, None or inf for
    none, and the cap's forms are NaN on an uncapped row.  It shares the
    candidate solve and the delivery score with the package, so it checks
    only that dropping those forms leaves every winner as it was.
    """
    from cableopt import optimizer
    from cableopt.optimizer import _sub

    with np.errstate(all="ignore"):
        cables = optimizer._Rows([(spec, cons) for spec, cons, _ in rows])
        lo, hi = cables.lo, cables.hi
        cap = np.array([math.inf if cap is None else cap for _, _, cap in rows])
        capped = np.isfinite(cap)
        farm = [np.where(capped, x, np.nan) for x in cables.farm]
        curs, one, i_rated2 = (cables.cur1, cables.cur2), cables.one, cables.i_rated2
        levels = [r * r for v2 in (lo, hi) for r in (cables.i_rated / (cables.vph * v2),)]
        bounds = [_sub(cables.cur1, cables.cur2)] + [_sub(cur, one, q) for cur in curs for q in levels]
        ratios = [(cables.grid, one)] + [(num, den) for cur in curs for num, den in
                                      ((cables.grid, cur), (cur, one))]
        pieces = [(v2 * v2, one) for v2 in (lo, hi)]
        pieces += [(i_rated2 / cables.vph2, cur) for cur in curs]
        if capped.any():
            k = 3.0 * i_rated2 / cap
            bounds += [_sub(farm, one, q / k) for q in levels]
            bounds += [_sub(cur, farm, k) for cur in curs]
            ratios.append((cables.grid, farm))
            pieces.append((cap / (3.0 * cables.vph2), farm))
        window = (cables.beta_floor, cables.beta_cap)
        best = optimizer._solve(cables, window, bounds, ratios, optimizer._delivery_point(cables, cap),
                                pieces)
        return optimizer.Optima(cables, best)


def two_circle_production(rows):
    """optimize_at_production_rows(rows) as one solve with both v2 circles on every row.

    The production solve before a fixed box (v2_min = v2_max) stated its one
    v2 level once: its v2_min and v2_max circles, alike, and the rating
    circles, with the package's score and beta window, the cable's branch.
    It shares the candidate solve with the package, so it checks only that
    dropping a fixed box's second v2 circle leaves every winner as it was.
    """
    from cableopt import optimizer
    from cableopt.optimizer import _sub

    with np.errstate(all="ignore"):
        cables = optimizer._Rows([(spec, cons) for spec, _, cons in rows])
        lo, hi = cables.lo, cables.hi
        p = np.array([p for _, p, _ in rows])
        k = p / (3.0 * cables.vph2)
        shrunk = 3.0 * cables.edge_rated2 / p
        bounds = [_sub(cables.farm, cables.one, k / (v2 * v2)) for v2 in (lo, hi)]
        bounds += [_sub(cur, cables.farm, shrunk) for cur in (cables.cur1, cables.cur2)]

        def point(alpha, beta, r):
            c, _, eta, i = cables.at(alpha, beta, r)
            v2 = np.sqrt(p[r] / c)
            fits = (c > 0.0) & (lo[r] * (1 - 1e-9) <= v2) & (v2 <= hi[r] * (1 + 1e-9))
            fits &= ~(i * v2 > cables.i_rated[r])
            return np.where(fits, eta, np.nan), v2

        window = (cables.beta_floor, cables.beta_cap)
        best = optimizer._solve(cables, window, bounds, [(cables.grid, cables.farm)], point,
                                [(k, cables.farm)])
        return optimizer.Optima(cables, best)


def unit_flow(tp, xi):
    """(farm, grid, i1, i2) per phase at v1 = xi V and v2 = 1 V, in complex arithmetic.

    farm and grid are active powers [W], i1 and i2 the end currents [A]; at a
    grid-side phase voltage V_ph the powers scale by V_ph^2 and the currents by V_ph.
    """
    i1, i2 = tp.a * xi + tp.b, tp.b * xi + tp.a
    return (xi * i1.conjugate()).real, -i2.real, i1, i2


def complex_two_port_flow(tp, phase_voltage, op):
    """(i1, i2, p_farm, q_farm, p_grid, q_grid, p_loss, eta) in Python complex arithmetic.

    power_flow.solve_flow's flow as it was before it was written in real parts;
    eta is None where p_farm <= 0.
    """
    v2 = op.v2 * phase_voltage  # real by convention
    v1 = op.scaling.xi * v2
    i1, i2 = tp.a * v1 + tp.b * v2, tp.b * v1 + tp.a * v2
    s_farm = 3.0 * v1 * i1.conjugate()
    s_grid = -3.0 * v2 * i2.conjugate()
    p_farm, p_grid = s_farm.real, s_grid.real
    return (i1, i2, p_farm, s_farm.imag, p_grid, s_grid.imag, p_farm - p_grid,
            p_grid / p_farm if p_farm > 0.0 else None)


def _weibull_cdf(v: float, shape: float, scale: float) -> float:
    if v <= 0.0:
        return 0.0
    return 1.0 - math.exp(-((v / scale) ** shape))


def _curve_for_scale(scale: float, shape: float, cut_in: float, rated: float,
                     cut_out: float, n_bins: int) -> DurationCurve:
    # Cubic power curve p(v) = (v^3 - ci^3)/(vr^3 - ci^3) on [ci, vr]; its
    # inverse maps power-bin edges to wind-speed edges, so each bin weight
    # is an exact Weibull probability mass rather than a sampled estimate.
    def v_of_p(p: float) -> float:
        return (cut_in**3 + p * span3) ** (1.0 / 3.0)

    levels = [k / (n_bins - 1) for k in range(n_bins)]
    edges = [0.0] + [0.5 * (levels[k] + levels[k + 1]) for k in range(n_bins - 1)] + [1.0]
    cdf = lambda v: _weibull_cdf(v, shape, scale)

    weights = []
    try:
        span3 = rated**3 - cut_in**3
        for k in range(n_bins):
            if k == 0:
                # calm below the first midpoint plus storm shut-down
                w = cdf(v_of_p(edges[1])) + (1.0 - cdf(cut_out))
            elif k == n_bins - 1:
                # band just below rated plus the rated plateau
                w = cdf(cut_out) - cdf(v_of_p(edges[k]))
            else:
                w = cdf(v_of_p(edges[k + 1])) - cdf(v_of_p(edges[k]))
            weights.append(max(w, 0.0))
    except OverflowError as exc:
        raise ConfigError(f"synthetic curve of Weibull shape {shape} and speeds {cut_in}, "
                          f"{rated}, {cut_out} overflows: {exc}") from exc
    return load_duration_curve(list(zip(levels, weights)))


def bisected_duration_curve(shape, cut_in, rated, cut_out, n_bins, *,
                            weibull_scale=None, target_uf=None, iters=80):
    """synth_duration_curve's curve, or its exception, for inputs its argument checks pass.

    Each curve is built bin by bin from scratch (_curve_for_scale): every
    bin computes its edges' wind speeds and CDFs, so each interior edge's
    CDF twice.  A target_uf is met by a bisection of the scale run all
    iters steps.  Only the normalization and the utilization factor come
    from the package.
    """
    if target_uf is None:
        return _curve_for_scale(weibull_scale, shape, cut_in, rated, cut_out, n_bins)
    if not (0.0 < target_uf < 1.0):
        raise Infeasible(f"target utilization factor must be in (0, 1), got {target_uf}")
    lo, hi = 0.05, 0.98 * cut_out
    uf_hi = utilization_factor(_curve_for_scale(hi, shape, cut_in, rated, cut_out, n_bins))
    if uf_hi < target_uf - 1e-3:
        raise Infeasible(f"utilization factor {target_uf} unreachable; maximum on the rising "
                         f"branch is {uf_hi:.4f} for this turbine")
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if utilization_factor(_curve_for_scale(mid, shape, cut_in, rated, cut_out, n_bins)) < target_uf:
            lo = mid
        else:
            hi = mid
    curve = _curve_for_scale(0.5 * (lo + hi), shape, cut_in, rated, cut_out, n_bins)
    if abs(utilization_factor(curve) - target_uf) > 1e-3:
        raise Infeasible(f"bisection stalled at UF {utilization_factor(curve):.5f} for target {target_uf}")
    return curve


def better(cand, best):
    """Whether cand beats best, both (score, alpha, beta, v2) floats or best None.

    The optimizer's tie rule as it was written for one candidate at a time:
    higher score, then lower v2, then lower alpha, each beyond TIE_TOL.
    """
    if best is None:
        return True
    score, alpha, _, v2 = cand
    best_score, best_alpha, _, best_v2 = best
    if score > best_score + TIE_TOL:
        return True
    if score < best_score - TIE_TOL:
        return False
    if v2 < best_v2 - TIE_TOL:
        return True
    if v2 > best_v2 + TIE_TOL:
        return False
    return alpha < best_alpha - TIE_TOL


def walked_winners(ranked, count, fails=None, stops=None):
    """Each row's winner from walking its candidates as floats, a (4, rows) array, NaN for none.

    ranked holds the (score, alpha, beta, v2) of every row's candidates, by
    row, count[r] of them for row r.  A row stops at its first candidate
    that trails its best by more than TIE_TOL.  A candidate for which
    fails(cand) holds does not win, and a row without a best stops there
    when stops(cand) holds too: the optimizer's internal checks.
    """
    out = np.full((4, len(count)), np.nan)
    start = 0
    for r, n in enumerate(count.tolist()):
        row_best = None
        for cand in zip(*ranked[:, start:start + n].tolist()):
            if row_best is not None and cand[0] < row_best[0] - TIE_TOL:
                break
            if better(cand, row_best):
                if fails is None or not fails(cand):
                    row_best = cand
                elif row_best is None and stops(cand):
                    break
        if row_best is not None:
            out[:, r] = row_best
        start += n
    return out


def profile_worst_nodes(spec, cons, alpha, beta, v2):
    """(node, |value|, limit) of the worst node of each opt-in internal check, current first.

    From a segment profile of the point (alpha, beta, v2 in p.u.), the first
    node on ties, grid-end current last: the profile-based check that
    _Cable.violations replaced, which failed a check where |value| >
    limit*(1 + 1e-12).
    """
    vph = spec.phase_voltage
    v2_volts = v2 * vph
    prof = segment_profile(spec, alpha * cmath.exp(1j * beta) * v2_volts, v2_volts,
                           cons.n_profile_segments)
    checks = []
    if cons.check_internal_current:
        checks.append((prof.node_currents + (prof.grid_end_current,), cons.rated_current(spec)))
    if cons.check_internal_voltage_max is not None:
        checks.append((prof.node_voltages, cons.check_internal_voltage_max * vph))
    out = []
    for values, limit in checks:
        k = max(range(len(values)), key=lambda j: abs(values[j]))
        out.append((k, abs(values[k]), limit))
    return out


@dataclass(frozen=True)
class EagerAnnualResult:
    """AnnualResult with its per_bin BinOutcomes built as a field, as before they were built on demand."""

    eta_annual: float
    energy_produced_potential: float
    energy_delivered: float
    energy_lost: float
    energy_curtailed: float
    per_bin: tuple


def every_short_bin_capped(spec, rated_farm_power, curve, strategies, constraints=None):
    """compare_strategies before over-capability bins took the uncapped maximum.

    Every bin the production solve does not serve (sensibly) goes through
    the capped delivery solve, capped at its own level, and every bin's
    BinOutcome is built as the bins are walked.  The solves are looked up
    on the optimizer module, so a test may replace them.  Returns
    (strategy, EagerAnnualResult, loss_reduction_pct) per strategy.
    """
    from cableopt import optimizer
    from cableopt.annual_energy import BinOutcome

    base = constraints if constraints is not None else optimizer.Constraints()
    boxes = [base.with_v2_range(*strategy.v2_bounds()) for strategy in strategies]
    levels = [power_pu * rated_farm_power for power_pu, _ in curve.bins]
    live = [(s, k) for s in range(len(strategies)) for k, p in enumerate(levels) if p > 0.0]
    served = {}
    if live:
        won = optimizer.optimize_at_production_rows([(spec, levels[k], boxes[s]) for s, k in live])
        served = {row: (pg, v2, eta) for row, good, pg, v2, eta in zip(live, *(x.tolist() for x in (
            won.found & (won.eta > 0.0), won.p_grid, won.v2, won.eta))) if good}
    short = [row for row in live if row not in served]
    won = optimizer.max_feasible_power_rows([(spec, boxes[s], levels[k]) for s, k in short]
                                            + [(spec, box, math.inf) for box in boxes])
    found = won.found.tolist()
    for strategy, box, ok in zip(strategies, boxes, found[len(short):]):
        if not ok:
            exc = optimizer.inoperable(spec, box)
            raise Infeasible(
                f"strategy {strategy.label} cannot operate this cable at all: {exc}") from exc
    capped = {row: (pf, pg, v2) for row, ok, pf, pg, v2 in zip(short, found, *(x.tolist() for x in (
        won.p_farm, won.p_grid, won.v2))) if ok and pg > 0.0}

    out = []
    for s, strategy in enumerate(strategies):
        outcomes = []
        for k, (power_pu, weight) in enumerate(curve.bins):
            p = levels[k]
            if p <= 0.0:
                outcomes.append(BinOutcome(power_pu, weight, 0.0, 0.0, 0.0, None, None, 0.0))
            elif (hit := served.get((s, k))) is not None:
                pg, v2, eta = hit
                outcomes.append(BinOutcome(power_pu, weight, p, p, pg, v2, eta, 0.0))
            elif (hit := capped.get((s, k))) is not None:
                pf, pg, v2 = hit
                outcomes.append(BinOutcome(power_pu, weight, p, pf, pg, v2,
                                           pg / pf if pf > 0 else None, p - pf))
            else:
                outcomes.append(BinOutcome(power_pu, weight, p, 0.0, 0.0, None, None, p))
        potential = math.fsum(o.weight * o.p_farm for o in outcomes)
        delivered = math.fsum(o.weight * o.p_grid for o in outcomes)
        curtailed = math.fsum(o.weight * o.curtailed for o in outcomes)
        lost = math.fsum(o.weight * (o.p_farm_used - o.p_grid) for o in outcomes)
        loss = potential - delivered
        if s == 0:
            loss_ref = loss
        out.append((strategy, EagerAnnualResult(
            delivered / potential if potential > 0.0 else 0.0, potential, delivered, lost, curtailed,
            tuple(outcomes)), 100.0 * (loss_ref - loss) / loss_ref if loss_ref > 0.0 else 0.0))
    return out
