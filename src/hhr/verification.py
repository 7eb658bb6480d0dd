"""Named verification checks tying every engine piece to an independent
reference: compensator martingales under both measures, density-process
normalization, measure-change price consistency, the closed-form moment
oracles, exact PIDE solutions, and agreement of the two reserve routes.

Each check reports the fraction of its error budget consumed (statistical
gates are 3 standard errors); the raw numbers live in the detail string.
Only simulate draws random numbers, in two samples, each drawn once and held
for the run: the P sample (2 * run.paths paths at the run seed, X probed at
T/2 and T; the event checks read N, lambda and the compensator of its first
run.paths paths off their event table with hawkes' closed forms) and the Q
sample (as many at derive_seed(seed, "pidemc0")).  A statistical check that
fails is retried once, on a fresh sample of the same kind and size drawn
from the base seed derive_seed(seed, check name + "1"); a retried check
keeps its failed first attempt (budget used and detail) in the report, also
when the retry raises.  The checks run in the order they are reported, and
this module starts no thread.  The JSON report is byte-identical across runs
of the same config and seed (wall times appear only in the printed table).
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from collections import deque
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import hawkes, pide, special, thiele
from .config import RunConfig
from .errors import DomainError
from .markov import endowment_guarantee, pure_endowment, term_insurance
from .measure import compute_c_l, lambda_cap
from .model import ConstantJump, ExponentialJump, validate
from .payoff import constant, guarantee, linear
from .rng import derive_seed
from .sde import MIN_STEPS, simulate

__all__ = ["CHECKS", "Check", "VerificationReport", "run_verification"]

EXACT = "exact-identity"
CLOSED = "closed-form"
ORACLE = "independent-oracle"

# the names of the checks, run and reported in this order
CHECKS = (
    "hawkes_mean_law", "compensator_p", "compensator_q_weighted", "rn_density",
    "q_martingale_stock", "girsanov_price_crosscheck", "closed_form_oracles",
    "pide_exact_solutions", "pide_vs_mc_guarantee", "thiele_consistency",
    "admissibility_c_l", "lambda_cap_corner",
)


@dataclass
class Check:
    """One named verification item.

    `value` is the fraction of the error budget consumed, and the check
    passes iff it is at most 1 (a NaN fails); `detail` carries the raw
    numbers.  A retried check keeps its failed first try as
    `first_attempt`, a dict with that try's `value` and `detail`.
    `wall_time` is the check's time in seconds.
    """

    name: str
    kind: str
    detail: str
    value: float
    first_attempt: dict | None = None
    wall_time: float = 0.0

    @property
    def passed(self) -> bool:
        return self.value <= 1.0

    @property
    def retried(self) -> bool:
        return self.first_attempt is not None

    def to_dict(self) -> dict:
        # wall_time excluded on purpose: reports must be byte-identical; a
        # first_attempt appears only on a retried check
        doc = {k: v for k, v in asdict(self).items() if k != "wall_time" and v is not None}
        return doc | {"passed": self.passed, "retried": self.retried}


@dataclass
class VerificationReport:
    seed: int
    config_digest: str
    checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> str:
        doc = {
            "seed": self.seed,
            "config_digest": self.config_digest,
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }
        return json.dumps(doc, sort_keys=True, indent=2)

    def table(self) -> str:
        lines = [
            f"{'check':30s} {'kind':18s} {'budget used':>12s} {'ok':>3s} {'sec':>7s}  detail"
        ]
        for c in self.checks:
            lines.append(
                f"{c.name:30s} {c.kind:18s} {c.value:12.4g} "
                f"{'yes' if c.passed else 'NO':>3s} {c.wall_time:7.2f}"
                + (f"  (retried; first {c.first_attempt['value']:.4g})" if c.retried else "")
                + f"  {c.detail}"
            )
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _worst(*values: float) -> float:
    """The largest of the values, NaN if any is NaN: Python's max drops a
    NaN that is not its first argument, and a NaN budget share must fail."""
    return float(np.max(values))


def _ratio(deviation: float, gate: float) -> float:
    """Fraction of a (possibly zero) statistical gate consumed.

    A zero gate happens in degenerate regimes (for instance the intensity is
    deterministic without self-excitation); the deviation must then vanish.
    """
    if gate == 0.0:
        return 0.0 if deviation == 0.0 else math.inf
    return deviation / gate


def _mean_se(x) -> tuple[float, float]:
    """Sample mean and standard error of the mean of a 1-D sample."""
    return float(x.mean()), float(x.std(ddof=1) / math.sqrt(x.size))


class _Suite:
    def __init__(self):
        self.checks: list[Check] = []

    def guard(self, name, kind, compute, *, retry=False):
        """Run and record one check.  compute() -> (budget_used, detail); with
        `retry`, a statistical check, compute(tag): tag 0 first, and once more
        on tag 1 if over budget (used > 1), keeping the failed first attempt.
        An exception becomes a recorded failure."""
        started = time.perf_counter()
        first = None
        try:
            used, detail = compute(0) if retry else compute()
            if retry and used > 1.0:
                first = {"value": float(used), "detail": detail}
                used, detail = compute(1)
        except Exception as exc:  # checks must never abort the suite
            used, detail = math.inf, f"raised {type(exc).__name__}: {exc}"
        self.checks.append(
            Check(name=name, kind=kind, detail=detail, value=float(used), first_attempt=first,
                  wall_time=time.perf_counter() - started)
        )


def run_verification(cfg: RunConfig) -> VerificationReport:
    """Execute the full suite on the configured model; config problems raise,
    individual check failures are recorded and never abort.

    The checks run and are reported in the order of CHECKS.  All but
    girsanov_price_crosscheck and lambda_cap_corner map one-to-one onto the
    acceptance criteria.
    """
    run = cfg.run
    if run.steps % 2:
        raise DomainError(f"verify probes X at T/2, so run.steps must be even, got {run.steps}")
    if run.steps < MIN_STEPS:
        raise DomainError(f"run.steps must be >= {MIN_STEPS}, got {run.steps}")
    if run.paths < hawkes.MIN_RESIDUAL_PATHS:
        raise DomainError(f"run.paths must be >= {hawkes.MIN_RESIDUAL_PATHS}, got {run.paths}")
    model = cfg.validated_model()
    selection, adm = cfg.selection(model)  # inadmissible a aborts here
    dist = cfg.dist
    p = model.params
    grid = pide.build_grid(model, p.T, *run.grid)  # a refused grid aborts before any draw
    suite = _Suite()
    seed = run.seed
    g_level = p.S0 * math.exp(p.r * p.T)

    def guarantee_pv(s_t):
        return math.exp(-p.r * p.T) * np.maximum(g_level, s_t)

    samples = {}  # the suite's two Monte Carlo samples, held for the run

    def draw(kind, base):
        under_p = kind == "P"
        # the Q sample's stream is apart from the P sample's: they are independent
        return simulate(
            model, dist, kind, 2 * run.paths, run.steps,
            base if under_p else derive_seed(base, "pidemc0"), selection=selection,
            probe_times=(p.T / 2, p.T) if under_p else (),
        )

    def sample(kind, check, tag):
        """The shared `kind` sample on a first attempt; on retry `tag` a fresh
        one drawn from the base seed derive_seed(seed, check + tag)."""
        if tag:
            return draw(kind, derive_seed(seed, f"{check}{tag}"))
        if kind not in samples:
            samples[kind] = draw(kind, seed)
        return samples[kind]

    # 1. event-process mean law against the closed-form solution of the
    # first-moment equation, E[lambda_T] = hawkes.expected_intensity
    def hawkes_mean_law(tag):
        events = sample("P", "hawkes_mean_law", tag).events.head(run.paths)
        lam_t = hawkes.lambda_at(model, events, p.T)
        el_ref = float(hawkes.expected_intensity(model, p.T))
        mean, se = _mean_se(lam_t)
        used = _ratio(abs(mean - el_ref), 3 * se)
        return used, f"mean lambda_T {mean:.5f} vs {el_ref:.5f} (3se {3*se:.5f})"

    suite.guard("hawkes_mean_law", ORACLE, hawkes_mean_law, retry=True)

    # 2. compensated counting and compound processes have mean zero under P
    def compensator_p(tag):
        events = sample("P", "compensator_p", tag).events.head(run.paths)
        rows = hawkes.martingale_residual_test(model, events, [p.T / 2, p.T], dist.mean)
        used = _worst(*(_ratio(abs(r.mean), 3 * r.se) for r in rows))
        detail = "; ".join(
            f"{r.process}@{r.t:g}: {r.mean:+.4f} (3se {3*r.se:.4f})" for r in rows
        )
        return used, detail

    suite.guard("compensator_p", ORACLE, compensator_p, retry=True)

    # 3 + 4. the P sample's first half: weighted compensator, density moments
    def compensator_q_weighted(tag):
        sim_p = sample("P", "compensator_q_weighted", tag)
        events = sim_p.events.head(run.paths)
        used, parts = 0.0, []
        for t, x_t in sim_p.probes.items():
            comp_n, _ = hawkes.compensator(model, events, dist.mean, t)
            w = x_t[: run.paths] * (hawkes.n_at(events, t) - comp_n)
            mean, se = _mean_se(w)
            used = _worst(used, _ratio(abs(mean), 3 * se))
            parts.append(f"t={t:g}: {mean:+.4f} (3se {3*se:.4f})")
        return used, "; ".join(parts)

    suite.guard("compensator_q_weighted", ORACLE, compensator_q_weighted, retry=True)

    def rn_density(tag):
        x_t = sample("P", "rn_density", tag).terminal["X"]
        half = x_t[: run.paths]
        mean, se = _mean_se(half)
        used = _ratio(abs(mean - 1.0), 3 * se)
        mom = 2.0 + selection.epsilon1
        m_half = float(np.mean(half**mom))
        m_full = float(np.mean(x_t**mom))
        change = abs(m_full - m_half) / m_half
        used = _worst(used, change / 0.05)
        return used, (
            f"E[X_T] {mean:.5f} (3se {3*se:.5f}); "
            f"E[X^{mom:g}] doubling change {change:.3%} (<5%)"
        )

    suite.guard("rn_density", ORACLE, rn_density, retry=True)

    # 5. the Q sample's first half: the discounted stock is a martingale
    def q_martingale_stock(tag):
        s_t = sample("Q", "q_martingale_stock", tag).terminal["S"][: run.paths]
        disc = math.exp(-p.r * p.T) * s_t
        mean, se = _mean_se(disc)
        used = _ratio(abs(mean - p.S0), 3 * se)
        return used, f"E[e^-rT S_T] {mean:.4f} vs {p.S0:g} (3se {3*se:.4f})"

    suite.guard("q_martingale_stock", ORACLE, q_martingale_stock, retry=True)

    # extra: E_P[X_T f(S_T)] = E_Q[f(S_T)] over the whole P and Q samples
    def girsanov_price_crosscheck(tag):
        sim_p = sample("P", "girsanov_price_crosscheck", tag)
        sim_q = sample("Q", "girsanov_price_crosscheck", tag)
        x_t = sim_p.terminal["X"]
        wp = x_t * guarantee_pv(sim_p.terminal["S"])
        wq = guarantee_pv(sim_q.terminal["S"])
        m_p, se_p = _mean_se(wp)
        m_q, se_q = _mean_se(wq)
        pooled = math.hypot(se_p, se_q)
        ess = float(x_t.sum()) ** 2 / float(np.sum(x_t**2))
        return _ratio(abs(m_p - m_q), 3 * pooled), (
            f"P-weighted {m_p:.4f} vs Q {m_q:.4f} (3se pooled {3*pooled:.4f}); "
            f"P effective sample size {ess:.0f} of {x_t.size}"
        )

    suite.guard("girsanov_price_crosscheck", ORACLE, girsanov_price_crosscheck, retry=True)

    # 6. closed-form moment oracles vs a quadrature, a Feynman-Kac solve and
    # elementary functions
    def closed_form_oracles():
        val = special.cir_neg_moment(p.kappa, p.vbar, p.sigma, p.v0, p.T, 1.0)
        rel1 = abs(val / _inverse_moment_quad(p) - 1.0)
        c_exp = min(0.1, 0.4 * 0.5 * ((2 * p.kappa * p.vbar - p.sigma**2) / (2 * p.sigma)) ** 2)
        val2 = special.integrated_inverse_cir_exp(p.kappa, p.vbar, p.sigma, p.v0, p.T, c_exp)
        rel2 = abs(val2 / _integrated_inverse_fk(p, c_exp) - 1.0)
        dev = _hyp1f1_elementary_deviation()
        return _worst(rel1 / 1e-10, rel2 / 1e-4, dev / 1e-9), (
            f"inverse moment rel {rel1:.1e} (<1e-10); integrated reciprocal rel "
            f"{rel2:.1e} (<1e-4); elementary identity dev {dev:.1e} (<1e-9)"
        )

    suite.guard("closed_form_oracles", ORACLE, closed_form_oracles)

    # the desk Stepper: checks 7-9 march their own surfaces through it in turn
    stepper = pide.Stepper(grid, model, selection, dist)

    # 7. exact solutions of the pricing equation
    def pide_exact_solutions():
        # both payoffs march as one stack; no layer is stored
        x3 = np.broadcast_to(grid.x[:, None, None], grid.shape)
        disc = np.exp(-p.r * (p.T - grid.t))
        rel_x, rel_1 = [], []
        start = {"x": linear(1.0)(p.T, grid.x), "1": constant(1.0)(p.T, grid.x)}
        for k, cur in pide.march(stepper, start, grid.t):
            rel_x.append(float(np.max(np.abs(cur["x"] / x3 - 1.0))))
            rel_1.append(float(np.max(np.abs(cur["1"] / disc[k] - 1.0))))
        err_x, err_1 = _worst(*rel_x), _worst(*rel_1)
        return _worst(err_x / 1e-3, err_1 / 1e-6), (
            f"payoff x rel err {err_x:.1e} (<1e-3); payoff 1 rel err {err_1:.1e} (<1e-6)"
        )

    # 8. guarantee price: solver vs the whole Q sample
    def pide_vs_mc_guarantee(tag):
        pay_g = guarantee(g_level)
        marching = pide.march(stepper, {0: pay_g(p.T, grid.x)}, grid.t, kinked=pay_g.kinked)
        (_, layers), = deque(marching, maxlen=1)  # the last map, k = 0
        u0 = pide.PIDESolution(grid, pide.Layer0((layers[0],))).at(0, p.S0, p.v0, p.lambda0)
        pay = guarantee_pv(sample("Q", "pide_vs_mc_guarantee", tag).terminal["S"])
        mc, se = _mean_se(pay)
        used = abs(u0 - mc) / (0.01 * mc + 3 * se)
        return used, (
            f"solver {u0:.4f} vs simulation {mc:.4f} +- {se:.4f} "
            f"(gate 1% + 3se = {0.01*mc + 3*se:.4f})"
        )

    # 9. the two reserve routes agree; classical scalar reduction
    def thiele_consistency():
        worst = _thiele_consistency_worst(stepper, p.T, g_level)
        dev = _classical_reduction_deviation(p, dist, cfg)
        return _worst(worst / 0.01, dev / 1e-4), (
            f"worst probe rel diff {worst:.4%} (<1%); classical reduction "
            f"dev {dev:.1e} (<1e-4)"
        )

    suite.guard("pide_exact_solutions", EXACT, pide_exact_solutions)
    suite.guard("pide_vs_mc_guarantee", ORACLE, pide_vs_mc_guarantee, retry=True)
    suite.guard("thiele_consistency", ORACLE, thiele_consistency)

    # 10. admissibility threshold and band nesting
    suite.guard("admissibility_c_l", CLOSED, lambda: _c_l_consistency(model, dist, adm))

    # extra: continuity of the exponential-moment cap at its corner
    def lambda_cap_corner():
        corner = _lambda_corner_deviation(model)
        return corner / 1e-6, f"relative gap to the analytic limit {corner:.1e} (<1e-6)"

    suite.guard("lambda_cap_corner", CLOSED, lambda_cap_corner)

    digest = hashlib.sha256(cfg.canonical().encode()).hexdigest()[:16]
    return VerificationReport(seed=seed, config_digest=digest, checks=suite.checks)


def _inverse_moment_quad(p) -> float:
    """E[1/v_T] of the jump-free variance, apart from special's 1F1 series: with
    v_T = scale chi'^2(delta, k), E[1/v_T] = int_0^inf E[e^{-u v_T}] du = int_0^inf
    exp(-(delta/2 - 1) y - (k/2)(1 - e^{-y})) dy / (2 scale), y = log(1 + 2 scale u),
    by exp-sinh quadrature, y = exp((pi/2) sinh t) at t = j/32, |t| <= 4.5.  Over
    delta in [2.02, 2400], k up to 1.6e5, v0 in [1e-4, 5] and T in [0.05, 10] it
    is 4.4e-16 from steps of 1/64 and 2.1e-12 from cir_neg_moment (gate 1e-10)."""
    t = np.arange(-144, 145) / 32
    scale = p.sigma**2 * -math.expm1(-p.kappa * p.T) / (4 * p.kappa)
    k = p.v0 * math.exp(-p.kappa * p.T) / scale
    delta = 4 * p.kappa * p.vbar / p.sigma**2
    y = np.exp(0.5 * math.pi * np.sinh(t))
    f = np.exp(-(delta / 2 - 1) * y + 0.5 * k * np.expm1(-y))
    return float(np.sum(f * y * np.cosh(t))) * (math.pi / 64) / (2 * scale)


# closed_form_oracles' Feynman-Kac solve (gate 1e-4): at the c it checks, the
# error is 1.5e-7 at the desk, at most 4.5e-5 over v0 in [1e-5, 5], T up to 30
# and Feller margins down to 3%, and falls by a quarter per doubling of both
_FK_NODES = 500
_FK_STEPS_PER_T = 500  # steps per unit of time, and at least this many


def _integrated_inverse_fk(p, c, nodes=_FK_NODES, rate=_FK_STEPS_PER_T) -> float:
    """E[exp(c int_0^T du / v_u)] of the jump-free variance, c at most the
    closed form's bound: u(T, v0) of u_t = (sigma^2/2) v u_vv + kappa (vbar -
    v) u_v + (c/v) u, u(0, v) = 1, by central differences in x = log v on
    [1e-5 min(v0, vbar), 12 max(v0, vbar)] through log v0, then four implicit
    quarter-steps (Rannacher's start) and Crank-Nicolson.  The end values are
    eliminated: linear at the top, and at the bottom u ~ v^alpha, which solves
    the equation's terms in 1/v, the ones that rule as v -> 0."""
    s2 = 0.5 * p.sigma**2
    drift = p.kappa * p.vbar - s2  # v times the drift of log v, as v -> 0
    alpha = (math.sqrt(drift**2 - 4 * s2 * c) - drift) / (2 * s2)  # s2 a^2 + drift a + c = 0
    lo = math.log(1e-5 * min(p.v0, p.vbar))
    h = (math.log(12.0 * max(p.v0, p.vbar)) - lo) / (nodes - 1)
    k0 = round((math.log(p.v0) - lo) / h)
    ev = np.exp(-(math.log(p.v0) + h * (np.arange(nodes) - k0)))  # 1/v at the nodes
    d2, d1 = s2 * ev / h**2, (drift * ev - p.kappa) / (2 * h)
    sub, diag, sup = d2 - d1, c * ev - 2 * d2, d2 + d1
    diag[1] += sub[1] * math.exp(-alpha * h)  # u_0 = e^{-alpha h} u_1
    diag[-2] += 2 * sup[-2]  # u_{n-1} = 2 u_{n-2} - u_{n-3}
    sub[-2] -= sup[-2]
    op = (sub[1:-1], diag[1:-1], sup[1:-1])  # the generator A on the inner nodes
    steps = math.ceil(rate * max(p.T, 1.0))
    dt = p.T / steps
    u = np.ones((nodes - 2, 1))  # one line of pide's tridiagonal row solver
    quarter = pide._tridiag_factors(*op, dt / 4)
    for _ in range(4):
        pide._solve_rows(quarter, u, np.empty(1))
    # Crank-Nicolson's (I - dt/2 A)^-1 (I + dt/2 A), a dense product per step
    crank = pide._apply_tridiag(op, np.eye(nodes - 2), 0) * (dt / 2)
    crank[np.diag_indices(nodes - 2)] += 1.0
    pide._solve_rows(pide._tridiag_factors(*op, dt / 2), crank, np.empty(nodes - 2))
    for _ in range(steps - 1):
        u = crank @ u
    return float(u[k0 - 1, 0])


def _hyp1f1_elementary_deviation() -> float:
    """Worst relative gap of hyp1f1 to 1F1(1/2, 3/2; -z^2) = sqrt(pi) erf(z) / (2z), its
    Kummer branch, and to 1F1(1, 2; z) = expm1(z) / z, on both of its branches."""
    pairs = [(special.hyp1f1(0.5, 1.5, -z * z), math.sqrt(math.pi) * math.erf(z) / (2 * z))
             for z in (0.5, 1.0, 2.0, 4.0)]
    pairs += [(special.hyp1f1(1.0, 2.0, z), math.expm1(z) / z) for z in (-20, -8, -1, 1, 8, 20)]
    return _worst(*(abs(lhs / rhs - 1.0) for lhs, rhs in pairs))


def _thiele_consistency_worst(stepper, horizon, g_level) -> float:
    """Worst probe gap of the two reserve routes over three policies, all
    marched through one Stepper."""
    templates = [
        pure_endowment(horizon, 0.02),
        term_insurance(horizon, 0.02),
        endowment_guarantee(horizon, 0.02, g_level),
    ]
    nx, ny, nz = stepper.grid.shape
    probes = [
        (i, j, k)
        for i in (nx // 4, nx // 2, 3 * nx // 4)
        for j in (ny // 4, ny // 2, 3 * ny // 4)
        for k in (nz // 4, nz // 2, 3 * nz // 4)
    ]
    worst = 0.0
    for pol in templates:
        surf = thiele.solve_thiele_pide(pol, stepper)
        quad = thiele.reserve_quadrature(pol, stepper, 0.0)
        for st in pol.states:
            a_lay = surf.values[st][0]
            b_lay = quad.values[st]
            scale = max(float(np.max(np.abs(b_lay))), 1e-12)
            for i, j, k in probes:
                worst = _worst(worst, abs(a_lay[i, j, k] - b_lay[i, j, k]) / scale)
    return worst


def _classical_reduction_deviation(p, dist, cfg) -> float:
    """Ten-year x-independent term insurance vs the scalar closed form."""
    horizon, mu_rate = 10.0, 0.02
    long_model = validate(replace(p, T=horizon))
    sel, _ = cfg.selection(long_model)
    pol = term_insurance(horizon, mu_rate)
    # the step count serves accuracy, not stability (the stepper substeps a
    # coarse grid): the coupling source is held over each step, and the
    # deviation is 9e-6 at 1024 steps, 6.7e-5 at 128, 1.6e-4 at 64 (gate 1e-4)
    grid = pide.build_grid(long_model, horizon, 1024, 12, 8, 4)
    surf = thiele.solve_thiele_pide(pol, pide.Stepper(grid, long_model, sel, dist))
    got = float(surf.values["alive"][0][0, 0, 0])
    closed = mu_rate / (p.r + mu_rate) * -math.expm1(-(p.r + mu_rate) * horizon)
    return abs(got - closed)


def _c_l_consistency(model, dist, adm) -> tuple[float, str]:
    """Bisection threshold (adm.c_l, at compute_c_l's default tolerance)
    against a million-point scan of the unrewritten Lambda(c) and the mark
    laws' MGFs, its stability under a tighter tolerance, the exact cap at
    zero jump scale and the band nesting."""
    p = model.params
    n = 1_000_000
    spacing = adm.cap / n
    # the scan grid np.linspace(spacing, cap, n), built and scanned in 16
    # blocks so that neither it nor the temporaries are held whole
    scan_sup = 0.0
    for block in _linspace_blocks(spacing, adm.cap, n, 16):
        ok = _c_l_scan(p, dist, block)
        if ok.any():
            scan_sup = max(scan_sup, float(block[ok].max()))
    dev_scan = abs(adm.c_l - scan_sup)
    shift = abs(compute_c_l(model, dist, tol=1e-12).value - adm.c_l)
    cap_exact = compute_c_l(validate(replace(p, eta=0.0)), dist).value == adm.cap
    nested = adm.bound_em_qs is not None and adm.bound_em_qs <= adm.bound_em <= adm.bound_e
    used = _worst(dev_scan / (spacing + 1e-10), shift / 1e-10)
    if not cap_exact or not nested:
        used = math.inf
    detail = (
        f"threshold {adm.c_l:.10g} vs 1e6-point scan {scan_sup:.10g} (gap "
        f"{dev_scan:.1e} <= spacing {spacing:.1e}); refinement shift {shift:.1e} "
        f"(<=1e-10); zero-eta cap exact {cap_exact}; band nesting {nested}"
    )
    return used, detail


def _linspace_blocks(start, stop, n, n_blocks):
    """np.linspace(start, stop, n) in n_blocks consecutive pieces, each built
    from its index range with linspace's own formula (index * step + start,
    the last point exactly stop), so the same floats."""
    step = (stop - start) / (n - 1)
    edges = [n * j // n_blocks for j in range(n_blocks + 1)]
    for lo, hi in zip(edges[:-1], edges[1:]):
        block = np.arange(lo, hi, dtype=float) * step + start
        if hi == n:
            block[-1] = stop
        yield block


def _c_l_scan(p, dist, cs) -> np.ndarray:
    """The c_l predicate at every c of `cs`, from the unrewritten
    Lambda(c) = 2 eta c expm1(DT) / (D - kappa + (D + kappa) e^{DT}) and the
    mark laws' MGFs written out, independently of `measure`."""
    d = np.sqrt(np.maximum(p.kappa**2 - 2 * p.sigma**2 * cs, 0.0))
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        lam = np.where(
            d > 0,
            2 * p.eta * cs * np.expm1(d * p.T)
            / (d - p.kappa + (d + p.kappa) * np.exp(d * p.T)),
            2 * p.eta * cs * p.T / (2 + p.kappa * p.T),
        )
        ok = lam < dist.epsilon_j
        if p.alpha == 0:
            return ok
        if isinstance(dist, ExponentialJump):
            mgf = dist.rate / (dist.rate - lam)
        elif isinstance(dist, ConstantJump):
            mgf = np.exp(lam * dist.size)
        else:
            raise TypeError(f"no vectorised MGF for {type(dist).__name__}")
    x = p.beta / p.alpha
    return ok & (mgf <= x * math.exp(1.0 / x - 1.0))


def _lambda_corner_deviation(model) -> float:
    p = model.params
    cap = p.kappa**2 / (2 * p.sigma**2)
    # D(c_near) = 1e-6 kappa survives rounding, so lambda_cap takes its D > 0 branch
    d_small = 1e-6 * p.kappa
    c_near = (p.kappa**2 - d_small**2) / (2 * p.sigma**2)
    limit = 2 * p.eta * cap * p.T / (2 + p.kappa * p.T)
    if limit == 0.0:
        return abs(lambda_cap(model, c_near))
    return (
        abs(lambda_cap(model, c_near) - 2 * p.eta * c_near * p.T / (2 + p.kappa * p.T))
        / limit
    )
