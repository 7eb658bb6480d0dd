"""Named verification checks tying every engine piece to an independent
reference: compensator martingales under both measures, density-process
normalization, measure-change price consistency, the closed-form moment
oracles, exact PIDE solutions, and agreement of the two reserve routes.

Each check reports the fraction of its error budget consumed (statistical
gates are 3 standard errors); the raw numbers live in the detail string.
The Monte Carlo checks read two samples, each drawn once and released
after its last reader (`readers` in run_verification): the P sample (2 *
run.paths paths at the run seed, probes at T/2 and T; the event checks read
its first run.paths paths' event table) and the Q sample (as many at
derive_seed(seed, "pidemc0")).  A statistical check that fails is retried once, on a fresh
sample of the same kind and size drawn from the base seed derive_seed(seed,
check name + "1"); a retried check keeps its failed first attempt (budget
used and detail) in the report.  The JSON report is byte-identical across
runs of the same config and seed (wall times appear only in the
human-readable table).
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import hawkes, pide, special, thiele
from .config import RunConfig
from .errors import ConfigError
from .markov import endowment_guarantee, pure_endowment, term_insurance
from .measure import compute_c_l, lambda_cap
from .model import ConstantJump, ExponentialJump, validate
from .payoff import constant, guarantee, linear
from .rng import derive_seed
from .sde import simulate

__all__ = ["Check", "VerificationReport", "run_verification"]

EXACT = "exact-identity"
CLOSED = "closed-form"
ORACLE = "independent-oracle"


@dataclass
class Check:
    """One named verification item.

    `value` is the fraction of the error budget consumed (pass iff <= the
    budget `tolerance`, normally 1); `detail` carries the raw numbers.  A
    retried check keeps its failed first try as `first_attempt`, a dict with
    that try's `value` and `detail`.
    """

    name: str
    kind: str
    detail: str
    value: float
    tolerance: float
    passed: bool
    first_attempt: dict | None = None
    hard: bool = True
    wall_time: float = 0.0

    @property
    def retried(self) -> bool:
        return self.first_attempt is not None

    def to_dict(self) -> dict:
        # wall_time excluded on purpose: reports must be byte-identical
        doc = {
            "name": self.name,
            "kind": self.kind,
            "detail": self.detail,
            "value": self.value,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "retried": self.retried,
            "hard": self.hard,
        }
        if self.retried:
            doc["first_attempt"] = self.first_attempt
        return doc


@dataclass
class VerificationReport:
    seed: int
    config_digest: str
    checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if c.hard)

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


def _ratio(deviation: float, gate: float) -> float:
    """Fraction of a (possibly zero) statistical gate consumed.

    A zero gate happens in degenerate regimes (for instance the intensity is
    deterministic without self-excitation); the deviation must then vanish.
    """
    if gate == 0.0:
        return 0.0 if deviation == 0.0 else math.inf
    return deviation / gate


class _Suite:
    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.checks: list[Check] = []
        self.scale = cfg.run.tolerances

    def add(self, name, kind, used, detail, *, first_attempt=None, started=None):
        budget = float(self.scale.get(name, 1.0))
        self.checks.append(
            Check(
                name=name,
                kind=kind,
                detail=detail,
                value=float(used),
                tolerance=budget,
                passed=bool(used <= budget),
                first_attempt=first_attempt,
                wall_time=time.perf_counter() - started if started else 0.0,
            )
        )

    def add_stat(self, name, kind, compute, *, started=None):
        """compute(tag) -> (budget_used, detail); retried once on failure,
        keeping the failed first attempt."""
        used, detail = compute(0)
        first = None
        if used > float(self.scale.get(name, 1.0)):
            first = {"value": float(used), "detail": detail}
            used, detail = compute(1)
        self.add(name, kind, used, detail, first_attempt=first, started=started)

    def stat(self, name, kind, compute):
        """A statistical check: compute(tag) -> (budget_used, detail)."""
        self.guard(name, kind, lambda t0: self.add_stat(name, kind, compute, started=t0))

    def fixed(self, name, kind, compute):
        """A deterministic check: compute() -> (budget_used, detail)."""
        self.guard(name, kind, lambda t0: self.add(name, kind, *compute(), started=t0))

    def guard(self, name, kind, fn):
        """Run one check body; an exception becomes a recorded failure."""
        started = time.perf_counter()
        try:
            fn(started)
        except Exception as exc:  # checks must never abort the suite
            detail = f"raised {type(exc).__name__}: {exc}"
            self.add(name, kind, math.inf, detail, started=started)


def run_verification(cfg: RunConfig) -> VerificationReport:
    """Execute the full suite on the configured model; config problems raise,
    individual check failures are recorded and never abort.

    Check names map one-to-one onto the acceptance criteria, in order:
    hawkes_mean_law, compensator_p, compensator_q_weighted, rn_density,
    q_martingale_stock, closed_form_oracles, pide_exact_solutions,
    pide_vs_mc_guarantee, thiele_consistency, admissibility_c_l; the
    girsanov_price_crosscheck and lambda_cap_corner rows are additional.
    """
    model = cfg.validated_model()
    selection, adm = cfg.selection(model)  # inadmissible a aborts here
    dist = cfg.dist
    p = model.params
    run = cfg.run
    suite = _Suite(cfg)
    seed = run.seed
    g_level = p.S0 * math.exp(p.r * p.T)

    def guarantee_pv(s_t):
        return math.exp(-p.r * p.T) * np.maximum(g_level, s_t)

    # The suite's two Monte Carlo samples and the checks that read them, in
    # order; a sample is released after the last check of its row.
    readers = {
        "P": ("hawkes_mean_law", "compensator_p", "compensator_q_weighted", "rn_density",
              "girsanov_price_crosscheck"),
        "Q": ("q_martingale_stock", "girsanov_price_crosscheck", "pide_vs_mc_guarantee"),
    }
    held = {}

    def draw(kind, base):
        under_p = kind == "P"
        # the Q sample's stream is apart from the P sample's: they are independent
        return simulate(
            model, dist, kind, 2 * run.paths, run.steps,
            base if under_p else derive_seed(base, "pidemc0"), selection=selection,
            probe_times=(p.T / 2, p.T) if under_p else (), threads=run.threads,
        )

    def sample(kind, check, tag):
        """The shared `kind` sample on a first attempt; on retry `tag` a fresh
        one drawn from the base seed derive_seed(seed, check + tag)."""
        if tag:
            return draw(kind, derive_seed(seed, f"{check}{tag}"))
        if kind not in held:
            held[kind] = draw(kind, seed)
        return held.pop(kind) if check == readers[kind][-1] else held[kind]

    # 1. event-process mean law against the first-moment equation
    def hawkes_mean_law(tag):
        events = sample("P", "hawkes_mean_law", tag).events.head(run.paths)
        lam_t = hawkes.lambda_at(model, events, p.T)
        _, el_ref = hawkes.mean_intensity_ode(model, p.T)
        se = lam_t.std(ddof=1) / math.sqrt(lam_t.size)
        used = _ratio(abs(lam_t.mean() - el_ref), 3 * se)
        return used, f"mean lambda_T {lam_t.mean():.5f} vs {el_ref:.5f} (3se {3*se:.5f})"

    suite.stat("hawkes_mean_law", ORACLE, hawkes_mean_law)

    # 2. compensated counting and compound processes have mean zero under P
    def compensator_p(tag):
        events = sample("P", "compensator_p", tag).events.head(run.paths)
        rows = hawkes.martingale_residual_test(model, events, [p.T / 2, p.T], dist.mean)
        used = max(_ratio(abs(r.mean), 3 * r.se) for r in rows)
        detail = "; ".join(
            f"{r.process}@{r.t:g}: {r.mean:+.4f} (3se {3*r.se:.4f})" for r in rows
        )
        return used, detail

    suite.stat("compensator_p", ORACLE, compensator_p)

    # 3 + 4. the P sample's first half: weighted compensator, density moments
    def compensator_q_weighted(tag):
        sim_p = sample("P", "compensator_q_weighted", tag)
        used, parts = 0.0, []
        for t, pr in sim_p.probes.items():
            w = pr["X"][: run.paths] * (pr["N"][: run.paths] - pr["comp_n"][: run.paths])
            se = w.std(ddof=1) / math.sqrt(w.size)
            used = max(used, _ratio(abs(w.mean()), 3 * se))
            parts.append(f"t={t:g}: {w.mean():+.4f} (3se {3*se:.4f})")
        return used, "; ".join(parts)

    suite.stat("compensator_q_weighted", ORACLE, compensator_q_weighted)

    def rn_density(tag):
        x_t = sample("P", "rn_density", tag).terminal["X"]
        half = x_t[: run.paths]
        se = half.std(ddof=1) / math.sqrt(half.size)
        used = _ratio(abs(half.mean() - 1.0), 3 * se)
        mom = 2.0 + selection.epsilon1
        m_half = float(np.mean(half**mom))
        m_full = float(np.mean(x_t**mom))
        change = abs(m_full - m_half) / m_half
        used = max(used, change / 0.05)
        return used, (
            f"E[X_T] {half.mean():.5f} (3se {3*se:.5f}); "
            f"E[X^{mom:g}] doubling change {change:.3%} (<5%)"
        )

    suite.stat("rn_density", ORACLE, rn_density)

    # 5. the Q sample's first half: the discounted stock is a martingale
    def q_martingale_stock(tag):
        s_t = sample("Q", "q_martingale_stock", tag).terminal["S"][: run.paths]
        disc = math.exp(-p.r * p.T) * s_t
        se = disc.std(ddof=1) / math.sqrt(disc.size)
        used = _ratio(abs(disc.mean() - p.S0), 3 * se)
        return used, f"E[e^-rT S_T] {disc.mean():.4f} vs {p.S0:g} (3se {3*se:.4f})"

    suite.stat("q_martingale_stock", ORACLE, q_martingale_stock)

    # extra: E_P[X_T f(S_T)] = E_Q[f(S_T)] over the whole P and Q samples
    def girsanov_price_crosscheck(tag):
        sim_p = sample("P", "girsanov_price_crosscheck", tag)
        sim_q = sample("Q", "girsanov_price_crosscheck", tag)
        x_t = sim_p.terminal["X"]
        wp = x_t * guarantee_pv(sim_p.terminal["S"])
        wq = guarantee_pv(sim_q.terminal["S"])
        m_p, se_p = float(wp.mean()), float(wp.std(ddof=1) / math.sqrt(wp.size))
        m_q, se_q = float(wq.mean()), float(wq.std(ddof=1) / math.sqrt(wq.size))
        pooled = math.hypot(se_p, se_q)
        ess = float(x_t.sum()) ** 2 / float(np.sum(x_t**2))
        return _ratio(abs(m_p - m_q), 3 * pooled), (
            f"P-weighted {m_p:.4f} vs Q {m_q:.4f} (3se pooled {3*pooled:.4f}); "
            f"P effective sample size {ess:.0f} of {x_t.size}"
        )

    suite.stat("girsanov_price_crosscheck", ORACLE, girsanov_price_crosscheck)

    # 6. closed-form moment oracles vs Monte Carlo and series identities
    def closed_form_oracles():
        s_neg = 1.0
        val = special.cir_neg_moment(p.kappa, p.vbar, p.sigma, p.v0, p.T, s_neg)
        rng = np.random.default_rng(derive_seed(seed, "ncx2"))
        emkt = math.exp(-p.kappa * p.T)
        k_nc = 4 * p.kappa * p.v0 * emkt / (p.sigma**2 * -math.expm1(-p.kappa * p.T))
        delta = 4 * p.kappa * p.vbar / p.sigma**2
        samp = rng.noncentral_chisquare(delta, k_nc, size=1_000_000) * (emkt * p.v0 / k_nc)
        rel1 = abs(val / float(np.mean(1.0 / samp**s_neg)) - 1.0)
        c_exp = min(
            0.1, 0.4 * 0.5 * ((2 * p.kappa * p.vbar - p.sigma**2) / (2 * p.sigma)) ** 2
        )
        val2 = special.integrated_inverse_cir_exp(p.kappa, p.vbar, p.sigma, p.v0, p.T, c_exp)
        mc2 = _integrated_inverse_mc(p, c_exp, run.paths, 512, derive_seed(seed, "iicir"))
        rel2 = abs(val2 / mc2 - 1.0)
        dev = _hyp1f1_identity_deviation()
        return max(rel1 / 0.02, rel2 / 0.02, dev / 1e-9), (
            f"inverse moment rel {rel1:.3%} (<2%); integrated reciprocal rel "
            f"{rel2:.3%} (<2%); series identity dev {dev:.1e} (<1e-9)"
        )

    suite.fixed("closed_form_oracles", ORACLE, closed_form_oracles)

    # 7. exact solutions of the pricing equation
    nt, nx, ny, nz = run.grid
    grid = pide.build_grid(model, p.T, nt, nx, ny, nz)

    def pide_exact_solutions():
        sol_lin = pide.solve_price_pide(linear(1.0), p.T, model, selection, dist, grid)
        x3 = np.broadcast_to(grid.x[:, None, None], grid.shape)
        err_x = max(
            float(np.max(np.abs(sol_lin.values[k] / x3 - 1.0)))
            for k in range(len(grid.t))
        )
        sol_one = pide.solve_price_pide(constant(1.0), p.T, model, selection, dist, grid)
        disc = np.exp(-p.r * (p.T - grid.t))
        err_1 = max(
            float(np.max(np.abs(sol_one.values[k] / disc[k] - 1.0)))
            for k in range(len(grid.t))
        )
        return max(err_x / 1e-3, err_1 / 1e-6), (
            f"payoff x rel err {err_x:.1e} (<1e-3); payoff 1 rel err {err_1:.1e} (<1e-6)"
        )

    suite.fixed("pide_exact_solutions", EXACT, pide_exact_solutions)

    # 8. guarantee price: solver vs the whole Q sample
    def pide_vs_mc_guarantee(tag):
        sol_g = pide.solve_price_pide(guarantee(g_level), p.T, model, selection, dist, grid)
        u0 = sol_g.at(0, p.S0, p.v0, p.lambda0)
        pay = guarantee_pv(sample("Q", "pide_vs_mc_guarantee", tag).terminal["S"])
        mc, se = float(pay.mean()), float(pay.std(ddof=1) / math.sqrt(pay.size))
        used = abs(u0 - mc) / (0.01 * mc + 3 * se)
        return used, (
            f"solver {u0:.4f} vs simulation {mc:.4f} +- {se:.4f} "
            f"(gate 1% + 3se = {0.01*mc + 3*se:.4f})"
        )

    suite.stat("pide_vs_mc_guarantee", ORACLE, pide_vs_mc_guarantee)

    # 9. the two reserve routes agree; classical scalar reduction
    def thiele_consistency():
        worst = _thiele_consistency_worst(model, selection, dist, grid, g_level)
        dev = _classical_reduction_deviation(p, dist, cfg)
        return max(worst / 0.01, dev / 1e-4), (
            f"worst probe rel diff {worst:.4%} (<1%); classical reduction "
            f"dev {dev:.1e} (<1e-4)"
        )

    suite.fixed("thiele_consistency", ORACLE, thiele_consistency)

    # 10. admissibility threshold and band nesting
    suite.fixed("admissibility_c_l", CLOSED, lambda: _c_l_consistency(model, dist, adm))

    # extra: continuity of the exponential-moment cap at its corner
    def lambda_cap_corner():
        corner = _lambda_corner_deviation(model)
        return corner / 1e-6, f"relative gap to the analytic limit {corner:.1e} (<1e-6)"

    suite.fixed("lambda_cap_corner", CLOSED, lambda_cap_corner)

    unknown = sorted(set(run.tolerances) - {c.name for c in suite.checks})
    if unknown:
        raise ConfigError(f"run.tolerances names no check: {', '.join(unknown)}")
    digest = hashlib.sha256(cfg.canonical().encode()).hexdigest()[:16]
    return VerificationReport(seed=seed, config_digest=digest, checks=suite.checks)


def _integrated_inverse_mc(p, c, n_paths, n_steps, seed):
    """Exact-transition simulation of the jump-free variance with a
    trapezoidal integral of its reciprocal."""
    rng = np.random.default_rng(seed)
    dt = p.T / n_steps
    df = 4 * p.kappa * p.vbar / p.sigma**2
    ek = math.exp(-p.kappa * dt)
    cc = 4 * p.kappa / (p.sigma**2 * (1 - ek))
    v = np.full(n_paths, p.v0)
    integ = np.zeros(n_paths)
    for _ in range(n_steps):
        v_new = rng.noncentral_chisquare(df, cc * ek * v) / cc
        integ += 0.5 * (1.0 / v + 1.0 / v_new) * dt
        v = v_new
    return float(np.mean(np.exp(c * integ)))


def _hyp1f1_identity_deviation() -> float:
    dev = 0.0
    for a in (0.5, 1.0, 2.5):
        for b in (0.5, 1.5, 2.5):
            dev = max(dev, abs(special.hyp1f1(a, b, 0.0) - 1.0))
            for z in np.linspace(-20, 20, 9):
                lhs = special.hyp1f1(a, b, float(z))
                rhs = math.exp(z) * special.hyp1f1(b - a, b, float(-z))
                dev = max(dev, abs(lhs - rhs) / max(abs(lhs), 1e-30))
    for z in (-3.0, 0.7, 1.0, 4.0):
        dev = max(dev, abs(special.hyp1f1(2.0, 2.0, z) - math.exp(z)) / math.exp(z))
    dev = max(dev, abs(special.hyp1f1(0.3, 1.1, 0.0) - 1.0))
    dev = max(dev, abs(special.hyp1f1(0.5, 1.5, -1.0) - 0.7468241328124271))
    return dev


def _thiele_consistency_worst(model, selection, dist, grid, g_level) -> float:
    p = model.params
    templates = [
        pure_endowment(p.T, 0.02),
        term_insurance(p.T, 0.02),
        endowment_guarantee(p.T, 0.02, g_level),
    ]
    nx, ny, nz = grid.shape
    probes = [
        (i, j, k)
        for i in (nx // 4, nx // 2, 3 * nx // 4)
        for j in (ny // 4, ny // 2, 3 * ny // 4)
        for k in (nz // 4, nz // 2, 3 * nz // 4)
    ]
    worst = 0.0
    for pol in templates:
        surf = thiele.solve_thiele_pide(pol, model, selection, dist, grid)
        quad = thiele.reserve_quadrature(pol, model, selection, dist, grid, 0.0)
        for st in pol.states:
            a_lay = surf.values[st][0]
            b_lay = quad.values[st]
            scale = max(float(np.max(np.abs(b_lay))), 1e-12)
            for i, j, k in probes:
                worst = max(worst, abs(a_lay[i, j, k] - b_lay[i, j, k]) / scale)
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
    surf = thiele.solve_thiele_pide(pol, long_model, sel, dist, grid)
    got = float(surf.values["alive"][0][0, 0, 0])
    closed = mu_rate / (p.r + mu_rate) * -math.expm1(-(p.r + mu_rate) * horizon)
    return abs(got - closed)


def _c_l_consistency(model, dist, adm) -> tuple[float, str]:
    """Bisection threshold against a million-point scan of the unrewritten
    Lambda(c) and the mark laws' MGFs, its stability under a tighter
    tolerance, the exact cap at zero jump scale and the band nesting."""
    p = model.params
    res = compute_c_l(model, dist, tol=1e-10)
    n = 1_000_000
    cs = np.linspace(adm.cap / n, adm.cap, n)
    # blocks bound the scan's temporaries to a few MB
    ok = np.concatenate([_c_l_scan(p, dist, block) for block in np.array_split(cs, 16)])
    scan_sup = float(cs[ok].max()) if ok.any() else 0.0
    spacing = adm.cap / n
    dev_scan = abs(res.value - scan_sup)
    shift = abs(compute_c_l(model, dist, tol=1e-12).value - res.value)
    cap_exact = compute_c_l(validate(replace(p, eta=0.0)), dist).value == adm.cap
    nested = adm.bound_em_qs is not None and adm.bound_em_qs <= adm.bound_em <= adm.bound_e
    used = max(dev_scan / (spacing + 1e-10), shift / 1e-10)
    if not cap_exact or not nested:
        used = math.inf
    detail = (
        f"threshold {res.value:.10g} vs 1e6-point scan {scan_sup:.10g} (gap "
        f"{dev_scan:.1e} <= spacing {spacing:.1e}); refinement shift {shift:.1e} "
        f"(<=1e-10); zero-eta cap exact {cap_exact}; band nesting {nested}"
    )
    return used, detail


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
    d_small = 1e-8
    c_near = (p.kappa**2 - d_small**2) / (2 * p.sigma**2)
    limit = 2 * p.eta * cap * p.T / (2 + p.kappa * p.T)
    if limit == 0.0:
        return abs(lambda_cap(model, c_near))
    return (
        abs(lambda_cap(model, c_near) - 2 * p.eta * c_near * p.T / (2 + p.kappa * p.T))
        / limit
    )
