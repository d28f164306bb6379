"""Acceptance suite: every criterion at its stated tolerance.

One test per criterion; each prints a `[PASS]`/`[FAIL]` line per checked
clause (run with `pytest -s` or execute this file directly to see them all).

Criterion 9's first two clauses are implemented faithfully and are expected
to fail: the level-L Cantor stress is exactly weakly divergence-free at
every level (tangential fields psi(|z|) z_perp have zero weak divergence,
so the residual is round-off, not an O(2^-L) quantity), and its
W^{1,1} difference quotient telescopes to a level-independent total
variation instead of blowing up.  The README's "Expected acceptance
outcome" section carries the analysis; the honest finite-level witnesses
(sup-slope and m > 1 quotients) are reported by the diagnostic alongside.
"""

import time

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import spsolve

from quclab import cordes, counterexamples, matrixcore, radial, spectral
from quclab.integrands import (
    AnnulusSampler,
    eigen_ratio_batch,
    gallery,
    mollify,
    moreau_yosida,
    prox_point,
)
from quclab.solver import (
    ProblemSpec,
    make_boundary,
    make_source,
    minimize,
    radial_power_solution,
    sobolev_report,
    w1p_error,
)
from quclab.solver.problem import radial_power_gradient

CHECKS = []


def check(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}" + (f"  ({detail})" if detail else "")
    print(line)
    CHECKS.append((name, bool(ok)))
    return bool(ok)


def test_criterion_1_matrix_lemma():
    """10^5 random (SPD, symmetric) pairs per dimension 2..8; extremal equality."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    ok_all = True
    worst = -np.inf
    for dim in range(2, 9):
        rep = matrixcore.batch_skew_check(rng, trials=100_000, dim=dim)
        ok_all &= rep.holds
        worst = max(worst, rep.worst_slack)
    ok_trials = check("C1 skew bound on 7x1e5 random pairs", ok_all,
                      f"worst slack {worst:.2e} <= 1e-10")
    p_ext, s_ext = matrixcore.extremal_pair(2, 1.0, 4.0)
    ext = matrixcore.verify_skew_bound(p_ext, s_ext)
    gap = abs(ext.lhs - ext.rhs) / 18.0
    ok_eq = check("C1 extremal pair attains equality 18 = 18", gap <= 1e-12
                  and abs(ext.lhs - 18.0) <= 1e-12 * 18.0,
                  f"rel gap {gap:.2e}")
    elapsed = time.perf_counter() - t0
    ok_time = check("C1 runtime < 30 s", elapsed < 30.0, f"{elapsed:.1f} s")
    assert ok_trials and ok_eq and ok_time


def test_criterion_2_spectral_identity():
    """Energy identity residual and div-curl round trip at 128^2."""
    t0 = time.perf_counter()
    grid = spectral.PeriodicGrid(dim=2, n=128)
    rng = np.random.default_rng(202)
    worst_res = worst_round = 0.0
    for _ in range(100):
        v = spectral.SpectralField.random_band_limited(grid, "vector", 16, rng)
        worst_res = max(worst_res, spectral.divcurl_identity_residual(v))
        dv = spectral.gradient_tensor(v).physical()
        rec = spectral.divcurl_reconstruct(spectral.divergence(v),
                                           spectral.curl(v)).physical()
        scale = np.sqrt(np.sum(dv * dv))
        worst_round = max(worst_round, float(np.sqrt(np.sum((rec - dv) ** 2)) / scale))
    ok_res = check("C2 energy identity residual <= 1e-10 (100 fields, 128^2)",
                   worst_res <= 1e-10, f"worst {worst_res:.2e}")
    ok_round = check("C2 div-curl round trip <= 1e-10", worst_round <= 1e-10,
                     f"worst {worst_round:.2e}")
    elapsed = time.perf_counter() - t0
    ok_time = check("C2 runtime < 60 s", elapsed < 60.0, f"{elapsed:.1f} s")
    assert ok_res and ok_round and ok_time


def test_criterion_3_lm_bound_and_isometry():
    """L^m gradient bound for m in {1.5, 2, 3, 6}; operator-norm probe at 2."""
    grid = spectral.PeriodicGrid(dim=2, n=64)
    rng = np.random.default_rng(303)
    ok_lm = True
    for m in (1.5, 2.0, 3.0, 6.0):
        for _ in range(25):
            v = spectral.SpectralField.random_band_limited(grid, "vector", 8, rng)
            ok_lm &= spectral.verify_lm_bound(v, m).holds
    ok_lm = check("C3 L^m div-curl bound holds (m in {1.5,2,3,6})", ok_lm)
    probe = cordes.estimate_T_norm(2.0, trials=100, n=64, kmax=8, seed=303)
    ok_probe = check("C3 operator-norm probe at m=2 in [0.9, 1+1e-9]",
                     0.9 <= probe <= 1.0 + 1e-9, f"probe {probe:.12f}")
    assert ok_lm and ok_probe


def test_criterion_4_cordes_constants():
    """Threshold arithmetic: K0 closed form, delta0 positive and decreasing."""
    t0 = time.perf_counter()
    expected = 1.0 / (1.0 - 1.0 / (4.0 * np.sqrt(2.0)))
    k0 = cordes.cordes_K0(2, 2.0)
    ok_k0 = check("C4 K0(2,2) = 1/(1 - 1/(4 sqrt 2)) to 1e-12",
                  abs(k0 - expected) <= 1e-12, f"K0 = {k0:.12f}")
    deltas = [cordes.cordes_delta0(k, 2) for k in (1.05, 1.2, 1.5)]
    ok_pos = check("C4 delta0 > 0 for K in {1.05, 1.2, 1.5}",
                   all(d > 0.0 for d in deltas),
                   ", ".join(f"{d:.4f}" for d in deltas))
    ok_dec = check("C4 delta0 decreasing in K", deltas[0] > deltas[1] > deltas[2])
    elapsed = time.perf_counter() - t0
    ok_time = check("C4 runtime < 1 s", elapsed < 1.0, f"{elapsed:.3f} s")
    assert ok_k0 and ok_pos and ok_dec and ok_time


def test_criterion_5_radial_oracle():
    """Stress p-independence of the unit-source problem; Holder exponent."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    pts = rng.uniform(-0.5, 0.5, size=(400, 2))
    pts = pts[np.linalg.norm(pts, axis=1) > 0.05]
    worst = 0.0
    for p in (1.2, 2.0, 3.0, 6.0):
        prob = radial.RadialProblem(dim=2, p=p, r_max=1.0, c=1.0, a=0.0)
        grid = radial.stress_of(prob, pts)
        worst = max(worst, float(np.max(np.abs(grid.values - pts / 2.0))))
    ok_stress = check("C5 stress of unit-source problem = x/N for p in {1.2,2,3,6}",
                      worst <= 1e-10, f"worst err {worst:.2e}")
    prob3 = radial.RadialProblem(dim=2, p=3.0, r_max=1.0, c=1.0, a=0.0)
    sol3 = radial.solve_radial(prob3, num=8193)
    fit = radial.holder_exponent(sol3.r, sol3.v_prime)
    ok_holder = check("C5 gradient Holder exponent for p=3 is 0.5 +- 0.05",
                      abs(fit.exponent - 0.5) <= 0.05,
                      f"exponent {fit.exponent:.4f} +- {fit.ci95:.4f}")
    elapsed = time.perf_counter() - t0
    ok_time = check("C5 runtime < 10 s", elapsed < 10.0, f"{elapsed:.1f} s")
    assert ok_stress and ok_holder and ok_time


def test_criterion_6_alpha_p_table():
    """Exponent arithmetic near p = 2 and the admissibility flip."""
    t0 = time.perf_counter()
    rep = radial.alpha_p(2, 2.01)
    ok_mp = check("C6 m_p(2, 2.01) = 12.5", abs(rep.m_p - 12.5) <= 1e-12,
                  f"m_p = {rep.m_p}")
    exact_alpha = (1.0 - 2.0 * 8 * 0.01) / 1.01
    ok_alpha = check("C6 alpha_p(2, 2.01) = 0.84/1.01 ~ 0.8317",
                     abs(rep.alpha_p - exact_alpha) <= 1e-12
                     and abs(rep.alpha_p - 0.8317) <= 2e-4,
                     f"alpha_p = {rep.alpha_p:.6f}")
    flip = 1.0 / 16.0
    below = radial.alpha_p(2, 2.0 + flip - 1e-9)
    at = radial.alpha_p(2, 2.0 + flip)
    above = radial.alpha_p(2, 2.0 + flip + 1e-9)
    ok_flip = check("C6 admissibility flips exactly at |p-2| = 1/16",
                    below.admissible and not at.admissible and not above.admissible)
    ok_cross = check("C6 m_p > N and Cordes margin < 1 when admissible",
                     rep.m_p_above_dim and rep.cordes_margin < 1.0,
                     f"margin {rep.cordes_margin:.4f}")
    elapsed = time.perf_counter() - t0
    ok_time = check("C6 runtime < 1 s", elapsed < 1.0, f"{elapsed:.3f} s")
    assert ok_mp and ok_alpha and ok_flip and ok_cross and ok_time


def _five_point_oracle(n, f_const, boundary_fn):
    h = 2.0 / n
    m = n + 1
    axis = -1.0 + np.arange(m) * h
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    coords = np.stack([xx.ravel(), yy.ravel()], axis=1)
    interior = np.zeros((m, m), bool)
    interior[1:-1, 1:-1] = True
    idx = np.arange(m * m).reshape(m, m)
    u = boundary_fn(coords).astype(float)
    rows, cols, vals = [], [], []
    b = np.full(m * m, -h * h * f_const)
    for i in range(1, m - 1):
        for j in range(1, m - 1):
            r = idx[i, j]
            rows.append(r), cols.append(r), vals.append(4.0)
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                cidx = idx[i + di, j + dj]
                if interior[i + di, j + dj]:
                    rows.append(r), cols.append(cidx), vals.append(-1.0)
                else:
                    b[r] += u[cidx]
    a_mat = sparse.coo_matrix((vals, (rows, cols)), shape=(m * m, m * m)).tocsr()
    mask = interior.ravel()
    out = u.copy()
    out[mask] = spsolve(a_mat[mask][:, mask], b[mask])
    return out


def test_criterion_7_solver_convergence():
    """Poisson exactness, W^{1,p} rate for p = 3, and C_meas stability."""
    t0 = time.perf_counter()
    n = 64
    spec = ProblemSpec(integrand=gallery("power", p=2), cells=n,
                       boundary=make_boundary("quadratic"),
                       source=make_source("constant", value=4.0))
    sol = minimize(spec)
    oracle = _five_point_oracle(n, 4.0, make_boundary("quadratic"))
    gap = float(np.max(np.abs(sol.u - oracle)))
    ok_poisson = check("C7 cascade reproduces the discrete Poisson solution to 1e-10",
                       gap <= 1e-10, f"max gap {gap:.2e}")

    p = 3.0
    errors, cs = [], []
    for cells in (32, 64, 128, 256):
        spec3 = ProblemSpec(integrand=gallery("power", p=p), cells=cells,
                            boundary=make_boundary("radial_power", p=p),
                            source=make_source("constant", value=1.0))
        sol3 = minimize(spec3)
        errors.append(w1p_error(sol3, radial_power_solution(p),
                                radial_power_gradient(p), p))
        cs.append(sobolev_report(sol3, (0.2, 0.1), 0.15, m=2.0).c_meas)
    ratios = [errors[i] / errors[i + 1] for i in range(3)]
    ok_rate = check("C7 W^{1,p} error shrinks >= 1.5x per mesh doubling (32->256)",
                    all(r >= 1.5 for r in ratios),
                    "ratios " + ", ".join(f"{r:.2f}" for r in ratios))
    ok_cmeas = check("C7 C_meas nonincreasing across the last three levels",
                     cs[1] >= cs[2] >= cs[3],
                     "C_meas " + ", ".join(f"{c:.6f}" for c in cs[1:]))
    elapsed = time.perf_counter() - t0
    ok_time = check("C7 runtime < 5 min", elapsed < 300.0, f"{elapsed:.0f} s")
    assert ok_poisson and ok_rate and ok_cmeas and ok_time


QUC_GALLERY = [
    lambda: gallery("power", p=1.5),
    lambda: gallery("power", p=2),
    lambda: gallery("power", p=3),
    lambda: gallery("power", p=4),
    lambda: gallery("two_center", p=1.5, z0=[0.5, 0.0]),
    lambda: gallery("two_center", p=2.5, z0=[0.3, -0.2]),
    lambda: gallery("uhlenbeck", profile="constant"),
    lambda: gallery("uhlenbeck", profile="bounded_power", p=4),
    lambda: gallery("gh", p=3, matrix=[[2.0, 0.3], [0.0, 1.0]]),
    lambda: gallery("cantor", level=8),
]


def test_criterion_8_regularization_preserves_K():
    """Mollification / Moreau-Yosida keep ratios within K + 1e-3; prox 1-Lipschitz."""
    sampler = AnnulusSampler(0.4, 2.5, shells=40, directions=25, seed=808)
    pts = sampler.points(2)
    ok_all = True
    for maker in QUC_GALLERY:
        f = maker()
        bound = f.declared_K + 1e-3
        r_mol = eigen_ratio_batch(mollify(f, 0.08), pts)
        r_my = eigen_ratio_batch(moreau_yosida(f, 0.3), pts)
        ok = np.all(r_mol <= bound) and np.all(r_my <= bound)
        ok_all &= check(f"C8 ratio bound preserved for {f.name}", bool(ok),
                        f"mollified max {np.max(r_mol):.4f}, "
                        f"prox-regularized max {np.max(r_my):.4f}, bound {bound:.4f}")
    rng = np.random.default_rng(808)
    f = gallery("power", p=3)
    z1 = 2.0 * rng.standard_normal((10_000, 2))
    z2 = 2.0 * rng.standard_normal((10_000, 2))
    p1 = prox_point(f, 0.7, z1)
    p2 = prox_point(f, 0.7, z2)
    lhs = np.linalg.norm(p1 - p2, axis=1)
    rhs = np.linalg.norm(z1 - z2, axis=1)
    ok_lip = check("C8 prox is 1-Lipschitz on 1e4 sampled pairs",
                   bool(np.all(lhs <= rhs * (1.0 + 1e-9) + 1e-11)),
                   f"max ratio {np.max(lhs / np.maximum(rhs, 1e-300)):.12f}")
    assert ok_all and ok_lip


def test_criterion_9_cantor_counterexample():
    """Faithful run of the stated Cantor clauses; two fail by analysis.

    The residual-halving and W^{1,1}-growth clauses are mathematically
    unattainable for this field (see the module docstring); they are
    asserted as stated and the failure is the honest outcome.
    """
    t0 = time.perf_counter()
    levels = list(range(6, 14))
    # one call integrates every level on one polar Gauss rule per bump, so
    # each residual matches a one-level call only within its quadrature bound
    residuals = counterexamples.weak_divergence_residuals(
        counterexamples.cantor_stress_fields(levels),
        n_bumps=50, seed=909).residuals
    below = max(residuals) <= 1e-3
    check("C9 weak divergence residual <= 1e-3 at every level", below,
          f"max {max(residuals):.2e}")
    halving = all(residuals[i + 1] <= 0.75 * residuals[i]
                  for i in range(len(residuals) - 1))
    check("C9 residual halves per level increment (expected FAIL: the field "
          "is exactly weakly divergence-free; residuals are round-off)",
          halving, "residuals " + ", ".join(f"{r:.1e}" for r in residuals))

    table = counterexamples.sobolev_blowup_diagnostic(levels, n_grid=1024)
    w11 = [row.w11_quotient for row in table]
    strictly_growing = all(b > a for a, b in zip(w11, w11[1:]))
    check("C9 W^{1,1} quotient strictly increases with no plateau (expected "
          "FAIL: monotone telescoping caps it at the total variation)",
          strictly_growing, "w11 " + ", ".join(f"{v:.6f}" for v in w11))
    control = [row.control_w11 for row in table]
    ok_control = (max(control) - min(control)) <= 0.05 * max(control)
    check("C9 smooth control quotient within +-5% across levels", ok_control,
          f"spread {max(control) - min(control):.2e}")
    sup_growth = table[0].sup_quotient < max(row.sup_quotient for row in table)
    check("C9 (supplementary) finite-level sup-slope witness grows while "
          "resolved", sup_growth)
    elapsed = time.perf_counter() - t0
    check("C9 runtime < 3 min", elapsed < 180.0, f"{elapsed:.0f} s")
    assert below and ok_control and elapsed < 180.0
    assert halving and strictly_growing, (
        "criterion 9's residual-halving and W^{1,1}-growth clauses fail "
        "as predicted: psi(|z|) z_perp fields are exactly weakly "
        "divergence-free and their L^1 difference quotients telescope to a "
        "level-independent total variation; see the README's expected "
        "acceptance outcome (honest red, not a regression)")


def main():
    import traceback
    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_criterion"):
            try:
                fn()
            except AssertionError:
                failures += 1
            except Exception:
                traceback.print_exc()
                failures += 1
    print(f"\n{sum(ok for _, ok in CHECKS)}/{len(CHECKS)} acceptance checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
