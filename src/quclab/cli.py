"""Command-line entry point.

Every subcommand writes machine-first reports (JSON/CSV) plus a manifest
with run metadata into --out.  Fixed seeds give byte-identical report files
(the manifest records wall time and is exempt).  Exit codes: 0 when all
checked invariants pass, 1 on a failed check (a report that holds a NaN or
inf fails), 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import cordes, counterexamples, matrixcore, radial, spectral
from .errors import InputError, QuclabError
from .integrands import (
    AnnulusSampler,
    estimate_K,
    gallery,
    integrand_to_config,
    verify_growth,
)
from .solver import (
    euler_lagrange_residual,
    load_problem_config,
    minimize,
    sobolev_report,
)
from .utils import Manifest, pool_map, write_csv, write_grid_txt, write_json


def _parse_list(text: str, convert, flag: str) -> list:
    try:
        return [convert(tok) for tok in text.split(",")]
    except ValueError:
        raise InputError(f"{flag} expects a comma list of numbers, got {text!r}") from None


def _parse_levels(text: str) -> list[int]:
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            return list(range(int(lo), int(hi) + 1))
        return _parse_list(text, int, "--levels")
    except ValueError:
        raise InputError(f"--levels expects LO..HI or a comma list, got {text!r}") from None


def _parse_params(tokens) -> dict:
    out = {}
    for tok in tokens or []:
        if "=" not in tok:
            raise InputError(f"--param expects key=value, got {tok!r}")
        key, val = tok.split("=", 1)
        try:
            out[key] = float(val)
        except ValueError:
            out[key] = val
    return out


def _all_finite(obj) -> bool:
    """Is every number in a (nested) report payload finite?"""
    if isinstance(obj, dict):
        return all(_all_finite(v) for v in obj.values())
    if isinstance(obj, (list, tuple, np.ndarray)):
        return all(_all_finite(v) for v in obj)
    if isinstance(obj, (float, np.floating)):
        return bool(np.isfinite(obj))
    return True


def _write_report(path: Path, payload: dict, passed) -> tuple[dict, bool]:
    """Write a JSON report with its ``pass`` field and return (payload, pass).

    The gate fails closed: a NaN or inf anywhere in the payload fails it.
    """
    payload["pass"] = bool(passed) and _all_finite(payload)
    write_json(path, payload)
    return payload, payload["pass"]


def _extremal_check():
    """(report, |lhs - rhs| / rhs, the gate gap < 1e-12) of the 2-D extremal pair."""
    ext = matrixcore.verify_skew_bound(*matrixcore.extremal_pair(2, 1.0, 4.0))
    rel_gap = abs(ext.lhs - ext.rhs) / ext.rhs
    return ext, rel_gap, rel_gap < 1e-12


def _within_declared_K(f, est: float) -> bool:
    """The ratio-bound gate: the sampled K is within f's declared K (1e-6 relative)."""
    return est <= f.declared_K * (1.0 + 1e-6)


# -- subcommand handlers (each returns the report payload and a pass flag) ------

def cmd_matrix_check(args, out_dir: Path, manifest: Manifest):
    rng = np.random.default_rng(args.seed)
    dims = _parse_list(args.dims, int, "--dims")
    columns = ["dim", "worst_slack", "violations", "holds"]
    reports = [matrixcore.batch_skew_check(rng, args.trials, dim) for dim in dims]
    rows = [{key: getattr(r, key) for key in columns} for r in reports]
    ext, rel_gap, equality = _extremal_check()
    passed = all(r["holds"] for r in rows) and equality
    payload = {
        "subcommand": "matrix-check", "seed": args.seed,
        "trials_per_dim": args.trials, "rel_slack": matrixcore.SKEW_RTOL,
        "dims": rows,
        "extremal": {"lhs": ext.lhs, "rhs": ext.rhs, "rel_gap": rel_gap, "dim": 2},
    }
    return _write_report(manifest.add(out_dir / "report.json"), payload, passed)


def cmd_integrand(args, out_dir: Path, manifest: Manifest):
    f = gallery(args.name, **_parse_params(args.param))
    sampler = AnnulusSampler(args.r_min, args.r_max,
                             shells=max(40, args.samples // 25),
                             directions=25, seed=args.seed)
    est = estimate_K(f, sampler)
    growth, passed = None, True
    if f.declared_K is not None:
        rep = verify_growth(f, f.declared_K)
        growth = {"p": rep.p, "q": rep.q, "C_lower": rep.C_lower,
                  "C_upper": rep.C_upper, "holds": rep.holds}
        passed = _within_declared_K(f, est) and rep.holds
    payload = {
        "subcommand": "integrand", "integrand": integrand_to_config(f),
        "declared_K": f.declared_K, "estimated_K": est,
        "annulus": [args.r_min, args.r_max], "samples": sampler.count,
        "seed": args.seed, "growth": growth, "uhlenbeck_indices": f.indices,
    }
    return _write_report(manifest.add(out_dir / "report.json"), payload, passed)


def cmd_cordes(args, out_dir: Path, manifest: Manifest):
    rep = cordes.cordes_report(args.N, args.m, K=args.K,
                               window=tuple(args.window))
    payload = {
        "subcommand": "cordes", "dim": rep.dim, "m": rep.m, "mhat": rep.mhat,
        "K0": rep.K0, "K": rep.K, "delta0": rep.delta0,
        "window": list(args.window),
        "admissible_by_K0": rep.admissible_by_K0,
        "admissible_by_delta0": rep.admissible_by_delta0,
    }
    return _write_report(manifest.add(out_dir / "report.json"), payload, True)


def cmd_riesz_check(args, out_dir: Path, manifest: Manifest):
    if args.fields < 1:
        raise InputError(f"--fields must be >= 1, got {args.fields}")
    grid = spectral.PeriodicGrid(dim=2, n=args.n)
    # the fields and the T-norm probe draw from independent streams
    field_seed, probe_seed = np.random.SeedSequence(args.seed).spawn(2)
    rng = np.random.default_rng(field_seed)

    def check(noise):
        v = spectral.SpectralField.band_limited(grid, "vector", noise)
        ident = spectral.divcurl_identity_residual(v)
        dv = v.derivatives[0]
        # an independent spectral path: Riesz reconstruction from Div V, curl V
        rec = spectral.divcurl_reconstruct(spectral.divergence(v), spectral.curl(v)).values
        scale = np.sqrt(np.sum(dv * dv)) or 1.0
        roundtrip = float(np.sqrt(np.sum((rec - dv) ** 2)) / scale)
        reps = [spectral.verify_lm_bound(v, m) for m in (1.5, 2.0, 3.0, 6.0)]
        return [ident, roundtrip] + [rep.lhs / rep.rhs for rep in reps], \
            all(rep.holds for rep in reps)

    # the noise is drawn here, in stream order: no report byte depends on the pool
    draws = (spectral.SpectralField.noise(grid, "vector", args.kmax, rng)
             for _ in range(args.fields))
    results = list(pool_map(check, draws))
    rows = [[i] + row for i, (row, _) in enumerate(results)]
    # the m = 2 probe's sums are exact for any n > 2 kmax, not only on --n
    t2 = cordes.estimate_T_norm(2.0, trials=max(10, args.fields),
                                n=spectral.SpectralField.alias_free_n(args.kmax),
                                kmax=args.kmax, seed=probe_seed, map=pool_map)
    worst_ident, worst_round = max(r[1] for r in rows), max(r[2] for r in rows)
    worst_ratio = max(max(r[3:]) for r in rows)
    passed = worst_ident <= 1e-10 and worst_round <= 1e-10 \
        and all(holds for _, holds in results) and 0.9 <= t2 <= 1.0 + 1e-9
    write_csv(manifest.add(out_dir / "residuals.csv"),
              ["field", "identity_residual", "roundtrip_error",
               "lm_ratio_m1.5", "lm_ratio_m2", "lm_ratio_m3", "lm_ratio_m6"],
              rows)
    payload = {
        "subcommand": "riesz-check", "grid_n": args.n, "fields": args.fields,
        "kmax": args.kmax, "seed": args.seed,
        "worst_identity_residual": worst_ident,
        "worst_roundtrip_error": worst_round,
        "worst_lm_ratio": worst_ratio,
        "t_norm_probe_m2": t2,
    }
    return _write_report(manifest.add(out_dir / "summary.json"), payload, passed)


def cmd_solve(args, out_dir: Path, manifest: Manifest):
    spec, schedule, solver_opts, report_opts = load_problem_config(args.config)
    sol = minimize(spec, schedule, **solver_opts)
    el_res = euler_lagrange_residual(sol)
    regularity = None
    if sol.mesh.dim == 2:
        rep = sobolev_report(sol, **report_opts)
        regularity = {
            "m": rep.m, "theta": rep.theta, "ball_center": list(rep.ball_center),
            "ball_radius": rep.ball_radius, "v_ltheta_2b": rep.v_ltheta_2b,
            "v_lm_2b": rep.v_lm_2b, "f_lm_2b": rep.f_lm_2b,
            "v_w1m_b": rep.v_w1m_b, "c_meas": rep.c_meas,
        }
    mesh = sol.mesh
    write_grid_txt(manifest.add(out_dir / "solution.txt"), mesh.node_axis, mesh.dim, sol.u)
    write_grid_txt(manifest.add(out_dir / "stress.txt"), mesh.center_axis, mesh.dim,
                   sol.stress_cells)
    columns = ["index", "eps", "mu", "iterations", "energy", "grad_norm",
               "lipschitz", "coupling_term", "boundary_term",
               "linear_iterations", "lu_fallbacks"]
    stages = [{key: getattr(r, key) for key in columns} for r in sol.history]
    write_csv(manifest.add(out_dir / "stages.csv"), ["stage"] + columns[1:],
              [[stage[key] for key in columns] for stage in stages])
    coupling = [r.coupling_term for r in sol.history]
    passed = el_res < 1e-6 and all(a >= b for a, b in zip(coupling, coupling[1:]))
    payload = {
        "subcommand": "solve",
        "config": {"path": str(args.config)},
        "energy": sol.energy, "el_residual_hat": el_res,
        "warm_start": sol.warm_start, "stages": stages,
        "regularity": regularity,
    }
    return _write_report(manifest.add(out_dir / "report.json"), payload, passed)


def _radial_source(kind: str, value: float) -> tuple[float, float]:
    """(c, a) of the source f = c r^a that a --f-kind names."""
    return {"const": (value, 0.0), "zero": (0.0, 0.0), "power": (1.0, value)}[kind]


def cmd_radial(args, out_dir: Path, manifest: Manifest):
    c, a = _radial_source(args.f_kind, args.f_value)
    prob = radial.RadialProblem(dim=args.N, p=args.p, r_max=args.r_max, c=c, a=a)
    sol = radial.solve_radial(prob)
    defect, scale = radial.flux_identity_defect(sol)
    fit = radial.holder_exponent(sol.r, sol.v_prime)
    norms = radial.stress_wm_norm(prob, args.m, args.r_max / 2.0)
    stress_err = None
    if args.f_kind == "const" and args.f_value == 1.0:
        rng = np.random.default_rng(0)
        # the cube's corners stay in the ball |x| <= r_max for every N >= 4
        side = args.r_max * min(1.0, 2.0 / np.sqrt(args.N))
        pts = rng.uniform(-0.5, 0.5, size=(500, args.N)) * side
        norm = np.linalg.norm(pts, axis=1)
        pts = pts[(norm > 0.05 * args.r_max) & (norm <= args.r_max)]
        if not len(pts):
            raise InputError(f"no stress sample point in 0.05 r_max < |x| <= r_max "
                             f"for r_max = {args.r_max:g}")
        grid = radial.stress_of(prob, pts)
        stress_err = float(np.max(np.abs(grid.values - pts / args.N)))
    write_csv(manifest.add(out_dir / "profile.csv"),
              ["r", "flux", "v_prime", "v"],
              np.column_stack([sol.r, sol.flux, sol.v_prime, sol.v]).tolist())
    payload = {
        "subcommand": "radial", "p": args.p, "dim": args.N, "m": args.m,
        "source": {"kind": args.f_kind, "value": args.f_value},
        "flux_defect": defect, "stress_check_max_error": stress_err,
        "holder_exponent": fit.exponent, "holder_ci95": fit.ci95,
        "w1m_norms": norms,
    }
    passed = defect < 1e-10 * scale and (stress_err is None or stress_err < 1e-10)
    return _write_report(manifest.add(out_dir / "report.json"), payload, passed)


def cmd_cpprime_sweep(args, out_dir: Path, manifest: Manifest):
    ps = _parse_list(args.p_grid, float, "--p-grid")

    def one(p):
        return radial.cp_prime_verify(p, m=args.m, dim=args.N)

    reports = list(pool_map(one, ps))
    columns = ["p", "p_prime", "gradient_exponent", "solution_exponent",
               "stress_w1m", "ratio", "meets_target"]
    rows = [{key: getattr(r, key) for key in columns} for r in reports]
    write_csv(manifest.add(out_dir / "sweep.csv"), columns,
              [[row[key] for key in columns] for row in rows])
    passed = all(r.meets_target for r in reports)
    payload = {"subcommand": "cpprime-sweep", "dim": args.N, "m": args.m,
               "rows": rows}
    return _write_report(manifest.add(out_dir / "report.json"), payload, passed)


def cmd_cantor(args, out_dir: Path, manifest: Manifest):
    if args.bumps < 1:
        raise InputError(f"--bumps must be >= 1, got {args.bumps}")
    levels = counterexamples.check_levels(_parse_levels(args.levels))
    counterexamples.check_n_grid(args.n_grid)
    fields = counterexamples.cantor_stress_fields(levels)
    # the per-bump polar rules, then the blow-up table's grid chunks, are
    # pool tasks; the table waits in this thread, never in a worker
    weak = counterexamples.weak_divergence_residuals(
        fields, n_bumps=args.bumps, seed=args.seed, map=pool_map)
    table = counterexamples.sobolev_blowup_diagnostic(
        levels, n_grid=args.n_grid, map=pool_map)
    write_csv(manifest.add(out_dir / "blowup.csv"),
              ["level", "w11_quotient", "sup_quotient", "l15_quotient",
               "control_w11"],
              [[r.level, r.w11_quotient, r.sup_quotient, r.l15_quotient,
                r.control_w11] for r in table])
    write_csv(manifest.add(out_dir / "residuals.csv"),
              ["level", "weak_divergence_residual", "quadrature_bound"],
              list(zip(levels, weak.residuals, weak.bounds)))
    worst = max(weak.residuals)
    passed = worst <= 1e-3
    payload = {"subcommand": "cantor", "levels": levels,
               "ball_center": list(counterexamples.BALL_CENTER),
               "ball_radius": counterexamples.BALL_RADIUS,
               "n_bumps": args.bumps, "n_grid": args.n_grid,
               "worst_residual": worst,
               "worst_quadrature_bound": max(weak.bounds),
               "quadrature_nodes": weak.nodes,
               "residual_below_threshold": passed}
    return _write_report(manifest.add(out_dir / "report.json"), payload, passed)


def cmd_report(args, out_dir: Path, manifest: Manifest):
    """Aggregate quick invariant run across the modules."""
    # the matrix trial, the field and the T-norm probe draw from independent streams
    matrix_seed, field_seed, probe_seed = np.random.SeedSequence(args.seed).spawn(3)
    checks = {}
    checks["matrix_bound"] = matrixcore.batch_skew_check(
        np.random.default_rng(matrix_seed), 2000, 4).holds
    checks["matrix_extremal_equality"] = _extremal_check()[2]
    grid = spectral.PeriodicGrid(dim=2, n=64)
    v = spectral.SpectralField.random_band_limited(grid, "vector", 8,
                                                   np.random.default_rng(field_seed))
    checks["energy_identity"] = spectral.divcurl_identity_residual(v) <= 1e-10
    checks["lm_bound"] = spectral.verify_lm_bound(v, 3.0).holds
    t2 = cordes.estimate_T_norm(2.0, trials=20, n=spectral.SpectralField.alias_free_n(8),
                                kmax=8, seed=probe_seed)
    checks["t_norm_isometry"] = 0.9 <= t2 <= 1.0 + 1e-9
    checks["cordes_positive"] = cordes.cordes_delta0(1.5, 2) > 0.0
    f = gallery("power", p=3)
    est = estimate_K(f, AnnulusSampler(0.3, 3.0, shells=40, directions=25, seed=args.seed))
    checks["gallery_ratio_bound"] = _within_declared_K(f, est)
    sol = radial.solve_radial(radial.RadialProblem(dim=2, p=3.0, r_max=1.0, c=1.0, a=0.0))
    defect, scale = radial.flux_identity_defect(sol)
    checks["radial_flux_identity"] = defect < 1e-10 * scale
    passed = all(checks.values())
    payload = {"subcommand": "report", "checks": checks}
    return _write_report(manifest.add(out_dir / "report.json"), payload, passed)


# -- argument wiring -------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quclab",
        description="stress-field regularity laboratory for divergence-form problems")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seeded=False):
        p.add_argument("--out", type=Path, default=Path("quclab-out"))
        if seeded:
            p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("matrix-check", help="randomized skew-defect bound trials")
    common(p, seeded=True)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--dims", type=str, default="2,3,4,5,6,7,8")

    p = sub.add_parser("integrand", help="ratio-bound estimate and growth report")
    common(p, seeded=True)
    p.add_argument("--name", required=True)
    p.add_argument("--param", action="append", metavar="KEY=VALUE")
    p.add_argument("--r-min", type=float, default=0.3)
    p.add_argument("--r-max", type=float, default=3.0)
    p.add_argument("--samples", type=int, default=10000)

    p = sub.add_parser("cordes", help="admissibility thresholds")
    common(p)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--m", type=float, required=True)
    p.add_argument("--K", type=float, default=None)
    p.add_argument("--window", type=float, nargs=2, default=cordes.WINDOW)

    p = sub.add_parser("riesz-check", help="spectral identity property suite")
    common(p, seeded=True)
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--fields", type=int, default=20)
    p.add_argument("--kmax", type=int, default=8)

    p = sub.add_parser("solve", help="run the minimization cascade from a config")
    common(p)
    p.add_argument("--config", type=Path, required=True)

    p = sub.add_parser("radial", help="closed-form radial solve and diagnostics")
    common(p)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--N", type=int, default=2)
    p.add_argument("--f-kind", choices=("const", "zero", "power"), default="const")
    p.add_argument("--f-value", type=float, default=1.0)
    p.add_argument("--m", type=float, default=2.0)
    p.add_argument("--r-max", type=float, default=1.0)

    p = sub.add_parser("cpprime-sweep", help="Holder exponent sweep over p")
    common(p)
    p.add_argument("--p-grid", type=str, default="1.5,2,2.5,3")
    p.add_argument("--N", type=int, default=2)
    p.add_argument("--m", type=float, default=4.0)

    p = sub.add_parser("cantor", help="counterexample diagnostics")
    common(p, seeded=True)
    p.add_argument("--levels", type=str, default="4..12")
    p.add_argument("--bumps", type=int, default=50)
    p.add_argument("--n-grid", type=int, default=1024)

    p = sub.add_parser("report", help="aggregate quick invariant run")
    common(p, seeded=True)
    return parser


_HANDLERS = {
    "matrix-check": cmd_matrix_check,
    "integrand": cmd_integrand,
    "cordes": cmd_cordes,
    "riesz-check": cmd_riesz_check,
    "solve": cmd_solve,
    "radial": cmd_radial,
    "cpprime-sweep": cmd_cpprime_sweep,
    "cantor": cmd_cantor,
    "report": cmd_report,
}


def _check_numbers(args) -> None:
    """InputError for a non-finite float option or a negative seed."""
    for name, value in vars(args).items():
        for v in value if isinstance(value, (list, tuple)) else (value,):
            if isinstance(v, float) and not np.isfinite(v):
                raise InputError(f"--{name.replace('_', '-')} must be finite, got {v}")
    if getattr(args, "seed", 0) < 0:
        raise InputError(f"--seed must be >= 0, got {args.seed}")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0,) else 0
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = Manifest(args.command, argv, getattr(args, "seed", None))
    try:
        _check_numbers(args)
        _, passed = _HANDLERS[args.command](args, out_dir, manifest)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except QuclabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        manifest.write(out_dir)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
