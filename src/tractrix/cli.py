"""Command-line front end: simulate, analytic, shorten, verify, gallery.

Exit codes: 0 success, 1 input validation, 2 numeric failure during a run,
3 verification report with failed checks. Outputs are deterministic for a
fixed config.
"""

import argparse
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import outputs, spaceform
from .comparison import (
    certify_bounds,
    le_sandwich_check,
    merge_reports,
    rauch_length_area_check,
    toponogov_sandwich_check,
)
from .config import ScenarioConfig, bundled_names, bundled_scenario, load_scenario
from .errors import (
    ConfigError,
    DomainViolationError,
    NotClosedError,
    PoleTooLongError,
    TractrixError,
)
from .functionals import sweep_result
from .manifold import model_from_config
from .shortening import loop_repeated, self_repeated
from .tractrix_sim import (
    SimParams,
    orthogonal_attachment,
    simulate,
    tractor_from_config,
)

_VALIDATION_ERRORS = (ConfigError, NotClosedError, PoleTooLongError,
                      DomainViolationError)


class _Parser(argparse.ArgumentParser):
    """argparse flavor whose usage errors map to the validation exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _out_dir(args, cfg=None, default="out"):
    if getattr(args, "out", None):
        root = args.out
    elif cfg is not None and cfg.out:
        root = str(Path(cfg.base_dir) / cfg.out)
    else:
        root = default
    return outputs.ensure_dir(root)


def _build_sim(cfg):
    """Model, tractor, gamma0, SimParams for a simulation scenario."""
    model = model_from_config(cfg.model)
    tractor_spec = dict(cfg.tractor)
    if tractor_spec.get("kind") == "polyline" and "file" in tractor_spec:
        pts = cfg.resolve_polyline({"file": tractor_spec.pop("file")})
        tractor_spec["points"] = pts.tolist()
    tractor = tractor_from_config(model, tractor_spec)
    if isinstance(cfg.gamma0, dict):
        gamma0, _ = orthogonal_attachment(
            model, tractor, cfg.ell, cfg.gamma0["d0"],
            side=cfg.gamma0["side"], mode=cfg.gamma0["mode"])
    else:
        gamma0 = np.asarray(cfg.gamma0, dtype=float)
    return model, tractor, gamma0, SimParams(**cfg.sim)


def _run_simulation(cfg):
    model, tractor, gamma0, params = _build_sim(cfg)
    trace = simulate(model, tractor, gamma0, cfg.ell, params)
    return model, trace


def _write_simulation(cfg, trace, out):
    outputs.write_trace_csv(Path(out) / "trace.csv", trace)
    if cfg.functionals["sweep"]:
        outputs.write_sweep_txt(Path(out) / "sweep.txt", sweep_result(trace))
    if cfg.functionals["cusps"]:
        outputs.write_cusps_txt(Path(out) / "cusps.txt", trace.cusps)


def cmd_simulate(args):
    cfg = load_scenario(args.config)
    if cfg.kind != "simulate":
        raise ConfigError(f"{args.config}: scenario has no tractor section")
    out = _out_dir(args, cfg, default=f"out/{cfg.name}")
    _, trace = _run_simulation(cfg)
    _write_simulation(cfg, trace, out)
    print(f"{cfg.name}: {trace.t.size} records, "
          f"{len(trace.cusps)} cusps -> {out}")
    return 0


def cmd_analytic(args):
    if args.samples < 2:
        raise ConfigError("samples: need at least two grid points")
    if args.s_max <= 0:
        raise ConfigError("s-max: must be positive")
    sol = spaceform.solve_from_d0(args.K, args.ell, args.d0,
                                  long_pole=args.long_pole)
    hi = args.s_max
    if np.isfinite(sol.s_hi):
        hi = min(hi, sol.s_hi * (1.0 - 1e-12))
    s = np.linspace(0.0, hi, args.samples)
    d = spaceform.dist_at(sol, s)
    kappa = spaceform.kappa_at(sol, s)
    out = _out_dir(args, default="out/analytic")
    outputs.write_analytic_csv(Path(out) / "analytic.csv", s, d, kappa)
    outputs.write_le_txt(Path(out) / "le.txt",
                         [(args.K, args.ell,
                           spaceform.leading_exponent(args.K, args.ell))])
    print(f"analytic K={args.K} ell={args.ell} d0={args.d0} -> {out}")
    return 0


def cmd_shorten(args):
    cfg = load_scenario(args.config)
    if cfg.kind != "shorten":
        raise ConfigError(f"{args.config}: scenario has no shorten section")
    out = _out_dir(args, cfg, default=f"out/{cfg.name}")
    model = model_from_config(cfg.model)
    spec = cfg.shorten
    kw = {"tol": spec["tol"], "max_iter": spec["max_iter"]}
    if "steps_per_round" in spec:
        kw["steps_per_round"] = spec["steps_per_round"]
    if spec["mode"] == "self":
        run = self_repeated(model, np.asarray(spec["P"], dtype=float),
                            np.asarray(spec["Q"], dtype=float),
                            cfg.resolve_polyline(spec["initial"]),
                            cfg.ell, **kw)
    else:
        run = loop_repeated(model, cfg.resolve_polyline(spec["loop"]),
                            cfg.ell, **kw)
    outputs.write_history_csv(Path(out) / "history.csv", run)
    for i, it in enumerate(run.iterates):
        outputs.write_iterate_csv(Path(out) / f"iter_{i}.csv", it.points)
    print(f"{cfg.name}: {len(run.iterates)} iterates, "
          f"stop={run.stop_reason}, length={run.final.length!r} -> {out}")
    return 0


def _verify_report(cfg, model, trace):
    comp = cfg.comparison or {"method": "auto", "checks": ["rauch"]}
    bounds = certify_bounds(model, trace, method=comp["method"],
                            widen=comp.get("widen", 1e-3))
    sweep = sweep_result(trace)
    reports = []
    for check in comp["checks"]:
        if check == "rauch":
            reports.append(rauch_length_area_check(trace, sweep, bounds,
                                                   scenario=cfg.name))
        elif check == "toponogov":
            d0 = float(trace.d[0])
            long_hi = (bounds.K_hi > 0
                       and np.sqrt(bounds.K_hi) * trace.ell > np.pi / 2)
            long_lo = (bounds.K_lo > 0
                       and np.sqrt(bounds.K_lo) * trace.ell > np.pi / 2)
            sol_hi = spaceform.solve_from_d0(bounds.K_hi, trace.ell, d0,
                                             long_pole=long_hi)
            sol_lo = spaceform.solve_from_d0(bounds.K_lo, trace.ell, d0,
                                             long_pole=long_lo)
            reports.append(toponogov_sandwich_check(trace, sol_hi, sol_lo,
                                                    scenario=cfg.name))
        else:
            reports.append(le_sandwich_check(trace, trace.ell, bounds,
                                             scenario=cfg.name))
    return merge_reports(reports, scenario=cfg.name)


def cmd_verify(args):
    cfg = load_scenario(args.config)
    if cfg.kind != "simulate":
        raise ConfigError(f"{args.config}: verification needs a simulation "
                          f"scenario")
    out = _out_dir(args, cfg, default=f"out/{cfg.name}")
    model, trace = _run_simulation(cfg)
    report = _verify_report(cfg, model, trace)
    outputs.write_report_txt(Path(out) / "report.txt", report)
    print(report.text())
    return 0 if report.passed else 3


def _run_gallery_entry(name, out_root):
    """One bundled scenario end to end; returns (name, exit_code, note)."""
    try:
        cfg = bundled_scenario(name)
        out = outputs.ensure_dir(Path(out_root) / name)
        if cfg.kind == "shorten":
            ns = argparse.Namespace(config=str(Path(cfg.base_dir)
                                               / f"{name}.yaml"),
                                    out=str(out))
            return name, cmd_shorten(ns), "shortened"
        model, trace = _run_simulation(cfg)
        _write_simulation(cfg, trace, out)
        if cfg.comparison is not None:
            report = _verify_report(cfg, model, trace)
            outputs.write_report_txt(Path(out) / "report.txt", report)
            if not report.passed:
                return name, 3, "verification failed"
        return name, 0, "ok"
    except _VALIDATION_ERRORS as exc:
        return name, 1, str(exc)
    except TractrixError as exc:
        return name, 2, str(exc)


def cmd_gallery(args):
    names = bundled_names()
    if args.only:
        wanted = [n.strip() for n in args.only.split(",") if n.strip()]
        missing = sorted(set(wanted) - set(names))
        if missing:
            raise ConfigError(f"gallery: no bundled scenario {missing[0]!r}")
        names = [n for n in names if n in wanted]
    out_root = outputs.ensure_dir(args.out or "out/gallery")
    results = []
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            futures = [pool.submit(_run_gallery_entry, n, out_root)
                       for n in names]
            results = [f.result() for f in futures]
    else:
        results = [_run_gallery_entry(n, out_root) for n in names]
    worst = 0
    for name, code, note in results:
        status = "ok" if code == 0 else f"exit {code}: {note}"
        print(f"{name}: {status}")
        worst = max(worst, code)
    return worst


def build_parser():
    parser = _Parser(prog="tractrix",
                     description="Pursuit-curve simulation and verification "
                                 "on surfaces and space forms.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        if config:
            p.add_argument("--config", required=True,
                           help="scenario YAML file")
        p.add_argument("--out", default=None, help="output directory")

    p = sub.add_parser("simulate", help="run one scenario and "
                       "write trace.csv, sweep.txt, cusps.txt")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analytic", help="closed-form constant-curvature "
                       "profile: analytic.csv and le.txt")
    p.add_argument("--K", type=float, required=True)
    p.add_argument("--ell", type=float, required=True)
    p.add_argument("--d0", type=float, required=True)
    p.add_argument("--s-max", dest="s_max", type=float, default=6.0)
    p.add_argument("--samples", type=int, default=241)
    p.add_argument("--long-pole", dest="long_pole", action="store_true")
    common(p, config=False)
    p.set_defaults(func=cmd_analytic)

    p = sub.add_parser("shorten", help="repeated pole-splice shortening; "
                       "writes history.csv and per-iterate polylines")
    common(p)
    p.set_defaults(func=cmd_shorten)

    p = sub.add_parser("verify", help="re-run a scenario and evaluate its "
                       "comparison checks")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gallery", help="run every bundled scenario")
    p.add_argument("--only", default=None,
                   help="comma-separated scenario names")
    p.add_argument("--jobs", type=int, default=1)
    common(p, config=False)
    p.set_defaults(func=cmd_gallery)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except _VALIDATION_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except TractrixError as exc:
        sys.stderr.write(f"numeric error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
