"""Command-line front end: simulate, analytic, shorten, verify, gallery.

`simulate`, `verify`, `shorten` and every `gallery` entry go through one
runner, `run_scenario`: it runs a loaded scenario, writes its files into
one folder and returns the exit code. A simulation writes trace.csv,
sweep.txt and cusps.txt; `verify` and `gallery` add report.txt with the
comparison checks (Rauch alone when the config has no comparison section).
A shortening run writes history.csv and iter_<i>.csv.

Exit codes: 0 success, 1 input validation, 2 numeric failure during a run,
3 verification report with failed checks. Outputs are deterministic for a
fixed config.
"""

import argparse
import sys
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
from .config import bundled_names, bundled_scenario, load_scenario
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


def _out_dir(args, default, cfg=None):
    if args.out:
        root = args.out
    elif cfg is not None and cfg.out:
        root = str(Path(cfg.base_dir) / cfg.out)
    else:
        root = default
    return outputs.ensure_dir(root)


def _exit_code(exc):
    """The one table from a run-ending error to its exit code."""
    if isinstance(exc, _VALIDATION_ERRORS + (OSError,)):
        return 1
    return 2


def _simulate(cfg):
    """Model and trace of a simulation scenario."""
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
    return model, simulate(model, tractor, gamma0, cfg.ell,
                           SimParams(**cfg.sim))


def _shorten(cfg):
    model = model_from_config(cfg.model)
    spec = cfg.shorten
    kw = {"tol": spec["tol"], "max_iter": spec["max_iter"]}
    if "steps_per_round" in spec:
        kw["steps_per_round"] = spec["steps_per_round"]
    if spec["mode"] == "self":
        return self_repeated(model, np.asarray(spec["P"], dtype=float),
                             np.asarray(spec["Q"], dtype=float),
                             cfg.resolve_polyline(spec["initial"]),
                             cfg.ell, **kw)
    return loop_repeated(model, cfg.resolve_polyline(spec["loop"]),
                         cfg.ell, **kw)


def _report(cfg, model, trace, sweep):
    """Comparison checks of a simulation; Rauch alone without a section."""
    comp = cfg.comparison or {"checks": ["rauch"]}
    bounds = certify_bounds(model, trace, widen=comp.get("widen", 1e-3))
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


def run_scenario(cfg, out, check=False):
    """Run one scenario and write its files into `out`.

    Returns (exit code, summary). With `check`, a simulation is also
    verified: report.txt is written, the summary is the report, and a
    failed check gives exit code 3.
    """
    path = Path(out)
    if cfg.kind == "shorten":
        run = _shorten(cfg)
        outputs.write_history_csv(path / "history.csv", run)
        for i, it in enumerate(run.iterates):
            outputs.write_iterate_csv(path / f"iter_{i}.csv", it.points)
        return 0, (f"{cfg.name}: {len(run.iterates)} iterates, "
                   f"stop={run.stop_reason}, "
                   f"length={run.final.length!r} -> {out}")
    model, trace = _simulate(cfg)
    sweep = sweep_result(trace)
    outputs.write_trace_csv(path / "trace.csv", trace)
    outputs.write_sweep_txt(path / "sweep.txt", sweep)
    outputs.write_cusps_txt(path / "cusps.txt", trace.cusps)
    if not check:
        return 0, (f"{cfg.name}: {trace.t.size} records, "
                   f"{len(trace.cusps)} cusps -> {out}")
    report = _report(cfg, model, trace, sweep)
    outputs.write_report_txt(path / "report.txt", report)
    return (0 if report.passed else 3), report.text()


def cmd_scenario(args):
    """simulate, verify and shorten: one config into one folder."""
    cfg = load_scenario(args.config)
    wanted = "shorten" if args.command == "shorten" else "simulate"
    if cfg.kind != wanted:
        noun = "shortening" if wanted == "shorten" else "simulation"
        raise ConfigError(f"{args.config}: {args.command} needs a {noun} "
                          f"scenario")
    code, summary = run_scenario(cfg, _out_dir(args, f"out/{cfg.name}", cfg),
                                 check=args.command == "verify")
    print(summary)
    return code


def cmd_analytic(args):
    for flag, value in (("K", args.K), ("ell", args.ell), ("d0", args.d0),
                        ("s-max", args.s_max)):
        if not np.isfinite(value):
            raise ConfigError(f"{flag}: expected a finite number, got "
                              f"{value!r}")
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
    out = _out_dir(args, "out/analytic")
    outputs.write_analytic_csv(Path(out) / "analytic.csv", s, d, kappa)
    outputs.write_le_txt(Path(out) / "le.txt",
                         [(args.K, args.ell,
                           spaceform.leading_exponent(args.K, args.ell))])
    print(f"analytic K={args.K} ell={args.ell} d0={args.d0} -> {out}")
    return 0


def cmd_gallery(args):
    names = bundled_names()
    if args.only:
        wanted = [n.strip() for n in args.only.split(",") if n.strip()]
        missing = sorted(set(wanted) - set(names))
        if missing:
            raise ConfigError(f"gallery: no bundled scenario {missing[0]!r}")
        names = [n for n in names if n in wanted]
    out_root = Path(_out_dir(args, "out/gallery"))
    worst = 0
    for name in names:
        try:
            out = outputs.ensure_dir(out_root / name)
            code, _ = run_scenario(bundled_scenario(name), out, check=True)
            note = "verification failed"
        except (TractrixError, OSError) as exc:
            code, note = _exit_code(exc), str(exc)
        print(f"{name}: " + ("ok" if code == 0 else f"exit {code}: {note}"))
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
    p.set_defaults(func=cmd_scenario)

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
    p.set_defaults(func=cmd_scenario)

    p = sub.add_parser("verify", help="run one scenario, write its "
                       "simulate files and report.txt with its comparison "
                       "checks")
    common(p)
    p.set_defaults(func=cmd_scenario)

    p = sub.add_parser("gallery", help="run every bundled scenario")
    p.add_argument("--only", default=None,
                   help="comma-separated scenario names")
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
    except (TractrixError, OSError) as exc:
        code = _exit_code(exc)
        label = "numeric error" if code == 2 else "error"
        sys.stderr.write(f"{label}: {exc}\n")
        return code


if __name__ == "__main__":
    sys.exit(main())
