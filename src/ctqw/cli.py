"""Command-line front end: scenario runs, figure-data reproduction, validation.

Exit codes: 0 success, 1 I/O failure, 2 configuration error, 3 numerical
validation failure.
"""

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analytic import analytic_wavefunction, survival_asymptotic, survival_exact
from .model import (
    NumericalValidationError,
    UndersizedGridError,
    LatticeWindow,
    WalkParams,
    WaveState,
    window_for,
)
from .observables import crossing_time, mean_velocity, msd_closed_form, series_from_states
from .propagators import OdeSpec, RingSpec, propagate_ode_batch, propagate_spectral
from .tables import WRITERS, emit_table
from .validate import oracle_triangle

FIGURE_IDS = ("fig1", "fig2", "fig3", "fig4", "fig5")


class ConfigError(Exception):
    pass


def _add_common(parser):
    parser.add_argument("--config", help="flat key=value file; flags override it")
    parser.add_argument("--gamma", type=float, default=1.0, help="hopping rate (>0)")
    parser.add_argument("--alpha", type=float, default=0.0, help="hopping phase (radians)")
    parser.add_argument("--dparam", type=float, default=0.0, help="delocalization D in [0,1]")
    parser.add_argument("--out", help="output path (default: stdout for single tables)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_grid(parser):
    parser.add_argument("--tmin", type=float, default=0.0, help="first grid time")
    parser.add_argument("--tmax", type=float, default=50.0, help="last grid time")
    parser.add_argument("--npoints", type=int, default=51, help="grid points (>=2)")
    parser.add_argument("--spacing", choices=("lin", "log"), default="lin")


def _add_numerics(parser):
    parser.add_argument("--source", choices=("analytic", "spectral", "ode"), default="analytic")
    parser.add_argument("--half-width", type=int, default=None,
                        help="override the lattice window half width")
    parser.add_argument("--ring-size", type=int, default=None,
                        help="override the spectral ring size")
    parser.add_argument("--step", type=float, default=None,
                        help="override the RK4 time step (default 1e-3/gamma)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ctqw",
        description="Continuous-time quantum walk on a 1D chain with a complex "
        "hopping phase and a tunable delocalized initial state.",
    )
    parser.add_argument("--version", action="version", version=f"ctqw {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("wavefunction", help="site-resolved wavefunction at one time")
    _add_common(p)
    _add_numerics(p)
    p.add_argument("--tmax", type=float, default=50.0, help="evaluation time")

    p = sub.add_parser("observables", help="mean position, MSD and survival on a time grid")
    _add_common(p)
    _add_grid(p)
    _add_numerics(p)

    p = sub.add_parser("survival", help="exact survival probability on a time grid")
    _add_common(p)
    _add_grid(p)

    p = sub.add_parser("sweep", help="closed-form observables over a parameter sweep")
    _add_common(p)
    p.add_argument("--sweep-param", choices=("dparam", "alpha"), default="dparam")
    p.add_argument("--start", type=float, default=0.0)
    p.add_argument("--stop", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=101)
    p.add_argument("--tmax", type=float, default=50.0, help="time for the MSD column")

    p = sub.add_parser("figure", help="emit the data behind one of the five figures")
    p.add_argument("figure_id", choices=FIGURE_IDS)
    _add_common(p)

    p = sub.add_parser("validate", help="closed form vs spectral and RK4 propagation")
    p.add_argument("--config", help="flat key=value file; flags override it")
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--quick", action="store_true", help="reduced time grid (gt = 1, 5)")
    return parser


def load_config(path, args, argv):
    """Apply key=value pairs from a config file; explicit flags win."""
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    given = {tok.split("=", 1)[0] for tok in argv if tok.startswith("--")}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        dest = key.replace("-", "_")
        if not hasattr(args, dest) or dest in ("command", "config"):
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if "--" + key.replace("_", "-") in given or "--" + key in given:
            continue
        current = getattr(args, dest)
        try:
            if isinstance(current, bool):
                value = value.lower() in ("1", "true", "yes")
            elif isinstance(current, int) and not isinstance(current, bool):
                value = int(value)
            elif isinstance(current, float):
                value = float(value)
            elif current is None and dest in ("half_width", "ring_size"):
                value = int(value)
            elif current is None and dest == "step":
                value = float(value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
        setattr(args, dest, value)


def _walk(**kwargs) -> WalkParams:
    try:
        return WalkParams(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _params(args) -> WalkParams:
    return _walk(gamma=args.gamma, alpha=args.alpha, delocalization=args.dparam)


def _require_finite(args, *names):
    for name in names:
        value = getattr(args, name)
        if not math.isfinite(value):
            raise ConfigError(f"--{name} must be finite, got {value}")


def _time_grid(args) -> np.ndarray:
    if args.npoints < 2:
        raise ConfigError(f"npoints must be >= 2, got {args.npoints}")
    _require_finite(args, "tmin", "tmax")
    if args.tmax <= args.tmin:
        raise ConfigError("tmax must exceed tmin")
    if args.spacing == "log":
        if args.tmin <= 0:
            raise ConfigError("log spacing requires tmin > 0")
        return np.geomspace(args.tmin, args.tmax, args.npoints)
    return np.linspace(args.tmin, args.tmax, args.npoints)


def _window(params, t_max, args) -> LatticeWindow:
    if getattr(args, "half_width", None) is not None:
        return LatticeWindow(args.half_width)
    return window_for(params, t_max)


def _ring(params, t_max, args) -> RingSpec:
    if getattr(args, "ring_size", None) is not None:
        return RingSpec(args.ring_size)
    return RingSpec.for_run(params, t_max)


def _ode(params, args) -> OdeSpec:
    if getattr(args, "step", None) is not None:
        return OdeSpec(step=args.step)
    return OdeSpec.default_for(params)


def _states(params, times, args):
    t_max = float(np.max(times))
    window = _window(params, t_max, args)
    if args.source == "analytic":
        return [analytic_wavefunction(params, window, t) for t in times]
    if args.source == "spectral":
        ring = _ring(params, t_max, args)
        return [propagate_spectral(params, ring, t, window) for t in times]
    snapshots = propagate_ode_batch([params], window, _ode(params, args), times)
    return [WaveState(time=t, window=window, amplitudes=a[0]) for t, a in zip(times, snapshots)]


def _emit(args, header, rows):
    if args.out is None:
        WRITERS[args.format](sys.stdout, header, rows)
    else:
        emit_table(args.out, args.format, header, rows)


def _tagged_path(out, tag):
    p = Path(out)
    return str(p.with_name(f"{p.stem}_{tag}{p.suffix}"))


def cmd_wavefunction(args):
    params = _params(args)
    _require_finite(args, "tmax")
    state = _states(params, np.array([args.tmax]), args)[0]
    xs = state.window.sites()
    p = state.probabilities()
    rows = [
        (int(x), p[i], state.amplitudes[i].real, state.amplitudes[i].imag)
        for i, x in enumerate(xs)
    ]
    _emit(args, ["x", "prob", "re_psi", "im_psi"], rows)
    return 0


def cmd_observables(args):
    params = _params(args)
    times = _time_grid(args)
    series = series_from_states(_states(params, times, args), args.source)
    rows = list(zip(series.times, series.mean_position, series.msd, series.survival))
    _emit(args, ["t", "mean_x", "msd", "survival"], rows)
    return 0


def cmd_survival(args):
    params = _params(args)
    curve = survival_exact(params, _time_grid(args))
    _emit(args, ["t", "P_surv"], list(zip(curve.times, curve.values)))
    return 0


def cmd_sweep(args):
    if args.steps < 2:
        raise ConfigError(f"steps must be >= 2, got {args.steps}")
    _require_finite(args, "start", "stop", "tmax")
    values = np.linspace(args.start, args.stop, args.steps)
    rows = []
    for v in values:
        if args.sweep_param == "dparam":
            params = _walk(gamma=args.gamma, alpha=args.alpha, delocalization=float(v))
        else:
            params = _walk(gamma=args.gamma, alpha=float(v), delocalization=args.dparam)
        tc = crossing_time(params.alpha)
        rows.append(
            (
                float(v),
                mean_velocity(params),
                math.inf if tc is None else tc,
                msd_closed_form(params, args.tmax),
            )
        )
    _emit(args, [args.sweep_param, "mean_velocity", "crossing_time", "msd_tmax"], rows)
    return 0


def _figure_panels(args, tags, header, row_maker):
    for tag in tags:
        emit_table(_tagged_path(args.out, tag), args.format, header, row_maker(tag))


def cmd_figure(args):
    if args.out is None:
        raise ConfigError("figure requires --out (panel files derive from it)")
    d_tags = {"d0": 0.0, "d05": 0.5, "d1": 1.0}

    if args.figure_id == "fig1":
        # Probability distributions, alpha = pi/2 at gamma*t = 50.
        def rows(tag):
            params = WalkParams(gamma=1.0, alpha=math.pi / 2, delocalization=d_tags[tag])
            state = analytic_wavefunction(params, window_for(params, 50.0), 50.0)
            p = state.probabilities()
            return [
                (int(x), p[i], state.amplitudes[i].real, state.amplitudes[i].imag)
                for i, x in enumerate(state.window.sites())
            ]

        _figure_panels(args, d_tags, ["x", "prob", "re_psi", "im_psi"], rows)

    elif args.figure_id == "fig2":
        # |<v_g>/gamma| vs D for several phases.
        alphas = [("pi6", math.pi / 6), ("pi4", math.pi / 4), ("pi3", math.pi / 3), ("pi2", math.pi / 2)]
        ds = np.linspace(0.0, 1.0, 201)
        rows = [
            (d, *(abs(mean_velocity(WalkParams(alpha=a, delocalization=d))) for _, a in alphas))
            for d in ds
        ]
        emit_table(args.out, args.format, ["d"] + [f"absv_a_{n}" for n, _ in alphas], rows)

    elif args.figure_id == "fig3":
        # MSD vs time for alpha in {0, pi/2} and D in {0, 0.5, 1}.
        ts = np.linspace(0.0, 5.0, 501)
        combos = [(a, d) for a in (0.0, math.pi / 2) for d in (0.0, 0.5, 1.0)]
        cols = [
            msd_closed_form(WalkParams(alpha=a, delocalization=d), ts) for a, d in combos
        ]
        header = ["t", "msd_a0_d0", "msd_a0_d05", "msd_a0_d1",
                  "msd_api2_d0", "msd_api2_d05", "msd_api2_d1"]
        emit_table(args.out, args.format, header, list(zip(ts, *cols)))

    elif args.figure_id == "fig4":
        # Crossing time vs phase over [0, pi], step pi/200.
        alphas = np.arange(201) * (math.pi / 200.0)
        rows = []
        for a in alphas:
            tc = crossing_time(float(a))
            rows.append((float(a), math.inf if tc is None else tc))
        emit_table(args.out, args.format, ["alpha", "t_cross"], rows)

    elif args.figure_id == "fig5":
        # Survival probability on a log-log grid, alpha = pi/2.
        ts = np.geomspace(0.1, 500.0, 200)

        def rows(tag):
            params = WalkParams(gamma=1.0, alpha=math.pi / 2, delocalization=d_tags[tag])
            exact = survival_exact(params, ts).values
            asym = survival_asymptotic(params, ts)
            return list(zip(ts, exact, asym))

        _figure_panels(args, d_tags, ["t", "P_surv_exact", "P_asymptotic"], rows)

    return 0


def cmd_validate(args):
    gamma = _walk(gamma=args.gamma).gamma  # rejects a non-positive or non-finite gamma
    times = (1.0, 5.0) if args.quick else None
    kwargs = {"gamma": gamma}
    if times is not None:
        kwargs["times"] = times
    results = oracle_triangle(**kwargs)
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "ok  " if r.passed else "FAIL"
        print(f"{status} {r.name}: max dev {r.max_deviation:.3e} (tol {r.tolerance:g})")
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 3 if failed else 0


_COMMANDS = {
    "wavefunction": cmd_wavefunction,
    "observables": cmd_observables,
    "survival": cmd_survival,
    "sweep": cmd_sweep,
    "figure": cmd_figure,
    "validate": cmd_validate,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            load_config(args.config, args, argv)
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"ctqw: config error: {exc}", file=sys.stderr)
        return 2
    except (UndersizedGridError, NumericalValidationError) as exc:
        print(f"ctqw: numerical validation failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"ctqw: i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
