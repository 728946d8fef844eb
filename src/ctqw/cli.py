"""Command-line front end: scenario runs, figure-data reproduction, validation.

Exit codes: 0 success, 1 I/O failure, 2 configuration error, 3 numerical
validation failure.
"""

import argparse
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analytic import (
    analytic_amplitudes,
    analytic_wavefunction,
    survival_asymptotic,
    survival_exact,
)
from .model import (
    NumericalValidationError,
    UndersizedGridError,
    LatticeWindow,
    WalkParams,
    light_cone_half_width,
    window_for,
)
from .observables import crossing_time, mean_velocity, msd_closed_form, observables_from_amplitudes
from .propagators import OdeSpec, RingSpec, propagate_ode_batch, spectral_amplitudes
from .tables import WRITERS, emit_table
from .validate import GRID_T, oracle_triangle

# Largest window half width or ring a run may ask for, about 1000x the
# largest grid in the README or the benchmark. Past it the Bessel
# recurrence, the lattice and the ring outgrow any run's time and memory.
MAX_SITES = 10**6
# Largest (times x sites) amplitude matrix, 512 MiB of complex: about 80x the
# largest grid in the README or the benchmark, and one wavefunction at MAX_SITES.
MAX_AMPLITUDES = 2**25


class ConfigError(Exception):
    pass


def _finite(text):
    """argparse type for every float flag: nan and +-inf are rejected."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _add_common(parser):
    parser.add_argument("--config", help="flat key=value file; flags override it")
    parser.add_argument("--gamma", type=_finite, default=1.0, help="hopping rate (>0)")
    parser.add_argument("--alpha", type=_finite, default=0.0, help="hopping phase (radians)")
    parser.add_argument("--dparam", type=_finite, default=0.0, help="delocalization D in [0,1]")
    parser.add_argument("--out", help="output path (default: stdout for single tables)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_grid(parser):
    parser.add_argument("--tmin", type=_finite, default=0.0, help="first grid time")
    parser.add_argument("--tmax", type=_finite, default=50.0, help="last grid time")
    parser.add_argument("--npoints", type=int, default=51, help="grid points (>=2)")
    parser.add_argument("--spacing", choices=("lin", "log"), default="lin")


def _add_numerics(parser):
    parser.add_argument("--source", choices=("analytic", "spectral", "ode"), default="analytic")
    parser.add_argument("--half-width", type=int, default=None,
                        help="override the lattice window half width")
    parser.add_argument("--ring-size", type=int, default=None,
                        help="override the spectral ring size")
    parser.add_argument("--step", type=_finite, default=None,
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
    p.add_argument("--tmax", type=_finite, default=50.0, help="evaluation time")

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
    p.add_argument("--start", type=_finite, default=0.0)
    p.add_argument("--stop", type=_finite, default=1.0)
    p.add_argument("--steps", type=int, default=101)
    p.add_argument("--tmax", type=_finite, default=50.0, help="time for the MSD column")

    p = sub.add_parser("figure", help="emit the data behind one of the five figures")
    p.add_argument("figure_id", choices=FIGURES)
    _add_common(p)

    p = sub.add_parser("validate", help="closed form vs spectral and RK4 propagation")
    p.add_argument("--config", help="flat key=value file; flags override it")
    p.add_argument("--gamma", type=_finite, default=1.0)
    p.add_argument("--quick", action="store_true", help="reduced time grid (gt = 1, 5)")

    # argparse reads only -1 and -.5 style tokens as negative numbers; make
    # "--alpha -1e-3" a value too (a token like -inf still reads as a flag)
    for p in sub.choices.values():
        p._negative_number_matcher = re.compile(r"^-\.?\d")
    return parser


def load_config(path, args):
    """Turn the key=value lines of a config file into --key=value tokens.

    The tokens are parsed by the same argparse subparser as the command
    line, ahead of it, so flags override the file.
    """
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    tokens = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        dest = key.replace("-", "_")
        if not hasattr(args, dest) or dest in ("command", "config", "figure_id"):
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        flag = "--" + dest.replace("_", "-")
        if isinstance(getattr(args, dest), bool):
            if value.lower() not in ("1", "true", "yes", "0", "false", "no"):
                raise ConfigError(f"{path}:{lineno}: {key} must be true or false, got {value!r}")
            tokens += [flag] if value.lower() in ("1", "true", "yes") else []
        else:
            tokens.append(f"{flag}={value}")
    return tokens


def _spec(cls, *values, **fields):
    """Build a parameter or grid spec; its ValueError is a config error."""
    try:
        return cls(*values, **fields)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _check_sites(what, needed):
    if needed > MAX_SITES:
        raise ConfigError(f"{what} {needed} sites, over the limit of {MAX_SITES}")


def _check_reach(gamma, t_max):
    """Reject a run whose light cone at t_max needs more than MAX_SITES sites."""
    from decimal import Context, Decimal  # here, to keep it out of the import time

    front = (2 * Decimal(gamma) * Decimal(t_max)).normalize(Context(4))  # no float overflow
    needed = light_cone_half_width(gamma, t_max) if front <= MAX_SITES else front
    _check_sites(f"t={t_max:g} at gamma={gamma:g} needs a window half width of", needed)


def _params(args) -> WalkParams:
    return _spec(WalkParams, gamma=args.gamma, alpha=args.alpha, delocalization=args.dparam)


def _check_grid(args):
    if args.npoints < 2:
        raise ConfigError(f"npoints must be >= 2, got {args.npoints}")
    if args.tmin < 0:
        raise ConfigError(f"tmin must be >= 0, got {args.tmin}")
    if args.tmax <= args.tmin:
        raise ConfigError("tmax must exceed tmin")
    if args.spacing == "log" and args.tmin <= 0:
        raise ConfigError("log spacing requires tmin > 0")


def _time_grid(args) -> np.ndarray:
    space = np.geomspace if args.spacing == "log" else np.linspace
    return space(args.tmin, args.tmax, args.npoints)


def _window(params, t_max, args) -> LatticeWindow:
    if args.half_width is not None:
        _check_sites("--half-width asks for", args.half_width)
        return _spec(LatticeWindow, args.half_width)
    return window_for(params, t_max)


def _ring(params, t_max, args) -> RingSpec:
    if args.ring_size is not None:
        _check_sites("--ring-size asks for", args.ring_size)
        return _spec(RingSpec, args.ring_size)
    return RingSpec.for_run(params, t_max)


def _sized_window(params, args, n_times) -> LatticeWindow:
    """The window for n_times rows up to --tmax, checked before anything is
    allocated: its light cone against MAX_SITES, the matrix against
    MAX_AMPLITUDES."""
    _check_reach(params.gamma, args.tmax)
    window = _window(params, args.tmax, args)
    needed = n_times * window.n_sites
    if needed > MAX_AMPLITUDES:
        raise ConfigError(
            f"{n_times} times x {window.n_sites} sites need {needed} amplitudes "
            f"({needed * 16 / 2**30:.3g} GiB), over the limit of {MAX_AMPLITUDES}"
        )
    return window


def _amplitudes(params, args, window, times) -> np.ndarray:
    """args.source's (times x sites) amplitude matrix on the window."""
    if args.source == "analytic":
        return analytic_amplitudes(params, window, times)
    if args.source == "spectral":
        return spectral_amplitudes(params, _ring(params, args.tmax, args), window, times)
    ode = OdeSpec.default_for(params) if args.step is None else _spec(OdeSpec, step=args.step)
    return propagate_ode_batch([params], window, ode, times)[:, 0]


def _emit(args, header, rows):
    if args.out is None:
        WRITERS[args.format](sys.stdout, header, rows)
    else:
        emit_table(args.out, args.format, header, rows)


def _tagged_path(out, tag):
    p = Path(out)
    return str(p.with_name(f"{p.stem}_{tag}{p.suffix}"))


_WAVEFUNCTION_HEADER = ["x", "prob", "re_psi", "im_psi"]


def _wavefunction_rows(window, amps):
    p = np.abs(amps) ** 2
    return [(int(x), p[i], amps[i].real, amps[i].imag) for i, x in enumerate(window.sites())]


def _t_cross(alpha):
    """Crossing time, with inf standing for "no crossing"."""
    tc = crossing_time(alpha)
    return math.inf if tc is None else tc


def cmd_wavefunction(args):
    params = _params(args)
    if args.tmax < 0:
        raise ConfigError(f"tmax must be >= 0, got {args.tmax}")
    window = _sized_window(params, args, 1)
    amps = _amplitudes(params, args, window, np.array([args.tmax]))
    _emit(args, _WAVEFUNCTION_HEADER, _wavefunction_rows(window, amps[0]))
    return 0


def cmd_observables(args):
    params = _params(args)
    _check_grid(args)
    window = _sized_window(params, args, args.npoints)
    times = _time_grid(args)
    amps = _amplitudes(params, args, window, times)
    rows = list(zip(times, *observables_from_amplitudes(window, amps)))
    _emit(args, ["t", "mean_x", "msd", "survival"], rows)
    return 0


def cmd_survival(args):
    params = _params(args)
    _check_grid(args)
    _check_reach(params.gamma, args.tmax)
    curve = survival_exact(params, _time_grid(args))
    _emit(args, ["t", "P_surv"], list(zip(curve.times, curve.values)))
    return 0


def cmd_sweep(args):
    if args.steps < 2:
        raise ConfigError(f"steps must be >= 2, got {args.steps}")
    rows = []
    for v in np.linspace(args.start, args.stop, args.steps):
        d, a = (float(v), args.alpha) if args.sweep_param == "dparam" else (args.dparam, float(v))
        params = _spec(WalkParams, gamma=args.gamma, alpha=a, delocalization=d)
        try:  # gamma**2 raises OverflowError; any other overflow leaves inf or nan
            with np.errstate(all="ignore"):
                msd = msd_closed_form(params, args.tmax)
        except OverflowError:
            msd = math.inf
        if not math.isfinite(msd):
            raise ConfigError(f"MSD at tmax={args.tmax:g} overflows a double, gamma={args.gamma:g}")
        rows.append((float(v), mean_velocity(params), _t_cross(params.alpha), msd))
    _emit(args, [args.sweep_param, "mean_velocity", "crossing_time", "msd_tmax"], rows)
    return 0


# Each figure builder yields its panels as (tag or None, header, rows); a
# tagged panel goes to the --out path with _<tag> before the suffix.
_D_TAGS = {"d0": 0.0, "d05": 0.5, "d1": 1.0}


def _fig1():
    # Probability distributions, alpha = pi/2 at gamma*t = 50.
    for tag, d in _D_TAGS.items():
        params = WalkParams(gamma=1.0, alpha=math.pi / 2, delocalization=d)
        state = analytic_wavefunction(params, window_for(params, 50.0), 50.0)
        yield tag, _WAVEFUNCTION_HEADER, _wavefunction_rows(state.window, state.amplitudes)


def _fig2():
    # |<v_g>/gamma| vs D for several phases.
    alphas = [(f"pi{n}", math.pi / n) for n in (6, 4, 3, 2)]
    rows = [
        (d, *(abs(mean_velocity(WalkParams(alpha=a, delocalization=d))) for _, a in alphas))
        for d in np.linspace(0.0, 1.0, 201)
    ]
    yield None, ["d"] + [f"absv_a_{n}" for n, _ in alphas], rows


def _fig3():
    # MSD vs time for alpha in {0, pi/2} and D in {0, 0.5, 1}.
    ts = np.linspace(0.0, 5.0, 501)
    combos = [(a, d) for a in (0.0, math.pi / 2) for d in (0.0, 0.5, 1.0)]
    cols = [msd_closed_form(WalkParams(alpha=a, delocalization=d), ts) for a, d in combos]
    header = ["t", "msd_a0_d0", "msd_a0_d05", "msd_a0_d1",
              "msd_api2_d0", "msd_api2_d05", "msd_api2_d1"]
    yield None, header, list(zip(ts, *cols))


def _fig4():
    # Crossing time vs phase over [0, pi], step pi/200.
    alphas = np.arange(201) * (math.pi / 200.0)
    yield None, ["alpha", "t_cross"], [(float(a), _t_cross(float(a))) for a in alphas]


def _fig5():
    # Survival probability on a log-log grid, alpha = pi/2.
    ts = np.geomspace(0.1, 500.0, 200)
    for tag, d in _D_TAGS.items():
        params = WalkParams(gamma=1.0, alpha=math.pi / 2, delocalization=d)
        exact = survival_exact(params, ts).values
        asym = survival_asymptotic(params, ts)
        yield tag, ["t", "P_surv_exact", "P_asymptotic"], list(zip(ts, exact, asym))


FIGURES = {"fig1": _fig1, "fig2": _fig2, "fig3": _fig3, "fig4": _fig4, "fig5": _fig5}


def cmd_figure(args):
    if args.out is None:
        raise ConfigError("figure requires --out (panel files derive from it)")
    for tag, header, rows in FIGURES[args.figure_id]():
        path = args.out if tag is None else _tagged_path(args.out, tag)
        emit_table(path, args.format, header, rows)
    return 0


def cmd_validate(args):
    gamma = _spec(WalkParams, gamma=args.gamma).gamma  # rejects a non-positive gamma
    times = (1.0, 5.0) if args.quick else GRID_T
    _check_reach(gamma, max(times))
    results = oracle_triangle(times=times, gamma=gamma)
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
    try:
        args = parser.parse_args(argv)
        if args.config:
            # argv[0] is the subcommand; the file's tokens go before every flag
            args = parser.parse_args(argv[:1] + load_config(args.config, args) + argv[1:])
        return _COMMANDS[args.command](args)
    except SystemExit as exc:  # argparse: 0 after --help/--version, 2 on a bad argv
        return exc.code
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
