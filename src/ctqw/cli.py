"""Command-line front end: scenario runs, figure-data reproduction, validation.

Exit codes: 0 success, 1 I/O failure (an OSError), 2 configuration error
(``ConfigError``), 3 numerical validation failure (``UndersizedGridError``,
``NumericalValidationError``). Each refusal type is a ``model.Refusal`` that
carries its exit code and label; ``main`` prints ``ctqw: <label>: <message>``
on one stderr line, with no traceback.
"""

import argparse
import math
import os
import re
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .bessel import start_order
from .analytic import analytic_blocks, survival_asymptotic, survival_exact, survival_exact_batch
from .model import (ConfigError, LatticeWindow, Refusal, WalkParams, light_cone_half_width,
                    window_for)
from .observables import crossing_time, mean_velocity, msd_closed_form, observables_from_amplitudes
from .propagators import OdeSpec, RingSpec, propagate_ode_blocks, spectral_blocks
from .tables import emit_table
from .validate import GRID_T, QUICK_T, oracle_triangle, triangle_plan

# The most work one run may ask for, per counted quantity; each key is the unit
# its amount is named in. Sites and amplitudes bound memory. The others bound
# time, each to about 25 s of CPU on a 2-vCPU VM at the rate measured beside it.
LIMITS = {
    "sites": 10**6,  # window half width or ring size: ~1000x the largest benchmark grid
    # times x window sites, 512 MiB of complex; observables makes it in blocks, so at
    # the limit it peaks at 160 MiB RSS (analytic: its Bessel rows), 32 spectral, 50 ode
    "amplitudes": 2**25,
    # Bessel recurrence, start order x times: 21-40 ns each at 200-10^5 times, 110-140 at
    # 150 far above 2*gamma*t; 2.6 us an order at one, 8.5 us at 16 far above (10^6 sites:
    # 9 s). sites caps the order near 10^6, so the limit needs 10^3+ times, at 6-12 ns each.
    "order-columns": 10**9,
    "FFT points": 3 * 10**8,  # spectral, ring sites x (1 + times): 54-74 ns each
    "site-steps": 1e9,  # RK4, steps x window sites x rows: 20-40 ns each
    "steps": 1e6,  # RK4 steps, whose fixed cost rules on a small window: about 24 us each
    "rows": 10**6,  # of a time-grid or sweep table: 2-3 us each, sweep 6.5 (CSV or JSON)
}
BLOCK_AMPLITUDES = 2**14  # the most that observables holds at once: 0.25 MiB of complex


def _finite(text):
    """argparse type for every float flag: nan and +-inf are rejected."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _add_common(parser, walk=True):
    parser.add_argument("--config", help="flat key=value file; flags override it")
    if walk:  # a figure fixes its own walks
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


@lru_cache(maxsize=None)  # built by the first main, reused by every later one
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
    p.set_defaults(alpha=None, dparam=None)  # None unless given: plan refuses the swept one's
    p.add_argument("--sweep-param", choices=("dparam", "alpha"), default="dparam")
    p.add_argument("--start", type=_finite, default=0.0)
    p.add_argument("--stop", type=_finite, default=1.0)
    p.add_argument("--steps", type=int, default=101)
    p.add_argument("--tmax", type=_finite, default=50.0, help="time for the MSD column")

    p = sub.add_parser("figure", help="emit the data behind one of the five figures")
    p.add_argument("figure_id", choices=FIGURES)
    _add_common(p, walk=False)

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


def _fmt(amount):
    return f"{amount:.3g}" if isinstance(amount, float) else str(amount)


@dataclass
class Plan:
    """What one run chose from its arguments, and the largest amount of each
    quantity of LIMITS that its work needs. A spectral run has a ring, an RK4
    run an ode spec; validate's points are the oracle triangle's."""

    params: Optional[WalkParams] = None
    times: Sequence[float] = ()
    window: Optional[LatticeWindow] = None
    ring: Optional[RingSpec] = None
    ode: Optional[OdeSpec] = None
    points: Sequence[WalkParams] = ()
    counts: dict = field(default_factory=dict)

    def count(self, quantity, amount, what):
        """Refuse an amount over its limit; record the largest amount counted."""
        limit = LIMITS[quantity]
        if amount > limit:
            raise ConfigError(f"{what} {_fmt(amount)} {quantity}, over the limit of {_fmt(limit)}")
        self.counts[quantity] = max(amount, self.counts.get(quantity, amount))


def plan(args) -> Plan:
    """Check args and choose the run they ask for: params, times, window, and
    ring or RK4 spec. Nothing runs. Each choice is made only once the work it
    sizes is within LIMITS, sites first, so none overflows and each refusal
    names the first fault. A figure needs an --out naming a file; it counts nothing."""
    run, command = Plan(), args.command
    if command == "sweep":
        if args.steps < 2:
            raise ConfigError(f"steps must be >= 2, got {args.steps}")
        if not math.isfinite(args.stop - args.start):  # before np.linspace overflows
            raise ConfigError(f"sweep from {args.start:g} to {args.stop:g} overflows a double")
        run.count("rows", args.steps, "--steps asks for")
        swept = args.sweep_param
        if getattr(args, swept) is not None:  # given by flag or config key
            raise ConfigError(f"--{swept} would be ignored: --sweep-param {swept} sweeps it "
                              "from --start to --stop")
    if command == "figure" and not (args.out and Path(args.out).name):
        raise ConfigError("figure requires --out naming a file (panel files derive from it)")
    if command in ("sweep", "figure"):
        return run
    for flag, source in (("--ring-size", "spectral"), ("--step", "ode")):  # one source's sizing
        if getattr(args, flag[2:].replace("-", "_"), None) is not None and args.source != source:
            raise ConfigError(f"{flag} sizes --source {source} only, not {args.source}")
    run.params = WalkParams(gamma=args.gamma, alpha=getattr(args, "alpha", 0.0),
                            delocalization=getattr(args, "dparam", 0.0))
    if command == "validate":
        run.times = QUICK_T if args.quick else GRID_T
    elif command == "wavefunction":
        if args.tmax < 0:
            raise ConfigError(f"tmax must be >= 0, got {args.tmax}")
        run.times = np.array([args.tmax])
    else:  # a time grid, built once its rows are counted
        if args.npoints < 2:
            raise ConfigError(f"npoints must be >= 2, got {args.npoints}")
        if args.tmin < 0:
            raise ConfigError(f"tmin must be >= 0, got {args.tmin}")
        if args.tmax <= args.tmin:
            raise ConfigError("tmax must exceed tmin")
        if args.spacing == "log" and args.tmin <= 0:
            raise ConfigError("log spacing requires tmin > 0")
    t = max(run.times) if command == "validate" else args.tmax
    from decimal import Context, Decimal  # here, to keep it out of the import time

    front = (2 * Decimal(args.gamma) * Decimal(t)).normalize(Context(4))  # no float overflow
    reach = light_cone_half_width(args.gamma, t) if front <= LIMITS["sites"] else front
    run.count("sites", reach, f"t={t:g} at gamma={args.gamma:g} needs a window half width of")
    if command == "validate":  # every grid point runs on the last time's window
        run.points, run.window, run.ode, run.times = triangle_plan(run.times, gamma=args.gamma)
    else:
        n_times = 1 if command == "wavefunction" else args.npoints
        n_max = 2  # survival needs J_0..J_2 only
        if command != "survival":
            if args.half_width is not None:
                run.count("sites", args.half_width, "--half-width asks for")
            if args.ring_size is not None:
                run.count("sites", args.ring_size, "--ring-size asks for")
            run.window = (window_for(run.params, t) if args.half_width is None
                          else LatticeWindow(args.half_width))
            sites = run.window.n_sites
            run.count("amplitudes", n_times * sites, f"{n_times} times x {sites} sites need")
            n_max = run.window.half_width + 1
        if command != "wavefunction":  # a wavefunction's rows are its window's sites
            run.count("rows", n_times, "--npoints asks for")
        if command == "survival" or args.source == "analytic":
            top = start_order(2.0 * args.gamma * t, n_max)
            run.count("order-columns", top * n_times,
                      f"Bessel order {top} over {n_times} times needs")
        elif args.source == "spectral":
            run.ring = (RingSpec.for_run(run.params, t, run.window) if args.ring_size is None
                        else RingSpec(args.ring_size))
            size = run.ring.size
            run.count("FFT points", size * (1 + n_times),
                      f"{n_times} times on a ring of {size} sites need")
        else:
            run.ode = (OdeSpec.default_for(run.params) if args.step is None
                       else OdeSpec(step=args.step))
    if run.ode is not None:
        steps = -(-t // run.ode.step)  # a float: a tiny step gives inf
        sites, rows = run.window.n_sites, len(run.points) or 1  # the triangle's, or the run's one
        rk4 = f"RK4 to t={t:g} at step {run.ode.step:g}"
        on = f"{sites} sites" + (f" x {rows} rows" if rows > 1 else "")
        run.count("site-steps", steps * sites * rows, f"{rk4} on {on} needs")
        run.count("steps", steps, f"{rk4} needs")
    if command in ("observables", "survival"):
        space = np.geomspace if args.spacing == "log" else np.linspace
        run.times = space(args.tmin, args.tmax, args.npoints)
    return run


def _blocks(run):
    """The plan's (times x sites) amplitudes by its route, BLOCK_AMPLITUDES at a time."""
    size, points = max(1, BLOCK_AMPLITUDES // run.window.n_sites), [run.params]
    blocks = (spectral_blocks(points, run.ring, run.window, run.times, size) if run.ring
              else analytic_blocks(points, run.window, run.times, size) if run.ode is None
              else propagate_ode_blocks(points, run.window, run.ode, run.times, size))
    return (amps[:, 0] for amps in blocks)  # of the one point


def _emit(args, tag, header, rows):
    """Write a panel to --out (stdout without it); a tagged one gets _<tag> before the suffix."""
    path = args.out
    if tag is not None:  # a directory ("foo/", "foo/.", ".."): pathlib would put panels elsewhere
        if os.path.basename(path) in ("", ".", ".."):
            raise OSError(f"--out {path!r} names a directory, not the file panels derive from")
        out = Path(path)
        path = str(out.with_name(f"{out.stem}_{tag}{out.suffix}"))
    emit_table(path, args.format, header, rows)


def _wavefunction_panel(tag, window, amps):
    cols = window.sites(), np.abs(amps) ** 2, amps.real, amps.imag
    return tag, ["x", "prob", "re_psi", "im_psi"], np.column_stack(cols)


# Each builder yields its panels as (tag or None, header, rows), rows one float64 array.
def _wavefunction(args, run):
    yield _wavefunction_panel(None, run.window, next(_blocks(run))[0])


def _observables(args, run):
    rows = np.empty((len(run.times), 4))  # t, mean, MSD, survival: one float64 row per time
    rows[:, 0], lo = run.times, 0
    for amps in _blocks(run):  # each block is reduced to its rows and dropped
        rows[lo : lo + len(amps), 1:] = np.transpose(observables_from_amplitudes(run.window, amps))
        lo += len(amps)
    yield None, ["t", "mean_x", "msd", "survival"], rows


def _survival(args, run):
    yield None, ["t", "P_surv"], np.column_stack((run.times, survival_exact(run.params, run.times)))


def _sweep(args, run):
    rows = np.empty((args.steps, 4))  # one float64 row per swept value
    alpha, dparam = (0.0 if x is None else x for x in (args.alpha, args.dparam))  # 0 by default
    for row, v in zip(rows, np.linspace(args.start, args.stop, args.steps)):
        d, a = (float(v), alpha) if args.sweep_param == "dparam" else (dparam, float(v))
        params = WalkParams(gamma=args.gamma, alpha=a, delocalization=d)
        try:  # gamma**2 raises OverflowError; any other overflow leaves inf or nan
            with np.errstate(all="ignore"):
                msd = msd_closed_form(params, args.tmax)
        except OverflowError:
            msd = math.inf
        if not math.isfinite(msd):
            raise ConfigError(f"MSD at tmax={args.tmax:g} overflows a double, gamma={args.gamma:g}")
        row[:] = float(v), mean_velocity(params), crossing_time(params.alpha), msd
    yield None, [args.sweep_param, "mean_velocity", "crossing_time", "msd_tmax"], rows


# fig1's and fig5's walks, by panel tag: alpha = pi/2 at three delocalizations
_FIG_WALKS = {tag: WalkParams(gamma=1.0, alpha=math.pi / 2, delocalization=d)
              for tag, d in (("d0", 0.0), ("d05", 0.5), ("d1", 1.0))}


def _fig1():
    # Probability distributions, alpha = pi/2 at gamma*t = 50.
    points = list(_FIG_WALKS.values())
    window = window_for(points[0], 50.0)
    for tag, amps in zip(_FIG_WALKS, next(analytic_blocks(points, window, [50.0], 1))[0]):
        yield _wavefunction_panel(tag, window, amps)


def _fig2():
    # |<v_g>/gamma| vs D for several phases.
    alphas = [(f"pi{n}", math.pi / n) for n in (6, 4, 3, 2)]
    rows = np.array([
        (d, *(abs(mean_velocity(WalkParams(alpha=a, delocalization=d))) for _, a in alphas))
        for d in np.linspace(0.0, 1.0, 201)
    ])
    yield None, ["d"] + [f"absv_a_{n}" for n, _ in alphas], rows


def _fig3():
    # MSD vs time for alpha in {0, pi/2} and D in {0, 0.5, 1}.
    ts = np.linspace(0.0, 5.0, 501)
    combos = [(a, d) for a in (0.0, math.pi / 2) for d in (0.0, 0.5, 1.0)]
    cols = [msd_closed_form(WalkParams(alpha=a, delocalization=d), ts) for a, d in combos]
    header = ["t", "msd_a0_d0", "msd_a0_d05", "msd_a0_d1",
              "msd_api2_d0", "msd_api2_d05", "msd_api2_d1"]
    yield None, header, np.column_stack((ts, *cols))


def _fig4():
    # Crossing time vs phase over [0, pi], step pi/200.
    alphas = np.arange(201) * (math.pi / 200.0)
    yield None, ["alpha", "t_cross"], np.array([(a, crossing_time(a)) for a in alphas.tolist()])


def _fig5():
    # Survival probability on a log-log grid, alpha = pi/2.
    ts = np.geomspace(0.1, 500.0, 200)
    points = list(_FIG_WALKS.values())
    for tag, params, exact in zip(_FIG_WALKS, points, survival_exact_batch(points, ts)):
        asym = survival_asymptotic(params, ts)
        yield tag, ["t", "P_surv_exact", "P_asymptotic"], np.column_stack((ts, exact, asym))


FIGURES = {"fig1": _fig1, "fig2": _fig2, "fig3": _fig3, "fig4": _fig4, "fig5": _fig5}

TABLES = {"wavefunction": _wavefunction, "observables": _observables, "survival": _survival,
          "sweep": _sweep, "figure": lambda args, run: FIGURES[args.figure_id]()}


def cmd_validate(args, run):
    results = oracle_triangle(run.points, run.window, run.ode, run.times)
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "ok  " if r.passed else "FAIL"
        print(f"{status} {r.name}: max dev {r.max_deviation:.3e} (tol {r.tolerance:g})")
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 3 if failed else 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # argv[0] is the subcommand; the file's tokens go before every flag
            args = parser.parse_args(argv[:1] + load_config(args.config, args) + argv[1:])
        run = plan(args)  # one plan for the whole run
        if args.command == "validate":
            return cmd_validate(args, run)
        panels = list(TABLES[args.command](args, run))  # a failing panel leaves no file
        for panel in panels:
            _emit(args, *panel)
        return 0
    except SystemExit as exc:  # argparse: 0 after --help/--version, 2 on a bad argv
        return exc.code
    except Refusal as exc:  # ConfigError 2; UndersizedGridError, NumericalValidationError 3
        print(f"ctqw: {exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"ctqw: i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
