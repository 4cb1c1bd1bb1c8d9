"""Command-line frontend: figure-ready CSV/JSON data for every computation.

Every command is deterministic given its effective configuration, which is
resolved as flags > config file > built-in defaults (click's ``default_map``
carries the config file) and echoed into a JSON manifest next to each
output.  Output files are written atomically (temp file + rename).  Exit
codes: 0 success, 2 configuration error, 3 accuracy/convergence error.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import re
import sys
import tempfile

import click
import numpy as np

from . import bell
from . import sampling as smp
from . import states as st
from . import tomography as tg
from .errors import AccuracyError, ConfigError, DomainError

FIG3A_ANGLES = ("pi/2", "-pi/4", "0", "-3pi/4")  # theta1, theta2, theta1p, theta2p
FIG1_LAMBDAS = (0.20, 0.54, 0.96)
FIG2_NS = (1, 3, 5)

_ANGLE_RE = re.compile(
    r"^\s*([+-]?)\s*(\d+(?:\.\d+)?)?\s*\*?\s*pi\s*(?:/\s*(\d+(?:\.\d+)?))?\s*$",
    re.IGNORECASE,
)


def parse_angle(text) -> float:
    """Parse '0.7', 'pi', '-pi/2', '3pi/4', '-3*pi/4' into radians."""
    text = str(text).strip()
    m = _ANGLE_RE.match(text)
    if m:
        sign = -1.0 if m.group(1) == "-" else 1.0
        num = float(m.group(2)) if m.group(2) else 1.0
        den = float(m.group(3)) if m.group(3) else 1.0
        return sign * num * math.pi / den
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"cannot parse angle {text!r}") from None


def parse_values(text) -> list[float]:
    """Parse '0.2,0.54,0.96' (braces tolerated) or 'a:b:step' into a list."""
    text = str(text).strip().strip("{}")
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"range spec must be start:stop:step, got {text!r}")
        start, stop, step = (float(p) for p in parts)
        if step <= 0 or stop < start:
            raise ConfigError(f"bad range spec {text!r}")
        n = int(round((stop - start) / step))
        return [start + i * step for i in range(n + 1) if start + i * step <= stop + 1e-12]
    try:
        return [float(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise ConfigError(f"cannot parse values {text!r}") from None


def parse_named_angles(text, names) -> dict[str, float]:
    """Parse 'tv=0,tup=pi,tvp=pi/2' against an allowed name set."""
    out = {}
    for item in str(text).split(","):
        if not item.strip():
            continue
        if "=" not in item:
            raise ConfigError(f"angle assignment must look like name=value, got {item!r}")
        key, val = item.split("=", 1)
        key = key.strip()
        if key not in names:
            raise ConfigError(f"unknown angle name {key!r}, expected one of {sorted(names)}")
        out[key] = parse_angle(val)
    return out


def load_config_file(path) -> dict[str, str]:
    """Flat key = value text file; '#' starts a comment."""
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value, got {line!r}")
            key, val = line.split("=", 1)
            values[key.strip()] = val.strip()
    return values


def config_default_map(values: dict[str, str]) -> dict[str, dict[str, str]]:
    """Turn config keys into a click ``default_map`` shared by every command.

    A key is a long flag name of any command, written with '-' or '_'
    (``state`` sets --state); ``lam`` is accepted for ``lambda``.  Click
    converts each value with the option's own type.
    """
    params = {"lam": "lam"}
    for command in main.commands.values():
        for param in command.params:
            for opt in param.opts:
                if opt.startswith("--"):
                    params[opt[2:].replace("-", "_")] = param.name
    unknown = [key for key in values if key.replace("-", "_") not in params]
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    defaults = {params[key.replace("-", "_")]: val for key, val in values.items()}
    return {name: defaults for name in main.commands}


def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, header, rows) -> None:
    """Header plus one line per row, every value as %.12g (an integer n prints as n)."""
    values = np.asarray(rows, dtype=float).reshape(-1, len(header))
    line = ",".join(["%.12g"] * len(header)) + "\n"
    body = (line * len(values)) % tuple(values.ravel().tolist())
    atomic_write_text(path, ",".join(header) + "\n" + body)


def write_json(path: str, payload: dict) -> None:
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


class ExitCodeGroup(click.Group):
    """A command group that maps package exceptions to the documented exit codes."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (DomainError, ConfigError) as exc:
            click.echo(f"configuration error: {exc}", err=True)
            sys.exit(2)
        except AccuracyError as exc:
            click.echo(f"accuracy error: {exc}", err=True)
            sys.exit(3)


def manifest_for(out_path: str, command: str, config: dict, extras: dict | None = None) -> None:
    payload = {
        "command": command,
        "effective_config": config,
        "outputs": {os.path.basename(out_path): sha256_file(out_path)},
    }
    if extras:
        payload.update(extras)
    write_json(out_path + ".manifest.json", payload)


def _integer(value: float) -> int:
    if not float(value).is_integer():
        raise ConfigError(f"--n must be an integer, got {value}")
    return int(value)


#: --state kind -> (parameter flag, state class, value converter)
STATE_KINDS = {
    "epr": ("lambda", st.SqueezedVacuum, float),
    "fock-pair": ("n", st.FockPairSuperposition, _integer),
    "pair-coherent": ("r", st.PairCoherent, float),
}

def make_states(kind, values) -> list:
    """[(parameter value, state), ...] for one state kind."""
    _, cls, convert = STATE_KINDS[kind]
    return [(value, cls(value)) for value in map(convert, values)]


def parse_states(kind, lam, n, r, *, single=False) -> list:
    """[(parameter value, state), ...] from the flag that carries kind's parameter.

    The flag holds one value, a comma list or start:stop:step; with
    ``single`` it must hold exactly one value.
    """
    flag = STATE_KINDS[kind][0]
    text = {"lambda": lam, "n": n, "r": r}[flag]
    if text is None:
        raise ConfigError(f"--state {kind} requires --{flag}")
    values = parse_values(text)
    if not values or (single and len(values) > 1):
        wanted = "exactly one value" if single else "at least one value"
        raise ConfigError(f"--{flag} needs {wanted}, got {text!r}")
    return make_states(kind, values)


def state_label(kind, value) -> dict:
    return {"kind": kind, STATE_KINDS[kind][0]: value}


def state_options(required=True):
    """--state plus its parameter flags, given as strings (see parse_states)."""
    options = [
        click.option("--state", "kind", type=click.Choice(list(STATE_KINDS)),
                     default=None, required=required, help="benchmark state"),
        click.option("--lambda", "lam", default=None, help="squeezed-vacuum lambda = tanh(s)"),
        click.option("--n", default=None, help="Fock-pair excitation number"),
        click.option("--r", default=None, help="pair-coherent amplitude"),
    ]

    def decorate(func):
        for opt in reversed(options):
            func = opt(func)
        return func

    return decorate


def angles_option(flag, default, **kwargs):
    """A name=angle,... option parsed to a dict; a name it leaves out keeps its ``default``."""
    names = {item.split("=")[0] for item in default.split(",")}

    def merge(ctx, param, text):
        return {**parse_named_angles(default, names), **parse_named_angles(text, names)}

    return click.option(flag, default=default, show_default=True, callback=merge, **kwargs)


PROB_COLUMNS = ["theta1", "theta2", "w_pp", "w_pm", "w_mp", "w_mm"]


def _prob_rows(value, state, sums, theta2) -> list:
    """[value, *PROB_COLUMNS] rows, one for each theta1 + theta2 in sums."""
    rows = []
    for s in sums:
        probs = tg.sign_binned_closed_form(state, s - theta2, theta2)
        rows.append([value, probs.theta1, probs.theta2, *probs.as_tuple()])
    return rows


def _tomographic_correlation_fn(state):
    def corr(theta1, theta2):
        return bell.correlation_tomographic(tg.sign_binned_closed_form(state, theta1, theta2))

    return corr


def _tomographic_b(state, quad: bell.BellAnglesQuadrature) -> float:
    """The tomographic CHSH value B at the four settings of ``quad``."""
    corr = _tomographic_correlation_fn(state)
    return bell.chsh(*[corr(a, b) for a, b in quad.pairs()])


@click.group(cls=ExitCodeGroup)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None,
              help="key = value file; flags override it")
@click.version_option()
@click.pass_context
def main(ctx, config_path):
    """Tomographic and pseudospin CHSH tests for two-mode states."""
    if config_path:
        ctx.default_map = config_default_map(load_config_file(config_path))


@main.command("tomogram")
@state_options()
@click.option("--theta1", default="0", help="homodyne angle of mode 1")
@click.option("--theta2", default="0", help="homodyne angle of mode 2")
@click.option("--x-max", type=float, default=2.0)
@click.option("--x-steps", type=click.IntRange(min=1), default=9)
@click.option("--check-radon", is_flag=True, help="cross-check against the numeric Radon projection")
@click.option("--tol", type=float, default=1e-6, help="pass threshold for --check-radon")
@click.option("-o", "--out", default="tomogram.csv", show_default=True)
def cmd_tomogram(kind, lam, n, r, theta1, theta2, x_max, x_steps, check_radon, tol, out):
    """Closed-form tomogram on an (X1, X2) grid, optional Radon cross-check."""
    [(value, state)] = parse_states(kind, lam, n, r, single=True)
    t1 = parse_angle(theta1)
    t2 = parse_angle(theta2)
    xs = np.linspace(-x_max, x_max, x_steps)

    closed = tg.tomogram_closed_form(state, xs[:, None], t1, xs[None, :], t2)
    header = ["x1", "x2", "theta1", "theta2", "w_closed"]
    columns = [xs[:, None], xs[None, :], t1, t2, closed]
    extras = {}
    if check_radon:
        record = {}
        radon = tg.radon_forward(state, xs[:, None], t1, xs[None, :], t2, record=record)
        header.append("w_radon")
        columns.append(radon)
        extras["max_abs_difference"] = float(np.max(np.abs(closed - radon)))
        extras["radon"] = record
        click.echo(f"max |closed - radon| = {extras['max_abs_difference']:.3e}")
    write_csv(out, header, np.stack(np.broadcast_arrays(*columns), axis=-1))

    config = {
        "state": state_label(kind, value), "theta1": t1, "theta2": t2,
        "x_max": x_max, "x_steps": x_steps, "check_radon": check_radon, "tol": tol,
    }
    manifest_for(out, "tomogram", config, extras)
    if check_radon and extras["max_abs_difference"] >= tol:
        click.echo(f"accuracy error: Radon cross-check exceeds {tol}", err=True)
        sys.exit(3)


@main.command("probs")
@state_options()
@click.option("--theta-sum", default="0:6.283185307179586:0.017453292519943295",
              show_default=True, help="theta1+theta2 grid as start:stop:step or a comma list")
@click.option("--theta2", default="0", help="fixed theta2 (theta1 carries the sweep)")
@click.option("-o", "--out", default="probs.csv", show_default=True)
def cmd_probs(kind, lam, n, r, theta_sum, theta2, out):
    """Sign-binned probabilities w_pp, w_pm, w_mp, w_mm along an angle sweep.

    The state parameter may be a comma list (e.g. --lambda 0.20,0.54,0.96)
    or start:stop:step; one CSV block per value.
    """
    t2 = parse_angle(theta2)
    sums = parse_values(theta_sum)
    states = parse_states(kind, lam, n, r)
    rows = [row for value, state in states for row in _prob_rows(value, state, sums, t2)]
    write_csv(out, ["param", *PROB_COLUMNS], rows)
    manifest_for(out, "probs", {
        "state_kind": kind, "param_values": [value for value, _ in states], "theta2": t2,
        "theta_sum_count": len(sums),
    })


@main.command("bell-scan")
@state_options()
@click.option("--mode", type=click.Choice(["tomographic", "pseudospin", "both"]), default="both",
              show_default=True)
@angles_option("--angles", "t1=pi/2,t2=-pi/4,t1p=0,t2p=-3pi/4",
               help="homodyne angles for the tomographic CHSH")
@angles_option("--ps-angles", "tv=pi/4,tup=-pi/2,tvp=-pi/4",
               help="fixed pseudospin angles; theta_u is maximized over a grid")
@click.option("--theta-u-steps", type=click.IntRange(min=1), default=361, show_default=True)
@click.option("--cutoff", type=int, default=32, show_default=True,
              help="Fock cutoff of a pseudospin block from the Schmidt vector")
@click.option("-o", "--out", default="bell_scan.csv", show_default=True)
@click.option("--summary", default=None, help="JSON summary path (default OUT.summary.json)")
def cmd_bell_scan(kind, lam, n, r, mode, angles, ps_angles, theta_u_steps, cutoff, out, summary):
    """B (tomographic) and calB (pseudospin) along a state-parameter sweep.

    The sweep rides the state parameter flag as start:stop:step or a comma
    list, e.g. ``bell-scan --state pair-coherent --r 0.5:1.5:0.01``.
    """
    states = parse_states(kind, lam, n, r)
    sweep_vals = [value for value, _ in states]
    quad = bell.BellAnglesQuadrature(angles["t1"], angles["t1p"], angles["t2"], angles["t2p"])
    tv, tup, tvp = ps_angles["tv"], ps_angles["tup"], ps_angles["tvp"]
    tu_grid = np.linspace(0.0, 2.0 * math.pi, theta_u_steps)
    grid = bell.direction(tu_grid)

    do_tomo = mode in ("tomographic", "both")
    do_ps = mode in ("pseudospin", "both")
    header = ["param", "theta1", "theta2", "theta1p", "theta2p"]
    if do_tomo:
        header.append("B_tomographic")
    if do_ps:
        header += ["B_pseudospin_max", "theta_u_argmax"]

    rows = []
    tomo_series, ps_series, deficits = [], [], []
    for value, state in states:
        row = [value, quad.theta1, quad.theta2, quad.theta1p, quad.theta2p]
        if do_tomo:
            b_val = _tomographic_b(state, quad)
            row.append(b_val)
            tomo_series.append(b_val)
        if do_ps:
            t, deficit = state.pseudospin_xz(cutoff)
            deficits.append(deficit)  # None for the closed forms
            vals = bell.calb_curve(t, grid, tv, tup, tvp)
            best = int(np.argmax(vals))
            row += [float(vals[best]), float(tu_grid[best])]
            ps_series.append(float(vals[best]))
        rows.append(row)
    write_csv(out, header, rows)

    config = {
        "state_kind": kind, "sweep": sweep_vals, "mode": mode,
        "angles": {"theta1": quad.theta1, "theta2": quad.theta2,
                   "theta1p": quad.theta1p, "theta2p": quad.theta2p},
        "ps_angles": {"theta_v": tv, "theta_up": tup, "theta_vp": tvp},
        "cutoff": cutoff,
    }
    extras = {}
    if do_tomo:
        extras["tomographic"] = _series_summary(sweep_vals, tomo_series)
    if do_ps:
        extras["pseudospin"] = _series_summary(sweep_vals, ps_series)
        extras["pseudospin"]["trace_deficit"] = None if None in deficits else max(deficits)
    summary_path = summary or out + ".summary.json"
    write_json(summary_path, {"method": mode, "effective_config": config, **extras})
    manifest_for(out, "bell-scan", config, extras)
    for label in ("tomographic", "pseudospin"):
        if label in extras and extras[label]["violating_intervals"]:
            click.echo(f"{label}: B > 2 on {extras[label]['violating_intervals']}")


def _series_summary(params, values) -> dict:
    values = list(values)
    best = int(np.argmax(values))
    intervals = []
    inside = False
    start = None
    for p, v in zip(params, values):
        if v > 2.0 and not inside:
            inside, start = True, p
        elif v <= 2.0 and inside:
            intervals.append([start, prev_p])
            inside = False
        prev_p = p
    if inside:
        intervals.append([start, params[-1]])
    return {
        "max_B": float(values[best]),
        "argmax_param": float(params[best]),
        "violating_intervals": intervals,
    }


@main.command("pseudospin")
@state_options(required=False)
@click.option("--dm", "dm_path", type=click.Path(exists=True), default=None,
              help="two-mode density-matrix JSON instead of --state")
@click.option("--cutoff", type=int, default=64, show_default=True)
@angles_option("--angles", "tv=0,tup=pi,tvp=pi/2")
@click.option("--theta-u-steps", type=click.IntRange(min=1), default=361, show_default=True)
@click.option("--dump-dm", default=None, help="write the density matrix used to this JSON path")
@click.option("-o", "--out", default="pseudospin.csv", show_default=True)
def cmd_pseudospin(kind, lam, n, r, dm_path, cutoff, angles, theta_u_steps, dump_dm, out):
    """calB(theta_u) curve at fixed theta_v, theta_u', theta_v'."""
    tv, tup, tvp = angles["tv"], angles["tup"], angles["tvp"]

    if dm_path is not None:
        dm = st.DensityMatrix.load(dm_path)
        t, deficit, cutoff = bell.density_xz_entries(dm), dm.trace_deficit, dm.cutoff
        label = {"kind": "explicit-fock", "path": dm_path}
    else:
        if kind is None:
            raise ConfigError("pseudospin needs either --state or --dm")
        [(value, state)] = parse_states(kind, lam, n, r, single=True)
        label = state_label(kind, value)
        if dump_dm:
            atomic_write_text(dump_dm, json.dumps(st.density_matrix(state, cutoff).to_json_dict()))
        t, deficit = state.pseudospin_xz(cutoff)

    tu_grid = np.linspace(0.0, 2.0 * math.pi, theta_u_steps)
    curve = bell.calb_curve(t, bell.direction(tu_grid), tv, tup, tvp)
    write_csv(out, ["theta_u", "B"], np.column_stack((tu_grid, curve)))
    best = int(np.argmax(curve))
    manifest_for(out, "pseudospin", {
        "state": label, "cutoff": cutoff,
        "theta_v": tv, "theta_up": tup, "theta_vp": tvp, "theta_u_steps": theta_u_steps,
    }, {"max_B": float(curve[best]), "theta_u_argmax": float(tu_grid[best]),
        "trace_deficit": deficit})
    click.echo(f"max calB = {curve[best]:.6f} at theta_u = {tu_grid[best]:.6f}")


@main.command("optimize")
@state_options()
@click.option("--mode", type=click.Choice(["tomographic", "pseudospin"]), default="tomographic",
              show_default=True)
@click.option("--cutoff", type=int, default=32, show_default=True)
@click.option("--grid-points", type=click.IntRange(min=1), default=24, show_default=True)
@click.option("--quad-order", type=int, default=96, show_default=True,
              help="ignored: the sign-binned Schmidt sum picks its Fock levels from the state")
@click.option("-o", "--out", default="optimize.json", show_default=True)
def cmd_optimize(kind, lam, n, r, mode, cutoff, grid_points, quad_order, out):
    """Maximize the CHSH value over the four measurement angles."""
    [(value, state)] = parse_states(kind, lam, n, r, single=True)
    if mode == "tomographic":
        corr = _tomographic_correlation_fn(state)
    else:
        t, _ = state.pseudospin_xz(cutoff)

        def corr(theta1, theta2):
            return bell.correlation_xz(t, bell.direction(theta1), bell.direction(theta2))
    found = bell.maximize_chsh(corr, grid_points=grid_points)
    best, refine = found.value, found.refine
    reduced = found.angles.reduced()
    payload = {
        "method": mode,
        "state": state_label(kind, value),
        "max_B": best,
        "argmax_angles": {
            "theta1": reduced.theta1, "theta1p": reduced.theta1p,
            "theta2": reduced.theta2, "theta2p": reduced.theta2p,
        },
        "effective_config": {"grid_points": grid_points, "cutoff": cutoff,
                             "quad_order": quad_order},
        "refine": {"evaluations": refine.evaluations, "iterations": refine.iterations,
                   "converged": refine.converged},
    }
    write_json(out, payload)
    click.echo(f"max B = {best:.8f}")


@main.command("sample")
@state_options()
@click.option("--theta1", default="0")
@click.option("--theta2", default="0")
@click.option("--count", type=int, default=100000, show_default=True)
@click.option("--seed", type=int, default=20240901, show_default=True)
@click.option("-o", "--out", default="batch.csv", show_default=True)
def cmd_sample(kind, lam, n, r, theta1, theta2, count, seed, out):
    """Seeded Monte Carlo homodyne batch; CSV (X1, X2) plus JSON sidecar."""
    [(value, state)] = parse_states(kind, lam, n, r, single=True)
    t1 = parse_angle(theta1)
    t2 = parse_angle(theta2)
    batch = smp.sample_state(state, t1, t2, count, seed)
    est = smp.estimate_probs(batch)
    write_csv(out, ["X1", "X2"], batch.pairs)
    sidecar = {
        "state": state_label(kind, value),
        "theta1": t1,
        "theta2": t2,
        "seed": seed,
        "count": count,
        "acceptance_rate": batch.acceptance_rate,
        "rounds": batch.rounds,
        "envelope_constant": batch.envelope_constant,
        "estimated_probs": {
            "w_pp": est.probs.w_pp, "w_pm": est.probs.w_pm,
            "w_mp": est.probs.w_mp, "w_mm": est.probs.w_mm,
        },
        "standard_errors": dict(zip(("w_pp", "w_pm", "w_mp", "w_mm"), est.errors())),
    }
    write_json(os.path.splitext(out)[0] + ".json", sidecar)
    manifest_for(out, "sample", sidecar)


@main.command("reconstruct")
@click.option("--tomogram", "tomogram_kind",
              type=click.Choice(["vacuum", "single-photon", "epr-marginal"]), required=True)
@click.option("--lambda", "lam", type=float, default=None, help="lambda for epr-marginal")
@click.option("--cutoff", type=int, default=6, show_default=True)
@click.option("-o", "--out", default="rho.json", show_default=True)
def cmd_reconstruct(tomogram_kind, lam, cutoff, out):
    """Kernel reconstruction of a single-mode density matrix from a tomogram."""
    if tomogram_kind == "vacuum":
        fn = tg.vacuum_quadrature_density
    elif tomogram_kind == "single-photon":
        fn = functools.partial(tg.fock_quadrature_density, 1)
    else:
        if lam is None:
            raise ConfigError("--tomogram epr-marginal requires --lambda")
        fn = functools.partial(tg.epr_marginal_density, lam)
    rho, diagnostics = tg.kernel_reconstruct_density(fn, cutoff)
    i_idx, j_idx = np.nonzero(np.abs(rho) > 1e-14)
    payload = {
        "cutoff": cutoff,
        "entries": [
            [int(i), int(j), float(rho[i, j].real), float(rho[i, j].imag)]
            for i, j in zip(i_idx, j_idx)
        ],
        "trace_deficit": 1.0 - float(rho.diagonal().real.sum()),
        "diagnostics": diagnostics,
        "effective_config": {"tomogram": tomogram_kind, "lambda": lam, "cutoff": cutoff},
    }
    write_json(out, payload)
    click.echo(f"trace = {rho.diagonal().real.sum():.6f}")


@main.command("figures")
@click.option("--out-dir", default="figures", show_default=True)
@click.option("--points", type=click.IntRange(min=1), default=360, show_default=True,
              help="angle-grid density for the curve datasets")
@click.option("--r-sweep", default="0.5:1.5:0.01", show_default=True)
@click.option("--cutoff", type=int, default=64, show_default=True)
def cmd_figures(out_dir, points, r_sweep, cutoff):
    """Regenerate all six figure datasets at the published parameters."""
    os.makedirs(out_dir, exist_ok=True)
    theta_grid = np.linspace(0.0, 2.0 * math.pi, points, endpoint=False)
    tu_grid = np.linspace(0.0, 2.0 * math.pi, points + 1)
    grid = bell.direction(tu_grid)
    files = {}

    def write(name, header, rows):
        files[name] = os.path.join(out_dir, name)
        write_csv(files[name], header, rows)

    def calb_rows(value, state, tv, tup, tvp):
        t, _ = state.pseudospin_xz(cutoff)
        curve = bell.calb_curve(t, grid, tv, tup, tvp)
        return np.column_stack((np.full_like(tu_grid, value), tu_grid, curve))

    # fig1a / fig2a: w_pp etc. vs theta1 + theta2
    for name, kind, values in (("fig1a", "epr", FIG1_LAMBDAS), ("fig2a", "fock-pair", FIG2_NS)):
        rows = [row for value, state in make_states(kind, values)
                for row in _prob_rows(value, state, theta_grid, 0.0)]
        write(f"{name}.csv", [STATE_KINDS[kind][0], *PROB_COLUMNS], rows)

    # fig1b: pseudospin calB vs theta_u for the squeezed vacuum
    write("fig1b.csv", ["lambda", "theta_u", "B"], np.concatenate([
        calb_rows(lam, state, math.pi / 4, -math.pi / 2, -math.pi / 4)
        for lam, state in make_states("epr", FIG1_LAMBDAS)]))

    # fig2b: Fock pair n = 1, theta_v = 0, theta_u' = pi, theta_v' = pi/2
    [(n, state)] = make_states("fock-pair", [1])
    write("fig2b.csv", ["n", "theta_u", "B"],
          calb_rows(n, state, 0.0, math.pi, math.pi / 2))

    # fig3a: tomographic B(r) at theta1 = pi/2, theta2 = -pi/4, theta1' = 0,
    # theta2' = -3 pi/4
    t1, t2, t1p, t2p = (parse_angle(a) for a in FIG3A_ANGLES)
    quad = bell.BellAnglesQuadrature(t1, t1p, t2, t2p)
    rows = []
    fig3a_vals = []
    r_values = parse_values(r_sweep)
    for rv, state in make_states("pair-coherent", r_values):
        b_val = _tomographic_b(state, quad)
        rows.append([rv, t1, t2, t1p, t2p, b_val])
        fig3a_vals.append(b_val)
    write("fig3a.csv", ["r", "theta1", "theta2", "theta1p", "theta2p", "B"], rows)

    # fig3b: pseudospin calB vs theta_u for r = 1.05 (Fock-oracle correlation)
    report = bell.pair_coherent_sx_report(1.05, cutoff)
    [(rv, state)] = make_states("pair-coherent", [1.05])
    write("fig3b.csv", ["r", "theta_u", "B"],
          calb_rows(rv, state, 0.0, math.pi, math.pi / 2))

    config = {
        "points": points, "r_sweep": r_values, "cutoff": cutoff,
        "fig1_lambdas": list(FIG1_LAMBDAS), "fig2_ns": list(FIG2_NS), "fig3b_r": 1.05,
    }
    manifest = {
        "command": "figures",
        "effective_config": config,
        "outputs": {name: sha256_file(p) for name, p in files.items()},
        "fig3a": _series_summary(r_values, fig3a_vals),
        "fig3b_discrepancy": {
            "r": report.r, "cutoff": report.cutoff,
            "bessel_coefficient": report.bessel,
            "fock_expectation": report.fock,
            "difference": report.difference,
            "fock_oracle_used": True,
        },
    }
    write_json(os.path.join(out_dir, "manifest.json"), manifest)
    click.echo(f"wrote {len(files) + 1} files to {out_dir}")


if __name__ == "__main__":
    main()
