"""Command-line frontend: figure-ready CSV/JSON data for every computation.

Every command is deterministic given its effective configuration, which is
resolved as flags > config file > built-in defaults (click's ``default_map``
carries the config file) and echoed into a JSON manifest next to each
output, with the SHA-256 of the bytes written (atomically: temp file + rename).
Exit codes: 0 success, 2 configuration error, 3 accuracy/convergence error.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import os
import re
import sys
import tempfile

import click
import numpy as np

from . import __version__, bell
from . import sampling as smp
from . import states as st
from . import tomography as tg
from .errors import AccuracyError, ConfigError, ConvergenceError, DomainError

FIG3A_ANGLES = ("pi/2", "-pi/4", "0", "-3pi/4")  # theta1, theta2, theta1p, theta2p
FIG1_LAMBDAS = (0.20, 0.54, 0.96)
FIG2_NS = (1, 3, 5)
#: Most points a start:stop:step range may expand to.
MAX_RANGE_POINTS = 10**6

_ANGLE_RE = re.compile(
    r"^\s*([+-]?)\s*(\d+(?:\.\d+)?)?\s*\*?\s*pi\s*(?:/\s*(\d+(?:\.\d+)?))?\s*$",
    re.IGNORECASE,
)


def parse_angle(text) -> float:
    """Parse '0.7', 'pi', '-pi/2', '3pi/4', '-3*pi/4' into finite radians."""
    text = str(text).strip()
    m = _ANGLE_RE.match(text)
    try:
        if m:
            sign = -1.0 if m.group(1) == "-" else 1.0
            num = float(m.group(2)) if m.group(2) else 1.0
            den = float(m.group(3)) if m.group(3) else 1.0
            value = sign * num * math.pi / den
        else:
            value = float(text)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"cannot parse angle {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"angle must be finite, got {text!r}")
    return value


def parse_values(text) -> list[float]:
    """Parse '0.2,0.54,0.96' (braces tolerated) or 'a:b:step' into a list of finite values."""
    text = str(text).strip().strip("{}")
    parts = text.split(":") if ":" in text else [p for p in text.split(",") if p.strip()]
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise ConfigError(f"cannot parse values {text!r}") from None
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"values must be finite, got {text!r}")
    if ":" not in text:
        return values
    if len(values) != 3:
        raise ConfigError(f"range spec must be start:stop:step, got {text!r}")
    start, stop, step = values
    if step <= 0 or stop < start:
        raise ConfigError(f"bad range spec {text!r}")
    n = (stop - start) / step
    if n >= MAX_RANGE_POINTS:
        raise ConfigError(f"range spec {text!r} spans more than {MAX_RANGE_POINTS} points")
    return [start + i * step for i in range(round(n) + 1) if start + i * step <= stop + 1e-12]


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


def atomic_write(path: str, chunks) -> str:
    """Write an iterable of bytes to ``path`` via a temp file and a rename; return their SHA-256."""
    digest = hashlib.sha256()
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                digest.update(chunk)
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return digest.hexdigest()


#: Most values per block of the digit-arithmetic CSV formatter.
_CSV_BLOCK = 1 << 13
#: 10**k for k = 0..15, each exact in float64.
_POW10 = (10 ** np.arange(16, dtype=np.int64)).astype(float)


@functools.cache
def _digit_words() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ASCII words (uint32, NUL-padded) for ``_g12_blocks``, sliced on axes (h, t, u) = 100h+10t+u.

    Each table is indexed by ``value + 1000 * stripped``: ``group`` holds three
    fraction digits, the stripped half without trailing zeros (000 -> empty);
    ``first`` is the same behind a '.', with no '.' for an empty fraction;
    ``head`` holds the sign and the integer part without leading zeros, indexed
    by ``2 * integer part + negative`` instead.  Slicing, not ufuncs, keeps a cold build cheap.
    """
    ascii_digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    group = np.zeros((2, 10, 10, 10, 4), np.uint8)
    group[..., 0] = ascii_digits[:, None, None]
    group[..., 1] = ascii_digits[:, None]
    group[..., 2] = ascii_digits
    group[1, :, :, 0, 2] = 0
    group[1, :, 0, 0, 1] = 0
    group[1, 0, 0, 0, 0] = 0
    first = np.zeros((2, 10, 10, 10, 4), np.uint8)
    first[..., 0] = ord(".")
    first[..., 1:] = group[..., :3]
    first[1, 0, 0, 0, 0] = 0
    head = np.zeros((10, 10, 10, 2, 4), np.uint8)
    head[..., 1, 0] = ord("-")
    head[..., 1:] = group[0, ..., None, :3]
    head[0, ..., 1] = 0
    head[0, 0, ..., 2] = 0
    return tuple(t.view(np.uint32).reshape(2000) for t in (first, group, head))


def _g12_blocks(values: np.ndarray):
    """Yield the CSV lines of a 2-D table in blocks of whole rows, each value as '%.12g' % value.

    A value with 1e-4 <= |x| < 1e3 has the fixed-point form with exponent X in
    [-4, 2].  y = |x| * 10^(11-X) is one multiply by an exact power of ten, so
    it is the exact product correctly rounded.  Every tie k + 1/2 below 2^52 is
    itself a double, and rounding is monotonic, so y never crosses a tie: M =
    rint(y) is the correctly rounded 12-digit significand unless y is a tie or M
    is outside [1e11, 1e12) (X off by one, or a carry into 10^(X+1)).  M splits
    exactly, by float floor and subtract, into an integer part below 1000 and 15
    fraction digits, written as five 3-digit groups with trailing zeros dropped.
    Every other value (0, -0.0, subnormals, the exponent form, nan, inf and the
    ties) takes '%.12g' % value.  NUL padding is dropped at the end.
    """
    first_t, group_t, head_t = _digit_words()
    ncols = values.shape[1]
    flat = values.reshape(-1)
    size = max(1, min(_CSV_BLOCK, flat.size) // ncols) * ncols
    words = np.empty((size, 7), np.uint32)
    words[:, 6] = ord(",")
    words[ncols - 1::ncols, 6] = ord("\n")
    for start in range(0, flat.size, size):
        v = flat[start:start + size]
        w = words[:v.size]
        a = np.abs(v)
        ok = (a >= 1e-4) & (a < 1e3)
        a = np.where(ok, a, 1.0)
        x = np.clip(np.floor(np.log10(a)), -4, 2).astype(np.intp)
        scale = _POW10[11 - x]
        y = a * scale
        m = np.rint(y)
        ok &= (np.abs(y - m) < 0.5) & (m >= 1e11) & (m < 1e12)
        m *= ok  # the values % writes become 0, so every table index stays in range
        whole = np.floor(m / scale)
        frac = (m - whole * scale) * _POW10[x + 4]
        w[:, 0] = head_t[2 * whole.astype(np.intp) + (v < 0)]
        for j, table in enumerate((first_t, group_t, group_t, group_t, group_t)):
            g = np.floor(frac / _POW10[12 - 3 * j])
            frac -= g * _POW10[12 - 3 * j]
            w[:, 1 + j] = table[g.astype(np.intp) + 1000 * (frac == 0)]
        bad = np.flatnonzero(~ok)
        if bad.size:
            text = np.array(["%.12g" % t for t in v[bad].tolist()], dtype="S24")
            w[bad, :6] = text.view(np.uint32).reshape(-1, 6)
        yield w.tobytes().translate(None, b"\0")


def write_csv(path: str, header, rows) -> str:
    """Header plus one line per row, every value exactly as ``'%.12g' % value``.

    So an integer n prints as n, and 1e-05, -0, nan and inf appear as ``%``
    writes them.  Every table is formatted by the digit arithmetic of
    ``_g12_blocks``, byte-identical to ``%``, which stays its reference and
    its fallback.  Returns the file's SHA-256 (``atomic_write``).
    """
    values = np.asarray(rows, dtype=float).reshape(-1, len(header))
    header_line = (",".join(header) + "\n").encode()
    return atomic_write(path, itertools.chain([header_line], _g12_blocks(values)))


def write_json(path: str, payload: dict) -> str:
    return atomic_write(path, [(json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()])


def sha256_file(path: str) -> str:
    """SHA-256 of a file as read back from disk: the independent check of a manifest digest."""
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


def write_manifest(path: str, command: str, config: dict, outputs: dict, extras=None) -> None:
    """A command's JSON manifest; ``outputs`` maps each output path to its writer's SHA-256.

    Each output is named by its path relative to the manifest's directory.
    """
    home = os.path.dirname(path) or os.curdir
    write_json(path, {
        "command": command,
        "effective_config": config,
        "outputs": {os.path.relpath(p, home): digest for p, digest in outputs.items()},
        **(extras or {}),
    })


def distinct_outputs(*paths) -> None:
    """Refuse (exit 2) a command whose outputs share a path, before it writes any of them."""
    seen = {}
    for path in paths:
        key = os.path.realpath(path)
        if key in seen:
            raise ConfigError(f"two outputs would share one file: {seen[key]!r} and {path!r}")
        seen[key] = path


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


def finite(ctx, param, value):
    """A float option without nan or +-inf, which click's float types let through."""
    if value is not None and not math.isfinite(value):
        raise ConfigError(f"{param.opts[0]} must be finite, got {value}")
    return value


def even_cutoff(ctx, param, value: int) -> int:
    """A --cutoff of pseudospin blocks: whole (2k, 2k+1) pairs, so even and >= 2."""
    if value < 2 or value % 2:
        raise ConfigError(f"pseudospin blocks need an even cutoff >= 2, got {value}")
    return value


def checked_deficit(deficit: float | None, cutoff: int) -> float | None:
    """A pseudospin block's ``deficit``, refused (exit 3) past ``states.DEFICIT_TOL``."""
    if deficit is not None and deficit > st.DEFICIT_TOL:
        raise ConvergenceError(f"the Fock truncation at cutoff {cutoff} misses {deficit:.3e} "
                               f"of the norm, more than {st.DEFICIT_TOL:g}")
    return deficit


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


def _tomographic_b(state, quad: bell.BellAnglesQuadrature) -> float:
    """The tomographic CHSH value B at the four settings of ``quad``."""
    corr = tg.sign_correlation(state)
    return bell.chsh(*[corr(a, b) for a, b in quad.pairs()])


@click.group(cls=ExitCodeGroup)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None,
              help="key = value file; flags override it")
@click.version_option(version=__version__)
@click.pass_context
def main(ctx, config_path):
    """Tomographic and pseudospin CHSH tests for two-mode states."""
    if config_path:
        ctx.default_map = config_default_map(load_config_file(config_path))


@main.command("tomogram")
@state_options()
@click.option("--theta1", default="0", help="homodyne angle of mode 1")
@click.option("--theta2", default="0", help="homodyne angle of mode 2")
@click.option("--x-max", type=float, default=2.0, callback=finite)
@click.option("--x-steps", type=click.IntRange(min=1), default=9)
@click.option("--check-radon", is_flag=True, help="cross-check against the numeric Radon projection")
@click.option("--tol", type=float, default=1e-6, callback=finite,
              help="pass threshold for --check-radon")
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
    outputs = {out: write_csv(out, header, np.stack(np.broadcast_arrays(*columns), axis=-1))}

    config = {
        "state": state_label(kind, value), "theta1": t1, "theta2": t2,
        "x_max": x_max, "x_steps": x_steps, "check_radon": check_radon, "tol": tol,
    }
    write_manifest(out + ".manifest.json", "tomogram", config, outputs, extras)
    if check_radon and extras["max_abs_difference"] >= tol:
        raise AccuracyError(f"Radon cross-check exceeds {tol}")


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
    outputs = {out: write_csv(out, ["param", *PROB_COLUMNS], rows)}
    write_manifest(out + ".manifest.json", "probs", {
        "state_kind": kind, "param_values": [value for value, _ in states], "theta2": t2,
        "theta_sums": sums,
    }, outputs)


@main.command("bell-scan")
@state_options()
@click.option("--mode", type=click.Choice(["tomographic", "pseudospin", "both"]), default="both",
              show_default=True)
@angles_option("--angles", "t1=pi/2,t2=-pi/4,t1p=0,t2p=-3pi/4",
               help="homodyne angles for the tomographic CHSH")
@angles_option("--ps-angles", "tv=pi/4,tup=-pi/2,tvp=-pi/4",
               help="fixed pseudospin angles; theta_u is maximized over a grid")
@click.option("--theta-u-steps", type=click.IntRange(min=1), default=361, show_default=True)
@click.option("--cutoff", type=int, default=32, show_default=True, callback=even_cutoff,
              help="Fock cutoff of a pseudospin block from the Schmidt vector")
@click.option("-o", "--out", default="bell_scan.csv", show_default=True)
def cmd_bell_scan(kind, lam, n, r, mode, angles, ps_angles, theta_u_steps, cutoff, out):
    """Tomographic B and pseudospin calB along a state-parameter sweep; summary in OUT.summary.json.

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
            deficits.append(checked_deficit(deficit, cutoff))  # None for the closed forms
            vals = bell.calb_curve(t, grid, tv, tup, tvp)
            best = int(np.argmax(vals))
            row += [float(vals[best]), float(tu_grid[best])]
            ps_series.append(float(vals[best]))
        rows.append(row)
    outputs = {out: write_csv(out, header, rows)}

    config = {
        "state_kind": kind, "sweep": sweep_vals, "mode": mode,
        "angles": {"theta1": quad.theta1, "theta2": quad.theta2,
                   "theta1p": quad.theta1p, "theta2p": quad.theta2p},
        "ps_angles": {"theta_v": tv, "theta_up": tup, "theta_vp": tvp},
        "theta_u_steps": theta_u_steps, "cutoff": cutoff,
    }
    extras = {}
    if do_tomo:
        extras["tomographic"] = _series_summary(sweep_vals, tomo_series)
    if do_ps:
        extras["pseudospin"] = _series_summary(sweep_vals, ps_series)
        extras["pseudospin"]["trace_deficit"] = None if None in deficits else max(deficits)
    outputs[out + ".summary.json"] = write_json(
        out + ".summary.json", {"method": mode, "effective_config": config, **extras})
    write_manifest(out + ".manifest.json", "bell-scan", config, outputs, extras)
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
@click.option("--cutoff", type=int, default=64, show_default=True, callback=even_cutoff)
@angles_option("--angles", "tv=0,tup=pi,tvp=pi/2")
@click.option("--theta-u-steps", type=click.IntRange(min=1), default=361, show_default=True)
@click.option("--dump-dm", default=None, help="write the density matrix used to this JSON path")
@click.option("-o", "--out", default="pseudospin.csv", show_default=True)
def cmd_pseudospin(kind, lam, n, r, dm_path, cutoff, angles, theta_u_steps, dump_dm, out):
    """calB(theta_u) curve at fixed theta_v, theta_u', theta_v'."""
    tv, tup, tvp = angles["tv"], angles["tup"], angles["tvp"]
    distinct_outputs(out, out + ".manifest.json", *([dump_dm] if dump_dm else []))

    if dm_path is not None and kind is not None:
        # a flag wins over the config file's key; two flags, or two keys, conflict
        state_source, dm_source = map(click.get_current_context().get_parameter_source,
                                      ("kind", "dm_path"))
        if state_source == dm_source:
            raise ConfigError("pseudospin takes --state or --dm, not both")
        if state_source == click.core.ParameterSource.COMMANDLINE:
            dm_path = None
    if dm_path is not None:
        dm = st.DensityMatrix.load(dm_path)
        t, deficit, cutoff = bell.density_xz_entries(dm), dm.trace_deficit, dm.cutoff
        label = {"kind": "explicit-fock", "path": dm_path}
    else:
        if kind is None:
            raise ConfigError("pseudospin needs either --state or --dm")
        [(value, state)] = parse_states(kind, lam, n, r, single=True)
        label = state_label(kind, value)
        dm = st.density_matrix(state, cutoff) if dump_dm else None
        t, deficit = state.pseudospin_xz(cutoff)
    checked_deficit(deficit, cutoff)
    outputs = {}
    if dump_dm:
        checked_deficit(dm.trace_deficit, cutoff)  # refused here, as its reader (--dm) would
        outputs[dump_dm] = atomic_write(dump_dm, [json.dumps(dm.to_json_dict()).encode()])

    tu_grid = np.linspace(0.0, 2.0 * math.pi, theta_u_steps)
    curve = bell.calb_curve(t, bell.direction(tu_grid), tv, tup, tvp)
    outputs[out] = write_csv(out, ["theta_u", "B"], np.column_stack((tu_grid, curve)))
    best = int(np.argmax(curve))
    write_manifest(out + ".manifest.json", "pseudospin", {
        "state": label, "cutoff": cutoff,
        "theta_v": tv, "theta_up": tup, "theta_vp": tvp, "theta_u_steps": theta_u_steps,
    }, outputs, {"max_B": float(curve[best]), "theta_u_argmax": float(tu_grid[best]),
        "trace_deficit": deficit})
    click.echo(f"max calB = {curve[best]:.6f} at theta_u = {tu_grid[best]:.6f}")


@main.command("optimize")
@state_options()
@click.option("--mode", type=click.Choice(["tomographic", "pseudospin"]), default="tomographic",
              show_default=True)
@click.option("--cutoff", type=int, default=32, show_default=True, callback=even_cutoff)
@click.option("--grid-points", type=click.IntRange(min=1), default=24, show_default=True)
@click.option("--quad-order", type=int, default=96, show_default=True,
              help="ignored: the sign-binned Schmidt sum picks its Fock levels from the state")
@click.option("-o", "--out", default="optimize.json", show_default=True)
def cmd_optimize(kind, lam, n, r, mode, cutoff, grid_points, quad_order, out):
    """Maximize the CHSH value over the four measurement angles."""
    [(value, state)] = parse_states(kind, lam, n, r, single=True)
    extras = {}
    if mode == "tomographic":
        corr = tg.sign_correlation(state)
    else:
        t, deficit = state.pseudospin_xz(cutoff)
        extras["trace_deficit"] = checked_deficit(deficit, cutoff)

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
        **extras,
    }
    write_json(out, payload)
    click.echo(f"max B = {best:.8f}")


@main.command("sample")
@state_options()
@click.option("--theta1", default="0")
@click.option("--theta2", default="0")
@click.option("--count", type=int, default=100000, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=20240901, show_default=True)
@click.option("-o", "--out", default="batch.csv", show_default=True)
def cmd_sample(kind, lam, n, r, theta1, theta2, count, seed, out):
    """Seeded Monte Carlo homodyne batch: CSV (X1, X2), JSON sidecar at OUT with suffix .json."""
    side_path = os.path.splitext(out)[0] + ".json"
    distinct_outputs(out, side_path)
    [(value, state)] = parse_states(kind, lam, n, r, single=True)
    t1 = parse_angle(theta1)
    t2 = parse_angle(theta2)
    batch = smp.sample_state(state, t1, t2, count, seed)
    est = smp.estimate_probs(batch)
    outputs = {out: write_csv(out, ["X1", "X2"], batch.pairs)}
    sidecar = {
        "state": state_label(kind, value),
        "theta1": t1,
        "theta2": t2,
        "seed": seed,
        "count": count,
        "sampler": batch.sampler,
        "acceptance_rate": batch.acceptance_rate,
        "rounds": batch.rounds,
        "envelope_constant": batch.envelope_constant,
        "half_width": batch.half_width,
        "tomogram_evaluations": batch.tomogram_evaluations,
        "outside_mass_bound": batch.outside_mass_bound,
        "estimated_probs": {
            "w_pp": est.probs.w_pp, "w_pm": est.probs.w_pm,
            "w_mp": est.probs.w_mp, "w_mm": est.probs.w_mm,
        },
        "standard_errors": dict(zip(("w_pp", "w_pm", "w_mp", "w_mm"), est.errors())),
    }
    outputs[side_path] = write_json(side_path, sidecar)
    write_manifest(out + ".manifest.json", "sample", sidecar, outputs)


@main.command("reconstruct")
@click.option("--tomogram", "tomogram_kind",
              type=click.Choice(["vacuum", "single-photon", "epr-marginal"]), required=True)
@click.option("--lambda", "lam", type=click.FloatRange(0.0, 1.0, max_open=True), default=None,
              callback=finite, help="lambda for epr-marginal")
@click.option("--cutoff", type=int, default=6, show_default=True)
@click.option("-o", "--out", default="rho.json", show_default=True)
def cmd_reconstruct(tomogram_kind, lam, cutoff, out):
    """Kernel reconstruction of a single-mode density matrix from a tomogram."""
    if tomogram_kind == "epr-marginal":
        if lam is None:
            raise ConfigError("--tomogram epr-marginal requires --lambda")
        fn = functools.partial(tg.epr_marginal_density, lam)
    else:
        fn = functools.partial(tg.fock_quadrature_density,
                               {"vacuum": 0, "single-photon": 1}[tomogram_kind])
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
@click.option("--cutoff", type=int, default=64, show_default=True, callback=even_cutoff)
def cmd_figures(out_dir, points, r_sweep, cutoff):
    """Regenerate all six figure datasets at the published parameters."""
    theta_grid = np.linspace(0.0, 2.0 * math.pi, points, endpoint=False)
    tu_grid = np.linspace(0.0, 2.0 * math.pi, points + 1)
    grid = bell.direction(tu_grid)
    tables = {}  # written only once every dataset has passed its checks

    def write(name, header, rows):
        tables[os.path.join(out_dir, name)] = (header, rows)

    def calb_rows(value, state, tv, tup, tvp):
        t, deficit = state.pseudospin_xz(cutoff)
        checked_deficit(deficit, cutoff)
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

    os.makedirs(out_dir, exist_ok=True)
    outputs = {path: write_csv(path, *table) for path, table in tables.items()}
    config = {
        "points": points, "r_sweep": r_values, "cutoff": cutoff,
        "fig1_lambdas": list(FIG1_LAMBDAS), "fig2_ns": list(FIG2_NS), "fig3b_r": 1.05,
    }
    write_manifest(os.path.join(out_dir, "manifest.json"), "figures", config, outputs, {
        "fig3a": _series_summary(r_values, fig3a_vals),
        "fig3b_discrepancy": {
            "r": report.r, "cutoff": report.cutoff,
            "bessel_coefficient": report.bessel,
            "fock_expectation": report.fock,
            "difference": report.difference,
            "fock_oracle_used": True,
        },
    })
    click.echo(f"wrote {len(outputs) + 1} files to {out_dir}")


if __name__ == "__main__":
    main()
