"""The benchmark's workloads: seeded tomobell CLI ops and their output checks.

Each workload turns a seed into a list of ops.  An op is one CLI command
(argv without the program name) and a check that reads the command's output
files in the pass directory and raises :class:`CheckFailed` when they are
wrong.  Checks use only quantities that do not depend on the squeezed-vacuum
sign convention, and each tolerance sits beside its check.

Left out on purpose: fixed-angle tomographic values of the squeezed vacuum
(quadrant probabilities, E(theta1, theta2)).  The package currently describes
two squeezed vacua that differ by a local pi phase (Schmidt coefficients
(-lambda)^n in the Wigner/tomogram code, (+lambda)^n in the Fock code), so
those values carry an open sign defect.  The epr checks below use the
marginals, |E| and B maxima, which both conventions share.

``tiny=True`` shrinks every op to a size that runs in about a second, for
the harness self-check; the checks are the same.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

SRC = Path(__file__).resolve().parent.parent / "src"

#: Pair-coherent violating interval of the tomographic CHSH at the fig3a angles.
PAPER_VIOLATION = (0.9592, 1.4133)
#: fig3a angles as (theta1, theta2) for the settings (a,b), (a,b'), (a',b), (a',b').
FIG3A_SETTINGS = (("pi/2", "-pi/4"), ("pi/2", "-3pi/4"), ("0", "-pi/4"), ("0", "-3pi/4"))
#: Documented defaults: angles (tv, tup, tvp) of `pseudospin` and of
#: `bell-scan`, and the theta_u grid size of both.
PSEUDOSPIN_ANGLES = (0.0, math.pi, math.pi / 2)
SCAN_PS_ANGLES = (math.pi / 4, -math.pi / 2, -math.pi / 4)
THETA_U_STEPS = 361


class CheckFailed(Exception):
    """An op's output is missing or outside its stated tolerance."""


@dataclass(frozen=True)
class Op:
    argv: list[str]
    check: Callable[[Path], None]


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def all_of(*checks: Callable[[Path], None]) -> Callable[[Path], None]:
    def check(d: Path) -> None:
        for one in checks:
            one(d)
    return check


def read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def read_csv(path: Path) -> list[dict[str, float]]:
    with open(path, newline="") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


# ---------------------------------------------------------------------------
# Independent references
# ---------------------------------------------------------------------------


def calb(tu: float, angles, xx: float) -> float:
    """CHSH of coplanar pseudospin settings for E = cos a cos b + xx sin a sin b."""
    tv, tup, tvp = angles

    def e(a, b):
        return math.cos(a) * math.cos(b) + xx * math.sin(a) * math.sin(b)

    return abs(e(tu, tv) + e(tu, tvp) + e(tup, tv) - e(tup, tvp))


@functools.cache
def pair_coherent_xx(r: float) -> float:
    """Tr[rho Sx Sx] of the pair-coherent state, (I1 + J1)(2 r^2) / I0(2 r^2)."""
    from scipy.special import iv, jv

    x = 2.0 * r * r
    return float((iv(1, x) + jv(1, x)) / iv(0, x))


def squeezed_xx(lam: float) -> float:
    return 2.0 * lam / (1.0 + lam * lam)


@functools.cache
def closed_probs(kind: str, value: float, theta1: float, theta2: float) -> tuple:
    """(w_pp, w_pm, w_mp, w_mm) from tomobell's sign_binned_closed_form."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from tomobell import states, tomography

    state = {"pair-coherent": states.PairCoherent, "fock-pair": states.FockPairSuperposition,
             "epr": states.SqueezedVacuum}[kind](value)
    return tomography.sign_binned_closed_form(state, theta1, theta2).as_tuple()


def correlation(w) -> float:
    return w[0] - w[1] - w[2] + w[3]


# ---------------------------------------------------------------------------
# tomo-chsh
# ---------------------------------------------------------------------------


def check_scan_interval(out: str, rows_expected: int) -> Callable[[Path], None]:
    def check(d: Path) -> None:
        rows = read_csv(d / out)
        expect(len(rows) == rows_expected, f"{out}: {len(rows)} rows, expected {rows_expected}")
        inside = [row["param"] for row in rows
                  if PAPER_VIOLATION[0] <= row["param"] <= PAPER_VIOLATION[1]]
        expected = [[min(inside), max(inside)]] if inside else []
        got = read_json(d / f"{out}.summary.json")["tomographic"]["violating_intervals"]
        expect(len(got) == len(expected)
               and all(abs(a - b) <= 1e-9 for g, e in zip(got, expected) for a, b in zip(g, e)),
               f"{out}: violating intervals {got}, expected {expected} (tol 1e-9)")
    return check


def check_pair_coherent_optimum(out: str, scan: str, r: float) -> Callable[[Path], None]:
    def check(d: Path) -> None:
        best = read_json(d / out)["max_B"]
        fixed = [row["B_tomographic"] for row in read_csv(d / scan)
                 if abs(row["param"] - r) <= 1e-9]
        expect(len(fixed) == 1, f"{scan}: no row at r = {r}")
        expect(best > 2.0, f"{out}: max_B = {best} does not violate (> 2)")
        expect(best >= fixed[0] - 1e-9,
               f"{out}: max_B = {best} below the fig3a fixed-angle B = {fixed[0]} (tol 1e-9)")
    return check


def check_local_optimum(out: str) -> Callable[[Path], None]:
    def check(d: Path) -> None:
        best = read_json(d / out)["max_B"]
        expect(best <= 2.0 + 1e-9, f"{out}: max_B = {best} exceeds 2 (tol 1e-9)")
    return check


def tomo_chsh(rng, tiny: bool) -> list[Op]:
    r = round(rng.uniform(1.0, 1.2), 2)
    lam = round(rng.uniform(0.2, 0.96), 4)
    if tiny:
        sweep, rows, fast = f"{r:.2f}:{r:.2f}:0.01", 1, ["--grid-points", "8", "--quad-order", "48"]
    else:
        sweep, rows, fast = "0.5:1.5:0.01", 101, []
    return [
        Op(["bell-scan", "--state", "pair-coherent", "--r", sweep, "--mode", "tomographic",
            "-o", "scan.csv"], check_scan_interval("scan.csv", rows)),
        Op(["optimize", "--state", "pair-coherent", "--r", f"{r:.2f}", "--mode", "tomographic",
            *fast, "-o", "opt_pc.json"], check_pair_coherent_optimum("opt_pc.json", "scan.csv", r)),
        Op(["optimize", "--state", "fock-pair", "--n", "1", "--mode", "tomographic", *fast,
            "-o", "opt_fock.json"], check_local_optimum("opt_fock.json")),
        Op(["optimize", "--state", "epr", "--lambda", f"{lam}", "--mode", "tomographic", *fast,
            "-o", "opt_epr.json"], check_local_optimum("opt_epr.json")),
    ]


# ---------------------------------------------------------------------------
# pseudospin-fock
# ---------------------------------------------------------------------------


def check_calb_curve(out: str, steps: int, xx: float) -> Callable[[Path], None]:
    def check(d: Path) -> None:
        rows = read_csv(d / out)
        expect(len(rows) == steps, f"{out}: {len(rows)} rows, expected {steps}")
        worst = max(abs(row["B"] - calb(row["theta_u"], PSEUDOSPIN_ANGLES, xx)) for row in rows)
        expect(worst <= 1e-9, f"{out}: calB off the reference curve by {worst:.3e} (tol 1e-9)")
    return check


def check_pseudospin_scan(out: str, rows_expected: int) -> Callable[[Path], None]:
    grid = [2.0 * math.pi * i / (THETA_U_STEPS - 1) for i in range(THETA_U_STEPS)]

    def check(d: Path) -> None:
        rows = read_csv(d / out)
        expect(len(rows) == rows_expected, f"{out}: {len(rows)} rows, expected {rows_expected}")
        worst = 0.0
        for row in rows:
            xx = pair_coherent_xx(row["param"])
            ref = max(calb(tu, SCAN_PS_ANGLES, xx) for tu in grid)
            worst = max(worst, abs(row["B_pseudospin_max"] - ref))
        expect(worst <= 1e-9, f"{out}: max calB off the reference by {worst:.3e} (tol 1e-9)")
    return check


def pseudospin_fock(rng, tiny: bool) -> list[Op]:
    lam = round(rng.uniform(0.2, 0.96), 4)
    if tiny:
        cutoff, steps, sweep, rows, scan_cutoff = "16", 5, "0.9:1.1:0.1", 3, ["--cutoff", "16"]
    else:
        cutoff, steps, sweep, rows, scan_cutoff = "64", 19, "0.5:1.5:0.01", 101, []
    return [
        Op(["pseudospin", "--state", "pair-coherent", "--r", "1.05", "--cutoff", cutoff,
            "--theta-u-steps", str(steps), "-o", "ps_pc.csv"],
           check_calb_curve("ps_pc.csv", steps, pair_coherent_xx(1.05))),
        Op(["bell-scan", "--state", "pair-coherent", "--r", sweep, "--mode", "pseudospin",
            *scan_cutoff, "-o", "scan.csv"], check_pseudospin_scan("scan.csv", rows)),
        Op(["pseudospin", "--state", "epr", "--lambda", f"{lam}", "-o", "ps_epr.csv"],
           check_calb_curve("ps_epr.csv", THETA_U_STEPS, squeezed_xx(lam))),
    ]


# ---------------------------------------------------------------------------
# radon-oracle
# ---------------------------------------------------------------------------


def check_radon(out: str) -> Callable[[Path], None]:
    def check(d: Path) -> None:
        manifest = read_json(d / f"{out}.manifest.json")
        diff, tol = manifest["max_abs_difference"], manifest["effective_config"]["tol"]
        expect(diff < tol, f"{out}: max |closed - radon| = {diff:.3e} not below --tol {tol}")
    return check


def check_trace(out: str) -> Callable[[Path], None]:
    def check(d: Path) -> None:
        entries = read_json(d / out)["entries"]
        trace = sum(re for i, j, re, _im in entries if i == j)
        expect(abs(trace - 1.0) <= 1e-3, f"{out}: trace {trace:.6f} not within 1e-3 of 1")
    return check


def radon_oracle(rng, tiny: bool) -> list[Op]:
    r = round(rng.uniform(0.9, 1.1), 4)
    # The epr marginal is thermal; at cutoff 6 the truncation keeps
    # 1 - lambda^12 of the trace, so lambda <= 0.5 keeps it within 2.5e-4.
    lam = round(rng.uniform(0.2, 0.5), 4)
    grid = ["--x-max", "0", "--x-steps", "1"] if tiny else []
    pc_grid = grid or ["--x-steps", "3"]
    return [
        Op(["tomogram", "--state", "pair-coherent", "--r", f"{r}", *pc_grid, "--check-radon",
            "-o", "tomo_pc.csv"], check_radon("tomo_pc.csv")),
        Op(["tomogram", "--state", "fock-pair", "--n", "3", *grid, "--check-radon",
            "-o", "tomo_fock.csv"], check_radon("tomo_fock.csv")),
        Op(["tomogram", "--state", "epr", "--lambda", f"{lam}", *grid, "--check-radon",
            "-o", "tomo_epr.csv"], check_radon("tomo_epr.csv")),
        Op(["reconstruct", "--tomogram", "single-photon", "--cutoff", "6",
            "-o", "rho_1.json"], check_trace("rho_1.json")),
        Op(["reconstruct", "--tomogram", "epr-marginal", "--lambda", f"{lam}", "--cutoff", "6",
            "-o", "rho_epr.json"], check_trace("rho_epr.json")),
    ]


# ---------------------------------------------------------------------------
# homodyne-sample
# ---------------------------------------------------------------------------


def _sample_estimate(d: Path, out: str, count: int):
    with open(d / out) as fh:
        rows = sum(1 for _ in fh) - 1
    expect(rows == count, f"{out}: {rows} sample rows, expected {count}")
    side = read_json(d / (Path(out).stem + ".json"))
    est, se = side["estimated_probs"], side["standard_errors"]
    keys = ("w_pp", "w_pm", "w_mp", "w_mm")
    return side, tuple(est[k] for k in keys), tuple(se[k] for k in keys)


def check_sample(out: str, kind: str, value: float, count: int) -> Callable[[Path], None]:
    def check(d: Path) -> None:
        side, est, se = _sample_estimate(d, out, count)
        exact = closed_probs(kind, value, side["theta1"], side["theta2"])
        if kind == "epr":
            # sign-convention-free: both marginals are 1/2, and |E| is shared
            half_err = 0.5 / math.sqrt(count)
            for name, got in (("P(X1 >= 0)", est[0] + est[1]), ("P(X2 >= 0)", est[0] + est[2])):
                expect(abs(got - 0.5) <= 5.0 * half_err,
                       f"{out}: {name} = {got} not within 5 SE of 1/2")
            agree = est[0] + est[3]
            e_err = 2.0 * math.sqrt(agree * (1.0 - agree) / count)
            expect(abs(abs(correlation(est)) - abs(correlation(exact))) <= 5.0 * e_err,
                   f"{out}: |E| = {abs(correlation(est))} not within 5 SE of {abs(correlation(exact))}")
            return
        for k, got, want, err in zip(("w_pp", "w_pm", "w_mp", "w_mm"), est, exact, se):
            expect(abs(got - want) <= 5.0 * err,
                   f"{out}: {k} = {got} not within 5 SE ({err:.2e}) of closed form {want}")
    return check


def check_fig3a_chsh(outs: list[str], r: float, count: int) -> Callable[[Path], None]:
    def check(d: Path) -> None:
        e_est, e_exact, variance = [], [], 0.0
        for out in outs:
            side, est, _se = _sample_estimate(d, out, count)
            agree = est[0] + est[3]
            variance += 4.0 * agree * (1.0 - agree) / count
            e_est.append(correlation(est))
            e_exact.append(correlation(
                closed_probs("pair-coherent", r, side["theta1"], side["theta2"])))
        b_est = abs(e_est[0] + e_est[1] + e_est[2] - e_est[3])
        b_exact = abs(e_exact[0] + e_exact[1] + e_exact[2] - e_exact[3])
        sigma = math.sqrt(variance)
        expect(abs(b_est - b_exact) <= 5.0 * sigma,
               f"B estimate {b_est} not within 5 sigma ({sigma:.2e}) of closed form {b_exact}")
    return check


def homodyne_sample(rng, tiny: bool) -> list[Op]:
    r = round(rng.uniform(1.0, 1.2), 4)
    lam = round(rng.uniform(0.2, 0.96), 4)
    count = 2000 if tiny else 100000
    outs = [f"fig3a_{i}.csv" for i in range(len(FIG3A_SETTINGS))]
    ops = [Op(["sample", "--state", "pair-coherent", "--r", f"{r}", "--theta1", t1,
               "--theta2", t2, "--count", str(count),
               "--seed", str(rng.randrange(1, 2**31)), "-o", out],
              check_sample(out, "pair-coherent", r, count))
           for out, (t1, t2) in zip(outs, FIG3A_SETTINGS)]
    # the last fig3a op also checks the four-setting B estimate
    ops[-1] = Op(ops[-1].argv, all_of(ops[-1].check, check_fig3a_chsh(outs, r, count)))
    for kind, flag, value, out in (("fock-pair", "--n", 3, "fock.csv"),
                                   ("epr", "--lambda", lam, "epr.csv")):
        t1, t2 = (f"{rng.uniform(-math.pi, math.pi):.6f}" for _ in range(2))
        ops.append(Op(["sample", "--state", kind, flag, str(value), "--theta1", t1,
                       "--theta2", t2, "--count", str(count),
                       "--seed", str(rng.randrange(1, 2**31)), "-o", out],
                      check_sample(out, kind, value, count)))
    return ops


#: workload name -> op generator taking (random.Random, tiny)
WORKLOADS = {
    "tomo-chsh": tomo_chsh,
    "pseudospin-fock": pseudospin_fock,
    "radon-oracle": radon_oracle,
    "homodyne-sample": homodyne_sample,
}
