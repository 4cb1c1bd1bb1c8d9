"""CLI commands: artifacts, determinism, exit codes, config precedence."""

import functools
import hashlib
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from click.testing import CliRunner

from tomobell import cli
from tomobell import sampling as smp
from tomobell.bell import chsh, correlation_pseudospin
from tomobell.cli import main, parse_angle, parse_named_angles, parse_values
from tomobell.states import (
    DEFICIT_TOL,
    OUTSIDE_MASS_LIMIT,
    FockPairSuperposition,
    PairCoherent,
    SqueezedVacuum,
    density_matrix,
    schmidt_coefficients,
    significant_schmidt,
    square_half_width,
)
from tomobell.tomography import sign_binned_closed_form


@pytest.fixture()
def runner():
    return CliRunner()


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, rows


def sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ---------------------------------------------------------------------------
# parsers
# ---------------------------------------------------------------------------


def test_parse_angle_forms():
    assert parse_angle("pi") == pytest.approx(math.pi)
    assert parse_angle("-pi/2") == pytest.approx(-math.pi / 2)
    assert parse_angle("3pi/4") == pytest.approx(3 * math.pi / 4)
    assert parse_angle("-3*pi/4") == pytest.approx(-3 * math.pi / 4)
    assert parse_angle("0.25") == 0.25
    from tomobell.errors import ConfigError

    with pytest.raises(ConfigError):
        parse_angle("two pi")


def test_parse_values_forms():
    assert parse_values("{0.2,0.54,0.96}") == [0.2, 0.54, 0.96]
    assert parse_values("1:2:0.5") == [1.0, 1.5, 2.0]
    from tomobell.errors import ConfigError

    for text in ("nan", "0.5,inf", "0:inf:0.5", "0:1:nan"):
        with pytest.raises(ConfigError):
            parse_values(text)
    assert parse_named_angles("tv=0,tup=pi", {"tv", "tup", "tvp"}) == {
        "tv": 0.0,
        "tup": pytest.approx(math.pi),
    }


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def test_tomogram_check_radon_passes(runner, tmp_path):
    out = str(tmp_path / "tomo.csv")
    result = runner.invoke(
        main,
        ["tomogram", "--state", "epr", "--lambda", "0.54", "--check-radon", "-o", out],
    )
    assert result.exit_code == 0, result.output
    assert "max |closed - radon|" in result.output
    header, rows = read_csv(out)
    assert header == ["x1", "x2", "theta1", "theta2", "w_closed", "w_radon"]
    assert len(rows) == 81
    with open(out + ".manifest.json") as fh:
        radon = json.load(fh)["radon"]
    # lambda = 0.54 converges at the first doubling, on +/-6 along the integrand's axes
    assert radon["orders"] == [48, 96] and radon["half_width"] == 6.0
    assert len(radon["changes"]) == 1 and radon["changes"][0] <= 1e-8


def test_tomogram_radon_check_failure_exit_code(runner, tmp_path):
    # an unattainable tolerance exercises the accuracy-error exit path
    result = runner.invoke(
        main,
        ["tomogram", "--state", "epr", "--lambda", "0.54", "--check-radon",
         "--tol", "1e-20", "-o", str(tmp_path / "t.csv")],
    )
    assert result.exit_code == 3
    assert "accuracy error" in result.output


def test_tomogram_pair_coherent_check_radon_default_grid(runner, tmp_path):
    out = str(tmp_path / "tomo_pc.csv")
    result = runner.invoke(
        main,
        ["tomogram", "--state", "pair-coherent", "--r", "1.0", "--check-radon", "-o", out],
    )
    assert result.exit_code == 0, result.output
    header, rows = read_csv(out)
    assert header[-1] == "w_radon" and len(rows) == 81
    with open(out + ".manifest.json") as fh:
        manifest = json.load(fh)
    assert manifest["max_abs_difference"] < 1e-12
    # the pair-coherent factors' angular rule, sized to r
    assert manifest["radon"]["angular_order"] == 32


def test_tomogram_pair_coherent_r12_check_radon_passes_tight_tol(runner, tmp_path):
    # a fixed 128-node angular rule missed the closed form by 9.5e-8 here (exit 3)
    out = str(tmp_path / "t.csv")
    result = runner.invoke(main, ["tomogram", "--state", "pair-coherent", "--r", "12",
                                  "--x-steps", "3", "--check-radon", "--tol", "1e-12", "-o", out])
    assert result.exit_code == 0, result.output
    with open(out + ".manifest.json") as fh:
        assert json.load(fh)["radon"]["angular_order"] == 280


def test_tomogram_pair_coherent_r14_check_radon_exits_2(runner, tmp_path):
    # the Wigner function is refused past r = 13, where rounding dominates it;
    # the closed-form tomogram alone still runs
    result = runner.invoke(main, ["tomogram", "--state", "pair-coherent", "--r", "14",
                                  "--check-radon", "-o", str(tmp_path / "t.csv")])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert "needs r <= 13" in result.stderr
    result = runner.invoke(main, ["tomogram", "--state", "pair-coherent", "--r", "14",
                                  "-o", str(tmp_path / "t.csv")])
    assert result.exit_code == 0, result.output


def test_tomogram_fock_pair_n171_check_radon_reports_without_traceback(runner, tmp_path):
    # 4^n / n! overflowed a double here; the run now either passes or names
    # the Radon orders it tried
    result = runner.invoke(
        main,
        ["tomogram", "--state", "fock-pair", "--n", "171", "--x-steps", "3",
         "--check-radon", "-o", str(tmp_path / "t.csv")],
    )
    # the doubling budget follows the fringe count, so the check now passes
    assert result.exit_code == 0, result.output
    assert result.exception is None


def test_tomogram_fock_pair_n140_check_radon_default_grid(runner, tmp_path):
    # on the sampler's square, +/-13.59, 768 nodes resolve every fringe
    out = str(tmp_path / "t.csv")
    result = runner.invoke(
        main, ["tomogram", "--state", "fock-pair", "--n", "140", "--check-radon", "-o", out]
    )
    assert result.exit_code == 0, result.output
    with open(out + ".manifest.json") as fh:
        manifest = json.load(fh)
    assert manifest["max_abs_difference"] < 1e-12
    assert manifest["radon"]["orders"] == [96, 192, 384, 768]
    assert manifest["radon"]["half_width"] == significant_schmidt(
        FockPairSuperposition(140)).half_width


def test_tomogram_pair_coherent_r6_runs_clean(runner, tmp_path):
    # the Hermite series overflowed here and exited 3
    result = runner.invoke(
        main, ["tomogram", "--state", "pair-coherent", "--r", "6", "-o", str(tmp_path / "t.csv")]
    )
    assert result.exit_code == 0, result.output
    assert result.stderr == ""


def test_tomogram_invalid_lambda_exit_code(runner, tmp_path):
    result = runner.invoke(
        main,
        ["tomogram", "--state", "epr", "--lambda", "1.2", "-o", str(tmp_path / "x.csv")],
    )
    assert result.exit_code == 2
    assert "lambda" in result.output


def test_vacuum_tomogram_angle_independent_columns(runner, tmp_path):
    out = str(tmp_path / "vac.csv")
    r1 = runner.invoke(main, ["tomogram", "--state", "epr", "--lambda", "0",
                              "--theta1", "0", "--theta2", "0", "-o", out])
    assert r1.exit_code == 0
    _, rows0 = read_csv(out)
    r2 = runner.invoke(main, ["tomogram", "--state", "epr", "--lambda", "0",
                              "--theta1", "pi/3", "--theta2", "-pi/7", "-o", out])
    assert r2.exit_code == 0
    _, rows1 = read_csv(out)
    assert [r[4] for r in rows0] == [r[4] for r in rows1]


def test_probs_matches_closed_form(runner, tmp_path):
    out = str(tmp_path / "probs.csv")
    result = runner.invoke(
        main,
        ["probs", "--state", "epr", "--lambda", "{0.20,0.54}", "--theta-sum", "0,1.0",
         "-o", out],
    )
    assert result.exit_code == 0, result.output
    header, rows = read_csv(out)
    assert header == ["param", "theta1", "theta2", "w_pp", "w_pm", "w_mp", "w_mm"]
    assert len(rows) == 4
    want = sign_binned_closed_form(SqueezedVacuum(0.2), 1.0, 0.0)
    got = [float(v) for v in rows[1][3:]]
    assert got == pytest.approx(list(want.as_tuple()), rel=1e-10)
    # 12 significant digits in the CSV encoding
    assert len(rows[1][3].replace(".", "").replace("-", "").lstrip("0")) <= 12


def test_sample_deterministic_artifacts(runner, tmp_path):
    args = ["sample", "--state", "epr", "--lambda", "0.54", "--theta1", "0.3",
            "--theta2", "-0.1", "--count", "2000", "--seed", "77"]
    out1 = str(tmp_path / "b1.csv")
    out2 = str(tmp_path / "b2.csv")
    assert runner.invoke(main, args + ["-o", out1]).exit_code == 0
    assert runner.invoke(main, args + ["-o", out2]).exit_code == 0
    assert sha(out1) == sha(out2)
    sidecar = json.load(open(str(tmp_path / "b1.json")))
    assert sidecar["seed"] == 77
    assert sidecar["count"] == 2000
    assert sidecar["state"] == {"kind": "epr", "lambda": 0.54}


# SHA-256 of the sample CSV at --count 2000: a change to the number format, to
# the random stream or to any accept decision of the sampler shows here.  Both
# non-Gaussian batches come from the product table.
SAMPLE_GOLDEN = [
    (["--state", "pair-coherent", "--r", "1.1", "--theta1", "pi/2", "--theta2", "-pi/4"],
     "a84251e518db39d19e85194f1b86b97210a95fbf4d5c4b1fdcbb2c8d6229991e"),
    (["--state", "fock-pair", "--n", "3"],
     "e06dc929c36c3dfb5e5cc99628811fef2ef74e08292482407e11e71cf742ed96"),
    (["--state", "epr", "--lambda", "0.54", "--seed", "77"],
     "2fb36f67cf77c97bc5915809e8a4d63be476f50b6e18773433175e4c8954e567"),
]


@pytest.mark.parametrize("args,digest", SAMPLE_GOLDEN)
def test_sample_csv_golden_digest(runner, tmp_path, args, digest):
    out = str(tmp_path / "batch.csv")
    result = runner.invoke(main, ["sample", *args, "--count", "2000", "-o", out])
    assert result.exit_code == 0, result.output
    assert sha(out) == digest


def test_sample_csv_golden_digest_above_one_block(runner, tmp_path):
    # 40000 values, five blocks of write_csv's digit arithmetic; the digest is the
    # one the per-value % rule (_old_csv_text) gives for the same pairs, which
    # come from the cell table
    out = str(tmp_path / "batch.csv")
    args = ["sample", "--state", "pair-coherent", "--r", "1.1", "--theta1", "pi/2",
            "--theta2", "-pi/4", "--count", "20000", "-o", out]
    assert runner.invoke(main, args).exit_code == 0
    assert sha(out) == "18fc023edf34556a124b6796f67a4a8d4dab61f0312f0b844bf1f4e2b4576a12"


# SHA-256 of the tomographic optimize JSON of the benchmark's seed-1 states: the
# grid search and Nelder-Mead both read E, so any change in its last bit shows here.
OPTIMIZE_GOLDEN = [
    (["--state", "pair-coherent", "--r", "1.14"],
     "c9e0f18762b3730a02af70d78278dca0d6cd4d86a8c408c9937dea34bd6a8252"),
    (["--state", "fock-pair", "--n", "1"],
     "6d345366fd56857f18d19fb6c5bdd600a98e7769dd7afd1578735bb2bd8e17d5"),
    (["--state", "epr", "--lambda", "0.8894"],
     "02d565daf52dd5bcd4493e9960c856f4b0f3d924bee6dd7b66ae14ea3df33b95"),
]


@pytest.mark.parametrize("args,digest", OPTIMIZE_GOLDEN)
def test_optimize_tomographic_golden_digest(runner, tmp_path, args, digest):
    out = str(tmp_path / "opt.json")
    result = runner.invoke(main, ["optimize", *args, "--mode", "tomographic", "-o", out])
    assert result.exit_code == 0, result.output
    assert sha(out) == digest


def test_sample_sidecar_records_sampler_rounds_and_envelope(runner, tmp_path):
    out = str(tmp_path / "batch.csv")
    args = ["sample", "--state", "fock-pair", "--n", "3", "--count", "2000", "-o", out]
    assert runner.invoke(main, args).exit_code == 0
    sidecar = json.load(open(str(tmp_path / "batch.json")))
    manifest = json.load(open(out + ".manifest.json"))["effective_config"]
    c = significant_schmidt(FockPairSuperposition(3)).coefficients
    for record in (sidecar, manifest):
        assert record["sampler"] == "product-table"
        assert record["rounds"] >= 1
        # a normalized density is accepted at the rate 1 / Z
        assert record["acceptance_rate"] * record["envelope_constant"] == pytest.approx(1.0, abs=0.1)
        assert record["half_width"] == square_half_width(c)
        # no scan: every proposal up to the chunk that completed the batch
        accepted = record["tomogram_evaluations"] * record["acceptance_rate"]
        assert accepted == pytest.approx(round(accepted), abs=1e-6)
        assert 2000 <= round(accepted) < 2000 + smp._CELL_BLOCK
    epr = str(tmp_path / "epr.csv")
    assert runner.invoke(main, ["sample", "--state", "epr", "--lambda", "0.5", "--count", "10",
                                "-o", epr]).exit_code == 0
    epr_sidecar = json.load(open(str(tmp_path / "epr.json")))
    assert epr_sidecar["half_width"] is None
    assert epr_sidecar["tomogram_evaluations"] is None


@pytest.mark.parametrize("args,count,sampler", [
    (["--state", "epr", "--lambda", "0.5"], 2000, "gaussian-exact"),
    (["--state", "pair-coherent", "--r", "1.1", "--theta1", "pi/2", "--theta2", "-pi/4"],
     100_000, "cell-table"),
    (["--state", "fock-pair", "--n", "3"], 100_000, "cell-table"),
    (["--state", "pair-coherent", "--r", "2"], 2000, "product-table"),
    (["--state", "fock-pair", "--n", "50"], 2000, "product-table"),
], ids=["epr", "pair-coherent-1.1", "fock-pair-3", "pair-coherent-2", "fock-pair-50"])
def test_sample_sidecar_names_the_sampler(runner, tmp_path, args, count, sampler):
    out = str(tmp_path / "batch.csv")
    result = runner.invoke(main, ["sample", *args, "--count", str(count), "-o", out])
    assert result.exit_code == 0, result.output
    sidecar = json.load(open(str(tmp_path / "batch.json")))
    manifest = json.load(open(out + ".manifest.json"))["effective_config"]
    for record in (sidecar, manifest):
        assert record["sampler"] == sampler
        bound = record["outside_mass_bound"]
        if sampler == "gaussian-exact":
            assert bound is None and record["half_width"] is None
        else:
            # T's integral Z sets the expected acceptance 1 / Z
            assert 0.0 < bound <= OUTSIDE_MASS_LIMIT
            assert record["half_width"] > 4.0
            assert record["acceptance_rate"] * record["envelope_constant"] == pytest.approx(
                1.0, abs=0.05)


@pytest.mark.parametrize("args,out", [
    (["sample", "--state", "epr", "--lambda", "0.5", "--count", "5"], "b.json"),
    (["pseudospin", "--state", "epr", "--lambda", "0.5", "--cutoff", "8", "--dump-dm", "P"], "P"),
    (["pseudospin", "--state", "epr", "--lambda", "0.5", "--cutoff", "8",
      "--dump-dm", "P.manifest.json"], "P"),
], ids=["sample-sidecar", "pseudospin-dump-dm", "pseudospin-manifest"])
def test_outputs_sharing_a_path_exit_2_before_writing(runner, tmp_path, monkeypatch, args, out):
    # the sample's sidecar b.json overwrote its CSV b.json, and --dump-dm P the
    # curve P, and each manifest listed one file
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(main, [*args, "-o", out])
    assert result.exit_code == 2
    assert "two outputs would share one file" in result.stderr
    assert list(tmp_path.iterdir()) == []


def _old_csv_text(header, rows):
    """The per-value rule write_csv replaced: %.12g for floats, str() otherwise."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{v:.12g}" if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("rows", [
    [[1, 0.1, -0.3], [5, 2.0 / 3.0, 1e-300], [12, math.pi, -1.0]],
    [[-0.0, 5e-324, 123456789012345.0], [1e22, 0.5, -2.5e-7]],
    np.array([[0.1, -1.0 / 3.0], [7.0, 1e-12], [-0.0, 2.0**60]]),
    [],
])
def test_write_csv_matches_per_value_rule(tmp_path, rows):
    header = ["a", "b", "c"] if len(rows) == 0 or len(rows[0]) == 3 else ["a", "b"]
    path = str(tmp_path / "t.csv")
    cli.write_csv(path, header, rows)
    with open(path) as fh:
        assert fh.read() == _old_csv_text(header, rows)


#: Values the digit arithmetic of write_csv must hand to % or get exactly right:
#: zeros, nan, inf, subnormals, the edges of its 1e-4 <= |x| < 1e3 range, 13-digit
#: ties (1 + 2**-12 = 1.000244140625 is exact in binary) and their neighbours, and
#: values that round up into the next power of ten.
TRICKY = [
    0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072014e-308,
    1e300, -1e300, 1e-5, 1e-4, math.nextafter(1e-4, 0.0), 1e3, math.nextafter(1e3, 0.0),
    1.0, 10.0, 100.0, 0.5, 123456789012345.0, 1 + 2**-12, -(5 + 2**-12), 100 + 2**-10,
    0.1234567890125, math.nextafter(0.1234567890125, 0.0), math.nextafter(0.1234567890125, 1.0),
    123.4567890135, 0.0001234567890135,  # just below a tie, where rint(y) rounds up
    9.999999999999995e-5, -9.999999999999995e-5, 999.9999999999995, -999.9999999999995,
]


@pytest.mark.parametrize("ncols", range(1, 10))
@pytest.mark.parametrize("extra_rows", [-1, 0, 1])
def test_write_csv_matches_per_value_rule_above_one_block(tmp_path, monkeypatch, ncols, extra_rows):
    # whole rows of one block, one row fewer and one more (a second block)
    nrows = cli._CSV_BLOCK // ncols + extra_rows
    rng = np.random.default_rng(ncols)
    size = nrows * ncols
    # three quarters in and around the fast range, a quarter from 5e-324 to 1e300
    exponent = np.where(rng.random(size) < 0.75, rng.uniform(-6, 4, size),
                        rng.uniform(-323.3, 300, size))
    values = rng.choice([-1.0, 1.0], size) * 10.0**exponent
    for at in (0, size - len(TRICKY), *rng.choice(size - len(TRICKY), 3, replace=False)):
        values[at:at + len(TRICKY)] = TRICKY
    rows = values.reshape(nrows, ncols)
    header = [f"c{j}" for j in range(ncols)]
    blocks = []
    g12_blocks = cli._g12_blocks

    def spy(table):
        blocks.append(table.size)
        return g12_blocks(table)

    monkeypatch.setattr(cli, "_g12_blocks", spy)
    path = str(tmp_path / "t.csv")
    cli.write_csv(path, header, rows)
    with open(path) as fh:
        assert fh.read() == _old_csv_text(header, rows)
    assert blocks == [size]  # every table, at any size, takes the digit arithmetic


#: (argv, manifest path, output count) of every command that writes a manifest
MANIFEST_RUNS = [
    (["tomogram", "--state", "epr", "--lambda", "0.3", "--x-steps", "3", "--check-radon",
      "-o", "t.csv"], "t.csv.manifest.json", 1),
    (["probs", "--state", "fock-pair", "--n", "1,3", "--theta-sum", "0:1:0.25", "-o", "p.csv"],
     "p.csv.manifest.json", 1),
    (["bell-scan", "--state", "pair-coherent", "--r", "1.0:1.2:0.1", "--cutoff", "16",
      "-o", "b.csv"], "b.csv.manifest.json", 2),  # with OUT.summary.json
    # the matrix lies outside the manifest's directory, as ../rho.json
    (["pseudospin", "--state", "epr", "--lambda", "0.1", "--cutoff", "8", "--dump-dm", "rho.json",
      "-o", os.path.join("sub", "s.csv")], os.path.join("sub", "s.csv.manifest.json"), 2),
    (["sample", "--state", "pair-coherent", "--r", "1.1", "--count", "500", "-o", "x.csv"],
     "x.csv.manifest.json", 2),  # with the sidecar x.json
    (["figures", "--points", "45", "--r-sweep", "1.0:1.2:0.1", "--cutoff", "16",
      "--out-dir", "f"], os.path.join("f", "manifest.json"), 6),
]


@pytest.mark.parametrize("args, manifest, count", MANIFEST_RUNS,
                         ids=[run[0][0] for run in MANIFEST_RUNS])
def test_manifest_digests_are_the_files_on_disk(runner, tmp_path, monkeypatch, args, manifest,
                                                count):
    # the digests are taken from the bytes as they are written; read the files back here
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    outputs = json.load(open(manifest))["outputs"]
    assert len(outputs) == count
    for name, digest in outputs.items():
        assert digest == cli.sha256_file(os.path.join(os.path.dirname(manifest), name)), name


def test_atomic_write_leaves_nothing_when_its_chunks_fail(tmp_path):
    def chunks():
        yield b"x1,x2\n"
        raise RuntimeError("formatter failed")

    old = tmp_path / "old.csv"
    old.write_bytes(b"kept\n")
    for path in (tmp_path / "new.csv", old):
        with pytest.raises(RuntimeError, match="formatter failed"):
            cli.atomic_write(str(path), chunks())
    assert [p.name for p in tmp_path.iterdir()] == ["old.csv"]  # no .tmp, no new.csv
    assert old.read_bytes() == b"kept\n"


def test_bell_scan_summary(runner, tmp_path):
    out = str(tmp_path / "scan.csv")
    result = runner.invoke(
        main,
        ["bell-scan", "--state", "pair-coherent", "--r", "1.0:1.2:0.1",
         "--mode", "tomographic", "-o", out],
    )
    assert result.exit_code == 0, result.output
    summary = json.load(open(out + ".summary.json"))
    assert summary["method"] == "tomographic"
    assert summary["tomographic"]["max_B"] > 2.0
    assert summary["tomographic"]["violating_intervals"]
    header, rows = read_csv(out)
    assert header[-1] == "B_tomographic"
    assert len(rows) == 3


def test_pseudospin_dm_roundtrip(runner, tmp_path):
    ps1 = str(tmp_path / "ps1.csv")
    ps2 = str(tmp_path / "ps2.csv")
    rho = str(tmp_path / "rho.json")
    r1 = runner.invoke(
        main,
        ["pseudospin", "--state", "pair-coherent", "--r", "1.05", "--cutoff", "16",
         "--theta-u-steps", "25", "--dump-dm", rho, "-o", ps1],
    )
    assert r1.exit_code == 0, r1.output
    again = str(tmp_path / "again.json")
    r2 = runner.invoke(
        main, ["pseudospin", "--dm", rho, "--theta-u-steps", "25", "--dump-dm", again, "-o", ps2]
    )
    assert r2.exit_code == 0, r2.output
    assert sha(ps1) == sha(ps2)
    assert sha(again) == sha(rho)  # --dump-dm writes the matrix --dm read, in canonical order
    payload = json.load(open(rho))
    assert payload["cutoff"] == 16
    assert all(len(entry) == 4 for entry in payload["entries"])


@pytest.mark.parametrize("text", [
    '{"cutoff": 2, "entries": [[0, 0, 1.0, 0.0]]}',
    '{"cutoff": 2, "entries": [[0, 0, 1.0, 0.0]',
    '{"cutoff": 2, "entries": [[0, 0, 1.0]], "trace_deficit": 0.0}',
], ids=["no-trace-deficit", "invalid-json", "three-numbers"])
def test_pseudospin_malformed_dm_file_exits_2(runner, tmp_path, text):
    rho = tmp_path / "rho.json"
    rho.write_text(text)
    result = runner.invoke(main, ["pseudospin", "--dm", str(rho),
                                  "-o", str(tmp_path / "ps.csv")])
    assert result.exit_code == 2
    assert f"configuration error: {rho}: not a valid density-matrix file" in result.stderr


def test_pseudospin_rejects_a_reconstruct_output(runner, tmp_path):
    # a single-mode rho from reconstruct was once read as |0><0| (x) rho, with max calB = 2
    rho = str(tmp_path / "rho1.json")
    result = runner.invoke(main, ["reconstruct", "--tomogram", "single-photon", "--cutoff", "4",
                                  "-o", rho])
    assert result.exit_code == 0, result.output
    result = runner.invoke(main, ["pseudospin", "--dm", rho, "-o", str(tmp_path / "ps.csv")])
    assert result.exit_code == 2
    assert f"configuration error: {rho}: not a valid density-matrix file" in result.stderr


def test_pseudospin_needs_state_or_dm(runner, tmp_path):
    result = runner.invoke(main, ["pseudospin", "-o", str(tmp_path / "x.csv")])
    assert result.exit_code == 2


def _dumped_rho(runner, tmp_path):
    rho = str(tmp_path / "rho.json")
    result = runner.invoke(main, ["pseudospin", "--state", "epr", "--lambda", "0.1",
                                  "--cutoff", "8", "--dump-dm", rho,
                                  "-o", str(tmp_path / "dump.csv")])
    assert result.exit_code == 0, result.output
    return rho


def test_pseudospin_refuses_state_and_dm_flags_together(runner, tmp_path):
    # the --dm matrix was read and the state dropped, with exit 0
    rho = _dumped_rho(runner, tmp_path)
    out = tmp_path / "ps.csv"
    result = runner.invoke(main, ["pseudospin", "--state", "fock-pair", "--n", "1", "--dm", rho,
                                  "-o", str(out)])
    assert result.exit_code == 2
    assert "configuration error: pseudospin takes --state or --dm, not both" in result.stderr
    assert not out.exists()


def test_pseudospin_dm_flag_overrides_a_config_file_state(runner, tmp_path):
    rho = _dumped_rho(runner, tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("state = fock-pair\nn = 1\n")
    out = str(tmp_path / "ps.csv")
    result = runner.invoke(main, ["--config", str(cfg), "pseudospin", "--dm", rho, "-o", out])
    assert result.exit_code == 0, result.output
    config = json.load(open(out + ".manifest.json"))["effective_config"]
    assert config["state"] == {"kind": "explicit-fock", "path": rho}
    assert config["cutoff"] == 8


def test_pseudospin_state_flag_overrides_a_config_file_dm(runner, tmp_path):
    # the file's matrix was read and the flag's state dropped, with exit 0
    rho = _dumped_rho(runner, tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"dm = {rho}\n")
    out = str(tmp_path / "ps.csv")
    result = runner.invoke(main, ["--config", str(cfg), "pseudospin", "--state", "fock-pair",
                                  "--n", "1", "--cutoff", "4", "-o", out])
    assert result.exit_code == 0, result.output
    config = json.load(open(out + ".manifest.json"))["effective_config"]
    assert config["state"] == {"kind": "fock-pair", "n": 1}
    assert config["cutoff"] == 4
    # a state and a dm key in one file conflict, as the two flags do
    cfg.write_text(f"dm = {rho}\nstate = fock-pair\nn = 1\n")
    result = runner.invoke(main, ["--config", str(cfg), "pseudospin", "-o", out])
    assert result.exit_code == 2
    assert "configuration error: pseudospin takes --state or --dm, not both" in result.stderr


def test_optimize_fock_pair(runner, tmp_path):
    out = str(tmp_path / "opt.json")
    result = runner.invoke(
        main,
        ["optimize", "--state", "fock-pair", "--n", "1", "--mode", "pseudospin",
         "-o", out],
    )
    assert result.exit_code == 0, result.output
    payload = json.load(open(out))
    assert payload["max_B"] == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-4)
    assert set(payload["argmax_angles"]) == {"theta1", "theta1p", "theta2", "theta2p"}


def test_reconstruct_vacuum(runner, tmp_path):
    out = str(tmp_path / "rho.json")
    result = runner.invoke(main, ["reconstruct", "--tomogram", "vacuum",
                                  "--cutoff", "4", "-o", out])
    assert result.exit_code == 0, result.output
    payload = json.load(open(out))
    rho00 = [e for e in payload["entries"] if e[0] == 0 and e[1] == 0][0]
    assert rho00[2] == pytest.approx(1.0, abs=1e-9)
    assert abs(payload["trace_deficit"]) < 1e-12


def test_reconstruct_single_photon_cutoff_2_keeps_the_trace(runner, tmp_path):
    out = str(tmp_path / "rho.json")
    result = runner.invoke(main, ["reconstruct", "--tomogram", "single-photon",
                                  "--cutoff", "2", "-o", out])
    assert result.exit_code == 0, result.output
    payload = json.load(open(out))
    assert abs(payload["trace_deficit"]) < 1e-12
    assert set(payload["diagnostics"]) == {"k_tail", "trace"}
    assert payload["diagnostics"]["k_tail"] < 1e-15
    assert payload["diagnostics"]["trace"] == pytest.approx(1.0, abs=1e-12)


def test_reconstruct_cutoff_guard(runner, tmp_path):
    result = runner.invoke(main, ["reconstruct", "--tomogram", "vacuum",
                                  "--cutoff", "12", "-o", str(tmp_path / "r.json")])
    assert result.exit_code == 2


def test_figures_deterministic_and_structured(runner, tmp_path):
    d1, d2 = str(tmp_path / "f1"), str(tmp_path / "f2")
    args = ["figures", "--points", "45", "--r-sweep", "1.0:1.2:0.1", "--cutoff", "16"]
    assert runner.invoke(main, args + ["--out-dir", d1]).exit_code == 0
    assert runner.invoke(main, args + ["--out-dir", d2]).exit_code == 0
    m1 = json.load(open(os.path.join(d1, "manifest.json")))
    m2 = json.load(open(os.path.join(d2, "manifest.json")))
    assert m1["outputs"] == m2["outputs"]
    assert len(m1["outputs"]) == 6
    assert m1["fig3b_discrepancy"]["fock_oracle_used"] is True
    assert m1["fig3b_discrepancy"]["bessel_coefficient"] > 1.0


def test_figures_fig2a_five_fold_period(runner, tmp_path):
    out_dir = str(tmp_path / "figs")
    result = runner.invoke(
        main,
        ["figures", "--out-dir", out_dir, "--points", "90",
         "--r-sweep", "1.0:1.1:0.1", "--cutoff", "16"],
    )
    assert result.exit_code == 0, result.output
    header, rows = read_csv(os.path.join(out_dir, "fig2a.csv"))
    n5 = [(float(r[1]), float(r[3])) for r in rows if r[0] == "5"]
    values = np.array([v for _, v in n5])
    # cos 5(theta1 + theta2): the 90-point grid shifts by 2 pi / 5 in 18 steps
    assert np.allclose(values, np.roll(values, 18), atol=1e-12)
    oracle = sign_binned_closed_form(FockPairSuperposition(5), n5[3][0], 0.0).w_pp
    assert n5[3][1] == pytest.approx(oracle, rel=1e-10)


def test_config_file_precedence(runner, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("theta2 = 0.7\nx-steps = 5\n")
    out = str(tmp_path / "t.csv")
    result = runner.invoke(
        main,
        ["--config", str(cfg), "tomogram", "--state", "epr", "--lambda", "0.3",
         "--theta2", "0.1", "-o", out],
    )
    assert result.exit_code == 0, result.output
    header, rows = read_csv(out)
    # flag wins for theta2, config file wins for x-steps (5 x 5 grid)
    assert float(rows[0][3]) == pytest.approx(0.1)
    assert len(rows) == 25
    manifest = json.load(open(out + ".manifest.json"))
    assert manifest["effective_config"]["theta1"] == 0.0


def test_probs_default_theta_sum_sweeps_a_full_turn(runner, tmp_path):
    out = str(tmp_path / "probs.csv")
    result = runner.invoke(main, ["probs", "--state", "epr", "--lambda", "0.54", "-o", out])
    assert result.exit_code == 0, result.output
    _, rows = read_csv(out)
    assert len(rows) == 361
    assert float(rows[0][1]) == 0.0
    assert float(rows[-1][1]) == pytest.approx(2.0 * math.pi, abs=1e-12)


def test_manifests_record_the_theta_grids(runner, tmp_path):
    # the effective configuration of bell-scan holds --theta-u-steps, and that
    # of probs the parsed theta1 + theta2 list, as bell-scan's sweep does
    def manifest(args, out):
        result = runner.invoke(main, [*args, "-o", str(tmp_path / out)])
        assert result.exit_code == 0, result.output
        return json.load(open(str(tmp_path / out) + ".manifest.json"))["effective_config"]

    scan = ["bell-scan", "--state", "fock-pair", "--n", "1", "--mode", "pseudospin",
            "--cutoff", "8"]
    few = manifest([*scan, "--theta-u-steps", "5"], "few.csv")
    many = manifest([*scan, "--theta-u-steps", "7"], "many.csv")
    assert (few["theta_u_steps"], many["theta_u_steps"]) == (5, 7)
    assert few != many
    probs = manifest(["probs", "--state", "epr", "--lambda", "0.5", "--theta-sum", "0:1:0.25"],
                     "p.csv")
    assert probs["theta_sums"] == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert manifest(["probs", "--state", "epr", "--lambda", "0.5", "--theta-sum", "0.1,2"],
                    "q.csv")["theta_sums"] == [0.1, 2.0]


@pytest.mark.parametrize("command", [["probs"], ["bell-scan", "--mode", "tomographic"]])
def test_fock_pair_n_must_be_an_integer(runner, tmp_path, command):
    result = runner.invoke(
        main, [*command, "--state", "fock-pair", "--n", "2.7", "-o", str(tmp_path / "x.csv")]
    )
    assert result.exit_code == 2
    assert "--n must be an integer, got 2.7" in result.output


def test_single_state_command_rejects_a_value_list(runner, tmp_path):
    result = runner.invoke(
        main, ["tomogram", "--state", "epr", "--lambda", "0.2,0.5", "-o", str(tmp_path / "x.csv")]
    )
    assert result.exit_code == 2
    assert "exactly one value" in result.output


def test_config_file_supplies_state_and_sweep(runner, tmp_path):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("state = pair-coherent\nr = 1.0:1.2:0.1\nmode = tomographic\n")
    out = str(tmp_path / "scan.csv")
    result = runner.invoke(main, ["--config", str(cfg), "bell-scan", "-o", out])
    assert result.exit_code == 0, result.output
    header, rows = read_csv(out)
    assert header[-1] == "B_tomographic"
    assert [float(row[0]) for row in rows] == pytest.approx([1.0, 1.1, 1.2])
    assert json.load(open(out + ".manifest.json"))["effective_config"]["state_kind"] == (
        "pair-coherent"
    )


@pytest.mark.parametrize("key", ["lambda", "lam"])
def test_config_lambda_key_and_alias(runner, tmp_path, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = 0.3\nx_steps = 1\n")
    out = str(tmp_path / "t.csv")
    result = runner.invoke(main, ["--config", str(cfg), "tomogram", "--state", "epr", "-o", out])
    assert result.exit_code == 0, result.output
    manifest = json.load(open(out + ".manifest.json"))
    assert manifest["effective_config"]["state"] == {"kind": "epr", "lambda": 0.3}


@pytest.mark.parametrize(
    "line, message",
    [("x-stepz = 5", "x-stepz"), ("x-steps = five", "--x-steps")],
    ids=["unknown-key", "bad-value"],
)
def test_config_file_errors_exit_2(runner, tmp_path, line, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    result = runner.invoke(
        main,
        ["--config", str(cfg), "tomogram", "--state", "epr", "--lambda", "0.3",
         "-o", str(tmp_path / "t.csv")],
    )
    assert result.exit_code == 2
    assert message in result.output


@pytest.mark.parametrize(
    "state_args, state, via_file",
    [(["--state", "pair-coherent", "--r", "1.05"], PairCoherent(1.05), False),
     (["--state", "epr", "--lambda", "0.2"], SqueezedVacuum(0.2), True)],
    ids=["pair-coherent", "epr-fock"],
)
def test_pseudospin_fock_curve_matches_per_point_correlation(
    runner, tmp_path, monkeypatch, state_args, state, via_file
):
    if via_file:  # the state's own block is its closed form; its Fock one comes from --dump-dm
        rho = str(tmp_path / "rho.json")
        result = runner.invoke(main, ["pseudospin", *state_args, "--cutoff", "16",
                                      "--dump-dm", rho, "-o", str(tmp_path / "closed.csv")])
        assert result.exit_code == 0, result.output
        state_args = ["--dm", rho]
    written = {}
    write_csv = cli.write_csv

    def capture(path, header, rows):
        written["rows"] = rows
        return write_csv(path, header, rows)

    monkeypatch.setattr(cli, "write_csv", capture)
    result = runner.invoke(
        main, ["pseudospin", *state_args, "--cutoff", "16", "-o", str(tmp_path / "ps.csv")]
    )
    assert result.exit_code == 0, result.output
    dm = density_matrix(state, 16)

    def corr(tu, tv):
        return correlation_pseudospin(dm, [math.sin(tu), 0.0, math.cos(tu)],
                                      [math.sin(tv), 0.0, math.cos(tv)])

    tv, tup, tvp = 0.0, math.pi, math.pi / 2
    assert len(written["rows"]) == 361
    for tu, got in written["rows"]:
        want = chsh(corr(tu, tv), corr(tu, tvp), corr(tup, tv), corr(tup, tvp))
        assert abs(got - want) <= 1e-12


def test_pseudospin_scan_cost_grows_with_states_not_with_curve_points(
    runner, tmp_path, monkeypatch
):
    # calB curves are whole arrays: per state a fixed handful of correlation and
    # trig calls, and the theta_u grid's cos and sin are tabulated once per command
    calls = {"n": 0}

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls["n"] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(cli.bell, "correlation_xz", counted(cli.bell.correlation_xz))
    monkeypatch.setattr(math, "cos", counted(math.cos))
    monkeypatch.setattr(math, "sin", counted(math.sin))

    def scan(sweep, steps):
        calls["n"] = 0
        result = runner.invoke(main, [
            "bell-scan", "--state", "pair-coherent", "--r", sweep, "--mode", "pseudospin",
            "--theta-u-steps", str(steps), "-o", str(tmp_path / "scan.csv")])
        assert result.exit_code == 0, result.output
        return calls["n"]

    many = scan("0.5:1.5:0.01", 361)
    few = scan("0.5:1.5:0.1", 361)
    few_short = scan("0.5:1.5:0.1", 19)
    assert (many - few) / (101 - 11) <= 16
    assert (few - few_short) / (361 - 19) <= 2


def test_import_loads_no_scipy(tmp_path):
    # the CHSH optimizer is tomobell's own Nelder-Mead: neither startup nor optimize loads scipy
    code = (
        "import sys, tomobell.cli\n"
        "scipy = lambda: sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        "print(scipy())\n"
        "for mode in ('tomographic', 'pseudospin'):\n"
        "    tomobell.cli.main(['optimize', '--state', 'pair-coherent', '--r', '1.1', '--mode', mode,\n"
        "                       '-o', sys.argv[1] + mode + '.json'], standalone_mode=False)\n"
        "print(scipy())\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "opt_")],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 4 and lines[0] == lines[-1] == "[]"


def test_version_runs_from_a_source_checkout():
    # no installed package metadata: the version comes from tomobell.__version__
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-m", "tomobell.cli", "--version"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-1] == "0.1.0"


def test_optimize_reports_whether_the_refinement_converged(runner, tmp_path, monkeypatch):
    out = str(tmp_path / "opt.json")
    args = ["optimize", "--state", "pair-coherent", "--r", "1.1", "-o", out]
    assert runner.invoke(main, args).exit_code == 0
    refine = json.load(open(out))["refine"]
    assert refine["converged"] is True
    assert refine["evaluations"] > refine["iterations"] > 1
    # a budget of 50 evaluations stops Nelder-Mead before its xatol/fatol test passes
    monkeypatch.setattr(cli.bell, "maximize_chsh",
                        functools.partial(cli.bell.maximize_chsh, max_iter=50))
    assert runner.invoke(main, args).exit_code == 0
    refine = json.load(open(out))["refine"]
    assert refine["converged"] is False
    assert refine["evaluations"] == 50 and refine["iterations"] < 50


@pytest.mark.parametrize("command", ["pseudospin", "bell-scan", "optimize", "figures"])
def test_pseudospin_odd_cutoff_exit_2(runner, tmp_path, monkeypatch, command):
    # one rule for every state, the closed forms included: a cutoff-3 --dump-dm
    # file would fail its own --dm read
    monkeypatch.chdir(tmp_path)
    states = [[]] if command == "figures" else [
        ["--state", "pair-coherent", "--r", "1.05"], _EPR, _FOCK]
    for state_args in states:
        for cutoff in ("15", "3", "0"):
            result = runner.invoke(main, [command, *state_args, "--cutoff", cutoff])
            assert result.exit_code == 2, (state_args, cutoff)
            assert "even cutoff" in result.output
    assert os.listdir(tmp_path) == []


def test_probs_out_of_range_pair_coherent_fails_cleanly(runner, tmp_path):
    out = tmp_path / "p.csv"
    for r in ("30", "1e200"):  # 2 r^2 itself overflows a double at r = 1e200
        result = runner.invoke(main, ["probs", "--state", "pair-coherent", "--r", r,
                                      "--theta-sum", "0,1", "-o", str(out)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert not out.exists()
    for r in ("20", "30"):  # I0(2 r^2) overflows a double from r = 18.9 on
        result = runner.invoke(main, ["pseudospin", "--state", "pair-coherent", "--r", r,
                                      "-o", str(out)])
        assert result.exit_code == 2 and "I0(2 r^2) finite" in result.output


@pytest.mark.parametrize("command", ["probs", "tomogram"])
def test_fock_pair_beyond_factorial_overflow(runner, tmp_path, command):
    out = str(tmp_path / "x.csv")
    result = runner.invoke(main, [command, "--state", "fock-pair", "--n", "161", "-o", out])
    assert result.exit_code == 0, result.output
    _, rows = read_csv(out)
    assert all(math.isfinite(float(v)) for row in rows for v in row)


def test_pseudospin_manifest_reports_trace_deficit(runner, tmp_path):
    out = str(tmp_path / "ps.csv")

    def run(*args):
        return runner.invoke(main, ["pseudospin", *args, "--theta-u-steps", "5", "-o", out])

    def manifest(*args):
        result = run(*args)
        assert result.exit_code == 0, result.output
        return json.load(open(out + ".manifest.json"))

    def deficit(*args):
        return manifest(*args).get("trace_deficit")

    assert deficit("--state", "pair-coherent", "--r", "1.05", "--cutoff", "64") < 1e-15
    assert deficit("--state", "epr", "--lambda", "0.5") is None  # closed form: no truncation
    rho = str(tmp_path / "rho.json")
    deficit("--state", "epr", "--lambda", "0.1", "--cutoff", "16", "--dump-dm", rho)
    # the manifest records the file's cutoff, not the --cutoff default
    assert manifest("--dm", rho)["effective_config"]["cutoff"] == 16
    assert deficit("--dm", rho) == pytest.approx(0.1**32, rel=1e-6)
    # a matrix that misses more than DEFICIT_TOL of the norm exits 3 and writes nothing,
    # whether it is dumped or read: |99> lies beyond cutoff 8 (half the norm), and
    # lambda^16 is lost at lambda = 0.9, where the closed form itself has no deficit
    os.remove(out)
    for args, state, lost in ((["fock-pair", "--n", "9"], FockPairSuperposition(9), 0.5),
                              (["epr", "--lambda", "0.9"], SqueezedVacuum(0.9), 0.9**16)):
        os.remove(rho)
        result = run("--state", *args, "--cutoff", "8", "--dump-dm", rho)
        assert result.exit_code == 3 and isinstance(result.exception, SystemExit)
        assert "misses" in result.output
        assert not os.path.exists(out) and not os.path.exists(rho)
        truncated = density_matrix(state, 8).to_json_dict()
        assert truncated["trace_deficit"] == pytest.approx(lost, rel=1e-9)
        with open(rho, "w") as fh:
            json.dump(truncated, fh)
        result = run("--dm", rho)
        assert result.exit_code == 3 and isinstance(result.exception, SystemExit)
        assert "misses" in result.output and not os.path.exists(out)


_EPR = ["--state", "epr", "--lambda", "0.5"]
_FOCK = ["--state", "fock-pair", "--n", "1"]


@pytest.mark.parametrize("args, option, value", [
    (["tomogram", *_EPR, "--check-radon"], "--x-steps", "0"),
    (["tomogram", *_EPR], "--x-steps", "-1"),
    (["pseudospin", *_FOCK], "--theta-u-steps", "0"),
    (["bell-scan", *_FOCK], "--theta-u-steps", "0"),
    (["optimize", *_FOCK], "--grid-points", "0"),
    (["figures"], "--points", "-3"),
], ids=["x-steps-0", "x-steps-negative", "pseudospin-theta-u-steps", "bell-scan-theta-u-steps",
        "grid-points", "points"])
def test_count_options_below_one_exit_2(runner, tmp_path, monkeypatch, args, option, value):
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(main, [*args, option, value])
    assert result.exit_code == 2, result.output
    assert option in result.output
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("args", [
    ["tomogram", *_EPR, "--x-max", "nan"],
    ["probs", *_EPR, "--theta-sum", "inf"],
    ["tomogram", "--state", "pair-coherent", "--r", "1", "--theta1", "inf"],
    ["sample", "--state", "pair-coherent", "--r", "1", "--count", "10", "--theta1", "nan"],
], ids=["x-max-nan", "theta-sum-inf", "theta1-inf", "sample-theta1-nan"])
def test_non_finite_values_exit_2(runner, tmp_path, monkeypatch, args):
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert "must be finite" in result.output
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("spec", ["0:1:1e-300", "0:1:1e-320"], ids=["tiny-step", "infinite-count"])
def test_range_spec_past_the_point_bound_exits_2(runner, tmp_path, monkeypatch, spec):
    # the first built its list until memory ran out, the second raised OverflowError
    monkeypatch.chdir(tmp_path)
    start = time.perf_counter()
    result = runner.invoke(main, ["probs", *_EPR, "--theta-sum", spec])
    assert time.perf_counter() - start < 1.0
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert result.stderr.splitlines() == [
        f"configuration error: range spec {spec!r} spans more than 1000000 points"
    ]
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("args, option", [
    (["reconstruct", "--tomogram", "epr-marginal", "--lambda", "1.0"], "--lambda"),
    (["reconstruct", "--tomogram", "epr-marginal", "--lambda", "2"], "--lambda"),
    (["reconstruct", "--tomogram", "epr-marginal", "--lambda", "-0.5"], "--lambda"),
    (["reconstruct", "--tomogram", "epr-marginal", "--lambda", "nan"], "--lambda"),
    (["sample", *_EPR, "--count", "10", "--seed", "-1"], "--seed"),
], ids=["lambda-1", "lambda-2", "lambda-negative", "lambda-nan", "seed-negative"])
def test_option_ranges_exit_2(runner, tmp_path, monkeypatch, args, option):
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert option in result.output
    assert os.listdir(tmp_path) == []


def test_bell_scan_summary_reports_trace_deficit(runner, tmp_path):
    out = str(tmp_path / "scan.csv")
    result = runner.invoke(main, ["bell-scan", "--state", "pair-coherent", "--r", "1.0,2.0",
                                  "--mode", "pseudospin", "--cutoff", "18", "-o", out])
    assert result.exit_code == 0, result.output
    summary = json.load(open(out + ".summary.json"))["pseudospin"]
    c = schmidt_coefficients(PairCoherent(2.0), 18).coefficients
    assert 0.0 < summary["trace_deficit"] == pytest.approx(1.0 - float(c @ c), abs=1e-15)


@pytest.mark.parametrize("args", [
    ["pseudospin", "--state", "pair-coherent", "--r", "2.0", "--cutoff", "2"],
    ["pseudospin", "--state", "pair-coherent", "--r", "1.0", "--cutoff", "8",
     "--dump-dm", "rho.json"],
    ["bell-scan", "--state", "pair-coherent", "--r", "1.0,2.0", "--mode", "pseudospin",
     "--cutoff", "8"],
    ["bell-scan", "--state", "pair-coherent", "--r", "0.5:3:0.5", "--mode", "both",
     "--cutoff", "4"],
    ["optimize", "--state", "pair-coherent", "--r", "2.0", "--mode", "pseudospin", "--cutoff", "2",
     "--grid-points", "4"],
    ["figures", "--points", "8", "--r-sweep", "1.0", "--cutoff", "4"],
], ids=["pseudospin", "pseudospin-dump-dm", "bell-scan", "bell-scan-both", "optimize", "figures"])
def test_a_large_trace_deficit_exits_3_before_any_file_is_written(
        runner, tmp_path, monkeypatch, args):
    # 0.96 of the norm lies past cutoff 2 at r = 2, 2.7e-10 past cutoff 8 at r = 1
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(main, [*args, *(["--out-dir", "figs"] if args[0] == "figures" else
                                           ["-o", "out.csv"])])
    assert result.exit_code == 3, result.output
    assert isinstance(result.exception, SystemExit)
    assert f"more than {DEFICIT_TOL:g}" in result.output
    assert os.listdir(tmp_path) == []


def test_optimize_pseudospin_records_the_trace_deficit(runner, tmp_path):
    out = str(tmp_path / "opt.json")
    args = ["optimize", "--mode", "pseudospin", "--grid-points", "4", "-o", out]
    assert runner.invoke(main, [*args, "--state", "pair-coherent", "--r", "1.0"]).exit_code == 0
    c = schmidt_coefficients(PairCoherent(1.0), 32).coefficients
    assert json.load(open(out))["trace_deficit"] == pytest.approx(1.0 - float(c @ c), abs=1e-15)
    assert runner.invoke(main, [*args, "--state", "epr", "--lambda", "0.5"]).exit_code == 0
    assert json.load(open(out))["trace_deficit"] is None
    args[2] = "tomographic"
    assert runner.invoke(main, [*args, "--state", "epr", "--lambda", "0.5"]).exit_code == 0
    assert "trace_deficit" not in json.load(open(out))


def test_bell_scan_has_no_quad_order(runner, tmp_path):
    out = str(tmp_path / "scan.csv")
    args = ["bell-scan", "--state", "pair-coherent", "--r", "1.0", "--mode", "tomographic"]
    result = runner.invoke(main, [*args, "--quad-order", "48", "-o", out])
    assert result.exit_code == 2
    assert "--quad-order" in result.output
    assert runner.invoke(main, [*args, "-o", out]).exit_code == 0
    for path in (out + ".manifest.json", out + ".summary.json"):
        assert "quad_order" not in json.load(open(path))["effective_config"]
    # the benchmark's tiny ops still pass it to optimize
    result = runner.invoke(main, ["optimize", "--state", "pair-coherent", "--r", "1.0",
                                  "--grid-points", "8", "--quad-order", "48",
                                  "-o", str(tmp_path / "opt.json")])
    assert result.exit_code == 0, result.output


@pytest.mark.parametrize("command, option, given, kept", [
    (["bell-scan", "--mode", "tomographic"], "--angles", "t1=0.3",
     {"theta1": 0.3, "theta1p": 0.0, "theta2": -math.pi / 4, "theta2p": -3 * math.pi / 4}),
    (["pseudospin"], "--angles", "tup=0.3",
     {"theta_v": 0.0, "theta_up": 0.3, "theta_vp": math.pi / 2}),
])
def test_partial_angles_keep_the_other_defaults(runner, tmp_path, command, option, given, kept):
    out = str(tmp_path / "out.csv")
    result = runner.invoke(main, [*command, "--state", "fock-pair", "--n", "1",
                                  option, given, "-o", out])
    assert result.exit_code == 0, result.output
    config = json.load(open(out + ".manifest.json"))["effective_config"]
    angles = config.get("angles", config)  # bell-scan nests its angles
    assert {key: angles[key] for key in kept} == kept


def test_tomogram_epr_lambda_096_check_radon_converges(runner, tmp_path):
    # a fixed 768-node axis-aligned grid left this at a change of 3.2e-7 and exit 3;
    # the principal-axis grid converges at 96 nodes for every lambda
    out = str(tmp_path / "t.csv")
    result = runner.invoke(main, ["tomogram", "--state", "epr", "--lambda", "0.96",
                                  "--x-steps", "3", "--check-radon", "-o", out])
    assert result.exit_code == 0, result.output
    with open(out + ".manifest.json") as fh:
        assert json.load(fh)["radon"]["orders"][-1] == 96


def test_tomogram_epr_past_the_radon_stencil_exits_3(runner, tmp_path):
    # W underflows on the Radon check's finite-difference stencil at lambda = 0.999999
    result = runner.invoke(main, ["tomogram", "--state", "epr", "--lambda", "0.999999",
                                  "--check-radon", "-o", str(tmp_path / "t.csv")])
    assert result.exit_code == 3
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert result.stderr.startswith("accuracy error: W underflows on the Radon finite-difference")
