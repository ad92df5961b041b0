"""Pinned output digests of the CLI subcommands.

Each case runs ``ccemfg.cli.main`` at a tiny size with a fixed seed and
hashes every CSV file it writes with SHA-256, skipping the ``#`` config
header lines (they hold the output path).  The digests pin the whole chain
from the counter RNG through the inverse normal CDF, the Brownian bridge,
the Euler step and the estimators down to the last printed digit.  The
``region`` cases have no Monte Carlo; they pin the exact sweep and its
writers, hashing the PGM rasters along with the CSVs.  The quantile-table
cases hash the tables themselves, including one that the Halley solver
fills, which no CLI digest here reaches.

A kernel rewrite that keeps the arithmetic must leave every digest
unchanged.  A deliberate change to the draw layout or to the arithmetic
bumps the affected digests: update the table in the same change and say in
CHANGES.md which outputs moved and why.

The digests were taken on x86-64 with numpy 2.4; the package's one
implementation of its kernels is the numpy code of ``ccemfg._pathgen_py``.
The normal CDF and exp kernels use IEEE basic operations only, but a
``log`` that differs in the last ulp can change the inverse normal CDF:
numpy's AVX-512 float64 ``log`` and its baseline one disagree on about
0.35% of inputs, which moves about one normal draw in 80,000 by one ulp.
These cases give the same digests under both
(``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"``).
"""

import hashlib

import pytest

from ccemfg.analytic import DeviceProbs
from ccemfg.cli import main
from ccemfg.correlation import build_example_device
from ccemfg.engine import TimeGrid

CASES = {
    "gap": (["--p", "0.5,0.3,0.2,0", "--N", "10,40", "--reps", "100"],
            "8c34a89583f75ff086647b2750b67da087bf87bc3caee4377b39cdd8e4e80fca"),
    "mfgap": (["--p", "0.5,0.3,0.2,0", "--reps", "100"],
              "4fafd84ba960612a5154763259fd130b739b0abc6d16dbf61694959e331335c6"),
    "poc": (["--p", "1,0,0,0", "--N", "10,20,40", "--reps", "50"],
            "3ef147f1c9963f0a2f1eda7fae943d49fb3c4884d25d56ebbbc22171164ee709"),
    "consistency": (["--p", "0.5,0,0,0.5", "--reps", "100"],
                    "14ba4960a8bb0a4e57dd201d643873e9fc2c9abf83456efa21e17d927b2d68d0"),
    "mkv": (["--particles", "100", "--max-iters", "5"],
            "69e634887c37026ddcee710a630a5b54157785292119615bf98518c969066d3b"),
}

REGION_CASES = {
    "default": (["--resolution", "201", "--alpha", "0,0.5,1"],
                "44cc933a3aa22a51731175708f5fc99ea3086906efd3b4948a1ab5abec6e981c"),
    "a-2_b0.5": (["--resolution", "201", "--alpha", "0,0.5,1",
                  "--a", "-2", "--b", "0.5"],
                 "2dec7902947385c908a3cbf4d6bef92402bb8f9542db58f64318c8f53f37f436"),
}


def output_digest(command, args, out_dir, globs=("*.csv",)) -> str:
    """SHA-256 over the header-less bodies of the files one call writes
    that match ``globs``, taken in sorted name order."""
    rc = main([command, *args, "--steps", "20", "--seed", "11",
               "--workers", "1", "--out", str(out_dir / "out")])
    assert rc == 0
    h = hashlib.sha256()
    for path in sorted(p for g in globs for p in out_dir.glob(g)):
        h.update(path.name.encode() + b"\n")
        for line in path.read_bytes().splitlines(keepends=True):
            if not line.startswith(b"#"):
                h.update(line)
    return h.hexdigest()


@pytest.mark.parametrize("command", sorted(CASES))
def test_pinned_output_digest(command, tmp_path):
    got = output_digest(command, CASES[command][0], tmp_path)
    assert got == CASES[command][1]


@pytest.mark.parametrize("case", sorted(REGION_CASES))
def test_pinned_region_digest(case, tmp_path):
    args, want = REGION_CASES[case]
    assert output_digest("region", args, tmp_path,
                         globs=("*.csv", "*.pgm")) == want


# SHA-256 of the bytes of the class quantile tables of --p 0.5,0.3,0.2,0 on
# TimeGrid(2.0, 200).  mu1 mixes two components, so its table goes through
# the Halley solver and the normal CDF and exp kernels; mu2 has one
# component and pins the bracket, m + s * norm_quantile(q).
TABLE_CASES = {
    ("mu1", 512): "0ae523c111f3e259b0a922721bf81a93f06736f54c1e00eb257e72fb61099635",
    ("mu1", 256): "ac532993d8269d181b0af086eeac40d88895fa1a5dc77ef40ef21088f5d5943c",
    ("mu2", 512): "89e255f468248d058d4285c496594e4ebb0b7dfc2617e555df6a781fa916ea78",
    ("mu2", 256): "6da85fab10a6457e8c3d4b1bd7c8e5f496875f04d01331e4465065623972c6d6",
}


@pytest.mark.parametrize("name,n_points", sorted(TABLE_CASES))
def test_pinned_quantile_table_digest(name, n_points):
    flow = build_example_device(DeviceProbs(0.5, 0.3, 0.2, 0), -1.0,
                                1.0).flow_classes()[name]["flow"]
    table = flow.quantile_table(TimeGrid(2.0, 200).times, n_points)
    digest = hashlib.sha256(table.tobytes()).hexdigest()
    assert digest == TABLE_CASES[name, n_points]
