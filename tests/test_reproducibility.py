"""Pinned output digests of the CLI subcommands.

Each case runs ``ccemfg.cli.main`` at a tiny size with a fixed seed and
hashes every CSV file it writes with SHA-256, skipping the ``#`` config
header lines (they hold the output path).  The digests pin the whole chain
from the counter RNG through the inverse normal CDF, the Brownian bridge,
the Euler step and the estimators down to the last printed digit.  The
``region`` cases have no Monte Carlo; they pin the exact sweep and its
writers, hashing the PGM rasters along with the CSVs.

A kernel rewrite that keeps the arithmetic must leave every digest
unchanged.  A deliberate change to the draw layout or to the arithmetic
bumps the affected digests: update the table in the same change and say in
CHANGES.md which outputs moved and why.

The digests were taken on x86-64 with numpy 2.4; the package's one
implementation of path generation is the numpy kernels of
``ccemfg._pathgen_py``.  A ``log`` that differs in the last ulp can change
them: numpy's AVX-512 float64 ``log`` and its baseline one disagree on
about 0.35% of inputs, which moves about one normal draw in 80,000 by one
ulp.  These cases give the same digests under both
(``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"``).
"""

import hashlib

import pytest

from ccemfg.cli import main

CASES = {
    "gap": (["--p", "0.5,0.3,0.2,0", "--N", "10,40", "--reps", "100"],
            "8c34a89583f75ff086647b2750b67da087bf87bc3caee4377b39cdd8e4e80fca"),
    "mfgap": (["--p", "0.5,0.3,0.2,0", "--reps", "100"],
              "4fafd84ba960612a5154763259fd130b739b0abc6d16dbf61694959e331335c6"),
    "poc": (["--p", "1,0,0,0", "--N", "10,20,40", "--reps", "50"],
            "07452b6889d2b763ce758eb9dcc1b3a0726d51ff82392b70044bb5e577617ba4"),
    "consistency": (["--p", "0.5,0,0,0.5", "--reps", "100"],
                    "1c9e965dce6cea8f66de4e8f5a47f4f2f9733f1da766aa47177253415b4c5a04"),
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
