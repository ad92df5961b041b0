"""Batch front end: configuration parsing, experiment orchestration, and
CSV/PGM emission.

Configuration comes from an optional JSON file plus command-line flags;
flags win.  :class:`RunConfig` is its only declaration: every field is a
flag of the same name (``_`` written as ``-``), and flag and JSON values
are converted by the field's type and checked by :func:`parse_config`
alike.  Every output file starts with a single ``#``-prefixed JSON line
holding the fully resolved configuration (including the seed), so any
artifact can be regenerated bit-exactly from its own header.

Exit codes: 0 success, 1 runtime failure (with step context when the
simulation blew up), 2 invalid configuration (with field diagnostics).
"""

import argparse
import dataclasses
import functools
import json
import sys
from dataclasses import dataclass

import numpy as np

from .analytic import (DEFAULT_ALPHAS, DeviceProbs, cce_margin,
                       finite_n_gap_oracle, mean_field_gap_oracle,
                       region_sweep, write_csv)
from .correlation import (BAND_FACTOR, build_example_device, null_band,
                          verify_consistency)
from .engine import SimulationError, TimeGrid, mckean_vlasov_fixed_point
from .equilibrium import cce_gap_nplayer, mean_field_gap_mc, poc_curve
from .model import build_bang_bang_model

COMMANDS = ("region", "gap", "mfgap", "poc", "consistency", "mkv")


class ConfigError(ValueError):
    """Invalid configuration; carries per-field diagnostics."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(f"{f}: {m}" for f, m in self.problems))


@dataclass(frozen=True)
class RunConfig:
    command: str
    a: float = -1.0
    b: float = 1.0
    c: float = 1.0
    T: float = 2.0
    p: tuple[float, ...] = (0.5, 0.3, 0.2, 0.0)
    resolution: int = 101
    alpha: tuple[float, ...] = DEFAULT_ALPHAS
    N: tuple[int, ...] = (50, 200, 500)
    reps: int = 2000
    steps: int = 200
    deviations: int = 21
    particles: int = 10000
    max_iters: int = 25
    tol: float = 0.02
    action: float | None = None       # mkv strategy; defaults to b
    seed: int = 0
    out: str = "out"
    workers: int = 0                  # 0 or 1: serial


def config_dict(cfg: RunConfig) -> dict:
    return {k: list(v) if isinstance(v, tuple) else v
            for k, v in dataclasses.asdict(cfg).items()}


def _convert(kind, value):
    """``value`` as a value of the field type ``kind``: a scalar, an
    optional scalar or a tuple of scalars, which a string gives comma- or
    space-separated.  A boolean is not a number, and an int field takes
    integral values only.  Raises TypeError or ValueError."""
    args = getattr(kind, "__args__", ())
    if type(None) in args:                              # float | None
        return None if value is None else _convert(args[0], value)
    if args:                                            # tuple[int, ...]
        if isinstance(value, str):
            value = value.replace(",", " ").split()
        elif not isinstance(value, (list, tuple)):
            value = np.atleast_1d(value)
        return tuple(_convert(args[0], v) for v in value)
    if (kind is str and not isinstance(value, str)
            or isinstance(value, (bool, np.bool_))):
        raise TypeError
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ValueError
    return kind(value)


def parse_config(data: dict) -> RunConfig:
    """Validate a plain dict into a RunConfig; collects field diagnostics.

    Each value is converted by its field's type.  The range checks run
    once every value has its type, except the device probabilities', which
    run whenever they parse."""
    fields = dataclasses.fields(RunConfig)
    problems = [(key, "unknown field") for key in data
                if key not in {f.name for f in fields}]
    if problems:
        raise ConfigError(problems)

    merged = {f.name: data.get(f.name, f.default) for f in fields}
    for f in fields:
        try:
            merged[f.name] = _convert(f.type, merged[f.name])
        except (TypeError, ValueError):
            kind = f.type.__name__ if f.type in (int, float, str) else f.type
            problems.append((f.name, f"must be of type {kind}"))
    untyped = {name for name, _ in problems}

    def check(field, ok, msg):
        if not ok:
            problems.append((field, msg))

    if not untyped:
        check("command", merged["command"] in COMMANDS,
              f"must be one of {COMMANDS}")
        check("a", -np.inf < merged["a"] < 0.0, "must be negative and finite")
        for field in ("b", "c", "T"):
            check(field, 0.0 < merged[field] < np.inf,
                  "must be positive and finite")
        check("reps", merged["reps"] >= 1, "must be at least 1")
        check("steps", merged["steps"] >= 1, "must be at least 1")
        check("resolution", merged["resolution"] >= 2, "must be at least 2")
        check("deviations", merged["deviations"] >= 3, "must be at least 3")
        check("particles", merged["particles"] >= 100, "must be at least 100")
        check("max_iters", merged["max_iters"] >= 1, "must be at least 1")
        check("action", merged["action"] is None
              or merged["a"] <= merged["action"] <= merged["b"],
              "must lie in [a, b]")
        check("workers", merged["workers"] >= 0, "must be nonnegative")
        check("tol", merged["tol"] > 0.0, "must be positive")
        check("alpha", all(0.0 <= v <= 1.0 for v in merged["alpha"]),
              "entries must lie in [0, 1]")
        check("N", all(v >= 2 for v in merged["N"]),
              "entries must be at least 2")
        check("N", all(m < n for m, n in zip(merged["N"], merged["N"][1:])),
              "entries must be strictly increasing")
        for field in ("alpha", "N"):
            check(field, len(merged[field]) > 0, "must not be empty")
        check("out", merged["out"] != "", "must be a nonempty path")
    if "p" not in untyped:
        try:
            if len(merged["p"]) != 4:
                raise ValueError
            DeviceProbs(*merged["p"])
        except ValueError as exc:
            problems.append(("p", str(exc)
                             or "must be 4 probabilities summing to 1"))
    if problems:
        raise ConfigError(problems)
    return RunConfig(**merged)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """One argument per :class:`RunConfig` field, taken as a string: a
    field without a default is positional, the others are ``--`` flags.
    Lists are written comma-separated.  Built once per process: parsing
    leaves the parser unchanged."""
    ap = argparse.ArgumentParser(
        prog="ccemfg",
        description="coarse correlated equilibria for mean field games: "
                    "region sweeps, deviation gaps, chaos/consistency checks "
                    f"(commands: {', '.join(COMMANDS)})")
    ap.add_argument("--config", help="JSON configuration file")
    for f in dataclasses.fields(RunConfig):
        if f.default is dataclasses.MISSING:
            ap.add_argument(f.name)
        else:
            ap.add_argument("--" + f.name.replace("_", "-"),
                            help=f"default: {f.default}")
    return ap


def resolve_config(argv) -> RunConfig:
    args = vars(build_parser().parse_args(argv))
    path = args.pop("config")
    data: dict = {}
    if path:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError([("config", str(exc))])
        except json.JSONDecodeError as exc:
            raise ConfigError([("config", f"line {exc.lineno}: {exc.msg}")])
        if not isinstance(data, dict):
            raise ConfigError([("config", "top level must be a JSON object")])
    data.update((key, val) for key, val in args.items() if val is not None)
    return parse_config(data)


def _csv_path(out: str) -> str:
    return out if out.endswith(".csv") else out + ".csv"


def _base_path(out: str) -> str:
    return out[:-4] if out.endswith((".csv", ".pgm")) else out


def _run_region(cfg: RunConfig):
    base = _base_path(cfg.out)
    for alpha in cfg.alpha:
        grid = region_sweep(cfg.resolution, alpha, cfg.a, cfg.b)
        header = config_dict(dataclasses.replace(cfg, alpha=(alpha,)))
        grid.to_csv(f"{base}_alpha{alpha:g}.csv", header=header)
        grid.to_pgm(f"{base}_alpha{alpha:g}.pgm", header=header)
        print(f"alpha={alpha:g}: {int(grid.is_cce.sum())} equilibrium cells "
              f"of {int(grid.feasible.sum())} feasible "
              f"-> {base}_alpha{alpha:g}.csv/.pgm")
        del grid        # free this raster before the next sweep builds one


def _game(cfg: RunConfig):
    """The model, device probabilities, device and time grid of ``cfg``."""
    probs = DeviceProbs(*cfg.p)
    return (build_bang_bang_model(cfg.a, cfg.b, cfg.c, cfg.T), probs,
            build_example_device(probs, cfg.a, cfg.b),
            TimeGrid(cfg.T, cfg.steps))


def _run_gap(cfg: RunConfig):
    model, probs, device, grid = _game(cfg)
    rows = []
    for N in cfg.N:
        oracle = finite_n_gap_oracle(probs, cfg.a, cfg.b, cfg.c, cfg.T, N)
        rep = cce_gap_nplayer(model, device, N, deviations=cfg.deviations,
                              reps=cfg.reps, seed=cfg.seed, grid=grid,
                              workers=cfg.workers, oracle=oracle)
        rows.append((N, cfg.reps, rep.epsilon_hat, rep.raw_gap, rep.raw_se,
                     rep.epsilon_ci[0], rep.epsilon_ci[1], rep.best_deviation,
                     rep.j_rec.mean, rep.j_rec.std_error, oracle))
        print(f"N={N}: eps_hat={rep.epsilon_hat:.6g} "
              f"(raw {rep.raw_gap:.6g} +- {rep.raw_se:.2g}, oracle {oracle:.6g})")
    write_csv(_csv_path(cfg.out), config_dict(cfg),
              ["N", "reps", "eps_hat", "raw_gap", "raw_se", "ci_lo", "ci_hi",
               "best_deviation", "j_rec", "j_rec_se", "oracle"], zip(*rows))


def _run_mfgap(cfg: RunConfig):
    model, probs, device, grid = _game(cfg)
    margin = cce_margin(probs, cfg.a, cfg.b)
    oracle = mean_field_gap_oracle(probs, cfg.a, cfg.b, cfg.c, cfg.T)
    rep = mean_field_gap_mc(model, device, deviations=cfg.deviations,
                            reps=cfg.reps, seed=cfg.seed, grid=grid,
                            workers=cfg.workers, oracle=oracle)
    write_csv(_csv_path(cfg.out), config_dict(cfg),
              ["reps", "eps_hat", "raw_gap", "raw_se", "ci_lo", "ci_hi",
               "best_deviation", "margin", "oracle"],
              zip(*[(cfg.reps, rep.epsilon_hat, rep.raw_gap, rep.raw_se,
                     *rep.epsilon_ci, rep.best_deviation, margin, oracle)]))
    print(f"eps_hat={rep.epsilon_hat:.6g} (raw {rep.raw_gap:.6g} "
          f"+- {rep.raw_se:.2g}, oracle {oracle:.6g})")


def _run_poc(cfg: RunConfig):
    model, _, device, grid = _game(cfg)
    res = poc_curve(model, device, cfg.N, reps=cfg.reps, seed=cfg.seed,
                    grid=grid, workers=cfg.workers)
    for N, v in zip(res.Ns, res.overall):
        print(f"N={N}: sup_t E[W2^2] = {v:.6g}")
    curves = {"all": res.overall, **res.per_class}      # N-major rows
    write_csv(_csv_path(cfg.out), config_dict(cfg),
              ["N", "class", "sup_w2_sq"],
              [np.repeat(res.Ns, len(curves)), list(curves) * len(res.Ns),
               np.column_stack(list(curves.values())).ravel()])


def _run_consistency(cfg: RunConfig):
    model, _, device, grid = _game(cfg)
    report = verify_consistency(model, device, grid, cfg.reps, cfg.seed)
    write_csv(_csv_path(cfg.out), config_dict(cfg),
              ["class", "prob", "count", "t", "w2"],
              zip(*[(cl.label, cl.probability, cl.count, t, d) for cl in
                    report.classes for t, d in zip(cl.times, cl.w2)]))
    classes = device.flow_classes()
    for cl in report.classes:
        band = null_band(classes[cl.label]["flow"], grid.times, cl.count,
                         table=cl.table)
        verdict = "consistent" if cl.sup_w2 <= band else "INCONSISTENT"
        # the band's unit sqrt(max_t E[W2^2]) on the band's own line, so
        # each class still prints one "null band" line
        print(f"class {cl.label}: sup_t W2 = {cl.sup_w2:.4g}, "
              f"null band = {band:.4g} (sqrt(max_t E[W2^2]) = "
              f"{band / BAND_FACTOR:.4g}) -> {verdict}"
              + (" (low sample count)" if cl.flagged else ""))


def _run_mkv(cfg: RunConfig):
    model, _, _, grid = _game(cfg)
    action = cfg.b if cfg.action is None else cfg.action
    res = mckean_vlasov_fixed_point(model, grid, action, cfg.particles,
                                    cfg.max_iters, cfg.tol, cfg.seed)
    base = _base_path(cfg.out)
    write_csv(base + ".csv", config_dict(cfg), ["t", "mean", "var"],
              [res.times, res.mean, res.var])
    write_csv(base + "_trace.csv", config_dict(cfg),
              ["iteration", "w2_to_previous"],
              [range(1, len(res.distances) + 1), res.distances])
    status = "converged" if res.converged else "DID NOT CONVERGE"
    print(f"{status} in {res.iterations} iterations; "
          f"terminal mean {res.mean[-1]:.4g}, var {res.var[-1]:.4g}")


_RUNNERS = {"region": _run_region, "gap": _run_gap, "mfgap": _run_mfgap,
            "poc": _run_poc, "consistency": _run_consistency, "mkv": _run_mkv}


def main(argv=None) -> int:
    try:
        cfg = resolve_config(sys.argv[1:] if argv is None else argv)
    except ConfigError as exc:
        for field, msg in exc.problems:
            print(f"config error: {field}: {msg}", file=sys.stderr)
        return 2
    try:
        _RUNNERS[cfg.command](cfg)
    except SimulationError as exc:
        print(f"simulation failed at step {exc.step}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
