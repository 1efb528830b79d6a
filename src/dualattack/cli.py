"""Command line front end.

Subcommands cover the table generators (krawtchouk, exponent,
lattice-score), the decoder (decode), the survival-curve experiment
(survival) and the exact duality self-check (duality-check).  Configs
are flat INI files with one section per concern; every CSV written to
disk gets a sibling <stem>.meta.json recording the git revision, the
seed, wall time and an echo of the resolved configuration.  Data files
are byte-identical across reruns with the same config and seed; wall
time lives only in the metadata.

Exit codes: 0 on success, 2 on any configuration problem (message names
the file, line and field where possible), 1 when a size or enumeration
budget is exceeded or a check fails.
"""

import argparse
import configparser
import csv
import itertools
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from . import asymptotics
from .asymptotics import ALGORITHMS, exponent_curve
from .codes import DecodingInstance, draw_partition, random_code
from .decoder import DoubleRlpnParams, double_rlpn
from .duality import (ModelParams, duality_check, experimental_survival,
                      independence_survival, poisson_survival)
from .errors import (BudgetExceeded, ConfigError, DomainError,
                     DualAttackError, EmptySamples)
from .krawtchouk import krawtchouk_exact
from .lattice import (MODELS, PRESETS, LatticeScoreParams, preset_params,
                      survival_refined)
from .samples import AuxCode

FORMAT_VERSION = 1
# rate points one exponent run may ask for
MAX_RATES = 10 ** 4


# ---------------------------------------------------------------------------
# config files

class Config:
    """Parsed INI config: section -> {key: (raw value, line number)}."""

    def __init__(self, path, sections, section_lines):
        self.path = str(path)
        self.sections = sections
        self.section_lines = section_lines

    def where(self, section):
        line = self.section_lines.get(section)
        return f"{self.path}:{line}" if line else self.path


def read_config(path):
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"{path}: no such config file")
    text = p.read_text(encoding="utf-8")
    cp = configparser.ConfigParser(interpolation=None, delimiters=("=",),
                                   comment_prefixes=("#", ";"))
    cp.optionxform = str
    try:
        cp.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc
    # index the raw text so schema errors can point at the source line
    key_lines = {}
    section_lines = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            section_lines.setdefault(section, lineno)
        elif stripped and not stripped.startswith(("#", ";")) and "=" in raw:
            key = raw.split("=", 1)[0].strip()
            if section is not None:
                key_lines.setdefault((section, key), lineno)
    sections = {}
    for name in cp.sections():
        sections[name] = {}
        for key, value in cp[name].items():
            line = key_lines.get((name, key), section_lines.get(name, 0))
            sections[name][key] = (value.strip(), line)
    return Config(p, sections, section_lines)


def check_sections(cfg, allowed):
    for name in cfg.sections:
        if name not in allowed:
            raise ConfigError(f"{cfg.where(name)}: unknown section [{name}]")


def section_values(cfg, name, fields, required=()):
    """Validate one section against {key: converter}.  Unknown keys and
    missing required keys exit with the offending location."""
    present = cfg.sections.get(name, {})
    for key, (_, line) in present.items():
        if key not in fields:
            raise ConfigError(
                f"{cfg.path}:{line}: unknown field '{key}' in [{name}]")
    for key in required:
        if key not in present:
            raise ConfigError(
                f"{cfg.path}: missing required field '{key}' in [{name}]")
    out = {}
    for key, (raw, line) in present.items():
        try:
            out[key] = fields[key](raw)
        except ValueError as exc:
            raise ConfigError(
                f"{cfg.path}:{line}: field '{key}': {exc}") from None
    return out


def _int(raw):
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"expected an integer, got {raw!r}") from None


def _pos_int(raw):
    v = _int(raw)
    if v < 1:
        raise ValueError(f"expected a positive integer, got {v}")
    return v


def _nonneg_int(raw):
    v = _int(raw)
    if v < 0:
        raise ValueError(f"expected a nonnegative integer, got {v}")
    return v


def _float(raw):
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"expected a number, got {raw!r}") from None


def _num_x(raw):
    if raw == "all":
        return "all"
    return _pos_int(raw)


# ---------------------------------------------------------------------------
# output plumbing

def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)


def write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        wr = csv.writer(fh, lineterminator="\n")
        wr.writerow(header)
        for row in rows:
            wr.writerow([_fmt(v) for v in row])


def _git_describe():
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=Path(__file__).resolve().parent,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def write_metadata(csv_path, subcommand, seed, config_echo, t0, extra=None):
    meta = {
        "format_version": FORMAT_VERSION,
        "subcommand": subcommand,
        "git_describe": _git_describe(),
        "seed": seed,
        "wall_time_s": round(time.monotonic() - t0, 6),
        "config": config_echo,
    }
    if extra:
        meta.update(extra)
    mpath = Path(csv_path).with_suffix(".meta.json")
    mpath.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n",
                     encoding="utf-8")
    return mpath


# ---------------------------------------------------------------------------
# subcommands

def _cmd_krawtchouk(args):
    n, w = args.n, args.w
    if n < 1:
        raise ConfigError("--n must be a positive integer")
    if not 0 <= w <= n:
        raise ConfigError("--w must lie in [0, n]")
    t0 = time.monotonic()
    rows = [(t, krawtchouk_exact(n, w, t)) for t in range(n + 1)]
    header = ["t", "value"]
    if args.out:
        write_csv(args.out, header, rows)
        write_metadata(args.out, "krawtchouk", None,
                       {"n": n, "w": w}, t0)
    else:
        wr = csv.writer(sys.stdout, lineterminator="\n")
        wr.writerow(header)
        wr.writerows(rows)
    return 0


def _cmd_decode(args):
    cfg = read_config(args.config)
    check_sections(cfg, {"instance", "params"})
    inst_fields = {"n": _pos_int, "k": _pos_int, "t": _nonneg_int,
                   "seed": _nonneg_int}
    ic = section_values(cfg, "instance", inst_fields, ("n", "k", "t"))
    par_fields = {"s": _pos_int, "u": _nonneg_int, "w": _pos_int,
                  "k_aux": _pos_int, "t_aux": _nonneg_int,
                  "N_aux": _pos_int, "N_iter": _pos_int,
                  "sample_budget": _pos_int, "seed": _nonneg_int}
    pc = section_values(cfg, "params", par_fields,
                        ("s", "u", "w", "k_aux", "t_aux"))
    seed = ic.get("seed", 0)
    pc.setdefault("seed", seed)
    try:
        params = DoubleRlpnParams(**pc)
        params.validate(ic["n"], ic["k"], ic["t"])
    except DomainError as exc:
        raise ConfigError(f"{cfg.where('params')}: {exc}") from exc
    code = random_code(ic["n"], ic["k"], seed=[seed, 101])
    instance = DecodingInstance.plant(code, ic["t"], seed=[seed, 102])
    stats = {}
    t0 = time.monotonic()
    e = double_rlpn(instance, params, stats)
    wall_ms = (time.monotonic() - t0) * 1000.0
    record = {
        "format_version": FORMAT_VERSION,
        "found": e is not None,
        "e": np.packbits(e).tobytes().hex() if e is not None else None,
        "trials_used": int(stats.get("trials_used", 0)),
        "wall_time_ms": round(wall_ms, 3),
    }
    text = json.dumps(record)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    return 0


def _cmd_survival(args):
    cfg = read_config(args.config)
    check_sections(cfg, {"model", "experiment", "grid"})
    model_fields = {key: _nonneg_int for key in
                    ("n", "k", "t", "s", "u", "w", "k_aux", "t_aux")}
    mc = section_values(cfg, "model", model_fields,
                        ("n", "k", "t", "s", "u", "w", "k_aux", "t_aux"))
    exp_fields = {"seed": _nonneg_int, "trials": _pos_int,
                  "num_x": _num_x, "sample_budget": _pos_int}
    ec = section_values(cfg, "experiment", exp_fields)
    seed = ec.get("seed", 0)
    trials = ec.get("trials", 10 ** 5)
    grid = None
    if "grid" in cfg.sections:
        gc = section_values(cfg, "grid",
                            {"min": _float, "max": _float,
                             "points": _pos_int},
                            ("min", "max", "points"))
        if gc["points"] < 2 or gc["max"] < gc["min"]:
            raise ConfigError(
                f"{cfg.where('grid')}: need points >= 2 and max >= min")
        grid = np.linspace(gc["min"], gc["max"], gc["points"]).tolist()
    try:
        nparams = ModelParams(mc["n"], mc["k"], mc["t"], mc["s"], mc["u"],
                              mc["w"], mc["k_aux"], mc["t_aux"])
        dparams = DoubleRlpnParams(mc["s"], mc["u"], mc["w"], mc["k_aux"],
                                   mc["t_aux"],
                                   sample_budget=ec.get("sample_budget"))
        dparams.validate(mc["n"], mc["k"], mc["t"])
    except DomainError as exc:
        raise ConfigError(f"{cfg.where('model')}: {exc}") from exc
    t0 = time.monotonic()
    code = random_code(mc["n"], mc["k"], seed=[seed, 101])
    instance = DecodingInstance.plant(code, mc["t"], seed=[seed, 102])
    exp = experimental_survival(instance, dparams,
                                num_x=ec.get("num_x", "all"),
                                seed=seed, grid=grid)
    n_samples = int(exp.meta["samples"])
    shared = grid if grid is not None else exp.thresholds
    poi = poisson_survival(nparams, trials=trials, seed=seed,
                           n_samples=n_samples, grid=shared)
    ind = independence_survival(nparams, n_samples, grid=shared)
    rows = [row for curve in (exp, poi, ind) for row in curve.rows()]
    write_csv(args.out, ["label", "threshold", "count", "ci_low", "ci_high"],
              rows)
    write_metadata(args.out, "survival", seed,
                   {"model": mc, "experiment": ec,
                    "grid": "explicit" if grid is not None else "natural"},
                   t0,
                   {"curves": {c.label: c.meta for c in (exp, poi, ind)}})
    return 0


def _cmd_exponent(args):
    algs = [a.strip() for a in args.algs.split(",") if a.strip()]
    if not algs:
        raise ConfigError("--algs must name at least one algorithm")
    for alg in algs:
        if alg not in ALGORITHMS:
            raise ConfigError(
                f"unknown algorithm {alg!r}; choose from "
                + ",".join(ALGORITHMS))
    if not 0.0 < args.rmin <= args.rmax < 1.0:
        raise ConfigError("need 0 < rmin <= rmax < 1")
    if not 0 < args.step < math.inf:
        raise ConfigError("--step must be positive and finite")
    if (args.rmax - args.rmin) / args.step >= MAX_RATES:
        raise ConfigError(f"--step {args.step!r} gives more than {MAX_RATES} rates")
    grid = []
    i = 0
    while True:
        r = round(args.rmin + i * args.step, 12)
        if r > args.rmax + 1e-12:
            break
        grid.append(r)
        i += 1
    t0 = time.monotonic()
    points = exponent_curve(algs, grid, seed=args.seed, N_aux=args.naux)
    rows = []
    for p in points:
        if p.argmin is None:
            extras = [""] * 5
        else:
            extras = [p.argmin.sigma, p.argmin.R_aux, p.argmin.tau_aux,
                      p.argmin.omega, p.argmin.mu]
        rows.append((p.algorithm, p.R, p.tau, p.alpha, p.feasible, *extras))
    write_csv(args.out,
              ["algorithm", "R", "tau", "alpha", "feasible",
               "sigma", "R_aux", "tau_aux", "omega", "mu"],
              rows)
    write_metadata(args.out, "exponent", args.seed,
                   {"algs": algs, "rmin": args.rmin, "rmax": args.rmax,
                    "step": args.step, "N_aux": args.naux,
                    "restarts": asymptotics.RESTARTS}, t0)
    return 0


def _cmd_lattice_score(args):
    if args.preset == "custom":
        if not args.config:
            raise ConfigError("--preset custom needs --config")
        cfg = read_config(args.config)
        check_sections(cfg, {"lattice"})
        fields = {"n": _pos_int, "q": _pos_int, "log_volume": _float,
                  "N": _pos_int, "w": _float, "T": _float}
        lc = section_values(cfg, "lattice", fields,
                            ("n", "q", "log_volume", "N", "w"))
        try:
            params = LatticeScoreParams(lc["n"], lc["q"], lc["log_volume"],
                                        lc["N"], lc["w"], lc.get("T", 0.0))
        except DomainError as exc:
            raise ConfigError(f"{cfg.where('lattice')}: {exc}") from exc
        echo = dict(lc)
    else:
        if args.config:
            raise ConfigError("--config only applies to --preset custom")
        params = preset_params(args.preset)
        echo = {"preset": args.preset}
    tmax = args.tmax
    if tmax is None:
        tmax = float(np.ceil(10.0 * np.sqrt(params.N / 2.0)))
    if args.points < 2 or tmax < args.tmin:
        raise ConfigError("need --points >= 2 and --tmax >= --tmin")
    grid = np.linspace(args.tmin, tmax, args.points)
    t0 = time.monotonic()
    curve = survival_refined(params, grid, mc_trials=args.trials,
                             seed=args.seed, shortest_terms=args.terms)
    rows = []
    for model in MODELS:
        for t, s, lo, hi in zip(curve.thresholds, curve.survival[model],
                                curve.ci_low[model], curve.ci_high[model]):
            rows.append((model, float(t), float(s), float(lo), float(hi)))
    write_csv(args.out,
              ["model", "threshold", "survival", "ci_low", "ci_high"], rows)
    write_metadata(args.out, "lattice-score", args.seed,
                   {**echo, "tmin": args.tmin, "tmax": tmax,
                    "points": args.points, "trials": args.trials,
                    "terms": args.terms},
                   t0, {"curve": curve.meta})
    return 0


def _cmd_duality_check(args):
    n, k, s, kaux = args.n, args.k, args.s, args.kaux
    if not (1 <= k < n and 1 <= s < n and 1 <= kaux <= s):
        raise ConfigError("need 1 <= k < n, 1 <= s < n, 1 <= kaux <= s")
    if args.trials < 1:
        raise ConfigError("--trials must be positive")
    done = exact = attempt = 0
    while done < args.trials:
        if attempt >= 50 * args.trials:
            raise BudgetExceeded(
                f"only {done}/{args.trials} instances had usable samples")
        rng = np.random.default_rng([args.seed, attempt])
        code = random_code(n, k, seed=[args.seed, attempt, 1])
        part, _ = draw_partition(code, s, itertools.repeat(rng, 200))
        if part is None:
            attempt += 1
            continue
        aux = AuxCode.random(s, kaux, 1, seed=[args.seed, attempt, 2])
        e = rng.integers(0, 2, size=n, dtype=np.uint8)
        y = code.encode(rng.integers(0, 2, size=k, dtype=np.uint8)) ^ e
        x = rng.integers(0, 2, size=s, dtype=np.uint8)
        w = 1 + attempt % 3
        attempt += 1
        try:
            lhs, rhs = duality_check(code, aux, part, e, y, x, w)
        except EmptySamples:
            continue
        done += 1
        exact += int(lhs == rhs)
    print(f"{exact}/{done} exact")
    return 0 if exact == done else 1


# ---------------------------------------------------------------------------
# dispatch

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def build_parser():
    parser = _Parser(prog="dualattack",
                     description="dual-attack decoding laboratory")
    sub = parser.add_subparsers(dest="cmd", parser_class=_Parser)

    p = sub.add_parser("krawtchouk", help="emit one polynomial's value table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--out", default=None,
                   help="CSV path; stdout when omitted")

    p = sub.add_parser("decode", help="run the decoder on a planted instance")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="also write the JSON record")

    p = sub.add_parser("survival",
                       help="experimental vs model candidate-survival curves")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="curves.csv")

    p = sub.add_parser("exponent", help="asymptotic complexity exponents")
    p.add_argument("--algs", default=",".join(ALGORITHMS))
    p.add_argument("--rmin", type=float, required=True)
    p.add_argument("--rmax", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--seed", type=_nonneg_int, default=0)
    p.add_argument("--naux", type=int, default=1)
    p.add_argument("--out", default="fig1.csv")

    p = sub.add_parser("lattice-score",
                       help="score survival models for a lattice preset")
    p.add_argument("--preset", required=True, choices=PRESETS + ("custom",))
    p.add_argument("--config", default=None)
    p.add_argument("--tmin", type=float, default=0.0)
    p.add_argument("--tmax", type=float, default=None)
    p.add_argument("--points", type=int, default=51)
    p.add_argument("--trials", type=int, default=200000)
    p.add_argument("--terms", type=int, default=1)
    p.add_argument("--seed", type=_nonneg_int, default=0)
    p.add_argument("--out", default="curve.csv")

    p = sub.add_parser("duality-check",
                       help="exact identity check on random instances")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--kaux", type=int, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=_nonneg_int, default=0)

    return parser


_DISPATCH = {
    "krawtchouk": _cmd_krawtchouk,
    "decode": _cmd_decode,
    "survival": _cmd_survival,
    "exponent": _cmd_exponent,
    "lattice-score": _cmd_lattice_score,
    "duality-check": _cmd_duality_check,
}


def run(argv=None):
    try:
        args = build_parser().parse_args(argv)
        if args.cmd is None:
            raise ConfigError("a subcommand is required")
        return _DISPATCH[args.cmd](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 1
    except DualAttackError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    raise SystemExit(run())
