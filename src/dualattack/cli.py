"""Command line front end.

Subcommands cover the table generators (krawtchouk, exponent,
lattice-score), the decoder (decode), the survival-curve experiment
(survival) and the exact duality self-check (duality-check).

Configs are flat INI files that read_config checks line by line
against one schema per subcommand; integer flags share its converters,
and the directory of any --out is checked before the subcommand starts.

Every CSV written to disk gets a sibling <stem>.meta.json recording the
git revision, the seed, wall time and an echo of the resolved
configuration.  Data files are byte-identical across reruns with the
same config and seed; wall time lives only in the metadata.

Exit codes: 0 on success, 2 on any configuration problem (message names
the file and line, or the flag), 1 when a size or enumeration budget is
exceeded or a check fails.
"""

import argparse
import csv
import itertools
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from .asymptotics import ALGORITHMS, exponent_curve
from .codes import DecodingInstance, draw_partition, random_code
from .decoder import DoubleRlpnParams, double_rlpn
from .duality import (MAX_POISSON_TRIALS, MIN_POISSON_TRIALS, ModelParams,
                      duality_check, experimental_survival,
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
# thresholds one survival or lattice-score grid may ask for
MAX_GRID_POINTS = 1 << 16


# ---------------------------------------------------------------------------
# inputs: one set of converters for config fields and integer flags

def _int(raw):
    try:
        return int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {raw!r}") from None


def _pos_int(raw):
    v = _int(raw)
    if v < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {v}")
    return v


def _nonneg_int(raw):
    v = _int(raw)
    if v < 0:
        raise argparse.ArgumentTypeError(
            f"expected a nonnegative integer, got {v}")
    return v


def _float(raw):
    try:
        return float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number, got {raw!r}") from None


def _num_x(raw):
    if raw == "all":
        return "all"
    return _pos_int(raw)


def _grid(lo, hi, points, names, at=""):
    """np.linspace(lo, hi, points) once both bounds are finite, hi >= lo and
    2 <= points <= MAX_GRID_POINTS; messages give at, then the three names."""
    lo_name, hi_name, points_name = names
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"{at}{lo_name} and {hi_name} must be finite")
    if points < 2 or hi < lo:
        raise ConfigError(f"{at}need {points_name} >= 2 and "
                          f"{hi_name} >= {lo_name}")
    if points > MAX_GRID_POINTS:
        raise BudgetExceeded(f"{at}{points_name} {points} exceeds "
                             f"{MAX_GRID_POINTS}")
    return np.linspace(lo, hi, points)


def read_config(path, schema):
    """Read a flat INI file once, checking it against schema,
    {section: ({key: converter}, required keys)}.

    A line is `[section]`, `key = value` split at the first `=`, a
    whole-line `#` or `;` comment, or blank; leading whitespace is
    ignored.  There is no [DEFAULT] section, continuation line or inline
    comment, and a repeated section or field is refused.  Returns
    ({section: {key: value}}, {section: "path:line"}) for the sections
    present; every problem raises ConfigError naming the file and line.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(
            f"{path}: cannot read config: {exc.strerror}") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"{path}:{line}: not UTF-8 text") from None
    values, where = {}, {}
    section = None
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        at = f"{path}:{lineno}"
        if not line or line[0] in "#;":
            continue
        if line[0] == "[" and line[-1] == "]":
            section = line[1:-1].strip()
            if section not in schema:
                raise ConfigError(f"{at}: unknown section [{section}]")
            if section in values:
                raise ConfigError(f"{at}: repeated section [{section}]")
            values[section], where[section] = {}, at
            continue
        key, eq, raw_value = line.partition("=")
        key = key.strip()
        if not eq or not key:
            raise ConfigError(f"{at}: expected [section] or key = value")
        if section is None:
            raise ConfigError(f"{at}: field '{key}' before any [section]")
        fields = schema[section][0]
        if key not in fields:
            raise ConfigError(f"{at}: unknown field '{key}' in [{section}]")
        if key in values[section]:
            raise ConfigError(f"{at}: repeated field '{key}' in [{section}]")
        try:
            values[section][key] = fields[key](raw_value.strip())
        except argparse.ArgumentTypeError as exc:
            raise ConfigError(f"{at}: field '{key}': {exc}") from None
    for name, (_, required) in schema.items():
        for key in required:
            if key not in values.get(name, {}):
                raise ConfigError(
                    f"{path}: missing required field '{key}' in [{name}]")
    return values, where


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
    if w > n:
        raise ConfigError("--w must not exceed --n")
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
    cfg, where = read_config(args.config, {
        "instance": ({"n": _pos_int, "k": _pos_int, "t": _nonneg_int,
                      "seed": _nonneg_int}, ("n", "k", "t")),
        "params": ({"s": _pos_int, "u": _nonneg_int, "w": _pos_int,
                    "k_aux": _pos_int, "t_aux": _nonneg_int,
                    "N_aux": _pos_int, "N_iter": _pos_int,
                    "sample_budget": _pos_int, "seed": _nonneg_int},
                   ("s", "u", "w", "k_aux", "t_aux")),
    })
    ic, pc = cfg["instance"], cfg["params"]
    seed = ic.get("seed", 0)
    pc.setdefault("seed", seed)
    try:
        params = DoubleRlpnParams(**pc)
        params.validate(ic["n"], ic["k"], ic["t"])
    except DomainError as exc:
        raise ConfigError(f"{where['params']}: {exc}") from exc
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
    model_keys = ("n", "k", "t", "s", "u", "w", "k_aux", "t_aux")
    cfg, where = read_config(args.config, {
        "model": (dict.fromkeys(model_keys, _nonneg_int), model_keys),
        "experiment": ({"seed": _nonneg_int, "trials": _pos_int,
                        "num_x": _num_x, "sample_budget": _pos_int}, ()),
        "grid": ({"min": _float, "max": _float, "points": _pos_int}, ()),
    })
    mc, ec = cfg["model"], cfg.get("experiment", {})
    seed = ec.get("seed", 0)
    trials = ec.get("trials", 10 ** 5)
    if trials < MIN_POISSON_TRIALS:
        raise ConfigError(f"{where['experiment']}: trials must be at least "
                          f"{MIN_POISSON_TRIALS} for the Poisson model")
    if trials > MAX_POISSON_TRIALS:
        raise BudgetExceeded(f"{where['experiment']}: {trials} Poisson trials "
                             f"exceed {MAX_POISSON_TRIALS}")
    num_x = ec.get("num_x", "all")
    if num_x != "all" and num_x >= 2 ** mc["k_aux"]:
        raise ConfigError(f"{where['experiment']}: num_x exceeds the "
                          f"{2 ** mc['k_aux'] - 1} wrong candidates")
    grid = None
    if "grid" in cfg:
        gc, at = cfg["grid"], f"{where['grid']}: [grid] "
        if len(gc) < 3:
            raise ConfigError(f"{at}needs min, max and points")
        grid = _grid(gc["min"], gc["max"], gc["points"],
                     ("min", "max", "points"), at).tolist()
    try:
        nparams = ModelParams(mc["n"], mc["k"], mc["t"], mc["s"], mc["u"],
                              mc["w"], mc["k_aux"], mc["t_aux"])
        dparams = DoubleRlpnParams(mc["s"], mc["u"], mc["w"], mc["k_aux"],
                                   mc["t_aux"],
                                   sample_budget=ec.get("sample_budget"))
    except DomainError as exc:
        raise ConfigError(f"{where['model']}: {exc}") from exc
    over = dparams.tables_over_budget(mc["n"], mc["t"], searches=False)
    if over:
        raise BudgetExceeded(f"{where['model']}: " + ", ".join(over)
                             + " over budget before any draw")
    t0 = time.monotonic()
    code = random_code(mc["n"], mc["k"], seed=[seed, 101])
    instance = DecodingInstance.plant(code, mc["t"], seed=[seed, 102])
    exp = experimental_survival(instance, dparams, num_x=num_x, seed=seed,
                                grid=grid)
    n_samples = int(exp.meta["samples"])
    if n_samples == 0:
        raise ConfigError(f"{where['model']}: no pairs were drawn at seed "
                          f"{seed}, and the model curves need at least one")
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
    if not 1e-12 <= args.step < math.inf:
        # rates are rounded to 12 decimals, so a finer step repeats them
        raise ConfigError("--step must be finite and at least 1e-12")
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
    points = exponent_curve(algs, grid, N_aux=args.naux)
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
    write_metadata(args.out, "exponent", None,
                   {"algs": algs, "rmin": args.rmin, "rmax": args.rmax,
                    "step": args.step, "N_aux": args.naux}, t0)
    return 0


def _cmd_lattice_score(args):
    if args.preset == "custom":
        if not args.config:
            raise ConfigError("--preset custom needs --config")
        cfg, where = read_config(args.config, {
            "lattice": ({"n": _pos_int, "log_volume": _float,
                         "N": _pos_int, "w": _float},
                        ("n", "log_volume", "N", "w")),
        })
        lc = cfg["lattice"]
        try:
            params = LatticeScoreParams(**lc)
        except DomainError as exc:
            raise ConfigError(f"{where['lattice']}: {exc}") from exc
        echo = dict(lc)
    else:
        if args.config:
            raise ConfigError("--config only applies to --preset custom")
        params = preset_params(args.preset)
        echo = {"preset": args.preset}
    tmax = args.tmax
    if tmax is None:
        tmax = float(np.ceil(10.0 * np.sqrt(params.N / 2.0)))
    grid = _grid(args.tmin, tmax, args.points, ("--tmin", "--tmax", "--points"))
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
    if not (k < n and s < n and kaux <= s):
        raise ConfigError("need --k < --n, --s < --n and --kaux <= --s")
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
    p.add_argument("--n", type=_pos_int, required=True)
    p.add_argument("--w", type=_nonneg_int, required=True)
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
    p.add_argument("--rmin", type=_float, required=True)
    p.add_argument("--rmax", type=_float, required=True)
    p.add_argument("--step", type=_float, required=True)
    p.add_argument("--naux", type=_pos_int, default=1)
    p.add_argument("--out", default="fig1.csv")

    p = sub.add_parser("lattice-score",
                       help="score survival models for a lattice preset")
    p.add_argument("--preset", required=True, choices=PRESETS + ("custom",))
    p.add_argument("--config", default=None)
    p.add_argument("--tmin", type=_float, default=0.0)
    p.add_argument("--tmax", type=_float, default=None)
    p.add_argument("--points", type=_int, default=51)
    p.add_argument("--trials", type=_pos_int, default=200000)
    p.add_argument("--terms", type=_pos_int, default=1)
    p.add_argument("--seed", type=_nonneg_int, default=0)
    p.add_argument("--out", default="curve.csv")

    p = sub.add_parser("duality-check",
                       help="exact identity check on random instances")
    p.add_argument("--n", type=_pos_int, required=True)
    p.add_argument("--k", type=_pos_int, required=True)
    p.add_argument("--s", type=_pos_int, required=True)
    p.add_argument("--kaux", type=_pos_int, required=True)
    p.add_argument("--trials", type=_pos_int, default=100)
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


def _check_out(out):
    """Refuse an --out the subcommand could not write, before any work."""
    if out is None:
        return
    path = Path(out)
    if path.is_dir():
        raise ConfigError(f"--out {out!r} is not a file name")
    if not path.parent.is_dir():
        raise ConfigError(f"--out {out}: no directory {path.parent}")
    if not os.access(path.parent, os.W_OK | os.X_OK):
        raise ConfigError(f"--out {out}: cannot write in {path.parent}")


def run(argv=None):
    try:
        args = build_parser().parse_args(argv)
        if args.cmd is None:
            raise ConfigError("a subcommand is required")
        _check_out(getattr(args, "out", None))
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
