"""Command-line front end: dispatch, config validation, file formats,
byte-level determinism and exit codes."""

import csv
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from dualattack import _kernels as K
from dualattack import cli
from dualattack import codes as C
from dualattack.krawtchouk import krawtchouk_exact


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_krawtchouk_stdout(capsys):
    assert cli.run(["krawtchouk", "--n", "8", "--w", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "t,value"
    assert len(lines) == 10
    for t, line in enumerate(lines[1:]):
        assert line == f"{t},{krawtchouk_exact(8, 3, t)}"


def test_krawtchouk_csv_and_metadata(tmp_path):
    out = tmp_path / "table.csv"
    assert cli.run(["krawtchouk", "--n", "6", "--w", "2",
                    "--out", str(out)]) == 0
    raw = out.read_bytes()
    assert b"\r" not in raw
    header, rows = _read_csv(out)
    assert header == ["t", "value"]
    assert [int(r[1]) for r in rows] == [krawtchouk_exact(6, 2, t)
                                         for t in range(7)]
    meta = json.loads((tmp_path / "table.meta.json").read_text())
    assert meta["format_version"] == 1
    assert meta["subcommand"] == "krawtchouk"
    assert meta["config"] == {"n": 6, "w": 2}
    assert "git_describe" in meta and "wall_time_s" in meta


def test_krawtchouk_bad_range(capsys):
    assert cli.run(["krawtchouk", "--n", "6", "--w", "9"]) == 2
    assert "--w" in capsys.readouterr().err


DECODE_INI = """\
[instance]
n = 24
k = 12
t = 3
seed = 5

[params]
s = 10
u = 2
w = 3
k_aux = 4
t_aux = 1
"""


def test_decode_record_and_soundness(tmp_path, capsys):
    cfg = tmp_path / "dec.ini"
    cfg.write_text(DECODE_INI)
    out = tmp_path / "dec.json"
    assert cli.run(["decode", "--config", str(cfg),
                    "--out", str(out)]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert set(rec) == {"format_version", "found", "e", "trials_used",
                        "wall_time_ms"}
    assert json.loads(out.read_text()) == rec
    assert rec["trials_used"] >= 1
    if rec["found"]:
        bits = np.unpackbits(np.frombuffer(bytes.fromhex(rec["e"]),
                                           np.uint8))[:24]
        assert int(bits.sum()) == 3
        code = C.random_code(24, 12, seed=[5, 101])
        inst = C.DecodingInstance.plant(code, 3, seed=[5, 102])
        assert code.contains((inst.y + bits) % 2)


def test_decode_missing_field(tmp_path, capsys):
    cfg = tmp_path / "dec.ini"
    cfg.write_text("[instance]\nn = 24\nk = 12\n")
    assert cli.run(["decode", "--config", str(cfg)]) == 2
    assert "'t'" in capsys.readouterr().err


def test_decode_bad_value_names_line(tmp_path, capsys):
    cfg = tmp_path / "dec.ini"
    cfg.write_text("[instance]\nn = 24\nk = twelve\nt = 3\n"
                   "[params]\ns = 10\nu = 2\nw = 3\nk_aux = 4\nt_aux = 1\n")
    assert cli.run(["decode", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"{cfg}:3" in err and "'k'" in err


def test_decode_inconsistent_params_exit_2(tmp_path, capsys):
    cfg = tmp_path / "dec.ini"
    cfg.write_text(DECODE_INI.replace("u = 2", "u = 9"))
    assert cli.run(["decode", "--config", str(cfg)]) == 2


def test_decode_score_table_budget_exit_1(tmp_path, capsys):
    # k_aux = 40 would need a 2^40-entry score table (8 TiB)
    cfg = tmp_path / "dec.ini"
    cfg.write_text("[instance]\nn = 48\nk = 44\nt = 1\n"
                   "[params]\ns = 42\nu = 0\nw = 1\nk_aux = 40\nt_aux = 1\n")
    assert cli.run(["decode", "--config", str(cfg)]) == 1
    assert "score table" in capsys.readouterr().err


def test_decode_syndrome_tables_budget_exit_1(tmp_path, capsys,
                                               monkeypatch):
    # the README config: its N-side search needs 598 subset-table entries,
    # so a cap of 500 refuses the run instead of skipping every trial
    cfg = tmp_path / "dec.ini"
    cfg.write_text("[instance]\nn = 40\nk = 20\nt = 5\nseed = 7\n"
                   "[params]\ns = 16\nu = 3\nw = 5\nk_aux = 8\nt_aux = 1\n")
    monkeypatch.setattr(K, "MITM_HALF_CAP", 500)
    assert cli.run(["decode", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert "budget exceeded" in captured.err and not captured.out


@pytest.mark.parametrize("text, line, fragment", [
    (b"[DEFAULT]\nseed = 3\n" + DECODE_INI.encode(), 1, "[DEFAULT]"),
    (DECODE_INI.encode() + b"\n[instance]\n", 14, "repeated section"),
    (DECODE_INI.replace("t = 3\n", "t = 3\nt = 4\n").encode(), 5,
     "repeated field 't'"),
    (DECODE_INI.replace("seed = 5", "seed 5").encode(), 5, "key = value"),
    (DECODE_INI.replace("k = 12", "k = 1\xe9").encode("latin-1"), 3,
     "UTF-8"),
], ids=["default", "repeated-section", "repeated-field", "no-equals",
        "not-utf8"])
def test_malformed_config_names_line(text, line, fragment, tmp_path, capsys):
    cfg = tmp_path / "dec.ini"
    cfg.write_bytes(text)
    assert cli.run(["decode", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}:{line}: ") and fragment in err
    assert err.count("\n") == 1


def test_config_leading_whitespace_ignored(tmp_path):
    # an indented line is a field of its own, never a continuation
    cfg = tmp_path / "c.ini"
    cfg.write_text("  [instance]\n  ; note\nn = 24\nk = 20\n    t = 5\n")
    schema = {"instance": (dict.fromkeys("nkt", cli._pos_int), ("t",))}
    values, where = cli.read_config(cfg, schema)
    assert values == {"instance": {"n": 24, "k": 20, "t": 5}}
    assert where == {"instance": f"{cfg}:1"}


SURV_INI = """\
[model]
n = 24
k = 12
t = 4
s = 10
u = 2
w = 3
k_aux = 4
t_aux = 1

[experiment]
seed = 3
trials = 20000
"""


def test_survival_three_labeled_curves(tmp_path):
    cfg = tmp_path / "surv.ini"
    cfg.write_text(SURV_INI)
    out = tmp_path / "curves.csv"
    assert cli.run(["survival", "--config", str(cfg),
                    "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    assert header == ["label", "threshold", "count", "ci_low", "ci_high"]
    labels = {r[0] for r in rows}
    assert labels == {"experimental", "poisson", "independence"}
    for label in labels:
        sub = [r for r in rows if r[0] == label]
        ts = [float(r[1]) for r in sub]
        cs = [float(r[2]) for r in sub]
        assert ts == sorted(ts)
        assert all(a >= b for a, b in zip(cs, cs[1:]))
        for r in sub:
            assert float(r[3]) <= float(r[2]) + 1e-12 <= float(r[4]) + 2e-12
    meta = json.loads((tmp_path / "curves.meta.json").read_text())
    assert set(meta["curves"]) == labels
    assert meta["seed"] == 3


def test_survival_explicit_grid_shared(tmp_path):
    cfg = tmp_path / "surv.ini"
    cfg.write_text(SURV_INI + "\n[grid]\nmin = -10\nmax = 30\npoints = 9\n")
    out = tmp_path / "curves.csv"
    assert cli.run(["survival", "--config", str(cfg),
                    "--out", str(out)]) == 0
    _, rows = _read_csv(out)
    want = np.linspace(-10.0, 30.0, 9)
    for label in ("experimental", "poisson", "independence"):
        ts = [float(r[1]) for r in rows if r[0] == label]
        assert np.allclose(ts, want)


@pytest.mark.parametrize("bound", ["min = nan\nmax = 30", "min = -10\nmax = inf", "min = -inf\nmax = 30"])
def test_survival_non_finite_grid_exit_2(bound, tmp_path, capsys):
    # refused naming the [grid] header (line 15); no CSV is written
    cfg = tmp_path / "surv.ini"
    cfg.write_text(SURV_INI + "\n[grid]\n%s\npoints = 9\n" % bound)
    out = tmp_path / "curves.csv"
    assert cli.run(["survival", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {cfg}:15: [grid] min and max must be finite\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["surv.ini"]


def test_survival_unknown_field_line_precise(tmp_path, capsys):
    cfg = tmp_path / "surv.ini"
    cfg.write_text("[model]\nn = 24\nbogus = 1\n")
    assert cli.run(["survival", "--config", str(cfg),
                    "--out", str(tmp_path / "x.csv")]) == 2
    assert f"{cfg}:3" in capsys.readouterr().err


def test_survival_unknown_section(tmp_path, capsys):
    cfg = tmp_path / "surv.ini"
    cfg.write_text(SURV_INI + "\n[plotting]\ncolor = red\n")
    assert cli.run(["survival", "--config", str(cfg),
                    "--out", str(tmp_path / "x.csv")]) == 2
    assert "[plotting]" in capsys.readouterr().err


def test_survival_without_pairs_names_model_and_writes_nothing(tmp_path, capsys):
    # this instance draws no pairs at experiment seed 2
    cfg = tmp_path / "surv.ini"
    cfg.write_text("[experiment]\nseed = 2\ntrials = 20000\n\n[model]\nn = 18\nk = 9\nt = 2\n"
                   "s = 6\nu = 1\nw = 1\nk_aux = 3\nt_aux = 1\n")
    out = tmp_path / "curves.csv"
    assert cli.run(["survival", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{cfg}:5" in err and "no pairs" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["surv.ini"]


def test_survival_too_few_trials_names_experiment_before_any_draw(tmp_path, capsys, monkeypatch):
    # the Poisson model's floor is checked before the experiment runs
    def refuse(*args, **kwargs):
        raise AssertionError("the experiment ran")

    monkeypatch.setattr(cli, "experimental_survival", refuse)
    cfg = tmp_path / "surv.ini"
    cfg.write_text(SURV_INI.replace("trials = 20000", "trials = 9999"))
    out = tmp_path / "curves.csv"
    assert cli.run(["survival", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{cfg}:11" in err and "10000" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["surv.ini"]


def test_survival_num_x_over_wrong_candidates_names_experiment_before_any_draw(
        tmp_path, capsys, monkeypatch):
    # k_aux = 4 leaves 15 wrong candidates, so num_x = 16 is refused
    def refuse(*args, **kwargs):
        raise AssertionError("the experiment ran")

    monkeypatch.setattr(cli, "experimental_survival", refuse)
    cfg = tmp_path / "surv.ini"
    cfg.write_text(SURV_INI + "num_x = 16\n")
    out = tmp_path / "curves.csv"
    assert cli.run(["survival", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {cfg}:11: num_x exceeds the 15 wrong candidates\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["surv.ini"]


@pytest.mark.parametrize("trials", [2 ** 25 + 1, 10 ** 12])
def test_survival_too_many_trials_exits_1_before_any_draw(trials, tmp_path, capsys, monkeypatch):
    # the Poisson model's cap is checked before the experiment runs
    def refuse(*args, **kwargs):
        raise AssertionError("the experiment ran")

    monkeypatch.setattr(cli, "experimental_survival", refuse)
    cfg = tmp_path / "surv.ini"
    cfg.write_text(SURV_INI.replace("trials = 20000", f"trials = {trials}"))
    out = tmp_path / "curves.csv"
    assert cli.run(["survival", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"budget exceeded: {cfg}:11: {trials} Poisson trials exceed")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["surv.ini"]


@pytest.mark.parametrize("model, cap, table", [
    # SURV_INI's dual enumeration (14 columns, weight 3) needs 128
    # subset-table entries
    (SURV_INI.split("\n[experiment]")[0], 100, "enumeration"),
    # a 2^27-entry score table
    ("[model]\nn = 48\nk = 44\nt = 1\ns = 42\nu = 0\nw = 1\nk_aux = 27\n"
     "t_aux = 1\n", None, "score"),
    # C(40, 7) = 18,643,560 weight-7 auxiliary syndrome patterns
    ("[model]\nn = 48\nk = 44\nt = 1\ns = 40\nu = 0\nw = 1\nk_aux = 4\n"
     "t_aux = 7\n", None, "syndrome"),
], ids=["enumeration", "score", "syndrome"])
def test_survival_refuses_parameter_tables_before_any_draw(model, cap, table, tmp_path,
                                                           capsys, monkeypatch):
    # the tables the experiment builds whose size the parameters alone
    # fix are checked before the code is drawn, naming the [model] line
    def refuse(*args, **kwargs):
        raise AssertionError("the code was drawn")

    monkeypatch.setattr(cli, "random_code", refuse)
    if cap is not None:
        monkeypatch.setattr(K, "MITM_HALF_CAP", cap)
    cfg = tmp_path / "surv.ini"
    cfg.write_text(model)
    out = tmp_path / "curves.csv"
    assert cli.run(["survival", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"budget exceeded: {cfg}:1: {table} table over budget before any draw\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["surv.ini"]


def test_survival_run_leaves_out_scipy_stats(tmp_path):
    # the independence curve's binomial tail comes from scipy.special
    cfg = tmp_path / "surv.ini"
    cfg.write_text(SURV_INI)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = ("import sys; from dualattack import cli; "
             "code = cli.run(['survival', '--config', %r, '--out', %r]); "
             "print(code, 'scipy.stats' in sys.modules)"
             % (str(cfg), str(tmp_path / "curves.csv")))
    res = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["0", "False"]


def test_survival_model_keys_are_its_own(tmp_path, monkeypatch):
    # every generator of a survival run, in cli, the experiment (with a
    # budget and a num_x subsample) and the Poisson model, is recorded by
    # its key; keys are compared by their seed sequences' state, which
    # equates keys that differ only by trailing zeros.  No two keys of
    # the run may be equal, nor any key of the model's blocks one of the
    # others'
    from dualattack import asymptotics as A
    from dualattack import duality as DU

    make, blocks = np.random.default_rng, DU._poisson_blocks
    keys, in_model = {"model": [], "other": []}, []

    def recording(key):
        keys["model" if in_model else "other"].append(key)
        return make(key)

    def model_blocks(*args):
        in_model.append(True)
        try:
            return blocks(*args)
        finally:
            in_model.pop()

    monkeypatch.setattr(A, "_cores", lambda: 1)
    monkeypatch.setattr(np.random, "default_rng", recording)
    monkeypatch.setattr(DU, "_poisson_blocks", model_blocks)
    cfg = tmp_path / "surv.ini"
    cfg.write_text(SURV_INI.replace("seed = 3", "seed = 2")
                   + "num_x = 5\nsample_budget = 8\n")
    assert cli.run(["survival", "--config", str(cfg), "--out", str(tmp_path / "c.csv")]) == 0
    meta = json.loads((tmp_path / "c.meta.json").read_text())["curves"]["experimental"]
    assert meta["complete"] is False and meta["num_x"] == 5

    def state(key):
        return tuple(np.random.SeedSequence(key).generate_state(4))

    model = {state(k) for k in keys["model"]}
    assert len(model) == len(keys["model"]) == 5
    # past the code, the error, the auxiliary code, the pair subset and
    # the num_x subsample, every key is a partition try: at seed 2 the bet
    # rejects at least two partitions before it accepts one
    assert len(keys["other"]) - 5 >= 3
    other = {state(k) for k in keys["other"]}
    assert len(other) == len(keys["other"])
    assert model.isdisjoint(other)


def test_byte_identical_reruns(tmp_path):
    cfg = tmp_path / "surv.ini"
    cfg.write_text(SURV_INI)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.run(["survival", "--config", str(cfg), "--out", str(a)]) == 0
    assert cli.run(["survival", "--config", str(cfg), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_exponent_csv(tmp_path):
    out = tmp_path / "fig1.csv"
    assert cli.run(["exponent", "--algs", "prange,dumer", "--rmin", "0.2",
                    "--rmax", "0.4", "--step", "0.1",
                    "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    assert header == ["algorithm", "R", "tau", "alpha", "feasible",
                      "sigma", "R_aux", "tau_aux", "omega", "mu"]
    assert [r[0] for r in rows] == ["prange"] * 3 + ["dumer"] * 3
    assert [float(r[1]) for r in rows[:3]] == [0.2, 0.3, 0.4]
    for pr, du in zip(rows[:3], rows[3:]):
        assert float(du[3]) <= float(pr[3]) + 1e-12
    for r in rows:
        assert r[4] == "true"
        assert r[5:] == [""] * 5
    # no exponent point draws a random number, so the meta.json has no
    # seed and no start budget
    meta = json.loads((tmp_path / "fig1.meta.json").read_text())
    assert meta["seed"] is None
    assert "restarts" not in meta["config"]


def test_exponent_csv_numbers_are_plain(tmp_path):
    # the double-RLPN row carries numpy scalars from the optimizer
    out = tmp_path / "drlpn.csv"
    assert cli.run(["exponent", "--algs", "double-rlpn", "--rmin", "0.42",
                    "--rmax", "0.42", "--step", "0.01",
                    "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    assert [r[0] for r in rows] == ["double-rlpn"]
    numeric = [c for c in rows[0][1:] if c not in ("", "true", "false")]
    assert len(numeric) == len(header) - 2
    for cell in numeric:
        float(cell)


def test_exponent_flag_validation(capsys):
    assert cli.run(["exponent", "--algs", "sterno", "--rmin", "0.2",
                    "--rmax", "0.4", "--step", "0.1"]) == 2
    assert cli.run(["exponent", "--rmin", "0.4", "--rmax", "0.2",
                    "--step", "0.1"]) == 2
    assert cli.run(["exponent", "--rmin", "0.2", "--rmax", "0.4",
                    "--step", "-1"]) == 2
    for step in ("nan", "inf"):
        assert cli.run(["exponent", "--rmin", "0.2", "--rmax", "0.4",
                        "--step", step]) == 2
    capsys.readouterr()
    # rates are rounded to 12 decimals: a finer step would repeat one rate,
    # or never leave the grid loop
    for step in ("1e-15", "1e-300"):
        assert cli.run(["exponent", "--algs", "prange", "--rmin", "0.3",
                        "--rmax", "0.3", "--step", step]) == 2
        assert "error:" in capsys.readouterr().err


def test_exponent_grid_cap_exit_2(tmp_path, capsys):
    # refused before a grid of 9e8 rates is built
    out = tmp_path / "fig1.csv"
    assert cli.run(["exponent", "--algs", "prange", "--rmin", "0.05",
                    "--rmax", "0.95", "--step", "1e-9",
                    "--out", str(out)]) == 2
    assert "rates" in capsys.readouterr().err
    assert not out.exists()


def test_lattice_score_preset(tmp_path):
    out = tmp_path / "curve.csv"
    assert cli.run(["lattice-score", "--preset", "fig3-left",
                    "--points", "6", "--trials", "100000",
                    "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    assert header == ["model", "threshold", "survival", "ci_low", "ci_high"]
    models = [r[0] for r in rows]
    assert models == ["refined"] * 6 + ["floor"] * 6 + ["independence"] * 6
    for r in rows:
        s = float(r[2])
        assert 0.0 <= float(r[3]) <= s <= float(r[4]) <= 1.0
    meta = json.loads((tmp_path / "curve.meta.json").read_text())
    assert meta["config"]["preset"] == "fig3-left"
    assert meta["curve"]["threshold_units"] == "raw score"


def test_lattice_score_grid_budget_exit_1(tmp_path, capsys):
    # 4761 trials per stratum x 8000 thresholds is refused before any
    # table is allocated
    out = tmp_path / "curve.csv"
    assert cli.run(["lattice-score", "--preset", "fig3-left",
                    "--points", "8000", "--out", str(out)]) == 1
    assert "budget" in capsys.readouterr().err
    assert not out.exists()


def test_grid_points_cap_exit_1_before_the_grid(tmp_path, capsys, monkeypatch):
    # one point over the cap is refused before np.linspace builds the grid
    def no_grid(*args, **kwargs):
        raise AssertionError("grid built")

    monkeypatch.setattr(cli.np, "linspace", no_grid)
    over = str(cli.MAX_GRID_POINTS + 1)
    out = tmp_path / "curve.csv"
    assert cli.run(["lattice-score", "--preset", "fig3-left",
                    "--points", over, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (f"budget exceeded: --points {over} "
                                       f"exceeds {cli.MAX_GRID_POINTS}\n")
    assert not out.exists()
    cfg = tmp_path / "s.ini"
    cfg.write_text(SURV_INI + "\n[grid]\nmin = -10\nmax = 30\npoints = %s\n" % over)
    assert cli.run(["survival", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == (f"budget exceeded: {cfg}:15: [grid] points {over} exceeds "
                   f"{cli.MAX_GRID_POINTS}\n")
    assert not out.exists()


@pytest.mark.parametrize("bound", ["--tmax=inf", "--tmin=nan", "--tmin=-inf"])
def test_lattice_score_non_finite_bound_exit_2_before_the_grid(bound, tmp_path,
                                                              capsys, monkeypatch):
    def no_grid(*args, **kwargs):
        raise AssertionError("grid built")

    monkeypatch.setattr(cli.np, "linspace", no_grid)
    out = tmp_path / "curve.csv"
    assert cli.run(["lattice-score", "--preset", "fig3-left", bound,
                    "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: --tmin and --tmax must be finite\n"
    assert not out.exists()


def test_lattice_score_custom_matches_preset(tmp_path):
    from dualattack.lattice import preset_params
    p = preset_params("fig3-left")
    cfg = tmp_path / "lat.ini"
    cfg.write_text("[lattice]\nn = %d\nlog_volume = %r\n"
                   "N = %d\nw = %r\n" % (p.n, p.log_volume, p.N, p.w))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    common = ["--points", "5", "--trials", "100000", "--seed", "9"]
    assert cli.run(["lattice-score", "--preset", "fig3-left",
                    *common, "--out", str(a)]) == 0
    assert cli.run(["lattice-score", "--preset", "custom",
                    "--config", str(cfg), *common, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("field", ["q = 3329", "T = 35184372088832.0"])
def test_lattice_score_custom_rejects_q_and_T(field, tmp_path, capsys):
    # no model reads the modulus or the sample count, so a config that
    # still gives them names an unknown field
    cfg = tmp_path / "lat.ini"
    cfg.write_text("[lattice]\nn = 60\nlog_volume = 255.0\n"
                   "N = 5040\nw = 0.032\n%s\n" % field)
    assert cli.run(["lattice-score", "--preset", "custom", "--config",
                    str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert f"{cfg}:6" in err and "unknown field" in err


def test_lattice_score_custom_infinite_w_exit_2(tmp_path, capsys):
    cfg = tmp_path / "lat.ini"
    cfg.write_text("[lattice]\nn = 60\nlog_volume = 255.0\nN = 5040\nw = inf\n")
    out = tmp_path / "x.csv"
    assert cli.run(["lattice-score", "--preset", "custom", "--config",
                    str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {cfg}:1: dual norm scale must be positive and finite\n"
    assert not out.exists()


def test_lattice_score_flag_conflicts(tmp_path, capsys):
    assert cli.run(["lattice-score", "--preset", "custom"]) == 2
    cfg = tmp_path / "lat.ini"
    cfg.write_text("[lattice]\nn = 60\nlog_volume = 255.0\n"
                   "N = 5040\nw = 0.032\n")
    assert cli.run(["lattice-score", "--preset", "fig3-left",
                    "--config", str(cfg)]) == 2
    assert cli.run(["lattice-score", "--preset", "nope"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["lattice-score", "--preset", "fig3-left", "--points", "2"],
    ["duality-check", "--n", "12", "--k", "6", "--s", "5", "--kaux", "2",
     "--trials", "1"],
])
def test_negative_seed_exit_2(argv, tmp_path, capsys):
    if argv[0] != "duality-check":
        argv = [*argv, "--out", str(tmp_path / "x.csv")]
    assert cli.run([*argv, "--seed", "-1"]) == 2
    assert "--seed" in capsys.readouterr().err


def test_exponent_refuses_seed(tmp_path, capsys):
    # a double-RLPN point draws no random number, so exponent has no --seed
    out = tmp_path / "x.csv"
    assert cli.run(["exponent", "--algs", "double-rlpn", "--rmin", "0.4",
                    "--rmax", "0.4", "--step", "0.1", "--out", str(out),
                    "--seed", "0"]) == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["exponent", "--algs", "prange", "--rmin", "0.2", "--rmax", "0.4",
      "--step", "0.1", "--naux", "0"], "--naux"),
    (["krawtchouk", "--n", "0", "--w", "0"], "--n"),
    (["duality-check", "--n", "12", "--k", "6", "--s", "5", "--kaux", "0"],
     "--kaux"),
    (["duality-check", "--n", "12", "--k", "6", "--s", "5", "--kaux", "2",
      "--trials", "0"], "--trials"),
    (["lattice-score", "--preset", "fig3-left", "--terms", "0"], "--terms"),
])
def test_flag_converters_exit_2(argv, flag, tmp_path, capsys):
    if argv[0] in ("exponent", "lattice-score"):
        argv = [*argv, "--out", str(tmp_path / "x.csv")]
    assert cli.run(argv) == 2
    err = capsys.readouterr().err
    assert err == (f"error: argument {flag}: expected a positive integer, "
                   "got 0\n")


def test_out_directory_checked_before_work(tmp_path, capsys):
    out = tmp_path / "missing" / "fig1.csv"
    t0 = time.monotonic()
    assert cli.run(["exponent", "--algs", "double-rlpn", "--rmin", "0.42",
                    "--rmax", "0.42", "--step", "0.01",
                    "--out", str(out)]) == 2
    assert time.monotonic() - t0 < 1.0
    assert "--out" in capsys.readouterr().err
    assert not out.parent.exists()


def test_duality_check_summary(capsys):
    assert cli.run(["duality-check", "--n", "12", "--k", "6", "--s", "5",
                    "--kaux", "2", "--trials", "20"]) == 0
    assert capsys.readouterr().out.strip() == "20/20 exact"


def test_duality_check_budget_exit(capsys):
    # s > k leaves every partition rank-deficient, so no instance ever
    # yields samples and the attempt budget runs out
    assert cli.run(["duality-check", "--n", "6", "--k", "2", "--s", "4",
                    "--kaux", "1", "--trials", "2"]) == 1
    assert "budget" in capsys.readouterr().err


@pytest.mark.parametrize("s,cap", [(20, "k - s <= 14"), (34, "s - k_aux <= 12")])
def test_duality_check_refuses_its_budget_before_any_draw(capsys, monkeypatch, s, cap):
    # the joint weight count's budget depends on the parameters alone, so
    # a run over it exits before it draws the first code
    drawn, real = [], cli.random_code

    def recording(*args, **kwargs):
        drawn.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "random_code", recording)
    assert cli.run(["duality-check", "--n", "60", "--k", "40", "--s", str(s),
                    "--kaux", "2", "--trials", "1"]) == 1
    assert cap in capsys.readouterr().err
    assert drawn == []


def test_module_entry_point():
    # the child finds the package where this process did, with or without
    # PYTHONPATH set
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    res = subprocess.run([sys.executable, "-m", "dualattack",
                          "krawtchouk", "--n", "4", "--w", "1"],
                         env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0
    assert res.stdout.splitlines()[0] == "t,value"


def test_missing_subcommand_and_bad_flag(capsys):
    assert cli.run([]) == 2
    assert cli.run(["krawtchouk", "--n", "4"]) == 2
    assert cli.run(["krawtchouk", "--n", "x", "--w", "1"]) == 2
    capsys.readouterr()
