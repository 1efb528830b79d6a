"""The four workloads: how each makes its inputs, runs one operation,
checks the output, hashes it and lays it out as CLI rows.

Operation i of round r on seed S runs on inputs derived only from
(S, r, i): `inputs(op_seed(S, r, i, per_round), i)`.  The same seed
gives the same inputs whatever the run length.  Calls go through the
module objects (`decoder.double_rlpn`, not a name bound here) so that the
traced run sees the rebound names.
"""

import hashlib

import numpy as np

import checks


def op_seed(seed, rnd, i, per_round):
    """One nonnegative integer per operation, distinct within a run."""
    return (seed * 1_000_003 + rnd * per_round + i) & ((1 << 63) - 1)


def _hash(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(np.asarray(a, dtype=np.float64)).tobytes())
    return h


class DecodeBatch:
    """A batch of planted instances of the README decode config, each
    decoded with one partition trial (double_rlpn with N_iter = 1)."""

    name = "decode-batch"
    per_round = 1
    batch = 10
    cfg = {"n": 40, "k": 20, "t": 5, "s": 16, "u": 3, "w": 5, "k_aux": 8,
           "t_aux": 1, "N_iter": 1}

    def __init__(self, da):
        self.da = da

    def inputs(self, seed, i):
        c = self.cfg
        out = []
        for j in range(self.batch):
            s = seed * self.batch + j
            code = self.da.codes.random_code(c["n"], c["k"], seed=[s, 101])
            inst = self.da.codes.DecodingInstance.plant(code, c["t"], seed=[s, 102])
            params = self.da.decoder.DoubleRlpnParams(
                s=c["s"], u=c["u"], w=c["w"], k_aux=c["k_aux"], t_aux=c["t_aux"],
                N_iter=c["N_iter"], seed=s)
            out.append((inst, params))
        return out

    def run(self, batch):
        outs = []
        for inst, params in batch:
            stats = {}
            e = self.da.decoder.double_rlpn(inst, params, stats)
            outs.append({"generator": inst.code.generator, "y": inst.y, "e": e,
                         "trials_used": stats["trials_used"]})
        return outs

    def check(self, outs):
        return [p for out in outs for p in checks.check_decode(out, self.cfg)]

    def witness(self, outs):
        # the corruption self-check needs a decoded word to flip a bit of
        return any(out["e"] is not None for out in outs)

    def digest(self, h, outs):
        for out in outs:
            h.update(b"none" if out["e"] is None else np.asarray(out["e"]).tobytes())
            h.update(str(out["trials_used"]).encode())

    def rows(self, outs):
        return (["found", "e", "trials_used"],
                [(out["e"] is not None,
                  "" if out["e"] is None else np.packbits(out["e"]).tobytes().hex(),
                  out["trials_used"]) for out in outs])


class SurvivalDesk:
    """The survival subcommand at desk scale: experimental, Poisson and
    independence curves for the planted [60, 30] instance of acceptance
    criterion 3.

    The instance, and with it the partition, auxiliary code and sample
    subset, stays that of criterion 3 (seed 11); the workload seed drives
    the Poisson model's draws.  The 2^30 Gray sweep's cost depends on the
    code and partition (4 to 10 s across instances), so one fresh
    instance per seed would spread the timings by 2x."""

    name = "survival-desk"
    per_round = 1
    cfg = {"n": 60, "k": 30, "t": 8, "s": 28, "u": 8, "w": 5, "k_aux": 20,
           "t_aux": 2, "sample_budget": 65536, "poisson_trials": 10 ** 5,
           "instance_seed": 11}

    def __init__(self, da):
        self.da = da

    def inputs(self, seed, i):
        c = self.cfg
        code = self.da.codes.random_code(c["n"], c["k"], seed=[c["instance_seed"], 101])
        inst = self.da.codes.DecodingInstance.plant(code, c["t"],
                                                    seed=[c["instance_seed"], 102])
        return inst, seed

    def run(self, inp):
        inst, seed = inp
        c = self.cfg
        du = self.da.duality
        dparams = self.da.decoder.DoubleRlpnParams(
            c["s"], c["u"], c["w"], c["k_aux"], c["t_aux"],
            sample_budget=c["sample_budget"])
        nparams = du.ModelParams(c["n"], c["k"], c["t"], c["s"], c["u"], c["w"],
                                 c["k_aux"], c["t_aux"])
        exp = du.experimental_survival(inst, dparams, seed=c["instance_seed"])
        n_samples = int(exp.meta["samples"])
        poi = du.poisson_survival(nparams, trials=c["poisson_trials"], seed=seed,
                                  n_samples=n_samples, grid=exp.thresholds)
        ind = du.independence_survival(nparams, n_samples, grid=exp.thresholds)
        return {"thresholds": exp.thresholds, "experimental": exp.counts,
                "poisson": poi.counts, "independence": ind.counts,
                "samples": n_samples}

    def check(self, out):
        return checks.check_survival(out, self.cfg)

    def digest(self, h, out):
        h.update(_hash(out["thresholds"], out["experimental"], out["poisson"],
                       out["independence"]).digest())

    def rows(self, out):
        rows = [(label, t, c) for label in ("experimental", "poisson", "independence")
                for t, c in zip(out["thresholds"], out[label])]
        return ["label", "threshold", "count"], rows


class ExponentPoint:
    """double_rlpn_exponent at R = 0.42 with the Prange, Dumer and BJMM-eq
    baselines, through exponent_curve."""

    name = "exponent-point"
    per_round = 1
    cfg = {"R": 0.42, "algorithms": ("prange", "dumer", "bjmm-eq", "double-rlpn")}

    def __init__(self, da):
        self.da = da

    def inputs(self, seed, i):
        return seed

    def run(self, seed):
        pts = self.da.asymptotics.exponent_curve(list(self.cfg["algorithms"]),
                                                 [self.cfg["R"]], seed=seed)
        return {"points": pts}

    def check(self, out):
        return checks.check_exponent(out, self.cfg,
                                     self.da.asymptotics.double_rlpn_objective)

    def argmin(self, out):
        dr = [p for p in out["points"] if p.algorithm == "double-rlpn"][0]
        return dr.tau, dr.argmin

    def digest(self, h, out):
        for p in out["points"]:
            h.update(_hash([p.R, p.tau, p.alpha]).digest())

    def rows(self, out):
        return (["algorithm", "R", "tau", "alpha", "feasible"],
                [(p.algorithm, p.R, p.tau, p.alpha, p.feasible) for p in out["points"]])


class LatticeFig3:
    """survival_refined on both fig3 presets with shortest_terms 1 and 3,
    on the lattice-score subcommand's default grid and trial count."""

    name = "lattice-fig3"
    curves = (("fig3-left", 1), ("fig3-left", 3), ("fig3-right", 1), ("fig3-right", 3))
    per_round = len(curves)
    cfg = {"points": 51, "mc_trials": 200000}

    def __init__(self, da):
        self.da = da

    def inputs(self, seed, i):
        preset, terms = self.curves[i]
        params = self.da.lattice.preset_params(preset)
        tmax = float(np.ceil(10.0 * np.sqrt(params.N / 2.0)))
        return params, np.linspace(0.0, tmax, self.cfg["points"]), seed, terms

    def run(self, inp):
        params, grid, seed, terms = inp
        curve = self.da.lattice.survival_refined(
            params, grid, mc_trials=self.cfg["mc_trials"], seed=seed,
            shortest_terms=terms)
        return {"curve": curve, "N": params.N}

    def check(self, out):
        return checks.check_lattice(out)

    def digest(self, h, out):
        c = out["curve"]
        h.update(_hash(c.thresholds, *[c.survival[m] for m in sorted(c.survival)]).digest())

    def rows(self, out):
        c = out["curve"]
        return (["model", "threshold", "survival"],
                [(m, float(t), float(v)) for m in sorted(c.survival)
                 for t, v in zip(c.thresholds, c.survival[m])])


WORKLOADS = {w.name: w for w in (DecodeBatch, SurvivalDesk, ExponentPoint, LatticeFig3)}
