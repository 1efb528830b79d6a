"""Benchmark of the dualattack laboratory: four workloads, one command.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the program is imported from ./src.
One client runs one operation at a time (a closed loop) in this
process, in whole rounds, until the operations have taken --seconds.
Every output is checked by perfbench/checks.py.

--trace 0 prints the end-to-end metrics: set-up time (median of five
fresh-interpreter imports of dualattack.cli), operations per second,
median operation time and peak resident memory.  --trace 1 first runs
the same loop untraced, then the same rounds again with spans around
each layer's public functions, and prints the per-layer metrics and the
tracing overhead.  The last line of standard output is one JSON object;
the full run record, and in a traced run its spans, go to
perfbench/records/.
"""

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import checks
import spans
from workloads import WORKLOADS, op_seed

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
OBJECTIVE_REPEATS = 20


class Package:
    """The dualattack modules, imported from the checkout's src/."""

    def __init__(self, src):
        sys.path.insert(0, str(src))
        import dualattack
        from dualattack import (_kernels, asymptotics, cli, codes, decoder,
                                duality, lattice)

        if Path(dualattack.__file__).resolve().parent != src / "dualattack":
            raise ImportError("dualattack was not imported from " + str(src))
        self.kernels = _kernels
        self.asymptotics = asymptotics
        self.cli = cli
        self.codes = codes
        self.decoder = decoder
        self.duality = duality
        self.lattice = lattice


def child_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def setup_seconds(src):
    """Wall time of a fresh interpreter importing dualattack.cli, median
    of SETUP_REPEATS; every CLI call pays this before it starts work."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import dualattack.cli"],
                       env=child_env(src), check=True, capture_output=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), times


def import_times(src):
    """Cumulative import seconds of selected modules, from -X importtime;
    0 for a module that importing the CLI no longer pulls in."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                           "import dualattack.cli"],
                          env=child_env(src), check=True, capture_output=True,
                          text=True)
    cumulative = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1]) * 1e-6
    names = {"asymptotics": "dualattack.asymptotics",
             "scipy_optimize": "scipy.optimize",
             "lattice": "dualattack.lattice",
             "duality": "dualattack.duality"}
    return {"cli.import.%s_s" % k: cumulative.get(v, 0.0) for k, v in names.items()}


class Loop:
    """Closed-loop timing of whole rounds of one workload."""

    def __init__(self, wl, seed, tracer=None, on_output=None):
        self.wl = wl
        self.seed = seed
        self.tracer = tracer
        self.on_output = on_output
        self.op_times = []
        self.busy = 0.0
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self.problems = []
        self.digest = hashlib.sha256()
        self.witness = None
        self.first = None
        self.rss_mb = None

    def run_round(self):
        wl, tr = self.wl, self.tracer
        for i in range(wl.per_round):
            inp = wl.inputs(op_seed(self.seed, self.rounds, i, wl.per_round), i)
            self.attempted += 1
            if tr is not None:
                tr.active = True
                tr.open(spans.OP)
            t0 = time.perf_counter()
            try:
                out = wl.run(inp)
            except Exception:
                out = None
                self.failed += 1
                traceback.print_exc()
            finally:
                dt = time.perf_counter() - t0
                self.busy += dt
                if tr is not None:
                    tr.close()
                    tr.active = False
            if out is None:
                continue
            self.op_times.append(dt)
            self.problems += wl.check(out)
            if self.on_output is not None:
                self.problems += self.on_output(out)
            if self.rounds == 0:
                wl.digest(self.digest, out)
                if self.first is None:
                    self.first = out
            if self.witness is None and getattr(wl, "witness", lambda o: True)(out):
                self.witness = out
        self.rounds += 1
        if self.rounds == 1:
            # later rounds repeat the same kind of work; memory is read here
            # so that it does not depend on how many rounds fit in the run
            self.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def run(self, seconds=None, rounds=None):
        while (self.rounds < rounds if rounds is not None
               else self.busy < seconds):
            self.run_round()
        return self


def decode_counter(loop_state):
    def on_output(outs):
        for out in outs:
            loop_state["trials"] += out["trials_used"]
            loop_state["found"] += out["e"] is not None
        return []
    return on_output


def survival_pair_check(tracer, wl, seed):
    """Traced run: check the pairs and scores behind each experimental
    curve, from the calls the tracer captured."""
    rng = np.random.default_rng([seed, 7])

    def on_output(out):
        (code, part, _w, aux), _, samples = tracer.captured.pop("samples.build_sample_set")
        # build_f's table is transformed in place by wht, so after the
        # operation its values are the candidate scores
        (y, _ss, _g), _, table = tracer.captured.pop("fourier.build_f")
        return checks.check_pairs(code, part, aux, samples, y,
                                  np.asarray(table.values), wl.cfg, rng)
    return on_output


def kernel_cases(da):
    """The four kernel inputs of the former kernel benchmark, numpy path,
    best of three after one checked warm-up call."""
    K = da.kernels
    rng = np.random.default_rng(12345)
    basis_n = K.pack_rows(rng.integers(0, 2, (20, 32), dtype=np.uint8))
    basis_p = K.pack_rows(rng.integers(0, 2, (20, 28), dtype=np.uint8))
    wht_in = rng.integers(-3, 4, 1 << 20).astype(np.int64)
    coset_basis = K.pack_rows(rng.integers(0, 2, (18, 60), dtype=np.uint8))
    coset_x = K.pack_rows(rng.integers(0, 2, 60, dtype=np.uint8))[0]
    cols = rng.integers(0, 1 << 48, 56, dtype=np.uint64)
    planted = (3, 17, 29, 44)
    target = int(cols[3] ^ cols[17] ^ cols[29] ^ cols[44])

    def gray_ok(out):
        return bool(np.all(np.bitwise_count(out[0]).sum(axis=1) == 5))

    def wht_ok(out):
        return bool(np.array_equal(K.wht_inplace(out.copy()), wht_in << 20))

    def coset_ok(out):
        return int(out.sum()) == 1 << 18

    def comb_ok(out):
        return planted in {tuple(int(v) for v in r) for r in out}

    cases = (
        ("kernels.case.gray_m20_ms", lambda: K.gray_low_weight(basis_n, basis_p, 5), gray_ok),
        ("kernels.case.wht_2p20_ms", lambda: K.wht_inplace(wht_in.copy()), wht_ok),
        ("kernels.case.coset_hist_2p18_ms",
         lambda: K.coset_weight_hist(coset_basis, coset_x, 60), coset_ok),
        ("kernels.case.comb_c56_4_ms", lambda: K.comb_xor_search(cols, target, 4), comb_ok),
    )
    metrics, problems = {}, []
    for name, fn, ok in cases:
        out = fn()
        if not ok(out):
            problems.append(name + " output is wrong")
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        metrics[name] = best * 1000.0
    return metrics, problems


def cli_write_seconds(da, wl, out, seed, records):
    """CSV plus meta.json (with its git describe) through the CLI's own
    writers, for the first output of the run."""
    header, rows = wl.rows(out)
    path = records / "cli" / (wl.name + ".csv")
    path.parent.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    da.cli.write_csv(path, header, rows)
    da.cli.write_metadata(path, wl.name, seed, dict(wl.cfg), time.monotonic())
    return time.perf_counter() - t0


def objective_ms(da, wl, out):
    """Median time of one double_rlpn_objective call at the argmin."""
    tau, params = wl.argmin(out)
    times = []
    for _ in range(OBJECTIVE_REPEATS):
        t0 = time.perf_counter()
        da.asymptotics.double_rlpn_objective(wl.cfg["R"], tau, params)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1000.0


def per_layer(tracer, untraced, traced, extra):
    table = tracer.table()
    counts = tracer.counts

    def incl(name):
        return table.get(name, {}).get("inclusive_s", 0.0)

    def cnt(name):
        return counts.get(name, 0)

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    op = table.get(spans.OP, {"inclusive_s": 0.0, "self_s": 0.0})
    m = dict(extra)
    m.update({
        "codes.systematic_form_s": incl("codes.systematic_form"),
        "codes.systematic_form_calls": cnt("codes.systematic_form_calls"),
        "codes.rank_rejects": cnt("codes.systematic_form.raised.RankDeficient"),
        "codes.gf2_nullspace_s": incl("codes.gf2_nullspace"),
        "kernels.gray_low_weight_s": incl("kernels.gray_low_weight"),
        "kernels.gray_words_swept": cnt("kernels.gray_words_swept"),
        "kernels.comb_xor_search_s": incl("kernels.comb_xor_search"),
        "kernels.comb_subsets_tried": cnt("kernels.comb_subsets_tried"),
        "kernels.wht_inplace_s": incl("kernels.wht_inplace"),
        "kernels.wht_points": cnt("kernels.wht_points"),
        "samples.enumerate_s": incl("samples.enumerate"),
        "samples.enumerate_calls": cnt("samples.enumerate_calls"),
        "samples.dual_words": cnt("samples.dual_words"),
        "samples.build_sample_set_s": incl("samples.build_sample_set"),
        "samples.pairs": cnt("samples.pairs"),
        "samples.aux_code_s": incl("samples.aux_code"),
        "fourier.fft_decode_s": incl("fourier.fft_decode"),
        "fourier.build_f_s": incl("fourier.build_f"),
        "fourier.wht_s": incl("fourier.wht"),
        "fourier.candidates": cnt("fourier.candidates"),
        "decoder.recover_e_s": incl("decoder.recover_e"),
        "decoder.syndrome_decode_all_s": incl("decoder.syndrome_decode_all"),
        "decoder.syndrome_decode_calls": cnt("decoder.syndrome_decode_calls"),
        "decoder.solve_subproblem_s": incl("decoder.solve_subproblem"),
        "decoder.budget_skips": cnt("decoder.recover_e.raised.BudgetExceeded"),
        "duality.experimental_survival_s": incl("duality.experimental_survival"),
        "duality.poisson_survival_s": incl("duality.poisson_survival"),
        "duality.poisson_draws_per_s": rate(cnt("duality.poisson_draws"),
                                            incl("duality.poisson_survival")),
        "duality.independence_survival_s": incl("duality.independence_survival"),
        "asymptotics.double_rlpn_exponent_s": incl("asymptotics.double_rlpn_exponent"),
        "asymptotics.minimize_calls": cnt("asymptotics.minimize_calls"),
        "asymptotics.nfev": cnt("asymptotics.nfev"),
        "asymptotics.baselines_s": incl("asymptotics.baselines"),
        "krawtchouk.kappa_tilde_calls": cnt("krawtchouk.kappa_tilde_calls"),
        "krawtchouk.kappa_tilde_s": incl("krawtchouk.kappa_tilde"),
        "lattice.survival_refined_s": incl("lattice.survival_refined"),
        "lattice.mc_draws_per_s": rate(cnt("lattice.mc_draws"),
                                       incl("lattice.survival_refined")),
        "trace.ops_wall_s": op["inclusive_s"],
        "trace.op_self_share": rate(op["self_s"], op["inclusive_s"]),
        "trace.spans": len(tracer.spans),
        "trace.overhead_pct": 100.0 * (sum(traced.op_times) / sum(untraced.op_times) - 1.0),
        "trace.span_overhead_pct": 100.0 * rate(len(tracer.spans) * spans.span_cost(),
                                                op["inclusive_s"]),
    })
    return m, table


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("need --seed >= 0 and --seconds > 0")

    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "dualattack" / "__init__.py").is_file():
        print("error: no src/dualattack under %s; run from the root of a "
              "dualattack checkout" % root, file=sys.stderr)
        return 2
    # the CLI's metadata writer runs git describe; keep git inside the checkout
    os.environ["GIT_CEILING_DIRECTORIES"] = str(root.parent)
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "python": sys.version.split()[0]}
    if not args.trace:
        setup, setup_all = setup_seconds(src)
        record["setup_runs_s"] = setup_all
    da = Package(src)
    import scipy
    record["numpy"], record["scipy"] = np.__version__, scipy.__version__
    wl = WORKLOADS[args.workload](da)

    state = {"trials": 0, "found": 0}
    hook = decode_counter(state) if wl.name == "decode-batch" else None
    loop = Loop(wl, args.seed, on_output=hook).run(seconds=args.seconds)
    if not loop.op_times:
        print("error: every operation failed", file=sys.stderr)
        return 1
    problems = list(loop.problems)
    if wl.name == "decode-batch":
        problems += checks.check_decode_run(state["found"], state["trials"], wl.cfg)
    problems += checks.self_check(wl.name, wl.check, loop.witness or loop.first)

    records = HERE / "records"
    records.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (wl.name, args.seed, args.trace)
    if args.trace:
        tracer = spans.Tracer()
        extra = import_times(src)
        state_t = {"trials": 0, "found": 0}
        if wl.name == "decode-batch":
            hook_t = decode_counter(state_t)
        elif wl.name == "survival-desk":
            hook_t = survival_pair_check(tracer, wl, args.seed)
        else:
            hook_t = None
        installed = spans.install(tracer)
        try:
            traced = Loop(wl, args.seed, tracer, hook_t).run(rounds=loop.rounds)
        finally:
            installed.remove()
        problems += traced.problems
        record["untraced_targets"] = installed.missing
        if traced.digest.hexdigest() != loop.digest.hexdigest():
            problems.append("traced outputs differ from untraced outputs")
        extra["decoder.trials"] = state_t["trials"]
        extra["decoder.found_per_trial"] = (state_t["found"] / state_t["trials"]
                                            if state_t["trials"] else 0.0)
        extra["cli.write_s"] = cli_write_seconds(da, wl, loop.first, args.seed, records)
        extra["asymptotics.objective_eval_ms"] = (
            objective_ms(da, wl, loop.first) if wl.name == "exponent-point" else 0.0)
        cases, case_problems = kernel_cases(da)
        extra.update(cases)
        problems += case_problems
        metrics, table = per_layer(tracer, loop, traced, extra)
        record["self_times"] = table
        record["self_time_total_s"] = sum(r["self_s"] for r in table.values())
        with open(records / (stem + "-spans.json"), "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
        attempted = loop.attempted + traced.attempted
        failed = loop.failed + traced.failed
    else:
        metrics = {
            "setup_s": setup,
            "ops_per_s": len(loop.op_times) / sum(loop.op_times),
            "op_p50_s": statistics.median(loop.op_times),
            "peak_rss_mb": loop.rss_mb,
        }
        attempted, failed = loop.attempted, loop.failed
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
    else:
        names = [m["name"] for m in spec["end_to_end"]]
    missing = sorted(set(names) - set(metrics))
    if missing:
        problems.append("metrics not measured: " + ", ".join(missing))

    record.update({
        "rounds": loop.rounds, "attempted": attempted, "failed": failed,
        "op_times_s": loop.op_times, "outputs_sha256": loop.digest.hexdigest(),
        "problems": problems, "metrics": metrics,
    })
    with open(records / (stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    for p in problems:
        print("check failed: " + p)
    print("%s seed %d: %d rounds, %d ops, outputs sha256 %s"
          % (wl.name, args.seed, loop.rounds, attempted, loop.digest.hexdigest()))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]}
                    for n in names if n in metrics},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
