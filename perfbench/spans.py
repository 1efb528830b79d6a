"""Span recording for the traced run.

A span is one call into a layer's public function: name, start, end and
the index of the enclosing span.  Spans live in memory and are written
out when the run ends.  The program itself is never edited: `install`
rebinds, at run time, every module-level name in the dualattack package
that refers to a traced function (the names modules imported as well as
the defining module's own), and `Installed.remove` puts the originals
back.
"""

import sys
import time
from math import comb

import numpy as np

OP = "op"


class Tracer:
    """Spans, counters and captured call results of one traced pass."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.spans = []  # (name_id, start, end, parent_index)
        self.counts = {}
        self.captured = {}
        self._stack = []
        self.active = False

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self._name_id(name), time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def wrap(self, name, func, after=None, capture=False):
        """func with a span around every call made while an operation is
        open; after(tracer, args, kwargs, result) records counts."""
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            tracer.open(name)
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                tracer.count(name + ".raised." + type(exc).__name__)
                raise
            finally:
                tracer.close()
            if after is not None:
                after(tracer, args, kwargs, result)
            if capture:
                tracer.captured[name] = (args, kwargs, result)
            return result

        return traced

    def table(self):
        """Per span name: calls, inclusive seconds and self seconds.  Self
        time is the span's duration minus the time its children cover."""
        child = [0.0] * len(self.spans)
        for nid, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (nid, start, end, parent) in enumerate(self.spans):
            row = out.setdefault(self.names[nid],
                                 {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["inclusive_s"] += end - start
            row["self_s"] += end - start - child[i]
        return out

    def dump(self):
        return {"names": self.names,
                "spans": [[nid, round(s, 9), round(e, 9), p]
                          for nid, s, e, p in self.spans],
                "counts": self.counts}


def span_cost(calls=20000):
    """Seconds one traced call adds over a plain call, measured on a
    wrapped no-op with an operation open."""
    tracer = Tracer()

    def plain():
        return None

    traced = tracer.wrap("probe", plain)
    tracer.active = True
    tracer.open(OP)
    t0 = time.perf_counter()
    for _ in range(calls):
        traced()
    t1 = time.perf_counter()
    for _ in range(calls):
        plain()
    t2 = time.perf_counter()
    return max(0.0, (t1 - t0) - (t2 - t1)) / calls


# counters recorded at the same boundaries as the spans

def _gray_words(tr, args, kwargs, result):
    tr.count("kernels.gray_words_swept", 1 << np.atleast_2d(args[0]).shape[0])


def _comb_subsets(tr, args, kwargs, result):
    t = args[2] if len(args) > 2 else kwargs["t"]
    tr.count("kernels.comb_subsets_tried", comb(np.asarray(args[0]).size, t))


def _wht_points(tr, args, kwargs, result):
    tr.count("kernels.wht_points", int(result.shape[0]))


def _calls(metric):
    def after(tr, args, kwargs, result):
        tr.count(metric)
    return after


def _dual_words(tr, args, kwargs, result):
    tr.count("samples.enumerate_calls")
    tr.count("samples.dual_words", int(result[0].shape[0]))


def _pairs(tr, args, kwargs, result):
    tr.count("samples.pairs", result.count)


def _candidates(tr, args, kwargs, result):
    tr.count("fourier.candidates", len(result))


def _poisson_draws(tr, args, kwargs, result):
    tr.count("duality.poisson_draws", result.meta["trials"])


def _minimize(tr, args, kwargs, result):
    tr.count("asymptotics.minimize_calls")
    tr.count("asymptotics.nfev", int(result.nfev))


def _mc_draws(tr, args, kwargs, result):
    tr.count("lattice.mc_draws", result.meta["mc_trials"])


# (module, attribute, span name, counter, capture the last call)
TARGETS = (
    ("codes", "systematic_form", "codes.systematic_form",
     _calls("codes.systematic_form_calls"), False),
    ("codes", "gf2_nullspace", "codes.gf2_nullspace", None, False),
    ("_kernels", "gray_low_weight", "kernels.gray_low_weight", _gray_words, False),
    ("_kernels", "comb_xor_search", "kernels.comb_xor_search", _comb_subsets, False),
    ("_kernels", "wht_inplace", "kernels.wht_inplace", _wht_points, False),
    ("samples", "enumerate_dual_low_weight", "samples.enumerate", _dual_words, False),
    ("samples", "build_sample_set", "samples.build_sample_set", _pairs, True),
    ("fourier", "fft_decode", "fourier.fft_decode", _candidates, False),
    ("fourier", "build_f", "fourier.build_f", None, True),
    ("fourier", "wht", "fourier.wht", None, False),
    ("decoder", "recover_e", "decoder.recover_e", None, False),
    ("decoder", "syndrome_decode_all", "decoder.syndrome_decode_all",
     _calls("decoder.syndrome_decode_calls"), False),
    ("decoder", "solve_subproblem", "decoder.solve_subproblem", None, False),
    ("duality", "experimental_survival", "duality.experimental_survival", None, False),
    ("duality", "poisson_survival", "duality.poisson_survival", _poisson_draws, False),
    ("duality", "independence_survival", "duality.independence_survival", None, False),
    ("asymptotics", "double_rlpn_exponent", "asymptotics.double_rlpn_exponent", None, False),
    ("asymptotics", "minimize", "asymptotics.minimize", _minimize, False),
    ("asymptotics", "prange_exponent", "asymptotics.baselines", None, False),
    ("asymptotics", "dumer_exponent", "asymptotics.baselines", None, False),
    ("asymptotics", "bjmm_eq_exponent", "asymptotics.baselines", None, False),
    ("krawtchouk", "kappa_tilde", "krawtchouk.kappa_tilde",
     _calls("krawtchouk.kappa_tilde_calls"), False),
    ("lattice", "survival_refined", "lattice.survival_refined", _mc_draws, False),
)


class Installed:
    """The rebindings made by install, undone by remove; missing lists the
    targets the package no longer has, whose metrics then read 0."""

    def __init__(self):
        self.undo = []
        self.missing = []

    def remove(self):
        for owner, attr, orig in reversed(self.undo):
            setattr(owner, attr, orig)
        self.undo.clear()


def install(tracer):
    """Rebind every TARGETS name in the loaded dualattack modules to a
    traced wrapper; the returned Installed undoes it."""
    modules = [m for name, m in sorted(sys.modules.items())
               if name.startswith("dualattack.") and m is not None]
    done = Installed()
    for mod_name, attr, span, after, capture in TARGETS:
        orig = getattr(sys.modules.get("dualattack." + mod_name), attr, None)
        if orig is None:
            done.missing.append(mod_name + "." + attr)
            continue
        wrapper = tracer.wrap(span, orig, after, capture)
        for mod in modules:
            if mod.__dict__.get(attr) is orig:
                done.undo.append((mod, attr, orig))
                setattr(mod, attr, wrapper)
    # AuxCode.random is a classmethod, so it is rebound on the class
    aux = getattr(sys.modules.get("dualattack.samples"), "AuxCode", None)
    orig = getattr(aux, "__dict__", {}).get("random")
    if isinstance(orig, classmethod):
        done.undo.append((aux, "random", orig))
        aux.random = classmethod(tracer.wrap("samples.aux_code", orig.__func__))
    else:
        done.missing.append("samples.AuxCode.random")
    return done
