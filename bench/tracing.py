"""Span recorder for the traced benchmark run.

The traced run wraps public gphazard names in the namespaces that call
them (for example `inference.generate_dataset` and `vc.survival_matrix`),
so nothing under src/ changes.  Each call records one span: name, start,
end, parent span and a few attributes read from its arguments or result.
Spans stay in memory; the per-layer metrics are computed from them when
the timed region ends.  Self time is a span's duration minus the
durations of its child spans (one thread, so children never overlap).
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager


class Recorder:
    """In-memory spans: [name, start, end, parent index, attributes]."""

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, name, fn, attrs=None):
        """fn with a span around each call; attrs(args, kwargs, result) -> dict."""
        spans, open_, clock = self.spans, self._open, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), None, open_[-1] if open_ else -1, None]
            open_.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_.pop()
            if attrs is not None:
                span[4] = attrs(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def self_times(self) -> tuple:
        """(self time per span, spans whose children's self times exceed them)."""
        durations = [s[2] - s[1] for s in self.spans]
        child_total = [0.0] * len(self.spans)
        for s, dur in zip(self.spans, durations):
            if s[3] >= 0:
                child_total[s[3]] += dur
        selfs = [dur - c for dur, c in zip(durations, child_total)]
        child_self = [0.0] * len(self.spans)
        for s, own in zip(self.spans, selfs):
            if s[3] >= 0:
                child_self[s[3]] += own
        violations = sum(
            1 for dur, c in zip(durations, child_self) if c > dur + 1e-9
        )
        return selfs, violations

    def dump(self, path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w") as fh:
            for name, start, end, parent, attrs in self.spans:
                fh.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent, "attrs": attrs}
                ) + "\n")


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


class _View:
    """A module stand-in that overrides some attributes and forwards the rest."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


@contextmanager
def installed(recorder: Recorder):
    """Wrap the traced names for the duration of the block, then restore them."""
    import numpy
    from gphazard import bounds, cli, gp_paths, hazard, inference, kl, vc
    from gphazard.hazard import SurvivalDataset
    from gphazard.kernels import StationaryKernel

    w = recorder.wrap
    patches = []

    def patch(owner, attr, value):
        patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def each(owners, attr, name, attrs=None):
        traced = w(name, getattr(owners[0], attr), attrs)
        for owner in owners:
            patch(owner, attr, traced)

    each((hazard, inference, cli), "generate_dataset", "hazard.generate_dataset",
         lambda a, k, r: {"records": r.n})
    each((hazard,), "sample_time", "hazard.sample_time",
         lambda a, k, r: {"censored": r is None})
    each((hazard, kl), "HazardCurve", "hazard.HazardCurve")
    each((hazard, vc), "survival_matrix", "hazard.survival_matrix",
         lambda a, k, r: {"cells": int(r.size)})
    patch(SurvivalDataset, "to_csv", w(
        "hazard.SurvivalDataset.to_csv", SurvivalDataset.to_csv,
        lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 1, "path"))}))
    patch(SurvivalDataset, "from_csv", classmethod(w(
        "hazard.SurvivalDataset.from_csv", SurvivalDataset.__dict__["from_csv"].__func__)))

    each((inference,), "mcmc_run", "inference.mcmc_run", lambda a, k, r: {
        "lik_evals": _arg(a, k, 2, "config").iterations * len(_arg(a, k, 1, "prior").kernels),
        "accept_paths": r.acceptance_paths,
        "accept_omega": r.acceptance_omega,
    })
    each((inference,), "posterior_outside_mass", "inference.posterior_outside_mass",
         lambda a, k, r: {"draws": len(_arg(a, k, 0, "draws"))})
    each((cli,), "consistency_experiment", "inference.consistency_experiment")

    each((vc, cli), "test_statistic", "vc.test_statistic",
         lambda a, k, r: {"n": _arg(a, k, 0, "dataset").n})
    each((vc, inference), "sup_deviation_metric", "vc.sup_deviation_metric",
         lambda a, k, r: {"rectangles": r.rectangles})

    cholesky = w("gp_paths.cholesky", numpy.linalg.cholesky,
                 lambda a, k, r: {"n": int(r.shape[0])})
    patch(gp_paths, "np", _View(numpy, linalg=_View(numpy.linalg, cholesky=cholesky)))
    each((gp_paths, cli), "sample_path", "gp_paths.sample_path")
    each((gp_paths,), "dyadic_sup_bound", "gp_paths.dyadic_sup_bound")
    each((gp_paths, bounds), "mc_event_probability", "gp_paths.mc_event_probability",
         lambda a, k, r: {"paths": r.reps, "points": 2 ** _arg(a, k, 5, "level") + 1})
    patch(StationaryKernel, "__call__", w("kernels.StationaryKernel.call", StationaryKernel.__call__))

    for name in ("compare_tail_bound", "compare_small_ball", "compare_centred_event"):
        each((cli,), name, f"bounds.{name}")
    each((cli,), "kl_terms", "kl.kl_terms")
    each((cli,), "sample_b_member", "kl.sample_b_member")
    each((cli,), "run", "cli.run")
    try:
        yield recorder
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def layer_metrics(recorder: Recorder, dense_n: int, streamed_n: int) -> tuple:
    """(per-layer metrics of one traced pass, self-check violations).

    dense_n and streamed_n are the anchored-test sizes reported as the
    n2000 and n3000 buckets.
    """
    selfs, violations = recorder.self_times()
    calls = defaultdict(int)
    busy = defaultdict(float)
    own = defaultdict(float)
    attr_sum = defaultdict(float)
    for (name, start, end, _, attrs), self_s in zip(recorder.spans, selfs):
        calls[name] += 1
        busy[name] += end - start
        own[name] += self_s
        if attrs is None:  # the call raised, e.g. a Cholesky retried with more jitter
            continue
        for key, value in attrs.items():
            attr_sum[name, key] += float(value)
        if name == "vc.test_statistic":
            busy[name, attrs["n"]] += end - start
        elif name == "gp_paths.cholesky":
            attr_sum[name, "flop"] += attrs["n"] ** 3 / 3.0
        elif name == "gp_paths.mc_event_probability":
            attr_sum[name, "bytes"] += attrs["paths"] * attrs["points"] * 8

    def ratio(num, den):
        return num / den if den else 0.0

    mcmc = "inference.mcmc_run"
    metrics = {
        "hazard.generate_dataset.calls": calls["hazard.generate_dataset"],
        "hazard.generate_dataset.busy_s": busy["hazard.generate_dataset"],
        "hazard.generate_dataset.records": attr_sum["hazard.generate_dataset", "records"],
        "hazard.sample_time.calls": calls["hazard.sample_time"],
        "hazard.sample_time.censored_share": ratio(
            attr_sum["hazard.sample_time", "censored"], calls["hazard.sample_time"]),
        "hazard.HazardCurve.builds": calls["hazard.HazardCurve"],
        "hazard.HazardCurve.busy_s": busy["hazard.HazardCurve"],
        "hazard.survival_matrix.calls": calls["hazard.survival_matrix"],
        "hazard.survival_matrix.busy_s": busy["hazard.survival_matrix"],
        "hazard.survival_matrix.cells": attr_sum["hazard.survival_matrix", "cells"],
        "hazard.SurvivalDataset.to_csv.busy_s": busy["hazard.SurvivalDataset.to_csv"],
        "hazard.SurvivalDataset.to_csv.bytes": attr_sum["hazard.SurvivalDataset.to_csv", "bytes"],
        "hazard.SurvivalDataset.from_csv.busy_s": busy["hazard.SurvivalDataset.from_csv"],
        "inference.mcmc_run.calls": calls[mcmc],
        "inference.mcmc_run.busy_s": busy[mcmc],
        "inference.mcmc_run.s_per_lik_eval": ratio(busy[mcmc], attr_sum[mcmc, "lik_evals"]),
        "inference.mcmc_run.accept_paths": ratio(attr_sum[mcmc, "accept_paths"], calls[mcmc]),
        "inference.mcmc_run.accept_omega": ratio(attr_sum[mcmc, "accept_omega"], calls[mcmc]),
        "inference.posterior_outside_mass.busy_s": busy["inference.posterior_outside_mass"],
        "inference.posterior_outside_mass.draws": attr_sum["inference.posterior_outside_mass", "draws"],
        "inference.consistency_experiment.self_s": own["inference.consistency_experiment"],
        "vc.test_statistic.calls": calls["vc.test_statistic"],
        "vc.test_statistic.n2000.busy_s": busy["vc.test_statistic", dense_n],
        "vc.test_statistic.n3000.busy_s": busy["vc.test_statistic", streamed_n],
        "vc.sup_deviation_metric.calls": calls["vc.sup_deviation_metric"],
        "vc.sup_deviation_metric.busy_s": busy["vc.sup_deviation_metric"],
        "vc.sup_deviation_metric.rectangles": attr_sum["vc.sup_deviation_metric", "rectangles"],
        "gp_paths.cholesky.calls": calls["gp_paths.cholesky"],
        "gp_paths.cholesky.busy_s": busy["gp_paths.cholesky"],
        "gp_paths.cholesky.gflop": attr_sum["gp_paths.cholesky", "flop"] / 1e9,
        "gp_paths.sample_path.calls": calls["gp_paths.sample_path"],
        "gp_paths.sample_path.busy_s": busy["gp_paths.sample_path"],
        "gp_paths.dyadic_sup_bound.busy_s": busy["gp_paths.dyadic_sup_bound"],
        "gp_paths.mc_event_probability.busy_s": busy["gp_paths.mc_event_probability"],
        "gp_paths.mc_event_probability.paths": attr_sum["gp_paths.mc_event_probability", "paths"],
        "gp_paths.mc_event_probability.bytes": attr_sum["gp_paths.mc_event_probability", "bytes"],
        "kernels.StationaryKernel.call.calls": calls["kernels.StationaryKernel.call"],
        "kernels.StationaryKernel.call.busy_s": busy["kernels.StationaryKernel.call"],
        "bounds.compare.self_s": sum(v for k, v in own.items() if k.startswith("bounds.compare_")),
        "kl.kl_terms.calls": calls["kl.kl_terms"],
        "kl.kl_terms.busy_s": busy["kl.kl_terms"],
        "kl.sample_b_member.busy_s": busy["kl.sample_b_member"],
        "cli.run.self_s": own["cli.run"],
    }
    return metrics, violations
