"""The benchmark's tracer wraps library names in place, by name.

bench/tracing.py looks up each name it patches (for example
`kl.HazardCurve` and `inference.sup_deviation_metric`) in its owner's
namespace, so entering `installed` raises KeyError when a refactor drops
one.  The first test enters and leaves it, without running a workload;
the second runs a tiny chain under it, because the tracer also reads
attributes of the sampler's results; the third runs a two-cell ladder,
whose chains run in lockstep outside mcmc_run.
"""

import importlib.util
from pathlib import Path

from gphazard import bounds, cli, gp_paths, hazard, inference, kl, vc
from gphazard.hazard import SurvivalDataset, Theta, UniformQ, generate_dataset
from gphazard.inference import ExperimentSpec, McmcConfig, ModelPrior, OmegaPrior
from gphazard.kernels import StationaryKernel
from gphazard.vc import GridSpec

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
OWNERS = (bounds, cli, gp_paths, hazard, inference, kl, vc, SurvivalDataset, StationaryKernel)


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_name_and_restores_it():
    tracing = load_tracing()
    before = [dict(vars(owner)) for owner in OWNERS]
    curve, metric = hazard.HazardCurve, vc.sup_deviation_metric
    recorder = tracing.Recorder()
    with tracing.installed(recorder):
        assert kl.HazardCurve is hazard.HazardCurve and kl.HazardCurve.__wrapped__ is curve
        assert inference.sup_deviation_metric.__wrapped__ is metric
        kl.HazardCurve(Theta.constant(2.0, 0, 4.0), ())
    assert [dict(vars(owner)) for owner in OWNERS] == before
    assert [span[0] for span in recorder.spans] == ["hazard.HazardCurve"]


def test_tracer_reads_the_sampler_results():
    # the posterior-ladder metrics come from len(draws), acceptance_paths
    # and acceptance_omega of these two calls
    tracing = load_tracing()
    theta0 = Theta.constant(2.0, 0, 4.0)
    dataset = generate_dataset(theta0, 20, "RD", UniformQ(0), 4.0, seed=1)
    prior = ModelPrior((StationaryKernel.se(lengthscale=3.0),), OmegaPrior(2.0, 1.0))
    recorder = tracing.Recorder()
    with tracing.installed(recorder):
        run = inference.mcmc_run(dataset, prior, McmcConfig(20, 10, 2, 0.3), (0.0, 2.0, 4.0), 0)
        inference.posterior_outside_mass(
            run.draws, theta0, 0.1, "RD", UniformQ(0), GridSpec.regular(4.0, 5, 0)
        )
    attrs = {span[0]: span[4] for span in recorder.spans if span[0].startswith("inference.")}
    assert attrs["inference.mcmc_run"]["accept_paths"] == run.acceptance_paths
    assert attrs["inference.mcmc_run"]["accept_omega"] == 1.0
    assert attrs["inference.posterior_outside_mass"] == {"draws": 5}


def test_tracer_sees_the_ladder_stages():
    # the ladder calls generate_dataset and posterior_outside_mass once per
    # cell and mcmc_run never: the inference.mcmc_run rows read 0 on it
    tracing = load_tracing()
    spec = ExperimentSpec(
        theta0=Theta.constant(2.0, 0, 4.0),
        prior=ModelPrior((StationaryKernel.se(lengthscale=3.0),), OmegaPrior(2.0, 1.0)),
        n_ladder=(10, 20),
        epsilon=0.1,
        design="RD",
        q=UniformQ(0),
        replications=1,
        mcmc=McmcConfig(30, 10, 4, 0.3),
        knots=(0.0, 2.0, 4.0),
        metric_grid=GridSpec.regular(4.0, 5, 0),
        horizon=4.0,
    )
    recorder = tracing.Recorder()
    with tracing.installed(recorder):
        report = inference.consistency_experiment(spec)
    assert not any(c.error for c in report.cells)
    names = [span[0] for span in recorder.spans]
    assert "inference.mcmc_run" not in names
    assert names.count("hazard.generate_dataset") == 2
    scored = [span[4] for span in recorder.spans if span[0] == "inference.posterior_outside_mass"]
    assert scored == [{"draws": 5}, {"draws": 5}]
