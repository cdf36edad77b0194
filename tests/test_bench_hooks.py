"""The benchmark's tracer wraps library names in place, by name.

bench/tracing.py looks up each name it patches (for example
`kl.HazardCurve` and `inference.sup_deviation_metric`) in its owner's
namespace, so entering `installed` raises KeyError when a refactor drops
one.  This test enters and leaves it, without running a workload.
"""

import importlib.util
from pathlib import Path

from gphazard import bounds, cli, gp_paths, hazard, inference, kl, vc
from gphazard.hazard import SurvivalDataset, Theta
from gphazard.kernels import StationaryKernel

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
