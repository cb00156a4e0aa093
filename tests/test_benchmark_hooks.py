"""The benchmark's tracer (perfbench/tracing.py) hooks sampler methods and
module functions by name.  A renamed hook would otherwise only show up as
a KeyError under ``perfbench/run.py --trace 1``."""

import importlib.util
from pathlib import Path

from bvcm.cli import main
from bvcm.gibbs import GibbsSampler

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def test_traced_warm_fit_records_every_sampler_span(tmp_path):
    net = tmp_path / "net.jsonl"
    assert main([
        "simulate", "--k", "2", "--alpha", "0.5,0.5", "--theta", "5,5",
        "--prop-diag", "0.9", "--m", "60", "--seed", "3", "--out", str(net),
    ]) == 0
    methods = dict(vars(GibbsSampler))

    tracer = load_tracer()("hooks")
    tracer.install()
    try:
        code = main([
            "fit", "--input", str(net), "--k", "2", "--iters", "3",
            "--burnin", "1", "--seed", "5", "--init", "warm",
            "--out", str(tmp_path / "chain"),
        ])
    finally:
        tracer.uninstall()

    assert code == 0
    names = {span["name"] for span in tracer.spans}
    for phase in ("init", "sweep", "aux", "deg_table", "propensity", "log_prob",
                  "warm_start_labels"):
        assert f"gibbs.{phase}" in names, phase
    assert dict(vars(GibbsSampler)) == methods
