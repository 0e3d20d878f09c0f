"""The benchmark tracer finds every lynmag name it reads.

``perfbench/tracing.py`` wraps lynmag's public names from outside and
reports a per-layer metric as None (absent) when the name it counts no
longer exists.  A traced benchmark run then prints a null metric, so a
rename or deletion in ``src/lynmag`` must fail here, not in the
benchmark.
"""

from pathlib import Path

import lynmag

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_per_layer_metric_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import PER_LAYER, Tracer

    tracer = Tracer(lynmag)
    tracer.install()
    try:
        tracer.run_request(0, "lyndon", lambda: lynmag.lyndon_words(lynmag.Alphabet("xy"), 3))
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert set(metrics) == set(PER_LAYER) - {"trace.overhead_s"}
    assert [m for m, value in metrics.items() if value is None] == []
