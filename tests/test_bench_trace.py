"""The benchmark's tracer still sees every span its workloads require.

bench/run.py fails a traced call when a name in its workload's `layers`
records no calls, which happens when a package function it wraps is
deleted, renamed or no longer called through a module binding.  This
runs one traced call per workload, reading bench/ without changing it,
so such a change fails here rather than in a benchmark run.
"""

import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "bench")
sys.path.insert(0, BENCH)

import tracing  # noqa: E402
import workloads  # noqa: E402

# Workloads whose first interval fires every required span; ou_boot's
# first interval does not resample, so it runs in full.
FIRST_ONLY = {"pendulum_param", "lineargauss_rb", "cli_epidemic_t2"}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_required_span_records_calls(tmp_path, name):
    wl = workloads.WORKLOADS[name]
    inputs = wl.simulate(23, str(tmp_path))
    tracer = tracing.Tracer()
    with tracer.installed():
        call = wl.build(inputs, 23, wl.threads, str(tmp_path),
                        first_only=name in FIRST_ONLY)
    with tracer.installed(run=0):
        call(lambda: None)
    _, _, calls, _ = tracer.summarize(0)
    assert [n for n in wl.layers if calls[n] == 0] == []
