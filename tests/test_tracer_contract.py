"""The benchmark's tracer wraps program names by attribute; each must resolve.

``benchmarks/workloads.py`` patches 22 functions and methods of the package
for a traced run (``--trace 1``).  Renaming any of them would otherwise break
only traced benchmark runs, so this test installs the tracer and checks that
every wrapped name is found, replaced, and put back by ``restore``.
"""

from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
WRAPPED_NAMES = 22


def test_tracer_wraps_and_restores_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import spans
    import workloads

    tracer = spans.Tracer()
    try:
        workloads.install_tracer(tracer)
        wrapped = list(tracer._patches)
        assert len({(id(owner), attr) for owner, attr, _ in wrapped}) == WRAPPED_NAMES
        for owner, attr, original in wrapped:
            assert vars(owner)[attr] is not original, f"{attr} was not wrapped"
    finally:
        tracer.restore()
    for owner, attr, original in wrapped:
        assert vars(owner)[attr] is original, f"{attr} was not restored"
