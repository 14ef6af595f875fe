"""The benchmark's geometry spans see every pass-by and chord build.

``e2ebench/tracer.py`` times the geometry layer by wrapping three names:
``repro.topology.model.passby_tensor``, ``support_passby_entries`` and
``LegCoverageTable.__init__``.  A builder that reached the chord kernel
some other way would silently report zero ``topology.passby_s`` /
``topology.chord_s``; this test installs only those targets and counts
the spans one fresh topology produces.
"""

from repro.topology.library import scalable_topology
from tests.test_e2ebench_targets import _load_tracer


def test_geometry_builds_are_traced():
    tracer_module = _load_tracer()
    tracer = tracer_module.Tracer().install(
        [t for t in tracer_module.TARGETS if t.layer == "topology"]
    )
    try:
        topology = scalable_topology("city-grid", 16)
        topology.passby
        topology.passby_entries()
        topology.chord_table()
    finally:
        tracer.uninstall()
    spans = tracer.snapshot()["spans"]
    calls = {key: entry[0] for key, entry in spans.items()}
    assert calls == {"topology.passby": 2, "topology.chord": 1}
