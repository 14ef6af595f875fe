"""Reference implementations the production simulators are checked against.

The modules here are test equipment, not tests: they hold the per-step
simulators (:mod:`tests.oracles.simulation`), their event accumulators
(:mod:`tests.oracles.events`) and the scalar pass-by geometry loops
(:mod:`tests.oracles.geometry`), written for clarity rather than speed.
``tests/simulation/test_engine_equivalence.py`` requires every public
simulation result to equal its oracle bit for bit, and
``benchmarks/perf/bench_sim.py`` / ``bench_team.py`` time the engines
against them.  ``tests/topology/test_geometry_oracles.py`` does the same
for the pass-by tensor and the chord table.
"""
