"""Reference implementations the production code is checked against.

The modules here are test equipment, not tests: they hold the per-step
simulators (:mod:`tests.oracles.simulation`), their event accumulators
(:mod:`tests.oracles.events`), the scalar pass-by geometry loops
(:mod:`tests.oracles.geometry`) and the start-by-start multi-start loop
(:mod:`tests.oracles.multistart`), written for clarity rather than
speed.  ``tests/simulation/test_engine_equivalence.py`` requires every
public simulation result to equal its oracle bit for bit, and
``benchmarks/perf/bench_sim.py`` / ``bench_team.py`` time the engines
against them.  ``tests/topology/test_geometry_oracles.py`` does the same
for the pass-by tensor and the chord table, and
``tests/core/test_lockstep.py`` / ``benchmarks/perf/bench_rays.py`` for
the in-process multi-start driver.
"""
