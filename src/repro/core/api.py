"""``repro.optimize`` — the scipy-minimize-style front door.

Every optimizer variant keeps its direct entry point
(:func:`~repro.core.perturbed.optimize_basic`,
:func:`~repro.core.perturbed.optimize_adaptive`, ...), but callers who
select the algorithm at runtime — the CLI, the experiment harness,
parameter sweeps — go through one façade::

    result = repro.optimize(cost, method="perturbed", seed=0,
                            options={"max_iterations": 300})

``method`` picks an entry from :data:`OPTIMIZER_REGISTRY`;
``options`` may be the method's options dataclass or a plain dict
(coerced through :func:`repro.core.options.coerce_options`, which
rejects unknown keys by name).  The façade only routes — it adds no
logic of its own, so ``optimize(cost, method=m, ...)`` is bit-identical
to calling the method's function directly with the same arguments
(tested in ``tests/core/test_api.py``).

The registry is a plain dict so downstream code can introspect or extend
it: each :class:`OptimizerSpec` records which of the common keywords
(``initial``, ``seed``, ``execution``) the variant understands, and the
façade raises a clear :class:`ValueError` when a caller passes one the
method cannot honor rather than silently dropping it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple, Type

import numpy as np

from repro.core.cost import CoverageCost
from repro.core.mirror import MirrorOptions, optimize_mirror
from repro.core.multistart import optimize_multistart
from repro.core.options import OptimizerOptions, coerce_options
from repro.core.perturbed import (
    AdaptiveOptions,
    BasicDescentOptions,
    PerturbedOptions,
    optimize_adaptive,
    optimize_basic,
    optimize_perturbed,
)


@dataclass(frozen=True)
class OptimizerSpec:
    """Registry entry: a variant's entry point and calling contract.

    ``accepts_*`` flags describe which common façade keywords the
    variant's function understands; ``extra_keywords`` are
    method-specific keywords the façade forwards verbatim (e.g. the
    multi-start's ``random_starts``).  ``summary`` is the one-line help
    text the CLI shows.
    """

    name: str
    func: Callable
    options_class: Type[OptimizerOptions]
    accepts_initial: bool = True
    accepts_seed: bool = True
    accepts_execution: bool = False
    extra_keywords: Tuple[str, ...] = ()
    summary: str = ""


#: Method name -> spec.  Iteration order is the documentation order.
OPTIMIZER_REGISTRY: Dict[str, OptimizerSpec] = {
    "basic": OptimizerSpec(
        name="basic",
        func=optimize_basic,
        options_class=BasicDescentOptions,
        accepts_seed=False,
        summary="V1: fixed-step projected steepest descent",
    ),
    "adaptive": OptimizerSpec(
        name="adaptive",
        func=optimize_adaptive,
        options_class=AdaptiveOptions,
        summary="V2+V3: random start with exact trisection line search",
    ),
    "mirror": OptimizerSpec(
        name="mirror",
        func=optimize_mirror,
        options_class=MirrorOptions,
        summary="A5 ablation: mirror descent in softmax coordinates",
    ),
    "perturbed": OptimizerSpec(
        name="perturbed",
        func=optimize_perturbed,
        options_class=PerturbedOptions,
        summary="V4: noisy gradient with annealed acceptance (the paper's"
        " headline algorithm)",
    ),
    "multistart": OptimizerSpec(
        name="multistart",
        func=optimize_multistart,
        options_class=PerturbedOptions,
        accepts_initial=False,
        accepts_execution=True,
        extra_keywords=("random_starts", "delta_grid", "transport"),
        summary="portfolio of starts, best run kept; in-process starts "
        "run in lockstep, or one task per start on an executor",
    ),
}


def optimize(
    cost: CoverageCost,
    method: str = "perturbed",
    initial: Optional[np.ndarray] = None,
    seed=None,
    options=None,
    execution=None,
    linalg: Optional[str] = None,
    terms=None,
    **kwargs,
):
    """Run the optimizer variant named ``method`` on ``cost``.

    Parameters
    ----------
    cost:
        The :class:`~repro.core.cost.CoverageCost` to minimize.
    method:
        A key of :data:`OPTIMIZER_REGISTRY` (``"basic"``,
        ``"adaptive"``, ``"mirror"``, ``"perturbed"``, or
        ``"multistart"``).
    initial:
        Starting transition matrix, for methods that take one (all but
        ``"multistart"``, which draws its own portfolio).
    seed:
        RNG seed / generator, for methods that use randomness.
    options:
        The method's options dataclass, or a plain mapping coerced into
        it (unknown keys raise :class:`ValueError` naming them), or
        ``None`` for the method's defaults.
    execution:
        ``"multistart"`` only: the executor its starts run on — a
        :mod:`repro.exec` backend name or an
        :class:`~repro.exec.executor.Executor` instance, forwarded as
        :func:`~repro.core.multistart.optimize_multistart`'s
        ``executor``.  ``None`` (default) uses the process-wide default
        executor; a serial one runs the starts in lockstep.  The
        method-specific ``transport`` keyword
        (``"pickle"``/``"shm"``/``"auto"``) selects the process
        backend's payload transport for executor-backed runs (see
        :mod:`repro.exec.shm`); results are bit-identical across
        transports.
    linalg:
        ``"dense"``, ``"sparse"``, or ``"auto"`` — override the cost's
        linear-algebra backend for this run via
        :meth:`CoverageCost.with_linalg`.  ``None`` (default) keeps the
        cost's own setting.
    terms:
        Plugin cost terms to compose for this run via
        :meth:`CoverageCost.with_extra_terms` — anything
        :func:`~repro.core.registry.normalize_extra_terms` accepts: a
        ``{name: weight}`` mapping or a sequence of names /
        ``(name, weight)`` / ``(name, weight, params)`` entries naming
        :data:`~repro.core.registry.TERM_REGISTRY` members (see
        ``docs/objectives.md``).  ``None`` (default) keeps the cost's
        own composition.
    **kwargs:
        Method-specific keywords (e.g. ``random_starts`` for
        ``"multistart"``); anything the method does not declare raises
        :class:`ValueError`.

    Returns the method's native result
    (:class:`~repro.core.result.OptimizationResult`, or
    :class:`~repro.core.multistart.MultiStartResult` for
    ``"multistart"``), bit-identical to calling the method's function
    directly.
    """
    if linalg is not None:
        cost = cost.with_linalg(linalg)
    if terms is not None:
        cost = cost.with_extra_terms(terms)
    try:
        spec = OPTIMIZER_REGISTRY[method]
    except KeyError:
        known = ", ".join(sorted(OPTIMIZER_REGISTRY))
        raise ValueError(
            f"unknown method {method!r}; available methods: {known}"
        ) from None

    call_kwargs = {}
    coerced = coerce_options(spec.options_class, options, method=method)
    if coerced is not None:
        call_kwargs["options"] = coerced
    if initial is not None:
        if not spec.accepts_initial:
            raise ValueError(
                f"method {method!r} does not accept initial= "
                "(it draws its own start portfolio)"
            )
        call_kwargs["initial"] = initial
    if seed is not None:
        if not spec.accepts_seed:
            raise ValueError(
                f"method {method!r} is deterministic and does not "
                "accept seed="
            )
        call_kwargs["seed"] = seed
    if execution is not None:
        if not spec.accepts_execution:
            raise ValueError(
                f"method {method!r} does not accept execution= "
                "(only 'multistart' does)"
            )
        call_kwargs["executor"] = execution
    unknown = sorted(set(kwargs) - set(spec.extra_keywords))
    if unknown:
        valid = ", ".join(spec.extra_keywords) or "none"
        raise ValueError(
            f"unknown keyword(s) for method {method!r}: "
            f"{', '.join(unknown)}; method-specific keywords: {valid}"
        )
    call_kwargs.update(kwargs)
    return spec.func(cost, **call_kwargs)
