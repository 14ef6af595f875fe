"""The composable cost-term registry and the weighted ``CostSum`` composer.

Mirrors the :data:`~repro.core.api.OPTIMIZER_REGISTRY` spec/options
pattern for the objective layer: each :class:`TermSpec` records a term's
factory, its tunable parameters with their defaults, and one-line help
text, keyed by name in :data:`TERM_REGISTRY`.  :func:`build_term`
constructs a term from a topology with unknown names and parameters
rejected by name, and :class:`CostSum` composes any number of
:class:`~repro.core.terms.CostTerm` instances — each scaled by a weight
— into one objective (the shape of the GPS ``cost_sum.py`` exemplar).

:class:`~repro.core.cost.CoverageCost` builds its paper terms through
these factories and composes them (plus any ``extra_terms`` plugins) in
a :class:`CostSum`, so "the objective" is data, not special cases:
``repro.optimize(..., terms=...)``, the CLI ``--terms``/``--weights``
flags, and sweep-grid ``terms`` entries all name registry entries.  See
``docs/objectives.md`` for the authoring guide.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.state import ChainState
from repro.core.terms import (
    CostTerm,
    CoverageDeviationTerm,
    EnergyTerm,
    EntropyTerm,
    ExposureTerm,
    KCoverageShortfallTerm,
    PeriodicityTerm,
    SupportCoverageTerm,
    TermBatch,
    WorstExposureTerm,
    check_term_weight,
)


@dataclass(frozen=True)
class TermSpec:
    """Registry entry: a cost term's factory and calling contract.

    ``factory(topology, weight, **params)`` returns a
    :class:`~repro.core.terms.CostTerm` with the weight baked into its
    natural knob (``alpha`` for coverage, ``beta`` for exposure, ``w``
    for the rest).  ``params`` maps the term's tunable parameter names
    to their defaults — :func:`build_term` rejects anything else by
    name, the same contract :func:`~repro.core.options.coerce_options`
    applies to optimizer options.  ``summary`` is the one-line help
    text shown by docs and the CLI; ``source`` names where the
    objective comes from (a paper equation or a PAPERS.md direction).
    """

    name: str
    factory: Callable[..., CostTerm]
    params: Mapping[str, object] = field(default_factory=dict)
    summary: str = ""
    source: str = ""


def _make_coverage(topology, weight, **_params) -> CostTerm:
    """Eq. 9's coverage deviation, support-aware.

    Sparse-support topologies get the ``O(E)`` entry-list term, dense
    ones the precomputed ``O(M^3)`` tensor term.
    """
    if topology.adjacency is not None:
        return SupportCoverageTerm(
            travel_times=topology.travel_times,
            entries=topology.passby_entries(),
            target_shares=topology.target_shares,
            alpha=weight,
            support=topology.adjacency,
        )
    return CoverageDeviationTerm(
        travel_times=topology.travel_times,
        passby=topology.passby,
        target_shares=topology.target_shares,
        alpha=weight,
    )


def _make_exposure(topology, weight, **_params) -> CostTerm:
    return ExposureTerm(beta=weight, size=topology.size)


def _make_energy(topology, weight, target=0.0) -> CostTerm:
    return EnergyTerm(
        distances=topology.distances, weight=weight, target=float(target),
        support=topology.adjacency,
    )


def _make_entropy(topology, weight, **_params) -> CostTerm:
    return EntropyTerm(weight=weight, support=topology.adjacency)


def _make_minimax(_topology, weight, tau=8.0) -> CostTerm:
    return WorstExposureTerm(weight=weight, tau=float(tau))


def _make_kcoverage(_topology, weight, team=4, k=2,
                    threshold=0.5) -> CostTerm:
    return KCoverageShortfallTerm(
        weight=weight, team=int(team), k=int(k),
        threshold=float(threshold),
    )


def _make_periodicity(topology, weight, slack=1.5) -> CostTerm:
    """Period ceilings derived from the target allocation.

    Under the ideal schedule ``pi = Phi`` the Kac return time of PoI
    ``i`` is ``1/Phi_i`` transitions; ``slack`` multiplies that, so the
    default penalizes only PoIs revisited slower than ``slack`` times
    their allocation-ideal period.
    """
    slack = float(slack)
    if not np.isfinite(slack) or slack <= 0:
        raise ValueError(f"slack must be finite and > 0, got {slack}")
    return PeriodicityTerm(
        weight=weight, periods=slack / topology.target_shares
    )


#: Term name -> spec.  Iteration order is the documentation order; the
#: first four are the paper's objective re-expressed through the
#: registry, the rest are the plugin terms the composer makes cheap.
TERM_REGISTRY: Dict[str, TermSpec] = {
    "coverage": TermSpec(
        name="coverage",
        factory=_make_coverage,
        summary="squared per-PoI coverage-share deviation from Phi",
        source="Eq. 9 first sum (weight = alpha)",
    ),
    "exposure": TermSpec(
        name="exposure",
        factory=_make_exposure,
        summary="squared per-PoI average exposure times",
        source="Eq. 9 second sum (weight = beta)",
    ),
    "energy": TermSpec(
        name="energy",
        factory=_make_energy,
        params={"target": 0.0},
        summary="squared gap of mean travel distance D to a target",
        source="Section VII",
    ),
    "entropy": TermSpec(
        name="entropy",
        factory=_make_entropy,
        summary="entropy-rate maximization -w H (unpredictability)",
        source="Section VII",
    ),
    "minimax": TermSpec(
        name="minimax",
        factory=_make_minimax,
        params={"tau": 8.0},
        summary="softmax-smoothed worst-PoI exposure (smooth max)",
        source="Pinto et al., multi-agent persistent monitoring",
    ),
    "kcoverage": TermSpec(
        name="kcoverage",
        factory=_make_kcoverage,
        params={"team": 4, "k": 2, "threshold": 0.5},
        summary="squared-hinge shortfall of P[>=k sensors co-located]",
        source="Iyer & Manjunath, k-coverage limit laws",
    ),
    "periodicity": TermSpec(
        name="periodicity",
        factory=_make_periodicity,
        params={"slack": 1.5},
        summary="squared-hinge Kac return-time exceedance over periods",
        source="point sweep coverage",
    ),
}


def build_term(name: str, topology, weight: float = 1.0,
               **params) -> CostTerm:
    """Construct the registered term ``name`` for ``topology``.

    ``weight`` is validated (finite, ``>= 0``) and baked into the term;
    ``params`` must be a subset of the spec's declared parameters —
    unknown names raise a :class:`ValueError` listing the valid set,
    exactly as the optimizer options contract does.
    """
    try:
        spec = TERM_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(TERM_REGISTRY))
        raise ValueError(
            f"unknown cost term {name!r}; registered terms: {known}"
        ) from None
    unknown = sorted(set(params) - set(spec.params))
    if unknown:
        valid = ", ".join(sorted(spec.params)) or "none"
        raise ValueError(
            f"unknown parameter(s) for term {name!r}: "
            f"{', '.join(unknown)}; valid parameters: {valid}"
        )
    return spec.factory(topology, check_term_weight(weight), **params)


def normalize_extra_terms(spec) -> Tuple[Tuple[str, float, Tuple], ...]:
    """Canonicalize an ``extra_terms`` / ``terms=`` argument.

    Accepts ``None``, a ``{name: weight}`` mapping, or a sequence whose
    entries are ``name``, ``(name, weight)``, or
    ``(name, weight, params_mapping)``.  Returns a tuple of
    ``(name, weight, params_items)`` triples — hashable, order
    preserving, and JSON-plain — with names, weights, and parameter
    names validated against :data:`TERM_REGISTRY` up front, so a bad
    composition fails at construction rather than mid-run.
    """
    if spec is None:
        return ()
    if isinstance(spec, Mapping):
        entries = [(name, weight) for name, weight in spec.items()]
    elif isinstance(spec, str):
        raise TypeError(
            "terms must be a mapping or a sequence of (name, weight) "
            f"entries, got the bare string {spec!r}"
        )
    else:
        entries = list(spec)
    normalized = []
    for entry in entries:
        params: Mapping = {}
        if isinstance(entry, str):
            name, weight = entry, 1.0
        else:
            parts = tuple(entry)
            if len(parts) == 2:
                name, weight = parts
            elif len(parts) == 3:
                name, weight, params = parts
                # Accept a mapping or an items-tuple — the latter is
                # this function's own output, so normalization is
                # idempotent.
                params = dict(params)
            else:
                raise ValueError(
                    "terms entries must be name, (name, weight), or "
                    f"(name, weight, params); got {entry!r}"
                )
        if name not in TERM_REGISTRY:
            known = ", ".join(sorted(TERM_REGISTRY))
            raise ValueError(
                f"unknown cost term {name!r}; registered terms: {known}"
            )
        unknown = sorted(set(params) - set(TERM_REGISTRY[name].params))
        if unknown:
            valid = ", ".join(sorted(TERM_REGISTRY[name].params)) or "none"
            raise ValueError(
                f"unknown parameter(s) for term {name!r}: "
                f"{', '.join(unknown)}; valid parameters: {valid}"
            )
        normalized.append((
            str(name),
            check_term_weight(weight),
            tuple(sorted((str(k), v) for k, v in dict(params).items())),
        ))
    return tuple(normalized)


class ScaledTerm(CostTerm):
    """A term multiplied by a scalar weight — ``CostSum``'s scaling node.

    Wraps any :class:`~repro.core.terms.CostTerm`; value, partials, and
    batched values are the inner term's times ``weight``.  ``CostSum``
    skips the wrapper entirely at weight ``1.0``, so unweighted
    compositions evaluate the raw terms bit for bit.
    """

    def __init__(self, term: CostTerm, weight: float) -> None:
        self.term = term
        self.weight = check_term_weight(weight)

    def value(self, state: ChainState) -> float:
        return self.weight * self.term.value(state)

    def grad_pi(self, state: ChainState) -> Optional[np.ndarray]:
        piece = self.term.grad_pi(state)
        return None if piece is None else self.weight * piece

    def grad_z(self, state: ChainState) -> Optional[np.ndarray]:
        piece = self.term.grad_z(state)
        return None if piece is None else self.weight * piece

    def grad_p(self, state: ChainState) -> Optional[np.ndarray]:
        piece = self.term.grad_p(state)
        return None if piece is None else self.weight * piece

    def batch_value(self, batch: TermBatch) -> np.ndarray:
        return self.weight * self.term.batch_value(batch)

    @property
    def supports_batch(self) -> bool:
        return self.term.supports_batch


class CostSum:
    """A weighted sum of cost terms — the assembled objective.

    Holds ordered ``(label, weight, term)`` entries; :meth:`members`
    exposes the effective term list (raw at weight ``1.0``, wrapped in
    :class:`ScaledTerm` otherwise) that the gradient engine iterates.
    :meth:`value` and :meth:`batch_value` are one left fold of the
    member values in entry order, scalar and batched alike — the only
    place the objective is assembled.
    """

    def __init__(self, entries) -> None:
        self._entries: List[Tuple[str, float, CostTerm]] = []
        self._members: List[CostTerm] = []
        for label, weight, term in entries:
            weight = check_term_weight(weight)
            self._entries.append((str(label), weight, term))
            self._members.append(
                term if weight == 1.0 else ScaledTerm(term, weight)
            )

    @property
    def entries(self) -> List[Tuple[str, float, CostTerm]]:
        """The ``(label, weight, term)`` entries, in composition order."""
        return list(self._entries)

    @property
    def labels(self) -> List[str]:
        """The composition's term labels, in order."""
        return [label for label, _, _ in self._entries]

    def members(self) -> List[CostTerm]:
        """The effective (weight-applied) terms, in composition order."""
        return list(self._members)

    def term_values(self, state: ChainState) -> List[Tuple[str, float]]:
        """``(label, value)`` per member at ``state``, in entry order."""
        return [
            (label, term.value(state))
            for (label, _, _), term in zip(self._entries, self._members)
        ]

    def value(self, state: ChainState) -> float:
        """The composed objective at ``state``."""
        return float(sum(value for _, value in self.term_values(state)))

    def batch_value(self, batch: TermBatch) -> np.ndarray:
        """The composed objective per probe of a stacked evaluation."""
        return sum(term.batch_value(batch) for term in self._members)

    def member(self, label: str) -> CostTerm:
        """The effective term composed under ``label``."""
        for index, (entry_label, _, _) in enumerate(self._entries):
            if entry_label == label:
                return self._members[index]
        known = ", ".join(self.labels)
        raise KeyError(f"no term labeled {label!r}; composed: {known}")


__all__ = [
    "CostSum",
    "ScaledTerm",
    "TERM_REGISTRY",
    "TermSpec",
    "build_term",
    "normalize_extra_terms",
]
