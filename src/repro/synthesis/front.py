"""The :class:`ParetoFront` result object returned by the sweeps.

Historically the sweeps returned a bare ``List[Design]``.  The front is
now a first-class object carrying the per-step constraint values and the
merged solver telemetry alongside the designs — while remaining fully
sequence-compatible (iteration, indexing, ``len``, equality against a
plain list) so existing callers keep working unchanged.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from typing import Iterator, List, Optional, Union, overload

from repro.milp.solution import SolveStats
from repro.synthesis.design import Design


class ParetoFront(Sequence):
    """The non-inferior designs found by a Pareto sweep, fastest first.

    Behaves like the ``List[Design]`` the sweeps used to return —
    ``front[0]``, ``len(front)``, ``for design in front``, and equality
    against a list of designs all work — while also exposing the sweep's
    metadata.

    Attributes:
        designs: The non-inferior designs, in sweep order.
        caps: The constraint value each design was synthesized under —
            cost caps for :meth:`~repro.synthesis.synthesizer.Synthesizer.pareto_sweep`,
            deadlines for
            :meth:`~repro.synthesis.synthesizer.Synthesizer.pareto_sweep_by_deadline`;
            ``None`` marks the unconstrained first solve.  Same length as
            ``designs``.
        stats: Solver telemetry merged over every solve of this sweep;
            ``None`` when the producer did not track it.
    """

    def __init__(
        self,
        designs: List[Design],
        caps: Optional[List[Optional[float]]] = None,
        stats: Optional[SolveStats] = None,
    ) -> None:
        self.designs = list(designs)
        self.caps = list(caps) if caps is not None else [None] * len(self.designs)
        if len(self.caps) != len(self.designs):
            raise ValueError(
                f"caps ({len(self.caps)}) and designs ({len(self.designs)}) "
                "must have the same length"
            )
        self.stats = stats

    # -- sequence protocol (back-compat with the old List[Design] return) --
    def __len__(self) -> int:
        """Number of designs on the front."""
        return len(self.designs)

    @overload
    def __getitem__(self, index: int) -> Design: ...

    @overload
    def __getitem__(self, index: slice) -> List[Design]: ...

    def __getitem__(self, index: Union[int, slice]):
        """Index like a list; slices return plain ``List[Design]``."""
        return self.designs[index]

    def __iter__(self) -> Iterator[Design]:
        """Iterate over the designs in sweep order."""
        return iter(self.designs)

    def __eq__(self, other: object) -> bool:
        """Equal to another front, list, or tuple with the same designs.

        Metadata (``caps``, ``stats``) is deliberately excluded so
        pre-existing assertions like ``front == [design_a, design_b]``
        keep passing.
        """
        if isinstance(other, ParetoFront):
            return self.designs == other.designs
        if isinstance(other, (list, tuple)):
            return self.designs == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        """Short display form."""
        return f"ParetoFront({len(self.designs)} designs)"

    # -- serialization ------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-compatible document (designs + caps + stats).

        Each design serializes via
        :func:`repro.synthesis.io.design_to_document` — the same schema
        :func:`repro.synthesis.io.save_design` writes — so single designs
        round-trip through :func:`repro.synthesis.io.design_from_dict` and
        whole fronts through :meth:`from_dict`.
        """
        from repro.synthesis.io import design_to_document

        return {
            "designs": [design_to_document(design) for design in self.designs],
            "caps": self.caps,
            "stats": self.stats.as_dict() if self.stats is not None else None,
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        """Serialize the front (designs + caps + stats) as a JSON string."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: dict, graph, library) -> "ParetoFront":
        """Rebuild a front from :meth:`to_dict` output.

        Designs do not embed their problem, so the graph and library the
        front was synthesized for must be supplied (same contract as
        :func:`repro.synthesis.io.design_from_dict`).

        Raises:
            SynthesisError: On malformed documents.
        """
        from repro.errors import SynthesisError
        from repro.synthesis.io import design_from_dict

        if not isinstance(data, dict) or "designs" not in data:
            raise SynthesisError("malformed pareto-front document")
        designs = [
            design_from_dict(graph, library, entry) for entry in data["designs"]
        ]
        raw_caps = data.get("caps")
        caps = (
            [None if cap is None else float(cap) for cap in raw_caps]
            if raw_caps is not None
            else None
        )
        stats = (
            SolveStats.from_dict(data["stats"])
            if data.get("stats") is not None
            else None
        )
        return cls(designs, caps=caps, stats=stats)

    @classmethod
    def from_json(cls, text: str, graph, library) -> "ParetoFront":
        """Inverse of :meth:`to_json`: parse a front from its JSON string."""
        from repro.errors import SynthesisError

        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SynthesisError(f"invalid pareto-front JSON: {exc}") from exc
        return cls.from_dict(data, graph, library)
