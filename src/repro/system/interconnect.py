"""Interconnection styles.

The paper demonstrates point-to-point synthesis in §3/§4.3.1, bus-style
synthesis in §4.3.2, and names ring interconnection as the model under
development in §5; all three are implemented by :mod:`repro.core`.
"""

from __future__ import annotations

import enum


class InterconnectStyle(enum.Enum):
    """How processors may be wired together.

    * ``POINT_TO_POINT`` — a dedicated unidirectional link (cost ``C_L``)
      must exist from ``p_d1`` to ``p_d2`` for any remote transfer between
      them; each link is a separate exclusively-shared resource.
    * ``BUS`` — one shared medium connects every processor; all remote
      transfers contend for the single bus.  Following §4.3.2, the system
      cost is dominated by the processors (the bus itself contributes a
      fixed cost, 0 by default).
    * ``RING`` — processors sit on a directed ring; a remote transfer
      occupies every hop it traverses for its whole duration (§5 extension).
    """

    POINT_TO_POINT = "point_to_point"
    BUS = "bus"
    RING = "ring"

    @property
    def uses_links(self) -> bool:
        """True when per-pair link-creation variables/costs exist."""
        return self is InterconnectStyle.POINT_TO_POINT

    @property
    def is_shared_medium(self) -> bool:
        """True when all remote transfers contend for one resource."""
        return self is InterconnectStyle.BUS


#: Style names accepted by the CLI, ``/v1`` and :mod:`repro.dse`: each
#: enum value plus the short alias ``"p2p"``.
STYLE_NAMES = {
    "p2p": InterconnectStyle.POINT_TO_POINT,
    "point_to_point": InterconnectStyle.POINT_TO_POINT,
    "bus": InterconnectStyle.BUS,
    "ring": InterconnectStyle.RING,
}
