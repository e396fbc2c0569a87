"""Execution results."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core.events import Event
from ..errors import GuestError


@dataclass
class TraceResult:
    """Everything recorded about one executed schedule.

    ``hbr_fp`` / ``lazy_fp`` are the terminal fingerprints of the regular
    and lazy happens-before relations; ``state_hash`` digests the final
    values of all shared objects plus the error status.  For any two
    executions of the same program the paper's guarantees give::

        hbr_fp equal      =>  lazy_fp equal  (Theorem 2.1 + lazy ⊆ regular)
        lazy_fp equal     =>  state_hash equal  (Theorem 2.2)
    """

    program_name: str
    schedule: List[int]
    hbr_fp: int
    lazy_fp: int
    state_hash: int
    error: Optional[GuestError] = None
    truncated: bool = False
    #: the stamped events and the final object values: filled by
    #: :func:`~repro.runtime.schedule.execute`, left empty by
    #: ``Executor.finish`` (explorers read the fingerprints only)
    events: List[Event] = field(default_factory=list)
    final_state: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.error is None and not self.truncated

    @property
    def num_events(self) -> int:
        return len(self.schedule)

    def describe(self) -> str:
        status = "ok" if self.ok else (
            "truncated" if self.truncated else f"error: {self.error}"
        )
        return (
            f"{self.program_name}: {self.num_events} events, "
            f"schedule={self.schedule}, {status}"
        )


@dataclass(slots=True)
class PendingInfo:
    """What a not-yet-executed thread wants to do next (DPOR lookahead).

    Every field is a pure function of the pending op and its thread, so
    ``Executor.pending_info`` builds one record per op and keeps it on
    the op (``Op.info``), and DPOR's race analysis relies on that: the
    same record means the same op of the same thread.  Only a pending
    op has a record (a parked timed waiter's is kept on its thread),
    and a thread with a pending op is always runnable.
    """

    tid: int
    kind: int
    oid: int
    key: Any
    released_mutex_oid: Optional[int] = None
    #: the op carries a virtual-time timeout, so stepping it may fire
    #: the timeout instead (DPOR must treat it as always co-enabled)
    timed: bool = False

    def location(self) -> Tuple[int, Any]:
        return (self.oid, self.key)
