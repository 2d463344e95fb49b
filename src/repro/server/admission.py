"""Admission control: per-tenant quotas checked at submit time.

Overload never queues and never hangs — a submission that would
exceed a quota is refused synchronously with a typed
:class:`~repro.errors.AdmissionError` naming the quota, its limit and
the observed value, so a client can distinguish "slow down" from
"broken".

Quota semantics (all optional, per :class:`TenantPolicy`):

* ``max_queued`` — ceiling on the tenant's *live* jobs (pending +
  running).  Terminal jobs free their slot.
* ``max_cost_units`` — ceiling on the tenant's lifetime *committed*
  cost: units already charged at dispatch plus units promised by jobs
  still in the queue.  Checking the committed sum (rather than only
  what has run) keeps the decision independent of completion timing,
  so the same submission sequence is accepted or rejected identically
  on every run.
* ``max_queued_total`` (controller-wide) — backstop on the whole
  server's live jobs.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional

from repro.errors import AdmissionError, ServerError

#: Tenant names travel inside dotted metric names
#: (``server.tenant.<t>.paid_worker_seconds``), so keep them flat.
_TENANT_NAME = re.compile(r"[A-Za-z0-9_-]+")


def _positive(value) -> bool:
    """A finite number > 0: NaN passes a ``value <= 0`` guard, and a
    bool or a numeric string is no number."""
    return type(value) in (int, float) and math.isfinite(value) and value > 0


def valid_tenant_name(name: str) -> bool:
    """Whether a tenant name is safe to embed in metric names."""
    return bool(isinstance(name, str) and _TENANT_NAME.fullmatch(name))


@dataclass(frozen=True)
class TenantPolicy:
    """One tenant's scheduling weight, guarantees and quotas."""

    name: str
    #: Fair-share weight: a weight-2 tenant is dispatched twice as
    #: often as a weight-1 tenant under contention.
    weight: float = 1.0
    #: Slots the scheduler guarantees before weighted sharing applies.
    min_share: int = 0
    #: Ceiling on live (pending + running) jobs; None = unlimited.
    max_queued: Optional[int] = None
    #: Ceiling on lifetime committed cost units; None = unlimited.
    max_cost_units: Optional[float] = None

    def __post_init__(self):
        if not valid_tenant_name(self.name):
            raise ServerError(
                f"bad tenant name {self.name!r}: must match "
                "[A-Za-z0-9_-]+ (it is embedded in metric names)"
            )
        if not _positive(self.weight):
            raise ServerError(
                f"tenant {self.name!r}: weight must be > 0 and finite, "
                f"got {self.weight}"
            )
        if self.min_share < 0:
            raise ServerError(
                f"tenant {self.name!r}: min_share must be >= 0"
            )
        if self.max_queued is not None and self.max_queued < 1:
            raise ServerError(
                f"tenant {self.name!r}: max_queued must be >= 1"
            )
        if (self.max_cost_units is not None
                and not _positive(self.max_cost_units)):
            raise ServerError(
                f"tenant {self.name!r}: max_cost_units must be > 0 and "
                f"finite, got {self.max_cost_units}"
            )


class AdmissionController:
    """Stateless quota arithmetic over the queue's live counts."""

    def __init__(
        self,
        tenants: Iterable[TenantPolicy] = (),
        default: Optional[TenantPolicy] = None,
        max_queued_total: Optional[int] = None,
    ):
        self.tenants: Dict[str, TenantPolicy] = {
            policy.name: policy for policy in tenants
        }
        #: Template applied to tenants that never registered; its
        #: ``name`` field is ignored.
        self.default = default or TenantPolicy(name="default")
        self.max_queued_total = max_queued_total

    def policy(self, tenant: str) -> TenantPolicy:
        """The named tenant's policy, minting one from the template."""
        known = self.tenants.get(tenant)
        if known is not None:
            return known
        if not valid_tenant_name(tenant):
            raise AdmissionError(
                tenant, "bad_tenant", "[A-Za-z0-9_-]+", tenant,
                f"tenant name {tenant!r} rejected: must match "
                "[A-Za-z0-9_-]+",
            )
        minted = TenantPolicy(
            name=tenant,
            weight=self.default.weight,
            min_share=self.default.min_share,
            max_queued=self.default.max_queued,
            max_cost_units=self.default.max_cost_units,
        )
        self.tenants[tenant] = minted
        return minted

    def check_submit(
        self,
        tenant: str,
        cost: float,
        live_jobs: Mapping[str, int],
        committed_units: Mapping[str, float],
        total_live: int,
    ) -> TenantPolicy:
        """Admit or raise; never blocks.

        ``live_jobs``/``committed_units`` are per-tenant counts of
        pending+running jobs and lifetime committed cost units;
        ``total_live`` is the server-wide live-job count.
        """
        if not _positive(cost):
            raise AdmissionError(
                tenant, "bad_cost", "> 0", cost,
                f"tenant {tenant!r}: job cost must be > 0 and finite, "
                f"got {cost}",
            )
        policy = self.policy(tenant)
        if (
            self.max_queued_total is not None
            and total_live + 1 > self.max_queued_total
        ):
            raise AdmissionError(
                tenant, "total_queued", self.max_queued_total,
                total_live + 1,
            )
        live = live_jobs.get(tenant, 0)
        if policy.max_queued is not None and live + 1 > policy.max_queued:
            raise AdmissionError(
                tenant, "queued_jobs", policy.max_queued, live + 1,
            )
        committed = committed_units.get(tenant, 0.0)
        if (
            policy.max_cost_units is not None
            and committed + cost > policy.max_cost_units
        ):
            raise AdmissionError(
                tenant, "cost_units", policy.max_cost_units,
                committed + cost,
            )
        return policy

    def __repr__(self) -> str:
        return (f"AdmissionController({len(self.tenants)} tenants, "
                f"total cap {self.max_queued_total})")
