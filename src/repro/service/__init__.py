"""Concurrent query-service layer: sessions and prepared statements.

See :mod:`repro.service.service` for the architecture overview.  Typical
entry point::

    with client.service(workers=8) as service:
        session = service.open_session()
        outcome = session.execute("SELECT ...")

The plan cache the sessions and prepared statements share is the
client's (:mod:`repro.core.plancache`); it is re-exported here.
"""

from repro.core.plancache import PlanCache, PlanCacheStats, plan_cache_key
from repro.service.service import (
    DEFAULT_WORKERS,
    MonomiService,
    PreparedStatement,
    ServiceSession,
    ServiceStats,
)

__all__ = [
    "DEFAULT_WORKERS",
    "MonomiService",
    "PlanCache",
    "PlanCacheStats",
    "PreparedStatement",
    "ServiceSession",
    "ServiceStats",
    "plan_cache_key",
]
