"""Partial-exclusion repair for Reed-Solomon codes over GF(2^N) towers.

The package builds RS code instances whose single-node repair downloads
exactly the cut-set bound's worth of subfield symbols, under two regimes:

* construction 1 — every node individually excludable from helping, repair
  locality d = k + s - 1;
* construction 2 — one whole node group excluded at a time, locality
  d = n - t_i.

`bounds_tradeoff` provides the matching sub-packetization lower bounds and
the flexibility/bandwidth trade-off table; `storage_sim` runs repairs over an
in-process cluster; `cli` exposes all of it as the ``perepair`` command.
"""

from .errors import PERepairError, exit_status
from .field_tower import (
    BasisOverSubfield,
    FieldCtx,
    FieldElem,
    SubfieldHandle,
    dual_basis,
    factor_integer,
    is_primitive_in_subfield,
    make_field,
    trace_to,
)
from .rs_codes import (
    Codeword,
    EvaluationSet,
    MessagePoly,
    encode,
    naive_decode,
)
from .bounds_tradeoff import (
    BoundQuery,
    conventional_lower_bound,
    min_subpacketization,
    tradeoff_csv,
    tradeoff_table,
)
from .constructions import (
    build_plan_c1,
    build_plan_c2,
    find_primes_c1,
    load_plan,
    save_plan,
)
from .repair_engine import (
    RepairTranscript,
    cutset_bits,
    repair_c1,
    repair_c2,
)
from .storage_sim import (
    ClusterState,
    TransferLog,
    fail_node,
    init_cluster,
    load_cluster,
    run_repair,
    save_cluster,
)

__version__ = "0.1.0"

__all__ = [
    "PERepairError",
    "exit_status",
    "FieldCtx",
    "FieldElem",
    "SubfieldHandle",
    "BasisOverSubfield",
    "make_field",
    "factor_integer",
    "trace_to",
    "is_primitive_in_subfield",
    "dual_basis",
    "EvaluationSet",
    "MessagePoly",
    "Codeword",
    "encode",
    "naive_decode",
    "BoundQuery",
    "min_subpacketization",
    "conventional_lower_bound",
    "tradeoff_table",
    "tradeoff_csv",
    "find_primes_c1",
    "build_plan_c1",
    "build_plan_c2",
    "save_plan",
    "load_plan",
    "RepairTranscript",
    "cutset_bits",
    "repair_c1",
    "repair_c2",
    "ClusterState",
    "TransferLog",
    "init_cluster",
    "fail_node",
    "run_repair",
    "save_cluster",
    "load_cluster",
    "__version__",
]
