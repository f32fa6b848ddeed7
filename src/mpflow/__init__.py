"""mpflow: a deterministic multipath-transport simulator and library.

The package models an MPTCP-style connection: a full mesh of sub-flows
between endpoint interfaces, per-sub-flow priorities signalled with the
MP_PRIO option, persistent active/backup interface lists that survive
sub-flow re-creation, and two schedulers (lowest-RTT with backup fallback,
and primary-path-only). A discrete-event network simulator drives timed
link-failure scenarios and reports per-sub-flow throughput timelines.
"""

from .model import (
    AddrFamily,
    AlreadyExistsError,
    ConfigurationError,
    ConnectionState,
    EndpointAddress,
    InterfacePair,
    MpflowError,
    NotFoundError,
    PriorityLists,
    SubflowState,
    ValidationError,
    classify_subflow_priority,
    close_subflow,
    get_subflow_tuple,
    list_subflow_ids,
    new_connection,
    open_subflow,
)
from .scheduler import (
    ChoiceReason,
    SchedulerDecision,
    is_schedulable,
    select,
)
from .report import (
    SubflowColumn,
    ThroughputBucket,
    TimelineReport,
    emit_csv,
)
from .simnet import (
    LinkSpec,
    Simulation,
    mirror_connection,
)
from .sockopt import (
    SubPrioRequest,
    apply_remote_mp_prio,
    enable_primary_path_only,
    set_active_interface_list,
    set_backup_interface_list,
    set_subflow_priority,
)
from .scenario import (
    BUILTIN_DOCS,
    Scenario,
    ScenarioAction,
    ScenarioError,
    builtin_scenario,
    format_scenario,
    parse_scenario,
    run_scenario,
)
from .wire import (
    MalformedOptionError,
    MpPrioOption,
    NotMpPrioError,
    OptionError,
    decode_mp_prio,
    encode_mp_prio,
)

__version__ = "0.1.0"
