"""Federated simulation substrate: clients, cohorts, dropout, network, server,
and the secure-aggregation protocol (paper Sections 3.3 and 4.3)."""

from repro.core.client_plane import ClientBatch
from repro.federated.campaign import CampaignRecord, MonitoringCampaign
from repro.federated.client import BitReport
from repro.federated.cohort import CohortSelector, attribute_equals
from repro.federated.multifeature import MultiFeatureQuery
from repro.federated.dropout import MAX_EFFECTIVE_RATE, DropoutModel, DropoutRateTracker
from repro.federated.faults import (
    ActiveFaults,
    FaultEvent,
    FaultSchedule,
    TotalBlackout,
)
from repro.federated.fleet import ClientFleet, EmulationProfile, FleetResult, fleet_values
from repro.federated.retry import RetryPolicy
from repro.federated.serve import (
    RoundServer,
    ServeConfig,
    ServeResult,
    in_process_estimate,
    round_trace_id,
    run_loopback,
)
from repro.federated.multivalue import (
    ELICITATION_STRATEGIES,
    elicit_single_value,
    ground_truth_mean,
)
from repro.federated.network import DeliveryOutcome, NetworkModel
from repro.federated.secure_agg import (
    PrimeField,
    SecureAggregationSession,
    secure_sum,
)
from repro.federated.server import FederatedMeanQuery, RoundOutcome
from repro.federated.streaming import StreamingAggregator
from repro.federated.wire import (
    REPORT_SIZE,
    ClientTelemetry,
    ReportBatch,
    TraceContext,
    decode_announce,
    decode_batch,
    decode_batch_array,
    decode_report,
    decode_telemetry,
    encode_announce,
    encode_batch,
    encode_report,
    encode_telemetry,
    payload_efficiency,
)

__all__ = [
    "ELICITATION_STRATEGIES",
    "MAX_EFFECTIVE_RATE",
    "ActiveFaults",
    "BitReport",
    "CampaignRecord",
    "ClientBatch",
    "ClientFleet",
    "ClientTelemetry",
    "CohortSelector",
    "EmulationProfile",
    "FleetResult",
    "MonitoringCampaign",
    "MultiFeatureQuery",
    "DeliveryOutcome",
    "DropoutModel",
    "DropoutRateTracker",
    "FaultEvent",
    "FaultSchedule",
    "FederatedMeanQuery",
    "NetworkModel",
    "PrimeField",
    "REPORT_SIZE",
    "ReportBatch",
    "RetryPolicy",
    "RoundOutcome",
    "RoundServer",
    "SecureAggregationSession",
    "ServeConfig",
    "ServeResult",
    "StreamingAggregator",
    "TotalBlackout",
    "TraceContext",
    "attribute_equals",
    "decode_announce",
    "decode_batch",
    "decode_batch_array",
    "decode_report",
    "decode_telemetry",
    "elicit_single_value",
    "encode_announce",
    "encode_batch",
    "encode_report",
    "encode_telemetry",
    "fleet_values",
    "ground_truth_mean",
    "in_process_estimate",
    "payload_efficiency",
    "round_trace_id",
    "run_loopback",
    "secure_sum",
]
