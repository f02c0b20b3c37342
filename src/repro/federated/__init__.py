"""``repro.federated`` — multi-agent federated sensing-action loops (Sec. VII)."""

from .async_sim import (
    DECAY_KINDS,
    AsyncFLServer,
    DispatchRecord,
    participation_weights,
    staleness_decay,
    staleness_weights,
)
from .client import (
    ClientReport,
    FLClient,
    make_client_model,
    model_macs_per_sample,
    train_client_task,
)
from .dcnas import merge_subnetwork, select_hidden_width, slice_weights
from .halo import PrecisionSelector, candidate_configs
from .heterogeneity import PROFILE_TIERS, UPLINK_MBPS, make_fleet, uplink_mbps
from .job_store import JOB_STORE_ENV, JobHandle, JobStore
from .server import MODES, FLServer, RoundSummary, client_plan, payload_bytes
from .speculative import NGramLM, SpeculativeStats, autoregressive_decode, speculative_decode

__all__ = [
    "PROFILE_TIERS", "UPLINK_MBPS", "make_fleet", "uplink_mbps",
    "FLClient", "ClientReport", "make_client_model", "model_macs_per_sample",
    "train_client_task",
    "select_hidden_width", "slice_weights", "merge_subnetwork",
    "PrecisionSelector", "candidate_configs",
    "FLServer", "RoundSummary", "MODES", "client_plan", "payload_bytes",
    "AsyncFLServer", "DispatchRecord", "DECAY_KINDS",
    "staleness_decay", "staleness_weights", "participation_weights",
    "JobStore", "JobHandle", "JOB_STORE_ENV",
    "NGramLM", "speculative_decode", "autoregressive_decode",
    "SpeculativeStats",
]
