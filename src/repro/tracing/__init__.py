"""Non-intrusive tracing substrate: tracers, collector, log adapters."""

from repro.tracing.access_log import access_log_to_captures, merge_server_logs, split_by_server
from repro.tracing.collector import CollectedTraceWindow, TraceCollector
from repro.tracing.records import AccessLogRecord, CaptureRecord, TimestampBatch
from repro.tracing.storage import (
    load_captures,
    read_capture_binary,
    read_capture_binary_records,
    write_capture_binary,
    read_access_log_jsonl,
    read_capture_csv,
    read_capture_jsonl,
    write_access_log_jsonl,
    write_capture_csv,
    write_capture_jsonl,
)
from repro.tracing.tracer import Tracer
from repro.tracing.transport import (
    DataQuality,
    FaultyChannel,
    GapNotice,
    LivenessWatchdog,
    ReorderBuffer,
    TracerStatus,
    TransportLink,
    TransportReceiver,
    overall_quality,
)
from repro.tracing.wire import (
    RoundFrame,
    decode_block,
    decode_frame,
    encode_block,
    encode_frame,
    wire_sizes,
)
