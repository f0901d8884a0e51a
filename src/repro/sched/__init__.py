"""Instruction schedulers: balanced, traditional, and trace scheduling."""

from .block import schedule_block, schedule_cfg
from .list_scheduler import (
    list_schedule,
    list_schedule_with_weights,
    priorities,
)
from .modulo import KernelInfo, LoopPipelineStats, ModuloStats, pipeline_loops
from .trace import ProfileData, TraceStats, form_traces, trace_schedule
from .weights import BalancedWeights, TraditionalWeights, WeightModel

__all__ = [
    "schedule_block", "schedule_cfg",
    "list_schedule", "list_schedule_with_weights",
    "priorities",
    "ProfileData", "TraceStats", "form_traces", "trace_schedule",
    "BalancedWeights", "TraditionalWeights", "WeightModel",
    "pipeline_loops", "ModuloStats", "LoopPipelineStats", "KernelInfo",
]
