"""Execution-driven simulator of the Alpha 21164-like machine model."""

from .cache import BranchPredictor, Cache, Tlb
from .config import (
    DEFAULT_CONFIG,
    ELEMENT_BYTES,
    ELEMENTS_PER_LINE,
    INSTRUCTION_LATENCIES,
    OP_LATENCY,
    CacheLevelConfig,
    ConfigError,
    MachineConfig,
    TlbConfig,
)
from .metrics import CacheStats, Metrics, MetricsInvariantError
from .simulator import SimulationError, Simulator, simulate

__all__ = [
    "BranchPredictor", "Cache", "Tlb",
    "DEFAULT_CONFIG", "ELEMENT_BYTES", "ELEMENTS_PER_LINE",
    "INSTRUCTION_LATENCIES", "OP_LATENCY",
    "CacheLevelConfig", "ConfigError", "MachineConfig", "TlbConfig",
    "CacheStats", "Metrics", "MetricsInvariantError",
    "SimulationError", "Simulator", "simulate",
]
