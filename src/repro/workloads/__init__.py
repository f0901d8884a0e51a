"""Workloads: the 17 synthetic benchmarks and DAG generators."""

from .generator import KernelSpec, generate_kernel
from .programs import (
    WORKLOAD_ORDER,
    WORKLOADS,
    Workload,
    benchmark_names,
    get_workload,
)
from .synthetic_dags import (
    figure1_dag,
    parallel_loads_dag,
    random_dag,
    serial_loads_dag,
)

__all__ = [
    "KernelSpec", "generate_kernel",
    "WORKLOAD_ORDER", "WORKLOADS", "Workload", "benchmark_names",
    "get_workload",
    "figure1_dag", "parallel_loads_dag", "random_dag", "serial_loads_dag",
]
