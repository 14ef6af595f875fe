"""Parallel execution layer: pluggable backends for multi-run drivers."""

from repro.exec.executor import (
    BACKENDS,
    TRANSPORTS,
    Executor,
    ProcessExecutor,
    SerialExecutor,
    TaskTimings,
    ThreadExecutor,
    default_executor,
    executor_scope,
    get_executor,
    resolve_executor,
    set_default_executor,
    using_executor,
)
from repro.exec.shm import (
    ResultHandle,
    SharedTensorStore,
    TensorHandle,
    transport_session,
)

__all__ = [
    "BACKENDS",
    "TRANSPORTS",
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "ResultHandle",
    "SharedTensorStore",
    "TaskTimings",
    "TensorHandle",
    "default_executor",
    "executor_scope",
    "get_executor",
    "resolve_executor",
    "set_default_executor",
    "using_executor",
    "transport_session",
]
