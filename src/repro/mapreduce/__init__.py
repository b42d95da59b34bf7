"""Simulated Hadoop MapReduce 1.0: jobtracker, tasktrackers, FIFO+speculative
scheduling, and the shuffle."""

from .config import MRConfig, hog_mr_config, stock_mr_config
from .job import (
    Job,
    JobSpec,
    JobStatus,
    MapOutput,
    Task,
    TaskAttempt,
    TaskStatus,
    TaskType,
)
from .delay_scheduler import DelayScheduler
from .jobtracker import JobTracker
from .matchmaking import MatchmakingScheduler
from .scheduler import FifoScheduler
from .tasktracker import TaskExecutionError, TaskTracker

__all__ = [
    "MRConfig",
    "stock_mr_config",
    "hog_mr_config",
    "JobSpec",
    "Job",
    "JobStatus",
    "Task",
    "TaskAttempt",
    "TaskStatus",
    "TaskType",
    "MapOutput",
    "JobTracker",
    "FifoScheduler",
    "DelayScheduler",
    "MatchmakingScheduler",
    "TaskTracker",
    "TaskExecutionError",
]
