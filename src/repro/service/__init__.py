"""Process-parallel synthesis job engine.

The service layer turns the in-process solvers into a batch/portfolio
engine: a :class:`SynthesisJob` describes one solver run over one problem,
a :class:`WorkerPool` executes jobs on OS processes (hard deadlines, crash
isolation, retry, first-finisher-wins races), and a :class:`ResultCache`
persists :class:`JobResult` records keyed by a normalized problem
fingerprint.  Solutions cross the process boundary as serialized SyGuS
text, never as live :class:`~repro.lang.ast.Term` objects.
"""

from repro.service.cache import ResultCache
from repro.service.fingerprint import canonical_problem_text, problem_fingerprint
from repro.service.jobs import (
    CANCELLED,
    CRASHED,
    SOLVED,
    TIMEOUT,
    UNSOLVED,
    JobResult,
    SynthesisJob,
    execute_job,
    parse_solution_text,
)
from repro.service.pool import WorkerPool

__all__ = [
    "CANCELLED",
    "CRASHED",
    "SOLVED",
    "TIMEOUT",
    "UNSOLVED",
    "JobResult",
    "ResultCache",
    "SynthesisJob",
    "WorkerPool",
    "canonical_problem_text",
    "execute_job",
    "parse_solution_text",
    "problem_fingerprint",
]
