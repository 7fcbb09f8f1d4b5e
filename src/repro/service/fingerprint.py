"""Normalized problem fingerprints for the persistent result cache.

Two textually different ``.sl`` files describing the same problem (modulo
whitespace, comments, command order quirks the parser normalizes away) get
the same fingerprint: the text is parsed and re-serialized through
:mod:`repro.sygus.serializer`, which yields one canonical s-expression per
problem (constraints, grammar, declarations, in fixed order).  The solver
name and the timeout are hashed in because they change the outcome, not
just the presentation.
"""

from __future__ import annotations

import hashlib
from typing import Optional

#: Bump when result semantics change; cache entries from other versions are
#: ignored (see :mod:`repro.service.cache`).
FINGERPRINT_VERSION = 2


def canonical_problem_text(problem_or_text) -> str:
    """Parse-and-reprint normalization of a problem.

    Accepts SyGuS-IF text, a :class:`~repro.sygus.problem.SygusProblem` or a
    :class:`~repro.sygus.multi.MultiSygusProblem`.  Unparsable text falls
    back to whitespace normalization, so fingerprinting never fails.
    """
    from repro.sygus.multi import MultiSygusProblem
    from repro.sygus.problem import SygusProblem
    from repro.sygus.serializer import multi_problem_to_sygus, problem_to_sygus

    if isinstance(problem_or_text, MultiSygusProblem):
        return multi_problem_to_sygus(problem_or_text)
    if isinstance(problem_or_text, SygusProblem):
        return problem_to_sygus(problem_or_text)
    text = str(problem_or_text)
    try:
        from repro.sygus.parser import parse_sygus_text

        problem = parse_sygus_text(text)
    except Exception:  # noqa: BLE001 - fingerprinting must not fail
        return " ".join(text.split())
    if isinstance(problem, MultiSygusProblem):
        return multi_problem_to_sygus(problem)
    return problem_to_sygus(problem)


def problem_fingerprint(
    problem_or_text,
    solver: str = "",
    timeout: Optional[float] = None,
) -> str:
    """SHA-256 fingerprint of (canonical problem, solver, timeout)."""
    payload = "\n".join(
        (
            f"repro-fingerprint/{FINGERPRINT_VERSION}",
            canonical_problem_text(problem_or_text),
            f"solver={solver}",
            f"timeout={timeout!r}",
        )
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
