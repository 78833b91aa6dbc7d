"""Verification reports: ordered named clauses, each exactly pass or fail."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["VerificationReport"]


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of re-checking a decomposition's defining identities."""

    checks: tuple[tuple[str, bool], ...]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.checks)

    def failing(self) -> tuple[str, ...]:
        return tuple(name for name, ok in self.checks if not ok)

    def __repr__(self):
        body = ", ".join(f"{name}={'ok' if ok else 'FAIL'}" for name, ok in self.checks)
        return f"VerificationReport({body})"
