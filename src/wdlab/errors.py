"""Shared exception types."""

from __future__ import annotations

from typing import Optional


class ParseError(ValueError):
    """A graph or orientation file is malformed."""


class BoundExceededError(RuntimeError):
    """An enumeration would exceed its configured size bound.

    `reason` names the bound and the value it stopped at. The message adds
    the knobs that raise it: the function's bound argument and `env`, the
    environment variable that raises it for the CLI too, when there is one.
    The CLI has no bound argument, so it reports `reason` and `env` alone.
    """

    def __init__(self, reason: str, env: Optional[str] = None) -> None:
        super().__init__(reason, env)
        self.reason = reason
        self.env = env

    def __str__(self) -> str:
        knobs = "the bound argument"
        if self.env is not None:
            knobs = f"{self.env} or {knobs}"
        return f"{self.reason} (raise {knobs})"
