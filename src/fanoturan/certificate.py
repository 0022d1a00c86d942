"""Machine-checkable run certificates and binary checkpoint files.

Every verification routine returns a Certificate whose JSON form has exactly
the keys claim, verdict, space, visited, witnesses, seed, elapsed_ms and
tool_version, in that order.  A failing certificate must carry at least one
witness.

Verifiers never build certificates themselves: each opens a ClaimRun with its
claim id, state-space size and seed, and ends with run.passed(...) or
run.fail(...), which raises VerificationError carrying the failing
certificate.  Both stamp elapsed_ms from the clock the run started.  Every
claim is exhaustive, with pruned mass charged where it is cut, so the books
must balance: run.passed raises AssertionError unless visited == space, and
no verifier checks its own accounting.

Checkpoint files are a one byte format version followed by fixed-size frames
(frontier index, states accounted, survivors found), little endian.
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass, field
from typing import Any, NoReturn

from . import __version__
from .errors import FormatError, ParameterError, VerificationError

PASS = "pass"
FAIL = "fail"

_FIELDS = ("claim", "verdict", "space", "visited", "witnesses", "seed", "elapsed_ms", "tool_version")


@dataclass
class Certificate:
    claim: str
    verdict: str
    space: int
    visited: int
    witnesses: list[Any] = field(default_factory=list)
    seed: int = 0
    elapsed_ms: int = 0
    tool_version: str = __version__

    def __post_init__(self) -> None:
        if self.verdict not in (PASS, FAIL):
            raise ParameterError(f"verdict must be {PASS!r} or {FAIL!r}, got {self.verdict!r}")
        if self.verdict == FAIL and not self.witnesses:
            raise ParameterError("failing certificate must carry at least one witness")
        if self.space < 0 or self.visited < 0:
            raise ParameterError("space and visited must be nonnegative")

    def passed(self) -> bool:
        return self.verdict == PASS

    def to_json_dict(self) -> dict[str, Any]:
        return {name: getattr(self, name) for name in _FIELDS}

    @classmethod
    def from_json_dict(cls, d: dict[str, Any]) -> "Certificate":
        if not isinstance(d, dict) or set(d) != set(_FIELDS):
            raise FormatError(f"certificate object must have exactly the keys {list(_FIELDS)}")
        return cls(**{name: d[name] for name in _FIELDS})


class ClaimRun:
    """One verifier run: its clock and the certificate it ends with."""

    def __init__(self, claim: str, space: int, seed: int) -> None:
        self.claim = claim
        self.space = space
        self.seed = seed
        self._t0 = time.monotonic()

    def _certificate(self, verdict: str, visited: int, witnesses: list[Any]) -> Certificate:
        return Certificate(
            claim=self.claim,
            verdict=verdict,
            space=self.space,
            visited=visited,
            witnesses=witnesses,
            seed=self.seed,
            elapsed_ms=int((time.monotonic() - self._t0) * 1000),
        )

    def fail(self, visited: int, witness: Any, msg: str) -> NoReturn:
        """Raise VerificationError carrying the failing certificate."""
        raise VerificationError(msg, certificate=self._certificate(FAIL, visited, [witness]))

    def passed(self, visited: int, witnesses: list[Any]) -> Certificate:
        """The passing certificate; raises AssertionError unless visited == space."""
        if visited != self.space:
            raise AssertionError(
                f"{self.claim}: accounting mismatch, visited != space ({visited} != {self.space})"
            )
        return self._certificate(PASS, visited, witnesses)


# ---------------------------------------------------------------------------
# Checkpoints.
# ---------------------------------------------------------------------------

CHECKPOINT_VERSION = 1
CHECKPOINT_EVERY = 100_000_000  # states accounted between stride frames
_FRAME = struct.Struct("<QQQ")  # frontier index, states accounted, survivors


class CheckpointWriter:
    """Appends (frontier, accounted, found) frames to a new file at path.

    maybe_write adds one per CHECKPOINT_EVERY states accounted (the stride
    is read when the writer opens); write adds one unconditionally.
    """

    def __init__(self, path: str) -> None:
        self._every = self._next = CHECKPOINT_EVERY
        self._fh = open(path, "wb")
        self._fh.write(bytes([CHECKPOINT_VERSION]))

    def maybe_write(self, frontier: int, accounted: int, found: int) -> None:
        if accounted >= self._next:
            self.write(frontier, accounted, found)
            while self._next <= accounted:
                self._next += self._every

    def write(self, frontier: int, accounted: int, found: int) -> None:
        self._fh.write(_FRAME.pack(frontier, accounted, found))
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "CheckpointWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def read_checkpoint(path: str) -> list[tuple[int, int, int]]:
    """All frames of a checkpoint file as (frontier, accounted, found)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob or blob[0] != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint header in {path}")
    body = blob[1:]
    if len(body) % _FRAME.size:
        raise FormatError(f"truncated checkpoint frame in {path}")
    return [_FRAME.unpack_from(body, off) for off in range(0, len(body), _FRAME.size)]
