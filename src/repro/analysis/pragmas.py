"""Per-line suppression pragmas with mandatory reasons.

A pragma is a trailing (or immediately preceding, standalone) comment of the
form ``# <token>: <reason>`` — e.g. ``# det-ok: wall-clock timing is
reported, never fed back into the layout``. The reason is *mandatory*: a
bare ``# det-ok`` (or an empty reason) suppresses nothing and is itself
reported as a ``PRAGMA001`` error, so every suppressed site documents
why it is exempt. A pragma is the only way to suppress a finding. Tokens
are declared by the checkers (:attr:`~repro.analysis.registry.Checker
.pragma`); unknown comment text is simply not a pragma.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Iterable, List

__all__ = ["Pragma", "scan_pragmas"]


@dataclass(frozen=True)
class Pragma:
    """One suppression pragma found in a source file."""

    token: str
    reason: str
    line: int
    standalone: bool  # whole line is the comment -> applies to the next line

    @property
    def valid(self) -> bool:
        """Pragmas only suppress when they carry a nonempty reason."""
        return bool(self.reason)

    def lines_covered(self) -> List[int]:
        """Source lines this pragma suppresses findings on."""
        if self.standalone:
            return [self.line, self.line + 1]
        return [self.line]


def _pragma_pattern(tokens: Iterable[str]) -> re.Pattern:
    alternatives = "|".join(re.escape(t) for t in sorted(tokens, key=len,
                                                         reverse=True))
    return re.compile(rf"#\s*({alternatives})\b\s*(?::\s*(.*?))?\s*$")


def scan_pragmas(lines: List[str], tokens: Iterable[str]) -> Dict[int, List[Pragma]]:
    """All pragmas in ``lines`` (1-indexed), keyed by the line they appear on.

    Only recognises the supplied ``tokens``; everything else in comments is
    ignored. A line holding nothing but the comment is *standalone* and also
    covers the following line, so long statements can carry their pragma on
    the line above.
    """
    tokens = list(tokens)
    if not tokens:
        return {}
    pattern = _pragma_pattern(tokens)
    found: Dict[int, List[Pragma]] = {}
    for lineno, text in enumerate(lines, start=1):
        match = pattern.search(text)
        if match is None:
            continue
        stripped = text.strip()
        pragma = Pragma(
            token=match.group(1),
            reason=(match.group(2) or "").strip(),
            line=lineno,
            standalone=stripped.startswith("#"),
        )
        found.setdefault(lineno, []).append(pragma)
    return found
