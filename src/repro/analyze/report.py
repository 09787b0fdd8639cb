"""The findings model shared by every analyzer (and the ORWL linter).

A :class:`Finding` is one diagnostic: severity (``error`` > ``warning`` >
``note``), a stable machine-readable ``code``, a human message, an
optional ``subject`` (the operation/location/thread span the finding is
about), an optional ``fix_hint``, a ``source`` tag (``static`` or ``dynamic``), an
optional happens-before ``verdict`` (``CONFIRMED``/``ORDERED``), and an
optional source span (``file``/``line``) for findings anchored in code,
as the hot-loop lint's are. :class:`Report` collects findings, keeps
them in a stable canonical order, and renders them as text, the repo's
own JSON document, or a standard SARIF 2.1 log (:meth:`Report.to_sarif`).

This module is deliberately standalone (no imports from ``repro.orwl`` /
``repro.sim``) so the linter and all analyzers can share it without
import cycles.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

__all__ = [
    "SEVERITIES",
    "Finding",
    "Report",
    "severity_rank",
    "sort_findings",
    "json_text",
    "sarif_log",
]

#: Recognized severities, most severe first.
SEVERITIES = ("error", "warning", "note")


def severity_rank(severity: str) -> int:
    """0 for ``error``, 1 for ``warning``, 2 for ``note`` (unknown last)."""
    try:
        return SEVERITIES.index(severity)
    except ValueError:
        return len(SEVERITIES)


@dataclass(frozen=True)
class Finding:
    """One diagnostic produced by an analyzer."""

    severity: str  # "error" | "warning" | "note"
    code: str
    message: str
    subject: str = ""
    fix_hint: str = ""
    source: str = "static"  # "static" | "dynamic"
    #: Happens-before classification for race findings:
    #: "CONFIRMED" (HB-concurrent), "ORDERED" (lockset false positive),
    #: "" (no HB verdict — lockset-only evidence).
    verdict: str = ""
    #: Source span for code-anchored findings (hotlint); empty/0 = none.
    file: str = ""
    line: int = 0

    @property
    def level(self) -> str:
        """Backwards-compatible alias for :attr:`severity` (old ``Issue``)."""
        return self.severity

    def __str__(self) -> str:
        head = f"[{self.severity}] {self.code}"
        if self.file:
            head += f" {self.file}:{self.line}"
        text = f"{head}: {self.message}"
        if self.verdict:
            text += f" (verdict: {self.verdict})"
        return text

    def to_dict(self) -> dict:
        d = {
            "severity": self.severity,
            "code": self.code,
            "message": self.message,
        }
        if self.subject:
            d["subject"] = self.subject
        if self.fix_hint:
            d["fix_hint"] = self.fix_hint
        d["source"] = self.source
        if self.verdict:
            d["verdict"] = self.verdict
        if self.file:
            d["file"] = self.file
            d["line"] = self.line
        return d


def sort_findings(findings: Iterable[Finding]) -> list[Finding]:
    """The canonical stable order: severity, then code, subject, message."""
    return sorted(
        findings,
        key=lambda f: (severity_rank(f.severity), f.code, f.subject, f.message),
    )


@dataclass
class Report:
    """An ordered collection of findings for one analyzed program."""

    program: str = ""
    findings: list[Finding] = field(default_factory=list)

    def add(
        self,
        severity: str,
        code: str,
        message: str,
        *,
        subject: str = "",
        fix_hint: str = "",
        source: str = "static",
        verdict: str = "",
        file: str = "",
        line: int = 0,
    ) -> Finding:
        f = Finding(severity, code, message, subject=subject,
                    fix_hint=fix_hint, source=source, verdict=verdict,
                    file=file, line=line)
        self.findings.append(f)
        return f

    def extend(self, findings: Iterable[Finding]) -> None:
        self.findings.extend(findings)

    def merge(self, other: "Report") -> None:
        self.findings.extend(other.findings)

    def sorted(self) -> list[Finding]:
        return sort_findings(self.findings)

    @property
    def codes(self) -> list[str]:
        """Sorted unique finding codes (handy in tests)."""
        return sorted({f.code for f in self.findings})

    def count(self, severity: str) -> int:
        return sum(1 for f in self.findings if f.severity == severity)

    @property
    def has_errors(self) -> bool:
        return any(f.severity == "error" for f in self.findings)

    def exit_code(self) -> int:
        """CI contract: 3 when any error-level finding is present, else 0."""
        return 3 if self.has_errors else 0

    # -- rendering -----------------------------------------------------------

    def to_text(self) -> str:
        """Human-readable rendering, canonical order, fix hints inline."""
        head = f"analysis of {self.program or '<program>'}"
        if not self.findings:
            return f"{head}: clean (no findings)"
        lines = [
            f"{head}: {len(self.findings)} finding(s) "
            f"({self.count('error')} error, {self.count('warning')} warning, "
            f"{self.count('note')} note)"
        ]
        for f in self.sorted():
            line = str(f)
            if f.subject:
                line += f"  [{f.subject}]"
            lines.append(line)
            if f.fix_hint:
                lines.append(f"    hint: {f.fix_hint}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """SARIF-ish JSON-compatible document."""
        return {
            "version": "repro-analyze/1",
            "program": self.program,
            "summary": {
                "errors": self.count("error"),
                "warnings": self.count("warning"),
                "notes": self.count("note"),
                "clean": not self.findings,
            },
            "findings": [f.to_dict() for f in self.sorted()],
        }

    def to_sarif(self) -> dict:
        """Standard SARIF 2.1.0 log for this report (one run)."""
        return sarif_log([self])


def json_text(obj) -> str:
    """The one JSON serialization used across the CLI (stable keys).

    The text is ``json.dumps(obj, indent=1)``, byte for byte. The
    standard library renders indented JSON with its pure-Python encoder,
    one generator step per value; plain JSON values — exact ``dict``
    with ``str`` keys, ``list``, ``tuple``, ``str``, ``int``, ``float``,
    ``bool`` and ``None`` — are rendered here instead, with the string
    and number functions the encoder itself uses. A container whose
    members are all exact ints (for a dict: str keys and int values),
    such as a placement's thread-to-PU table, is one join of per-item
    strings. Anything else — subclasses, other key types, objects JSON
    cannot encode, circular references — goes to ``json.dumps`` whole,
    with its output and its exceptions.
    """
    try:
        return _render(obj, "\n", set())
    except (_NotPlain, RecursionError):
        return json.dumps(obj, indent=1)


class _NotPlain(Exception):
    """A value :func:`_render` leaves to ``json.dumps``."""


def _render(o, nl: str, open_ids: set) -> str:
    """*o* as ``json.dumps(o, indent=1)`` renders it at the indentation
    that *nl* (a newline and the current indent) sets; *open_ids* holds
    the ids of the containers being rendered around *o*."""
    t = type(o)
    if t is str:
        return encode_basestring_ascii(o)
    if t is int:
        return int.__repr__(o)
    if t is float:
        return _float_text(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if t is dict:
        brackets = "{}"
    elif t is list or t is tuple:
        brackets = "[]"
    else:
        raise _NotPlain
    if not o:
        return brackets
    if id(o) in open_ids:
        raise _NotPlain  # circular: json.dumps raises ValueError
    open_ids.add(id(o))
    inner = nl + " "
    sep = "," + inner
    if t is not dict:
        if _all_of(int, o):
            body = sep.join(map(int.__repr__, o))
        else:
            body = sep.join([_render(v, inner, open_ids) for v in o])
    elif _all_of(str, o) and _all_of(int, o.values()):
        parts = [None, ": ", None, sep] * len(o)
        parts[0::4] = map(encode_basestring_ascii, o)
        parts[2::4] = map(int.__repr__, o.values())
        parts.pop()
        body = "".join(parts)
    else:
        body = sep.join([
            _key_text(k) + ": " + _render(v, inner, open_ids)
            for k, v in o.items()
        ])
    open_ids.discard(id(o))
    return brackets[0] + inner + body + nl + brackets[1]


def _all_of(t: type, items) -> bool:
    """True when every item's type is exactly *t*."""
    return {t}.issuperset(map(type, items))


def _key_text(key) -> str:
    """A dict key as json.dumps renders a ``str`` key."""
    if type(key) is not str:
        raise _NotPlain  # json.dumps converts or rejects other keys
    return encode_basestring_ascii(key)


_INF = float("inf")


def _float_text(x: float) -> str:
    """A float as json.dumps renders it (``allow_nan=True``)."""
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


#: Severity mapping into SARIF's result levels.
_SARIF_LEVEL = {"error": "error", "warning": "warning", "note": "note"}


def _sarif_result(report: Report, f: Finding) -> dict:
    result: dict = {
        "ruleId": f.code,
        "level": _SARIF_LEVEL.get(f.severity, "none"),
        "message": {"text": f.message},
    }
    properties: dict = {"source": f.source}
    if report.program:
        properties["program"] = report.program
    if f.subject:
        properties["subject"] = f.subject
    if f.fix_hint:
        properties["fixHint"] = f.fix_hint
    if f.verdict:
        properties["verdict"] = f.verdict
    result["properties"] = properties
    if f.file:
        region = {"startLine": f.line} if f.line else {}
        location = {
            "physicalLocation": {
                "artifactLocation": {"uri": f.file},
                **({"region": region} if region else {}),
            }
        }
        result["locations"] = [location]
    elif f.subject:
        result["locations"] = [
            {"logicalLocations": [{"name": f.subject}]}
        ]
    return result


def sarif_log(reports: Iterable[Report]) -> dict:
    """A SARIF 2.1.0 document covering *reports* as one tool run.

    Rules are synthesized from the finding codes present; results keep
    the repo-specific fields (program, subject, verdict, fix hint) in
    the SARIF ``properties`` bag so nothing is lost relative to
    :meth:`Report.to_dict`.
    """
    reports = list(reports)
    codes: dict[str, str] = {}
    results: list[dict] = []
    for report in reports:
        for f in report.sorted():
            codes.setdefault(f.code, f.message)
            results.append(_sarif_result(report, f))
    rules = [
        {
            "id": code,
            "shortDescription": {"text": message},
        }
        for code, message in sorted(codes.items())
    ]
    return {
        "$schema": (
            "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
            "master/Schemata/sarif-schema-2.1.0.json"
        ),
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-analyze",
                        "version": "1.0.0",
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }
