"""Hot-loop purity lint: AST checks over the simulator's drain loops.

The batched core's throughput rests on a handful of coding rules that
nothing in Python enforces: the drain loops must not allocate per event,
must not walk ``self`` attributes (everything is bound to frame locals
before the loop), and must not call an observability tap without the
``is not None``/``if monitors`` guard that makes tracing free when off.
Those rules have been broken silently before — a stray f-string or a
``sorted()`` in the pump costs double-digit percent of event throughput
and no test fails. This pass makes the rules mechanical.

Rules (finding codes):

``hot-loop-alloc``
    An allocating construct lexically inside a ``while`` loop of a hot
    function — or anywhere in a per-call target (``PER_CALL_TARGETS``),
    whose whole body runs once per event: dict/set displays,
    comprehensions and generator expressions, lambdas and nested
    ``def``, f-strings, calls to allocating builtins (``list``,
    ``dict``, ``set``, ``sorted``, ``enumerate``, ...) and constructions
    of the per-event classes (``Touch``, ``Compute``, ``Wait``,
    ``SimEvent``, ``Request``), by bare or dotted name. Plain list/tuple
    displays are allowed — the calendar queue's ``[kind, payload]``
    pairs *are* the data format. Anything under a ``raise`` is exempt:
    error paths are cold by definition.

``hot-self-attr``
    A ``self.<attr>`` access inside the drain loop of a function that
    hoists its state to locals (only ``SimMachine._run_batched`` today).
    Attribute walks in the per-event path undo the hoisting.

``hot-tap-unguarded``
    A call to an observability tap (``notify_monitors``, ``ring_add``,
    ``ring_add_raw``) inside a ``while`` loop that is not
    nested under any ``if`` — i.e. it runs unconditionally per event,
    reintroducing tracing overhead for untraced runs.

``hot-missing-slots``
    A per-event-instantiated (or per-event-accessed) class lost its
    ``__slots__`` declaration (or its ``@dataclass(slots=True)``).

Intentional, amortized violations are suppressed in place with a
trailing ``# hotlint: ok`` (any rule) or ``# hotlint: ok(alloc)``
(specific rules, comma-separated) on any line the flagged node spans —
the suppression is the documentation that the cost was considered.

Entry points: :func:`run_hotlint` lints the configured hot targets of
the installed tree and returns a :class:`~repro.analyze.report.Report`;
:func:`lint_source` lints a source string (tests, tooling).
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from repro.analyze.report import Finding, Report

__all__ = [
    "HOT_TARGETS",
    "PER_CALL_TARGETS",
    "SLOTS_REQUIRED",
    "lint_source",
    "lint_file",
    "run_hotlint",
]

#: Builtin callables whose invocation allocates (or iterates into) a new
#: container per call. ``range`` is deliberately absent (lazy, tiny) and
#: so are list/tuple *displays* (see module docstring).
_ALLOC_BUILTINS = frozenset({
    "list", "dict", "set", "frozenset", "tuple", "sorted", "str",
    "bytes", "bytearray", "map", "filter", "zip", "enumerate", "reversed",
})

#: Classes built per simulated operation or hand-off. Ops are immutable
#: and may be yielded again, so a hot path builds each one once; the
#: rule cannot see constructions behind a factory (``machine.event()``).
_ALLOC_CLASSES = frozenset({
    "Touch", "Compute", "Wait", "SimEvent", "Request",
})

#: Local/attribute names that are observability taps in the hot loops.
#: The per-method monitor lists (notify_touch/...) are what the drain
#: loops capture since the dispatch split; notify_monitors remains for
#: the object core's generic path.
_TAP_NAMES = frozenset({
    "notify_monitors", "notify_touch", "notify_block", "notify_finish",
    "ring_add", "ring_add_raw",
})

#: Short rule keys (used in specs and suppression comments) -> codes.
_RULE_CODES = {
    "alloc": "hot-loop-alloc",
    "self-attr": "hot-self-attr",
    "tap": "hot-tap-unguarded",
    "slots": "hot-missing-slots",
}

#: Hot functions/classes to lint, as (module-relative path, dotted
#: qualname, rule keys). A class qualname lints every method.
HOT_TARGETS: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("repro/sim/machine.py", "SimMachine._run_batched",
     ("alloc", "self-attr", "tap")),
    ("repro/sim/engine.py", "Engine.run", ("alloc", "tap")),
    ("repro/sim/cache.py", "L3State.install", ("alloc",)),
    # The ring recorders _bind_add builds once per RingTrace: the
    # batched core calls them per scheduling transition.
    ("repro/sim/observe.py", "RingTrace._bind_add.add", ("alloc",)),
    ("repro/sim/observe.py", "RingTrace._bind_add.add_raw", ("alloc",)),
    # The simulator's random draws: one call per unbound Compute (OS
    # jitter) and per wake-balance/churn decision. The block refill is
    # a separate, amortized method.
    ("repro/util/rng.py", "BlockRng.random", ("alloc",)),
    ("repro/util/rng.py", "BlockRng.uniform", ("alloc",)),
    # Mapping-engine hot loops (ISSUE 7): the per-edge matching loop
    # runs O(|E|) times per coarsening level, greedy growing and the
    # grouping grow loop run O(n) selection steps per split.
    ("repro/treematch/coarsen.py", "heavy_edge_matching", ("alloc",)),
    ("repro/treematch/bisect.py", "_grow_side", ("alloc",)),
    ("repro/treematch/bisect.py", "_rebalance_exact", ("alloc",)),
    ("repro/treematch/grouping.py", "group_greedy", ("alloc",)),
    # The row reads of the greedy grow loop and seed refresh, one call
    # per selection step, in both backends.
    ("repro/treematch/grouping.py", "_DenseRows.copy_row", ("alloc",)),
    ("repro/treematch/grouping.py", "_DenseRows.add_row", ("alloc",)),
    ("repro/treematch/grouping.py", "_CsrRows.copy_row", ("alloc",)),
    ("repro/treematch/grouping.py", "_CsrRows.add_row", ("alloc",)),
    # Adaptive controller (ISSUE 10): the epoch loop runs once per
    # window — cool next to per-event code, but anything allocating in
    # it scales with run length — and the telemetry tap rides the
    # per-event monitor dispatch, so every method stays under the lint.
    ("repro/affinity/controller.py", "AdaptiveController.run", ("alloc",)),
    ("repro/affinity/telemetry.py", "WindowTelemetry", ("alloc", "tap")),
    ("repro/affinity/telemetry.py", "WindowTelemetry.on_touch", ("alloc",)),
    # OS placement runs on every dispatch attempt; its free mask exists
    # so that no candidate list is built per call.
    ("repro/sim/scheduler.py", "OSScheduler.place", ("alloc",)),
    # The ORWL hand-off: every iteration of every iterative handle runs
    # release (which makes the next Request), acquire, its touches and
    # one control-thread round (FIFO release and advance). Constructions
    # behind a factory (the grant event) are out of the rule's sight;
    # tests/test_orwl_properties.py::TestHandOffAllocation pins those.
    ("repro/orwl/handle.py", "Handle._new_request", ("alloc",)),
    ("repro/orwl/handle.py", "Handle.release", ("alloc",)),
    ("repro/orwl/handle.py", "Handle.acquire", ("alloc",)),
    ("repro/orwl/handle.py", "Handle.touch", ("alloc",)),
    ("repro/orwl/location.py", "LocationFIFO.advance", ("alloc",)),
    ("repro/orwl/location.py", "LocationFIFO.release", ("alloc",)),
    ("repro/orwl/runtime.py", "Runtime._control_body", ("alloc",)),
)

#: Hot targets called once per event instead of draining a loop of their
#: own: the whole body is the hot path, so the rules apply outside
#: ``while`` loops too. Every loop-free hot target belongs here — the
#: other targets are scanned only inside their ``while`` loops.
PER_CALL_TARGETS = frozenset({
    "OSScheduler.place",
    "WindowTelemetry.on_touch",
    "RingTrace._bind_add.add",
    "RingTrace._bind_add.add_raw",
    "BlockRng.random",
    "BlockRng.uniform",
    "_DenseRows.copy_row",
    "_DenseRows.add_row",
    "_CsrRows.copy_row",
    "_CsrRows.add_row",
    "Handle._new_request",
    "Handle.release",
    "Handle.acquire",
    "Handle.touch",
    "LocationFIFO.advance",
    "LocationFIFO.release",
    "Runtime._control_body",
})

#: Classes that must keep ``__slots__`` (path -> class names); a
#: ``@dataclass(slots=True)`` counts.
SLOTS_REQUIRED: dict[str, tuple[str, ...]] = {
    "repro/sim/engine.py": ("Engine",),
    "repro/sim/process.py": ("SimEvent", "SimThread", "Compute", "Touch", "Wait"),
    "repro/orwl/location.py": ("Request",),
    "repro/sim/cache.py": ("L3State", "CacheSystem"),
    "repro/sim/observe.py": ("Counter", "Gauge", "Histogram", "RingTrace"),
    "repro/affinity/telemetry.py": ("WindowTelemetry",),
    "repro/util/rng.py": ("BlockRng",),
}

_SUPPRESS_RE = re.compile(
    r"#\s*hotlint:\s*ok(?:\(\s*([a-z, -]+?)\s*\))?"
)


def _suppressions(source: str) -> dict[int, frozenset[str] | None]:
    """Line -> suppressed rule keys (None = every rule)."""
    out: dict[int, frozenset[str] | None] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        m = _SUPPRESS_RE.search(text)
        if m is None:
            continue
        if m.group(1) is None:
            out[lineno] = None
        else:
            out[lineno] = frozenset(
                part.strip() for part in m.group(1).split(",") if part.strip()
            )
    return out


_ALLOC_DESCRIPTIONS = {
    ast.Dict: "dict display",
    ast.Set: "set display",
    ast.ListComp: "list comprehension",
    ast.SetComp: "set comprehension",
    ast.DictComp: "dict comprehension",
    ast.GeneratorExp: "generator expression",
    ast.JoinedStr: "f-string",
    ast.Lambda: "lambda",
}

_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


class _HotScanner:
    """One lint pass over one hot function (or every method of a class)."""

    def __init__(self, path: str, rules: tuple[str, ...],
                 suppressed: dict[int, frozenset[str] | None],
                 findings: list[Finding]) -> None:
        self.path = path
        self.rules = frozenset(rules)
        self.suppressed = suppressed
        self.findings = findings

    # -- reporting -----------------------------------------------------------

    def _is_suppressed(self, node: ast.AST, rule: str) -> bool:
        end = getattr(node, "end_lineno", None) or node.lineno
        for lineno in range(node.lineno, end + 1):
            if lineno in self.suppressed:
                rules = self.suppressed[lineno]
                if rules is None or rule in rules:
                    return True
        return False

    def _flag(self, node: ast.AST, rule: str, message: str,
              fix_hint: str = "") -> None:
        if rule not in self.rules or self._is_suppressed(node, rule):
            return
        self.findings.append(Finding(
            "error", _RULE_CODES[rule], message,
            fix_hint=fix_hint, file=self.path, line=node.lineno,
        ))

    # -- traversal -----------------------------------------------------------

    def scan(self, fn: ast.AST, *, per_call: bool = False) -> None:
        if isinstance(fn, ast.ClassDef):
            for child in fn.body:
                if isinstance(child, _FUNCS):
                    self.scan(child, per_call=per_call)
            return
        for stmt in fn.body:
            self._visit(stmt, in_while=per_call, guarded=False, cold=False)

    def _visit(self, node: ast.AST, *, in_while: bool, guarded: bool,
               cold: bool) -> None:
        if isinstance(node, ast.While):
            self._visit(node.test, in_while=in_while, guarded=guarded,
                        cold=cold)
            for child in node.body + node.orelse:
                self._visit(child, in_while=True, guarded=False, cold=cold)
            return
        if isinstance(node, ast.If):
            self._visit(node.test, in_while=in_while, guarded=guarded,
                        cold=cold)
            for child in node.body + node.orelse:
                self._visit(child, in_while=in_while,
                            guarded=guarded or in_while, cold=cold)
            return
        if isinstance(node, ast.Raise):
            # Raising is the end of the hot path: everything it builds
            # (messages, exception objects) is cold.
            for child in ast.iter_child_nodes(node):
                self._visit(child, in_while=in_while, guarded=guarded,
                            cold=True)
            return
        if isinstance(node, _FUNCS + (ast.Lambda,)):
            if in_while and not cold:
                kind = ("lambda" if isinstance(node, ast.Lambda)
                        else f"nested function {node.name!r}")
                self._flag(
                    node, "alloc",
                    f"{kind} created inside a hot while loop "
                    "(one closure object per iteration)",
                    fix_hint="define it once before the loop",
                )
            # A nested function's body runs on its own frame; rules
            # restart from its own loops.
            body = node.body if isinstance(node.body, list) else [node.body]
            for child in body:
                self._visit(child, in_while=False, guarded=False, cold=cold)
            return
        if not cold and in_while:
            self._check_hot_expr(node, guarded=guarded)
        for child in ast.iter_child_nodes(node):
            self._visit(child, in_while=in_while, guarded=guarded, cold=cold)

    def _check_hot_expr(self, node: ast.AST, *, guarded: bool) -> None:
        desc = _ALLOC_DESCRIPTIONS.get(type(node))
        if desc is not None and not isinstance(node, ast.Lambda):
            self._flag(
                node, "alloc",
                f"{desc} inside a hot while loop allocates per iteration",
                fix_hint="hoist the allocation out of the drain loop or "
                         "restructure to reuse one object",
            )
            return
        if isinstance(node, ast.Call):
            name = self._call_name(node)
            if name in _ALLOC_BUILTINS:
                self._flag(
                    node, "alloc",
                    f"call to builtin {name}() inside a hot while loop "
                    "allocates per iteration",
                    fix_hint="hoist it, or suppress with a justification "
                             "if the cost is amortized",
                )
            if name in _ALLOC_CLASSES:
                self._flag(
                    node, "alloc",
                    f"{name}(...) constructed inside a hot while loop "
                    "allocates per iteration",
                    fix_hint="build it once outside the hot path and reuse "
                             "it (ops are immutable), or suppress with the "
                             "reason it must be new",
                )
            if name in _TAP_NAMES and not guarded:
                self._flag(
                    node, "tap",
                    f"tap call {name}(...) runs unconditionally in a hot "
                    "while loop",
                    fix_hint="guard it (`if monitors:` / "
                             "`if ring_add is not None:`) so untraced "
                             "runs pay nothing",
                )
            return
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and node.value.id == "self":
            self._flag(
                node, "self-attr",
                f"`self.{node.attr}` accessed inside the drain loop of a "
                "hoisted hot function",
                fix_hint="bind it to a frame local before the loop",
            )

    @staticmethod
    def _call_name(node: ast.Call) -> str | None:
        if isinstance(node.func, ast.Name):
            return node.func.id
        if isinstance(node.func, ast.Attribute):
            # Taps bound as attributes (obs.ring_add) and dotted class
            # names (process.Touch) still count.
            attr = node.func.attr
            if attr in _TAP_NAMES or attr in _ALLOC_CLASSES:
                return attr
        return None


def _resolve_qualname(tree: ast.Module, qualname: str) -> ast.AST | None:
    node: ast.AST = tree
    for part in qualname.split("."):
        body = getattr(node, "body", None)
        if not isinstance(body, list):
            return None
        for child in body:
            if isinstance(child, _FUNCS + (ast.ClassDef,)) and \
                    child.name == part:
                node = child
                break
        else:
            return None
    return node


def _is_slotted_dataclass(decorator: ast.expr) -> bool:
    """``@dataclass(..., slots=True)`` (or ``dataclasses.dataclass``)."""
    if not isinstance(decorator, ast.Call):
        return False
    func = decorator.func
    name = func.id if isinstance(func, ast.Name) else (
        func.attr if isinstance(func, ast.Attribute) else None
    )
    return name == "dataclass" and any(
        kw.arg == "slots" and isinstance(kw.value, ast.Constant)
        and kw.value.value is True
        for kw in decorator.keywords
    )


def _check_slots(tree: ast.Module, path: str, class_names: tuple[str, ...],
                 suppressed: dict, findings: list[Finding]) -> None:
    by_name = {
        n.name: n for n in tree.body if isinstance(n, ast.ClassDef)
    }
    for name in class_names:
        cls = by_name.get(name)
        if cls is None:
            findings.append(Finding(
                "warning", "hot-missing-slots",
                f"hot class {name!r} not found in {path} (lint config "
                "out of date?)",
                file=path, line=1,
            ))
            continue
        has_slots = any(
            isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__"
                for t in stmt.targets
            )
            for stmt in cls.body
        ) or any(_is_slotted_dataclass(dec) for dec in cls.decorator_list)
        if not has_slots:
            scanner = _HotScanner(path, ("slots",), suppressed, findings)
            scanner._flag(
                cls, "slots",
                f"hot class {name!r} has no __slots__ declaration "
                "(per-instance dict on a per-event object)",
                fix_hint="restore the __slots__ tuple",
            )


def lint_source(
    source: str,
    *,
    path: str = "<memory>",
    qualname: str | None = None,
    rules: tuple[str, ...] = ("alloc", "self-attr", "tap"),
    slots_classes: tuple[str, ...] = (),
    per_call: bool = False,
) -> list[Finding]:
    """Lint one source string.

    With *qualname* set, only that function/class is scanned; otherwise
    every top-level function and class method is treated as hot (the
    test-facing mode). *per_call* scans whole bodies, not only their
    ``while`` loops (see ``PER_CALL_TARGETS``).
    """
    tree = ast.parse(source)
    suppressed = _suppressions(source)
    findings: list[Finding] = []
    scanner = _HotScanner(path, rules, suppressed, findings)
    if qualname is not None:
        node = _resolve_qualname(tree, qualname)
        if node is None:
            findings.append(Finding(
                "warning", "hot-target-missing",
                f"hot target {qualname!r} not found in {path} (lint "
                "config out of date?)",
                file=path, line=1,
            ))
        else:
            scanner.scan(node, per_call=per_call)
    else:
        for child in tree.body:
            if isinstance(child, _FUNCS + (ast.ClassDef,)):
                scanner.scan(child, per_call=per_call)
    if slots_classes:
        _check_slots(tree, path, slots_classes, suppressed, findings)
    return findings


def lint_file(
    file_path: Path,
    *,
    display_path: str,
    targets: list[tuple[str, tuple[str, ...]]],
    slots_classes: tuple[str, ...] = (),
) -> list[Finding]:
    """Lint the given *targets* (qualname, rules) of one file."""
    source = file_path.read_text()
    tree = ast.parse(source, filename=str(file_path))
    suppressed = _suppressions(source)
    findings: list[Finding] = []
    for qualname, rules in targets:
        scanner = _HotScanner(display_path, rules, suppressed, findings)
        node = _resolve_qualname(tree, qualname)
        if node is None:
            findings.append(Finding(
                "warning", "hot-target-missing",
                f"hot target {qualname!r} not found in {display_path} "
                "(lint config out of date?)",
                file=display_path, line=1,
            ))
            continue
        scanner.scan(node, per_call=qualname in PER_CALL_TARGETS)
    if slots_classes:
        _check_slots(tree, display_path, slots_classes, suppressed, findings)
    return findings


def run_hotlint(root: Path | str | None = None) -> Report:
    """Lint every configured hot target of the tree rooted at *root*.

    *root* is the directory containing the ``repro`` package; defaults
    to the installed package's parent (i.e. the live tree).
    """
    if root is None:
        import repro

        root = Path(repro.__file__).resolve().parent.parent
    root = Path(root)
    report = Report(program="hotlint")
    by_file: dict[str, list[tuple[str, tuple[str, ...]]]] = {}
    for rel_path, qualname, rules in HOT_TARGETS:
        by_file.setdefault(rel_path, []).append((qualname, rules))
    paths = sorted(set(by_file) | set(SLOTS_REQUIRED))
    for rel_path in paths:
        file_path = root / rel_path
        if not file_path.exists():
            report.add(
                "warning", "hot-target-missing",
                f"hot file {rel_path} does not exist under {root}",
                file=rel_path, line=1,
            )
            continue
        report.extend(lint_file(
            file_path,
            display_path=rel_path,
            targets=by_file.get(rel_path, []),
            slots_classes=SLOTS_REQUIRED.get(rel_path, ()),
        ))
    return report
