"""RPR010 — durable effects outside the WAL commit/checkpoint protocol.

PR-5's durability argument has three statically checkable clauses:

1. **Location.**  Durable side effects (``fsync``, atomic file
   replacement, checkpoint bundle writes, truncation, unlink) on an
   engine-reachable code path may only live in the sanctioned modules
   (:data:`~repro.analysis.layers.DURABLE_ALLOWED_MODULE_PREFIXES`) —
   everything else must route through the engine's commit group and
   the ``WalManager`` stage/flush protocol, or fsync success stops
   being the single durability point.
2. **Ordering.**  Within one function, a checkpoint *write* must
   precede the log *truncate* — the crash-safety pairing of
   ``WalManager.checkpoint``.  The real calls and the ``FAULTS.hit``
   protocol markers are compared independently, so swapping just the
   two I/O calls (markers left behind) is still caught.
3. **Abort path.**  An undo closure must never touch disk: rollback
   runs after a failure whose durable half may or may not exist, and a
   disk write during rollback destroys the idempotent-recovery
   argument.  Any ``log.record(target)`` whose target transitively
   performs a durable effect is an error.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.analysis.callgraph import FunctionNode
from repro.analysis.findings import Finding, Severity
from repro.analysis.layers import DURABLE_ALLOWED_MODULE_PREFIXES
from repro.analysis.registry import ModuleContext, Rule, register

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.program import Program

__all__ = ["DurabilityProtocolRule"]


def _module_allowed(module_name: str) -> bool:
    return any(
        module_name == prefix or module_name.startswith(prefix + ".")
        for prefix in DURABLE_ALLOWED_MODULE_PREFIXES
    )


@register
class DurabilityProtocolRule(Rule):
    id = "RPR010"
    slug = "durability-protocol"
    severity = Severity.ERROR
    description = (
        "durable side effect outside the WAL protocol: wrong module, "
        "truncate-before-checkpoint ordering, or disk I/O reachable "
        "from an undo closure"
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        return iter(())

    def finalize(self, program: "Program") -> Iterator[Finding]:
        effects = program.effects
        for fullqual in sorted(effects.summaries):
            node = effects.summaries[fullqual].node
            module_name = node.module.module_name
            if module_name is None or not module_name.startswith("repro"):
                continue
            yield from self._check_location(effects, fullqual, node)
            yield from self._check_ordering(node)
            yield from self._check_abort_path(program, fullqual, node)

    # -- clause 1: durable effects only in sanctioned modules ---------------

    def _check_location(
        self, effects, fullqual: str, node: FunctionNode
    ) -> Iterator[Finding]:
        module_name = node.module.module_name or ""
        if _module_allowed(module_name):
            return
        if fullqual not in effects.reachable:
            return
        for event in node.facts.durables:
            if event.marker:
                continue
            chain = effects.entry_path(fullqual)
            via = (
                " (reachable via " + " -> ".join(chain) + ")"
                if len(chain) > 1
                else ""
            )
            yield Finding(
                path=node.module.path,
                line=event.lineno,
                col=event.col,
                rule=self.id,
                severity=self.severity,
                message=(
                    f"{node.facts.qualname} performs durable effect "
                    f"'{event.kind}' outside the sanctioned WAL/storage "
                    f"modules{via}; durable writes must go through the "
                    f"WalManager commit/checkpoint protocol"
                ),
            )

    # -- clause 2: checkpoint-write before truncate -------------------------

    def _check_ordering(self, node: FunctionNode) -> Iterator[Finding]:
        for marker in (False, True):
            writes = [
                e
                for e in node.facts.durables
                if e.kind == "checkpoint_write" and e.marker == marker
            ]
            truncates = [
                e
                for e in node.facts.durables
                if e.kind == "truncate" and e.marker == marker
            ]
            if not writes or not truncates:
                continue
            first_truncate = min(truncates, key=lambda e: e.lineno)
            first_write = min(writes, key=lambda e: e.lineno)
            if first_truncate.lineno < first_write.lineno:
                yield Finding(
                    path=node.module.path,
                    line=first_truncate.lineno,
                    col=first_truncate.col,
                    rule=self.id,
                    severity=self.severity,
                    message=(
                        f"{node.facts.qualname} truncates the log "
                        f"(line {first_truncate.lineno}) before the "
                        f"checkpoint write (line {first_write.lineno}); "
                        f"a crash between the two would lose committed "
                        f"records — write the bundle first"
                    ),
                )
                break  # one ordering finding per function is enough

    # -- clause 3: undo closures must not touch disk ------------------------

    def _check_abort_path(
        self, program: "Program", fullqual: str, node: FunctionNode
    ) -> Iterator[Finding]:
        effects = program.effects
        graph = program.call_graph
        module = node.module
        for target in node.facts.record_targets:
            resolved: str | None = None
            if target.kind == "local":
                local = (
                    f"{node.facts.qualname}.<locals>.{target.name}"
                )
                if local in module.functions:
                    resolved = module.qualify(local)
            elif target.kind == "method" and node.facts.class_name:
                found = graph.lookup_method(
                    module, node.facts.class_name, target.name
                )
                if found is not None:
                    resolved = found.fullqual
            elif target.kind == "func":
                if target.name in module.functions:
                    resolved = module.qualify(target.name)
            if resolved is None:
                continue
            durable = sorted(effects.durable_effects_of(resolved))
            if not durable:
                continue
            kind, where, line = durable[0]
            yield Finding(
                path=module.path,
                line=target.lineno,
                col=target.col,
                rule=self.id,
                severity=self.severity,
                message=(
                    f"undo closure {target.name!r} registered here "
                    f"transitively performs durable effect '{kind}' "
                    f"({where}:{line}); rollback must never touch disk "
                    f"— snapshot in memory instead"
                ),
            )
