"""Per-file facts: the cacheable half of the whole-program analysis.

One parse of a file produces a :class:`ModuleFacts` — symbols, import
edges, call descriptors, raw mutation/durability events, undo-log
registration verdicts and suppression comments — everything the
program-level phases (:mod:`repro.analysis.callgraph`,
:mod:`repro.analysis.effects`, RPR004's cycle detection) need, with no
AST retained.  Facts serialize to plain JSON so the incremental cache
(:mod:`repro.analysis.cache`) can skip the parse for unchanged files.

Extraction is deliberately syntactic and local: a call site records the
receiver *text* and arity, not a resolved target (resolution is the
call graph's job), and a mutation records the attribute chain it wrote
through, not whether that chain is transactional state (classification
is the effect engine's job, driven by the tables in
:mod:`repro.analysis.layers`).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.suppressions import collect_suppressions

__all__ = [
    "CallSite",
    "ClassFacts",
    "DurableEvent",
    "FactsExtractor",
    "FunctionFacts",
    "ModuleFacts",
    "Mutation",
    "RecordTarget",
    "extract_module_facts",
]

#: Container/primitive method names that mutate their receiver.  Calls
#: through an attribute with one of these names count as a mutation of
#: the receiver chain; whether that chain is *tracked* state is decided
#: later against the tables in :mod:`repro.analysis.layers`.
MUTATING_METHOD_NAMES = frozenset(
    {
        "add",
        "append",
        "append_child",
        "access",
        "clear",
        "detach",
        "delete_run",
        "discard",
        "extend",
        "insert",
        "insert_child",
        "insert_run",
        "invalidate",
        "invalidate_from",
        "pop",
        "popitem",
        "remove",
        "restore",
        "reverse",
        "setdefault",
        "sort",
        "update",
    }
)

#: Constructor calls whose result is a mutable container (for the
#: module-level shared-state scan).
_MUTABLE_FACTORIES = frozenset(
    {"dict", "list", "set", "defaultdict", "deque", "OrderedDict", "Counter"}
)

#: ``FAULTS.hit`` site literals that mark the WAL checkpoint protocol.
_CHECKPOINT_WRITE_SITES = frozenset({"wal.checkpoint_write"})
_CHECKPOINT_TRUNCATE_SITES = frozenset({"wal.checkpoint_truncate"})


@dataclass(frozen=True)
class CallSite:
    """One syntactic call: who might answer it is the call graph's job."""

    name: str
    """Called name (function, class, or method — the last component)."""

    receiver: str
    """Dotted receiver text (``"self"``, ``"self.scheme"``, a module
    alias, ...), ``""`` for bare-name calls, ``"?"`` when unprintable."""

    kind: str
    """``"name"`` | ``"method"`` | ``"super"``."""

    args: int
    """Positional argument count; ``-1`` when ``*args`` is present."""

    keywords: tuple[str, ...]
    """Keyword names; ``"**"`` marks a double-star splat."""

    lineno: int

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "receiver": self.receiver,
            "kind": self.kind,
            "args": self.args,
            "keywords": list(self.keywords),
            "lineno": self.lineno,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "CallSite":
        return cls(
            name=raw["name"],
            receiver=raw["receiver"],
            kind=raw["kind"],
            args=raw["args"],
            keywords=tuple(raw["keywords"]),
            lineno=raw["lineno"],
        )


@dataclass(frozen=True)
class Mutation:
    """One raw state write: root name, attribute chain, and how."""

    root: str
    """The base name written through (``"self"``, a parameter, ...)."""

    chain: tuple[str, ...]
    """Attributes between the root and the written slot (alias-resolved:
    ``cache[tag] = ...`` after ``cache = self._tag_bytes_cache`` reports
    root ``self``, chain ``("_tag_bytes_cache",)``)."""

    kind: str
    """``"assign"`` | ``"aug"`` | ``"subscript"`` | ``"del"`` |
    ``"call:<method>"``."""

    lineno: int
    col: int

    def describe(self) -> str:
        target = ".".join((self.root,) + self.chain)
        if self.kind.startswith("call:"):
            return f"{target}.{self.kind[5:]}(...)"
        if self.kind == "subscript":
            return f"{target}[...]"
        return target

    def to_dict(self) -> dict:
        return {
            "root": self.root,
            "chain": list(self.chain),
            "kind": self.kind,
            "lineno": self.lineno,
            "col": self.col,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "Mutation":
        return cls(
            root=raw["root"],
            chain=tuple(raw["chain"]),
            kind=raw["kind"],
            lineno=raw["lineno"],
            col=raw["col"],
        )


@dataclass(frozen=True)
class DurableEvent:
    """One durable side effect (or a FAULTS protocol marker for one)."""

    kind: str
    """``"fsync"`` | ``"atomic_write"`` | ``"truncate"`` |
    ``"checkpoint_write"`` | ``"unlink"``."""

    lineno: int
    col: int

    marker: bool = False
    """True for ``FAULTS.hit("wal.checkpoint_*")`` protocol markers —
    they locate the protocol step but are not themselves durable."""

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "lineno": self.lineno,
            "col": self.col,
            "marker": self.marker,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "DurableEvent":
        return cls(
            kind=raw["kind"],
            lineno=raw["lineno"],
            col=raw["col"],
            marker=raw["marker"],
        )


@dataclass(frozen=True)
class RecordTarget:
    """What one ``log.record(...)`` call registered as the inverse."""

    kind: str
    """``"local"`` (a nested function/lambda), ``"method"`` (``self.X``),
    ``"func"`` (a module-level name), ``"opaque"`` (container method,
    computed expression)."""

    name: str
    lineno: int
    col: int

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "name": self.name,
            "lineno": self.lineno,
            "col": self.col,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "RecordTarget":
        return cls(
            kind=raw["kind"],
            name=raw["name"],
            lineno=raw["lineno"],
            col=raw["col"],
        )


@dataclass
class FunctionFacts:
    """Effect-relevant summary of one function or method."""

    name: str
    qualname: str
    """``f`` | ``C.f`` | ``C.f.<locals>.g`` — unique within the module."""

    lineno: int
    class_name: str | None
    params: tuple[str, ...]
    annotations: dict[str, str]
    """Parameter name -> annotation source text (when present)."""

    kwonly: tuple[str, ...]
    defaults: int
    has_vararg: bool
    has_kwarg: bool
    calls: list[CallSite] = field(default_factory=list)
    mutations: list[Mutation] = field(default_factory=list)
    durables: list[DurableEvent] = field(default_factory=list)
    record_targets: list[RecordTarget] = field(default_factory=list)
    raises: list[str] = field(default_factory=list)
    registers_undo: bool = False
    """True when the function registers an inverse on every path that a
    bound undo log can reach (the guarded mutation-site idiom)."""

    has_undo_guard: bool = False
    opens_transaction: bool = False
    global_writes: list[Mutation] = field(default_factory=list)
    """Writes through bare names that are not locally bound — candidate
    mutations of module-level state (RPR011)."""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "qualname": self.qualname,
            "lineno": self.lineno,
            "class_name": self.class_name,
            "params": list(self.params),
            "annotations": self.annotations,
            "kwonly": list(self.kwonly),
            "defaults": self.defaults,
            "has_vararg": self.has_vararg,
            "has_kwarg": self.has_kwarg,
            "calls": [c.to_dict() for c in self.calls],
            "mutations": [m.to_dict() for m in self.mutations],
            "durables": [d.to_dict() for d in self.durables],
            "record_targets": [t.to_dict() for t in self.record_targets],
            "raises": self.raises,
            "registers_undo": self.registers_undo,
            "has_undo_guard": self.has_undo_guard,
            "opens_transaction": self.opens_transaction,
            "global_writes": [m.to_dict() for m in self.global_writes],
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "FunctionFacts":
        return cls(
            name=raw["name"],
            qualname=raw["qualname"],
            lineno=raw["lineno"],
            class_name=raw["class_name"],
            params=tuple(raw["params"]),
            annotations=dict(raw["annotations"]),
            kwonly=tuple(raw["kwonly"]),
            defaults=raw["defaults"],
            has_vararg=raw["has_vararg"],
            has_kwarg=raw["has_kwarg"],
            calls=[CallSite.from_dict(c) for c in raw["calls"]],
            mutations=[Mutation.from_dict(m) for m in raw["mutations"]],
            durables=[DurableEvent.from_dict(d) for d in raw["durables"]],
            record_targets=[
                RecordTarget.from_dict(t) for t in raw["record_targets"]
            ],
            raises=list(raw["raises"]),
            registers_undo=raw["registers_undo"],
            has_undo_guard=raw["has_undo_guard"],
            opens_transaction=raw["opens_transaction"],
            global_writes=[
                Mutation.from_dict(m) for m in raw["global_writes"]
            ],
        )


@dataclass
class ClassFacts:
    """One class: bases (as written), methods, and mutable class attrs."""

    name: str
    lineno: int
    bases: tuple[str, ...]
    methods: dict[str, str]
    """Method name -> function qualname (``C.m``)."""

    mutable_class_attrs: list[tuple[str, int]] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "lineno": self.lineno,
            "bases": list(self.bases),
            "methods": self.methods,
            "mutable_class_attrs": [
                list(entry) for entry in self.mutable_class_attrs
            ],
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "ClassFacts":
        return cls(
            name=raw["name"],
            lineno=raw["lineno"],
            bases=tuple(raw["bases"]),
            methods=dict(raw["methods"]),
            mutable_class_attrs=[
                (entry[0], entry[1]) for entry in raw["mutable_class_attrs"]
            ],
        )


@dataclass
class ModuleFacts:
    """Everything the program-level phases need from one file."""

    path: str
    module_name: str | None
    is_package: bool
    functions: dict[str, FunctionFacts] = field(default_factory=dict)
    classes: dict[str, ClassFacts] = field(default_factory=dict)
    imports: dict[str, str] = field(default_factory=dict)
    """Local name -> absolute dotted target, for call/base resolution."""

    repro_imports: list[tuple[int, str]] = field(default_factory=list)
    """(lineno, absolute dotted target) for every ``repro`` import —
    RPR004's edge/cycle input."""

    module_mutables: list[tuple[str, int, bool]] = field(default_factory=list)
    """(name, lineno, follows-constant-naming) for each module-level
    mutable container."""

    suppressions: dict[int, list[str]] = field(default_factory=dict)
    """Line -> suppression slugs (mirrors the inline comments)."""

    @property
    def layer(self) -> str:
        from repro.analysis.layers import SCRIPT_LAYER, layer_of_module

        if self.module_name is None:
            return SCRIPT_LAYER
        return layer_of_module(self.module_name)

    def qualify(self, qualname: str) -> str:
        """The program-wide id of a function in this module."""
        anchor = self.module_name or self.path
        return f"{anchor}::{qualname}"

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "module_name": self.module_name,
            "is_package": self.is_package,
            "functions": {
                qual: facts.to_dict() for qual, facts in self.functions.items()
            },
            "classes": {
                name: facts.to_dict() for name, facts in self.classes.items()
            },
            "imports": self.imports,
            "repro_imports": [list(entry) for entry in self.repro_imports],
            "module_mutables": [list(entry) for entry in self.module_mutables],
            "suppressions": {
                str(line): slugs for line, slugs in self.suppressions.items()
            },
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "ModuleFacts":
        return cls(
            path=raw["path"],
            module_name=raw["module_name"],
            is_package=raw["is_package"],
            functions={
                qual: FunctionFacts.from_dict(facts)
                for qual, facts in raw["functions"].items()
            },
            classes={
                name: ClassFacts.from_dict(facts)
                for name, facts in raw["classes"].items()
            },
            imports=dict(raw["imports"]),
            repro_imports=[
                (entry[0], entry[1]) for entry in raw["repro_imports"]
            ],
            module_mutables=[
                (entry[0], entry[1], entry[2])
                for entry in raw["module_mutables"]
            ],
            suppressions={
                int(line): list(slugs)
                for line, slugs in raw["suppressions"].items()
            },
        )


def _dotted_text(node: ast.AST) -> str | None:
    """Source-like dotted text of a Name/Attribute chain, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted_text(node.value)
        if base is None:
            return None
        return f"{base}.{node.attr}"
    return None


def _is_constant_name(name: str) -> bool:
    stripped = name.lstrip("_")
    return bool(stripped) and stripped == stripped.upper()


def _is_dunder_name(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _is_mutable_literal(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        return True
    if isinstance(node, (ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        callee = node.func
        name = callee.id if isinstance(callee, ast.Name) else (
            callee.attr if isinstance(callee, ast.Attribute) else None
        )
        return name in _MUTABLE_FACTORIES
    return False


class _FunctionWalker:
    """Single in-order pass over one function body.

    Tracks local aliases of attribute chains (``log = self.undo_log``,
    ``cache = self._tag_bytes_cache``, ``bucket =
    self.tag_index.setdefault(...)``) so writes through the alias
    attribute to the chain, and undo-log guard/record structure so the
    ``registers_undo`` verdict matches the repo's mutation-site idiom.
    """

    def __init__(self, facts: FunctionFacts) -> None:
        self.facts = facts
        self.aliases: dict[str, tuple[str, ...]] = {}
        self.undo_aliases: set[str] = set()
        self.local_names: set[str] = set(facts.params)
        self.declared_globals: set[str] = set()
        self.nested: list[tuple[str, ast.AST]] = []

    # -- chains ------------------------------------------------------------

    def _chain_of(self, node: ast.AST) -> tuple[str, ...] | None:
        """(root, attr, attr, ...) for a readable chain, alias-resolved."""
        if isinstance(node, ast.Name):
            resolved = self.aliases.get(node.id)
            return resolved if resolved is not None else (node.id,)
        if isinstance(node, ast.Attribute):
            base = self._chain_of(node.value)
            if base is None:
                return None
            return base + (node.attr,)
        if isinstance(node, ast.Call):
            # getattr(self, "x", ...) and chain.get/.setdefault(...) read
            # *through* the chain; their result aliases it.
            func = node.func
            if (
                isinstance(func, ast.Name)
                and func.id == "getattr"
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
                and isinstance(node.args[1].value, str)
            ):
                base = self._chain_of(node.args[0])
                if base is not None:
                    return base + (node.args[1].value,)
            if isinstance(func, ast.Attribute) and func.attr in (
                "get",
                "setdefault",
            ):
                return self._chain_of(func.value)
        return None

    def _is_undo_chain(self, chain: tuple[str, ...] | None) -> bool:
        if not chain:
            return False
        if chain[-1] == "undo_log":
            return True
        return len(chain) == 1 and chain[0] in self.undo_aliases

    # -- record / guard structure ------------------------------------------

    def _record_call(self, node: ast.Call) -> bool:
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "record"):
            return False
        return self._is_undo_chain(self._chain_of(func.value))

    def _is_record_stmt(self, stmt: ast.stmt) -> bool:
        return (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Call)
            and self._record_call(stmt.value)
        )

    def _is_guard_test(self, test: ast.expr) -> bool:
        """Does the condition reference the (possibly aliased) undo log?"""
        for node in ast.walk(test):
            if isinstance(node, ast.Attribute) and node.attr == "undo_log":
                return True
            if isinstance(node, ast.Name) and (
                node.id == "undo_log" or node.id in self.undo_aliases
            ):
                return True
        return False

    def _must_record(self, stmts: list[ast.stmt]) -> bool:
        """All-paths-record over a guard body.

        An ``If`` without ``else`` passes when its body records — a
        conditional inverse (``splice_out`` records only when the node
        has a parent) is accepted; an ``If``/``else`` requires both arms
        so deleting one branch's registration is caught.
        """
        for stmt in stmts:
            if self._is_record_stmt(stmt):
                return True
            if isinstance(stmt, ast.If):
                if stmt.orelse:
                    if self._must_record(stmt.body) and self._must_record(
                        stmt.orelse
                    ):
                        return True
                elif self._must_record(stmt.body):
                    return True
            elif isinstance(stmt, (ast.With, ast.For, ast.While, ast.Try)):
                if self._must_record(stmt.body):
                    return True
        return False

    def _registers(self, stmts: list[ast.stmt]) -> bool:
        for stmt in stmts:
            if self._is_record_stmt(stmt):
                return True  # unconditional registration
            if isinstance(stmt, ast.If):
                if self._is_guard_test(stmt.test):
                    if self._must_record(stmt.body):
                        return True
                elif (
                    stmt.orelse
                    and self._registers(stmt.body)
                    and self._registers(stmt.orelse)
                ):
                    return True
            elif isinstance(stmt, (ast.With, ast.For, ast.While, ast.Try)):
                if self._registers(stmt.body):
                    return True
        return False

    def _has_guard(self, stmts: list[ast.stmt]) -> bool:
        for stmt in stmts:
            if isinstance(stmt, ast.If) and self._is_guard_test(stmt.test):
                return True
            for child in ast.iter_child_nodes(stmt):
                if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
                ):
                    continue
                if isinstance(child, ast.If) and self._is_guard_test(
                    child.test
                ):
                    return True
        return False

    # -- statement walk ----------------------------------------------------

    def walk(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            self._statement(stmt)
        self.facts.registers_undo = self._registers(body)
        self.facts.has_undo_guard = self._has_guard(body)

    def _statement(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.local_names.add(stmt.name)
            self.nested.append((stmt.name, stmt))
            return
        if isinstance(stmt, ast.ClassDef):
            self.local_names.add(stmt.name)
            return
        if isinstance(stmt, ast.Assign):
            self._expression(stmt.value)
            self._assign(stmt.targets, stmt.value)
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._expression(stmt.value)
                self._assign([stmt.target], stmt.value)
            return
        if isinstance(stmt, ast.AugAssign):
            self._expression(stmt.value)
            self._write_target(stmt.target, "aug")
            return
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                self._write_target(target, "del")
            return
        if isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._expression(stmt.exc)
                exc = stmt.exc
                name = None
                if isinstance(exc, ast.Call):
                    name = (
                        exc.func.id
                        if isinstance(exc.func, ast.Name)
                        else getattr(exc.func, "attr", None)
                    )
                elif isinstance(exc, ast.Name):
                    name = exc.id
                if name:
                    self.facts.raises.append(name)
            return
        if isinstance(stmt, ast.If):
            self._expression(stmt.test)
            for child in stmt.body:
                self._statement(child)
            for child in stmt.orelse:
                self._statement(child)
            return
        if isinstance(stmt, ast.With) or isinstance(stmt, ast.AsyncWith):
            for item in stmt.items:
                self._expression(item.context_expr)
                call = item.context_expr
                if isinstance(call, ast.Call):
                    name = (
                        call.func.id
                        if isinstance(call.func, ast.Name)
                        else getattr(call.func, "attr", None)
                    )
                    if name in ("Transaction", "_atomic"):
                        self.facts.opens_transaction = True
                if item.optional_vars is not None and isinstance(
                    item.optional_vars, ast.Name
                ):
                    self.local_names.add(item.optional_vars.id)
            for child in stmt.body:
                self._statement(child)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._expression(stmt.iter)
            for node in ast.walk(stmt.target):
                if isinstance(node, ast.Name):
                    self.local_names.add(node.id)
                    self.aliases.pop(node.id, None)
            for child in stmt.body:
                self._statement(child)
            for child in stmt.orelse:
                self._statement(child)
            return
        if isinstance(stmt, ast.While):
            self._expression(stmt.test)
            for child in stmt.body:
                self._statement(child)
            for child in stmt.orelse:
                self._statement(child)
            return
        if isinstance(stmt, ast.Try):
            for child in stmt.body:
                self._statement(child)
            for handler in stmt.handlers:
                if handler.name:
                    self.local_names.add(handler.name)
                for child in handler.body:
                    self._statement(child)
            for child in stmt.orelse:
                self._statement(child)
            for child in stmt.finalbody:
                self._statement(child)
            return
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._expression(stmt.value)
            return
        if isinstance(stmt, ast.Expr):
            self._expression(stmt.value)
            return
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                self.local_names.add(
                    (alias.asname or alias.name).split(".")[0]
                )
            return
        if isinstance(stmt, ast.Assert):
            self._expression(stmt.test)
            return
        if isinstance(stmt, ast.Global):
            # Rebinds of these names are module-state writes, not
            # local bindings.
            self.declared_globals.update(stmt.names)
            self.local_names.difference_update(stmt.names)
            return
        # Pass/Break/Continue/Nonlocal and anything else: nothing
        # effect-relevant beyond what the cases above capture.

    def _assign(self, targets: list[ast.expr], value: ast.expr) -> None:
        source_chain = self._chain_of(value)
        attr_chain: tuple[str, ...] | None = None
        for target in targets:
            if isinstance(target, (ast.Attribute, ast.Subscript)):
                self._write_target(target, "assign")
                if attr_chain is None and isinstance(target, ast.Attribute):
                    attr_chain = self._chain_of(target)
        for target in targets:
            if isinstance(target, ast.Name):
                if target.id in self.declared_globals:
                    self._mutation((target.id,), "assign", target)
                    continue
                self.local_names.add(target.id)
                chain = None
                if source_chain is not None and len(source_chain) > 1:
                    chain = source_chain
                elif attr_chain is not None:
                    # `cache = self._x = {}`: the name and the attribute
                    # are the same object; writes through either alias.
                    chain = attr_chain
                if chain is not None:
                    self.aliases[target.id] = chain
                    if chain[-1] == "undo_log":
                        self.undo_aliases.add(target.id)
                else:
                    self.aliases.pop(target.id, None)
                    self.undo_aliases.discard(target.id)
            elif isinstance(target, (ast.Tuple, ast.List)):
                for element in target.elts:
                    if isinstance(element, ast.Name):
                        self.local_names.add(element.id)
                        self.aliases.pop(element.id, None)

    def _write_target(self, target: ast.expr, kind: str) -> None:
        if isinstance(target, ast.Subscript):
            self._expression(target.slice)
            chain = self._chain_of(target.value)
            if chain is not None:
                self._mutation(
                    chain, "subscript" if kind != "del" else "del", target
                )
            return
        if isinstance(target, ast.Attribute):
            chain = self._chain_of(target.value)
            if chain is not None:
                self._mutation(chain + (target.attr,), kind, target)
            return
        if isinstance(target, ast.Name) and kind == "aug":
            # `name += ...` rebinding of a module-level container shows
            # up as a global write candidate; plain locals are dropped
            # during classification.
            self._mutation((target.id,), kind, target)

    def _mutation(
        self, chain: tuple[str, ...], kind: str, node: ast.AST
    ) -> None:
        mutation = Mutation(
            root=chain[0],
            chain=chain[1:],
            kind=kind,
            lineno=getattr(node, "lineno", self.facts.lineno),
            col=getattr(node, "col_offset", 0),
        )
        if (
            chain[0] not in self.local_names
            and chain[0] not in ("self", "cls")
            and chain[0] not in self.aliases
        ):
            self.facts.global_writes.append(mutation)
        else:
            self.facts.mutations.append(mutation)

    def _expression(self, node: ast.expr) -> None:
        """Collect calls, call-mutations and durable events in order.

        Lambda bodies are *not* pruned: a deferred call like
        ``callbacks.append(lambda: self._flush(...))`` still contributes
        a call edge from the enclosing function, which is how a
        registered callback becomes reachable in the graph.
        """
        for child in ast.walk(node):
            if isinstance(child, ast.Call):
                self._call(child)

    def _call(self, node: ast.Call) -> None:
        func = node.func
        args = -1 if any(
            isinstance(arg, ast.Starred) for arg in node.args
        ) else len(node.args)
        keywords = tuple(
            keyword.arg if keyword.arg is not None else "**"
            for keyword in node.keywords
        )
        if isinstance(func, ast.Name):
            self.facts.calls.append(
                CallSite(
                    name=func.id,
                    receiver="",
                    kind="name",
                    args=args,
                    keywords=keywords,
                    lineno=node.lineno,
                )
            )
            self._durable_by_name(func.id, node)
        elif isinstance(func, ast.Attribute):
            receiver = func.value
            if (
                isinstance(receiver, ast.Call)
                and isinstance(receiver.func, ast.Name)
                and receiver.func.id == "super"
            ):
                kind = "super"
                receiver_text = "super()"
            else:
                kind = "method"
                receiver_text = _dotted_text(receiver) or "?"
            self.facts.calls.append(
                CallSite(
                    name=func.attr,
                    receiver=receiver_text,
                    kind=kind,
                    args=args,
                    keywords=keywords,
                    lineno=node.lineno,
                )
            )
            if func.attr in MUTATING_METHOD_NAMES:
                chain = self._chain_of(receiver)
                if chain is not None:
                    self._mutation(chain, f"call:{func.attr}", node)
            self._durable_by_name(func.attr, node)
            if func.attr == "hit":
                self._faults_marker(node)
            if self._record_call(node):
                self.facts.record_targets.append(self._record_target(node))

    def _durable_by_name(self, name: str, node: ast.Call) -> None:
        if name == "fsync":
            self._durable("fsync", node)
        elif name == "save_labeled":
            self._durable("checkpoint_write", node)
        elif name == "atomic_write_bytes":
            payload = node.args[1] if len(node.args) >= 2 else None
            truncating = (
                isinstance(payload, ast.Constant)
                and payload.value == b""
            )
            self._durable("truncate" if truncating else "atomic_write", node)
        elif name == "truncate":
            self._durable("truncate", node)
        elif name == "unlink":
            self._durable("unlink", node)

    def _faults_marker(self, node: ast.Call) -> None:
        if not node.args:
            return
        site = node.args[0]
        if not (isinstance(site, ast.Constant) and isinstance(site.value, str)):
            return
        if site.value in _CHECKPOINT_WRITE_SITES:
            self.facts.durables.append(
                DurableEvent(
                    kind="checkpoint_write",
                    lineno=node.lineno,
                    col=node.col_offset,
                    marker=True,
                )
            )
        elif site.value in _CHECKPOINT_TRUNCATE_SITES:
            self.facts.durables.append(
                DurableEvent(
                    kind="truncate",
                    lineno=node.lineno,
                    col=node.col_offset,
                    marker=True,
                )
            )

    def _durable(self, kind: str, node: ast.Call) -> None:
        self.facts.durables.append(
            DurableEvent(kind=kind, lineno=node.lineno, col=node.col_offset)
        )

    def _record_target(self, node: ast.Call) -> RecordTarget:
        lineno, col = node.lineno, node.col_offset
        if not node.args:
            return RecordTarget("opaque", "", lineno, col)
        arg: ast.expr = node.args[0]
        if isinstance(arg, ast.Call):
            func = arg.func
            name = func.id if isinstance(func, ast.Name) else getattr(
                func, "attr", None
            )
            if name == "partial" and arg.args:
                arg = arg.args[0]
            else:
                # `log.record(self._counters_undo())` registers the
                # *result* of the call; the maker is the closest proxy.
                arg = func
        if isinstance(arg, ast.Lambda):
            name = f"<lambda:{arg.lineno}>"
            self.nested.append((name, arg))
            return RecordTarget("local", name, lineno, col)
        if isinstance(arg, ast.Name):
            return RecordTarget("local", arg.id, lineno, col)
        if isinstance(arg, ast.Attribute):
            if isinstance(arg.value, ast.Name) and arg.value.id in (
                "self",
                "cls",
            ):
                return RecordTarget("method", arg.attr, lineno, col)
            return RecordTarget("opaque", arg.attr, lineno, col)
        return RecordTarget("opaque", "", lineno, col)


class FactsExtractor:
    """Walks one parsed module into a :class:`ModuleFacts`."""

    def __init__(
        self,
        path: str,
        module_name: str | None,
        is_package: bool,
        tree: ast.Module,
        source_lines: list[str],
    ) -> None:
        self.facts = ModuleFacts(
            path=path, module_name=module_name, is_package=is_package
        )
        self.tree = tree
        self.source_lines = source_lines

    def extract(self) -> ModuleFacts:
        self._imports()
        self._suppressions()
        for stmt in self.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._function(stmt, qual_prefix="", class_name=None)
            elif isinstance(stmt, ast.ClassDef):
                self._class(stmt)
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if (
                        isinstance(target, ast.Name)
                        and not _is_dunder_name(target.id)
                        and _is_mutable_literal(stmt.value)
                    ):
                        self.facts.module_mutables.append(
                            (
                                target.id,
                                stmt.lineno,
                                _is_constant_name(target.id),
                            )
                        )
            elif isinstance(stmt, ast.AnnAssign):
                if (
                    isinstance(stmt.target, ast.Name)
                    and not _is_dunder_name(stmt.target.id)
                    and stmt.value is not None
                    and _is_mutable_literal(stmt.value)
                ):
                    self.facts.module_mutables.append(
                        (
                            stmt.target.id,
                            stmt.lineno,
                            _is_constant_name(stmt.target.id),
                        )
                    )
        return self.facts

    def _suppressions(self) -> None:
        collected = collect_suppressions(self.source_lines)
        self.facts.suppressions = {
            line: sorted(slugs)
            for line, slugs in collected.by_line().items()
        }

    def _imports(self) -> None:
        anchor_parts = (
            self.facts.module_name.split(".")
            if self.facts.module_name
            else None
        )
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(
                        "."
                    )[0]
                    self.facts.imports.setdefault(local, target)
                    if alias.name == "repro" or alias.name.startswith(
                        "repro."
                    ):
                        self.facts.repro_imports.append(
                            (node.lineno, alias.name)
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    resolved = self._resolve_relative(
                        anchor_parts, node.level, node.module
                    )
                else:
                    resolved = node.module
                if resolved is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.facts.imports.setdefault(
                        local, f"{resolved}.{alias.name}"
                    )
                if resolved == "repro" or resolved.startswith("repro."):
                    self.facts.repro_imports.append((node.lineno, resolved))

    def _resolve_relative(
        self, anchor_parts: list[str] | None, level: int, target: str | None
    ) -> str | None:
        if anchor_parts is None:
            return None
        anchor = list(anchor_parts)
        if not self.facts.is_package:
            anchor = anchor[:-1]
        if level > 1:
            if level - 1 >= len(anchor):
                return None
            anchor = anchor[: -(level - 1)]
        if target:
            return ".".join(anchor + target.split("."))
        return ".".join(anchor)

    def _class(self, node: ast.ClassDef) -> None:
        bases = tuple(
            text
            for text in (_dotted_text(base) for base in node.bases)
            if text is not None
        )
        class_facts = ClassFacts(
            name=node.name, lineno=node.lineno, bases=bases, methods={}
        )
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = self._function(
                    stmt, qual_prefix=f"{node.name}.", class_name=node.name
                )
                class_facts.methods[stmt.name] = qual
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name) and _is_mutable_literal(
                        stmt.value
                    ):
                        class_facts.mutable_class_attrs.append(
                            (target.id, stmt.lineno)
                        )
        self.facts.classes[node.name] = class_facts

    def _function(
        self,
        node: "ast.FunctionDef | ast.AsyncFunctionDef",
        *,
        qual_prefix: str,
        class_name: str | None,
    ) -> str:
        qualname = f"{qual_prefix}{node.name}"
        facts = self._make_function_facts(node, qualname, class_name)
        walker = _FunctionWalker(facts)
        walker.walk(node.body)
        self.facts.functions[qualname] = facts
        for name, nested in walker.nested:
            if isinstance(nested, ast.Lambda):
                self._lambda(
                    nested, f"{qualname}.<locals>.{name}", class_name
                )
            else:
                self._function(
                    nested,
                    qual_prefix=f"{qualname}.<locals>.",
                    class_name=class_name,
                )
        return qualname

    def _lambda(
        self, node: ast.Lambda, qualname: str, class_name: str | None
    ) -> None:
        facts = FunctionFacts(
            name=qualname.rsplit(".", 1)[-1],
            qualname=qualname,
            lineno=node.lineno,
            class_name=class_name,
            params=tuple(arg.arg for arg in node.args.args),
            annotations={},
            kwonly=tuple(arg.arg for arg in node.args.kwonlyargs),
            defaults=len(node.args.defaults),
            has_vararg=node.args.vararg is not None,
            has_kwarg=node.args.kwarg is not None,
        )
        walker = _FunctionWalker(facts)
        walker.walk([ast.Expr(value=node.body)])
        self.facts.functions[qualname] = facts

    def _make_function_facts(
        self,
        node: "ast.FunctionDef | ast.AsyncFunctionDef",
        qualname: str,
        class_name: str | None,
    ) -> FunctionFacts:
        args = node.args
        params = [arg.arg for arg in args.posonlyargs + args.args]
        annotations: dict[str, str] = {}
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            if arg.annotation is not None:
                annotations[arg.arg] = ast.unparse(arg.annotation)
        return FunctionFacts(
            name=node.name,
            qualname=qualname,
            lineno=node.lineno,
            class_name=class_name,
            params=tuple(params),
            annotations=annotations,
            kwonly=tuple(arg.arg for arg in args.kwonlyargs),
            defaults=len(args.defaults),
            has_vararg=args.vararg is not None,
            has_kwarg=args.kwarg is not None,
        )


def extract_module_facts(
    path: str,
    module_name: str | None,
    is_package: bool,
    tree: ast.Module,
    source_lines: list[str],
) -> ModuleFacts:
    """One call = one file's complete fact set."""
    return FactsExtractor(
        path, module_name, is_package, tree, source_lines
    ).extract()
