"""The four contract-lint rules.

Each rule is a callable ``rule(ctx) -> list[Finding]`` over one parsed
module (:class:`~repro.analysis.engine.ModuleContext`); repo-specific
registries live in :mod:`repro.analysis.contracts`.  Rules are registered
into :data:`RULES` via :func:`register_rule` so the engine, the CLI's rule
listing, and the fixture tests all iterate the same set.

Static-analysis honesty: these checks are *syntactic*.  They cannot see
allocation hidden behind operators (``a * b`` temporaries pass the ``alloc`` rule; only named
constructor/ufunc calls are enforced).  The pragma escape hatch plus the
bitwise property tests cover what the AST cannot.
"""

from __future__ import annotations

import ast
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis import contracts
from repro.analysis.findings import Finding

Rule = Callable[["ModuleContext"], List[Finding]]

RULES: Dict[str, Rule] = {}
RULE_DESCRIPTIONS: Dict[str, str] = {}


def register_rule(rule_id: str, description: str) -> Callable[[Rule], Rule]:
    def wrap(fn: Rule) -> Rule:
        if rule_id in RULES:
            raise ValueError(f"rule {rule_id!r} already registered")
        RULES[rule_id] = fn
        RULE_DESCRIPTIONS[rule_id] = description
        return fn

    return wrap


def rule_ids() -> Tuple[str, ...]:
    return tuple(sorted(RULES))


# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------
def _attr_chain(node: ast.AST) -> Tuple[str, ...]:
    """Dotted-name chain of a Name/Attribute expression (outermost last).

    ``np.random.default_rng`` -> ("np", "random", "default_rng"); anything
    that is not a plain dotted chain yields ().
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return ()


_NUMPY_NAMES = {"np", "numpy"}


def _is_numpy_call(chain: Tuple[str, ...], name: str) -> bool:
    return len(chain) == 2 and chain[0] in _NUMPY_NAMES and chain[1] == name


def _has_keyword(call: ast.Call, name: str) -> bool:
    return any(kw.arg == name for kw in call.keywords)


def _keyword_value(call: ast.Call, name: str) -> Optional[ast.expr]:
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    return None


def _decorator_names(fn: ast.AST) -> Set[str]:
    names: Set[str] = set()
    for deco in getattr(fn, "decorator_list", []):
        target = deco.func if isinstance(deco, ast.Call) else deco
        chain = _attr_chain(target)
        if chain:
            names.add(chain[-1])
    return names


def _walk_function_body(fn: ast.AST) -> Iterable[ast.AST]:
    """Walk a function body without descending into nested def/class scopes
    that carry their own contract marking."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _iter_functions(
    tree: ast.Module,
) -> Iterable[Tuple[str, ast.AST]]:
    """Yield ``(qualname, node)`` for every function in the module."""

    def visit(node: ast.AST, prefix: str) -> Iterable[Tuple[str, ast.AST]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{child.name}"
                yield qual, child
                yield from visit(child, f"{qual}.")
            elif isinstance(child, ast.ClassDef):
                yield from visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.If, ast.Try, ast.With)):
                yield from visit(child, prefix)

    yield from visit(tree, "")


# ----------------------------------------------------------------------
# Rule 1: alloc (arena / allocation discipline)
# ----------------------------------------------------------------------
@register_rule(
    "alloc",
    "steady-state GP inner-loop functions may not call allocating NumPy "
    "constructors, out=-less binary ufuncs, or buffered np.take(out=) "
    "(stage through the arena)",
)
def check_alloc(ctx: "ModuleContext") -> List[Finding]:
    registered = contracts.STEADY_STATE_FUNCTIONS.get(ctx.repro_path, frozenset())
    findings: List[Finding] = []
    for qualname, fn in _iter_functions(ctx.tree):
        marked = "steady_state" in _decorator_names(fn)
        if not marked and qualname not in registered:
            continue
        for node in _walk_function_body(fn):
            if not isinstance(node, ast.Call):
                continue
            chain = _attr_chain(node.func)
            method = (
                node.func.attr if isinstance(node.func, ast.Attribute) else None
            )
            if method == "astype":
                copy_kw = _keyword_value(node, "copy")
                if not (
                    isinstance(copy_kw, ast.Constant) and copy_kw.value is False
                ):
                    findings.append(
                        ctx.finding(
                            "alloc",
                            node,
                            f"{qualname}: .astype without copy=False always "
                            "copies; cast into a preallocated buffer",
                        )
                    )
                continue
            if method == "copy" and (not chain or chain[0] not in _NUMPY_NAMES):
                findings.append(
                    ctx.finding(
                        "alloc",
                        node,
                        f"{qualname}: .copy() allocates; reuse a buffer with "
                        "np.copyto (or pragma with a reason)",
                    )
                )
                continue
            if not chain:
                continue
            if (
                len(chain) == 2
                and chain[0] in _NUMPY_NAMES
                and chain[1] in contracts.ALLOCATING_CONSTRUCTORS
            ):
                findings.append(
                    ctx.finding(
                        "alloc",
                        node,
                        f"{qualname}: np.{chain[1]} allocates every iteration; "
                        "use an arena buffer (or pragma with a reason)",
                    )
                )
            elif (
                len(chain) == 2
                and chain[0] in _NUMPY_NAMES
                and chain[1] in contracts.OUT_REQUIRED_CALLS
                and not _has_keyword(node, "out")
            ):
                findings.append(
                    ctx.finding(
                        "alloc",
                        node,
                        f"{qualname}: np.{chain[1]} without out= allocates a "
                        "fresh result array; stage it through a reused buffer",
                    )
                )
            elif (
                len(chain) == 2
                and chain[0] in _NUMPY_NAMES
                and chain[1] == "take"
                and _buffered_take(node)
            ):
                findings.append(
                    ctx.finding(
                        "alloc",
                        node,
                        f"{qualname}: np.take(out=) in the default "
                        "mode='raise' gathers into a hidden temporary and "
                        "copies it into out; pass mode='clip' for in-range "
                        "plan indices",
                    )
                )
    return findings


def _buffered_take(call: ast.Call) -> bool:
    """``np.take`` with ``out=`` whose ``mode=`` is missing or ``"raise"``.

    Like the ``out=`` check, this reads keywords only.  A mode given as a
    non-literal expression is not flagged (the rule cannot know its value).
    """
    if not _has_keyword(call, "out"):
        return False
    mode = _keyword_value(call, "mode")
    return mode is None or (isinstance(mode, ast.Constant) and mode.value == "raise")


# ----------------------------------------------------------------------
# Rule 2: ref-parity (reference-path / fast-path pairing)
# ----------------------------------------------------------------------
_REFERENCE_PREFIX = "_reference_"


@register_rule(
    "ref-parity",
    "every _reference_* function needs a fast-path twin in the same scope "
    "and a test that names both, so golden paths cannot drift untested",
)
def check_reference_parity(ctx: "ModuleContext") -> List[Finding]:
    findings: List[Finding] = []
    functions = list(_iter_functions(ctx.tree))
    names_by_scope: Dict[str, Set[str]] = {}
    for qualname, _fn in functions:
        scope, _, name = qualname.rpartition(".")
        names_by_scope.setdefault(scope, set()).add(name)

    for qualname, fn in functions:
        scope, _, name = qualname.rpartition(".")
        if not name.startswith(_REFERENCE_PREFIX):
            continue
        suffix = name[len(_REFERENCE_PREFIX):]
        twins = {suffix, "_" + suffix}
        siblings = names_by_scope.get(scope, set())
        twin = next((t for t in sorted(twins) if t in siblings), None)
        if twin is None:
            findings.append(
                ctx.finding(
                    "ref-parity",
                    fn,
                    f"{qualname}: no fast-path twin ({suffix!r} or "
                    f"{'_' + suffix!r}) in the same scope — the reference "
                    "implementation is orphaned",
                )
            )
            continue
        if ctx.test_identifiers is None:
            continue  # no tests directory supplied; structural check only
        covered = any(
            name in idents and twin in idents
            for idents in ctx.test_identifiers.values()
        )
        if not covered:
            findings.append(
                ctx.finding(
                    "ref-parity",
                    fn,
                    f"{qualname}: no test module names both {name!r} and "
                    f"{twin!r}; add a bitwise parity test so the pair "
                    "cannot drift apart",
                )
            )
    return findings


# ----------------------------------------------------------------------
# Rule 3: layering (import constraints)
# ----------------------------------------------------------------------
@register_rule(
    "layering",
    "engine packages (netlist/placement/timing/route) may not import "
    "repro.flow / repro.cli at module scope",
)
def check_layering(ctx: "ModuleContext") -> List[Finding]:
    findings: List[Finding] = []
    sub = ctx.repro_path
    package = sub.split("/", 1)[0] if "/" in sub else ""

    if package in contracts.LAYERED_PACKAGES:
        for node in _module_scope_imports(ctx.tree):
            for target in _imported_modules(node):
                if any(
                    target == banned or target.startswith(banned + ".")
                    for banned in contracts.FORBIDDEN_LAYER_IMPORTS
                ):
                    findings.append(
                        ctx.finding(
                            "layering",
                            node,
                            f"module-scope import of {target!r} from the "
                            f"{package!r} engine layer; the flow/CLI layer "
                            "must depend on engines, never the reverse "
                            "(lazy function-scope imports are the "
                            "sanctioned seam)",
                        )
                    )
    return findings


# ----------------------------------------------------------------------
# Rule 4: raw-timing
# ----------------------------------------------------------------------
@register_rule(
    "raw-timing",
    "raw wall-clock reads (time.perf_counter / time.time / ...) are banned "
    "outside repro.obs; use repro.obs.clock() "
    "or span() so the unified tracer sees the measurement",
)
def check_raw_timing(ctx: "ModuleContext") -> List[Finding]:
    sub = ctx.repro_path
    if any(sub.startswith(allowed) for allowed in contracts.TIMING_ALLOWED_PATHS):
        return []
    # Resolve how this module names the stdlib time module (plain import,
    # aliased import, and from-imports of the banned calls themselves).
    time_aliases: Set[str] = set()
    from_time_names: Dict[str, str] = {}
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "time":
                    time_aliases.add(alias.asname or alias.name)
        elif isinstance(node, ast.ImportFrom):
            if node.module == "time" and node.level == 0:
                for alias in node.names:
                    if alias.name in contracts.RAW_TIMING_CALLS:
                        from_time_names[alias.asname or alias.name] = alias.name
    if not time_aliases and not from_time_names:
        return []

    findings: List[Finding] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        chain = _attr_chain(node.func)
        if (
            len(chain) == 2
            and chain[0] in time_aliases
            and chain[1] in contracts.RAW_TIMING_CALLS
        ):
            source = f"time.{chain[1]}"
        elif len(chain) == 1 and chain[0] in from_time_names:
            source = f"time.{from_time_names[chain[0]]}"
        else:
            continue
        findings.append(
            ctx.finding(
                "raw-timing",
                node,
                f"{source}() is a raw wall-clock read; route timing through "
                "repro.obs (clock() for durations, span() for traced "
                "sections) so the tracer stays the single timing source",
            )
        )
    return findings


def _module_scope_imports(tree: ast.Module) -> Iterable[ast.stmt]:
    """Import statements at module scope (including under top-level if/try)."""

    def visit(statements: Sequence[ast.stmt]) -> Iterable[ast.stmt]:
        for stmt in statements:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                yield stmt
            elif isinstance(stmt, ast.If):
                yield from visit(stmt.body)
                yield from visit(stmt.orelse)
            elif isinstance(stmt, ast.Try):
                yield from visit(stmt.body)
                for handler in stmt.handlers:
                    yield from visit(handler.body)
                yield from visit(stmt.orelse)
                yield from visit(stmt.finalbody)

    yield from visit(tree.body)


def _imported_modules(node: ast.stmt) -> Iterable[str]:
    if isinstance(node, ast.Import):
        for alias in node.names:
            yield alias.name
    elif isinstance(node, ast.ImportFrom):
        if node.module and node.level == 0:
            yield node.module
