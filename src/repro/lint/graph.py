"""Project symbol graph: the whole-program layer under simlint.

Every rule that needs more than one statement's worth of context reads
its facts from here, built once per lint run:

- a **node index**: every module's nodes, and every function's, in
  ``ast.walk`` order, from one walk of each module.  Rules and the
  analyses below filter these sequences instead of walking trees again;
- a **module table** keyed by dotted name (derived from ``__init__.py``
  packaging on disk), with one import table per module covering
  ``import a.b as c``, ``from m import X as Y``, relative imports, and
  imports inside function bodies (recorded module-wide);
- per-module **direct sources**: every call that reads host time, host
  entropy or the process-global RNG, classified once through that import
  table (SIM002/SIM003 report them, the taint fixpoint starts from them);
- a **class table** per module (methods and base-class expressions),
  with bases resolved across modules into a linearized ancestor list, so
  a ``self.m()`` or ``super().m()`` call resolves to the class that
  defines ``m``;
- a **call-edge index** with an inter-procedural **taint fixpoint**:
  which functions (module-level or methods) return values derived from
  wall-clock reads or process-global RNG draws, propagated through
  project-local call chains until stable.

The graph is deliberately approximate in the direction of *fewer false
positives*: unresolvable calls and bases contribute nothing, and name
resolution never imports or executes project code — everything is
derived from the parsed ASTs.
"""

from __future__ import annotations

import ast
import functools
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)
_ASSIGN_NODES = (ast.Assign, ast.AnnAssign, ast.AugAssign)

# -- direct sources (SIM002, SIM003, SIM013) ---------------------------------

#: description prefixes of the three source kinds
WALL_CLOCK = "wall-clock read"
GLOBAL_RNG = "global RNG"
HOST_ENTROPY = "host entropy"

#: module-level functions of ``time`` that read the host clock
_TIME_FUNCS = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "process_time_ns", "clock",
})
_DATETIME_FUNCS = frozenset({"now", "utcnow", "today"})
#: names importable from random/numpy.random that do NOT touch global state
_SAFE_RNG_FACTORIES = frozenset({
    "Random", "SystemRandom", "default_rng", "Generator", "RandomState",
    "SeedSequence", "BitGenerator", "PCG64", "Philox", "MT19937", "SFC64",
})
_OS_ENTROPY_FUNCS = frozenset({"urandom", "getrandom"})
_UUID_RANDOM_FUNCS = frozenset({"uuid1", "uuid4"})


def _source_for_dotted(dotted: str) -> Optional[str]:
    """Description of the source a fully-resolved dotted callee reads
    (``"wall-clock read 'time.monotonic'"``), or None."""
    parts = dotted.split(".")
    if len(parts) < 2:
        return None
    root, leaf = parts[0], parts[-1]
    if root == "time" and leaf in _TIME_FUNCS:
        return f"{WALL_CLOCK} 'time.{leaf}'"
    if root in ("datetime", "date") and leaf in _DATETIME_FUNCS:
        return f"{WALL_CLOCK} '{dotted}'"
    if root == "os" and leaf in _OS_ENTROPY_FUNCS:
        return f"{HOST_ENTROPY} 'os.{leaf}'"
    if root == "uuid" and leaf in _UUID_RANDOM_FUNCS:
        return f"{HOST_ENTROPY} 'uuid.{leaf}'"
    if root == "secrets":
        return f"{HOST_ENTROPY} 'secrets.{leaf}'"
    if root == "random" and leaf not in _SAFE_RNG_FACTORIES:
        return f"{GLOBAL_RNG} 'random.{leaf}'"
    if root == "numpy" and "random" in parts[1:-1] \
            and leaf not in _SAFE_RNG_FACTORIES:
        return f"{GLOBAL_RNG} 'numpy.random.{leaf}'"
    return None


@dataclass
class ClassInfo:
    """One class definition: its methods and base-class expressions."""

    name: str
    module: "ModuleInfo"
    base_exprs: List[ast.expr] = field(default_factory=list)
    methods: Dict[str, "FunctionInfo"] = field(default_factory=dict)

    @property
    def qualname(self) -> str:
        return f"{self.module.name}.{self.name}"


@dataclass(eq=False)
class FunctionInfo:
    """A module-level function or a method: a taint-analysis participant,
    with its share of the run's node index."""

    module: "ModuleInfo"
    cls: Optional[ClassInfo]
    name: str
    node: ast.AST                          # FunctionDef / AsyncFunctionDef

    @property
    def nodes(self) -> List[ast.AST]:
        """``list(ast.walk(node))``, from the module's node index."""
        return self.module.walk(self.node)

    @functools.cached_property
    def returns(self) -> List[ast.Return]:
        """``return <value>`` statements, in ``nodes`` order."""
        return [node for node in self.nodes
                if isinstance(node, ast.Return) and node.value is not None]

    @functools.cached_property
    def assigns(self) -> List[ast.stmt]:
        """Assign / AnnAssign / AugAssign statements, in ``nodes`` order."""
        return [node for node in self.nodes
                if isinstance(node, _ASSIGN_NODES)]

    @property
    def key(self) -> Tuple[str, str, str]:
        return (self.module.name, self.cls.name if self.cls else "",
                self.name)

    @property
    def qualname(self) -> str:
        if self.cls is not None:
            return f"{self.cls.qualname}.{self.name}"
        return f"{self.module.name}.{self.name}"


class ModuleInfo:
    """One parsed project module and its local symbol tables."""

    def __init__(self, path: str, name: str, tree: ast.Module) -> None:
        self.path = path
        self.name = name                       # dotted; "" for scripts
        self.tree = tree
        #: local alias -> dotted target (module or module.symbol), for
        #: every import in the module, function-local ones included
        self.imports: Dict[str, str] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        #: call -> description, for every direct source read
        self.sources: Dict[ast.Call, str] = {}
        #: (import statement, description) per ``from m import f``
        #: binding that names a source function
        self.bound_sources: List[Tuple[ast.ImportFrom, str]] = []
        #: the run's node index: ``list(ast.walk(tree))``, and where in
        #: it lies the walk of each outermost function (one not nested
        #: in another function), in walk order; see :meth:`walk`
        self.nodes, self._slices = _walk_module(tree)
        self._index()

    # -- construction --------------------------------------------------------
    def _index(self) -> None:
        package = self.name.rsplit(".", 1)[0] if "." in self.name else ""
        calls: List[ast.Call] = []
        for node in self.nodes:
            if isinstance(node, ast.Call):
                calls.append(node)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else \
                        alias.name.split(".")[0]
                    self.imports[local] = target
            elif isinstance(node, ast.ImportFrom):
                base = self._resolve_from(node, package)
                if base is None:
                    continue
                for alias in node.names:
                    target = f"{base}.{alias.name}" if base else alias.name
                    origin = _source_for_dotted(target)
                    if origin is not None:
                        self.bound_sources.append((node, origin))
                    if alias.name != "*":
                        self.imports[alias.asname or alias.name] = target
        for call in calls:
            origin = self._direct_source(call)
            if origin is not None:
                self.sources[call] = origin
        for node in self.tree.body:
            if isinstance(node, ast.ClassDef):
                self.classes[node.name] = _build_class(self, node)
            elif isinstance(node, _FUNCTION_NODES):
                self.functions[node.name] = FunctionInfo(
                    module=self, cls=None, name=node.name, node=node)

    def _direct_source(self, call: ast.Call) -> Optional[str]:
        """Description of a wall-clock / entropy / global-RNG read,
        resolved through this module's import table, or None."""
        func = call.func
        if isinstance(func, ast.Name):
            target = self.imports.get(func.id)
            return None if target is None else _source_for_dotted(target)
        if isinstance(func, ast.Attribute):
            base, attrs = attribute_chain(func)
            if not isinstance(base, ast.Name):
                return None
            head = self.imports.get(base.id, base.id
                                    if base.id in ("datetime", "date")
                                    else None)
            if head is None:
                return None
            return _source_for_dotted(".".join([head] + attrs))
        return None

    def scopes(self) -> Iterable[ast.AST]:
        """The outermost functions, in walk order."""
        return self._slices.keys()

    def walk(self, function: ast.AST) -> List[ast.AST]:
        """``list(ast.walk(function))`` for an outermost function, cut
        from :attr:`nodes`."""
        pairs = self._slices[function]
        out: List[ast.AST] = []
        for k in range(0, len(pairs), 2):
            out += self.nodes[pairs[k]:pairs[k + 1]]
        return out

    def all_functions(self) -> List[FunctionInfo]:
        """Module-level functions, then methods class by class."""
        return list(self.functions.values()) + [
            method for cls in self.classes.values()
            for method in cls.methods.values()]

    def _resolve_from(self, node: ast.ImportFrom,
                      package: str) -> Optional[str]:
        """Absolute dotted base of a ``from X import ...`` statement."""
        if node.level == 0:
            return node.module or ""
        # Relative import: climb level-1 packages above this module's
        # package (level 1 == the package itself).
        parts = package.split(".") if package else []
        drop = node.level - 1
        if drop > len(parts):
            return None
        base_parts = parts[: len(parts) - drop]
        if node.module:
            base_parts.append(node.module)
        return ".".join(base_parts)


def _walk_module(tree: ast.Module
                 ) -> Tuple[List[ast.AST], Dict[ast.AST, array]]:
    """``list(ast.walk(tree))``, and where in it each outermost function's
    own walk lies.

    ``ast.walk`` is breadth-first.  Restricted to one subtree, a
    breadth-first order is the subtree's own, and the subtree's nodes at
    one depth sit next to each other: the children of one slice are
    appended while that slice is walked, so they form the next slice.  A
    function's walk is thus one slice of the module's per depth, kept as
    flat (start, stop) pairs.
    """
    nodes: List[ast.AST] = [tree]
    slices: Dict[ast.AST, array] = {}
    # start of a function's next slice -> (its pairs, stop of the slice)
    pending: Dict[int, Tuple[array, int]] = {}
    pairs: Optional[array] = None          # of the slice being walked
    stop = first_child = 0
    for i, node in enumerate(nodes):       # grows while it is iterated
        if pairs is None:
            if i in pending:
                pairs, stop = pending.pop(i)
                first_child = len(nodes)
            elif isinstance(node, _FUNCTION_NODES):
                pairs = slices[node] = array("I", (i, i + 1))
                stop, first_child = i + 1, len(nodes)
        for name in node._fields:          # ast.iter_child_nodes, inlined
            value = getattr(node, name, None)
            if isinstance(value, ast.AST):
                nodes.append(value)
            elif isinstance(value, list):
                nodes.extend(item for item in value
                             if isinstance(item, ast.AST))
        if pairs is not None and i + 1 == stop:
            if len(nodes) > first_child:
                pairs.extend((first_child, len(nodes)))
                pending[first_child] = (pairs, len(nodes))
            pairs = None
    return nodes, slices


def attribute_chain(node: ast.expr) -> Tuple[Optional[ast.expr], List[str]]:
    """Unroll ``a.b.c`` into ``(base_node, ["b", "c"])``.

    The base is whatever the left-most value is — a Name, a Call result,
    a subscript, etc.  For a bare Name the chain is empty.
    """
    attrs: List[str] = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    attrs.reverse()
    return node, attrs


def _build_class(module: ModuleInfo, node: ast.ClassDef) -> ClassInfo:
    info = ClassInfo(name=node.name, module=module,
                     base_exprs=list(node.bases))
    for stmt in node.body:
        if isinstance(stmt, _FUNCTION_NODES):
            info.methods[stmt.name] = FunctionInfo(
                module=module, cls=info, name=stmt.name, node=stmt)
    return info


def _assign_targets(stmt: ast.AST) -> List[ast.expr]:
    if isinstance(stmt, ast.Assign):
        out: List[ast.expr] = []
        for target in stmt.targets:
            if isinstance(target, ast.Tuple):
                out.extend(target.elts)
            else:
                out.append(target)
        return out
    if isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        return [stmt.target]
    return []


def _self_attr_name(target: ast.expr) -> Optional[str]:
    """``self.X`` (exactly one hop) -> ``X``; anything else -> None."""
    if (isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"):
        return target.attr
    return None


def _reaches_taint(called: Optional[List[FunctionInfo]],
                   summaries: Dict[Tuple[str, str, str], str]) -> bool:
    """Whether a function with these callees (None: it reads a source
    itself) can return or bind a tainted value."""
    return called is None or any(fn.key in summaries for fn in called)


def module_name_for(path: Path) -> str:
    """Dotted module name from on-disk packaging.

    Walks up while ``__init__.py`` marks the parent as a package, so
    ``src/repro/memsys/dram.py`` -> ``repro.memsys.dram`` and an
    un-packaged script is just its stem.
    """
    path = Path(path)
    parts = [path.stem] if path.stem != "__init__" else []
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) if parts else path.stem


class ProjectGraph:
    """Cross-module symbol graph over one lint run's file set."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.by_path: Dict[str, ModuleInfo] = {}
        self._taint: Optional[Dict[Tuple[str, str, str], str]] = None

    # -- construction --------------------------------------------------------
    def add_module(self, path, tree: ast.Module,
                   name: Optional[str] = None) -> ModuleInfo:
        norm = Path(path).as_posix()
        if name is None:
            name = module_name_for(Path(path))
        info = ModuleInfo(path=norm, name=name, tree=tree)
        self.modules[name] = info
        self.by_path[norm] = info
        self._taint = None
        return info

    def module_for(self, path) -> Optional[ModuleInfo]:
        return self.by_path.get(Path(path).as_posix())

    # -- name resolution -----------------------------------------------------
    def resolve(self, module: ModuleInfo, dotted: str):
        """Resolve a dotted name seen in ``module`` to a project symbol.

        Returns a :class:`ClassInfo`, :class:`FunctionInfo`, or
        :class:`ModuleInfo`, or None when the name leaves the linted
        tree (stdlib, third-party, un-linted files).
        """
        parts = dotted.split(".")
        head, rest = parts[0], parts[1:]
        target = module.imports.get(head)
        if target is not None:
            absolute = target.split(".") + rest
        elif head in module.classes:
            return self._navigate_class(module.classes[head], rest)
        elif head in module.functions:
            return module.functions[head] if not rest else None
        else:
            absolute = None
        if absolute is None:
            return None
        # Longest module prefix, then navigate the remainder.
        for cut in range(len(absolute), 0, -1):
            mod = self.modules.get(".".join(absolute[:cut]))
            if mod is None:
                continue
            remainder = absolute[cut:]
            if not remainder:
                return mod
            head, rest = remainder[0], remainder[1:]
            if head in mod.classes:
                return self._navigate_class(mod.classes[head], rest)
            if head in mod.functions and not rest:
                return mod.functions[head]
            return None
        return None

    @staticmethod
    def _navigate_class(cls: ClassInfo, rest: List[str]):
        if not rest:
            return cls
        if len(rest) == 1:
            return cls.methods.get(rest[0])
        return None

    # -- class hierarchy -----------------------------------------------------
    def base_of(self, cls: ClassInfo, expr: ast.expr):
        """Resolve one base-class expression to a ClassInfo or a terminal
        name string (unresolvable bases keep their last dotted part)."""
        base, attrs = attribute_chain(expr)
        if isinstance(base, ast.Name):
            dotted = ".".join([base.id] + attrs)
            resolved = self.resolve(cls.module, dotted)
            if isinstance(resolved, ClassInfo):
                return resolved
            return (attrs[-1] if attrs else base.id)
        return None

    def ancestors(self, cls: ClassInfo) -> Tuple[List[ClassInfo],
                                                 Set[str]]:
        """(resolved ancestor classes incl. ``cls`` in MRO-ish order,
        unresolved terminal base names)."""
        order: List[ClassInfo] = []
        unresolved: Set[str] = set()
        seen: Set[int] = set()

        def visit(node: ClassInfo) -> None:
            if id(node) in seen:
                return
            seen.add(id(node))
            order.append(node)
            for expr in node.base_exprs:
                base = self.base_of(node, expr)
                if isinstance(base, ClassInfo):
                    visit(base)
                elif isinstance(base, str):
                    unresolved.add(base)

        visit(cls)
        return order, unresolved

    def find_method(self, cls: ClassInfo, name: str
                    ) -> Optional[Tuple[ClassInfo, FunctionInfo]]:
        """Locate ``name`` in the class's resolved ancestor chain."""
        order, _unresolved = self.ancestors(cls)
        for anc in order:
            method = anc.methods.get(name)
            if method is not None:
                return anc, method
        return None

    # -- taint fixpoint (SIM013) ---------------------------------------------
    def taint_summaries(self) -> Dict[Tuple[str, str, str], str]:
        """fn-key -> human-readable taint origin, for every project
        function whose *return value* derives from a wall-clock read or a
        process-global RNG draw (directly, or through project calls)."""
        if self._taint is None:
            self._taint = self._compute_taint()
        return self._taint

    def _compute_taint(self) -> Dict[Tuple[str, str, str], str]:
        functions = [fn for _name, module in sorted(self.modules.items())
                     for fn in module.all_functions()]
        summaries: Dict[Tuple[str, str, str], str] = {}
        callees = [self._callees(fn) for fn in functions]
        changed = True
        # Fixpoint: each pass may discover taint flowing one call deeper.
        while changed:
            changed = False
            for fn, called in zip(functions, callees):
                if fn.key in summaries or not _reaches_taint(called,
                                                             summaries):
                    continue
                origin = self._returns_taint(fn, summaries)
                if origin is not None:
                    summaries[fn.key] = origin
                    changed = True
        return summaries

    def _callees(self, fn: FunctionInfo) -> Optional[List[FunctionInfo]]:
        """The project functions ``fn`` calls, or None when it reads a
        source directly: taint enters a function only through a call."""
        called: List[FunctionInfo] = []
        for node in fn.nodes:
            if isinstance(node, ast.Call):
                if node in fn.module.sources:
                    return None
                target = self.call_target(fn, node)
                if target is not None:
                    called.append(target)
        return called

    def can_taint(self, fn: FunctionInfo,
                  summaries: Dict[Tuple[str, str, str], str]) -> bool:
        """False when nothing in ``fn`` can be tainted: none of its calls
        reads a source or reaches a function in ``summaries``."""
        return _reaches_taint(self._callees(fn), summaries)

    def _returns_taint(self, fn: FunctionInfo,
                       summaries: Dict[Tuple[str, str, str], str]
                       ) -> Optional[str]:
        tainted_locals = self.tainted_locals(fn, summaries)
        for node in fn.returns:
            origin = self.expr_taint(fn, node.value, tainted_locals,
                                     summaries)
            if origin is not None:
                return origin
        return None

    def tainted_locals(self, fn: FunctionInfo,
                       summaries: Optional[Dict] = None
                       ) -> Dict[str, str]:
        """Local name -> taint origin, from straight-line assignments
        inside ``fn`` (two passes so later-defined helpers feed earlier
        uses conservatively)."""
        if summaries is None:
            summaries = self.taint_summaries()
        tainted: Dict[str, str] = {}
        for _ in range(2):
            before = len(tainted)
            for stmt in fn.assigns:
                value = stmt.value
                if value is None:
                    continue
                origin = self.expr_taint(fn, value, tainted, summaries)
                if origin is None:
                    continue
                for target in _assign_targets(stmt):
                    if isinstance(target, ast.Name):
                        tainted[target.id] = origin
                    else:
                        attr = _self_attr_name(target)
                        if attr is not None:
                            tainted[f"self.{attr}"] = origin
            if len(tainted) == before:
                break
        return tainted

    def expr_taint(self, fn: FunctionInfo, expr: ast.expr,
                   tainted_locals: Dict[str, str],
                   summaries: Dict[Tuple[str, str, str], str]
                   ) -> Optional[str]:
        """Taint origin of ``expr`` inside ``fn``, or None."""
        for node in ast.walk(expr):
            if isinstance(node, ast.Name) and node.id in tainted_locals:
                return tainted_locals[node.id]
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                    and f"self.{node.attr}" in tainted_locals):
                return tainted_locals[f"self.{node.attr}"]
            if not isinstance(node, ast.Call):
                continue
            origin = fn.module.sources.get(node)
            if origin is not None:
                return origin
            target = self.call_target(fn, node)
            if target is not None:
                summary = summaries.get(target.key)
                if summary is not None:
                    return (f"{summary} via call to "
                            f"'{target.qualname}'")
        return None

    def call_target(self, fn: FunctionInfo,
                    call: ast.Call) -> Optional[FunctionInfo]:
        """Resolve a call inside ``fn`` to a project function, if any."""
        func = call.func
        if isinstance(func, ast.Name):
            resolved = self.resolve(fn.module, func.id)
            if isinstance(resolved, FunctionInfo):
                return resolved
            return None
        if isinstance(func, ast.Attribute):
            value = func.value
            is_self = isinstance(value, ast.Name) and value.id == "self"
            is_super = (isinstance(value, ast.Call)
                        and isinstance(value.func, ast.Name)
                        and value.func.id == "super")
            if (is_self or is_super) and fn.cls is not None:
                # The *defining* class's method: that is how the summary
                # table keys methods.
                found = self.find_method(fn.cls, func.attr)
                return None if found is None else found[1]
            base, attrs = attribute_chain(func)
            if isinstance(base, ast.Name):
                resolved = self.resolve(fn.module,
                                        ".".join([base.id] + attrs))
                if isinstance(resolved, FunctionInfo):
                    return resolved
        return None
