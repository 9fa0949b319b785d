"""SIM012: drift between ``config_state()`` and the reseat/fork path.

``reseat`` adopts a snapshot across a config change by reading the
snapshot's *config descriptor* — the dict ``config_state()`` recorded at
capture time — to remap workload payloads into the live geometry.  The
two sides drift independently: a ``reseat`` that starts consuming a key
``config_state`` never writes reads ``None``-ish garbage from every
existing snapshot, and a ``config_state`` entry reading an attribute
that was renamed away crashes (or worse, records a stale class-level
shadow) on the next fork.  Both failure modes surface only in a
cross-config sweep — exactly the expensive place to debug them.

Checked, per SimComponent subclass that defines ``reseat``:

- every string key subscripted out of the snapshot's config dict inside
  ``reseat`` (``state["config"]["k"]``, or through a local like
  ``saved_cfg = state["config"]``) must be a key some ``config_state``
  in the class hierarchy literally writes;
- every ``self.<attr>`` read inside the class's own ``config_state``
  dict must be an attribute the class hierarchy actually assigns or
  declares somewhere.

Classes whose ``config_state`` does not return a plain dict literal are
skipped — the rule never guesses about computed descriptors.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

from ..findings import Finding, LintContext
from ..graph import FunctionInfo
from ..registry import Rule, register_rule

_CONFIG_KEY = "config"


def _literal_config_keys(method: FunctionInfo) -> Optional[Set[str]]:
    """String keys of every dict literal returned by ``config_state``;
    None when any return value is not a plain dict literal."""
    keys: Set[str] = set()
    for node in method.returns:
        value = node.value
        if not isinstance(value, ast.Dict):
            return None
        for key in value.keys:
            if isinstance(key, ast.Constant) and isinstance(key.value,
                                                            str):
                keys.add(key.value)
            else:
                return None
    return keys


def _is_state_config_read(node: ast.expr, state_names: Set[str]) -> bool:
    """``state["config"]`` or ``state.get("config")`` on a known state
    local."""
    if isinstance(node, ast.Subscript):
        target = node.value
        sl = node.slice
        return (isinstance(target, ast.Name)
                and target.id in state_names
                and isinstance(sl, ast.Constant)
                and sl.value == _CONFIG_KEY)
    if isinstance(node, ast.Call):
        func = node.func
        return (isinstance(func, ast.Attribute) and func.attr == "get"
                and isinstance(func.value, ast.Name)
                and func.value.id in state_names
                and bool(node.args)
                and isinstance(node.args[0], ast.Constant)
                and node.args[0].value == _CONFIG_KEY)
    return False


def _self_attr_reads(method: FunctionInfo
                     ) -> List[Tuple[str, ast.Attribute]]:
    """``self.X`` reads inside dict literals returned by config_state
    (call targets like ``self._describe()`` are behaviour, not state)."""
    call_funcs = {id(node.func) for node in method.nodes
                  if isinstance(node, ast.Call)}
    out: List[Tuple[str, ast.Attribute]] = []
    for ret in method.returns:
        if not isinstance(ret.value, ast.Dict):
            continue
        for node in ast.walk(ret.value):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                    and id(node) not in call_funcs):
                out.append((node.attr, node))
    return out


@register_rule
class ConfigStateDrift(Rule):
    code = "SIM012"
    name = "config-state-drift"
    description = (
        "The reseat/fork path and config_state() disagree: reseat reads "
        "a snapshot config key that no config_state() in the hierarchy "
        "writes, or config_state() records an attribute the class never "
        "assigns.  Cross-config forks then misinterpret (or crash on) "
        "every existing snapshot.")

    def check(self, tree: ast.Module,
              ctx: LintContext) -> Iterator[Finding]:
        graph, module = ctx.graph, ctx.module
        if graph is None or module is None:
            return
        for cls in sorted(module.classes.values(),
                          key=lambda c: c.node.lineno):
            if not graph.is_sim_component(cls):
                continue
            yield from self._check_reseat_keys(ctx, graph, cls)
            yield from self._check_config_attrs(ctx, graph, cls)

    def _check_reseat_keys(self, ctx, graph, cls) -> Iterator[Finding]:
        reseat = cls.methods.get("reseat")
        if reseat is None:
            return
        found = graph.find_method(cls, "config_state", skip_root=True)
        produced: Optional[Set[str]] = set()
        if found is not None:
            produced = _literal_config_keys(found[1])
        if produced is None:      # computed descriptor: do not guess
            return
        state_names = {arg.arg for arg in reseat.node.args.args[1:2]}
        cfg_locals: Set[str] = set()
        for stmt in reseat.assigns:
            if isinstance(stmt, ast.Assign) and _is_state_config_read(
                    stmt.value, state_names):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        cfg_locals.add(target.id)
        reported: Set[str] = set()
        for sub in reseat.nodes:
            if not isinstance(sub, ast.Subscript):
                continue
            sl = sub.slice
            if not (isinstance(sl, ast.Constant)
                    and isinstance(sl.value, str)):
                continue
            target = sub.value
            through_local = (isinstance(target, ast.Name)
                             and target.id in cfg_locals)
            direct = _is_state_config_read(target, state_names)
            if not (through_local or direct):
                continue
            key = sl.value
            if key in produced or key in reported:
                continue
            reported.add(key)
            yield self.finding(
                ctx, sub,
                f"{cls.name}.reseat reads snapshot config key {key!r} "
                f"that no config_state() in its hierarchy writes; "
                f"existing snapshots carry no such key")

    def _check_config_attrs(self, ctx, graph, cls) -> Iterator[Finding]:
        config_state = cls.methods.get("config_state")
        if config_state is None:
            return
        known = graph.inherited_attrs(cls)
        reported: Set[str] = set()
        for attr, node in _self_attr_reads(config_state):
            if attr in known or attr in reported:
                continue
            # Method calls (self.helper()) are not attribute state.
            if attr in {name for anc in graph.ancestors(cls)[0]
                        for name in anc.methods}:
                continue
            reported.add(attr)
            yield self.finding(
                ctx, node,
                f"{cls.name}.config_state reads 'self.{attr}' which "
                f"nothing in the class hierarchy ever assigns; the "
                f"descriptor would hit AttributeError (or a stale "
                f"shadow) at the next snapshot")
