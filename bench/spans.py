"""Span tracing of the facalc layers, installed from outside the package.

``Tracer.install()`` wraps every public function of every ``facalc`` module
(functions defined in that module whose name has no leading underscore) and
a few methods the per-layer metrics need.  A wrapper replaces the function
at every binding site: the defining module and every ``facalc`` module that
imported it by name (``slot_value`` in ``ainfty`` and ``evalhom``,
``word_blocks`` in ``morphisms`` and ``evalhom``, ``ev`` in ``cli``...).

Each call is a span whose parent is the nearest enclosing wrapped call;
``cli.main`` is the root.  Spans are aggregated in memory by (parent, name)
edge into calls, inclusive time and self time; self time is the span's
duration minus the time covered by its child spans.  Time spent in code
that is not wrapped, such as ``fractions`` or private helpers, is self time
of the nearest wrapped caller.

Nothing here runs unless a traced child calls ``install``; the untraced
benchmark imports no wrapper.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

# Methods traced in addition to module-level functions: (module, class, method).
METHODS = (
    ("morphisms", "Cofunctor", "comp_value"),
    ("morphisms", "Coderivation", "comp_value"),
    ("tcoalg", "TensorElement", "__init__"),
    ("filtquiver", "HomElement", "__init__"),
)


def _public_functions(module) -> List[Tuple[str, Callable]]:
    out = []
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            out.append((name, obj))
    return out


class Tracer:
    """Aggregated span tree plus the counters hooks add along the way."""

    def __init__(self) -> None:
        self.stack: List[list] = []  # frames: [span name, time covered by children]
        self.edges: Dict[Tuple[str, str], List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: Dict[str, int] = defaultdict(int)
        self._slot_args: set = set()
        self._restore: List[Tuple[object, str, object]] = []
        self._restore_items: List[Tuple[dict, object, object]] = []
        self._modules: Dict[str, object] = {}

    # -- installation -----------------------------------------------------

    def install(self) -> "Tracer":
        import facalc.cli  # noqa: F401  (loads every facalc module)

        self._modules = {
            name.split(".", 1)[1]: mod
            for name, mod in sys.modules.items()
            if name.startswith("facalc.") and mod is not None
        }
        self._word_blocks = self._modules["tcoalg"].word_blocks
        for short, mod in sorted(self._modules.items()):
            for name, fn in _public_functions(mod):
                self._rebind(fn, self._wrap(f"{short}.{name}", fn))
        for short, cls_name, meth in METHODS:
            cls = getattr(self._modules[short], cls_name)
            fn = cls.__dict__[meth]
            self._set(cls, meth, self._wrap(f"{short}.{cls_name}.{meth}", fn))
        return self

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._restore):
            setattr(owner, attr, old)
        for table, key, old in reversed(self._restore_items):
            table[key] = old
        self._restore.clear()
        self._restore_items.clear()

    def _set(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _rebind(self, old, new) -> None:
        """Replace ``old`` by ``new`` at every facalc binding site: module
        globals and the values of module-level dicts (``cli.CHECKS``)."""
        for mod in self._modules.values():
            for attr, value in list(vars(mod).items()):
                if value is old:
                    self._set(mod, attr, new)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is old:
                            self._set_item(value, key, new)

    def _set_item(self, table: dict, key, new) -> None:
        self._restore_items.append((table, key, table[key]))
        table[key] = new

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._counting_generator(name, fn)
        return self._span(name, fn, getattr(self, "_after_" + name.replace(".", "_"), None))

    def _span(self, name: str, fn, after):
        stack = self.stack
        edges = self.edges
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += elapsed
                edge = edges[(parent[0] if parent else "", name)]
                edge[0] += 1
                edge[1] += elapsed
                edge[2] += elapsed - frame[1]
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _counting_generator(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[name + ".yields"] += 1
                yield item

        return wrapper

    # -- hooks: counters measured where the work happens ---------------------

    def _after_morphisms_slot_value(self, args, kwargs, result) -> None:
        self.counts["slot_value.out_terms"] += len(result[0].terms)
        x, slots = args[0], tuple(args[1])
        window = args[2] if len(args) > 2 else kwargs["window"]
        trunc = args[3] if len(args) > 3 else kwargs.get("length_truncate", True)
        key = (x, slots, window, trunc)
        if key in self._slot_args:
            self.counts["slot_value.repeats"] += 1
        else:
            self._slot_args.add(key)

    def _after_novikov_nov_mul(self, args, kwargs, result) -> None:
        self.counts["nov_mul.term_products"] += len(args[0].terms) * len(args[1].terms)

    def _after_tcoalg_truncate_element(self, args, kwargs, result) -> None:
        if result[1]:
            self.counts["truncate.lossy"] += 1

    def _after_structfile_dump_document(self, args, kwargs, result) -> None:
        self.counts["dump.bytes"] += len(result.encode("utf-8"))

    def _entries(self, args, kwargs, result) -> None:
        self.counts["check.entries"] += len(result)

    _after_ainfty_check_b_squared = _entries
    _after_ainfty_check_ainf_functor = _entries
    _after_ainfty_check_coder_b_squared = _entries
    _after_ainfty_check_transfer_identity = _entries

    # -- report -----------------------------------------------------------

    def report(self) -> dict:
        info = self._word_blocks.cache_info()
        return {
            "edges": [[p, n, c, t, s] for (p, n), (c, t, s) in sorted(self.edges.items())],
            "counts": dict(self.counts),
            "word_blocks": {"hits": info.hits, "misses": info.misses, "cached": info.currsize},
        }
