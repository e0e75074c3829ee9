"""Pointcut-style trace filters.

RPRISM uses AspectJ pointcuts to select which parts of the program are
woven into the trace ("trace size was optimized by leveraging AspectJ
pointcuts to exclude the internal workings of unrelated code, such as
libraries and data structures").  ``TraceFilter`` reproduces that control:
modules are selected by prefix include/exclude lists, and individual
methods can be excluded by qualified-name prefix.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Modules whose internals are never traced (the tracing machinery itself
#: and interpreter plumbing).
ALWAYS_EXCLUDED_MODULES = (
    "repro.capture", "repro.core", "repro.analysis", "threading",
    "importlib", "_bootstrap", "contextlib", "typing", "abc",
)


def _matches(name: str, prefixes: tuple[str, ...]) -> bool:
    """True when ``name`` is one of ``prefixes`` or lies below one of
    them on a dotted boundary (``a.b`` matches ``a.b`` and ``a.b.c``,
    never ``a.bc``)."""
    for prefix in prefixes:
        if name == prefix or name.startswith(prefix + "."):
            return True
    return False


@dataclass(slots=True)
class TraceFilter:
    """Decides which code joins the trace.

    ``include_modules`` — module names to trace, each with its
    submodules; empty means "trace everything not excluded".
    ``exclude_modules`` adds further exclusions (again with submodules)
    on top of the built-in ones.  ``exclude_methods`` filters qualified
    method names (``Class.method`` or ``module.function``) by plain
    prefix.

    The weaver asks each question once per code object (modules) or
    once per qualified name (methods) and caches the answer, so a
    filter must not be changed while a tracer uses it.
    """

    include_modules: tuple[str, ...] = ()
    exclude_modules: tuple[str, ...] = ()
    exclude_methods: tuple[str, ...] = ()

    def admits_module(self, module_name: str | None) -> bool:
        if not module_name:
            return False
        if _matches(module_name, ALWAYS_EXCLUDED_MODULES):
            return False
        if _matches(module_name, self.exclude_modules):
            return False
        return (not self.include_modules
                or _matches(module_name, self.include_modules))

    def admits_method(self, qualified_name: str) -> bool:
        return not any(qualified_name.startswith(prefix)
                       for prefix in self.exclude_methods)
