"""Exact digit statistics of s-ary expansions and digit-stream constructions.

The package computes digit frequencies and digit means with exact
rational arithmetic, expands rationals into eventually periodic digit
strings, builds streams with prescribed digit statistics (including a
ternary stream whose digit mean converges while its digit-0 frequency
oscillates, and one whose mean has no limit at all), and verifies the
uniform-digit behaviour of random streams with a reproducible Monte
Carlo harness.

Importing the package imports none of its modules: a public name, such
as ``digitstats.running_stats``, is looked up in the modules' own
``__all__`` on first use (PEP 562), and only the modules searched up to
it are imported. So the CLI, and each of its subcommands, loads only the
layers it runs.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# the modules whose `__all__` is public, searched in this order
_MODULES = ("errors", "rationals", "core", "stats", "construct", "simulate")


def _module(name: str):
    return _import_module(f"{__name__}.{name}")


def __getattr__(name: str):
    if name == "__all__":
        return ["__version__", *(public for module in _MODULES for public in _module(module).__all__)]
    if name in _MODULES:
        return _module(name)
    if not name.startswith("_"):
        for module in map(_module, _MODULES):
            if name in module.__all__:
                value = globals()[name] = getattr(module, name)
                return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__")})
