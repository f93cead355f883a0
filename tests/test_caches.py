"""Every functools cache in the library is bounded: no module keeps an
lru_cache (or functools.cache) that can grow without limit."""

import importlib
import inspect
import pkgutil

import juliazeta


def _module_caches() -> dict[str, int | None]:
    """maxsize of each functools cache defined at module or class level,
    keyed by the cached function's qualified name."""
    caches = {}
    for info in pkgutil.iter_modules(juliazeta.__path__):
        if info.name == "__main__":   # importing it runs the CLI
            continue
        module = importlib.import_module(f"juliazeta.{info.name}")
        owners = [module] + [cls for _, cls in inspect.getmembers(module, inspect.isclass)
                             if cls.__module__ == module.__name__]
        for owner in owners:
            for obj in vars(owner).values():
                obj = getattr(obj, "__func__", obj)   # static and class methods
                if hasattr(obj, "cache_parameters"):
                    caches[f"{obj.__module__}.{obj.__qualname__}"] = \
                        obj.cache_parameters()["maxsize"]
    return caches


def test_every_functools_cache_has_a_finite_maxsize():
    caches = _module_caches()
    assert all(size is not None for size in caches.values()), caches
    assert caches == {"juliazeta.pairing._gauss_legendre": 16}
