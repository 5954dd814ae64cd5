"""Every module-level memo of the package is a bounded lru_cache, and the
small models behind the Steinberg product are built once and shared."""

import importlib
import pkgutil

import commonbasis
from commonbasis import simpmodel, steinberg
from commonbasis.simpmodel import d_model, mu_chain
from commonbasis.steinberg import st_module, tor


def _modules():
    return [importlib.import_module(f"commonbasis.{info.name}")
            for info in pkgutil.iter_modules(commonbasis.__path__)]


def _memos() -> dict:
    return {f"{mod.__name__}.{attr}": value
            for mod in _modules() for attr, value in vars(mod).items()
            if hasattr(value, "cache_parameters") and value.__module__ == mod.__name__}


def test_every_module_memo_is_a_bounded_lru_cache():
    memos = _memos()
    assert {"commonbasis.cbp._decide", "commonbasis.exactlin.GF",
            "commonbasis.simpmodel._model", "commonbasis.steinberg._st_module"} <= set(memos)
    for name, memo in memos.items():
        assert memo.cache_parameters()["maxsize"] is not None, name
    for mod in _modules():
        for attr, value in vars(mod).items():
            assert not (attr.endswith("_CACHE") and isinstance(value, dict)), f"{mod.__name__}.{attr}"


def test_steinberg_module_and_shuffle_product_share_the_model():
    assert st_module(3, 2).model is mu_chain(1, 0, 1, 2, 2)[2]


def test_tor_builds_each_small_model_once(monkeypatch):
    for memo in _memos().values():
        memo.cache_clear()
    builds = []

    def counting(a, b, n, p, *rest):
        builds.append((a, b, n, p))
        return d_model(a, b, n, p, *rest)

    monkeypatch.setattr(simpmodel, "d_model", counting)
    monkeypatch.setattr(steinberg, "d_model", counting)
    assert tor(2, 2).koszul
    # the Steinberg modules of ranks 1 and 2, whose models the shuffle
    # product reuses, and the two-factor model of the cross-check
    assert sorted(builds) == [(1, 0, 1, 2), (1, 0, 2, 2), (2, 0, 2, 2)]
